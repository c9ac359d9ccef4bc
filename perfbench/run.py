"""transemi benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Inputs are generated from --seed into
`.perfbench_work/` and removed afterwards. Set-up is measured in
SETUP_RUNS fresh processes and reported as their median. The workload
process then runs closed-loop passes over its operation list for up to
--seconds (at least one pass). The timing metrics rescale every operation
to a reference host speed, gauged by a speed probe run between operations,
and take each operation's geometric mean over the passes.
With --trace 1 it runs one untraced and one traced pass instead, prints
the per-layer metrics, and writes the spans to `.perfbench_out/`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# OpenBLAS threads for the workload process. On the 2-core reference
# machine two threads gave check-large no shorter wall time than one and
# more CPU time, so the workload keeps to one core (see README.md).
BLAS_THREADS = 1
SETUP_RUNS = 3
# The speed probe's time (worker.speed_probe, wall and CPU alike) at the
# reference host speed: about its median on the 2-core reference machine.
PROBE_REF_S = 0.020
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms", "op_p90_ms": "ms"}


def _worker(plan: Path, out: Path, env: dict, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan), "--out", str(out)]
    subprocess.run(cmd + extra, env=env, check=True, timeout=max(timeout, 1.0))
    return json.loads(out.read_text())


def _setup_s(res: dict) -> float:
    """Set-up time at the reference host speed."""
    return res["setup_s"] * PROBE_REF_S / res["setup_probe"]


def _pass_wall(p: dict) -> float:
    """A pass's wall time at the reference host speed, by its probes' median."""
    return p["wall"] * PROBE_REF_S / statistics.median(pr[0] for pr in p["probes"])


def _run_metrics(passes: list[dict]) -> dict:
    """Timing metrics at the reference host speed: each operation's time is
    rescaled by the speed probes around it (stats.at_reference_speed), and
    its geometric mean over the run's passes is taken (stats.per_op_geomean)."""
    def scaled(times, probes):
        return stats.per_op_geomean([
            stats.at_reference_speed(p[times], p["probe_before"],
                                     [pr[probes] for pr in p["probes"]], PROBE_REF_S)
            for p in passes])

    lat, cpu = scaled("latencies", 0), scaled("cpus", 1)
    done = [v for v in lat if v is not None]
    # A pass is charged for its whole operation list at the rate of the
    # operations that completed, so failing fast does not make it cheaper.
    scale = len(lat) / max(len(done), 1)
    run_s = sum(done) * scale
    return {
        "run_s": run_s,
        "cpu_s": sum(v for v in cpu if v is not None) * scale,
        "op_p50_ms": 1000 * stats.failure_aware_percentile(lat, 0.5, run_s),
        "op_p90_ms": 1000 * stats.failure_aware_percentile(lat, 0.9, run_s),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "transemi" / "__init__.py").is_file():
        print(f"benchmark: no transemi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            rc = main(["--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)])
            if rc:
                return rc
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS, nproc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.prepare(args.workload, args.seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out_path = workdir / "result.json"
        remaining = lambda: DEADLINE_S - (time.monotonic() - t_start)  # noqa: E731

        # Preparing the inputs imported transemi in this process, which
        # compiled its bytecode: every timed import below is a warm one.
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_setup_s(_worker(plan_path, out_path, env, ["--setup-only"],
                                               remaining())))
        res = _worker(plan_path, out_path, env,
                      ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      remaining())
        setups.append(_setup_s(res))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = res["passes"] + ([res["traced"]] if args.trace else [])
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(v is None for p in passes for v in p["latencies"])
    failures: dict[str, int] = {}
    for p in passes:
        for k, v in p["failures"].items():
            failures[k] = failures.get(k, 0) + v
    env_rec = {"nproc": nproc, "blas_threads": int(threads), **res["env"],
               "platform": platform.platform()}

    if args.trace:
        layers = dict(res["layers"])
        traced = res["traced"]
        for layer in ("closure", "representation"):
            layers[f"{layer}.errors"] = sum(
                v for k, v in traced["failures"].items() if k.startswith(layer + "."))
        layers["trace.overhead_s"] = _pass_wall(traced) - _pass_wall(res["passes"][0])
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in sorted(layers.items())}
        trace_dir = ROOT / ".perfbench_out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "env": env_rec,
             "instances": [{k: f[k] for k in f if k != "path"} for f in plan["files"]],
             "untraced_wall_s": res["passes"][0]["wall"], "traced_wall_s": traced["wall"],
             "metrics": layers, "failures": traced["failures"],
             "span_fields": ["name", "start", "end", "parent", "op"],
             "spans": res["spans"]}))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        values = _run_metrics(res["passes"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    kinds = [f["kind"] for f in plan["files"]]
    print(f"workload {args.workload} seed {args.seed}: "
          f"m = {[f['m'] for f in plan['files'] if f['kind'] == 'transformations']}, "
          f"abstract instances: {kinds.count('abstract')}")
    print("environment: " + json.dumps(env_rec, sort_keys=True))
    print(f"passes: {len(res['passes'])}, attempted {attempted}, failed {failed} "
          f"(failed_share {failed / attempted:.4f}), failures by layer: "
          + json.dumps(failures, sort_keys=True))
    if not args.trace:
        walls = stats.per_op_geomean([p["latencies"] for p in res["passes"]])
        probes = [pr[0] for p in res["passes"] for pr in p["probes"]]
        print(f"unscaled: run_s {sum(v for v in walls if v is not None):.4f} s, "
              f"speed probe median {statistics.median(probes):.6f} s "
              f"(reference {PROBE_REF_S} s)")
    for k, m in metrics.items():
        print(f"  {k:44s} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
