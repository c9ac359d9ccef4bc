"""One workload in a fresh process: set-up, then closed-loop passes.

Run by run.py as `python3 worker.py --plan PLAN --out RESULT [--seconds S]
[--trace 0|1] [--setup-only]`. The BLAS thread count comes from the
environment run.py gives this process. Set-up is the first import of
transemi (plus, for pair queries, loading and saturating the systems).
One caller runs the operations one after another, in process, the way
`transemi check` and `transemi represent` run; each output is checked
after the pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE_EVERY_S = 0.25
SETUP_PROBES = 3


def failure_kind(exc: BaseException) -> str:
    """`<layer>.<ExceptionType>`, the layer being the innermost transemi
    module in the traceback, or `bench` when there is none."""
    layer = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent == SRC / "transemi":
            layer = path.stem
    return f"{layer}.{type(exc).__name__}"


@functools.cache
def _probe_data():
    """The probe's fixed operands: 64 x 64 arrays for its numpy part, and
    an 8 MiB table larger than the core's cache for its memory part, a
    single-cycle pseudo-random permutation. They are made by integer
    arithmetic, not numpy.random, which would add its own modules to the
    workload's peak memory; the table itself adds 8 MiB to it."""
    import numpy

    m = 64
    cells = (numpy.arange(m * (m + 1)) * 2654435761) % 4294967291
    n = 1 << 21
    # i -> (a i + c) mod 2^21 with a = 1 (mod 4) and c odd is one cycle;
    # uint32 arithmetic wraps mod 2^32, a multiple of 2^21. In place, so
    # that building it never holds more than the table.
    table = numpy.arange(n, dtype=numpy.uint32)
    table *= numpy.uint32(1103515245)
    table += numpy.uint32(12345)
    table &= numpy.uint32(n - 1)
    table = table.view(numpy.int32)
    return ((cells % m).reshape(m, m + 1), (cells[: m * m] % 10 < 3).reshape(m, m),
            (cells[: m * m] // 7 % m).reshape(m, m),
            (cells[: m * m] // 11 % 10 == 0).reshape(m, m).astype(numpy.float64), table)


def speed_probe() -> tuple[float, float]:
    """Wall and CPU time of a fixed mix of work that calls no transemi code:
    a gauge of the host's current speed, which on a shared host drifts by
    tens of per cent for seconds to minutes at a time.

    The mix covers the kinds of work transemi's time goes to: an
    interpreter loop over ints and a dict; gathers, scatters and a
    matrix-vector product on 64 x 64 numpy arrays; set, frozenset and
    wide-int bit operations; and reads scattered over a table larger than
    the core's cache, from Python and from numpy. On the reference machine
    it takes 13 to 23 ms; a probe without the memory part missed much of
    the slowdown that working sets of many loaded systems see.
    """
    import numpy

    gather, pair, meet, reach, table = _probe_data()
    m = len(reach)
    t0, c0 = time.perf_counter(), time.process_time()
    s, d = 0, {}
    for i in range(20000):
        s ^= (i * 2654435761) & 0xFFFFFFFF
        d[i & 255] = s
    h = numpy.zeros(m, dtype=bool)
    h[:3] = True
    for _ in range(30):
        in_h = h[gather]
        meets = numpy.zeros((m, m))
        uu, vv = numpy.nonzero(h[:, None] & pair)
        meets[vv, meet[uu, vv]] = 1.0
        feas = (meets.T @ in_h.astype(numpy.float64)) > 0.5
        w = numpy.zeros(m)
        w[gather[feas]] = 1.0
        h = ((reach @ w) > 0.5) | h
        for i in numpy.nonzero(h)[0]:
            s |= 1 << int(i)
    groups: dict = {}
    for i in range(5000):
        groups.setdefault((i % 97, i % 89 % 13), set()).add(i % 211)
    union: set = set()
    for f in sorted((frozenset(v) for v in groups.values()), key=len):
        union |= f
    for i in range(3000):
        s |= 1 << (i % 130)
        s &= ~(1 << ((i * 7) % 130))
    cells = memoryview(table)
    i = 0
    for _ in range(20000):
        i = cells[i]
    table[table[:200000]].sum()
    return time.perf_counter() - t0, time.process_time() - c0


def run_pass(ops, rec=None) -> dict:
    """Time each operation; failures are recorded, never raised. The speed
    probe runs, untimed, before an operation once PROBE_EVERY_S has passed
    since the last probe, and once after the last operation."""
    probes = [speed_probe()]
    probe_before: list[int] = []
    last_probe = time.perf_counter()
    latencies: list[float | None] = []
    cpus: list[float | None] = []
    outputs = []
    failures: dict[str, int] = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for run, _ in ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
        probe_before.append(len(probes) - 1)
        if rec is not None:
            rec.begin_op()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = run()
        except Exception as exc:  # a failed operation is a measurement
            t1, c1 = time.perf_counter(), time.process_time()
            key = failure_kind(exc)
            failures[key] = failures.get(key, 0) + 1
            out = exc
        else:
            t1, c1 = time.perf_counter(), time.process_time()
        if rec is not None:
            rec.end_op(t0, t1)
        ok = not isinstance(out, Exception)
        latencies.append(t1 - t0 if ok else None)
        cpus.append(c1 - c0 if ok else None)
        outputs.append(out)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    probes.append(speed_probe())
    return {"wall": wall, "cpu": cpu, "latencies": latencies, "cpus": cpus,
            "probes": probes, "probe_before": probe_before,
            "outputs": outputs, "failures": failures}


def check_pass(ops, result: dict) -> bool:
    """Check completed outputs; a wrong output turns into a failed op."""
    import workloads

    correct = True
    for i, ((_, check), out) in enumerate(zip(ops, result["outputs"])):
        if isinstance(out, Exception):
            continue
        try:
            check(out)
        except workloads.OutputError as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            correct = False
            result["latencies"][i] = result["cpus"][i] = None
            result["failures"]["bench.OutputError"] = \
                result["failures"].get("bench.OutputError", 0) + 1
    del result["outputs"]
    return correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    t0 = time.perf_counter()
    import transemi  # noqa: F401  (set-up: the package's first import)
    import transemi.cli  # noqa: F401
    systems = workloads.load_systems(plan) if plan["pairs"] else None
    setup_s = time.perf_counter() - t0
    # The host's speed just after set-up; probing before it would import
    # numpy ahead of transemi and shorten the timed import.
    probe = statistics.median(speed_probe()[0] for _ in range(SETUP_PROBES))

    out: dict = {"setup_s": setup_s, "setup_probe": probe}
    if not args.setup_only:
        import numpy

        out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
        passes = []
        correct = True
        start = time.perf_counter()
        while True:
            ops = workloads.operations(plan, systems)
            systems = None
            res = run_pass(ops)
            correct &= check_pass(ops, res)
            if not passes:
                # Peak memory of set-up and the first pass only: how many
                # passes fit depends on the host's speed, and each later
                # pair-queries pass loads its systems again.
                out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes.append(res)
            # Free this pass's systems before the next pass loads its own,
            # so peak memory does not depend on the number of passes.
            del ops
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + res["wall"] > args.seconds:
                break
        out["passes"] = passes
        if args.trace:
            import tracing

            ops = workloads.operations(plan)
            rec = tracing.Recorder()
            undo = tracing.install(rec)
            try:
                traced = run_pass(ops, rec)
            finally:
                tracing.uninstall(undo)
            correct &= check_pass(ops, traced)
            out["traced"] = traced
            out["layers"] = tracing.layer_metrics(rec)
            out["spans"] = rec.spans
        out["correct"] = correct
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
