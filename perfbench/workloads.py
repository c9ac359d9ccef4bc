"""The benchmark's workloads: input selection, operation lists, output checks.

Inputs come only from the workload seed. Transformation instances are found
by walking `transemi generate` seeds upward from it until the carrier size
m lands in each of the workload's bands; generating and selecting them is
preparation and is never timed. The program only ever receives the
instance files written here.

transemi is imported inside functions, not at module level: the worker
process times its own first import of the package as set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

CAP = 256  # the CLI's default closure budget, used when instances are loaded


@dataclass(frozen=True)
class Band:
    """Keep `count` instances whose carrier size m lies in [lo, hi], drawn
    with `transemi generate --cap cap`; on `pair-queries`, run `pairs`
    queries on each."""

    lo: int
    hi: int
    count: int
    pairs: int = 0
    cap: int = CAP


@dataclass(frozen=True)
class Pick:
    seed: int
    points: int
    maps: int
    m: int
    band: int
    text: str


def generate_instance(seed: int, points: int, maps: int, cap: int) -> tuple[str, int]:
    """The instance `transemi generate --seed --points --maps --cap` prints,
    and its carrier size.

    This is the CLI's own draw loop (fresh seed maps until the closure fits
    the cap) run in process, so that the saturated system it builds gives
    m without parsing and saturating the instance a second time.
    """
    from transemi import generators, instances
    from transemi.errors import CapExceededError
    from transemi.trans_semigroup import generate

    rng = random.Random(seed)
    while True:
        seeds = [generators.random_partial_map(rng, points) for _ in range(maps)]
        try:
            tsys = generate(seeds, cap)
            break
        except CapExceededError:
            continue
    inst = instances.trans_instance_from_system(
        tsys, name=f"generated-{seed}", seed=seed, seeds_only=seeds)
    return instances.render_instance(inst), tsys.size


def select_instances(seed: int, bands: list[Band], combos: list[tuple[int, int]],
                     cap: int, max_tries: int = 20000) -> list[Pick]:
    """Walk generate seeds upward from `seed`, each with every (points, maps)
    combination in order, and keep the first instances landing in each band.

    An instance fills at most one band: the first one, in list order, that
    still needs instances and contains its m.
    """
    need = [b.count for b in bands]
    picks: list[Pick] = []
    walk = ((s, points, maps) for s in itertools.count(seed) for points, maps in combos)
    for tries, (s, points, maps) in enumerate(walk):
        if not any(need):
            break
        if tries >= max_tries:
            raise RuntimeError(
                f"no instances for bands {bands} within {max_tries} tries from seed {seed}")
        text, m = generate_instance(s, points, maps, cap)
        for i, b in enumerate(bands):
            if need[i] and b.lo <= m <= b.hi:
                need[i] -= 1
                picks.append(Pick(s, points, maps, m, i, text))
                break
    return picks


def stratified_pairs(rng: random.Random, m: int, count: int) -> list[tuple[int, int]]:
    """`count` random pairs whose first and whose second elements each
    spread evenly over the carrier (a Latin hypercube sample), so that
    per-query cost varies less from one seed to the next."""
    firsts = [int((i + rng.random()) * m / count) for i in range(count)]
    seconds = [int((i + rng.random()) * m / count) for i in range(count)]
    rng.shuffle(seconds)
    return list(zip(firsts, seconds))


def _write_picks(picks: list[Pick], workdir: Path) -> list[dict]:
    out = []
    for i, p in enumerate(picks):
        path = workdir / f"inst-{i:03d}.yaml"
        path.write_text(p.text)
        out.append({"path": str(path), "kind": "transformations", "m": p.m,
                    "generate": [p.seed, p.points, p.maps]})
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bands: tuple[Band, ...]
    combos: tuple[tuple[int, int], ...]
    command: tuple[str, ...] = ()      # CLI commands run on each instance
    abstract_count: int = 0            # abstract size-3 instances added


def _bands(spec: dict[tuple[int, int], int], cap: int, pairs: int = 0) -> tuple[Band, ...]:
    return tuple(Band(lo, hi, n, pairs, cap) for (lo, hi), n in spec.items())


# Each workload fixes how many instances fall in each narrow band of m, so
# that a seed changes which systems run but hardly how much work they are;
# run-to-run spread then measures the program, not the draw. One pass over
# a workload takes 4-9 s on the reference machine, so that a 20 s run
# repeats every operation at least twice.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "check-large",
            "check on twelve carriers of 64-67 elements: the closure fixpoints "
            "(m + m^2 per check) do most of the work, representation none",
            _bands({(64, 65): 6, (66, 67): 6}, cap=67), ((5, 4), (6, 3), (6, 4)), ("check",)),
        Workload(
            "represent-mid",
            "represent on twelve carriers of 16 elements: determining pairs, "
            "simplest and sum representations and the verifier dominate",
            _bands({(16, 16): 12}, cap=16), ((6, 3), (5, 3), (6, 4)), ("represent",)),
        Workload(
            "pair-queries",
            "witness extraction, closedness and determining pairs with little cache "
            "reuse: 1280 queries on 160 systems below and 8 on 4 systems above the 64-element boundary",
            # Query cost depends on the system's structure and still more on
            # the pair, hence many systems and a pass of over a thousand
            # queries, which fills a 20 s run alone. Queries above the
            # 64-element boundary are few: they show a crash there as
            # failures, but a query that fails can run for any time first,
            # and more of them would make the totals depend on the draw.
            # The small systems are drawn with a cap just above their bands,
            # which finds them about four times faster than the cap of 69.
            _bands({(m, m): 10 for m in range(20, 36)}, cap=35, pairs=8)
            + _bands({(64, 69): 4}, cap=69, pairs=2),
            ((4, 3), (5, 3), (5, 4))),
        Workload(
            "corpus-small",
            "200 small instances through check then represent: per-instance "
            "fixed costs (parsing, saturation, kernels, reports) dominate",
            # m histogram of `generate --points 3 --maps 2 --cap 16` over
            # seeds 0-2999 (m = 1 dropped), scaled to 100 instances
            _bands({(m, m): n for m, n in zip(
                range(2, 17), (11, 23, 15, 14, 5, 9, 4, 4, 2, 5, 1, 2, 3, 1, 1))}, cap=16),
            ((3, 2),), ("check", "represent"), abstract_count=100),
    )
}


def prepare(name: str, seed: int, workdir: Path) -> dict:
    """Generate and write the workload's inputs; returns the plan the
    worker process runs."""
    w = WORKLOADS[name]
    picks: list[tuple[Pick, Band]] = []
    for cap in dict.fromkeys(b.cap for b in w.bands):
        group = [b for b in w.bands if b.cap == cap]
        picks += [(p, group[p.band])
                  for p in select_instances(seed, group, list(w.combos), cap)]
    files = _write_picks([p for p, _ in picks], workdir)
    if w.abstract_count:
        from transemi import generators, instances

        rng = random.Random(f"abstract-{seed}")
        for i, ab in enumerate(generators.sample_valid_abstract(rng, 3, w.abstract_count)):
            path = workdir / f"abs-{i:03d}.yaml"
            instances.write_instance(instances.abstract_instance_from_system(ab), path)
            files.append({"path": str(path), "kind": "abstract", "m": ab.size})
    pairs = []
    rng = random.Random(f"pairs-{seed}")
    for i, (p, band) in enumerate(picks):
        pairs += [[i, g1, g2] for g1, g2 in stratified_pairs(rng, p.m, band.pairs)]
    # Operations run in a seeded random order, so that no kind of input
    # (abstract instances, one system's queries) runs in one stretch of
    # the pass, where a spell of host slowness would fall on it alone.
    order = random.Random(f"order-{seed}")
    order.shuffle(files if not pairs else pairs)
    return {"workload": name, "seed": seed, "files": files, "pairs": pairs,
            "command": list(w.command)}


# ---------------------------------------------------------------- operations


class OutputError(Exception):
    """An operation completed but its output failed the benchmark's check."""


def _cli(argv: list[str]) -> tuple[int, dict]:
    from transemi import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = buf.getvalue()
    return rc, (json.loads(out) if rc in (0, 1) else {})


def _cli_op(commands: list[str], path: str, kind: str):
    """check and/or represent on one instance file, as `transemi` runs them.

    Verdicts are compared, never output bytes. Concrete systems are
    representable, so transformations instances must pass both commands;
    on abstract instances represent must agree with check.
    """

    def run():
        return [_cli([cmd, "--input", path, "--format", "machine"]) for cmd in commands]

    def check(results):
        for cmd, (rc, report) in zip(commands, results):
            if rc not in (0, 1) or report.get("passed") is not (rc == 0):
                raise OutputError(f"{cmd} {path}: exit {rc}, report {report.get('passed')}")
            if kind == "transformations" and rc != 0:
                raise OutputError(f"{cmd} {path}: concrete system rejected")
        codes = {rc for rc, _ in results}
        if len(codes) != 1:
            raise OutputError(f"{path}: check and represent disagree {sorted(codes)}")

    return run, check


def _pair_op(ab, g1: int, g2: int):
    """One library query on a loaded system."""
    from transemi import closure, representation

    def run():
        res = closure.closure_fixpoint(ab, (1 << g1) | (1 << g2), witnesses=True)
        chains = [closure.derivation_chain(ab, res, z) for z in res.witness]
        closed = closure.is_closed(ab, res.closed_bits, "four-conditions")
        dp = representation.determining_pair_for(ab, g1, g2)
        rep = representation.simplest_representation(ab, dp)
        return res, chains, closed, rep

    def check(out):
        res, _, closed, _ = out
        if res.closed_bits != ab.closures.of_pair(g1, g2):
            raise OutputError(f"pair ({g1}, {g2}): witnessed closure differs from of_pair")
        if not closed:
            raise OutputError(f"pair ({g1}, {g2}): closure fails four-conditions")

    return run, check


def load_systems(plan: dict) -> list:
    """Parse and saturate the plan's systems the way the CLI loads them."""
    from transemi import instances

    return [instances.parse_instance(f["path"]).build(cap=CAP).abstract()
            for f in plan["files"]]


def operations(plan: dict, systems: list | None = None) -> list[tuple]:
    """One pass over the workload: a list of (run, check) pairs. Pair queries
    run on `systems` when given (set-up loaded them) and on freshly loaded
    systems otherwise, so every pass starts with empty closure caches."""
    if plan["pairs"]:
        systems = systems if systems is not None else load_systems(plan)
        return [_pair_op(systems[i], g1, g2) for i, g1, g2 in plan["pairs"]]
    return [_cli_op(plan["command"], f["path"], f["kind"]) for f in plan["files"]]
