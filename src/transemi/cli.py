"""Command line front end.

Commands: analyze, check, represent, roundtrip, generate. Exit code 0 when
every check passes, 1 on any failure, 2 on input errors, 3 on an internal
error: any other exception, reported as one `internal error: <Type>:
<message>` line on stderr instead of a traceback, so that it is never
mistaken for a failed check. A reader that closes the pipe before the
output is written does not change the exit code: the work is done, so the
code is the verdict's. Reports are deterministic for fixed inputs and
flags; timings are attached only with --timings so default output is
byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys as _sys
import time

from . import generators, instances
from .abstract_system import AbstractSystem, derived_props, validate
from .closure import ORACLE_BUDGET, check_representability, least_closed_oracle
from .errors import CapExceededError, InstanceFormatError, TransemiError
from .reports import Report
from .representation import verify_representability
from .trans_semigroup import TransSystem, check_adjacency_laws, check_domain_bounds, generate

# Draws of seed maps `generate` makes before it gives up on the cap.
GENERATE_DRAWS = 1000


def _positive_int(text: str) -> int:
    """argparse type of counts and budgets: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _input_flags(p: argparse.ArgumentParser, oracle: bool = False) -> None:
    p.add_argument("--input", required=True, help="instance file (YAML)")
    p.add_argument("--cap", type=_positive_int, default=256, help="closure element budget")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    if oracle:
        p.add_argument("--oracle", choices=("on", "off"), default="off",
                       help="cross-check pair closures against the brute-force oracle")
    p.add_argument("--timings", action="store_true", help="include timings in output")


def _load(args) -> tuple[instances.Instance, AbstractSystem]:
    """The instance and its system, a `TransSystem` for maps."""
    inst = instances.parse_instance(args.input)
    if isinstance(inst, instances.TransInstance):
        return inst, inst.build(cap=args.cap)
    return inst, inst.build()


def _write(text: str) -> None:
    """Print `text` to stdout and flush it. When the reader has closed the
    pipe, stdout is pointed at the null device instead, so that the flush
    at exit writes nothing and raises nothing."""
    try:
        print(text, end="")
        _sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)


def _emit(report: Report, args) -> int:
    if args.format == "machine":
        _write(report.to_json(include_timings=args.timings) + "\n")
    else:
        _write(report.to_text(include_timings=args.timings) + "\n")
    return 0 if report.passed else 1


def _oracle_entries(ab: AbstractSystem, report: Report) -> None:
    if ab.size > ORACLE_BUDGET:
        report.add("closure-oracle-agreement", True, [],
                   f"skipped: carrier {ab.size} above oracle budget")
        return
    t0 = time.perf_counter()
    bad = []
    for x in range(ab.size):
        for y in range(x, ab.size):
            fast = ab.closures.of_pair(x, y)
            slow = least_closed_oracle(ab, (1 << x) | (1 << y))
            if fast != slow:
                bad.append({"seed": sorted({x, y}), "engine": fast, "oracle": slow})
    report.record("closure-oracle-agreement", t0, len(bad), bad, "seeds disagree")


def cmd_analyze(args) -> int:
    inst, ab = _load(args)
    report = Report("analysis")
    if isinstance(ab, TransSystem):
        report.add("closure-built", True, [],
                   f"{ab.size} maps on {ab.base_size} points from {len(inst.maps)} seeds")
    report.add("system-size", True, [], f"carrier of {ab.size} elements")
    report.add("abstract-relation-sizes", True, [],
               f"zeta={int(ab.zeta.sum())} xi={int(ab.xi.sum())} delta={int(ab.delta.sum())}")
    report.extend(validate(ab), prefix="hypotheses/")
    return _emit(report, args)


def cmd_check(args) -> int:
    inst, ab = _load(args)
    report = Report("checks")
    hyp = validate(ab)
    report.extend(hyp, prefix="hypotheses/")
    if hyp.passed:
        report.extend(derived_props(ab), prefix="derived/")
        report.extend(check_representability(ab), prefix="axioms/")
    if isinstance(ab, TransSystem):
        report.extend(check_adjacency_laws(ab), prefix="concrete/")
        report.extend(check_domain_bounds(ab), prefix="concrete/")
    if args.oracle == "on" and hyp.passed:
        _oracle_entries(ab, report)
    return _emit(report, args)


def cmd_represent(args) -> int:
    inst, ab = _load(args)
    report = verify_representability(ab)
    if report.passed:
        # A passing report has already built the sum: its relation checks
        # found the represented xi and delta equal to the system's.
        report.add("representation-built", True, [],
                   f"{report['injective'].detail}, "
                   f"{ab.size} maps, xi pairs={int(ab.xi.sum())}, "
                   f"delta pairs={int(ab.delta.sum())}")
    return _emit(report, args)


def cmd_roundtrip(args) -> int:
    inst, ab = _load(args)
    if not isinstance(ab, TransSystem):
        raise TransemiError("roundtrip needs a transformations instance")
    report = Report("roundtrip")
    report.add("closure-built", True, [],
               f"{ab.size} maps on {ab.base_size} points")
    report.extend(verify_representability(ab))
    return _emit(report, args)


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "transformations":
        if args.cap < args.maps:  # no draw of distinct seeds fits
            raise CapExceededError(f"cap exceeded: {args.maps} seed maps past cap {args.cap}")
        for _ in range(GENERATE_DRAWS):
            seeds = [
                generators.random_partial_map(rng, args.points)
                for _ in range(args.maps)
            ]
            try:
                tsys = generate(seeds, args.cap)
                break
            except CapExceededError:
                continue
        else:
            raise CapExceededError(
                f"cap exceeded: no draw of {args.maps} seed maps on {args.points} points "
                f"closed within cap {args.cap} in {GENERATE_DRAWS} draws")
        inst = instances.trans_instance_from_system(
            tsys, name=f"generated-{args.seed}", seed=args.seed, seeds_only=seeds
        )
    else:
        if args.size > 3:  # abstract systems are enumerated or sampled on 1-3 points
            raise TransemiError(f"abstract systems are generated on sizes 1-3, not {args.size}")
        if args.size <= 2:
            pool = generators.enumerate_valid_abstract(args.size)
            ab = pool[rng.randrange(len(pool))]
        else:
            ab = generators.sample_valid_abstract(rng, args.size, 1)[0]
        inst = instances.abstract_instance_from_system(
            ab, name=f"generated-{args.seed}", seed=args.seed
        )
    text = instances.render_instance(inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _write(text)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="transemi",
        description="intersection-closed semigroups of partial transformations: "
                    "checkers, closures, and representation building",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("analyze", "check", "represent", "roundtrip"):
        _input_flags(sub.add_parser(name), oracle=name == "check")

    g = sub.add_parser("generate")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cap", type=_positive_int, default=256, help="closure element budget")
    g.add_argument("--kind", choices=("transformations", "abstract"),
                   default="transformations")
    g.add_argument("--points", type=_positive_int, default=3,
                   help="carrier points (transformations)")
    g.add_argument("--maps", type=_positive_int, default=2, help="seed map count (transformations)")
    g.add_argument("--size", type=_positive_int, default=2, help="carrier size (abstract)")
    g.add_argument("--out", help="write the instance here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up on each call rather than stored in the shared parser, so a
    # rebound cmd_* function (a test double, a tracing wrapper) is the one run.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except InstanceFormatError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2
    except TransemiError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
