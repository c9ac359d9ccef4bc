"""Spans and counters around the calls into each transemi layer.

The traced pass replaces, for its duration, every public function of the
layer modules at every transemi module attribute that refers to it, so a
call made through any binding (for instance `check_representability` as
bound in `closure`, `representation` and `cli`, or `closure_fixpoint` as
looked up in `closure`'s globals by `ClosureCache`) opens a span. Nothing
under `src/` is edited. Hot leaf calls (`compose`, `intersect`, cache
lookups) are counted instead of spanned, because a span costs about as
much as the call itself.

A span is `[name, start, end, parent, op]`. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, OP = range(5)

# The repository's modules, one layer each. `generators` only prepares
# benchmark inputs and is never patched.
LAYERS = ("instances", "trans_semigroup", "abstract_system", "closure",
          "representation", "reports", "cli")
COUNTED = {"partial_maps": ("compose", "intersect")}
METHODS = {"reports": {"Report": ("to_json", "to_text")}}

# Per-layer metric -> span names whose self times it sums.
SELF_TIME = {
    "instances.parse_s": "instances.*",
    "reports.render_s": "reports.*",
    "trans_semigroup.generate_s": ("trans_semigroup.generate",),
    "abstract_system.validate_s": ("abstract_system.validate",),
    "abstract_system.derived_props_s": ("abstract_system.derived_props",),
    "closure.check_representability_s": ("closure.check_representability",),
    "closure.fixpoint_s": ("closure.fixpoint",),
    "closure.witness_s": ("closure.witness", "closure.derivation_chain"),
    "closure.is_closed_s": ("closure.is_closed",),
    "representation.determining_pair_s": ("representation.determining_pair_for",),
    "representation.validate_determining_pair_s": ("representation.validate_determining_pair",),
    "representation.simplest_s": ("representation.simplest_representation",),
    "representation.sum_s": ("representation.sum_representation",),
    "representation.verify_s": ("representation.verify_representability",),
    "representation.rep_relations_s": ("representation.rep_relations",),
    "cli.self_s": "cli.*",
}
COUNTS = (
    "trans_semigroup.elements",
    "partial_maps.compose_calls",
    "partial_maps.intersect_calls",
    "closure.fixpoint_calls",
    "closure.rounds",
    "closure.distinct_closures",
    "closure.cache_hits",
    "representation.fragments",
    "representation.distinct_fragment_closures",
    "representation.points",
)


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ops: list[tuple[float, float]] = []
        self.op = -1
        self._op_closures: set = set()
        self._fragments: list[set] = []

    def begin_op(self) -> None:
        self.op = len(self.ops)
        self._op_closures = set()

    def end_op(self, start: float, end: float) -> None:
        self.ops.append((start, end))
        self.counts["closure.distinct_closures"] += len(self._op_closures)

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(entry)
            entry[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[END] = clock()
                stack.pop()

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Hooks that read a call's arguments or result as well as timing it.

    def closure_fixpoint(self, fn):
        plain = self.spanned("closure.fixpoint", fn)
        witnessed = self.spanned("closure.witness", fn)

        @functools.wraps(fn)
        def wrapper(sys_, h_bits, *args, **kwargs):
            wit = kwargs.get("witnesses", args[0] if args else True)
            res = (witnessed if wit else plain)(sys_, h_bits, *args, **kwargs)
            self.counts["closure.fixpoint_calls"] += 1
            self.counts["closure.rounds"] += res.rounds
            self._op_closures.add((id(sys_), res.closed_bits))
            return res

        return wrapper

    def cache_result(self, fn):
        @functools.wraps(fn)
        def wrapper(cache, h_bits):
            if h_bits in cache._memo:
                self.counts["closure.cache_hits"] += 1
            return fn(cache, h_bits)

        return wrapper

    def generate(self, fn):
        inner = self.spanned("trans_semigroup.generate", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tsys = inner(*args, **kwargs)
            self.counts["trans_semigroup.elements"] += tsys.size
            return tsys

        return wrapper

    def sum_representation(self, fn):
        inner = self.spanned("representation.sum_representation", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._fragments.append(set())
            try:
                rep = inner(*args, **kwargs)
            finally:
                pairs = self._fragments.pop()
            self.counts["representation.distinct_fragment_closures"] += len(pairs)
            self.counts["representation.points"] += rep.num_points
            return rep

        return wrapper

    def determining_pair_for(self, fn):
        inner = self.spanned("representation.determining_pair_for", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dp = inner(*args, **kwargs)
            # A determining pair is fixed by, and fixes, its pair closure.
            if self._fragments:
                self._fragments[-1].add(dp)
            return dp

        return wrapper

    def simplest_representation(self, fn):
        inner = self.spanned("representation.simplest_representation", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._fragments:
                self.counts["representation.fragments"] += 1
            return inner(*args, **kwargs)

        return wrapper


_HOOKS = {
    ("closure", "closure_fixpoint"): Recorder.closure_fixpoint,
    ("trans_semigroup", "generate"): Recorder.generate,
    ("representation", "sum_representation"): Recorder.sum_representation,
    ("representation", "determining_pair_for"): Recorder.determining_pair_for,
    ("representation", "simplest_representation"): Recorder.simplest_representation,
}


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "transemi" or name.startswith("transemi."))
            and name != "transemi.generators"]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Patch every binding of each layer function; returns the undo list."""
    modules = _package_modules()
    by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
    replace: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = by_name[layer]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            hook = _HOOKS.get((layer, attr))
            wrapped = hook(rec, fn) if hook else rec.spanned(f"{layer}.{attr}", fn)
            replace[id(fn)] = (fn, wrapped)
    for layer, names in COUNTED.items():
        for attr in names:
            fn = getattr(by_name[layer], attr)
            replace[id(fn)] = (fn, rec.counted(f"{layer}.{attr}_calls", fn))

    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    for layer, classes in METHODS.items():
        for cls_name, names in classes.items():
            cls = getattr(by_name[layer], cls_name)
            for attr in names:
                fn = getattr(cls, attr)
                undo.append((cls, attr, fn))
                setattr(cls, attr, rec.spanned(f"{layer}.{attr}", fn))
    cache_cls = by_name["closure"].ClosureCache
    undo.append((cache_cls, "result", cache_cls.result))
    cache_cls.result = rec.cache_result(cache_cls.result)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered(s[START], s[END], children[i])
            for i, s in enumerate(spans)]


def account(rec: Recorder, selfs: list[float], tol: float = 1e-6) -> float:
    """Check that, per operation, self times plus the untraced gap equal the
    operation's wall time; returns the total untraced gap."""
    tops: dict[int, list[tuple[float, float]]] = defaultdict(list)
    self_sum: dict[int, float] = defaultdict(float)
    for s, st in zip(rec.spans, selfs):
        self_sum[s[OP]] += st
        if s[PARENT] < 0:
            tops[s[OP]].append((s[START], s[END]))
    stray = set(self_sum) - set(range(len(rec.ops)))
    if stray:
        raise AssertionError(f"spans outside any operation: ops {sorted(stray)}")
    gap_total = 0.0
    for op, (start, end) in enumerate(rec.ops):
        wall = end - start
        gap = wall - covered(start, end, tops[op])
        if abs(self_sum[op] + gap - wall) > tol * max(1.0, wall):
            raise AssertionError(
                f"op {op}: self times {self_sum[op]:.9f} s + gap {gap:.9f} s "
                f"!= wall {wall:.9f} s")
        gap_total += gap
    return gap_total


def _matches(name: str, spec) -> bool:
    if isinstance(spec, str):
        return name.startswith(spec[:-1])
    return name in spec


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer self times and counters of one traced pass."""
    selfs = self_times(rec.spans)
    gap = account(rec, selfs)
    by_name: dict[str, float] = defaultdict(float)
    for s, st in zip(rec.spans, selfs):
        by_name[s[NAME]] += st
    out = {metric: sum(t for name, t in by_name.items() if _matches(name, spec))
           for metric, spec in SELF_TIME.items()}
    out.update({key: rec.counts[key] for key in COUNTS})
    out["trace.gap_s"] = gap
    return out
