"""Finite algebraic systems (G, ., meet, xi, delta) and their hypothesis checks.

The carrier is {0..m-1}. `mul` and `meet` are m x m index tables, `xi` and
`delta` are m x m boolean matrices. The natural semilattice order `zeta`
(x <= y iff x meet y = x) is derived eagerly. G* = G with an adjoined
identity e at index m is stated once, by two read-only tables: `mul_star`,
the (m + 1) x (m + 1) product with e.a = a.e = a, and `delta_star`, the
m x (m + 1) relation delta with x |- e for every x in G. These are the
only places e occurs: the closure layer never orders, meets or relates e
under xi, so no convention for it is stated there.

Law checks over triples are evaluated in blocks of rows (`Report.scan`)
of m^2 cells each, so their temporaries stay within the package's one cell
budget (`bitsets.blocks`) on any carrier. Above one block each such check
first tries a certificate that costs O(m^2 |S|), S a generating set of
(G, .) (`generating_set`): Light's test for associativity; once it passes,
the laws quantified over a multiplier (left or right) checked for s in S
only, which induction on word length extends to every multiplier;
`xi-meet-right-distributive` for u in S, when `xi` is right-regular over
S; and, for `meet-associative`, meet being the greatest lower bound of a
partial order. A certificate only ever settles a pass. When it does not
hold, the full blocked scan runs, so counts, witnesses and details are
those of the scan alone.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bitsets import blocks, take_pairs
from .errors import MalformedSystemError
from .reports import Report

if TYPE_CHECKING:
    from .closure import ClosureCache


def _as_table(name: str, table, m: int) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != (m, m):
        raise MalformedSystemError(f"malformed system: {name} is not {m}x{m}")
    if arr.size and (arr.min() < 0 or arr.max() >= m):
        raise MalformedSystemError(f"malformed system: {name} entry out of range")
    arr.flags.writeable = False
    return arr


def _as_relation(name: str, rel, m: int) -> np.ndarray:
    arr = np.asarray(rel, dtype=bool)
    if arr.shape != (m, m):
        raise MalformedSystemError(f"malformed system: {name} is not {m}x{m}")
    arr.flags.writeable = False
    return arr


def generating_set(mul: np.ndarray) -> np.ndarray:
    """A set S of elements whose products, under any bracketing, give the
    whole carrier of the m x m table `mul`.

    Greedy: first every element that is no product (each generating set
    holds them), then, while some element is not generated, the first such
    one. The generated set grows semi-naively: each element that enters is
    multiplied once by every member on either side, so the whole search
    reads at most 2 m^2 products.
    """
    m = len(mul)
    made = np.zeros(m, dtype=bool)
    made[mul] = True
    gens = np.flatnonzero(~made).tolist()
    inside = np.zeros(m, dtype=bool)
    new = ~made
    while True:
        while new.any():
            inside |= new
            fresh, members = np.flatnonzero(new), np.flatnonzero(inside)
            new = np.zeros(m, dtype=bool)
            new[mul[fresh][:, members]] = True
            new[mul[members][:, fresh]] = True
            new &= ~inside
        if inside.all():
            return np.array(gens, dtype=np.int64)
        gens.append(int(np.argmin(inside)))
        new[gens[-1]] = True


class AbstractSystem:
    """Immutable tables and relations of one finite system."""

    def __init__(self, mul, meet, xi, delta):
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] < 1:
            raise MalformedSystemError("malformed system: mul is not a square table")
        m = mul.shape[0]
        self.size = m
        self.mul = _as_table("mul", mul, m)
        self.meet = _as_table("meet", meet, m)
        self.xi = _as_relation("xi", xi, m)
        self.delta = _as_relation("delta", delta, m)

        zeta = self.meet == np.arange(m)[:, None]
        zeta.flags.writeable = False
        self.zeta = zeta

        # G* tables: index m is the adjoined identity e.
        star = np.empty((m + 1, m + 1), dtype=np.int64)
        star[:m, :m] = self.mul
        star[m, :] = np.arange(m + 1)
        star[:, m] = np.arange(m + 1)
        star.flags.writeable = False
        self.mul_star = star

        dstar = np.ones((m, m + 1), dtype=bool)
        dstar[:, :m] = self.delta
        dstar.flags.writeable = False
        self.delta_star = dstar

        self._lock = threading.Lock()
        self._closures: "ClosureCache | None" = None

    @property
    def closures(self) -> "ClosureCache":
        with self._lock:
            if self._closures is None:
                from .closure import ClosureCache

                self._closures = ClosureCache(self)
            return self._closures

    @functools.cached_property
    def generators(self) -> np.ndarray:
        """`generating_set(mul)`, computed on first read."""
        return generating_set(self.mul)

    @functools.cached_property
    def light_associative(self) -> bool:
        """Whether . is associative, by Light's test: (x.s).y = x.(s.y) for
        all x, y and every s in `generators`. The s passing it are closed
        under products, so they are all of G exactly when . is associative."""
        mul = self.mul
        return not any((mul[mul[:, s]] != mul[:, mul[s]]).any() for s in self.generators)

    def __repr__(self) -> str:
        return f"AbstractSystem(size={self.size})"


def _over_generators(sys: AbstractSystem, violations_of: Callable[[np.ndarray], np.ndarray],
                     table: np.ndarray) -> Callable[[], bool]:
    """Certificate of a law whose scan rows are a multiplier s, given as
    `violations_of(table[s])` for a block of such rows: once . is
    associative, the law for s and t gives it for s.t, so it holds for
    every row when it holds for the rows of `sys.generators`. These are
    read in blocks within the cell budget (`blocks`) of 2 m^2 cells a
    generator, since a law holds two (m, m) temporaries a generator at
    once: the tables it compares, or a table and a flat index."""
    def holds() -> bool:
        gens, m = sys.generators, sys.size
        return sys.light_associative and not any(
            violations_of(table[gens[lo:hi]]).any() for lo, hi in blocks(len(gens), 2 * m * m))
    return holds


def _right_distributive_holds(sys: AbstractSystem) -> bool:
    """Certificate of `xi-meet-right-distributive`: . associative, and for
    every generator s both x ~xi~ y => xs ~xi~ ys and (x meet y)s = xs
    meet ys on xi. Right-regularity carries the law for a and b to a.b.
    The generators are read in blocks as in `_over_generators`."""
    mul, meet, xi = sys.mul, sys.meet, sys.xi
    if not sys.light_associative:
        return False
    gens = sys.generators
    for lo, hi in blocks(len(gens), 2 * sys.size ** 2):
        col = mul[:, gens[lo:hi]].T  # [k, x]: x.s for s = gens[lo + k]
        xs, ys = col[:, :, None], col[:, None, :]
        moved = np.take(col, meet, axis=1) != take_pairs(meet, xs, ys)
        if (xi & (~take_pairs(xi, xs, ys) | moved)).any():
            return False
    return True


def _meet_is_glb(sys: AbstractSystem) -> bool:
    """Certificate of `meet-associative`: meet is idempotent and
    commutative, zeta is transitive (so a partial order), x meet y <= x,
    and x, y have as many common lower bounds as x meet y has lower bounds.
    Then x meet y is the greatest lower bound of x and y, an associative
    operation. The counts are exact in float32 below 2^24."""
    meet, zeta = sys.meet, sys.zeta
    ids = np.arange(sys.size)
    if (meet.diagonal() != ids).any() or (meet != meet.T).any():
        return False
    if not take_pairs(zeta, meet, ids[:, None]).all():
        return False
    zf = zeta.astype(np.float32)
    if ((zf @ zf > 0.5) & ~zeta).any():
        return False
    return bool(((zf.T @ zf) == zf.sum(axis=0)[meet]).all())


def validate(sys: AbstractSystem) -> Report:
    """Check every hypothesis the representation machinery relies on.

    One result per condition, each failure with witness tuples. All
    conditions are checked; nothing stops at the first failure.
    """
    m = sys.size
    mul, meet, xi, delta, zeta = sys.mul, sys.meet, sys.xi, sys.delta, sys.zeta
    report = Report("system hypotheses")

    report.scan("mul-associative", m,
                lambda lo, hi: mul[mul[lo:hi], :] != mul[lo:hi][:, mul],
                ("x", "y", "z"), "violating tuples", holds=lambda: sys.light_associative)
    report.record_mask("meet-idempotent", time.perf_counter(),
                       meet.diagonal() != np.arange(m), ("x",), "elements")
    report.record_mask("meet-commutative", time.perf_counter(),
                       meet != meet.T, ("x", "y"), "pairs")
    report.scan("meet-associative", m,
                lambda lo, hi: meet[meet[lo:hi], :] != meet[lo:hi][:, meet],
                ("x", "y", "z"), "violating tuples", holds=lambda: _meet_is_glb(sys))
    report.record_mask("order-contained-in-xi", time.perf_counter(),
                       zeta & ~xi, ("x", "y"), "pairs")

    # (u,v) in xi implies (xu, xv) in xi; rows are blocks of mul's rows.
    def xi_left(rows):
        return xi & ~take_pairs(xi, rows[:, :, None], rows[:, None, :])

    report.scan("xi-left-regular", m, lambda lo, hi: xi_left(mul[lo:hi]), ("x", "u", "v"),
                "violating tuples", holds=_over_generators(sys, xi_left, mul))

    # (x,y) in delta implies (ux, y) in delta.
    def delta_left(rows):
        return delta & ~delta[rows]

    report.scan("delta-left-ideal", m, lambda lo, hi: delta_left(mul[lo:hi]), ("u", "x", "y"),
                "violating tuples", holds=_over_generators(sys, delta_left, mul))

    # x(y meet z) = xy meet xz.
    def distributes(rows):
        return np.take(rows, meet, axis=1) != take_pairs(meet, rows[:, :, None], rows[:, None, :])

    report.scan("mul-distributes-over-meet", m, lambda lo, hi: distributes(mul[lo:hi]),
                ("x", "y", "z"), "violating tuples", holds=_over_generators(sys, distributes, mul))

    # x <= y, u <= v and (y,v) in xi force (u,x) in xi.
    t0 = time.perf_counter()
    zf = zeta.astype(np.float32)  # thresholded after each product: counts of at most m
    viol_xu = (((zf @ xi.astype(np.float32)) > 0.5).astype(np.float32) @ zf.T) > 0.5
    del zf  # so that the later checks do not hold it
    viol_xu &= ~xi.T

    def downward_witnesses():
        for x, u in np.argwhere(viol_xu):
            y, v = np.argwhere(zeta[x][:, None] & zeta[u][None, :] & xi)[0]  # first (y, v)
            yield {"x": int(x), "y": int(y), "u": int(u), "v": int(v)}

    report.record("xi-downward-compatible", t0, viol_xu.sum(), downward_witnesses(),
                  "violating pairs")
    del viol_xu

    # (x,y) in xi implies (x meet y)u = xu meet yu.
    report.scan("xi-meet-right-distributive", m,
                lambda lo, hi: xi[lo:hi][:, :, None]
                & (mul[meet[lo:hi]] != take_pairs(meet, mul[lo:hi][:, None, :], mul)),
                ("x", "y", "u"), "violating tuples",
                holds=lambda: _right_distributive_holds(sys))

    return report


def derived_props(sys: AbstractSystem) -> Report:
    """Consequences of the hypotheses; a failure here indicates a bug upstream
    or an input that never passed `validate`."""
    m = sys.size
    mul, xi, zeta = sys.mul, sys.xi, sys.zeta
    report = Report("derived properties")

    report.record_mask("xi-reflexive", time.perf_counter(), ~xi.diagonal(), ("x",), "elements")
    report.record_mask("xi-symmetric", time.perf_counter(), xi != xi.T, ("x", "y"), "pairs")

    # x <= y implies zx <= zy, and xz <= yz: rows are blocks of the rows
    # of mul, and of its transpose
    def order_kept(rows):
        return zeta & ~take_pairs(zeta, rows[:, :, None], rows[:, None, :])

    report.scan("order-left-regular", m, lambda lo, hi: order_kept(mul[lo:hi]), ("z", "x", "y"),
                "violating tuples", holds=_over_generators(sys, order_kept, mul))
    mt = np.ascontiguousarray(mul.T)
    report.scan("order-right-regular", m, lambda lo, hi: order_kept(mt[lo:hi]), ("z", "x", "y"),
                "violating tuples", holds=_over_generators(sys, order_kept, mt))

    return report
