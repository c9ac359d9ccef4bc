"""Closure engine over an abstract system.

A subset H of G is closed when the implication

    u ~xi~ v  and  (u meet v)x |- y  and  (u meet v)xy <= z.t
    and  u, vx in H   implies   z in H

holds for all z,u,v in G and x,y,t in G* (e allowed). `closure_step` maps H
to the set of all admitted z; `closure_fixpoint` iterates H -> H | step(H)
and returns the least closed superset together with the round count and,
per added element, the first admitting 5-tuple in lexicographic order
(u,v,x,y,t) with e ordered last. `least_closed_oracle` recomputes the same
set by brute-force subset enumeration and is kept independent of the step
kernel on purpose.

Subsets are int bitsets over {0..m-1}. Each one that enters this module
converts through `bits_to_bool`, which raises `ValueError` on a member
outside the carrier (a negative bitset included). The seeds of a step, a
fixpoint, the oracle, a round membership and the four-conditions test
must also be nonempty (`_seed`). G* is read off the system's `mul_star`
and `delta_star` tables, so in witness tuples the value m stands for the
adjoined identity e.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .bitsets import (
    bits_of,
    bits_to_bool,
    blocks,
    bool_to_bits,
    full_mask,
    iter_bits,
    members,
    rows_bits,
)
from .errors import OracleBudgetError
from .reports import Report

# Largest carrier `least_closed_oracle` enumerates the subsets of.
ORACLE_BUDGET = 12

# Direct witness-tree search is exponential in the tree size; beyond these
# bounds the iterated-step route is authoritative.
DIRECT_TREE_MAX_ROUNDS = 2
DIRECT_TREE_MAX_SIZE = 6


class ClosureCache:
    """Per-system step kernel and memo of closures keyed by seed bitset.

    The kernel is the vectorized one-step operator (`step`) and the
    first-witness search (`first_witnesses`), over tables built here once
    per system.

    Each memo entry is the (closed set, round count) that `closure_fixpoint`
    gives for its own seed, filled by `result` or, through `remember`, by a
    witnessed `closure_fixpoint`; witness extraction is redone on demand.
    Fills are lock-guarded so concurrent callers see consistent entries.

    The fixpoint from H is the least closed superset C(H) of H, so C is a
    closure operator and C({x, y}) = C(C({x}) | C({y})). `pair_table` uses
    this to close every pair at once and memoises nothing; before it has
    run, `of_pair` closes the pair from itself through `result`, and
    afterwards it reads the pair table.

    The system holds its cache, so the cache holds the system's size and
    the tables its kernel reads, and not the system: a reference back
    would keep every system alive until the cyclic garbage collector runs.
    """

    def __init__(self, sys):
        m = sys.size
        self.size = m
        self.mg = sys.mul_star[:m, :]          # (m, m+1), products g.x for x in G*
        self.meet = sys.meet
        self.xi = sys.xi
        self.zeta = sys.zeta
        self.delta_star = sys.delta_star       # (m, m+1), column e is all True
        # reach[z, w] says: w <= z.t for some t in G*, that is w <= a for
        # some a in the right ideal z.G* (ideal[z, a]). Every product of
        # the kernel counts at most m + 1 terms, exactly in float32.
        ideal = np.zeros((m, m), dtype=np.float32)
        ideal[np.arange(m)[:, None], self.mg] = 1.0
        reach = (ideal @ sys.zeta.T.astype(np.float32)) > 0.5
        self.reach = reach
        # ext[w1, w2] says: w2 = w1.y for some y in G* with w1 |- y.
        ext = np.zeros((m, m), dtype=np.float32)
        rows, ys = np.nonzero(self.delta_star)
        ext[rows, self.mg[rows, ys]] = 1.0
        # adm[w1, z] says: w1 = (u meet v).x admits z, that is w1 |- y and
        # w1.y <= z.t for some y, t in G*.
        self.adm = (ext @ reach.T.astype(np.float32)) > 0.5
        self._memo: dict[int, tuple[int, int]] = {}
        self._lock = threading.Lock()
        self._table = None

    def step(self, h: np.ndarray) -> np.ndarray:
        """The elements step(H) admits, for H the bool row `h`."""
        m = self.size
        in_h = h[self.mg]                       # v.x in H
        vs = np.flatnonzero(in_h.any(axis=1))   # the v with some v.x in H
        uu, vi = np.nonzero(h[:, None] & self.xi[:, vs])  # u in H and u ~xi~ v
        meets = np.zeros((m, len(vs)), dtype=np.float32)
        meets[self.meet[uu, vs[vi]], vi] = 1.0  # per v: reachable meets u^v
        feas = (meets @ in_h[vs].astype(np.float32)) > 0.5  # (w, x) pairs via shared v
        w1 = np.zeros(m, dtype=bool)
        w1[self.mg[feas]] = True                # products (u^v).x
        return self.adm[w1].any(axis=0)

    def first_witnesses(self, h: np.ndarray, zs: list[int]) -> dict:
        """First admitting (u, v, x, y, t) in lex order for each z of `zs`,
        memberships against h; every z must be in step(h).

        The triples (u, v, x) with u in H, u ~xi~ v and v.x in H are walked
        in lex order, in blocks of u rows of m (m + 1) cells each (`blocks`).
        A triple admits z exactly when adm[w1, z] for w1 = (u meet v).x, so
        within a block only the first triple of each distinct w1 can come
        first for any z, and one (w1, z) table settles every pending z.
        y and t are then the first ones for that triple.
        """
        m = self.size
        found: dict[int, tuple[int, int, int, int, int]] = {}
        pending = np.asarray(zs, dtype=np.int64)
        hx = h[self.mg]                         # v.x in H
        us = np.flatnonzero(h)
        for lo, hi in blocks(len(us), m * (m + 1)):
            if not pending.size:
                break
            u = us[lo:hi]
            feas = self.xi[u][:, :, None] & hx[None, :, :]
            idx = np.flatnonzero(feas)
            if not idx.size:
                continue
            bi, v, x = np.unravel_index(idx, feas.shape)
            w1 = self.mg[self.meet[u[bi], v], x]
            w, first = np.unique(w1, return_index=True)
            pos = np.where(self.adm[w][:, pending], first[:, None], len(idx)).min(axis=0)
            hit = pos < len(idx)
            z, p = pending[hit], pos[hit]
            wz = w1[p]
            y = np.argmax(self.delta_star[wz] & self.reach[z[:, None], self.mg[wz]], axis=1)
            t = np.argmax(self.zeta[self.mg[wz, y][:, None], self.mg[z]], axis=1)
            for row in zip(z.tolist(), u[bi[p]].tolist(), v[p].tolist(), x[p].tolist(),
                           y.tolist(), t.tolist()):
                found[row[0]] = row[1:]
            pending = pending[~hit]
        return {z: found[z] for z in zs}

    def closed_bits(self, h_bits: int) -> int:
        return self.result(h_bits)[0]

    def result(self, h_bits: int) -> tuple[int, int]:
        with self._lock:
            hit = self._memo.get(h_bits)
        if hit is not None:
            return hit
        closed, rounds = _fixpoints(self, _seed(self, h_bits)[None])
        return self.remember(h_bits, bool_to_bits(closed[0]), int(rounds[0]))

    def remember(self, h_bits: int, closed_bits: int, rounds: int) -> tuple[int, int]:
        """Memoise the fixpoint from `h_bits`; the first entry for a seed stays."""
        with self._lock:
            return self._memo.setdefault(h_bits, (closed_bits, rounds))

    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The closures of every pair seed, computed on first call and kept.

        (pair_key, closed): the closure of {x, y} (of {x} when x = y) is
        row pair_key[x, y] of the bool matrix closed, whose rows are
        pairwise distinct and ordered by their first pair (x, y) in pair
        order. The singleton closures are its diagonal,
        closed[pair_key.diagonal()], since {x, x} = {x}.

        No set known to be closed is stepped. The singletons take their
        first round from one scatter of the (v, x) grid
        (`_singleton_rounds`). {x, y} is closed from the union of its
        singleton closures, over the distinct ones, and each union takes
        its first round from the premise tables of its two parts
        (`_union_rounds`); a union that round leaves unchanged is closed,
        and so is a first round equal to one. Only the rows a first round
        grew, and did not close, go on to `_fixpoints`, which steps each
        distinct row once per round.
        """
        if self._table is not None:
            return self._table
        single = _singleton_rounds(self)
        grew = single.sum(axis=1) > 1
        single[grew] = _fixpoints(self, single[grew])[0]
        # {x, y} closes from C({x}) | C({y}), a union of two closed sets
        base, of_base = _distinct_rows(single)
        # the unions are symmetric in (i, j): close those with i <= j
        iu, ju = np.nonzero(np.arange(len(base))[:, None] <= np.arange(len(base)))
        unions = _union_rounds(self, base)[iu, ju]
        parts, bits = rows_bits(base), rows_bits(unions)
        # closed: the unions that their first round left unchanged
        known = {h for h, i, j in zip(bits, iu.tolist(), ju.tolist()) if h == parts[i] | parts[j]}
        open_rows = np.array([h not in known for h in bits])
        if open_rows.any():
            unions[open_rows] = _fixpoints(self, unions[open_rows])[0]
        # one row per distinct closed set, numbered by first union: a row's
        # first pair has both elements first of their singleton closures
        closed, row = _distinct_rows(unions)
        row_of = np.empty((len(base), len(base)), dtype=np.int64)
        row_of[iu, ju] = row_of[ju, iu] = row
        pair_key = row_of[of_base[:, None], of_base[None, :]]
        self._table = (pair_key, closed)
        return self._table

    def of_pair(self, x: int, y: int) -> int:
        """The closure of {x, y}: from the pair table once it has been
        computed, from the memo otherwise. Elements are any integers, numpy
        ones included."""
        m = self.size
        x, y = operator.index(x), operator.index(y)
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"pair ({x}, {y}) outside the carrier 0..{m - 1}")
        if self._table is None:
            return self.closed_bits((1 << x) | (1 << y))
        pair_key, closed = self._table
        return bool_to_bits(closed[pair_key[x, y]])


def _distinct_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d bool matrix in first-seen order and, per
    row, its index among them; rows are compared packed, eight to a byte."""
    first: dict[bytes, int] = {}  # each distinct row's first index
    at = np.array([first.setdefault(row.tobytes(), i)
                   for i, row in enumerate(np.packbits(h, axis=1))], dtype=np.int64)
    firsts = np.array(list(first.values()), dtype=np.int64)
    return h[firsts], np.searchsorted(firsts, at)


def _fixpoints(kern: ClosureCache, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed set and round count of the fixpoint from each row of an
    (n, m) bool matrix, as `closure_fixpoint` gives them.

    Rows equal at one round have the same remaining chain, so each round
    steps the distinct rows still growing once and hands the result to
    every row equal to one; a row leaves at the round that does not grow it.
    """
    closed = np.empty_like(seeds)
    rounds = np.zeros(len(seeds), dtype=np.int64)
    rows = np.arange(len(seeds))
    h, of = _distinct_rows(seeds)  # row r is h[of[r]]
    while rows.size:
        nxt = h | np.array([kern.step(row) for row in h])
        rounds[rows] += 1
        grew = (nxt != h).any(axis=1)
        done = ~grew[of]
        closed[rows[done]] = h[of[done]]
        rows, of = rows[~done], (np.cumsum(grew) - 1)[of[~done]]
        if rows.size:
            h, inv = _distinct_rows(nxt[grew])
            of = inv[of]
    return closed, rounds


def _singleton_rounds(kern: ClosureCache) -> np.ndarray:
    """{x} | step({x}) for every x, row x of an (m, m) bool matrix, with no
    step taken: the premises of step({x}) are u = x = v.x', so scattering
    the (v, x') with a = v.x' and a ~xi~ v to [a, (a meet v).x'] gives the
    products (u meet v).x' of every x at once, and one product with adm
    the elements they admit."""
    m = kern.size
    v, x = np.nonzero(kern.xi[kern.mg, np.arange(m)[:, None]])  # v.x ~xi~ v
    a = kern.mg[v, x]
    w1 = np.zeros((m, m), dtype=np.float32)
    w1[a, kern.mg[kern.meet[a, v], x]] = 1.0
    out = (w1 @ kern.adm.astype(np.float32)) > 0.5
    np.fill_diagonal(out, True)
    return out


def _premises(kern: ClosureCache) -> tuple[np.ndarray, ...]:
    """(at, pair, start, cells): the premise pairs of each u and the
    cells each one marks in a premise table, as runs with offsets.

    pair[at[u]:at[u + 1]] holds the ids, int32, of the distinct
    (v, u meet v) with u ~xi~ v, and cells[start[p]:start[p + 1]] the
    distinct flat cells a * m + w1, (a, w1) = (v.x, (u meet v).x) for x
    in G*, of pair p. The cells are sorted in blocks of pairs of m + 1
    cells each (`blocks`). `ClosureCache.pair_table` reads them once per
    system, in the one call of `_premise_tables` its union rounds make.
    """
    m = kern.size
    mg = kern.mg.astype(np.int32)
    u, v = np.nonzero(kern.xi)
    code = v * m + kern.meet[u, v]
    seen = np.zeros(m * m, dtype=bool)
    seen[code] = True
    pairs = np.flatnonzero(seen)
    start = np.zeros(len(pairs) + 1, dtype=np.int64)
    cells = [np.zeros(0, dtype=np.int32)]
    for lo, hi in blocks(len(pairs), m + 1):
        v, w0 = np.divmod(pairs[lo:hi], m)
        block = np.sort(mg[v] * m + mg[w0], axis=1)
        new = np.ones(block.shape, dtype=bool)
        np.not_equal(block[:, 1:], block[:, :-1], out=new[:, 1:])
        cells.append(block[new])
        start[lo + 1:hi + 1] = new.sum(axis=1)
    return (np.searchsorted(u, np.arange(m + 1)), np.searchsorted(pairs, code).astype(np.int32),
            np.cumsum(start), np.concatenate(cells))


def _runs(owner: np.ndarray, key: np.ndarray, at: np.ndarray,
          values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, value) for each value of the run values[at[k]:at[k + 1]] of
    each key k, the key's owner repeated along its run."""
    start, size = at[key], at[key + 1] - at[key]
    ends = np.cumsum(size)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + size, size)
    return np.repeat(owner, size), values[idx]


def _premise_tables(kern: ClosureCache, rows: np.ndarray):
    """The premise tables of the rows of a (d, m) bool matrix, in blocks
    of tables of m^2 cells each (`blocks`): yields (lo, P) with
    P[i - lo, a, w1] = 1.0 when some u in row i, v ~xi~ u and x in G* have
    v.x = a and (u meet v).x = w1. So z is in step(H) for every H holding u
    and a exactly when P[i - lo, a, w1] and adm[w1, z] for some w1.

    Per block, each member u of a row gives its run of premise pairs, and
    each distinct (row, pair), one cell of a (rows, pairs) grid, marks its
    pair's cells in its row's table (`_premises`).
    """
    d, m = rows.shape
    at, pair, start, cells = _premises(kern)
    npairs = len(start) - 1
    for lo, hi in blocks(d, m * m):
        i, p = _runs(*np.nonzero(rows[lo:hi]), at, pair)  # u in row i, p a pair of u
        seen = np.zeros((hi - lo, npairs), dtype=bool)
        seen[i, p] = True
        i, p = np.nonzero(seen)
        i, c = _runs(i * (m * m), p, start, cells)
        tables = np.zeros((hi - lo) * m * m, dtype=np.float32)
        tables[i + c] = 1.0
        yield lo, tables.reshape(hi - lo, m, m)


def _union_rounds(kern: ClosureCache, closed: np.ndarray) -> np.ndarray:
    """H | step(H) for H the union of rows i and j of a (d, m) bool matrix
    of closed sets, at [i, j] of a (d, d, m) bool array.

    A closed C has step(C) within C, so of the premise pairs (u, a) in
    H = A | B only those with u in A and a in B, or u in B and a in A, can
    add to H: z is added exactly when a premise table of A, read at some a
    in B, admits z, or one of B at some a in A. This needs no hypothesis on
    the system: every fixpoint of H -> H | step(H) contains its own step.
    """
    d, m = closed.shape
    cf = closed.astype(np.float32)
    adm = kern.adm.astype(np.float32)
    cross = np.empty((d, d, m), dtype=bool)  # [i, j, z]: a in row j, premise table of row i
    for lo, tables in _premise_tables(kern, closed):
        # [i - lo, j, z]: counts of (a, w1) with a in row j and adm[w1, z]
        cross[lo:lo + len(tables)] = (cf @ tables @ adm) > 0.5
    out = cross | cross.transpose(1, 0, 2)
    out |= closed[:, None]
    out |= closed[None, :]
    return out


def _seed(sys, h_bits: int) -> np.ndarray:
    """A seed H as a length-m bool array. H must be a nonempty subset of
    the carrier; anything else raises `ValueError`."""
    if h_bits == 0:
        raise ValueError("empty subset: a seed must be nonempty")
    return bits_to_bool(h_bits, sys.size)


def closure_step(sys, h_bits: int) -> int:
    """One application of the step operator to a nonempty subset."""
    return bool_to_bits(sys.closures.step(_seed(sys, h_bits)))


@dataclass
class ClosureResult:
    """Fixpoint of the step operator started from a given seed.

    `witness[z] = (round, (u, v, x, y, t))` records, for each element that
    entered at a round > 0, the first admitting tuple in lexicographic
    order; x, y, t use index m for e.
    """

    seed_bits: int
    closed_bits: int
    rounds: int
    witness: dict[int, tuple[int, tuple[int, int, int, int, int]]] = field(
        default_factory=dict
    )

    def members(self) -> tuple[int, ...]:
        return members(self.closed_bits)

    def __contains__(self, z: int) -> bool:
        return bool((self.closed_bits >> z) & 1)


def closure_fixpoint(sys, h_bits: int, witnesses: bool = True) -> ClosureResult:
    """Iterate H -> H | step(H) to its fixpoint, the least closed superset.

    The chain increases, so it stabilizes within |G| rounds; `rounds`
    counts the step applications performed, including the one that
    confirms stability. Under the validated hypotheses the step is
    extensive, and each round is the plain step. With witnesses the
    (closed set, rounds) found goes into the system's `ClosureCache` memo,
    so the seed is not closed again.
    """
    cur = _seed(sys, h_bits)
    cache = sys.closures
    cur_bits = h_bits
    rounds = 0
    witness: dict[int, tuple[int, tuple[int, int, int, int, int]]] = {}
    while True:
        nxt = cur | cache.step(cur)
        nxt_bits = bool_to_bits(nxt)
        rounds += 1
        if nxt_bits == cur_bits:
            break
        if witnesses:
            new = list(iter_bits(nxt_bits & ~cur_bits))
            for z, tup in cache.first_witnesses(cur, new).items():
                witness[z] = (rounds, tup)
        cur, cur_bits = nxt, nxt_bits
    if witnesses:
        cache.remember(h_bits, cur_bits, rounds)
    return ClosureResult(h_bits, cur_bits, rounds, witness)


def is_closed(sys, h_bits: int, method: str = "implication") -> bool:
    """Decide closedness of H.

    The "implication" method evaluates the defining implication by direct
    enumeration; the "four-conditions" method checks the equivalent rule
    set (left factors, adjacency products, upward order closure, and
    restricted meets), each as one array test over the system's tables,
    and requires a nonempty H. Beyond the subset gate the two share no
    code with each other or with the step kernel.
    """
    m = sys.size
    if method == "implication":
        bits_to_bool(h_bits, m)  # rejects members outside the carrier
        star = sys.mul_star
        meet = sys.meet
        xi = sys.xi
        dstar = sys.delta_star
        zeta = sys.zeta
        srange = range(m + 1)
        outside = [z for z in range(m) if not (h_bits >> z) & 1]
        for u in iter_bits(h_bits):
            for v in range(m):
                if not xi[u, v]:
                    continue
                w0 = meet[u, v]
                for x in srange:
                    if not (h_bits >> int(star[v, x])) & 1:
                        continue
                    w1 = star[w0, x]
                    for y in srange:
                        if not dstar[w1, y]:
                            continue
                        w2 = star[w1, y]
                        for z in outside:
                            for t in srange:
                                if zeta[w2, star[z, t]]:
                                    return False
        return True
    if method == "four-conditions":
        h = _seed(sys, h_bits)
        inside = h[:, None]
        # products: x.y in H forces x in H
        if (~inside & h[sys.mul]).any():
            return False
        # adjacency: g1 in H and g1 |- g2 force g1.g2 in H
        if (inside & sys.delta & ~h[sys.mul]).any():
            return False
        # order: g1 in H and g1 <= g2 force g2 in H
        if (inside & sys.zeta & ~h[None, :]).any():
            return False
        # meets: g1 in H, g1 ~xi~ g2 and g2.x in H force (g1 meet g2).x in
        # H, x ranging over G*; x = e covers the bare meet. escapes[a, b]
        # says a.x is in H and b.x is not for some x, read at (g2, meet).
        hx = h[sys.mul_star[:m]].astype(np.float64)
        escapes = (hx @ (1.0 - hx).T) > 0.5
        return not (inside & sys.xi & escapes[np.arange(m)[None, :], sys.meet]).any()
    raise ValueError(f"unknown method {method!r}")


def least_closed_oracle(sys, h_bits: int) -> int:
    """Least closed superset of H by enumerating every superset.

    Intersects all closed supersets; kept independent of the step kernel so
    the two routes can be compared. Refuses carriers above the budget.
    """
    m = sys.size
    if m > ORACLE_BUDGET:
        raise OracleBudgetError(f"budget exceeded: carrier {m} > {ORACLE_BUDGET}")
    _seed(sys, h_bits)
    rest = [i for i in range(m) if not (h_bits >> i) & 1]
    acc = full_mask(m)
    for pick in range(1 << len(rest)):
        s = h_bits | bits_of(rest[i] for i in range(len(rest)) if (pick >> i) & 1)
        if is_closed(sys, s, "implication"):
            acc &= s
    return acc


@dataclass(frozen=True)
class WitnessNode:
    """One node of a membership witness tree.

    The tuple certifies its target z via (u meet v)xy <= z.t; children, when
    present, certify u and v.x one round earlier. Leaves assert u and v.x
    are seed members.
    """

    u: int
    v: int
    x: int
    y: int
    t: int
    children: tuple["WitnessNode", ...] = ()


def verify_witness_tree(sys, z: int, h_bits: int, n: int, node: WitnessNode) -> bool:
    """Check every guard and leaf condition of a depth-n witness tree.

    A tree with u or v outside G, or x, y or t outside G*, fails.
    """
    m = sys.size
    bits_to_bool(h_bits, m)  # rejects seeds outside the carrier
    star = sys.mul_star

    def ok(target: int, nd: WitnessNode, level: int) -> bool:
        if not (0 <= nd.u < m and 0 <= nd.v < m
                and all(0 <= a <= m for a in (nd.x, nd.y, nd.t))):
            return False
        if not sys.xi[nd.u, nd.v]:
            return False
        w1 = star[sys.meet[nd.u, nd.v], nd.x]
        if not sys.delta_star[w1, nd.y]:
            return False
        w2 = star[w1, nd.y]
        if not sys.zeta[w2, star[target, nd.t]]:
            return False
        vx = int(star[nd.v, nd.x])
        if level == n:
            return bool((h_bits >> nd.u) & 1) and bool((h_bits >> vx) & 1) and not nd.children
        if len(nd.children) != 2:
            return False
        return ok(nd.u, nd.children[0], level + 1) and ok(vx, nd.children[1], level + 1)

    return 0 <= z < m and ok(z, node, 1)


def _direct_tree_search(sys, z: int, h_bits: int, n: int):
    """Exhaustive search over the witness-tree variables, root to leaves."""
    m = sys.size
    star = sys.mul_star
    meet = sys.meet
    xi = sys.xi
    dstar = sys.delta_star
    zeta = sys.zeta
    srange = range(m + 1)
    memo: dict[tuple[int, int], WitnessNode | None] = {}

    def search(target: int, level: int) -> WitnessNode | None:
        key = (target, level)
        if key in memo:
            return memo[key]
        found = None
        for u in range(m):
            if level == n and not (h_bits >> u) & 1:
                continue
            for v in range(m):
                if not xi[u, v]:
                    continue
                w0 = meet[u, v]
                for x in srange:
                    vx = int(star[v, x])
                    if level == n and not (h_bits >> vx) & 1:
                        continue
                    w1 = star[w0, x]
                    for y in srange:
                        if not dstar[w1, y]:
                            continue
                        w2 = star[w1, y]
                        hit_t = None
                        for t in srange:
                            if zeta[w2, star[target, t]]:
                                hit_t = t
                                break
                        if hit_t is None:
                            continue
                        if level == n:
                            found = WitnessNode(u, v, x, y, hit_t)
                        else:
                            left = search(u, level + 1)
                            if left is None:
                                continue
                            right = search(vx, level + 1)
                            if right is None:
                                continue
                            found = WitnessNode(u, v, x, y, hit_t, (left, right))
                        if found is not None:
                            memo[key] = found
                            return found
        memo[key] = found
        return found

    return search(z, 1)


def _witnessed_chain(sys, h_bits: int, n: int):
    """Fn chain up to n with first-round and first-tuple bookkeeping."""
    cur = bits_to_bool(h_bits, sys.size)
    cache = sys.closures
    chain = [h_bits]
    first_round = {z: 0 for z in iter_bits(h_bits)}
    tuples: dict[int, tuple[int, int, int, int, int]] = {}
    cur_bits = h_bits
    for r in range(1, n + 1):
        nxt = cache.step(cur)
        nxt_bits = bool_to_bits(nxt)
        new = [z for z in iter_bits(nxt_bits) if z not in first_round]
        for z, tup in cache.first_witnesses(cur, new).items():
            first_round[z] = r
            tuples[z] = tup
        chain.append(nxt_bits)
        if nxt_bits == cur_bits:
            chain.extend([nxt_bits] * (n - r))
            break
        cur, cur_bits = nxt, nxt_bits
    return chain, first_round, tuples


def _tree_from_chain(sys, z: int, n: int, first_round, tuples) -> WitnessNode | None:
    e = sys.size
    star = sys.mul_star

    def build(w: int, j: int) -> WitnessNode | None:
        r = first_round.get(w)
        if r is None or r > j:
            return None
        if r == j and j > 0:
            u, v, x, y, t = tuples[w]
            if j == 1:
                return WitnessNode(u, v, x, y, t)
            left = build(u, j - 1)
            right = build(int(star[v, x]), j - 1)
            if left is None or right is None:
                return None
            return WitnessNode(u, v, x, y, t, (left, right))
        # w already present earlier: pad with the reflexive tuple (w,w,e,e,e)
        if j == 1:
            return WitnessNode(w, w, e, e, e)
        sub = build(w, j - 1)
        if sub is None:
            return None
        return WitnessNode(w, w, e, e, e, (sub, sub))

    return build(z, n)


def member_at_round(sys, z: int, h_bits: int, n: int, method: str = "auto"):
    """Decide z in Fn(H) and produce a depth-n witness tree when it holds.

    method "direct" searches the tree variables exhaustively (bounded to
    small carriers and n <= 2); "iterate" applies the step operator n times
    and rebuilds the tree from round witnesses; "auto" picks direct inside
    the bounds and iterate otherwise. z must be in the carrier and H a
    nonempty subset of it.
    """
    if n < 1:
        raise ValueError("round count must be at least 1")
    _seed(sys, h_bits)
    m = sys.size
    z = operator.index(z)
    if not 0 <= z < m:
        raise ValueError(f"element {z} outside the carrier 0..{m - 1}")
    if method == "auto":
        method = (
            "direct"
            if n <= DIRECT_TREE_MAX_ROUNDS and m <= DIRECT_TREE_MAX_SIZE
            else "iterate"
        )
    if method == "direct":
        if n > DIRECT_TREE_MAX_ROUNDS or m > DIRECT_TREE_MAX_SIZE:
            raise ValueError(
                f"direct search bounded to n <= {DIRECT_TREE_MAX_ROUNDS} "
                f"and carrier <= {DIRECT_TREE_MAX_SIZE}"
            )
        node = _direct_tree_search(sys, z, h_bits, n)
        return (node is not None), node
    if method != "iterate":
        raise ValueError(f"unknown method {method!r}")
    chain, first_round, tuples = _witnessed_chain(sys, h_bits, n)
    if not (chain[n] >> z) & 1:
        return False, None
    return True, _tree_from_chain(sys, z, n, first_round, tuples)


def derivation_chain(sys, result: ClosureResult, element: int) -> list[dict]:
    """Flatten the witness ancestry of one closure member, seed upward."""
    star = sys.mul_star
    steps: dict[int, dict] = {}

    def need(w: int) -> None:
        if w in steps or (result.seed_bits >> w) & 1:
            return
        entry = result.witness.get(w)
        if entry is None:
            return
        rnd, (u, v, x, y, t) = entry
        vx = int(star[v, x])
        steps[w] = {
            "element": w,
            "round": rnd,
            "tuple": [u, v, x, y, t],
            "from": [u, vx],
        }
        need(u)
        need(vx)

    need(element)
    return sorted(steps.values(), key=lambda s: (s["round"], s["element"]))


def _failing(mask: np.ndarray, target: np.ndarray) -> list[tuple[int, int, int]]:
    """(x, y, target[x, y]) for every set entry of mask, x-major."""
    return [(int(x), int(y), int(target[x, y])) for x, y in np.argwhere(mask)]


def _axiom_failures(sys):
    """Failing (x, y, closure member) triples of each closure axiom, x-major.

    Yields (check id, triples, start time) per axiom, each timed alone. The
    closures come from `ClosureCache.pair_table`, whose time counts towards
    the order check: the singleton closures, its diagonal, are read at
    meet[x, y] and x.y, and the whole table at meet[x, y].
    """
    rows = np.arange(sys.size)[:, None]
    t0 = time.perf_counter()
    pair_key, closed = sys.closures.pair_table()
    single = closed[pair_key.diagonal()]
    yield "closure-forces-order", _failing(single[rows, sys.meet] & ~sys.zeta, sys.meet), t0

    t0 = time.perf_counter()
    yield ("closure-forces-semicompat",
           _failing(closed[pair_key, sys.meet] & ~sys.xi, sys.meet), t0)

    t0 = time.perf_counter()
    yield "closure-forces-adjacency", _failing(single[rows, sys.mul] & ~sys.delta, sys.mul), t0


def check_representability(sys) -> Report:
    """The three closure axioms every represented system satisfies.

    Finite carriers make the per-round axiom families collapse to one check
    per pair against the full closure. Witnesses replay the first five
    failing pairs from their own seeds, each distinct seed closed once per
    call, and each check's seconds cover its detection and its witnesses.
    """
    report = Report("representability axioms")
    replayed: dict[int, ClosureResult] = {}
    for check_id, bad, t0 in _axiom_failures(sys):
        witnesses = []
        for x, y, target in bad[:5]:
            seed = (1 << x) if check_id != "closure-forces-semicompat" else (1 << x) | (1 << y)
            res = replayed.get(seed)
            if res is None:
                res = replayed[seed] = closure_fixpoint(sys, seed, witnesses=True)
            witnesses.append(
                {
                    "x": x,
                    "y": y,
                    "closure-member": target,
                    "chain": derivation_chain(sys, res, target),
                }
            )
        report.record(check_id, t0, len(bad), witnesses, "failing pairs")
    return report
