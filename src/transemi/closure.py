"""Closure engine over an abstract system.

A subset H of G is closed when the implication

    u ~xi~ v  and  (u meet v)x |- y  and  (u meet v)xy <= z.t
    and  u, vx in H   implies   z in H

holds for all z,u,v in G and x,y,t in G* (e allowed). `closure_step` maps H
to the set of all admitted z; `closure_fixpoint` iterates H -> H | step(H)
and returns the least closed superset together with the round count and,
per added element, the first admitting 5-tuple in lexicographic order
(u,v,x,y,t) with e ordered last. From a seed of one or two elements the
first round of a witnessed fixpoint is the first-witness search alone,
which over the non-members of H finds step(H) minus H with its tuples.
A chain that reaches the whole carrier stops there, since every closure
lies within it. `least_closed_oracle` recomputes the same set by
brute-force subset enumeration and is kept independent of the step kernel
on purpose.

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
    take_pairs,
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

    The kernel is the vectorized one-step operator on one set (`step`) and
    the first-witness search (`first_witnesses`), over tables built here
    once per system. Single seeds close through `step`: `result`,
    `closure_fixpoint`, `closure_step` and the witnessed chain. A witnessed
    `closure_fixpoint` from one or two elements takes its first round from
    the search alone, since over the non-members of a set the search finds
    the set's step outside it, each element with its first tuple.

    Each memo entry is the (closed set, round count) that `closure_fixpoint`
    gives for its own seed, filled by `result` or, through `remember`, by a
    witnessed `closure_fixpoint`; witness extraction is redone on demand.
    A second memo holds one entry per distinct closed set whose canonical
    determining pair a pair query has built (`determining_pair`), with that
    pair's simplest representation once built (`simplest`); `representation`
    passes in the functions that build them. Fills are lock-guarded so
    concurrent callers see consistent entries, and the first entry for a
    key stays.

    The fixpoint from H is the least closed superset C(H) of H, so C is a
    closure operator and C({x, y}) = C(C({x}) | C({y})). `pair_table` uses
    this to close every pair at once and memoises nothing; it steps many
    sets at a time off premise tables, not through `step`. Before it has
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
        flat = ideal.reshape(-1)
        for lo, hi in blocks(m, m + 1):  # ideal[z, z.x] for z in lo..hi-1, x in G*
            flat[np.arange(lo * m, hi * m, m)[:, None] + self.mg[lo:hi]] = 1.0
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
        # closed set -> its canonical determining pair; id of that pair ->
        # its simplest representation, None until built. A memoised pair
        # stays alive, so no other object has its id.
        self._pairs: dict[int, object] = {}
        self._simplest: dict[int, object] = {}
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
        """First admitting (u, v, x, y, t) in lex order, memberships against
        h, for each z of `zs` that step(h) admits, in the order of `zs`; a z
        that step(h) does not admit has no entry. So over the non-members of
        h the search finds step(h) minus h itself, each element with its
        first tuple.

        The triples (u, v, x) with u in H, u ~xi~ v and v.x in H are walked
        in lex order, in blocks within the cell budget (`_triples`). A
        triple admits z exactly when adm[w1, z] for w1 = (u meet v).x, so
        the first triple of a block to admit a pending z is the first true
        cell of z's column in the (triple, pending) table adm[w1][:, pending],
        read in blocks of triples of m cells each; the search stops once no
        z is pending. y and t are then the first ones for that triple, read
        in blocks of m + 1 cells a z. Each block's finds follow the order of
        `zs`, so the finds of one block need no reordering.
        """
        m = self.size
        found: dict[int, tuple[int, int, int, int, int]] = {}
        pending = np.asarray(zs, dtype=np.int64)
        if not pending.size:
            return found
        ordered = True                          # found follows zs while one block has added
        for u, v, x in self._triples(h):
            w1 = self.mg[self.meet[u, v], x]
            for a, b in blocks(len(w1), m):
                adm = self.adm[w1[a:b]][:, pending]
                first = adm.argmax(axis=0)      # the first triple admitting each z
                hit = adm[first, np.arange(len(pending))]
                zh, ph = pending[hit], a + first[hit]
                pending = pending[~hit]
                ordered = ordered and not found
                for c, d in blocks(len(zh), m + 1):
                    z, p = zh[c:d], ph[c:d]
                    wz = w1[p]
                    y = (self.delta_star[wz]
                         & take_pairs(self.reach, z[:, None], self.mg[wz])).argmax(axis=1)
                    t = take_pairs(self.zeta, self.mg[wz, y][:, None], self.mg[z]).argmax(axis=1)
                    found.update(zip(z.tolist(), zip(u[p].tolist(), v[p].tolist(),
                                                     x[p].tolist(), y.tolist(), t.tolist())))
                if not pending.size:
                    break
            if not pending.size:
                break
        return found if ordered else {z: found[z] for z in zs if z in found}

    def _triples(self, h: np.ndarray):
        """(u, v, x) index arrays of the triples with u in H, u ~xi~ v and
        v.x in H, in lex order, in blocks of u rows of m (m + 1) cells each
        (`blocks`); a u row past the cell budget is cut along v."""
        m = self.size
        us = h.nonzero()[0]
        for lo, hi in blocks(len(us), m * (m + 1)):
            u = us[lo:hi]
            for vlo, vhi in blocks(m, len(u) * (m + 1)):
                feas = self.xi[u, vlo:vhi][:, :, None] & h[self.mg[vlo:vhi]][None]
                bi, v, x = np.unravel_index(feas.reshape(-1).nonzero()[0], feas.shape)
                if vlo:
                    v += vlo
                yield u[bi], v, x

    def closed_bits(self, h_bits: int) -> int:
        return self.result(h_bits)[0]

    def result(self, h_bits: int) -> tuple[int, int]:
        """(closed set, round count) of the fixpoint from `h_bits`, from the
        memo or iterated through `step` and memoised. A set that reaches the
        whole carrier is closed, so, as in `closure_fixpoint`, the round that
        would confirm it is counted but not taken."""
        with self._lock:
            hit = self._memo.get(h_bits)
        if hit is not None:
            return hit
        cur, rounds = _seed(self, h_bits), 0
        while True:
            rounds += 1
            if cur.all():
                break
            nxt = cur | self.step(cur)
            if (nxt == cur).all():
                break
            cur = nxt
        return self.remember(h_bits, bool_to_bits(cur), rounds)

    def remember(self, h_bits: int, closed_bits: int, rounds: int) -> tuple[int, int]:
        """Memoise the fixpoint from `h_bits`; the first entry for a seed stays."""
        with self._lock:
            return self._memo.setdefault(h_bits, (closed_bits, rounds))

    def known_size(self, h_bits: int) -> int | None:
        """The size of the closure of `h_bits` when it is already known: from
        its memo entry or, once the pair table is built, from the table for
        a seed of one or two elements; None otherwise. The closure lies
        within the carrier, so when nothing is known its size m bounds the
        chain instead (`closure_fixpoint`)."""
        hit = self._memo.get(h_bits)
        if hit is not None:
            return hit[0].bit_count()
        if self._table is None or h_bits.bit_count() > 2:
            return None
        pair_key, closed = self._table
        x, y = h_bits.bit_length() - 1, (h_bits & -h_bits).bit_length() - 1
        return int(np.count_nonzero(closed[pair_key[x, y]]))

    def determining_pair(self, closed_bits: int, build):
        """The canonical determining pair of a closed set: the memoised one,
        or `build()`, memoised. A `build` that raises memoises nothing."""
        pair = self._pairs.get(closed_bits)
        if pair is None:
            pair = build()
            with self._lock:
                pair = self._pairs.setdefault(closed_bits, pair)
                self._simplest.setdefault(id(pair), None)
        return pair

    def simplest(self, pair, build):
        """The simplest representation of `pair`, `build()`: built once and
        memoised for a pair that `determining_pair` returned, that very
        object, and built anew and not memoised for any other."""
        key = id(pair)
        if key not in self._simplest:
            return build()
        if self._simplest[key] is None:
            rep = build()
            with self._lock:
                if self._simplest[key] is None:
                    self._simplest[key] = rep
        return self._simplest[key]

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
        grew, and did not close, go on to `_fixpoints`, which steps the
        distinct rows of each round in one batch off their own premise
        tables. The premise pairs those tables are made of (`_premises`)
        are built once here, for both stages, and dropped with the sweep.
        """
        if self._table is not None:
            return self._table
        single = _singleton_rounds(self)
        premises = _premises(self)
        grew = single.sum(axis=1) > 1
        single[grew] = _fixpoints(self, single[grew], premises)[0]
        # {x, y} closes from C({x}) | C({y}), a union of two closed sets
        base, of_base = _distinct_rows(single)
        # the unions are symmetric in (i, j): close those with i <= j
        iu, ju = np.nonzero(np.arange(len(base))[:, None] <= np.arange(len(base)))
        unions = _union_rounds(self, base, premises)[iu, ju]
        parts, bits = rows_bits(base), rows_bits(unions)
        # closed: the unions that their first round left unchanged
        known = {h for h, i, j in zip(bits, iu.tolist(), ju.tolist()) if h == parts[i] | parts[j]}
        open_rows = np.array([h not in known for h in bits])
        if open_rows.any():
            unions[open_rows] = _fixpoints(self, unions[open_rows], premises)[0]
        # one row per distinct closed set, numbered by first union: a row's
        # first pair has both elements first of their singleton closures
        closed, row = _distinct_rows(unions)
        row_of = np.empty((len(base), len(base)), dtype=np.int64)
        row_of[iu, ju] = row_of[ju, iu] = row
        pair_key = row_of[of_base][:, of_base]
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


def _fixpoints(kern: ClosureCache, seeds: np.ndarray,
               premises: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Closed set and round count of the fixpoint from each row of an
    (n, m) bool matrix, as `closure_fixpoint` gives them; `premises` is
    `_premises(kern)`.

    Rows equal at one round have the same remaining chain, so each round
    steps the distinct rows still growing once, all in one batch
    (`_steps`), and hands the result to every row equal to one; a row
    leaves at the round that does not grow it.
    """
    closed = np.empty_like(seeds)
    rounds = np.zeros(len(seeds), dtype=np.int64)
    rows = np.arange(len(seeds))
    h, of = _distinct_rows(seeds)  # row r is h[of[r]]
    while rows.size:
        nxt = h | _steps(kern, h, premises)
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
    v, x = np.nonzero(take_pairs(kern.xi, kern.mg, np.arange(m)[:, None]))  # v.x ~xi~ v
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
    cells each (`blocks`). `ClosureCache.pair_table` builds them once per
    sweep and hands them to every `_premise_tables` call its batched steps
    and union rounds make.
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


def _premise_tables(kern: ClosureCache, rows: np.ndarray, premises: tuple[np.ndarray, ...]):
    """The premise tables of the rows of a (d, m) bool matrix, in blocks
    of tables of m^2 cells each (`blocks`), from `premises`, which is
    `_premises(kern)`: yields (lo, P) with
    P[i - lo, a, w1] = 1.0 when some u in row i, v ~xi~ u and x in G* have
    v.x = a and (u meet v).x = w1. So z is in step(H) for every H holding u
    and a exactly when P[i - lo, a, w1] and adm[w1, z] for some w1.

    Per block, each member u of a row gives its run of premise pairs, and
    each distinct (row, pair), one cell of a (rows, pairs) grid, marks its
    pair's cells in its row's table (`_premises`).
    """
    d, m = rows.shape
    at, pair, start, cells = premises
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


def _steps(kern: ClosureCache, rows: np.ndarray, premises: tuple[np.ndarray, ...]) -> np.ndarray:
    """step(H) for each row H of a (d, m) bool matrix, at the same row of
    a (d, m) bool matrix; `premises` is `_premises(kern)`.

    z is in step(H) exactly when H's premise table, read at some a in H,
    admits z (`_premise_tables`). This is the diagonal of what
    `_union_rounds` reads off the same tables, since the premise table of
    A | B is that of A joined with that of B.
    """
    out = np.empty_like(rows)
    adm = kern.adm.astype(np.float32)
    for lo, tables in _premise_tables(kern, rows, premises):
        hi = lo + len(tables)
        # [i - lo, w1]: counts of a in row i with P[i - lo, a, w1]
        w1 = np.matmul(rows[lo:hi, None, :].astype(np.float32), tables)[:, 0]
        out[lo:hi] = (w1 @ adm) > 0.5
    return out


def _union_rounds(kern: ClosureCache, closed: np.ndarray,
                  premises: tuple[np.ndarray, ...]) -> np.ndarray:
    """H | step(H) for H the union of rows i and j of a (d, m) bool matrix
    of closed sets, at [i, j] of a (d, d, m) bool array; `premises` is
    `_premises(kern)`.

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
    for lo, tables in _premise_tables(kern, closed, premises):
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
    counts the rounds, including the one that confirms stability. Every
    set of the chain lies within the closure, and the closure within G, so
    the chain has reached the closure once it is as large as the closure
    of the seed, when that is already known (`ClosureCache.known_size`),
    or else as large as G: the confirming round is counted but not taken.

    Without witnesses each round is one step. With witnesses each element
    a round adds gets its first admitting tuple from
    `ClosureCache.first_witnesses`. From a seed of one or two elements the
    first round is that search alone: over the non-members of H it finds
    step(H) minus H itself, walking at most two u rows. Every other round
    is one step, then the search over the elements it adds. A larger seed
    keeps its step: a search over the non-members cannot stop before it
    has walked every u row of H, and on a large closed seed that walk
    costs several steps. So a witnessed fixpoint of r rounds takes r - 1
    steps from one or two elements and r from more, one fewer, down to
    none, when its closure is known or is G; a seed that is G takes none.
    The (closed set, rounds) found goes into the system's `ClosureCache`
    memo, so the seed is not closed again.
    """
    cur = _seed(sys, h_bits)
    cache = sys.closures
    known = cache.known_size(h_bits)
    bound = sys.size if known is None else known
    rounds = 0
    witness: dict[int, tuple[int, tuple[int, int, int, int, int]]] = {}
    while True:
        rounds += 1
        if np.count_nonzero(cur) == bound:
            break
        if witnesses and rounds == 1 and h_bits.bit_count() <= 2:
            # over the non-members of H the search finds step(H) \ H itself
            found = cache.first_witnesses(cur, (~cur).nonzero()[0].tolist())
            new = list(found)
        else:
            new = (cache.step(cur) & ~cur).nonzero()[0].tolist()
            found = cache.first_witnesses(cur, new) if witnesses and new else {}
        if not new:
            break
        for z, tup in found.items():
            witness[z] = (rounds, tup)
        cur[new] = True
    closed_bits = bool_to_bits(cur)
    if witnesses:
        cache.remember(h_bits, closed_bits, rounds)
    return ClosureResult(h_bits, closed_bits, rounds, witness)


def is_closed(sys, h_bits: int, method: str = "implication") -> bool:
    """Decide closedness of H.

    The "implication" method evaluates the defining implication by direct
    enumeration; the "four-conditions" method checks the equivalent rule
    set (left factors, adjacency products, upward order closure, and
    restricted meets), each as one array test over the system's tables,
    and requires a nonempty H. Beyond the subset gate the two share no
    code with each other or with the step kernel. The whole carrier meets
    every condition whatever the system, so "four-conditions" passes it
    without forming a table.
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
        if h.all():
            return True
        inside = h[:, None]
        prod = h[sys.mul]  # [x, y]: x.y in H
        # products: x.y in H forces x in H
        if (~inside & prod).any():
            return False
        # adjacency: g1 in H and g1 |- g2 force g1.g2 in H
        if (inside & sys.delta & ~prod).any():
            return False
        # order: g1 in H and g1 <= g2 force g2 in H
        if (inside & sys.zeta & ~h).any():
            return False
        # meets: g1 in H, g1 ~xi~ g2 and g2.x in H force (g1 meet g2).x in
        # H, x ranging over G*; x = e covers the bare meet. escapes[a, b]
        # counts the x with a.x in H and b.x not, at most m + 1, so exactly
        # in float32; it is read at (g2, meet).
        hx = h[sys.mul_star[:m]].astype(np.float32)
        escapes = (hx @ (1.0 - hx).T) > 0.5
        return not (inside & sys.xi & take_pairs(escapes, np.arange(m), sys.meet)).any()
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


_ROUND_ELEMENT = operator.itemgetter("round", "element")


def derivation_chain(sys, result: ClosureResult, element: int) -> list[dict]:
    """Flatten the witness ancestry of one closure member, seed upward:
    one step per witnessed ancestor, ordered by (round, element). The
    ancestry is walked with an explicit stack, so chains of any depth take
    no recursion. `element` must be in the carrier; anything else raises
    `ValueError`."""
    m = sys.size
    z = operator.index(element)
    if not 0 <= z < m:
        raise ValueError(f"element {z} outside the carrier 0..{m - 1}")
    product = sys.mul_star.item
    seed, witness = result.seed_bits, result.witness
    steps: dict[int, dict] = {}
    stack = [z]
    while stack:
        w = stack.pop()
        if w in steps or (seed >> w) & 1 or w not in witness:
            continue
        rnd, (u, v, x, y, t) = witness[w]
        vx = product(v, x)
        steps[w] = {"element": w, "round": rnd, "tuple": [u, v, x, y, t], "from": [u, vx]}
        stack += (vx, u)
    return sorted(steps.values(), key=_ROUND_ELEMENT)


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
    yield ("closure-forces-order",
           _failing(take_pairs(single, rows, sys.meet) & ~sys.zeta, sys.meet), t0)

    t0 = time.perf_counter()
    yield ("closure-forces-semicompat",
           _failing(take_pairs(closed, pair_key, sys.meet) & ~sys.xi, sys.meet), t0)

    t0 = time.perf_counter()
    yield ("closure-forces-adjacency",
           _failing(take_pairs(single, rows, sys.mul) & ~sys.delta, sys.mul), t0)


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
