"""Intersection-closed semigroups of partial transformations.

`generate` saturates a set of seed maps, given as int64 rows (-1 where a
map is undefined), under composition and intersection semi-naively,
forming each ordered pair's products once, and computes, eagerly, the
index tables for both operations plus two boolean relations, agreement
on common domains (xi) and image-inside-domain (delta), through the row
kernel of `partial_maps`. The result is a `TransSystem`, which is the
AbstractSystem it forms: the abstract product x.y is the transformation
y o x (apply x first), so the abstract table is the transpose of the
concrete composition table, and the meet is intersection, so the meet
order zeta is containment.
"""

from __future__ import annotations

import time
from itertools import count, islice
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .abstract_system import AbstractSystem
from .bitsets import bits_of, bits_to_bool
from .errors import CapExceededError, CarrierMismatchError
from .partial_maps import products, relations, row_keys
from .reports import WITNESS_CAP, Report


class TransSystem(AbstractSystem):
    """A closed set of partial maps: the abstract system it forms, with
    the maps themselves.

    Built by `generate`, which hands over the saturated maps as (k, n) int64
    rows, -1 where a map is undefined, together with their product tables:
    mul_table[i, j] and meet[i, j] index rows[i] o rows[j] (apply rows[j]
    first) and the meet of rows[i] and rows[j]. `mul` is the transpose of
    `mul_table`, a view of it. `dom` marks each map's domain, `rows >= 0`.
    """

    def __init__(self, rows: np.ndarray, mul_table: np.ndarray, meet: np.ndarray):
        _, xi, delta = relations(rows)
        super().__init__(mul_table.T, meet, xi, delta)
        self.rows, self.mul_table = rows, mul_table
        self.dom = rows >= 0  # [f, a]: point a is in the domain of map f
        for arr in (rows, mul_table, self.dom):
            arr.flags.writeable = False
        self.base_size = rows.shape[1]

    def abstract(self) -> TransSystem:
        """The system itself, which is already its abstract encoding."""
        return self

    def __repr__(self) -> str:
        return f"TransSystem(base_size={self.base_size}, size={self.size})"


class _Ids(dict):
    """Each distinct row's id, keyed by `row_keys`, in first-seen order: a
    row looked up for the first time takes the next id."""

    def __missing__(self, key: bytes) -> int:
        self[key] = len(self)
        return self[key]


def generate(seeds: np.ndarray | Sequence[Sequence[int]], cap: int) -> TransSystem:
    """Least set containing the seeds closed under compose and intersect.

    The seeds are rows: a (k, n) int64 array, or k sequences of n ints, each
    entry the image of its point or -1 where the map is undefined. Seeds of
    different lengths raise `CarrierMismatchError`; no seeds, no points or
    an entry outside -1..n-1 raise `ValueError`. Repeated seeds count once,
    at their first occurrence.

    Saturation runs in rounds, semi-naively: seeds first, in given order.
    A round over the k maps known when it starts forms both products of
    the ordered pairs with at least one map new since the previous round
    (`products(rows, done)`, done being the number of maps known before
    that round) and walks them in (i, j, compose-then-intersect) order,
    appending the maps it has not seen; a pair of two older maps had its
    products admitted in an earlier round, so its ids are copied from that
    round's tables. Each ordered pair is thus formed once, and the maps get
    the same ids as when every round forms every pair. A product block's
    ids are read in one pass over its rows, in order, from a dict in which
    a row not seen before takes the next id, so a map repeated in a block
    or met again in a later one keeps the id of its first occurrence. A
    round that finds no new map ends saturation, and its ids are the
    system's tables. Raises when the closure grows past `cap`, checked
    after each block.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("at least one seed map is required")
    n = len(seed_list[0])
    for row in seed_list:
        if len(row) != n:
            raise CarrierMismatchError(f"carrier mismatch: {n} vs {len(row)}")
    if n < 1:
        raise ValueError("base_size must be positive")
    seed_rows = np.asarray(seed_list)
    if seed_rows.ndim != 2 or seed_rows.dtype.kind not in "iu":
        raise ValueError("seed maps must be rows of integers")
    if seed_rows.min() < -1 or seed_rows.max() >= n:
        raise ValueError(f"seed map entry out of range -1..{n - 1}")
    index = _Ids(zip(dict.fromkeys(row_keys(seed_rows)), count()))
    if cap < len(index):  # the closure holds the seeds
        raise CapExceededError(f"cap exceeded: closure grew past {cap}")
    rows = np.frombuffer(b"".join(index), dtype=np.int64).reshape(-1, n)
    done, old = 0, np.empty((2, 0, 0), dtype=np.int64)
    while True:
        k = len(rows)
        ids = np.empty((2, k, k), dtype=np.int64)  # compose, intersect
        ids[:, :done, :done] = old
        for lo, hi, jlo, block in products(rows, done):
            keys = row_keys(block.reshape(-1, n))
            found = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
            if len(index) > cap:
                raise CapExceededError(f"cap exceeded: closure grew past {cap}")
            ids[:, lo:hi, jlo:] = found.reshape(hi - lo, k - jlo, 2).transpose(2, 0, 1)
        if len(index) == k:
            return TransSystem(rows, ids[0], ids[1])
        # the keys past k are the round's new maps, in the order of their ids
        grown = np.frombuffer(b"".join(islice(index, k, None)), dtype=np.int64)
        rows, done, old = np.concatenate([rows, grown.reshape(-1, n)]), k, ids


def check_adjacency_laws(sys: TransSystem) -> Report:
    """Both structural laws of the image-inside-domain relation.

    First: (f,g) adjacent iff composing g after f keeps the whole domain of
    f. Second: adjacency survives precomposition. Expected to hold on every
    generated system; violations are reported with the offending tuples.
    """
    report = Report("adjacency laws")
    t0 = time.perf_counter()
    dom = sys.dom
    kept = ~(dom[:, None, :] & ~dom[sys.mul]).any(axis=2)  # [f, g]: g o f keeps dom f
    report.record_mask("adjacency-iff-domain-kept", t0, sys.delta != kept, ("f", "g"), "pairs")
    # delta[f,g] must imply delta[f o h, g] for every h
    report.scan("adjacency-precompose-stable", sys.size,
                lambda lo, hi: sys.delta[lo:hi, None, :] & ~sys.delta[sys.mul_table[lo:hi]],
                ("f", "h", "g"), "triples")
    return report


def check_domain_meet(sys: TransSystem, h_indices: Iterable[int]) -> Report:
    """Common domain of a subset versus domains across its closure.

    Every member of the closure generated by H must keep the intersection
    of the domains of H inside its own domain.
    """
    t0 = time.perf_counter()
    idx = sorted({index(i) for i in h_indices})
    if not idx:
        raise ValueError("subset of elements must be nonempty")
    for i in idx:
        if not 0 <= i < sys.size:
            raise ValueError(f"element index {i} out of range")
    closed = bits_to_bool(sys.closures.closed_bits(bits_of(idx)), sys.size)
    common = sys.dom[idx].all(axis=0)
    bad = [{"subset": idx, "member": phi}
           for phi in np.flatnonzero(closed & (common & ~sys.dom).any(axis=1)).tolist()]
    report = Report("domain meet bound")
    report.record("closure-domain-bound", t0, len(bad), bad, "members")
    return report


def check_domain_bounds(sys: TransSystem) -> Report:
    """`check_domain_meet` on every singleton and pair subset, in one pass.

    Subsets run in order {0}, {0, 1}, ..., {1}, {1, 2}, ...; the witnesses
    are the first `WITNESS_CAP` failing (subset, member) pairs in that
    order. Each subset's closure is read from the closure cache's pair
    table (`ClosureCache.pair_table`, computed here if need be), and its
    common domain is tested, for all subsets at once, against the points in
    the domain of every member of its closure; members are walked only for
    subsets that fail.
    """
    t0 = time.perf_counter()
    k = sys.size
    pair_key, closed = sys.closures.pair_table()
    dom = sys.dom
    # bound[c]: the points in the domain of every member of closure c
    bound = (closed.astype(np.float32) @ (~dom).astype(np.float32)) < 0.5
    common = dom[:, None, :] & dom[None, :, :]
    bad = []
    for i, j in np.argwhere(np.triu((common & ~bound[pair_key]).any(axis=2))).tolist():
        members = np.flatnonzero(closed[pair_key[i, j]] & (common[i, j] & ~dom).any(axis=1))
        subset = [i] if i == j else [i, j]
        bad.extend({"subset": subset, "member": phi}
                   for phi in members[:WITNESS_CAP - len(bad)].tolist())
        if len(bad) == WITNESS_CAP:
            break
    report = Report("domain meet bounds")
    report.add("closure-domain-bound", not bad, bad,
               f"{k * (k + 1) // 2} subsets checked", time.perf_counter() - t0)
    return report
