"""Partial transformations of a finite carrier {0..n-1}, as int64 rows.

A list of k partial maps is a (k, n) int64 array of rows: row[a] is the
image of a, or -1 where the map is undefined. Treated as a subset of A x A a
row is automatically functional. This module is the one kernel over such
rows: `compose` and `intersect` form the products of blocks of rows, and
`compose_mismatch` checks every pair's composite against a table. Every
other comparison of all pairs of rows is read off three pair counts, each a
product of 0/1 matrices (`agree_counts`, `common_counts`, `escape_counts`):
the relations zeta, xi and delta (`relations`), equality as zeta both ways,
and the meet law (`meet_mismatch`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .bitsets import blocks, take_pairs

# Counts of at most n points are exact in float32 while n is below this;
# the pair counts of rows on more points are taken in int64.
_FLOAT32_EXACT = 1 << 24


def row_keys(rows: np.ndarray) -> list[bytes]:
    """One hashable key per row of an int64 array; equal rows, equal keys."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _tiles(rows: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """(lo, hi, jlo, jhi): tiles of rows lo..hi-1 against columns jlo..jhi-1
    of a k x k pair matrix, each within the cell budget over its n
    points (`blocks`): a row wider than the budget is cut into columns."""
    k, n = rows.shape
    for jlo, jhi in blocks(k, n):
        for lo, hi in blocks(k, (jhi - jlo) * n):
            yield lo, hi, jlo, jhi


def compose(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(left), len(right), n): entry [b, j] is the map a -> left[b][right[j][a]],
    left[b] o right[j] (apply right[j] first), defined where both stages are."""
    ext = np.concatenate([left, np.full((len(left), 1), -1, np.int64)], axis=1)
    return np.take(ext, right, axis=1)  # -1 picks the appended undefined column


def intersect(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(left), len(right), n): entry [b, j] is the meet of left[b] and
    right[j] as subsets of A x A, defined where the two agree."""
    block = left[:, None, :]
    return np.where(block == right, block, -1)


def products(rows: np.ndarray, done: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Both products of each ordered pair (i, j) with i >= done or j >= done,
    one row block at a time.

    Yields (lo, hi, jlo, out) with out[b, j, 0] = rows[lo + b] o rows[jlo + j]
    and out[b, j, 1] their meet (see `compose` and `intersect`):
    first the rows below `done` against rows done..k-1 (jlo = done), then
    the rows from `done` on against all k rows (jlo = 0). Reshaping the
    blocks to rows in turn lists those pairs in (i, j, compose-then-intersect)
    order; done = 0 lists every ordered pair. Each block is the part of one
    row block of k n cells each (`blocks`) on one side of `done`.
    """
    k = len(rows)
    for start, stop, jlo in ((0, done, done), (done, k, 0)):
        for lo, hi in blocks(k, k * rows.shape[1]):
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                left, right = rows[lo:hi], rows[jlo:]
                yield lo, hi, jlo, np.stack(
                    [compose(left, right), intersect(left, right)], axis=2)


def compose_mismatch(rows: np.ndarray, want: np.ndarray) -> np.ndarray:
    """(k, k) bool: rows[i] o rows[j] differs from rows[want[i, j]], in
    tiles (`_tiles`)."""
    out = np.empty((len(rows), len(rows)), dtype=bool)
    for lo, hi, jlo, jhi in _tiles(rows):
        out[lo:hi, jlo:jhi] = (compose(rows[lo:hi], rows[jlo:jhi])
                               != rows[want[lo:hi, jlo:jhi]]).any(axis=2)
    return out


def _count_dtype(n: int):
    """The dtype of counts of at most n points: float32, which keeps the
    products on BLAS, below `_FLOAT32_EXACT`, and int64 from there on."""
    return np.float32 if n < _FLOAT32_EXACT else np.int64


def _add_product(out: np.ndarray | None, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out + left @ right.T, added in place; the product itself when out is
    None."""
    product = left @ right.T
    if out is None:
        return product
    out += product
    return out


def agree_counts(rows: np.ndarray) -> np.ndarray:
    """(k, k) counts: [a, b] is the number of points where rows a and b are
    both defined and equal, the size of their meet as sets of pairs.

    It is the product O Oᵀ of the one-hot O of the (point, value) pairs
    present in the rows: O[a, c] is 1 when row a sends column c's point to
    its value. The cells are read in blocks of at least k points, and each
    block's columns are cut into blocks of at least k columns, one product
    each (`blocks`).
    """
    k, n = rows.shape
    dtype, out = _count_dtype(n), None
    for lo, hi in blocks(n, k, least=k):
        a, p = np.nonzero(rows[:, lo:hi] >= 0)
        pair = p * n + rows[a, lo + p]
        order = np.argsort(pair)
        pair, a = pair[order], a[order]
        first = np.empty(len(pair), dtype=bool)  # the first cell of each column
        first[:1] = True
        np.not_equal(pair[1:], pair[:-1], out=first[1:])
        col = np.cumsum(first) - 1
        for clo, chi in blocks(int(col[-1]) + 1 if len(col) else 0, k, least=k):
            s, e = np.searchsorted(col, (clo, chi))
            onehot = np.zeros((k, chi - clo), dtype)
            onehot[a[s:e], col[s:e] - clo] = 1
            out = _add_product(out, onehot, onehot)
    return np.zeros((k, k), dtype) if out is None else out


def common_counts(dom: np.ndarray) -> np.ndarray:
    """(k, k) counts: [a, b] is the number of points in both dom a and dom
    b, for the (k, n) bool matrix `dom` of k rows' domains (rows >= 0):
    the product dom domᵀ, in blocks of at least k points."""
    k, n = dom.shape
    out = None
    for lo, hi in blocks(n, k, least=k):
        part = dom[:, lo:hi].astype(_count_dtype(n))
        out = _add_product(out, part, part)
    return out


def escape_counts(rows: np.ndarray) -> np.ndarray:
    """(k, k) counts: [a, b] is the number of points outside dom b that row
    a sends some point to. It is the product img undomᵀ, img[a, q] being 1
    when row a sends some point to q and undom[b, q] when q is not in dom b,
    in blocks of at least k points q; each block of img marks the cells
    sending into it."""
    k, n = rows.shape
    dtype, out = _count_dtype(n), None
    for lo, hi in blocks(n, k, least=k):
        a, p = np.nonzero((rows >= lo) & (rows < hi))
        img = np.zeros((k, hi - lo), dtype)
        img[a, rows[a, p] - lo] = 1
        out = _add_product(out, img, (rows[:, lo:hi] < 0).astype(dtype))
    return out


def meet_mismatch(agree: np.ndarray, want: np.ndarray) -> np.ndarray:
    """(k, k) bool: the meet of rows i and j differs from row want[i, j],
    given the rows' `agree_counts`. Row w is their meet exactly when it
    lies inside both, agree[w, i] = agree[w, w] = agree[w, j], and has as
    many pairs as they share, agree[w, w] = agree[i, j]."""
    size_w, ids = agree.diagonal()[want], np.arange(len(agree))
    return ~((take_pairs(agree, want, ids[:, None]) == size_w)
             & (take_pairs(agree, want, ids) == size_w)
             & (size_w == agree))


def relations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zeta, xi and delta matrices of the rows: [i, j] when rows[i], as
    a set of pairs, lies inside rows[j] (agree == |dom i|), when the two
    agree wherever both are defined (agree == common), and when the image
    of rows[i] lies inside the domain of rows[j] (escape == 0). From one
    count of each kind, holding at most two (k, k) counts at once."""
    agree = agree_counts(rows)
    zeta, xi = agree == agree.diagonal()[:, None], agree == common_counts(rows >= 0)
    del agree
    return zeta, xi, escape_counts(rows) == 0
