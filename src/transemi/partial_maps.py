"""Partial transformations of a finite carrier {0..n-1}, as int64 rows.

A list of k partial maps is a (k, n) int64 array of rows: row[a] is the
image of a, or -1 where the map is undefined. Treated as a subset of A x A a
row is automatically functional. This module is the one kernel over such
rows: `compose` and `intersect` form the products of blocks of rows, and the
pair matrices compare and relate all pairs of rows at once.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .bitsets import blocks


def row_keys(rows: np.ndarray) -> list[bytes]:
    """One hashable key per row of an int64 array; equal rows, equal keys."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def first_equal(rows: np.ndarray) -> np.ndarray:
    """[a]: the least index of a row equal to rows[a]."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(key, a) for a, key in enumerate(row_keys(rows))])


def _tiles(rows: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """(lo, hi, jlo, jhi): tiles of rows lo..hi-1 against columns jlo..jhi-1
    of the k x k pair matrices, each within the cell budget over its n
    points (`blocks`): a row wider than the budget is cut into columns."""
    k, n = rows.shape
    for jlo, jhi in blocks(k, n):
        for lo, hi in blocks(k, (jhi - jlo) * n):
            yield lo, hi, jlo, jhi


def _by_blocks(rows: np.ndarray, block) -> np.ndarray:
    """The (k, k) bool matrix whose tile [lo:hi, jlo:jhi] is block(lo, hi, jlo, jhi)."""
    out = np.empty((len(rows), len(rows)), dtype=bool)
    for lo, hi, jlo, jhi in _tiles(rows):
        out[lo:hi, jlo:jhi] = block(lo, hi, jlo, jhi)
    return out


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
    """(k, k) bool: rows[i] o rows[j] differs from rows[want[i, j]]."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        compose(rows[lo:hi], rows[jlo:jhi]) != rows[want[lo:hi, jlo:jhi]]).any(axis=2))


def intersect_mismatch(rows: np.ndarray, want: np.ndarray) -> np.ndarray:
    """(k, k) bool: the meet of rows[i] and rows[j] differs from rows[want[i, j]]."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        intersect(rows[lo:hi], rows[jlo:jhi]) != rows[want[lo:hi, jlo:jhi]]).any(axis=2))


def submap_matrix(rows: np.ndarray) -> np.ndarray:
    """zeta: [i, j] when rows[i], as a set of pairs, is contained in rows[j]."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        (rows[lo:hi, None] < 0) | (rows[lo:hi, None] == rows[jlo:jhi])).all(axis=2))


def semicompatible_matrix(rows: np.ndarray) -> np.ndarray:
    """xi: [i, j] when the rows agree wherever both are defined."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        (rows[lo:hi, None] < 0) | (rows[jlo:jhi] < 0)
        | (rows[lo:hi, None] == rows[jlo:jhi])).all(axis=2))


def semiadjacent_matrix(rows: np.ndarray) -> np.ndarray:
    """delta: [i, j] when the image of rows[i] lies inside the domain of rows[j]."""
    # defined[j, b] says rows[j] is defined at b; -1 picks the spare True column
    defined = np.concatenate([rows >= 0, np.ones((len(rows), 1), dtype=bool)], axis=1)
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        np.take(defined[jlo:jhi], rows[lo:hi], axis=1).all(axis=2).T))


def relations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zeta, xi and delta matrices of the rows."""
    return submap_matrix(rows), semicompatible_matrix(rows), semiadjacent_matrix(rows)
