"""Small helpers for int-encoded bitsets over {0..m-1}, and the one cell
budget every blocked kernel of the package is cut by (`blocks`)."""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

# Array elements a block of any blocked kernel holds per temporary.
_CELLS = 1 << 16


def bits_of(indices: Iterable[int]) -> int:
    """The bitset of the given indices, numpy integers included."""
    out = 0
    for i in indices:
        out |= 1 << operator.index(i)
    return out


def iter_bits(bits: int) -> Iterator[int]:
    """The members of `bits` in increasing order. A negative int has
    infinitely many set bits, so it raises `ValueError`."""
    if bits < 0:
        raise ValueError(f"bitset {bits} is negative")
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def members(bits: int) -> tuple[int, ...]:
    """The members of `bits` in increasing order; see `iter_bits`."""
    return tuple(iter_bits(bits))


def full_mask(m: int) -> int:
    return (1 << m) - 1


def bits_to_bool(bits: int, m: int) -> np.ndarray:
    """Length-m bool array marking the members of `bits`, which must be a
    subset of {0..m-1}: anything else raises `ValueError`."""
    if bits < 0 or bits >> m:
        raise ValueError(f"bitset is not a subset of the carrier 0..{m - 1}")
    packed = np.frombuffer(bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=m, bitorder="little").view(bool)


def bool_to_bits(arr: np.ndarray) -> int:
    """The bitset whose members are the true positions of a 1-d bool array."""
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def bits_matrix(rows: Sequence[int], m: int) -> np.ndarray:
    """(len(rows), m) bool array whose row i marks the members of rows[i]."""
    width = (m + 7) // 8
    buf = b"".join(bits.to_bytes(width, "little") for bits in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little").astype(bool)


def rows_bits(mat: np.ndarray) -> list[int]:
    """The bitset of each row of a 2-d bool array; inverse of `bits_matrix`."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def blocks(count: int, cells_each: int, least: int = 1) -> Iterator[tuple[int, int]]:
    """(lo, hi) cuts of range(count) in order, each of at most
    `_CELLS // cells_each` items and at least `least` (a positive int), so
    that a block of items of `cells_each` (a positive int) cells each stays
    within the cell budget. A kernel whose every block adds to an output
    larger than the budget asks for blocks as large as that output."""
    step = max(least, _CELLS // cells_each)
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)
