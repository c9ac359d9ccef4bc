"""Small helpers for int-encoded bitsets over {0..m-1}, the one cell
budget every blocked kernel of the package is cut by (`blocks`), and the
one way a table is read at broadcast pairs of index arrays (`take_pairs`).

Above a few hundred pairs, numpy's path for a subscript that broadcasts
two index arrays, such as T[a[:, None], b[None, :]], costs two to five
times what the same read costs as a flat take, so the package reads a
table at index pairs in one of two ways: an outer read, every a against
every b, as two 1-d takes, T[a][:, b]; any other read at broadcast pairs
through `take_pairs`.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

# Array elements a block of any blocked kernel holds per temporary.
_CELLS = 1 << 16

# Index pairs from which `take_pairs` reads through a flat index: below
# about 400 pairs numpy's subscript of a 2-d table at broadcast index
# arrays, one C call, is as fast as a flat take, and the index and the
# call around it cost a few microseconds more (numpy 2.4, 2-core host).
_FLAT_MIN = 1 << 9


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


def take_pairs(table: np.ndarray, rows, cols) -> np.ndarray:
    """table[rows, cols] for a C-contiguous table of two or more axes and
    integer index arrays `rows` and `cols` that broadcast together, as one
    flat take of the table's first two axes at rows * width + cols.

    The flat index is formed in C order, whatever the layout of the index
    arrays, since a take at a strided index is several times slower, and
    within the cell budget, counting the cells each pair reads: whole when
    the read fits, otherwise in blocks of the leading axis (`blocks`), and
    each leading item cut in turn when one of them is past the budget. A
    read of fewer than `_FLAT_MIN` pairs is the subscript itself, whose
    one call costs less there than forming the index."""
    pairs = np.broadcast(rows, cols)
    if pairs.size < _FLAT_MIN:
        return table[rows, cols]
    width, inner = table.shape[1], table.shape[2:]
    flat = table.reshape((-1,) + inner)
    if pairs.size * math.prod(inner) <= _CELLS:
        return flat[np.add(rows * width, cols, order="C")]
    out = np.empty(pairs.shape + inner, dtype=table.dtype)
    _take_blocks(out, flat, width, *np.broadcast_arrays(rows, cols))
    return out


def _take_blocks(out: np.ndarray, flat: np.ndarray, width: int, rows: np.ndarray,
                 cols: np.ndarray) -> None:
    """out[...] = flat[rows * width + cols] for index arrays of out's
    leading shape, in blocks of out's leading axis within the cell budget;
    an item of that axis past the budget is cut along its own leading axis."""
    each = out[0].size
    if each > _CELLS and rows.ndim > 1:
        for k in range(len(out)):
            _take_blocks(out[k], flat, width, rows[k], cols[k])
        return
    for lo, hi in blocks(len(out), each):
        out[lo:hi] = flat[np.add(rows[lo:hi] * width, cols[lo:hi], order="C")]
