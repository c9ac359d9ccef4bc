import random

import numpy as np
import pytest

from transemi import bitsets
from transemi.bitsets import (
    bits_matrix,
    bits_of,
    bits_to_bool,
    blocks,
    bool_to_bits,
    iter_bits,
    members,
    take_pairs,
)
from transemi.closure import ClosureResult


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 130])
def test_bool_round_trip(m):
    rng = random.Random(m)
    for bits in [0, 1, 1 << (m - 1), (1 << m) - 1] + [rng.getrandbits(m) for _ in range(20)]:
        arr = bits_to_bool(bits, m)
        assert arr.dtype == bool and arr.shape == (m,)
        assert np.flatnonzero(arr).tolist() == list(iter_bits(bits))
        assert bool_to_bits(arr) == bits
        assert np.array_equal(bits_matrix([bits], m)[0], arr)


@pytest.mark.parametrize("m", [1, 3, 63, 64, 70])
def test_bool_rejects_bits_outside_the_carrier(m):
    message = rf"^bitset is not a subset of the carrier 0\.\.{m - 1}$"
    for bits in (1 << m, (1 << m) | 1, 1 << (m + 10), -1, -(1 << m)):
        with pytest.raises(ValueError, match=message):
            bits_to_bool(bits, m)


@pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8, np.intp])
def test_bits_of_numpy_integers(kind):
    got = bits_of(kind(i) for i in (69, 3, 0, 64))
    assert type(got) is int and got == (1 << 69) | (1 << 64) | (1 << 3) | 1


@pytest.mark.parametrize("bits", [-1, -2, -(1 << 64), -(1 << 70)])
def test_negative_bits_are_rejected(bits):
    # a negative int has infinitely many set bits: `bits & -bits` never
    # clears the sign, so walking them would not end
    message = rf"^bitset {bits} is negative$"
    with pytest.raises(ValueError, match=message):
        list(iter_bits(bits))
    with pytest.raises(ValueError, match=message):
        members(bits)
    with pytest.raises(ValueError, match=message):
        ClosureResult(seed_bits=1, closed_bits=bits, rounds=1).members()


@pytest.mark.parametrize("count, cells_each, least, budget, want", [
    (7, 3, 1, 9, [(0, 3), (3, 6), (6, 7)]),    # an uneven last block
    (4, 10, 1, 9, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # past the budget: one item each
    (5, 2, 1, 100, [(0, 5)]),
    (0, 5, 1, 100, []),
    (10, 5, 3, 1, [(0, 3), (3, 6), (6, 9), (9, 10)]),  # past the budget: `least` each
    (5, 2, 3, 100, [(0, 5)]),  # within the budget `least` changes nothing
])
def test_blocks_cut_by_the_budget(count, cells_each, least, budget, want, monkeypatch):
    monkeypatch.setattr(bitsets, "_CELLS", budget)
    assert list(blocks(count, cells_each, least)) == want


@pytest.mark.parametrize("budget", [1, 7, 300, 1 << 16])
def test_take_pairs_is_the_subscript(budget, monkeypatch):
    # outer, row, same-shape and batched reads of 2-d and 3-d tables, on
    # both sides of `_FLAT_MIN` and of the budget, with strided index
    # arrays and a plain int among them, equal the subscript itself
    monkeypatch.setattr(bitsets, "_CELLS", budget)
    rng = np.random.default_rng(budget)
    for m in (3, 9, 40):
        tables = [rng.integers(0, 99, (m, m)), rng.random((m, m)) < 0.5,
                  rng.integers(0, 9, (m, m, 4), dtype=np.int32)]
        a = rng.integers(0, m, (m, m))
        cases = [(a[0][:, None], a[1][None, :]), (np.arange(m)[:, None], a.T), (a, a.T),
                 (a[:, :, None], a[:, None, :]), (a[:2, None, :], a), (2, a[0])]
        for table in tables:
            for rows, cols in cases:
                got = take_pairs(table, rows, cols)
                assert got.dtype == table.dtype and np.array_equal(got, table[rows, cols])
