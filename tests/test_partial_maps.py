import numpy as np
import pytest
from hypothesis import given, strategies as st

from transemi import bitsets, partial_maps
from transemi.bitsets import blocks
from transemi.instances import parse_instance
from transemi.partial_maps import (
    _tiles,
    agree_counts,
    common_counts,
    compose,
    compose_mismatch,
    escape_counts,
    intersect,
    meet_mismatch,
    products,
    relations,
    row_keys,
)
from transemi.representation import sum_representation

from naive import (
    naive_compose,
    naive_intersect,
    naive_issubmap,
    naive_semiadjacent,
    naive_semicompatible,
    pairwise_counts,
    pairwise_semiadjacent_matrix,
    pairwise_semicompatible_matrix,
    pairwise_submap_matrix,
)


def one(op, f, g):
    """The kernel product op of the single maps f and g, as a tuple."""
    return tuple(op(np.array([f]), np.array([g]))[0, 0].tolist())


def as_maps(rows):
    return [tuple(row) for row in rows.tolist()]


def identity_on(members, n):
    return tuple(a if a in members else -1 for a in range(n))


def maps_on(n, count):
    row = st.tuples(*[st.integers(-1, n - 1)] * n)
    return st.tuples(*[row] * count)


shared_maps = st.integers(1, 5).flatmap(lambda n: maps_on(n, 3))
map_lists = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 9).flatmap(lambda k: maps_on(n, k)))
block_pairs = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.integers(1, 4).flatmap(lambda k: maps_on(n, k)),
    st.integers(1, 4).flatmap(lambda k: maps_on(n, k))))


def assert_pair_matrices_match(rows, want, cells=None):
    """The relation and mismatch matrices of the rows against the one-pair
    definitions, on the pairs of `cells` (all rows by default)."""
    maps = as_maps(rows)
    zeta, xi, delta = relations(rows)
    comp, meet = compose_mismatch(rows, want), meet_mismatch(agree_counts(rows), want)
    cells = range(len(maps)) if cells is None else cells
    for i in cells:
        for j in cells:
            f, g = maps[i], maps[j]
            assert zeta[i, j] == naive_issubmap(f, g)
            assert xi[i, j] == naive_semicompatible(f, g)
            assert delta[i, j] == naive_semiadjacent(f, g)
            assert comp[i, j] == (naive_compose(f, g) != maps[want[i, j]])
            assert meet[i, j] == (naive_intersect(f, g) != maps[want[i, j]])
    return zeta, xi, delta, meet


def tiled_rows(monkeypatch):
    """12 maps on 60 points under a budget of 600 cells: a row of 12 maps
    holds more than the budget, so the pair matrices take tiles of 10 and
    2 columns."""
    monkeypatch.setattr(bitsets, "_CELLS", 600)
    rng = np.random.default_rng(1)
    rows = rng.integers(-1, 60, size=(12, 60))
    rows[3] = rows[11]
    rows[10] = np.where(np.arange(60) % 3, rows[11], -1)
    rows[1] = np.where(np.isin(np.arange(60), rows[0]), rows[1], -1)
    assert {(jlo, jhi) for _, _, jlo, jhi in _tiles(rows)} == {(0, 10), (10, 12)}
    want = rng.integers(0, 12, size=(12, 12))
    want[10, 11] = 10
    return rows, want


class TestCompose:
    def test_defining_formula(self):
        f, g = (1, 2, -1), (-1, 0, -1)
        assert one(compose, g, f) == naive_compose(g, f) == (0, -1, -1)

    def test_empty_absorbs(self):
        assert one(compose, (1, 1), (-1, -1)) == (-1, -1)

    def test_identity(self):
        assert one(compose, (1, -1), (0, 1)) == (1, -1)

    @given(block_pairs)
    def test_blocks_match_definition(self, blocks):
        # entry [b, j] is left[b] o right[j], right[j] applied first
        left, right = blocks
        out = compose(np.array(left), np.array(right))
        assert out.shape == (len(left), len(right), len(left[0]))
        assert [as_maps(block) for block in out] == [
            [naive_compose(f, g) for g in right] for f in left]

    @given(shared_maps)
    def test_associative(self, maps):
        f, g, h = maps
        assert one(compose, h, one(compose, g, f)) == one(compose, one(compose, h, g), f)

    @given(shared_maps)
    def test_domain_image_shrink(self, maps):
        f, g, _ = maps
        gf = one(compose, g, f)
        assert all(c < 0 or b >= 0 for b, c in zip(f, gf))  # dom gf inside dom f
        assert set(gf) - {-1} <= set(g)  # image gf inside image g


class TestIntersect:
    def test_pointwise_agreement(self):
        assert one(intersect, (0, 1), (0, 0)) == naive_intersect((0, 1), (0, 0)) == (0, -1)

    def test_disagreement_everywhere(self):
        assert one(intersect, (0, -1), (1, -1)) == (-1, -1)

    @given(shared_maps)
    def test_idempotent_commutative_associative(self, maps):
        f, g, h = maps
        assert one(intersect, f, f) == f
        assert one(intersect, f, g) == one(intersect, g, f)
        assert one(intersect, f, one(intersect, g, h)) == one(intersect, one(intersect, f, g), h)

    @given(block_pairs)
    def test_blocks_match_definition(self, blocks):
        left, right = blocks
        out = intersect(np.array(left), np.array(right))
        assert out.shape == (len(left), len(right), len(left[0]))
        assert [as_maps(block) for block in out] == [
            [naive_intersect(f, g) for g in right] for f in left]


class TestIdentityOn:
    """`compose` against partial identities, the rows a -> a on a subset."""

    @given(shared_maps)
    def test_restriction_laws(self, maps):
        f, g, _ = maps
        n = len(f)
        assert one(compose, f, identity_on({a for a in range(n) if f[a] >= 0}, n)) == f
        sup = set(f) | {a for a in range(n) if g[a] >= 0}
        assert one(compose, identity_on(sup, n), f) == f

    @given(st.integers(1, 5), st.data())
    def test_identity_meet(self, n, data):
        subsets = st.sets(st.integers(0, n - 1))
        x, y = data.draw(subsets), data.draw(subsets)
        assert one(compose, identity_on(x, n), identity_on(y, n)) == identity_on(x & y, n)


class TestArrayKernel:
    """The pair matrices and `products` over (k, n) rows against the
    one-pair definitions."""

    @given(map_lists)
    def test_row_keys(self, maps):
        keys = row_keys(np.array(maps))
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert (keys[i] == keys[j]) == (f == g)

    @given(map_lists)
    def test_relations_match_definitions(self, maps):
        zeta, xi, delta = relations(np.array(maps))
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert zeta[i, j] == naive_issubmap(f, g)
                assert xi[i, j] == naive_semicompatible(f, g)
                assert delta[i, j] == naive_semiadjacent(f, g)

    @staticmethod
    def assert_products_from(rows, done):
        """Every block of products(rows, done) against the one-pair
        definitions: the blocks list the pairs with i >= done or j >= done
        in (i, j) order, and each lies in one row block on one side of done."""
        maps, k = as_maps(rows), len(rows)
        cuts = list(blocks(k, k * rows.shape[1]))
        listed = []
        for lo, hi, jlo, out in products(rows, done):
            assert jlo == (done if hi <= done else 0) and (lo >= done or hi <= done)
            assert any(blo <= lo < hi <= bhi for blo, bhi in cuts)
            assert out.shape == (hi - lo, k - jlo, 2, rows.shape[1])
            for b in range(hi - lo):
                for j in range(k - jlo):
                    f, g = maps[lo + b], maps[jlo + j]
                    assert as_maps(out[b, j]) == [naive_compose(f, g), naive_intersect(f, g)]
                    listed.append((lo + b, jlo + j))
        assert listed == [(i, j) for i in range(k) for j in range(k) if i >= done or j >= done]

    @given(map_lists, st.data())
    def test_products_in_pair_order(self, maps, data):
        k = len(maps)
        for done in {0, k - 1, data.draw(st.integers(0, k - 1))}:
            self.assert_products_from(np.array(maps), done)

    def test_products_split_inside_a_row_block(self, monkeypatch):
        # the fewest maps on 20 points whose row blocks, under a budget of
        # 2^10 cells, include one past the first with two rows or more;
        # done = lo + 1 cuts that block lo..hi-1 in two
        monkeypatch.setattr(bitsets, "_CELLS", 1 << 10)
        k = 2
        while not (cut := [(lo, hi) for lo, hi in blocks(k, k * 20)
                           if lo > 0 and hi - lo >= 2]):
            k += 1
        lo, hi = cut[0]
        assert lo < lo + 1 < hi
        rows = np.random.default_rng(2).integers(-1, 20, size=(k, 20))
        for done in (0, lo + 1, k - 1):
            self.assert_products_from(rows, done)

    @given(map_lists, st.data())
    def test_mismatches_match_definitions(self, maps, data):
        rows, k = np.array(maps), len(maps)
        want = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=k * k,
                                           max_size=k * k))).reshape(k, k)
        comp, meet = compose_mismatch(rows, want), meet_mismatch(agree_counts(rows), want)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert comp[i, j] == (naive_compose(f, g) != maps[want[i, j]])
                assert meet[i, j] == (naive_intersect(f, g) != maps[want[i, j]])

    def test_wide_rows_one_per_block(self, monkeypatch):
        # 40 maps on 20 points under a budget of one row of 40 maps: one
        # tile of all columns per row, and one row per block of products
        monkeypatch.setattr(bitsets, "_CELLS", 40 * 20)
        rng = np.random.default_rng(0)
        rows = rng.integers(-1, 20, size=(40, 20))
        rows[7] = rows[5]
        rows[9] = np.where(np.arange(20) % 2, rows[5], -1)
        assert [(lo, jlo, jhi) for lo, hi, jlo, jhi in _tiles(rows)] == [
            (lo, 0, 40) for lo in range(40)]
        want = rng.integers(0, 40, size=(40, 40))
        want[5, 7] = want[9, 5] = 9
        zeta, xi, _, meet = assert_pair_matrices_match(rows, want, (0, 5, 7, 9, 39))
        assert zeta[9, 5] and xi[5, 7] and not meet[9, 5]
        self.assert_products_from(rows, 5)

    def test_rows_past_the_row_budget_cut_into_tiles(self, monkeypatch):
        rows, want = tiled_rows(monkeypatch)
        zeta, xi, delta, meet = assert_pair_matrices_match(rows, want)
        assert zeta[10, 11] and xi[3, 11] and delta[0, 1] and not meet[10, 11]


def meet_table(maps, rng):
    """A (k, k) table of map ids that names the meet of maps i and j
    (`naive_intersect`) where some map is that meet, but for one cell in
    ten, and a random map elsewhere."""
    k, first = len(maps), {}
    for i, f in enumerate(maps):
        first.setdefault(f, i)
    want = rng.integers(0, k, size=(k, k))
    for i, j in zip(*np.nonzero(rng.random((k, k)) < 0.9)):
        want[i, j] = first.get(naive_intersect(maps[i], maps[j]), want[i, j])
    return want


def assert_counts_match(rows):
    """The three pair counts and `relations` against the pairwise
    references, and `meet_mismatch` against `naive_intersect` on a
    `meet_table`."""
    for got, want in zip((agree_counts(rows), common_counts(rows >= 0), escape_counts(rows)),
                         pairwise_counts(rows)):
        assert got.shape == want.shape and (got == want).all()
    want = (pairwise_submap_matrix(rows), pairwise_semicompatible_matrix(rows),
            pairwise_semiadjacent_matrix(rows))
    for got, ref in zip(relations(rows), want):
        assert got.dtype == bool and (got == ref).all()
    maps = as_maps(rows)
    table = meet_table(maps, np.random.default_rng(len(maps)))
    meet = meet_mismatch(agree_counts(rows), table)
    assert meet.dtype == bool and meet.tolist() == [
        [naive_intersect(f, g) != maps[table[i, j]] for j, g in enumerate(maps)]
        for i, f in enumerate(maps)]


def random_rows(rng, k, n, undefined=0.3):
    """k random maps on n points, each entry undefined with the given
    chance, and the last map empty."""
    rows = np.where(rng.random((k, n)) < undefined, -1, rng.integers(0, n, size=(k, n)))
    rows[-1] = -1
    return rows


@pytest.fixture(scope="module")
def m70_rows(m70_file):
    """The 70 maps of the m = 70 fixture on its 5 points, and the 70 maps
    of its sum representation on 125 points."""
    sys = parse_instance(m70_file).build(cap=256)
    rows = (sys.rows, sum_representation(sys.abstract()).rows)
    assert [r.shape for r in rows] == [(70, 5), (70, 125)]
    return rows


class TestPairCounts:
    """The relations and the meet law as pair counts against the pairwise
    definitions, on both sides of 64 rows and past the float32 bound."""

    @given(map_lists)
    def test_counts_match_definitions(self, maps):
        assert_counts_match(np.array(maps))

    def test_corpus_and_random_systems(self, trans_corpus, random_systems):
        # the generated systems' maps, and rows made from random tables:
        # row x of a random system's mul, undefined where delta[x] is not
        for sys in trans_corpus:
            assert_counts_match(sys.rows)
        for sys in random_systems:
            assert_counts_match(np.where(sys.delta, sys.mul, -1))

    def test_random_rows(self):
        rng = np.random.default_rng(23)
        for k, n, undefined in [(1, 1, 0.5), (2, 9, 1.0), (63, 4, 0.2), (64, 30, 0.5),
                                (65, 3, 0.0), (90, 120, 0.6), (30, 200, 0.9)]:
            assert_counts_match(random_rows(rng, k, n, undefined))

    def test_past_bit_63(self, m70_rows):
        for rows in m70_rows:
            assert_counts_match(rows)

    def test_one_block_per_k_points(self, m70_rows, monkeypatch):
        # a budget of one cell cuts the points, and each block's columns,
        # into blocks of exactly k
        rng = np.random.default_rng(4)
        cases = [random_rows(rng, 3, 40), random_rows(rng, 7, 50, 0.1), m70_rows[1]]
        monkeypatch.setattr(bitsets, "_CELLS", 1)
        for rows in cases:
            assert_counts_match(rows)

    def test_exact_past_the_float32_bound(self, m70_rows, monkeypatch):
        # at the bound the counts are int64, below it float32; both are exact
        rng = np.random.default_rng(5)
        for rows in [*m70_rows, random_rows(rng, 66, 12)]:
            n = rows.shape[1]
            monkeypatch.setattr(partial_maps, "_FLOAT32_EXACT", n + 1)
            assert agree_counts(rows).dtype == np.float32
            monkeypatch.setattr(partial_maps, "_FLOAT32_EXACT", n)
            assert {c.dtype for c in (agree_counts(rows), common_counts(rows >= 0),
                                      escape_counts(rows))} == {np.dtype(np.int64)}
            assert_counts_match(rows)
