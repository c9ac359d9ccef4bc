import numpy as np
import pytest
from hypothesis import given, strategies as st

from transemi import (
    CarrierMismatchError,
    PartialMap,
    Subset,
    compose,
    domain,
    identity_on,
    image,
    intersect,
    semiadjacent,
    semicompatible,
)
from transemi.partial_maps import (
    _row_blocks,
    _tiles,
    as_rows,
    compose_mismatch,
    from_rows,
    intersect_mismatch,
    products,
    relations,
    row_keys,
)


def pm(n, pairs):
    return PartialMap.from_pairs(n, pairs)


def maps_on(n, count):
    entry = st.one_of(st.none(), st.integers(0, n - 1))
    one = st.tuples(*[entry] * n).map(PartialMap)
    return st.tuples(*[one] * count)


shared_maps = st.integers(1, 5).flatmap(lambda n: maps_on(n, 3))
map_lists = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 9).flatmap(lambda k: maps_on(n, k)))


class TestCompose:
    def test_defining_formula(self):
        f = pm(3, [(0, 1), (1, 2)])
        g = pm(3, [(1, 0)])
        assert compose(g, f) == pm(3, [(0, 0)])

    def test_empty_absorbs(self):
        g = pm(2, [(0, 1), (1, 1)])
        assert compose(g, PartialMap.empty(2)) == PartialMap.empty(2)

    def test_identity(self):
        g = pm(2, [(0, 1)])
        assert compose(g, PartialMap.identity(2)) == g

    def test_rows_past_the_row_budget_cut_into_tiles(self):
        # 12 maps on 6000 points: a row holds more than _ROW_CELLS cells,
        # so the pair matrices take tiles of 10 and 2 columns
        rng = np.random.default_rng(1)
        rows = rng.integers(-1, 6000, size=(12, 6000))
        rows[3] = rows[11]
        rows[10] = np.where(np.arange(6000) % 3, rows[11], -1)
        rows[1] = np.where(np.isin(np.arange(6000), rows[0]), rows[1], -1)
        assert {(jlo, jhi) for _, _, jlo, jhi in _tiles(rows)} == {(0, 10), (10, 12)}
        want = rng.integers(0, 12, size=(12, 12))
        want[10, 11] = 10
        maps = from_rows(rows)
        zeta, xi, delta = relations(rows)
        comp, meet = compose_mismatch(rows, want), intersect_mismatch(rows, want)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert zeta[i, j] == f.issubmap(g)
                assert xi[i, j] == semicompatible(f, g)
                assert delta[i, j] == semiadjacent(f, g)
                assert comp[i, j] == (compose(f, g) != maps[want[i, j]])
                assert meet[i, j] == (intersect(f, g) != maps[want[i, j]])
        assert zeta[10, 11] and xi[3, 11] and delta[0, 1] and not meet[10, 11]

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError, match="carrier mismatch"):
            compose(PartialMap.identity(2), PartialMap.identity(3))

    @given(shared_maps)
    def test_associative(self, maps):
        f, g, h = maps
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    @given(shared_maps)
    def test_domain_image_shrink(self, maps):
        f, g, _ = maps
        gf = compose(g, f)
        assert domain(gf).issubset(domain(f))
        assert image(gf).issubset(image(g))


class TestIntersect:
    def test_pointwise_agreement(self):
        f = pm(2, [(0, 0), (1, 1)])
        g = pm(2, [(0, 0), (1, 0)])
        assert intersect(f, g) == pm(2, [(0, 0)])

    def test_disagreement_everywhere(self):
        assert intersect(pm(2, [(0, 0)]), pm(2, [(0, 1)])) == PartialMap.empty(2)

    @given(shared_maps)
    def test_idempotent_commutative_associative(self, maps):
        f, g, h = maps
        assert intersect(f, f) == f
        assert intersect(f, g) == intersect(g, f)
        assert intersect(f, intersect(g, h)) == intersect(intersect(f, g), h)

    def test_rows_past_the_row_budget_cut_into_tiles(self):
        # 12 maps on 6000 points: a row holds more than _ROW_CELLS cells,
        # so the pair matrices take tiles of 10 and 2 columns
        rng = np.random.default_rng(1)
        rows = rng.integers(-1, 6000, size=(12, 6000))
        rows[3] = rows[11]
        rows[10] = np.where(np.arange(6000) % 3, rows[11], -1)
        rows[1] = np.where(np.isin(np.arange(6000), rows[0]), rows[1], -1)
        assert {(jlo, jhi) for _, _, jlo, jhi in _tiles(rows)} == {(0, 10), (10, 12)}
        want = rng.integers(0, 12, size=(12, 12))
        want[10, 11] = 10
        maps = from_rows(rows)
        zeta, xi, delta = relations(rows)
        comp, meet = compose_mismatch(rows, want), intersect_mismatch(rows, want)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert zeta[i, j] == f.issubmap(g)
                assert xi[i, j] == semicompatible(f, g)
                assert delta[i, j] == semiadjacent(f, g)
                assert comp[i, j] == (compose(f, g) != maps[want[i, j]])
                assert meet[i, j] == (intersect(f, g) != maps[want[i, j]])
        assert zeta[10, 11] and xi[3, 11] and delta[0, 1] and not meet[10, 11]

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            intersect(PartialMap.identity(2), PartialMap.identity(3))


class TestIdentityOn:
    def test_singleton(self):
        assert identity_on(Subset.from_members(2, [0])) == pm(2, [(0, 0)])

    def test_empty(self):
        assert identity_on(Subset.empty(2)) == PartialMap.empty(2)

    def test_full(self):
        assert identity_on(Subset.full(2)) == PartialMap.identity(2)

    @given(shared_maps)
    def test_restriction_laws(self, maps):
        f, g, _ = maps
        n = f.base_size
        assert compose(f, identity_on(domain(f))) == f
        sup = image(f) | domain(g)
        assert compose(identity_on(sup), f) == f

    @given(st.integers(1, 5), st.data())
    def test_identity_meet(self, n, data):
        bits = st.integers(0, (1 << n) - 1)
        x = Subset(n, data.draw(bits))
        y = Subset(n, data.draw(bits))
        assert compose(identity_on(x), identity_on(y)) == identity_on(x & y)


class TestRestrict:
    def test_restrict_to_subset(self):
        f = pm(3, [(0, 1), (1, 2), (2, 0)])
        assert f.restrict(Subset.from_members(3, [0, 2])) == pm(3, [(0, 1), (2, 0)])

    @given(st.integers(1, 5), st.data())
    def test_restrict_equals_identity_composition(self, n, data):
        entry = st.one_of(st.none(), st.integers(0, n - 1))
        f = PartialMap(tuple(data.draw(entry) for _ in range(n)))
        x = Subset(n, data.draw(st.integers(0, (1 << n) - 1)))
        assert f.restrict(x) == compose(f, identity_on(x))


class TestDomainImage:
    def test_simple(self):
        f = pm(3, [(0, 1), (1, 2)])
        assert domain(f).members() == (0, 1)
        assert image(f).members() == (1, 2)

    def test_empty(self):
        f = PartialMap.empty(3)
        assert len(domain(f)) == 0 and len(image(f)) == 0

    def test_identity(self):
        f = PartialMap.identity(3)
        assert domain(f) == image(f) == Subset.full(3)


class TestConstruction:
    def test_nonfunctional_rejected_with_element(self):
        with pytest.raises(ValueError, match="element 1 mapped to both 0 and 2"):
            PartialMap.from_pairs(3, [(1, 0), (1, 2)])

    def test_duplicate_pair_tolerated(self):
        assert pm(2, [(0, 1), (0, 1)]) == pm(2, [(0, 1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PartialMap.from_pairs(2, [(0, 5)])
        with pytest.raises(ValueError):
            PartialMap.from_pairs(2, [(5, 0)])

    def test_structural_equality(self):
        assert pm(2, [(0, 1)]) == pm(2, [(0, 1)])
        assert pm(2, [(0, 1)]) != pm(3, [(0, 1)])

    def test_empty_map_is_legal(self):
        PartialMap.empty(1)
        with pytest.raises(ValueError):
            PartialMap(())


class TestArrayKernel:
    """The kernel over (k, n) rows against the one-pair definitions."""

    @given(map_lists)
    def test_rows_round_trip(self, maps):
        rows = as_rows(maps)
        assert rows.shape == (len(maps), maps[0].base_size)
        assert from_rows(rows) == maps
        keys = row_keys(rows)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert (keys[i] == keys[j]) == (f == g)

    @given(map_lists)
    def test_relations_match_definitions(self, maps):
        zeta, xi, delta = relations(as_rows(maps))
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert zeta[i, j] == f.issubmap(g)
                assert xi[i, j] == semicompatible(f, g)
                assert delta[i, j] == semiadjacent(f, g)

    @staticmethod
    def assert_products_from(maps, rows, done):
        """Every block of products(rows, done) against the one-pair
        definitions: the blocks list the pairs with i >= done or j >= done
        in (i, j) order, and each lies in one row block on one side of done."""
        k = len(maps)
        blocks = list(_row_blocks(rows))
        listed = []
        for lo, hi, jlo, out in products(rows, done):
            assert jlo == (done if hi <= done else 0) and (lo >= done or hi <= done)
            assert any(blo <= lo < hi <= bhi for blo, bhi in blocks)
            assert out.shape == (hi - lo, k - jlo, 2, rows.shape[1])
            for b in range(hi - lo):
                for j in range(k - jlo):
                    f, g = maps[lo + b], maps[jlo + j]
                    assert from_rows(out[b, j]) == (compose(f, g), intersect(f, g))
                    listed.append((lo + b, jlo + j))
        assert listed == [(i, j) for i in range(k) for j in range(k) if i >= done or j >= done]

    @given(map_lists, st.data())
    def test_products_in_pair_order(self, maps, data):
        k = len(maps)
        for done in {0, k - 1, data.draw(st.integers(0, k - 1))}:
            self.assert_products_from(maps, as_rows(maps), done)

    def test_products_split_inside_a_row_block(self):
        # 30 maps on 20 points: row blocks of 6 rows, so done = 9 cuts
        # the block 6..11 in two
        rng = np.random.default_rng(2)
        rows = rng.integers(-1, 20, size=(30, 20))
        assert (6, 12) in list(_row_blocks(rows))
        maps = from_rows(rows)
        for done in (0, 9, 29):
            self.assert_products_from(maps, rows, done)

    @given(map_lists, st.data())
    def test_mismatches_match_definitions(self, maps, data):
        rows, k = as_rows(maps), len(maps)
        want = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=k * k,
                                           max_size=k * k))).reshape(k, k)
        comp, meet = compose_mismatch(rows, want), intersect_mismatch(rows, want)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert comp[i, j] == (compose(f, g) != maps[want[i, j]])
                assert meet[i, j] == (intersect(f, g) != maps[want[i, j]])

    def test_wide_rows_one_per_block(self):
        # 40 maps on 2000 points: past the block budget, so one row per block
        rng = np.random.default_rng(0)
        rows = rng.integers(-1, 2000, size=(40, 2000))
        rows[7] = rows[5]
        rows[9] = np.where(np.arange(2000) % 2, rows[5], -1)
        assert len(list(_row_blocks(rows))) == 40
        want = rng.integers(0, 40, size=(40, 40))
        want[5, 7] = want[9, 5] = 9
        maps = from_rows(rows)
        zeta, xi, delta = relations(rows)
        comp, meet = compose_mismatch(rows, want), intersect_mismatch(rows, want)
        for i in (0, 5, 7, 9, 39):
            for j in (0, 5, 7, 9, 39):
                f, g = maps[i], maps[j]
                assert zeta[i, j] == f.issubmap(g)
                assert xi[i, j] == semicompatible(f, g)
                assert delta[i, j] == semiadjacent(f, g)
                assert comp[i, j] == (compose(f, g) != maps[want[i, j]])
                assert meet[i, j] == (intersect(f, g) != maps[want[i, j]])
        assert zeta[9, 5] and xi[5, 7] and not meet[9, 5]

    def test_rows_past_the_row_budget_cut_into_tiles(self):
        # 12 maps on 6000 points: a row holds more than _ROW_CELLS cells,
        # so the pair matrices take tiles of 10 and 2 columns
        rng = np.random.default_rng(1)
        rows = rng.integers(-1, 6000, size=(12, 6000))
        rows[3] = rows[11]
        rows[10] = np.where(np.arange(6000) % 3, rows[11], -1)
        rows[1] = np.where(np.isin(np.arange(6000), rows[0]), rows[1], -1)
        assert {(jlo, jhi) for _, _, jlo, jhi in _tiles(rows)} == {(0, 10), (10, 12)}
        want = rng.integers(0, 12, size=(12, 12))
        want[10, 11] = 10
        maps = from_rows(rows)
        zeta, xi, delta = relations(rows)
        comp, meet = compose_mismatch(rows, want), intersect_mismatch(rows, want)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert zeta[i, j] == f.issubmap(g)
                assert xi[i, j] == semicompatible(f, g)
                assert delta[i, j] == semiadjacent(f, g)
                assert comp[i, j] == (compose(f, g) != maps[want[i, j]])
                assert meet[i, j] == (intersect(f, g) != maps[want[i, j]])
        assert zeta[10, 11] and xi[3, 11] and delta[0, 1] and not meet[10, 11]

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            as_rows([PartialMap.identity(2), PartialMap.identity(3)])
