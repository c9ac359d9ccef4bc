import random
import tracemalloc

import numpy as np
import pytest
from naive import naive_law_masks

from transemi import (
    AbstractSystem,
    MalformedSystemError,
    bitsets,
    derived_props,
    generators,
    validate,
)
from transemi.instances import parse_instance
from transemi.reports import WITNESS_CAP
from transemi.trans_semigroup import generate

# Witness names of each triple law, by the title of the report that checks it.
LAWS = {
    "system hypotheses": {
        "mul-associative": ("x", "y", "z"),
        "meet-associative": ("x", "y", "z"),
        "xi-left-regular": ("x", "u", "v"),
        "delta-left-ideal": ("u", "x", "y"),
        "mul-distributes-over-meet": ("x", "y", "z"),
        "xi-meet-right-distributive": ("x", "y", "u"),
    },
    "derived properties": {
        "order-left-regular": ("z", "x", "y"),
        "order-right-regular": ("z", "x", "y"),
    },
}
# (seed, points, maps) of concrete systems with m = 33, 40, 62, 66, 87 and 118.
CONCRETE = [(15, 4, 2), (14, 4, 2), (59, 4, 3), (52, 4, 3), (0, 5, 2), (25, 4, 3)]


def concrete(seed, points, maps):
    """The system that seed maps drawn from a
    `random.Random("<seed>-<points>-<maps>")` saturate to (cap 130)."""
    rng = random.Random(f"{seed}-{points}-{maps}")
    seeds = [generators.random_partial_map(rng, points) for _ in range(maps)]
    return generate(seeds, 130)


def edited(sys, table, i, j, value=None):
    """`sys` with entry (i, j) of one of its tables set to `value` (a
    relation entry flipped when `value` is None)."""
    tables = {"mul": sys.mul, "meet": sys.meet, "xi": sys.xi, "delta": sys.delta}
    arr = tables[table].copy()
    arr[i, j] = ~arr[i, j] if value is None else value
    tables[table] = arr
    return AbstractSystem(**tables)


def law_entries(sys):
    """The report entries of the eight triple laws that the full masks give."""
    masks = naive_law_masks(sys)
    out = {}
    for names in LAWS.values():
        for check_id, axes in names.items():
            cells = np.argwhere(masks[check_id])
            entry = {"id": check_id, "passed": not len(cells),
                     "witnesses": [dict(zip(axes, map(int, c))) for c in cells[:WITNESS_CAP]]}
            if len(cells):
                entry["detail"] = f"{len(cells)} violating tuples"
            out[check_id] = entry
    return out


def assert_laws_match(sys):
    want = law_entries(sys)
    for report in (validate(sys), derived_props(sys)):
        got = {c["id"]: c for c in report.to_dict()["checks"]}
        for check_id in LAWS[report.title]:
            assert got[check_id] == want[check_id], (sys.size, check_id)


def s1(with_delta=True):
    return AbstractSystem([[0]], [[0]], [[True]], [[with_delta]])


def chain2():
    # two-element chain 0 < 1 under meet=min, product = meet
    mul = [[0, 0], [0, 1]]
    return AbstractSystem(mul, mul, [[1, 1], [1, 1]], [[0, 0], [0, 0]])


class TestConstruction:
    def test_malformed_shape(self):
        with pytest.raises(MalformedSystemError, match="malformed system"):
            AbstractSystem([[0, 0]], [[0]], [[True]], [[True]])

    def test_out_of_range_entry(self):
        with pytest.raises(MalformedSystemError, match="malformed system"):
            AbstractSystem([[5]], [[0]], [[True]], [[True]])

    def test_arrays_read_only(self):
        sys = s1()
        with pytest.raises(ValueError):
            sys.mul[0, 0] = 0


class TestNaturalOrder:
    def test_chain(self):
        z = chain2().zeta
        assert z.tolist() == [[True, True], [False, True]]

    def test_reflexive_antisymmetric(self, abstract_m2):
        for sys in abstract_m2:
            z = sys.zeta
            assert z.diagonal().all()
            assert not (z & z.T & ~np.eye(sys.size, dtype=bool)).any()

    def test_singleton(self):
        assert s1().zeta.tolist() == [[True]]


class TestValidate:
    def test_one_element_all_pass(self):
        assert validate(s1()).passed

    def test_empty_delta_still_passes(self):
        assert validate(s1(with_delta=False)).passed

    def test_reports_every_condition(self):
        rep = validate(s1())
        ids = {r.check_id for r in rep.results}
        assert {
            "mul-associative",
            "meet-idempotent",
            "meet-commutative",
            "meet-associative",
            "order-contained-in-xi",
            "xi-left-regular",
            "delta-left-ideal",
            "mul-distributes-over-meet",
            "xi-downward-compatible",
            "xi-meet-right-distributive",
        } <= ids

    def test_dropping_symmetric_pair_fails_downward_compat(self):
        base = chain2()
        xi = np.array([[True, True], [False, True]])
        broken = AbstractSystem(base.mul, base.meet, xi, base.delta)
        rep = validate(broken)
        assert not rep.passed
        assert not rep["xi-downward-compatible"].passed
        w = rep["xi-downward-compatible"].witnesses[0]
        assert set(w) == {"x", "y", "u", "v"}

    def test_downward_compat_witness_is_first_pair(self, abstract_m3):
        # random xi on valid tables: each witness names the first (y, v),
        # y-major, with x <= y, u <= v and (y, v) in xi
        rng = np.random.default_rng(3)
        seen = 0
        for sys in abstract_m3:
            broken = AbstractSystem(sys.mul, sys.meet, rng.random((3, 3)) < 0.5, sys.delta)
            z = broken.zeta
            for w in validate(broken)["xi-downward-compatible"].witnesses:
                x, u = w["x"], w["u"]
                first = next((y, v) for y in range(3) for v in range(3)
                             if z[x, y] and z[u, v] and broken.xi[y, v])
                assert (w["y"], w["v"]) == first
                seen += 1
        assert seen > 5

    def test_nonassociative_product_reported(self):
        mul = [[1, 0], [0, 0]]  # (0.0).0 = 0 but 0.(0.0) = 1? -> check
        rep = validate(AbstractSystem(mul, [[0, 0], [0, 1]], np.ones((2, 2), bool),
                                      np.zeros((2, 2), bool)))
        assert not rep["mul-associative"].passed

    def test_witnesses_carry_tuples(self):
        mul = [[1, 0], [0, 0]]
        rep = validate(AbstractSystem(mul, [[0, 0], [0, 1]], np.ones((2, 2), bool),
                                      np.zeros((2, 2), bool)))
        bad = rep["mul-associative"]
        assert bad.witnesses and set(bad.witnesses[0]) == {"x", "y", "z"}


class TestLawCertificates:
    """The certificates tried above one scan block settle only passes: every
    triple law's count, detail and first witnesses equal the full mask's."""

    @pytest.fixture(scope="class")
    def systems(self):
        return [concrete(*spec) for spec in CONCRETE]

    def test_sizes_straddle_64(self, systems):
        assert [s.size for s in systems] == [33, 40, 62, 66, 87, 118]

    def test_concrete_systems_pass(self, systems):
        for sys in systems:
            assert validate(sys).passed and derived_props(sys).passed
            assert sys.light_associative
            assert_laws_match(sys)

    @pytest.mark.parametrize("table", ["mul", "meet", "xi", "delta"])
    def test_single_entry_edits(self, systems, table):
        rng = np.random.default_rng(["mul", "meet", "xi", "delta"].index(table))
        failing = 0
        for sys in systems:
            for _ in range(2):
                i, j, v = (int(k) for k in rng.integers(sys.size, size=3))
                if table in ("xi", "delta"):
                    v = None  # flip the entry
                elif getattr(sys, table)[i, j] == v:  # make the edit change the entry
                    v = (v + 1) % sys.size
                broken = edited(sys, table, i, j, v)
                assert_laws_match(broken)
                failing += not (validate(broken).passed and derived_props(broken).passed)
        assert failing >= 4

    def test_generators_generate_the_carrier(self, systems):
        for sys in systems + [edited(systems[0], "mul", 15, 16, 24)]:
            gens = sys.generators
            assert len(set(gens.tolist())) == len(gens)
            inside = np.zeros(sys.size, dtype=bool)
            inside[gens] = True
            while True:  # close under the product alone
                grown = inside.copy()
                grown[sys.mul[np.ix_(inside, inside)]] = True
                if (grown == inside).all():
                    break
                inside = grown
            assert inside.all()
            made = np.zeros(sys.size, dtype=bool)
            made[sys.mul] = True
            assert set(np.flatnonzero(~made).tolist()) <= set(gens.tolist())

    def test_left_laws_need_associativity(self, systems):
        # one product edit breaks associativity, and four multiplier laws
        # then hold for every generator but not for every multiplier
        broken = edited(systems[0], "mul", 15, 16, 24)
        assert not broken.light_associative
        masks = naive_law_masks(broken)
        for check_id in ("delta-left-ideal", "mul-distributes-over-meet",
                         "order-left-regular", "order-right-regular"):
            assert masks[check_id].any() and not masks[check_id][broken.generators].any()
        assert_laws_match(broken)

    def test_right_distributivity_needs_right_regular_xi(self, systems):
        # one xi edit breaks right-regularity; the law holds for every
        # generator u but not for every u
        broken = edited(systems[0], "xi", 28, 21)
        mul, xi, gens = broken.mul, broken.xi, broken.generators
        assert broken.light_associative
        assert any((xi & ~xi[mul[:, s, None], mul[None, :, s]]).any() for s in gens)
        mask = naive_law_masks(broken)["xi-meet-right-distributive"]
        assert mask.any() and not mask[:, :, gens].any()
        assert_laws_match(broken)

    def test_certificates_stay_within_the_cell_budget(self, m245_file, monkeypatch):
        # at m = 245 under a budget of 2^12 cells, the certificates read
        # the tables at index pairs through flat indices formed in blocks:
        # beside the two (m, m) int64 gathers and the bool masks that a
        # certificate compares (about 19 m^2 bytes in all), validate holds
        # no (m, m) int64 index, and xi-downward-compatible's float32 table
        # and masks (6 m^2 bytes) are freed before the certificates run
        sys = parse_instance(m245_file).build(cap=256)
        m = sys.size
        assert sys.light_associative and len(sys.generators)  # read before tracing
        monkeypatch.setattr(bitsets, "_CELLS", 1 << 12)
        tracemalloc.start()
        try:
            assert validate(sys).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == 245 and peak < 3 * bitsets._CELLS * 8 + 21 * m * m

    def test_nonassociative_product(self):
        m = 40
        ids = np.arange(m)
        sys = AbstractSystem((ids[:, None] - ids[None, :]) % m, np.minimum.outer(ids, ids),
                             np.ones((m, m), bool), np.eye(m, dtype=bool))
        assert not sys.light_associative
        assert not validate(sys)["mul-associative"].passed
        assert_laws_match(sys)

    def test_idempotent_commutative_nonassociative_meet(self):
        # min on a 40-chain, except that 0, 1, 2 meet cyclically
        m = 40
        ids = np.arange(m)
        meet = np.minimum.outer(ids, ids)
        for x, y, w in ((0, 1, 0), (1, 2, 1), (2, 0, 2)):
            meet[x, y] = meet[y, x] = w
        sys = AbstractSystem(np.zeros((m, m), int), meet, np.ones((m, m), bool),
                             np.zeros((m, m), bool))
        rep = validate(sys)
        assert rep["meet-idempotent"].passed and rep["meet-commutative"].passed
        assert not rep["meet-associative"].passed
        assert_laws_match(sys)

    def test_associative_system_without_right_regular_xi(self):
        # right-zero product x.y = y: x ~xi~ y gives xs ~xi~ ys only when
        # s ~xi~ s, so an irreflexive xi fails; so does the law for u = 1
        m = 36
        ids = np.arange(m)
        meet = np.minimum.outer(ids, ids)
        meet[1, 1] = 0
        xi = ~np.eye(m, dtype=bool)
        sys = AbstractSystem(np.tile(ids, (m, 1)), meet, xi, np.zeros((m, m), bool))
        assert sys.light_associative
        assert not validate(sys)["xi-meet-right-distributive"].passed
        assert_laws_match(sys)


class TestDerivedProps:
    def test_one_element(self):
        assert derived_props(s1()).passed

    def test_validated_corpus(self, abstract_corpus):
        for sys in abstract_corpus[:60]:
            assert derived_props(sys).passed


class TestStarTables:
    def test_identity_adjoined_at_index_m(self, random_systems):
        for sys in [chain2()] + random_systems[:20]:
            m, star, dstar = sys.size, sys.mul_star, sys.delta_star
            assert star.shape == (m + 1, m + 1) and dstar.shape == (m, m + 1)
            assert np.array_equal(star[:m, :m], sys.mul)
            assert star[m].tolist() == star[:, m].tolist() == list(range(m + 1))
            assert np.array_equal(dstar[:, :m], sys.delta) and dstar[:, m].all()
            assert not (star.flags.writeable or dstar.flags.writeable)
