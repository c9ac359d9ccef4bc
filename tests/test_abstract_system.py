import numpy as np
import pytest

from transemi import (
    AbstractSystem,
    MalformedSystemError,
    derived_props,
    validate,
)


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


class TestDerivedProps:
    def test_one_element(self):
        assert derived_props(s1()).passed

    def test_validated_corpus(self, abstract_corpus):
        for sys in abstract_corpus[:60]:
            assert derived_props(sys).passed


class TestStarView:
    def test_multiplication_by_identity(self):
        sys = chain2()
        sv = sys.star
        e = sv.e
        assert e == 2
        for a in range(sv.size):
            assert sv.mul(e, a) == a
            assert sv.mul(a, e) == a

    def test_stated_conventions_exactly(self):
        sys = chain2()
        sv = sys.star
        e = sv.e
        assert sv.leq(e, e)
        assert sv.delta(e, e)
        for x in range(sys.size):
            assert sv.delta(x, e)
            assert not sv.leq(e, x)
            assert not sv.leq(x, e)
            assert not sv.xi(e, x)
            assert not sv.xi(x, e)
            assert not sv.delta(e, x)
        assert not sv.xi(e, e)

    def test_restriction_matches_base(self):
        sys = chain2()
        sv = sys.star
        for a in range(sys.size):
            for b in range(sys.size):
                assert sv.mul(a, b) == int(sys.mul[a, b])
                assert sv.leq(a, b) == bool(sys.zeta[a, b])
                assert sv.xi(a, b) == bool(sys.xi[a, b])
                assert sv.delta(a, b) == bool(sys.delta[a, b])
