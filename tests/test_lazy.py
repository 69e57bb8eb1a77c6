from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantic.errors import StructureError, UndecidableFamily
from quantic.lazy import (
    INF,
    ChainOmega,
    FiniteFamily,
    TailFamily,
    TruncationFamily,
    UPSet,
    UpsetsNat,
    map_family_sup,
)


@st.composite
def upsets(draw):
    head = draw(st.integers(min_value=0, max_value=(1 << 10) - 1))
    threshold = draw(st.integers(min_value=0, max_value=10))
    period = draw(st.integers(min_value=1, max_value=5))
    residues = draw(st.sets(st.integers(min_value=0, max_value=period - 1), max_size=period))
    return UPSet(head, threshold, period, residues)


class TestUPSetNormalForm:
    @given(upsets())
    @settings(max_examples=200, deadline=None)
    def test_canonical_forms_decide_equality(self, a):
        clone = UPSet(a.expand(a.threshold), a.threshold, a.period, a.residues)
        assert clone == a

    @given(upsets(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_blown_up_period_canonicalizes_back(self, a, k):
        fat_res = [r + i * a.period for r in a.residues for i in range(k)]
        fat = UPSet(a.expand(a.threshold), a.threshold, a.period * k, fat_res)
        assert fat == a

    def test_specific_canonical_values(self):
        assert UPSet.arithmetic(0, 4).union(UPSet.arithmetic(2, 4)) == UPSet.arithmetic(0, 2)
        assert UPSet.arithmetic(0, 2).union(UPSet.arithmetic(1, 2)) == UPSet.naturals()
        assert UPSet.from_finite([]).is_empty()

    def test_membership_matches_expand(self):
        s = UPSet(0b1010, 4, 3, {1})
        bits = s.expand(40)
        assert all(((bits >> n) & 1) == (n in s) for n in range(40))

    def test_negative_rejected(self):
        with pytest.raises(StructureError):
            UPSet.from_finite([-1])


class TestUPSetAlgebra:
    def test_minkowski_example(self):
        assert UPSet.from_finite([2, 3]).minkowski(UPSet.from_finite([2, 3])) == UPSet.from_finite(
            [4, 5, 6]
        )

    @given(upsets(), upsets())
    @settings(max_examples=120, deadline=None)
    def test_minkowski_commutative(self, a, b):
        assert a.minkowski(b) == b.minkowski(a)

    @given(upsets(), upsets(), upsets())
    @settings(max_examples=60, deadline=None)
    def test_minkowski_associative(self, a, b, c):
        assert a.minkowski(b).minkowski(c) == a.minkowski(b.minkowski(c))

    @given(upsets(), upsets(), upsets())
    @settings(max_examples=80, deadline=None)
    def test_minkowski_order_compatible(self, a, b, c):
        if a.issubset(b):
            assert a.minkowski(c).issubset(b.minkowski(c))

    @given(upsets())
    @settings(max_examples=80, deadline=None)
    def test_unit_and_annihilator(self, a):
        assert a.minkowski(UPSet.from_finite([0])) == a
        assert a.minkowski(UPSet.empty()).is_empty()

    @given(upsets(), upsets())
    @settings(max_examples=120, deadline=None)
    def test_union_intersection_against_membership(self, a, b):
        u = a.union(b)
        i = a.intersection(b)
        for n in range(60):
            assert (n in u) == ((n in a) or (n in b))
            assert (n in i) == ((n in a) and (n in b))
            assert UpsetsNat().truncate(a, n) == UPSet.from_finite(k for k in range(n + 1) if k in a)
        # Past their larger threshold both sets repeat with the lcm of their
        # periods, at most 10 + 20 < 60 here, so [0, 60) decides inclusion.
        assert a.issubset(b) == all(n in b for n in range(60) if n in a)

    def test_ideal_generated(self):
        assert UPSet.from_finite([2, 3]).up_closure() == UPSet.tail(2)
        assert UPSet.empty().up_closure().is_empty()

    def test_submonoid_generated(self):
        gen = UPSet.from_finite([2, 3]).generated_submonoid()
        assert 1 not in gen and all(k in gen for k in [0, 2, 3, 4, 5, 6, 7, 8])
        assert gen.generated_submonoid() == gen

    @given(upsets())
    @settings(max_examples=60, deadline=None)
    def test_submonoid_is_expansive_idempotent(self, a):
        g = a.generated_submonoid()
        assert a.issubset(g) and 0 in g
        assert g.generated_submonoid() == g


def test_family_walks_yield_their_members_in_order():
    assert list(FiniteFamily.of([0, 3, 7]).walk()) == [0, 3, 7]
    assert list(islice(TailFamily(5).walk(), 4)) == [5, 6, 7, 8]
    limit = UPSet.arithmetic(1, 3).union(UPSet.from_finite([0]))
    assert list(islice(TruncationFamily(limit).walk(), 12)) == [
        UPSet.from_finite(k for k in range(n + 1) if k in limit) for n in range(12)
    ]


class TestChainCarrier:
    def test_sup_oracles(self):
        c = ChainOmega()
        assert c.sup(FiniteFamily.of([0, 3, 7])) == 7
        assert c.sup(TailFamily(5)) is INF
        with pytest.raises(UndecidableFamily):
            c.sup(TruncationFamily(UPSet.naturals()))

    def test_compactness(self):
        c = ChainOmega()
        assert c.is_compact(12) and not c.is_compact(INF)

    def test_mul_is_join(self):
        c = ChainOmega()
        assert c.op(3, 5) == 5 and c.op(4, INF) is INF

    def test_rule_map_certificates(self):
        hoist = ChainOmega().rule_map("d3")
        assert hoist.certificate.nucleus_witnessed and hoist(1) == 3 and hoist(INF) is INF


class TestUpsetsCarrier:
    def test_sup_oracles(self):
        u = UpsetsNat()
        a, b = UPSet.from_finite([1]), UPSet.arithmetic(0, 2)
        assert u.sup(FiniteFamily.of([a, b])) == a.union(b)
        lim = UPSet.tail(4)
        assert u.sup(TruncationFamily(lim)) == lim
        with pytest.raises(UndecidableFamily):
            u.sup(TailFamily(0))

    def test_compacts_are_finite_sets(self):
        u = UpsetsNat()
        assert u.is_compact(UPSet.from_finite([5, 9]))
        assert not u.is_compact(UPSet.tail(0))

    def test_ideal_map_is_witnessed_strict_nucleus(self):
        cert = UpsetsNat().rule_map("monoid-ideal").certificate
        assert cert.nucleus_witnessed

    def test_saturation_is_closure_but_not_nucleus(self):
        cert = UpsetsNat().rule_map("submonoid-saturation").certificate
        assert cert.closure_witnessed and not cert.multiplicative

    def test_image_family_sup(self):
        u = UpsetsNat()
        rule = u.rule_map("monoid-ideal")
        tw = UPSet.arithmetic(2, 3)
        assert map_family_sup(u, rule, TruncationFamily(tw)) == rule(tw)


class TestLazyResiduals:
    def test_chain_near_residuated_rule(self):
        c = ChainOmega()
        assert c.residual(5, 3) == 5
        assert c.residual(3, 5) is None
        assert c.residual(INF, 4) is INF

    @given(upsets(), upsets())
    @settings(max_examples=100, deadline=None)
    def test_upsets_residual_adjunction_on_samples(self, x, a):
        w = x.residual_by(a)
        assert w.minkowski(a).issubset(x)
        probes = [
            UPSet.empty(),
            UPSet.from_finite([0]),
            UPSet.from_finite([1, 2]),
            UPSet.tail(3),
            UPSet.arithmetic(0, 2),
            w,
        ]
        for z in probes:
            assert z.minkowski(a).issubset(x) == z.issubset(w)

    def test_residual_examples(self):
        tail2 = UPSet.tail(2)
        assert tail2.residual_by(UPSet.from_finite([2])) == UPSet.tail(0)
        evens = UPSet.arithmetic(0, 2)
        assert evens.residual_by(UPSet.from_finite([2])) == evens
        assert evens.residual_by(UPSet.from_finite([1])) == UPSet.arithmetic(1, 2)
        assert UPSet.empty().residual_by(UPSet.from_finite([1])).is_empty()
        assert evens.residual_by(UPSet.empty()) == UPSet.naturals()
