from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantic.errors import StructureError, UndecidableFamily
from quantic.lazy import (
    INF,
    ChainOmega,
    Certificate,
    FiniteFamily,
    RuleMap,
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


class TestRuleMapValues:
    def test_certification_evaluates_the_rule_once_per_distinct_element(self):
        calls = Counter()

        def rule(x):
            calls[x] += 1
            return x.up_closure()

        u = UpsetsNat()
        ideal = RuleMap(u, "counted-monoid-ideal", rule)
        assert ideal.certificate.nucleus_witnessed
        # The 12 samples, their products and the values of both.
        assert len(calls) > 12 and set(calls.values()) == {1}
        for x in u.sample():
            ideal(x)
        assert set(calls.values()) == {1}

    def test_equal_elements_of_different_types_keep_their_own_values(self):
        identity = RuleMap(ChainOmega(), "identity", lambda x: x)
        assert identity(1) == identity(True) == 1
        assert type(identity(1)) is int and type(identity(True)) is bool

    def test_a_rule_that_raises_stores_nothing(self):
        calls = Counter()

        def rule(x):
            calls[x] += 1
            if x == 99:
                raise StructureError("no value at 99")
            return x

        d = RuleMap(ChainOmega(), "partial", rule)
        for _ in range(2):
            with pytest.raises(StructureError):
                d(99)
        assert calls[99] == 2

    @pytest.mark.parametrize(
        "carrier, name, certificate",
        [
            (ChainOmega(), "d", (True, True, True, True)),
            (ChainOmega(), "e", (True, True, True, True)),
            (ChainOmega(), "d3", (True, True, True, True)),
            (UpsetsNat(), "monoid-ideal", (True, True, True, True)),
            (UpsetsNat(), "submonoid-saturation", (True, True, True, False)),
        ],
    )
    def test_shipped_certificates(self, carrier, name, certificate):
        assert carrier.rule_map(name).certificate == Certificate(*certificate, 12)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: 9 if x == 10 else x,  # not expansive at 10
            lambda x: INF if x == 3 else x,  # not monotone: 3 <= 4 but 3* > 4*
            lambda x: x if x is INF else x + 1,  # not idempotent
            lambda x: x if x is INF or x % 2 == 0 else x + 1,  # a nucleus
            lambda x: x if x is INF or x < 5 else INF,  # a nucleus
        ],
    )
    def test_certificates_match_the_four_properties_decided_on_the_bare_rule(self, fn):
        # Each property is still decided on every sample pair: a rule that
        # breaks one property at one element or pair is caught.
        c = ChainOmega()
        xs = c.sample()
        expected = Certificate(
            all(c.leq(x, fn(x)) for x in xs),
            all(c.leq(fn(x), fn(y)) for x in xs for y in xs if c.leq(x, y)),
            all(fn(fn(x)) == fn(x) for x in xs),
            all(c.leq(c.op(fn(x), fn(y)), fn(c.op(x, y))) for x in xs for y in xs),
            len(xs),
        )
        assert RuleMap(c, "rule", fn).certificate == expected


@pytest.mark.parametrize(
    "method, operands, patched, message",
    [
        ("minkowski", (UPSet.from_finite([1]), UPSet.tail(3)), "from_bits", "Minkowski normal form"),
        ("residual_by", (UPSet.tail(3), UPSet.from_finite([1])), "minkowski", "residual violates"),
        ("generated_submonoid", (UPSet.from_finite([2, 3]),), "from_bits", "submonoid normal form"),
    ],
)
def test_internal_checks_name_the_carrier_and_the_operands(monkeypatch, method, operands, patched, message):
    from quantic.errors import InternalCheckError

    # Every set a broken kernel builds is the whole of N.
    naturals = UPSet.naturals()
    monkeypatch.setattr(UPSet, patched, lambda *args: naturals)
    with pytest.raises(InternalCheckError, match=message) as info:
        getattr(operands[0], method)(*operands[1:])
    assert str(info.value).endswith("on upsets-nat: " + ", ".join(map(repr, operands)))
