import pytest

from quantic import magma
from quantic.errors import InternalCheckError, StructureError
from quantic.instances import nonassociative_pair, powerset_prequantale
from quantic.magma import (
    MagmaMorphism,
    OrderedMagma,
    adjoin_annihilator,
    check_profile_implications,
    distinguished_sets,
    is_cyclic_element,
    is_sup_spanning,
    residual,
)
from quantic.poset import FinitePoset


def join_magma(p, name=""):
    return OrderedMagma(p, [[p.join(i, j) for j in range(p.n)] for i in range(p.n)], name=name)


def test_order_incompatible_table_rejected():
    p = FinitePoset.chain(2)
    with pytest.raises(StructureError, match="order-compatible"):
        OrderedMagma(p, [[1, 0], [0, 0]])


def test_unit_and_annihilator_detection(z4):
    m = z4.magma
    assert m.unit == 2 and m.annihilator == 0


class TestClassification:
    def test_powerset_of_group_is_prequantale(self, corpus):
        prof = corpus["powerset-z2"].profile
        assert prof.prequantale and prof.quantale and prof.precoherent and prof.coherent

    def test_nonempty_powerset_is_near_prequantale_only(self, corpus):
        prof = corpus["powerset-z2-ne"].profile
        assert prof.near_prequantale and not prof.prequantale and not prof.with_annihilator

    def test_powerset_quantale_iff_base_semigroup(self):
        na = powerset_prequantale(nonassociative_pair()).magma
        assert na.profile.prequantale and not na.profile.quantale

    def test_join_chain_is_not_residuated(self):
        m = join_magma(FinitePoset.chain(3), "chain3-join")
        prof = m.profile
        assert prof.near_multiplicative_lattice
        assert not prof.residuated and prof.near_residuated

    def test_meet_diamond_is_residuated_frame(self):
        p = FinitePoset.diamond()
        m = OrderedMagma(p, [[p.meet(i, j) for j in range(4)] for i in range(4)])
        assert m.profile.residuated and m.profile.multiplicative_lattice

    def test_implications_hold_across_corpus(self, corpus):
        for name, m in corpus.items():
            check_profile_implications(m.profile, name)

    def test_near_prequantale_iff_adjoined_zero_prequantale(self, corpus):
        for m in corpus.values():
            assert m.profile.near_prequantale == adjoin_annihilator(m).profile.prequantale

    def test_scott_topological_everywhere_finite(self, corpus):
        assert all(m.profile.scott_topological for m in corpus.values())


class TestResiduals:
    def test_z4_residual_example(self, z4):
        r = residual(z4.magma, 0, 1)  # (0)/(2)
        assert r.left == 1 and r.right == 1

    def test_unit_residual_is_identity(self, corpus):
        for m in corpus.values():
            if m.unit is None:
                continue
            for x in range(m.n):
                r = residual(m, x, m.unit)
                assert r.left == x and r.right == x

    def test_heyting_implication_on_diamond(self):
        p = FinitePoset.diamond()
        m = OrderedMagma(p, [[p.meet(i, j) for j in range(4)] for i in range(4)])
        assert residual(m, 1, 2).left == 1  # a/b: largest z with z ^ b <= a

    def test_adjunction(self, corpus):
        for m in corpus.values():
            p = m.poset
            for x in range(m.n):
                for a in range(m.n):
                    r = residual(m, x, a)
                    if r.left is not None:
                        for z in range(m.n):
                            assert p.leq(m.op(z, a), x) == p.leq(z, r.left)


class TestDistinguishedSets:
    def test_powerset_group_invertibles_are_singletons(self, corpus):
        m = corpus["powerset-z2-ne"]
        ds = distinguished_sets(m)
        singles = {i for i in range(m.n) if m.poset.labels[i].count(",") == 0}
        assert set(ds.invertible) <= singles and len(ds.invertible) == 2

    def test_z4_sets(self, z4):
        ds = distinguished_sets(z4.magma)
        assert ds.units == (2,)
        assert ds.idempotents == (0, 2)
        assert ds.r_set == (2,)

    def test_inv_subset_u(self, corpus):
        for m in corpus.values():
            ds = distinguished_sets(m)
            assert set(ds.invertible) <= set(ds.units)


class TestSupSpanning:
    def test_singletons_span_powerset(self, corpus):
        m = corpus["powerset-z2"]
        singles = [i for i in range(m.n) if m.poset.labels[i].count(",") == 0 and m.poset.labels[i] != "{}"]
        assert is_sup_spanning(m, singles)

    def test_whole_carrier_always_spans(self, corpus):
        for m in corpus.values():
            assert is_sup_spanning(m, range(m.n))

    def test_bottom_alone_does_not_span_z4(self, z4):
        assert not is_sup_spanning(z4.magma, [0])


class TestAdjoin:
    def test_adjoin_annihilator_re_derives_profile(self, corpus):
        m = corpus["powerset-z2-ne"]
        m0 = adjoin_annihilator(m)
        assert m0.profile.prequantale and m0.annihilator == m.n


class TestCyclicity:
    def test_commutative_everything_cyclic(self, z4):
        for a in range(z4.magma.n):
            ok, _ = is_cyclic_element(z4.magma, a)
            assert ok

    def test_top_always_cyclic(self, corpus):
        for m in corpus.values():
            top = m.poset.top
            if top is not None:
                ok, _ = is_cyclic_element(m, top)
                assert ok

    def test_left_zero_powerset_has_noncyclic_element(self, corpus):
        m = corpus["powerset-leftzero"]
        verdicts = [is_cyclic_element(m, a)[0] for a in range(m.n)]
        assert not all(verdicts)
        bad = next(a for a in range(m.n) if not verdicts[a])
        ok, (x, y) = is_cyclic_element(m, bad)
        assert m.leq(m.op(x, y), bad) and not m.leq(m.op(y, x), bad)


class TestMorphism:
    def test_inclusion_two_into_three_chain(self):
        two = join_magma(FinitePoset.chain(2))
        three = join_magma(FinitePoset.chain(3))
        f = MagmaMorphism(two, three, [0, 2])
        assert f.is_order_preserving() and f.is_magma_hom() and f.preserves_sups()

    def test_non_hom_detected(self):
        two = join_magma(FinitePoset.chain(2))
        assert MagmaMorphism(two, two, [1, 1]).is_magma_hom()
        flipped = MagmaMorphism(two, two, [1, 0])
        assert not flipped.is_magma_hom()
        assert not flipped.is_order_preserving()


def test_scan_disagreement_names_the_carrier_its_size_and_the_pair_the_law_fails(monkeypatch):
    # On the diamond 0 < a, b < 1, the product 1 * 1 = 1 and 0 otherwise
    # breaks (a v b) 1 = a 1 v b 1; a scan that finds no failure parts ways
    # with the law at {a, b}.
    p = FinitePoset.diamond()
    m = OrderedMagma(p, [[3 if x == y == 3 else 0 for y in range(4)] for x in range(4)], name="spike")
    monkeypatch.setattr(magma, "_translation_failures", lambda m: iter(()))
    with pytest.raises(InternalCheckError, match="subset-scan classification disagrees") as info:
        m.profile
    assert "spike (4 elements)" in str(info.value)
    assert "first parting subset [1, 2]" in str(info.value)


def test_scan_disagreement_names_the_first_nonempty_subset_the_scan_misses(monkeypatch):
    # The diamond under meet is a near prequantale; a scan that misses the
    # empty set and then {a, b} parts ways with the law at {a, b}, the first
    # nonempty miss.
    p = FinitePoset.diamond()
    m = OrderedMagma(p, [[p.meet(x, y) for y in range(4)] for x in range(4)], name="diamond-meet")
    monkeypatch.setattr(magma, "_translation_failures", lambda m: iter([0, 0b0110]))
    with pytest.raises(InternalCheckError, match="subset-scan classification disagrees") as info:
        m.profile
    assert str(info.value).endswith("diamond-meet (4 elements), first parting subset [1, 2]")


def test_a_broken_residual_names_the_carrier_its_size_and_the_triple():
    # A lookup that sends down[0] to 2 makes 2 the residual 0/1 on the
    # chain 0 < 1 < 2 under min, and 2 * 1 = 1 is not below 0.
    p = FinitePoset.chain(3)
    p.principal_down = {p.down[0]: 2, p.down[1]: 1, p.down[2]: 2}
    m = OrderedMagma(p, [[min(x, y) for y in range(3)] for x in range(3)], name="chain3")
    with pytest.raises(InternalCheckError, match="residual adjunction violated on the left") as info:
        m.residuals
    assert "chain3 (3 elements): (x, a, residual) = (0, 1, 2)" in str(info.value)


def test_a_broken_right_residual_names_its_side():
    # Under the right projection x*y = y the same lookup makes 2 the
    # residual 0\0, {z : 0*z <= 0} being down[0], and 0 * 2 = 2 is not below
    # 0; the left set at (0, 0) is every element, and 2 is its greatest.
    p = FinitePoset.chain(3)
    p.principal_down = {p.down[0]: 2, p.down[1]: 1, p.down[2]: 2}
    m = OrderedMagma(p, [[y for y in range(3)] for x in range(3)], name="chain3-right")
    with pytest.raises(InternalCheckError, match="residual adjunction violated on the right") as info:
        m.residuals
    assert "chain3-right (3 elements): (x, a, residual) = (0, 0, 2)" in str(info.value)


def test_internal_checks_name_the_carrier_and_its_size(monkeypatch):
    m = join_magma(FinitePoset.chain(3), name="chain3")
    law = magma._distributes_over_finite_nonempty
    monkeypatch.setattr(magma, "_distributes_over_finite_nonempty", lambda m: not law(m))
    with pytest.raises(InternalCheckError, match="near-prequantale characterizations disagree") as info:
        m.profile
    assert "on chain3 (3 elements)" in str(info.value)
    monkeypatch.undo()
    with pytest.raises(InternalCheckError, match="monoid saturation blew the cap") as info:
        magma.generated_monoid(m, m.translations(), cap=1)
    assert "on chain3 (3 elements)" in str(info.value)
