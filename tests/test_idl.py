import pytest

from quantic.errors import HypothesisNotMet, NotAMorphism
from quantic.idl import (
    down_closure,
    down_map_on_powerset,
    idl,
    idl_of_morphism,
    k_functor,
    k_of_morphism,
    roundtrip_checks,
    verify_morphism_ms,
)
from quantic.magma import MagmaMorphism, OrderedMagma
from quantic.nucleus import is_nucleus
from quantic.finitary import is_finitary
from quantic.poset import FinitePoset


def join_magma(p, name=""):
    return OrderedMagma(p, [[p.join(i, j) for j in range(p.n)] for i in range(p.n)], name=name)


class TestDownClosure:
    def test_singleton_is_principal_ideal(self):
        p = FinitePoset.diamond()
        assert down_closure(p, [1]) == [0, 1]

    def test_diamond_pair_generates_everything(self):
        p = FinitePoset.diamond()
        assert down_closure(p, [1, 2]) == [0, 1, 2, 3]

    def test_empty_needs_bottom(self):
        assert down_closure(FinitePoset.chain(3), []) == [0]
        with pytest.raises(HypothesisNotMet):
            down_closure(FinitePoset.from_covers([[2], [2], []]), [])

    def test_down_operator_is_finitary_nucleus_on_powerset(self, corpus):
        for name in ["chain3-join", "ideals-z4"]:
            m = corpus[name]
            power, down_map = down_map_on_powerset(m)
            assert is_nucleus(power, down_map)
            assert is_finitary(down_map).is_finitary
            assert len(down_map.image()) == idl(m).magma.n


class TestIdl:
    def test_two_chain_isomorphic_to_itself(self):
        m = join_magma(FinitePoset.chain(2))
        comp = idl(m)
        assert comp.magma.n == 2

    def test_antichain_with_top_count(self):
        p = FinitePoset.from_covers([[3], [3], [3], []], labels=["a", "b", "c", "T"])
        m = join_magma(p)
        assert idl(m).magma.n == 4

    def test_completion_is_precoherent_near_prequantale(self, corpus):
        for name in ["chain3-join", "diamond-join", "ideals-z6"]:
            comp = idl(corpus[name])
            prof = comp.magma.profile
            assert prof.near_prequantale and prof.precoherent

    def test_prequantic_source_gives_prequantale(self, corpus):
        comp = idl(corpus["ideals-z4"])
        assert comp.magma.profile.prequantale

    def test_wrong_class_rejected(self):
        p = FinitePoset.antichain(2)
        m = OrderedMagma(p, [[0, 0], [1, 1]])
        with pytest.raises(HypothesisNotMet):
            idl(m)


class TestKFunctor:
    def test_finite_carrier_is_its_own_compact_part(self, z4):
        k = k_functor(z4.magma)
        assert k.mul == z4.magma.mul

    def test_compact_part_is_multiplicative_semilattice(self, corpus):
        for name in ["powerset-z2", "diamond-join"]:
            assert k_functor(corpus[name]).profile.multiplicative_semilattice


class TestRoundTrips:
    def test_one_element(self):
        m = join_magma(FinitePoset.chain(1))
        roundtrip_checks(m)

    @pytest.mark.parametrize(
        "name",
        [
            "ideals-z4",
            "ideals-z6",
            "ideals-z8",
            "ideals-f2x3",
            "diamond-join",
            "diamond-meet",
            "chain3-join",
            "powerset-z2",
            "powerset-z2-ne",
        ],
    )
    def test_corpus_roundtrips(self, corpus, name):
        rep = roundtrip_checks(corpus[name])
        m = corpus[name]
        assert sorted(rep.to_completion) == list(range(m.n))


class TestMorphismFunctors:
    def two_three(self):
        two = join_magma(FinitePoset.chain(2), "two")
        three = join_magma(FinitePoset.chain(3), "three")
        return two, three, MagmaMorphism(two, three, [0, 2])

    def test_identity_morphism_induces_identity(self):
        two = join_magma(FinitePoset.chain(2), "two")
        g = MagmaMorphism(two, two, [0, 1])
        ig = idl_of_morphism(g)
        assert tuple(ig.table) == tuple(range(ig.source.n))

    def test_inclusion_induces_ideal_map(self):
        two, three, g = self.two_three()
        ig = idl_of_morphism(g)
        assert ig.source.n == 2 and ig.target.n == 3
        assert ig.is_order_preserving() and ig.is_magma_hom()

    def test_functoriality_on_compositions(self):
        two, three, g = self.two_three()
        four = join_magma(FinitePoset.chain(4), "four")
        h = MagmaMorphism(three, four, [0, 1, 3])
        composed = h.compose(g)
        lhs = idl_of_morphism(composed)
        rhs = idl_of_morphism(h).compose(idl_of_morphism(g))
        assert lhs.table == rhs.table
        klhs = k_of_morphism(composed)
        krhs = k_of_morphism(h).compose(k_of_morphism(g))
        assert klhs.table == krhs.table

    def test_k_idl_correspondence(self):
        two, three, g = self.two_three()
        ig = idl_of_morphism(g)
        kig = k_of_morphism(ig)
        src_rt = roundtrip_checks(two)
        tgt_rt = roundtrip_checks(three)
        for x in range(two.n):
            assert kig.table[src_rt.to_completion[x]] == tgt_rt.to_completion[g.table[x]]

    def test_bad_morphism_rejected(self):
        two = join_magma(FinitePoset.chain(2), "two")
        three = join_magma(FinitePoset.chain(3), "three")
        broken = MagmaMorphism(two, three, [1, 0])
        with pytest.raises(NotAMorphism):
            verify_morphism_ms(broken)


def test_internal_checks_name_the_carrier_and_its_size(monkeypatch):
    from quantic import idl as idl_module
    from quantic.errors import InternalCheckError

    m = join_magma(FinitePoset.chain(3), name="chain3")
    monkeypatch.setattr(idl_module, "down_closure_mask", lambda p, xmask: p.universe)
    with pytest.raises(InternalCheckError, match="down closure is not the smallest") as info:
        down_closure(m, [0])
    assert "on chain3 (3 elements)" in str(info.value)


def test_ideal_scan_disagreement_names_the_carrier_and_its_size(monkeypatch):
    # The ideals are the principal down-sets; the definitional scan must list
    # exactly those, so an extra mask from it is an internal-check failure.
    from quantic import idl as idl_module
    from quantic.errors import InternalCheckError

    m = join_magma(FinitePoset.diamond(), name="diamond")
    scan = idl_module._ideal_masks
    monkeypatch.setattr(idl_module, "_ideal_masks", lambda p: sorted(scan(p) + [0b0110]))
    with pytest.raises(InternalCheckError, match="ideals are not the principal down-sets") as info:
        idl(m)
    assert "on diamond (4 elements)" in str(info.value)


def test_over_the_scan_cap_the_ideals_are_the_principal_down_sets(monkeypatch):
    # The module-system lattice of Z4 has 32 elements: the 2^32 scan is not run.
    from quantic import idl as idl_module
    from quantic.instances import cyclic_group, module_system_lattice

    monkeypatch.setattr(idl_module, "_ideal_masks", lambda p: pytest.fail("scan ran over the cap"))
    m = module_system_lattice(cyclic_group(4)).magma
    comp = idl(m)
    assert comp.ideal_masks == tuple(sorted(m.poset.down)) and comp.magma.n == 32
    rep = roundtrip_checks(m)
    assert rep.to_completion == {x: comp.principal[x] for x in range(32)}
    assert sorted(rep.from_completion.values()) == list(range(32))
