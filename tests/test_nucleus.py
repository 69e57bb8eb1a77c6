import importlib
import pkgutil
import random
from collections import Counter

import pytest

import quantic
from quantic import nucleus
from quantic.divisorial import divisorial_decomposition, gv_elements, is_stable, stable_closure, v
from quantic.errors import CarrierTooLarge, HypothesisNotMet, InternalCheckError, StructureError
from quantic.instances import cyclic_group, module_system_lattice
from quantic.magma import MagmaMorphism, OrderedMagma
from quantic.nucleus import (
    MonotoneMap,
    Submagma,
    certified_composition,
    closure_from_preclosure,
    d_map,
    enumerate_closures,
    enumerate_closures_bruteforce,
    enumerate_nuclei,
    induced_lower,
    induced_upper,
    is_closure,
    is_nucleus,
    is_strict_nucleus,
    nuclei_join,
    nuclei_join_table,
    nuclei_meet,
    nucleus_lattice,
    nucleus_of_morphism,
    nucleus_tower,
    one_bracket,
    one_bracket_map,
    quotient,
    r_set_mask,
    transportable_mask,
    unit_part,
)
from quantic.finitary import star_f
from quantic.poset import FinitePoset, carrier_label, id_mask
from quantic.rings import FiniteRing, radical_operation, ring_ideal_lattice
from quantic.structdoc import load_magma, magma_doc

from conftest import corrupted_kernel


def join_magma(p, name=""):
    return OrderedMagma(p, [[p.join(i, j) for j in range(p.n)] for i in range(p.n)], name=name)


class TestClosurePredicate:
    def test_identity_and_top(self, z4):
        m = z4.magma
        assert is_closure(MonotoneMap.identity(m))
        assert is_closure(MonotoneMap.top_map(m))

    def test_three_chain_examples(self):
        p = FinitePoset.chain(3)
        assert is_closure(MonotoneMap(p, (1, 1, 2)))
        assert not is_closure(MonotoneMap(p, (1, 2, 2)))  # not idempotent

    def test_closure_iff_single_axiom_on_random_maps(self, corpus):
        import random

        rng = random.Random(7)
        p = corpus["ideals-z12"].poset
        for _ in range(300):
            s = MonotoneMap(p, tuple(rng.randrange(p.n) for _ in range(p.n)))
            assert is_closure(s) in (True, False)  # the internal cross-check is the assertion


class TestNucleusPredicate:
    def test_radical_is_nucleus(self, z4):
        m = z4.magma
        assert is_nucleus(m, MonotoneMap(m, (1, 1, 2)))

    def test_collapse_middle_not_nucleus(self, z4):
        m = z4.magma
        assert not is_nucleus(m, MonotoneMap(m, (0, 2, 2)))

    def test_top_map_nucleus(self, corpus):
        for m in corpus.values():
            if m.poset.top is not None:
                assert is_nucleus(m, MonotoneMap.top_map(m))

    def test_strictness_reported(self, z4):
        m = z4.magma
        assert is_strict_nucleus(m, MonotoneMap.identity(m))
        assert not is_strict_nucleus(m, MonotoneMap(m, (1, 1, 2)))

    def test_inv_transportable_through_every_nucleus(self, corpus):
        from quantic.magma import distinguished_sets

        for m in corpus.values():
            inv = distinguished_sets(m).invertible
            for s in enumerate_nuclei(m):
                tmask = transportable_mask(m, s)
                assert all((tmask >> u) & 1 for u in inv)


class TestPreclosureHull:
    def test_four_chain_two_step(self):
        p = FinitePoset.chain(4)
        m = join_magma(p)
        pre = MonotoneMap(m, (1, 2, 2, 3))
        star = closure_from_preclosure(pre)
        assert tuple(star.table) == (2, 2, 2, 3)

    def test_closure_fixed(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        assert closure_from_preclosure(rad).table == rad.table

    def test_rejects_non_preclosure(self, z4):
        m = z4.magma
        with pytest.raises(HypothesisNotMet):
            closure_from_preclosure(MonotoneMap(m, (0, 0, 2)))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 4)])
    def test_chain_closure_counts(self, n, count):
        assert len(enumerate_closures(FinitePoset.chain(n))) == count

    def test_diamond_double_enumeration(self):
        p = FinitePoset.diamond()
        image_route = [s.table for s in enumerate_closures(p)]
        brute = [s.table for s in enumerate_closures_bruteforce(p)]
        assert image_route == brute and len(brute) == 7

    def test_z4_nuclei(self, z4):
        maps = enumerate_nuclei(z4.magma)
        assert [tuple(s.table) for s in maps] == [(0, 1, 2), (1, 1, 2), (2, 2, 2)]

    def test_two_element_lattice(self, corpus):
        assert len(enumerate_nuclei(corpus["ideals-z2"])) == 2

    def test_filter_equals_bruteforce_on_small(self, corpus):
        for name in ["powerset-z2", "powerset-leftzero", "diamond-join"]:
            m = corpus[name]
            brute = [
                s.table
                for s in enumerate_closures_bruteforce(m)
                if is_nucleus(m, MonotoneMap(m, s.table))
            ]
            assert brute == [s.table for s in enumerate_nuclei(m)]


class TestMeetJoin:
    def test_meet_with_identity(self, z4):
        m = z4.magma
        d = MonotoneMap.identity(m)
        e = MonotoneMap.top_map(m)
        assert nuclei_meet(m, [d, e]).table == d.table

    def test_meet_radical_top(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        assert nuclei_meet(m, [rad, MonotoneMap.top_map(m)]).table == rad.table

    def test_empty_meet_is_top_map(self, z4):
        m = z4.magma
        assert nuclei_meet(m, []).table == MonotoneMap.top_map(m).table

    def test_join_with_identity(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        assert nuclei_join(m, [MonotoneMap.identity(m), rad]).table == rad.table

    def test_join_image_is_fix_intersection(self, corpus):
        for name in ["ideals-z6", "powerset-z2", "modsys-z2"]:
            m = corpus[name]
            maps = enumerate_nuclei(m)
            joins = nuclei_join_table(m)
            for s, row in zip(maps, joins):
                for t, k in zip(maps, row):
                    j = nuclei_join(m, [s, t])
                    assert j.image_mask() == s.fixed_mask() & t.fixed_mask()
                    assert maps[k].table == j.table

    def test_join_refused_without_hypotheses(self):
        # 2-element antichain with trivial (left-zero) multiplication: no joins.
        p = FinitePoset.antichain(2)
        m = OrderedMagma(p, [[0, 0], [1, 1]])
        with pytest.raises(HypothesisNotMet):
            nuclei_join(m, [MonotoneMap.identity(m)])


class TestQuotient:
    def test_quotient_by_identity_isomorphic(self, z4):
        m = z4.magma
        q = quotient(m, MonotoneMap.identity(m))
        assert q.magma.mul == m.mul

    def test_quotient_by_radical(self, z4):
        m = z4.magma
        q = quotient(m, MonotoneMap(m, (1, 1, 2)))
        assert q.members == (1, 2)
        # (2) star (2) = ((2)(2))^rad = (0)^rad = (2)
        assert q.magma.op(0, 0) == 0

    def test_quotient_by_top_trivial(self, z4):
        q = quotient(z4.magma, MonotoneMap.top_map(z4.magma))
        assert q.magma.n == 1

    def test_star_multiplication_associative_on_monoids(self, corpus):
        for name in ["ideals-z6", "powerset-z2", "chain3-join"]:
            m = corpus[name]
            if not (m.profile.associative and m.profile.unital):
                continue
            for s in enumerate_nuclei(m):
                t = s.table
                for x in range(m.n):
                    for y in range(m.n):
                        for z in range(m.n):
                            assert (
                                t[m.op(t[m.op(x, y)], z)] == t[m.op(x, t[m.op(y, z)])]
                            )


class TestMorphismNucleus:
    def test_identity_gives_identity(self, z4):
        m = z4.magma
        f = MagmaMorphism(m, m, list(range(m.n)))
        assert nucleus_of_morphism(f).table == MonotoneMap.identity(m).table

    def test_corestriction_of_radical_recovers_radical(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        q = quotient(m, rad)
        f = MagmaMorphism(m, q.magma, [q.to_quotient[rad.table[x]] for x in range(m.n)])
        assert nucleus_of_morphism(f).table == rad.table

    def test_collapse_everything_gives_top(self, z4):
        m = z4.magma
        one = OrderedMagma(FinitePoset.chain(1), [[0]])
        f = MagmaMorphism(m, one, [0, 0, 0])
        assert nucleus_of_morphism(f).table == MonotoneMap.top_map(m).table

    @pytest.mark.parametrize(
        "table, facts",
        [
            # 2Z * 2Z = 0 in Z/6, but 1 * 1 = 1 in I(Z/2).
            ((0, 1, 1, 1), (True, False, True)),
            # 2Z and 3Z go to 0, their sup Z to 1.
            ((0, 0, 0, 1), (True, True, False)),
        ],
        ids=["not-a-hom", "misses-a-sup"],
    )
    def test_each_failed_hypothesis_is_refused(self, corpus, table, facts):
        # An order-preserving map with one of the other two hypotheses
        # failing, from the near prequantale I(Z/6) to I(Z/2).
        f = MagmaMorphism(corpus["ideals-z6"], corpus["ideals-z2"], list(table))
        assert f.source.profile.near_prequantale
        assert (f.is_order_preserving(), f.is_magma_hom(), f.preserves_sups()) == facts
        with pytest.raises(HypothesisNotMet, match="needs a near-sup-preserving magma hom"):
            nucleus_of_morphism(f)


class TestInduced:
    def test_induced_lower_whole_carrier(self, z4):
        m = z4.magma
        sub = Submagma.of(m, range(m.n))
        rad = MonotoneMap(sub.magma, (1, 1, 2))
        out = induced_lower(m, sub, rad)
        assert tuple(out.table) == (1, 1, 2)

    def test_induced_lower_is_finest_extension(self, corpus):
        m = corpus["powerset-z2"]
        members = [i for i in range(m.n) if m.poset.labels[i] != "{}"]
        sub = Submagma.of(m, members)
        for s in enumerate_nuclei(sub.magma):
            try:
                out = induced_lower(m, sub, s)
            except HypothesisNotMet:
                continue
            extensions = [
                t
                for t in enumerate_nuclei(m)
                if all(t.table[sub.members[i]] == sub.members[s.table[i]] for i in range(sub.magma.n))
            ]
            assert out.table in {t.table for t in extensions}
            assert all(out <= t for t in extensions)

    def test_induced_upper_whole_carrier(self, z4):
        m = z4.magma
        sub = Submagma.of(m, range(m.n))
        rad = MonotoneMap(sub.magma, (1, 1, 2))
        assert tuple(induced_upper(m, sub, rad).table) == (1, 1, 2)

    def test_induced_upper_rejects_unsaturated(self, corpus):
        m = corpus["modsys-z2"]  # 2^(G_0) for G = Z/2
        bottomish = [i for i in range(m.n) if m.poset.labels[i] in ("{}", "{0}")]
        sub = Submagma.of(m, bottomish)
        with pytest.raises(HypothesisNotMet, match="saturated"):
            induced_upper(m, sub, MonotoneMap.identity(sub.magma))

    def test_induced_upper_on_saturated_downset(self, corpus):
        # In 2^M for the left-zero magma, products never leave the nonempty
        # sets, so {empty} is saturated and downward closed.
        m = corpus["powerset-leftzero"]
        sub = Submagma.of(m, [0])
        out = induced_upper(m, sub, MonotoneMap.identity(sub.magma))
        top = m.poset.top
        assert out.table[0] == 0 and all(out.table[x] == top for x in range(1, m.n))


class TestGalois:
    def test_d_map_unit(self, z4):
        m = z4.magma
        assert d_map(m, m.unit).table == MonotoneMap.identity(m).table

    def test_three_chain_join_translation(self):
        m = join_magma(FinitePoset.chain(3))
        s = d_map(m, 1)
        assert tuple(s.table) == (1, 1, 2)

    def test_powerset_group_d_map(self, corpus):
        m = corpus["powerset-z2"]
        top = m.poset.top
        s = d_map(m, top)
        assert all(s.table[x] == m.op(x, top) for x in range(m.n))

    def test_unit_part_inverts_d_map(self, corpus):
        for name in ["ideals-z6", "powerset-z2", "chain3-join"]:
            m = corpus[name]
            for a in range(m.n):
                if ((r_set_mask(m) >> a) & 1) == 0:
                    continue
                assert unit_part(m, d_map(m, a)) == a

    def test_galois_law(self, z4):
        m = z4.magma
        maps = enumerate_nuclei(m)
        from quantic.poset import bits

        for a in bits(r_set_mask(m)):
            da = d_map(m, a)
            for s in maps:
                assert (da <= s) == m.leq(a, s.table[m.unit])


class TestOneBracket:
    def test_unit_case(self, corpus):
        m = corpus["powerset-z2"]
        assert one_bracket(m, m.unit) == m.unit

    def test_powerset_group_singleton(self, corpus):
        m = corpus["powerset-z2"]
        g = next(i for i in range(m.n) if m.poset.labels[i] == "{g1}")
        assert m.poset.labels[one_bracket(m, g)] == "{1,g1}"

    def test_z4_nilpotent_climbs_to_top(self, z4):
        m = z4.magma
        assert one_bracket(m, 1) == 2

    def test_map_is_finitary_closure_with_image_r(self, corpus):
        for name in ["powerset-z2", "ideals-z6", "ideals-z12"]:
            one_bracket_map(corpus[name])  # internal assertions carry the test


class TestTower:
    def test_two_element_stabilizes(self, corpus):
        rep = nucleus_tower(corpus["ideals-z2"], depth=2)
        assert rep.sizes == (2, 2) and rep.stabilizes and rep.simple

    def test_z4_grows(self, z4):
        rep = nucleus_tower(z4.magma, depth=2)
        assert rep.sizes == (3, 4) and not rep.stabilizes and not rep.simple

    def test_diamond_join_level_two(self, corpus):
        rep = nucleus_tower(corpus["diamond-join"], depth=2)
        assert rep.sizes == (7, 37) and not rep.stabilizes

    def test_level_structure_is_join(self, corpus):
        lat = nucleus_lattice(corpus["ideals-z6"])
        nm = lat.magma
        for i in range(nm.n):
            for j in range(nm.n):
                assert nm.op(i, j) == nm.poset.join(i, j)

    def test_overgrown_level_raises(self, corpus):
        from quantic.errors import CarrierTooLarge

        with pytest.raises(CarrierTooLarge, match="capped at 16"):
            nucleus_tower(corpus["diamond-join"], depth=3)


class TestCompositionJoin:
    def test_equal_nuclei_certify_at_one(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        n, composition = certified_composition(m, rad, rad)
        assert n == 1 and composition.table == rad.table == nuclei_join(m, [rad, rad]).table

    def test_identity_absorbs(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        n, composition = certified_composition(m, MonotoneMap.identity(m), rad)
        assert n == 1 and composition.table == rad.table
        assert composition.table == nuclei_join(m, [MonotoneMap.identity(m), rad]).table

    def test_incomparable_module_systems(self, corpus):
        m = corpus["modsys-z2"]
        maps = enumerate_nuclei(m)
        incomparable = [
            (s, t) for s in maps for t in maps if not (s <= t) and not (t <= s)
        ]
        assert incomparable
        certified = 0
        for s, t in incomparable[:6]:
            found = certified_composition(m, s, t)
            if found is not None:
                certified += 1
                assert found[1].table == nuclei_join(m, [s, t]).table
        assert certified


def test_enumeration_deterministic(z4):
    # Two carriers loaded independently: on one carrier object the
    # per-carrier memo would make the comparison trivial.
    doc = magma_doc(z4.magma)
    a = [s.table for s in enumerate_nuclei(load_magma(doc))]
    b = [s.table for s in enumerate_nuclei(load_magma(doc))]
    assert a == b == sorted(a)


@pytest.mark.parametrize("enumerate_maps", [enumerate_closures, enumerate_nuclei])
def test_an_enumeration_returns_the_stored_tuple(z4, enumerate_maps):
    # A tuple cannot be changed, so no caller can change the stored result.
    m = load_magma(magma_doc(z4.magma))
    first = enumerate_maps(m)
    assert type(first) is tuple and enumerate_maps(m) is first
    with pytest.raises(AttributeError):
        first.append(MonotoneMap.identity(m))
    assert enumerate_maps(m) == enumerate_maps(load_magma(magma_doc(z4.magma)))


def test_a_disagreeing_verdict_is_not_kept(z4, monkeypatch):
    monkeypatch.setattr(nucleus, "_chunk_verdicts", corrupted_kernel("c2", False))
    m = load_magma(magma_doc(z4.magma))
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="nucleus characterizations disagree"):
            is_nucleus(m, MonotoneMap.identity(m))


def test_a_verdict_stays_on_its_own_carrier(z4, monkeypatch):
    doc = magma_doc(z4.magma)
    first, second = load_magma(doc), load_magma(doc)
    assert first == second and is_nucleus(first, MonotoneMap.identity(first))
    monkeypatch.setattr(nucleus, "_chunk_verdicts", corrupted_kernel("c2", False))
    assert is_nucleus(first, MonotoneMap.identity(first))
    with pytest.raises(InternalCheckError):
        is_nucleus(second, MonotoneMap.identity(second))


def test_a_quotient_is_built_once_and_read_only(z4):
    m = load_magma(magma_doc(z4.magma))
    s = MonotoneMap(m, (1, 1, 2))
    q = quotient(m, s)
    assert quotient(m, MonotoneMap(m, s.table)) is q
    with pytest.raises(TypeError):
        q.to_quotient[0] = 0


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "element id True is not an integer"),
        (-1, "element id -1 foreign to carrier of size 3"),
        (3, "element id 3 foreign to carrier of size 3"),
        (256, "element id 256 foreign to carrier of size 3"),
    ],
    ids=["true", "minus-one", "n", "256"],
)
def test_map_and_morphism_tables_refuse_foreign_ids(z4, bad, message):
    # bytes() alone would store True as 1 and raise ValueError on 256.
    m = z4.magma
    with pytest.raises(StructureError, match=f"^{message}$"):
        MonotoneMap(m, [bad, 1, 2])
    with pytest.raises(StructureError, match=f"^{message}$"):
        MagmaMorphism(m, m, [0, bad, 2])


def test_every_map_the_library_returns_is_one_byte_table(corpus, rings):
    from quantic.divisorial import lin_monoid, stable_closure, v_lin, v_residual, v_rs, v_units
    from quantic.finitary import star_f
    from quantic.rings import radical_operation

    seen = set()

    def check(what, n, make):
        try:
            table = make()
        except HypothesisNotMet:
            return
        table = getattr(table, "table", table)
        assert type(table) is bytes and len(table) == n, what
        seen.add(what)

    strategies = (v_lin, v_rs, v_residual, v_units)
    for name, m in corpus.items():
        n = m.n
        for s in enumerate_closures(m):
            check("closure", n, lambda: s)
        maps = enumerate_nuclei(m)
        for s, t in zip(maps, maps[1:] + maps[:1]):
            check("nucleus", n, lambda: s)
            check("meet", n, lambda: nuclei_meet(m, [s, t]))
            check("join", n, lambda: nuclei_join(m, [s, t]))
            found = certified_composition(m, s, t)
            if found is not None:
                check("certified composition", n, lambda: found[1])
            check("stable closure", n, lambda: stable_closure(m, s))
            check("star_f", n, lambda: star_f(m, s))
        for a in range(n):
            for strategy in strategies:
                check(strategy.__name__, n, lambda: strategy(m, a))
        check("1[-]", n, lambda: one_bracket_map(m))
        f = MagmaMorphism(m, m, range(n))
        check("compose", n, lambda: f.compose(f))
        for g in lin_monoid(m):
            check("lin monoid", n, lambda: g)
    for lat in rings.values():
        check("radical", lat.magma.n, lambda: radical_operation(lat))
    assert seen == {
        "closure", "nucleus", "meet", "join", "certified composition", "stable closure",
        "star_f", *(s.__name__ for s in strategies), "1[-]", "compose", "lin monoid", "radical",
    }


# -- the nucleus contract and maps of another carrier -----------------------------


def contract_carrier():
    """I(Z/12): unital, residuated and precoherent, so every operation that
    takes a nucleus reaches its precondition; 17 of its 23 closures are not
    nuclei."""
    return ring_ideal_lattice(FiniteRing.zmod(12)).magma


def whole(m):
    return Submagma.of(m, range(m.n))


def on_whole(m, s):
    return MonotoneMap(whole(m).magma, s.table)


# Each operation whose precondition _nuclei_of states, the name it gives, and
# a call handing it s; a family puts a nucleus before s.
PRECONDITIONS = [
    ("nuclei_meet", lambda m, s: nuclei_meet(m, [MonotoneMap.identity(m), s])),
    ("nuclei_join", lambda m, s: nuclei_join(m, [MonotoneMap.identity(m), s])),
    ("quotient", quotient),
    ("induced_lower", lambda m, s: induced_lower(m, whole(m), on_whole(m, s))),
    ("induced_upper", lambda m, s: induced_upper(m, whole(m), on_whole(m, s))),
    ("unit_part", unit_part),
    ("certified_composition", lambda m, s: certified_composition(m, MonotoneMap.identity(m), s)),
    ("divisorial_decomposition", divisorial_decomposition),
    ("gv_elements", gv_elements),
    ("stable_closure", stable_closure),
    ("is_stable", is_stable),
    ("star_f", star_f),
]


@pytest.mark.parametrize("who, call", PRECONDITIONS, ids=[who for who, _ in PRECONDITIONS])
def test_every_precondition_refuses_a_closure_that_is_not_a_nucleus(who, call):
    m = contract_carrier()
    bad = next(s for s in enumerate_closures(m) if not is_nucleus(m, s))
    with pytest.raises(HypothesisNotMet) as info:
        call(m, bad)
    assert str(info.value) == f"{who} requires a nucleus"
    # A map nothing has decided yet is decided by the precondition itself.
    m = contract_carrier()
    with pytest.raises(HypothesisNotMet, match=f"^{who} requires a nucleus$"):
        call(m, MonotoneMap(m, bad.table))


def test_a_precondition_reads_every_map_of_its_family():
    m = contract_carrier()
    bad = next(s for s in enumerate_closures(m) if not is_nucleus(m, s))
    good = MonotoneMap.identity(m)
    for call in (nuclei_meet, nuclei_join):
        for family in ([good, good, bad], [bad, good]):
            with pytest.raises(HypothesisNotMet):
                call(m, family)
    with pytest.raises(HypothesisNotMet):
        certified_composition(m, bad, good)


POSTCONDITIONS = {
    "nuclei_meet": lambda m: nuclei_meet(m, [MonotoneMap.identity(m)] * 2),
    "nuclei_join": lambda m: nuclei_join(m, [MonotoneMap.identity(m)] * 2),
    "v": lambda m: v(m, 0),
    "stable_closure": lambda m: stable_closure(m, MonotoneMap.identity(m)),
    "radical_operation": lambda m: radical_operation(ring_ideal_lattice(FiniteRing.zmod(12))),
}


@pytest.mark.parametrize("name", sorted(POSTCONDITIONS))
def test_every_postcondition_raises_on_an_output_the_verdict_rejects(monkeypatch, name):
    build = POSTCONDITIONS[name]
    m = contract_carrier()
    build(m)  # the unpatched construction answers
    m = contract_carrier()
    nucleus._decide_nuclei(m, [MonotoneMap.identity(m).table])
    # The preconditions read the stored verdicts; only the outputs are
    # decided through is_nucleus, which now rejects every map.
    monkeypatch.setattr(nucleus, "is_nucleus", lambda m, s: False)
    with pytest.raises(InternalCheckError) as info:
        build(m)
    assert str(info.value).endswith(f"is not a nucleus on {carrier_label(m)}"), info.value


def chain_meet(n):
    return OrderedMagma(FinitePoset.chain(n), [[min(x, y) for y in range(n)] for x in range(n)], f"chain{n}-meet")


def claimed_by(m, s):
    """s claiming the carrier m: is_closure reads the carrier from the map,
    so this is the one way a table of another length reaches it."""
    out = object.__new__(MonotoneMap)
    out.carrier, out.table = m, s.table
    return out


FOREIGN_CALLS = {
    "is_nucleus": is_nucleus,
    "is_strict_nucleus": is_strict_nucleus,
    "is_closure": lambda m, s: is_closure(claimed_by(m, s)),
    "quotient": quotient,
    "nuclei_meet": lambda m, s: nuclei_meet(m, [MonotoneMap.identity(m), s]),
    "stable_closure": stable_closure,
    "star_f": star_f,
    "transportable_mask": transportable_mask,
    "MonotoneMap.__le__": lambda m, s: MonotoneMap.identity(m) <= s,
}


@pytest.mark.parametrize("name", sorted(FOREIGN_CALLS))
@pytest.mark.parametrize("size", [5, 7])
def test_a_map_of_another_carrier_is_refused_and_decides_nothing(name, size):
    call = FOREIGN_CALLS[name]
    m = contract_carrier()
    assert m.n == 6
    call(m, MonotoneMap.identity(m))  # the carrier's own facts are memoized
    foreign = MonotoneMap.identity(chain_meet(size))
    before = dict(nucleus._memo(m)), dict(nucleus._memo(m.poset))
    with pytest.raises(StructureError) as info:
        call(m, foreign)
    assert str(info.value) == f"map table length does not match {carrier_label(m)}"
    assert (nucleus._memo(m), nucleus._memo(m.poset)) == before


def test_a_foreign_map_raises_on_a_fresh_carrier_in_both_directions():
    # The table of chain3 handed to chain4 and the reverse: a StructureError
    # either way, where a False verdict, a mask of 0, an IndexError or, for
    # <=, an answer came before.
    for call in (is_nucleus, transportable_mask, lambda m, s: MonotoneMap.identity(m) <= s):
        small, big = chain_meet(3), chain_meet(4)
        for m, other in ((big, small), (small, big)):
            with pytest.raises(StructureError, match=f"does not match {m.name}"):
                call(m, MonotoneMap.identity(other))
            assert nucleus._memo(m) == {} and nucleus._memo(m.poset) == {}


# -- one cache rule: per_carrier ----------------------------------------------------


def chain3_join():
    """Not residuated, so the stability hypotheses fail."""
    return OrderedMagma(FinitePoset.chain(3), [[max(x, y) for y in range(3)] for x in range(3)], "chain3-join")


def antichain_constant():
    """No sups and no unit: no divisorial strategy applies."""
    return OrderedMagma(FinitePoset.antichain(2), [[0, 0], [0, 0]], "antichain2-zero")


def over_the_cap():
    return module_system_lattice(cyclic_group(4)).magma


def identity_args(m):
    return (MonotoneMap.identity(m),)


def not_a_nucleus(m):
    return (next(s for s in enumerate_closures(m) if not is_nucleus(m, s)),)


def no_args(m):
    return ()


# Every per_carrier function: a carrier maker and the arguments it takes,
# and, where the build can raise, a carrier maker, arguments and the error.
CACHED = {
    "quantic.nucleus._one_sided_unital": (contract_carrier, no_args, None),
    "quantic.nucleus._build_hull": (
        contract_carrier, identity_args, (contract_carrier, lambda m: (MonotoneMap(m, bytes(m.n)),), HypothesisNotMet),
    ),
    "quantic.nucleus.enumerate_closures": (contract_carrier, no_args, (over_the_cap, no_args, CarrierTooLarge)),
    "quantic.nucleus.enumerate_nuclei": (contract_carrier, no_args, (over_the_cap, no_args, CarrierTooLarge)),
    "quantic.nucleus.quotient": (contract_carrier, identity_args, (contract_carrier, not_a_nucleus, HypothesisNotMet)),
    "quantic.nucleus.nucleus_lattice": (contract_carrier, no_args, (over_the_cap, no_args, CarrierTooLarge)),
    "quantic.nucleus._pair_table": (contract_carrier, lambda m: ("v",), (over_the_cap, lambda m: ("^",), CarrierTooLarge)),
    "quantic.nucleus.nucleus_order": (contract_carrier, no_args, (over_the_cap, no_args, CarrierTooLarge)),
    "quantic.nucleus._least_above": (lambda: contract_carrier().poset, lambda p: (p.universe,), None),
    "quantic.nucleus._alternations": (contract_carrier, no_args, (over_the_cap, no_args, CarrierTooLarge)),
    "quantic.divisorial.lin_monoid": (contract_carrier, no_args, None),
    "quantic.divisorial._units_and_spanning": (contract_carrier, no_args, None),
    "quantic.divisorial._v_all": (contract_carrier, lambda m: (2,), (antichain_constant, lambda m: (0,), HypothesisNotMet)),
    "quantic.divisorial._decide_stable_hypotheses": (contract_carrier, no_args, (chain3_join, no_args, HypothesisNotMet)),
    "quantic.divisorial.stable_closure": (contract_carrier, identity_args, (chain3_join, identity_args, HypothesisNotMet)),
    "quantic.divisorial.is_stable": (contract_carrier, identity_args, (chain3_join, identity_args, HypothesisNotMet)),
    "quantic.verify._random_maps": (contract_carrier, no_args, None),
    "quantic.idl.idl": (contract_carrier, no_args, (antichain_constant, no_args, HypothesisNotMet)),
}


def per_carrier_functions() -> dict:
    """Every function of the package that per_carrier made, by module and name."""
    stored = nucleus.per_carrier(len).__code__
    found = {}
    for info in pkgutil.iter_modules(quantic.__path__):
        for fn in vars(importlib.import_module(f"quantic.{info.name}")).values():
            if getattr(fn, "__code__", None) is stored:
                found[f"{fn.__module__}.{fn.__name__}"] = fn
    return found


def test_every_per_carrier_function_is_listed():
    assert set(per_carrier_functions()) == set(CACHED)


@pytest.mark.parametrize("name", sorted(CACHED))
def test_each_per_carrier_result_is_built_once_per_carrier_object_and_arguments(name):
    fn, (make, args, fails) = per_carrier_functions()[name], CACHED[name]
    m = make()
    memo, key = nucleus._memo(m), (fn.__wrapped__, *args(m))
    first = fn(m, *args(m))
    assert memo[key] is first
    # The next call returns what is stored, without a build.
    memo[key] = stored = object()
    assert fn(m, *args(m)) is stored
    # An equal carrier object builds its own.
    other = make()
    assert other == m and other is not m and nucleus._memo(other).get(key) is None
    assert fn(other, *args(other)) == first
    assert nucleus._memo(other)[key] == first
    if fails is not None:
        make, args, error = fails
        m = make()
        # A build that raises stores nothing, so the next call builds and raises again.
        for _ in range(2):
            with pytest.raises(error):
                fn(m, *args(m))
            assert (fn.__wrapped__, *args(m)) not in nucleus._memo(m)


# -- N(M)'s pair tables ---------------------------------------------------------------


def fresh_copy(m):
    """m on a new poset object and a new magma object: nothing stored on either."""
    return OrderedMagma(FinitePoset.from_up_masks(m.poset.up, m.poset.labels), m.mul, name=m.name)


def table_by_calls(m, op):
    """The N(M) table of op ("join" or "meet") from one nuclei_join or
    nuclei_meet call per unordered pair."""
    maps, operation = enumerate_nuclei(m), getattr(nucleus, f"nuclei_{op}")
    upper = [[maps.index(operation(m, [s, t])) for t in maps[i:]] for i, s in enumerate(maps)]
    return tuple(tuple(upper[min(i, j)][abs(j - i)] for j in range(len(maps))) for i in range(len(maps)))


def outcome(build, *args):
    """build(*args), or the text of the HypothesisNotMet it raises."""
    try:
        return build(*args)
    except HypothesisNotMet as exc:
        return str(exc)


@pytest.mark.parametrize("op", ["join", "meet"])
@pytest.mark.parametrize("name", ["ideals-z12", "diamond-join", "powerset-z2"])
def test_each_pair_table_calls_its_operation_on_no_pair_where_the_routes_agree(corpus, monkeypatch, op, name):
    m = fresh_copy(corpus[name])
    maps = enumerate_nuclei(m)
    calls, operation = [], getattr(nucleus, f"nuclei_{op}")
    monkeypatch.setattr(nucleus, f"nuclei_{op}", lambda m, gamma: calls.append(gamma) or operation(m, gamma))
    table = getattr(nucleus, f"nuclei_{op}_table")(m)
    assert len(maps) > 2 and calls == []
    monkeypatch.undo()
    # Every entry is the operation's answer on its pair, and the stored
    # table is read back.
    assert table == table_by_calls(m, op)
    assert getattr(nucleus, f"nuclei_{op}_table")(m) is table


@pytest.mark.parametrize("name", ["ideals-z12", "diamond-join", "powerset-z2"])
def test_the_join_table_reads_the_common_fixed_set_with_no_least_above_table(corpus, monkeypatch, name):
    m = fresh_copy(corpus[name])
    maps = enumerate_nuclei(m)
    p, looked_up = m.poset, []
    least_of = p.least_of
    monkeypatch.setattr(p, "least_of", lambda mask: looked_up.append(mask) or least_of(mask))
    joins, meets = nuclei_join_table(m), nucleus.nuclei_meet_table(m)
    assert looked_up == [] and not any(key[0] is nucleus._least_above.__wrapped__ for key in nucleus._memo(p))
    for i, s in enumerate(maps):
        for j, t in enumerate(maps):
            # The join's fixed set is the common fixed set; the meet is pointwise.
            assert maps[joins[i][j]].fixed_mask() == s.fixed_mask() & t.fixed_mask()
            assert maps[meets[i][j]].table == bytes(map(p.meet, s.table, t.table))


def test_the_pair_tables_equal_one_call_per_pair(corpus, bowtie1_left):
    carriers = [fresh_copy(m) for m in corpus.values() if m.n <= nucleus.ENUMERATION_CAP]
    carriers += [ring_ideal_lattice(FiniteRing.zmod(60)).magma, nucleus_lattice(corpus["diamond-join"]).magma]
    carriers.append(bowtie1_left)
    refused = Counter()
    for m in carriers:
        for op in ("join", "meet"):
            expected = outcome(table_by_calls, m, op)
            assert outcome(getattr(nucleus, f"nuclei_{op}_table"), m) == expected, (m.name, op)
            refused[op] += isinstance(expected, str)
    assert len(enumerate_nuclei(carriers[-2])) == 37
    # bowtie1-left has no join formula and a missing pointwise infimum.
    assert refused == {"join": 1, "meet": 1}


def test_the_pair_tables_of_chain9_under_meet_equal_the_operations_on_a_sample():
    m = OrderedMagma(FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], name="chain9-meet")
    maps = enumerate_nuclei(m)
    joins, meets = nuclei_join_table(m), nucleus.nuclei_meet_table(m)
    rng = random.Random(26)
    assert len(maps) == 256
    for _ in range(2000):
        i, j = rng.randrange(256), rng.randrange(256)
        s, t = maps[i], maps[j]
        assert maps[joins[i][j]] == nuclei_join(m, [s, t]) and maps[meets[i][j]] == nuclei_meet(m, [s, t]), (i, j)


def test_the_masks_kept_on_a_map_equal_the_recomputed_ones(corpus):
    rng = random.Random(25)
    checked, parted = 0, 0
    for m in corpus.values():
        maps = list(enumerate_closures(m)) if m.n <= nucleus.ENUMERATION_CAP else []
        maps += [MonotoneMap(m, [rng.randrange(m.n) for _ in range(m.n)]) for _ in range(20)]
        for s in maps:
            for _ in range(2):
                assert s.image_mask() == id_mask(s.table), (m.name, s)
                assert s.fixed_mask() == id_mask(x for x, t in enumerate(s.table) if x == t), (m.name, s)
            checked, parted = checked + 1, parted + (s.image_mask() != s.fixed_mask())
    # The random maps keep an image that is not their fixed-point set.
    assert checked > 500 and parted > 100


def test_the_stored_n_m_tables_refuse_writes_and_keep_their_values():
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    joins, meets = nuclei_join_table(m), nucleus.nuclei_meet_table(m)
    index, above, below = nucleus.nucleus_order(m)
    before = [list(map(list, joins)), list(map(list, meets)), dict(index), list(above), list(below)]
    assert joins[0][1] != 0
    writes = [
        lambda: joins[0].__setitem__(1, 0),
        lambda: joins.__setitem__(0, joins[1]),
        lambda: meets[0].__setitem__(1, 0),
        lambda: index.__setitem__(bytes(m.n), 0),
        lambda: index.pop(next(iter(index))),
        lambda: above.__setitem__(0, 0),
        lambda: below.__setitem__(0, 0),
    ]
    for write in writes:
        with pytest.raises((TypeError, AttributeError)):
            write()
    joins, meets = nuclei_join_table(m), nucleus.nuclei_meet_table(m)
    index, above, below = nucleus.nucleus_order(m)
    assert [list(map(list, joins)), list(map(list, meets)), dict(index), list(above), list(below)] == before
