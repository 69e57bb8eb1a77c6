import pytest

from quantic.divisorial import (
    _sandwich_masks,
    divisorial_decomposition,
    gv_elements,
    is_cyclic,
    is_simple,
    is_stable,
    lin_monoid,
    stable_closure,
    star_w,
    t_of,
    v,
    v_bar,
    v_lin,
    v_rs,
    v_residual,
    v_units,
    w_of,
)
from quantic.errors import HypothesisNotMet
from quantic.instances import plain_magma, powerset_prequantale, zchain_with_both_ends, zchain_with_top
from quantic.magma import OrderedMagma, residual
from quantic.nucleus import MonotoneMap, enumerate_nuclei, nuclei_meet
from quantic.poset import FinitePoset

from test_exhaustive_small import compatible_magmas, three_element_posets


def sandwich_masks_loop(q, a):
    """The sandwich strategy's masks one triple at a time: bit r*n + s of
    masks[x] is set when r x s <= a."""
    n = q.n
    return [
        sum(1 << (r * n + s) for r in range(n) for s in range(n) if q.leq(q.op(q.op(r, x), s), a))
        for x in range(n)
    ]


class TestDivisorialClosure:
    def test_top_gives_top_map(self, z4):
        m = z4.magma
        assert v(m, m.poset.top).table == MonotoneMap.top_map(m).table

    def test_z4_radical_and_identity(self, z4):
        m = z4.magma
        assert tuple(v(m, 1).table) == (1, 1, 2)
        assert tuple(v(m, 0).table) == (0, 1, 2)

    def test_fixes_element_and_is_coarsest(self, corpus):
        for name in ["ideals-z6", "powerset-z2", "diamond-meet", "chain3-join"]:
            m = corpus[name]
            maps = enumerate_nuclei(m)
            for a in range(m.n):
                va = v(m, a)
                assert va.table[a] == a
                for s in maps:
                    if s.table[a] == a:
                        assert s <= va

    def test_strategies_agree_pairwise(self, corpus):
        for name in ["ideals-z4", "ideals-z6", "powerset-z2", "chain3-join", "zchain-inf"]:
            m = corpus[name]
            for a in range(m.n):
                results = {}
                for label, fn in [("lin", v_lin), ("rs", v_rs), ("residual", v_residual), ("units", v_units)]:
                    try:
                        results[label] = fn(m, a).table
                    except HypothesisNotMet:
                        continue
                assert len(set(results.values())) == 1, (name, a, results)

    def test_sandwich_masks_match_the_triple_loop(self, corpus):
        # Every corpus carrier the sandwich strategy applies to, 2^5 under
        # meet (32 elements, whose masks are 1024 bits wide), and the power
        # set of {1, a, b} with a x = a and b x = b, whose product is not
        # commutative, so r x s and x r s part.
        p = FinitePoset.powerset(5)
        bool5 = OrderedMagma(p, [[p.meet(x, y) for y in range(32)] for x in range(32)], name="bool5-meet")
        left = powerset_prequantale(plain_magma(["1", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]])).magma
        assert not left.profile.commutative
        checked = []
        for m in [*corpus.values(), bool5, left]:
            try:
                tables = [v_rs(m, a).table for a in range(m.n)]
            except HypothesisNotMet:
                continue
            for a in range(m.n):
                assert _sandwich_masks(m, a) == sandwich_masks_loop(m, a), (m.name, a)
            assert tables == [v_lin(m, a).table for a in range(m.n)], m.name
            checked.append(m.name)
        assert len(checked) > 5 and {"bool5-meet", left.name} <= set(checked)

    def test_lin_monoid_of_monoid_is_sandwiches(self, z4):
        m = z4.magma
        fns = lin_monoid(m)
        sandwiches = {
            tuple(m.op(m.op(r, x), s) for x in range(m.n)) for r in range(m.n) for s in range(m.n)
        }
        assert set(map(tuple, fns)) == sandwiches


    def test_a_strategy_disagreement_names_the_carrier_and_its_size(self, z4, monkeypatch):
        from quantic import divisorial
        from quantic.errors import InternalCheckError
        from quantic.structdoc import load_magma, magma_doc

        m = load_magma(magma_doc(z4.magma))
        monkeypatch.setitem(divisorial.STRATEGIES, "lin", lambda q, a: MonotoneMap.top_map(q))
        with pytest.raises(InternalCheckError, match="divisorial strategies disagree") as info:
            v(m, 0)
        assert "on I(Z/4) (3 elements)" in str(info.value), info.value

    def test_translation_monoid_is_built_once_per_carrier(self, monkeypatch):
        from quantic import divisorial
        from quantic.rings import FiniteRing, ring_ideal_lattice

        m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
        # Each build generates the monoid once.
        built, generate = [], divisorial.generated_monoid
        monkeypatch.setattr(
            divisorial, "generated_monoid", lambda q, *args: built.append(q) or generate(q, *args)
        )
        for a in range(m.n):
            v(m, a, strategy="all")
        assert built == [m]
        first = lin_monoid(m)
        assert type(first) is tuple and lin_monoid(m) is first
        assert list(first) == sorted(first) and built == [m]

    def test_unit_sandwich_units_are_found_once_per_carrier(self, monkeypatch):
        from quantic import divisorial
        from quantic.instances import cyclic_group
        from quantic.rings import FiniteRing, ring_ideal_lattice

        found, find = [], divisorial.distinguished_sets
        monkeypatch.setattr(divisorial, "distinguished_sets", lambda q: found.append(q) or find(q))
        # U(Q) spans the power set of a group, so every element answers; in
        # I(Z/12) the only unit is the top, so every element is refused with
        # the same text.
        spans = powerset_prequantale(cyclic_group(3)).magma
        tables = [v_units(spans, a).table for a in range(spans.n)]
        assert tables == [v_lin(spans, a).table for a in range(spans.n)]
        ring = ring_ideal_lattice(FiniteRing.zmod(12)).magma
        for a in range(ring.n):
            with pytest.raises(HypothesisNotMet, match=r"^U\(Q\) is not sup-spanning$"):
                v_units(ring, a)
        assert found == [spans, ring]


class TestDecomposition:
    def test_identity_decomposes(self, z4):
        m = z4.magma
        assert divisorial_decomposition(m, MonotoneMap.identity(m)) == [0, 1, 2]

    def test_radical_decomposes(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        fixed = divisorial_decomposition(m, rad)
        assert fixed == [1, 2]
        assert nuclei_meet(m, [v(m, 1), v(m, 2)]).table == rad.table

    def test_every_nucleus_on_every_near_prequantale(self, corpus):
        for m in corpus.values():
            if not m.profile.near_prequantale or m.n > 8:
                continue
            for s in enumerate_nuclei(m):
                divisorial_decomposition(m, s)


class TestSimplicity:
    def test_two_element_lattice_simple(self, corpus):
        rep = is_simple(corpus["ideals-z2"])
        assert rep.simple and set(rep.routes.values()) == {True}

    def test_z4_not_simple(self, z4):
        assert not is_simple(z4.magma).simple

    def test_chain_surrogates(self):
        # The clamped chain surrogates admit collapse-to-top nuclei strictly
        # between d and e, so neither is simple; routes must still agree.
        assert not is_simple(zchain_with_top(1)).simple
        assert not is_simple(zchain_with_both_ends(1)).simple

    def test_nonempty_powerset_of_group_is_simple(self, corpus):
        assert is_simple(corpus["powerset-z2-ne"]).simple


class TestGV:
    def test_identity_gv_is_unit(self, z4):
        m = z4.magma
        assert gv_elements(m, MonotoneMap.identity(m)).members == (m.unit,)

    def test_top_map_gv_is_everything_below_unit(self, z4):
        m = z4.magma
        assert gv_elements(m, MonotoneMap.top_map(m)).members == (0, 1, 2)

    def test_radical_gv(self, z4):
        m = z4.magma
        assert gv_elements(m, MonotoneMap(m, (1, 1, 2))).members == (2,)


class TestStable:
    def test_identity_and_top_stable(self, z4):
        m = z4.magma
        assert is_stable(m, MonotoneMap.identity(m))
        assert is_stable(m, MonotoneMap.top_map(m))
        assert stable_closure(m, MonotoneMap.identity(m)).table == MonotoneMap.identity(m).table

    def test_radical_not_stable_and_bar_is_identity(self, z4):
        m = z4.magma
        rad = MonotoneMap(m, (1, 1, 2))
        assert not is_stable(m, rad)
        assert stable_closure(m, rad).table == MonotoneMap.identity(m).table

    def test_bar_is_coarsest_stable_below(self, corpus):
        for name in ["ideals-z4", "ideals-z8", "ideals-z12", "powerset-z2"]:
            m = corpus[name]
            maps = enumerate_nuclei(m)
            for s in maps:
                bar = stable_closure(m, s)
                stable_below = [t for t in maps if t <= s and is_stable(m, t)]
                assert bar.table in {t.table for t in stable_below}
                assert all(t <= bar for t in stable_below)

    def test_meets_of_stable_are_stable(self, corpus):
        m = corpus["ideals-z12"]
        stables = [s for s in enumerate_nuclei(m) if is_stable(m, s)]
        for s in stables:
            for t in stables:
                assert is_stable(m, nuclei_meet(m, [s, t]))

    def test_stable_iff_meet_of_stable_divisorials(self, corpus):
        for name in ["ideals-z4", "ideals-z8"]:
            m = corpus[name]
            for s in enumerate_nuclei(m):
                rebuilt = nuclei_meet(m, [v_bar(m, a) for a in s.image()])
                assert (rebuilt.table == s.table) == is_stable(m, s)

    def test_hypotheses_refused_on_join_chain(self, corpus):
        # chain3-join is a near multiplicative lattice whose compacts are not
        # residuated, so the stable machinery must refuse.
        with pytest.raises(HypothesisNotMet):
            is_stable(corpus["chain3-join"], MonotoneMap.identity(corpus["chain3-join"]))

    def test_a_refusal_for_residuation_names_the_first_missing_residual(self):
        refused = 0
        for pname in ("chain", "wedge"):
            for m in compatible_magmas(three_element_posets()[pname]):
                missing = [
                    (t, x)
                    for t in range(m.n)
                    for x in range(m.n)
                    if None in (residual(m, x, t).left, residual(m, x, t).right)
                ]
                try:
                    is_stable(m, MonotoneMap.identity(m))
                except HypothesisNotMet as exc:
                    if str(exc).startswith("compact element"):
                        assert str(exc) == "compact element %d is not residuated at %d" % missing[0]
                        refused += 1
                else:
                    assert not missing, m.mul
        assert refused == 9


class TestCompanions:
    def test_star_w_equals_bar_on_finite(self, z4):
        m = z4.magma
        for s in enumerate_nuclei(m):
            assert star_w(m, s).table == stable_closure(m, s).table

    def test_t_equals_v_on_finite(self, z4):
        m = z4.magma
        for a in range(m.n):
            assert t_of(m, a).table == v(m, a).table

    def test_v_bar_of_radical_element(self, z4):
        m = z4.magma
        assert v_bar(m, 2).table == MonotoneMap.top_map(m).table
        # stable closure of the radical is d, but v_bar(a) must fix a: v_bar((2))
        # exists since (2) is identity-fixed.
        assert v_bar(m, 1).table == MonotoneMap.identity(m).table

    def test_top_companions_all_top(self, z4):
        m = z4.magma
        top = m.poset.top
        e = MonotoneMap.top_map(m)
        assert t_of(m, top).table == e.table
        assert v_bar(m, top).table == e.table
        assert w_of(m, top).table == e.table


class TestCyclicity:
    def test_commutative_all_cyclic(self, z4):
        for a in range(z4.magma.n):
            assert is_cyclic(z4.magma, a).is_cyclic

    def test_left_zero_counterexample_is_real_and_minimal(self, corpus):
        m = corpus["powerset-leftzero"]
        found = False
        for a in range(m.n):
            rep = is_cyclic(m, a)
            if rep.is_cyclic:
                continue
            found = True
            x, y = rep.counterexample
            assert m.leq(m.op(x, y), a) and not m.leq(m.op(y, x), a)
            earlier = [
                (i, j)
                for i in range(m.n)
                for j in range(m.n)
                if (i, j) < (x, y) and m.leq(m.op(i, j), a) and not m.leq(m.op(j, i), a)
            ]
            assert not earlier
        assert found
