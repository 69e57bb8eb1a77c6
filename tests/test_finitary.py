from collections import Counter

import pytest

from quantic.errors import HypothesisNotMet
from quantic.finitary import is_finitary, star_f, verify_klattice
from quantic.lazy import INF, Certificate, ChainOmega, UpsetsNat
from quantic.nucleus import MonotoneMap, enumerate_nuclei


class TestFinitaryPredicate:
    def test_always_true_on_finite(self, z4):
        rep = is_finitary(MonotoneMap(z4.magma, (1, 1, 2)))
        assert rep.is_finitary and rep.exhaustive and "maxima" in rep.note

    def test_chain_closures_pass_on_exposed_families(self):
        for rule in [ChainOmega().rule_map("e"), ChainOmega().rule_map("d")]:
            rep = is_finitary(rule)
            assert rep.is_finitary and not rep.exhaustive

    def test_upsets_ideal_map_finitary(self):
        rep = is_finitary(UpsetsNat().rule_map("monoid-ideal"))
        assert rep.is_finitary and "no violation" in rep.note

    def test_upsets_saturation_finitary_on_schemas(self):
        rep = is_finitary(UpsetsNat().rule_map("submonoid-saturation"))
        assert rep.is_finitary

    def test_non_finitary_rule_yields_a_witness(self):
        from quantic.lazy import RuleMap, UPSet, UpsetsNat

        u = UpsetsNat()
        # Fix finite sets, blow every infinite set up to the whole carrier:
        # a closure that fails to commute with truncation suprema.
        blow = RuleMap(
            u, "blow-up-infinite", lambda x: x if x.is_finite() else UPSet.naturals()
        )
        assert blow.certificate == Certificate(True, True, True, True, 12)
        rep = is_finitary(blow)
        assert not rep.is_finitary and rep.witness is not None


class TestStarF:
    def test_finite_carrier_returns_same_map(self, corpus):
        for name in ["ideals-z4", "powerset-z2", "diamond-join"]:
            m = corpus[name]
            for s in enumerate_nuclei(m):
                assert star_f(m, s).table == s.table

    def test_chain_top_collapse(self):
        c = ChainOmega()
        e = c.rule_map("e")
        ef = star_f(c, e)
        assert ef(0) is INF and ef(INF) is INF

    def test_chain_companion_bounds_and_compact_agreement(self):
        c = ChainOmega()
        hoist = c.rule_map("d5")
        sf = star_f(c, hoist)
        for x in c.sample(12):
            assert c.leq(sf(x), hoist(x))
            if c.is_compact(x):
                assert sf(x) == hoist(x)
            assert sf(sf(x)) == sf(x)

    def test_upsets_ideal_system_already_finitary(self):
        u = UpsetsNat()
        rule = u.rule_map("monoid-ideal")
        sf = star_f(u, rule)
        for x in u.sample(10):
            assert sf(x) == rule(x)

    @pytest.mark.parametrize("carrier, name", [(UpsetsNat(), "monoid-ideal"), (ChainOmega(), "d3")])
    def test_companion_takes_each_image_sup_once(self, monkeypatch, carrier, name):
        # The companion's values are kept, so the sup over the compacts below
        # an infinite element is taken once, however often certification and
        # the companion checks ask for it.
        calls = Counter()
        image_sup = carrier.image_sup

        def counting(rule, family, budget):
            calls[rule.name, family] += 1
            return image_sup(rule, family, budget)

        monkeypatch.setattr(carrier, "image_sup", counting)
        companion = star_f(carrier, carrier.rule_map(name))
        for x in carrier.sample():
            companion(x)
        assert calls and set(calls.values()) == {1}

    def test_rejects_non_nucleus_rule(self):
        u = UpsetsNat()
        with pytest.raises(HypothesisNotMet):
            star_f(u, u.rule_map("submonoid-saturation"))


class TestKLattice:
    def test_finite_carriers(self, corpus):
        for name in ["ideals-z4", "modsys-z2", "powerset-leftzero"]:
            m = corpus[name]
            for s in enumerate_nuclei(m):
                assert verify_klattice(m, s).holds

    def test_upsets_ideal_system(self):
        u = UpsetsNat()
        verdict = verify_klattice(u, u.rule_map("monoid-ideal"))
        assert verdict.holds and not verdict.exhaustive


def test_internal_checks_name_the_carrier(z4, monkeypatch):
    from quantic import finitary
    from quantic.errors import InternalCheckError

    # The finite formula sees every image set as empty, so it gives the bottom.
    with monkeypatch.context() as patched:
        patched.setattr(finitary, "id_mask", lambda ids: 0)
        with pytest.raises(InternalCheckError, match="formula broke at") as info:
            star_f(z4.magma, MonotoneMap.identity(z4.magma))
    assert "on I(Z/4) (3 elements)" in str(info.value)
    # The lazy companion sends everything to the top, above d3 off the top.
    monkeypatch.setattr(finitary, "map_family_sup", lambda carrier, s, family: INF)
    with pytest.raises(InternalCheckError, match="exceeded the original nucleus") as info:
        star_f(ChainOmega(), ChainOmega().rule_map("d3"))
    assert "on chain-omega, nucleus d3" in str(info.value)
