import pytest

from quantic.errors import HypothesisNotMet
from quantic.finitary import is_finitary, star_f, verify_klattice
from quantic.lazy import INF, ChainOmega, UpsetsNat
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
        assert blow.certificate.closure_witnessed
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
