import random

import pytest

from quantic.errors import CarrierTooLarge, HypothesisNotMet, StructureError
from quantic.instances import (
    cyclic_group,
    ideal_system_lattice,
    is_ideal_system,
    is_module_system,
    is_group,
    is_weak_ideal_system,
    klein_four,
    left_zero,
    module_system_conditions,
    module_system_lattice,
    nonassociative_pair,
    plain_magma,
    powerset_of_magma_elements,
    powerset_prequantale,
    trivial_monoid,
    weak_ideal_system_conditions,
    zchain_with_both_ends,
    zchain_with_top,
)
from quantic.lazy import UPSet, TruncationFamily, UpsetsNat
from quantic.nucleus import MonotoneMap, enumerate_nuclei, is_nucleus
from quantic.rings import (
    FiniteRing,
    base_prime,
    frobenius_exponent_window,
    radical_operation,
    regular_elements_mask,
    ring_ideal_lattice,
    tight_closure_T,
    tight_closure_preclosure,
    tight_closure_star,
)

from conftest import two_element_monoid


class TestMagmaDescriptions:
    def test_flags_verified(self):
        d = cyclic_group(3).profile
        assert d.associative and d.commutative and d.unital and is_group(cyclic_group(3))
        lz = left_zero(2).profile
        assert lz.associative and not lz.commutative and not lz.unital
        assert not nonassociative_pair().profile.associative
        assert not is_group(two_element_monoid())

    def test_bad_table_rejected(self):
        with pytest.raises(StructureError):
            plain_magma(["a"], [[3]])


class TestPowerset:
    def test_group_powerset_is_coherent_quantale(self):
        c = powerset_prequantale(cyclic_group(2))
        prof = c.magma.profile
        assert prof.quantale and prof.coherent and prof.precoherent and prof.commutative

    def test_drop_empty_kills_annihilator(self):
        c = powerset_prequantale(cyclic_group(2), drop_empty=True)
        assert c.magma.annihilator is None and c.magma.profile.near_prequantale

    def test_drop_empty_on_one_element_has_an_annihilator(self):
        # 2^M minus the empty set is the single {m}: its bottom, top and
        # annihilator.
        c = powerset_prequantale(trivial_monoid(), drop_empty=True)
        assert c.magma.n == 1 and c.magma.annihilator == 0 and c.magma.profile.near_prequantale

    @pytest.mark.parametrize(
        "base, built",
        [(trivial_monoid(), (cyclic_group(2), True)), (cyclic_group(2), (cyclic_group(2), False))],
        ids=["one-element-without-annihilator", "two-elements-with-annihilator"],
    )
    def test_drop_empty_annihilator_check_holds_both_ways(self, monkeypatch, base, built):
        """The post-check refuses a carrier without an annihilator on a
        one-element base and one with an annihilator on a larger base: the
        carrier built is swapped for 2^{Z2}-{} or 2^{Z2}, near prequantales
        of the other kind."""
        from quantic import instances
        from quantic.errors import InternalCheckError

        build = instances._powerset_carrier
        monkeypatch.setattr(instances, "_powerset_carrier", lambda b, drop, name: build(*built, name))
        with pytest.raises(InternalCheckError, match=r"with an annihilator exactly when \|M\| = 1"):
            powerset_prequantale(base, drop_empty=True)

    def test_size_cap(self):
        with pytest.raises(CarrierTooLarge):
            powerset_prequantale(cyclic_group(6))

    @pytest.mark.parametrize("drop_empty", [False, True])
    def test_products_are_the_complex_products(self, drop_empty):
        # Every product table on two elements, twenty seeded ones on three,
        # and one each on four and five, the base cap.
        rng = random.Random(19)
        tables = [[[a, b], [c, d]] for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
        tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for n in (3,) * 20 + (4, 5)]
        for table in tables:
            base = plain_magma([f"m{i}" for i in range(len(table))], table)
            c = powerset_of_magma_elements(base, drop_empty)
            masks = c.element_masks
            assert len(masks) == 2 ** base.n - drop_empty
            expected = [[c.mask_index[base.complex_mul_mask(a, b)] for b in masks] for a in masks]
            assert [list(row) for row in c.magma.mul] == expected, table


class TestModuleSystems:
    def test_smallest_module_system(self):
        for g in [trivial_monoid(), cyclic_group(2)]:
            sys = module_system_lattice(g)
            m = sys.magma
            table = []
            for x in range(m.n):
                mask = sys.carrier.element_masks[x] | 1  # adjoin the zero symbol
                table.append(sys.carrier.mask_index[mask])
            r = MonotoneMap(m, table)
            assert is_module_system(sys, r)

    def test_zero_rule_violation_is_false(self):
        sys = module_system_lattice(trivial_monoid())
        e = MonotoneMap.top_map(sys.magma)
        assert not is_module_system(sys, e)

    def test_larger_groups_construct_and_carry_the_smallest_system(self):
        for g in [cyclic_group(3), klein_four()]:
            sys = module_system_lattice(g)
            m = sys.magma
            assert m.n == 1 << (g.n + 1)
            assert m.profile.multiplicative_lattice and m.profile.coherent
            table = [
                sys.carrier.mask_index[sys.carrier.element_masks[x] | 1] for x in range(m.n)
            ]
            assert is_module_system(sys, MonotoneMap(m, table))

    def test_base_cap(self):
        with pytest.raises(CarrierTooLarge):
            module_system_lattice(cyclic_group(5))

    def test_non_group_rejected(self):
        with pytest.raises(HypothesisNotMet):
            module_system_lattice(two_element_monoid())

    def test_exhaustive_counts(self):
        # The zero rule plus idempotence forces r({0}) = {0}, and monotonicity
        # then pins the unique system on the trivial group; the published
        # count of two double-counts the top collapse, which breaks
        # idempotence once the zero rule holds.
        counts = {}
        for label, g in [("trivial", trivial_monoid()), ("z2", cyclic_group(2))]:
            sys = module_system_lattice(g)
            counts[label] = sum(
                1
                for r in enumerate_nuclei(sys.magma)
                if r.table[sys.empty_set] == sys.zero_singleton and is_module_system(sys, r)
            )
        assert counts == {"trivial": 1, "z2": 2}

    @pytest.mark.parametrize("gname", ["trivial", "z2"])
    def test_four_conditions_agree_on_random_maps(self, gname):
        g = trivial_monoid() if gname == "trivial" else cyclic_group(2)
        sys = module_system_lattice(g)
        m = sys.magma
        rng = random.Random(42)
        up_zero = [x for x in range(m.n) if m.leq(sys.zero_singleton, x)]
        for _ in range(1500):
            table = [rng.randrange(m.n) for _ in range(m.n)]
            table[sys.empty_set] = sys.zero_singleton
            r = MonotoneMap(m, table)
            conds = module_system_conditions(sys, r)
            assert len(set(conds.values())) == 1, conds


class TestIdealSystems:
    def test_generated_ideal_system(self):
        mon = two_element_monoid()
        sys = ideal_system_lattice(mon)
        m = sys.magma
        k = len(sys.symbols)
        table = []
        for x in range(m.n):
            mask = sys.carrier.element_masks[x]
            grown = mask | 1
            for c in range(k):
                if (mask >> c) & 1:
                    for d in range(k):
                        grown |= 1 << sys.symbol_mul[c][d]
            table.append(sys.carrier.mask_index[grown])
        r = MonotoneMap(m, table)
        assert is_weak_ideal_system(sys, r)

    def test_identity_is_not_weak(self):
        sys = ideal_system_lattice(trivial_monoid())
        assert not is_weak_ideal_system(sys, MonotoneMap.identity(sys.magma))

    def test_counts(self):
        expected = {"trivial": (2, 1), "two": (4, 1)}
        for label, mon in [("trivial", trivial_monoid()), ("two", two_element_monoid())]:
            sys = ideal_system_lattice(mon)
            weak = [r for r in enumerate_nuclei(sys.magma) if is_weak_ideal_system(sys, r)]
            full = [r for r in weak if is_ideal_system(sys, r)]
            assert (len(weak), len(full)) == expected[label]

    def test_characterizations_agree_on_random_maps(self):
        sys = ideal_system_lattice(trivial_monoid())
        m = sys.magma
        rng = random.Random(9)
        for _ in range(1500):
            r = MonotoneMap(m, [rng.randrange(m.n) for _ in range(m.n)])
            conds = weak_ideal_system_conditions(sys, r)
            assert conds["raw"] == conds["nucleus"], conds


class TestRings:
    def test_zmod_ideal_counts(self):
        for n, count in [(2, 2), (4, 3), (6, 4), (8, 4), (9, 3), (12, 6)]:
            assert ring_ideal_lattice(FiniteRing.zmod(n)).magma.n == count

    def test_z6_ideal_labels(self):
        lat = ring_ideal_lattice(FiniteRing.zmod(6))
        assert sorted(lat.magma.poset.labels) == ["(0)", "(1)", "(2)", "(3)"]

    def test_poly_chain(self):
        lat = ring_ideal_lattice(FiniteRing.poly_quotient(2, [0, 0, 0, 1]))
        p = lat.magma.poset
        assert lat.magma.n == 4 and all(p.leq(i, j) or p.leq(j, i) for i in range(4) for j in range(4))

    def test_noncommutative_rejected(self):
        # Upper-triangular 2x2 matrices over F_2, element (a, b, d) at index
        # 4a + 2b + d: a ring with one, commutative only in its addition.
        elems = [(a, b, d) for a in (0, 1) for b in (0, 1) for d in (0, 1)]
        index = {e: i for i, e in enumerate(elems)}
        add = [[index[tuple(u ^ w for u, w in zip(x, y))] for y in elems] for x in elems]
        mul = [
            [index[(x[0] & y[0], (x[0] & y[1]) ^ (x[1] & y[2]), x[2] & y[2])] for y in elems]
            for x in elems
        ]
        with pytest.raises(StructureError, match="not commutative"):
            FiniteRing(add, mul, index[(0, 0, 0)], index[(1, 0, 1)])

    @pytest.mark.parametrize(
        "add, mul, message",
        [
            (
                [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
                [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
                "addition not associative",
            ),
            (
                [[(i + j) % 4 for j in range(4)] for i in range(4)],
                [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 0]],
                "multiplication not associative",
            ),
            (
                [[(i + j) % 3 for j in range(3)] for i in range(3)],
                [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
                "distributivity fails",
            ),
            (
                [[(i + j) % 3 for j in range(3)] for i in range(3)],
                [[0, 0, 0], [0, 1, 2], [1, 2, 1]],
                "not commutative",
            ),
        ],
        ids=["additive-associativity", "multiplicative-associativity", "distributivity",
             "commutativity"],
    )
    def test_each_ring_law_is_checked(self, add, mul, message):
        with pytest.raises(StructureError, match=message):
            FiniteRing(add, mul, 0, 1)

    def test_radical_examples(self, rings):
        rad4 = radical_operation(rings["z4"])
        assert tuple(rad4.table) == (1, 1, 2)
        rad6 = radical_operation(rings["z6"])
        assert tuple(rad6.table) == tuple(range(4))
        for lat in rings.values():
            rad = radical_operation(lat)
            top = lat.magma.poset.top
            assert rad.table[top] == top
            assert is_nucleus(lat.magma, rad)


class TestTightClosure:
    def test_base_prime(self, rings):
        assert base_prime(rings["z4"].ring) == 2
        assert base_prime(rings["z9"].ring) == 3
        with pytest.raises(HypothesisNotMet):
            base_prime(FiniteRing.zmod(6))

    def test_frobenius_window_stable(self, rings):
        for key in ["z4", "z9", "f2x2", "f2x3"]:
            pre, period = frobenius_exponent_window(rings[key].ring)
            assert pre >= 0 and period >= 1

    def test_regular_elements_are_units_on_local_rings(self, rings):
        lat = rings["f2x2"]
        mask = regular_elements_mask(lat)
        ring = lat.ring
        for x in range(ring.n):
            is_unit = any(ring.mul[x][y] == ring.one for y in range(ring.n))
            assert bool((mask >> x) & 1) == is_unit

    def test_f2x2_zero_ideal_closes_to_nilradical(self, rings):
        lat = rings["f2x2"]
        assert lat.magma.n == 3  # the chain (0) < (x) < (1)
        zero, nil, top = 0, 1, 2
        assert tight_closure_T(lat, zero) == nil
        assert tight_closure_T(lat, nil) == nil

    def test_whole_ring_fixed(self, rings):
        for key in ["z4", "z9", "f2x2", "f2x3"]:
            lat = rings[key]
            top = lat.magma.poset.top
            assert tight_closure_T(lat, top) == top

    def test_star_properties(self, rings):
        for key in ["z4", "z9", "f2x2", "f2x3"]:
            lat = rings[key]
            t = tight_closure_preclosure(lat)
            star = tight_closure_star(lat)
            assert star.table == t.table  # finite rings are Noetherian
            for i in range(lat.magma.n):
                if t.table[i] == i:
                    assert star.table[i] == i

    def test_mixed_characteristic_rejected(self):
        lat = ring_ideal_lattice(FiniteRing.zmod(6))
        with pytest.raises(HypothesisNotMet):
            tight_closure_star(lat)


class TestChains:
    def test_truncated_chain_profile(self):
        m = zchain_with_top(1)
        prof = m.profile
        assert prof.near_prequantale and prof.commutative and prof.unital
        # Clamped addition is not associative: (1+1)-1 lands differently.
        assert not prof.associative

    def test_adjoined_annihilator(self):
        m = zchain_with_both_ends(1)
        assert m.profile.with_annihilator and m.profile.prequantale


class TestUpsetsQuantale:
    def test_minkowski_example(self):
        u = UpsetsNat()
        a = UPSet.from_finite([2, 3])
        assert u.op(a, a) == UPSet.from_finite([4, 5, 6])

    def test_ideal_generated_example(self):
        ideal = UpsetsNat().rule_map("monoid-ideal")
        assert ideal(UPSet.from_finite([2, 3])) == UPSet.tail(2)

    def test_sup_of_truncations(self):
        u = UpsetsNat()
        gen = UPSet.from_finite([2, 3]).generated_submonoid()
        assert u.sup(TruncationFamily(gen)) == gen
        assert gen.period == 1 and gen.threshold == 2

    def test_declared_profile_spot_checks(self):
        u = UpsetsNat()
        assert u.declared_profile["prequantale"] and u.declared_profile["precoherent"]
        xs = u.sample(8)
        for a in xs:
            for b in xs:
                assert u.op(a, b) == u.op(b, a)
                for c in xs[:4]:
                    assert u.op(u.op(a, b), c) == u.op(a, u.op(b, c))
        unit = UPSet.from_finite([0])
        assert all(u.op(unit, a) == a for a in xs)
        assert all(u.op(UPSet.empty(), a).is_empty() for a in xs)


def test_internal_checks_name_the_carrier_and_its_size(monkeypatch):
    from quantic import instances
    from quantic.errors import InternalCheckError

    sys = module_system_lattice(cyclic_group(2))
    r = next(r for r in enumerate_nuclei(sys.magma) if r.table[sys.empty_set] == sys.zero_singleton)
    monkeypatch.setattr(instances, "is_nucleus", lambda m, s: not is_nucleus(m, s))
    with pytest.raises(InternalCheckError, match="module systems must be the nuclei") as info:
        is_module_system(sys, r)
    assert "on 2^(G0:2) (8 elements)" in str(info.value)
