"""Cross-cutting worked examples that tie several modules together."""

import pytest

from quantic.divisorial import v, v_lin, v_units
from quantic.errors import UndecidableFamily
from quantic.idl import down_closure_mask, idl
from quantic.instances import cyclic_group, powerset_prequantale
from quantic.lazy import ChainOmega, TruncationFamily, UPSet, map_family_sup
from quantic.nucleus import closure_from_preclosure, enumerate_nuclei
from quantic.poset import bits
from quantic.rings import (
    FiniteRing,
    ring_ideal_lattice,
    tight_closure_preclosure,
    tight_closure_star,
)


def test_tight_closure_hull_on_deeper_chain():
    # F_2[x]/(x^4): a five-ideal chain; the tight-closure aspirant T is already
    # a preclosure whose hull is computed by fixpoint iteration and must agree
    # with the scan of T-fixed ideals.
    lat = ring_ideal_lattice(FiniteRing.poly_quotient(2, [0, 0, 0, 0, 1], name="F2[x]/(x^4)"))
    assert lat.magma.n == 5
    t = tight_closure_preclosure(lat)
    hull = closure_from_preclosure(t)
    star = tight_closure_star(lat)
    assert hull.table == star.table
    fixed = [i for i in range(lat.magma.n) if t.table[i] == i]
    for i in range(lat.magma.n):
        assert star.table[i] == lat.magma.poset.inf([j for j in fixed if lat.magma.leq(i, j)])


def test_unit_sandwich_strategy_on_z3_powerset():
    carrier = powerset_prequantale(cyclic_group(3), drop_empty=True)
    m = carrier.magma
    one = carrier.element_of([0])
    via_units = v_units(m, one)
    via_lin = v_lin(m, one)
    assert via_units.table == via_lin.table == v(m, one).table
    top = m.poset.top
    assert tuple(v_units(m, top).table) == tuple(top for _ in range(m.n))


def test_down_multiplication_inclusion_scan(corpus):
    # The product of two down closures sits inside the down closure of the
    # elementwise product, for every pair of nonempty subsets.
    for name in ["chain3-join", "ideals-z4", "diamond-join"]:
        m = corpus[name]
        p = m.poset
        for xmask in range(1, 1 << p.n):
            for ymask in range(1, 1 << p.n):
                lhs = m.complex_mul_mask(
                    down_closure_mask(p, xmask), down_closure_mask(p, ymask)
                )
                rhs = down_closure_mask(p, m.complex_mul_mask(xmask, ymask))
                assert lhs & ~rhs == 0


def test_every_finite_ideal_is_sup_of_principal_ideals(corpus):
    m = corpus["ideals-z6"]
    comp = idl(m)
    q = comp.magma
    for i, mask in enumerate(comp.ideal_masks):
        principal_below = [comp.principal[x] for x in bits(mask)]
        assert q.poset.sup(principal_below) == i


def test_lazy_guards():
    chain = ChainOmega()
    assert chain.declared_profile["scott_topological"]
    # The chain rule answers when the defining set is nonempty and declines
    # otherwise; a family the carrier has no image-sup rule for is undecidable.
    assert chain.residual(1, 2) is None
    assert chain.residual(2, 1) == 2
    with pytest.raises(UndecidableFamily):
        map_family_sup(chain, chain.rule_map("d"), TruncationFamily(UPSet.naturals()))


def test_nonassociative_powerset_nucleus_count(corpus):
    # Classification and enumeration stay coherent away from associativity.
    m = corpus["powerset-nonassoc"]
    assert not m.profile.associative and m.profile.prequantale
    assert len(enumerate_nuclei(m)) == 3
