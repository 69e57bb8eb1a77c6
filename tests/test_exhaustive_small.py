"""Exhaustive micro-corpus: every ordered magma on three elements.

Every order-compatible multiplication over every 3-element poset is
constructed; classification runs its internal cross-validations on each one,
and the implication diagram plus the annihilator-adjunction equivalence are
asserted globally.  This is the densest net the desk scale affords.
"""

from itertools import product

import pytest

from quantic.magma import OrderedMagma, adjoin_annihilator, check_profile_implications
from quantic.corpus import standard_corpus
from quantic.nucleus import enumerate_closures, enumerate_closures_bruteforce, is_nucleus, nucleus_lattice
from quantic.poset import FinitePoset
from quantic.errors import StructureError


def three_element_posets():
    # All posets on {0,1,2} up to isomorphism: antichain, one edge, chain,
    # vee (one below two), wedge (two below one).
    return {
        "antichain": FinitePoset.antichain(3),
        "one-edge": FinitePoset.from_covers([[1], [], []]),
        "chain": FinitePoset.chain(3),
        "vee": FinitePoset.from_covers([[1, 2], [], []]),
        "wedge": FinitePoset.from_covers([[2], [2], []]),
    }


def compatible_magmas(p):
    out = []
    for flat in product(range(3), repeat=9):
        table = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        ok = True
        for x in range(3):
            for x2 in range(3):
                if not p.leq(x, x2):
                    continue
                for y in range(3):
                    if not (p.leq(table[x][y], table[x2][y]) and p.leq(table[y][x], table[y][x2])):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(OrderedMagma(p, table))
    return out


def scanned_residuals(m):
    """Oracle for the residual table: every defining set scanned afresh, its
    greatest element found by comparing members pairwise."""
    p, n = m.poset, m.n
    residuated = near = True
    at = []
    for x in range(n):
        row = []
        for a in range(n):
            sides = []
            for defining in (
                [z for z in range(n) if p.leq(m.op(z, a), x)],
                [z for z in range(n) if p.leq(m.op(a, z), x)],
            ):
                greatest = [g for g in defining if all(p.leq(z, g) for z in defining)]
                if not defining:
                    residuated = False
                elif not greatest:
                    residuated = near = False
                sides.append(greatest[0] if greatest else None)
            row.append(tuple(sides))
        at.append(row)
    return at, residuated, near


def assert_residual_table_matches_scan(m):
    table = m.residuals
    at = [list(zip(left, right)) for left, right in zip(table.left, table.right)]
    assert (at, table.residuated, table.near_residuated) == scanned_residuals(m)


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_every_three_element_ordered_magma_classifies_coherently(pname):
    p = three_element_posets()[pname]
    magmas = compatible_magmas(p)
    assert magmas
    for m in magmas:
        profile = m.profile  # internal cross-validations run here
        check_profile_implications(profile, pname)
        with_zero = adjoin_annihilator(m)
        assert profile.near_prequantale == with_zero.profile.prequantale
        assert_residual_table_matches_scan(m)


def test_sweep_reaches_every_residuation_class():
    seen = set()
    for p in three_element_posets().values():
        for m in compatible_magmas(p):
            seen.add((m.residuals.residuated, m.residuals.near_residuated))
    assert seen == {(True, True), (False, True), (False, False)}


def test_residual_table_matches_scan_on_the_corpus(corpus):
    for m in corpus.values():
        assert_residual_table_matches_scan(m)


def test_residual_table_matches_scan_on_the_ring_and_nucleus_lattices(rings):
    level1 = nucleus_lattice(standard_corpus()["diamond-join"]).magma
    level2 = nucleus_lattice(level1).magma
    assert (level1.n, level2.n) == (7, 37)
    for m in [lat.magma for lat in rings.values()] + [level1, level2]:
        assert_residual_table_matches_scan(m)


def test_counts_of_compatible_multiplications_are_stable():
    # Frozen from the construction itself.  Two independent anchors: the
    # antichain makes compatibility vacuous (3^9 tables), and compatible
    # tables on the chain are monotone maps from the 3x3 grid into a 3-chain,
    # i.e. plane partitions in a 3x3x2 box, which count to 175.  Duality pairs
    # the vee and wedge counts.
    counts = {name: len(compatible_magmas(p)) for name, p in three_element_posets().items()}
    assert counts["antichain"] == 3 ** 9
    assert counts["vee"] == counts["wedge"]
    assert counts == {
        "antichain": 19683,
        "one-edge": 336,
        "chain": 175,
        "vee": 197,
        "wedge": 197,
    }


def test_nucleus_filter_on_every_chain_magma():
    p = FinitePoset.chain(3)
    for m in compatible_magmas(p):
        closures = enumerate_closures(m)
        brute = [
            s for s in enumerate_closures_bruteforce(m) if is_nucleus(m, s)
        ]
        filtered = [s for s in closures if is_nucleus(m, s)]
        assert [s.table for s in brute] == [s.table for s in filtered]


def test_moore_family_count_on_the_three_atom_powerset():
    # Closure operations on the subset lattice of a 3-element set, counted by
    # both enumeration routes.
    b3 = FinitePoset.powerset(3)
    image_route = enumerate_closures(b3)
    assert len(image_route) == 61
