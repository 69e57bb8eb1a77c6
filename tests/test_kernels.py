"""The mask and row kernels of the proof obligations against the loops they replaced.

Each oracle below is the per-triple, per-subset or per-map loop that decided
the obligation before it was decided over whole bitmasks or table rows.  The
kernels must give the same answer on every input, closures or not, on the
carriers below and on random ordered magmas.
"""

import random
import time
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantic import cli, nucleus, verify
from quantic.cli import _parse_poly_spec
from quantic.divisorial import lin_monoid
from quantic.errors import HypothesisNotMet, InternalCheckError, StructureError
from quantic.magma import (
    MagmaMorphism,
    OrderedMagma,
    _is_poset_automorphism,
    _distributes_over_finite_nonempty,
    _translations_preserve_existing_sups,
    distinguished_sets,
)
from quantic.nucleus import MonotoneMap, enumerate_closures, enumerate_nuclei, pointwise_order
from quantic.poset import FinitePoset, bits, order_preserving, ub_scan_sup
from quantic.rings import PRIME_TEST_BOUND, FiniteRing, _is_prime, ring_ideal_lattice

from test_exhaustive_small import compatible_magmas, three_element_posets


# -- oracles ---------------------------------------------------------------------


def closure_single_axiom_loop(p, t):
    return all(p.leq(x, t[y]) == p.leq(t[x], t[y]) for x in range(p.n) for y in range(p.n))


def preclosure_loop(p, t):
    n = p.n
    return all(p.leq(x, t[x]) for x in range(n)) and all(
        p.leq(t[x], t[y]) for x in range(n) for y in range(n) if p.leq(x, y)
    )


def three_part_loop(p, t):
    n = p.n
    return (
        all(p.leq(x, t[x]) for x in range(n))
        and all(p.leq(t[x], t[y]) for x in range(n) for y in range(n) if p.leq(x, y))
        and all(t[t[x]] == t[x] for x in range(n))
    )


def nucleus_conditions_loop(m, t):
    p, n = m.poset, m.n
    closed = three_part_loop(p, t)
    c1 = closed and all(p.leq(m.op(t[x], t[y]), t[m.op(x, y)]) for x in range(n) for y in range(n))
    c2 = closed and all(t[m.op(t[x], t[y])] == t[m.op(x, y)] for x in range(n) for y in range(n))
    c3 = closed and all(
        p.leq(m.op(x, t[y]), t[m.op(x, y)]) and p.leq(m.op(t[x], y), t[m.op(x, y)])
        for x in range(n)
        for y in range(n)
    )
    return c1, c2, c3


def strict_loop(m, t):
    n = m.n
    return nucleus_conditions_loop(m, t)[0] and all(
        m.op(t[x], t[y]) == t[m.op(x, y)] for x in range(n) for y in range(n)
    )


def transportable_loop(m, t):
    n = m.n
    return sum(
        1 << a
        for a in range(n)
        if all(
            t[m.op(a, x)] == m.op(a, t[x]) and t[m.op(x, a)] == m.op(t[x], a) for x in range(n)
        )
    )


def unital_conditions_loop(m, t):
    p, n = m.poset, m.n
    cond2 = all(
        p.leq(m.op(x, y), t[z]) == p.leq(m.op(x, t[y]), t[z]) == p.leq(m.op(t[x], y), t[z])
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    cond3 = all(p.leq(x, t[x]) for x in range(n)) and all(
        p.leq(m.op(t[x], t[y]), t[z])
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if p.leq(m.op(x, y), t[z])
    )
    return cond2, cond3


@lru_cache(maxsize=1 << 16)
def sup_loop(p, mask):
    """The sup by a scan of the upper bounds, never by a lookup; equal posets
    share entries, the sup depending only on the order."""
    return ub_scan_sup(p, bits(mask))


def flag_scan_loop(p):
    complete = near = bounded = True
    for mask in range(1 << p.n):
        if sup_loop(p, mask) is None:
            complete = False
            if mask:
                near = False
                if p.upper_bounds(mask):
                    bounded = False
    return complete, near, bounded


def translations_loop(m):
    p = m.poset
    every = True
    for mask in range(1 << m.n):
        s = sup_loop(p, mask)
        if s is None:
            continue
        for a in range(m.n):
            if (
                sup_loop(p, m.complex_mul_mask(1 << a, mask)) != m.op(a, s)
                or sup_loop(p, m.complex_mul_mask(mask, 1 << a)) != m.op(s, a)
            ):
                if mask:
                    return False, False
                every = False
                break
    return True, every


def corestriction_loop(m, t):
    """Whether s(sup X) is the sup of s(X) in the induced order on the image."""
    p = m.poset
    members = sorted(set(t))
    index = {x: i for i, x in enumerate(members)}
    sub = p.restrict(members)
    for mask in range(1 << p.n):
        v = sup_loop(p, mask)
        if v is None:
            continue
        img = 0
        for x in bits(mask):
            img |= 1 << index[t[x]]
        if sup_loop(sub, img) != index[t[v]]:
            return False
    return True


def preserves_sups_loop(f):
    sp, tp = f.source.poset, f.target.poset
    for mask in range(1, 1 << sp.n):
        s = sup_loop(sp, mask)
        if s is None:
            continue
        fmask = 0
        for x in bits(mask):
            fmask |= 1 << f.table[x]
        if sup_loop(tp, fmask) != f.table[s]:
            return False
    return True


def distributes_loop(m):
    """The multiplicative-semilattice law, one (a, x, y) triple at a time."""
    p = m.poset
    if not p.flags.join_semilattice:
        return False
    for a in range(m.n):
        row = m.mul[a]
        for x in range(m.n):
            for y in range(x, m.n):
                j = p.join(x, y)
                if row[j] != p.join(row[x], row[y]):
                    return False
                if m.op(j, a) != p.join(m.op(x, a), m.op(y, a)):
                    return False
    return True


def lin_monoid_loop(m):
    """The translation monoid, each composition g o f built element by element."""
    n = m.n
    identity = tuple(range(n))
    gens = m.translations()
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = tuple(g[f[x]] for x in range(n))
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return sorted(seen)


def product_facts_loop(m):
    """Unit, annihilator, one-sided unit, associativity, commutativity, the
    units U(M) and the translations L_a, R_a, one product at a time."""
    p, op, els = m.poset, m.op, range(m.n)
    unit = next((u for u in els if all(op(u, x) == x == op(x, u) for x in els)), None)
    b = p.bottom
    annihilator = b if b is not None and all(op(b, x) == b == op(x, b) for x in els) else None
    one_sided = any(all(op(u, x) == x for x in els) or all(op(x, u) == x for x in els) for u in els)
    associative = all(op(op(x, y), z) == op(x, op(y, z)) for x in els for y in els for z in els)
    commutative = all(op(x, y) == op(y, x) for x in els for y in els)
    translations = [
        t for a in els for t in (tuple(op(a, x) for x in els), tuple(op(x, a) for x in els))
    ]
    units = tuple(
        u for u in els
        if automorphism_loop(p, translations[2 * u]) and automorphism_loop(p, translations[2 * u + 1])
    )
    return unit, annihilator, one_sided, associative, commutative, units, translations


# -- comparison helpers ----------------------------------------------------------------


def alternating_loop(first, second, n):
    """The n-fold alternating composition applying first first, one plain
    table composition at a time."""
    out = tuple(range(len(first)))
    for i in range(n):
        f = first if i % 2 == 0 else second
        out = tuple(f[x] for x in out)
    return out


def certified_composition_loop(m, s1, s2, bound):
    p = m.poset

    def below(u, w):
        return all(p.leq(x, y) for x, y in zip(u, w))

    for n in range(1, bound + 1):
        a, b = alternating_loop(s2, s1, n), alternating_loop(s1, s2, n)
        if below(b, a):
            return n, a
        if below(a, b):
            return n, b
    return None


def compat_failure_loop(p, mul):
    """The element-by-element order-compatibility check: the message of its
    first failure, or None."""
    n = p.n
    for x in range(n):
        for x2 in bits(p.up[x]):
            for y in range(n):
                for a, b, side in ((mul[x][y], mul[x2][y], "right"), (mul[y][x], mul[y][x2], "left")):
                    if not p.leq(a, b):
                        return (
                            f"multiplication not order-compatible: {x} <= {x2} "
                            f"but not {a} <= {b} ({side} factor {y})"
                        )
    return None


def compat_kernel(p, mul):
    try:
        OrderedMagma(p, mul)
    except StructureError as exc:
        return str(exc)
    return None


def order_preserving_loop(p, t, target):
    return all(target.leq(t[x], t[y]) for x in range(p.n) for y in range(p.n) if p.leq(x, y))


def automorphism_loop(p, t):
    if len(set(t)) != p.n:
        return False
    inv = [t.index(x) for x in range(p.n)]
    return order_preserving_loop(p, t, p) and order_preserving_loop(p, inv, p)


@lru_cache(maxsize=None)
def dual(p):
    return p.dual()


def assert_map_kernels_match(m, t):
    """Every byte-row decision on the table t against its loop."""
    p, row = m.poset, bytes(t)
    assert nucleus._closure_single_axiom(p, row) == closure_single_axiom_loop(p, t), t
    assert nucleus._three_part(p, row) == three_part_loop(p, t), t
    s = MonotoneMap(m, t)
    assert s.is_preclosure == preclosure_loop(p, t), t
    assert s.is_order_preserving == order_preserving_loop(p, t, p), t
    assert order_preserving(p, row, dual(p)) == order_preserving_loop(p, t, dual(p)), t
    assert _is_poset_automorphism(p, t) == automorphism_loop(p, t), t
    assert nucleus._nucleus_conditions(m, s) == nucleus_conditions_loop(m, t), t
    assert nucleus._unital_selfmap_conditions(m, s) == unital_conditions_loop(m, t), t
    assert nucleus.is_strict_nucleus(m, s) == strict_loop(m, t), t
    assert nucleus.transportable_mask(m, s) == transportable_loop(m, t), t


def assert_row_laws_match(m, seen=None):
    """The product's byte rows, the facts decided by whole-row comparisons,
    the row-wise law and the itemgetter monoid against their loops; adds each
    law answer to seen and returns the loop's product facts."""
    n = m.n
    assert len(m.mul) == len(m.cols) == n and len(m.flat) == n * n, m.name
    assert all(
        m.mul[x][y] == m.cols[y][x] == m.flat[x * n + y] == m.op(x, y) for x in range(n) for y in range(n)
    ), (m.name, m.mul)
    facts = product_facts_loop(m)
    kernels = (
        m.unit,
        m.annihilator,
        nucleus._one_sided_unital(m),
        m.profile.associative,
        m.profile.commutative,
        distinguished_sets(m).units,
        list(map(tuple, m.translations())),
    )
    assert kernels == facts, (m.name, m.mul)
    law = _distributes_over_finite_nonempty(m)
    assert law == distributes_loop(m), (m.name, m.mul)
    assert [tuple(f) for f in lin_monoid(m)] == lin_monoid_loop(m), (m.name, m.mul)
    if seen is not None:
        seen.add(law)
    return facts


def corestriction_kernel(m, t):
    try:
        nucleus._assert_corestriction_sup_preserving(m, MonotoneMap(m, t))
    except InternalCheckError:
        return False
    return True


def assert_scans_match(m, tables=(), seen=None):
    """The four subset scans against their loops; adds each answer to seen[scan]."""
    p = m.poset
    answers = {
        "flags": [(p._flag_scan(), flag_scan_loop(p))],
        "translations": [(_translations_preserve_existing_sups(m), translations_loop(m))],
        "corestriction": [],
        "morphism": [],
    }
    for t in tables:
        answers["corestriction"].append((corestriction_kernel(m, t), corestriction_loop(m, t)))
        f = MagmaMorphism(m, m, t)
        answers["morphism"].append((f.preserves_sups(), preserves_sups_loop(f)))
    for scan, pairs in answers.items():
        for kernel, loop in pairs:
            assert kernel == loop, (scan, m.name)
            if seen is not None:
                seen.setdefault(scan, set()).add(kernel)


def meet_lattice(p, name):
    return OrderedMagma(p, [[p.meet(i, j) for j in range(p.n)] for i in range(p.n)], name=name)


def chain_product(a, b):
    pairs = [(i, j) for i in range(a) for j in range(b)]
    return FinitePoset([[x[0] <= y[0] and x[1] <= y[1] for y in pairs] for x in pairs])


def scan_carriers(corpus):
    # The bowtie (0, 1 < 2, 3) is not bounded complete: {0, 1} has two
    # minimal upper bounds.
    bowtie = FinitePoset.from_covers([[2, 3], [2, 3], [], []])
    return {
        **corpus,
        "bowtie-constant": OrderedMagma(bowtie, [[0] * 4 for _ in range(4)], name="bowtie"),
        "chain10-meet": meet_lattice(FinitePoset.chain(10), "chain10-meet"),
        "bool3-meet": meet_lattice(FinitePoset.powerset(3), "bool3-meet"),
        "chain3x3-meet": meet_lattice(chain_product(3, 3), "chain3x3-meet"),
    }


# -- tests --------------------------------------------------------------------------


def test_map_kernels_match_the_loops_on_every_self_map_of_the_small_corpus(corpus):
    small = [m for m in corpus.values() if m.n <= 4]
    assert len(small) >= 15
    for m in small:
        for t in product(range(m.n), repeat=m.n):
            assert_map_kernels_match(m, t)


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_map_kernels_match_the_loops_on_the_three_element_sweep(pname):
    # The antichain has 19683 magmas; every 40th of them keeps this test
    # within seconds, the other four posets are swept whole.
    magmas = compatible_magmas(three_element_posets()[pname])
    if pname == "antichain":
        magmas = magmas[::40]
    for m in magmas:
        for t in product(range(3), repeat=3):
            assert_map_kernels_match(m, t)


@pytest.mark.parametrize(
    "row1, star11, verdicts",
    [
        # 1 * 1 read as 1 in the rows x* y is read from: only c3 fails.
        ((0, 1, 1), 0, (True, True, False)),
        # (1 * 1)* read as 1: x*y* stays below (xy)* but is not equal, so
        # only c2 fails.
        ((0, 0, 1), 1, (True, False, True)),
        # Both, with 1 * 0 read as 2: c2 and c3 fail while c1 holds.
        ((2, 0, 1), 1, (True, False, False)),
    ],
)
def test_each_nucleus_condition_is_decided_and_compared(row1, star11, verdicts):
    # The identity on I(Z/4) (mul rows 000, 001, 012) decided over byte rows
    # that no longer agree with each other: each corruption leaves a
    # different condition standing alone, so none may be skipped.
    m = ring_ideal_lattice(FiniteRing.zmod(4)).magma
    # The translate tables are built from the true rows and kept.
    assert m.row_tables[1][:3] == bytes([0, 0, 1])
    m.mul = m.mul[:1] + (bytes(row1),) + m.mul[2:]
    m.flat = m.flat[:4] + bytes([star11]) + m.flat[5:]
    with pytest.raises(InternalCheckError, match="nucleus characterizations disagree") as info:
        nucleus.is_nucleus(m, MonotoneMap.identity(m))
    assert str(info.value).endswith(f"on I(Z/4) (3 elements) at (0, 1, 2): {verdicts}")


@pytest.mark.parametrize("forms", [(False, True), (True, False)])
def test_each_unital_form_is_compared(monkeypatch, forms):
    m = ring_ideal_lattice(FiniteRing.zmod(4)).magma
    monkeypatch.setattr(nucleus, "_unital_selfmap_conditions", lambda m, s: forms)
    with pytest.raises(InternalCheckError, match="unital single-axiom nucleus forms disagree") as info:
        nucleus.is_nucleus(m, MonotoneMap.identity(m))
    assert str(info.value).endswith(f"on I(Z/4) (3 elements) at (0, 1, 2): {(True, *forms)}")


def test_subset_scans_match_the_loops(corpus):
    seen = {}
    for m in scan_carriers(corpus).values():
        if m.n <= 4:
            tables = list(product(range(m.n), repeat=m.n))
        else:
            # Every 8th closure: the loops take a second per 100 tables here.
            tables = [s.table for s in enumerate_closures(m)][::8]
        assert_scans_match(m, tables, seen)
    # Every scan answers False somewhere on these, so no comparison is vacuous.
    assert seen["morphism"] == seen["corestriction"] == {True, False}
    assert {i for answer in seen["flags"] for i, flag in enumerate(answer) if not flag} == {0, 1, 2}
    assert any(False in answer for answer in seen["translations"])


def test_subset_scans_match_the_loops_on_the_three_element_sweep():
    # Every 25th magma of each poset.  Unlike the corpus, these include
    # posets that are not near sup-complete and carriers whose translations
    # fail on a nonempty set.
    seen = {}
    for p in three_element_posets().values():
        for m in compatible_magmas(p)[::25]:
            assert_scans_match(m, seen=seen)
    assert any(answer[1] is False for answer in seen["flags"])
    assert (False, False) in seen["translations"] and (True, True) in seen["translations"]


def answered_facts(facts):
    """The answers each product fact took over facts: whether there is a
    unit, an annihilator, a one-sided unit, associativity, commutativity and
    whether U(M) is nonempty."""
    return [
        {f[0] is not None for f in facts},
        {f[1] is not None for f in facts},
        *({f[i] for f in facts} for i in (2, 3, 4)),
        {bool(f[5]) for f in facts},
    ]


def test_row_laws_match_the_loops(corpus):
    seen = set()
    facts = [assert_row_laws_match(m, seen) for m in scan_carriers(corpus).values()]
    assert seen == {True, False}
    # Every product fact takes both answers here, so no comparison is vacuous.
    assert answered_facts(facts) == [{True, False}] * 6


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_row_laws_match_the_loops_on_the_three_element_sweep(pname):
    # Every 10th magma of the antichain's 19683, every magma of the others.
    magmas = compatible_magmas(three_element_posets()[pname])
    if pname == "antichain":
        magmas = magmas[::10]
    seen = set()
    facts = [assert_row_laws_match(m, seen) for m in magmas]
    # Only the chain and the wedge are join semilattices, and on a chain
    # every order-compatible product distributes over max.
    assert seen == {"chain": {True}, "wedge": {True, False}}.get(pname, {False})
    if pname == "antichain":
        # The antichain has no bottom, hence no annihilator; every other
        # product fact takes both answers.
        assert answered_facts(facts) == [{True, False}, {False}] + [{True, False}] * 4


def test_join_and_meet_tables_match_least_of(corpus):
    posets = [m.poset for m in scan_carriers(corpus).values()]
    posets += [p for p in three_element_posets().values()]
    for p in posets:
        for i in range(p.n):
            for j in range(p.n):
                assert p.join_table[i][j] == p.least_of(p.up[i] & p.up[j])
                assert p.meet_table[i][j] == p.greatest_of(p.down[i] & p.down[j])
                assert p.join(i, j) == p.join_table[i][j] and p.meet(i, j) == p.meet_table[i][j]


def naturally_labelled_posets(n):
    """Every poset on range(n) in which index order is a linear extension:
    one of each isomorphism class, and more."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for choice in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                up[i] |= 1 << j
        if all(not up[j] & ~up[i] for i in range(n) for j in bits(up[i])):
            yield FinitePoset.from_up_masks(up)


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_compatibility_check_matches_the_loop_on_every_three_element_table(pname):
    p = three_element_posets()[pname]
    failures = 0
    for flat in product(range(3), repeat=9):
        mul = [flat[0:3], flat[3:6], flat[6:9]]
        expected = compat_failure_loop(p, mul)
        assert compat_kernel(p, mul) == expected, mul
        failures += expected is not None
    assert failures or pname == "antichain"


def test_compatibility_check_matches_the_loop_on_corrupted_tables():
    # Each poset gets a compatible constant table with one entry changed,
    # which breaks compatibility at many different triples, and random tables.
    rng = random.Random(5)
    witnesses = set()
    for n in (4, 5):
        for p in naturally_labelled_posets(n):
            for _ in range(6):
                mul = [[rng.randrange(n)] * n for _ in range(n)]
                mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                for table in (mul, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]):
                    expected = compat_failure_loop(p, table)
                    assert compat_kernel(p, table) == expected, (p.up, table)
                    witnesses.add(expected)
    assert len(witnesses) > 100


def test_principal_filter_lookups_match_least_of_on_every_subset():
    counts = Counter()
    for n in range(1, 6):
        for p in naturally_labelled_posets(n):
            counts[n] += 1
            for mask in range(1 << n):
                sup = p.sup_mask(mask)
                assert sup == p.least_of(p.upper_bounds(mask)) == sup_loop(p, mask), (p.up, mask)
                assert p.inf_mask(mask) == p.greatest_of(p.lower_bounds(mask)), (p.up, mask)
            assert p.top == p.greatest_of(p.universe) and p.bottom == p.least_of(p.universe)
    # The naturally labelled posets on up to five elements (OEIS A006455).
    assert [counts[n] for n in range(1, 6)] == [1, 2, 7, 40, 357]


def test_pointwise_order_matches_the_elementwise_comparison(corpus):
    for m in scan_carriers(corpus).values():
        if m.n > 9:
            continue
        p = m.poset
        maps = enumerate_closures(m)
        above = pointwise_order(p, maps)
        for i, s in enumerate(maps):
            for j, t in enumerate(maps):
                expected = all(p.leq(a, b) for a, b in zip(s.table, t.table))
                assert bool(above[i] >> j & 1) == expected == (s <= t)


def pair_carriers(corpus):
    return {**corpus, "ideals-z60": ring_ideal_lattice(FiniteRing.zmod(60)).magma}


def test_meet_table_matches_nuclei_meet_on_every_pair(corpus):
    for name, m in pair_carriers(corpus).items():
        maps = enumerate_nuclei(m)
        try:
            meets = nucleus.nuclei_meet_table(m)
        except HypothesisNotMet:
            with pytest.raises(HypothesisNotMet):
                [nucleus.nuclei_meet(m, [s, t]) for s in maps for t in maps]
            continue
        for i, s in enumerate(maps):
            for j, t in enumerate(maps):
                assert maps[meets[i][j]].table == nucleus.nuclei_meet(m, [s, t]).table, name


def test_certified_composition_matches_plain_tables(corpus):
    certified = 0
    for name, m in pair_carriers(corpus).items():
        maps = enumerate_nuclei(m)
        for s in maps:
            for t in maps:
                found = nucleus.certified_composition(m, s, t)
                expected = certified_composition_loop(
                    m, s.table, t.table, nucleus.COMPOSITION_BOUND
                )
                assert (found and (found[0], tuple(found[1].table))) == expected, (name, s, t)
                certified += found is not None and found[0] > 1
    # Some pairs need more than one alternation.
    assert certified


def preclosure_hull_loop(t):
    """Each element's orbit under t, followed one element at a time until it
    stops: on a finite carrier the closure generated by the preclosure t."""
    hull = []
    for x in range(len(t)):
        while t[x] != x:
            x = t[x]
        hull.append(x)
    return tuple(hull)


def test_composition_and_preclosure_hull_match_element_loops(corpus):
    rng = random.Random(5)
    moved = 0
    for name, m in corpus.items():
        n = m.n
        for _ in range(20):
            f, g = ([rng.randrange(n) for _ in range(n)] for _ in range(2))
            composed = MagmaMorphism(m, m, g).compose(MagmaMorphism(m, m, f))
            assert tuple(composed.table) == tuple(g[f[x]] for x in range(n)), name
        closures = enumerate_closures(m)[:12]
        for a in closures:
            for b in closures:
                # b o a is expansive and order preserving, so a preclosure.
                pre = MonotoneMap(m, [b.table[a.table[x]] for x in range(n)])
                hull = nucleus.closure_from_preclosure(pre)
                assert tuple(hull.table) == preclosure_hull_loop(pre.table), (name, pre)
                moved += hull != pre
    # Some preclosures need more than one step.
    assert moved


# -- residuals, nucleus image sets and seeded draws --------------------------------------


def residuals_loop(m):
    """Every defining set {z : z*a <= x} and {z : a*z <= x} scanned over z
    as a mask, its greatest element looked up in principal_down."""
    p, n, mul = m.poset, m.n, m.mul
    residuated = near = True
    at = []
    for x in range(n):
        row = []
        for a in range(n):
            left_set = right_set = 0
            for z in range(n):
                if (p.down[x] >> mul[z][a]) & 1:
                    left_set |= 1 << z
                if (p.down[x] >> mul[a][z]) & 1:
                    right_set |= 1 << z
            left, right = p.principal_down.get(left_set), p.principal_down.get(right_set)
            for defining, r in ((left_set, left), (right_set, right)):
                if not defining:
                    residuated = False
                elif r is None:
                    residuated = near = False
            row.append((left, right))
        at.append(row)
    return at, residuated, near


def meet_closed_loop(p, c):
    """Every meet of two members of c that exists lies in c."""
    elems = list(bits(c))
    for i, a in enumerate(elems):
        for b in elems[i:]:
            w = p.meet(a, b)
            if w is not None and not ((c >> w) & 1):
                return False
    return True


def residual_stable_loop(m, c):
    for x in bits(c):
        for r in m.residuals.at[x]:
            for side in (r.left, r.right):
                if side is not None and not ((c >> side) & 1):
                    return False
    return True


def two_element_magmas():
    out = []
    for p in (FinitePoset.antichain(2), FinitePoset.chain(2)):
        for flat in product(range(2), repeat=4):
            try:
                out.append(OrderedMagma(p, [flat[:2], flat[2:]]))
            except StructureError:
                pass
    return out


def image_candidates(m):
    """Every subset of a small carrier, every closure image of a larger one."""
    return range(1 << m.n) if m.n <= 4 else [s.image_mask() for s in enumerate_closures(m)]


def assert_residual_kernels_match(m, images, seen):
    table = m.residuals
    at = [[(r.left, r.right) for r in row] for row in table.at]
    assert (at, table.residuated, table.near_residuated) == residuals_loop(m), m.name
    seen.add(("residuated", table.residuated, table.near_residuated))
    residual_masks = nucleus._residual_masks(m)
    for c in images:
        stable = nucleus._residual_stable(residual_masks, c)
        assert stable == residual_stable_loop(m, c), (m.name, c)
        seen.add(("residual-stable", stable))


EVERY_OUTCOME = {
    ("residuated", True, True),
    ("residuated", False, True),
    ("residuated", False, False),
    ("residual-stable", True),
    ("residual-stable", False),
}


def test_residual_and_image_set_kernels_match_the_loops_on_the_corpus(corpus):
    seen = set()
    for m in scan_carriers(corpus).values():
        assert_residual_kernels_match(m, image_candidates(m), seen)
    assert seen == EVERY_OUTCOME


def test_residual_and_image_set_kernels_match_the_loops_on_every_small_magma():
    # Every compatible magma over the 2- and 3-element posets.
    magmas = two_element_magmas()
    for p in three_element_posets().values():
        magmas += compatible_magmas(p)
    seen = set()
    for m in magmas:
        assert_residual_kernels_match(m, range(1 << m.n), seen)
    assert seen == EVERY_OUTCOME


def test_every_closure_image_is_meet_closed():
    # If a and b are fixed with meet w, then w* <= a and w* <= b, so w* = w:
    # which is why the image-set nucleus route tests residuals alone.
    images = 0
    for n in range(1, 6):
        for p in naturally_labelled_posets(n):
            for s in enumerate_closures(p):
                assert meet_closed_loop(p, s.image_mask()), (p.up, s.table)
                images += 1
    assert images == 1900


def test_image_set_route_runs_and_agrees_where_bounded_completeness_fails(bowtie1_left, monkeypatch):
    # bowtie1-left and seeded tables on every naturally labelled poset on 4
    # and 5 elements that is not bounded complete, kept when near residuated.
    rng = random.Random(12)
    carriers = [bowtie1_left] + [
        m
        for n in (4, 5)
        for p in naturally_labelled_posets(n)
        if not p.flags.bounded_complete
        for m in (grown_magma(p, rng.choice) for _ in range(100))
        if m is not None and m.profile.near_residuated
    ]
    route, routed = nucleus._nuclei_by_image_sets, []

    def counted(m, closures):
        routed.append((m, route(m, closures)))
        return routed[-1][1]

    monkeypatch.setattr(nucleus, "_nuclei_by_image_sets", counted)
    for m in carriers:
        assert not m.profile.bounded_complete
        enumerate_nuclei(m)
    assert [m for m, _ in routed] == carriers
    for m, found in routed:
        assert found == [s for s in enumerate_closures(m) if nucleus.is_nucleus(m, s)], m.mul
    assert len(carriers) > 20 and len(routed[0][1]) == 13
    assert any(len(found) < len(enumerate_closures(m)) for m, found in routed)

@pytest.mark.parametrize("seed", [0, 1, 1251, 2**40 + 3, "corpus-sweep"])
def test_seeded_draws_are_the_randrange_and_choice_stream(seed):
    # A Python whose randrange or choice draws differently fails here, rather
    # than silently changing every seeded sample.
    sizes = [n for n in range(1, 65) for _ in range(4)]
    rng, ours = random.Random(seed), random.Random(seed)
    assert verify._draws(ours, sizes) == [rng.randrange(n) for n in sizes]
    seqs = [list(range(n, 3 * n)) for n in sizes]
    assert [seq[i] for seq, i in zip(seqs, verify._draws(ours, map(len, seqs)))] == [
        rng.choice(seq) for seq in seqs
    ]
    assert ours.getstate() == rng.getstate()


def test_sampled_maps_are_the_randrange_tables(corpus):
    for m in corpus.values():
        rng = random.Random(verify.SEED + m.n)
        expected = [tuple(rng.randrange(m.n) for _ in range(m.n)) for _ in range(verify.SAMPLE_MAPS)]
        assert [tuple(s.table) for s in verify._random_maps(m)] == expected, m.name


# -- the rings layer --------------------------------------------------------------------


def ring_laws_loop(add, mul, zero, one):
    """The first failing ring law as (law, witness), or None: the tuple-row
    check the byte rows replaced, with the witness z the first element where
    the two rows of the failing law differ."""
    n = len(add)
    add = tuple(tuple(r) for r in add)
    mul = tuple(tuple(r) for r in mul)
    for x in range(n):
        if add[zero][x] != x or mul[one][x] != x:
            return "zero or one fails its law", f"x = {x}"
        if mul[zero][x] != zero:
            return "zero is not absorbing", f"x = {x}"
        for y in range(n):
            if add[x][y] != add[y][x] or mul[x][y] != mul[y][x]:
                return "ring is not commutative", f"(x, y) = ({x}, {y})"

    def read(row, at):
        """row read at every entry of at: the composition row o at, as a tuple."""
        return tuple(row[z] for z in at)

    for x, (ax, mx) in enumerate(zip(add, mul)):
        for y in range(n):
            for law, lhs, rhs in (
                ("addition not associative", add[ax[y]], read(ax, add[y])),
                ("multiplication not associative", mul[mx[y]], read(mx, mul[y])),
                ("distributivity fails", read(mx, add[y]), read(add[mx[y]], mul[x])),
            ):
                if lhs != rhs:
                    z = next(z for z in range(n) if lhs[z] != rhs[z])
                    return law, f"(x, y, z) = ({x}, {y}, {z})"
    for x in range(n):
        if zero not in add[x]:
            return "additive inverse missing", f"x = {x}"
    return None


def corrupted_tables(add, mul, seed, count):
    """count seeded corruptions of a ring's tables (zero 0, one 1): a changed
    entry of either table, mirrored or not, or either table relabelled by
    swapping two elements other than 0 and 1, which keeps that table a
    commutative monoid and breaks distributivity."""
    rng = random.Random(seed)
    n = len(add)
    for _ in range(count):
        tables = [[list(r) for r in add], [list(r) for r in mul]]
        t = tables[rng.randrange(2)]
        kind = rng.choice(("entry", "mirrored", "mirrored", "relabel"))
        if kind == "relabel" and n > 3:
            a, b = rng.sample(range(2, n), 2)
            swap = list(range(n))
            swap[a], swap[b] = b, a
            t[:] = [[swap[t[swap[x]][swap[y]]] for y in range(n)] for x in range(n)]
        else:
            x, y = rng.randrange(n), rng.randrange(n)
            t[x][y] = rng.randrange(n)
            if kind != "entry":
                t[y][x] = t[x][y]
        yield tables


def poly_mul_loop(p, modulus, a, b):
    """a*b in F_p[x]/(f) by schoolbook multiplication and reduction, on
    coefficient lists, low degree first."""
    deg = len(modulus) - 1
    out = [0] * (2 * deg)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for k in range(2 * deg - 1, deg - 1, -1):
        c = out[k]
        if c:
            for j in range(deg + 1):
                out[k - deg + j] = (out[k - deg + j] - c * modulus[j]) % p
    return out[:deg]


def digits(i, p, deg):
    return [i // p ** d % p for d in range(deg)]


def ideal_product_loop(ring, a, b):
    """I*J by the definition: the additive closure of the products xy."""
    prods = {ring.mul[x][y] for x in bits(a) for y in bits(b)}
    span, frontier = {ring.zero}, [ring.zero]
    while frontier:
        s = frontier.pop()
        for g in prods:
            t = ring.add[s][g]
            if t not in span:
                span.add(t)
                frontier.append(t)
    return sum(1 << x for x in span)


# Every --poly spec the benchmark runs, and two larger ones.
POLY_SPECS = (
    "2,x^4", "3,x^3", "2,x^6+x^5+x^4+x^3",
    "2,x^2", "2,x^2+1", "3,x^2", "3,x^2+x+1", "5,x^2", "5,x^2+2x+1",
    "3,x^4+x+2", "5,x^3+x+1",
)


def poly_ring(spec):
    p, coeffs, pretty = _parse_poly_spec(spec)
    return FiniteRing.poly_quotient(p, coeffs, name=f"F_{p}[x]/({pretty})")


def test_ring_validation_matches_the_tuple_rows_on_corrupted_tables():
    seen = Counter()
    rings = [FiniteRing.zmod(n) for n in (6, 8, 12, 30)]
    rings.append(FiniteRing.poly_quotient(2, [0, 0, 0, 0, 1], name="F2[x]/(x^4)"))
    for ring in rings:
        for add, mul in corrupted_tables(ring.add, ring.mul, f"rings:{ring.name}", 70):
            expected = ring_laws_loop(add, mul, 0, 1)
            seen[expected and expected[0]] += 1
            if expected is None:
                assert FiniteRing(add, mul, 0, 1).n == ring.n
                continue
            with pytest.raises(StructureError) as info:
                FiniteRing(add, mul, 0, 1, name=ring.name)
            law, at = expected
            assert str(info.value) == f"{law} on {ring.name} ({ring.n} elements) at {at}"
    # Each law is the first to fail somewhere, and some corruptions are rings.
    assert set(seen) >= {
        None,
        "zero or one fails its law",
        "zero is not absorbing",
        "ring is not commutative",
        "addition not associative",
        "multiplication not associative",
        "distributivity fails",
    }, seen


def test_ring_tables_need_entries_in_range():
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul = [[(i * j) % 3 for j in range(3)] for i in range(3)]
    for bad_add, bad_mul, zero in (
        (add, [r[:] for r in mul[:2]], 0),
        (add, [[0, 0, 0], [0, 1, 2], [0, 2, 3]], 0),
        (add, [[0, 0, 0], [0, 1, 2], [0, 2, -1]], 0),
        (add, [[0, 0, 0], [0, 1, 2], [0, 2]], 0),
        (add, [0, 1, 2], 0),
        (add, mul, 3),
    ):
        with pytest.raises(StructureError, match=r"on ring \(3 elements\)"):
            FiniteRing(bad_add, bad_mul, zero, 1)


def test_ideal_products_match_the_element_pairs():
    rings = [FiniteRing.zmod(n) for n in range(1, 61)] + [poly_ring(s) for s in POLY_SPECS]
    for ring in rings:
        lat = ring_ideal_lattice(ring)
        for i, a in enumerate(lat.ideals):
            for j, b in enumerate(lat.ideals):
                assert lat.ideals[lat.magma.mul[i][j]] == ideal_product_loop(ring, a, b), ring


def test_poly_tables_match_schoolbook_arithmetic():
    for spec in POLY_SPECS:
        p, coeffs, _ = _parse_poly_spec(spec)
        ring = poly_ring(spec)
        deg = len(coeffs) - 1
        elems = [digits(i, p, deg) for i in range(ring.n)]
        for a, da in enumerate(elems):
            for b, db in enumerate(elems):
                assert digits(ring.add[a][b], p, deg) == [(u + w) % p for u, w in zip(da, db)]
                assert digits(ring.mul[a][b], p, deg) == poly_mul_loop(p, coeffs, da, db), spec


@pytest.mark.parametrize(
    "args",
    [
        ["make", "ring", "--zmod", "100000"],
        ["make", "module-system-lattice", "--group", "Z3000"],
        # A prime far over the cap, and an order at the bound of the
        # primality test, refused by the cap without deciding primality.
        ["make", "ring", "--poly", "1000000000000000003,x"],
        ["make", "ring", "--poly", f"{PRIME_TEST_BOUND},x"],
    ],
)
def test_over_cap_bases_are_refused_before_any_table(args, capsys):
    start = time.perf_counter()
    code = cli.main(args)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1 and elapsed < 0.1
    assert len(err.splitlines()) == 1 and "capped at" in err and "Traceback" not in err


def trial_division_loop(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_matches_trial_division_and_rejects_strong_pseudoprimes():
    assert all(_is_prime(n) == trial_division_loop(n) for n in range(-3, 100_000))
    # Strong pseudoprimes to every base up to 2, 7, 23 and 37 in turn; the
    # last needs the base 41.
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    assert _is_prime(1000000000000000003) and _is_prime(2 ** 61 - 1)


def test_a_composite_order_below_the_bound_is_malformed_before_the_cap(capsys):
    assert cli.main(["make", "ring", "--poly", "318665857834031151167461,x"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "prime order" in err


# -- random ordered magmas --------------------------------------------------------------


def grown_magma(p, pick):
    """An order-compatible multiplication on p, whose index order must be a
    linear extension, built one product at a time: each product is
    pick(choices) among the common upper bounds of the products already fixed
    below it.  None at a dead end."""
    n = p.n
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            allowed = p.universe
            for x2 in bits(p.down[x]):
                for y2 in bits(p.down[y]):
                    if (x2, y2) != (x, y):
                        allowed &= p.up[mul[x2][y2]]
            # Index order is a linear extension, so every product below
            # (x, y) is already fixed.
            choices = list(bits(allowed))
            if not choices:
                return None
            mul[x][y] = pick(choices)
    return OrderedMagma(p, mul, name="random")


@st.composite
def ordered_magmas(draw, max_n=5):
    """A random poset on n <= max_n elements (index order is a linear
    extension) and grown_magma on it; a dead end falls back to a fresh draw."""
    n = draw(st.integers(1, max_n))
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= up[j]
    m = grown_magma(FinitePoset.from_up_masks(up), lambda choices: draw(st.sampled_from(choices)))
    return m if m is not None else draw(ordered_magmas(max_n))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(m=ordered_magmas(), data=st.data())
def test_kernels_equal_the_loops_on_random_ordered_magmas(m, data):
    n = m.n
    tables = [s.table for s in enumerate_closures(m)]
    tables += [tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))]
    for t in tables:
        assert_map_kernels_match(m, t)
    assert_scans_match(m, tables)
    assert_row_laws_match(m)
    assert_residual_kernels_match(m, image_candidates(m), set())
    try:
        m.profile
        enumerate_nuclei(m)
    except InternalCheckError as exc:  # pragma: no cover - the property under test
        pytest.fail(f"InternalCheckError on {m.mul} over {m.poset.up}: {exc}")
