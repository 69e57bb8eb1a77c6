"""The mask and row kernels of the proof obligations against the loops they replaced.

Each oracle below is the per-triple, per-subset or per-map loop that decided
the obligation before it was decided over whole bitmasks or table rows.  The
kernels must give the same answer on every input, closures or not, on the
carriers below and on random ordered magmas.
"""

import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import chain, combinations, product
from operator import or_

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantic import cli, idl, nucleus, verify
from quantic.cli import _parse_poly_spec
from quantic.corpus import standard_corpus
from quantic.divisorial import lin_monoid, v_lin, v_rs, v_units
from quantic.errors import CarrierTooLarge, HypothesisNotMet, InternalCheckError, StructureError
from quantic.idl import down_closure_mask
from quantic.instances import cyclic_group, left_zero, module_system_lattice, plain_magma, powerset_prequantale
from quantic.magma import (
    MagmaMorphism,
    OrderedMagma,
    _distributes_over_finite_nonempty,
    _law_failures,
    _parting_subset,
    _translations_preserve_existing_sups,
    distinguished_sets,
    is_sup_spanning,
)
from quantic.nucleus import MonotoneMap, enumerate_closures, enumerate_nuclei, is_closure, pointwise_order
from quantic.poset import FinitePoset, all_below, bits, byte_lanes, carrier_label, id_mask, lane_code, order_preserving
from quantic.poset import order_preserving_each, translate_table
from quantic.poset import EXHAUSTIVE_CAP, SUBSET_BLOCK, lanes_within, mask_row, row_mask, subset_masks, subset_table
from quantic.poset import sup_misses, ub_scan_sup
from quantic.rings import (
    PRIME_TEST_BOUND,
    FiniteRing,
    _additive_generators,
    _first_failure,
    _is_prime,
    ring_ideal_lattice,
)
from quantic.verify import run_all

from conftest import automorphism_loop, corrupted_kernel, invertible_loop, law_failures_by_lists, lin_masks_loop
from conftest import complemmacor_loop, magma_hom_loop, nf_loop, nf_monoid_loop, order_preserving_loop
from conftest import sandwich_masks_loop, subset_walk
from conftest import sup_misses_walk, sup_spanning_loop, units_loop, v_units_loop, witness_masks
from test_exhaustive_small import compatible_magmas, three_element_posets


# -- oracles ---------------------------------------------------------------------


def closure_single_axiom_loop(p, t):
    return all(p.leq(x, t[y]) == p.leq(t[x], t[y]) for x in range(p.n) for y in range(p.n))


def preclosure_loop(p, t):
    n = p.n
    return all(p.leq(x, t[x]) for x in range(n)) and all(
        p.leq(t[x], t[y]) for x in range(n) for y in range(n) if p.leq(x, y)
    )


def closure_image_walk(p):
    """The 2**n image walk enumerate_closures ran before its search: a subset
    c holding every maximal element is a closure image when each x has a
    least member of c above it, which is x*.  The tables, ascending."""
    maximal = id_mask(x for x in range(p.n) if p.up[x] == 1 << x)
    tables = []
    for c in range(1 << p.n):
        if c & maximal == maximal:
            stars = [p.least_of(c & up) for up in p.up]
            if None not in stars:
                tables.append(bytes(stars))
    return sorted(tables)


def expansive_loop(p, t):
    return all(p.leq(x, t[x]) for x in range(p.n))


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
    return cond2, unital_form3_loop(m, t)


def unital_form3_loop(m, t):
    p, n = m.poset, m.n
    return all(p.leq(x, t[x]) for x in range(n)) and all(
        p.leq(m.op(t[x], t[y]), t[z])
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if p.leq(m.op(x, y), t[z])
    )


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
    units U(M), the invertibles Inv(M) and the translations L_a, R_a, one
    product at a time."""
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
    return unit, annihilator, one_sided, associative, commutative, units, invertible_loop(m), translations


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


@lru_cache(maxsize=None)
def dual(p):
    return FinitePoset.from_up_masks(p.down, p.labels)


def assert_map_kernels_match(m, tables):
    """Every byte-row decision on the tables against its loop, table by
    table: the chunk kernel's verdicts over all the tables in one call, on
    the poset and on the magma, and the verdicts _decide_nuclei writes,
    deciding them in chunks on a fresh copy of m.  The tables may mix
    closures, expansive non-closures and non-expansive maps, so each
    condition is read where its premise holds and where it does not."""
    p, rows, identity = m.poset, [bytes(t) for t in tables], bytes(range(m.n))
    closures = nucleus._chunk_verdicts(p, rows)
    verdicts = nucleus._chunk_verdicts(m, rows)
    unital = m.unit is not None or nucleus._one_sided_unital(m)
    fresh = OrderedMagma(p, m.mul, name=m.name)
    nucleus._decide_nuclei(fresh, rows)
    for t, row, closure, verdict in zip(tables, rows, closures, verdicts, strict=True):
        assert closure == verdict[:2] == (three_part_loop(p, t), closure_single_axiom_loop(p, t)), t
        assert verdict[2:6] == (*nucleus_conditions_loop(m, t), strict_loop(m, t)), t
        assert verdict[6:] == (unital_conditions_loop(m, t) if unital else ()), t
        assert fresh._memo["nucleus", row] == (verdict[2], verdict[5]), t
        assert p._memo["closure", row] == verdict[0], t
        s = MonotoneMap(m, t)
        assert s.is_preclosure == preclosure_loop(p, t), t
        assert s.is_order_preserving == order_preserving_loop(p, t, p), t
        assert order_preserving(p, row, dual(p)) == order_preserving_loop(p, t, dual(p)), t
        # U(M)'s test of one line: a permutation that, with its inverse,
        # preserves the order.
        if len(set(row)) == p.n:
            inverse = identity.translate(bytes.maketrans(row, identity))
            assert row.translate(translate_table(inverse)) == identity, t
        automorphism = len(set(row)) == p.n and all(order_preserving_each(p, [row, inverse]))
        assert automorphism == automorphism_loop(p, t), t
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
        distinguished_sets(m).invertible,
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
        # Up to 4**4 = 256 tables in one batch.
        assert_map_kernels_match(m, list(product(range(m.n), repeat=m.n)))


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_map_kernels_match_the_loops_on_the_three_element_sweep(pname):
    # The antichain has 19683 magmas; every 40th of them keeps this test
    # within seconds, the other four posets are swept whole.
    magmas = compatible_magmas(three_element_posets()[pname])
    if pname == "antichain":
        magmas = magmas[::40]
    for m in magmas:
        assert_map_kernels_match(m, list(product(range(3), repeat=3)))


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
    # The identity on I(Z/4) is a nucleus: the kernel reports one of its
    # unital forms False, form 2 and then form 3.
    m = ring_ideal_lattice(FiniteRing.zmod(4)).magma
    monkeypatch.setattr(nucleus, "_chunk_verdicts", corrupted_kernel("form3" if forms[0] else "form2", False))
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
    whether U(M) and Inv(M) are nonempty."""
    return [
        {f[0] is not None for f in facts},
        {f[1] is not None for f in facts},
        *({f[i] for f in facts} for i in (2, 3, 4)),
        {bool(f[5]) for f in facts},
        {bool(f[6]) for f in facts},
    ]


def test_row_laws_match_the_loops(corpus):
    seen = set()
    facts = [assert_row_laws_match(m, seen) for m in scan_carriers(corpus).values()]
    assert seen == {True, False}
    # Every product fact takes both answers here, so no comparison is vacuous.
    assert answered_facts(facts) == [{True, False}] * 7


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
        assert answered_facts(facts) == [{True, False}, {False}] + [{True, False}] * 5


def run_outcome(fn, *args):
    """fn(*args), or the class and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_element_scans_match(m, sigmas, tables, seen=None):
    """U(M), Inv(M), sup-spanning, magma homs, the witness masks of the Lin
    and sandwich strategies of v, the unit-sandwich table and the Nf row
    against their loops; adds to seen each sup-spanning and hom answer, the
    name of each strategy that answered and the Nf row's status."""
    ds = distinguished_sets(m)
    assert (ds.units, ds.invertible) == (units_loop(m), invertible_loop(m)), m.name
    answers = [(is_sup_spanning(m, sigma), sup_spanning_loop(m, sigma)) for sigma in sigmas]
    for t in tables:
        f = MagmaMorphism(m, m, t)
        answers.append((f.is_magma_hom(), magma_hom_loop(f)))
    seen = set() if seen is None else seen
    for kernel, loop in answers:
        assert kernel == loop, m.name
        seen.add(kernel)
    for a in range(m.n):
        for strategy, loop in ((v_lin, lin_masks_loop), (v_rs, sandwich_masks_loop)):
            masks = run_outcome(witness_masks, strategy, m, a)
            if masks[0] is not HypothesisNotMet:
                assert masks == loop(m, a), (m.name, a, strategy.__name__)
                seen.add(strategy.__name__)
        units_table = run_outcome(v_units, m, a)
        loop_table = v_units_loop(m, a)
        if loop_table is None:
            assert units_table[0] is HypothesisNotMet, (m.name, a)
        else:
            assert list(units_table.table) == loop_table, (m.name, a)
            seen.add("v_units")
    nf = run_outcome(verify._check_nf, m)
    assert nf == run_outcome(nf_loop, m), m.name
    seen.add(nf[0])


def element_scan_inputs(m, rng):
    """Subsets Sigma for is_sup_spanning and self-maps for is_magma_hom: U(M),
    every element, none and four seeded subsets; the identity, each constant
    map (a hom exactly at an idempotent) and four seeded tables."""
    n = m.n
    sigmas = [distinguished_sets(m).units, range(n), ()]
    sigmas += [list(bits(rng.getrandbits(n))) for _ in range(4)]
    tables = [tuple(range(n))] + [(c,) * n for c in range(n)]
    tables += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(4)]
    return sigmas, tables


def element_scan_carriers(corpus):
    """The corpus, I(Z/60), I(Z/210), Z3's lattice, 2^5 under meet and the
    power set of {1, a, b} with a x = a and b x = b, whose product is not
    commutative."""
    left = powerset_prequantale(plain_magma(["1", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]])).magma
    return [
        *corpus.values(),
        ring_ideal_lattice(FiniteRing.zmod(60)).magma,
        ring_ideal_lattice(FiniteRing.zmod(210)).magma,
        module_system_lattice(cyclic_group(3)).magma,
        meet_lattice(FinitePoset.powerset(5), "bool5-meet"),
        left,
    ]


def test_element_scans_match_the_loops(corpus):
    rng, seen = random.Random(27), set()
    for m in element_scan_carriers(corpus):
        assert_element_scans_match(m, *element_scan_inputs(m, rng), seen)
    assert seen >= {True, False, "v_lin", "v_rs", "v_units", "pass", CarrierTooLarge}, seen


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_element_scans_match_the_loops_on_the_three_element_sweep(pname):
    # Every 10th magma of the antichain's 19683, every magma of the others;
    # every subset and every self-map of each.
    magmas = compatible_magmas(three_element_posets()[pname])
    if pname == "antichain":
        magmas = magmas[::10]
    subsets = [list(bits(mask)) for mask in range(8)]
    seen = set()
    for m in magmas:
        assert_element_scans_match(m, subsets, list(product(range(3), repeat=3)), seen)
    assert {True, False} <= seen, seen


def test_nf_fails_with_its_loop_where_the_join_table_is_wrong(monkeypatch):
    # Each pair's join read as its first nucleus, wrong wherever the second
    # is not below the first: the lane-code route and the per-element sups
    # both FAIL the row.
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    wrong = tuple((i,) * len(row) for i, row in enumerate(nucleus.nuclei_join_table(m)))
    for module in (verify, nucleus):
        monkeypatch.setattr(module, "nuclei_join_table", lambda q: wrong)
    assert verify._check_nf(m) == nf_loop(m) == ("fail", "composition-monoid supremum misses the join")


def chain_meet(n):
    return meet_lattice(FinitePoset.chain(n), f"chain{n}-meet")


def pass_verdicts(m, pairs=None):
    """The Nf and complemmacor verdicts of the slot-encoded pass over pairs
    (every i <= j by default), as the rows' (status, detail)."""
    if not m.profile.near_prequantale:
        nf = "skip", "needs a small near prequantale"
    elif nucleus.composition_sups_match(m, pairs):
        nf = "pass", ""
    else:
        nf = "fail", "composition-monoid supremum misses the join"
    certified = nucleus.certified_compositions(m, pairs)
    if certified is None:
        return nf, ("fail", "certified composition disagrees with the join")
    return nf, ("pass", f"{certified} certified pairs")


def loop_verdicts(m, pairs=None):
    return nf_monoid_loop(m, pairs), complemmacor_loop(m, pairs)


def test_the_pair_rows_match_their_per_pair_loops(corpus, bowtie1_left):
    # Every pair of the corpus, I(Z/60), N(diamond-join) (37 nuclei) and
    # chain-9 under meet (256 nuclei, 32,896 pairs), and two carriers where
    # the join formula does not apply, so complemmacor's pass certifies its
    # compositions as nuclei itself.
    carriers = [
        *corpus.values(),
        ring_ideal_lattice(FiniteRing.zmod(60)).magma,
        nucleus.nucleus_lattice(corpus["diamond-join"]).magma,
        chain_meet(9),
        bowtie1_left,
        plain_magma(["a", "b", "c"], [[0] * 3] * 3),
    ]
    seen = set()
    for m in carriers:
        rows = tuple((r.status, r.detail) for r in run_all(m, names=["complemmacor", "Nf"]))
        nf, complemmacor = loop_verdicts(m)
        assert rows == (complemmacor, nf) == pass_verdicts(m)[::-1], m.name
        assert nf[0] == "skip" or nf_loop(m) == nf, m.name
        seen.add((nucleus.join_formula_applies(m), nf[0], complemmacor[0]))
    assert seen == {(True, "pass", "pass"), (False, "skip", "pass")}, seen
    assert [r.detail for r in run_all(chain_meet(9), names=["complemmacor"])] == ["65500 certified pairs"]


def test_the_pair_rows_match_their_per_pair_loops_on_seeded_pairs_of_the_left_zero_power_set():
    # 16 elements and 2,272 nuclei: 2,000 seeded pairs, each i <= j.
    m = powerset_prequantale(left_zero(4)).magma
    k = len(enumerate_nuclei(m))
    rng = random.Random(28)
    pairs = tuple(tuple(sorted((rng.randrange(k), rng.randrange(k)))) for _ in range(2000))
    assert k == 2272 and len(set(pairs)) > 1900
    verdicts = pass_verdicts(m, pairs)
    assert verdicts == loop_verdicts(m, pairs) and verdicts[0] == ("pass", ""), verdicts


def test_a_wrong_join_entry_fails_both_pair_rows_with_their_loops(monkeypatch):
    # One entry of chain-9's join table, at a pair i < j with nucleus i
    # below nucleus j, names nucleus i: the pass and the loops both FAIL.
    m = chain_meet(9)
    maps, (_, above, _) = enumerate_nuclei(m), nucleus.nucleus_order(m)
    i, j = next((i, j) for i in range(100, len(maps)) for j in bits(above[i]) if j > i)
    planted = [list(row) for row in nucleus.nuclei_join_table(m)]
    assert planted[i][j] == j
    planted[i][j] = planted[j][i] = i
    planted = tuple(map(tuple, planted))
    for module in (verify, nucleus):
        monkeypatch.setattr(module, "nuclei_join_table", lambda q: planted)
    rows = tuple((r.status, r.detail) for r in run_all(m, names=["complemmacor", "Nf"]))
    expected = ("fail", "certified composition disagrees with the join"), ("fail", "composition-monoid supremum misses the join")
    assert rows == expected == loop_verdicts(m)[::-1]


def test_alternating_words_that_end_apart_fail_both_pair_rows_as_an_internal_check():
    # chain-3 under meet has four nuclei.  The stored enumeration holds
    # (0, 0, 2), idempotent but not expansive, in place of nucleus 2,
    # (1, 1, 2), after the join table was built from the true nuclei.  Paired
    # with nucleus 1, (0, 2, 2), both of its alternating words stop at once,
    # one at (0, 0, 2) and the other at (0, 2, 2).
    m = chain_meet(3)
    maps = enumerate_nuclei(m)
    nucleus.nuclei_join_table(m)
    assert [tuple(s.table) for s in maps] == [(0, 1, 2), (0, 2, 2), (1, 1, 2), (2, 2, 2)]
    nucleus._memo(m)[nucleus._ALL_NUCLEI] = (*maps[:2], MonotoneMap(m, [0, 0, 2]), maps[3])
    rows = tuple((r.status, r.detail) for r in run_all(m, names=["complemmacor", "Nf"]))
    detail = "InternalCheckError: alternating compositions end at two limits on chain3-meet (3 elements)"
    assert rows == (("fail", detail),) * 2


def test_the_nf_pass_refuses_with_the_text_of_nuclei_join(bowtie1_left):
    # bowtie1-left has 13 nuclei, and the join formula does not apply.
    maps = enumerate_nuclei(bowtie1_left)
    assert len(maps) == 13 and not nucleus.join_formula_applies(bowtie1_left)
    text = "join of nuclei needs a near prequantale, or a bounded-complete near-residuated carrier with a top"
    for refused in (lambda: nucleus.composition_sups_match(bowtie1_left), lambda: nucleus.nuclei_join(bowtie1_left, maps[:2])):
        with pytest.raises(HypothesisNotMet) as info:
            refused()
        assert str(info.value) == text


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


# -- lane codes -------------------------------------------------------------------------

# Every lane width k = ceil(n/8) from 1 to 8, each side of the byte edges.
LANE_SIZES = (1, 7, 8, 9, 16, 17, 63, 64)


def random_poset(rng, n):
    """A random order on range(n): covers drawn along a shuffled linear
    extension, so id order is not one."""
    ext = rng.sample(range(n), n)
    covers = [[] for _ in range(n)]
    for i in range(n):
        covers[ext[i]] = [ext[j] for j in range(i + 1, n) if rng.random() < 2.5 / n]
    return FinitePoset.from_covers(covers)


def lane_posets(rng, n):
    # On a chain, down[n - 1] and down[n - 2] differ in bit n - 1 alone, the
    # top bit of the last byte lane.
    return [FinitePoset.chain(n), random_poset(rng, n), random_poset(rng, n)]


def all_below_loop(p, lo, hi):
    return all(p.leq(a, b) for a, b in zip(lo, hi))


def lane_pairs(rng, p, length):
    """(lo, hi) id tables: random, equal, and equal but for one pair a, b
    with a not below b at the first or at the last position.  One pair is
    random, the other the one whose down-sets differ at high ids only (on a
    chain, n - 1 and n - 2)."""
    n = p.n
    out = [(bytes(rng.randrange(n) for _ in range(length)), bytes(rng.randrange(n) for _ in range(length)))]
    apart = [(a, b) for a in range(n) for b in range(n) if not p.leq(a, b)]
    if not apart:
        return out

    def lowest_difference(ab):
        d = p.down[ab[0]] & ~p.down[ab[1]]
        return (d & -d).bit_length()

    for a, b in (max(apart, key=lowest_difference), rng.choice(apart)):
        same = bytes(rng.randrange(n) for _ in range(length))
        out.append((same, same))
        for i in (0, length - 1):
            lo, hi = bytearray(same), bytearray(same)
            lo[i], hi[i] = a, b
            out.append((bytes(lo), bytes(hi)))
    return out


@pytest.mark.parametrize("n", LANE_SIZES)
def test_all_below_matches_the_pair_loop_at_every_lane_width(n):
    rng = random.Random(n)
    answers = set()
    for p in lane_posets(rng, n):
        for length in (1, n, n * n if n < 20 else 3 * n):
            for lo, hi in lane_pairs(rng, p, length):
                expected = all_below_loop(p, lo, hi)
                assert all_below(p, lo, hi) == expected, (p.up, lo, hi)
                answers.add(expected)
    assert answers == ({True} if n == 1 else {True, False})


def order_tables(rng, p):
    """The identity, random tables, and the swaps of 0, 1 and of n - 2,
    n - 1, which on a chain break order preservation only at the first pair
    x < y or only at the last."""
    n = p.n
    ident = list(range(n))
    tables = [bytes(ident)] + [bytes(rng.randrange(n) for _ in range(n)) for _ in range(6)]
    if n >= 2:
        for i in (0, n - 2):
            t = list(ident)
            t[i], t[i + 1] = t[i + 1], t[i]
            tables.append(bytes(t))
    return tables


@pytest.mark.parametrize("n", LANE_SIZES)
def test_order_preserving_matches_the_loop_at_every_lane_width(n):
    rng = random.Random(100 + n)
    answers = set()
    for p in lane_posets(rng, n):
        for t in order_tables(rng, p):
            for target in (p, dual(p)):
                expected = order_preserving_loop(p, t, target)
                assert order_preserving(p, t, target) == expected, (p.up, t)
                answers.add(expected)
            assert MonotoneMap(p, t).is_order_preserving == order_preserving_loop(p, t, p)
    assert answers == ({True} if n == 1 else {True, False})


def left_projection(p):
    """x y = x: order-compatible on every poset, with every element a right unit."""
    return OrderedMagma(p, [[x] * p.n for x in range(p.n)], name="left-projection")


@pytest.mark.parametrize("n", LANE_SIZES)
def test_unital_form3_matches_the_loop_at_every_lane_width(n):
    # The chain under meet has a unit and the left projections a right unit,
    # so is_nucleus compares both unital forms on each.  The tables: two
    # order tables and the order tables made expansive, x -> x where t(x) is
    # not above x, four of them over 20 elements, where the loop takes n^3
    # steps.
    rng = random.Random(200 + n)
    answers = set()
    posets = lane_posets(rng, n)
    carriers = [meet_lattice(posets[0], "chain-meet")] + [left_projection(p) for p in posets]
    for m in carriers:
        p = m.poset
        tables = [bytes(tx if p.leq(x, tx) else x for x, tx in enumerate(t)) for t in order_tables(rng, p)]
        tables = order_tables(rng, p)[:2] + tables[: 4 if n > 20 else None]
        for t, verdict in zip(tables, nucleus._chunk_verdicts(m, tables), strict=True):
            expected = unital_form3_loop(m, t)
            assert verdict[7] == expected, (m.name, t)
            answers.add(expected)
    assert True in answers and (n == 1 or False in answers)


@pytest.mark.parametrize("n", LANE_SIZES)
def test_lanes_within_reads_each_segment_at_every_lane_width(n):
    # count segments of equal id strings, but for one pair a, b with a not
    # below b at the last position of the first or of the last segment: only
    # that segment fails, over lanes of the down-sets, built here, and, sides
    # swapped, over the up lanes.
    rng = random.Random(500 + n)
    for p in lane_posets(rng, n):
        apart = [(a, b) for a in range(n) for b in range(n) if not p.leq(a, b)]
        down_lanes = byte_lanes(p.down, n)
        for count in (1, 2, 5):
            for length in (1, n):
                same = bytes(rng.randrange(n) for _ in range(length * count))
                assert lanes_within(down_lanes, same, same, count) == [True] * count
                for a, b in apart[:1] + apart[-1:] + rng.sample(apart, min(2, len(apart))):
                    for j in {0, count - 1}:
                        lo, hi = bytearray(same), bytearray(same)
                        lo[(j + 1) * length - 1], hi[(j + 1) * length - 1] = a, b
                        lo, hi = bytes(lo), bytes(hi)
                        expected = [i != j for i in range(count)]
                        assert lanes_within(down_lanes, lo, hi, count) == expected, (p.up, lo, hi)
                        assert lanes_within(p.up_lanes, hi, lo, count) == expected, (p.up, lo, hi)


def chain_closures(rng, n, k):
    """k distinct closures of the n-chain, each the least kept element above x
    for a seeded set of kept elements holding the top."""
    images = {(1 << (n - 1)) | rng.getrandbits(n - 1) for _ in range(4 * k)}
    return [bytes(min(y for y in bits(c) if y >= x) for x in range(n)) for c in sorted(images)[:k]]


@pytest.mark.parametrize("n", LANE_SIZES)
def test_a_batch_reads_a_failure_at_the_last_position_of_its_first_or_last_table(n):
    # On the n-chain under meet every closure is a strict nucleus.  The
    # identity with n - 1 sent to n - 2 is order-preserving and idempotent
    # but not expansive, at x = n - 1 only: the last position of its
    # segment.  Put first or last in a batch of closures, it alone fails.
    rng = random.Random(600 + n)
    p = FinitePoset.chain(n)
    closures = chain_closures(rng, n, 5)
    assert len(closures) == min(5, 2 ** (n - 1))
    if n == 1:
        bad = []
    else:
        bad = [bytes(range(n - 1)) + bytes([n - 2])]
        t = bad[0]
        assert not expansive_loop(p, t) and order_preserving_loop(p, t, p) and bytes(t[x] for x in t) == t
    for batch in (bad + closures, closures + bad):
        m = meet_lattice(FinitePoset.chain(n), "chain-meet")
        verdicts = nucleus._chunk_verdicts(m.poset, batch)
        assert [v[0] for v in verdicts] == [t not in bad for t in batch]
        nucleus._decide_nuclei(m, batch)
        assert [m._memo["nucleus", t] for t in batch] == [(t not in bad,) * 2 for t in batch]
        assert [m.poset._memo["closure", t] for t in batch] == [t not in bad for t in batch]
        if n < 20:
            assert_map_kernels_match(m, batch)


@pytest.mark.parametrize("n", LANE_SIZES)
def test_the_image_restricted_forms_read_the_image_of_each_table_at_every_lane_width(n):
    # On the n-chain under meet, whose top is its unit, t sends the bottom b
    # to the element a above it and fixes the rest: a strict nucleus whose
    # image misses b alone.  up[b] and up[a] differ at b only, so the single
    # axiom at x = b, form 2 and form 3 (x*y* = a against xy = b at x = y =
    # b) hold on Im t and fail on any mask that holds b.  The chain is
    # labelled upwards, b = 0 in the first lane of t, and downwards, b = n - 1
    # in its last.  t is decided first and then last in a chunk with the
    # identity, whose image holds b, an expansive map that is not a closure
    # (x to the element above it, the top fixed) and a map that is not
    # expansive (constant b), so each closure's products are picked out of
    # the chunk.
    for p in (FinitePoset.chain(n), dual(FinitePoset.chain(n))):
        m, ident = meet_lattice(p, "chain-meet"), bytes(range(n))
        covers = (p.least_of(p.up[x] & ~(1 << x)) for x in range(n))
        b, above = p.bottom, bytes(x if a is None else a for x, a in enumerate(covers))
        if n == 1:
            t, others = ident, []
        else:
            t = bytes(above[x] if x == b else x for x in range(n))
            others = [ident, above, bytes([b]) * n]
            assert not expansive_loop(p, others[2]) and expansive_loop(p, above) and not three_part_loop(p, above)
            assert three_part_loop(p, t) and id_mask(t) == p.universe & ~(1 << b) and b in (0, n - 1)
        expected = {t: (True,) * 8, ident: (True,) * 8}
        for chunk in ([t] + others, others + [t]):
            got = dict(zip(chunk, nucleus._chunk_verdicts(m, chunk)))
            for table in chunk:
                assert got[table] == expected.get(table, (False,) * 8), (n, b, chunk.index(table))
                if n < 20:
                    loops = (three_part_loop(p, table), closure_single_axiom_loop(p, table))
                    loops += (*nucleus_conditions_loop(m, table), strict_loop(m, table))
                    assert got[table] == loops + unital_conditions_loop(m, table), (n, b, table)
            assert nucleus._chunk_verdicts(p, chunk) == [v[:2] for v in map(got.__getitem__, chunk)]
            fresh = meet_lattice(p, "chain-meet")
            nucleus._decide_nuclei(fresh, chunk)
            assert fresh._memo["nucleus", t] == (True, True) and fresh.poset._memo["closure", t]


@pytest.mark.parametrize("k, third", [(5, 2), (70, 66)], ids=["first-chunk", "second-chunk"])
def test_a_batch_with_disagreeing_tables_names_the_first_and_stores_nothing(monkeypatch, k, third):
    # c2 is flipped on the table at position third and on the last one; the
    # second case puts both in the second chunk of BATCH_MAPS tables.
    assert nucleus.BATCH_MAPS < 70
    m = meet_lattice(FinitePoset.chain(8), "chain8-meet")
    maps = enumerate_closures(m)[:k]
    flipped = {maps[third].table, maps[-1].table}
    monkeypatch.setattr(nucleus, "_chunk_verdicts", corrupted_kernel("c2", False, only=flipped))
    with pytest.raises(InternalCheckError) as info:
        nucleus._decide_nuclei(m, [s.table for s in maps])
    assert str(info.value) == (
        f"nucleus characterizations disagree on chain8-meet (8 elements) at {tuple(maps[third].table)}: "
        "(True, False, True)"
    )
    kept = [key[0] for carrier in (m, m.poset) for key in carrier.__dict__.get("_memo", {})]
    assert "nucleus" not in kept and "closure" not in kept
    with pytest.raises(InternalCheckError, match="nucleus characterizations disagree"):
        nucleus.is_nucleus(m, maps[third])
    monkeypatch.undo()
    assert all(nucleus.is_nucleus(m, s) for s in maps)


@pytest.mark.parametrize("n", LANE_SIZES)
def test_row_mask_reads_bit_z_from_byte_z(n):
    rng = random.Random(400 + n)
    for mask in [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
        row = mask_row(mask, n)
        assert row_mask(row) == mask == sum(1 << z for z in range(n) if row[z])


@pytest.mark.parametrize("n", (9, 17, 64))
def test_packed_subset_walk_matches_one_walk_per_map(n):
    # Maps from a 6-element poset into targets whose up-sets take k = 2, 3
    # and 8 bytes a lane; lane i of the packed images against the walk of
    # map i alone, at every subset.
    rng = random.Random(300 + n)
    source = random_poset(rng, 6)
    for target in lane_posets(rng, n):
        maps = [bytes(rng.randrange(n) for _ in range(6)) for _ in range(5)]
        lanes = target.up_lanes
        width = 8 * len(lanes)
        cols = [lane_code(lanes, bytes(f[x] for f in maps)) for x in range(6)]
        packed = list(subset_walk(source, cols, target.universe_code(len(maps))))
        assert len(packed) == 64
        for i, f in enumerate(maps):
            alone = list(subset_walk(source, [target.up[v] for v in f], target.universe))
            assert [(mask, ub, images >> (i * width) & ((1 << width) - 1)) for mask, ub, images in packed] == alone
        assert [images >> (len(maps) * width) for _, _, images in packed] == [0] * 64


def flat(segments):
    return list(chain.from_iterable(segments))


def packed_families(rng, source):
    """(cols, start) for families of 3 random maps from source into
    targets whose up-sets take 1, 2, 3 and 8 bytes a lane, each packed as
    sup_misses reads it; and the family of one order-preserving self-map."""
    n = source.n
    for size in (7, 9, 17, 64):
        target = random_poset(rng, size)
        maps = [bytes(rng.randrange(size) for _ in range(n)) for _ in range(3)]
        cols = [lane_code(target.up_lanes, bytes(f[x] for f in maps)) for x in range(n)]
        yield cols, target.universe_code(len(maps))
    t = monotone_tables(rng, source, 1)[-1]
    yield [source.up[v] for v in t], source.universe


@pytest.mark.parametrize("n", range(EXHAUSTIVE_CAP + 1))
def test_subset_tables_match_the_walk_at_every_size_up_to_the_cap(n):
    # The masks, the upper bounds and the packed images of a map family, in
    # the walk's order, against the per-subset walk, at every lane width.
    rng = random.Random(500 + n)
    for p in (random_poset(rng, n), FinitePoset.chain(n)):
        for cols, start in packed_families(rng, p):
            walk = list(subset_walk(p, cols, start))
            tables = (subset_masks(n), subset_table(n, p.universe, p.up), subset_table(n, start, cols))
            assert list(zip(*map(flat, tables))) == walk, (p.up, n)
        # The down-closure table of _ideal_masks folds with OR.
        closures = [id_mask(z for x in bits(mask) for z in bits(p.down[x])) for mask, _, _ in subset_walk(p)]
        assert flat(subset_table(n, 0, p.down, or_)) == closures
        # Each list holds at most one block of the tail.
        assert max(map(len, subset_table(n, p.universe, p.up))) <= 1 << SUBSET_BLOCK


@pytest.mark.parametrize("n", range(EXHAUSTIVE_CAP + 1))
def test_the_scans_list_their_misses_in_walk_order(n):
    # The subsets without a sup and the sup misses of map families, in the
    # walk's order: the same lists, so the first parting subset is the
    # walk's first.
    rng = random.Random(600 + n)
    unsorted = 0
    for p in (random_poset(rng, n), random_poset(rng, n)):
        without = [(mask, ub) for mask, ub, _ in subset_walk(p) if ub not in p.principal_up]
        assert p._subsets_without_sup() == without
        for cols, start in packed_families(rng, p):
            misses = sup_misses(p, cols, start)
            assert misses == sup_misses_walk(p, cols, start), (p.up, n)
            unsorted += misses != sorted(misses)
    # From four elements on, walk order is not mask order, and some list shows it.
    assert unsorted > 0 or n < 4


def test_ideal_masks_match_the_per_mask_definition(corpus):
    rng = random.Random(700)
    posets = [m.poset for m in corpus.values() if m.n <= EXHAUSTIVE_CAP]
    posets += [random_poset(rng, n) for n in range(11) for _ in range(3)]
    posets += [FinitePoset.antichain(6), FinitePoset.chain(EXHAUSTIVE_CAP), FinitePoset.powerset(3)]
    for p in posets:
        expected = [mask for mask in range(1, 1 << p.n) if p.is_downward_closed(mask) and p.is_directed_mask(mask)]
        assert idl._ideal_masks(p) == expected, p.up


def sup_misses_loop(p, f):
    """Every subset X whose sup s exists and f(s) is not ub_scan_sup(f(X)),
    ascending."""
    return [
        mask
        for mask in range(1 << p.n)
        if (s := sup_loop(p, mask)) is not None and sup_loop(p, id_mask(f[x] for x in bits(mask))) != f[s]
    ]


def monotone_tables(rng, p, count):
    """The identity, every constant map and count random order-preserving
    self-maps of p: t[x] drawn among the upper bounds of t(y) for y < x,
    along a linear extension; a draw left with none is dropped."""
    n = p.n
    tables = [bytes(range(n))] + [bytes([c]) * n for c in range(n)]
    extension = sorted(range(n), key=lambda x: bin(p.down[x]).count("1"))
    for _ in range(count):
        t = [0] * n
        for x in extension:
            allowed = list(bits(p.upper_bounds(id_mask(t[y] for y in bits(p.down[x] & ~(1 << x))))))
            if not allowed:
                break
            t[x] = rng.choice(allowed)
        else:
            tables.append(bytes(t))
    return tables


def test_sup_misses_matches_the_ub_scan_oracle():
    rng = random.Random(400)
    posets = [m.poset for m in standard_corpus().values()]
    posets += [random_poset(rng, n) for n in range(1, 9) for _ in range(3)]
    posets += [FinitePoset.chain(8), FinitePoset.powerset(3)]
    missed = kept = 0
    for p in posets:
        for t in monotone_tables(rng, p, 6):
            assert order_preserving(p, t)
            got = sorted(sup_misses(p, [p.up[v] for v in t], p.universe))
            assert got == sup_misses_loop(p, t), (p, tuple(t))
            missed, kept = missed + bool(got), kept + (not got)
    # Both answers occur, so neither side of the comparison is vacuous.
    assert missed > 50 and kept > 50


def corestriction_tables(m):
    """Every nucleus of m, and order-preserving maps that are not closures."""
    maps = [s.table for s in enumerate_nuclei(m)]
    return maps + [t for t in monotone_tables(random.Random(m.n), m.poset, 20) if not is_closure(MonotoneMap(m, t))]


def test_the_corestriction_pairs_branch_agrees_with_the_walk(corpus, monkeypatch):
    # On a finite join semilattice the binary sups give every nonempty sup,
    # and an order-preserving t has t(bottom) least in its image, so the pairs
    # branch above EXHAUSTIVE_CAP decides as the walk does.
    carriers = [m for m in scan_carriers(corpus).values() if m.poset.flags.join_semilattice and m.n <= 14]
    assert len(carriers) >= 20
    seen = set()
    for m in carriers:
        for t in corestriction_tables(m):
            walk = corestriction_kernel(m, t)
            with monkeypatch.context() as patch:
                patch.setattr(nucleus, "EXHAUSTIVE_CAP", -1)
                pairs = corestriction_kernel(m, t)
            assert walk == pairs == corestriction_loop(m, t), (m.name, tuple(t))
            seen.add(walk)
    assert seen == {True, False}


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


def reversed_labels(p):
    """p with id x renamed n - 1 - x: on a naturally labelled poset, id order
    is then a linear extension only when p is an antichain."""
    n = p.n
    return FinitePoset.from_up_masks([id_mask(n - 1 - y for y in bits(p.up[n - 1 - x])) for x in range(n)])


def assert_search_matches_the_walk(carrier):
    p = nucleus.poset_of(carrier)
    found = enumerate_closures(carrier)
    assert [s.table for s in found] == closure_image_walk(p), p.up
    # A closure image holds every maximal element.
    maximal = sum(up == 1 << x for x, up in enumerate(p.up))
    assert len(found) <= 2 ** (p.n - maximal)
    assert all(map(is_closure, found))
    return len(found)


def test_closure_search_matches_the_image_walk_on_every_small_poset():
    posets, closures = 0, Counter()
    for n in range(1, 6):
        for p in naturally_labelled_posets(n):
            posets += 1
            for q in (p, reversed_labels(p)):
                closures[q is p] += assert_search_matches_the_walk(q)
    assert posets == 407 and closures[True] == closures[False] == 1900


CLOSURE_CARRIERS = {
    "chain-12": lambda: FinitePoset.chain(12),
    "chain-16": lambda: FinitePoset.chain(16),
    "2^4": lambda: FinitePoset.powerset(4),
    "I(Z/60)": lambda: ring_ideal_lattice(FiniteRing.zmod(60)).magma,
    "I(Z/210)": lambda: ring_ideal_lattice(FiniteRing.zmod(210)).magma,
    "Z3-lattice": lambda: module_system_lattice(cyclic_group(3)).magma,
}


@pytest.mark.parametrize("name", sorted(CLOSURE_CARRIERS))
def test_closure_search_matches_the_image_walk_up_to_the_cap(name):
    found = assert_search_matches_the_walk(CLOSURE_CARRIERS[name]())
    assert name != "chain-16" or found == 2 ** 15


def test_closure_search_matches_the_image_walk_on_the_corpus(corpus):
    for m in corpus.values():
        assert_search_matches_the_walk(m)


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
        assert [tuple(t) for t in verify._random_maps(m)] == expected, m.name


@pytest.mark.parametrize(
    "offenders", [{0: "n"}, {-1: "n"}, {0: 255}, {-1: 255}, {1: 255, -1: "n"}, {1: "n", -1: 255}],
    ids=["n-first", "n-last", "255-first", "255-last", "255-then-n", "n-then-255"],
)
def test_bytes_ids_are_refused_with_the_text_of_lists(offenders):
    # check_ids decides bytes with one max; where that fails, the loop must
    # name the same first offender as for a list.
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    n, table = m.n, [0] * m.n
    for at, bad in offenders.items():
        table[at] = n if bad == "n" else bad
    first = next(x for x in table if x >= n)
    rows = [list(row) for row in m.mul]
    rows[2] = table
    builds = {
        "map": lambda wrap: MonotoneMap(m, wrap(table)),
        "morphism": lambda wrap: MagmaMorphism(m, m, wrap(table)),
        "magma rows": lambda wrap: OrderedMagma(m.poset, [wrap(row) for row in rows]),
    }
    for name, build in builds.items():
        texts = []
        for wrap in (list, bytes):
            with pytest.raises(StructureError) as info:
                build(wrap)
            texts.append(str(info.value))
        assert texts == [f"element id {first} foreign to carrier of size {n}"] * 2, name
    assert MonotoneMap(m, bytes([n - 1] * n)).table == bytes([n - 1] * n)
    assert OrderedMagma(m.poset, m.mul).mul == m.mul


def preclosure_draw_loop(m):
    """The preclosurelemma loop one draw at a time: per draw a MonotoneMap
    with x* = rng.choice(up[x]), its order check and, when it passes, its
    hull, compared with the hull followed element by element.  Returns the
    count of order-preserving draws, their set of tables and the set of
    their hull tables."""
    rng = random.Random(verify.SEED)
    ups = [list(bits(up)) for up in m.poset.up]
    produced, tables, hulls = 0, set(), set()
    for _ in range(verify.PRECLOSURE_DRAWS):
        s = MonotoneMap(m, [rng.choice(above) for above in ups])
        if s.is_order_preserving:
            hull = nucleus.closure_from_preclosure(s)
            assert tuple(hull.table) == preclosure_hull_loop(s.table), (m.name, s)
            produced += 1
            tables.add(s.table)
            hulls.add(hull.table)
    return produced, tables, hulls


def meet_chain(n):
    return OrderedMagma(FinitePoset.chain(n), [[min(x, y) for y in range(n)] for x in range(n)], f"chain{n}-meet")


def preclosure_carriers():
    """The corpus, ring ideal lattices, chain-9 and 2^4 under meet, each
    built afresh."""
    p = FinitePoset.powerset(4)
    rings = [FiniteRing.zmod(n) for n in (4, 6, 8, 9, 12, 30, 60, 210)] + [
        FiniteRing.poly_quotient(2, [0, 0, 1], name="F2[x]/(x^2)"),
        FiniteRing.poly_quotient(2, [0, 0, 0, 1], name="F2[x]/(x^3)"),
    ]
    return {
        **standard_corpus(),
        **{f"I({r.name})": ring_ideal_lattice(r).magma for r in rings},
        "chain9-meet": meet_chain(9),
        "2^4-meet": OrderedMagma(p, [[p.meet(x, y) for y in range(16)] for x in range(16)], "2^4-meet"),
    }


def test_preclosure_row_counts_and_hulls_every_draw_as_the_draw_loop(monkeypatch):
    # The row on one copy of each carrier, the loop on another, so neither
    # reads the other's hulls.
    rows, loops = preclosure_carriers(), preclosure_carriers()
    hulls = []
    hull_of = nucleus.closure_from_preclosure
    monkeypatch.setattr(verify, "closure_from_preclosure", lambda s: hulls.append(hull_of(s).table))
    counts, repeated = {}, []
    for name, m in rows.items():
        hulls.clear()
        (row,) = verify.run_all(m, names=["preclosurelemma"])
        produced, tables, expected = preclosure_draw_loop(loops[name])
        counts[name] = produced
        assert set(hulls) == expected, name
        if produced:
            assert (row.status, row.detail) == ("pass", f"{produced} random preclosures"), name
        else:
            detail = "vacuous: 0 of 200 seeded expansive maps were order-preserving"
            assert (row.status, row.detail) == ("skip", detail), name
        if produced > len(tables):
            repeated.append(name)
    assert counts["ideals-z12"] == 43 and counts["modsys-z2"] == 5
    assert counts["I(Z/60)"] == counts["I(Z/210)"] == counts["2^4-meet"] == 0
    assert counts["chain9-meet"] > 0
    # Most carriers draw some order-preserving table more than once, so
    # the count is of draws, not of distinct tables.
    assert len(repeated) > len(counts) // 2, repeated


def test_each_preclosure_hull_is_built_once_per_table_and_carrier_object(monkeypatch):
    # Each build asks once, first, whether its map is a preclosure.
    preclosure, built = MonotoneMap.is_preclosure, []
    monkeypatch.setattr(
        MonotoneMap, "is_preclosure", property(lambda s: built.append((s.carrier, s.table)) or preclosure.fget(s))
    )
    for make in (lambda: ring_ideal_lattice(FiniteRing.zmod(12)).magma, lambda: meet_chain(9)):
        _, tables, _ = preclosure_draw_loop(make())
        m = make()
        # A second run on the same object builds nothing; a fresh object
        # builds every table again.
        for carrier, expected in ((m, sorted(tables)), (m, []), (make(), sorted(tables))):
            built.clear()
            verify.run_all(carrier, names=["preclosurelemma"])
            assert all(c is carrier for c, _ in built)
            assert sorted(t for _, t in built) == expected
    # On a bare poset too, and a call that raises stores nothing: the next
    # call builds and raises again.
    p, step = FinitePoset.chain(9), bytes([1, 2, 3, 4, 5, 6, 7, 8, 8])
    built.clear()
    hull = nucleus.closure_from_preclosure(MonotoneMap(p, step))
    assert nucleus.closure_from_preclosure(MonotoneMap(p, step)) is hull
    assert hull.table == bytes([8] * 9) and built == [(p, step)]
    assert nucleus.closure_from_preclosure(MonotoneMap(FinitePoset.chain(9), step)) == hull
    assert len(built) == 2
    for _ in range(2):
        with pytest.raises(HypothesisNotMet, match="requires a preclosure"):
            nucleus.closure_from_preclosure(MonotoneMap(p, bytes(9)))
    assert len(built) == 4


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


def test_ideal_products_match_the_element_pairs_on_the_larger_rings():
    rings = [FiniteRing.zmod(n) for n in (120, 180, 210, 240, 256)] + [poly_ring("3,x^5+x+2")]
    for ring in rings:
        lat = ring_ideal_lattice(ring)
        for i, a in enumerate(lat.ideals):
            for j, b in enumerate(lat.ideals):
                assert lat.ideals[lat.magma.mul[i][j]] == ideal_product_loop(ring, a, b), ring


def test_a_ring_with_a_non_principal_ideal_matches_the_definitions():
    # F_2[x,y]/(x^2, xy, y^2): a + bx + cy at id a + 2b + 4c, and its maximal
    # ideal (x, y) needs both generators.
    elems = [(i & 1, i >> 1 & 1, i >> 2) for i in range(8)]
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[tuple(u ^ w for u, w in zip(s, t))] for t in elems] for s in elems]
    mul = [[index[(s[0] & t[0], s[0] & t[1] ^ s[1] & t[0], s[0] & t[2] ^ s[2] & t[0])] for t in elems]
           for s in elems]
    ring = FiniteRing(add, mul, 0, 1, name="F2[x,y]/(x^2,xy,y^2)")
    assert ring.generators == (1, 2, 4)
    lat = ring_ideal_lattice(ring)
    closed = [
        s for s in range(1, 1 << 8)
        if all(s >> add[a][b] & 1 and s >> mul[r][a] & 1 for a in bits(s) for b in bits(s) for r in range(8))
    ]
    assert sorted(lat.ideals) == closed
    maximal = id_mask((0, 2, 4, 6))
    assert maximal in lat.ideals and all(id_mask(mul[g]) != maximal for g in range(8))
    assert lat.magma.poset.labels[lat.index[maximal]] == "(2,4,6)"
    for i, a in enumerate(lat.ideals):
        for j, b in enumerate(lat.ideals):
            assert lat.ideals[lat.magma.mul[i][j]] == ideal_product_loop(ring, a, b), (a, b)
    assert lat.magma.mul[lat.index[maximal]][lat.index[maximal]] == lat.index[1]


def ring_tables(n, add_free, mul_free):
    """The tables on 0..n-1 with zero 0 and one 1 that pass the zero, one,
    absorbing and commutativity checks, from the entries above the diagonal
    or on it that those checks leave free: add_free over 1..n-1 and mul_free
    over 2..n-1, in the order of combinations_with_replacement."""
    add = [list(range(n))] + [[x] + [0] * (n - 1) for x in range(1, n)]
    mul = [[0] * n, list(range(n))] + [[0, x] + [0] * (n - 2) for x in range(2, n)]
    for table, low, free in ((add, 1, add_free), (mul, 2, mul_free)):
        cells = [(x, y) for x in range(low, n) for y in range(x, n)]
        for (x, y), value in zip(cells, free):
            table[x][y] = table[y][x] = value
    return add, mul


def test_the_generator_check_accepts_what_the_ordered_scan_accepts():
    rng = random.Random("rings:generators")
    pairs = [ring_tables(3, a, [m]) for a in product(range(3), repeat=3) for m in range(3)]
    assert len(pairs) == 81
    pairs += [
        ring_tables(4, [rng.randrange(4) for _ in range(6)], [rng.randrange(4) for _ in range(3)])
        for _ in range(2000)
    ]
    seen = Counter()
    for add, mul in pairs:
        expected = ring_laws_loop(add, mul, 0, 1)
        seen[expected and expected[0]] += 1
        if expected is None:
            assert FiniteRing(add, mul, 0, 1).n == len(add)
            continue
        with pytest.raises(StructureError) as info:
            FiniteRing(add, mul, 0, 1)
        law, at = expected
        assert str(info.value) == f"{law} on ring ({len(add)} elements) at {at}"
    assert set(seen) == {
        None,
        "addition not associative",
        "multiplication not associative",
        "distributivity fails",
        "additive inverse missing",
    }, seen


def bilinear_tables(products):
    """F_2^3 with basis 1, a, b at ids 1, 2, 4, added by XOR, and the
    commutative product with unit 1 and aa, ab, bb the given ids, extended
    bilinearly: distributive, and associative only for some products."""
    basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 2): products[0], (2, 4): products[1], (4, 4): products[2]}

    def times(u, v):
        out = 0
        for i in bits(u):
            for j in bits(v):
                out ^= basis[min(1 << i, 1 << j), max(1 << i, 1 << j)]
        return out

    return [[u ^ v for v in range(8)] for u in range(8)], [[times(u, v) for v in range(8)] for u in range(8)]


def test_the_generator_check_decides_multiplication_under_distributivity():
    verdicts = Counter()
    for products in product(range(8), repeat=3):
        add, mul = bilinear_tables(products)
        expected = ring_laws_loop(add, mul, 0, 1)
        verdicts[expected and expected[0]] += 1
        if expected is None:
            assert FiniteRing(add, mul, 0, 1).generators == (1, 2, 4)
            continue
        with pytest.raises(StructureError) as info:
            FiniteRing(add, mul, 0, 1)
        assert str(info.value) == f"{expected[0]} on ring (8 elements) at {expected[1]}"
    assert set(verdicts) == {None, "multiplication not associative"}, verdicts


def test_a_failure_at_the_generators_is_found_by_the_full_scan_no_later():
    """On tables that pass the zero, one, absorbing and commutativity checks,
    the scan over every y fails exactly when the scan at G does, and at the
    same (x, y) or an earlier one, so a failure at G always names a triple."""
    tables = [ring_tables(3, a, [m]) for a in product(range(3), repeat=3) for m in range(3)]
    tables += [bilinear_tables(products) for products in product(range(8), repeat=3)]
    for ring in (FiniteRing.zmod(12), poly_ring("2,x^4")):
        tables += corrupted_tables(ring.add, ring.mul, f"rings:scan:{ring.name}", 200)
    early = {"zero or one fails its law", "zero is not absorbing", "ring is not commutative"}
    failures = 0
    for add, mul in tables:
        if (expected := ring_laws_loop(add, mul, 0, 1)) and expected[0] in early:
            continue
        add, mul = [bytes(r) for r in add], [bytes(r) for r in mul]
        at_g = _first_failure(add, mul, _additive_generators(add, 0))
        full = _first_failure(add, mul, range(len(add)))
        assert (at_g is None) == (full is None), (add, mul)
        if at_g is not None:
            failures += 1
            assert full[1:3] <= at_g[1:3] and full[3] != full[4]
    assert failures > 100, failures


def test_the_additive_generators_reach_every_element():
    rings = [FiniteRing.zmod(n) for n in range(1, 257)] + [poly_ring(s) for s in POLY_SPECS]
    for ring in rings:
        reached, frontier = {ring.zero}, [ring.zero]
        while frontier:
            s = frontier.pop()
            for g in ring.generators:
                if (t := ring.add[s][g]) not in reached:
                    reached.add(t)
                    frontier.append(t)
        assert reached == set(range(ring.n)), ring
    assert all(ring.generators == (1,) for ring in rings[1:256])
    assert rings[0].generators == ()
    for spec, ring in zip(POLY_SPECS, rings[256:]):
        p, coeffs, _ = _parse_poly_spec(spec)
        assert ring.generators == tuple(p ** d for d in range(len(coeffs) - 1)), spec


def test_an_over_cap_degree_is_refused_before_its_coefficients(capsys):
    tracemalloc.start()
    try:
        code = cli.main(["make", "ring", "--poly", "2,x^10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and peak < 1 << 20, peak
    assert err == (
        "hypothesis not met: ring size capped at 256 on F_2[x]/(x^10000000) (2^10000000 elements)\n"
    )


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


# -- the ideal completion ---------------------------------------------------------------


def down_closure_loop(p, xmask):
    """The smallest ideal containing xmask as the join fixpoint: add the
    down-set of every member and the join of every pair until nothing grows."""
    if not xmask:
        if p.bottom is None:
            raise HypothesisNotMet("empty input needs a least element")
        return 1 << p.bottom
    closed = xmask
    while True:
        grown = closed
        for x in bits(closed):
            grown |= p.down[x]
            for y in bits(closed):
                grown |= 1 << p.join(x, y)
        if grown == closed:
            return closed
        closed = grown


def roundtrip_loop(m, comp):
    """Both round trips by element loops: the principal-ideal map and the
    supremum map are bijections that preserve and reflect order and
    multiplication, and the supremum of each principal ideal is its element."""
    p, q = m.poset, comp.magma
    fwd = comp.principal
    bwd = [p.sup_mask(mask) for mask in comp.ideal_masks]
    if None in bwd or sorted(fwd) != list(range(q.n)) or sorted(bwd) != list(range(m.n)):
        return False
    return (
        all(
            p.leq(x, y) == q.leq(fwd[x], fwd[y]) and fwd[m.op(x, y)] == q.op(fwd[x], fwd[y])
            for x, y in product(range(m.n), repeat=2)
        )
        and all(
            q.leq(i, j) == p.leq(bwd[i], bwd[j]) and bwd[q.op(i, j)] == m.op(bwd[i], bwd[j])
            for i, j in product(range(q.n), repeat=2)
        )
        and all(bwd[fwd[x]] == x for x in range(m.n))
    )


def test_down_closure_is_the_join_fixpoint_on_every_subset(corpus):
    posets = [m.poset for m in corpus.values()] + list(three_element_posets().values())
    seen = set()
    for p in posets:
        if not p.flags.join_semilattice:
            seen.add("no joins")
            with pytest.raises(HypothesisNotMet):
                down_closure_mask(p, 1)
            continue
        for xmask in range(1 << p.n):
            try:
                expected = down_closure_loop(p, xmask)
            except HypothesisNotMet:
                seen.add("no bottom")
                with pytest.raises(HypothesisNotMet):
                    down_closure_mask(p, xmask)
                continue
            assert down_closure_mask(p, xmask) == expected, (p.up, xmask)
            # Where the members' down-sets do not cover the closure, a join
            # had to be taken.
            seen.add(expected == id_mask(z for x in bits(xmask) for z in bits(p.down[x])))
    assert seen == {"no joins", "no bottom", True, False}


def completion_corruptions(comp):
    """The completion, then copies with two principal ideals swapped, with
    two ideal masks swapped, with the product replaced by the join, and with
    the inclusion order replaced by the discrete order."""
    yield comp
    q = comp.magma
    for x, y in combinations(range(q.n), 2):
        for field in ("principal", "ideal_masks"):
            table = list(getattr(comp, field))
            table[x], table[y] = table[y], table[x]
            yield replace(comp, **{field: tuple(table)})
    yield replace(comp, magma=OrderedMagma(q.poset, q.poset.join_table, name=q.name))
    yield replace(comp, magma=OrderedMagma(FinitePoset.antichain(q.n), q.mul, name=q.name))


def test_roundtrip_checks_agree_with_the_element_loops(corpus, monkeypatch):
    verdicts = set()
    for m in corpus.values():
        if not m.profile.multiplicative_semilattice:
            continue
        for comp in completion_corruptions(idl.idl(m)):
            expected = roundtrip_loop(m, comp)
            verdicts.add(expected)
            with monkeypatch.context() as patched:
                patched.setattr(idl, "idl", lambda m, comp=comp: comp)
                if expected:
                    idl.roundtrip_checks(m)
                    continue
                with pytest.raises(InternalCheckError) as info:
                    idl.roundtrip_checks(m)
            assert str(info.value).endswith(f" on {carrier_label(m)}")
    # The join product is no corruption on a carrier whose product is its join.
    assert verdicts == {True, False}


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
    assert_map_kernels_match(m, tables)
    assert_scans_match(m, tables)
    assert_row_laws_match(m)
    assert_residual_kernels_match(m, image_candidates(m), set())
    assert_element_scans_match(m, [list(bits(mask)) for mask in range(1 << n)], tables)
    try:
        m.profile
        enumerate_nuclei(m)
    except InternalCheckError as exc:  # pragma: no cover - the property under test
        pytest.fail(f"InternalCheckError on {m.mul} over {m.poset.up}: {exc}")


def union_closed_poset(rng, base, count):
    """The union closure of count random subsets of a base-element set,
    ordered by inclusion: a join semilattice whose join is the union.  Ids
    go by size, then mask, a linear extension."""
    family = {rng.randrange(1, 1 << base) for _ in range(count)}
    while True:
        grown = family | {a | b for a in family for b in family}
        if grown == family:
            break
        family = grown
    masks = sorted(family, key=lambda mask: (bin(mask).count("1"), mask))
    return FinitePoset([[a | b == b for b in masks] for a in masks])


def assert_law_scans_match(m):
    """The lane-code law scan lists the list oracle's pairs in its order,
    and the pair that _parting_subset names is the oracle's first."""
    pairs = list(_law_failures(m))
    assert pairs == list(law_failures_by_lists(m)), (m.name, m.mul, m.poset.up)
    assert _parting_subset(m, True, False) == list(pairs[0] if pairs else ())
    return pairs


def test_the_law_scan_lists_the_pairs_of_the_list_oracle(corpus):
    carriers = [m for m in corpus.values() if m.poset.flags.join_semilattice]
    rng = random.Random(26)
    for _ in range(80):
        p = union_closed_poset(rng, rng.randint(2, 5), rng.randint(2, 5))
        carriers.append(OrderedMagma(p, p.join_table, name="union-join"))
        m = grown_magma(p, rng.choice)
        if m is not None:
            carriers.append(m)
    held = Counter(not assert_law_scans_match(m) for m in carriers)
    # Both verdicts occur, on the corpus and among the seeded magmas.
    assert held[True] > 20 and held[False] > 20, held


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(m=ordered_magmas())
def test_the_law_scan_lists_the_pairs_of_the_list_oracle_on_random_ordered_magmas(m):
    if m.poset.flags.join_semilattice:
        assert_law_scans_match(m)
