"""The mask and row kernels of the proof obligations against the loops they replaced.

Each oracle below is the per-triple, per-subset or per-map loop that decided
the obligation before it was decided over whole bitmasks or table rows.  The
kernels must give the same answer on every input, closures or not, on the
carriers below and on random ordered magmas.
"""

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantic import nucleus
from quantic.divisorial import lin_monoid
from quantic.errors import InternalCheckError
from quantic.magma import (
    MagmaMorphism,
    OrderedMagma,
    _distributes_over_finite_nonempty,
    _translations_preserve_existing_sups,
)
from quantic.nucleus import MonotoneMap, enumerate_closures, enumerate_nuclei, pointwise_order
from quantic.poset import FinitePoset, bits

from test_exhaustive_small import compatible_magmas, three_element_posets


# -- oracles ---------------------------------------------------------------------


def closure_single_axiom_loop(p, t):
    return all(p.leq(x, t[y]) == p.leq(t[x], t[y]) for x in range(p.n) for y in range(p.n))


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


def flag_scan_loop(p):
    complete = near = bounded = True
    for mask in range(1 << p.n):
        if p.sup_mask(mask) is None:
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
        s = p.sup_mask(mask)
        if s is None:
            continue
        for a in range(m.n):
            if (
                p.sup_mask(m.complex_mul_mask(1 << a, mask)) != m.op(a, s)
                or p.sup_mask(m.complex_mul_mask(mask, 1 << a)) != m.op(s, a)
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
        v = p.sup_mask(mask)
        if v is None:
            continue
        img = 0
        for x in bits(mask):
            img |= 1 << index[t[x]]
        if sub.sup_mask(img) != index[t[v]]:
            return False
    return True


def preserves_sups_loop(f, nonempty_only):
    sp, tp = f.source.poset, f.target.poset
    for mask in range(1 if nonempty_only else 0, 1 << sp.n):
        s = sp.sup_mask(mask)
        if s is None:
            continue
        fmask = 0
        for x in bits(mask):
            fmask |= 1 << f.table[x]
        if tp.sup_mask(fmask) != f.table[s]:
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


# -- comparison helpers ----------------------------------------------------------------


def assert_map_kernels_match(m, t):
    p = m.poset
    assert nucleus._closure_single_axiom(p, t) == closure_single_axiom_loop(p, t), t
    s = MonotoneMap(m, t)
    assert (s.is_expansive and s.is_order_preserving and s.is_idempotent) == three_part_loop(p, t)
    assert nucleus._nucleus_conditions(m, s) == nucleus_conditions_loop(m, t), t
    assert nucleus._unital_selfmap_conditions(m, s) == unital_conditions_loop(m, t), t


def assert_row_laws_match(m, seen=None):
    """The row-wise law and the itemgetter monoid against their loops; adds
    each law answer to seen."""
    law = _distributes_over_finite_nonempty(m)
    assert law == distributes_loop(m), (m.name, m.mul)
    assert lin_monoid(m) == lin_monoid_loop(m), (m.name, m.mul)
    if seen is not None:
        seen.add(law)


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
        for nonempty_only in (True, False):
            answers["morphism"].append(
                (f.preserves_sups(nonempty_only), preserves_sups_loop(f, nonempty_only))
            )
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


def test_row_laws_match_the_loops(corpus):
    seen = set()
    for m in scan_carriers(corpus).values():
        assert_row_laws_match(m, seen)
    assert seen == {True, False}


@pytest.mark.parametrize("pname", sorted(three_element_posets()))
def test_row_laws_match_the_loops_on_the_three_element_sweep(pname):
    # Every 10th magma of the antichain's 19683, every magma of the others.
    magmas = compatible_magmas(three_element_posets()[pname])
    if pname == "antichain":
        magmas = magmas[::10]
    seen = set()
    for m in magmas:
        assert_row_laws_match(m, seen)
    # Only the chain and the wedge are join semilattices, and on a chain
    # every order-compatible product distributes over max.
    assert seen == {"chain": {True}, "wedge": {True, False}}.get(pname, {False})


def test_join_and_meet_tables_match_least_of(corpus):
    posets = [m.poset for m in scan_carriers(corpus).values()]
    posets += [p for p in three_element_posets().values()]
    for p in posets:
        for i in range(p.n):
            for j in range(p.n):
                assert p.join_table[i][j] == p.least_of(p.up[i] & p.up[j])
                assert p.meet_table[i][j] == p.greatest_of(p.down[i] & p.down[j])
                assert p.join(i, j) == p.join_table[i][j] and p.meet(i, j) == p.meet_table[i][j]


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


# -- random ordered magmas --------------------------------------------------------------


@st.composite
def ordered_magmas(draw, max_n=5):
    """A random poset on n <= max_n elements (index order is a linear
    extension) and a random order-compatible multiplication on it, built one
    product at a time: each product is drawn from the common upper bounds of
    the products already fixed below it."""
    n = draw(st.integers(1, max_n))
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= up[j]
    p = FinitePoset.from_up_masks(up)
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            allowed = p.universe
            for x2 in bits(p.down[x]):
                for y2 in bits(p.down[y]):
                    if (x2, y2) != (x, y):
                        allowed &= p.up[mul[x2][y2]]
            # Index order is a linear extension, so every product below
            # (x, y) is already fixed; a dead end falls back to a fresh draw.
            choices = list(bits(allowed))
            if not choices:
                return draw(ordered_magmas(max_n))
            mul[x][y] = draw(st.sampled_from(choices))
    return OrderedMagma(p, mul, name="random")


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
    try:
        m.profile
        enumerate_nuclei(m)
    except InternalCheckError as exc:  # pragma: no cover - the property under test
        pytest.fail(f"InternalCheckError on {m.mul} over {m.poset.up}: {exc}")
