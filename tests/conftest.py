from functools import reduce
from operator import and_, getitem

import pytest

from quantic import divisorial, nucleus
from quantic.corpus import ring_corpus, standard_corpus
from quantic.divisorial import lin_monoid
from quantic.instances import plain_magma
from quantic.magma import OrderedMagma, generated_monoid
from quantic.poset import FinitePoset, lane_code, lane_segments, read_code, row_mask


def two_element_monoid() -> OrderedMagma:
    """{1, a} with a*a = a: a monoid that is not a group."""
    return plain_magma(["1", "a"], [[0, 1], [1, 1]])


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def rings():
    return ring_corpus()


@pytest.fixture(scope="session")
def z4(rings):
    return rings["z4"]


@pytest.fixture
def bowtie1_left():
    """The bowtie 0, 1 < 2, 3 with a top 4 added, under left projection
    x*y = x: near residuated but not bounded complete; a fresh carrier per
    test."""
    p = FinitePoset.from_covers([[2, 3], [2, 3], [4], [4], []])
    return OrderedMagma(p, [[x] * 5 for x in range(5)], name="bowtie1-left")


# The positions of the verdicts in one tuple of nucleus._chunk_verdicts.
VERDICTS = ("three_part", "single", "c1", "c2", "c3", "strict", "form2", "form3")


def corrupted_kernel(name, value, only=None):
    """A stand-in for nucleus._chunk_verdicts that reports value as the
    verdict name (one of VERDICTS) of every table, or of the tables in only;
    every other verdict is the kernel's own."""
    kernel, at = nucleus._chunk_verdicts, VERDICTS.index(name)

    def corrupted(carrier, tables):
        return [
            v[:at] + (value,) + v[at + 1 :] if len(v) > at and (only is None or t in only) else v
            for t, v in zip(tables, kernel(carrier, tables))
        ]

    return corrupted


def subset_walk(p, cols=None, start=0):
    """The per-subset oracle of poset.subset_table: every subset X of p,
    depth first, each reached from X minus its largest element; yields
    (X, ub, images) with ub the upper-bound mask of X and images the AND of
    cols over X from start, one stack frame a subset.  So the walk order is
    lexicographic on sorted members, a set before its extensions."""
    n, up = p.n, p.up
    if cols is None:
        cols = [0] * n
    root = (0, p.universe, start)
    yield root
    stack = [(*root, 0)]
    while stack:
        mask, ub, images, x = stack.pop()
        if x < n:
            stack.append((mask, ub, images, x + 1))
            child = (mask | 1 << x, ub & up[x], images & cols[x])
            yield child
            stack.append((*child, x + 1))


def sup_misses_walk(p, cols, start):
    """The subset_walk oracle of poset.sup_misses: every X, in walk order,
    whose sup s exists while the carried images differ from cols[s]."""
    least = p.principal_up
    return [
        mask for mask, ub, images in subset_walk(p, cols, start) if ub in least and images != cols[least[ub]]
    ]


def law_failures_by_lists(m):
    """The list-comparing oracle of magma._law_failures: every pair (x, y),
    x <= y as ids, of a join semilattice breaking the law for some a, by rows
    then columns: row (column) x v y against the joins of rows (columns) x
    and y, compared as lists."""
    join = m.poset.join_table
    for lines in ([list(row) for row in m.mul], [list(col) for col in m.cols]):
        for x, line in enumerate(lines):
            joins_with = [join[u] for u in line]
            for y in range(x, m.n):
                if lines[join[x][y]] != list(map(getitem, joins_with, lines[y])):
                    yield x, y


def invertible_loop(m):
    """The product-at-a-time oracle of Inv(M) in magma.distinguished_sets:
    u has a v with v(ux) = u(vx) = (xu)v = (xv)u = x for every x."""
    op, els = m.op, range(m.n)
    return tuple(
        u
        for u in els
        if any(
            all(op(v, op(u, x)) == x == op(u, op(v, x)) and op(op(x, u), v) == x == op(op(x, v), u) for x in els)
            for v in els
        )
    )


def sup_spanning_loop(m, sigma):
    """The per-pair oracle of magma.is_sup_spanning: xy against the sups of
    {ay : a in Sigma, a <= x} and {xb : b in Sigma, b <= y}, two sup_mask
    calls a pair."""
    p, mul = m.poset, m.mul
    smask = sum(1 << a for a in set(sigma))
    below = [[a for a in range(m.n) if smask >> a & 1 and p.leq(a, x)] for x in range(m.n)]
    for x, row in enumerate(mul):
        for y, target in enumerate(row):
            left = right = 0
            for a in below[x]:
                left |= 1 << mul[a][y]
            for b in below[y]:
                right |= 1 << row[b]
            if p.sup_mask(left) != target or p.sup_mask(right) != target:
                return False
    return True


def magma_hom_loop(f):
    """The per-pair oracle of MagmaMorphism.is_magma_hom: f(xy) = f(x)f(y),
    one op call on each side a pair."""
    n = f.source.n
    return all(f(f.source.op(x, y)) == f.target.op(f(x), f(y)) for x in range(n) for y in range(n))


def lin_masks_loop(q, a):
    """The Lin strategy's constrained masks one map and element at a time:
    bit i of masks[x] is set when the i-th map f of lin_monoid has f(x) <= a."""
    p = q.poset
    lin = lin_monoid(q)
    return [sum(1 << i for i, f in enumerate(lin) if p.leq(f[x], a)) for x in range(q.n)]


def sandwich_masks_loop(q, a):
    """The sandwich strategy's masks one triple at a time: bit r*n + s of
    masks[x] is set when r x s <= a."""
    n = q.n
    return [
        sum(1 << (r * n + s) for r in range(n) for s in range(n) if q.leq(q.op(q.op(r, x), s), a))
        for x in range(n)
    ]


def witness_masks(strategy, q, a):
    """The constrained masks the witness kernel of the Lin or sandwich
    strategy reads, recorded from its row_mask calls, one a column."""
    masks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisorial, "row_mask", lambda row: masks.append(row_mask(row)) or masks[-1])
        strategy(q, a)
    return masks


def v_units_loop(q, a):
    """The unit-sandwich table one element at a time: x -> the infimum of the
    sandwiches u a v above x, each product recomputed for each x; units from
    the automorphism loop, spanning from sup_spanning_loop.  None where the
    hypotheses of v_units fail."""
    prof = q.profile
    if not (prof.unital and prof.associative and prof.near_sup_magma):
        return None
    units = units_loop(q)
    if not sup_spanning_loop(q, units):
        return None
    p, op, table = q.poset, q.op, []
    for x in range(q.n):
        sandwiches = [op(op(u, a), v) for u in units for v in units if p.leq(x, op(op(u, a), v))]
        table.append(p.inf_mask(sum(1 << s for s in set(sandwiches))))
    return table


def units_loop(m):
    """U(M) one product at a time: both translations of u are poset automorphisms."""
    p, op, els = m.poset, m.op, range(m.n)
    return tuple(
        u
        for u in els
        if automorphism_loop(p, [op(u, x) for x in els]) and automorphism_loop(p, [op(x, u) for x in els])
    )


def order_preserving_loop(p, t, target):
    return all(target.leq(t[x], t[y]) for x in range(p.n) for y in range(p.n) if p.leq(x, y))


def automorphism_loop(p, t):
    if len(set(t)) != p.n:
        return False
    inv = [t.index(x) for x in range(p.n)]
    return order_preserving_loop(p, t, p) and order_preserving_loop(p, inv, p)


def nf_loop(m):
    """The per-element oracle of the Nf row: for each pair of nuclei, the sup
    of every element's images under their composition monoid, one sup_mask
    call an element, against the join; the row's (status, detail)."""
    if not m.profile.near_prequantale:
        return "skip", "needs a small near prequantale"
    maps = nucleus.enumerate_nuclei(m)
    joins = nucleus.nuclei_join_table(m)
    for i, s in enumerate(maps):
        for j in range(i, len(maps)):
            joined = maps[joins[i][j]].table
            monoid = generated_monoid(m, (s.table, maps[j].table))
            for x, images in enumerate(zip(*monoid)):
                if m.poset.sup_mask(sum(1 << y for y in set(images))) != joined[x]:
                    return "fail", "composition-monoid supremum misses the join"
    return "pass", ""


def all_pairs(k):
    """Every pair (i, j) of positions with i <= j, row by row."""
    return [(i, j) for i in range(k) for j in range(i, k)]


def pair_chunker(pairs):
    """A stand-in for nucleus._pair_chunks over the given pairs (i, j) of
    positions, per at a time: (q, the first tables, the second tables, the
    join entries' tables or None, the number of pairs of the form (s, s))."""

    def chunks(tables, joins, per, n):
        for c in range(0, len(pairs), per):
            chunk = pairs[c : c + per]
            yield (
                len(chunk),
                b"".join(tables[i] for i, _ in chunk),
                b"".join(tables[j] for _, j in chunk),
                None if joins is None else b"".join(tables[joins[i][j]] for i, j in chunk),
                sum(i == j for i, j in chunk),
            )

    return chunks


def nf_monoid_loop(m, pairs=None):
    """The per-pair oracle of the Nf row's slot-encoded pass: each pair's
    composition monoid saturated by generated_monoid, the AND of the up-lane
    codes of its maps against the code of the join; over pairs (i, j) of
    positions in enumerate_nuclei(m), every i <= j by default.  The row's
    (status, detail)."""
    if not m.profile.near_prequantale:
        return "skip", "needs a small near prequantale"
    p, maps = m.poset, nucleus.enumerate_nuclei(m)
    joins = nucleus.nuclei_join_table(m)
    for i, j in all_pairs(len(maps)) if pairs is None else pairs:
        monoid = list(generated_monoid(m, (maps[i].table, maps[j].table)))
        bounds = reduce(and_, map(read_code, lane_segments(p.up_lanes, monoid)), p.universe_code(m.n))
        if bounds != lane_code(p.up_lanes, maps[joins[i][j]].table):
            return "fail", "composition-monoid supremum misses the join"
    return "pass", ""


def complemmacor_loop(m, pairs=None):
    """The per-pair oracle of the complemmacor row's slot-encoded pass:
    certified_composition on each pair, its composition against the join
    where the join formula applies; the row's (status, detail).  (s, t) and
    (t, s) share one verdict, so s != t counts twice."""
    maps = nucleus.enumerate_nuclei(m)
    joins = nucleus.nuclei_join_table(m) if nucleus.join_formula_applies(m) else None
    certified = 0
    for i, j in all_pairs(len(maps)) if pairs is None else pairs:
        found = nucleus.certified_composition(m, maps[i], maps[j])
        if found is not None:
            certified += 1 if i == j else 2
            if joins is not None and found[1].table != maps[joins[i][j]].table:
                return "fail", "certified composition disagrees with the join"
    return "pass", f"{certified} certified pairs"


def poly_tables_by_entry(p, modulus):
    """The per-entry oracle of FiniteRing.poly_quotient: its addition and
    multiplication tables as lists of id lists, built by linearity, one
    lookup per entry.  a+b adds the low digits and then the rest, and with
    b = d + p*j, a*b = d*a + x*(a*j)."""
    deg = len(modulus) - 1
    size = p ** deg
    add = [list(range(size))]
    for a in range(1, size):
        low, rest = a % p, add[a // p]
        add.append([(low + b % p) % p + p * rest[b // p] for b in range(size)])
    # scale[d][a] = d*a, and x*a moves every digit up one place and turns
    # the top digit t into t*x^deg = t*(x^deg - f).
    scale = [[0] * size]
    for _ in range(1, p):
        scale.append([add[s][a] for a, s in enumerate(scale[-1])])
    top = p ** (deg - 1)
    reduced = sum((-c % p) * p ** i for i, c in enumerate(modulus[:deg]))
    times_x = [add[p * (a % top)][scale[a // top][reduced]] for a in range(size)]
    mul = []
    for a in range(size):
        row = [0] * size
        for b in range(1, size):
            row[b] = add[scale[b % p][a]][times_x[row[b // p]]]
        mul.append(row)
    return add, mul
