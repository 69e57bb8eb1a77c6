from operator import getitem

import pytest

from quantic import nucleus
from quantic.corpus import ring_corpus, standard_corpus
from quantic.instances import plain_magma
from quantic.magma import OrderedMagma
from quantic.poset import FinitePoset


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
