"""Finite posets stored as full order-relation bitmasks.

Carriers are capped at 64 elements so that every up-set and down-set fits in a
single machine word; all downstream algorithms (classification, nucleus
enumeration) reduce to bitmask arithmetic on these masks.

Suprema are read from principal filters.  The upper bounds of any subset form
an up-set, and an up-set has a least element w exactly when it equals up[w]:
if w is least, the set lies in up[w], and up[w] lies in the set because it is
up-closed and holds w.  So one dict lookup in {up[x]: x} finds the supremum
of a subset, or shows there is none, and dually {down[x]: x} finds infima.
The join and meet tables and the subset scans read the same lookups;
least_of stays for masks that need not be up-closed.

The cap also lets an id be one byte: the 0/1 rows of the order and the pairs
x < y are kept as bytes, so the nucleus kernels decide order conditions and
compose tables with bytes.translate, one C call per row.  all_below and
order_preserving are the one order kernel: maps, morphisms, automorphism
tests and the order-compatibility of a product are decided through them.
A set of ids becomes a bitmask through id_mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import and_, getitem
from typing import Iterable, Optional, Sequence

from .errors import CarrierTooLarge, InternalCheckError, StructureError

# Hard cap for carriers that feed enumeration algorithms.  ENUM_CAP <= 256, so
# every id is one byte and a table t of ids padded to 256 bytes is a
# bytes.translate table: row.translate(t + pad) composes t after row.
ENUM_CAP = 64
# 2**n subset scans (exhaustive cross-validation) are only run up to this size;
# beyond it the pairwise characterizations, which are equivalent on finite
# carriers, stand alone.
EXHAUSTIVE_CAP = 14


def bits(mask: int):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def translate_table(row: bytes) -> bytes:
    """row padded with zeros to the 256 bytes of a bytes.translate table."""
    return row.ljust(256, b"\0")


def id_mask(ids: Iterable[int]) -> int:
    """The bitmask of the ids; an id may repeat."""
    mask = 0
    for x in ids:
        mask |= 1 << x
    return mask


# _BYTE_BITS[b]: the eight bits of the byte b, lowest first, as 0/1 bytes.
_BYTE_BITS = tuple(bytes(b >> i & 1 for i in range(8)) for b in range(256))


def mask_row(mask: int, n: int) -> bytes:
    """Bit z of mask as byte z, for z < n <= ENUM_CAP: the 0/1 row of a subset."""
    return b"".join(map(_BYTE_BITS.__getitem__, mask.to_bytes(8, "little")))[:n]


def all_below(p: "FinitePoset", lo: bytes, hi: bytes) -> bool:
    """lo[i] <= hi[i] in p for every i, for two id sequences (such as two map
    tables): one byte of the order rows per pair."""
    return all(map(getitem, map(p.up_rows.__getitem__, lo), hi))


def order_preserving(p: "FinitePoset", t: bytes, target: Optional["FinitePoset"] = None) -> bool:
    """t(x) <= t(y) in target (p itself by default) over the stored pairs x < y of p."""
    lo, hi = p.order_pairs
    table = translate_table(t)
    return all_below(p if target is None else target, lo.translate(table), hi.translate(table))


def carrier_label(carrier) -> str:
    """The carrier's name, or its type when it has none, and its size."""
    name = getattr(carrier, "name", "") or type(carrier).__name__
    return f"{name} ({carrier.n} elements)"


def broken(carrier, what: str) -> InternalCheckError:
    """An internal-check failure: what broke, on which carrier."""
    return InternalCheckError(f"{what} on {carrier_label(carrier)}")


def transpose(rows: Sequence[int], n: int) -> list:
    """The transposed relation: bit i of out[j] is bit j of rows[i]."""
    out = [0] * n
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


@dataclass(frozen=True)
class PosetFlags:
    """Order-theoretic classification of one carrier."""

    complete: bool
    near_sup_complete: bool
    bounded_complete: bool
    dcpo: bool
    bdcpo: bool
    bounded_above: bool
    bounded_below: bool
    join_semilattice: bool
    meet_semilattice: bool
    lattice: bool
    algebraic: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class FinitePoset:
    """Immutable finite poset on elements 0..n-1.

    up[i] is the bitmask of {j : i <= j} and down[i] the bitmask of
    {j : j <= i}; leq is O(1).  Construction validates reflexivity,
    antisymmetry and transitivity and reports a counterexample triple on
    failure.
    """

    __slots__ = ("n", "up", "down", "labels", "__dict__")

    def __init__(self, leq_rows: Sequence[Sequence[bool]], labels: Optional[Sequence[str]] = None):
        n = len(leq_rows)
        if n > ENUM_CAP:
            raise CarrierTooLarge(f"poset capped at {ENUM_CAP} elements, got {n} elements")
        up = []
        for i, row in enumerate(leq_rows):
            if len(row) != n:
                raise StructureError(f"leq row {i} has length {len(row)}, expected {n}")
            mask = 0
            for j, v in enumerate(row):
                if v:
                    mask |= 1 << j
            up.append(mask)
        self.n = n
        self.up = tuple(up)
        self.down = tuple(transpose(up, n))
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise StructureError("labels length does not match carrier size")
        self._validate()

    def _validate(self):
        n, up = self.n, self.up
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise StructureError(f"order not reflexive at element {i}")
        for i in range(n):
            for j in bits(up[i]):
                if j != i and (up[j] >> i) & 1:
                    raise StructureError(f"order not antisymmetric on pair ({i}, {j})")
                if up[j] & ~up[i]:
                    k = next(bits(up[j] & ~up[i]))
                    raise StructureError(
                        f"order not transitive: {i} <= {j} and {j} <= {k} but not {i} <= {k}"
                    )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_up_masks(cls, up: Sequence[int], labels=None) -> "FinitePoset":
        n = len(up)
        return cls([[bool((up[i] >> j) & 1) for j in range(n)] for i in range(n)], labels)

    @classmethod
    def from_covers(cls, covers: Sequence[Iterable[int]], labels=None) -> "FinitePoset":
        """Build from cover lists: covers[i] lists elements directly above i."""
        n = len(covers)
        up = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in covers[i]:
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        return cls.from_up_masks(up, labels)

    @classmethod
    def chain(cls, n: int, labels=None) -> "FinitePoset":
        return cls([[i <= j for j in range(n)] for i in range(n)], labels)

    @classmethod
    def antichain(cls, n: int, labels=None) -> "FinitePoset":
        return cls([[i == j for j in range(n)] for i in range(n)], labels)

    @classmethod
    def diamond(cls) -> "FinitePoset":
        # 0 < a, b < 1 with a, b incomparable
        return cls.from_covers([[1, 2], [3], [3], []], labels=["0", "a", "b", "1"])

    @classmethod
    def powerset(cls, k: int, labels=None) -> "FinitePoset":
        """Subsets of a k-element set ordered by inclusion; element i is the mask i."""
        n = 1 << k
        if labels is None:
            labels = ["{" + ",".join(str(b) for b in bits(i)) + "}" for i in range(n)]
        return cls([[(i | j) == j for j in range(n)] for i in range(n)], labels)

    # -- basic queries -----------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def check_ids(self, xs: Iterable[int]):
        """Every id must be an int (not a bool) in range(n)."""
        n = self.n
        for x in xs:
            if type(x) is not int:
                raise StructureError(f"element id {x!r} is not an integer")
            if not (0 <= x < n):
                raise StructureError(f"element id {x} foreign to carrier of size {n}")

    def mask_of(self, xs: Iterable[int]) -> int:
        xs = tuple(xs)
        self.check_ids(xs)
        return id_mask(xs)

    @property
    def universe(self) -> int:
        return (1 << self.n) - 1

    def least_of(self, mask: int) -> Optional[int]:
        """Least element of the subset mask, or None."""
        for u in bits(mask):
            if not (mask & ~self.up[u]):
                return u
        return None

    def greatest_of(self, mask: int) -> Optional[int]:
        for u in bits(mask):
            if not (mask & ~self.down[u]):
                return u
        return None

    def upper_bounds(self, mask: int) -> int:
        acc = self.universe
        for x in bits(mask):
            acc &= self.up[x]
        return acc

    def lower_bounds(self, mask: int) -> int:
        acc = self.universe
        for x in bits(mask):
            acc &= self.down[x]
        return acc

    @cached_property
    def principal_up(self) -> dict:
        """{up[x]: x}: the least element of an up-set, looked up."""
        return {u: x for x, u in enumerate(self.up)}

    @cached_property
    def principal_down(self) -> dict:
        """{down[x]: x}: the greatest element of a down-set, looked up."""
        return {d: x for x, d in enumerate(self.down)}

    @cached_property
    def up_rows(self) -> tuple:
        """up_rows[a][b] is 1 when a <= b, else 0: up[a] as 256 bytes, so a row
        is also a translate table mapping b to whether a <= b."""
        return tuple(translate_table(mask_row(u, self.n)) for u in self.up)

    @cached_property
    def order_pairs(self) -> tuple:
        """(lo, hi): every pair x < y, as two byte strings."""
        pairs = [(x, y) for x in range(self.n) for y in bits(self.up[x] & ~(1 << x))]
        return bytes(x for x, _ in pairs), bytes(y for _, y in pairs)

    def sup_mask(self, mask: int) -> Optional[int]:
        """Least upper bound of the subset mask, or None if it does not exist."""
        return self.principal_up.get(self.upper_bounds(mask))

    def inf_mask(self, mask: int) -> Optional[int]:
        return self.principal_down.get(self.lower_bounds(mask))

    def sup(self, xs: Iterable[int]) -> Optional[int]:
        return self.sup_mask(self.mask_of(xs))

    def inf(self, xs: Iterable[int]) -> Optional[int]:
        return self.inf_mask(self.mask_of(xs))

    def is_least(self, w: int, mask: int) -> bool:
        """Whether w is the least element of the subset mask."""
        return bool(mask >> w & 1) and not mask & ~self.up[w]

    def join(self, i: int, j: int) -> Optional[int]:
        return self.join_table[i][j]

    def meet(self, i: int, j: int) -> Optional[int]:
        return self.meet_table[i][j]

    @cached_property
    def join_table(self) -> tuple:
        """join_table[i][j] is the join of i and j, or None; built once per poset."""
        up, least = self.up, self.principal_up
        return self._symmetric_table(lambda i, j: least.get(up[i] & up[j]))

    @cached_property
    def meet_table(self) -> tuple:
        """meet_table[i][j] is the meet of i and j, or None; built once per poset."""
        down, greatest = self.down, self.principal_down
        return self._symmetric_table(lambda i, j: greatest.get(down[i] & down[j]))

    def _symmetric_table(self, entry) -> tuple:
        n = self.n
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = entry(i, j)
        return tuple(map(tuple, rows))

    @cached_property
    def bottom(self) -> Optional[int]:
        return self.principal_up.get(self.universe)

    @cached_property
    def top(self) -> Optional[int]:
        return self.principal_down.get(self.universe)

    def is_directed_mask(self, mask: int) -> bool:
        """The empty set is not directed; pairs suffice on finite carriers."""
        if not mask:
            return False
        elems = list(bits(mask))
        for a in elems:
            for b in elems:
                if b > a:
                    if not (self.up[a] & self.up[b] & mask):
                        return False
        return True

    def is_directed(self, xs: Iterable[int]) -> bool:
        return self.is_directed_mask(self.mask_of(xs))

    def is_downward_closed(self, mask: int) -> bool:
        for x in bits(mask):
            if self.down[x] & ~mask:
                return False
        return True

    def maximal_elements(self) -> list:
        return [i for i in range(self.n) if self.up[i] == (1 << i)]

    def covers(self, i: int) -> list:
        """Elements directly above i."""
        strict = self.up[i] & ~(1 << i)
        out = []
        for j in bits(strict):
            if not any(self.lt(i, k) and self.lt(k, j) for k in bits(strict)):
                out.append(j)
        return out

    def compact_elements(self) -> list:
        """Every element of a finite poset is compact: directed sets have maxima."""
        return list(range(self.n))

    def dual(self) -> "FinitePoset":
        return FinitePoset.from_up_masks(self.down, self.labels)

    def restrict(self, members: Sequence[int]) -> "FinitePoset":
        """Induced subposet on the given (sorted, distinct) elements."""
        self.check_ids(members)
        return FinitePoset(
            [[self.leq(a, b) for b in members] for a in members],
            [self.labels[a] for a in members],
        )

    # -- classification ----------------------------------------------------

    @cached_property
    def flags(self) -> PosetFlags:
        n, joins = self.n, self.join_table
        join_semi = all(None not in row for row in joins)
        meet_semi = all(None not in row for row in self.meet_table)
        has_top = self.top is not None
        has_bottom = self.bottom is not None
        # On finite carriers every nonempty subset is finite, so pairwise joins
        # decide near sup-completeness, and adding the empty set decides
        # completeness.
        near_sup = join_semi and (has_top or n == 0)
        complete = near_sup and has_bottom
        bounded_complete = all(
            joins[i][j] is not None
            for i in range(n)
            for j in range(i, n)
            if self.up[i] & self.up[j]
        )
        if n <= EXHAUSTIVE_CAP:
            pair = (complete, near_sup, bounded_complete)
            scan = self._flag_scan()
            if scan != pair:
                k = next(k for k in range(3) if scan[k] != pair[k])
                raise InternalCheckError(
                    "pairwise and exhaustive poset classification disagree: "
                    f"pair={pair} scan={scan} on {carrier_label(self)}, first parting "
                    f"subset {self._parting_subset(k, scan[k])}"
                )
        return PosetFlags(
            complete=complete,
            near_sup_complete=near_sup,
            bounded_complete=bounded_complete,
            dcpo=True,
            bdcpo=True,
            bounded_above=has_top,
            bounded_below=has_bottom,
            join_semilattice=join_semi,
            meet_semilattice=meet_semi,
            lattice=join_semi and meet_semi,
            algebraic=True,
        )

    def _subsets_without_sup(self):
        """(X, ub) for every subset X with no supremum, in walk order."""
        least = self.principal_up
        return ((mask, ub) for mask, ub, _ in subset_walk(self) if ub not in least)

    def _flag_scan(self) -> tuple:
        """(complete, near sup-complete, bounded complete) decided by one walk
        over every subset, independently of the pairwise joins."""
        scan_complete = True
        scan_near = True
        scan_bc = True
        for mask, ub in self._subsets_without_sup():
            scan_complete = False
            if mask:
                scan_near = False
                if ub:
                    scan_bc = False
        return scan_complete, scan_near, scan_bc

    def _parting_subset(self, k: int, scan_holds: bool) -> list:
        """A subset without a supremum in the class of flag k (0: every
        subset, 1: nonempty ones, 2: nonempty ones bounded above), found by
        the route that denies the flag: the walk unless scan_holds, else the
        pairwise joins, a missing top or a missing bottom."""
        if not scan_holds:
            for mask, ub in self._subsets_without_sup():
                if k == 0 or mask and (k == 1 or ub):
                    return list(bits(mask))
        for i, row in enumerate(self.join_table):
            for j in range(i, self.n):
                if row[j] is None and (k < 2 or self.up[i] & self.up[j]):
                    return [i, j]
        return [] if k == 0 and self.top is not None else list(range(self.n))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FinitePoset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"FinitePoset(n={self.n})"


def subset_walk(p: FinitePoset, cols: Optional[Sequence[tuple]] = None, start: tuple = ()):
    """Every subset X of p, depth first, each reached from X minus its largest
    element; yields (X, ub, images) with ub the upper-bound mask of X.

    For maps f_1..f_k, pass cols[x] = (up-set of f_1(x), ..., up-set of
    f_k(x)) and start = (universe of f_1's target, ...): then images[i] is
    the upper-bound mask of f_i(X), carried as ub is, by one AND per step.
    The stack holds |X| + 1 frames, and no list of the 2**n subsets is built.
    """
    n, up = p.n, p.up
    if cols is None:
        cols = [()] * n
    root = (0, p.universe, list(start))
    yield root
    stack = [(*root, 0)]
    while stack:
        mask, ub, images, x = stack.pop()
        if x < n:
            stack.append((mask, ub, images, x + 1))
            child = (mask | 1 << x, ub & up[x], list(map(and_, images, cols[x])))
            yield child
            stack.append((*child, x + 1))


def ub_scan_sup(p: FinitePoset, xs: Iterable[int]) -> Optional[int]:
    """Independent sup oracle: full scan of the upper-bound set for a least element."""
    members = list(xs)
    ubs = [u for u in range(p.n) if all(p.leq(x, u) for x in members)]
    for u in ubs:
        if all(p.leq(u, v) for v in ubs):
            return u
    return None
