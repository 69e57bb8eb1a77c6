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
x < y are kept as bytes, so the nucleus kernels compose tables with
bytes.translate, one C call per row.  Order conditions rest on a <= b iff
up[b] is a subset of up[a] (Ait-Kaci, Boyer, Lincoln and Nasr, ACM TOPLAS
11(1), 1989).  The lane code of a table t writes up[t[i]] into lane i of
one int, k = ceil(n/8) bytes a lane (at most 32 within the 256-id byte
bound): byte j of every lane is t translated through up_lanes[j].  So
t <= u pointwise iff lane_code(u) & ~lane_code(t) == 0, one big-int AND for
every pair at once.  The up lanes are the one lane code: all_below and
order_preserving_each decide maps, batches of maps, morphisms, automorphism
tests and the order-compatibility of a product, the nucleus chunk kernel
reads the same codes, and lane_segments codes several id strings in one
pass.  A set of ids becomes a bitmask through id_mask, and a 0/1 row
through row_mask.

The 2**n subset scans up to EXHAUSTIVE_CAP read tables built by doubling
(subset_table), such as the upper bounds ub[X | 1<<x] = ub[X] & up[x], in
blocks and in walk order, so a scan lists its misses in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress, repeat
from operator import and_, itemgetter, ne, not_, or_
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
# subset_table holds at most 2**SUBSET_BLOCK entries a block.
SUBSET_BLOCK = 8


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


# Byte 0 or 1 to the ASCII digit "0" or "1".
_DIGITS = translate_table(b"01")


def row_mask(row: bytes) -> int:
    """The bitmask whose bit z is byte z of the 0/1 row, the inverse of
    mask_row: the row read as binary digits, lowest bit last."""
    return int(row.translate(_DIGITS)[::-1] or b"0", 2)


def byte_lanes(masks: Iterable[int], n: int) -> tuple:
    """Byte j of every n-bit mask, masks[x] read at x, as a translate table,
    for j < k = ceil(n/8): the tables lane_code writes lanes with."""
    k = (n + 7) // 8
    packed = b"".join(mask.to_bytes(k, "little") for mask in masks)
    return tuple(translate_table(packed[j::k]) for j in range(k))


def _lanes(tables: Sequence[bytes], t: bytes) -> bytearray:
    """masks[t[i]] in lane i, k = len(tables) bytes a lane, little-endian:
    k translates into a strided bytearray."""
    k = len(tables)
    lanes = bytearray(len(t) * k)
    for j, table in enumerate(tables):
        lanes[j::k] = t.translate(table)
    return lanes


def lane_code(tables: Sequence[bytes], t: bytes) -> int:
    """One int holding masks[t[i]] in lane i, k = len(tables) bytes a lane,
    for tables = byte_lanes(masks, n): the lanes, then one int.from_bytes."""
    return int.from_bytes(_lanes(tables, t), "little")


def lane_segments(tables: Sequence[bytes], strings: Sequence[bytes]) -> list:
    """The bytes of lane_code(tables, s) for each id string s, as slices of
    one strided bytearray: k translates of the strings' concatenation in
    all, however many strings there are."""
    k = len(tables)
    view, out, at = memoryview(_lanes(tables, b"".join(strings))), [], 0
    for s in strings:
        out.append(view[at : at + len(s) * k])
        at += len(s) * k
    return out


# The lane code whose bytes lane_segments gave.
read_code = partial(int.from_bytes, byteorder="little")


def all_below(p: "FinitePoset", lo: bytes, hi: bytes) -> bool:
    """lo[i] <= hi[i] in p for every i, for two id sequences (such as two map
    tables): up[hi[i]] within up[lo[i]] in every lane, one AND."""
    lanes = p.up_lanes
    return not lane_code(lanes, hi) & ~lane_code(lanes, lo)


def lanes_within(lanes: Sequence[bytes], lo: bytes, hi: bytes, count: int) -> list:
    """For each of count equal segments of the id strings lo and hi, whether
    masks[lo[i]] lies within masks[hi[i]] at every position i of the
    segment, for lanes = byte_lanes(masks, n); over up_lanes that is
    hi[i] <= lo[i].  One AND for all the segments: segment j is bytes j*w to
    (j+1)*w of the violations, w = len(lo) // count positions of
    len(lanes) bytes."""
    if not lo:
        return [True] * count
    width = len(lo) // count * len(lanes)
    return zero_segments(lane_code(lanes, lo) & ~lane_code(lanes, hi), count, width)


def zero_segments(code: int, count: int, width: int) -> list:
    """Whether each of count segments of width bytes of code, lowest first, is zero."""
    if count == 1:
        return [not code]
    raw, zero = code.to_bytes(width * count, "little"), bytes(width)
    return [raw[j : j + width] == zero for j in range(0, len(raw), width)]


def order_preserving_each(p: "FinitePoset", tables: Sequence[bytes], target: Optional["FinitePoset"] = None) -> list:
    """Whether t(x) <= t(y) in target (p itself by default) over the stored
    pairs x < y of p, for each table t: one lanes_within for all the tables,
    up[t(y)] within up[t(x)]."""
    lo, hi = p.order_pairs
    pads = list(map(translate_table, tables))
    lanes = (p if target is None else target).up_lanes
    return lanes_within(lanes, b"".join(map(hi.translate, pads)), b"".join(map(lo.translate, pads)), len(tables))


def order_preserving(p: "FinitePoset", t: bytes, target: Optional["FinitePoset"] = None) -> bool:
    """t(x) <= t(y) in target (p itself by default) over the stored pairs x < y of p."""
    return order_preserving_each(p, [t], target)[0]


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

    def check_ids(self, xs: Iterable[int]):
        """Every id must be an int (not a bool) in range(n).  A bytes entry is
        an int in 0..255, so one max decides bytes; where it fails, the loop
        finds the first offender."""
        n = self.n
        if isinstance(xs, bytes) and xs and max(xs) < n:
            return
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
    def up_lanes(self) -> tuple:
        """byte_lanes of the up-sets: lane_code(up_lanes, t) holds up[t[i]]
        in lane i, and a <= b iff up[b] lies within up[a]."""
        return byte_lanes(self.up, self.n)

    @cached_property
    def up_rows(self) -> tuple:
        """The 0/1 row of each up-set as a translate table: ids.translate(up_rows[v])
        marks each id of ids that lies above v."""
        return tuple(translate_table(mask_row(u, self.n)) for u in self.up)

    @cached_property
    def down_rows(self) -> tuple:
        """The 0/1 row of each down-set as a translate table, likewise."""
        return tuple(translate_table(mask_row(d, self.n)) for d in self.down)

    @cached_property
    def down_lanes(self) -> tuple:
        """byte_lanes of the down-sets; a pointwise meet has the AND of the codes."""
        return byte_lanes(self.down, self.n)

    def universe_code(self, count: int) -> int:
        """The universe in each of count lanes as wide as up_lanes': the
        upper bounds of the empty set for count maps into this poset."""
        return int.from_bytes(self.universe.to_bytes(len(self.up_lanes), "little") * count, "little")

    def bound_table(self):
        """subset_table of the upper bounds: T[X] the upper-bound mask of X.
        The tail's walk_table, at most 2**SUBSET_BLOCK entries, is kept."""
        tail = self.__dict__.get("_bound_tail")
        if tail is None:
            head = max(self.n - SUBSET_BLOCK, 0)
            tail = self.__dict__["_bound_tail"] = tuple(walk_table(self.universe, self.up[head:]))
        return subset_table(self.n, self.universe, self.up, tail=tail)

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
        elems = list(bits(mask))
        pairs = ((a, b) for i, a in enumerate(elems) for b in elems[i + 1 :])
        return bool(mask) and all(self.up[a] & self.up[b] & mask for a, b in pairs)

    def is_directed(self, xs: Iterable[int]) -> bool:
        return self.is_directed_mask(self.mask_of(xs))

    def is_downward_closed(self, mask: int) -> bool:
        return not any(self.down[x] & ~mask for x in bits(mask))

    def covers(self, i: int) -> list:
        """Elements directly above i."""
        strict = self.up[i] & ~(1 << i)
        # j covers i when no other element strictly above i lies below j.
        return [j for j in bits(strict) if strict & self.down[j] == 1 << j]

    def compact_elements(self) -> list:
        """Every element of a finite poset is compact: directed sets have maxima."""
        return list(range(self.n))

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
            # One scan: firsts[k] is the first (subset, upper bounds) with no sup in flag
            # k's class: any subset (filter None), nonempty (the mask), bounded too (all).
            misses = self._subsets_without_sup()
            firsts = [next(filter(test, misses), None) for test in (None, itemgetter(0), all)]
            pair, scan = (complete, near_sup, bounded_complete), tuple(first is None for first in firsts)
            if scan != pair:
                k = list(map(ne, scan, pair)).index(True)
                raise InternalCheckError(
                    "pairwise and exhaustive poset classification disagree: "
                    f"pair={pair} scan={scan} on {carrier_label(self)}, first parting subset "
                    f"{self._parting_subset(k) if scan[k] else list(bits(firsts[k][0]))}"
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

    def _subsets_without_sup(self) -> list:
        """(X, ub) for every subset X with no supremum, in walk order: the
        upper-bound table of subset_table, read through principal_up."""
        n, least, out = self.n, self.principal_up, []
        for masks, ubs in zip(subset_masks(n), self.bound_table()):
            out += compress(zip(masks, ubs), map(not_, map(least.__contains__, ubs)))
        return out

    def _parting_subset(self, k: int) -> list:
        """A subset without a supremum in the class of flag k (0: every
        subset, 1: nonempty ones, 2: nonempty ones bounded above), found by
        the pairwise route: the joins, a missing top or a missing bottom."""
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


_SINGLES = tuple(1 << x for x in range(ENUM_CAP))


def walk_table(start: int, cols: Sequence[int], op=and_) -> list:
    """The table T over every subset X of range(len(cols)): T[{}] = start and
    T[X | 1<<x] = op(T[X], cols[x]), for op and_ or or_, in walk order
    (lexicographic on sorted members, a set before its extensions).  By
    doubling, one map an element: over the elements x..k-1 the walk is {},
    then {x} joined to each set of the walk over x+1..k-1, then the rest of
    that walk."""
    walk = [start]
    for c in reversed(cols):
        walk[1:1] = map(op, walk, repeat(c))
    return walk


def subset_table(n: int, start: int, cols: Sequence[int], op=and_, tail: Optional[Sequence[int]] = None):
    """The table of walk_table over every subset of range(n), as sequences
    whose concatenation is the table in walk order; no list of the 2**n
    entries is held.  The last min(n, SUBSET_BLOCK) elements, the tail, take
    one walk_table (tail, where the caller keeps it).  A set A of the other
    elements, the head, is crossed with all of it: A itself comes where the
    walk meets A, and A with a nonempty set of the tail after every
    extension of A within the head.

    For cols[x] = up[x] and start the universe, T[X] is the upper-bound mask
    of X.  For maps f_1..f_k, cols[x] packs the up-sets of f_1(x), ...,
    f_k(x) (lane_code over the target's up_lanes) and start is its
    universe_code(k): lane i of T[X] is the upper-bound mask of f_i(X), one
    AND a step for all the maps.
    """
    head = max(n - SUBSET_BLOCK, 0)
    if tail is None:
        tail = walk_table(start, cols[head:n], op)
    if not head:
        return [tail]

    def block(value: int, x: int):
        crossed = list(map(op, tail, repeat(value)))
        yield crossed[:1]
        for y in range(x, head):
            yield from block(op(value, cols[y]), y + 1)
        yield crossed[1:]

    return block(start, 0)


@lru_cache(maxsize=ENUM_CAP + 1)
def _mask_tail(n: int) -> tuple:
    """The masks of the sets of the last min(n, SUBSET_BLOCK) of n elements, in walk order."""
    return tuple(walk_table(0, _SINGLES[max(n - SUBSET_BLOCK, 0) : n], or_))


def subset_masks(n: int):
    """The masks of the subsets of range(n), in the sequences of subset_table."""
    return subset_table(n, 0, _SINGLES, or_, _mask_tail(n))


def sup_misses(p: FinitePoset, cols: Sequence[int], start: int) -> list:
    """Every subset X, in walk order, whose sup s exists while the upper
    bounds of its images, subset_table(p.n, start, cols), differ from
    cols[s]: for cols[x] = up[f(x)], f(s) is sup f(X) exactly when the up-set
    ub(f(X)) is up[f(s)].  The one sup-preservation scan: a subset with no
    sup reads its own images back from the lookup, so it never misses."""
    n, expected = p.n, dict(zip(p.up, cols))
    out = []
    for masks, ubs, images in zip(subset_masks(n), p.bound_table(), subset_table(n, start, cols)):
        out += compress(masks, map(ne, map(expected.get, ubs, images), images))
    return out


def ub_scan_sup(p: FinitePoset, xs: Iterable[int]) -> Optional[int]:
    """Independent sup oracle: full scan of the upper-bound set for a least element."""
    members = list(xs)
    ubs = [u for u in range(p.n) if all(p.leq(x, u) for x in members)]
    for u in ubs:
        if all(p.leq(u, v) for v in ubs):
            return u
    return None
