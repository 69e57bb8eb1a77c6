"""Closure operations and nuclei on finite carriers.

Predicates cross-check every equivalent characterization they implement and
raise InternalCheckError, naming the carrier and its size, on disagreement;
closure enumeration is a backtracking search that visits only closures, with
the naive filter of all self-maps available as an independent oracle.

Constructions check the nuclei they take through one precondition,
_nuclei_of (HypothesisNotMet naming the operation), and the nucleus they
return through one postcondition, _certified (InternalCheckError naming the
carrier).  MonotoneMap checks its ids against its own carrier, and a
decision or a comparison refuses a table of another length, a map of another
carrier, with StructureError, storing no verdict.  Tables derived from a
carrier's own tables are composed and read as bitmasks without a second
check.  The meet and join tables of N(M) decide each pair by an order
route and a formula route, two lookups a whole row at a time (_pair_table).

One cache rule: each carrier object keeps one dict, its _memo.  A function
decorated with per_carrier stores its result there under (function, *args),
built on the first call and returned as stored after it; a build that raises
stores nothing, so the next call raises again.  The same dict holds the
verdicts that the chunks of _decide_nuclei write, ("nucleus", table) on a
magma and ("closure", table) on its poset.  Stored results are tuples,
read-only mappings, bytes, or objects no caller changes.

The nucleus search can stop at a count.  nuclei_at_most(m, cap) feeds
_decide_nuclei the closures as the backtracking search reaches them, in
batches sized to the nuclei still needed, and gives up once it has found
cap + 1, so a refusal costs O(cap) decisions; the verdicts stay in the
memo, and a search that finds every nucleus stores the tuple where
enumerate_nuclei keeps it.  N(M) asks for at most ENUM_CAP nuclei and is
refused with "has more than ENUM_CAP nuclei", a lower bound; the verify
rows quadratic in the count ask for at most their own cap.  The Nf and
complemmacor rows read one slot-encoded pass over the alternating words of
every pair of nuclei (_alternations; see the comment at its section).

A map table is bytes, one byte per id: carriers have at most
ENUM_CAP = 64 <= 256 elements.  _pad(T), the table T padded to 256 bytes, is
a bytes.translate table, so row.translate(_pad(T)) applies T to every entry
of row in one C call, and g o f is f.translate(_pad(g)).  An order condition
u <= w over all pairs rests on a <= b iff up[b] is a subset of up[a]: it is
one AND of the up-lane codes of the two sides (poset.all_below),
k = ceil(n/8) bytes a lane.

_decide_nuclei decides byte tables in chunks of BATCH_MAPS, each through
one call of _chunk_verdicts.  The chunk is laid out table after table, and
each condition is one AND or XOR of up-lane codes over it: table i holds
segment i of the violations and passes when that segment is zero.  Each
condition runs on the tables its premise leaves open:

- every table: expansive, up[x*] within up[x], and the single axiom;
- the expansive tables: order preservation (poset.order_preserving_each)
  and idempotence, which with expansive make the three-part closure form;
  on unital carriers also form 3, x <= x* and pre[xy] within pre[x* y*];
- the closures: (xy)* and x* y*, then c1 x* y* <= (xy)*, c2
  (x* y*)* = (xy)*, c3 x y* <= (xy)* and x* y <= (xy)*, and strictness
  x* y* = (xy)*.  Each is "closure and ...", so every other table reads
  False on each with no product built;
- on unital carriers, every table: form 2, pre[xy] = pre[x y*] = pre[x* y].

x y* and x* y are built once for the chunk, for every table on a unital
carrier and for the closures otherwise, and form 2 and c3 share them.  The
tables and the identity are lane-coded in one lane_segments pass, every
product string of the chunk in another, the closures' segments picked from
its bytes.

The single axiom and the unital forms quantify over z through
pre[u] = {z : u <= z*} = t^-1(up[u]): the single axiom, x <= y* iff
x* <= y*, is pre[x] = pre[x*] for every x.  For sets A and B, t^-1(A) lies
within t^-1(B) iff A & Im t lies within B: w = t(z) in A & Im t has z in
t^-1(A), so w in B; and z in t^-1(A) has t(z) in A & Im t.  With
Im t = {y* : y}, pre[u] = pre[v] iff up[u] & Im t = up[v] & Im t.  So the
single axiom is the XOR of the up lanes of x and x*, form 2 the XORs of
those of xy with x y* and with x* y, and form 3 up[xy] & ~up[x* y*], each
masked by the image mask of table i in every lane of its segment.  Every
table still gets the three-part and single-axiom closure forms, c1, c2, c3
and, on unital carriers, both unital forms, compared.
"""

from __future__ import annotations

from functools import reduce, wraps
from itertools import chain, compress, islice, product, repeat
from operator import and_, attrgetter, eq, invert, itemgetter
from types import MappingProxyType
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    CarrierTooLarge,
    HypothesisNotMet,
    InternalCheckError,
    NoUnit,
    StructureError,
)
from .magma import MagmaMorphism, OrderedMagma, is_sup_spanning, r_set_mask
from .poset import ENUM_CAP, EXHAUSTIVE_CAP, FinitePoset, all_below, bits, id_mask
from .poset import lane_segments, order_preserving, order_preserving_each, read_code
from .poset import row_mask, zero_segments
from .poset import broken as _broken, carrier_label as _label, sup_misses, translate_table as _pad

# Closure enumeration refuses carriers over this many elements.  A closure
# image holds every maximal element, so a carrier within the cap has at most
# 2**(n - #maximal) <= 2**15 closures: the element cap bounds the count.
ENUMERATION_CAP = 16
# The brute-force closure oracle filters all n**n self-maps, up to this many.
BRUTEFORCE_CAP = 5_000_000
# certified_composition tries alternating compositions up to this length.
COMPOSITION_BOUND = 6
# Maps are decided in chunks of this many tables, which bounds the working
# set of a chunk: its product tables and lane codes.
BATCH_MAPS = 64


def poset_of(carrier) -> FinitePoset:
    return carrier.poset if isinstance(carrier, OrderedMagma) else carrier


class MonotoneMap:
    """A self-map of a finite carrier, stored as a dense table of bytes,
    byte x the id of the image of x.

    Equality and ordering are pointwise on tables; instances are immutable and
    hashable so nucleus lattices can be built on top of them.  The image and
    fixed-point masks are built on the first call and kept: the table never
    changes.
    """

    __slots__ = ("carrier", "table", "_image_mask", "_fixed_mask")

    def __init__(self, carrier, table: Sequence[int]):
        p = poset_of(carrier)
        if len(table) != p.n:
            raise StructureError("map table length does not match carrier")
        p.check_ids(table)
        self.carrier = carrier
        self.table = bytes(table)
        self._image_mask = self._fixed_mask = None

    @classmethod
    def _of(cls, carrier, table: bytes) -> "MonotoneMap":
        """A map whose table, bytes of ids of carrier, was built from
        carrier's own ids, so no id needs checking: a closure search leaf."""
        s = object.__new__(cls)
        s.carrier, s.table, s._image_mask, s._fixed_mask = carrier, table, None, None
        return s

    @classmethod
    def identity(cls, carrier) -> "MonotoneMap":
        return cls(carrier, range(poset_of(carrier).n))

    @classmethod
    def top_map(cls, carrier) -> "MonotoneMap":
        p = poset_of(carrier)
        if p.top is None:
            raise HypothesisNotMet("top map needs a bounded-above carrier")
        return cls(carrier, bytes([p.top]) * p.n)

    @property
    def poset(self) -> FinitePoset:
        return poset_of(self.carrier)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __eq__(self, other):
        return isinstance(other, MonotoneMap) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __le__(self, other: "MonotoneMap") -> bool:
        _check_lengths(self.carrier, [other.table])
        return all_below(self.poset, self.table, other.table)

    def __repr__(self):
        return f"MonotoneMap{tuple(self.table)}"

    def image_mask(self) -> int:
        if self._image_mask is None:
            self._image_mask = id_mask(self.table)
        return self._image_mask

    def image(self) -> list:
        return sorted(set(self.table))

    def fixed_mask(self) -> int:
        if self._fixed_mask is None:
            ids = range(len(self.table))
            self._fixed_mask = id_mask(compress(ids, map(eq, self.table, ids)))
        return self._fixed_mask

    @property
    def is_order_preserving(self) -> bool:
        return order_preserving(self.poset, self.table)

    @property
    def is_preclosure(self) -> bool:
        p, t = self.poset, self.table
        return all_below(p, bytes(range(p.n)), t) and order_preserving(p, t)


def is_closure(s: MonotoneMap) -> bool:
    """Expansive + order-preserving + idempotent, cross-checked against the
    single axiom: x <= y* iff x* <= y* for all x, y.  A chunk of one, decided
    once per poset object and table, as _decide_nuclei decides it."""
    memo, key = _memo(s.poset), ("closure", s.table)
    if key not in memo:
        _check_lengths(s.carrier, [s.table])
        memo[key] = _closed(s.carrier, s.table, *_chunk_verdicts(s.poset, [s.table])[0])
    return memo[key]


def _closed(carrier, t: bytes, three_part: bool, single: bool) -> bool:
    """The closure verdict of t, its two forms compared."""
    if three_part != single:
        raise InternalCheckError(
            f"closure characterizations disagree on {_label(carrier)} at {tuple(t)}: "
            f"three-part {three_part}, single axiom {single}"
        )
    return three_part


# -- the chunk kernel (see the module docstring) -------------------------------------


def _check_lengths(carrier, tables: Sequence[bytes]):
    """Refuse, with StructureError, a table that is not one id per element of carrier."""
    if set(map(len, tables)) - {poset_of(carrier).n}:
        raise StructureError(f"map table length does not match {_label(carrier)}")


def _chunk_verdicts(carrier, tables: Sequence[bytes]) -> list:
    """The verdicts of each table of n ids, as one tuple a table: (three-part
    closure, single axiom) on a poset; on an ordered magma also (c1, c2, c3,
    strict) and, on a unital carrier, (form 2, form 3).  Every order
    condition reads up lanes, w bytes a table of n ids."""
    p = poset_of(carrier)
    _check_lengths(carrier, tables)
    n, count, up = p.n, len(tables), p.up_lanes
    w = n * len(up)
    x_lanes, t_lanes = lane_segments(up, (bytes(range(n)), b"".join(tables)))
    x_up, t_up = read_code(bytes(x_lanes) * count), read_code(t_lanes)
    expansive = zero_segments(t_up & ~x_up, count, w)
    expanding = list(compress(range(count), expansive))
    pads = {i: _pad(tables[i]) for i in expanding}
    monotone = order_preserving_each(p, [tables[i] for i in expanding])
    closures = [i for i, o in zip(expanding, monotone) if o and tables[i].translate(pads[i]) == tables[i]]
    images = [id_mask(t).to_bytes(len(up), "little") for t in tables]
    single = zero_segments((x_up ^ t_up) & _spread(images, n), count, w)
    closed = set(closures)
    verdicts = [(i in closed, s) for i, s in enumerate(single)]
    if not isinstance(carrier, OrderedMagma):
        return verdicts
    m, nn = carrier, n * n
    unital = m.unit is not None or _one_sided_unital(m)
    # x y* and x* y for every table on a unital carrier (form 2), else for the closures (c3);
    # x* y* for the expansive tables on a unital carrier (form 3), else for the closures.
    sided = range(count) if unital else closures
    wide = expanding if unital else closures
    x_ts, t_xs = _sides(m, [tables[i] for i in sided])
    tts = [b"".join(map(tables[i].translate, map(m.row_tables.__getitem__, tables[i]))) for i in wide]
    stars = [m.flat.translate(pads[i]) for i in closures]
    # Every product string of the chunk through one lane_segments; the
    # closures' segments are picked from the bytes, not coded again.
    flat, xt, tx, tt, star = lane_segments(up, (m.flat, x_ts, t_xs, b"".join(tts), b"".join(stars)))
    xt_up, tx_up, tt_up = read_code(xt), read_code(tx), read_code(tt)
    nucleus = {}
    if closures:
        # The closures' segments: the whole chunk's codes when every table there is a closure.
        c, at = len(closures), [j for j, i in enumerate(wide) if i in closed]
        tt_c = tt_up if c == len(wide) else read_code(_picked(tt, n * w, at))
        if c == len(sided):
            sides_c = xt_up & tx_up
        else:
            sides_c = read_code(_picked(xt, n * w, closures)) & read_code(_picked(tx, n * w, closures))
        star_up = read_code(star)
        c1, c3 = zero_segments(star_up & ~tt_c, c, n * w), zero_segments(star_up & ~sides_c, c, n * w)
        for i, j, s, a, b in zip(closures, at, stars, c1, c3):
            nucleus[i] = a, tts[j].translate(pads[i]) == s, b, a and tts[j] == s
    verdicts = [v + nucleus.get(i, (False,) * 4) for i, v in enumerate(verdicts)]
    if not unital:
        return verdicts
    flat_up = read_code(bytes(flat) * count)
    form2 = zero_segments(((flat_up ^ xt_up) | (flat_up ^ tx_up)) & _spread(images, nn), count, n * w)
    inside = _spread([images[i] for i in wide], nn)
    form3 = dict(zip(wide, zero_segments(flat_up & inside & ~tt_up, len(wide), n * w)))
    return [v + (f2, form3.get(i, False)) for i, (v, f2) in enumerate(zip(verdicts, form2))]


def _sides(m: OrderedMagma, tables: Sequence[bytes]) -> tuple:
    """x y* and x* y for each table, laid out table after table, n*n ids a
    table: row x of x y* is the table read through row x of the product, and
    row x of x* y is the product row of t(x)."""
    each = chain.from_iterable(map(repeat, tables, repeat(m.n)))
    return (
        b"".join(map(bytes.translate, each, m.row_tables * len(tables))),
        b"".join(map(m.mul.__getitem__, b"".join(tables))),
    )


def _picked(joined, width: int, picked: Iterable[int]) -> bytes:
    """The segments of joined, width bytes each, at the positions picked."""
    return b"".join(joined[i * width : i * width + width] for i in picked)


def _spread(images: Sequence[bytes], width: int) -> int:
    """Each image mask, as len(up_lanes) bytes, in width lanes in a row."""
    return int.from_bytes(b"".join(map(bytes.__mul__, images, repeat(width))), "little")


def is_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """Closure with x*y* <= (xy)*, all equivalent characterizations compared.
    A chunk of one, decided once per carrier object and table; a family of
    maps is decided faster handed to _decide_nuclei whole."""
    return _nucleus_verdict(m, s)[0]


def is_strict_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """A nucleus with x* y* == (xy)* for all x, y; read from is_nucleus's decision."""
    return _nucleus_verdict(m, s)[1]


def _nucleus_verdict(m: OrderedMagma, s: MonotoneMap) -> Tuple[bool, bool]:
    memo, key = _memo(m), ("nucleus", s.table)
    if key not in memo:
        _decide_nuclei(m, [s.table])
    return memo[key]


def _decide_nuclei(m: OrderedMagma, tables: Iterable[bytes]):
    """Decide each byte table that m has not decided, BATCH_MAPS at a time:
    (nucleus, strict) under ("nucleus", table) on m, the closure under
    ("closure", table) on m.poset.  The first table in input order whose
    characterizations disagree, or whose length is not m.n, raises, and then
    no verdict of the call is stored."""
    memo = _memo(m)
    todo = [t for t in dict.fromkeys(tables) if ("nucleus", t) not in memo]
    nuclei, closures = {}, {}
    for i in range(0, len(todo), BATCH_MAPS):
        chunk = todo[i : i + BATCH_MAPS]
        for t, (three_part, single, c1, c2, c3, strict, *forms) in zip(chunk, _chunk_verdicts(m, chunk)):
            closures["closure", t] = _closed(m, t, three_part, single)
            if not c1 == c2 == c3:
                raise InternalCheckError(
                    f"nucleus characterizations disagree on {_label(m)} at {tuple(t)}: {(c1, c2, c3)}"
                )
            if forms and not c1 == forms[0] == forms[1]:
                raise InternalCheckError(
                    f"unital single-axiom nucleus forms disagree on {_label(m)} at {tuple(t)}: {(c1, *forms)}"
                )
            nuclei["nucleus", t] = c1, strict
    memo.update(nuclei)
    _memo(m.poset).update(closures)


def _nuclei_of(m: OrderedMagma, maps: Iterable[MonotoneMap], who: str) -> List[MonotoneMap]:
    """The precondition: maps as a list, each a nucleus on m, else
    HypothesisNotMet naming who.  Verdicts are read from the memo; the first
    undecided map sends the list to _decide_nuclei."""
    maps, memo = list(maps), _memo(m)
    for s in maps:
        if ("nucleus", s.table) not in memo:
            _decide_nuclei(m, [s.table for s in maps])
        if not memo["nucleus", s.table][0]:
            raise HypothesisNotMet(f"{who} requires a nucleus")
    return maps


def _certified(m: OrderedMagma, table: Sequence[int], what: str) -> MonotoneMap:
    """The postcondition: table as a MonotoneMap on m, else InternalCheckError."""
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise _broken(m, f"{what} is not a nucleus")
    return out


def _memo(carrier) -> dict:
    return carrier.__dict__.setdefault("_memo", {})


def per_carrier(build):
    """build(carrier, *args), built once per carrier object and arguments and
    stored in the carrier's memo under (build, *args).  A build that raises
    stores nothing, so the next call raises again."""

    @wraps(build)
    def stored(carrier, *args):
        memo, key = _memo(carrier), (build, *args)
        if key not in memo:
            memo[key] = build(carrier, *args)
        return memo[key]

    return stored


@per_carrier
def _one_sided_unital(m: OrderedMagma) -> bool:
    identity = bytes(range(m.n))
    return identity in m.mul or identity in m.cols


def transportable_mask(m: OrderedMagma, s: MonotoneMap) -> int:
    """T*(M): elements a with (ax)* = a x* and (xa)* = x* a for all x, that
    is row a of (xy)* equal to row a of x y*, and column a to column a of x* y."""
    n = m.n
    _check_lengths(m, [s.table])
    star, (x_ts, t_xs) = m.flat.translate(_pad(s.table)), _sides(m, [s.table])
    return sum(
        1 << a
        for a in range(n)
        if star[a * n : a * n + n] == x_ts[a * n : a * n + n] and star[a::n] == t_xs[a::n]
    )


# -- preclosure fixpoint ------------------------------------------------------


def closure_from_preclosure(s: MonotoneMap) -> MonotoneMap:
    """Finest closure coarser than the preclosure s, by iteration to fixpoint.

    On a finite carrier the orbit of each element strictly ascends, so at most
    n steps are needed; the result is cross-checked against the
    infimum-of-fixed-points formula.  When the carrier is an ordered magma and
    s satisfies x y+ <= (xy)+ and x+ y <= (xy)+ on a near-residuated carrier,
    the result is verified to be a nucleus.  Decided once per carrier object
    and table: every check runs on a table's first call, and a call that
    raises stores nothing.
    """
    return _build_hull(s.carrier, s)


@per_carrier
def _build_hull(carrier, s: MonotoneMap) -> MonotoneMap:
    if not s.is_preclosure:
        raise HypothesisNotMet("closure_from_preclosure requires a preclosure")
    p = poset_of(carrier)
    table, after = s.table, _pad(s.table)
    for _ in range(p.n + 1):
        new = table.translate(after)
        if new == table:
            break
        table = new
    else:
        raise _broken(carrier, "preclosure iteration failed to stabilize")
    star = MonotoneMap(carrier, table)
    if not is_closure(star):
        raise HypothesisNotMet(
            "preclosure is not bounded above by a closure operation on this carrier"
        )
    if _least_above(p, s.fixed_mask()) != table:
        raise _broken(carrier, "fixpoint iteration disagrees with infimum formula")
    if isinstance(carrier, OrderedMagma) and carrier.profile.near_residuated:
        x_ts, t_xs = _sides(carrier, [s.table])
        if all_below(p, x_ts + t_xs, carrier.flat.translate(after) * 2) and not is_nucleus(carrier, star):
            raise _broken(carrier, "multiplicative preclosure hull failed nucleus check")
    return star


# -- meets and joins in N(M) ---------------------------------------------------


def nuclei_meet(m: OrderedMagma, gamma: Iterable[MonotoneMap]) -> MonotoneMap:
    """Pointwise infimum; the empty meet is the top map e."""
    maps, p = _nuclei_of(m, gamma, "nuclei_meet"), m.poset
    if not maps:
        return MonotoneMap.top_map(m)
    # The lower bounds of column x, the images of x, are the AND of their
    # down-sets, and the infimum is the greatest of them, if any.
    down = p.down.__getitem__
    bounds, images = list(map(down, maps[0].table)), maps[0].image_mask()
    for s in maps[1:]:
        bounds = list(map(and_, bounds, map(down, s.table)))
        images |= s.image_mask()
    table = list(map(p.principal_down.get, bounds))
    if None in table:
        raise HypothesisNotMet(f"missing infimum for the fibers over element {table.index(None)}")
    out = _certified(m, bytes(table), "pointwise meet of nuclei")
    if images & ~out.image_mask():
        raise _broken(m, "meet image does not contain the union of images")
    return out


def nuclei_join(m: OrderedMagma, gamma: Iterable[MonotoneMap]) -> MonotoneMap:
    """Join as closure of the common fixed points.

    Guaranteed to be a nucleus where join_formula_applies; elsewhere the
    operation refuses.
    """
    p = m.poset
    _refuse_without_join_formula(m)
    maps = _nuclei_of(m, gamma, "nuclei_join")
    common = p.universe
    for s in maps:
        common &= s.fixed_mask()
    table = _least_above(p, common)
    if table is None:
        raise _broken(m, "common fixed points fail the closure-system property")
    out = _certified(m, table, "join of nuclei")
    if out.image_mask() != common:
        raise _broken(m, "join image is not the intersection of images")
    return out


# -- enumeration ----------------------------------------------------------------


@per_carrier
def enumerate_closures(carrier) -> Tuple[MonotoneMap, ...]:
    """All closure operations, sorted by table: the leaves of _closure_tables.
    The search runs once per carrier, up to ENUMERATION_CAP elements; every
    call returns the stored tuple."""
    return tuple(MonotoneMap._of(carrier, t) for t in sorted(_closure_tables(carrier)))


def _closure_tables(carrier):
    """Every closure table, by a backtracking search over the images, one
    table a leaf as the search reaches it.

    A subset C is the image of a (unique) closure operation exactly when every
    fiber {a in C : a >= x} has a least element, and then x* is that element.
    The search decides the elements by ascending |up[x]|, a reverse linear
    extension, since x < y makes up[y] a proper subset of up[x].  Keeping x is
    always allowed; leaving x out needs a least kept element above x, x*.
    Every partial choice extends, by keeping every undecided element: up[x]
    holds only x and elements decided before it, so the fiber of a decided x
    never changes, and an undecided x is its own x*.  So the leaves are the
    closures, each once, and a caller may stop after any of them (R. C. Read
    and R. E. Tarjan, Networks 5, 1975: the delay between leaves is
    polynomial).  An entry (i, kept, star) of the stack has decided order[:i],
    star being x* for x = order[i - 1]; what an entry's ancestors wrote to
    the table is still there when it is popped.
    """
    p = poset_of(carrier)
    if p.n > ENUMERATION_CAP:
        raise CarrierTooLarge(
            f"closure enumeration capped at {ENUMERATION_CAP} elements, refused on {_label(carrier)}"
        )
    n, up, least_of = p.n, p.up, p.least_of
    order = sorted(range(n), key=lambda x: bin(up[x]).count("1"))
    table, stack = bytearray(n), [(0, 0, 0)]
    while stack:
        i, kept, star = stack.pop()
        if i:
            table[order[i - 1]] = star
        if i == n:
            yield bytes(table)
            continue
        x = order[i]
        below = least_of(kept & up[x])
        if below is not None:
            stack.append((i + 1, kept, below))
        stack.append((i + 1, kept | 1 << x, x))


@per_carrier
def _least_above(p: FinitePoset, c: int) -> Optional[bytes]:
    """x -> the least element of the subset c above x, for every x: the
    closure whose image is c, as a table; None when some x has no such least
    element.  Built once per poset object and mask."""
    table = [p.least_of(c & upx) for upx in p.up]
    return None if None in table else bytes(table)


def enumerate_closures_bruteforce(carrier) -> List[MonotoneMap]:
    """Independent oracle: filter all self-maps.  Exponential, tiny carriers only."""
    p = poset_of(carrier)
    if p.n ** p.n > BRUTEFORCE_CAP:
        raise CarrierTooLarge(
            f"brute-force closure enumeration capped at {BRUTEFORCE_CAP} self-maps, "
            f"refused on {_label(carrier)}, which has {p.n ** p.n}"
        )
    tables, out = map(bytes, product(range(p.n), repeat=p.n)), []
    while chunk := list(islice(tables, BATCH_MAPS)):
        verdicts = _chunk_verdicts(p, chunk)
        out += [MonotoneMap(carrier, t) for t, v in zip(chunk, verdicts) if _closed(carrier, t, *v)]
    return out


@per_carrier
def enumerate_nuclei(m: OrderedMagma) -> Tuple[MonotoneMap, ...]:
    """All nuclei on m, sorted by table, computed once per carrier; every call
    returns the stored tuple (see _search_nuclei)."""
    return _search_nuclei(m, None)


# Where enumerate_nuclei stores its tuple, per the per_carrier rule; a
# nuclei_at_most search that finds every nucleus stores it there too.
_ALL_NUCLEI = (enumerate_nuclei.__wrapped__,)


def nuclei_at_most(m: OrderedMagma, cap: int) -> Optional[Tuple[MonotoneMap, ...]]:
    """enumerate_nuclei(m) when m has at most cap nuclei, else None.  The
    search stops once it has found cap + 1 nuclei, so a refusal costs what
    cap + 1 nuclei cost, not what all of them do; the verdicts it decided
    stay in the memo, and a search that finds every nucleus stores the tuple
    as enumerate_nuclei would."""
    memo = _memo(m)
    found = memo.get(_ALL_NUCLEI)
    if found is None:
        found = _search_nuclei(m, cap)
        if found is None:
            return None
        memo[_ALL_NUCLEI] = found
    return found if len(found) <= cap else None


def _search_nuclei(m: OrderedMagma, cap: Optional[int]) -> Optional[Tuple[MonotoneMap, ...]]:
    """The nuclei on m, or None once more than cap are found.

    Both routes filter the closures batch by batch.  On near-residuated
    carriers the image-set criterion, images that hold every residual of
    their members, must select exactly the closures of each batch that pass
    is_nucleus; otherwise only the is_nucleus filter runs.  With no cap the
    batch is every closure of the stored enumeration; with a cap the search
    feeds _decide_nuclei closures as it reaches them, each batch the nuclei
    still needed times the closures decided per nucleus found so far, at
    most BATCH_MAPS.

    Write x/a for the largest z with z a <= x, and a\\x for the largest z
    with a z <= x.  (=>) Let s be a nucleus, x = x* and r = a\\x.  Then
    a r* <= (a r)* <= x, so r* <= r and r is in the image; x/a likewise.
    (<=) Let the image be residual-closed and w = (a y)*.  Then y lies in
    {z : a z <= w}, so a\\w exists (near residuation) and is in the image.
    So y* <= a\\w and a y* <= w; symmetrically x* y <= (x y)*.  This is c3,
    and c3 with the closure gives a nucleus.  No meet test is needed: a
    closure image holds every meet that exists (_assert_profile_inheritance).
    """
    memo, found, decided = _memo(m), [], 0
    if cap is None:
        closures = iter(enumerate_closures(m))
    else:
        closures = (MonotoneMap._of(m, t) for t in _closure_tables(m))
    while True:
        if cap is None:
            batch = list(closures)
        else:
            need = cap + 1 - len(found)
            batch = list(islice(closures, min(BATCH_MAPS, -(-need * max(decided, 1) // max(len(found), 1)))))
        if not batch:
            return tuple(sorted(found, key=attrgetter("table")))
        _decide_nuclei(m, [s.table for s in batch])
        filtered = [s for s in batch if memo["nucleus", s.table][0]]
        if m.profile.near_residuated:
            by_images = {s.table for s in _nuclei_by_image_sets(m, batch)}
            by_filter = {s.table for s in filtered}
            if by_images != by_filter:
                raise InternalCheckError(
                    f"image-set and filter nucleus enumerations disagree on {_label(m)}: "
                    f"image-set only {sorted(map(tuple, by_images - by_filter))}, "
                    f"filter only {sorted(map(tuple, by_filter - by_images))}"
                )
        found += filtered
        decided += len(batch)
        if cap is not None and len(found) > cap:
            return None


def _nuclei_by_image_sets(m: OrderedMagma, closures: Sequence[MonotoneMap]) -> List[MonotoneMap]:
    """The closures whose image holds every residual of its members."""
    residuals = _residual_masks(m)
    return [s for s in closures if _residual_stable(residuals, s.image_mask())]


def _residual_masks(m: OrderedMagma) -> List[int]:
    """residual_masks[x]: every residual x/a and a\\x there is, as a mask."""
    table = m.residuals
    return [
        id_mask(set(left + right) - {None}) for left, right in zip(table.left, table.right)
    ]


def _residual_stable(residual_masks: List[int], c: int) -> bool:
    """Every residual of a member of c by any element lies in c."""
    return not any(residual_masks[x] & ~c for x in bits(c))


# -- quotients -------------------------------------------------------------------


class QuotientMagma(NamedTuple):
    parent: OrderedMagma
    nucleus: MonotoneMap
    members: tuple            # parent ids of the image, ascending
    magma: OrderedMagma       # the image with star-multiplication
    to_quotient: MappingProxyType  # parent image id -> quotient id, read-only


@per_carrier
def quotient(m: OrderedMagma, s: MonotoneMap) -> QuotientMagma:
    """The image M* under star-multiplication, with the inherited structure
    asserted; built once per carrier object and nucleus table."""
    _nuclei_of(m, [s], "quotient")
    p = m.poset
    members = tuple(sorted(set(s.table)))
    index = {x: i for i, x in enumerate(members)}
    sub = p.restrict(members)
    mul = [[index[s.table[m.op(x, y)]] for y in members] for x in members]
    q = OrderedMagma(sub, mul, name=f"{m.name}^*" if m.name else "quotient")
    _assert_corestriction_sup_preserving(m, s)
    _assert_profile_inheritance(m, q)
    _assert_quotient_residuals(m, s)
    return QuotientMagma(m, s, members, q, MappingProxyType(index))


def _assert_corestriction_sup_preserving(m: OrderedMagma, s: MonotoneMap):
    """s(sup X) is the sup of s(X) within the image I, for every X whose sup
    v exists: every subset up to EXHAUSTIVE_CAP elements, pairs above it.
    With cols[x] = up[t[x]] & I the walk carries U = I & ub(t(X)), an up-set
    within I.  t[v] is least in U iff U = cols[v]: if so, U lies within
    I & up[t[v]], which lies in U since U is up-closed within I and holds
    t[v]; conversely t[v] is in I & up[t[v]] = U, below all of it."""
    p, t = m.poset, s.table
    up, image = p.up, s.image_mask()
    cols = [up[tx] & image for tx in t]
    if p.n > EXHAUSTIVE_CAP:
        least = p.principal_up
        sups = ((least.get(up[x] & up[y]), cols[x] & cols[y]) for x in range(p.n) for y in range(x, p.n))
        missed = any(v is not None and ub != cols[v] for v, ub in sups)
    else:
        missed = bool(sup_misses(p, cols, image))
    if missed:
        raise _broken(m, "corestriction of the nucleus is not sup-preserving")


def _assert_profile_inheritance(m: OrderedMagma, q: OrderedMagma):
    """Every flag below that holds on m holds on its quotient q: the magma
    classes, and the poset flags, which hold for the image of any closure s.
    The image's sup of a set X is s(sup X), so each sup that exists in m has
    one in the image.  The image also holds every meet that exists: w = a ^ b
    gives s(w) <= s(a) = a and s(w) <= b, so s(w) = w."""
    held, kept = ({**c.profile.as_dict(), **c.poset.flags._asdict()} for c in (m, q))
    for flag in (
        "prequantale", "near_prequantale", "semiprequantale", "multiplicative_semilattice",
        "prequantic_semilattice", "near_residuated", "residuated",
        "quantale", "near_quantale", "multiplicative_lattice", "near_multiplicative_lattice",
        "complete", "near_sup_complete", "bounded_complete", "join_semilattice", "meet_semilattice",
    ):
        if held[flag] and not kept[flag]:
            raise _broken(m, f"quotient failed to inherit {flag}")


def _assert_quotient_residuals(m: OrderedMagma, s: MonotoneMap):
    """(x/y)* = x/y* = x/y for star-fixed x, whenever the residual exists."""
    if not m.profile.near_residuated:
        return
    left, t = m.residuals.left, s.table
    for x in bits(s.fixed_mask()):
        for y in range(m.n):
            r = left[x][y]
            if r is not None and (t[r] != r or left[x][t[y]] != r):
                raise _broken(m, "quotient residual formula failed")


def nucleus_of_morphism(f: MagmaMorphism) -> MonotoneMap:
    """The unique nucleus splitting a near-sup-preserving surjection-onto-image."""
    src = f.source
    if not (f.is_order_preserving() and f.is_magma_hom() and f.preserves_sups()):
        raise HypothesisNotMet("nucleus_of_morphism needs a near-sup-preserving magma hom")
    if not src.profile.near_prequantale:
        raise HypothesisNotMet("nucleus_of_morphism needs a near prequantale source")
    # x goes to the sup of its fiber, the ids y with f(y) = f(x).
    table = [src.poset.sup_mask(id_mask(compress(range(src.n), map(fx.__eq__, f.table)))) for fx in f.table]
    if None in table:
        raise _broken(src, "fiber supremum missing on a near prequantale")
    s = _certified(src, table, "morphism-induced map")
    if s.table.translate(_pad(f.table)) != f.table:
        raise _broken(src, "morphism does not factor through its nucleus")
    members = sorted(set(s.table))
    if len(set(f.table[x] for x in members)) != len(members):
        raise _broken(src, "morphism restricted to the image is not injective")
    _assert_image_iso(f, s, members)
    return s


def _assert_image_iso(f: MagmaMorphism, s: MonotoneMap, members):
    """Q* with star-multiplication is isomorphic to im f inside the target."""
    src, tgt = f.source, f.target
    for x in members:
        for y in members:
            if f.table[s.table[src.op(x, y)]] != tgt.op(f.table[x], f.table[y]):
                raise _broken(src, "image of nucleus not isomorphic to morphism image")
            if src.leq(x, y) != tgt.leq(f.table[x], f.table[y]):
                raise _broken(src, "image correspondence is not an order isomorphism")


# -- induced nuclei ---------------------------------------------------------------


class Submagma(NamedTuple):
    parent: OrderedMagma
    members: tuple            # parent ids, ascending; member i is sub id i
    magma: OrderedMagma
    to_sub: dict

    @classmethod
    def of(cls, parent: OrderedMagma, members: Iterable[int]) -> "Submagma":
        mem = tuple(sorted(set(members)))
        mmask = parent.poset.mask_of(mem)
        if parent.submagma_closure(mmask) != mmask:
            raise StructureError("subset is not closed under multiplication")
        index = {x: i for i, x in enumerate(mem)}
        sub = parent.poset.restrict(mem)
        mul = [[index[parent.op(x, y)] for y in mem] for x in mem]
        return cls(parent, mem, OrderedMagma(sub, mul), index)


def induced_lower(m: OrderedMagma, n_sub: Submagma, s: MonotoneMap) -> MonotoneMap:
    """Finest nucleus on m restricting to the nucleus s on a sup-spanning submagma."""
    if not m.profile.near_prequantale:
        raise HypothesisNotMet("induced_lower needs a near prequantale")
    if not is_sup_spanning(m, n_sub.members):
        raise HypothesisNotMet("submagma is not sup-spanning")
    _nuclei_of(n_sub.magma, [s], "induced_lower")
    p = m.poset
    star_on_parent = {x: n_sub.members[s.table[n_sub.to_sub[x]]] for x in n_sub.members}
    good = id_mask(
        y
        for y in range(m.n)
        if all(p.leq(star_on_parent[z], y) for z in n_sub.members if p.leq(z, y))
    )
    table = _least_above(p, good)
    if table is None:
        raise _broken(m, "induced-nucleus fiber has no least element")
    out = _certified(m, table, "induced lower map")
    for z in n_sub.members:
        if out.table[z] != star_on_parent[z]:
            raise _broken(m, "induced lower nucleus does not restrict to the input")
    return out


def induced_upper(m: OrderedMagma, n_sub: Submagma, s: MonotoneMap) -> MonotoneMap:
    """Coarsest nucleus restricting to s on a saturated downward-closed submagma."""
    p = m.poset
    mmask = id_mask(n_sub.members)
    if not p.is_downward_closed(mmask):
        raise HypothesisNotMet("submagma is not downward closed")
    ann = m.annihilator
    for x, y in product(range(m.n), repeat=2):
        if ann not in (x, y) and mmask >> m.op(x, y) & 1 and not mmask >> x & mmask >> y & 1:
            raise HypothesisNotMet(f"subset is not saturated: {x}*{y} lands inside but the pair does not")
    _nuclei_of(n_sub.magma, [s], "induced_upper")
    top = p.top
    if top is None:
        raise HypothesisNotMet("induced_upper needs a bounded-above carrier")
    table = [n_sub.members[s.table[n_sub.to_sub[x]]] if mmask >> x & 1 else top for x in range(m.n)]
    return _certified(m, table, "induced upper map")


# -- R(M), the Galois connection, and 1[x] ---------------------------------------


def d_map(m: OrderedMagma, a: int) -> MonotoneMap:
    """The strict nucleus x -> x*a for idempotent a >= 1 on an ordered commutative monoid."""
    prof = m.profile
    if not (prof.commutative and prof.associative and prof.unital):
        raise HypothesisNotMet("d_map needs an ordered commutative monoid")
    if not ((r_set_mask(m) >> a) & 1):
        raise HypothesisNotMet("d_map needs an idempotent element above the unit")
    s = _certified(m, m.cols[a], "translation by an idempotent above 1")
    if not is_strict_nucleus(m, s):
        raise _broken(m, "translation by an idempotent above 1 must be a strict nucleus")
    return s


def unit_part(m: OrderedMagma, s: MonotoneMap) -> int:
    """1* for a nucleus s; always lands in R(M)."""
    if m.unit is None:
        raise NoUnit("unit_part needs a unital carrier")
    _nuclei_of(m, [s], "unit_part")
    v = s.table[m.unit]
    if not ((r_set_mask(m) >> v) & 1):
        raise _broken(m, "1* left R(M)")
    return v


def one_bracket(q: OrderedMagma, x: int) -> int:
    """1[x] = 1 v x v x^2 v ... on a unital near quantale."""
    prof = q.profile
    if not (prof.unital and prof.associative and prof.near_prequantale):
        raise HypothesisNotMet("1[x] needs a unital near quantale")
    p = q.poset
    powers = {q.unit, x}
    cur = x
    while True:
        cur = q.op(cur, x)
        if cur in powers:
            break
        powers.add(cur)
    v = p.sup_mask(id_mask(powers))
    if v is None:
        raise _broken(q, "power supremum missing on a near-sup-complete carrier")
    rmask = r_set_mask(q)
    fiber = rmask & p.up[x]
    if p.least_of(fiber) != v:
        raise _broken(q, "1[x] is not the least idempotent above the unit and x")
    return v


def one_bracket_map(q: OrderedMagma) -> MonotoneMap:
    s = MonotoneMap(q, tuple(one_bracket(q, x) for x in range(q.n)))
    if not is_closure(s):
        raise _broken(q, "1[-] failed the closure check")
    if s.image_mask() != r_set_mask(q):
        raise _broken(q, "image of 1[-] is not R(Q)")
    return s


# -- the lattice N(M) and the tower ----------------------------------------------


class NucleusLattice(NamedTuple):
    base: OrderedMagma
    maps: tuple                # the nuclei, in deterministic order
    magma: OrderedMagma        # N(M) under pointwise order with join as multiplication


@per_carrier
def nucleus_lattice(m: OrderedMagma) -> NucleusLattice:
    """N(M), built once per carrier object.  Over ENUM_CAP nuclei it is
    refused once the search has found ENUM_CAP + 1 of them, so the count in
    the message is a lower bound."""
    name = f"N({m.name})" if m.name else "N(M)"
    maps = nuclei_at_most(m, ENUM_CAP)
    if maps is None:
        raise CarrierTooLarge(
            f"N(M) capped at {ENUM_CAP} nuclei, refused on {name}: "
            f"{_label(m)} has more than {ENUM_CAP} nuclei"
        )
    k = len(maps)
    _, above, _ = nucleus_order(m)
    lat = FinitePoset.from_up_masks(above, [f"n{i}" for i in range(k)])
    mul = nuclei_join_table(m) if join_formula_applies(m) else lat.join_table
    if any(None in row for row in mul):
        # Guaranteed to exist when m is near sup-complete; refuse otherwise.
        raise HypothesisNotMet("N(M) is not a join semilattice for this carrier")
    return NucleusLattice(m, maps, OrderedMagma(lat, mul, name=name))


def join_formula_applies(m: OrderedMagma) -> bool:
    """Whether nuclei_join answers: on a near prequantale, or a bounded-complete
    near-residuated carrier with a top (the top map bounds every family)."""
    prof = m.profile
    return prof.near_prequantale or (
        prof.bounded_complete and prof.near_residuated and m.poset.top is not None
    )


def nuclei_join_table(m: OrderedMagma) -> tuple:
    """joins[i][j] is the position in enumerate_nuclei(m) of nuclei_join of
    nuclei i and j; built once per carrier object, a tuple of tuples."""
    return _pair_table(m, "v")


def nuclei_meet_table(m: OrderedMagma) -> tuple:
    """meets[i][j] is the position of nuclei_meet of nuclei i and j, likewise."""
    return _pair_table(m, "^")


@per_carrier
def _pair_table(m: OrderedMagma, op: str) -> tuple:
    """The join (op "v") or meet (op "^") of nuclei i and j, r, named alike by
    two lookups: the bound in nucleus_order(m), above[r] = above[i] & above[j]
    (below[r] = below[i] & below[j]), and nuclei_join's Fix r = Fix i & Fix j
    (nuclei_meet's pointwise down[r(x)] = down[i(x)] & down[j(x)], an AND of
    down-lane codes, with both images in r's).  The first pair where a route
    fails runs the operation alone: it raises where it refuses, else the
    table raises InternalCheckError naming the pair and the answer."""
    maps = enumerate_nuclei(m)
    _, above, below = nucleus_order(m)
    if op == "v":
        bounds, codes = above, [s.fixed_mask() for s in maps]
    else:
        bounds, codes = below, list(map(read_code, lane_segments(m.poset.down_lanes, [s.table for s in maps])))
    order = dict(zip(bounds, range(len(maps))))
    # Where the join formula does not apply, nuclei_join refuses the first pair.
    formula = dict(zip(codes, range(len(maps)))) if op == "^" or join_formula_applies(m) else {}
    images = [s.image_mask() for s in maps]
    outside, rows = list(map(invert, images)), []
    for i, (b, c, image) in enumerate(zip(bounds, codes, images)):
        row = list(map(order.get, map(b.__and__, bounds[i:])))
        routed = list(map(formula.get, map(c.__and__, codes[i:])))
        if None in row or row != routed or op == "^" and any(
            map(and_, map(image.__or__, images[i:]), map(outside.__getitem__, row))
        ):
            j = next(j for j, r, t in zip(range(i, len(maps)), row, routed)
                     if r is None or r != t or op == "^" and (image | images[j]) & outside[r])
            got = (nuclei_join if op == "v" else nuclei_meet)(m, [maps[i], maps[j]]).table
            raise InternalCheckError(
                f"{'join' if op == 'v' else 'meet'} table disagrees with the N(M) order on "
                f"{_label(m)}: {tuple(maps[i].table)} {op} {tuple(maps[j].table)} gives {tuple(got)}"
            )
        # Entry j < i of row i is entry i of row j.
        rows.append(list(map(itemgetter(i), rows)) + row)
    return tuple(map(tuple, rows))


@per_carrier
def nucleus_order(m: OrderedMagma) -> tuple:
    """(index, above, below): the position of each table in enumerate_nuclei(m),
    a read-only mapping, and the masks of the nuclei above / below nucleus i
    pointwise, two tuples; built once per carrier object."""
    maps = enumerate_nuclei(m)
    above = pointwise_order(m.poset, maps)
    index = MappingProxyType({s.table: i for i, s in enumerate(maps)})
    return index, tuple(above), tuple(_pointwise_masks(m.poset.down_rows, [s.table for s in maps]))


def pointwise_order(p: FinitePoset, maps: Sequence[MonotoneMap]) -> list:
    """above[i] = mask of the j with maps[i] <= maps[j] pointwise."""
    return _pointwise_masks(p.up_rows, [s.table for s in maps])


def _pointwise_masks(rows: Sequence[bytes], tables: Sequence[bytes]) -> list:
    """out[i] = mask of the j with tables[j][x] in set v = tables[i][x] for
    every x, rows[v] the 0/1 row of set v as a translate table: with the
    up-sets, the j above i pointwise; with the down-sets, the j below.
    within[x][v], the j with tables[j][x] in set v, is column x of the
    tables read through rows[v]; out[i] is the AND of within[x][tables[i][x]]
    over x, n ANDs a table."""
    n, laid = len(rows), b"".join(tables)
    columns = [laid[x::n] for x in range(n)]
    within = [{v: row_mask(column.translate(rows[v])) for v in set(column)} for column in columns]
    return [reduce(and_, map(dict.__getitem__, within, t)) for t in tables]


class TowerReport(NamedTuple):
    levels: tuple              # NucleusLattice per level
    sizes: tuple
    stabilizes: Optional[bool]  # d_- iso at the last computed step
    simple: bool


def nucleus_tower(m: OrderedMagma, depth: int = 2) -> TowerReport:
    """N(M), N(N(M)), ... with the structure theorems asserted at each level;
    a level over ENUMERATION_CAP elements is refused by its enumeration."""
    if depth < 1:
        raise StructureError(f"tower depth must be at least 1, got {depth}")
    if not m.profile.near_sup_magma:
        raise HypothesisNotMet("the nucleus tower needs a near sup-magma")
    levels = []
    current = m
    for _ in range(depth):
        lat = nucleus_lattice(current)
        levels.append(lat)
        _assert_level_structure(lat)
        current = lat.magma
    stabilizes = None
    if len(levels) >= 2:
        stabilizes = _d_embedding_is_iso(levels[-2], levels[-1])
    simple = len(levels[0].maps) <= 2
    return TowerReport(tuple(levels), tuple(len(l.maps) for l in levels), stabilizes, simple)


def _assert_level_structure(lat: NucleusLattice):
    nm = lat.magma
    if nm.n == 0:
        return
    prof = nm.profile
    if not prof.near_multiplicative_lattice:
        raise _broken(nm, "N(M) is not a near multiplicative lattice under join")
    rmask = r_set_mask(nm)
    if rmask != nm.poset.universe:
        raise _broken(nm, "N(M) != R(N(M))")


def _d_embedding_is_iso(lower: NucleusLattice, upper: NucleusLattice) -> bool:
    """d_-: N^n -> N^(n+1), a ->  (x -> x v a); iso exactly when surjective.
    The product of N^n is its join, so d_a is column a of the product."""
    nm = lower.magma
    images = nm.cols
    upper_tables = {s.table for s in upper.maps}
    for t in images:
        if t not in upper_tables:
            raise _broken(nm, "d_a is not a nucleus on the next tower level")
    if len(set(images)) != nm.n:
        raise _broken(nm, "d_- embedding is not injective")
    return len(upper.maps) == nm.n


# -- composition joins -------------------------------------------------------------


def certified_composition(
    m: OrderedMagma, s1: MonotoneMap, s2: MonotoneMap
) -> Optional[Tuple[int, MonotoneMap]]:
    """The least n <= COMPOSITION_BOUND at which one order of the n-fold
    alternating composition of s1 and s2 is coarser than the other, with that
    composition (a nucleus); None when the bound runs out."""
    _nuclei_of(m, (s1, s2), "certified_composition")
    p = m.poset
    # a applies s2 first and b applies s1 first; each step applies the
    # other map after each, g o a = a.translate(_pad(g)).
    a, b = s2.table, s1.table
    then_a, then_b = _pad(s1.table), _pad(s2.table)
    for n in range(1, COMPOSITION_BOUND + 1):
        cand = a if all_below(p, b, a) else b if all_below(p, a, b) else None
        if cand is not None:
            return n, _certified(m, cand, "certified composition")
        a, b, then_a, then_b = a.translate(then_a), b.translate(then_b), then_b, then_a
    return None


# -- one slot-encoded pass over the alternating words of pairs ------------------------
#
# Slot i of a chunk holds pair i: id i*n + x is element x of pair i, so one
# bytes.translate of a chunk's string composes floor(256/n) pairs at once.
# For two closures s and t every word of their composition monoid is the
# identity or an alternating word, t first (a_r, r maps) or s first (b_r).
# The words rise, a_r <= a_{r+1} = g a_r with g expansive, and a word that
# its next map fixes is fixed by both, so each side runs until its string
# stops changing.  Each limit is expansive and fixed by s and t, and it
# fixes F = Fix s & Fix t, so its image is F and it is idempotent: both
# sides end at L, the closure onto F.  A chunk whose two sides end apart
# raises InternalCheckError.  Where the join formula applies, _pair_table
# certifies Fix(s v t) = F, so L is the join entry.
#
# Nf: every word lies below L, and L is a word, so L is the sup of each
# element's images over the monoid, and a chunk holds when its limits are
# its join entries.  complemmacor: a_{r+1} = b_r t with a_r t = a_r, so
# b_r <= a_r gives a_r <= a_{r+1} <= a_r, and a_r is L; likewise a_r <= b_r
# gives b_r = L; and a_r = L gives b_r <= a_r.  So certified_composition
# takes L, and a pair is certified within COMPOSITION_BOUND exactly when
# its word of that length on either side is L: every pair of a chunk whose
# words stop within the bound, else the pairs whose slots read L.  A
# certified L that is not its join entry parts the row; where the join
# formula does not apply, each distinct certified L is certified as a
# nucleus.


def _refuse_without_join_formula(m: OrderedMagma) -> None:
    """The refusal of nuclei_join and composition_sups_match where
    join_formula_applies(m) fails."""
    if not join_formula_applies(m):
        raise HypothesisNotMet(
            "join of nuclei needs a near prequantale, or a bounded-complete "
            "near-residuated carrier with a top"
        )


def composition_sups_match(m: OrderedMagma) -> bool:
    """Whether, for every pair (i, j) of positions in enumerate_nuclei(m),
    i <= j, the sup of each element's images over the composition monoid of
    nuclei i and j is its image under their join in nuclei_join_table(m)."""
    _refuse_without_join_formula(m)
    return _alternations(m)[0]


def certified_compositions(m: OrderedMagma) -> Optional[int]:
    """certified_composition over every pair (i, j) of positions in
    enumerate_nuclei(m), i <= j: the number of ordered pairs it
    certifies, (i, j) and (j, i) sharing one verdict, or None when, where
    the join formula applies, a certified composition is not the join.
    Where it does not apply, each certified composition is certified as a
    nucleus here, else InternalCheckError, as certified_composition does."""
    _, certified, limits = _alternations(m)
    for table in limits:
        _certified(m, table, "certified composition")
    return certified


@per_carrier
def _alternations(m: OrderedMagma) -> tuple:
    """The one pass for composition_sups_match and certified_compositions
    (see the comment above): whether every limit is its join entry (False
    with no join table), the ordered pairs certified within the bound, or
    None where a certified limit is not its join entry, and the distinct
    certified limits where the join formula does not apply."""
    tables, n = list(map(attrgetter("table"), enumerate_nuclei(m))), m.n
    joins = nuclei_join_table(m) if join_formula_applies(m) else None
    sups_match, certified, limits, shifts = joins is not None, 0, {}, {}
    for q, first, second, joined, twins in _pair_chunks(tables, joins, 256 // n, n):
        size = q * n
        if q not in shifts:
            shifts[q] = read_code(bytes(i * n for i in range(q) for _ in range(n)))
        first, second = ((read_code(t) + shifts[q]).to_bytes(size, "little") for t in (first, second))
        # a applies the second map first and b the first, as certified_composition;
        # at_a and at_b keep the words of length COMPOSITION_BOUND.
        a, b, then_a, then_b = second, first, _pad(first), _pad(second)
        for r in range(n * n + 1):
            if r < COMPOSITION_BOUND:
                at_a, at_b = a, b
            next_a, next_b = a.translate(then_a), b.translate(then_b)
            if next_a == a and next_b == b:
                break
            a, b, then_a, then_b = next_a, next_b, then_b, then_a
        else:
            raise _broken(m, "alternating compositions did not stabilize")
        if a != b:
            raise _broken(m, "alternating compositions end at two limits")
        limit = (read_code(a) - shifts[q]).to_bytes(size, "little")
        sups_match = sups_match and limit == joined
        if (at_a == a or at_b == b) and limit == joined:
            certified += 2 * q - twins
            continue
        certified -= twins
        for c in range(0, size, n):
            if a[c : c + n] in (at_a[c : c + n], at_b[c : c + n]):
                certified += 2
                if joined is None:
                    limits[limit[c : c + n]] = None
                elif limit[c : c + n] != joined[c : c + n]:
                    return False, None, ()
    return sups_match, certified, tuple(limits)


def _pair_chunks(tables: Sequence[bytes], joins, per: int, n: int):
    """Every pair i <= j, per at a time, row by row, a chunk never spanning
    two rows: (q, the first tables, the second tables, the join entries'
    tables or None, the number of pairs of the form (s, s)), each string q
    tables laid out one after another."""
    laid, k = b"".join(tables), len(tables)
    for i, t in enumerate(tables):
        row = None if joins is None else joins[i]
        for j in range(i, k, per):
            q = min(per, k - j)
            joined = None if row is None else b"".join(map(tables.__getitem__, row[j : j + q]))
            yield q, t * q, laid[j * n : (j + q) * n], joined, int(j == i)
