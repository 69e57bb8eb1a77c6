"""Closure operations and nuclei on finite carriers.

Predicates cross-check every equivalent characterization they implement and
raise InternalCheckError, naming the carrier and its size, on disagreement;
closure enumeration is a backtracking search that visits only closures, with
the naive filter of all self-maps available as an independent oracle.

Constructions check the nuclei they take through one precondition,
_nuclei_of (HypothesisNotMet naming the operation), and the nucleus they
return through one postcondition, _certified (InternalCheckError naming the
carrier).  MonotoneMap checks its ids against its own carrier, and a
decision refuses a table of another length, a map of another carrier, with
StructureError, storing no verdict.  Tables derived from a carrier's own
tables are composed and read as bitmasks without a second check.

A map table is bytes, one byte per id: carriers have at most
ENUM_CAP = 64 <= 256 elements.  _pad(T), the table T padded to 256 bytes, is
a bytes.translate table, so row.translate(_pad(T)) applies T to every entry
of row in one C call, and g o f is f.translate(_pad(g)).  An order condition
u <= w over all pairs rests on a <= b iff down[a] is a subset of down[b]:
it is one AND of the lane codes of the two sides (poset.all_below),
k = ceil(n/8) bytes a lane.

_decide_nuclei decides maps in batches of BATCH_MAPS tables, laid out map
after map, with the n*n byte tables x*y*, x y*, x* y and (xy)* built from
the carrier's product rows.  A condition with both sides read through a
carrier table (expansive, order preservation, c1, c3, unital form 3) is one
poset.lanes_within over the batch: map i holds segment i of the violations,
its positions times k bytes, and passes when that segment is zero.
Idempotence, c2, the single axiom's rows pre[u] = {z : u <= z*} =
T.translate(up_rows[u]), unital form 2 and strictness translate through the
map's own table, per map.  Form 3 reads pre[xy] within pre[x*y*] as
up[xy] & Im(T) within up[x*y*].  Every map still gets the three-part and
single-axiom closure forms, c1, c2, c3 and, on unital carriers, both unital
forms, compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product, repeat
from operator import getitem
from types import MappingProxyType
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    CarrierTooLarge,
    HypothesisNotMet,
    InternalCheckError,
    NoUnit,
    StructureError,
)
from .magma import MagmaMorphism, OrderedMagma, is_sup_spanning, r_set_mask
from .poset import ENUM_CAP, EXHAUSTIVE_CAP, FinitePoset, all_below, bits, id_mask
from .poset import lane_code, lanes_within, order_preserving
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
# set of a batch: its product tables, preimage rows and lane codes.
BATCH_MAPS = 64


def poset_of(carrier) -> FinitePoset:
    return carrier.poset if isinstance(carrier, OrderedMagma) else carrier


class MonotoneMap:
    """A self-map of a finite carrier, stored as a dense table of bytes,
    byte x the id of the image of x.

    Equality and ordering are pointwise on tables; instances are immutable and
    hashable so nucleus lattices can be built on top of them.
    """

    def __init__(self, carrier, table: Sequence[int]):
        p = poset_of(carrier)
        if len(table) != p.n:
            raise StructureError("map table length does not match carrier")
        p.check_ids(table)
        self.carrier = carrier
        self.table = bytes(table)

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
        return all_below(self.poset, self.table, other.table)

    def __repr__(self):
        return f"MonotoneMap{tuple(self.table)}"

    def image_mask(self) -> int:
        return id_mask(self.table)

    def image(self) -> list:
        return sorted(set(self.table))

    def fixed_mask(self) -> int:
        return id_mask(x for x, t in enumerate(self.table) if x == t)

    @property
    def is_order_preserving(self) -> bool:
        return order_preserving(self.poset, self.table)

    @property
    def is_preclosure(self) -> bool:
        p, t = self.poset, self.table
        return all(map(getitem, p.up_rows, t)) and order_preserving(p, t)


def is_closure(s: MonotoneMap) -> bool:
    """Expansive + order-preserving + idempotent, cross-checked against the
    single axiom: x <= y* iff x* <= y* for all x, y.  A batch of one, decided
    once per poset object and table, as _decide_nuclei decides it."""
    memo, key = _memo(s.poset), ("closure", s.table)
    if key not in memo:
        memo[key] = _closed(s.carrier, s.table, _closure_conditions(s.carrier, [s.table])[0])
    return memo[key]


def _closed(carrier, t: bytes, forms: tuple) -> bool:
    """The closure verdict of t from its _closure_conditions, both forms compared."""
    _, three_part, single = forms
    if three_part != single:
        raise InternalCheckError(
            f"closure characterizations disagree on {_label(carrier)} at {tuple(t)}: "
            f"three-part {three_part}, single axiom {single}"
        )
    return three_part


# -- batched decisions (see the module docstring) ------------------------------------


def _check_lengths(carrier, tables: Sequence[bytes]):
    """Refuse, with StructureError, a table that is not one id per element of carrier."""
    if set(map(len, tables)) - {poset_of(carrier).n}:
        raise StructureError(f"map table length does not match {_label(carrier)}")


def _closure_conditions(carrier, tables: Sequence[bytes]) -> list:
    """(expansive, three-part form, single axiom pre[x] == pre[x*]) per table of n ids."""
    p = poset_of(carrier)
    _check_lengths(carrier, tables)
    count, lanes, rows = len(tables), p.down_lanes, p.up_rows
    pads = list(map(_pad, tables))
    lo, hi = (b"".join(map(side.translate, pads)) for side in p.order_pairs)
    expansive = lanes_within(lanes, bytes(range(p.n)) * count, b"".join(tables), count)
    monotone = lanes_within(lanes, lo, hi, count)
    out = []
    for t, pad, e, o in zip(tables, pads, expansive, monotone):
        pre = list(map(t.translate, rows))
        out.append((e, e and o and t.translate(pad) == t, pre == list(map(pre.__getitem__, t))))
    return out


def _products(m: OrderedMagma, tables: Sequence[bytes]) -> tuple:
    """(xy)*, x y*, x* y and x* y*: four lists of n*n byte tables, one per table."""
    rows, mul = m.row_tables, m.mul
    return (
        [m.flat.translate(_pad(t)) for t in tables],
        [b"".join(map(t.translate, rows)) for t in tables],
        [b"".join(map(mul.__getitem__, t)) for t in tables],
        [b"".join(map(t.translate, map(rows.__getitem__, t))) for t in tables],
    )


def _nucleus_conditions(m: OrderedMagma, tables, products: tuple, closed: Sequence[bool]) -> list:
    """c1 x*y* <= (xy)*, c2 (x*y*)* == (xy)* and c3 x y* <= (xy)* and
    x* y <= (xy)* per table, each with the closure premise closed[i]:
    c1 and c3 are one lanes_within, table i's x*y*, x y* and x* y against
    its (xy)* in segments 3i, 3i + 1 and 3i + 2."""
    star, x_ts, t_xs, tt = products
    lo = b"".join(chain.from_iterable(zip(tt, x_ts, t_xs)))
    seg = lanes_within(m.poset.down_lanes, lo, b"".join(s * 3 for s in star), 3 * len(tables))
    return [
        (c and a, c and u.translate(_pad(t)) == s, c and b and d)
        for t, c, s, u, a, b, d in zip(tables, closed, star, tt, seg[0::3], seg[1::3], seg[2::3])
    ]


def _unital_selfmap_conditions(m: OrderedMagma, tables, products: tuple, expansive) -> list:
    """(form 2, form 3) per table, the single-axiom forms valid for arbitrary
    self-maps of unital carriers; expansive[i] says x <= x* for table i.

    Both quantify over z through pre[u] = {z : u <= z*} = t^-1(up[u]).
    Form 2, pre[xy] == pre[x y*] == pre[x* y], compares the tables through
    one u with each row.  Form 3 is x <= x* and pre[xy] within pre[x* y*].
    For sets A and B, t^-1(A) lies within t^-1(B) iff A & Im(t) lies within
    B: w = t(z) in A & Im(t) has z in t^-1(A), so w in B; and z in t^-1(A)
    has t(z) in A & Im(t).  So form 3 is x <= x* and up[xy] & Im(t) within
    up[x* y*]: one lanes_within over up_lanes, the image mask of table i in
    every lane of its segment.
    """
    _, x_ts, t_xs, tt = products
    flat, lanes, rows, n, count = m.flat, m.poset.up_lanes, m.poset.up_rows, m.n, len(tables)
    images = (sum(map((1).__lshift__, set(t))).to_bytes(len(lanes), "little") for t in tables)
    inside = int.from_bytes(b"".join(image * (n * n) for image in images), "little")
    form3 = lanes_within(lanes, flat * count, b"".join(tt), count, inside)
    out = []
    for t, a, b, e, f in zip(tables, x_ts, t_xs, expansive, form3):
        pre = list(map(t.translate, rows))
        same = _pad(bytes(map(dict(zip(pre, range(n))).__getitem__, pre)))
        out.append((flat.translate(same) == a.translate(same) == b.translate(same), e and f))
    return out


def is_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """Closure with x*y* <= (xy)*, all equivalent characterizations compared.
    A batch of one, decided once per carrier object and table; a family of
    maps is decided faster handed to _decide_nuclei whole."""
    return _nucleus_verdict(m, s)[0]


def is_strict_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """A nucleus with x* y* == (xy)* for all x, y; read from is_nucleus's decision."""
    return _nucleus_verdict(m, s)[1]


def _nucleus_verdict(m: OrderedMagma, s: MonotoneMap) -> Tuple[bool, bool]:
    memo, key = _memo(m), ("nucleus", s.table)
    if key not in memo:
        _decide_nuclei(m, [s])
    return memo[key]


def _decide_nuclei(m: OrderedMagma, maps: Iterable[MonotoneMap]):
    """Decide each table of maps that m has not decided, BATCH_MAPS at a
    time: (nucleus, strict) under ("nucleus", table) on m, the closure under
    ("closure", table) on m.poset.  The first table in input order whose
    characterizations disagree, or whose length is not m.n, raises, and then
    no verdict of the call is stored."""
    memo = _memo(m)
    todo = [t for t in dict.fromkeys(s.table for s in maps) if ("nucleus", t) not in memo]
    nuclei, closures = {}, {}
    for i in range(0, len(todo), BATCH_MAPS):
        tables = todo[i : i + BATCH_MAPS]
        forms = _closure_conditions(m, tables)
        unital = m.unit is not None or _on_carrier(m, ("one_sided_unital",), _one_sided_unital)
        expansive = [f[0] for f in forms]
        stars, _, _, tts = products = _products(m, tables)
        conditions = _nucleus_conditions(m, tables, products, [f[1] for f in forms])
        units = _unital_selfmap_conditions(m, tables, products, expansive) if unital else repeat(())
        for t, f, (c1, c2, c3), u, star, tt in zip(tables, forms, conditions, units, stars, tts):
            closures["closure", t] = _closed(m, t, f)
            if not c1 == c2 == c3:
                raise InternalCheckError(
                    f"nucleus characterizations disagree on {_label(m)} at {tuple(t)}: {(c1, c2, c3)}"
                )
            if u and not c1 == u[0] == u[1]:
                raise InternalCheckError(
                    f"unital single-axiom nucleus forms disagree on {_label(m)} at {tuple(t)}: {(c1, *u)}"
                )
            nuclei["nucleus", t] = c1, c1 and tt == star
    memo.update(nuclei)
    _memo(m.poset).update(closures)


def _nuclei_of(m: OrderedMagma, maps: Iterable[MonotoneMap], who: str) -> List[MonotoneMap]:
    """The precondition: maps as a list, each a nucleus on m, else
    HypothesisNotMet naming who.  Verdicts are read from the memo; the first
    undecided map sends the list to _decide_nuclei."""
    maps, memo = list(maps), _memo(m)
    for s in maps:
        if ("nucleus", s.table) not in memo:
            _decide_nuclei(m, maps)
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


def _on_carrier(carrier, key: tuple, build, *args):
    """build(carrier, *args), computed once per carrier object and key and kept
    in one dict on the carrier.  A call that raises stores nothing, so the next
    call raises again."""
    memo = _memo(carrier)
    if key not in memo:
        memo[key] = build(carrier, *args)
    return memo[key]


def _one_sided_unital(m: OrderedMagma) -> bool:
    identity = bytes(range(m.n))
    return identity in m.mul or identity in m.cols


def transportable_mask(m: OrderedMagma, s: MonotoneMap) -> int:
    """T*(M): elements a with (ax)* = a x* and (xa)* = x* a for all x, that
    is row a of (xy)* equal to row a of x y*, and column a to column a of x* y."""
    n = m.n
    _check_lengths(m, [s.table])
    (star,), (x_ts,), (t_xs,), _ = _products(m, [s.table])
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
    return _on_carrier(s.carrier, ("hull", s.table), _build_hull, s)


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
        (hull,), (x_ts,), (t_xs,), _ = _products(carrier, [s.table])
        if all_below(p, x_ts + t_xs, hull * 2) and not is_nucleus(carrier, star):
            raise _broken(carrier, "multiplicative preclosure hull failed nucleus check")
    return star


# -- meets and joins in N(M) ---------------------------------------------------


def nuclei_meet(m: OrderedMagma, gamma: Iterable[MonotoneMap]) -> MonotoneMap:
    """Pointwise infimum; the empty meet is the top map e."""
    maps, p = _nuclei_of(m, gamma, "nuclei_meet"), m.poset
    if not maps:
        return MonotoneMap.top_map(m)
    table = []
    for x, column in enumerate(zip(*(s.table for s in maps))):
        v = p.inf_mask(id_mask(column))
        if v is None:
            raise HypothesisNotMet(f"missing infimum for the fibers over element {x}")
        table.append(v)
    out = _certified(m, table, "pointwise meet of nuclei")
    if any(s.image_mask() & ~out.image_mask() for s in maps):
        raise _broken(m, "meet image does not contain the union of images")
    return out


def nuclei_join(m: OrderedMagma, gamma: Iterable[MonotoneMap]) -> MonotoneMap:
    """Join as closure of the common fixed points.

    Guaranteed to be a nucleus where join_formula_applies; elsewhere the
    operation refuses.
    """
    p = m.poset
    if not join_formula_applies(m):
        raise HypothesisNotMet(
            "join of nuclei needs a near prequantale, or a bounded-complete "
            "near-residuated carrier with a top"
        )
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


def enumerate_closures(carrier) -> List[MonotoneMap]:
    """All closure operations, by a backtracking search over their images.

    A subset C is the image of a (unique) closure operation exactly when every
    fiber {a in C : a >= x} has a least element, and then x* is that element.
    The search decides the elements by ascending |up[x]|, a reverse linear
    extension, since x < y makes up[y] a proper subset of up[x].  Keeping x is
    always allowed; leaving x out needs a least kept element above x, x*.
    Every partial choice extends, by keeping every undecided element: up[x]
    holds only x and elements decided before it, so the fiber of a decided x
    never changes, and an undecided x is its own x*.  So the leaves are the
    closures, each once, sorted by table.  The search runs once per carrier,
    up to ENUMERATION_CAP elements; every call returns a fresh list.
    """
    return list(_on_carrier(carrier, ("closures",), _closures_by_images))


def _closures_by_images(carrier) -> Tuple[MonotoneMap, ...]:
    p = poset_of(carrier)
    if p.n > ENUMERATION_CAP:
        raise CarrierTooLarge(
            f"closure enumeration capped at {ENUMERATION_CAP} elements, refused on {_label(carrier)}"
        )
    order = sorted(range(p.n), key=lambda x: bin(p.up[x]).count("1"))
    table, tables = bytearray(p.n), []
    def extend(i: int, kept: int):
        if i == p.n:
            return tables.append(bytes(table))
        x = order[i]
        for star, rest in ((x, kept | 1 << x), (p.least_of(kept & p.up[x]), kept)):
            if star is not None:
                table[x] = star
                extend(i + 1, rest)
    extend(0, 0)
    return tuple(MonotoneMap(carrier, t) for t in sorted(tables))


def _least_above(p: FinitePoset, c: int) -> Optional[bytes]:
    """x -> the least element of the subset c above x, for every x: the
    closure whose image is c, as a table; None when some x has no such least
    element."""
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
        forms = _closure_conditions(p, chunk)
        out += [MonotoneMap(carrier, t) for t, f in zip(chunk, forms) if _closed(carrier, t, f)]
    return out


def enumerate_nuclei(m: OrderedMagma) -> List[MonotoneMap]:
    """All nuclei on m, computed once per carrier; every call returns a fresh list.

    Both routes filter the one closure enumeration.  On near-residuated
    carriers the image-set criterion, images that hold every residual of
    their members, must select exactly the closures that pass is_nucleus;
    otherwise only the is_nucleus filter runs.

    Write x/a for the largest z with z a <= x, and a\\x for the largest z
    with a z <= x.  (=>) Let s be a nucleus, x = x* and r = a\\x.  Then
    a r* <= (a r)* <= x, so r* <= r and r is in the image; x/a likewise.
    (<=) Let the image be residual-closed and w = (a y)*.  Then y lies in
    {z : a z <= w}, so a\\w exists (near residuation) and is in the image.
    So y* <= a\\w and a y* <= w; symmetrically x* y <= (x y)*.  This is c3,
    and c3 with the closure gives a nucleus.  No meet test is needed: a
    closure image holds every meet that exists, since w = a ^ b gives
    w* <= a* = a and w* <= b, so w* = w.
    """
    return list(_on_carrier(m, ("nuclei",), _nuclei_two_routes))


def _nuclei_two_routes(m: OrderedMagma) -> Tuple[MonotoneMap, ...]:
    closures = enumerate_closures(m)
    _decide_nuclei(m, closures)
    filtered = [s for s in closures if is_nucleus(m, s)]
    if m.profile.near_residuated:
        by_images = {s.table for s in _nuclei_by_image_sets(m, closures)}
        by_filter = {s.table for s in filtered}
        if by_images != by_filter:
            raise InternalCheckError(
                f"image-set and filter nucleus enumerations disagree on {_label(m)}: "
                f"image-set only {sorted(map(tuple, by_images - by_filter))}, "
                f"filter only {sorted(map(tuple, by_filter - by_images))}"
            )
    return tuple(filtered)


def _nuclei_by_image_sets(m: OrderedMagma, closures: List[MonotoneMap]) -> List[MonotoneMap]:
    """The closures whose image holds every residual of its members."""
    residuals = _residual_masks(m)
    return [s for s in closures if _residual_stable(residuals, s.image_mask())]


def _residual_masks(m: OrderedMagma) -> List[int]:
    """residual_masks[x]: every residual x/a and a\\x there is, as a mask."""
    return [
        id_mask(side for r in row for side in (r.left, r.right) if side is not None)
        for row in m.residuals.at
    ]


def _residual_stable(residual_masks: List[int], c: int) -> bool:
    """Every residual of a member of c by any element lies in c."""
    return not any(residual_masks[x] & ~c for x in bits(c))


# -- quotients -------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMagma:
    parent: OrderedMagma
    nucleus: MonotoneMap
    members: tuple            # parent ids of the image, ascending
    magma: OrderedMagma       # the image with star-multiplication
    to_quotient: MappingProxyType  # parent image id -> quotient id, read-only


def quotient(m: OrderedMagma, s: MonotoneMap) -> QuotientMagma:
    """The image M* under star-multiplication, with the inherited structure
    asserted; built once per carrier object and nucleus table."""
    _nuclei_of(m, [s], "quotient")
    return _on_carrier(m, ("quotient", s.table), _build_quotient, s)


def _build_quotient(m: OrderedMagma, s: MonotoneMap) -> QuotientMagma:
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
        missed = next(sup_misses(p, cols, image), None) is not None
    if missed:
        raise _broken(m, "corestriction of the nucleus is not sup-preserving")


def _assert_profile_inheritance(m: OrderedMagma, q: OrderedMagma):
    pm, pq = m.profile, q.profile
    for flag in (
        "prequantale", "near_prequantale", "semiprequantale", "multiplicative_semilattice",
        "prequantic_semilattice", "near_residuated", "residuated",
        "quantale", "near_quantale", "multiplicative_lattice", "near_multiplicative_lattice",
    ):
        if getattr(pm, flag) and not getattr(pq, flag):
            raise _broken(m, f"quotient failed to inherit {flag}")


def _assert_quotient_residuals(m: OrderedMagma, s: MonotoneMap):
    """(x/y)* = x/y* = x/y for star-fixed x, whenever the residual exists."""
    if not m.profile.near_residuated:
        return
    at, t = m.residuals.at, s.table
    for x in bits(s.fixed_mask()):
        for y in range(m.n):
            r = at[x][y].left
            if r is not None and (t[r] != r or at[x][t[y]].left != r):
                raise _broken(m, "quotient residual formula failed")


def nucleus_of_morphism(f: MagmaMorphism) -> MonotoneMap:
    """The unique nucleus splitting a near-sup-preserving surjection-onto-image."""
    src = f.source
    if not (f.is_order_preserving() and f.is_magma_hom() and f.preserves_sups()):
        raise HypothesisNotMet("nucleus_of_morphism needs a near-sup-preserving magma hom")
    if not src.profile.near_prequantale:
        raise HypothesisNotMet("nucleus_of_morphism needs a near prequantale source")
    fibers: dict = {}
    for y, fy in enumerate(f.table):
        fibers[fy] = fibers.get(fy, 0) | 1 << y
    table = []
    for fx in f.table:
        v = src.poset.sup_mask(fibers[fx])
        if v is None:
            raise _broken(src, "fiber supremum missing on a near prequantale")
        table.append(v)
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


@dataclass(frozen=True)
class Submagma:
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


@dataclass(frozen=True)
class NucleusLattice:
    base: OrderedMagma
    maps: tuple                # the nuclei, in deterministic order
    magma: OrderedMagma        # N(M) under pointwise order with join as multiplication


def nucleus_lattice(m: OrderedMagma) -> NucleusLattice:
    """N(M), built once per carrier object."""
    return _on_carrier(m, ("lattice",), _build_nucleus_lattice)


def _build_nucleus_lattice(m: OrderedMagma) -> NucleusLattice:
    maps = tuple(enumerate_nuclei(m))
    k = len(maps)
    name = f"N({m.name})" if m.name else "N(M)"
    if k > ENUM_CAP:
        raise CarrierTooLarge(
            f"N(M) capped at {ENUM_CAP} nuclei, refused on {name}: "
            f"{_label(m)} has {k} nuclei"
        )
    lat = FinitePoset.from_up_masks(pointwise_order(m.poset, maps), [f"n{i}" for i in range(k)])
    mul = lat.join_table
    if any(None in row for row in mul):
        # Guaranteed to exist when m is near sup-complete; refuse otherwise.
        raise HypothesisNotMet("N(M) is not a join semilattice for this carrier")
    magma = OrderedMagma(lat, mul, name=name)
    # The lattice join must agree with the common-fixed-point join formula;
    # both tables are symmetric, so each unordered pair is compared once.
    if join_formula_applies(m):
        joins = nuclei_join_table(m)
        for i in range(k):
            for j in range(i, k):
                if joins[i][j] != mul[i][j]:
                    raise InternalCheckError(
                        f"N(M) join table disagrees with the join formula on {_label(m)}: "
                        f"{tuple(maps[i].table)} v {tuple(maps[j].table)} is "
                        f"{tuple(maps[joins[i][j]].table)} by the formula, "
                        f"{tuple(maps[mul[i][j]].table)} by the table"
                    )
    return NucleusLattice(m, maps, magma)


def join_formula_applies(m: OrderedMagma) -> bool:
    """Whether nuclei_join answers: on a near prequantale, or a bounded-complete
    near-residuated carrier with a top (the top map bounds every family)."""
    prof = m.profile
    return prof.near_prequantale or (
        prof.bounded_complete and prof.near_residuated and m.poset.top is not None
    )


def nuclei_join_table(m: OrderedMagma) -> list:
    """joins[i][j] is the position in enumerate_nuclei(m) of the join of nuclei
    i and j, by the join formula (nuclei_join) run once per unordered pair;
    built once per carrier object, and read, never changed, by its callers."""
    return _on_carrier(m, ("joins",), _pair_table, nuclei_join)


def nuclei_meet_table(m: OrderedMagma) -> list:
    """meets[i][j] is the position in enumerate_nuclei(m) of the pointwise
    meet (nuclei_meet) of nuclei i and j; built and read like the join table."""
    return _on_carrier(m, ("meets",), _pair_table, nuclei_meet)


def _pair_table(m: OrderedMagma, combine) -> list:
    maps = enumerate_nuclei(m)
    index = {s.table: i for i, s in enumerate(maps)}
    out = [[0] * len(maps) for _ in maps]
    for i, s in enumerate(maps):
        for j in range(i, len(maps)):
            got = combine(m, [s, maps[j]]).table
            if got not in index:
                raise InternalCheckError(
                    f"{combine.__name__} of two nuclei on {_label(m)} is not enumerated: "
                    f"{tuple(s.table)}, {tuple(maps[j].table)} give {tuple(got)}"
                )
            out[i][j] = out[j][i] = index[got]
    return out


def pointwise_order(p: FinitePoset, maps: Sequence[MonotoneMap]) -> list:
    """above[i] = mask of the j with maps[i] <= maps[j] pointwise: s <= t iff
    lane_code(s) & ~lane_code(t) == 0 over p.down_lanes, one AND per pair."""
    lanes = p.down_lanes
    codes = [lane_code(lanes, s.table) for s in maps]
    outside = [~code for code in codes]
    return [id_mask(j for j, out in enumerate(outside) if not code & out) for code in codes]


@dataclass(frozen=True)
class TowerReport:
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
