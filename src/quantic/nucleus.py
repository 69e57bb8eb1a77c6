"""Closure operations and nuclei on finite carriers.

Predicates cross-check every equivalent characterization they implement and
raise InternalCheckError, naming the carrier and its size, on disagreement;
enumeration runs the image-set construction with the naive filter available
as an independent oracle.

Ids are checked where they enter: MonotoneMap checks its table, and the
public functions that take maps rely on that.  Inside the module, tables
derived from a carrier's own tables are composed and read as bitmasks
without a second check.

A map table is bytes, one byte per id: carriers have at most
ENUM_CAP = 64 <= 256 elements.  _pad(T), the table T padded to 256 bytes, is
a bytes.translate table, so row.translate(_pad(T)) applies T to every entry
of row in one C call, and g o f is f.translate(_pad(g)).  One decision
builds the n*n byte tables x*y*, x y*, x* y and
(xy)* = m.flat.translate(_pad(T)) from the carrier's own product rows.  An
equation is one bytes comparison, and an order condition reads one byte of
the 0/1 order rows up_rows[a] per pair.
The pre-image rows pre[u] = {z : u <= z*} are T.translate(up_rows[u]).
Every decision still computes the three-part and single-axiom closure forms,
c1, c2, c3 and, on unital carriers, both unital forms, and compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import and_, getitem
from types import MappingProxyType
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    CarrierTooLarge,
    HypothesisNotMet,
    InternalCheckError,
    NoUnit,
    StructureError,
)
from .magma import MagmaMorphism, OrderedMagma, is_sup_spanning
from .poset import ENUM_CAP, EXHAUSTIVE_CAP, FinitePoset, all_below, bits, id_mask, order_preserving
from .poset import broken as _broken, carrier_label as _label, subset_walk, translate_table as _pad

# Image-set enumeration walks all 2**n candidate subsets.
ENUMERATION_CAP = 16
# The brute-force closure oracle filters all n**n self-maps, up to this many.
BRUTEFORCE_CAP = 5_000_000
# certified_composition tries alternating compositions up to this length.
COMPOSITION_BOUND = 6


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
        t = self.table
        return _expansive(self.poset, t) and order_preserving(self.poset, t)


def is_closure(s: MonotoneMap) -> bool:
    """Expansive + order-preserving + idempotent, cross-checked against the
    single axiom: x <= y* iff x* <= y* for all x, y.  Decided once per poset
    object and table."""
    return _on_carrier(s.poset, ("closure", s.table), _decide_closure, s)


def _decide_closure(p: FinitePoset, s: MonotoneMap) -> bool:
    t = s.table
    three_part = _three_part(p, t)
    single = _closure_single_axiom(p, t)
    if three_part != single:
        raise InternalCheckError(
            f"closure characterizations disagree on {_label(s.carrier)} at {tuple(s.table)}: "
            f"three-part {three_part}, single axiom {single}"
        )
    return three_part


# -- byte-row kernels (see the module docstring); t is a map table ---------------


def _expansive(p: FinitePoset, t: bytes) -> bool:
    return all(map(getitem, p.up_rows, t))


def _three_part(p: FinitePoset, t: bytes) -> bool:
    """Expansive, order-preserving and idempotent."""
    return _expansive(p, t) and order_preserving(p, t) and t.translate(_pad(t)) == t


def _preimage_rows(p: FinitePoset, t: bytes) -> list:
    """pre[u] = {z : u <= t(z)} as a 0/1 byte row over z, for every u."""
    return [t.translate(row) for row in p.up_rows]


def _closure_single_axiom(p: FinitePoset, t: bytes) -> bool:
    """x <= y* iff x* <= y*, for every y at once: pre[x] == pre[x*]."""
    pre = _preimage_rows(p, t)
    return pre == [pre[tx] for tx in t]


def _products(m: OrderedMagma, t: bytes) -> tuple:
    """(xy)*, x y*, x* y and x* y*, each an n*n byte table with row x first."""
    tables = m.row_tables
    return (
        m.flat.translate(_pad(t)),
        b"".join(map(t.translate, tables)),
        b"".join(map(m.mul.__getitem__, t)),
        b"".join(map(t.translate, map(tables.__getitem__, t))),
    )


def _one_sided_compat(p: FinitePoset, star: bytes, x_ts: bytes, t_xs: bytes) -> bool:
    """x y* <= (xy)* and x* y <= (xy)* for all x, y."""
    return all_below(p, x_ts, star) and all_below(p, t_xs, star)


def _nucleus_conditions(m: OrderedMagma, s: MonotoneMap) -> Tuple[bool, bool, bool]:
    """The three equivalent conditions, each including the closure premise:
    c1 x*y* <= (xy)*, c2 (x*y*)* == (xy)*, c3 the one-sided forms."""
    if not is_closure(s):
        return False, False, False
    t = s.table
    star, x_ts, t_xs, tt = _products(m, t)
    p = m.poset
    return (
        all_below(p, tt, star),
        tt.translate(_pad(t)) == star,
        _one_sided_compat(p, star, x_ts, t_xs),
    )


def _unital_selfmap_conditions(m: OrderedMagma, s: MonotoneMap) -> Tuple[bool, bool]:
    """The two single-axiom forms valid for arbitrary self-maps of unital carriers.

    Each quantifies over z through the rows pre[u] = {z : u <= z*}: form 2
    says pre[xy] == pre[x y*] == pre[x* y], comparing the tables through the
    first u with each row, and form 3 says x <= x* and pre[xy] <= pre[x* y*],
    reading the rows as masks, for all x, y.
    """
    t = s.table
    pre = _preimage_rows(m.poset, t)
    _, x_ts, t_xs, tt = _products(m, t)
    flat = m.flat
    first: dict = {}
    same = _pad(bytes([first.setdefault(row, u) for u, row in enumerate(pre)]))
    form2 = flat.translate(same) == x_ts.translate(same) == t_xs.translate(same)
    mask = [int.from_bytes(row, "little") for row in pre].__getitem__
    below = list(map(mask, flat))
    form3 = all(map(getitem, pre, range(m.n))) and below == list(map(and_, below, map(mask, tt)))
    return form2, form3


def is_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """Closure with x*y* <= (xy)*, all equivalent characterizations compared.
    Decided once per carrier object and table."""
    return _on_carrier(m, ("nucleus", s.table), _decide_nucleus, s)


def _decide_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    c1, c2, c3 = _nucleus_conditions(m, s)
    if not (c1 == c2 == c3):
        raise InternalCheckError(
            f"nucleus characterizations disagree on {_label(m)} at {tuple(s.table)}: {(c1, c2, c3)}"
        )
    if m.unit is not None or _on_carrier(m, ("one_sided_unital",), _one_sided_unital):
        u2, u3 = _unital_selfmap_conditions(m, s)
        if not (c1 == u2 == u3):
            raise InternalCheckError(
                f"unital single-axiom nucleus forms disagree on {_label(m)} at {tuple(s.table)}: "
                f"{(c1, u2, u3)}"
            )
    return c1


def _on_carrier(carrier, key: tuple, build, *args):
    """build(carrier, *args), computed once per carrier object and key and kept
    in one dict on the carrier.  A call that raises stores nothing, so the next
    call raises again."""
    memo = carrier.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = build(carrier, *args)
    return memo[key]


def _one_sided_unital(m: OrderedMagma) -> bool:
    identity = bytes(range(m.n))
    return identity in m.mul or identity in m.cols


def is_strict_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """A nucleus with x* y* == (xy)* for all x, y."""
    if not is_nucleus(m, s):
        return False
    star, _, _, tt = _products(m, s.table)
    return tt == star


def transportable_mask(m: OrderedMagma, s: MonotoneMap) -> int:
    """T*(M): elements a with (ax)* = a x* and (xa)* = x* a for all x, that
    is row a of (xy)* equal to row a of x y*, and column a to column a of x* y."""
    n = m.n
    star, x_ts, t_xs, _ = _products(m, s.table)
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
    the result is verified to be a nucleus.
    """
    if not s.is_preclosure:
        raise HypothesisNotMet("closure_from_preclosure requires a preclosure")
    p = s.poset
    table, after = s.table, _pad(s.table)
    for _ in range(p.n + 1):
        new = table.translate(after)
        if new == table:
            break
        table = new
    else:
        raise _broken(s.carrier, "preclosure iteration failed to stabilize")
    star = MonotoneMap(s.carrier, table)
    if not is_closure(star):
        raise HypothesisNotMet(
            "preclosure is not bounded above by a closure operation on this carrier"
        )
    if _least_above(p, s.fixed_mask()) != table:
        raise _broken(s.carrier, "fixpoint iteration disagrees with infimum formula")
    if isinstance(s.carrier, OrderedMagma):
        m = s.carrier
        if m.profile.near_residuated:
            hull, x_ts, t_xs, _ = _products(m, s.table)
            if _one_sided_compat(p, hull, x_ts, t_xs) and not is_nucleus(m, star):
                raise _broken(m, "multiplicative preclosure hull failed nucleus check")
    return star


# -- meets and joins in N(M) ---------------------------------------------------


def nuclei_meet(m: OrderedMagma, gamma: Iterable[MonotoneMap]) -> MonotoneMap:
    """Pointwise infimum; the empty meet is the top map e."""
    maps = list(gamma)
    p = m.poset
    if not maps:
        return MonotoneMap.top_map(m)
    for s in maps:
        if not is_nucleus(m, s):
            raise HypothesisNotMet("nuclei_meet requires nuclei")
    down, greatest = p.down, p.principal_down
    table = []
    for x, column in enumerate(zip(*(s.table for s in maps))):
        lower = p.universe
        for sx in column:
            lower &= down[sx]
        v = greatest.get(lower)
        if v is None:
            raise HypothesisNotMet(f"missing infimum for the fibers over element {x}")
        table.append(v)
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise _broken(m, "pointwise meet of nuclei is not a nucleus")
    union_images = 0
    for s in maps:
        union_images |= s.image_mask()
    if union_images & ~out.image_mask():
        raise _broken(m, "meet image does not contain the union of images")
    return out


def nuclei_join(m: OrderedMagma, gamma: Iterable[MonotoneMap]) -> MonotoneMap:
    """Join as closure of the common fixed points.

    Guaranteed to be a nucleus where join_formula_applies; elsewhere the
    operation refuses.
    """
    maps = list(gamma)
    p = m.poset
    if not join_formula_applies(m):
        raise HypothesisNotMet(
            "join of nuclei needs a near prequantale, or a bounded-complete "
            "near-residuated carrier with a top"
        )
    for s in maps:
        if not is_nucleus(m, s):
            raise HypothesisNotMet("nuclei_join requires nuclei")
    common = p.universe
    for s in maps:
        common &= s.fixed_mask()
    table = _least_above(p, common)
    if table is None:
        raise _broken(m, "common fixed points fail the closure-system property")
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise _broken(m, "join of nuclei is not a nucleus")
    if out.image_mask() != common:
        raise _broken(m, "join image is not the intersection of images")
    return out


# -- enumeration ----------------------------------------------------------------


def enumerate_closures(carrier) -> List[MonotoneMap]:
    """All closure operations, via candidate image sets.

    A subset C is the image of a (unique) closure operation exactly when every
    fiber {a in C : a >= x} has a least element, and then x* is that element.
    The 2**n walk over candidate images runs once per carrier, up to
    ENUMERATION_CAP elements; every call returns a fresh list.
    """
    return list(_on_carrier(carrier, ("closures",), _closures_by_images))


def _closures_by_images(carrier) -> Tuple[MonotoneMap, ...]:
    p = poset_of(carrier)
    if p.n > ENUMERATION_CAP:
        raise CarrierTooLarge(
            f"closure enumeration capped at {ENUMERATION_CAP} elements, refused on {_label(carrier)}"
        )
    required = id_mask(p.maximal_elements())
    out = []
    for c in range(1 << p.n):
        if c & required == required:
            table = _least_above(p, c)
            if table is not None:
                out.append(MonotoneMap(carrier, table))
    out.sort(key=lambda s: s.table)
    return tuple(out)


def _least_above(p: FinitePoset, c: int) -> Optional[bytes]:
    """x -> the least element of the subset c above x, for every x: the
    closure whose image is c, as a table; None when some x has no such least
    element."""
    table = []
    for upx in p.up:
        least = p.least_of(c & upx)
        if least is None:
            return None
        table.append(least)
    return bytes(table)


def enumerate_closures_bruteforce(carrier) -> List[MonotoneMap]:
    """Independent oracle: filter all self-maps.  Exponential, tiny carriers only."""
    p = poset_of(carrier)
    if p.n ** p.n > BRUTEFORCE_CAP:
        raise CarrierTooLarge(
            f"brute-force closure enumeration capped at {BRUTEFORCE_CAP} self-maps, "
            f"refused on {_label(carrier)}, which has {p.n ** p.n}"
        )
    out = []
    for table in product(range(p.n), repeat=p.n):
        s = MonotoneMap(carrier, table)
        if _decide_closure(p, s):
            out.append(s)
    out.sort(key=lambda s: s.table)
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
    if not is_nucleus(m, s):
        raise HypothesisNotMet("quotient requires a nucleus")
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
    """s(sup X) is the sup of s(X) within the image, for every X whose sup
    exists: every subset up to EXHAUSTIVE_CAP elements, pairs above it."""
    p, t = m.poset, s.table
    up, image = p.up, s.image_mask()
    if p.n > EXHAUSTIVE_CAP:
        walk = (
            (None, up[x] & up[y], (image & up[t[x]] & up[t[y]],))
            for x in range(p.n)
            for y in range(x, p.n)
        )
    else:
        walk = subset_walk(p, [(up[tx],) for tx in t], (image,))
    for _, ub, (image_ub,) in walk:
        v = p.principal_up.get(ub)
        if v is not None and not p.is_least(t[v], image_ub):
            raise _broken(m, "corestriction of the nucleus is not sup-preserving")


def _assert_profile_inheritance(m: OrderedMagma, q: OrderedMagma):
    inherited = (
        "prequantale",
        "near_prequantale",
        "semiprequantale",
        "multiplicative_semilattice",
        "prequantic_semilattice",
        "near_residuated",
        "residuated",
    )
    pm, pq = m.profile, q.profile
    for flag in inherited:
        if getattr(pm, flag) and not getattr(pq, flag):
            raise _broken(m, f"quotient failed to inherit {flag}")
    for flag in ("quantale", "near_quantale", "multiplicative_lattice", "near_multiplicative_lattice"):
        if getattr(pm, flag) and not getattr(pq, flag):
            raise _broken(m, f"quotient failed to inherit {flag}")


def _assert_quotient_residuals(m: OrderedMagma, s: MonotoneMap):
    """(x/y)* = x/y* = x/y for star-fixed x, whenever the residual exists."""
    if not m.profile.near_residuated:
        return
    at, t = m.residuals.at, s.table
    for x in range(m.n):
        if t[x] != x:
            continue
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
    s = MonotoneMap(src, table)
    if not is_nucleus(src, s):
        raise _broken(src, "morphism-induced map failed the nucleus check")
    for x in range(src.n):
        if f.table[s.table[x]] != f.table[x]:
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
            star_prod = s.table[src.op(x, y)]
            if f.table[star_prod] != tgt.op(f.table[x], f.table[y]):
                raise _broken(src, "image of nucleus not isomorphic to morphism image")
    for x in members:
        for y in members:
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
    if not is_nucleus(n_sub.magma, s):
        raise HypothesisNotMet("induced_lower requires a nucleus on the submagma")
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
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise _broken(m, "induced lower map failed the nucleus check")
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
    for x in range(m.n):
        for y in range(m.n):
            if x == ann or y == ann:
                continue
            if ((mmask >> m.op(x, y)) & 1) and not (
                ((mmask >> x) & 1) and ((mmask >> y) & 1)
            ):
                raise HypothesisNotMet(
                    f"subset is not saturated: {x}*{y} lands inside but the pair does not"
                )
    if not is_nucleus(n_sub.magma, s):
        raise HypothesisNotMet("induced_upper requires a nucleus on the submagma")
    top = p.top
    if top is None:
        raise HypothesisNotMet("induced_upper needs a bounded-above carrier")
    table = []
    for x in range(m.n):
        if (mmask >> x) & 1:
            table.append(n_sub.members[s.table[n_sub.to_sub[x]]])
        else:
            table.append(top)
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise _broken(m, "induced upper map failed the nucleus check")
    return out


# -- R(M), the Galois connection, and 1[x] ---------------------------------------


def r_set_mask(m: OrderedMagma) -> int:
    if m.unit is None:
        raise NoUnit("R(M) needs a unit")
    return id_mask(x for x in range(m.n) if m.op(x, x) == x and m.leq(m.unit, x))


def d_map(m: OrderedMagma, a: int) -> MonotoneMap:
    """The strict nucleus x -> x*a for idempotent a >= 1 on an ordered commutative monoid."""
    prof = m.profile
    if not (prof.commutative and prof.associative and prof.unital):
        raise HypothesisNotMet("d_map needs an ordered commutative monoid")
    if not ((r_set_mask(m) >> a) & 1):
        raise HypothesisNotMet("d_map needs an idempotent element above the unit")
    s = MonotoneMap(m, m.cols[a])
    if not is_strict_nucleus(m, s):
        raise _broken(m, "translation by an idempotent above 1 must be a strict nucleus")
    return s


def unit_part(m: OrderedMagma, s: MonotoneMap) -> int:
    """1* for a nucleus s; always lands in R(M)."""
    if m.unit is None:
        raise NoUnit("unit_part needs a unital carrier")
    if not is_nucleus(m, s):
        raise HypothesisNotMet("unit_part requires a nucleus")
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
    """above[i] = mask of the j with maps[i] <= maps[j] pointwise.

    Each map packs into two n*n-bit ints, U(s) = sum of up[s(x)] << xn and
    P(t) = sum of 1 << (xn + t(x)); then s <= t iff P(t) & ~U(s) == 0, one
    big-int operation per pair.
    """
    n, up = p.n, p.up
    points = [sum(1 << (x * n + tx) for x, tx in enumerate(t.table)) for t in maps]
    above = []
    for s in maps:
        outside = ~sum(up[sx] << (x * n) for x, sx in enumerate(s.table))
        above.append(sum(1 << j for j, pt in enumerate(points) if not pt & outside))
    return above


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
    for s in (s1, s2):
        if not is_nucleus(m, s):
            raise HypothesisNotMet("certified_composition requires nuclei")
    p = m.poset
    # a applies s2 first and b applies s1 first; each step applies the
    # other map after each, g o a = a.translate(_pad(g)).
    a, b = s2.table, s1.table
    then_a, then_b = _pad(s1.table), _pad(s2.table)
    for n in range(1, COMPOSITION_BOUND + 1):
        cand = a if all_below(p, b, a) else b if all_below(p, a, b) else None
        if cand is not None:
            out = MonotoneMap(m, cand)
            if not is_nucleus(m, out):
                raise _broken(m, "certified composition is not a nucleus")
            return n, out
        a, b, then_a, then_b = a.translate(then_a), b.translate(then_b), then_b, then_a
    return None
