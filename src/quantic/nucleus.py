"""Closure operations and nuclei on finite carriers.

Predicates cross-check every equivalent characterization they implement and
raise InternalCheckError on disagreement; enumeration runs the image-set
construction with the naive filter available as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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
from .poset import EXHAUSTIVE_CAP, FinitePoset, bits, subset_walk

# Image-set enumeration walks all 2**n candidate subsets.
ENUMERATION_CAP = 16


def poset_of(carrier) -> FinitePoset:
    return carrier.poset if isinstance(carrier, OrderedMagma) else carrier


class MonotoneMap:
    """A self-map of a finite carrier, stored as a dense table.

    Equality and ordering are pointwise on tables; instances are immutable and
    hashable so nucleus lattices can be built on top of them.
    """

    kind = "finite"

    def __init__(self, carrier, table: Sequence[int]):
        p = poset_of(carrier)
        if len(table) != p.n:
            raise StructureError("map table length does not match carrier")
        p.check_ids(table)
        self.carrier = carrier
        self.table = tuple(table)

    @classmethod
    def identity(cls, carrier) -> "MonotoneMap":
        return cls(carrier, tuple(range(poset_of(carrier).n)))

    @classmethod
    def top_map(cls, carrier) -> "MonotoneMap":
        p = poset_of(carrier)
        if p.top is None:
            raise HypothesisNotMet("top map needs a bounded-above carrier")
        return cls(carrier, tuple(p.top for _ in range(p.n)))

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
        up = self.poset.up
        return all(up[a] >> b & 1 for a, b in zip(self.table, other.table))

    def __repr__(self):
        return f"MonotoneMap{self.table}"

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        return MonotoneMap(self.carrier, tuple(self.table[x] for x in inner.table))

    def image_mask(self) -> int:
        out = 0
        for t in self.table:
            out |= 1 << t
        return out

    def image(self) -> list:
        return sorted(set(self.table))

    def fixed_mask(self) -> int:
        out = 0
        for x, t in enumerate(self.table):
            if x == t:
                out |= 1 << x
        return out

    @property
    def is_expansive(self) -> bool:
        up = self.poset.up
        return all(up[x] >> tx & 1 for x, tx in enumerate(self.table))

    @property
    def is_order_preserving(self) -> bool:
        up, t = self.poset.up, self.table
        return all(up[tx] >> t[y] & 1 for x, tx in enumerate(t) for y in bits(up[x]))

    @property
    def is_idempotent(self) -> bool:
        return all(self.table[t] == t for t in self.table)

    @property
    def is_preclosure(self) -> bool:
        return self.is_expansive and self.is_order_preserving


def is_closure(s: MonotoneMap) -> bool:
    """Expansive + order-preserving + idempotent, cross-checked against the
    single axiom: x <= y* iff x* <= y* for all x, y.  Decided once per poset
    object and table."""
    return _on_carrier(s.poset, ("closure", s.table), _decide_closure, s)


def _decide_closure(p: FinitePoset, s: MonotoneMap) -> bool:
    three_part = s.is_expansive and s.is_order_preserving and s.is_idempotent
    single = _closure_single_axiom(p, s.table)
    if three_part != single:
        raise InternalCheckError(
            f"closure characterizations disagree on {_label(s.carrier)} at {s.table}: "
            f"three-part {three_part}, single axiom {single}"
        )
    return three_part


def _closure_single_axiom(p: FinitePoset, t: Sequence[int]) -> bool:
    """x <= y* iff x* <= y*, for every y at once: {y : x <= y*} == {y : x* <= y*}."""
    pre = _preimages(p, t)
    return all(pre[x] == pre[tx] for x, tx in enumerate(t))


def _preimages(p: FinitePoset, t: Sequence[int]) -> list:
    """pre[u] = {z : u <= t[z]} as a mask, for every element u.

    One nucleus decision reads the masks of its table twice, in the closure
    single axiom and in the unital forms, so the last masks built stay on the
    poset; callers only read them.
    """
    last = p.__dict__.get("_last_preimages")
    if last is not None and last[0] == t:
        return last[1]
    pre = [0] * p.n
    for z, tz in enumerate(t):
        for u in bits(p.down[tz]):
            pre[u] |= 1 << z
    p._last_preimages = (t, pre)
    return pre


def _mult_compat(m: OrderedMagma, s: MonotoneMap) -> bool:
    """x* y* <= (xy)* for all x, y."""
    up, mul, t = m.poset.up, m.mul, s.table
    return all(
        up[mul[tx][ty]] >> t[xy] & 1
        for x, tx in enumerate(t)
        for xy, ty in zip(mul[x], t)
    )


def _nucleus_conditions(m: OrderedMagma, s: MonotoneMap) -> Tuple[bool, bool, bool]:
    """The three equivalent conditions, each including the closure premise."""
    mul, t = m.mul, s.table
    closed = is_closure(s)
    c1 = closed and _mult_compat(m, s)
    # (x* y*)* == (xy)*, one row of y at a time.
    c2 = closed and all(
        [t[mul[tx][ty]] for ty in t] == [t[xy] for xy in mul[x]]
        for x, tx in enumerate(t)
    )
    c3 = closed and _one_sided_compat(m, t)
    return c1, c2, c3


def _one_sided_compat(m: OrderedMagma, t: Sequence[int]) -> bool:
    """x y* <= (xy)* and x* y <= (xy)* for all x, y."""
    up, mul = m.poset.up, m.mul
    return all(
        up[mul[x][ty]] >> t[xy] & 1 and up[mul[tx][y]] >> t[xy] & 1
        for x, tx in enumerate(t)
        for y, (ty, xy) in enumerate(zip(t, mul[x]))
    )


def _unital_selfmap_conditions(m: OrderedMagma, s: MonotoneMap) -> Tuple[bool, bool]:
    """The two single-axiom forms valid for arbitrary self-maps of unital carriers.

    Each quantifies over z through pre[u] = {z : u <= z*}: form 2 says
    pre[xy] == pre[x y*] == pre[x* y] and form 3 says x <= x* and
    pre[xy] <= pre[x* y*], for all x, y.
    """
    t = s.table
    pre = _preimages(m.poset, t)
    # prod[x][y] = pre[xy]
    prod = [list(map(pre.__getitem__, row)) for row in m.mul]
    cond2 = all(
        prod[x] == prod[tx] == list(map(prod[x].__getitem__, t)) for x, tx in enumerate(t)
    )
    cond3 = all(pre[x] >> x & 1 for x in range(m.n)) and all(
        not below & ~prod[tx][ty]
        for x, tx in enumerate(t)
        for below, ty in zip(prod[x], t)
    )
    return cond2, cond3


def is_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    """Closure with x*y* <= (xy)*, all equivalent characterizations compared.
    Decided once per carrier object and table."""
    return _on_carrier(m, ("nucleus", s.table), _decide_nucleus, s)


def _decide_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    c1, c2, c3 = _nucleus_conditions(m, s)
    if not (c1 == c2 == c3):
        raise InternalCheckError(
            f"nucleus characterizations disagree on {_label(m)} at {s.table}: {(c1, c2, c3)}"
        )
    if m.unit is not None or _on_carrier(m, ("one_sided_unital",), _one_sided_unital):
        u2, u3 = _unital_selfmap_conditions(m, s)
        if not (c1 == u2 == u3):
            raise InternalCheckError(
                f"unital single-axiom nucleus forms disagree on {_label(m)} at {s.table}: "
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


def _label(carrier) -> str:
    return getattr(carrier, "name", "") or repr(carrier)


def _one_sided_unital(m: OrderedMagma) -> bool:
    n = m.n
    return any(all(m.op(u, x) == x for x in range(n)) for u in range(n)) or any(
        all(m.op(x, u) == x for x in range(n)) for u in range(n)
    )


def is_strict_nucleus(m: OrderedMagma, s: MonotoneMap) -> bool:
    t = s.table
    return is_nucleus(m, s) and all(
        m.op(t[x], t[y]) == t[m.op(x, y)] for x in range(m.n) for y in range(m.n)
    )


def transportable_mask(m: OrderedMagma, s: MonotoneMap) -> int:
    """T*(M): elements a with (ax)* = a x* and (xa)* = x* a for all x."""
    t = s.table
    out = 0
    for a in range(m.n):
        if all(
            t[m.op(a, x)] == m.op(a, t[x]) and t[m.op(x, a)] == m.op(t[x], a)
            for x in range(m.n)
        ):
            out |= 1 << a
    return out


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
    table = list(s.table)
    for _ in range(p.n + 1):
        new = [s.table[x] for x in table]
        if new == table:
            break
        table = new
    else:
        raise InternalCheckError("preclosure iteration failed to stabilize")
    star = MonotoneMap(s.carrier, table)
    if not is_closure(star):
        raise HypothesisNotMet(
            "preclosure is not bounded above by a closure operation on this carrier"
        )
    fix = s.fixed_mask()
    for x in range(p.n):
        fiber = fix & p.up[x]
        least = p.least_of(fiber)
        if least is None or least != table[x]:
            raise InternalCheckError("fixpoint iteration disagrees with infimum formula")
    if isinstance(s.carrier, OrderedMagma):
        m = s.carrier
        if m.profile.near_residuated:
            if _one_sided_compat(m, s.table) and not is_nucleus(m, star):
                raise InternalCheckError("multiplicative preclosure hull failed nucleus check")
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
    table = []
    for x in range(m.n):
        fiber = p.mask_of([s.table[x] for s in maps])
        v = p.inf_mask(fiber)
        if v is None:
            raise HypothesisNotMet(f"missing infimum for the fibers over element {x}")
        table.append(v)
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise InternalCheckError("pointwise meet of nuclei is not a nucleus")
    union_images = 0
    for s in maps:
        union_images |= s.image_mask()
    if union_images & ~out.image_mask():
        raise InternalCheckError("meet image does not contain the union of images")
    return out


def nuclei_join(
    m: OrderedMagma,
    gamma: Iterable[MonotoneMap],
    bound: Optional[MonotoneMap] = None,
) -> MonotoneMap:
    """Join as closure of the common fixed points.

    Guaranteed to be a nucleus when m is a near prequantale, or when m is
    bounded complete and near residuated with the family bounded above (a
    top map suffices; otherwise a witnessing coarser nucleus must be passed
    as `bound`); outside those hypotheses the operation refuses.
    """
    maps = list(gamma)
    p = m.poset
    prof = m.profile
    if not prof.near_prequantale:
        if not (prof.bounded_complete and prof.near_residuated):
            raise HypothesisNotMet(
                "join of nuclei needs a near prequantale, or a bounded-complete "
                "near-residuated carrier with the family bounded above"
            )
        if p.top is None:
            if bound is None or not is_nucleus(m, bound) or not all(s <= bound for s in maps):
                raise HypothesisNotMet(
                    "family not witnessed bounded above in N(M); pass a coarser "
                    "nucleus as the bound"
                )
    for s in maps:
        if not is_nucleus(m, s):
            raise HypothesisNotMet("nuclei_join requires nuclei")
    common = p.universe
    for s in maps:
        common &= s.fixed_mask()
    table = []
    for x in range(m.n):
        least = p.least_of(common & p.up[x])
        if least is None:
            raise InternalCheckError("common fixed points fail the closure-system property")
        table.append(least)
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise InternalCheckError("join of nuclei is not a nucleus")
    if out.image_mask() != common:
        raise InternalCheckError("join image is not the intersection of images")
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
        raise CarrierTooLarge(f"closure enumeration capped at {ENUMERATION_CAP} elements")
    required = 0
    for mx in p.maximal_elements():
        required |= 1 << mx
    out = []
    up = p.up
    for c in range(1 << p.n):
        if (c & required) != required:
            continue
        table = []
        for x in range(p.n):
            fiber = c & up[x]
            if not fiber:
                break
            least = p.least_of(fiber)
            if least is None:
                break
            table.append(least)
        else:
            out.append(MonotoneMap(carrier, tuple(table)))
    out.sort(key=lambda s: s.table)
    return tuple(out)


def enumerate_closures_bruteforce(carrier) -> List[MonotoneMap]:
    """Independent oracle: filter all self-maps.  Exponential, tiny carriers only."""
    p = poset_of(carrier)
    if p.n ** p.n > 5_000_000:
        raise CarrierTooLarge("brute-force closure enumeration is n**n")
    out = []
    for table in product(range(p.n), repeat=p.n):
        s = MonotoneMap(carrier, table)
        if s.is_expansive and s.is_order_preserving and s.is_idempotent:
            out.append(s)
    out.sort(key=lambda s: s.table)
    return out


def enumerate_nuclei(m: OrderedMagma) -> List[MonotoneMap]:
    """All nuclei on m, computed once per carrier; every call returns a fresh list.

    Both routes filter the one closure enumeration.  On bounded-complete
    near-residuated carriers the image-set criterion (meet-closed,
    residual-stable images) must select exactly the closures that pass
    is_nucleus; otherwise only the is_nucleus filter runs.
    """
    return list(_on_carrier(m, ("nuclei",), _nuclei_two_routes))


def _nuclei_two_routes(m: OrderedMagma) -> Tuple[MonotoneMap, ...]:
    closures = enumerate_closures(m)
    filtered = [s for s in closures if is_nucleus(m, s)]
    prof = m.profile
    if prof.bounded_complete and prof.near_residuated:
        by_images = {s.table for s in _nuclei_by_image_sets(m, closures)}
        by_filter = {s.table for s in filtered}
        if by_images != by_filter:
            raise InternalCheckError(
                f"image-set and filter nucleus enumerations disagree on {_label(m)}: "
                f"image-set only {sorted(by_images - by_filter)}, "
                f"filter only {sorted(by_filter - by_images)}"
            )
    return tuple(filtered)


def _nuclei_by_image_sets(m: OrderedMagma, closures: List[MonotoneMap]) -> List[MonotoneMap]:
    p = m.poset
    return [
        s for s in closures if _meet_closed(p, s.image_mask()) and _residual_stable(m, s.image_mask())
    ]


def _meet_closed(p: FinitePoset, c: int) -> bool:
    elems = list(bits(c))
    for i, a in enumerate(elems):
        for b in elems[i:]:
            if p.down[a] & p.down[b]:
                w = p.meet(a, b)
                if w is None or not ((c >> w) & 1):
                    return False
    return True


def _residual_stable(m: OrderedMagma, c: int) -> bool:
    at = m.residuals.at
    for x in bits(c):
        for r in at[x]:
            for side in (r.left, r.right):
                if side is not None and not ((c >> side) & 1):
                    return False
    return True


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
        v = p.least_of(ub)
        if v is not None and not p.is_least(t[v], image_ub):
            raise InternalCheckError("corestriction of the nucleus is not sup-preserving")


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
            raise InternalCheckError(f"quotient failed to inherit {flag}")
    for flag in ("quantale", "near_quantale", "multiplicative_lattice", "near_multiplicative_lattice"):
        if getattr(pm, flag) and not getattr(pq, flag):
            raise InternalCheckError(f"quotient failed to inherit {flag}")


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
                raise InternalCheckError("quotient residual formula failed")


def nucleus_of_morphism(f: MagmaMorphism) -> MonotoneMap:
    """The unique nucleus splitting a near-sup-preserving surjection-onto-image."""
    src = f.source
    if not (f.is_order_preserving() and f.is_magma_hom() and f.preserves_sups(True)):
        raise HypothesisNotMet("nucleus_of_morphism needs a near-sup-preserving magma hom")
    if not src.profile.near_prequantale:
        raise HypothesisNotMet("nucleus_of_morphism needs a near prequantale source")
    p = src.poset
    table = []
    for x in range(src.n):
        fiber = p.mask_of([y for y in range(src.n) if f.table[y] == f.table[x]])
        v = p.sup_mask(fiber)
        if v is None:
            raise InternalCheckError("fiber supremum missing on a near prequantale")
        table.append(v)
    s = MonotoneMap(src, table)
    if not is_nucleus(src, s):
        raise InternalCheckError("morphism-induced map failed the nucleus check")
    for x in range(src.n):
        if f.table[s.table[x]] != f.table[x]:
            raise InternalCheckError("morphism does not factor through its nucleus")
    members = sorted(set(s.table))
    if len(set(f.table[x] for x in members)) != len(members):
        raise InternalCheckError("morphism restricted to the image is not injective")
    _assert_image_iso(f, s, members)
    return s


def _assert_image_iso(f: MagmaMorphism, s: MonotoneMap, members):
    """Q* with star-multiplication is isomorphic to im f inside the target."""
    src, tgt = f.source, f.target
    for x in members:
        for y in members:
            star_prod = s.table[src.op(x, y)]
            if f.table[star_prod] != tgt.op(f.table[x], f.table[y]):
                raise InternalCheckError("image of nucleus not isomorphic to morphism image")
    for x in members:
        for y in members:
            if src.leq(x, y) != tgt.leq(f.table[x], f.table[y]):
                raise InternalCheckError("image correspondence is not an order isomorphism")


# -- induced nuclei ---------------------------------------------------------------


@dataclass(frozen=True)
class Submagma:
    parent: OrderedMagma
    members: tuple
    magma: OrderedMagma
    to_parent: tuple
    to_sub: dict

    @classmethod
    def of(cls, parent: OrderedMagma, members: Iterable[int]) -> "Submagma":
        mem = tuple(sorted(set(members)))
        parent.poset.check_ids(mem)
        mmask = 0
        for x in mem:
            mmask |= 1 << x
        if parent.submagma_closure(mmask) != mmask:
            raise StructureError("subset is not closed under multiplication")
        index = {x: i for i, x in enumerate(mem)}
        sub = parent.poset.restrict(mem)
        mul = [[index[parent.op(x, y)] for y in mem] for x in mem]
        return cls(parent, mem, OrderedMagma(sub, mul), mem, index)


def induced_lower(m: OrderedMagma, n_sub: Submagma, s: MonotoneMap) -> MonotoneMap:
    """Finest nucleus on m restricting to the nucleus s on a sup-spanning submagma."""
    if not m.profile.near_prequantale:
        raise HypothesisNotMet("induced_lower needs a near prequantale")
    if not is_sup_spanning(m, n_sub.members):
        raise HypothesisNotMet("submagma is not sup-spanning")
    if not is_nucleus(n_sub.magma, s):
        raise HypothesisNotMet("induced_lower requires a nucleus on the submagma")
    p = m.poset
    star_on_parent = {x: n_sub.to_parent[s.table[n_sub.to_sub[x]]] for x in n_sub.members}
    good = 0
    for y in range(m.n):
        if all(p.leq(star_on_parent[z], y) for z in n_sub.members if p.leq(z, y)):
            good |= 1 << y
    table = []
    for x in range(m.n):
        v = p.least_of(good & p.up[x])
        if v is None:
            raise InternalCheckError("induced-nucleus fiber has no least element")
        table.append(v)
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise InternalCheckError("induced lower map failed the nucleus check")
    for z in n_sub.members:
        if out.table[z] != star_on_parent[z]:
            raise InternalCheckError("induced lower nucleus does not restrict to the input")
    return out


def induced_upper(m: OrderedMagma, n_sub: Submagma, s: MonotoneMap) -> MonotoneMap:
    """Coarsest nucleus restricting to s on a saturated downward-closed submagma."""
    p = m.poset
    mmask = 0
    for x in n_sub.members:
        mmask |= 1 << x
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
            table.append(n_sub.to_parent[s.table[n_sub.to_sub[x]]])
        else:
            table.append(top)
    out = MonotoneMap(m, table)
    if not is_nucleus(m, out):
        raise InternalCheckError("induced upper map failed the nucleus check")
    return out


# -- R(M), the Galois connection, and 1[x] ---------------------------------------


def r_set_mask(m: OrderedMagma) -> int:
    if m.unit is None:
        raise NoUnit("R(M) needs a unit")
    out = 0
    for x in range(m.n):
        if m.op(x, x) == x and m.leq(m.unit, x):
            out |= 1 << x
    return out


def d_map(m: OrderedMagma, a: int) -> MonotoneMap:
    """The strict nucleus x -> x*a for idempotent a >= 1 on an ordered commutative monoid."""
    prof = m.profile
    if not (prof.commutative and prof.associative and prof.unital):
        raise HypothesisNotMet("d_map needs an ordered commutative monoid")
    if not ((r_set_mask(m) >> a) & 1):
        raise HypothesisNotMet("d_map needs an idempotent element above the unit")
    s = MonotoneMap(m, tuple(m.op(x, a) for x in range(m.n)))
    if not is_strict_nucleus(m, s):
        raise InternalCheckError("translation by an idempotent above 1 must be a strict nucleus")
    return s


def unit_part(m: OrderedMagma, s: MonotoneMap) -> int:
    """1* for a nucleus s; always lands in R(M)."""
    if m.unit is None:
        raise NoUnit("unit_part needs a unital carrier")
    if not is_nucleus(m, s):
        raise HypothesisNotMet("unit_part requires a nucleus")
    v = s.table[m.unit]
    if not ((r_set_mask(m) >> v) & 1):
        raise InternalCheckError("1* left R(M)")
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
    v = p.sup(powers)
    if v is None:
        raise InternalCheckError("power supremum missing on a near-sup-complete carrier")
    rmask = r_set_mask(q)
    fiber = rmask & p.up[x]
    if p.least_of(fiber) != v:
        raise InternalCheckError("1[x] is not the least idempotent above the unit and x")
    return v


def one_bracket_map(q: OrderedMagma) -> MonotoneMap:
    s = MonotoneMap(q, tuple(one_bracket(q, x) for x in range(q.n)))
    if not is_closure(s):
        raise InternalCheckError("1[-] failed the closure check")
    if s.image_mask() != r_set_mask(q):
        raise InternalCheckError("image of 1[-] is not R(Q)")
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
    p = m.poset
    lat = FinitePoset.from_up_masks(pointwise_order(p, maps), [f"n{i}" for i in range(k)])
    mul = lat.join_table
    if any(None in row for row in mul):
        # Guaranteed to exist when m is near sup-complete; refuse otherwise.
        raise HypothesisNotMet("N(M) is not a join semilattice for this carrier")
    magma = OrderedMagma(lat, mul, name=f"N({m.name})" if m.name else "N(M)")
    # The lattice join must agree with the common-fixed-point join formula;
    # both tables are symmetric, so each unordered pair is compared once.
    if join_formula_applies(m):
        joins = nuclei_join_table(m)
        for i in range(k):
            for j in range(i, k):
                if joins[i][j] != mul[i][j]:
                    raise InternalCheckError(
                        f"N(M) join table disagrees with the join formula on {_label(m)}: "
                        f"{maps[i].table} v {maps[j].table} is {maps[joins[i][j]].table} by "
                        f"the formula, {maps[mul[i][j]].table} by the table"
                    )
    return NucleusLattice(m, maps, magma)


def join_formula_applies(m: OrderedMagma) -> bool:
    """Whether nuclei_join answers for every pair of nuclei without a bound: on
    a near prequantale, or a bounded-complete near-residuated carrier with a top."""
    prof = m.profile
    return prof.near_prequantale or (
        prof.bounded_complete and prof.near_residuated and m.poset.top is not None
    )


def nuclei_join_table(m: OrderedMagma) -> list:
    """joins[i][j] is the position in enumerate_nuclei(m) of the join of nuclei
    i and j, by the join formula (nuclei_join) run once per unordered pair;
    built once per carrier object, and read, never changed, by its callers."""
    return _on_carrier(m, ("joins",), _build_join_table)


def _build_join_table(m: OrderedMagma) -> list:
    maps = enumerate_nuclei(m)
    index = {s.table: i for i, s in enumerate(maps)}
    joins = [[0] * len(maps) for _ in maps]
    for i, s in enumerate(maps):
        for j in range(i, len(maps)):
            joined = nuclei_join(m, [s, maps[j]]).table
            if joined not in index:
                raise InternalCheckError(
                    f"join of nuclei on {_label(m)} is not an enumerated nucleus: "
                    f"{s.table} v {maps[j].table} is {joined}"
                )
            joins[i][j] = joins[j][i] = index[joined]
    return joins


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
    """N(M), N(N(M)), ... with the structure theorems asserted at each level."""
    if depth < 1:
        raise StructureError(f"tower depth must be at least 1, got {depth}")
    if not m.profile.near_sup_magma:
        raise HypothesisNotMet("the nucleus tower needs a near sup-magma")
    levels = []
    current = m
    for _ in range(depth):
        if current.n > ENUMERATION_CAP:
            raise CarrierTooLarge("tower level exceeds the enumeration cap")
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
        raise InternalCheckError("N(M) is not a near multiplicative lattice under join")
    rmask = r_set_mask(nm)
    if rmask != nm.poset.universe:
        raise InternalCheckError("N(M) != R(N(M))")


def _d_embedding_is_iso(lower: NucleusLattice, upper: NucleusLattice) -> bool:
    """d_-: N^n -> N^(n+1), a ->  (x -> x v a); iso exactly when surjective."""
    nm = lower.magma
    p = nm.poset
    images = []
    for a in range(nm.n):
        table = tuple(p.join(x, a) for x in range(nm.n))
        images.append(table)
    upper_tables = {s.table for s in upper.maps}
    for t in images:
        if t not in upper_tables:
            raise InternalCheckError("d_a is not a nucleus on the next tower level")
    if len(set(images)) != nm.n:
        raise InternalCheckError("d_- embedding is not injective")
    return len(upper.maps) == nm.n


# -- composition joins -------------------------------------------------------------


@dataclass(frozen=True)
class CompositionJoinVerdict:
    certified: bool
    n: Optional[int]
    composition: Optional[MonotoneMap]
    matches_join: Optional[bool]


def composition_join_check(
    m: OrderedMagma, s1: MonotoneMap, s2: MonotoneMap, bound: int = 8
) -> CompositionJoinVerdict:
    """Certify s1 v s2 as an n-fold alternating composition when one order of
    alternation is coarser than the other; bound exhaustion is not a refutation."""
    found = certified_composition(m, s1, s2, bound)
    if found is None:
        return CompositionJoinVerdict(False, None, None, None)
    n, cand = found
    try:
        matches = nuclei_join(m, [s1, s2]).table == cand.table
    except HypothesisNotMet:
        matches = None
    if matches is False:
        raise InternalCheckError("certified composition disagrees with the join")
    return CompositionJoinVerdict(True, n, cand, matches)


def certified_composition(
    m: OrderedMagma, s1: MonotoneMap, s2: MonotoneMap, bound: int
) -> Optional[Tuple[int, MonotoneMap]]:
    """The least n <= bound at which one order of the n-fold alternating
    composition of s1 and s2 is coarser than the other, with that composition
    (a nucleus); None when the bound runs out."""
    for s in (s1, s2):
        if not is_nucleus(m, s):
            raise HypothesisNotMet("composition_join_check requires nuclei")

    def alternating(first: MonotoneMap, second: MonotoneMap, n: int) -> MonotoneMap:
        # n-fold composition applying `first` first: ... o second o first
        out = MonotoneMap.identity(m)
        for i in range(n):
            out = (first if i % 2 == 0 else second).compose(out)
        return out

    for n in range(1, bound + 1):
        a = alternating(s2, s1, n)   # ... o s2 o s1 o s2 reading right to left
        b = alternating(s1, s2, n)
        cand = None
        if b <= a:
            cand = a
        elif a <= b:
            cand = b
        if cand is not None:
            if not is_nucleus(m, cand):
                raise InternalCheckError("certified composition is not a nucleus")
            return n, cand
    return None
