"""Ideal completion with down-multiplication and the compact-part functor,
checked as explicit round-trip isomorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import HypothesisNotMet, InternalCheckError, NotAMorphism
from .magma import MagmaMorphism, OrderedMagma
from .nucleus import MonotoneMap
from .poset import EXHAUSTIVE_CAP, FinitePoset, bits


def down_closure_mask(p: FinitePoset, xmask: int) -> int:
    """Smallest ideal (directed downset) containing xmask in a join semilattice:
    everything under a finite join of members."""
    if not p.flags.join_semilattice:
        raise HypothesisNotMet("down closure needs a join semilattice")
    if not xmask:
        b = p.bottom
        if b is None:
            raise HypothesisNotMet("empty input needs a least element")
        return 1 << b
    closed = xmask
    while True:
        grown = closed
        for x in bits(closed):
            grown |= p.down[x]
            for y in bits(closed):
                grown |= 1 << p.join(x, y)
        if grown == closed:
            break
        closed = grown
    return closed


def down_closure(m_or_p, xs) -> list:
    """Element list of the smallest ideal containing xs; minimality asserted
    against a scan of all ideals."""
    p = m_or_p.poset if isinstance(m_or_p, OrderedMagma) else m_or_p
    xmask = p.mask_of(xs)
    mask = down_closure_mask(p, xmask)
    if p.n <= EXHAUSTIVE_CAP:
        containing = [i for i in _ideal_masks(p) if not (xmask & ~i)]
        if mask not in containing or any(mask & ~i for i in containing):
            raise InternalCheckError("down closure is not the smallest containing ideal")
    return list(bits(mask))


def _ideal_masks(p: FinitePoset) -> List[int]:
    """All ideals: nonempty, downward closed, directed."""
    out = []
    for mask in range(1, 1 << p.n):
        if p.is_downward_closed(mask) and p.is_directed_mask(mask):
            out.append(mask)
    return out


@dataclass(frozen=True)
class IdealCompletion:
    source: OrderedMagma
    ideal_masks: tuple        # member bitsets, one per ideal, in mask order
    magma: OrderedMagma       # ideals under inclusion with down-multiplication
    principal: tuple          # source element -> ideal index of its principal ideal


def idl(m: OrderedMagma) -> IdealCompletion:
    """The ideal completion of a multiplicative (or prequantic) semilattice."""
    prof = m.profile
    if not prof.multiplicative_semilattice:
        raise HypothesisNotMet("ideal completion needs a multiplicative semilattice")
    p = m.poset
    masks = tuple(sorted(_ideal_masks(p)))
    index = {mask: i for i, mask in enumerate(masks)}
    k = len(masks)
    leq_rows = [[(a & ~b) == 0 for b in masks] for a in masks]
    labels = ["{" + ",".join(p.labels[x] for x in bits(a)) + "}" for a in masks]
    lat = FinitePoset(leq_rows, labels)
    mul = []
    for a in masks:
        row = []
        for b in masks:
            prod = m.complex_mul_mask(a, b)
            row.append(index[down_closure_mask(p, prod)])
        mul.append(row)
    magma = OrderedMagma(lat, mul, name=f"Idl({m.name})" if m.name else "Idl")
    qprof = magma.profile
    if not (qprof.near_prequantale and qprof.precoherent):
        raise InternalCheckError("ideal completion is not a precoherent near prequantale")
    if prof.prequantic_semilattice and not qprof.prequantale:
        raise InternalCheckError("ideal completion of a prequantic semilattice must be a prequantale")
    principal = tuple(index[p.down[x]] for x in range(p.n))
    return IdealCompletion(m, masks, magma, principal)


def k_functor(q: OrderedMagma) -> OrderedMagma:
    """The sub-ordered-magma of compact elements; on a finite carrier, q itself."""
    if not q.profile.precoherent:
        raise HypothesisNotMet("the compact-part functor needs a precoherent carrier")
    out = OrderedMagma(q.poset, q.mul, name=f"K({q.name})" if q.name else "K")
    if not out.profile.multiplicative_semilattice:
        raise InternalCheckError("compact part is not a multiplicative semilattice")
    return out


@dataclass(frozen=True)
class RoundTripReport:
    to_completion: dict    # source element -> ideal index, an ordered-magma iso
    from_completion: dict  # ideal index -> source element (sup), the inverse iso


def roundtrip_checks(m: OrderedMagma) -> RoundTripReport:
    """Verify M ~ K(Idl(M)) via principal ideals and Q ~ Idl(K(Q)) via suprema,
    as bijections preserving order and multiplication in both directions."""
    comp = idl(m)
    q = comp.magma
    p = m.poset

    fwd = {x: comp.principal[x] for x in range(m.n)}
    if len(set(fwd.values())) != m.n or len(fwd) != q.n:
        raise InternalCheckError("principal-ideal map is not a bijection onto the ideals")
    for x in range(m.n):
        for y in range(m.n):
            if p.leq(x, y) != q.leq(fwd[x], fwd[y]):
                raise InternalCheckError("principal-ideal map is not an order isomorphism")
            if fwd[m.op(x, y)] != q.op(fwd[x], fwd[y]):
                raise InternalCheckError("principal-ideal map is not a magma homomorphism")

    bwd = {}
    for i, mask in enumerate(comp.ideal_masks):
        s = p.sup_mask(mask)
        if s is None:
            raise InternalCheckError("an ideal of a finite semilattice lost its supremum")
        bwd[i] = s
    if sorted(bwd.values()) != list(range(m.n)):
        raise InternalCheckError("supremum map is not a bijection back to the carrier")
    for i in range(q.n):
        for j in range(q.n):
            if q.leq(i, j) != p.leq(bwd[i], bwd[j]):
                raise InternalCheckError("supremum map is not an order isomorphism")
            if bwd[q.op(i, j)] != m.op(bwd[i], bwd[j]):
                raise InternalCheckError("supremum map is not a magma homomorphism")
    for x in range(m.n):
        if bwd[fwd[x]] != x:
            raise InternalCheckError("round trip is not the identity")
    return RoundTripReport(fwd, bwd)


def down_map_on_powerset(m: OrderedMagma):
    """The down operator as a map on the nonempty-subsets carrier of m, for the
    nucleus-predicate checks; returns (powerset magma, MonotoneMap)."""
    from .instances import powerset_of_magma_elements

    power = powerset_of_magma_elements(m, drop_empty=True)
    p = m.poset
    table = []
    for source_mask in power.element_masks:
        closed = down_closure_mask(p, source_mask)
        table.append(power.mask_index[closed])
    return power.magma, MonotoneMap(power.magma, table)


def verify_morphism_ms(g: MagmaMorphism):
    """Morphism of multiplicative semilattices: magma hom preserving finite
    nonempty sups.  On finite carriers, where every element is compact, this
    is also the morphism condition of precoherent near prequantales."""
    if not (g.is_order_preserving() and g.is_magma_hom() and g.preserves_sups(True)):
        raise NotAMorphism("not a morphism of multiplicative semilattices")


def idl_of_morphism(g: MagmaMorphism) -> MagmaMorphism:
    """Idl(g): I -> down-closure of g(I), verified functorial on its categories."""
    verify_morphism_ms(g)
    src = idl(g.source)
    tgt = idl(g.target)
    tgt_index = {mask: i for i, mask in enumerate(tgt.ideal_masks)}
    table = []
    for mask in src.ideal_masks:
        image = 0
        for x in bits(mask):
            image |= 1 << g.table[x]
        table.append(tgt_index[down_closure_mask(g.target.poset, image)])
    out = MagmaMorphism(src.magma, tgt.magma, table)
    verify_morphism_ms(out)
    return out


def k_of_morphism(f: MagmaMorphism) -> MagmaMorphism:
    """K(f): the same table restricted to compacts; identity on finite carriers."""
    verify_morphism_ms(f)
    out = MagmaMorphism(k_functor(f.source), k_functor(f.target), f.table)
    verify_morphism_ms(out)
    return out
