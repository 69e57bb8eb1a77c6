"""Ideal completion with down-multiplication and the compact-part functor,
checked as explicit round-trip isomorphisms."""

from __future__ import annotations

from itertools import compress
from operator import eq, or_
from typing import List, NamedTuple

from .errors import HypothesisNotMet, NotAMorphism
from .magma import MagmaMorphism, OrderedMagma
from .nucleus import MonotoneMap, per_carrier
from .poset import EXHAUSTIVE_CAP, FinitePoset, bits, broken, id_mask, subset_masks, subset_table


def down_closure_mask(p: FinitePoset, xmask: int) -> int:
    """Smallest ideal (directed downset) containing xmask in a join semilattice.
    On a finite carrier every ideal is principal, so this is the down-set of
    the sup of xmask (of the least element when xmask is empty)."""
    if not p.flags.join_semilattice:
        raise HypothesisNotMet("down closure needs a join semilattice")
    s = p.sup_mask(xmask)
    if s is None:
        raise HypothesisNotMet("empty input needs a least element")
    return p.down[s]


def down_closure(m_or_p, xs) -> list:
    """Element list of the smallest ideal containing xs; minimality asserted
    against a scan of all ideals."""
    p = m_or_p.poset if isinstance(m_or_p, OrderedMagma) else m_or_p
    xmask = p.mask_of(xs)
    mask = down_closure_mask(p, xmask)
    if p.n <= EXHAUSTIVE_CAP:
        containing = [i for i in _ideal_masks(p) if not (xmask & ~i)]
        if mask not in containing or any(mask & ~i for i in containing):
            raise broken(m_or_p, "down closure is not the smallest containing ideal")
    return list(bits(mask))


def _ideal_masks(p: FinitePoset) -> List[int]:
    """All ideals, ascending: nonempty, downward closed, directed.  The
    down-closure table dc[X | 1<<x] = dc[X] | down[x] of subset_table has
    the down-sets as its fixed points, and only they take the directedness
    test."""
    n, downsets = p.n, []
    for masks, closures in zip(subset_masks(n), subset_table(n, 0, p.down, or_)):
        downsets += compress(masks, map(eq, masks, closures))
    return sorted(filter(p.is_directed_mask, downsets))


class IdealCompletion(NamedTuple):
    source: OrderedMagma
    ideal_masks: tuple        # member bitsets, one per ideal, in mask order
    magma: OrderedMagma       # ideals under inclusion with down-multiplication
    principal: tuple          # source element -> ideal index of its principal ideal


@per_carrier
def idl(m: OrderedMagma) -> IdealCompletion:
    """The ideal completion of a multiplicative (or prequantic) semilattice,
    built once per carrier object."""
    prof = m.profile
    if not prof.multiplicative_semilattice:
        raise HypothesisNotMet("ideal completion needs a multiplicative semilattice")
    p = m.poset
    # A finite directed set has a greatest element, so the ideals are the
    # principal down-sets; the definitional scan re-derives them on small carriers.
    masks = tuple(sorted(p.down))
    if p.n <= EXHAUSTIVE_CAP and _ideal_masks(p) != list(masks):
        raise broken(m, "the ideals are not the principal down-sets")
    index = {mask: i for i, mask in enumerate(masks)}
    leq_rows = [[(a & ~b) == 0 for b in masks] for a in masks]
    labels = ["{" + ",".join(p.labels[x] for x in bits(a)) + "}" for a in masks]
    lat = FinitePoset(leq_rows, labels)
    mul = [[index[down_closure_mask(p, m.complex_mul_mask(a, b))] for b in masks] for a in masks]
    magma = OrderedMagma(lat, mul, name=f"Idl({m.name})" if m.name else "Idl")
    qprof = magma.profile
    if not (qprof.near_prequantale and qprof.precoherent):
        raise broken(m, "ideal completion is not a precoherent near prequantale")
    if prof.prequantic_semilattice and not qprof.prequantale:
        raise broken(m, "ideal completion of a prequantic semilattice must be a prequantale")
    principal = tuple(index[p.down[x]] for x in range(p.n))
    return IdealCompletion(m, masks, magma, principal)


def k_functor(q: OrderedMagma) -> OrderedMagma:
    """The sub-ordered-magma of compact elements; on a finite carrier, q itself."""
    if not q.profile.precoherent:
        raise HypothesisNotMet("the compact-part functor needs a precoherent carrier")
    out = OrderedMagma(q.poset, q.mul, name=f"K({q.name})" if q.name else "K")
    if not out.profile.multiplicative_semilattice:
        raise broken(q, "compact part is not a multiplicative semilattice")
    return out


class RoundTripReport(NamedTuple):
    to_completion: dict    # source element -> ideal index, an ordered-magma iso
    from_completion: dict  # ideal index -> source element (sup), the inverse iso


def roundtrip_checks(m: OrderedMagma) -> RoundTripReport:
    """Verify M ~ K(Idl(M)) via principal ideals and Q ~ Idl(K(Q)) via suprema:
    both maps preserve order and multiplication, and both composites are the
    identity, so they are mutually inverse ordered-magma isomorphisms."""
    comp = idl(m)
    q = comp.magma
    sups = [m.poset.sup_mask(mask) for mask in comp.ideal_masks]
    if None in sups:
        raise broken(m, "an ideal of a finite semilattice lost its supremum")
    fwd = MagmaMorphism(m, q, comp.principal)
    bwd = MagmaMorphism(q, m, sups)
    for f, what in ((fwd, "principal-ideal map"), (bwd, "supremum map")):
        if not f.is_order_preserving():
            raise broken(m, f"{what} is not order preserving")
        if not f.is_magma_hom():
            raise broken(m, f"{what} is not a magma homomorphism")
    if bwd.compose(fwd).table != bytes(range(m.n)) or fwd.compose(bwd).table != bytes(range(q.n)):
        raise broken(m, "round trip is not the identity")
    return RoundTripReport(dict(enumerate(fwd.table)), dict(enumerate(bwd.table)))


def down_map_on_powerset(m: OrderedMagma):
    """The down operator as a map on the nonempty-subsets carrier of m, for the
    nucleus-predicate checks; returns (powerset magma, MonotoneMap)."""
    from .instances import powerset_of_magma_elements

    power = powerset_of_magma_elements(m, drop_empty=True)
    table = [power.mask_index[down_closure_mask(m.poset, mask)] for mask in power.element_masks]
    return power.magma, MonotoneMap(power.magma, table)


def verify_morphism_ms(g: MagmaMorphism):
    """Morphism of multiplicative semilattices: magma hom preserving finite
    nonempty sups.  On finite carriers, where every element is compact, this
    is also the morphism condition of precoherent near prequantales."""
    if not (g.is_order_preserving() and g.is_magma_hom() and g.preserves_sups()):
        raise NotAMorphism("not a morphism of multiplicative semilattices")


def idl_of_morphism(g: MagmaMorphism) -> MagmaMorphism:
    """Idl(g): I -> down-closure of g(I), verified functorial on its categories."""
    verify_morphism_ms(g)
    src = idl(g.source)
    tgt = idl(g.target)
    tgt_index = {mask: i for i, mask in enumerate(tgt.ideal_masks)}
    table = []
    for mask in src.ideal_masks:
        image = id_mask(g.table[x] for x in bits(mask))
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
