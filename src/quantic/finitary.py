"""Compactness-aware machinery: the finitary predicate and the largest
finitary companion of a nucleus on a precoherent carrier."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Union

from .errors import (
    HypothesisNotMet,
    InternalCheckError,
    IterationBudgetExceeded,
    UndecidableFamily,
)
from .lazy import SAMPLE_SIZE, LazyCarrier, RuleMap, map_family_sup
from .magma import OrderedMagma
from .nucleus import MonotoneMap, _nuclei_of, quotient
from .poset import bits, broken, id_mask


@dataclass(frozen=True)
class FinitaryReport:
    is_finitary: bool
    witness: Optional[object]  # a directed family breaking the equality, if found
    note: str
    exhaustive: bool           # False when only declared family schemas were searched


def is_finitary(s: Union[MonotoneMap, RuleMap]) -> FinitaryReport:
    """Does s commute with suprema of directed families?

    Finite carriers: always, since finite directed sets have maxima.  Lazy
    carriers: searched over the declared family schemas only; a clean sweep is
    reported as "no violation found", not as a proof.
    """
    if isinstance(s, MonotoneMap):
        return FinitaryReport(
            True, None, "finite carrier: directed sets have maxima", True
        )
    carrier: LazyCarrier = s.carrier
    for family in carrier.directed_family_samples():
        limit = carrier.sup(family)
        lhs = s(limit)
        try:
            rhs = map_family_sup(carrier, s, family)
        except (UndecidableFamily, IterationBudgetExceeded):
            continue
        if lhs != rhs:
            return FinitaryReport(
                False, family, "violating directed family found", False
            )
    return FinitaryReport(
        True, None, "no violation found on the declared family schemas", False
    )


def star_f(q, s):
    """The largest finitary nucleus below s on a precoherent semiprequantale.

    x -> sup of { y* : y compact, y <= x }.  On finite carriers every element
    is compact so the companion is s itself; the formula is still evaluated
    once as a consistency assertion.  On lazy carriers the companion is
    certified on SAMPLE_SIZE sampled elements.
    """
    if isinstance(q, OrderedMagma):
        return _star_f_finite(q, s)
    return _star_f_lazy(q, s)


def _star_f_finite(q: OrderedMagma, s: MonotoneMap) -> MonotoneMap:
    if not q.profile.precoherent:
        raise HypothesisNotMet("star_f needs a precoherent carrier")
    _nuclei_of(q, [s], "star_f")
    p, t = q.poset, s.table
    for x, tx in enumerate(t):
        if p.sup_mask(id_mask(t[y] for y in bits(p.down[x]))) != tx:
            raise broken(q, f"finitary companion formula broke at {q.label(x)}")
    return s


def _star_f_lazy(carrier: LazyCarrier, s: RuleMap) -> RuleMap:
    if not (
        carrier.declared_profile.get("precoherent")
        and carrier.declared_profile.get("semiprequantale")
    ):
        raise HypothesisNotMet("star_f needs a precoherent semiprequantale")
    if not s.certificate.nucleus_witnessed:
        raise HypothesisNotMet("star_f requires a (witnessed) nucleus rule")

    out = RuleMap(
        carrier, f"{s.name}_f", lambda x: map_family_sup(carrier, s, carrier.compacts_below(x))
    )
    for x in carrier.sample(SAMPLE_SIZE):
        fx = out(x)
        if not carrier.leq(fx, s(x)):
            what = "exceeded the original nucleus"
        elif carrier.is_compact(x) and fx != s(x):
            what = "moved a compact element"
        elif out(fx) != fx:
            what = "not idempotent"
        else:
            continue
        raise InternalCheckError(f"finitary companion {what} at {x!r} on {carrier.name}, nucleus {s.name}")
    return out


@dataclass(frozen=True)
class KLatticeVerdict:
    holds: bool
    detail: str
    exhaustive: bool


def verify_klattice(q, s) -> KLatticeVerdict:
    """Quotient by the finitary companion and check the compact-set identity
    K(Q^(star_f)) = K(Q)^(star_f), plus preservation of the precoherent class."""
    if isinstance(q, OrderedMagma):
        sf = _star_f_finite(q, s)
        quot = quotient(q, sf)
        if not quot.magma.profile.precoherent:
            return KLatticeVerdict(False, "quotient lost precoherence", True)
        image_of_compacts = {sf.table[x] for x in range(q.n)}
        compacts_of_image = set(quot.members)
        ok = image_of_compacts == compacts_of_image
        return KLatticeVerdict(ok, "all elements compact on a finite carrier", True)
    carrier: LazyCarrier = q
    sf = s
    for x in carrier.sample():
        if not carrier.is_compact(x):
            continue
        img = sf(x)
        # Quotient-compactness of img, probed on the declared directed
        # families of fixed points: whenever the family's quotient supremum
        # dominates img, one of its first 48 members must already dominate it.
        for family in carrier.directed_family_samples():
            try:
                sup_img = map_family_sup(carrier, sf, family)
            except UndecidableFamily:
                continue
            if not carrier.leq(img, sup_img):
                continue
            if not any(carrier.leq(img, sf(y)) for y in islice(family.walk(), 48)):
                return KLatticeVerdict(
                    False,
                    f"image of compact {x!r} escapes every member of {family!r}",
                    False,
                )
    return KLatticeVerdict(True, "identity holds on the sampled compacts", False)

