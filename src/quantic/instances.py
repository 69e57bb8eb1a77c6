"""The concrete worlds: power-set prequantales, module systems on finite
abelian groups, weak ideal systems on finite commutative monoids, ring ideal
lattices and chain examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .errors import CarrierTooLarge, HypothesisNotMet
from .magma import OrderedMagma, adjoin_annihilator
from .nucleus import MonotoneMap, is_closure, is_nucleus, transportable_mask
from .poset import FinitePoset, bits, broken, carrier_label

POWERSET_BASE_CAP = 5
SYSTEM_BASE_CAP = 4


def plain_magma(labels: Sequence[str], table: Sequence[Sequence[int]]) -> OrderedMagma:
    """A plain finite magma: an ordered magma on the antichain, whose profile
    derives associativity, commutativity and the unit from the table."""
    return OrderedMagma(FinitePoset.antichain(len(labels), labels), table)


def is_group(g: OrderedMagma) -> bool:
    """Associative and unital, with every element invertible on the right."""
    return g.unit is not None and all(g.unit in row for row in g.mul) and g.profile.associative


def cyclic_group(n: int) -> OrderedMagma:
    return plain_magma(
        [f"g{i}" if i else "1" for i in range(n)], [[(i + j) % n for j in range(n)] for i in range(n)]
    )


def klein_four() -> OrderedMagma:
    return plain_magma(["1", "a", "b", "ab"], [[i ^ j for j in range(4)] for i in range(4)])


def left_zero(n: int = 2) -> OrderedMagma:
    return plain_magma([f"m{i}" for i in range(n)], [[i] * n for i in range(n)])


def trivial_monoid() -> OrderedMagma:
    return plain_magma(["1"], [[0]])


def nonassociative_pair() -> OrderedMagma:
    # a*a = b, all other products collapse; associativity fails at (a,a,a).
    return plain_magma(["a", "b"], [[1, 0], [1, 1]])


# -- power-set carriers ----------------------------------------------------------


@dataclass(frozen=True)
class PowersetCarrier:
    """A power-set ordered magma plus the subset bookkeeping for its elements."""

    base: OrderedMagma         # its order is ignored
    element_masks: tuple       # carrier element id -> subset mask over the base
    mask_index: dict
    magma: OrderedMagma

    def element_of(self, symbols: Iterable[int]) -> int:
        return self.mask_index[self.base.poset.mask_of(symbols)]


def _powerset_carrier(base: OrderedMagma, drop_empty: bool, name: str) -> PowersetCarrier:
    if base.n > POWERSET_BASE_CAP:
        raise CarrierTooLarge(
            f"power-set base capped at {POWERSET_BASE_CAP} elements, refused on {carrier_label(base)}"
        )
    masks = [m for m in range(1 << base.n) if m or not drop_empty]
    index = {m: i for i, m in enumerate(masks)}
    leq = [[(a & ~b) == 0 for b in masks] for a in masks]
    labels = ["{" + ",".join(base.poset.labels[s] for s in bits(m)) + "}" for m in masks]
    poset = FinitePoset(leq, labels)
    # x Y for every Y, one byte per Y (a product set has at most
    # POWERSET_BASE_CAP bits), then XY for every X by OR-ing those packed rows.
    rows = [int.from_bytes(bytes(_subset_unions([1 << z for z in row])), "little") for row in base.mul]
    products = [xy.to_bytes(1 << base.n, "little") for xy in _subset_unions(rows)]
    mul = [[index[products[a][b]] for b in masks] for a in masks]
    magma = OrderedMagma(poset, mul, name=name)
    return PowersetCarrier(base, tuple(masks), index, magma)


def _subset_unions(singles: Sequence[int]) -> list:
    """out[S] = the OR of singles[i] over the bits i of S, for every
    S < 2**len(singles), by the lowest-bit recurrence: out[S] is
    out[S without its lowest bit i] | singles[i]."""
    out = [0]
    for s in range(1, 1 << len(singles)):
        low = s & -s
        out.append(out[s ^ low] | singles[low.bit_length() - 1])
    return out


def powerset_prequantale(base: OrderedMagma, drop_empty: bool = False) -> PowersetCarrier:
    """2^M (or 2^M minus the empty set) under complex multiplication; the
    order of M is ignored."""
    name = f"2^{{{base.n}}}-{{}}" if drop_empty else f"2^{{{base.n}}}"
    carrier = _powerset_carrier(base, drop_empty, name)
    prof = carrier.magma.profile
    if drop_empty:
        if not prof.near_prequantale or prof.with_annihilator:
            raise broken(carrier.magma, "2^M minus the empty set must be a near prequantale")
    else:
        if not prof.prequantale:
            raise broken(carrier.magma, "2^M must be a prequantale")
        if prof.quantale != base.profile.associative:
            raise broken(carrier.magma, "2^M is a quantale exactly when M is a semigroup")
    return carrier


def powerset_of_magma_elements(m: OrderedMagma, drop_empty: bool) -> PowersetCarrier:
    """Power set of the elements of an existing ordered magma (ignoring its order)."""
    return _powerset_carrier(m, drop_empty, f"2^[{m.name}]")


# -- module systems and ideal systems ----------------------------------------------


@dataclass(frozen=True)
class SetSystemCarrier:
    """2^(M_0) for a base magma M with an absorbing zero symbol adjoined.

    Symbol 0 is the absorbing zero; base element i sits at symbol i + 1.
    """

    base: OrderedMagma
    symbols: tuple
    symbol_mul: tuple
    carrier: PowersetCarrier

    @property
    def magma(self) -> OrderedMagma:
        return self.carrier.magma

    @property
    def zero_singleton(self) -> int:
        return self.carrier.element_of([0])

    @property
    def empty_set(self) -> int:
        return self.carrier.element_of([])

    def translate(self, c: int, element: int) -> int:
        """The element cX for a symbol c."""
        mask = self.carrier.element_masks[element]
        return self.carrier.mask_index[self.carrier.base.complex_mul_mask(1 << c, mask)]


def _with_zero(base: OrderedMagma) -> Tuple[tuple, tuple]:
    symbols = ("0",) + tuple(base.poset.labels)
    k = len(symbols)
    mul = [[0] * k for _ in range(k)]
    for i in range(base.n):
        for j in range(base.n):
            mul[i + 1][j + 1] = base.mul[i][j] + 1
    return symbols, tuple(tuple(r) for r in mul)


def check_system_base(n: int):
    """Refuse a system base of n elements over SYSTEM_BASE_CAP; callers that
    build the base themselves ask before building it."""
    if n > SYSTEM_BASE_CAP:
        raise CarrierTooLarge(f"system base capped at {SYSTEM_BASE_CAP}, got {n} elements")


def _set_system(base: OrderedMagma, name: str) -> SetSystemCarrier:
    check_system_base(base.n)
    symbols, symbol_mul = _with_zero(base)
    carrier = _powerset_carrier(plain_magma(symbols, symbol_mul), drop_empty=False, name=name)
    if not carrier.magma.profile.multiplicative_lattice:
        raise broken(carrier.magma, "2^(M_0) must be a multiplicative lattice")
    return SetSystemCarrier(base, symbols, symbol_mul, carrier)


def module_system_lattice(group: OrderedMagma) -> SetSystemCarrier:
    if not is_group(group) or not group.profile.commutative:
        raise HypothesisNotMet("module systems live over finite abelian groups")
    return _set_system(group, f"2^(G0:{group.n})")


def ideal_system_lattice(monoid: OrderedMagma) -> SetSystemCarrier:
    prof = monoid.profile
    if not (prof.associative and prof.commutative and prof.unital):
        raise HypothesisNotMet("ideal systems live over commutative monoids")
    return _set_system(monoid, f"2^(M0:{monoid.n})")


def module_system_conditions(sys: SetSystemCarrier, r: MonotoneMap) -> dict:
    """The four equivalent characterizations, each evaluated independently.

    All presuppose that the empty set maps to the zero singleton; callers that
    want a straight predicate should use is_module_system.
    """
    m = sys.magma
    p = m.poset
    t = r.table
    closure = is_closure(r)

    def translations_transport() -> bool:
        return all(
            t[sys.translate(c, x)] == sys.translate(c, t[x])
            for c in range(len(sys.symbols))
            for x in range(m.n)
        )

    cond1 = closure and translations_transport()
    cond2 = closure and all(
        t[m.op(t[m.op(x, y)], z)] == t[m.op(x, t[m.op(y, z)])]
        for x in range(m.n)
        for y in range(m.n)
        for z in range(m.n)
    )
    cond3 = closure and all(
        t[m.op(t[x], t[y])] == t[m.op(x, y)] for x in range(m.n) for y in range(m.n)
    )
    cond4 = all(
        p.leq(m.op(x, y), t[z]) == p.leq(m.op(x, t[y]), t[z])
        for x in range(m.n)
        for y in range(m.n)
        for z in range(m.n)
    )
    return {"translations": cond1, "associative": cond2, "strictness": cond3, "single-axiom": cond4}


def is_module_system(sys: SetSystemCarrier, r: MonotoneMap) -> bool:
    if r.table[sys.empty_set] != sys.zero_singleton:
        return False
    conds = module_system_conditions(sys, r)
    if len(set(conds.values())) > 1:
        raise broken(sys.magma, f"module-system conditions {conds} disagree")
    if is_nucleus(sys.magma, r) != conds["translations"]:
        raise broken(sys.magma, "module systems must be the nuclei fixing the zero rule")
    return conds["translations"]


def weak_ideal_system_conditions(sys: SetSystemCarrier, r: MonotoneMap) -> dict:
    m = sys.magma
    p = m.poset
    t = r.table
    closure = is_closure(r)
    k = len(sys.symbols)
    # Raw definition: 0 in r(empty), c M_0 inside r({c}), c r(X) inside r(cX).
    zero_in_empty = p.leq(sys.zero_singleton, t[sys.empty_set])
    whole = sys.carrier.element_of(range(k))
    c_m0 = all(
        p.leq(sys.translate(c, whole), t[sys.carrier.element_of([c])]) for c in range(k)
    )
    c_transport = all(
        p.leq(sys.translate(c, t[x]), t[sys.translate(c, x)])
        for c in range(k)
        for x in range(m.n)
    )
    raw = closure and zero_in_empty and c_m0 and c_transport
    unit_symbol = sys.base.unit + 1 if sys.base.unit is not None else None
    nucleus_form = (
        closure
        and is_nucleus(m, r)
        and t[sys.carrier.element_of([0])] == t[sys.empty_set]
        and unit_symbol is not None
        and t[sys.carrier.element_of([unit_symbol])] == whole
    )
    return {"raw": raw, "nucleus": nucleus_form}


def is_weak_ideal_system(sys: SetSystemCarrier, r: MonotoneMap) -> bool:
    conds = weak_ideal_system_conditions(sys, r)
    if conds["raw"] != conds["nucleus"]:
        raise broken(sys.magma, f"weak-ideal-system characterizations {conds} disagree")
    return conds["raw"]


def is_ideal_system(sys: SetSystemCarrier, r: MonotoneMap) -> bool:
    if not is_weak_ideal_system(sys, r):
        return False
    exact = all(
        r.table[sys.translate(c, x)] == sys.translate(c, r.table[x])
        for c in range(len(sys.symbols))
        for x in range(sys.magma.n)
    )
    singles = [sys.carrier.element_of([c]) for c in range(len(sys.symbols))]
    tmask = transportable_mask(sys.magma, r)
    via_transport = all((tmask >> s) & 1 for s in singles)
    if exact != via_transport:
        raise broken(sys.magma, "ideal-system characterizations disagree")
    return exact


# -- chains -------------------------------------------------------------------------


def zchain_with_top(n: int = 1) -> OrderedMagma:
    """Finite surrogate of a totally ordered group with a top: {-n..n, inf} with
    clamped addition and an absorbing top.

    Clamping breaks associativity, so the classification honestly reports a
    commutative unital near prequantale rather than a near multiplicative
    lattice; the divisorial simplicity scan still applies.
    """
    vals = list(range(-n, n + 1))
    labels = [str(v) for v in vals] + ["inf"]
    size = len(labels)
    leq = [[i <= j for j in range(size)] for i in range(size)]
    top = size - 1

    def clamp(v: int) -> int:
        return max(-n, min(n, v))

    mul = [
        [top if top in (i, j) else vals.index(clamp(vals[i] + vals[j])) for j in range(size)]
        for i in range(size)
    ]
    return OrderedMagma(FinitePoset(leq, labels), mul, name=f"Z[{n}]+inf")


def zchain_with_both_ends(n: int = 1) -> OrderedMagma:
    """The same surrogate with an annihilator adjoined below."""
    return adjoin_annihilator(zchain_with_top(n), label="-inf")

