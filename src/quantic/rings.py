"""Finite commutative rings, their ideal lattices, radical and tight closure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import HypothesisNotMet, InternalCheckError, StructureError
from .magma import OrderedMagma, row_getters
from .nucleus import MonotoneMap, closure_from_preclosure, is_nucleus
from .poset import FinitePoset, bits

RING_SIZE_CAP = 256


class FiniteRing:
    """A finite commutative unital ring with dense addition/multiplication tables."""

    def __init__(self, add, mul, zero: int, one: int, name: str = "", element_names=None):
        self.n = len(add)
        if self.n > RING_SIZE_CAP:
            raise HypothesisNotMet(f"ring size capped at {RING_SIZE_CAP}")
        self.add = tuple(tuple(r) for r in add)
        self.mul = tuple(tuple(r) for r in mul)
        self.zero = zero
        self.one = one
        self.name = name
        self.element_names = (
            tuple(element_names) if element_names else tuple(str(i) for i in range(self.n))
        )
        self._validate()
        self.neg = self._negatives()
        self.characteristic = self._characteristic()

    def _validate(self):
        n, add, mul, zero, one = self.n, self.add, self.mul, self.zero, self.one
        for x in range(n):
            if add[zero][x] != x or mul[one][x] != x:
                raise StructureError("zero or one fails its law")
            if mul[zero][x] != zero:
                raise StructureError("zero is not absorbing")
            for y in range(n):
                if add[x][y] != add[y][x] or mul[x][y] != mul[y][x]:
                    raise StructureError("ring is not commutative")
        # Each law for every z at once, as a row: (x+y)+z against x+(y+z) is
        # add[x+y] against add[y] read through add[x], and likewise below.
        plus, times = row_getters(add), row_getters(mul)
        for ax, mx, by_x in zip(add, mul, times):
            for y in range(n):
                if add[ax[y]] != plus[y](ax):
                    raise StructureError("addition not associative")
                if mul[mx[y]] != times[y](mx):
                    raise StructureError("multiplication not associative")
                if plus[y](mx) != by_x(add[mx[y]]):
                    raise StructureError("distributivity fails")

    def _negatives(self):
        neg = [None] * self.n
        for x in range(self.n):
            for y in range(self.n):
                if self.add[x][y] == self.zero:
                    neg[x] = y
                    break
            if neg[x] is None:
                raise StructureError("additive inverse missing")
        return tuple(neg)

    def _characteristic(self) -> int:
        c, acc = 1, self.one
        while acc != self.zero:
            acc = self.add[acc][self.one]
            c += 1
            if c > self.n + 1:
                raise InternalCheckError("characteristic exceeded ring size")
        return c

    def __repr__(self):
        return f"FiniteRing({self.name or self.n})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zmod(cls, n: int) -> "FiniteRing":
        if n < 1:
            raise StructureError("modulus must be positive")
        add = [[(i + j) % n for j in range(n)] for i in range(n)]
        mul = [[(i * j) % n for j in range(n)] for i in range(n)]
        return cls(add, mul, 0, 1 % n, name=f"Z/{n}")

    @classmethod
    def poly_quotient(cls, p: int, modulus: Sequence[int], name: str = "") -> "FiniteRing":
        """F_p[x]/(f) for a monic f given by its coefficient list, low degree first."""
        if not _is_prime(p):
            raise StructureError("coefficient field needs a prime order")
        if not modulus or modulus[-1] % p != 1:
            raise StructureError("modulus must be monic with its leading coefficient 1")
        deg = len(modulus) - 1
        if deg < 1:
            raise StructureError("modulus must have positive degree")
        size = p ** deg
        if size > RING_SIZE_CAP:
            raise HypothesisNotMet(f"ring size capped at {RING_SIZE_CAP}")

        def decode(i):
            out = []
            for _ in range(deg):
                out.append(i % p)
                i //= p
            return out

        def encode(cs):
            acc = 0
            for c in reversed(cs[:deg]):
                acc = acc * p + (c % p)
            return acc

        def poly_add(a, b):
            return [(x + y) % p for x, y in zip(a, b)]

        def poly_mul(a, b):
            out = [0] * (2 * deg)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] = (out[i + j] + x * y) % p
            for k in range(2 * deg - 1, deg - 1, -1):
                c = out[k]
                if c:
                    out[k] = 0
                    for j in range(deg + 1):
                        out[k - deg + j] = (out[k - deg + j] - c * modulus[j]) % p
            return out[:deg]

        elems = [decode(i) for i in range(size)]
        add = [[encode(poly_add(a, b)) for b in elems] for a in elems]
        mul = [[encode(poly_mul(a, b)) for b in elems] for a in elems]

        def render(cs):
            parts = []
            for d, c in enumerate(cs):
                if not c:
                    continue
                if d == 0:
                    parts.append(str(c))
                else:
                    lead = "" if c == 1 else str(c)
                    parts.append(f"{lead}x" + (f"^{d}" if d > 1 else ""))
            return "+".join(parts) or "0"

        return cls(
            add,
            mul,
            0,
            encode([1] + [0] * (deg - 1)),
            name=name or f"F_{p}[x]/(f)",
            element_names=[render(e) for e in elems],
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- the ideal lattice ----------------------------------------------------------


@dataclass(frozen=True)
class RingIdealLattice:
    ring: FiniteRing
    ideals: tuple              # element bitmasks, sorted
    magma: OrderedMagma        # containment order with ideal multiplication
    index: dict                # ideal mask -> lattice element id

    @property
    def characteristic(self) -> int:
        return self.ring.characteristic


def _additive_span(ring: FiniteRing, gens_mask: int) -> int:
    """The additive subgroup generated by gens_mask, one generator at a time:
    span + <g> is the union of the translates of span by 0, g, 2g, ... up to
    the first multiple of g already in span."""
    add = ring.add
    members = [ring.zero]
    span = 1 << ring.zero
    for g in bits(gens_mask):
        if span >> g & 1:
            continue
        base, shift = list(members), g
        while not span >> shift & 1:
            coset = [add[x][shift] for x in base]
            members.extend(coset)
            for x in coset:
                span |= 1 << x
            shift = add[shift][g]
    return span


def _ideal_generated(ring: FiniteRing, gens_mask: int) -> int:
    scaled = 0
    for g in bits(gens_mask):
        for r in range(ring.n):
            scaled |= 1 << ring.mul[r][g]
    return _additive_span(ring, scaled)


def ring_ideal_lattice(ring: FiniteRing) -> RingIdealLattice:
    """All ideals by closing (0) under one-generator extensions; the lattice is
    a multiplicative lattice with unit the whole ring and annihilator the zero
    ideal."""
    # The ideal generated by base and x is base + Rx, so each ideal is
    # extended by the distinct principal ideals only.
    principal = [_ideal_generated(ring, 1 << x) for x in range(ring.n)]
    zero_ideal = 1 << ring.zero
    found = {zero_ideal}
    frontier = [zero_ideal]
    while frontier:
        base = frontier.pop()
        for rx in set(principal):
            if rx & ~base:
                grown = _additive_span(ring, base | rx)
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
    ideals = tuple(sorted(found))
    index = {m: i for i, m in enumerate(ideals)}
    leq_rows = [[(a & ~b) == 0 for b in ideals] for a in ideals]
    labels = [_minimal_generating_label(ring, principal, m) for m in ideals]
    poset = FinitePoset(leq_rows, labels)
    mul = []
    for a in ideals:
        row = []
        for b in ideals:
            prods = 0
            for x in bits(a):
                for y in bits(b):
                    prods |= 1 << ring.mul[x][y]
            row.append(index[_additive_span(ring, prods)])
        mul.append(row)
    magma = OrderedMagma(poset, mul, name=f"I({ring.name})" if ring.name else "I(R)")
    if not magma.profile.multiplicative_lattice:
        raise InternalCheckError("an ideal lattice must be a multiplicative lattice")
    if magma.unit != index[(1 << ring.n) - 1] or magma.annihilator != index[zero_ideal]:
        raise InternalCheckError("unit or annihilator of the ideal lattice misplaced")
    return RingIdealLattice(ring, ideals, magma, index)


def _minimal_generating_label(ring: FiniteRing, principal: list, mask: int) -> str:
    members = list(bits(mask))
    for g in members:
        if principal[g] == mask:
            return f"({ring.element_names[g]})"
    return "(" + ",".join(ring.element_names[x] for x in members if x != ring.zero) + ")"


def radical_operation(lat: RingIdealLattice) -> MonotoneMap:
    """I -> { x : some power of x lies in I }; asserted a nucleus."""
    ring = lat.ring
    table = []
    for i, mask in enumerate(lat.ideals):
        rad = 0
        for x in range(ring.n):
            acc = x
            seen = set()
            while acc not in seen:
                seen.add(acc)
                if (mask >> acc) & 1:
                    rad |= 1 << x
                    break
                acc = ring.mul[acc][x]
        if rad not in lat.index:
            raise InternalCheckError("radical of an ideal is not an ideal")
        table.append(lat.index[rad])
    s = MonotoneMap(lat.magma, table)
    if not is_nucleus(lat.magma, s):
        raise InternalCheckError("the radical operation must be a nucleus")
    return s


# -- prime ideals and tight closure ------------------------------------------------


def prime_ideal_ids(lat: RingIdealLattice) -> list:
    ring = lat.ring
    out = []
    whole = (1 << ring.n) - 1
    for i, mask in enumerate(lat.ideals):
        if mask == whole:
            continue
        prime = True
        for a in range(ring.n):
            if (mask >> a) & 1:
                continue
            for b in range(ring.n):
                if (mask >> b) & 1:
                    continue
                if (mask >> ring.mul[a][b]) & 1:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(i)
    return out


def minimal_prime_ids(lat: RingIdealLattice) -> list:
    primes = prime_ideal_ids(lat)
    out = []
    for i in primes:
        if not any(j != i and lat.magma.leq(j, i) for j in primes):
            out.append(i)
    return out


def regular_elements_mask(lat: RingIdealLattice) -> int:
    """Complement of the union of the minimal primes."""
    union = 0
    for i in minimal_prime_ids(lat):
        union |= lat.ideals[i]
    return ((1 << lat.ring.n) - 1) & ~union


def base_prime(ring: FiniteRing) -> int:
    """The prime p underlying a prime-power characteristic.

    Tight closure is stated for prime characteristic, but every defining
    formula (q-th power ideals, the c x^q membership test) stays well-defined,
    and the preclosure and multiplicativity properties stay provable, whenever
    the characteristic is a power of p; that covers the Z/4 and Z/9 lattices.
    """
    c = ring.characteristic
    if c < 2:
        raise HypothesisNotMet("tight closure needs positive prime-power characteristic")
    p = 2
    while c % p:
        p += 1
    while c % p == 0:
        c //= p
    if c != 1:
        raise HypothesisNotMet("tight closure needs prime-power characteristic")
    return p


def frobenius_exponent_window(ring: FiniteRing) -> Tuple[int, int]:
    """(preperiod, period) of the iterated p-power map x -> x^p.

    Beyond the preperiod the iterates cycle, so a condition required for all
    large p-power exponents is equivalent to holding on one full cycle.
    """
    p = base_prime(ring)
    frob = tuple(_ring_pow(ring, x, p) for x in range(ring.n))
    seen = {}
    cur = tuple(range(ring.n))
    e = 0
    while cur not in seen:
        seen[cur] = e
        cur = tuple(frob[x] for x in cur)
        e += 1
    start = seen[cur]
    return start, e - start


def _ring_pow(ring: FiniteRing, x: int, k: int) -> int:
    acc = ring.one
    base = x
    while k:
        if k & 1:
            acc = ring.mul[acc][base]
        base = ring.mul[base][base]
        k >>= 1
    return acc


def frobenius_power_ideal(lat: RingIdealLattice, i: int, e: int) -> int:
    """I^[p^e]: the ideal generated by the e-th Frobenius image of I."""
    ring = lat.ring
    p = base_prime(ring)
    q = p ** e
    image = 0
    for x in bits(lat.ideals[i]):
        image |= 1 << _ring_pow(ring, x, q)
    return _ideal_generated(ring, image)


def tight_closure_T(lat: RingIdealLattice, i: int, extra_period: int = 0) -> int:
    """I^T by direct scan: x is captured when some c outside every minimal prime
    has c x^q inside I^[q] for every exponent q = p^e on the stable Frobenius cycle."""
    ring = lat.ring
    p = base_prime(ring)
    pre, period = frobenius_exponent_window(ring)
    exps = list(range(pre, pre + period + extra_period))
    if not exps:
        exps = [pre]
    regulars = list(bits(regular_elements_mask(lat)))
    if not regulars:
        raise InternalCheckError("the regular locus of a finite ring cannot be empty")
    bracket = {e: frobenius_power_ideal(lat, i, e) for e in exps}
    members = 0
    for x in range(ring.n):
        for c in regulars:
            if all(
                (bracket[e] >> ring.mul[c][_ring_pow(ring, x, p ** e)]) & 1 for e in exps
            ):
                members |= 1 << x
                break
    if members not in lat.index:
        raise InternalCheckError("I^T is not an ideal")
    out = lat.index[members]
    if extra_period == 0:
        widened = tight_closure_T(lat, i, extra_period=period)
        if widened != out:
            raise InternalCheckError("tight closure is unstable under a longer exponent window")
    return out


def tight_closure_preclosure(lat: RingIdealLattice) -> MonotoneMap:
    t = MonotoneMap(lat.magma, tuple(tight_closure_T(lat, i) for i in range(lat.magma.n)))
    if not t.is_preclosure:
        raise InternalCheckError("tight closure T must be a preclosure")
    m = lat.magma
    p = m.poset
    for i in range(m.n):
        for j in range(m.n):
            if not p.leq(m.op(i, t.table[j]), t.table[m.op(i, j)]):
                raise InternalCheckError("tight closure fails I J^T <= (I J)^T")
    return t


def tight_closure_star(lat: RingIdealLattice) -> MonotoneMap:
    """The idempotent hull of T: the semiprime operation whose fixed ideals are
    exactly the tightly closed ones (closure_from_preclosure asserts the least
    tightly closed ideal above each ideal).  On a finite (hence Noetherian)
    ring the hull coincides with T itself; both facts are asserted."""
    t = tight_closure_preclosure(lat)
    star = closure_from_preclosure(t)
    m = lat.magma
    if star.table != t.table:
        raise InternalCheckError("on a finite ring T must already be idempotent")
    if not is_nucleus(m, star):
        raise InternalCheckError("tight closure star must be a semiprime operation")
    return star
