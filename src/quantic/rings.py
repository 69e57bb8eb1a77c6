"""Finite commutative rings, their ideal lattices, radical and tight closure.

A ring keeps its addition and multiplication tables as rows of bytes, one
byte per element, which RING_SIZE_CAP = 256 allows.  The ring laws are
decided at an additive generating set, one row over z at a time: a row read
through another is ``row.translate(other + pad)``, ``pad = bytes(256 - n)``.
A failed law names the ring, its size and the first failing triple (x, y, z),
with z the first element where the two rows differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence, Tuple

from .errors import HypothesisNotMet, InternalCheckError, StructureError
from .magma import OrderedMagma
from .nucleus import MonotoneMap, _certified, closure_from_preclosure
from .poset import FinitePoset, bits, id_mask, row_mask, translate_table

# Every element is one byte, and a table row padded with zeros to 256 bytes
# is a bytes.translate table: the byte-row law check needs n <= 256.
RING_SIZE_CAP = 256
# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# PRIME_TEST_BOUND (about 3.3e24, Sorenson and Webster 2015).  A coefficient
# field of order at least the bound is over RING_SIZE_CAP on its own.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _label(name: str, n) -> str:
    """A ring's name and size, n elements, as error messages give them."""
    return f"{name or 'ring'} ({n} elements)"


def _check_size(n: int, label: str):
    if n > RING_SIZE_CAP:
        raise HypothesisNotMet(f"ring size capped at {RING_SIZE_CAP} on {label}")


class FiniteRing:
    """A finite commutative unital ring with dense addition/multiplication
    tables, each a tuple of bytes rows."""

    def __init__(self, add, mul, zero: int, one: int, name: str = "", element_names=None):
        self.n = n = len(add)
        self.name = name
        _check_size(n, self.label)
        try:
            self.add = tuple(bytes(list(r)) for r in add)
            self.mul = tuple(bytes(list(r)) for r in mul)
            rows = self.add + self.mul
            shaped = len(rows) == 2 * n and all(len(r) == n and max(r) < n for r in rows)
        except (TypeError, ValueError):
            shaped = False
        if not (shaped and 0 <= zero < n and 0 <= one < n):
            raise self._malformed("ring needs n x n tables, a zero and a one in 0..n-1")
        self.zero = zero
        self.one = one
        self.element_names = (
            tuple(element_names) if element_names else tuple(str(i) for i in range(n))
        )
        self._validate()
        self.neg = self._negatives()
        self.characteristic = self._characteristic()

    @property
    def label(self) -> str:
        return _label(self.name, self.n)

    def _malformed(self, what: str, at: str = "") -> StructureError:
        return StructureError(f"{what} on {self.label}{at}")

    def _validate(self):
        n, add, mul, zero, one = self.n, self.add, self.mul, self.zero, self.one
        # Column x of a table is its flat form read with stride n.
        flat_add, flat_mul = b"".join(add), b"".join(mul)
        for x in range(n):
            if add[zero][x] != x or mul[one][x] != x:
                raise self._malformed("zero or one fails its law", f" at x = {x}")
            if mul[zero][x] != zero:
                raise self._malformed("zero is not absorbing", f" at x = {x}")
            if add[x] != flat_add[x::n] or mul[x] != flat_mul[x::n]:
                y = min(_first_difference(add[x], flat_add[x::n]),
                        _first_difference(mul[x], flat_mul[x::n]))
                raise self._malformed("ring is not commutative", f" at (x, y) = ({x}, {y})")
        self.generators = _additive_generators(add, zero)
        if _first_failure(add, mul, self.generators) is not None:
            raise self._law_fails(*_first_failure(add, mul, range(n)))

    def _law_fails(self, law: str, x: int, y: int, lhs: bytes, rhs: bytes) -> StructureError:
        return self._malformed(law, f" at (x, y, z) = ({x}, {y}, {_first_difference(lhs, rhs)})")

    def _negatives(self):
        neg = tuple(row.find(self.zero) for row in self.add)
        if -1 in neg:
            raise self._malformed("additive inverse missing", f" at x = {neg.index(-1)}")
        return neg

    def _characteristic(self) -> int:
        c, acc = 1, self.one
        while acc != self.zero:
            acc = self.add[acc][self.one]
            c += 1
            if c > self.n + 1:
                raise _broken(self, "characteristic exceeded ring size")
        return c

    def __repr__(self):
        return f"FiniteRing({self.name or self.n})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zmod(cls, n: int) -> "FiniteRing":
        name = f"Z/{n}"
        if n < 1:
            raise StructureError(f"modulus must be positive on {name}")
        _check_size(n, _label(name, n))
        ids = bytes(range(n))
        add = [ids[i:] + ids[:i] for i in range(n)]
        # Row i is every i-th entry of ids repeated i times: (j * i) % n at j.
        mul = [bytes(n)] + [(ids * i)[::i] for i in range(1, n)]
        return cls(add, mul, 0, 1 % n, name=name)

    @classmethod
    def poly_quotient(cls, p: int, modulus: Sequence[int], name: str = "") -> "FiniteRing":
        """F_p[x]/(f) for a monic f given by its coefficient list, low degree first.

        Element i is the polynomial whose coefficients are the base-p digits
        of i, constant term lowest, so i = d + p*j is d + x*j.  The tables are
        built by linearity: a+b adds the low digits and then the rest, and
        a*b = d*a + x*(a*j), one lookup per entry."""
        name = name or f"F_{p}[x]/(f)"
        deg = len(modulus) - 1
        size = poly_quotient_order(p, deg, modulus[-1] if modulus else 0, name)

        add = [list(range(size))]
        for a in range(1, size):
            low, rest = a % p, add[a // p]
            add.append([(low + b % p) % p + p * rest[b // p] for b in range(size)])
        # scale[d][a] = d*a, and x*a moves every digit up one place and turns
        # the top digit t into t*x^deg = t*(x^deg - f).
        scale = [[0] * size]
        for _ in range(1, p):
            scale.append([add[s][a] for a, s in enumerate(scale[-1])])
        top = p ** (deg - 1)
        reduced = sum((-c % p) * p ** i for i, c in enumerate(modulus[:deg]))
        times_x = [add[p * (a % top)][scale[a // top][reduced]] for a in range(size)]
        mul = []
        for a in range(size):
            row = [0] * size
            for b in range(1, size):
                row[b] = add[scale[b % p][a]][times_x[row[b // p]]]
            mul.append(row)

        def render(i):
            parts = []
            for d in range(deg):
                c, i = i % p, i // p
                if not c:
                    continue
                if d == 0:
                    parts.append(str(c))
                else:
                    lead = "" if c == 1 else str(c)
                    parts.append(f"{lead}x" + (f"^{d}" if d > 1 else ""))
            return "+".join(parts) or "0"

        return cls(add, mul, 0, 1, name=name, element_names=[render(i) for i in range(size)])


def poly_quotient_order(p: int, deg: int, lead: int, name: str) -> int:
    """p**deg, the order of F_p[x]/(f) for f of degree deg with leading
    coefficient lead, after every check that needs no table."""
    label = _label(name, f"{p}^{deg}") if deg >= 1 else name
    if p >= PRIME_TEST_BOUND:
        _check_size(p, label)
    if not _is_prime(p):
        raise StructureError(f"coefficient field needs a prime order on {label}")
    if lead % p != 1:
        raise StructureError(f"modulus must be monic with its leading coefficient 1 on {label}")
    if deg < 1:
        raise StructureError(f"modulus must have positive degree on {label}")
    # As p >= 2, p**deg is over the cap once deg reaches the cap's bit length.
    _check_size(size := p ** min(deg, RING_SIZE_CAP.bit_length()), label)
    return size


def _additive_generators(add, zero: int) -> tuple:
    """G: each id, in order, that zero cannot reach by adding the earlier
    generators; each reached element is translated once by each one."""
    gens, seen, todo = [], {zero}, []
    for x in range(len(add)):
        if x not in seen:
            gens.append(x)
            todo += product(seen, (x,))
            while todo:
                s, g = todo.pop()
                if (t := add[s][g]) not in seen:
                    seen.add(t)
                    todo += product((t,), gens)
    return tuple(gens)


def _first_failure(add, mul, ys):
    """The first (law, x, y, lhs, rhs), x over every element and y over ys,
    where (x+y)+z = x+(y+z), (xy)z = x(yz) or x(y+z) = xy+xz fails for some z
    (each law for every z at once, as a row), or None.  With ys an additive
    generating set this decides the laws on every triple, given zero, one, an
    absorbing zero and commutativity: the y with (x+y)+z = x+(y+z) for all x, z
    hold 0 and are closed under + (Light's lemma); given that, so are the y
    with x(y+z) = xy+xz for all x, z; given both, so are the y with
    (xy)z = x(yz) for all x, z.  A failure at ys is also one of the scan over
    every y, found there at or before it."""
    through_add = [translate_table(r) for r in add]
    for x, (ax, mx, by_ax) in enumerate(zip(add, mul, through_add)):
        by_mx = translate_table(mx)
        for y in ys:
            ay, my, s, p = add[y], mul[y], ax[y], mx[y]
            if (lhs := add[s]) != (rhs := ay.translate(by_ax)):
                return "addition not associative", x, y, lhs, rhs
            if (lhs := mul[p]) != (rhs := my.translate(by_mx)):
                return "multiplication not associative", x, y, lhs, rhs
            # x(y+z) against xy+xz: add[y] read through mul[x], against
            # mul[x] read through add[xy].
            if (lhs := ay.translate(by_mx)) != (rhs := mx.translate(through_add[p])):
                return "distributivity fails", x, y, lhs, rhs
    return None


def _first_difference(a: bytes, b: bytes) -> int:
    """The first index where a and b differ, or len(a) if they agree."""
    return next((i for i, (u, w) in enumerate(zip(a, b)) if u != w), len(a))


def _broken(ring: FiniteRing, what: str, at: str = "") -> InternalCheckError:
    return InternalCheckError(f"{what} on {ring.label}{at}")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        for _ in range(r):
            if x in (1, n - 1):
                break
            x = x * x % n
        else:
            return False
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


def _ideal_generated(ring: FiniteRing, gens, members: bytes = b"") -> int:
    """The ideal generated by the ideal with the given members, (0) by default,
    and gens: Rx is the additive span of xG, and span + <y> is the union of the
    translates of span by 0, y, 2y, ... up to the first one already in span."""
    add, mul = ring.add, ring.mul
    members = members or bytes([ring.zero])
    span = set(members)
    for y in {mul[x][g] for x in gens for g in ring.generators}:
        if y in span:
            continue
        base, shift = members, y
        while shift not in span:
            coset = base.translate(translate_table(add[shift]))
            members += coset
            span.update(coset)
            shift = add[shift][y]
    return id_mask(span)


def ring_ideal_lattice(ring: FiniteRing) -> RingIdealLattice:
    """All ideals by closing (0) under one-generator extensions; the lattice is
    a multiplicative lattice with unit the whole ring and annihilator the zero
    ideal."""
    # Each ideal I is extended by one x per distinct principal ideal Rx,
    # breadth first, so each keeps a shortest list of such x; Rx is row x of
    # the multiplication table read as a mask (each id to 0, then Rx to 1).
    n, ids = ring.n, bytes(range(ring.n))
    principal = [row_mask(bytes.maketrans(ids + row, bytes(n) + b"\1" * n)[:n]) for row in ring.mul]
    by_principal = {rx: x for x, rx in enumerate(principal)}
    zero_ideal = 1 << ring.zero
    gens, tried = {zero_ideal: ()}, set()
    for base in (queue := [zero_ideal]):
        members = bytes(bits(base))
        for rx, x in by_principal.items():
            # I + Rx is the ideal generated by their union, and no new ideal
            # when that union is an ideal already or was extended before.
            if (u := base | rx) not in gens and u not in tried:
                tried.add(u)
                if (grown := _ideal_generated(ring, (x,), members)) not in gens:
                    gens[grown] = gens[base] + (x,)
                    queue.append(grown)
    ideals = tuple(sorted(gens))
    index = {m: i for i, m in enumerate(ideals)}
    leq_rows = [[(a & ~b) == 0 for b in ideals] for a in ideals]
    labels = [_minimal_generating_label(ring, principal, m) for m in ideals]
    poset = FinitePoset(leq_rows, labels)
    # I*J is the least ideal holding R(gh) for the generators g of I and h
    # of J: their union when that is an ideal, else the first ideal above it,
    # as the least ideal above a mask is a submask of every other one.
    lists, mul = [gens[m] for m in ideals], []
    for a in lists:
        mul.append(row := [])
        for b in lists:
            u = zero_ideal
            for g, h in product(a, b):
                u |= principal[ring.mul[g][h]]
            row.append(index[u] if u in index else index[next(m for m in ideals if not u & ~m)])
    magma = OrderedMagma(poset, mul, name=f"I({ring.name})" if ring.name else "I(R)")
    if not magma.profile.multiplicative_lattice:
        raise _broken(ring, "an ideal lattice must be a multiplicative lattice")
    if magma.unit != index[(1 << n) - 1] or magma.annihilator != index[zero_ideal]:
        raise _broken(ring, "unit or annihilator of the ideal lattice misplaced")
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
            raise _broken(ring, "radical of an ideal is not an ideal", f" at ideal {i}")
        table.append(lat.index[rad])
    return _certified(lat.magma, table, "the radical operation")


# -- prime ideals and tight closure ------------------------------------------------


def prime_ideal_ids(lat: RingIdealLattice) -> list:
    """The proper ideals holding no product of two elements outside them."""
    ring, whole = lat.ring, (1 << lat.ring.n) - 1
    return [
        i
        for i, mask in enumerate(lat.ideals)
        if mask != whole
        and not any(mask >> ring.mul[a][b] & 1 for a, b in product(bits(whole & ~mask), repeat=2))
    ]


def minimal_prime_ids(lat: RingIdealLattice) -> list:
    primes = prime_ideal_ids(lat)
    return [i for i in primes if not any(j != i and lat.magma.leq(j, i) for j in primes)]


def regular_elements_mask(lat: RingIdealLattice) -> int:
    """Complement of the union of the minimal primes."""
    primes = minimal_prime_ids(lat)
    return id_mask(x for x in range(lat.ring.n) if not any(lat.ideals[i] >> x & 1 for i in primes))


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
    return _ideal_generated(ring, {_ring_pow(ring, x, q) for x in bits(lat.ideals[i])})


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
        raise _broken(ring, "the regular locus of a finite ring cannot be empty")
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
        raise _broken(ring, "I^T is not an ideal", f" at ideal {i}")
    out = lat.index[members]
    if extra_period == 0:
        widened = tight_closure_T(lat, i, extra_period=period)
        if widened != out:
            raise _broken(ring, "tight closure is unstable under a longer exponent window")
    return out


def tight_closure_preclosure(lat: RingIdealLattice) -> MonotoneMap:
    t = MonotoneMap(lat.magma, tuple(tight_closure_T(lat, i) for i in range(lat.magma.n)))
    if not t.is_preclosure:
        raise _broken(lat.ring, "tight closure T must be a preclosure")
    m = lat.magma
    p = m.poset
    for i in range(m.n):
        for j in range(m.n):
            if not p.leq(m.op(i, t.table[j]), t.table[m.op(i, j)]):
                raise _broken(lat.ring, "tight closure fails I J^T <= (I J)^T", f" at (I, J) = ({i}, {j})")
    return t


def tight_closure_star(lat: RingIdealLattice) -> MonotoneMap:
    """The idempotent hull of T: the semiprime operation whose fixed ideals are
    exactly the tightly closed ones (closure_from_preclosure asserts the least
    tightly closed ideal above each ideal).  On a finite (hence Noetherian)
    ring the hull coincides with T itself; both facts are asserted."""
    t = tight_closure_preclosure(lat)
    star = closure_from_preclosure(t)
    if star.table != t.table:
        raise _broken(lat.ring, "on a finite ring T must already be idempotent")
    return _certified(lat.magma, star.table, "tight closure star")
