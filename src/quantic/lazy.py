"""The two lazily-represented infinite carriers.

chain-omega: the chain of naturals with a top adjoined, multiplication = join.
upsets-nat:  eventually periodic subsets of the naturals under Minkowski sum,
             the decidable fragment of the power set of the additive monoid
             of naturals.

Lazy carriers answer suprema only for describable families and carry declared
classification flags; nothing is guessed beyond the declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import gcd
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    InternalCheckError,
    IterationBudgetExceeded,
    StructureError,
    UndecidableFamily,
)
from .poset import bits as set_bits

INF = float("inf")
# Rule maps are certified on this many sampled elements.
SAMPLE_SIZE = 12


# -- family descriptors --------------------------------------------------------
#
# Each family walks its own members in order; a carrier decides what the
# walk is worth (its sup, its image sup).


@dataclass(frozen=True)
class FiniteFamily:
    members: tuple

    @classmethod
    def of(cls, xs: Iterable) -> "FiniteFamily":
        return cls(tuple(xs))

    def walk(self) -> Iterator:
        return iter(self.members)


@dataclass(frozen=True)
class TailFamily:
    """All chain elements >= start (a directed, cofinal family)."""

    start: int

    def walk(self) -> Iterator:
        return count(self.start)


@dataclass(frozen=True)
class TruncationFamily:
    """The directed family of finite truncations S intersect [0, n] of an UPSet."""

    limit: "UPSet"

    def walk(self) -> Iterator:
        return (UpsetsNat.truncate(self.limit, n) for n in count())


# -- eventually periodic subsets of the naturals ---------------------------------


class UPSet:
    """Eventually periodic subset of the naturals in canonical normal form.

    n is a member iff n < threshold and bit n of head is set, or n >= threshold
    and n % period is in residues.  Canonical means the period is minimal and
    the threshold is as small as possible, so structural equality is set
    equality.  The constructor and from_bits both put a set in this form
    through _settle.
    """

    # cycle has bit i set iff threshold + i is a member, for i < period.
    __slots__ = ("head", "threshold", "period", "residues", "cycle")

    def __init__(self, head: int, threshold: int, period: int, residues: Iterable[int]):
        _check_shape(threshold, period)
        bits = head & ((1 << threshold) - 1)
        for r in residues:
            bits |= 1 << (threshold + (r - threshold) % period)
        self._settle(bits, threshold, period)

    @classmethod
    def from_bits(cls, bits: int, threshold: int, period: int) -> "UPSet":
        """The set whose members below threshold + period are the set bits of
        bits, periodic from threshold on."""
        _check_shape(threshold, period)
        out = cls.__new__(cls)
        out._settle(bits, threshold, period)
        return out

    def _settle(self, bits: int, threshold: int, period: int):
        full = (1 << period) - 1
        cycle = (bits >> threshold) & full
        # Minimal period: the least divisor d of period such that the cycle
        # is unchanged by rotating it d places.
        for d in range(1, period + 1):
            if period % d == 0 and cycle == ((cycle >> d) | (cycle << (period - d))) & full:
                period, cycle = d, cycle & ((1 << d) - 1)
                break
        # Minimal threshold: one past the last n below it where membership of n
        # and of n + period differ.
        bits = bits & ((1 << threshold) - 1) | cycle << threshold
        threshold = ((bits ^ (bits >> period)) & ((1 << threshold) - 1)).bit_length()
        cycle = (bits >> threshold) & ((1 << period) - 1)
        for field, value in (
            ("head", bits & ((1 << threshold) - 1)),
            ("threshold", threshold),
            ("period", period),
            ("cycle", cycle),
            ("residues", frozenset((threshold + i) % period for i in set_bits(cycle))),
        ):
            object.__setattr__(self, field, value)

    def __setattr__(self, *a):
        raise AttributeError("UPSet is immutable")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls) -> "UPSet":
        return cls(0, 0, 1, ())

    @classmethod
    def naturals(cls) -> "UPSet":
        return cls(0, 0, 1, (0,))

    @classmethod
    def from_finite(cls, xs: Iterable[int]) -> "UPSet":
        bits = 0
        for x in xs:
            if x < 0:
                raise StructureError("UPSet members must be naturals")
            bits |= 1 << x
        return cls.from_bits(bits, bits.bit_length(), 1)

    @classmethod
    def tail(cls, start: int) -> "UPSet":
        return cls(0, start, 1, (0,))

    @classmethod
    def arithmetic(cls, start: int, step: int) -> "UPSet":
        if step <= 0:
            raise StructureError("arithmetic progression needs a positive step")
        return cls(0, start, step, (start % step,))

    # -- membership and views -----------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return bool((self.head >> n) & 1)
        return bool((self.cycle >> ((n - self.threshold) % self.period)) & 1)

    def expand(self, horizon: int) -> int:
        """Membership bitmask for [0, horizon)."""
        tail, width = self.cycle, self.period
        while self.threshold + width < horizon:
            tail |= tail << width
            width *= 2
        return (self.head | tail << self.threshold) & ((1 << horizon) - 1)

    def elements_below(self, horizon: int) -> list:
        return list(set_bits(self.expand(horizon)))

    def is_empty(self) -> bool:
        return self.head == 0 and not self.cycle

    def is_finite(self) -> bool:
        return not self.cycle

    def finite_elements(self) -> list:
        if not self.is_finite():
            raise StructureError("UPSet is infinite")
        return self.elements_below(self.threshold)

    def min(self) -> Optional[int]:
        bits = self.expand(self.threshold + self.period)
        return (bits & -bits).bit_length() - 1 if bits else None

    def __eq__(self, other):
        return isinstance(other, UPSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.head, self.threshold, self.period, self.cycle

    def __repr__(self):
        if self.is_finite():
            return f"UPSet{set(self.finite_elements()) if self.head else '{}'}"
        return (
            f"UPSet(head={bin(self.head)}, t={self.threshold}, "
            f"p={self.period}, r={sorted(self.residues)})"
        )

    # -- boolean algebra -----------------------------------------------------------

    def _window(self, other: "UPSet"):
        """A common threshold and period, and both sets' bits below their sum."""
        threshold = max(self.threshold, other.threshold)
        period = _lcm(self.period, other.period)
        horizon = threshold + period
        return threshold, period, self.expand(horizon), other.expand(horizon)

    def union(self, other: "UPSet") -> "UPSet":
        threshold, period, a, b = self._window(other)
        return UPSet.from_bits(a | b, threshold, period)

    def intersection(self, other: "UPSet") -> "UPSet":
        threshold, period, a, b = self._window(other)
        return UPSet.from_bits(a & b, threshold, period)

    def issubset(self, other: "UPSet") -> bool:
        _, _, a, b = self._window(other)
        return not a & ~b

    # -- Minkowski sum ---------------------------------------------------------------

    def minkowski(self, other: "UPSet") -> "UPSet":
        if self.is_empty() or other.is_empty():
            return UPSet.empty()
        period = _lcm(self.period, other.period)
        # Beyond this index the sum is provably period-periodic: finite heads
        # contribute nothing new, and tail+tail sums have stabilized by the
        # Frobenius bound of the two step sizes.
        stable = (
            self.threshold
            + other.threshold
            + self.period * other.period
            + self.period
            + other.period
            + period
        )
        horizon = stable + 2 * period + 8
        b_bits = other.expand(horizon)
        out = 0
        for shift in set_bits(self.expand(horizon)):
            out |= b_bits << shift
        out &= (1 << horizon) - 1
        if (out >> stable) & ((1 << period) - 1) != (out >> (stable + period)) & (
            (1 << period) - 1
        ):
            raise InternalCheckError("Minkowski sum missed its periodicity bound")
        result = UPSet.from_bits(out, stable, period)
        if result.expand(horizon) != out:
            raise InternalCheckError("Minkowski normal form does not reproduce the sum")
        return result

    def up_closure(self) -> "UPSet":
        """Monoid ideal generated in (N, +): everything at or above the minimum."""
        m = self.min()
        return UPSet.empty() if m is None else UPSet.tail(m)

    def residual_by(self, other: "UPSet") -> "UPSet":
        """The largest w with w + other inside self.

        Pointwise: n belongs iff n + alpha lies in self for every alpha in
        other.  Both membership conditions are periodic in alpha beyond the
        thresholds, so one full common period of alphas decides each n, and
        the answer is periodic in n beyond self's threshold.
        """
        if other.is_empty():
            return UPSet.naturals()
        period = _lcm(self.period, other.period)
        alpha_horizon = self.threshold + other.threshold + 2 * period + 8
        window = self.threshold + self.period
        below = self.expand(window + alpha_horizon)
        members = (1 << window) - 1
        for alpha in set_bits(other.expand(alpha_horizon)):
            members &= below >> alpha
        out = UPSet.from_bits(members, self.threshold, self.period)
        if not out.minkowski(other).issubset(self):
            raise InternalCheckError("residual violates its defining inequality")
        return out

    def generated_submonoid(self) -> "UPSet":
        """Submonoid of (N, +) generated by self.

        Every generator is a multiple of g = gcd(self), and the numerical
        semigroup generated by the early elements already fills g*N beyond its
        Frobenius number, so the result is g-periodic past an explicit bound;
        membership below the bound comes from a subset-sum sweep.
        """
        probe = self.threshold + 2 * self.period
        early = [x for x in self.elements_below(probe + 1) if x > 0]
        if not early and not self.residues:
            return UPSet.from_finite([0])
        g = 0
        for x in early:
            g = gcd(g, x)
        for r in self.residues:
            g = gcd(g, self.period)
            g = gcd(g, r)
        m = max(early) if early else self.period
        frobenius_bound = (m // max(g, 1)) ** 2 + m
        stable = g * frobenius_bound + m + self.period + 8
        horizon = stable + 2 * max(g, 1) + 8
        mask = (1 << horizon) - 1
        reach = 1  # bit n set iff n is a sum of generators
        for x in self.elements_below(horizon):
            # Close under adding x: shifts by x, 2x, 4x, ... cover every multiple.
            step = x
            while 0 < step < horizon:
                reach |= (reach << step) & mask
                step *= 2
        out = UPSet.from_bits(reach, stable, max(g, 1))
        if out.expand(horizon) != reach:
            raise InternalCheckError("submonoid normal form does not reproduce the sweep")
        return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _check_shape(threshold: int, period: int):
    if period <= 0 or threshold < 0:
        raise StructureError("UPSet needs period >= 1 and threshold >= 0")


# -- lazy carrier protocol ---------------------------------------------------------


class LazyCarrier:
    """Shared interface: order oracle, describable sups, compactness, declared
    flags, and the carrier's own compact approximations, image suprema and
    shipped rule maps."""

    kind = "lazy"
    name = "lazy"
    # Names of the rule maps the carrier ships; run_all_lazy checks each.
    shipped: tuple = ()

    def leq(self, x, y) -> bool:
        raise NotImplementedError

    def sup(self, family):
        raise NotImplementedError

    def is_compact(self, x) -> bool:
        raise NotImplementedError

    def op(self, x, y):
        raise NotImplementedError

    def sample(self, k: int = SAMPLE_SIZE) -> list:
        raise NotImplementedError

    def directed_family_samples(self) -> list:
        raise NotImplementedError

    def compacts_below(self, x):
        """A describable directed family of compact elements with sup x."""
        raise NotImplementedError

    def image_sup(self, rule: "RuleMap", family, budget: int):
        """Supremum of the image of the carrier's infinite directed family."""
        raise NotImplementedError

    def rule_map(self, name: str) -> "RuleMap":
        raise NotImplementedError

    def residual(self, x, a):
        """The largest z with z * a <= x, or None where there is none."""
        raise NotImplementedError


class ChainOmega(LazyCarrier):
    """The chain of naturals with a top, multiplication = join.

    A complete, algebraic near multiplicative lattice whose single
    non-compact element is the top.
    """

    name = "chain-omega"
    declared_profile = dict(
        sup_magma=True,
        near_sup_magma=True,
        with_annihilator=False,
        prequantale=False,
        near_prequantale=True,
        semiprequantale=True,
        multiplicative_semilattice=True,
        prequantic_semilattice=False,
        scott_topological=True,
        residuated=False,
        near_residuated=True,
        associative=True,
        commutative=True,
        unital=True,
        precoherent=True,
        coherent=True,
    )
    top = INF
    bottom = 0
    unit = 0
    shipped = ("d", "e", "d3")

    def check(self, x):
        if x is INF:
            return x
        if isinstance(x, int) and x >= 0:
            return x
        raise StructureError(f"{x!r} is not a chain-omega element")

    def leq(self, x, y) -> bool:
        self.check(x), self.check(y)
        return x <= y

    def op(self, x, y):
        self.check(x), self.check(y)
        return max(x, y)

    def is_compact(self, x) -> bool:
        # The whole chain of naturals is directed with supremum top, so the
        # top is not compact; every natural is.
        return self.check(x) is not INF

    def sup(self, family):
        if isinstance(family, FiniteFamily):
            if not family.members:
                return 0
            return max(self.check(x) for x in family.members)
        if isinstance(family, TailFamily):
            return INF
        raise UndecidableFamily(f"chain-omega cannot take the sup of {family!r}")

    def sample(self, k: int = SAMPLE_SIZE) -> list:
        return list(range(k - 1)) + [INF]

    def directed_family_samples(self) -> list:
        return [TailFamily(0), TailFamily(5), FiniteFamily.of([0, 3, 7])]

    def compacts_below(self, x):
        return FiniteFamily.of([x]) if self.is_compact(x) else TailFamily(0)

    def image_sup(self, rule: "RuleMap", family, budget: int):
        """Expansive rules have unbounded image along a tail, so the sup is
        top; otherwise detect stabilization at top."""
        if not isinstance(family, TailFamily):
            raise UndecidableFamily(f"no image-sup rule for {family!r} on {self.name}")
        members = list(islice(family.walk(), budget))
        values = [rule(n) for n in members]
        if INF in values or all(self.leq(n, v) for n, v in zip(members, values)):
            return INF
        raise IterationBudgetExceeded("tail image sup did not resolve in budget")

    def rule_map(self, name: str) -> "RuleMap":
        """The shipped nuclei: d (identity), e (constant top) and dK,
        x -> max(x, K), for a natural K."""
        if name == "d":
            return RuleMap(self, name, lambda x: x)
        if name == "e":
            return RuleMap(self, name, lambda x: INF)
        if name[:1] == "d" and name[1:].isdecimal():
            k = int(name[1:])
            return RuleMap(self, name, lambda x: max(x, k))
        raise StructureError("chain nuclei: d, e, or dK for a natural K")

    def residual(self, x, a):
        """Largest z with z v a <= x: x itself when a <= x, otherwise nothing
        (the carrier is near residuated, not residuated)."""
        self.check(x), self.check(a)
        return x if a <= x else None


class UpsetsNat(LazyCarrier):
    """Eventually periodic subsets of the naturals under Minkowski sum.

    The decidable fragment of the power-set quantale of the additive monoid of
    naturals: a coherent, precoherent multiplicative lattice whose compact
    elements are the finite subsets.  Suprema are answered for finite families
    and for truncation families of a single limit set.
    """

    name = "upsets-nat"
    declared_profile = dict(
        sup_magma=True,
        near_sup_magma=True,
        with_annihilator=True,
        prequantale=True,
        near_prequantale=True,
        semiprequantale=True,
        multiplicative_semilattice=True,
        prequantic_semilattice=True,
        scott_topological=True,
        residuated=True,
        near_residuated=True,
        associative=True,
        commutative=True,
        unital=True,
        precoherent=True,
        coherent=True,
    )
    top = UPSet.naturals()
    bottom = UPSet.empty()
    unit = UPSet.from_finite([0])
    annihilator = UPSet.empty()
    # monoid-ideal: X -> the monoid ideal generated by X, a strict nucleus.
    # submonoid-saturation: X -> the submonoid generated by X, a finitary
    # closure but not a nucleus for the Minkowski multiplication: 2 lies in
    # sat({2}) + sat({3}) and not in sat({2} + {3}) = sat({5}).
    rules = {"monoid-ideal": UPSet.up_closure, "submonoid-saturation": UPSet.generated_submonoid}
    shipped = tuple(rules)

    def check(self, x) -> UPSet:
        if not isinstance(x, UPSet):
            raise StructureError(f"{x!r} is not an UPSet")
        return x

    def leq(self, x, y) -> bool:
        return self.check(x).issubset(self.check(y))

    def op(self, x, y):
        return self.check(x).minkowski(self.check(y))

    def is_compact(self, x) -> bool:
        return self.check(x).is_finite()

    def sup(self, family):
        if isinstance(family, FiniteFamily):
            acc = UPSet.empty()
            for x in family.members:
                acc = acc.union(self.check(x))
            return acc
        if isinstance(family, TruncationFamily):
            return family.limit
        raise UndecidableFamily(f"upsets-nat cannot take the sup of {family!r}")

    @staticmethod
    def truncate(x: UPSet, n: int) -> UPSet:
        return UPSet.from_bits(x.expand(n + 1), n + 1, 1)

    def compacts_below(self, x):
        return FiniteFamily.of([x]) if self.is_compact(x) else TruncationFamily(x)

    def image_sup(self, rule: "RuleMap", family, budget: int):
        """The value at which the images of the truncations stabilize, looked
        up again 16 truncations later; or the limit, when the rule fixes every
        truncation it saw."""
        if not isinstance(family, TruncationFamily):
            raise UndecidableFamily(f"no image-sup rule for {family!r} on {self.name}")
        limit = family.limit
        prev = None
        stable = 0
        self_similar = True
        for n, trunc in zip(range(budget), family.walk()):
            cur = rule(trunc)
            self_similar = self_similar and cur == trunc
            if cur == prev:
                stable += 1
                if stable >= 4 and rule(self.truncate(limit, n + 16)) == cur:
                    return cur
            else:
                stable = 0
            prev = cur
        far = self.truncate(limit, budget + 16)
        if self_similar and rule(far) == far:
            # The image family is the truncation family itself, whose sup is known.
            return limit
        raise IterationBudgetExceeded("truncation image sup did not stabilize in budget")

    def rule_map(self, name: str) -> "RuleMap":
        if name not in self.rules:
            raise StructureError(f"unknown upsets nucleus {name!r}; try one of {sorted(self.rules)}")
        return RuleMap(self, name, self.rules[name])

    def residual(self, x: UPSet, a: UPSet) -> UPSet:
        """The carrier is residuated: x/a always exists (the empty set has the
        whole carrier as residual)."""
        return self.check(x).residual_by(self.check(a))

    def sample(self, k: int = SAMPLE_SIZE) -> list:
        out = [
            UPSet.empty(),
            UPSet.from_finite([0]),
            UPSet.from_finite([2, 3]),
            UPSet.from_finite([1, 4, 6]),
            UPSet.tail(0),
            UPSet.tail(3),
            UPSet.arithmetic(0, 2),
            UPSet.arithmetic(1, 3),
            UPSet.arithmetic(2, 2).union(UPSet.from_finite([5])),
            UPSet.from_finite([7]),
            UPSet.arithmetic(4, 5),
            UPSet.from_finite([0, 9, 10]),
        ]
        return out[:k]

    def directed_family_samples(self) -> list:
        return [
            TruncationFamily(UPSet.tail(2)),
            TruncationFamily(UPSet.arithmetic(1, 3)),
            TruncationFamily(UPSet.from_finite([2, 3]).generated_submonoid()),
        ]


# -- rule-based maps with self-certification -----------------------------------------


@dataclass(frozen=True)
class Certificate:
    expansive: bool
    order_preserving: bool
    idempotent: bool
    multiplicative: bool
    sample_size: int

    @property
    def closure_witnessed(self) -> bool:
        return self.expansive and self.order_preserving and self.idempotent

    @property
    def nucleus_witnessed(self) -> bool:
        return self.closure_witnessed and self.multiplicative


class RuleMap:
    """A self-map of a lazy carrier given by a rule.

    Construction runs the mandatory self-certification bundle on a sample of
    describable elements; claims about being a closure or nucleus are only
    ever witnessed on those samples, never asserted globally.
    """

    kind = "lazy"

    def __init__(self, carrier: LazyCarrier, name: str, fn: Callable):
        self.carrier = carrier
        self.name = name
        self.fn = fn
        self.certificate = self._certify(SAMPLE_SIZE)

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"RuleMap({self.carrier.name}:{self.name})"

    def _certify(self, k: int) -> Certificate:
        c = self.carrier
        xs = c.sample(k)
        exp = all(c.leq(x, self.fn(x)) for x in xs)
        mono = all(
            c.leq(self.fn(x), self.fn(y)) for x in xs for y in xs if c.leq(x, y)
        )
        idem = all(self.fn(self.fn(x)) == self.fn(x) for x in xs)
        mult = all(
            c.leq(c.op(self.fn(x), self.fn(y)), self.fn(c.op(x, y))) for x in xs for y in xs
        )
        return Certificate(exp, mono, idem, mult, len(xs))


# -- lazy finitary machinery -----------------------------------------------------------


def map_family_sup(carrier: LazyCarrier, rule: RuleMap, family, budget: int = 64):
    """Supremum of the image of a directed describable family under a rule map.

    Monotone rules send directed families to directed families; a finite
    family's image sup is taken directly, and an infinite family's is detected
    by the carrier from the evaluations along the family, with the budget
    failure reported rather than guessed.
    """
    if isinstance(family, FiniteFamily):
        return carrier.sup(FiniteFamily.of([rule(x) for x in family.members]))
    return carrier.image_sup(rule, family, budget)
