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
from math import gcd
from typing import Callable, Iterable, Optional

from .errors import (
    InternalCheckError,
    IterationBudgetExceeded,
    StructureError,
    UndecidableFamily,
)

INF = float("inf")
# Rule maps are certified on this many sampled elements.
SAMPLE_SIZE = 12


# -- family descriptors --------------------------------------------------------


@dataclass(frozen=True)
class FiniteFamily:
    members: tuple

    @classmethod
    def of(cls, xs: Iterable) -> "FiniteFamily":
        return cls(tuple(xs))


@dataclass(frozen=True)
class TailFamily:
    """All chain elements >= start (a directed, cofinal family)."""

    start: int


@dataclass(frozen=True)
class TruncationFamily:
    """The directed family of finite truncations S intersect [0, n] of an UPSet."""

    limit: "UPSet"


# -- eventually periodic subsets of the naturals ---------------------------------


class UPSet:
    """Eventually periodic subset of the naturals in canonical normal form.

    n is a member iff n < threshold and bit n of head is set, or n >= threshold
    and n % period is in residues.  Canonical means the period is minimal and
    the threshold is as small as possible, so structural equality is set
    equality.
    """

    __slots__ = ("head", "threshold", "period", "residues")

    def __init__(self, head: int, threshold: int, period: int, residues: Iterable[int]):
        if period <= 0 or threshold < 0:
            raise StructureError("UPSet needs period >= 1 and threshold >= 0")
        res = frozenset(r % period for r in residues)
        head &= (1 << threshold) - 1
        head, threshold, period, res = self._canonicalize(head, threshold, period, res)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", res)

    def __setattr__(self, *a):
        raise AttributeError("UPSet is immutable")

    @staticmethod
    def _canonicalize(head: int, threshold: int, period: int, residues: frozenset):
        # Minimal period: smallest divisor whose residue pattern repeats.
        pattern = [r in residues for r in range(period)]
        for d in range(1, period + 1):
            if period % d == 0 and all(pattern[i] == pattern[i % d] for i in range(period)):
                period = d
                residues = frozenset(i for i in range(d) if pattern[i])
                break
        # Minimal threshold: absorb head bits that already follow the pattern.
        while threshold > 0:
            n = threshold - 1
            in_head = bool((head >> n) & 1)
            in_tail = (n % period) in residues
            if in_head != in_tail:
                break
            threshold = n
            head &= (1 << threshold) - 1
        return head, threshold, period, residues

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls) -> "UPSet":
        return cls(0, 0, 1, ())

    @classmethod
    def naturals(cls) -> "UPSet":
        return cls(0, 0, 1, (0,))

    @classmethod
    def from_finite(cls, xs: Iterable[int]) -> "UPSet":
        xs = sorted(set(xs))
        if any(x < 0 for x in xs):
            raise StructureError("UPSet members must be naturals")
        head = 0
        for x in xs:
            head |= 1 << x
        t = xs[-1] + 1 if xs else 0
        return cls(head, t, 1, ())

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
        return (n % self.period) in self.residues

    def expand(self, horizon: int) -> int:
        """Membership bitmask for [0, horizon)."""
        out = self.head & ((1 << min(self.threshold, horizon)) - 1)
        for n in range(self.threshold, horizon):
            if (n % self.period) in self.residues:
                out |= 1 << n
        return out

    def elements_below(self, horizon: int) -> list:
        return [n for n in range(horizon) if n in self]

    def is_empty(self) -> bool:
        return self.head == 0 and not self.residues

    def is_finite(self) -> bool:
        return not self.residues

    def finite_elements(self) -> list:
        if not self.is_finite():
            raise StructureError("UPSet is infinite")
        return self.elements_below(self.threshold)

    def min(self) -> Optional[int]:
        if self.head:
            return (self.head & -self.head).bit_length() - 1
        if self.residues:
            for n in range(self.threshold, self.threshold + self.period):
                if (n % self.period) in self.residues:
                    return n
        return None

    def __eq__(self, other):
        return (
            isinstance(other, UPSet)
            and self.head == other.head
            and self.threshold == other.threshold
            and self.period == other.period
            and self.residues == other.residues
        )

    def __hash__(self):
        return hash((self.head, self.threshold, self.period, self.residues))

    def __repr__(self):
        if self.is_finite():
            return f"UPSet{set(self.finite_elements()) if self.head else '{}'}"
        return (
            f"UPSet(head={bin(self.head)}, t={self.threshold}, "
            f"p={self.period}, r={sorted(self.residues)})"
        )

    # -- boolean algebra -----------------------------------------------------------

    def _aligned(self, other: "UPSet"):
        period = _lcm(self.period, other.period)
        threshold = max(self.threshold, other.threshold)
        return period, threshold

    def union(self, other: "UPSet") -> "UPSet":
        period, threshold = self._aligned(other)
        head = self.expand(threshold) | other.expand(threshold)
        # Residue classes mod period, decided on representatives >= threshold.
        reps = []
        for r in range(period):
            n = threshold + ((r - threshold) % period)
            if n in self or n in other:
                reps.append(n % period)
        return UPSet(head, threshold, period, reps)

    def intersection(self, other: "UPSet") -> "UPSet":
        period, threshold = self._aligned(other)
        head = self.expand(threshold) & other.expand(threshold)
        reps = []
        for r in range(period):
            n = threshold + ((r - threshold) % period)
            if n in self and n in other:
                reps.append(n % period)
        return UPSet(head, threshold, period, reps)

    def issubset(self, other: "UPSet") -> bool:
        return self.intersection(other) == self

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
        a_bits = self.expand(horizon)
        b_bits = other.expand(horizon)
        out = 0
        mask = (1 << horizon) - 1
        rest = a_bits
        while rest:
            low = rest & -rest
            out |= (b_bits << (low.bit_length() - 1)) & mask
            rest ^= low
        if (out >> stable) & ((1 << period) - 1) != (out >> (stable + period)) & (
            (1 << period) - 1
        ):
            raise InternalCheckError("Minkowski sum missed its periodicity bound")
        residues = [n % period for n in range(stable, stable + period) if (out >> n) & 1]
        result = UPSet(out & ((1 << stable) - 1), stable, period, residues)
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
        alphas = other.elements_below(alpha_horizon)

        def member(n: int) -> bool:
            return all((n + a) in self for a in alphas)

        head = 0
        for n in range(self.threshold):
            if member(n):
                head |= 1 << n
        residues = [
            n % self.period
            for n in range(self.threshold, self.threshold + self.period)
            if member(n)
        ]
        out = UPSet(head, self.threshold, self.period, residues)
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
        gens = [x for x in self.elements_below(horizon) if x > 0]
        reach = 1  # bit n set iff n is a sum of generators
        for n in range(1, horizon):
            for x in gens:
                if x > n:
                    break
                if (reach >> (n - x)) & 1:
                    reach |= 1 << n
                    break
        period = max(g, 1)
        residues = [n % period for n in range(stable, stable + period) if (reach >> n) & 1]
        out = UPSet(reach & ((1 << stable) - 1), stable, period, residues)
        if out.expand(horizon) != reach:
            raise InternalCheckError("submonoid normal form does not reproduce the sweep")
        return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# -- lazy carrier protocol ---------------------------------------------------------


class LazyCarrier:
    """Shared interface: order oracle, describable sups, compactness, declared flags."""

    kind = "lazy"
    name = "lazy"

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

    def truncate(self, x: UPSet, n: int) -> UPSet:
        return x.intersection(UPSet.from_finite(range(n + 1))) if n >= 0 else UPSet.empty()

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


def chain_rule_map(name: str, fn: Callable) -> RuleMap:
    return RuleMap(ChainOmega(), name, fn)


def upsets_ideal_map(carrier: Optional[UpsetsNat] = None) -> RuleMap:
    """X -> monoid ideal generated by X; a strict nucleus on the Minkowski carrier."""
    return RuleMap(carrier or UpsetsNat(), "monoid-ideal", lambda x: x.up_closure())


def upsets_saturation_map(carrier: Optional[UpsetsNat] = None) -> RuleMap:
    """X -> submonoid generated by X.

    A finitary closure operation on the carrier, but not a nucleus for the
    Minkowski multiplication: 2 lies in sat({2}) + sat({3}) and not in
    sat({2} + {3}) = sat({5}).
    """
    return RuleMap(carrier or UpsetsNat(), "submonoid-saturation", lambda x: x.generated_submonoid())


# -- lazy finitary machinery -----------------------------------------------------------


def map_family_sup(carrier: LazyCarrier, rule: RuleMap, family, budget: int = 64):
    """Supremum of the image of a directed describable family under a rule map.

    Monotone rules send directed families to directed families; the image
    supremum is detected by stabilization of the evaluations along the family,
    with the budget failure reported rather than guessed.
    """
    if isinstance(family, FiniteFamily):
        return carrier.sup(FiniteFamily.of([rule(x) for x in family.members]))
    if isinstance(carrier, ChainOmega) and isinstance(family, TailFamily):
        # Expansive rules have unbounded image along a tail, so the sup is top;
        # otherwise detect stabilization at top.
        values = [rule(n) for n in range(family.start, family.start + budget)]
        if INF in values:
            return INF
        if all(carrier.leq(n, v) for n, v in zip(range(family.start, family.start + budget), values)):
            return INF
        raise IterationBudgetExceeded("tail image sup did not resolve in budget")
    if isinstance(carrier, UpsetsNat) and isinstance(family, TruncationFamily):
        limit = family.limit
        prev = None
        stable = 0
        self_similar = True
        for n in range(budget):
            trunc = carrier.truncate(limit, n)
            cur = rule(trunc)
            self_similar = self_similar and cur == trunc
            if cur == prev:
                stable += 1
                if stable >= 4 and rule(carrier.truncate(limit, n + 16)) == cur:
                    return cur
            else:
                stable = 0
            prev = cur
        if self_similar and rule(carrier.truncate(limit, budget + 16)) == carrier.truncate(
            limit, budget + 16
        ):
            # The image family is the truncation family itself, whose sup is known.
            return limit
        raise IterationBudgetExceeded("truncation image sup did not stabilize in budget")
    raise UndecidableFamily(f"no image-sup rule for {family!r} on {carrier.name}")
