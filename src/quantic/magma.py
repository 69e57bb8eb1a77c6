"""Ordered magmas over finite posets: classification, residuals, special subsets.

Every class flag is decided by its defining condition and, on small carriers,
cross-validated against an equivalent characterization; a disagreement raises
InternalCheckError because the equivalences are theorems, not heuristics.
The special subsets and morphisms read the shared kernels: whole byte rows
composed by bytes.translate, and up-lane codes ANDed a line at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, product
from operator import and_, ne
from typing import Iterable, Optional, Sequence, Tuple

from .errors import CarrierTooLarge, InternalCheckError, NoUnit, StructureError
from .poset import EXHAUSTIVE_CAP, FinitePoset, bits, carrier_label, order_preserving, order_preserving_each
from .poset import broken, id_mask, lane_segments, mask_row, read_code, sup_misses, translate_table


@dataclass(frozen=True)
class ClassificationProfile:
    sup_magma: bool
    near_sup_magma: bool
    dcpo_magma: bool
    bounded_complete: bool
    bounded_above: bool
    with_annihilator: bool
    prequantale: bool
    near_prequantale: bool
    semiprequantale: bool
    prequantic_semilattice: bool
    multiplicative_semilattice: bool
    scott_topological: bool
    residuated: bool
    near_residuated: bool
    associative: bool
    commutative: bool
    unital: bool
    precoherent: bool

    # Derived composite classes.
    @property
    def quantale(self) -> bool:
        return self.prequantale and self.associative

    @property
    def near_quantale(self) -> bool:
        return self.near_prequantale and self.associative

    @property
    def semiquantale(self) -> bool:
        return self.semiprequantale and self.associative

    @property
    def multiplicative_lattice(self) -> bool:
        return self.quantale and self.commutative and self.unital

    @property
    def near_multiplicative_lattice(self) -> bool:
        return self.near_quantale and self.commutative and self.unital

    @property
    def semimultiplicative_lattice(self) -> bool:
        return self.semiquantale and self.commutative and self.unital

    @property
    def coherent(self) -> bool:
        # On finite carriers the unit is always compact.
        return self.precoherent and self.unital

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        for k in (
            "quantale",
            "near_quantale",
            "semiquantale",
            "multiplicative_lattice",
            "near_multiplicative_lattice",
            "semimultiplicative_lattice",
            "coherent",
        ):
            d[k] = getattr(self, k)
        return d


# Arrows of the implication diagrams among ordered-magma classes, as
# (antecedent flags) -> (consequent flags).  Checked over every constructed
# carrier; a violation is an internal error.
PROFILE_IMPLICATIONS = [
    (("prequantale",), ("near_prequantale", "sup_magma", "residuated", "with_annihilator")),
    (("near_prequantale",), ("semiprequantale", "near_sup_magma", "near_residuated", "scott_topological")),
    (("semiprequantale",), ("multiplicative_semilattice", "bounded_complete")),
    (("prequantic_semilattice",), ("multiplicative_semilattice", "with_annihilator")),
    (("multiplicative_semilattice", "with_annihilator"), ("prequantic_semilattice",)),
    (("near_prequantale", "with_annihilator"), ("prequantale",)),
    (("residuated",), ("near_residuated",)),
    (("sup_magma",), ("near_sup_magma",)),
    (("near_sup_magma",), ("dcpo_magma", "bounded_complete", "bounded_above")),
    (("bounded_complete", "bounded_above"), ("near_sup_magma",)),
    (("prequantale",), ("prequantic_semilattice",)),
]


@dataclass(frozen=True)
class Residual:
    """left = x/a (largest z with z*a <= x), right = a\\x (largest z with a*z <= x)."""

    left: Optional[int]
    right: Optional[int]


@dataclass(frozen=True)
class ResidualTable:
    """Every residual of a finite carrier, from one scan of the defining sets.

    at[x][a] is the Residual of x by a; a side is None where its defining set
    is empty or has no greatest element.  The carrier is residuated when every
    defining set has a greatest element, and near residuated when every
    nonempty one does.
    """

    at: tuple
    residuated: bool
    near_residuated: bool


@dataclass(frozen=True)
class DistinguishedSets:
    units: tuple          # U(M): both translations are poset automorphisms
    invertible: tuple     # Inv(M)
    idempotents: tuple
    r_set: Optional[tuple]  # R(M) = idempotents >= 1, None when no unit


class OrderedMagma:
    """A finite poset plus an order-compatible multiplication table.

    The unit and annihilator are detected, never declared, so derived
    structures cannot carry stale flags.
    """

    def __init__(self, poset: FinitePoset, mul: Sequence[Sequence[int]], name: str = ""):
        n = poset.n
        if len(mul) != n or any(len(row) != n for row in mul):
            raise StructureError("multiplication table shape does not match carrier")
        for row in mul:
            poset.check_ids(row)
        self.poset = poset
        # The product, built here only: ids fit in a byte (n <= ENUM_CAP), so
        # mul[x] is row x as bytes, flat is the n*n table with row x first
        # and cols[y] is column y, x -> xy.
        self.mul = tuple(map(bytes, mul))
        self.flat = b"".join(self.mul)
        self.cols = tuple(self.flat[y::n] for y in range(n))
        self.name = name
        self._validate_compat()
        self.unit = self._find_unit()
        self.annihilator = self._find_annihilator()

    def _validate_compat(self):
        """Each column x -> xy and each row x -> yx of the product preserves
        the order.  A failure names the first broken (x, x2, y) in the order
        of the pairs x < x2, then y, the column (right factor y) first."""
        p, n = self.poset, self.n
        lines = self.cols + self.mul
        if all(order_preserving_each(p, lines)):
            return
        x, x2, y, side = next(
            (x, x2, y, side)
            for x, x2 in zip(*p.order_pairs)
            for y in range(n)
            for side in (0, 1)
            if not p.leq(lines[side * n + y][x], lines[side * n + y][x2])
        )
        line = lines[side * n + y]
        raise StructureError(
            f"multiplication not order-compatible: {x} <= {x2} "
            f"but not {line[x]} <= {line[x2]} ({('right', 'left')[side]} factor {y})"
        )

    def _find_unit(self) -> Optional[int]:
        identity = bytes(range(self.n))
        return next((u for u in range(self.n) if self.mul[u] == self.cols[u] == identity), None)

    def _find_annihilator(self) -> Optional[int]:
        b = self.poset.bottom
        if b is not None and self.mul[b] == self.cols[b] == bytes([b]) * self.n:
            return b
        return None

    # -- plumbing ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

    def op(self, x: int, y: int) -> int:
        return self.mul[x][y]

    def leq(self, x: int, y: int) -> bool:
        return self.poset.leq(x, y)

    def label(self, x: int) -> str:
        return self.poset.labels[x]

    def __repr__(self):
        return f"OrderedMagma({self.name or self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, OrderedMagma)
            and self.poset == other.poset
            and self.mul == other.mul
        )

    def __hash__(self):
        return hash((self.poset, self.mul))

    # -- classification ------------------------------------------------------

    @cached_property
    def profile(self) -> ClassificationProfile:
        return classify(self)

    @cached_property
    def row_tables(self) -> tuple:
        """Each row of mul padded to 256 bytes: row x as a bytes.translate table."""
        return tuple(map(translate_table, self.mul))

    @cached_property
    def residuals(self) -> ResidualTable:
        """The residual table; each entry is checked against the adjunction as it is built.

        The defining set {z : z*a <= x} is column a of the product translated
        through the 0/1 row of down[x], one bytes.translate, and {z : a*z <= x}
        is row a translated likewise.  Both are down-sets, the product being
        monotone, so their greatest elements are read from principal_down,
        keyed by row.
        """
        p, n, mul, cols = self.poset, self.n, self.mul, self.cols
        greatest = {mask_row(d, n): x for d, x in p.principal_down.items()}
        below = p.down_rows
        empty = bytes(n)
        residuated = near = True
        out = []
        for x in range(n):
            row = []
            for a in range(n):
                left_set, right_set = cols[a].translate(below[x]), mul[a].translate(below[x])
                left, right = greatest.get(left_set), greatest.get(right_set)
                if left is None or right is None:
                    residuated = False
                    for defining, r in ((left_set, left), (right_set, right)):
                        near = near and (r is not None or defining == empty)
                if left is not None and not p.leq(mul[left][a], x):
                    raise InternalCheckError(
                        f"residual adjunction violated on the left on {carrier_label(self)}: "
                        f"(x, a, residual) = {(x, a, left)}"
                    )
                if right is not None and not p.leq(mul[a][right], x):
                    raise InternalCheckError(
                        f"residual adjunction violated on the right on {carrier_label(self)}: "
                        f"(x, a, residual) = {(x, a, right)}"
                    )
                row.append(Residual(left, right))
            out.append(tuple(row))
        return ResidualTable(tuple(out), residuated, near)

    def complex_mul_mask(self, xmask: int, ymask: int) -> int:
        """Elementwise product set XY as a mask."""
        out = 0
        for x in bits(xmask):
            row = self.mul[x]
            for y in bits(ymask):
                out |= 1 << row[y]
        return out

    def submagma_closure(self, mask: int) -> int:
        """Smallest multiplication-closed superset of mask."""
        while True:
            grown = mask | self.complex_mul_mask(mask, mask)
            if grown == mask:
                return mask
            mask = grown

    def translations(self):
        """All left and right translation tables L_a, R_a, as byte rows."""
        return [line for pair in zip(self.mul, self.cols) for line in pair]


def generated_monoid(carrier, gens: Sequence[bytes], cap: Optional[int] = None) -> set:
    """The self-maps of the carrier's ids generated by the tables gens under
    composition, saturated to a fixpoint, as bytes tables.  Each frontier map
    f is composed with every generator g, h = g o f = f.translate(g padded);
    more than cap maps is an internal error."""
    identity = bytes(range(carrier.n))
    after = [translate_table(g) for g in gens]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for f in frontier:
            for g in after:
                h = f.translate(g)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
                    if cap is not None and len(seen) > cap:
                        raise broken(carrier, "monoid saturation blew the cap")
        frontier = new
    return seen


def residual(m: OrderedMagma, x: int, a: int) -> Residual:
    """Left and right residuals, read from the carrier's residual table."""
    return m.residuals.at[x][a]


def _translations_preserve_existing_sups(m: OrderedMagma) -> Tuple[bool, bool]:
    """Whether a(sup X) == sup(aX) and (sup X)a == sup(Xa) for every nonempty X,
    and for every X, whose sup exists; one exhaustive walk over the subsets."""
    every = True
    for mask in _translation_failures(m):
        if mask:
            return False, False
        every = False
    return True, every


def _translation_failures(m: OrderedMagma):
    """Every subset X, in walk order, whose sup s exists and some translation
    of which misses it: a s != sup(aX) or s a != sup(Xa).  sup_misses carries
    the upper bounds of the 2n sets aX and Xa, lane a and lane n + a of one
    packed int, and cols[s], the lane code of up[a s] and up[s a] over a,
    decides every translation in one comparison."""
    p, n = m.poset, m.n
    cols = list(map(read_code, lane_segments(p.up_lanes, list(map(bytes.__add__, m.cols, m.mul)))))
    return sup_misses(p, cols, p.universe_code(2 * n))


def _distributes_over_finite_nonempty(m: OrderedMagma) -> bool:
    """Multiplicative-semilattice law a(x v y) = ax v ay, (x v y)a = xa v ya."""
    return m.poset.flags.join_semilattice and next(_law_failures(m), None) is None


def _law_failures(m: OrderedMagma):
    """Every pair of ids x <= y of a join semilattice breaking the law for
    some a, by rows then columns.  As up[u v w] = up[u] & up[w], line x v y
    is the joins of lines x and y exactly when their up-lane codes have
    code[join[x][y]] = code[x] & code[y]: one AND a pair."""
    p, n = m.poset, m.n
    codes = list(map(read_code, lane_segments(p.up_lanes, m.mul + m.cols)))
    joins = [j for row in p.join_table for j in row]
    for c in (codes[:n], codes[n:]):
        joined, anded = [c[j] for j in joins], [u & w for u in c for w in c]
        if joined != anded:
            pairs = compress(product(range(n), repeat=2), map(ne, joined, anded))
            yield from ((x, y) for x, y in pairs if x <= y)


def _parting_subset(m: OrderedMagma, scan_np: bool, near_prequantale: bool) -> list:
    """Where the translation scan and the pairwise law part ways: the first
    nonempty subset the scan fails when only the law holds, the first pair
    the law fails when only the scan holds, else the empty set."""
    if near_prequantale and not scan_np:
        return next((list(bits(mask)) for mask in _translation_failures(m) if mask), [])
    if scan_np and not near_prequantale:
        return list(next(_law_failures(m), ()))
    return []


def classify(m: OrderedMagma) -> ClassificationProfile:
    """Full Table-style classification with theorem cross-validation."""
    p = m.poset
    pf = p.flags
    n = m.n

    mul = m.mul
    # (xy)z == x(yz) for every z at once: row xy against row y read through row x.
    associative = all(
        mul[xy] == mul[y].translate(tx) for mx, tx in zip(mul, m.row_tables) for y, xy in enumerate(mx)
    )
    commutative = mul == m.cols
    unital = m.unit is not None
    with_annihilator = m.annihilator is not None

    residuated, near_residuated = m.residuals.residuated, m.residuals.near_residuated

    mult_semilattice = _distributes_over_finite_nonempty(m)
    # On a finite carrier every nonempty subset is finite and a join
    # semilattice has a top, so the near-prequantale and semiprequantale
    # conditions both reduce to the multiplicative-semilattice law.
    near_prequantale = mult_semilattice
    semiprequantale = mult_semilattice
    prequantic_semilattice = mult_semilattice and with_annihilator
    prequantale = near_prequantale and with_annihilator

    # Cross-validation: each equality below is a proposition about ordered
    # magmas, so a mismatch is a library bug.
    if near_prequantale != (pf.near_sup_complete and near_residuated):
        raise broken(m, "near-prequantale characterizations disagree")
    if prequantale != (pf.complete and residuated):
        raise broken(m, "prequantale characterizations disagree")
    if n <= EXHAUSTIVE_CAP:
        scan_np, scan_all = (
            _translations_preserve_existing_sups(m) if pf.near_sup_complete else (False, False)
        )
        if scan_np != near_prequantale or (pf.complete and scan_all) != prequantale:
            raise InternalCheckError(
                f"subset-scan classification disagrees with pairwise on {carrier_label(m)}, "
                f"first parting subset {_parting_subset(m, scan_np, near_prequantale)}"
            )

    profile = ClassificationProfile(
        sup_magma=pf.complete,
        near_sup_magma=pf.near_sup_complete,
        dcpo_magma=True,
        bounded_complete=pf.bounded_complete,
        bounded_above=pf.bounded_above,
        with_annihilator=with_annihilator,
        prequantale=prequantale,
        near_prequantale=near_prequantale,
        semiprequantale=semiprequantale,
        prequantic_semilattice=prequantic_semilattice,
        multiplicative_semilattice=mult_semilattice,
        scott_topological=True,
        residuated=residuated,
        near_residuated=near_residuated,
        associative=associative,
        commutative=commutative,
        unital=unital,
        precoherent=True,
    )
    check_profile_implications(profile, carrier_label(m))
    return profile


def check_profile_implications(profile: ClassificationProfile, name: str = ""):
    for antecedents, consequents in PROFILE_IMPLICATIONS:
        if all(getattr(profile, a) for a in antecedents):
            for c in consequents:
                if not getattr(profile, c):
                    raise InternalCheckError(
                        f"implication diagram violated on {name or 'carrier'}: "
                        f"{antecedents} => {c}"
                    )


def is_sup_spanning(m: OrderedMagma, sigma: Iterable[int]) -> bool:
    """xy = sup{ay : a in Sigma, a <= x} = sup{xb : b in Sigma, b <= y} for all x, y.
    Over the up-lane codes of the rows and columns (the layout of _law_failures),
    line x is the joins of the lines in Sigma below x exactly when the AND of
    their codes, from the universe, is the code of line x."""
    p, n = m.poset, m.n
    smask, start = id_mask(sigma), p.universe_code(n)
    codes = list(map(read_code, lane_segments(p.up_lanes, m.mul + m.cols)))
    return all(
        reduce(and_, (c[a] for a in bits(smask & down)), start) == c[x]
        for c in (codes[:n], codes[n:])
        for x, down in enumerate(p.down)
    )


def distinguished_sets(m: OrderedMagma) -> DistinguishedSets:
    """U(M), Inv(M), Idem(M) and R(M).  U(M): the ids whose row and column are
    permutations that, with their inverses, preserve the order, four tables a
    candidate in one order_preserving_each.  Inv(M): u has a v whose row and
    column compose with u's both ways to the identity, one translate a side."""
    p, n, mul, cols = m.poset, m.n, m.mul, m.cols
    identity = bytes(range(n))
    perms = [u for u in range(n) if len(set(mul[u])) == len(set(cols[u])) == n]
    autos = [
        t
        for u in perms
        for line in (mul[u], cols[u])
        for t in (line, identity.translate(bytes.maketrans(line, identity)))
    ]
    kept = order_preserving_each(p, autos)
    units = [u for i, u in enumerate(perms) if all(kept[4 * i : 4 * i + 4])]
    rows, col_tables = m.row_tables, list(map(translate_table, cols))
    invertible = [
        u
        for u in range(n)
        if any(
            mul[u].translate(rows[v]) == mul[v].translate(rows[u]) == identity
            and cols[u].translate(col_tables[v]) == cols[v].translate(col_tables[u]) == identity
            for v in range(n)
        )
    ]
    if not set(invertible) <= set(units):
        raise broken(m, "Inv(M) not contained in U(M)")
    idem = [x for x in range(n) if m.op(x, x) == x]
    r_set = None if m.unit is None else tuple(bits(r_set_mask(m)))
    return DistinguishedSets(tuple(units), tuple(invertible), tuple(idem), r_set)


def r_set_mask(m: OrderedMagma) -> int:
    """R(M), the idempotents above the unit, as a mask."""
    if m.unit is None:
        raise NoUnit("R(M) needs a unit")
    return id_mask(x for x in range(m.n) if m.op(x, x) == x and m.leq(m.unit, x))


def is_cyclic_element(m: OrderedMagma, a: int):
    """xy <= a implies yx <= a; counterexamples reported in lexicographic order."""
    p = m.poset
    for x in range(m.n):
        for y in range(m.n):
            if p.leq(m.op(x, y), a) and not p.leq(m.op(y, x), a):
                return False, (x, y)
    return True, None


# -- derived carriers --------------------------------------------------------


def adjoin_annihilator(m: OrderedMagma, label: str = "0") -> OrderedMagma:
    """M_0 = M with a new absorbing bottom; the profile is re-derived, not patched."""
    n = m.n
    rows = [[m.leq(i, j) for j in range(n)] + [False] for i in range(n)]
    rows.append([True] * (n + 1))
    poset = FinitePoset(rows, list(m.poset.labels) + [label])
    mul = [[m.op(i, j) for j in range(n)] + [n] for i in range(n)]
    mul.append([n] * (n + 1))
    return OrderedMagma(poset, mul, name=f"{m.name}+0" if m.name else "adjoin0")


# -- morphisms ----------------------------------------------------------------


class MagmaMorphism:
    """A verified structure-preserving map between two finite ordered magmas,
    stored as a table of bytes, byte x the target id of the image of x."""

    def __init__(self, source: OrderedMagma, target: OrderedMagma, table: Sequence[int]):
        if len(table) != source.n:
            raise StructureError("morphism table length does not match source")
        target.poset.check_ids(table)
        self.source = source
        self.target = target
        self.table = bytes(table)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def is_order_preserving(self) -> bool:
        return order_preserving(self.source.poset, self.table, self.target.poset)

    def is_magma_hom(self) -> bool:
        """f(xy) = f(x)f(y): row x of the source read through f against f
        read through row f(x) of the target, one compare a row."""
        f, rows = self.table, self.target.row_tables
        pad = translate_table(f)
        return all(row.translate(pad) == f.translate(rows[fx]) for row, fx in zip(self.source.mul, f))

    def preserves_sups(self) -> bool:
        """Exhaustive check that f(sup X) = sup f(X) for every nonempty X whose
        sup exists: any() passes over the empty set's mask, 0."""
        sp, tp = self.source.poset, self.target.poset
        if sp.n > EXHAUSTIVE_CAP:
            raise CarrierTooLarge(
                f"morphism sup-check capped at {EXHAUSTIVE_CAP} elements, "
                f"refused on {carrier_label(self.source)}"
            )
        return not any(sup_misses(sp, [tp.up[v] for v in self.table], tp.universe))

    def compose(self, inner: "MagmaMorphism") -> "MagmaMorphism":
        if inner.target is not self.source and inner.target != self.source:
            raise StructureError("morphism composition mismatch")
        composed = inner.table.translate(translate_table(self.table))
        return MagmaMorphism(inner.source, self.target, composed)
