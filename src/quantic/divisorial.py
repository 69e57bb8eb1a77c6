"""Divisorial closure v(a), its finitary and stable companions, and simplicity.

Every strategy with satisfied hypotheses is computed and the results are
compared; strategy disagreement is an internal error, naming the carrier and
its size, because the agreement is a theorem.  The Lin and sandwich
strategies share one witness kernel, _sups_of_supersets; the double-residual
and unit-sandwich strategies are independent of it and of each other.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .errors import HypothesisNotMet
from .magma import (
    OrderedMagma,
    distinguished_sets,
    generated_monoid,
    is_cyclic_element,
    is_sup_spanning,
)
from .nucleus import (
    MonotoneMap,
    _broken,
    _certified,
    _nuclei_of,
    enumerate_nuclei,
    nuclei_meet,
    per_carrier,
)
from .finitary import star_f
from .poset import bits, id_mask, row_mask

# More translation-monoid maps than this is an internal error.
LIN_CAP = 100_000


class CyclicityReport(NamedTuple):
    is_cyclic: bool
    counterexample: Optional[Tuple[int, int]]


def is_cyclic(m: OrderedMagma, a: int) -> CyclicityReport:
    """xy <= a implies yx <= a, cross-checked via residual symmetry when available."""
    ok, witness = is_cyclic_element(m, a)
    if m.profile.near_residuated:
        symmetric = m.residuals.left[a] == m.residuals.right[a]
        if symmetric != ok:
            raise _broken(m, "cyclicity characterizations disagree")
    return CyclicityReport(ok, witness)


# -- divisorial closure -------------------------------------------------------


@per_carrier
def lin_monoid(m: OrderedMagma) -> Tuple[bytes, ...]:
    """The monoid generated by left and right translations, saturated to a
    fixpoint under LIN_CAP maps; built once per carrier object, every call
    returns the stored tuple."""
    return tuple(sorted(generated_monoid(m, m.translations(), LIN_CAP)))


def v_lin(q: OrderedMagma, a: int) -> MonotoneMap:
    """General strategy on a near prequantale: y counts toward x's closure when
    every generated translation sending x under a also sends y under a.  The
    witnesses are the maps of lin_monoid; column x holds f(x) for each."""
    q.poset.check_ids([a])
    if not q.profile.near_prequantale:
        raise HypothesisNotMet("the Lin strategy needs a near prequantale")
    flat, n = b"".join(lin_monoid(q)), q.n
    return MonotoneMap(q, _sups_of_supersets(q, [flat[x::n] for x in range(n)], a, "Lin-strategy"))


def _sups_of_supersets(q: OrderedMagma, columns: list, a: int, strategy: str) -> list:
    """x -> sup{y : constrained[y] contains constrained[x]}, for every x, where
    columns[x] holds w(x) for every witness w and bit i of constrained[x] is
    set when witness i sends x under a: columns[x] read through the 0/1 row
    of down[a]."""
    below_a = q.poset.down_rows[a]
    constrained = [row_mask(col.translate(below_a)) for col in columns]
    table = []
    for cx in constrained:
        v = q.poset.sup_mask(id_mask(y for y, cy in enumerate(constrained) if not cx & ~cy))
        if v is None:
            raise _broken(q, f"{strategy} supremum missing")
        table.append(v)
    return table


def v_rs(q: OrderedMagma, a: int) -> MonotoneMap:
    """Sandwich strategy on a unital near quantale: quantify over r x s <= a.
    The witnesses are the pairs (r, s), r*n + s: column x is the rows of r x
    joined over r."""
    q.poset.check_ids([a])
    prof = q.profile
    if not (prof.unital and prof.associative and prof.near_prequantale):
        raise HypothesisNotMet("the sandwich strategy needs a unital near quantale")
    columns = [b"".join(map(q.mul.__getitem__, col)) for col in q.cols]
    return MonotoneMap(q, _sups_of_supersets(q, columns, a, "sandwich-strategy"))


def v_residual(q: OrderedMagma, a: int) -> MonotoneMap:
    """Double-residual strategy for a cyclic on a (near) residuated ordered monoid."""
    q.poset.check_ids([a])
    prof = q.profile
    if not (prof.unital and prof.associative):
        raise HypothesisNotMet("the double-residual strategy needs an ordered monoid")
    if not (prof.residuated or (prof.near_residuated and q.poset.top is not None)):
        raise HypothesisNotMet(
            "the double-residual strategy needs residuation or a top with near residuation"
        )
    report = is_cyclic(q, a)
    if not report.is_cyclic:
        raise HypothesisNotMet(
            f"element is not cyclic, counterexample pair {report.counterexample}"
        )
    top, left, right = q.poset.top, q.residuals.left[a], q.residuals.right[a]
    table = []
    for over_x, under_x in zip(left, right):
        if over_x is None or under_x is None:
            table.append(top)
            continue
        if (back := left[over_x]) is None:
            raise _broken(q, "a/(a/x) missing although a/x exists")
        table.append(back)
    return MonotoneMap(q, table)


def v_units(q: OrderedMagma, a: int) -> MonotoneMap:
    """Unit-sandwich strategy on an associative unital near U-lattice: x ->
    the infimum of the sandwiches u a v, u and v units, above x."""
    q.poset.check_ids([a])
    prof = q.profile
    if not (prof.unital and prof.associative and prof.near_sup_magma):
        raise HypothesisNotMet("the unit-sandwich strategy needs a unital near sup-magma")
    units, spanning = _units_and_spanning(q)
    if not spanning:
        raise HypothesisNotMet("U(Q) is not sup-spanning")
    p, mul = q.poset, q.mul
    sandwiches = id_mask(mul[mul[u][a]][w] for u in units for w in units)
    # The empty infimum is the top of the carrier, None when there is none.
    table = [p.inf_mask(sandwiches & up) for up in p.up]
    if None in table:
        raise _broken(q, "unit-sandwich infimum missing")
    return MonotoneMap(q, table)


@per_carrier
def _units_and_spanning(q: OrderedMagma) -> Tuple[tuple, bool]:
    """U(Q) and whether it is sup-spanning: both depend on q alone."""
    units = distinguished_sets(q).units
    return units, is_sup_spanning(q, units)


STRATEGIES = {"lin": v_lin, "rs": v_rs, "residual": v_residual, "units": v_units}


def v(q: OrderedMagma, a: int, strategy: str = "all") -> MonotoneMap:
    """Coarsest nucleus fixing a.  With strategy "all", every applicable
    strategy is computed and compared, once per carrier object and element;
    a foreign id is refused before the store is read."""
    q.poset.check_ids([a])
    if strategy != "all":
        return _checked_v(q, a, STRATEGIES[strategy](q, a))
    return _v_all(q, a)


@per_carrier
def _v_all(q: OrderedMagma, a: int) -> MonotoneMap:
    results: Dict[str, MonotoneMap] = {}
    for name, fn in STRATEGIES.items():
        try:
            results[name] = fn(q, a)
        except HypothesisNotMet:
            continue
    if not results:
        raise HypothesisNotMet("no divisorial strategy applies to this carrier")
    tables = {s.table for s in results.values()}
    if len(tables) > 1:
        raise _broken(q, f"divisorial strategies disagree: {results}")
    return _checked_v(q, a, next(iter(results.values())))


def _checked_v(q: OrderedMagma, a: int, out: MonotoneMap) -> MonotoneMap:
    out = _certified(q, out.table, "divisorial closure")
    if out.table[a] != a:
        raise _broken(q, "divisorial closure does not fix its element")
    return out


def divisorial_decomposition(q: OrderedMagma, s: MonotoneMap) -> list:
    """Return the fixed elements of s and assert s = meet of their divisorial closures."""
    _nuclei_of(q, [s], "divisorial_decomposition")
    fixed = sorted(set(s.table))
    met = nuclei_meet(q, [v(q, a) for a in fixed])
    if met.table != s.table:
        raise _broken(q, "meet of divisorial closures over the image missed the nucleus")
    return fixed


# -- simplicity ----------------------------------------------------------------


class SimplicityReport(NamedTuple):
    simple: bool
    routes: dict


def is_simple(q: OrderedMagma) -> SimplicityReport:
    """Three routes compared: nucleus count, divisorial triviality, double residuals."""
    if not q.profile.near_prequantale:
        raise HypothesisNotMet("simplicity is defined here for near prequantales")
    p = q.poset
    routes = {}
    nuclei = enumerate_nuclei(q)
    routes["nucleus-count"] = len(nuclei) <= 2
    top = p.top
    identity = MonotoneMap.identity(q)
    routes["divisorial"] = all(v(q, a) == identity for a in range(q.n) if a != top)
    if q.profile.near_multiplicative_lattice:
        # x/(x/y) == y for all x, y below the top.
        left = q.residuals.left
        routes["double-residual"] = all(
            (r := left[x][y]) is not None and left[x][r] == y
            for x in range(q.n)
            for y in range(q.n)
            if top not in (x, y)
        )
    verdicts = set(routes.values())
    if len(verdicts) > 1:
        raise _broken(q, f"simplicity routes disagree: {routes}")
    return SimplicityReport(routes["nucleus-count"], routes)


# -- stable nuclei ----------------------------------------------------------------


class GVSet(NamedTuple):
    members: tuple


def gv_elements(m: OrderedMagma, s: MonotoneMap) -> GVSet:
    """{ z <= 1 : z* = 1* }; closure under multiplication is asserted."""
    if m.unit is None:
        raise HypothesisNotMet("GV elements need a unital carrier")
    _nuclei_of(m, [s], "gv_elements")
    p = m.poset
    one_star = s.table[m.unit]
    members = tuple(z for z in bits(p.down[m.unit]) if s.table[z] == one_star)
    mem = set(members)
    for x in members:
        for y in members:
            if m.op(x, y) not in mem:
                raise _broken(m, "GV set is not a submagma")
            j = p.join(x, y)
            if j is not None and j not in mem:
                raise _broken(m, "GV set is not closed under existing sups")
            w = p.meet(x, y)
            if w is not None and w not in mem:
                raise _broken(m, "GV set is not closed under finite infs")
    return GVSet(members)


@per_carrier
def _decide_stable_hypotheses(q: OrderedMagma) -> bool:
    prof = q.profile
    if not prof.near_multiplicative_lattice:
        raise HypothesisNotMet("stability needs a near multiplicative lattice")
    if not prof.precoherent:
        raise HypothesisNotMet("stability needs a precoherent carrier")
    p = q.poset
    # Every compact (= every element, finite carrier) must be residuated and
    # x ^ 1 must exist throughout; the scan only names the first witness.
    if not (table := q.residuals).residuated:
        t, x = next(
            (t, x)
            for t in range(q.n)
            for x in range(q.n)
            if None in (table.left[x][t], table.right[x][t])
        )
        raise HypothesisNotMet(f"compact element {t} is not residuated at {x}")
    for x in range(q.n):
        if p.meet(x, q.unit) is None:
            raise HypothesisNotMet(f"x ^ 1 missing for element {x}")
    return True


@per_carrier
def stable_closure(q: OrderedMagma, s: MonotoneMap) -> MonotoneMap:
    """The coarsest stable nucleus below s: x -> sup{ x/z : z GV }, built
    once per carrier object and nucleus table."""
    _decide_stable_hypotheses(q)
    _nuclei_of(q, [s], "stable_closure")
    gv = gv_elements(q, s)
    table = []
    for row in q.residuals.left:
        parts = [row[z] for z in gv.members]
        if None in parts:
            raise _broken(q, "x/z missing for a GV element z <= 1")
        w = q.poset.sup_mask(id_mask(parts))
        if w is None:
            raise _broken(q, "stable-closure supremum missing")
        table.append(w)
    out = _certified(q, table, "stable closure")
    if not out <= s:
        raise _broken(q, "stable closure is not finer than its nucleus")
    return out


@per_carrier
def is_stable(q: OrderedMagma, s: MonotoneMap) -> bool:
    """All four equivalent stability conditions evaluated and compared, once
    per carrier object and nucleus table."""
    _decide_stable_hypotheses(q)
    _nuclei_of(q, [s], "is_stable")
    p, t, left = q.poset, s.table, q.residuals.left
    one = q.unit
    meets = p.meet_table
    # (x ^ y)* == x* ^ y* wherever x ^ y exists, and (x/c)* == x*/c.
    distribute = all(
        w is None or meets[t[x]][t[y]] == t[w]
        for x, row in enumerate(meets)
        for y, w in enumerate(row)
    )
    transport = all(
        t[xc] == left[t[x]][c]
        for x in range(q.n)
        for c in range(q.n)
        if (xc := left[x][c]) is not None
    )
    cond1 = distribute and transport
    cond2 = transport and all(
        t[p.meet(x, one)] == p.meet(t[x], t[one]) for x in range(q.n)
    )
    cond3 = all(
        t[p.meet(left[x][tc], one)]
        == p.meet(left[t[x]][tc], t[one])
        for x in range(q.n)
        for tc in range(q.n)
    )
    cond4 = stable_closure(q, s).table == s.table
    if not (cond1 == cond2 == cond3 == cond4):
        raise _broken(q, f"stability conditions disagree: {(cond1, cond2, cond3, cond4)}")
    return cond4


def star_w(q: OrderedMagma, s: MonotoneMap) -> MonotoneMap:
    """Compact-GV formula: the stable closure of the finitary companion, which
    on finite carriers is the stable closure of s itself.  The stability gate
    implies coherence: a near multiplicative lattice is unital."""
    _decide_stable_hypotheses(q)
    return stable_closure(q, star_f(q, s))


def t_of(q: OrderedMagma, a: int) -> MonotoneMap:
    """Coarsest finitary nucleus fixing a."""
    return star_f(q, v(q, a))


def v_bar(q: OrderedMagma, a: int) -> MonotoneMap:
    """Coarsest stable nucleus fixing a."""
    out = stable_closure(q, v(q, a))
    if out.table[a] != a:
        raise _broken(q, "stable divisorial closure does not fix its element")
    return out


def w_of(q: OrderedMagma, a: int) -> MonotoneMap:
    """Coarsest stable finitary nucleus fixing a."""
    return stable_closure(q, t_of(q, a))
