"""Proposition-keyed verification suites.

Each named check re-proves one result by brute force on a given carrier and
reports pass, fail, or skip (hypotheses not met / carrier too large).  The CLI
command verify-all prints the whole matrix; the test suite runs it across the
corpus.  Names follow the result labels used throughout the library's design
notes so a failure localizes immediately.

A row skips with its own text when its hypotheses fail.  The operation that
costs too much refuses the carrier's size, once: a row that enumerates
closures or nuclei does so first, and the CarrierTooLarge message, which
names the cap and the carrier, is the skip detail.  downarrowlemma alone
still reads another operation's cap, POWERSET_BASE_CAP.  One runner, _run,
serves run_all and run_all_lazy: a CarrierTooLarge is a skip with its
message, any other exception a FAIL reading "Type: message", and the other
rows still run.  Only four handlers gate on a HypothesisNotMet: CMC,
stabletheorem and stablecor skip, and divisorial._v_all drops a strategy.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from operator import getitem
from typing import Callable, Iterable, List, Optional, Tuple

from .divisorial import (
    divisorial_decomposition,
    is_simple,
    is_stable,
    stable_closure,
    star_w,
    v,
)
from .errors import CarrierTooLarge, HypothesisNotMet
from .finitary import is_finitary, star_f, verify_klattice
from .idl import down_map_on_powerset, idl, roundtrip_checks
from .instances import POWERSET_BASE_CAP
from .magma import (
    MagmaMorphism,
    OrderedMagma,
    adjoin_annihilator,
    distinguished_sets,
    generated_monoid,
    is_sup_spanning,
)
from .nucleus import (
    MonotoneMap,
    _decide_nuclei,
    _on_carrier,
    certified_composition,
    closure_from_preclosure,
    d_map,
    enumerate_closures,
    enumerate_nuclei,
    is_nucleus,
    join_formula_applies,
    nuclei_join_table,
    nuclei_meet_table,
    nucleus_lattice,
    nucleus_of_morphism,
    one_bracket_map,
    pointwise_order,
    quotient,
    r_set_mask,
    transportable_mask,
    unit_part,
)
from .poset import bits, id_mask, order_preserving, transpose

SAMPLE_MAPS = 400
# preclosurelemma draws this many seeded expansive maps.
PRECLOSURE_DRAWS = 200
SEED = 1251


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str      # pass | fail | skip
    detail: str


# A row takes a finite carrier, or a lazy carrier and its shipped rule maps.
Check = Tuple[str, Callable[..., Tuple[str, str]]]
_REGISTRY: List[Check] = []
_LAZY_REGISTRY: List[Check] = []


def register(name: str, registry: List[Check] = _REGISTRY):
    def deco(fn):
        registry.append((name, fn))
        return fn

    return deco


def _skip(reason: str) -> Tuple[str, str]:
    return "skip", reason


def _ok(detail: str = "") -> Tuple[str, str]:
    return "pass", detail


def _fail(detail: str) -> Tuple[str, str]:
    return "fail", detail


def _draws(rng: random.Random, sizes: Iterable[int]) -> list:
    """One draw from range(n) for each n >= 1 in sizes, in order.

    This is the stream rng.randrange(n) gives: each draw takes
    getrandbits(n.bit_length()) until the value is below n, as randrange
    does, without its argument handling.  rng.choice(seq) is seq[draw]."""
    getrandbits, out = rng.getrandbits, []
    for n in sizes:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _random_maps(m: OrderedMagma, k: int = SAMPLE_MAPS) -> tuple:
    """k seeded self-maps, their entries the stream of rng.randrange(n),
    drawn in one call and sliced into byte tables."""
    rng, n = random.Random(SEED + m.n), m.n
    entries = bytes(_draws(rng, [n] * (n * k)))
    return tuple(MonotoneMap(m, entries[i * n : i * n + n]) for i in range(k))


def _sample_maps(m: OrderedMagma) -> tuple:
    """The seeded sample of closureprop1 and closureprop1a, drawn once per carrier object."""
    return _on_carrier(m, ("sample",), _random_maps)


@register("closureprop1")
def _check_closureprop1(m: OrderedMagma):
    """The three nucleus conditions agree on closures; the nucleus decision
    compares them on every map, so deciding the sample and the closures in
    one batch is the proof."""
    closures = enumerate_closures(m)
    _decide_nuclei(m, _sample_maps(m) + tuple(closures))
    return _ok("random sample plus all closures")


@register("closureprop1a")
def _check_closureprop1a(m: OrderedMagma):
    if m.unit is None:
        return _skip("needs a unital carrier")
    _decide_nuclei(m, _sample_maps(m))
    return _ok("single-axiom forms agree on the random sample")


def _spanning_subset(m: OrderedMagma):
    """A small sup-spanning subset when one exists: sup-irreducible elements,
    falling back to the whole carrier (always sup-spanning)."""
    p = m.poset
    irreducible = []
    for x in range(m.n):
        strictly_below = p.down[x] & ~(1 << x)
        if p.sup_mask(strictly_below) != x:
            irreducible.append(x)
    if irreducible and is_sup_spanning(m, irreducible):
        return irreducible
    return list(range(m.n))


@register("closureprop2")
def _check_closureprop2(m: OrderedMagma):
    closures = enumerate_closures(m)
    _decide_nuclei(m, closures)
    p = m.poset
    sigma = _spanning_subset(m)
    for s in closures:
        direct = is_nucleus(m, s)
        via_sigma = all(
            p.leq(m.op(a, s.table[x]), s.table[m.op(a, x)])
            and p.leq(m.op(s.table[x], a), s.table[m.op(x, a)])
            for a in sigma
            for x in range(m.n)
        )
        if direct != via_sigma:
            return _fail(f"sup-spanning criterion missed closure {tuple(s.table)}")
    return _ok(f"sigma of size {len(sigma)}")


@register("closureprop3")
def _check_closureprop3(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    inv = distinguished_sets(m).invertible
    for s in maps:
        tmask = transportable_mask(m, s)
        if any(not ((tmask >> u) & 1) for u in inv):
            return _fail(f"invertible element not transportable through {tuple(s.table)}")
    return _ok(f"|Inv| = {len(inv)}")


@register("joinspan")
def _check_joinspan(m: OrderedMagma):
    for s in enumerate_closures(m):
        tmask = transportable_mask(m, s)
        if is_sup_spanning(m, list(bits(tmask))) and not is_nucleus(m, s):
            return _fail(f"closure {tuple(s.table)} has sup-spanning transportables but no nucleus")
    return _ok()


@register("quantales")
def _check_quantales(m: OrderedMagma):
    prof = m.profile
    if prof.prequantale != (prof.sup_magma and prof.residuated):
        return _fail("prequantale flag disagrees with complete+residuated")
    return _ok()


@register("nearprequantales")
def _check_nearprequantales(m: OrderedMagma):
    with_zero = adjoin_annihilator(m)
    if m.profile.near_prequantale != with_zero.profile.prequantale:
        return _fail("M near prequantale must match M+0 prequantale")
    return _ok()


@register("starlemma")
def _check_starlemma(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    pf = m.poset.flags
    for s in maps:
        q = quotient(m, s)  # asserts sup-preserving corestriction internally
        qf = q.magma.poset.flags
        for flag in ("complete", "near_sup_complete", "bounded_complete",
                     "join_semilattice", "meet_semilattice"):
            if getattr(pf, flag) and not getattr(qf, flag):
                return _fail(f"quotient lost poset property {flag}")
    return _ok()


@register("CSTstar")
def _check_cststar(m: OrderedMagma):
    for s in enumerate_nuclei(m):
        quotient(m, s)
    return _ok()


@register("supremark")
def _check_supremark(m: OrderedMagma):
    if not m.profile.near_prequantale:
        return _skip("needs a small near prequantale")
    for s in enumerate_nuclei(m):
        q = quotient(m, s)
        table = [q.to_quotient[s.table[x]] for x in range(m.n)]
        f = MagmaMorphism(m, q.magma, table)
        recovered = nucleus_of_morphism(f)
        if recovered.table != s.table:
            return _fail(f"nucleus of its own corestriction is not itself: {tuple(s.table)}")
    return _ok()


@register("preclosurelemma")
def _check_preclosurelemma(m: OrderedMagma):
    if m.poset.top is None:
        return _skip("needs a bounded-above small carrier")
    # PRECLOSURE_DRAWS expansive maps, x* drawn from up[x]: one call draws
    # them all, and equal draws share one decision.
    ups, n = [bytes(bits(up)) for up in m.poset.up] * PRECLOSURE_DRAWS, m.n
    picks = bytes(map(getitem, ups, _draws(random.Random(SEED), map(len, ups))))
    draws = Counter(picks[i * n : i * n + n] for i in range(PRECLOSURE_DRAWS))
    produced = 0
    for t, count in draws.items():
        if order_preserving(m.poset, t):
            # The hull is checked to be a closure and to match the
            # least-fixed-point-above formula as it is built.
            closure_from_preclosure(MonotoneMap(m, t))
            produced += count
    if not produced:
        return _skip(f"vacuous: 0 of {PRECLOSURE_DRAWS} seeded expansive maps were order-preserving")
    return _ok(f"{produced} random preclosures")


@register("CMC")
def _check_cmc(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    # above[i] / below[i]: the nuclei above / below maps[i], as masks over
    # the enumeration.
    above = pointwise_order(m.poset, maps)
    below = transpose(above, len(maps))
    # The meet table raises unless each pointwise infimum is an enumerated
    # nucleus; it must be the meet within the N(M) order.  Where a pointwise
    # infimum does not exist the row has nothing to compare.
    try:
        meets = nuclei_meet_table(m)
    except HypothesisNotMet as exc:
        return _skip(str(exc))
    for i in range(len(maps)):
        for j in range(i, len(maps)):
            bounds = below[i] & below[j]
            if not bounds >> meets[i][j] & 1 or bounds & ~below[meets[i][j]]:
                return _fail("pointwise meet is not the N(M) meet")
    if join_formula_applies(m):
        # The join formula raises unless the join image is the intersection
        # of the fixed points; its join must be the N(M) join.
        joins = nuclei_join_table(m)
        for i in range(len(maps)):
            for j in range(i, len(maps)):
                bounds = above[i] & above[j]
                if not bounds >> joins[i][j] & 1 or bounds & ~above[joins[i][j]]:
                    return _fail("join formula is not the N(M) join")
    return _ok(f"{len(maps)} nuclei")


@register("characterizingclosures")
def _check_characterizing(m: OrderedMagma):
    enumerate_nuclei(m)
    if not m.profile.near_residuated:
        return _skip("needs a near-residuated carrier; the filter route ran alone")
    return _ok("image-set route agrees with the filter route")


@register("complemmacor")
def _check_complemmacor(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    joins = nuclei_join_table(m) if join_formula_applies(m) else None
    certified = 0
    # Swapping s and t swaps the two alternating compositions the check
    # compares, so (s, t) and (t, s) share one verdict and s != t counts twice.
    for i, s in enumerate(maps):
        for j in range(i, len(maps)):
            found = certified_composition(m, s, maps[j])
            if found is not None:
                certified += 1 if i == j else 2
                if joins is not None and found[1].table != maps[joins[i][j]].table:
                    return _fail("certified composition disagrees with the join")
    return _ok(f"{certified} certified pairs")


@register("dalpha")
def _check_dalpha(m: OrderedMagma):
    prof = m.profile
    if not (prof.commutative and prof.associative and prof.unital):
        return _skip("needs a small ordered commutative monoid")
    maps = enumerate_nuclei(m)
    p = m.poset
    rmask = r_set_mask(m)
    for a in bits(rmask):
        da = d_map(m, a)
        if unit_part(m, da) != a:
            return _fail("unit_part after d_map is not the identity")
        for s in maps:
            if (da <= s) != p.leq(a, s.table[m.unit]):
                return _fail("Galois law d_a <= s iff a <= 1^s fails")
    return _ok(f"|R(M)| = {bin(rmask).count('1')}")


@register("RMlemma")
def _check_rmlemma(m: OrderedMagma):
    prof = m.profile
    if not prof.unital:
        return _skip("needs a unit")
    p = m.poset
    rmask = r_set_mask(m)
    relems = list(bits(rmask))
    closed = all(((rmask >> m.op(a, b)) & 1) for a in relems for b in relems)
    if not closed:
        if prof.commutative and prof.associative:
            return _fail("R(M) must be a submagma of a commutative monoid")
        return _skip("R(M) is not a submagma here")
    for a in relems:
        for b in relems:
            # The join within R(M) is the least upper bound of a and b in R(M).
            if m.op(a, b) != p.least_of(rmask & p.up[a] & p.up[b]):
                return _fail("multiplication on R(M) is not the join within R(M)")
    return _ok()


@register("structure2")
def _check_structure2(m: OrderedMagma):
    if not m.profile.near_sup_magma:
        return _skip("needs a small near sup-magma")
    nucleus_lattice(m)  # multiplication is the join by construction
    return _ok()


@register("1compact")
def _check_1compact(m: OrderedMagma):
    ds = distinguished_sets(m)
    kmask = m.poset.universe  # every element of a finite carrier is compact
    for u in ds.units:
        for k in range(m.n):
            if not ((kmask >> m.op(u, k)) & 1) or not ((kmask >> m.op(k, u)) & 1):
                return _fail("U(M)K(M) escaped K(M)")
    if m.unit is not None:
        one_compact = bool((kmask >> m.unit) & 1)
        u_in_k = all((kmask >> u) & 1 for u in ds.units)
        meets = any((kmask >> u) & 1 for u in ds.units)
        if not (one_compact == u_in_k == meets):
            return _fail("compact-unit equivalence fails")
    return _ok()


@register("onebracket")
def _check_onebracket(m: OrderedMagma):
    prof = m.profile
    if not (prof.unital and prof.associative and prof.near_prequantale):
        return _skip("needs a unital near quantale")
    return _ok(f"image size {len(one_bracket_map(m).image())}")


@register("klattice")
def _check_klattice(m: OrderedMagma):
    if not m.profile.semiprequantale:
        return _skip("needs a small precoherent semiprequantale")
    # verify_klattice first re-derives the finitary companion, s itself here.
    for s in enumerate_nuclei(m):
        verdict = verify_klattice(m, s)
        if not verdict.holds:
            return _fail(verdict.detail)
    return _ok()


@register("Nf")
def _check_nf(m: OrderedMagma):
    """Joins of (finitary) nuclei match the supremum over the composition monoid."""
    if not m.profile.near_prequantale:
        return _skip("needs a small near prequantale")
    maps = enumerate_nuclei(m)
    sup_mask = m.poset.sup_mask
    joins = nuclei_join_table(m)
    for i, s in enumerate(maps):
        for j in range(i, len(maps)):
            joined = maps[joins[i][j]].table
            monoid = generated_monoid(m, (s.table, maps[j].table))
            for x, images in enumerate(zip(*monoid)):
                if sup_mask(id_mask(images)) != joined[x]:
                    return _fail("composition-monoid supremum misses the join")
    return _ok()


@register("downarrowlemma")
def _check_downarrow(m: OrderedMagma):
    if not m.profile.multiplicative_semilattice or m.n > POWERSET_BASE_CAP:
        return _skip("needs a multiplicative semilattice with a tiny carrier")
    power, down_map = down_map_on_powerset(m)
    if not is_nucleus(power, down_map):
        return _fail("the down operator is not a nucleus on the nonempty power set")
    ideals = idl(m)
    if len(down_map.image()) != len(ideals.ideal_masks):
        return _fail("image of the down operator is not the ideal completion")
    return _ok()


@register("maintheorem")
def _check_maintheorem(m: OrderedMagma):
    if not m.profile.multiplicative_semilattice:
        return _skip("needs a small multiplicative semilattice")
    roundtrip_checks(m)
    return _ok("both round trips are isomorphisms")


@register("divprop")
def _check_divprop(m: OrderedMagma):
    if not m.profile.near_prequantale:
        return _skip("needs a small near prequantale")
    maps = enumerate_nuclei(m)
    for s in maps:
        divisorial_decomposition(m, s)
    for a in range(m.n):
        va = v(m, a)
        fixing = [s for s in maps if s.table[a] == a]
        if not all(s <= va for s in fixing) or va.table not in {s.table for s in fixing}:
            return _fail(f"v({a}) is not the maximum nucleus fixing {a}")
    return _ok(f"{len(maps)} nuclei decomposed")


@register("simpleprequantales")
def _check_simple(m: OrderedMagma):
    if not m.profile.near_prequantale:
        return _skip("needs a small near prequantale")
    rep = is_simple(m)
    return _ok(f"simple={rep.simple} via {sorted(rep.routes)}")


@register("stabletheorem")
def _check_stabletheorem(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    try:
        stable = [is_stable(m, s) for s in maps]
        stable_maps = [s for s, ok in zip(maps, stable) if ok]
        for s in maps:
            bar = stable_closure(m, s)
            if any(t <= s and not (t <= bar) for t in stable_maps):
                return _fail("stable closure is not the coarsest stable nucleus below")
        meets = nuclei_meet_table(m)
        ids = [i for i, ok in enumerate(stable) if ok]
        if not all(stable[meets[i][j]] for i in ids for j in ids):
            return _fail("meet of stable nuclei is not a stable nucleus")
    except HypothesisNotMet as exc:
        return _skip(str(exc))
    return _ok(f"{len(stable_maps)} stable among {len(maps)}")


@register("stablecor")
def _check_stablecor(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    try:
        for s in maps:
            w = star_w(m, s)
            if w.table != stable_closure(m, s).table:
                return _fail("star_w differs from the stable closure on a finite carrier")
    except HypothesisNotMet as exc:
        return _skip(str(exc))
    return _ok()


@register("vstrategies")
def _check_vstrategies(m: OrderedMagma):
    if not m.profile.near_prequantale:
        return _skip("needs a near prequantale")
    for a in range(m.n):
        v(m, a, strategy="all")
    return _ok("all applicable strategies agreed on every element")


def _run(rows: Iterable[Check], *args) -> List[CheckResult]:
    """Each row's verdict on args (see the module docstring)."""
    out = []
    for name, fn in rows:
        try:
            status, detail = fn(*args)
        except CarrierTooLarge as exc:
            status, detail = "skip", str(exc)
        except Exception as exc:
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(name, status, detail))
    return out


def run_all(m: OrderedMagma, names: Optional[List[str]] = None) -> List[CheckResult]:
    return _run(((name, fn) for name, fn in _REGISTRY if names is None or name in names), m)


def check_names() -> List[str]:
    return [name for name, _ in _REGISTRY]


# -- lazy carriers ----------------------------------------------------------------


@register("certification", _LAZY_REGISTRY)
def _check_certification(carrier, shipped):
    bad = [r.name for r in shipped if not r.certificate.closure_witnessed]
    return _fail(f"uncertified: {bad}") if bad else _ok(f"{len(shipped)} rule maps certified")


@register("finitary", _LAZY_REGISTRY)
def _check_finitary(carrier, shipped):
    broken = [r.name for r in shipped if not is_finitary(r).is_finitary]
    return _fail(f"violations: {broken}") if broken else _ok("no violation on declared families")


@register("klattice", _LAZY_REGISTRY)
def _check_lazy_klattice(carrier, shipped):
    holds = [(r.name, verify_klattice(carrier, star_f(carrier, r)).holds)
             for r in shipped if r.certificate.nucleus_witnessed]
    detail = " ".join(f"{name}:{ok}" for name, ok in holds)
    return (_ok if all(ok for _, ok in holds) else _fail)(detail)


@register("residual-adjunction", _LAZY_REGISTRY)
def _check_residual_adjunction(carrier, shipped):
    xs = carrier.sample(8)
    failures = sum(
        carrier.leq(carrier.op(z, a), x) != carrier.leq(z, w)
        for x in xs
        for a in xs
        if (w := carrier.residual(x, a)) is not None
        for z in xs
    )
    return (_fail if failures else _ok)(f"{failures} adjunction failures on the sample grid")


def run_all_lazy(carrier) -> List[CheckResult]:
    """Certification bundles for the shipped rule maps, each built once per
    run, finitary reports, the compact-identity spot check, and the residual
    adjunction on sampled pairs."""
    shipped = [carrier.rule_map(name) for name in carrier.shipped]
    return _run(_LAZY_REGISTRY, carrier, shipped)
