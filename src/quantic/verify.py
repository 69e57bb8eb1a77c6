"""Proposition-keyed verification suites.

Each named check re-proves one result by brute force on a given carrier and
reports pass, fail, or skip (hypotheses not met / carrier too large).  The CLI
command verify-all prints the whole matrix; the test suite runs it across the
corpus.  Names follow the result labels used throughout the library's design
notes so a failure localizes immediately.

A row skips with its own text when its hypotheses fail.  The operation that
costs too much refuses the carrier's size, once: a row that enumerates
closures or nuclei does so first, and the CarrierTooLarge message, which
names the cap and the carrier, is the skip detail.  CMC, Nf and
complemmacor, whose work is quadratic in the nucleus count, ask the nucleus
search for at most PAIR_CAP nuclei (_pair_nuclei), and it stops after
PAIR_CAP + 1; their skip names that lower bound, the cap and the carrier.
Nf and complemmacor read one slot-encoded pass over the alternating words
of every pair of nuclei (nucleus.composition_sups_match and
nucleus.certified_compositions).  downarrowlemma alone still reads another
operation's cap, POWERSET_BASE_CAP.  One runner, _run,
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
    is_sup_spanning,
)
from .nucleus import (
    MonotoneMap,
    _decide_nuclei,
    certified_compositions,
    closure_from_preclosure,
    composition_sups_match,
    d_map,
    enumerate_closures,
    enumerate_nuclei,
    is_nucleus,
    join_formula_applies,
    nuclei_at_most,
    nuclei_join_table,
    nuclei_meet_table,
    nucleus_lattice,
    nucleus_of_morphism,
    nucleus_order,
    one_bracket_map,
    per_carrier,
    quotient,
    r_set_mask,
    transportable_mask,
    unit_part,
)
from .poset import bits, carrier_label, id_mask, order_preserving_each

SAMPLE_MAPS = 400
# CMC, Nf and complemmacor do work quadratic in the nucleus count k, over
# the k(k+1)/2 pairs of nuclei; each asks the nucleus search for at most
# this many nuclei and skips, naming the count, the cap and the carrier,
# when there are more.
PAIR_CAP = 2800
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


def _pair_nuclei(m: OrderedMagma) -> tuple:
    """enumerate_nuclei(m) for the pair rows, refused over PAIR_CAP nuclei
    after PAIR_CAP + 1 are found: the count in the message is a lower bound."""
    maps = nuclei_at_most(m, PAIR_CAP)
    if maps is None:
        raise CarrierTooLarge(
            f"pair rows capped at {PAIR_CAP} nuclei, refused on {carrier_label(m)}, "
            f"which has more than {PAIR_CAP} nuclei"
        )
    return maps


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


@per_carrier
def _random_maps(m: OrderedMagma) -> tuple:
    """The seeded sample of closureprop1 and closureprop1a, drawn once per
    carrier object: SAMPLE_MAPS byte tables, their entries the stream of
    rng.randrange(n), drawn in one getrandbits call (a short stream is
    continued by the next) and sliced table after table.

    rng.randrange(n) takes one 32-bit word a try and keeps its top
    b = n.bit_length() <= 7 bits (n <= ENUM_CAP), trying again while the
    value is not below n.  getrandbits(32 * w) is the next w words, the
    first lowest, so byte 4i + 3 is the top byte of word i: read through
    v -> v >> (8 - b), with the bytes whose value is not below n deleted,
    these bytes are the draws, in order."""
    rng, n, need = random.Random(SEED + m.n), m.n, m.n * SAMPLE_MAPS
    size = n.bit_length()
    keep = bytes(v >> (8 - size) for v in range(256))
    reject = bytes(v for v in range(256) if v >> (8 - size) >= n)
    entries = b""
    while len(entries) < need:
        # A word is kept with chance n / 2**size >= 1/2: an eighth more words than expected.
        words = ((need - len(entries)) << size) // n * 9 // 8 + 8
        entries += rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(keep, reject)
    return tuple(entries[i * n : i * n + n] for i in range(SAMPLE_MAPS))


@register("closureprop1")
def _check_closureprop1(m: OrderedMagma):
    """The three nucleus conditions agree on closures; the nucleus decision
    compares them on every map, so deciding the sample and the closures in
    one call is the proof."""
    closures = enumerate_closures(m)
    _decide_nuclei(m, _random_maps(m) + tuple(s.table for s in closures))
    return _ok("random sample plus all closures")


@register("closureprop1a")
def _check_closureprop1a(m: OrderedMagma):
    if m.unit is None:
        return _skip("needs a unital carrier")
    _decide_nuclei(m, _random_maps(m))
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
    _decide_nuclei(m, [s.table for s in closures])
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
    for t, monotone in zip(draws, order_preserving_each(m.poset, list(draws))):
        if monotone:
            # The hull is checked to be a closure and to match the
            # least-fixed-point-above formula as it is built.
            closure_from_preclosure(MonotoneMap(m, t))
            produced += draws[t]
    if not produced:
        return _skip(f"vacuous: 0 of {PRECLOSURE_DRAWS} seeded expansive maps were order-preserving")
    return _ok(f"{produced} random preclosures")


@register("CMC")
def _check_cmc(m: OrderedMagma):
    """Each table certifies its entries against the N(M) order as it is built;
    where a pointwise infimum is missing the row has nothing to compare."""
    maps = _pair_nuclei(m)
    try:
        nuclei_meet_table(m)
    except HypothesisNotMet as exc:
        return _skip(str(exc))
    if join_formula_applies(m):
        nuclei_join_table(m)
    return _ok(f"{len(maps)} nuclei")


@register("characterizingclosures")
def _check_characterizing(m: OrderedMagma):
    enumerate_nuclei(m)
    if not m.profile.near_residuated:
        return _skip("needs a near-residuated carrier; the filter route ran alone")
    return _ok("image-set route agrees with the filter route")


@register("complemmacor")
def _check_complemmacor(m: OrderedMagma):
    """Swapping s and t swaps the two alternating compositions the check
    compares, so (s, t) and (t, s) share one verdict and s != t counts twice."""
    _pair_nuclei(m)
    certified = certified_compositions(m)
    if certified is None:
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
    ds, compact = distinguished_sets(m), m.poset.compact_elements()
    kmask = id_mask(compact)
    if id_mask(line[k] for u in ds.units for line in (m.mul[u], m.cols[u]) for k in compact) & ~kmask:
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
    """Joins of (finitary) nuclei match the supremum over the composition
    monoid: the AND of the up-lane codes of the monoid's maps, the upper
    bounds of each element's images, is the code of the join."""
    if not m.profile.near_prequantale:
        return _skip("needs a small near prequantale")
    _pair_nuclei(m)
    if not composition_sups_match(m):
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


def _largest_stable_below(m: OrderedMagma, closure) -> Tuple[int, Optional[MonotoneMap]]:
    """The stable nuclei, a mask over enumerate_nuclei(m), and the first
    nucleus s whose closure(m, s) is not the largest stable nucleus below s,
    or None: enumerated, stable, below s and above every stable nucleus
    below s, read from nucleus_order(m) and the stored is_stable verdicts."""
    maps = enumerate_nuclei(m)
    stable = id_mask(i for i, s in enumerate(maps) if is_stable(m, s))
    index, _, below = nucleus_order(m)
    for i, s in enumerate(maps):
        r, under = index.get(closure(m, s).table), below[i] & stable
        if r is None or not under >> r & 1 or under & ~below[r]:
            return stable, s
    return stable, None


@register("stabletheorem")
def _check_stabletheorem(m: OrderedMagma):
    maps = enumerate_nuclei(m)
    try:
        stable, bad = _largest_stable_below(m, stable_closure)
        if bad is not None:
            return _fail(f"stable closure of {tuple(bad.table)} is not the coarsest stable nucleus below it")
        meets, ids = nuclei_meet_table(m), list(bits(stable))
        if not all(stable >> meets[i][j] & 1 for i in ids for j in ids):
            return _fail("meet of stable nuclei is not a stable nucleus")
    except HypothesisNotMet as exc:
        return _skip(str(exc))
    return _ok(f"{len(ids)} stable among {len(maps)}")


@register("stablecor")
def _check_stablecor(m: OrderedMagma):
    """star_w(s), the compact-GV formula, is the largest stable nucleus below s."""
    try:
        _, bad = _largest_stable_below(m, star_w)
    except HypothesisNotMet as exc:
        return _skip(str(exc))
    if bad is not None:
        return _fail(f"star_w of {tuple(bad.table)} is not the largest stable nucleus below it")
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
