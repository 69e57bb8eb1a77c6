"""The proposition-keyed matrix must hold with zero failures across the corpus."""

from collections import Counter

import pytest

from quantic import cli, divisorial, nucleus, verify
from quantic.corpus import standard_corpus
from quantic.errors import (
    CarrierTooLarge,
    HypothesisNotMet,
    InternalCheckError,
    IterationBudgetExceeded,
    NoUnit,
    NotAMorphism,
    StructureError,
    UndecidableFamily,
)
from quantic.instances import check_system_base, cyclic_group, module_system_lattice, powerset_prequantale
from quantic.magma import MagmaMorphism, OrderedMagma
from quantic.nucleus import MonotoneMap
from quantic.poset import FinitePoset
from quantic.rings import FiniteRing, ring_ideal_lattice
from quantic.structdoc import LAZY_CARRIERS, to_json
from quantic.verify import check_names, run_all, run_all_lazy

# The rows that read the nucleus enumeration, all of which apply to I(Z/4).
NUCLEUS_ROWS = {
    "closureprop3", "starlemma", "CSTstar", "supremark", "CMC",
    "characterizingclosures", "complemmacor", "dalpha", "structure2",
    "klattice", "Nf", "divprop", "simpleprequantales", "stabletheorem",
    "stablecor",
}


@pytest.mark.parametrize("name", sorted(standard_corpus()))
def test_matrix_has_no_failures(corpus, name):
    results = run_all(corpus[name])
    failures = [(r.name, r.detail) for r in results if r.status == "fail"]
    assert not failures, failures


def test_every_registered_check_passes_somewhere(corpus):
    passed = set()
    for m in corpus.values():
        for r in run_all(m):
            if r.status == "pass":
                passed.add(r.name)
    assert passed == set(check_names())


def test_run_all_walks_the_closure_candidates_once(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    walked = []
    walk = nucleus._closures_by_images

    def counting(carrier):
        walked.append(carrier)
        return walk(carrier)

    monkeypatch.setattr(nucleus, "_closures_by_images", counting)
    run_all(m)
    assert len(walked) == 1 and walked[0] is m


def test_run_all_decides_each_table_and_builds_each_quotient_and_v_once(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    decided, quotients, divisorial_runs = [], [], []

    def counting(target, name, log):
        original = getattr(target, name)

        def counted(carrier, arg, *rest):
            log.append((carrier, arg))
            return original(carrier, arg, *rest)

        monkeypatch.setattr(target, name, counted)

    unital = nucleus._unital_selfmap_conditions
    monkeypatch.setattr(
        nucleus, "_unital_selfmap_conditions",
        lambda carrier, tables, *rest: decided.extend((carrier, t) for t in tables) or unital(carrier, tables, *rest),
    )
    counting(nucleus, "_build_quotient", quotients)
    counting(divisorial, "v_lin", divisorial_runs)
    run_all(m)
    # The log holds every carrier it names, so no id is reused while it lives.
    per_table = Counter((id(carrier), t) for carrier, t in decided)
    assert per_table and max(per_table.values()) == 1
    nuclei = sorted(s.table for s in nucleus.enumerate_nuclei(m))
    assert sorted(s.table for carrier, s in quotients if carrier is m) == nuclei
    assert sorted(a for carrier, a in divisorial_runs if carrier is m) == list(range(m.n))


def test_closureprop1_rows_share_the_seeded_sample(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    seen = {}
    for row in ("closureprop1", "closureprop1a"):
        tables = seen[row] = []
        monkeypatch.setattr(
            verify, "_decide_nuclei",
            lambda m, maps, tables=tables: tables.extend(s.table for s in maps) or nucleus._decide_nuclei(m, maps),
        )
        run_all(m, names=[row])
    sample = [s.table for s in verify._random_maps(m)]
    assert len(sample) == verify.SAMPLE_MAPS
    assert seen["closureprop1a"] == sample == seen["closureprop1"][: len(sample)]
    assert verify._sample_maps(m) is verify._sample_maps(m)


def test_run_all_runs_the_join_formula_once_per_pair_of_nuclei(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    calls = []
    join = nucleus.nuclei_join
    monkeypatch.setattr(
        nucleus, "nuclei_join", lambda m, gamma: calls.append(1) or join(m, gamma)
    )
    results = run_all(m)
    k = len(nucleus.enumerate_nuclei(m))
    # CMC, structure2, complemmacor and Nf all read the join, and pass.
    assert {r.name for r in results if r.status == "pass"} >= {"CMC", "structure2", "complemmacor", "Nf"}
    assert k > 2 and 0 < len(calls) <= k * (k + 1) // 2


def test_cmc_and_stabletheorem_read_one_meet_table(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    calls = []
    meet = nucleus.nuclei_meet
    monkeypatch.setattr(nucleus, "nuclei_meet", lambda m, gamma: calls.append(1) or meet(m, gamma))
    statuses = {r.name: r.status for r in run_all(m, names=["CMC", "stabletheorem"])}
    k = len(nucleus.enumerate_nuclei(m))
    assert statuses == {"CMC": "pass", "stabletheorem": "pass"}
    assert k > 2 and len(calls) == k * (k + 1) // 2


@pytest.mark.parametrize(
    "wrong_meet",
    [
        # An enumerated nucleus that is not below the second argument when
        # the two are incomparable.
        lambda m, gamma: gamma[0],
        # A common lower bound that is not the greatest one.
        lambda m, gamma: MonotoneMap.identity(m),
    ],
    ids=["first-argument", "identity"],
)
def test_cmc_fails_on_a_meet_that_is_not_the_n_m_meet(monkeypatch, wrong_meet):
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    monkeypatch.setattr(nucleus, "nuclei_meet", wrong_meet)
    (row,) = run_all(m, names=["CMC"])
    assert row.status == "fail" and row.detail == "pointwise meet is not the N(M) meet"


def test_cmc_skips_where_the_pointwise_meet_of_two_nuclei_is_missing(bowtie1_left, tmp_path, capsys):
    doc = tmp_path / "bowtie1-left.json"
    doc.write_text(to_json(bowtie1_left))
    assert cli.main(["verify-all", str(doc)]) == 0
    rows = [line.split(None, 2) for line in capsys.readouterr().out.splitlines()[1:]]
    assert ["CMC", "skip", "(missing infimum for the fibers over element 1)"] in rows
    assert "FAIL" not in {row[1] for row in rows}


def test_characterizingclosures_skips_where_only_the_filter_route_runs():
    # The constant-0 magma on the three-element antichain is not near
    # residuated: {z : z*a <= 0} is the whole antichain, which has no
    # greatest element.  So the image-set route never runs and nothing is
    # compared.
    m = OrderedMagma(FinitePoset.antichain(3), [[0] * 3 for _ in range(3)], name="antichain-zero")
    assert not m.profile.near_residuated
    row = next(r for r in run_all(m) if r.name == "characterizingclosures")
    assert (row.status, row.detail) == ("skip", "needs a near-residuated carrier; the filter route ran alone")


def test_route_disagreement_fails_every_call_and_every_nucleus_row(monkeypatch, tmp_path, capsys):
    # Each disagreement message names the carrier and the offending tables.
    identity = MonotoneMap.identity
    for target, name, replacement, call, witness in (
        (nucleus, "_nuclei_by_image_sets", lambda m, closures: closures[:1],
         nucleus.enumerate_nuclei, "filter only [(1, 1, 2), (2, 2, 2)]"),
        (nucleus, "_closure_conditions", lambda p, tables: [(True, False, True)] * len(tables),
         lambda m: nucleus.is_closure(identity(m)), "(0, 1, 2)"),
        (nucleus, "_nucleus_conditions", lambda m, tables, products, closed: [(True, False, True)] * len(tables),
         lambda m: nucleus.is_nucleus(m, identity(m)), "(0, 1, 2)"),
        (nucleus, "_unital_selfmap_conditions", lambda m, tables, products, expansive: [(False, False)] * len(tables),
         lambda m: nucleus.is_nucleus(m, identity(m)), "(0, 1, 2)"),
        (nucleus, "nuclei_join", lambda m, gamma: identity(m),
         nucleus.nucleus_lattice, "(0, 1, 2) v (1, 1, 2)"),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(target, name, replacement)
            with pytest.raises(InternalCheckError, match="disagree") as info:
                call(ring_ideal_lattice(FiniteRing.zmod(4)).magma)
        assert "I(Z/4)" in str(info.value) and witness in str(info.value), info.value

    m = ring_ideal_lattice(FiniteRing.zmod(4)).magma
    monkeypatch.setattr(nucleus, "_nuclei_by_image_sets", lambda m, closures: closures[:1])
    for _ in range(3):
        with pytest.raises(InternalCheckError, match="disagree"):
            nucleus.enumerate_nuclei(m)
    doc = tmp_path / "z4.json"
    doc.write_text(to_json(m))
    assert cli.main(["verify-all", str(doc)]) == 1
    rows = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:])
    assert {name for name, mark in rows.items() if mark == "FAIL"} == NUCLEUS_ROWS


# The rows that start by enumerating closures or nuclei, whose size skip is
# the enumeration's refusal.
ENUMERATION_ROWS = {
    "closureprop1", "closureprop2", "closureprop3", "joinspan", "starlemma", "CSTstar",
    "supremark", "CMC", "characterizingclosures", "complemmacor", "dalpha", "klattice",
    "Nf", "divprop", "simpleprequantales", "stabletheorem", "stablecor", "structure2",
}


def test_over_cap_rows_skip_with_the_cap_and_the_carrier_size(monkeypatch):
    m = module_system_lattice(cyclic_group(4)).magma
    decide, decided = nucleus._decide_nuclei, []

    def counting(m, maps):
        maps = list(maps)
        decided.extend(s.table for s in maps)
        return decide(m, maps)

    # The verify rows hand their families to the batch kernel themselves.
    monkeypatch.setattr(nucleus, "_decide_nuclei", counting)
    monkeypatch.setattr(verify, "_decide_nuclei", counting)
    results = {r.name: r for r in run_all(m)}
    # closureprop1a and vstrategies enumerate nothing, so they run at any size.
    passed = {"quantales", "nearprequantales", "RMlemma", "1compact", "onebracket", "maintheorem",
              "closureprop1a", "vstrategies"}
    assert {name for name, r in results.items() if r.status == "pass"} == passed
    assert all(r.status == "skip" for name, r in results.items() if name not in passed)
    assert results["maintheorem"].detail == "both round trips are isomorphisms"
    assert len(results) == 28 and ENUMERATION_ROWS < set(results)
    for name in ENUMERATION_ROWS:
        detail = results[name].detail
        assert "capped at 16 elements" in detail and "(32 elements)" in detail, (name, detail)
    # preclosurelemma has no gate of its own: every seeded draw fails order
    # preservation here, so the row is vacuous.
    detail = results["preclosurelemma"].detail
    assert detail == "vacuous: 0 of 200 seeded expansive maps were order-preserving"
    # closureprop1a decides its whole seeded sample.
    assert {s.table for s in verify._random_maps(m)} <= set(decided)
    # An enumeration row is refused, on a fresh carrier, before it decides a
    # nucleus or does any other work.
    m, other_work = module_system_lattice(cyclic_group(4)).magma, []
    decided.clear()
    for name in ("_sample_maps", "_spanning_subset", "distinguished_sets", "r_set_mask"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: other_work.append(name))
    assert {r.status for r in run_all(m, names=sorted(ENUMERATION_ROWS))} == {"skip"}
    assert other_work == [] and decided == []


# One exception of each kind a row can raise: every library class that is
# not a size cap, and one from outside the library.
PLANTED = [InternalCheckError, NoUnit, NotAMorphism, UndecidableFamily,
           IterationBudgetExceeded, StructureError, HypothesisNotMet, TypeError]


def verdicts(results):
    return {r.name: (r.status, r.detail) for r in results}


def test_run_all_alone_turns_an_exception_into_a_fail(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(4)).magma

    def broken(m):
        raise InternalCheckError("simplicity routes disagree on I(Z/4) (3 elements)")

    monkeypatch.setattr(verify, "is_simple", broken)
    (row,) = run_all(m, names=["simpleprequantales"])
    assert row.status == "fail"
    assert row.detail == "InternalCheckError: simplicity routes disagree on I(Z/4) (3 elements)"

    # On a fresh I(Z/12), whatever the row raises is that row's FAIL, and the
    # other 27 rows keep the verdicts they have unpatched.
    monkeypatch.undo()
    unpatched = verdicts(run_all(ring_ideal_lattice(FiniteRing.zmod(12)).magma))
    assert len(unpatched) == 28 and unpatched["simpleprequantales"][0] == "pass"
    for cls in PLANTED:
        def planted(m, cls=cls):
            raise cls("planted in the row")

        monkeypatch.setattr(verify, "is_simple", planted)
        got = verdicts(run_all(ring_ideal_lattice(FiniteRing.zmod(12)).magma))
        expected = dict(unpatched, simpleprequantales=("fail", f"{cls.__name__}: planted in the row"))
        assert got == expected, cls


@pytest.mark.parametrize("name", sorted(LAZY_CARRIERS))
def test_a_lazy_row_contains_its_own_exception(monkeypatch, name):
    unpatched = verdicts(run_all_lazy(LAZY_CARRIERS[name]()))
    assert list(unpatched) == ["certification", "finitary", "klattice", "residual-adjunction"]
    assert {status for status, _ in unpatched.values()} == {"pass"}
    for cls in PLANTED:
        def planted(s, cls=cls):
            raise cls("planted in the row")

        monkeypatch.setattr(verify, "is_finitary", planted)
        got = verdicts(run_all_lazy(LAZY_CARRIERS[name]()))
        assert got == dict(unpatched, finitary=("fail", f"{cls.__name__}: planted in the row")), cls


@pytest.mark.parametrize(
    "refuse, cap, carrier",
    [
        (lambda: nucleus.enumerate_closures(module_system_lattice(cyclic_group(4)).magma),
         "capped at 16 elements", "2^(G0:4) (32 elements)"),
        (lambda: nucleus.nucleus_tower(standard_corpus()["diamond-join"], depth=3),
         "capped at 16 elements", "N(N(diamond-join)) (37 elements)"),
        (lambda: nucleus.enumerate_closures_bruteforce(FinitePoset.chain(9)),
         "capped at 5000000 self-maps", "FinitePoset (9 elements), which has 387420489"),
        (lambda: MagmaMorphism(*[ring_ideal_lattice(FiniteRing.zmod(210)).magma] * 2,
                               range(16)).preserves_sups(),
         "capped at 14 elements", "I(Z/210) (16 elements)"),
        (lambda: powerset_prequantale(cyclic_group(6)),
         "capped at 5 elements", "OrderedMagma (6 elements)"),
        (lambda: check_system_base(5), "capped at 4", "got 5 elements"),
        (lambda: FinitePoset.chain(65), "capped at 64 elements", "got 65 elements"),
        (lambda: verify._check_structure2(OrderedMagma(
            FinitePoset.chain(12), [[min(x, y) for y in range(12)] for x in range(12)], "chain12-meet")),
         "capped at 64 nuclei", "chain12-meet (12 elements) has 2048 nuclei"),
        (lambda: nucleus.nucleus_lattice(OrderedMagma(
            FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], "chain9-meet")),
         "capped at 64 nuclei", "N(chain9-meet): chain9-meet (9 elements) has 256 nuclei"),
    ],
    ids=["enumeration", "tower-level", "bruteforce", "morphism-sups", "powerset-base",
         "system-base", "poset", "verify-row", "nucleus-lattice"],
)
def test_every_size_refusal_names_its_cap_and_the_carrier_size(refuse, cap, carrier):
    with pytest.raises(CarrierTooLarge) as info:
        refuse()
    assert cap in str(info.value) and carrier in str(info.value), info.value


def powerset_meet(k: int) -> OrderedMagma:
    p = FinitePoset.powerset(k)
    return OrderedMagma(p, p.meet_table, f"2^{k}-meet")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring_ideal_lattice(FiniteRing.zmod(60)).magma,
        lambda: ring_ideal_lattice(FiniteRing.zmod(210)).magma,
        lambda: powerset_meet(4),
        lambda: module_system_lattice(cyclic_group(3)).magma,
    ],
    ids=["I(Z/60)", "I(Z/210)", "2^4-meet", "Z3-lattice"],
)
def test_structure2_passes_above_ten_elements(build):
    # Only the N(M) cap or the closure enumeration may refuse structure2.
    m = build()
    assert m.n > 10
    (row,) = run_all(m, names=["structure2"])
    assert (row.status, row.detail) == ("pass", "")
