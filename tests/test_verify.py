"""The proposition-keyed matrix must hold with zero failures across the corpus."""

import sys
from collections import Counter

import pytest

from quantic import cli, divisorial, nucleus, verify
from quantic import idl as idl_module
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
from quantic.poset import FinitePoset, bits
from quantic.rings import FiniteRing, ring_ideal_lattice
from quantic.structdoc import LAZY_CARRIERS, to_json
from quantic.verify import check_names, run_all, run_all_lazy

from conftest import corrupted_kernel

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


# The rows in the order verify-all prints them, which every recorded output
# of the command depends on.
ROW_ORDER = [
    "closureprop1", "closureprop1a", "closureprop2", "closureprop3", "joinspan", "quantales",
    "nearprequantales", "starlemma", "CSTstar", "supremark", "preclosurelemma", "CMC",
    "characterizingclosures", "complemmacor", "dalpha", "RMlemma", "structure2", "1compact",
    "onebracket", "klattice", "Nf", "downarrowlemma", "maintheorem", "divprop",
    "simpleprequantales", "stabletheorem", "stablecor", "vstrategies",
]
LAZY_ROW_ORDER = ["certification", "finitary", "klattice", "residual-adjunction"]


def test_the_rows_keep_the_order_verify_all_prints():
    assert check_names() == ROW_ORDER
    assert [name for name, _ in verify._LAZY_REGISTRY] == LAZY_ROW_ORDER


def test_every_registered_check_passes_somewhere(corpus):
    passed = set()
    for m in corpus.values():
        for r in run_all(m):
            if r.status == "pass":
                passed.add(r.name)
    assert passed == set(check_names())


def counting_builds(monkeypatch, fn) -> list:
    """Put, in place of the per_carrier function fn in every quantic module
    that binds it, fn with a build that logs (carrier, *args) before it
    builds; returns the log."""
    log, build = [], fn.__wrapped__

    @nucleus.per_carrier
    def counted(carrier, *args):
        log.append((carrier, *args))
        return build(carrier, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("quantic") and vars(module).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return log


def test_run_all_walks_the_closure_candidates_once(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    walked = counting_builds(monkeypatch, nucleus.enumerate_closures)
    run_all(m)
    assert walked == [(m,)] and walked[0][0] is m


def test_run_all_decides_each_table_and_builds_each_quotient_and_v_once(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    decided = []
    kernel = nucleus._chunk_verdicts
    monkeypatch.setattr(
        nucleus, "_chunk_verdicts",
        lambda carrier, tables: decided.extend((carrier, t) for t in tables) or kernel(carrier, tables),
    )
    quotients = counting_builds(monkeypatch, nucleus.quotient)
    divisorial_runs = counting_builds(monkeypatch, divisorial._v_all)
    run_all(m)
    # The log holds every carrier it names, so no id is reused while it lives.
    per_table = Counter((id(carrier), t) for carrier, t in decided)
    assert per_table and max(per_table.values()) == 1
    nuclei = sorted(s.table for s in nucleus.enumerate_nuclei(m))
    assert sorted(s.table for carrier, s in quotients if carrier is m) == nuclei
    assert sorted(a for carrier, a in divisorial_runs if carrier is m) == list(range(m.n))


@pytest.mark.parametrize("modulus, downarrow", [(6, "pass"), (12, "skip")])
def test_verify_all_builds_one_ideal_completion(monkeypatch, modulus, downarrow):
    # I(Z/6) has 4 ideals and both rows that read Idl(M) run on it; I(Z/12)
    # has 6, above the power-set cap of downarrowlemma.
    m = ring_ideal_lattice(FiniteRing.zmod(modulus)).magma
    built, completion = [], idl_module.IdealCompletion
    monkeypatch.setattr(
        idl_module, "IdealCompletion", lambda source, *rest: built.append(source) or completion(source, *rest)
    )
    rows = verdicts(run_all(m))
    assert (rows["maintheorem"][0], rows["downarrowlemma"][0]) == ("pass", downarrow)
    assert built == [m]


def test_closureprop1_rows_share_the_seeded_sample(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    seen = {}
    for row in ("closureprop1", "closureprop1a"):
        tables = seen[row] = []
        monkeypatch.setattr(
            verify, "_decide_nuclei",
            lambda m, maps, tables=tables: tables.extend(maps) or nucleus._decide_nuclei(m, maps),
        )
        run_all(m, names=[row])
    sample = list(verify._random_maps(m))
    assert len(sample) == verify.SAMPLE_MAPS
    assert seen["closureprop1a"] == sample == seen["closureprop1"][: len(sample)]
    assert verify._random_maps(m) is verify._random_maps(m)


def test_run_all_runs_the_join_formula_on_no_pair_and_builds_each_pair_table_once(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    calls = []
    join = nucleus.nuclei_join
    monkeypatch.setattr(
        nucleus, "nuclei_join", lambda m, gamma: calls.append(1) or join(m, gamma)
    )
    tables = counting_builds(monkeypatch, nucleus._pair_table)
    results = run_all(m)
    k = len(nucleus.enumerate_nuclei(m))
    # CMC, structure2, complemmacor and Nf all read the join, and pass.
    assert {r.name for r in results if r.status == "pass"} >= {"CMC", "structure2", "complemmacor", "Nf"}
    # Both routes agree on every pair, so the table calls no join.
    assert k > 2 and calls == [] and sorted(op for _, op in tables) == ["^", "v"]


def test_cmc_builds_the_one_meet_table_and_stabletheorem_meets_only_the_stable_pairs(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    table_calls, row_calls = [], []
    meet = nucleus.nuclei_meet
    monkeypatch.setattr(nucleus, "nuclei_meet", lambda m, gamma: table_calls.append(1) or meet(m, gamma))
    monkeypatch.setattr(verify, "nuclei_meet", lambda m, gamma: row_calls.append(1) or meet(m, gamma))
    tables = counting_builds(monkeypatch, nucleus._pair_table)
    (row,) = run_all(m, names=["stabletheorem"])
    # I(Z/30) has 8 nuclei, all stable: the row meets its 36 pairs i <= j
    # pointwise and builds no table.
    assert (row.status, row.detail) == ("pass", "8 stable among 8")
    assert len(row_calls) == 36 and tables == [] and table_calls == []
    (row,) = run_all(m, names=["CMC"])
    # Both routes of the table agree on every pair, so it calls no meet.
    assert row.status == "pass" and tables == [(m, "^"), (m, "v")] and table_calls == []


def test_stabletheorem_fails_where_the_pointwise_meet_of_a_stable_pair_parts_from_the_order(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    s, t = [u for u in nucleus.enumerate_nuclei(m) if divisorial.is_stable(m, u)][1:3]
    top, meet = MonotoneMap.top_map(m), verify.nuclei_meet
    planted = lambda m, gamma: top if [u.table for u in gamma] == [s.table, t.table] else meet(m, gamma)
    monkeypatch.setattr(verify, "nuclei_meet", planted)
    (row,) = run_all(m, names=["stabletheorem"])
    assert (row.status, row.detail) == (
        "fail",
        "InternalCheckError: stable meet disagrees with the N(M) order on I(Z/12) (6 elements): "
        "(2, 4, 2, 5, 4, 5) ^ (3, 3, 5, 3, 5, 5) gives (5, 5, 5, 5, 5, 5)",
    )


def test_stabletheorem_answers_on_chain9_without_the_meet_table(monkeypatch):
    m = OrderedMagma(FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], name="chain9-meet")

    def refused(m):
        raise AssertionError("the meet table was built")

    for module in (nucleus, verify):
        monkeypatch.setattr(module, "nuclei_meet_table", refused)
    (row,) = run_all(m, names=["stabletheorem"])
    assert (row.status, row.detail) == ("pass", "9 stable among 256")


def drop_a_cover(m, side):
    """Store in m's memo the order of its nuclei with the last cover i < j
    missing from the above masks (side "above") or the below masks (side
    "below") alone.  On I(Z/12) that is nucleus 4 below the top map, and
    nucleus 4 is not stable, so the stable rows' own order checks still pass."""
    index, above, below = nucleus.nucleus_order(m)
    covers = [(i, j) for i, a in enumerate(above) for j in bits(a) if j != i and bin(a & below[j]).count("1") == 2]
    i, j = covers[-1]
    above, below = list(above), list(below)
    if side == "above":
        above[i] &= ~(1 << j)
    else:
        below[j] &= ~(1 << i)
    nucleus._memo(m)[(nucleus.nucleus_order.__wrapped__,)] = (index, tuple(above), tuple(below))


def wrong_fixed_mask(m):
    """Keep on nucleus 1 the fixed-point mask of nucleus 2."""
    maps = nucleus.enumerate_nuclei(m)
    maps[1]._fixed_mask = maps[2].fixed_mask()


def assert_readers_fail_alike(m, readers, prefix, op) -> str:
    """Every reader row FAILs with one detail, the prefix naming the carrier
    and a pair; returns the detail."""
    results = run_all(m, names=readers)
    assert [r.status for r in results] == ["fail"] * len(readers), results
    assert len({r.detail for r in results}) == 1, results
    detail = results[0].detail
    assert detail.startswith(f"InternalCheckError: {prefix} on I(Z/12) (6 elements): (") and f") {op} (" in detail, detail
    return detail


@pytest.mark.parametrize(
    "fault",
    [
        # The pointwise-meet route reads up-lane codes: their AND is the
        # pointwise join.
        lambda m: m.poset.__dict__.__setitem__("down_lanes", m.poset.up_lanes),
        # The order route misses one cover of the nuclei.
        lambda m: drop_a_cover(m, "below"),
    ],
    ids=["down-code", "order-mask"],
)
def test_cmc_fails_on_a_meet_that_is_not_the_n_m_meet(fault):
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    fault(m)
    # The meet table refuses the pair whose routes part, naming the carrier
    # and the pair, in CMC, the one row that reads it.
    assert_readers_fail_alike(m, ["CMC"], "meet table disagrees with the N(M) order", "^")


@pytest.mark.parametrize("fault", [wrong_fixed_mask, lambda m: drop_a_cover(m, "above")], ids=["fixed-mask", "order-mask"])
def test_a_join_that_is_not_the_n_m_join_fails_its_table_and_every_row_reading_it(fault):
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    fault(m)
    with pytest.raises(InternalCheckError, match="join table disagrees") as info:
        nucleus.nuclei_join_table(m)
    assert "I(Z/12)" in str(info.value) and ") v (" in str(info.value), info.value
    readers = ["CMC", "structure2", "complemmacor", "Nf"]
    detail = assert_readers_fail_alike(m, readers, "join table disagrees with the N(M) order", "v")
    assert detail == f"InternalCheckError: {info.value}"


def test_a_quotient_that_loses_a_poset_flag_fails_every_row_that_builds_it(monkeypatch):
    # Each image of I(Z/12) is a lattice; a restriction that reports it is
    # not a meet semilattice breaks the inheritance the quotient asserts.
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    restrict = FinitePoset.restrict

    def restricted(p, members):
        sub = restrict(p, members)
        sub.__dict__["flags"] = sub.flags._replace(meet_semilattice=False)
        return sub

    monkeypatch.setattr(FinitePoset, "restrict", restricted)
    failed = {r.name: r.detail for r in run_all(m) if r.status == "fail"}
    detail = "InternalCheckError: quotient failed to inherit meet_semilattice on I(Z/12) (6 elements)"
    assert failed == dict.fromkeys(["starlemma", "CSTstar", "supremark", "klattice"], detail)


def test_cmc_structure2_and_stablecor_share_one_order_of_the_nuclei(monkeypatch):
    m = ring_ideal_lattice(FiniteRing.zmod(30)).magma
    calls, order = [], nucleus.pointwise_order

    def counting(p, maps):
        calls.append(len(maps))
        return order(p, maps)

    # Every module that binds the name is counted, so no call goes unseen.
    for module in (nucleus, verify):
        if hasattr(module, "pointwise_order"):
            monkeypatch.setattr(module, "pointwise_order", counting)
    statuses = {r.name: r.status for r in run_all(m, names=["CMC", "structure2", "stablecor"])}
    assert statuses == {"CMC": "pass", "structure2": "pass", "stablecor": "pass"}
    assert calls == [len(nucleus.enumerate_nuclei(m))]


def test_the_tower_refuses_n_m_over_the_cap_before_ordering_its_nuclei(monkeypatch):
    m = OrderedMagma(FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], name="chain9-meet")
    calls = []
    monkeypatch.setattr(nucleus, "pointwise_order", lambda p, maps: calls.append(1))
    with pytest.raises(CarrierTooLarge, match=r"N\(M\) capped at 64 nuclei, refused on N\(chain9-meet\)"):
        nucleus.nucleus_tower(m, depth=2)
    assert calls == []


def test_the_tower_refuses_n_m_after_deciding_at_most_cap_plus_one_tables(monkeypatch):
    # chain-9 under meet: every closure is a nucleus, so the search hands
    # the kernel 64 tables, then the one still needed, and stops at 65.
    m = OrderedMagma(FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], name="chain9-meet")
    handed, decided = [], []
    decide, kernel = nucleus._decide_nuclei, nucleus._chunk_verdicts
    monkeypatch.setattr(nucleus, "_decide_nuclei", lambda m, tables: handed.append(len(tables)) or decide(m, tables))
    monkeypatch.setattr(nucleus, "_chunk_verdicts", lambda m, tables: decided.extend(tables) or kernel(m, tables))
    with pytest.raises(CarrierTooLarge, match=r"chain9-meet \(9 elements\) has more than 64 nuclei"):
        nucleus.nucleus_tower(m, depth=2)
    assert handed == [64, 1] and len(decided) == 65
    # A later full enumeration decides only the closures the search left.
    assert len(nucleus.enumerate_nuclei(m)) == 256 and len(decided) == 256 == len(set(decided))


def test_the_pair_rows_skip_on_chain14_at_the_count_cap():
    # chain-14 under meet has 8,192 nuclei: the search stops after 2,801.
    m = OrderedMagma(FinitePoset.chain(14), [[min(x, y) for y in range(14)] for x in range(14)], name="chain14-meet")
    skip = "pair rows capped at 2800 nuclei, refused on chain14-meet (14 elements), which has more than 2800 nuclei"
    assert verify.PAIR_CAP == 2800
    assert verdicts(run_all(m, names=["CMC", "complemmacor", "Nf"])) == dict.fromkeys(["CMC", "complemmacor", "Nf"], ("skip", skip))
    assert sum(key[0] == "nucleus" for key in nucleus._memo(m)) == 2801


def test_the_pair_rows_skip_over_their_count_cap_naming_it(monkeypatch):
    # With the cap at 100, chain-9 under meet (256 nuclei) is over it: the
    # three pair rows skip, naming the count, the cap and the carrier, and
    # the search stops after 101 nuclei; every other row still answers.
    m = OrderedMagma(FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], name="chain9-meet")
    monkeypatch.setattr(verify, "PAIR_CAP", 100)
    decided, kernel = [], nucleus._chunk_verdicts
    monkeypatch.setattr(nucleus, "_chunk_verdicts", lambda m, tables: decided.extend(tables) or kernel(m, tables))
    rows = verdicts(run_all(m, names=["CMC", "complemmacor", "Nf"]))
    skip = "pair rows capped at 100 nuclei, refused on chain9-meet (9 elements), which has more than 100 nuclei"
    assert rows == dict.fromkeys(["CMC", "complemmacor", "Nf"], ("skip", skip))
    assert len(decided) == 101
    rows = verdicts(run_all(m))
    assert {name for name, (status, _) in rows.items() if status == "skip"} == {
        "CMC", "complemmacor", "Nf", "structure2", "downarrowlemma",
    }, rows
    assert "FAIL" not in {status for status, _ in rows.values()}


def test_stablecor_fails_when_star_w_is_not_the_largest_stable_nucleus_below(monkeypatch):
    # With both routes returning their nucleus they agree, but a nucleus
    # that is not stable is not the largest stable nucleus below itself.
    m = ring_ideal_lattice(FiniteRing.zmod(12)).magma
    for name in ("star_w", "stable_closure"):
        monkeypatch.setattr(verify, name, lambda m, s: s)
    (row,) = run_all(m, names=["stablecor"])
    assert row.status == "fail" and row.detail.endswith("is not the largest stable nucleus below it"), row


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
        (nucleus, "_chunk_verdicts", corrupted_kernel("single", False),
         lambda m: nucleus.is_closure(identity(m)), "(0, 1, 2)"),
        (nucleus, "_chunk_verdicts", corrupted_kernel("c2", False),
         lambda m: nucleus.is_nucleus(m, identity(m)), "(0, 1, 2)"),
        (nucleus, "_chunk_verdicts", corrupted_kernel("form2", False),
         lambda m: nucleus.is_nucleus(m, identity(m)), "(0, 1, 2)"),
        (nucleus, "pointwise_order",
         lambda p, maps, order=nucleus.pointwise_order: [a & ~2 if i == 0 else a for i, a in enumerate(order(p, maps))],
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

    def counting(m, tables):
        tables = list(tables)
        decided.extend(tables)
        return decide(m, tables)

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
    assert set(verify._random_maps(m)) <= set(decided)
    # An enumeration row is refused, on a fresh carrier, before it decides a
    # nucleus or does any other work.
    m, other_work = module_system_lattice(cyclic_group(4)).magma, []
    decided.clear()
    for name in ("_random_maps", "_spanning_subset", "distinguished_sets", "r_set_mask"):
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
         "capped at 64 nuclei", "chain12-meet (12 elements) has more than 64 nuclei"),
        (lambda: nucleus.nucleus_lattice(OrderedMagma(
            FinitePoset.chain(9), [[min(x, y) for y in range(9)] for x in range(9)], "chain9-meet")),
         "capped at 64 nuclei", "N(chain9-meet): chain9-meet (9 elements) has more than 64 nuclei"),
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


@pytest.mark.parametrize("dropped", range(1, 7))
def test_1compact_reads_the_compact_elements_of_the_poset(monkeypatch, dropped):
    # In 2^Z3 the units are the singletons, and each moves every element
    # other than the bottom and the top; so where compact_elements leaves out
    # any other element, some unit times a compact element lands on it.
    m = powerset_prequantale(cyclic_group(3)).magma
    assert [r.status for r in run_all(m, names=["1compact"])] == ["pass"]
    full = FinitePoset.compact_elements
    monkeypatch.setattr(FinitePoset, "compact_elements", lambda p: [x for x in full(p) if x != dropped])
    (row,) = run_all(m, names=["1compact"])
    assert (row.status, row.detail) == ("fail", "U(M)K(M) escaped K(M)")
