"""The proposition-keyed matrix must hold with zero failures across the corpus."""

import pytest

from quantic import cli, nucleus
from quantic.corpus import standard_corpus
from quantic.errors import InternalCheckError
from quantic.rings import FiniteRing, ring_ideal_lattice
from quantic.structdoc import to_json
from quantic.verify import check_names, run_all

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


def test_route_disagreement_fails_every_call_and_every_nucleus_row(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(nucleus, "_nuclei_by_image_sets", lambda m, closures: closures[:1])
    m = ring_ideal_lattice(FiniteRing.zmod(4)).magma
    for _ in range(3):
        with pytest.raises(InternalCheckError, match="disagree"):
            nucleus.enumerate_nuclei(m)
    doc = tmp_path / "z4.json"
    doc.write_text(to_json(m))
    assert cli.main(["verify-all", str(doc)]) == 1
    rows = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:])
    assert {name for name, mark in rows.items() if mark == "FAIL"} == NUCLEUS_ROWS
