import json
import os
import subprocess
import sys

import pytest

from quantic.errors import StructureError
from quantic.lazy import UpsetsNat
from quantic.magma import MagmaMorphism
from quantic.nucleus import MonotoneMap
from quantic.structdoc import (
    load_any,
    magma_doc,
    parse,
    to_json,
)


class TestDocuments:
    def test_poset_roundtrip(self, z4):
        p = z4.magma.poset
        assert load_any(json.loads(to_json(p))) == p

    def test_magma_roundtrip(self, z4):
        m = z4.magma
        again = load_any(json.loads(to_json(m)))
        assert again == m and again.unit == m.unit and again.annihilator == m.annihilator

    def test_map_roundtrip(self, z4):
        s = MonotoneMap(z4.magma, (1, 1, 2))
        again = load_any(json.loads(to_json(s)))
        assert again.table == s.table

    def test_morphism_roundtrip(self, z4):
        m = z4.magma
        f = MagmaMorphism(m, m, [0, 1, 2])
        again = load_any(json.loads(to_json(f)))
        assert again.table == f.table

    def test_lazy_doc(self):
        doc = json.loads(to_json(UpsetsNat()))
        assert load_any(doc).name == "upsets-nat"

    def test_transitivity_failure_cites_counterexample(self):
        doc = {
            "kind": "poset",
            "elements": ["a", "b", "c"],
            "leq": [[True, True, False], [False, True, True], [False, False, True]],
        }
        with pytest.raises(StructureError, match=r"0 <= 1 and 1 <= 2 but not 0 <= 2"):
            load_any(doc)

    def test_declared_unit_must_match(self, z4):
        doc = magma_doc(z4.magma)
        doc["unit"] = 0
        with pytest.raises(StructureError, match="unit"):
            load_any(doc)

    def test_parse_rejects_non_json(self):
        with pytest.raises(StructureError):
            parse("{nope")

    def test_emitted_documents_match_the_shipped_schema(self, z4):
        import pathlib

        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            pathlib.Path(__file__).resolve().parents[1]
            .joinpath("docs", "structuredoc.schema.json")
            .read_text()
        )
        m = z4.magma
        docs = [
            json.loads(to_json(m.poset)),
            json.loads(to_json(m)),
            json.loads(to_json(MonotoneMap(m, (1, 1, 2)))),
            json.loads(to_json(MagmaMorphism(m, m, [0, 1, 2]))),
            json.loads(to_json(UpsetsNat())),
        ]
        for doc in docs:
            jsonschema.validate(doc, schema)


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "quantic.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=240,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCli:
    def test_a_closed_stdout_exits_1_with_nothing_on_stderr(self):
        _, doc, _ = run_cli(["make", "module-system-lattice", "--group", "V4"])
        # With the read end closed before the child starts, every write to
        # its stdout fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quantic.cli", "idl", "-"],
                input=doc, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=240,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_make_ring_then_nuclei(self, tmp_path):
        code, doc, _ = run_cli(["make", "ring", "--zmod", "4"])
        assert code == 0
        code, out, _ = run_cli(["nuclei", "-"], stdin_text=doc)
        assert code == 0 and out.startswith("3 nuclei")

    def test_every_make_output_classifies(self):
        for args in (
            ["make", "ring", "--zmod", "6"],
            ["make", "ring", "--poly", "2,x^3"],
            ["make", "module-system-lattice", "--group", "Z2"],
            ["make", "upsets"],
        ):
            code, doc, err = run_cli(args)
            assert code == 0, err
            code, _, err = run_cli(["classify", "-"], stdin_text=doc)
            assert code == 0, err

    def test_every_finite_make_output_feeds_every_analysis(self):
        docs = []
        for args in (
            ["make", "ring", "--zmod", "4"],
            ["make", "ring", "--poly", "p=2,f=x^2"],
            ["make", "module-system-lattice", "--group", "Z1"],
        ):
            code, doc, err = run_cli(args)
            assert code == 0, err
            docs.append(doc)
        for doc in docs:
            for sub in (["nuclei"], ["nucleus-lattice"], ["simple"], ["idl"],
                        ["roundtrip"], ["tower"], ["verify-all"]):
                code, _, err = run_cli([*sub, "-"], stdin_text=doc)
                assert code == 0, (sub, err)

    def test_map_document_over_a_bare_poset(self, z4):
        p = z4.magma.poset
        s = MonotoneMap(p, (1, 1, 2))
        again = load_any(json.loads(to_json(s)))
        assert again.table == s.table and again.carrier == p

    def test_powerset_pipeline(self, tmp_path):
        base = tmp_path / "z2.json"
        code, ring_doc, _ = run_cli(["make", "ring", "--zmod", "2"])
        base.write_text(ring_doc)
        code, power_doc, err = run_cli(["make", "powerset", "--magma", str(base)])
        assert code == 0, err
        code, out, _ = run_cli(["classify", "-"], stdin_text=power_doc)
        assert "prequantale" in out

    def test_simple_subcommand(self):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "2"])
        code, out, _ = run_cli(["simple", "-"], stdin_text=doc)
        assert code == 0 and out.splitlines()[0] == "simple: true"

    def test_v_and_stable_and_tower(self, tmp_path, z4):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "4"])
        magma = tmp_path / "z4.json"
        magma.write_text(doc)
        code, out, _ = run_cli(["v", str(magma), "1"])
        assert code == 0 and "assign=[1, 1, 2]" in out
        nucleus = tmp_path / "rad.json"
        nucleus.write_text(to_json(MonotoneMap(z4.magma, (1, 1, 2))))
        code, out, _ = run_cli(["stable", str(magma), str(nucleus)])
        assert code == 0 and "assign=[0, 1, 2]" in out and "is_stable: false" in out
        code, out, _ = run_cli(["tower", str(magma)])
        assert code == 0 and "tower sizes: [3, 4]" in out

    def test_star_f_lazy_carriers(self):
        code, out, _ = run_cli(["star-f", "--carrier", "chain-omega", "e"])
        assert code == 0 and "finitary: True" in out
        code, out, _ = run_cli(["star-f", "--carrier", "upsets-nat", "monoid-ideal"])
        assert code == 0

    def test_idl_and_roundtrip(self):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "4"])
        code, idl_doc, _ = run_cli(["idl", "-"], stdin_text=doc)
        assert code == 0 and json.loads(idl_doc)["kind"] == "magma"
        code, out, _ = run_cli(["roundtrip", "-"], stdin_text=doc)
        assert code == 0 and "round trips verified" in out

    def test_nucleus_lattice_dot(self):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "4"])
        code, out, _ = run_cli(["nucleus-lattice", "-", "--dot"], stdin_text=doc)
        assert code == 0 and out.startswith("digraph hasse {")

    def test_verify_all_passes_and_is_deterministic(self):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "4"])
        code1, out1, _ = run_cli(["verify-all", "-"], stdin_text=doc)
        code2, out2, _ = run_cli(["verify-all", "-"], stdin_text=doc)
        assert code1 == code2 == 0 and out1 == out2
        assert "FAIL" not in out1

    def test_verify_all_on_lazy_carriers(self):
        for name in ("upsets-nat", "chain-omega"):
            doc = json.dumps({"kind": "lazy-magma", "format": 1, "name": name})
            code, out, err = run_cli(["verify-all", "-"], stdin_text=doc)
            assert code == 0, err
            assert "FAIL" not in out and "residual-adjunction" in out

    def test_json_flag_is_machine_readable(self):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "4"])
        code, out, _ = run_cli(["nuclei", "-", "--json"], stdin_text=doc)
        assert code == 0 and json.loads(out)["count"] == 3

    def test_main_answers_a_sequence_of_calls_in_one_process(self, tmp_path, z4, capsys):
        from quantic import cli

        path = tmp_path / "z4.json"
        path.write_text(to_json(z4.magma))
        calls = [
            ["classify", str(path)],
            ["classify", str(path), "--no-such-flag"],  # an argparse error
            ["nuclei", str(path), "--json"],
            ["nuclei", str(path)],
        ]
        codes = []
        for args in calls:
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
            out = capsys.readouterr().out
            expected_code, expected_out, _ = run_cli(args)
            assert (code, out) == (expected_code, expected_out), args
            codes.append(code)
        # --json stays with its own call: the last one prints text.
        assert codes == [0, 2, 0, 0] and out.startswith("3 nuclei")
        assert cli.build_parser() is cli.build_parser()
        # Importing the CLI builds no parser; the first main call does.
        probe = "import quantic.cli as c; print(c.build_parser.cache_info().currsize)"
        fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert fresh.stdout.strip() == "0", fresh.stderr

    def test_malformed_input_exits_2(self):
        code, _, err = run_cli(["classify", "-"], stdin_text="{broken")
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "{missing}"],
            ["classify", "{dir}"],
            ["classify", "{non_utf8}"],
            ["tower", "{z4}", "--depth", "0"],
            ["tower", "{z4}", "--depth", "-1"],
            ["make", "module-system-lattice", "--group", "Zq"],
            ["make", "ring", "--poly", "2,x^a"],
            ["make", "ring", "--poly", "2,"],
            ["classify", "{mul_str}"],
            ["classify", "{mul_float}"],
            ["star-f", "{diamond}", "{float_map}"],
            ["classify", "{float_unit}"],
            ["star-f", "{z4}", "{int_assign}"],
            ["classify", "{int_mul}"],
            ["classify", "{int_leq_rows}"],
            ["classify", "{int_elements}"],
            ["classify", "{int_poset}"],
            ["star-f", "--carrier", "chain-omega", "dx"],
            ["star-f", "--carrier", "upsets-nat", "nope"],
            ["star-f", "{z4}"],
            ["nuclei", "{int_labels}"],
            ["stable", "{z4}", "{kindless_map}"],
            ["star-f", "{z4}", "{kindless_map}"],
            ["stable", "{z4}", "{true_assign}"],
            ["star-f", "{z4}", "{true_assign}"],
            ["stable", "{z4}", "{big_assign}"],
            ["star-f", "{z4}", "{big_assign}"],
        ],
        ids=[
            "missing-file", "directory", "non-utf8", "depth-0", "depth-negative",
            "unknown-group", "bad-exponent", "empty-poly", "string-product",
            "float-product", "float-assign", "float-unit", "int-assign", "int-mul",
            "int-leq-rows", "int-elements", "int-poset", "chain-nucleus-name", "upsets-nucleus-name",
            "star-f-without-magma", "int-labels", "stable-kindless-map", "star-f-kindless-map",
            "stable-true-assign", "star-f-true-assign", "stable-300-assign", "star-f-300-assign",
        ],
    )
    def test_malformed_input_exits_2_with_one_stderr_line(self, tmp_path, z4, corpus, args):
        paths = {
            name: tmp_path / f"{name}.json"
            for name in (
                "missing", "non_utf8", "z4", "mul_str", "mul_float", "diamond", "float_map", "float_unit",
                "int_assign", "int_mul", "int_leq_rows", "int_elements", "int_poset", "int_labels",
                "kindless_map", "true_assign", "big_assign",
            )
        }
        paths["dir"] = tmp_path
        paths["non_utf8"].write_bytes(b'\xff\xfe{"kind": "magma"}')
        paths["z4"].write_text(to_json(z4.magma))
        for name, entry in (("mul_str", "a"), ("mul_float", 0.0)):
            doc = magma_doc(z4.magma)
            doc["mul"][0][0] = entry
            paths[name].write_text(json.dumps(doc))
        doc = magma_doc(z4.magma)
        doc["unit"] = float(doc["unit"])
        paths["float_unit"].write_text(json.dumps(doc))
        paths["diamond"].write_text(to_json(corpus["diamond-join"]))
        paths["float_map"].write_text(json.dumps({"kind": "map", "format": 1, "assign": [0.0, 1, 2, 3]}))
        paths["int_assign"].write_text(json.dumps({"kind": "map", "assign": 5}))
        paths["kindless_map"].write_text(json.dumps({"format": 1, "assign": [0, 1, 2]}))
        paths["true_assign"].write_text(json.dumps({"kind": "map", "format": 1, "assign": [True, 1, 2]}))
        paths["big_assign"].write_text(json.dumps({"kind": "map", "format": 1, "assign": [300, 1, 2]}))
        for name, edit in (
            ("int_mul", lambda d: d.update(mul=7)),
            ("int_leq_rows", lambda d: d["poset"].update(leq=[1, 2, 3])),
            ("int_elements", lambda d: d["poset"].update(elements=5)),
            ("int_poset", lambda d: d.update(poset=5)),
            ("int_labels", lambda d: d["poset"].update(elements=list(range(len(d["mul"]))))),
        ):
            doc = magma_doc(z4.magma)
            edit(doc)
            paths[name].write_text(json.dumps(doc))
        code, _, err = run_cli([a.format(**paths) for a in args])
        assert code == 2 and len(err.splitlines()) == 1 and "Traceback" not in err, err

    def test_refusal_over_the_enumeration_cap_names_the_carrier_and_its_size(self):
        _, doc, _ = run_cli(["make", "module-system-lattice", "--group", "Z4"])
        code, out, err = run_cli(["nuclei", "-"], stdin_text=doc)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "capped at 16 elements" in err and "2^(G0:4) (32 elements)" in err, err

    @pytest.mark.parametrize("group", ["Z4", "V4"])
    def test_idl_and_roundtrip_answer_on_the_32_element_module_system_lattices(self, group):
        _, doc, _ = run_cli(["make", "module-system-lattice", "--group", group])
        code, out, err = run_cli(["idl", "-"], stdin_text=doc)
        assert code == 0 and json.loads(out)["name"] == "Idl(2^(G0:4))", err
        code, out, err = run_cli(["roundtrip", "-"], stdin_text=doc)
        assert code == 0 and err == "", err
        lines = out.splitlines()
        assert lines[0] == "round trips verified; witnesses:"
        assert lines[1].startswith("  to completion: ") and len(lines[1].split()[2:]) == 32
        assert lines[2].startswith("  from completion: ") and len(lines[2].split()[2:]) == 32

    def test_hypothesis_failure_exits_1_named(self):
        _, doc, _ = run_cli(["make", "ring", "--zmod", "6"])
        code, _, err = run_cli(["stable", "-", "/dev/null"], stdin_text=doc)
        assert code == 2  # empty nucleus file is malformed
        # a real hypothesis failure: the join-chain has unresiduated compacts
        import quantic.structdoc as sd
        from quantic.corpus import standard_corpus

        chain_doc = sd.to_json(standard_corpus()["chain3-join"])
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            mp = os.path.join(d, "m.json")
            np_ = os.path.join(d, "n.json")
            open(mp, "w").write(chain_doc)
            open(np_, "w").write(
                sd.to_json(MonotoneMap(standard_corpus()["chain3-join"], (0, 1, 2)))
            )
            code, _, err = run_cli(["stable", mp, np_])
            assert code == 1 and "hypothesis not met" in err
