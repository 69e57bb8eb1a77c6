"""Self-test of the benchmark harness; exits 1 if a check fails.

    python3 perfbench/selftest.py

Checks that the op verdicts follow the record's rules, that the seeded
generator is deterministic and covered by the record, that traced and
untraced passes give every op the same exit code and stdout, and that the
counts repeat exactly between passes.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

EXACT = ("nucleus.candidates_walked", "nucleus.closures_found", "verify.rows_skipped")


def check(ok: bool, what: str, failures: list):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


MATRIX = (
    "verification matrix for X:\n"
    "  rowa                     PASS  (3 nuclei)\n"
    "  rowb                     skip  (carrier too large)\n"
)


def check_verdicts(failures: list):
    """Feed verdict() made-up outcomes against a made-up record."""
    verify = workloads.Op("verify-all @x", ("verify-all", "x"))
    answers = workloads.Op("nuclei @x", ("nuclei", "x"))
    refuses = workloads.Op("tower @x", ("tower", "x"))
    over_cap = workloads.Op("nuclei @big", ("nuclei", "big"), expect=(1,))
    crashes = workloads.Op("tower @x --depth 0", ("tower", "x", "--depth", "0"), expect=(2,))

    def outcome(code, stdout="", stderr=""):
        return run.Outcome(0.0, code, stdout, stderr)

    record = {
        verify.key: run.record_entry(verify, outcome(0, MATRIX)),
        answers.key: run.record_entry(answers, outcome(0, "2 nuclei\n")),
        refuses.key: run.record_entry(refuses, outcome(1)),
        over_cap.key: run.record_entry(over_cap, outcome(1, "", "carrier too large\n")),
        crashes.key: run.record_entry(crashes, outcome("IndexError")),
    }
    cases = [
        (verify, outcome(0, MATRIX), "answered", "verify-all as recorded"),
        (verify, outcome(0, MATRIX.replace("(3 nuclei)", "(4 nuclei)")), "failed",
         "verify-all with another detail on a PASS row"),
        (verify, outcome(0, MATRIX.replace("skip  (carrier too large)", "PASS  (2 nuclei)")),
         "answered", "verify-all whose recorded skip row now passes"),
        (verify, outcome(1, MATRIX.replace("PASS", "FAIL")), "failed", "verify-all with a FAIL row, exit 1"),
        (verify, outcome(0, MATRIX.replace("PASS", "FAIL")), "failed", "verify-all with a FAIL row, exit 0"),
        (verify, outcome(0, MATRIX.replace("PASS  (3 nuclei)", "skip  (carrier too large)")),
         "failed", "verify-all whose recorded PASS row now skips"),
        (answers, outcome(0, "2 nuclei\n"), "answered", "answer as recorded"),
        (answers, outcome(0, "3 nuclei\n"), "failed", "answer with other stdout"),
        (answers, outcome(1, "", "hypothesis not met\n"), "failed", "exit 1 where the seed answered"),
        (answers, outcome(0, "InternalCheckError\n"), "failed", "InternalCheckError"),
        (answers, outcome("ValueError"), "failed", "raises out of cli.main"),
        (refuses, outcome(1), "refused", "cap refusal as recorded"),
        (refuses, outcome(0, "sizes\n"), "answered", "recorded cap refusal now answers"),
        (refuses, outcome(2, "", "bad input\n"), "failed", "exit 2 where the seed exited 1"),
        (over_cap, outcome(1, "", "too large\n"), "rejected", "over-cap input refused"),
        (over_cap, outcome(0, "16 nuclei\n"), "answered", "over-cap input now answers"),
        (crashes, outcome(2, "", "depth must be at least 1\n"), "rejected", "malformed input rejected"),
        (crashes, outcome("IndexError"), "known", "malformed input raises as recorded"),
        (crashes, outcome("ValueError"), "failed", "malformed input raises something new"),
    ]
    for op, out, want, what in cases:
        got, _ = run.verdict(op, out, record)
        check(got == want, f"verdict: {what} is {want} (got {got})", failures)


def docs_of(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    record = run.load_record()["ops"]
    failures: list = []
    check_verdicts(failures)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=run.ROOT))
    try:
        for workload in workloads.WORKLOADS:
            ops = run.build_ops(workload, 7, scratch / f"{workload}-a")
            again = run.build_ops(workload, 7, scratch / f"{workload}-b")
            same_docs = docs_of(scratch / f"{workload}-a") == docs_of(scratch / f"{workload}-b")
            check(
                [o.key for o in ops] == [o.key for o in again] and same_docs,
                f"{workload}: seed 7 gives the same ops and documents twice",
                failures,
            )
            check(
                all(o.key in record for o in ops),
                f"{workload}: every op of seed 7 has a recorded outcome",
                failures,
            )
            if workload == "corpus-sweep":
                other = run.build_ops(workload, 8, scratch / f"{workload}-c")
                check(
                    {o.key for o in other} != {o.key for o in ops},
                    f"{workload}: seeds 7 and 8 give different mixes",
                    failures,
                )

            tracer = spans.Tracer()
            plain = run.run_pass(ops, record, keep_outcomes=True)
            traced = [run.run_pass(ops, record, tracer, keep_outcomes=True) for _ in range(2)]
            for t in traced:
                check(
                    [(o.code, o.stdout) for o in t.outcomes]
                    == [(o.code, o.stdout) for o in plain.outcomes],
                    f"{workload}: traced and untraced passes agree on every op",
                    failures,
                )
            for name in EXACT:
                first, second = (t.layers[name] for t in traced)
                check(first == second, f"{workload}: {name} repeats ({first}, {second})", failures)
            for name, value in (
                ("answered_ops", lambda p: p.kinds["answered"]),
                ("rows_passed", lambda p: p.rows_passed),
            ):
                seen = [value(p) for p in (plain, *traced)]
                check(len(set(seen)) == 1, f"{workload}: {name} repeats {seen}", failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
