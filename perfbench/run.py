"""Closed-loop benchmark of the quantic CLI.

One caller runs a workload's ops (``quantic.cli.main`` calls) in one
process, each after the previous one returned, in passes over the op list
until ``--seconds`` is used up.  Each set-up is timed in a fresh
interpreter, and ``--workload all`` runs each workload in a process of its
own.  Every op is checked against the outcome recorded at the seed commit
in ``record.json``.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics and the tracing overhead.  A table of every metric, its
unit and sample count comes before it.

    python3 perfbench/run.py --workload corpus-sweep --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # a table per workload
    python3 perfbench/run.py --record                         # rewrite record.json

Run it from a checkout: it imports quantic from ``src/`` and writes only
under ``.perfbench-work-*/`` (documents, removed at exit) and
``.perfbench-out/`` (spans of traced runs).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"
SETUPS = 5
# The fastest calibrate() on the reference machine (x86_64, 2 vCPUs,
# Python 3.11.7) when the benchmark was defined.
CALIBRATION_S = 0.00047

import spans  # noqa: E402
import workloads  # noqa: E402

# The end-to-end metrics of BENCHMARK.json; op_p90_ms is only printed, and
# only for workloads of at least 100 ops a pass.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "answered_ops": "count",
    "rows_passed": "count",
    "peak_rss_mb": "MB",
}
P90_MIN_OPS = 100


# -- machine speed ------------------------------------------------------------------


def calibrate() -> float:
    """Time a fixed piece of pure-Python work: closure tables on a chain.

    The machine this runs on is shared.  For seconds to minutes at a time it
    runs the same code up to twice as slowly, which moves raw timings far
    more than the bounds allow.  The benchmark times this work before and
    after every op and reports op times at the reference speed:
    measured seconds * CALIBRATION_S / calibration.  It does not use
    quantic, so no change to quantic moves it.
    """
    start = time.perf_counter()
    n = 8
    up = tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n))
    for _ in range(2):
        seen = {}
        for c in range(1 << (n - 1), 1 << n):
            table = []
            for x in range(n):
                fiber = c & up[x]
                table.append((fiber & -fiber).bit_length() - 1)
            key = tuple(table)
            seen[key] = [k for k in range(n) if key[k] == k]
        ranked = sorted(seen.items(), key=lambda kv: (len(kv[1]), kv[0]))
    if len(ranked) != 1 << (n - 1):
        raise RuntimeError("calibration work changed")
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_S * 2 / (before + after)


# -- one op -------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    code: object  # exit code, or the name of the exception raised out of cli.main
    stdout: str
    stderr: str


def call_cli(cli, argv, stdin: str) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception as exc:  # a crash is an outcome to record, not a harness error
        code = type(exc).__name__
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return Outcome(seconds, code, out.getvalue(), err.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def verify_rows(stdout: str) -> dict:
    """Row name -> PASS, FAIL or skip, from verify-all's text output."""
    return dict(line.split()[:2] for line in stdout.splitlines()[1:] if len(line.split()) >= 2)


def row_record(stdout: str) -> str:
    """verify-all's output line by line as name:mark:hash; the header has no name or mark."""
    lines = stdout.splitlines()
    fields = [("", "")] + [tuple((line.split() + ["", ""])[:2]) for line in lines[1:]]
    return " ".join(f"{name}:{mark}:{digest(line)[:8]}" for (name, mark), line in zip(fields, lines))


def rows_kept(recorded: str, stdout: str) -> bool:
    """Every line is the recorded one, except recorded skip rows that now pass."""
    lines = stdout.splitlines()
    entries = [entry.split(":") for entry in recorded.split()]
    if len(lines) != len(entries):
        return False
    for line, (name, mark, hashed) in zip(lines, entries):
        if digest(line)[:8] != hashed and not (mark == "skip" and line.split()[:2] == [name, "PASS"]):
            return False
    return True


def record_entry(op, out: Outcome) -> list:
    """The recorded outcome of an op: exit code, stdout hash and, for verify-all, its lines."""
    entry = [out.code, digest(out.stdout)]
    if op.argv[0] == "verify-all":
        entry.append(row_record(out.stdout))
    return entry


def verdict(op, out: Outcome, record: dict):
    """(kind, reason): kind is answered, refused, rejected, known or failed.

    An op fails when it raises out of cli.main, prints InternalCheckError,
    exits non-zero where the seed commit answered, exits with another
    non-zero code than the seed commit (so exit 2 or 3 where it did not),
    or answers with other stdout than the record.  A
    verify-all with a FAIL row fails whatever its exit code.  An op recorded
    as a cap refusal (exit 1) that now answers is answered, and so is a
    verify-all whose recorded skip rows now pass and whose other lines are
    unchanged.  A malformed-input op must exit with an expected code and one
    stderr line; if it instead raises what it raised at the seed commit, it
    is a known failure, reported apart from new ones.
    """
    seed = record.get(op.key)
    if op.expect is not None:
        if out.code in op.expect and len(out.stderr.splitlines()) == 1:
            return "rejected", ""
        if seed is not None and seed[0] == 1 and out.code == 0:
            return "answered", "a recorded cap refusal now answers"
        if seed is not None and out.code == seed[0] and isinstance(out.code, str):
            return "known", f"raises {out.code}, as at the seed commit"
        return "failed", f"exit {out.code}, stderr {out.stderr.strip()[:120]!r}"
    if seed is None:
        return "failed", "no recorded outcome"
    if isinstance(out.code, str):
        return "failed", f"raised {out.code}"
    if "InternalCheckError" in out.stdout or "InternalCheckError" in out.stderr:
        return "failed", "InternalCheckError"
    if op.argv[0] == "verify-all" and "FAIL" in verify_rows(out.stdout).values():
        return "failed", "a verify-all row fails"
    if out.code == 0:
        if seed[0] == 0 and digest(out.stdout) != seed[1]:
            if len(seed) < 3 or not rows_kept(seed[2], out.stdout):
                return "failed", "stdout differs from the record"
        return "answered", ""
    if out.code != seed[0]:
        return "failed", f"exit {out.code}, seed exited {seed[0]}"
    return "refused", ""


# -- one pass -----------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0  # measured, to keep the run within its length
    latencies: list = field(default_factory=list)  # at the reference speed
    scale: float = 1.0  # CALIBRATION_S over the pass's median calibration
    kinds: Counter = field(default_factory=Counter)
    rows_passed: int = 0
    failures: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_pass(ops, record: dict, tracer=None, keep_outcomes=False) -> Pass:
    cli = sys.modules["quantic.cli"]
    if tracer is not None:
        tracer.install()
        tracer.begin_pass()
    result = Pass()
    stdout_of: dict = {}
    calibrations = [calibrate()]
    start = time.perf_counter()
    try:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            out = call_cli(cli, op.argv, stdout_of.get(op.stdin_from, ""))
            if tracer is not None:
                tracer.end_op(out.code, out.seconds)
            calibrations.append(calibrate())
            stdout_of[op.key] = out.stdout
            kind, reason = verdict(op, out, record)
            result.kinds[kind] += 1
            result.latencies.append(at_reference_speed(out.seconds, *calibrations[-2:]))
            if kind in ("failed", "known"):
                result.failures.append((kind, op.key, reason))
            if op.argv[0] == "verify-all":
                result.rows_passed += list(verify_rows(out.stdout).values()).count("PASS")
            if keep_outcomes:
                result.outcomes.append(out)
        result.wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.scale = CALIBRATION_S / statistics.median(calibrations)
    if tracer is not None:
        result.layers = {
            name: value * result.scale if name.endswith("_s") else value
            for name, value in tracer.pass_metrics().items()
        }
    return result


# -- set-up -------------------------------------------------------------------------


def build_ops(workload: str, seed, workdir: Path) -> list:
    """Import quantic and write the workload's documents; return its ops."""
    importlib.import_module("quantic.cli")
    return workloads.build(workload, seed, workdir)


def timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """build_ops in an interpreter without quantic loaded: seconds at the reference speed."""
    before = calibrate()
    start = time.perf_counter()
    build_ops(workload, seed, workdir)
    seconds = time.perf_counter() - start
    return at_reference_speed(seconds, before, calibrate())


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Time one set-up in a fresh interpreter.

    A set-up in the benchmark process would have to drop quantic and import
    it again.  The dropped copies raise the process's peak RSS a little with
    every pass, so peak_rss_mb would follow how many passes the machine's
    speed allowed.
    """
    code = (
        "import sys, run; sys.path.insert(0, str(run.ROOT / 'src'));"
        " print(run.timed_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, workload, str(seed), str(workdir)],
        cwd=HERE, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.splitlines()[-1])


def load_record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


# -- a run --------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    record = load_record()["ops"]
    setup_times, plain, with_trace = [], [], []
    tracer = spans.Tracer() if traced else None
    start = time.perf_counter()
    ops = build_ops(workload, seed, workdir / "docs")
    # A set-up before every pass spreads the set-up samples over the run,
    # as the machine's slow spells are seconds long.
    while True:
        setup_times.append(setup_seconds(workload, seed, workdir / "setup"))
        plain.append(run_pass(ops, record))
        if traced:
            with_trace.append(run_pass(ops, record, tracer))
        step = plain[-1].wall + (with_trace[-1].wall if traced else 0.0)
        if time.perf_counter() - start + step > seconds:
            break
    while len(setup_times) < SETUPS:
        setup_times.append(setup_seconds(workload, seed, workdir / "setup"))
    passes = plain + with_trace
    kinds = sum((p.kinds for p in passes), Counter())
    failures = [f for p in passes for f in p.failures]
    typical = typical_ops(plain)
    samples = len(plain) * len(ops)
    e2e = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "wall_s": (sum(typical), len(plain)),
        "op_p50_ms": (1000 * statistics.median(typical), samples),
        "answered_ops": (statistics.median(p.kinds["answered"] for p in plain), len(plain)),
        "rows_passed": (statistics.median(p.rows_passed for p in plain), len(plain)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    attempted = sum(kinds.values())
    summary = {
        "attempted": attempted,
        "failed": kinds["failed"],
        "known_failures": kinds["known"],
        "fail_rate": (kinds["failed"] + kinds["known"]) / attempted,
        "ops_per_pass": len(ops),
        "passes": len(plain),
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, (v, _) in e2e.items()}
    if len(ops) >= P90_MIN_OPS:
        summary["op_p90_ms"] = (1000 * statistics.quantiles(typical, n=10)[-1], samples)
    layers = {}
    if traced:
        layers = {k: statistics.median(p.layers[k] for p in with_trace) for k in with_trace[0].layers}
        layers["trace.overhead_s"] = sum(typical_ops(with_trace)) - e2e["wall_s"][0]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        write_spans(workload, seed, tracer)
    print_report(workload, seed, e2e, summary, layers, failures, len(with_trace))
    return {
        "correct": kinds["failed"] == 0,
        "attempted": attempted,
        "failed": kinds["failed"],
        "metrics": metrics,
    }


def typical_ops(passes: list) -> list:
    """Each op's median time over the passes, at the reference speed."""
    return [statistics.median(times) for times in zip(*(p.latencies for p in passes))]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "nucleus.yield" else "count"


def write_spans(workload: str, seed: int, tracer):
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    doc = {"fields": ["name", "start", "end", "parent", "error"], "spans": tracer.spans}
    (out / f"spans-{workload}-{seed}.json").write_text(json.dumps(doc), encoding="utf-8")


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine()}


def print_report(workload, seed, e2e, summary, layers, failures, traced_passes):
    env = environment()
    recorded = load_record()["environment"]
    print(f"== {workload}  seed {seed}  python {env['python']}  nproc {env['nproc']}"
          f"  record from commit {recorded['commit']}")
    print(f"   closed loop, 1 caller; {summary['ops_per_pass']} ops per pass,"
          f" {summary['passes']} untraced passes, {traced_passes} traced")
    print(f"   {'metric':44s} {'value':>14s} {'unit':6s} samples")
    for name, (value, samples) in e2e.items():
        print(f"   {name:44s} {value:14.4f} {END_TO_END_UNITS[name]:6s} {samples}")
    if "op_p90_ms" in summary:
        value, samples = summary["op_p90_ms"]
        print(f"   {'op_p90_ms':44s} {value:14.4f} {'ms':6s} {samples}")
    print(f"   {'fail_rate':44s} {summary['fail_rate']:14.4f} {'ratio':6s} {summary['attempted']}"
          f"  ({summary['failed']} failed, {summary['known_failures']} known failures)")
    for name, value in layers.items():
        print(f"   {name:44s} {value:14.4f} {layer_unit(name):6s} {traced_passes}")
    for kind, key, reason in sorted(set(failures)):
        print(f"   {kind}: {key}: {reason}")


# -- the record ---------------------------------------------------------------------


def write_record(workdir: Path):
    """Run every op any seed can produce once and record its outcome."""
    importlib.import_module("quantic.cli")
    outcomes = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, None, workdir / workload)
        cli = sys.modules["quantic.cli"]
        stdout_of: dict = {}
        for op in ops:
            out = call_cli(cli, op.argv, stdout_of.get(op.stdin_from, ""))
            stdout_of[op.key] = out.stdout
            outcomes[op.key] = record_entry(op, out)
        print(f"recorded {len(ops)} ops of {workload}", file=sys.stderr)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    dump_record({"commit": commit, **environment()}, outcomes)


def dump_record(env: dict, outcomes: dict):
    """One op per line, so that a change to the record reads as a short diff."""
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(outcomes.items())]
    text = '{\n"environment": ' + json.dumps(env) + ',\n"ops": {\n' + ",\n".join(lines) + "\n}}\n"
    RECORD.write_text(text, encoding="utf-8")


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record", action="store_true",
        help="rewrite record.json from the current sources and exit; only for a change to the ops",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quantic" / "__init__.py").is_file():
        print(f"no quantic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all" and not args.record:
        return run_each(args)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.record:
            write_record(workdir)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir / args.workload)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_each(args) -> int:
    """Run every workload in a process of its own, so that peak_rss_mb is its own."""
    code = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
