"""Op lists and input documents for the three benchmark workloads.

An op is one ``quantic.cli.main`` call.  ``build(workload, seed, workdir)``
writes the workload's documents and returns its ops in run order;
``build(workload, None, workdir)`` returns the pool: every op that any seed
can produce, which is what the recorded seed outcomes cover.

Documents are named ``@name`` in op arguments and written as
``<workdir>/<name>.json``.  An op key is its argument list with those names
unresolved, plus ``< key`` of the op whose stdout it reads as stdin, so keys
do not depend on where the documents live.

Quantic is imported inside the builders, not at module load, so that the
set-up time the benchmark measures includes importing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("ring-verify", "nucleus-scale", "corpus-sweep")

ANALYSES = ("classify", "nuclei", "nucleus-lattice", "simple", "idl", "roundtrip", "verify-all")


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple
    stdin_from: Optional[str] = None
    # Accepted exit codes for a malformed-input op, which must also print
    # exactly one stderr line; None for ops checked against the record.
    expect: Optional[tuple] = None


@dataclass
class Plan:
    workdir: Path
    rng: Optional[random.Random]
    docs: dict = field(default_factory=dict)
    groups: list = field(default_factory=list)

    def doc(self, name: str, content) -> str:
        self.docs[name] = content
        return "@" + name

    def group(self) -> list:
        """A list of ops that run in order; the seed shuffles whole groups."""
        ops: list = []
        self.groups.append(ops)
        return ops

    def pick(self, candidates: list) -> list:
        """One seeded choice, or every candidate when building the pool."""
        return list(candidates) if self.rng is None else [self.rng.choice(candidates)]

    def finish(self) -> list:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, content in self.docs.items():
            path = self.workdir / f"{name}.json"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        if self.rng is not None:
            self.rng.shuffle(self.groups)
        return [
            Op(op.key, tuple(self._resolve(a) for a in op.argv), op.stdin_from, op.expect)
            for ops in self.groups
            for op in ops
        ]

    def _resolve(self, arg: str) -> str:
        return str(self.workdir / f"{arg[1:]}.json") if arg.startswith("@") else arg


def op(ops: list, *argv: str, stdin: Optional[str] = None, expect: Optional[tuple] = None) -> str:
    key = " ".join(argv) + (f" < {stdin}" if stdin else "")
    ops.append(Op(key, argv, stdin, expect))
    return key


def sweep(ops: list, src: str, n: int, stdin: Optional[str] = None):
    """Every analysis command on one carrier, and v at each element."""
    for cmd in ANALYSES:
        op(ops, cmd, src, stdin=stdin)
    for a in range(n):
        op(ops, "v", src, str(a), "--strategy", "all", stdin=stdin)


def meet_lattice(poset, name: str):
    from quantic.magma import OrderedMagma

    n = poset.n
    return OrderedMagma(poset, [[poset.meet(i, j) for j in range(n)] for i in range(n)], name=name)


def chain_product(a: int, b: int):
    from quantic.poset import FinitePoset

    pairs = [(i, j) for i in range(a) for j in range(b)]
    leq = [[x[0] <= y[0] and x[1] <= y[1] for y in pairs] for x in pairs]
    return FinitePoset(leq, [f"{i}{j}" for i, j in pairs])


def build(workload: str, seed: Optional[int], workdir: Path) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    plan = Plan(Path(workdir), None if seed is None else random.Random(f"{workload}:{seed}"))
    {"ring-verify": ring_verify, "nucleus-scale": nucleus_scale, "corpus-sweep": corpus_sweep}[
        workload
    ](plan)
    return plan.finish()


# -- ring-verify ---------------------------------------------------------------------
#
# The ROADMAP pipeline `make ring | verify-all -`.  Ops that take seconds
# (verify-all on I(Z/36), I(Z/48), I(Z/60), I(Z/210); `make --zmod 120` and
# `--zmod 210`) are left out: each op's time is its median over the passes
# of a run, and with them a run would hold two or three passes instead of
# about ten.  `make --zmod 105` keeps the rings layer's additive span and
# ring validation visible.  F_2[x]/((x^2+x)^3) has 16 ideals, above the
# 2^n scan cap of classify, so its classify skips the scan.


def ring_verify(plan: Plan):
    for spec in (
        ("--zmod", "12"),
        ("--zmod", "30"),
        ("--poly", "2,x^4"),
        ("--poly", "3,x^3"),
    ):
        ops = plan.group()
        made = op(ops, "make", "ring", *spec)
        op(ops, "verify-all", "-", stdin=made)
    for spec in (("--zmod", "105"), ("--poly", "2,x^6+x^5+x^4+x^3")):
        ops = plan.group()
        made = op(ops, "make", "ring", *spec)
        op(ops, "classify", "-", stdin=made)


# -- nucleus-scale -------------------------------------------------------------------
#
# Few large lattices through the nucleus kernels, each op a second at most
# (see ring-verify).  nuclei on chain-12 (6 s), nucleus-lattice on
# 2^4 (3.4 s) and tower on I(Z/30) (3.5 s) are left out; chain-10 nuclei,
# nucleus-lattice on 2^3 and 3x3, and the diamond tower keep those
# mechanisms.  The cap refusal runs on chain-9 under meet: its 256 nuclei
# are enumerated before N(M) is refused, the same wasted work as the
# modsys-z2 tower (11 s) at a size a pass can repeat.  One small verify-all
# keeps rows_passed defined here.


def nucleus_scale(plan: Plan):
    from quantic.corpus import standard_corpus
    from quantic.poset import FinitePoset
    from quantic.structdoc import to_json

    chain9 = plan.doc("chain9-meet", to_json(meet_lattice(FinitePoset.chain(9), "chain9-meet")))
    chain10 = plan.doc("chain10-meet", to_json(meet_lattice(FinitePoset.chain(10), "chain10-meet")))
    chain12 = plan.doc("chain12-meet", to_json(meet_lattice(FinitePoset.chain(12), "chain12-meet")))
    bool3 = plan.doc("bool3-meet", to_json(meet_lattice(FinitePoset.powerset(3), "bool3-meet")))
    square = plan.doc("chain3x3-meet", to_json(meet_lattice(chain_product(3, 3), "chain3x3-meet")))
    diamond = plan.doc("diamond-join", to_json(standard_corpus()["diamond-join"]))
    op(plan.group(), "classify", chain12)
    op(plan.group(), "classify", chain10)
    op(plan.group(), "nuclei", chain10)
    op(plan.group(), "nucleus-lattice", bool3)
    op(plan.group(), "nucleus-lattice", square)
    op(plan.group(), "tower", diamond, "--depth", "2")
    op(plan.group(), "tower", chain9, "--depth", "2")
    op(plan.group(), "verify-all", diamond)


# -- corpus-sweep --------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_SQUARES = (4, 9, 25)
PRIME_PAIRS = (6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39)
# Local rings F_p[x]/((x - a)^2): three ideals in a chain, whatever p and a.
LOCAL_POLYS = ("2,x^2", "2,x^2+1", "3,x^2", "3,x^2+x+1", "5,x^2", "5,x^2+2x+1")
MODULE_GROUPS = ("Z1", "Z2", "Z3", "Z4", "V4")
# Three-element tables for power sets of 7 elements; fixed so that every
# choice a seed can make is in the record.
TABLE3_POOL_SIZE = 24


def tables2() -> list:
    return [
        ((a, b), (c, d)) for a in range(2) for b in range(2) for c in range(2) for d in range(2)
    ]


def tables3() -> list:
    rng = random.Random("corpus-sweep:tables3")
    out: list = []
    while len(out) < TABLE3_POOL_SIZE:
        t = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        if t not in out:
            out.append(t)
    return out


def table_name(t) -> str:
    return f"base{len(t)}-" + ".".join("".join(map(str, row)) for row in t)


def corpus_sweep(plan: Plan):
    from quantic.corpus import standard_corpus
    from quantic.magma import OrderedMagma
    from quantic.nucleus import MonotoneMap
    from quantic.poset import FinitePoset
    from quantic.structdoc import poset_doc, to_json

    # The finite standard corpus, with identity and top-collapse maps.
    for name, m in standard_corpus().items():
        ops = plan.group()
        src = plan.doc(f"c-{name}", to_json(m))
        sweep(ops, src, m.n)
        maps = {"id": MonotoneMap.identity(m)}
        if m.poset.top is not None:
            maps["top"] = MonotoneMap.top_map(m)
        for label, s in maps.items():
            nucleus = plan.doc(f"map-{name}-{label}", to_json(s))
            op(ops, "stable", src, nucleus)
            op(ops, "star-f", src, nucleus)

    # The seeded mix: one carrier from each pool.  Each pool holds carriers
    # of one size and lattice shape, so the seed changes the inputs but not
    # the amount of work.
    for t in plan.pick(tables2()):
        ops = plan.group()
        base = plan.doc(table_name(t), to_json(OrderedMagma(FinitePoset.antichain(2), t, name="base")))
        sweep(ops, "-", 4, stdin=op(ops, "make", "powerset", "--magma", base))
    for t in plan.pick(tables2()):
        ops = plan.group()
        base = plan.doc(table_name(t), to_json(OrderedMagma(FinitePoset.antichain(2), t, name="base")))
        sweep(ops, "-", 3, stdin=op(ops, "make", "powerset", "--magma", base, "--drop-empty"))
    for t in plan.pick(tables3()):
        ops = plan.group()
        base = plan.doc(table_name(t), to_json(OrderedMagma(FinitePoset.antichain(3), t, name="base")))
        sweep(ops, "-", 7, stdin=op(ops, "make", "powerset", "--magma", base, "--drop-empty"))
    for pool, n in ((PRIMES, 2), (PRIME_SQUARES, 3), (PRIME_PAIRS, 4)):
        for modulus in plan.pick(pool):
            ops = plan.group()
            sweep(ops, "-", n, stdin=op(ops, "make", "ring", "--zmod", str(modulus)))
    for spec in plan.pick(LOCAL_POLYS):
        ops = plan.group()
        sweep(ops, "-", 3, stdin=op(ops, "make", "ring", "--poly", spec))

    # Module-system lattices: Z3 (16 elements) and Z4, V4 (32) take seconds
    # to minutes per enumeration command, so those get classify only.
    for group in MODULE_GROUPS:
        ops = plan.group()
        made = op(ops, "make", "module-system-lattice", "--group", group)
        if group == "Z1":
            sweep(ops, "-", 4, stdin=made)
        else:
            op(ops, "classify", "-", stdin=made)

    # The two lazy carriers.
    ops = plan.group()
    made = op(ops, "make", "upsets")
    op(ops, "classify", "-", stdin=made)
    op(ops, "verify-all", "-", stdin=made)
    for name in ("monoid-ideal", "submonoid-saturation"):
        op(ops, "star-f", "--carrier", "upsets-nat", name)
    ops = plan.group()
    chain = plan.doc("chain-omega", '{"format": 1, "kind": "lazy-magma", "name": "chain-omega"}')
    op(ops, "classify", chain)
    op(ops, "verify-all", chain)
    for name in ("d", "e", "d3"):
        op(ops, "star-f", "--carrier", "chain-omega", name)

    # Malformed input: each op must exit 2 (1 for the over-cap carrier) with
    # one stderr line.  The missing file, the non-UTF-8 bytes and depth 0
    # raise out of cli.main at the seed commit.
    ops = plan.group()
    chain4 = "@c-chain4-meet"
    op(ops, "classify", "@missing", expect=(2,))
    op(ops, "classify", plan.doc("non-utf8", b'\xff\xfe{"kind": "magma"}'), expect=(2,))
    op(ops, "nuclei", plan.doc("wrong-kind", to_json(poset_doc(FinitePoset.chain(3)))), expect=(2,))
    op(ops, "v", chain4, "99", expect=(2,))
    op(ops, "tower", chain4, "--depth", "0", expect=(2,))
    big = op(ops, "make", "module-system-lattice", "--group", "Z4")
    op(ops, "nuclei", "-", stdin=big, expect=(1,))
