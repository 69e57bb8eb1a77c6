"""Batch command-line interface.

Every subcommand reads StructureDoc JSON (file path or - for stdin), writes
deterministic text or JSON to stdout, and exits 1 when a hypothesis fails
or the reader closes stdout early, 2 on malformed input and 3 when an
internal check fails or any other exception is raised, with one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .divisorial import is_simple, is_stable, stable_closure, v
from .errors import (
    CarrierTooLarge,
    HypothesisNotMet,
    NoUnit,
    NotAMorphism,
    StructureError,
    UndecidableFamily,
)
from .finitary import is_finitary, star_f
from .idl import idl, roundtrip_checks
from .instances import (
    check_system_base,
    cyclic_group,
    klein_four,
    module_system_lattice,
    powerset_prequantale,
    trivial_monoid,
)
from .lazy import LazyCarrier
from .magma import OrderedMagma
from .nucleus import (
    enumerate_nuclei,
    is_strict_nucleus,
    nucleus_lattice,
    nucleus_tower,
)
from .rings import FiniteRing, poly_quotient_order, ring_ideal_lattice
from .structdoc import (
    LAZY_CARRIERS,
    load_any,
    load_map_on,
    read_doc,
    to_json,
)
from .verify import run_all, run_all_lazy

HYPOTHESIS_EXIT = 1
MALFORMED_EXIT = 2
INTERNAL_EXIT = 3


def _load_magma_arg(path: str):
    obj = load_any(read_doc(path))
    if isinstance(obj, (OrderedMagma, LazyCarrier)):
        return obj
    raise StructureError("expected a magma document")


def _load_finite_magma(path: str) -> OrderedMagma:
    obj = _load_magma_arg(path)
    if not isinstance(obj, OrderedMagma):
        raise HypothesisNotMet("this command needs a finite carrier")
    return obj


def _emit(args, payload: dict, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- make -----------------------------------------------------------------------


def cmd_make(args) -> int:
    if args.what == "ring":
        if args.zmod is not None:
            ring = FiniteRing.zmod(args.zmod)
        elif args.poly is not None:
            p, coeffs, pretty = _parse_poly_spec(args.poly)
            ring = FiniteRing.poly_quotient(p, coeffs, name=f"F_{p}[x]/({pretty})")
        else:
            raise StructureError("make ring needs --zmod N or --poly p=2,f=x^3")
        print(to_json(ring_ideal_lattice(ring).magma))
        return 0
    if args.what == "module-system-lattice":
        group = _parse_group(args.group or "Z1")
        print(to_json(module_system_lattice(group).magma))
        return 0
    if args.what == "powerset":
        if not args.magma:
            raise StructureError("make powerset needs --magma FILE")
        base = _load_finite_magma(args.magma)
        print(to_json(powerset_prequantale(base, drop_empty=args.drop_empty).magma))
        return 0
    if args.what == "upsets":
        print(to_json(LAZY_CARRIERS["upsets-nat"]()))
        return 0
    raise StructureError(f"unknown make target {args.what!r}")


def _parse_poly_spec(spec: str):
    """Accepts p=2,f=x^3 or the shorthand 2,x^3: a prime and a monic polynomial."""
    try:
        head, poly = spec.split(",", 1)
        head = head.strip()
        if head.startswith("p="):
            head = head[2:]
        poly = poly.strip()
        if poly.startswith("f="):
            poly = poly[2:]
        p = int(head)
        coeffs: dict = {}
        for term in poly.replace("-", "+-").split("+"):
            term = term.strip()
            if not term:
                continue
            if "x" not in term:
                coeffs[0] = coeffs.get(0, 0) + int(term)
                continue
            lhs, _, rhs = term.partition("x")
            c = -1 if lhs.strip() == "-" else int(lhs) if lhs.strip() else 1
            d = int(rhs[1:]) if rhs.startswith("^") else 1
            coeffs[d] = coeffs.get(d, 0) + c
    except ValueError as exc:
        raise StructureError("poly spec must look like p=2,f=x^3") from exc
    if not coeffs:
        raise StructureError("poly spec has no polynomial")
    if p < 2:
        raise StructureError("coefficient field needs a prime order")
    deg = max(coeffs)
    # A ring over the cap is refused by its degree, before the coefficient list.
    poly_quotient_order(p, deg, coeffs[deg], f"F_{p}[x]/({poly})")
    out = [(coeffs.get(i, 0)) % p for i in range(deg + 1)]
    return p, out, poly


def _parse_group(name: str) -> OrderedMagma:
    label = name.strip().upper()
    if label in ("Z1", "1", "TRIVIAL"):
        return trivial_monoid()
    if label.startswith("Z") and label[1:].isdecimal():
        n = int(label[1:])
        check_system_base(n)
        return cyclic_group(n)
    if label in ("V4", "KLEIN"):
        return klein_four()
    raise StructureError(f"unknown group {name!r}")


# -- analysis commands -------------------------------------------------------------


def cmd_classify(args) -> int:
    m = _load_magma_arg(args.file)
    if isinstance(m, OrderedMagma):
        profile = m.profile.as_dict()
        name = m.name or "magma"
    else:
        profile = dict(sorted(m.declared_profile.items()))
        name = m.name
    lines = [f"classification of {name}:"]
    for key in sorted(profile):
        lines.append(f"  {key:28s} {str(bool(profile[key])).lower()}")
    klass = _diagram_position(profile)
    lines.append(f"  diagram position: {klass}")
    _emit(args, {"name": name, "profile": profile, "position": klass}, lines)
    return 0


def _diagram_position(profile: dict) -> str:
    order = [
        ("multiplicative_lattice", "multiplicative lattice"),
        ("near_multiplicative_lattice", "near multiplicative lattice"),
        ("quantale", "quantale"),
        ("near_quantale", "near quantale"),
        ("prequantale", "prequantale"),
        ("near_prequantale", "near prequantale"),
        ("semiprequantale", "semiprequantale"),
        ("prequantic_semilattice", "prequantic semilattice"),
        ("multiplicative_semilattice", "multiplicative semilattice"),
    ]
    for key, label in order:
        if profile.get(key):
            return label
    return "ordered magma"


def cmd_nuclei(args) -> int:
    m = _load_finite_magma(args.file)
    maps = enumerate_nuclei(m)
    strict = [is_strict_nucleus(m, s) for s in maps]
    if args.json:
        nuclei = [{"assign": list(s.table), "strict": st, "image": s.image()} for s, st in zip(maps, strict)]
        _emit(args, {"count": len(maps), "nuclei": nuclei}, [])
        return 0
    labels, lines = m.poset.labels, [f"{len(maps)} nuclei on {m.name or 'magma'}:"]
    for i, (s, st) in enumerate(zip(maps, strict)):
        fixed = ",".join(labels[x] for x in s.image())
        lines.append(f"  n{i}: assign={list(s.table)} strict={str(st).lower()} image={{{fixed}}}")
    _emit(args, {}, lines)
    return 0


def cmd_nucleus_lattice(args) -> int:
    m = _load_finite_magma(args.file)
    lat = nucleus_lattice(m)
    if args.dot:
        print(_dot_of(lat.magma))
        return 0
    lines = [f"N(M) has {lat.magma.n} elements; join table:"]
    for i in range(lat.magma.n):
        lines.append("  " + " ".join(f"n{lat.magma.op(i, j)}" for j in range(lat.magma.n)))
    payload = {
        "count": lat.magma.n,
        "nuclei": [list(s.table) for s in lat.maps],
        "join": [list(row) for row in lat.magma.mul],
    }
    _emit(args, payload, lines)
    return 0


def _dot_of(m: OrderedMagma) -> str:
    p = m.poset
    out = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(p.n):
        out.append(f'  {i} [label="{p.labels[i]}"];')
    for i in range(p.n):
        for j in p.covers(i):
            out.append(f"  {i} -> {j};")
    out.append("}")
    return "\n".join(out)


def cmd_star_f(args) -> int:
    if args.carrier:
        carrier = LAZY_CARRIERS[args.carrier]()
        rule = carrier.rule_map(args.nucleus)
        companion = star_f(carrier, rule)
        report = is_finitary(companion)
        sample = carrier.sample(6)
        lines = [f"star_f of {rule.name} on {carrier.name}:"]
        for x in sample:
            lines.append(f"  {x!r} -> {companion(x)!r}")
        lines.append(f"finitary: {report.is_finitary} ({report.note})")
        _emit(args, {"carrier": carrier.name, "nucleus": rule.name,
                     "finitary": report.is_finitary, "note": report.note}, lines)
        return 0
    if args.magma is None:
        raise StructureError("star-f needs a magma document, or --carrier with a shipped nucleus")
    m = _load_finite_magma(args.magma)
    s = load_map_on(read_doc(args.nucleus), m)
    companion = star_f(m, s)
    report = is_finitary(companion)
    lines = [f"star_f assign={list(companion.table)}", f"finitary: {report.is_finitary} ({report.note})"]
    _emit(args, {"assign": list(companion.table), "finitary": report.is_finitary}, lines)
    return 0


def cmd_stable(args) -> int:
    m = _load_finite_magma(args.magma)
    s = load_map_on(read_doc(args.nucleus), m)
    bar = stable_closure(m, s)
    stable = is_stable(m, s)
    lines = [f"stable closure assign={list(bar.table)}", f"is_stable: {str(stable).lower()}"]
    _emit(args, {"assign": list(bar.table), "is_stable": stable}, lines)
    return 0


def cmd_v(args) -> int:
    m = _load_finite_magma(args.magma)
    s = v(m, args.element, strategy=args.strategy)
    lines = [f"v({m.label(args.element)}) assign={list(s.table)}"]
    _emit(args, {"assign": list(s.table), "element": args.element}, lines)
    return 0


def cmd_simple(args) -> int:
    m = _load_finite_magma(args.file)
    rep = is_simple(m)
    lines = [f"simple: {str(rep.simple).lower()}"]
    for route, verdict in sorted(rep.routes.items()):
        lines.append(f"  route {route}: {str(verdict).lower()}")
    _emit(args, {"simple": rep.simple, "routes": rep.routes}, lines)
    return 0


def cmd_idl(args) -> int:
    m = _load_finite_magma(args.file)
    comp = idl(m)
    print(to_json(comp.magma))
    return 0


def cmd_roundtrip(args) -> int:
    m = _load_finite_magma(args.file)
    rep = roundtrip_checks(m)
    lines = ["round trips verified; witnesses:"]
    lines.append(
        "  to completion: "
        + " ".join(f"{m.label(x)}->i{i}" for x, i in sorted(rep.to_completion.items()))
    )
    lines.append(
        "  from completion: "
        + " ".join(f"i{i}->{m.label(x)}" for i, x in sorted(rep.from_completion.items()))
    )
    _emit(args, {"to_completion": rep.to_completion, "from_completion": rep.from_completion}, lines)
    return 0


def cmd_tower(args) -> int:
    m = _load_finite_magma(args.file)
    rep = nucleus_tower(m, depth=args.depth)
    lines = [f"tower sizes: {list(rep.sizes)}"]
    lines.append(f"stabilizes at the last step: {str(rep.stabilizes).lower()}")
    lines.append(f"simple (nucleus count <= 2): {str(rep.simple).lower()}")
    _emit(
        args,
        {"sizes": list(rep.sizes), "stabilizes": rep.stabilizes, "simple": rep.simple},
        lines,
    )
    return 0


def cmd_verify_all(args) -> int:
    m = _load_magma_arg(args.file)
    results = run_all(m) if isinstance(m, OrderedMagma) else run_all_lazy(m)
    lines = [f"verification matrix for {m.name or 'magma'}:"]
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[r.status]
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"  {r.name:24s} {mark}{detail}")
    payload = {r.name: {"status": r.status, "detail": r.detail} for r in results}
    _emit(args, payload, lines)
    return 1 if any(r.status == "fail" for r in results) else 0


# -- wiring -------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    top = argparse.ArgumentParser(prog="quantic", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="construct a structure document")
    mk.add_argument("what", choices=["ring", "module-system-lattice", "powerset", "upsets"])
    mk.add_argument("--zmod", type=int)
    mk.add_argument("--poly", help="p,f such as 2,x^3")
    mk.add_argument("--group", help="Z1, Z2, Z3, Z4, V4")
    mk.add_argument("--magma", help="base magma document for powerset")
    mk.add_argument("--drop-empty", action="store_true")

    def with_json(p):
        p.add_argument("--json", action="store_true")
        return p

    c = with_json(sub.add_parser("classify", help="full classification profile"))
    c.add_argument("file")

    n = with_json(sub.add_parser("nuclei", help="enumerate all nuclei"))
    n.add_argument("file")

    nl = with_json(sub.add_parser("nucleus-lattice", help="N(M) as a lattice"))
    nl.add_argument("file")
    nl.add_argument("--dot", action="store_true", help="emit the Hasse diagram")

    sf = with_json(sub.add_parser("star-f", help="largest finitary nucleus below"))
    sf.add_argument("magma", nargs="?")
    sf.add_argument("nucleus", help="map document, or a shipped name with --carrier")
    sf.add_argument("--carrier", choices=sorted(LAZY_CARRIERS))

    st = with_json(sub.add_parser("stable", help="coarsest stable nucleus below"))
    st.add_argument("magma")
    st.add_argument("nucleus")

    vv = with_json(sub.add_parser("v", help="divisorial closure of an element"))
    vv.add_argument("magma")
    vv.add_argument("element", type=int)
    vv.add_argument("--strategy", default="all", choices=["lin", "rs", "residual", "units", "all"])

    si = with_json(sub.add_parser("simple", help="simplicity via three routes"))
    si.add_argument("file")

    di = sub.add_parser("idl", help="ideal completion document")
    di.add_argument("file")

    rt = with_json(sub.add_parser("roundtrip", help="representation round trips"))
    rt.add_argument("file")

    tw = with_json(sub.add_parser("tower", help="iterated nucleus lattices"))
    tw.add_argument("file")
    tw.add_argument("--depth", type=int, default=2)

    va = with_json(sub.add_parser("verify-all", help="proposition-keyed verification matrix"))
    va.add_argument("file")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The shared parser names the command; its function is looked up at call
    # time, so a replaced cmd_* function is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again, as the SIGPIPE note of the Python docs does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except StructureError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return MALFORMED_EXIT
    except (HypothesisNotMet, NoUnit, NotAMorphism, UndecidableFamily, CarrierTooLarge) as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return HYPOTHESIS_EXIT
    except Exception as exc:
        # Name the innermost frame in this package; main's own frame is one.
        tb, where = exc.__traceback__, ""
        while tb is not None:
            filename = tb.tb_frame.f_code.co_filename
            if os.path.dirname(filename) == os.path.dirname(__file__):
                where = f"quantic/{os.path.basename(filename)}:{tb.tb_lineno}"
            tb = tb.tb_next
        print(f"internal error in {args.command}: {type(exc).__name__} at {where}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
