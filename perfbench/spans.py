"""Spans around quantic's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function in the module that
defines it and in every quantic module that imported it by name (``cli``
and ``verify`` bind ``enumerate_nuclei`` at import, for instance), and
``uninstall()`` puts the originals back.  A span is
``[name, start, end, parent, error]``; spans stay in memory until the run
writes them out.  Traced are the public module-level functions of every
layer, the functions behind the cached properties ``FinitePoset.flags`` and
``OrderedMagma.profile``, the validating constructors and the ring
factories.  ``verify.run_all`` is timed row by row: it becomes one
``run_all(m, names=[row])`` call per row on the same carrier, which does the
same work as ``run_all(m)``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from functools import cached_property

LAYERS = (
    "poset",
    "magma",
    "nucleus",
    "finitary",
    "divisorial",
    "idl",
    "rings",
    "instances",
    "lazy",
    "structdoc",
    "verify",
    "cli",
)

# Called per bit, per map built or once at import: a span there would cost
# more than it shows.
UNTRACED = {"bits", "bit_count", "poset_of", "register"}

# (layer, class, attribute, span name)
METHODS = (
    ("poset", "FinitePoset", "flags", "poset.flags"),
    ("poset", "FinitePoset", "__init__", "poset.FinitePoset"),
    ("magma", "OrderedMagma", "profile", "magma.profile"),
    ("magma", "OrderedMagma", "__init__", "magma.OrderedMagma"),
    ("rings", "FiniteRing", "__init__", "rings.FiniteRing"),
    ("rings", "FiniteRing", "zmod", "rings.zmod"),
    ("rings", "FiniteRing", "poly_quotient", "rings.poly_quotient"),
    ("lazy", "RuleMap", "__init__", "lazy.RuleMap"),
)

NAMED_SELF = (
    "poset.flags",
    "magma.classify",
    "nucleus.enumerate_closures",
    "nucleus.is_nucleus",
    "nucleus.nucleus_lattice",
    "nucleus.nucleus_tower",
    "divisorial.v",
    "divisorial.is_simple",
    "divisorial.stable_closure",
    "rings.zmod",
    "rings.ring_ideal_lattice",
    "structdoc.load_any",
    "structdoc.to_json",
    "finitary.star_f",
)
NAMED_CALLS = (
    "magma.residual",
    "nucleus.enumerate_closures",
    "nucleus.is_nucleus",
    "divisorial.v",
)
COUNTS = (
    "nucleus.candidates_walked",
    "nucleus.closures_found",
    "nucleus.enumerate_nuclei.repeat_calls",
    "verify.rows_skipped",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = dict.fromkeys(COUNTS, 0)
        self.nuclei_true = 0
        self.seen_carriers: list = []
        self.op_refused = False
        self.refused_s = 0.0
        self.first_span = 0
        self.rows: list = []
        self._restore: list = []

    # -- per-pass and per-op state --------------------------------------------

    def begin_pass(self):
        self.first_span = len(self.spans)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.nuclei_true = 0
        self.refused_s = 0.0

    def begin_op(self):
        self.seen_carriers = []
        self.op_refused = False

    def end_op(self, exit_code, seconds: float):
        """An op that exits 1 after a CarrierTooLarge was a cap refusal."""
        if exit_code == 1 and self.op_refused:
            self.refused_s += seconds

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"quantic.{layer}")
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = (fn, self._wrapper(f"{layer}.{name}", fn))
        verify = importlib.import_module("quantic.verify")
        self.rows = verify.check_names()
        wrappers[id(verify.run_all)] = (verify.run_all, self._rows_wrapper(verify.run_all))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "quantic" or mod_name.startswith("quantic."):
                for name, value in list(vars(mod).items()):
                    fn, wrapper = wrappers.get(id(value), (None, None))
                    if value is fn:
                        self._swap(mod, name, wrapper)
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(f"quantic.{layer}"), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrapper(span, original.func))
                replacement.__set_name__(cls, attr)
            elif isinstance(original, classmethod):
                replacement = classmethod(self._wrapper(span, original.__func__))
            else:
                replacement = self._wrapper(span, original)
            self._swap(cls, attr, replacement)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _swap(self, owner, name, replacement):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- spans ------------------------------------------------------------------

    def call(self, span_name: str, fn, /, *args, **kwargs):
        """Run fn inside a span called span_name."""
        idx = len(self.spans)
        span = [span_name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[4] = type(exc).__name__
            if span[4] == "CarrierTooLarge":
                self.op_refused = True
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrapper(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _rows_wrapper(self, run_all):
        @functools.wraps(run_all)
        def by_row(m, names=None):
            out = []
            for row in self.rows:
                if names is None or row in names:
                    out.extend(self.call(f"verify.row.{row}", run_all, m, names=[row]))
            self.counts["verify.rows_skipped"] += sum(r.status == "skip" for r in out)
            return out

        return self._wrapper("verify.run_all", by_row)

    # -- counters ----------------------------------------------------------------

    def _count_nucleus_enumerate_closures(self, args, result):
        carrier = args[0]
        poset = carrier if hasattr(carrier, "up") else carrier.poset
        self.counts["nucleus.candidates_walked"] += 1 << poset.n
        self.counts["nucleus.closures_found"] += len(result)

    def _count_nucleus_is_nucleus(self, args, result):
        self.nuclei_true += bool(result)

    def _count_nucleus_enumerate_nuclei(self, args, result):
        if args[0] in self.seen_carriers:
            self.counts["nucleus.enumerate_nuclei.repeat_calls"] += 1
        else:
            self.seen_carriers.append(args[0])

    # -- per-layer metrics ------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the pass since ``begin_pass``."""
        first_span = self.first_span
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first_span:
                child[s[3] - first_span] += s[2] - s[1]
        calls: dict = {}
        self_s: dict = {}
        inclusive: dict = {}
        for s, covered in zip(spans, child):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (s[2] - s[1]) - covered
            inclusive[name] = inclusive.get(name, 0.0) + (s[2] - s[1])
        out: dict = {}
        for layer in LAYERS:
            mine = [n for n in calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(calls[n] for n in mine)
            out[f"{layer}.self_s"] = sum(self_s[n] for n in mine)
        for name in NAMED_SELF:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in NAMED_CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update(self.counts)
        tested = calls.get("nucleus.is_nucleus", 0)
        out["nucleus.yield"] = self.nuclei_true / tested if tested else 0.0
        out["nucleus.refused_s"] = self.refused_s
        for row in self.rows:
            out[f"verify.row.{row}_s"] = inclusive.get(f"verify.row.{row}", 0.0)
        return out

