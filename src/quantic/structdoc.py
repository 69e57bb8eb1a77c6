"""JSON interchange for posets, magmas, maps, and morphisms.

Documents round-trip losslessly; constructors re-validate everything on load
and reject malformed input with the offending axiom named.

Documents are where ids enter the library.  The loaders check the shape of
every list they read and raise StructureError otherwise; the public
constructors they call (FinitePoset, OrderedMagma, MonotoneMap,
MagmaMorphism) check every id once.  Nothing downstream re-checks them.
"""

from __future__ import annotations

import json
import sys
from typing import Union

from .errors import StructureError
from .lazy import ChainOmega, LazyCarrier, UpsetsNat
from .magma import MagmaMorphism, OrderedMagma
from .nucleus import MonotoneMap
from .poset import FinitePoset

FORMAT = 1

LAZY_CARRIERS = {
    "chain-omega": ChainOmega,
    "upsets-nat": UpsetsNat,
}


def poset_doc(p: FinitePoset) -> dict:
    return {
        "kind": "poset",
        "format": FORMAT,
        "elements": list(p.labels),
        "leq": [[bool(p.leq(i, j)) for j in range(p.n)] for i in range(p.n)],
    }


def magma_doc(m: OrderedMagma) -> dict:
    return {
        "kind": "magma",
        "format": FORMAT,
        "name": m.name,
        "poset": poset_doc(m.poset),
        "mul": [list(row) for row in m.mul],
        "unit": m.unit,
        "annihilator": m.annihilator,
    }


def map_doc(s: MonotoneMap) -> dict:
    carrier = s.carrier
    doc: dict = {"kind": "map", "format": FORMAT, "assign": list(s.table)}
    if isinstance(carrier, OrderedMagma):
        doc["magma"] = magma_doc(carrier)
    else:
        doc["poset"] = poset_doc(carrier)
    return doc


def morphism_doc(f: MagmaMorphism) -> dict:
    return {
        "kind": "morphism",
        "format": FORMAT,
        "source": magma_doc(f.source),
        "target": magma_doc(f.target),
        "assign": list(f.table),
    }


def lazy_doc(carrier: LazyCarrier) -> dict:
    return {"kind": "lazy-magma", "format": FORMAT, "name": carrier.name}


def to_json(obj) -> str:
    if isinstance(obj, FinitePoset):
        doc = poset_doc(obj)
    elif isinstance(obj, OrderedMagma):
        doc = magma_doc(obj)
    elif isinstance(obj, MonotoneMap):
        doc = map_doc(obj)
    elif isinstance(obj, MagmaMorphism):
        doc = morphism_doc(obj)
    elif isinstance(obj, LazyCarrier):
        doc = lazy_doc(obj)
    elif isinstance(obj, dict):
        doc = obj
    else:
        raise StructureError(f"no document form for {type(obj).__name__}")
    return json.dumps(doc, indent=2, sort_keys=True)


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise StructureError("a document must be a JSON object")
    if key not in doc:
        raise StructureError(f"document is missing the key {key!r}")
    return doc[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise StructureError(f"{what} must be a list")
    return value


def _matrix(value, what: str) -> list:
    for row in _list(value, what):
        _list(row, f"every row of {what}")
    return value


def load_poset(doc: dict) -> FinitePoset:
    if _require(doc, "kind") != "poset":
        raise StructureError("expected a poset document")
    labels = doc.get("elements")
    if labels is not None:
        _list(labels, "elements")
    return FinitePoset(_matrix(_require(doc, "leq"), "leq"), labels)


def load_magma(doc: dict) -> Union[OrderedMagma, LazyCarrier]:
    kind = _require(doc, "kind")
    if kind == "lazy-magma":
        name = _require(doc, "name")
        if name not in LAZY_CARRIERS:
            raise StructureError(f"unknown lazy carrier {name!r}")
        return LAZY_CARRIERS[name]()
    if kind != "magma":
        raise StructureError("expected a magma document")
    poset = load_poset(_require(doc, "poset"))
    magma = OrderedMagma(poset, _matrix(_require(doc, "mul"), "mul"), name=doc.get("name", ""))
    for key in ("unit", "annihilator"):
        declared = doc.get(key)
        if declared is not None:
            poset.check_ids([declared])
            if declared != getattr(magma, key):
                raise StructureError(f"declared {key} disagrees with the table")
    return magma


def load_map(doc: dict) -> MonotoneMap:
    if _require(doc, "kind") != "map":
        raise StructureError("expected a map document")
    if "magma" in doc:
        carrier = load_magma(doc["magma"])
    elif "poset" in doc:
        carrier = load_poset(doc["poset"])
    else:
        raise StructureError("map document needs a magma or poset carrier")
    return load_map_on(doc, carrier)


def load_map_on(doc: dict, carrier) -> MonotoneMap:
    """Load just the assignment of a map document onto an existing carrier."""
    if _require(doc, "kind") != "map":
        raise StructureError("expected a map document")
    return MonotoneMap(carrier, _list(_require(doc, "assign"), "assign"))


def load_morphism(doc: dict) -> MagmaMorphism:
    if _require(doc, "kind") != "morphism":
        raise StructureError("expected a morphism document")
    src = load_magma(_require(doc, "source"))
    tgt = load_magma(_require(doc, "target"))
    return MagmaMorphism(src, tgt, _list(_require(doc, "assign"), "assign"))


def load_any(doc: dict):
    kind = _require(doc, "kind")
    if kind == "poset":
        return load_poset(doc)
    if kind in ("magma", "lazy-magma"):
        return load_magma(doc)
    if kind == "map":
        return load_map(doc)
    if kind == "morphism":
        return load_morphism(doc)
    raise StructureError(f"unknown document kind {kind!r}")


def read_doc(path: str) -> dict:
    """The JSON object in the file at path, or on standard input for "-"."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureError(f"cannot read {path}: {exc}") from exc
    return _object_of(text)


def _object_of(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructureError("document must be a JSON object")
    return doc


def parse(text: str):
    return load_any(_object_of(text))
