"""The standard corpus of desk-scale carriers used by the verification suites."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from .instances import (
    cyclic_group,
    ideal_system_lattice,
    left_zero,
    module_system_lattice,
    nonassociative_pair,
    powerset_prequantale,
    trivial_monoid,
    zchain_with_both_ends,
    zchain_with_top,
)
from .magma import OrderedMagma
from .poset import FinitePoset
from .rings import FiniteRing, ring_ideal_lattice


def _lattice_magma(p: FinitePoset, op: str, name: str) -> OrderedMagma:
    if op == "join":
        table = [[p.join(i, j) for j in range(p.n)] for i in range(p.n)]
    else:
        table = [[p.meet(i, j) for j in range(p.n)] for i in range(p.n)]
    return OrderedMagma(p, table, name=name)


@lru_cache(maxsize=1)
def standard_corpus() -> Dict[str, OrderedMagma]:
    """At least a dozen ordered magmas spanning the classification zoo."""
    diamond = FinitePoset.diamond()
    corpus: Dict[str, OrderedMagma] = {
        "powerset-z2": powerset_prequantale(cyclic_group(2)).magma,
        "powerset-z2-ne": powerset_prequantale(cyclic_group(2), drop_empty=True).magma,
        "powerset-leftzero": powerset_prequantale(left_zero(2)).magma,
        "powerset-leftzero-ne": powerset_prequantale(left_zero(2), drop_empty=True).magma,
        "powerset-nonassoc": powerset_prequantale(nonassociative_pair()).magma,
        "ideals-z2": ring_ideal_lattice(FiniteRing.zmod(2)).magma,
        "ideals-z4": ring_ideal_lattice(FiniteRing.zmod(4)).magma,
        "ideals-z6": ring_ideal_lattice(FiniteRing.zmod(6)).magma,
        "ideals-z8": ring_ideal_lattice(FiniteRing.zmod(8)).magma,
        "ideals-z12": ring_ideal_lattice(FiniteRing.zmod(12)).magma,
        "ideals-f2x3": ring_ideal_lattice(
            FiniteRing.poly_quotient(2, [0, 0, 0, 1], name="F2[x]/(x^3)")
        ).magma,
        "diamond-join": _lattice_magma(diamond, "join", "diamond-join"),
        "diamond-meet": _lattice_magma(diamond, "meet", "diamond-meet"),
        "chain3-join": _lattice_magma(FinitePoset.chain(3), "join", "chain3-join"),
        "chain4-meet": _lattice_magma(FinitePoset.chain(4), "meet", "chain4-meet"),
        "modsys-z2": module_system_lattice(cyclic_group(2)).magma,
        "idealsys-trivial": ideal_system_lattice(trivial_monoid()).magma,
        "zchain-inf": zchain_with_top(1),
        "zchain-biinf": zchain_with_both_ends(1),
    }
    return corpus


@lru_cache(maxsize=1)
def ring_corpus():
    return {
        "z4": ring_ideal_lattice(FiniteRing.zmod(4)),
        "z6": ring_ideal_lattice(FiniteRing.zmod(6)),
        "z8": ring_ideal_lattice(FiniteRing.zmod(8)),
        "z9": ring_ideal_lattice(FiniteRing.zmod(9)),
        "z12": ring_ideal_lattice(FiniteRing.zmod(12)),
        "f2x2": ring_ideal_lattice(FiniteRing.poly_quotient(2, [0, 0, 1], name="F2[x]/(x^2)")),
        "f2x3": ring_ideal_lattice(FiniteRing.poly_quotient(2, [0, 0, 0, 1], name="F2[x]/(x^3)")),
    }
