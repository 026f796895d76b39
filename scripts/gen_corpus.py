#!/usr/bin/env python3
"""Regenerate the committed scenario corpus (src/kstab/corpus/*.json).

Each scenario encodes one configuration: the curve lattice, the restriction
families, the flags, and the expected exact values.  Running this script is
idempotent; the JSON files it writes are the regression suite.

    python3 scripts/gen_corpus.py           # rewrite src/kstab/corpus/*.json
    python3 scripts/gen_corpus.py --check   # writes nothing: report files that
                                            # drift from the generator, then
                                            # verify every generated scenario
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kstab.rationals import format_rational as fr  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "kstab" / "corpus"


def aff(c, cu=0, cv=None):
    parts = [fr(F(c)), fr(F(cu))]
    if cv is not None:
        parts.append(fr(F(cv)))
    return parts


def rs(x):
    return fr(F(x))


def expect(op, args, value):
    return {"op": op, "args": args, "value": value}


ZERO2 = aff(0, 0)
ZERO3 = aff(0, 0, 0)


def tf_interval(lo, hi, p, n):
    return {"u": [rs(lo), rs(hi)], "P": p, "N": n}


# ---------------------------------------------------------------------------
# Families 2.1 / 2.3 / 2.5 (parametrized by the fiber degree d)
# ---------------------------------------------------------------------------


def fam21_fibration(d: int) -> dict:
    """Threefold S-values plus the exceptional-surface flag (E = C x P^1)."""
    triple = [[0, 0, 0, rs(d)], [0, 1, 1, rs(-d)], [1, 1, 1, rs(-2 * d)]]
    threefold = {
        "basis": ["H", "E"],
        "triple": triple,
        "families": {
            "A": {"intervals": [
                tf_interval(0, 1, [aff(2, -1), aff(-1, 1)], [ZERO2, ZERO2]),
                tf_interval(1, 2, [aff(2, -1), ZERO2], [ZERO2, aff(-1, 1)]),
            ]},
            "E": {"intervals": [
                tf_interval(0, 1, [aff(2, 0), aff(-1, -1)], [ZERO2, ZERO2]),
            ]},
            "S": {"intervals": [
                tf_interval(0, 1, [aff(2, -1), aff(-1, 0)], [ZERO2, ZERO2]),
            ]},
        },
    }
    # E = C x P^1 with s a section fiber and f a ruling fiber
    families = {
        "s": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(1, 1, -1), aff(d, -d, 0)]},
        ], "threshold": [[rs(0), rs(1), aff(1, 1)]]},
    }
    flags = {
        "P_on_s": {"family": "s", "center": "s", "mults": {}},
    }
    expectations = [
        expect("s_threefold", {"family": "A"}, rs(F(11, 16))),
        expect("s_threefold", {"family": "E"}, rs(F(3, 8))),
        expect("s_threefold", {"family": "S"}, rs(F(5, 16))),
        expect("s_curve", {"family": "s"}, rs(F(11, 16))),
        expect("s_point", {"flag": "P_on_s"}, rs(F(5 * d, 16))),
        expect("oracle", {"family": "s", "samples": 12}, True),
        expect("continuity", {"family": "s"}, True),
    ]
    return {
        "id": f"21-d{d}-fibration",
        "lemma": "2-1-2-3-2-5 / 2-1-P-in-E",
        "V": rs(4 * d),
        "curves": ["s", "f"],
        "gram": [[rs(0), rs(1)], [rs(1), rs(0)]],
        "threefold": threefold,
        "families": families,
        "flags": flags,
        "expect": expectations,
        "notes": (
            "The source display bounds the flag parameter by 'v <= 1+v', an "
            "evident typo for v <= 1+u; the encoded threshold 1+u reproduces "
            "the regression value 11/16."
        ),
    }


def fam21_hyperplane(d: int) -> dict:
    """General |H|-surface through P, flag along the anticanonical curve C."""
    curves = ["C"] + [f"e{i}" for i in range(1, d + 1)]
    size = d + 1
    gram = [[F(0)] * size for _ in range(size)]
    for k in range(1, size):
        gram[k][k] = F(-1)
        gram[0][k] = gram[k][0] = F(1)
    coeffs = [aff(2, -1, -1)] + [aff(1, -1, 0)] * d
    expectations = [
        expect("s_curve", {"family": "C"}, rs(F(11, 16))),
        expect("s_point", {"flag": "P"}, rs(F(5 * d, 16))),
        expect("chamber_supports", {"family": "C"},
               sorted([[], [f"e{i}" for i in range(1, d + 1)]])),
        expect("oracle", {"family": "C", "samples": 12}, True),
        expect("continuity", {"family": "C"}, True),
    ]
    return {
        "id": f"21-d{d}-hyperplane",
        "lemma": "2-1-S-C-smooth-P",
        "V": rs(4 * d),
        "curves": curves,
        "gram": [[rs(x) for x in row] for row in gram],
        "families": {
            "C": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": coeffs}],
                  "threshold": [[rs(0), rs(1), aff(2, -1)]]},
        },
        "flags": {"P": {"family": "C", "center": "C", "mults": {}}},
        "expect": expectations,
        "notes": "P lies off the exceptional curves, so the F-term vanishes.",
    }


def fam21_nodal(d: int) -> dict:
    """Blow-up of the singular point of an irreducible C: the f-flag."""
    curves = ["f", "C"] + [f"e{i}" for i in range(1, d + 1)]
    size = d + 2
    gram = [[F(0)] * size for _ in range(size)]
    gram[0][0] = F(-1)
    gram[1][1] = F(-4)
    gram[0][1] = gram[1][0] = F(2)
    for k in range(2, size):
        gram[k][k] = F(-1)
        gram[1][k] = gram[k][1] = F(1)
    coeffs = [aff(4, -2, -1), aff(2, -1, 0)] + [aff(1, -1, 0)] * d
    expectations = [
        expect("s_curve", {"family": "f"}, rs(F(44 + 5 * d, 32))),
        expect("point_base", {"flag": "Q_plain"}, rs(F(5 * d, 32))),
        expect("s_point", {"flag": "Q_plain"}, rs(F(5 * d, 32))),
        expect("s_point", {"flag": "Q_on_C"}, rs(F(44 + 5 * d, 64))),
        expect("threshold", {"family": "f"}, [[rs(0), rs(1), aff(4, -2)]]),
        expect("oracle", {"family": "f", "samples": 12}, True),
        expect("continuity", {"family": "f"}, True),
    ]
    mults_zero = {f"e{i}": rs(0) for i in range(1, d + 1)}
    return {
        "id": f"21-d{d}-nodal",
        "lemma": "2-1-S-C-reducible (ordinary blow-up stage)",
        "V": rs(4 * d),
        "curves": curves,
        "gram": [[rs(x) for x in row] for row in gram],
        "families": {"f": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": coeffs}]}},
        "flags": {
            "Q_plain": {"family": "f", "center": "f", "mults": {}, "A": rs(2)},
            "Q_on_C": {"family": "f", "center": "f", "A": rs(2),
                        "mults": {"C": rs(1), **mults_zero}},
        },
        "expect": expectations,
        "notes": "",
    }


def fam21_tower(d: int) -> dict:
    """(1,2,3)-weighted blow-up surface with quotient points Q2, Q3."""
    curves = ["F", "C"] + [f"e{i}" for i in range(1, d + 1)]
    size = d + 2
    gram = [[F(0)] * size for _ in range(size)]
    gram[0][0] = F(-1, 6)
    gram[1][1] = F(-6)
    gram[0][1] = gram[1][0] = F(1)
    for k in range(2, size):
        gram[k][k] = F(-1)
        gram[1][k] = gram[k][1] = F(1)
    coeffs = [aff(12, -6, -1), aff(2, -1, 0)] + [aff(1, -1, 0)] * d
    mults_zero = {f"e{i}": rs(0) for i in range(1, d + 1)}
    expectations = [
        expect("s_curve", {"family": "F"}, rs(F(66 + 5 * d, 16))),
        expect("s_point", {"flag": "Q_plain"}, rs(F(5 * d, 96))),
        expect("s_point", {"flag": "Q_on_C"}, rs(F(11, 16))),
        expect("chamber_pairing", {"family": "F", "chamber": 0, "curve": "F"},
               aff(0, 0, F(1, 6))),
        expect("threshold", {"family": "F"}, [[rs(0), rs(1), aff(12, -6)]]),
        expect("oracle", {"family": "F", "samples": 12}, True),
        expect("continuity", {"family": "F"}, True),
    ]
    return {
        "id": f"21-d{d}-tower",
        "lemma": "2-1-S-C-reducible (weighted tower)",
        "V": rs(4 * d),
        "curves": curves,
        "gram": [[rs(x) for x in row] for row in gram],
        "families": {"F": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": coeffs}]}},
        "flags": {
            "Q_plain": {"family": "F", "center": "F", "mults": {}, "A": rs(5),
                         "different": {"Q2": rs(F(1, 2)), "Q3": rs(F(2, 3))}},
            "Q_on_C": {"family": "F", "center": "F", "A": rs(5),
                        "mults": {"C": rs(1), **mults_zero},
                        "different": {"Q2": rs(F(1, 2)), "Q3": rs(F(2, 3))}},
        },
        "expect": expectations,
        "notes": (
            "A(F) = 5 for the (1,2,3) tower; the different is Q2/2 + 2 Q3/3. "
            "The comparison thresholds 1 - ord(Delta) live with the caller."
        ),
    }


def fam23_cone() -> dict:
    """Family 2.3 quadric-cone vertex blow-up (the d = 2 exclusion)."""
    threefold = {
        "basis": ["A", "E", "G"],
        "triple": [
            [0, 0, 0, rs(-32)], [0, 0, 2, rs(8)], [0, 1, 1, rs(2)],
            [0, 2, 2, rs(-2)], [1, 1, 1, rs(-4)], [2, 2, 2, rs(F(1, 2))],
        ],
        "families": {"G": {"intervals": [
            tf_interval(0, 1, [aff(2), aff(1), aff(8, -1)], [ZERO2] * 3),
            tf_interval(1, 5, [aff(F(9, 4), F(-1, 4)), aff(1), aff(8, -1)],
                        [aff(F(-1, 4), F(1, 4)), ZERO2, ZERO2]),
            tf_interval(5, 8, [aff(F(8, 3), F(-1, 3)), aff(F(8, 3), F(-1, 3)), aff(8, -1)],
                        [aff(F(-2, 3), F(1, 3)), aff(F(-5, 3), F(1, 3)), ZERO2]),
        ]}},
    }
    families = {
        "ell": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(0, 1, -1), ZERO3]},
            {"u": [rs(1), rs(5)], "coeffs": [aff(1, 0, -1), ZERO3]},
            {"u": [rs(5), rs(8)], "coeffs": [aff(F(8, 3), F(-1, 3), -1), ZERO3]},
        ]},
        "CC": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(0, 1, 0), aff(0, 0, -1)]},
            {"u": [rs(1), rs(5)], "coeffs": [aff(1, 0, 0), aff(0, 0, -1)]},
            {"u": [rs(5), rs(8)], "coeffs": [aff(F(8, 3), F(-1, 3), 0), aff(0, 0, -1)]},
        ]},
    }
    ord_cc = {"face": "G", "threefold_family": "G", "pieces": [
        {"u": [rs(1), rs(5)], "ord": aff(F(-1, 4), F(1, 4))},
        {"u": [rs(5), rs(8)], "ord": aff(F(-2, 3), F(1, 3))},
    ]}
    expectations = [
        expect("s_threefold", {"family": "G"}, rs(F(27, 8))),
        expect("beta", {"A": rs(4), "S": rs(F(27, 8))}, rs(F(5, 8))),
        expect("s_curve", {"family": "ell"}, rs(F(5, 16))),
        expect("s_point", {"flag": "Q_ell"}, rs(F(5, 32))),
        expect("s_curve", {"family": "CC", "ord": ord_cc}, rs(F(11, 16))),
        expect("s_point", {"flag": "Q_CC"}, rs(F(5, 8))),
        expect("oracle", {"family": "ell", "samples": 12}, True),
        expect("oracle", {"family": "CC", "samples": 12}, True),
    ]
    return {
        "id": "23-cone",
        "lemma": "2-1-d-2",
        "V": rs(8),
        "curves": ["R", "CC"],
        "gram": [[rs(F(1, 2)), rs(2)], [rs(2), rs(8)]],
        "threefold": threefold,
        "families": families,
        "flags": {
            "Q_ell": {"family": "ell", "center": "R", "mults": {}},
            "Q_CC": {"family": "CC", "center": "CC", "mults": {}},
        },
        "expect": expectations,
        "notes": (
            "G is the quadric cone P(1,1,2); R is a ruling (R^2 = 1/2) and CC "
            "the cubic section A|_G = 4R.  The source's displayed nef volume "
            "'8 - u^3/8' on [0,1] breaks continuity at u = 1 and the total "
            "27/8; the tensor-derived volume is 8 - u^3/2."
        ),
    }


def fam25_cone() -> dict:
    """Family 2.5 cubic-cone vertex blow-up (the Du Val reduction)."""
    threefold = {
        "basis": ["A", "E", "G"],
        "triple": [
            [0, 0, 0, rs(-27)], [0, 0, 2, rs(9)], [0, 1, 1, rs(3)],
            [0, 2, 2, rs(-3)], [1, 1, 1, rs(-6)], [2, 2, 2, rs(1)],
        ],
        "families": {"G": {"intervals": [
            tf_interval(0, 1, [aff(2), aff(1), aff(6, -1)], [ZERO2] * 3),
            tf_interval(1, 4, [aff(F(7, 3), F(-1, 3)), aff(1), aff(6, -1)],
                        [aff(F(-1, 3), F(1, 3)), ZERO2, ZERO2]),
            tf_interval(4, 6, [aff(3, F(-1, 2)), aff(3, F(-1, 2)), aff(6, -1)],
                        [aff(-1, F(1, 2)), aff(-2, F(1, 2)), ZERO2]),
        ]}},
    }
    families = {
        "ell": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(0, 1, -1), ZERO3]},
            {"u": [rs(1), rs(4)], "coeffs": [aff(1, 0, -1), ZERO3]},
            {"u": [rs(4), rs(6)], "coeffs": [aff(3, F(-1, 2), -1), ZERO3]},
        ]},
    }
    flags = {
        "Q_on_CC": {"family": "ell", "center": "h", "mults": {},
                     "threefold_ord": [
                         {"u": [rs(1), rs(4)], "form": aff(F(-1, 3), F(1, 3))},
                         {"u": [rs(4), rs(6)], "form": aff(-1, F(1, 2))},
                     ]},
    }
    expectations = [
        expect("s_threefold", {"family": "G"}, rs(F(43, 16))),
        expect("beta", {"A": rs(3), "S": rs(F(43, 16))}, rs(F(5, 16))),
        expect("s_curve", {"family": "ell"}, rs(F(5, 16))),
        expect("f_term", {"flag": "Q_on_CC"}, rs(F(7, 12))),
        expect("s_point", {"flag": "Q_on_CC"}, rs(F(43, 48))),
        expect("oracle", {"family": "ell", "samples": 12}, True),
    ]
    return {
        "id": "25-cone",
        "lemma": "2-1-d-3",
        "V": rs(12),
        "curves": ["h", "CC"],
        "gram": [[rs(1), rs(3)], [rs(3), rs(9)]],
        "threefold": threefold,
        "families": families,
        "flags": flags,
        "expect": expectations,
        "notes": "G = P^2, h a line, CC the cubic section A|_G = 3h.",
    }


def fam25_beta() -> dict:
    """The beta estimate at the Du Val point plus the D4 line computation."""
    # true overestimate volumes: 12 - u^3 | 11 | 3(25-6u)/4 | 3(11-2u)^3/64
    cubic = [  # 3(11-2u)^3/64 expanded
        [0, 0, rs(F(3 * 1331, 64))],
        [1, 0, rs(F(-3 * 726, 64))],
        [2, 0, rs(F(3 * 132, 64))],
        [3, 0, rs(F(-24, 64))],
    ]
    pieces = [
        {"u": [rs(0), rs(1)], "poly": [[0, 0, rs(12)], [3, 0, rs(-1)]]},
        {"u": [rs(1), rs(F(3, 2))], "poly": [[0, 0, rs(11)]]},
        {"u": [rs(F(3, 2)), rs(F(7, 2))], "poly": [[0, 0, rs(F(75, 4))], [1, 0, rs(F(-9, 2))]]},
        {"u": [rs(F(7, 2)), rs(4)], "poly": cubic},
    ]
    families = {
        "L1": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(2, 0, -1), aff(1, 0, 0)]},
            {"u": [rs(1), rs(2)], "coeffs": [aff(4, -2, -1), aff(2, -1, 0)]},
        ]},
        "L1_flat": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(2, 0, -1), aff(1, 0, 0)]},
        ]},
        "L1_scaled": {"pieces": [
            {"u": [rs(1), rs(2)], "coeffs": [aff(4, -2, -1), aff(2, -1, 0)]},
        ]},
    }
    expectations = [
        expect("beta_lower_bound", {"A": rs(3), "pieces": pieces}, rs(F(465, 2048))),
        expect("s_curve", {"family": "L1_flat"}, rs(F(7, 12))),
        expect("s_curve", {"family": "L1_scaled"}, rs(F(7, 48))),
        expect("s_curve", {"family": "L1"}, rs(F(35, 48))),
        expect("s_curve_sum", {"families": ["L1_flat", "L1_scaled"]}, rs(F(35, 48))),
        expect("fiber_delta_bound", {"d": 3, "delta": rs(F(3, 2)), "on_E": True},
               rs(F(16, 11))),
        expect("oracle", {"family": "L1", "samples": 12}, True),
    ]
    return {
        "id": "25-beta",
        "lemma": "2-5-beta-blow-up / 2-5-D-4 / 2-5-Z-curve",
        "V": rs(12),
        "curves": ["L1", "L4"],
        "gram": [[rs(0), rs(1)], [rs(1), rs(-1)]],
        "families": families,
        "flags": {},
        "expect": expectations,
        "notes": (
            "Overestimate dominance is a geometric assertion of the source "
            "(the proper transform of A sits in the asymptotic base locus); "
            "it is recorded, not verified.  The displayed pieces '(25-6u)/16' "
            "and '(11-2u)^3/256' absorbed the 1/12 prefactor and '(7-2u)/2' "
            "should read (7-2u)/4; the volumes used here reproduce "
            "3 - 5679/2048 = 465/2048 exactly.  L1.L4 = 1 (the printed "
            "'L1.L4 = 0' contradicts vol(-K_A) = 3)."
        ),
    }


# ---------------------------------------------------------------------------
# Family 2.2
# ---------------------------------------------------------------------------


def fam22_dp_fiber() -> dict:
    threefold = {
        "basis": ["H1", "H2"],
        "triple": [[0, 1, 1, rs(2)]],
        "families": {
            "S": {"intervals": [tf_interval(0, 1, [aff(1, -1), aff(1)], [ZERO2] * 2)]},
            "T": {"intervals": [tf_interval(0, 1, [aff(1), aff(1, -1)], [ZERO2] * 2)]},
        },
    }
    expectations = [
        expect("s_threefold", {"family": "S"}, rs(F(1, 2))),
        expect("s_threefold", {"family": "T"}, rs(F(1, 3))),
        expect("s_curve", {"family": "C"}, rs(F(1, 3))),
        expect("s_point", {"flag": "P"}, rs(F(2, 3))),
        expect("threshold", {"family": "C"}, [[rs(0), rs(1), aff(1, 0)]]),
    ]
    return {
        "id": "22-dp-fiber",
        "lemma": "2-2-S-singular",
        "V": rs(6),
        "curves": ["K"],
        "gram": [[rs(2)]],
        "threefold": threefold,
        "families": {"C": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": [aff(1, 0, -1)]}]}},
        "flags": {"P": {"family": "C", "center": "K", "mults": {}}},
        "expect": expectations,
        "notes": (
            "K is the anticanonical class of the degree-2 fiber (K^2 = 2). "
            "The threefold S-values 1/2 and 1/3 are derived from V = 6; the "
            "source states only S_X < 1 here."
        ),
    }


def fam22_conic() -> dict:
    expectations = [
        expect("s_curve", {"family": "C"}, rs(F(1, 3))),
        expect("s_point", {"flag": "P"}, rs(1)),
        expect("threshold", {"family": "C"}, [[rs(0), rs(1), aff(1, -1)]]),
        expect("oracle", {"family": "C", "samples": 12}, True),
    ]
    return {
        "id": "22-conic",
        "lemma": "2-2 (conic-bundle side)",
        "V": rs(6),
        "curves": ["Fe", "C"],
        "gram": [[rs(0), rs(2)], [rs(2), rs(0)]],
        "families": {"C": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(1, 0, 0), aff(1, -1, -1)]},
        ]}},
        "flags": {"P": {"family": "C", "center": "C", "mults": {}}},
        "expect": expectations,
        "notes": "Fe = S|_T is the elliptic fiber class; C the conic fiber.",
    }


# ---------------------------------------------------------------------------
# Family 2.4
# ---------------------------------------------------------------------------


def fam24_main() -> dict:
    threefold = {
        "basis": ["H", "E"],
        "triple": [[0, 0, 0, rs(1)], [0, 1, 1, rs(-9)], [1, 1, 1, rs(-54)]],
        "families": {
            "A": {"intervals": [
                tf_interval(0, 1, [aff(4, -3), aff(-1, 1)], [ZERO2] * 2),
                tf_interval(1, F(4, 3), [aff(4, -3), ZERO2], [ZERO2, aff(-1, 1)]),
            ]},
            "S": {"intervals": [tf_interval(0, 1, [aff(4, -1), aff(-1)], [ZERO2] * 2)]},
        },
    }
    expectations = [
        expect("s_threefold", {"family": "A"}, rs(F(67, 120))),
        expect("s_threefold", {"family": "S"}, rs(F(13, 40))),
        expect("s_curve", {"family": "C"}, rs(F(13, 40))),
        expect("point_base", {"flag": "P"}, rs(F(39, 40))),
        expect("f_term", {"flag": "P"}, rs(F(1, 120))),
        expect("s_point", {"flag": "P"}, rs(F(59, 60))),
    ]
    return {
        "id": "24-main",
        "lemma": "2-4-A-singular-at-P",
        "V": rs(10),
        "curves": ["C"],
        "gram": [[rs(3)]],
        "threefold": threefold,
        "families": {"C": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(1, 0, -1)]},
            {"u": [rs(1), rs(F(4, 3))], "coeffs": [aff(4, -3, -1)]},
        ]}},
        "flags": {"P": {"family": "C", "center": "C", "mults": {},
                         "threefold_ord": [{"u": [rs(1), rs(F(4, 3))], "form": aff(-1, 1)}]}},
        "expect": expectations,
        "notes": "The F-correction 1/120 applies when P lies on E.",
    }


def fam24_cone() -> dict:
    threefold = {
        "basis": ["A", "E", "G"],
        "triple": [
            [0, 0, 0, rs(-27)], [0, 0, 2, rs(9)], [0, 1, 1, rs(27)],
            [0, 2, 2, rs(-3)], [1, 1, 1, rs(-54)], [2, 2, 2, rs(1)],
        ],
        "families": {"G": {"intervals": [
            tf_interval(0, 1, [aff(F(4, 3)), aff(F(1, 3)), aff(4, -1)], [ZERO2] * 3),
            tf_interval(1, 4, [aff(F(5, 3), F(-1, 3)), aff(F(1, 3)), aff(4, -1)],
                        [aff(F(-1, 3), F(1, 3)), ZERO2, ZERO2]),
        ]}},
    }
    expectations = [
        expect("s_threefold", {"family": "G"}, rs(F(93, 40))),
        expect("s_curve", {"family": "ell"}, rs(F(13, 40))),
        expect("f_term", {"flag": "Q_on_CC"}, rs(F(9, 20))),
        expect("s_point", {"flag": "Q_on_CC"}, rs(F(31, 40))),
        expect("delta_min", {"terms": [[rs(40), rs(31)], [rs(40), rs(31)]]}, rs(F(40, 31))),
        expect("oracle", {"family": "ell", "samples": 12}, True),
    ]
    return {
        "id": "24-cone",
        "lemma": "2-4-cone",
        "V": rs(10),
        "curves": ["h", "CC"],
        "gram": [[rs(1), rs(3)], [rs(3), rs(9)]],
        "threefold": threefold,
        "families": {"ell": {"pieces": [
            {"u": [rs(0), rs(1)], "coeffs": [aff(0, 1, -1), ZERO3]},
            {"u": [rs(1), rs(4)], "coeffs": [aff(1, 0, -1), ZERO3]},
        ]}},
        "flags": {"Q_on_CC": {"family": "ell", "center": "h", "mults": {},
                               "threefold_ord": [
                                   {"u": [rs(1), rs(4)], "form": aff(F(-1, 3), F(1, 3))},
                               ]}},
        "expect": expectations,
        "notes": "",
    }


def fam24_nodal() -> dict:
    curves = ["f", "C"] + [f"L{i}" for i in range(1, 10)]
    gram = [[F(0)] * 11 for _ in range(11)]
    gram[0][0] = F(-1)
    gram[1][1] = F(-4)
    gram[0][1] = gram[1][0] = F(2)
    for k in range(2, 11):
        gram[k][k] = F(-1)
        gram[0][k] = gram[k][0] = F(1)
    coeffs = [aff(F(19, 6), F(-7, 6), -1), aff(F(5, 6), F(1, 6), 0)] + \
        [aff(F(1, 6), F(-1, 6), 0)] * 9
    line_zeros = {f"L{i}": rs(0) for i in range(1, 10)}
    expectations = [
        expect("s_curve", {"family": "f"}, rs(F(767, 480))),
        expect("point_base", {"flag": "Q_plain"}, rs(F(147, 320))),
        expect("f_term", {"flag": "Q_on_L"}, rs(F(1, 960))),
        expect("f_term", {"flag": "Q_node"}, rs(F(643, 1920))),
        expect("f_term", {"flag": "Q_tangent"}, rs(F(643, 960))),
        expect("s_point", {"flag": "Q_node"}, rs(F(305, 384))),
        expect("threshold", {"family": "f"}, [[rs(0), rs(1), aff(F(19, 6), F(-7, 6))]]),
        expect("chamber_count", {"family": "f"}, 3),
        expect("oracle", {"family": "f", "samples": 12}, True),
        expect("continuity", {"family": "f"}, True),
    ]
    return {
        "id": "24-nodal",
        "lemma": "2-4-C-nodal",
        "V": rs(10),
        "curves": curves,
        "gram": [[rs(x) for x in row] for row in gram],
        "families": {"f": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": coeffs}]}},
        "flags": {
            "Q_plain": {"family": "f", "center": "f", "mults": {}, "A": rs(2)},
            "Q_on_L": {"family": "f", "center": "f", "A": rs(2),
                        "mults": {"L1": rs(1), "C": rs(0),
                                   **{f"L{i}": rs(0) for i in range(2, 10)}}},
            "Q_node": {"family": "f", "center": "f", "A": rs(2),
                        "mults": {"C": rs(1), **line_zeros}},
            "Q_tangent": {"family": "f", "center": "f", "A": rs(2),
                           "mults": {"C": rs(2), **line_zeros}},
        },
        "expect": expectations,
        "notes": "",
    }


def fam24_cusp() -> dict:
    expectations = [
        expect("s_curve", {"family": "f"}, rs(F(173, 40))),
        expect("point_base", {"flag": "Q_plain"}, rs(F(5, 32))),
        expect("s_point", {"flag": "Q_plain"}, rs(F(5, 32))),
        expect("f_term", {"flag": "Q_on_L"}, rs(F(1, 80))),
        expect("f_term", {"flag": "Q_on_C"}, rs(F(193, 480))),
        expect("s_point", {"flag": "Q_on_L"}, rs(F(27, 160))),
        expect("s_point", {"flag": "Q_on_C"}, rs(F(67, 120))),
        expect("chamber_supports", {"family": "f"}, sorted([[], ["C"], ["C", "L"]])),
        expect("chamber_pairing", {"family": "f", "chamber": 0, "curve": "f"},
               aff(0, 0, F(1, 6))),
        expect("threshold", {"family": "f"}, [[rs(0), rs(1), aff(9, -3)]]),
        expect("oracle", {"family": "f", "samples": 12}, True),
        expect("continuity", {"family": "f"}, True),
    ]
    return {
        "id": "24-cusp",
        "lemma": "2-4-C-cuspidal",
        "V": rs(10),
        "curves": ["f", "C", "L"],
        "gram": [
            [rs(F(-1, 6)), rs(1), rs(F(1, 2))],
            [rs(1), rs(-6), rs(0)],
            [rs(F(1, 2)), rs(0), rs(F(-1, 2))],
        ],
        "families": {"f": {"pieces": [{"u": [rs(0), rs(1)],
                                        "coeffs": [aff(9, -3, -1), aff(1), aff(1, -1)]}]}},
        "flags": {
            "Q_plain": {"family": "f", "center": "f", "mults": {}, "A": rs(5),
                         "different": {"Q2": rs(F(1, 2)), "Q3": rs(F(2, 3))}},
            "Q_on_L": {"family": "f", "center": "f", "A": rs(5),
                        "mults": {"L": rs(1), "C": rs(0)}},
            "Q_on_C": {"family": "f", "center": "f", "A": rs(5),
                        "mults": {"C": rs(1), "L": rs(0)}},
        },
        "expect": expectations,
        "notes": (
            "The summary value printed as 27/80 for the point on L is "
            "internally inconsistent with the same display's base 5/32 and "
            "F = 1/80; the engine value is their sum 27/160.  The curve list "
            "'L.C = 0, C.f = 1/2' is read as L.f = 1/2 (C.f appears twice)."
        ),
    }


# ---------------------------------------------------------------------------
# Family 2.6
# ---------------------------------------------------------------------------


def fam26_smooth_conic() -> dict:
    threefold = {
        "basis": ["H1", "H2"],
        "triple": [[0, 0, 1, rs(2)], [0, 1, 1, rs(2)]],
        "families": {
            "S": {"intervals": [tf_interval(0, 1, [aff(1), aff(1, -1)], [ZERO2] * 2)]},
            "T": {"intervals": [tf_interval(0, 1, [aff(1, -1), aff(1)], [ZERO2] * 2)]},
        },
    }
    expectations = [
        expect("s_threefold", {"family": "S"}, rs(F(5, 12))),
        expect("s_threefold", {"family": "T"}, rs(F(5, 12))),
        expect("s_curve", {"family": "C"}, rs(F(13, 24))),
        expect("s_point", {"flag": "P"}, rs(1)),
        expect("threshold", {"family": "C"}, [[rs(0), rs(1), aff(F(3, 2), -1)]]),
    ]
    return {
        "id": "26-smooth-conic",
        "lemma": "2-6-smooth-conic-del-Pezzo",
        "V": rs(12),
        "curves": ["C", "Cp"],
        "gram": [[rs(0), rs(4)], [rs(4), rs(0)]],
        "threefold": threefold,
        "families": {"C": {"pieces": [
            {"u": [rs(0), rs(1)],
             "coeffs": [aff(F(3, 2), -1, -1), aff(F(1, 2), 0, 0)]},
        ]}},
        "flags": {"P": {"family": "C", "center": "C", "mults": {}}},
        "expect": expectations,
        "notes": "S_X(S) = S_X(T) = 5/12 with V = 12 (the two conic bundles).",
    }


def fam26_weak_dp() -> dict:
    curves = ["C"] + [f"E{i}" for i in range(1, 5)]
    gram = [[F(0)] * 5 for _ in range(5)]
    for k in range(1, 5):
        gram[k][k] = F(-2)
        gram[0][k] = gram[k][0] = F(1)
    coeffs = [aff(2, -1, -1)] + [aff(F(1, 2), 0, 0)] * 4
    expectations = [
        expect("s_curve", {"family": "C"}, rs(F(7, 12))),
        expect("s_point", {"flag": "P"}, rs(F(5, 6))),
        expect("threshold", {"family": "C"}, [[rs(0), rs(1), aff(2, -1)]]),
        expect("oracle", {"family": "C", "samples": 12}, True),
        expect("continuity", {"family": "C"}, True),
    ]
    return {
        "id": "26-weak-dp",
        "lemma": "2-6-smooth-conic-weak-del-Pezzo",
        "V": rs(12),
        "curves": curves,
        "gram": [[rs(x) for x in row] for row in gram],
        "families": {"C": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": coeffs}]}},
        "flags": {"P": {"family": "C", "center": "C", "mults": {}}},
        "expect": expectations,
        "notes": "The four (-2)-curves never pass through the flag point.",
    }


def fam26_reducible() -> dict:
    expectations = [
        expect("s_curve", {"family": "C"}, rs(F(3, 4))),
        expect("point_base", {"flag": "P_plain"}, rs(F(145, 192))),
        expect("s_point", {"flag": "P_plain"}, rs(F(145, 192))),
        expect("f_term", {"flag": "P_transversal"}, rs(F(31, 384))),
        expect("f_term", {"flag": "P_tangent"}, rs(F(31, 192))),
        expect("s_point", {"flag": "P_transversal"}, rs(F(107, 128))),
        expect("s_point", {"flag": "P_tangent"}, rs(F(11, 12))),
        # one chamber per support: the six case rows of the source (three per
        # u-range) merge into four convex chambers
        expect("chamber_count", {"family": "C"}, 4),
        expect("chamber_supports", {"family": "C"},
               sorted([[], ["L"], ["Cp"], ["L", "Cp"]])),
        expect("oracle", {"family": "C", "samples": 12}, True),
        expect("continuity", {"family": "C"}, True),
    ]
    return {
        "id": "26-reducible",
        "lemma": "2-6-reducible-conic",
        "V": rs(12),
        "curves": ["C", "L", "Cp"],
        "gram": [
            [rs(-1), rs(1), rs(2)],
            [rs(1), rs(-1), rs(0)],
            [rs(2), rs(0), rs(-1)],
        ],
        "families": {"C": {"pieces": [
            {"u": [rs(0), rs(1)],
             "coeffs": [aff(2, -1, -1), aff(1, -1, 0), aff(1, 0, 0)]},
        ]}},
        "flags": {
            "P_plain": {"family": "C", "center": "C", "mults": {}},
            "P_transversal": {"family": "C", "center": "C",
                               "mults": {"Cp": rs(1), "L": rs(0)}},
            "P_tangent": {"family": "C", "center": "C",
                           "mults": {"Cp": rs(2), "L": rs(0)}},
        },
        "expect": expectations,
        "notes": (
            "S(V^S; f) and S(W^S; f) are used interchangeably in nearby "
            "displays of the source; the formulas, not the labels, are "
            "encoded here."
        ),
    }


def fam26_blowup() -> dict:
    expectations = [
        expect("s_curve", {"family": "E"}, rs(F(17, 12))),
        expect("point_base", {"flag": "O_plain"}, rs(F(13, 24))),
        expect("f_term", {"flag": "O_on_C"}, rs(F(1, 24))),
        expect("f_term", {"flag": "O_on_R"}, rs(F(7, 24))),
        expect("s_point", {"flag": "O_on_R"}, rs(F(5, 6))),
        expect("threshold", {"family": "E"}, [[rs(0), rs(1), aff(3, -1)]]),
        expect("oracle", {"family": "E", "samples": 12}, True),
        expect("continuity", {"family": "E"}, True),
    ]
    return {
        "id": "26-blowup",
        "lemma": "2-6 final blow-up analysis",
        "V": rs(12),
        "curves": ["E", "Ct", "Rt"],
        "gram": [
            [rs(-1), rs(1), rs(2)],
            [rs(1), rs(-1), rs(0)],
            [rs(2), rs(0), rs(-2)],
        ],
        "families": {"E": {"pieces": [
            {"u": [rs(0), rs(1)],
             "coeffs": [aff(3, -1, -1), aff(1, -1, 0), aff(1, 0, 0)]},
        ]}},
        "flags": {
            "O_plain": {"family": "E", "center": "E", "mults": {}},
            "O_on_C": {"family": "E", "center": "E",
                        "mults": {"Ct": rs(1), "Rt": rs(0)}},
            "O_on_R": {"family": "E", "center": "E",
                        "mults": {"Rt": rs(2), "Ct": rs(0)}},
        },
        "expect": expectations,
        "notes": (
            "F at a point of the degenerate-fiber curve uses the full local "
            "intersection Rt.E = 2, realizing the source's upper bound 7/24."
        ),
    }


# ---------------------------------------------------------------------------
# Family 2.7
# ---------------------------------------------------------------------------


def fam27_threefold() -> dict:
    threefold = {
        "basis": ["H", "E"],
        "triple": [[0, 0, 0, rs(2)], [0, 1, 1, rs(-8)], [1, 1, 1, rs(-32)]],
        "families": {
            "S": {"intervals": [
                tf_interval(0, 1, [aff(3, -2), aff(-1, 1)], [ZERO2] * 2),
                tf_interval(1, F(3, 2), [aff(3, -2), ZERO2], [ZERO2, aff(-1, 1)]),
            ]},
            "T": {"intervals": [tf_interval(0, 1, [aff(3, -1), aff(-1)], [ZERO2] * 2)]},
        },
    }
    expectations = [
        expect("s_threefold", {"family": "S"}, rs(F(33, 56))),
        expect("s_threefold", {"family": "T"}, rs(F(9, 28))),
        expect("quartic_fiber_bound", {"delta": rs(F(4, 3)), "singular": False},
               "delta_P(X)>1"),
        expect("quartic_fiber_bound", {"delta": rs(F(54, 55)), "singular": False},
               "inconclusive"),
        expect("quartic_fiber_bound", {"delta": rs(F(27, 28) + F(1, 1000)),
                                        "singular": True}, "delta_P(X)>1"),
    ]
    return {
        "id": "27-threefold",
        "lemma": "2-7-quartic-del-Pezzo-delta",
        "V": rs(14),
        "curves": [],
        "gram": [],
        "threefold": threefold,
        "families": {},
        "flags": {},
        "expect": expectations,
        "notes": "",
    }


def fam27_nodal() -> dict:
    expectations = [
        expect("s_curve", {"family": "e"}, rs(F(51, 28))),
        expect("point_base", {"flag": "O_plain"}, rs(F(4, 7))),
        expect("s_point", {"flag": "O_on_L"}, rs(F(17, 28))),
        expect("f_term", {"flag": "O_node"}, rs(F(17, 56))),
        expect("s_point", {"flag": "O_node"}, rs(F(49, 56))),
        expect("threshold", {"family": "e"}, [[rs(0), rs(1), aff(4, -2)]]),
        expect("chamber_supports", {"family": "e"},
               sorted([[], ["Ct"], ["Ct", "L1", "L2"]])),
        expect("oracle", {"family": "e", "samples": 12}, True),
        expect("continuity", {"family": "e"}, True),
    ]
    return {
        "id": "27-nodal-flag",
        "lemma": "2-7-S-singular-at-P (nodal branch)",
        "V": rs(14),
        "curves": ["e", "Ct", "L1", "L2"],
        "gram": [
            [rs(-1), rs(2), rs(1), rs(1)],
            [rs(2), rs(-4), rs(0), rs(0)],
            [rs(1), rs(0), rs(-1), rs(0)],
            [rs(1), rs(0), rs(0), rs(-1)],
        ],
        "families": {"e": {"pieces": [
            {"u": [rs(0), rs(1)],
             "coeffs": [aff(4, -2, -1), aff(1), aff(1, -1, 0), aff(1, -1, 0)]},
        ]}},
        "flags": {
            "O_plain": {"family": "e", "center": "e", "mults": {}, "A": rs(2)},
            "O_on_L": {"family": "e", "center": "e", "A": rs(2),
                        "mults": {"L1": rs(1), "L2": rs(0), "Ct": rs(0)}},
            "O_node": {"family": "e", "center": "e", "A": rs(2),
                        "mults": {"Ct": rs(1), "L1": rs(0), "L2": rs(0)}},
        },
        "expect": expectations,
        "notes": "The tangent case (multiplicity 2) leads to the cusp tower.",
    }


def fam27_cusp() -> dict:
    expectations = [
        expect("s_curve", {"family": "f"}, rs(F(135, 28))),
        expect("point_base", {"flag": "O_plain"}, rs(F(13, 63))),
        expect("f_term", {"flag": "O_on_C"}, rs(F(193, 504))),
        expect("s_point", {"flag": "O_on_C"}, rs(F(33, 56))),
        expect("s_point", {"flag": "O3"}, rs(F(3, 14))),
        expect("threshold", {"family": "f"}, [[rs(0), rs(1), aff(10, -4)]]),
        expect("oracle", {"family": "f", "samples": 12}, True),
        expect("continuity", {"family": "f"}, True),
    ]
    return {
        "id": "27-cusp-flag",
        "lemma": "2-7-S-singular-at-P (cuspidal tower)",
        "V": rs(14),
        "curves": ["f", "Ct", "L1", "L2"],
        "gram": [
            [rs(F(-1, 6)), rs(1), rs(F(1, 3)), rs(F(1, 3))],
            [rs(1), rs(-6), rs(0), rs(0)],
            [rs(F(1, 3)), rs(0), rs(F(-2, 3)), rs(F(1, 3))],
            [rs(F(1, 3)), rs(0), rs(F(1, 3)), rs(F(-2, 3))],
        ],
        "families": {"f": {"pieces": [
            {"u": [rs(0), rs(1)],
             "coeffs": [aff(10, -4, -1), aff(1), aff(1, -1, 0), aff(1, -1, 0)]},
        ]}},
        "flags": {
            "O_plain": {"family": "f", "center": "f", "mults": {}, "A": rs(5),
                         "different": {"O2": rs(F(1, 2)), "O3": rs(F(2, 3))}},
            "O_on_C": {"family": "f", "center": "f", "A": rs(5),
                        "mults": {"Ct": rs(1), "L1": rs(0), "L2": rs(0)}},
            "O3": {"family": "f", "center": "f", "A": rs(5),
                    "different": {"O2": rs(F(1, 2)), "O3": rs(F(2, 3))},
                    "mults": {"L1": rs(F(1, 3)), "L2": rs(F(1, 3)), "Ct": rs(0)}},
        },
        "expect": expectations,
        "notes": "L1, L2 and f meet at the 1/3(1,1) point O3 with local index 1/3.",
    }


def fam27_line() -> dict:
    curves = ["L", "Z", "e1", "e2"] + [f"e{i}" for i in range(3, 9)] + \
        [f"g{i}" for i in range(3, 9)]
    idx = {name: k for k, name in enumerate(curves)}
    size = len(curves)
    gram = [[F(0)] * size for _ in range(size)]

    def put(a, b, value):
        gram[idx[a]][idx[b]] = gram[idx[b]][idx[a]] = F(value)

    put("L", "L", -2)
    put("Z", "Z", -2)
    put("L", "Z", 2)
    put("L", "e1", 1)
    put("L", "e2", 1)
    for i in range(3, 9):
        put(f"e{i}", f"e{i}", -1)
        put(f"g{i}", f"g{i}", -1)
        put("Z", f"e{i}", 1)
        put("L", f"g{i}", 1)
        put(f"e{i}", f"g{i}", 1)
    put("e1", "e1", -1)
    put("e2", "e2", -1)
    coeffs = [aff(F(9, 4), F(-5, 4), -1), aff(F(3, 4), F(1, 4), 0),
              aff(F(5, 4), F(-5, 4), 0), aff(F(5, 4), F(-5, 4), 0)] + \
        [ZERO3] * 6 + [aff(F(1, 4), F(-1, 4), 0)] * 6
    expectations = [
        expect("pair", {"a": "L", "b": "Z"}, rs(2)),
        expect("s_curve", {"family": "L"}, rs(F(423, 448))),
        expect("s_point", {"flag": "P"}, rs(F(79, 84))),
        expect("threshold", {"family": "L"}, [[rs(0), rs(1), aff(F(9, 4), F(-5, 4))]]),
        expect("chamber_count", {"family": "L_third"}, 4),
        expect("chamber_count", {"family": "L"}, 5),
        expect("oracle", {"family": "L", "samples": 12}, True),
        expect("continuity", {"family": "L"}, True),
    ]
    return {
        "id": "27-line-flag",
        "lemma": "2-7-S-smooth-at-P-not-in-E",
        "V": rs(14),
        "curves": curves,
        "gram": [[rs(x) for x in row] for row in gram],
        "families": {
            "L": {"pieces": [{"u": [rs(0), rs(1)], "coeffs": coeffs}]},
            "L_third": {"pieces": [{"u": [rs(0), rs(F(1, 3))], "coeffs": coeffs}]},
        },
        "flags": {"P": {"family": "L", "center": "L", "mults": {}}},
        "expect": expectations,
        "notes": "Case 1 table (the line meets the octic curve transversally).",
    }


def fam27_series() -> dict:
    from kstab.series import PICARD_NAMES, picard_gram

    gram = [[rs(x) for x in row] for row in picard_gram()]
    b03 = ["7", "7", "-6", "-3", "-3", "-3", "-3", "-3", "-3", "-3"]
    expectations = [
        expect("pair", {"a": b03, "b": b03}, rs(-1)),
        expect("pair", {"a": ["2", "2", "-1", "-1", "-1", "-1", "-1", "-1", "-1", "-1"],
                         "b": b03}, rs(1)),
        expect("series_term", {"n": 0, "i": 1, "kind": "S"}, rs(F(84365, 114688))),
        expect("series_term", {"n": 0, "i": 1, "kind": "F"}, rs(F(281, 32256))),
        expect("series_term", {"n": 0, "i": 2, "kind": "F"}, rs(F(5, 3584))),
        expect("series_term", {"n": 0, "i": 1, "kind": "Mp"}, rs(F(1403, 2268))),
        expect("series_threshold", {"n": 0, "i": 2}, aff(F(17, 7), F(-15, 7))),
        expect("series_partial", {"n_max": 6, "kind": "S"},
               {"decimal": "0.976712233", "tol": "0.0001"}),
        expect("series_partial", {"n_max": 6, "kind": "F"}, {"max": rs(F(14, 1000))}),
    ]
    return {
        "id": "27-series",
        "lemma": "2-7 series over the (-1)-class ladder",
        "V": rs(14),
        "curves": list(PICARD_NAMES),
        "gram": gram,
        "families": {},
        "flags": {},
        "expect": expectations,
        "notes": (
            "The partial S-sum tolerance records the source's limit "
            "0.976712233... as an expectation, not a proved bound; the "
            "printed M'_{0,1} denominator 22268 is a misprint for 2268."
        ),
    }


def delta_bounds() -> dict:
    expectations = []
    for d, value in ((1, F(16, 11)), (2, F(16, 11)), (3, F(16, 15))):
        expectations.append(expect(
            "delta_min",
            {"terms": [[rs(8), rs(3)], [rs(16), rs(11)], [rs(16), rs(5 * d)]]},
            rs(value),
        ))
    expectations += [
        expect("delta_min", {"terms": [[rs(F(16, 15)), rs(1)]]}, rs(F(16, 15))),
        expect("fiber_delta_bound", {"d": 1, "delta": rs(F(3, 2)), "on_E": True},
               rs(F(16, 11))),
        expect("fiber_delta_bound", {"d": 2, "delta": rs(F(15, 16)), "on_E": False},
               rs(1)),
        expect("fiber_delta_bound", {"d": 3, "delta": rs(1), "on_E": True}, rs(1)),
        expect("beta", {"A": rs(4), "S": rs(F(27, 8))}, rs(F(5, 8))),
        expect("beta", {"A": rs(3), "S": rs(3)}, rs(0)),
        expect("beta", {"A": rs(3), "S": rs(F(5679, 2048))}, rs(F(465, 2048))),
    ]
    return {
        "id": "delta-bounds",
        "lemma": "section-2 delta combinators",
        "V": rs(4),
        "curves": [],
        "gram": [],
        "families": {},
        "flags": {},
        "expect": expectations,
        "notes": "",
    }


def build_all() -> list[dict]:
    scenarios = []
    for d in (1, 2, 3):
        scenarios.append(fam21_fibration(d))
        scenarios.append(fam21_hyperplane(d))
        scenarios.append(fam21_nodal(d))
    for d in (1, 2):
        scenarios.append(fam21_tower(d))
    scenarios += [
        fam23_cone(), fam25_cone(), fam25_beta(),
        fam22_dp_fiber(), fam22_conic(),
        fam24_main(), fam24_cone(), fam24_nodal(), fam24_cusp(),
        fam26_smooth_conic(), fam26_weak_dp(), fam26_reducible(), fam26_blowup(),
        fam27_threefold(), fam27_nodal(), fam27_cusp(), fam27_line(),
        fam27_series(), delta_bounds(),
    ]
    return scenarios


def render(raw: dict) -> str:
    """The committed text of one scenario file."""
    return json.dumps(raw, indent=1) + "\n"


def drifted(scenarios: list[dict]) -> list[str]:
    """Names of corpus files that differ from, or are missing in, the generated set."""
    texts = {f"{raw['id']}.json": render(raw) for raw in scenarios}
    committed = {path.name: path.read_text() for path in OUT.glob("*.json")}
    return sorted(name for name in texts.keys() | committed.keys()
                  if texts.get(name) != committed.get(name))


def main() -> int:
    scenarios = build_all()
    if "--check" not in sys.argv:
        OUT.mkdir(parents=True, exist_ok=True)
        for raw in scenarios:
            path = OUT / f"{raw['id']}.json"
            path.write_text(render(raw))
            print("wrote", path.relative_to(OUT.parents[2]))
        return 0

    from kstab.scenarios import run_expectations, scenario_from_dict

    failures = 0
    for name in drifted(scenarios):
        failures += 1
        print(f"[DRIFT] {name} does not match the generated corpus")
    for raw in scenarios:
        report = run_expectations(scenario_from_dict(json.loads(render(raw))))
        flag = "ok " if report.ok else "FAIL"
        print(f"[{flag}] {report.scenario_id} ({report.seconds:.2f}s)")
        for row in report.rows:
            if row.status != "match":
                failures += 1
                print(f"    {row.status}: {row.op} {row.args} -> "
                      f"{row.computed!r} expected {row.expected!r} {row.detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
