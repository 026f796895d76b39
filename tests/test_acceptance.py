"""Acceptance suite: every numbered criterion, at its stated tolerance.

Exact-rational criteria assert equality of Fractions end-to-end, from the
scenario intersection data through chambers and integration.  One summary
line per criterion is printed (run with -s to see them).
"""

import functools
import hashlib
import json
from fractions import Fraction as F

import pytest

from kstab import cli
from kstab.cli import series_payload
from kstab.closed_forms import f_closed, m_closed, s_closed
from kstab.scenarios import ScenarioRuntime, load_corpus
from kstab.series import (
    compute_band,
    generate_b_classes,
    picard_pair,
    series_sum,
    series_term,
)
from kstab.zariski import oracle_check


@pytest.fixture(scope="module")
def runtimes():
    return {s.id: ScenarioRuntime(s) for s in load_corpus()}


@pytest.fixture(scope="module")
def series500():
    return series_sum(500)


def report(criterion: str, text: str):
    print(f"[PASS] criterion {criterion}: {text}")


def ev(runtimes, scenario_id, op, **args):
    return runtimes[scenario_id].evaluate(op, args)


def test_criterion_01_degree_parametrized_section(runtimes):
    for d in (1, 2, 3):
        fib = f"21-d{d}-fibration"
        assert ev(runtimes, fib, "s_threefold", family="A") == F(11, 16)
        assert ev(runtimes, fib, "s_threefold", family="E") == F(3, 8)
        assert ev(runtimes, fib, "s_threefold", family="S") == F(5, 16)
        assert ev(runtimes, fib, "s_curve", family="s") == F(11, 16)
        assert ev(runtimes, fib, "s_point", flag="P_on_s") == F(5 * d, 16)
        hyp = f"21-d{d}-hyperplane"
        assert ev(runtimes, hyp, "s_curve", family="C") == F(11, 16)
        assert ev(runtimes, hyp, "s_point", flag="P") == F(5 * d, 16)
        nod = f"21-d{d}-nodal"
        assert ev(runtimes, nod, "s_curve", family="f") == F(44 + 5 * d, 32)
        assert ev(runtimes, nod, "s_point", flag="Q_plain") == F(5 * d, 32)
        assert ev(runtimes, nod, "s_point", flag="Q_on_C") == F(44 + 5 * d, 64)
    for d in (1, 2):
        tower = f"21-d{d}-tower"
        assert ev(runtimes, tower, "s_curve", family="F") == F(66 + 5 * d, 16)
        assert ev(runtimes, tower, "s_point", flag="Q_plain") == F(5 * d, 96)
        assert ev(runtimes, tower, "s_point", flag="Q_on_C") == F(11, 16)
    report("1", "degree-parametrized fibration values for d in {1,2,3}")


def test_criterion_02_quadric_cone(runtimes):
    sid = "23-cone"
    assert ev(runtimes, sid, "s_threefold", family="G") == F(27, 8)
    assert ev(runtimes, sid, "s_curve", family="ell") == F(5, 16)
    assert ev(runtimes, sid, "s_point", flag="Q_ell") == F(5, 32)
    ord_cc = {
        "face": "G", "threefold_family": "G",
        "pieces": [
            {"u": ["1", "5"], "ord": ["-1/4", "1/4"]},
            {"u": ["5", "8"], "ord": ["-2/3", "1/3"]},
        ],
    }
    assert ev(runtimes, sid, "s_curve", family="CC", ord=ord_cc) == F(11, 16)
    assert ev(runtimes, sid, "s_point", flag="Q_CC") == F(5, 8)
    report("2", "quadric-cone values 27/8, 5/16, 5/32, 11/16, 5/8")


def test_criterion_03_cubic_cone(runtimes):
    sid = "25-cone"
    assert ev(runtimes, sid, "s_threefold", family="G") == F(43, 16)
    assert ev(runtimes, sid, "s_curve", family="ell") == F(5, 16)
    assert ev(runtimes, sid, "f_term", flag="Q_on_CC") == F(7, 12)
    assert ev(runtimes, sid, "s_point", flag="Q_on_CC") == F(43, 48)
    report("3", "cubic-cone values 43/16, 5/16, F = 7/12, point 43/48")


def test_criterion_04_beta_estimate_and_line(runtimes):
    sid = "25-beta"
    pieces = [
        {"u": ["0", "1"], "poly": [[0, 0, "12"], [3, 0, "-1"]]},
        {"u": ["1", "3/2"], "poly": [[0, 0, "11"]]},
        {"u": ["3/2", "7/2"], "poly": [[0, 0, "75/4"], [1, 0, "-9/2"]]},
        {"u": ["7/2", "4"], "poly": [
            [0, 0, "3993/64"], [1, 0, "-2178/64"], [2, 0, "396/64"], [3, 0, "-24/64"],
        ]},
    ]
    assert ev(runtimes, sid, "beta_lower_bound", A="3", pieces=pieces) == F(465, 2048)
    assert ev(runtimes, sid, "s_curve", family="L1_flat") == F(7, 12)
    assert ev(runtimes, sid, "s_curve", family="L1_scaled") == F(7, 48)
    assert ev(runtimes, sid, "s_curve", family="L1") == F(35, 48)
    report("4", "beta(G) >= 465/2048 and S(W^A; L1) = 7/12 + 7/48 = 35/48")


def test_criterion_05_double_cover_family(runtimes):
    assert ev(runtimes, "22-dp-fiber", "s_curve", family="C") == F(1, 3)
    assert ev(runtimes, "22-dp-fiber", "s_point", flag="P") == F(2, 3)
    assert ev(runtimes, "22-conic", "s_curve", family="C") == F(1, 3)
    assert ev(runtimes, "22-conic", "s_point", flag="P") == F(1)
    # the V = 12 pencil with equal fiber values 5/12 is the Verra family
    # (see the decisions ledger for the criterion's section attribution)
    assert ev(runtimes, "26-smooth-conic", "s_threefold", family="S") == F(5, 12)
    assert ev(runtimes, "26-smooth-conic", "s_threefold", family="T") == F(5, 12)
    report("5", "double-cover flags 1/3, 2/3, 1/3, 1 and S_X(S) = S_X(T) = 5/12")


def test_criterion_06_cubic_pencil_family(runtimes):
    assert ev(runtimes, "24-main", "s_threefold", family="A") == F(67, 120)
    assert ev(runtimes, "24-main", "s_curve", family="C") == F(13, 40)
    assert ev(runtimes, "24-main", "point_base", flag="P") == F(39, 40)
    assert ev(runtimes, "24-main", "f_term", flag="P") == F(1, 120)
    assert ev(runtimes, "24-main", "s_point", flag="P") == F(59, 60)
    assert ev(runtimes, "24-main", "s_threefold", family="S") == F(13, 40)
    assert ev(runtimes, "24-cone", "s_threefold", family="G") == F(93, 40)
    assert ev(runtimes, "24-cone", "s_curve", family="ell") == F(13, 40)
    assert ev(runtimes, "24-cone", "f_term", flag="Q_on_CC") == F(9, 20)
    nod = "24-nodal"
    assert ev(runtimes, nod, "s_curve", family="f") == F(767, 480)
    assert ev(runtimes, nod, "point_base", flag="Q_plain") == F(147, 320)
    assert ev(runtimes, nod, "f_term", flag="Q_plain") == F(0)
    assert ev(runtimes, nod, "f_term", flag="Q_on_L") == F(1, 960)
    assert ev(runtimes, nod, "f_term", flag="Q_node") == F(643, 1920)
    assert ev(runtimes, nod, "f_term", flag="Q_tangent") == F(643, 960)
    cusp = "24-cusp"
    assert ev(runtimes, cusp, "s_curve", family="f") == F(173, 40)
    assert ev(runtimes, cusp, "point_base", flag="Q_plain") == F(5, 32)
    assert ev(runtimes, cusp, "f_term", flag="Q_plain") == F(0)
    assert ev(runtimes, cusp, "f_term", flag="Q_on_L") == F(1, 80)
    assert ev(runtimes, cusp, "f_term", flag="Q_on_C") == F(193, 480)
    assert ev(runtimes, cusp, "s_point", flag="Q_plain") == F(5, 32)
    # the stated 27/80 contradicts the same criterion's base 5/32 and
    # F = 1/80; their sum 27/160 is asserted (decisions ledger)
    assert ev(runtimes, cusp, "s_point", flag="Q_on_L") == F(27, 160)
    assert ev(runtimes, cusp, "s_point", flag="Q_on_C") == F(67, 120)
    report("6", "cubic-pencil values incl. 767/480 and 173/40 ledgers")


def test_criterion_07_verra_family(runtimes):
    assert ev(runtimes, "26-smooth-conic", "s_curve", family="C") == F(13, 24)
    assert ev(runtimes, "26-smooth-conic", "s_point", flag="P") == F(1)
    assert ev(runtimes, "26-weak-dp", "s_curve", family="C") == F(7, 12)
    assert ev(runtimes, "26-weak-dp", "s_point", flag="P") == F(5, 6)
    red = "26-reducible"
    assert ev(runtimes, red, "s_curve", family="C") == F(3, 4)
    assert ev(runtimes, red, "point_base", flag="P_plain") == F(145, 192)
    assert ev(runtimes, red, "f_term", flag="P_plain") == F(0)
    assert ev(runtimes, red, "f_term", flag="P_transversal") == F(31, 384)
    assert ev(runtimes, red, "f_term", flag="P_tangent") == F(31, 192)
    assert ev(runtimes, red, "s_point", flag="P_plain") == F(145, 192)
    assert ev(runtimes, red, "s_point", flag="P_transversal") == F(107, 128)
    assert ev(runtimes, red, "s_point", flag="P_tangent") == F(11, 12)
    blow = "26-blowup"
    assert ev(runtimes, blow, "s_curve", family="E") == F(17, 12)
    assert ev(runtimes, blow, "point_base", flag="O_plain") == F(13, 24)
    assert ev(runtimes, blow, "f_term", flag="O_plain") == F(0)
    assert ev(runtimes, blow, "f_term", flag="O_on_C") == F(1, 24)
    assert ev(runtimes, blow, "f_term", flag="O_on_R") == F(7, 24)
    report("7", "Verra values 13/24, 1, 7/12, 5/6, 3/4, ..., 17/12, F <= 7/24")


def test_criterion_08_quadric_pencil_flags(runtimes):
    assert ev(runtimes, "27-threefold", "s_threefold", family="S") == F(33, 56)
    assert ev(runtimes, "27-threefold", "s_threefold", family="T") == F(9, 28)
    nod = "27-nodal-flag"
    assert ev(runtimes, nod, "s_curve", family="e") == F(51, 28)
    assert ev(runtimes, nod, "point_base", flag="O_plain") == F(4, 7)
    assert ev(runtimes, nod, "s_point", flag="O_on_L") == F(17, 28)
    assert ev(runtimes, nod, "f_term", flag="O_node") == F(17, 56)
    assert ev(runtimes, nod, "s_point", flag="O_node") == F(4, 7) + F(17, 56)
    cusp = "27-cusp-flag"
    assert ev(runtimes, cusp, "s_curve", family="f") == F(135, 28)
    assert ev(runtimes, cusp, "point_base", flag="O_plain") == F(13, 63)
    assert ev(runtimes, cusp, "s_point", flag="O_on_C") == F(33, 56)
    assert ev(runtimes, cusp, "s_point", flag="O3") == F(3, 14)
    line = "27-line-flag"
    assert ev(runtimes, line, "s_curve", family="L") == F(423, 448)
    assert ev(runtimes, line, "s_point", flag="P") == F(79, 84)
    assert ev(runtimes, "24-nodal", "threshold", family="f") == \
        [["0", "1", ["19/6", "-7/6"]]]
    assert ev(runtimes, "27-series", "series_threshold", n=0, i=2) == ["17/7", "-15/7"]
    report("8", "quadric-pencil flags and the thresholds (19-7u)/6, (17-15u)/7")


def test_criterion_09_series_terms_and_closed_forms():
    assert series_term(0, 1, "S") == F(84365, 114688)
    assert series_term(0, 1, "F") == F(281, 32256)
    assert series_term(0, 2, "F") == F(5, 3584)
    ledger = functools.cache(compute_band)
    for n in (0, 1, 2, 3):
        for i in (1, 2, 3, 4):
            band = ledger(n, i)
            assert band.s_term == s_closed(n, i), (n, i)
            assert band.m_prime == m_closed(n, i, "p"), (n, i)
            assert band.m_double_prime == m_closed(n, i, "pp"), (n, i)
            assert series_term(n, i, "F", ledger) == f_closed(n, i), (n, i)
    report("9", "series n = 0 values and closed-form equality at n in {0,1,2,3}")


def test_criterion_10_series_partial_sum(series500):
    report_obj = series500
    per_n = [sum(entry.s_terms, F(0)) for entry in report_obj.entries]
    assert all(term > 0 for term in per_n), "per-level terms must be positive"
    partial = report_obj.s_partial
    assert partial >= F(9747, 10000)
    # the terms with n > 500 are positive, so the partial sits strictly
    # below the limit; the printed limit 0.976712233... agrees to 1e-9
    assert all(s_closed(501, i) > 0 for i in (1, 2, 3, 4))
    assert abs(partial - F("0.976712233")) < F(1, 10**9)
    # every engine entry equals its closed form along the whole partial sum
    for entry in report_obj.entries:
        n = entry.n
        for i, s, (mp, mpp), f in zip(
            (1, 2, 3, 4), entry.s_terms, entry.m_terms, entry.f_terms, strict=True
        ):
            assert s == s_closed(n, i), ("S", n, i)
            assert mp == m_closed(n, i, "p"), ("M'", n, i)
            assert mpp == m_closed(n, i, "pp"), ("M''", n, i)
            assert f == f_closed(n, i), ("F", n, i)
    assert [entry.n for entry in report_obj.entries] == list(range(501))
    report("10", f"S partial at 500 = {report_obj.s_decimal}, increasing, below the limit")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "criterion 10's literal upper endpoint 0.9767 contradicts criterion "
        "9's exact terms: the partial sums already exceed 0.9767 near n = 12 "
        "while converging to 0.9767122331... < 1; see the decisions ledger"
    ),
)
def test_criterion_10_literal_upper_bracket(series500):
    assert series500.s_partial <= F(9767, 10000)


# sha256 of the stdout of `kstab series --max-n 500 --json`; every exact
# entry of the ledger is pinned, so any change in value or rendering shows
SERIES500_JSON_SHA256 = "91b9427d593d139cef599c9c058bdf845c6d43d4e70a8009bb3b4ba308b84964"


def test_series_500_json_is_byte_identical(series500):
    text = json.dumps(series_payload(series500), indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES500_JSON_SHA256


# sha256 of the report of `kstab verify --all --json` with every "seconds"
# dropped, re-dumped with indent=1 and sorted keys (no trailing newline)
VERIFY_ALL_JSON_SHA256 = "ecac6d52cf1dc95ce08a54e5d8060669c45af447cd9184ad6476e36a8c318c79"


def test_verify_all_json_is_byte_identical(capsys):
    assert cli.main(["verify", "--all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload["reports"]:
        del row["seconds"]
    text = json.dumps(payload, indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256


def test_criterion_11_f_partial_sum(series500):
    assert series500.f_partial < F(14, 1000)
    report("11", f"F partial at 500 = {series500.f_decimal} < 0.014")


def test_criterion_12_oracle_equivalence(runtimes):
    checked = 0
    for sid, runtime in sorted(runtimes.items()):
        for name in runtime.scenario.families:
            famdec = runtime.family_decomposition(name)
            for dec in famdec.parts:
                result = oracle_check(
                    runtime.scenario.lattice, dec.divisor, dec, 100, seed=42
                )
                assert result.passed, (sid, name, result.failures[:1])
                checked += 1
    assert checked >= 25
    report("12", f"pointwise oracle equals chamber data at 100 points x {checked} domains")


def test_criterion_13_chamber_continuity(runtimes):
    checked = 0
    for sid, runtime in sorted(runtimes.items()):
        for name in runtime.scenario.families:
            famdec = runtime.family_decomposition(name)
            for dec in famdec.parts:
                dec.validate_continuity()
                checked += 1
    assert checked >= 25
    report("13", f"P^2 agrees identically on shared boundaries in {checked} domains")


def test_criterion_14_minus_one_classes():
    minus_k = (F(2), F(2)) + (F(-1),) * 8
    for n in range(51):
        classes = generate_b_classes(n)
        assert len(classes) == 17
        for label, vector in classes:
            assert picard_pair(vector, vector) == -1, label
            assert picard_pair(minus_k, vector) == 1, label
    report("14", "all generated ladder classes pass the (-1)-class check, n <= 50")


def test_criterion_15_numeric_cross_check(runtimes):
    from kstab.geometry import integrate_polygon
    from tests.test_geometry import gauss_integrate

    checked = 0
    for sid, runtime in sorted(runtimes.items()):
        for name in runtime.scenario.families:
            famdec = runtime.family_decomposition(name)
            for chamber in famdec.chambers():
                exact = integrate_polygon(chamber.p_squared, chamber.region)
                approx = gauss_integrate(chamber.p_squared, chamber.region)
                scale = max(1.0, abs(float(exact)))
                assert abs(float(exact) - approx) <= 1e-9 * scale, (sid, name)
                checked += 1
    assert checked >= 60
    report("15", f"{checked} exact chamber integrals match float quadrature at 1e-9")
