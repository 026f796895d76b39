from fractions import Fraction as F

import pytest

from kstab.closed_forms import f_closed, m_closed, s_closed
from kstab.geometry import Polygon
from kstab.series import (
    BClassError,
    _feeding_bands,
    b_class,
    band_divisor,
    band_universe,
    compute_band,
    e1_pairing_coefficient,
    generate_b_classes,
    interval_bounds,
    interval_schedule,
    picard_pair,
    series_sum,
    series_term,
)
from kstab.zariski import decompose_parametric


def test_b_class_table_first_rows():
    assert b_class(0, "1", 1) == (1, 0, -1, 0, 0, 0, 0, 0, 0, 0)
    assert b_class(0, "3") == (7, 7, -6, -3, -3, -3, -3, -3, -3, -3)


def test_generate_b_classes_layout():
    classes = generate_b_classes(2)
    assert len(classes) == 17
    labels = [label for label, _ in classes]
    assert labels[0] == "B(2,1,1)"
    assert labels[-1] == "B(2,4,8)"


@pytest.mark.parametrize("n", [0, 1, 5, 17, 50])
def test_generated_classes_are_minus_one_classes(n):
    minus_k = (F(2), F(2)) + (F(-1),) * 8
    for _, vector in generate_b_classes(n):
        assert picard_pair(vector, vector) == -1
        assert picard_pair(minus_k, vector) == 1


def test_b_class_rejects_bad_input():
    with pytest.raises(BClassError):
        b_class(-1, "1", 1)
    with pytest.raises(BClassError):
        b_class(0, "2", 1)


def test_interval_examples():
    assert interval_bounds(0, 1, "pp") == (F(1, 3), F(3, 8))
    assert interval_bounds(0, 2, "p")[0] == F(3, 8)
    # endpoint chaining across n
    assert interval_bounds(0, 4, "pp")[1] == interval_bounds(1, 1, "p")[0]
    assert interval_bounds(3, 4, "pp")[1] == interval_bounds(4, 1, "p")[0]


def test_interval_schedule_validates_chaining():
    interval_schedule(12)  # raises on any chaining defect


def test_band_threshold_matches_closed_form():
    for n in (0, 1):
        expected_num = 17 + 56 * n + 56 * n * n
        expected_slope = 15 + 56 * n + 56 * n * n
        den = 7 * (1 + n) * (1 + 2 * n)
        form = compute_band(n, 2).threshold
        assert form.c == F(expected_num, den)
        assert form.cu == F(-expected_slope, den)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bands_are_continuous_and_feed_only_their_kinds(n):
    for i in (1, 2, 3, 4):
        band = compute_band(n, i)
        lat, members = band_universe(n, i)
        lo = interval_bounds(n, i, "p")[0]
        hi = interval_bounds(n, i, "pp")[1]
        domain = Polygon.band(lo, hi, band.threshold)
        decompose_parametric(lat, band_divisor(members), domain).validate_continuity()
        # F_{n,i} reads only the feeding bands, so no Phi may land elsewhere
        assert all((n, i) in _feeding_bands(*kind) for kind in band.phi_by_kind)


def test_first_band_ledger_values():
    band = compute_band(0, 1)
    assert band.s_term == F(84365, 114688)
    assert band.chamber_count == 4
    assert series_term(0, 1, "F") == F(281, 32256)
    assert series_term(0, 2, "F") == F(5, 3584)
    assert series_term(0, 1, "Mp") == F(1403, 2268)


def test_engine_matches_closed_forms_at_n_equal_one():
    for i in (1, 2, 3, 4):
        band = compute_band(1, i)
        assert band.s_term == s_closed(1, i)
        assert band.m_prime == m_closed(1, i, "p")
        assert band.m_double_prime == m_closed(1, i, "pp")
        assert series_term(1, i, "F") == f_closed(1, i)


def test_series_sum_partials_are_positive_and_increasing():
    report = series_sum(2)
    assert all(sum(e.s_terms, F(0)) > 0 for e in report.entries)
    assert all(f >= 0 for e in report.entries for f in e.f_terms)
    running = F(0)
    for entry in report.entries:
        step = sum(entry.s_terms, F(0))
        assert step > 0
        running += step
    assert running == report.s_partial
    assert report.s_partial < 1
    assert report.f_partial < F(14, 1000)


def test_series_sum_matches_closed_forms_totals():
    report = series_sum(1)
    closed = sum(
        (s_closed(n, i) for n in (0, 1) for i in (1, 2, 3, 4)), F(0)
    )
    assert report.s_partial == closed
    closed_f = sum(
        (f_closed(n, i) for n in (0, 1) for i in (1, 2, 3, 4)), F(0)
    )
    assert report.f_partial == closed_f


def test_e1_pairing_coefficients():
    assert e1_pairing_coefficient(0, 1) == 1
    assert e1_pairing_coefficient(0, 3) == 6
    assert e1_pairing_coefficient(1, 2) == 20  # 7 + 10 + 3
