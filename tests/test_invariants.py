from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.geometry import integrate_polygon, split_by_line
from kstab.invariants import (
    FlagData,
    InvariantError,
    SurfaceFamily,
    SurfacePiece,
    ThreefoldFamilyData,
    ThreefoldInterval,
    beta,
    beta_lower_bound,
    decompose_family,
    delta_min_combinator,
    f_term,
    fiber_delta_bound,
    quartic_fiber_bound,
    s_curve,
    s_point,
    s_threefold,
)
from kstab.lattice import CurveLattice, ParametricDivisor
from kstab.poly import AffineForm, poly_from_terms
from kstab.scenarios import corpus_dir, load_scenario, ScenarioRuntime


def quadric_blowup_family(volume=F(4)):
    """The d = 1 fiber ray: basis (H, E), P and N as declared."""
    zero = AffineForm(0)
    triple = {(0, 0, 0): F(1), (0, 1, 1): F(-1), (1, 1, 1): F(-2)}
    intervals = (
        ThreefoldInterval(F(0), F(1), (AffineForm(2, -1), AffineForm(-1, 1)), (zero, zero)),
        ThreefoldInterval(F(1), F(2), (AffineForm(2, -1), zero), (zero, AffineForm(-1, 1))),
    )
    return ThreefoldFamilyData(("H", "E"), triple, volume, intervals)


def test_s_threefold_fiber_value():
    assert s_threefold(quadric_blowup_family()) == F(11, 16)


def test_s_threefold_zero_family():
    zero = AffineForm(0)
    data = ThreefoldFamilyData(
        ("H",), {(0, 0, 0): F(1)}, F(4),
        (ThreefoldInterval(F(1), F(2), (zero,), (zero,)),),
    )
    assert s_threefold(data) == 0


def test_s_threefold_rejects_family_identity_break():
    zero = AffineForm(0)
    triple = {(0, 0, 0): F(1), (0, 1, 1): F(-1), (1, 1, 1): F(-2)}
    intervals = (
        ThreefoldInterval(F(0), F(1), (AffineForm(2, -1), AffineForm(-1, 1)), (zero, zero)),
        ThreefoldInterval(F(1), F(2), (AffineForm(2, -1), zero), (zero, AffineForm(-2, 1))),
    )
    with pytest.raises(InvariantError, match="declared family"):
        s_threefold(ThreefoldFamilyData(("H", "E"), triple, F(4), intervals))


def test_s_threefold_rejects_volume_discontinuity():
    # N jumps by a whole class at u = 1, so P^3 jumps from 6 to 8
    zero = AffineForm(0)
    triple = {(0, 0, 0): F(1), (1, 1, 1): F(-2)}
    intervals = (
        ThreefoldInterval(F(0), F(1), (AffineForm(2), AffineForm(1)), (zero, zero)),
        ThreefoldInterval(F(1), F(2), (AffineForm(2), zero), (zero, AffineForm(1))),
    )
    with pytest.raises(InvariantError, match="discontinuous"):
        s_threefold(ThreefoldFamilyData(("H", "E"), triple, F(6), intervals))


def test_s_threefold_checks_anticanonical_volume():
    with pytest.raises(InvariantError, match="anticanonical volume"):
        s_threefold(quadric_blowup_family(volume=F(5)))


def cusp_family_decomposition():
    lat = CurveLattice(
        ["f", "C", "L"],
        [[F(-1, 6), 1, F(1, 2)], [1, -6, 0], [F(1, 2), 0, F(-1, 2)]],
    )
    fam = SurfaceFamily("f", (SurfacePiece(F(0), F(1), ParametricDivisor.of(
        (AffineForm(9, -3, -1), AffineForm(1), AffineForm(1, -1)))),))
    return lat, decompose_family(lat, fam)


def test_s_curve_and_point_cuspidal():
    _, famdec = cusp_family_decomposition()
    assert s_curve(10, famdec) == F(173, 40)
    flag = FlagData("f", {"C": F(1), "L": F(0)})
    assert f_term(10, famdec, flag) == F(193, 480)
    assert s_point(10, famdec, flag) == F(67, 120)


def test_f_term_scales_linearly_in_multiplicity():
    _, famdec = cusp_family_decomposition()
    once = f_term(10, famdec, FlagData("f", {"C": F(1), "L": F(0)}))
    twice = f_term(10, famdec, FlagData("f", {"C": F(2), "L": F(0)}))
    assert twice == 2 * once


def test_f_term_incomplete_flag_data():
    _, famdec = cusp_family_decomposition()
    with pytest.raises(InvariantError, match="incomplete flag data"):
        # locates the point on L but stays silent about C, which meets f too
        f_term(10, famdec, FlagData("f", {"L": F(1)}))


def test_f_term_rejects_center_multiplicity():
    _, famdec = cusp_family_decomposition()
    with pytest.raises(InvariantError, match="center"):
        f_term(10, famdec, FlagData("f", {"f": F(1)}))


def test_point_value_dominates_base():
    """F-term non-negativity: s_point >= the bare square integral."""
    scenario = load_scenario(corpus_dir() / "24-nodal.json")
    runtime = ScenarioRuntime(scenario)
    for flag in scenario.flags:
        base = runtime.evaluate("point_base", {"flag": flag})
        full = runtime.evaluate("s_point", {"flag": flag})
        assert full >= base


def test_s_curve_invariant_under_chamber_resplit():
    """End-to-end additivity: re-splitting every chamber leaves S unchanged."""
    _, famdec = cusp_family_decomposition()
    reference = s_curve(10, famdec)
    total = F(0)
    chord = (-15, 21, 7)  # the line -5/7 + u + v/3 = 0, times 21
    for chamber in famdec.chambers():
        left, right = split_by_line(chamber.region, chord)
        total += integrate_polygon(chamber.p_squared, left)
        total += integrate_polygon(chamber.p_squared, right)
    assert total * F(3, 10) == reference


def test_beta_examples():
    assert beta(4, F(27, 8)) == F(5, 8)
    assert beta(3, 3) == 0
    assert beta(3, F(5679, 2048)) == F(465, 2048)


def test_beta_lower_bound_equals_beta_on_exact_volumes():
    # the cone ray of the cubic-pencil family: volumes 10 - u^3 and 12 - 3u
    pieces = [
        (F(0), F(1), poly_from_terms([(0, 0, 10), (3, 0, -1)])),
        (F(1), F(4), poly_from_terms([(0, 0, 12), (1, 0, -3)])),
    ]
    value = beta_lower_bound(10, 3, pieces)
    assert value == 3 - F(93, 40)


def test_beta_lower_bound_rejects_gaps():
    pieces = [
        (F(0), F(1), poly_from_terms([(0, 0, 1)])),
        (F(2), F(3), poly_from_terms([(0, 0, 1)])),
    ]
    with pytest.raises(InvariantError, match="gap"):
        beta_lower_bound(10, 3, pieces)
    with pytest.raises(InvariantError, match="start at u = 0"):
        beta_lower_bound(10, 3, pieces[1:])


def test_delta_min_examples():
    assert delta_min_combinator([(8, 3), (16, 11), (16, 15)]) == F(16, 15)
    assert delta_min_combinator([(F(7, 2), 1)]) == F(7, 2)
    assert delta_min_combinator([(40, 31), (40, 31)]) == F(40, 31)
    with pytest.raises(InvariantError, match="positive"):
        delta_min_combinator([(1, 0)])


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=40)
def test_delta_min_scale_invariant_argmin(n1, d1, scale_num, scale_den):
    terms = [(F(n1), F(d1)), (F(16), F(11)), (F(5), F(2))]
    baseline = delta_min_combinator(terms)
    scaled = [(a * F(scale_num, scale_den), b * F(scale_num, scale_den)) for a, b in terms]
    assert delta_min_combinator(scaled) == baseline


def test_fiber_delta_bound_branches():
    assert fiber_delta_bound(3, F(3, 2), True) == F(16, 11)
    assert fiber_delta_bound(2, F(15, 16), False) == 1
    assert fiber_delta_bound(1, 1, True) == 1
    with pytest.raises(InvariantError):
        fiber_delta_bound(4, 1, True)


def test_quartic_fiber_bound_verdicts():
    assert quartic_fiber_bound(F(4, 3), False) == "delta_P(X)>1"
    assert quartic_fiber_bound(F(54, 55), False) == "inconclusive"
    assert quartic_fiber_bound(F(27, 28) + F(1, 1000), True) == "delta_P(X)>1"
    assert quartic_fiber_bound(F(27, 28), True) == "inconclusive"


def test_declared_threshold_is_validated():
    lat = CurveLattice(["C"], [[3]])
    fam = SurfaceFamily(
        "C",
        (SurfacePiece(F(0), F(1), ParametricDivisor.of((AffineForm(1, 0, -1),))),),
        declared_threshold=((F(0), F(1), AffineForm(2, 0, 0)),),
    )
    with pytest.raises(InvariantError, match="declared"):
        decompose_family(lat, fam)
