import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kstab.geometry import Polygon
from kstab.invariants import decompose_family
from kstab.lattice import CurveLattice
from kstab.poly import AffineForm, Polynomial2, integrate_interval, poly_from_terms
from kstab.scenarios import corpus_dir, load_scenario
from kstab.series import band_universe, compute_band

coeffs = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=12)


def small_polys(max_deg_u=4, max_deg_v=0):
    return st.dictionaries(
        st.tuples(st.integers(0, max_deg_u), st.integers(0, max_deg_v)),
        coeffs,
        max_size=6,
    ).map(Polynomial2)


def test_integrate_constant_is_length():
    assert integrate_interval(Polynomial2.const(1), 0, 1) == 1


def test_integrate_hyperplane_volume_integrand():
    # (4 - u)(1 - u)^2 over [0, 1], scaled by 1/4, is the S-value 5/16
    p = (
        poly_from_terms([(0, 0, 4), (1, 0, -1)])
        * poly_from_terms([(0, 0, 1), (1, 0, -1)])
        * poly_from_terms([(0, 0, 1), (1, 0, -1)])
    )
    assert integrate_interval(p, 0, 1) / 4 == F(5, 16)


def test_integrate_exceptional_volume_integrand():
    p = poly_from_terms([(3, 0, 2), (1, 0, -6), (0, 0, 4)])
    assert integrate_interval(p, 0, 1) / 4 == F(3, 8)


def test_integrate_rejects_bivariate():
    with pytest.raises(ValueError, match="not univariate"):
        integrate_interval(Polynomial2.var_v(), 0, 1)


def test_integrate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate_interval(Polynomial2.const(1), 1, 0)


@given(small_polys(), small_polys())
def test_integration_is_linear(p, q):
    left = integrate_interval(p + q, 0, 2)
    assert left == integrate_interval(p, 0, 2) + integrate_interval(q, 0, 2)


@given(small_polys(), st.fractions(min_value=F(0), max_value=F(3), max_denominator=8))
def test_integration_interval_additivity(p, mid):
    total = integrate_interval(p, 0, 3)
    assert total == integrate_interval(p, 0, mid) + integrate_interval(p, mid, 3)


def test_affine_evaluation_and_arithmetic():
    f = AffineForm(F(19, 6), F(-7, 6), -1)
    assert f(1, 2) == F(19, 6) - F(7, 6) - 2
    g = f - AffineForm(0, 0, -1)
    assert g.cv == 0
    assert (f * 6).c == 19


def test_affine_product_is_polynomial():
    f = AffineForm(1, -1, 0)
    p = f * f
    assert isinstance(p, Polynomial2)
    assert p.coefficient(2, 0) == 1
    assert p.coefficient(0, 0) == 1
    assert p.coefficient(1, 0) == -2


def test_degree_warning_threshold():
    with pytest.warns(UserWarning, match="sanity threshold"):
        poly_from_terms([(7, 0, 1)])


VALUE_TYPES = (AffineForm, Polynomial2, Polygon, CurveLattice)


def _cusp_family():
    scenario = load_scenario(corpus_dir() / "24-cusp.json")
    return decompose_family(scenario.lattice, scenario.families["f"])


@pytest.mark.parametrize("make", [
    lambda: AffineForm(1, "-2/3", 5),
    lambda: Polynomial2({(2, 0): F(1, 3), (0, 1): F(-2)}),
    lambda: Polygon.rectangle(0, 1, 0, "1/2"),
    lambda: CurveLattice(["C", "L"], [["-1", "1"], ["1", "-2"]]),
    lambda: band_universe(3, 2)[0],
    lambda: compute_band(0, 1),
    _cusp_family,
    lambda: load_scenario(corpus_dir() / "27-threefold.json"),
], ids=["affine", "poly", "polygon", "lattice", "band-lattice", "band", "family", "scenario"])
def test_values_pickle_and_deepcopy(make):
    value = make()
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    if isinstance(value, VALUE_TYPES):
        for field in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, field.name, None)
