from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.lattice import (
    CurveLattice,
    DivisorClass,
    LatticeError,
    ParametricDivisor,
    is_negative_definite,
    pair,
    pairing_form,
    solve_gram,
)
from kstab.poly import AffineForm


def cusp_lattice():
    return CurveLattice(
        ["f", "C", "L"],
        [[F(-1, 6), 1, F(1, 2)], [1, -6, 0], [F(1, 2), 0, F(-1, 2)]],
    )


def line_flag_lattice():
    from kstab.scenarios import load_scenario, corpus_dir

    return load_scenario(corpus_dir() / "27-line-flag.json").lattice


def test_pair_table_entry():
    lat = line_flag_lattice()
    L = DivisorClass.of([1 if n == "L" else 0 for n in lat.names])
    Z = DivisorClass.of([1 if n == "Z" else 0 for n in lat.names])
    assert pair(lat, L, Z) == 2


def test_pair_zero_class():
    lat = cusp_lattice()
    zero = DivisorClass.zero(3)
    anything = DivisorClass.of([3, F(1, 2), -1])
    assert pair(lat, zero, anything) == 0


def test_pair_blown_quadric_minus_one_class():
    # oracle: evaluate the quadratic form 2 a1 a2 - sum b_i^2 directly
    from kstab.series import PICARD_NAMES, picard_gram

    lat = CurveLattice(PICARD_NAMES, picard_gram())
    a1, a2, b = 7, 7, (6, 3, 3, 3, 3, 3, 3, 3)
    direct = 2 * a1 * a2 - sum(x * x for x in b)
    assert direct == -1
    cls = DivisorClass.of([a1, a2] + [-x for x in b])
    assert pair(lat, cls, cls) == direct


def test_pair_rank_mismatch():
    with pytest.raises(LatticeError, match="rank mismatch"):
        pair(cusp_lattice(), DivisorClass.zero(2), DivisorClass.zero(3))


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeError, match="symmetric"):
        CurveLattice(["a", "b"], [[-1, 1], [0, -1]])


def test_gram_value_is_the_same_from_ints_fractions_and_strings():
    names = ["f", "C", "L"]
    ints = [[F(-1, 6), 1, 0], [1, -6, 0], [0, 0, -2]]  # the orbifold entry stays a Fraction
    fractions = [[F(x) for x in row] for row in ints]
    strings = [[str(x) for x in row] for row in ints]
    lat, *others = (CurveLattice(names, g) for g in (ints, fractions, strings))
    assert lat.scale == 6
    assert lat.int_gram == ((-1, 6, 0), (6, -36, 0), (0, 0, -12))
    for other in others:
        assert other == lat
        assert hash(other) == hash(lat)
        assert other.gram == lat.gram == tuple(map(tuple, fractions))


@pytest.mark.parametrize("n, i", [(0, 1), (1, 2), (7, 3), (40, 4)])
def test_band_universe_int_gram_is_the_picard_pairing(n, i):
    from kstab.series import band_universe, picard_pair

    lat, members = band_universe(n, i)
    vectors = [vector for _, vector, _ in members]
    assert lat.scale == 1
    assert lat.int_gram == tuple(tuple(picard_pair(a, b) for b in vectors) for a in vectors)


def test_distinct_curves_must_not_pair_negatively():
    with pytest.raises(LatticeError, match="a and b pair negatively"):
        CurveLattice(["a", "b"], [[-1, F(-1, 2)], [F(-1, 2), -1]])


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_pair_symmetric_bilinear(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(rng.randint(-6, 6), rng.randint(1, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = F(rng.randint(0, 4), rng.randint(1, 2))
    lat = CurveLattice([f"c{i}" for i in range(n)], gram)

    def rand_class():
        return DivisorClass.of([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])

    a, b, c = rand_class(), rand_class(), rand_class()
    s = F(rng.randint(-3, 3), rng.randint(1, 2))
    assert pair(lat, a, b) == pair(lat, b, a)
    assert pair(lat, a + b * s, c) == pair(lat, a, c) + s * pair(lat, b, c)


def test_negative_definite_examples():
    single = CurveLattice(["C"], [[-4]])
    assert is_negative_definite(single, [0])
    degenerate = CurveLattice(["L", "Z"], [[-2, 2], [2, -2]])
    # determinant (-2)(-2) - 4 = 0, so not definite
    assert not is_negative_definite(degenerate, [0, 1])
    assert is_negative_definite(degenerate, [])
    assert is_negative_definite(degenerate, [0])


def test_negative_definite_orbifold_entries():
    lat = cusp_lattice()
    assert is_negative_definite(lat, [1, 2])  # {C, L}
    assert not is_negative_definite(lat, [0, 1, 2])  # contains a P^2 = 0 direction


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_negative_definite_monotone_under_subsets(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 5)
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(-rng.randint(1, 5))
        for j in range(i):
            gram[i][j] = gram[j][i] = F(rng.randint(0, 2))
    lat = CurveLattice([f"c{i}" for i in range(n)], gram)
    full = list(range(n))
    if is_negative_definite(lat, full):
        for drop in range(n):
            subset = [i for i in full if i != drop]
            assert is_negative_definite(lat, subset)


def test_pairing_form_cuspidal_first_chamber():
    lat = cusp_lattice()
    d = ParametricDivisor.of(
        (AffineForm(9, -3, -1), AffineForm(1), AffineForm(1, -1))
    )
    assert pairing_form(lat, d, 0) == AffineForm(0, 0, F(1, 6))


def test_pairing_form_zero_divisor():
    lat = cusp_lattice()
    zero = ParametricDivisor.of((AffineForm(0),) * 3)
    assert pairing_form(lat, zero, 1).is_zero()


def test_pairing_form_series_band_exceptional():
    from kstab.series import band_divisor, band_universe

    lat, members = band_universe(0, 1)
    data = band_divisor(members)
    assert data.pairings[lat.index("e1")] == AffineForm(1, 0, 1)


def test_solve_gram_exact_and_singular():
    sol = solve_gram([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
    assert sol == [F(1), F(3)]
    with pytest.raises(LatticeError, match="singular"):
        solve_gram([[F(1), F(1)], [F(2), F(2)]], [F(0), F(1)])
