import random
import re
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import zariski
from kstab.geometry import Polygon
from kstab.lattice import (
    CurveLattice,
    DivisorClass,
    LatticeError,
    ParametricDivisor,
    is_negative_definite,
    solve_gram,
)
from kstab.poly import AffineForm, Polynomial2
from kstab.zariski import (
    Chamber,
    ChamberDecomposition,
    CoverageError,
    DivisorData,
    PointDecomposition,
    PointDivisor,
    ZariskiError,
    decompose_at,
    decompose_parametric,
    effective_threshold,
    enumerate_valid_supports,
    oracle_check,
    _positive_part,
)


def cusp_setup():
    lat = CurveLattice(
        ["f", "C", "L"],
        [[F(-1, 6), 1, F(1, 2)], [1, -6, 0], [F(1, 2), 0, F(-1, 2)]],
    )
    d = ParametricDivisor.of(
        (AffineForm(9, -3, -1), AffineForm(1), AffineForm(1, -1))
    )
    return lat, d


def test_decompose_at_restricted_fiber_data():
    # the cubic-surface restriction of the fiber ray at u = 7/6: the lattice
    # is (A|_S, E|_S) with Gram [[0, 9], [9, -9]] and d = (1/6) A|_S + (1/3) E|_S
    lat = CurveLattice(["CA", "eps"], [[0, 9], [9, -9]])
    d = DivisorClass.of([F(1, 6), F(1, 3)])
    dec = decompose_at(lat, d)
    assert dec.support == (1,)
    assert dec.neg_coeffs == (F(1, 6),)


def test_decompose_at_nef_class():
    lat = CurveLattice(["a", "b"], [[-1, 1], [1, -2]])
    dec = decompose_at(lat, DivisorClass.of([0, 0]))
    assert dec.support == ()
    assert dec.negative == DivisorClass.zero(2)


def test_decompose_at_cusp_point():
    # hand oracle: d . C = 1*(-6) + (9 - 0 - 4)*1 = -1, and the 1x1 system on
    # C^2 = -6 gives the multiplicity 1/6
    lat, d = cusp_setup()
    dec = decompose_at(lat, d.at(0, 4))
    assert dec.support == (1,)
    assert dec.neg_coeffs == (F(1, 6),)


def _whole(message: str) -> str:
    """A ``match`` pattern for exactly this message."""
    return f"^{re.escape(message)}$"


def test_decompose_at_rejects_non_pseudoeffective(monkeypatch):
    lat = CurveLattice(["a"], [[2]])  # positive self-intersection
    with pytest.raises(ZariskiError, match=_whole(
        "not pseudoeffective w.r.t. universe: candidate support {a} is not negative definite"
    )):
        decompose_at(lat, DivisorClass.of([-1]))
    # A negative definite block with non-negative off-diagonal entries has an
    # entrywise non-positive inverse, so the closure's multiplicities cannot
    # turn negative; a solve with its sign flipped stands in for one that does.
    real = zariski.bareiss_solve

    def flipped(lat, subset, rhs=()):
        det, x = real(lat, subset, rhs)
        return det, [[-n for n in xi] for xi in x]

    monkeypatch.setattr(zariski, "bareiss_solve", flipped)
    with pytest.raises(ZariskiError, match=_whole(
        "not pseudoeffective w.r.t. universe: negative multiplicity"
    )):
        decompose_at(CurveLattice(["a"], [[-1]]), DivisorClass.of([1]))


def test_wrong_length_divisor_is_rejected_at_the_boundary():
    lat, d = cusp_setup()  # rank 3
    data = DivisorData.from_parametric(lat, d)

    def mismatch(count):
        return _whole(f"rank mismatch: divisor has {count} coefficients, lattice rank is 3")

    with pytest.raises(LatticeError, match=mismatch(2)):
        decompose_at(lat, DivisorClass.of([1, 1]))
    with pytest.raises(LatticeError, match=mismatch(4)):
        decompose_at(lat, DivisorClass.of([1, 1, 1, 1]))
    with pytest.raises(LatticeError, match=mismatch(2)):
        decompose_at(lat, PointDivisor((F(-1), F(1)), F(0)))
    short = DivisorData(data.pairings[:2], data.self_sq)
    with pytest.raises(LatticeError, match=mismatch(2)):
        decompose_parametric(lat, short, Polygon.rectangle(0, 1, 0, 1))
    with pytest.raises(LatticeError, match=mismatch(2)):
        effective_threshold(lat, short, 0, 1)


def test_enumeration_agrees_and_is_unique_on_cusp_family():
    lat, d = cusp_setup()
    rng = random.Random(5)
    for _ in range(25):
        u = F(rng.randint(0, 40), 41)
        v = F(rng.randint(0, 100), 12)
        if v > 9 - 3 * u:
            continue
        point = d.at(u, v)
        greedy = decompose_at(lat, point)
        supports = enumerate_valid_supports(lat, point)
        vectors = {dec.negative.coefficients for dec in supports}
        assert vectors == {greedy.negative.coefficients}


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_greedy_matches_bruteforce_on_random_universes(seed):
    """Classical uniqueness, checked abstractly: effective classes in a random
    universe with non-positive diagonals and non-negative cross pairings."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(-rng.randint(1, 6), rng.randint(1, 2))
        for j in range(i):
            gram[i][j] = gram[j][i] = F(rng.randint(0, 2), rng.randint(1, 2))
    lat = CurveLattice([f"c{i}" for i in range(n)], gram)
    d = DivisorClass.of([F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(n)])
    greedy = decompose_at(lat, d)
    assert all(c >= 0 for c in greedy.neg_coeffs)
    assert all(p >= 0 for p in greedy.p_pairings)
    vectors = {dec.negative.coefficients for dec in enumerate_valid_supports(lat, d)}
    assert vectors == {greedy.negative.coefficients}


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_chambers_match_oracle_on_random_universes(seed):
    """Parametric chambers agree with pointwise decomposition on random
    universes, for families that are effective on the whole unit square."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(-rng.randint(1, 6), rng.randint(1, 2))
        for j in range(i):
            gram[i][j] = gram[j][i] = F(rng.randint(0, 2), rng.randint(1, 2))
    lat = CurveLattice([f"c{i}" for i in range(n)], gram)
    forms = []
    for _ in range(n):
        cu = F(rng.randint(-4, 4), rng.randint(1, 2))
        cv = F(rng.randint(-4, 4), rng.randint(1, 2))
        # raise the constant until the form is >= 0 on every corner
        c = max(F(rng.randint(0, 4), rng.randint(1, 2)), -cu, -cv, -cu - cv)
        forms.append(AffineForm(c, cu, cv))
    d = ParametricDivisor.of(forms)
    dec = decompose_parametric(lat, d, Polygon.rectangle(0, 1, 0, 1))
    assert oracle_check(lat, d, dec, 15, seed).passed


def test_parametric_cusp_chambers():
    lat, d = cusp_setup()
    dom = Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])
    dec = decompose_parametric(lat, d, dom)
    supports = [tuple(lat.names[i] for i in c.support) for c in dec.chambers]
    assert supports == [(), ("C",), ("C", "L")]
    dec.validate_continuity()
    # boundary lines v = 3 - 3u and v = 8 - 2u
    empty = dec.chambers[0].region.canonical()
    assert (0, 3) in [tuple(p) for p in empty.vertices]


def test_parametric_constant_nef_family():
    lat = CurveLattice(["s", "f"], [[0, 1], [1, 0]])
    d = ParametricDivisor.of((AffineForm(1), AffineForm(2)))
    dec = decompose_parametric(lat, d, Polygon.rectangle(0, 1, 0, 1))
    assert len(dec.chambers) == 1
    assert dec.chambers[0].support == ()


def test_parametric_coverage_error_names_region():
    lat = CurveLattice(["C"], [[-2]])
    d = ParametricDivisor.of((AffineForm(1, 0, -1),))  # (1 - v) C
    # beyond v = 1 the class is not pseudoeffective relative to the universe:
    # N would need coefficient v - 1 on C but P . C = 0 identically, leaving
    # (v-1)-effectivity impossible... the failing sample raises CoverageError
    bad_domain = Polygon.rectangle(0, 1, 0, 3)
    with pytest.raises(CoverageError) as info:
        decompose_parametric(lat, d, bad_domain)
    assert info.value.polygon is not None


def _chamber_of_values(region, support, neg_coeffs, p_pairings, p_squared):
    """The Chamber with these values, through its integer-row constructor."""
    forms = [(f.c, f.cu, f.cv) for f in tuple(neg_coeffs) + tuple(p_pairings)]
    den = lcm(*(x.denominator for row in forms for x in row))
    rows = tuple(tuple(int(x * den) for x in row) for row in forms)
    sq = [p_squared.coefficient(*e) for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    sq_den = lcm(*(x.denominator for x in sq))
    k = len(neg_coeffs)
    return Chamber(
        region, support, den, rows[:k], rows[k:], sq_den, tuple(int(x * sq_den) for x in sq)
    )


def test_oracle_check_passes_and_catches_corruption():
    lat, d = cusp_setup()
    dom = Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])
    dec = decompose_parametric(lat, d, dom)
    assert oracle_check(lat, d, dec, 40, seed=3).passed
    # negative control: corrupt one negative-part coefficient
    bad_chambers = []
    for chamber in dec.chambers:
        if chamber.support:
            coeffs = list(chamber.neg_coeffs)
            coeffs[0] = coeffs[0] + AffineForm(F(1, 97))
            chamber = _chamber_of_values(
                chamber.region, chamber.support, tuple(coeffs),
                chamber.p_pairings, chamber.p_squared,
            )
        bad_chambers.append(chamber)
    corrupted = ChamberDecomposition(lat, dec.divisor, dec.domain, tuple(bad_chambers))
    report = oracle_check(lat, d, corrupted, 40, seed=3)
    assert not report.passed
    assert "negative parts differ" in report.failures[0].detail


def test_continuity_is_checked_between_the_endpoints():
    """P^2 of two chambers across u = 1 that differ by v(1 - v) agree at
    both ends of the shared edge but not at its midpoint, so continuity
    fails; a difference of (u - 1) v vanishes on the whole edge."""
    lat, d = cusp_setup()
    base = Polynomial2({(0, 0): 4, (1, 0): -1, (1, 1): F(1, 2), (0, 2): -1})

    def across_u_equals_one(difference):
        chambers = tuple(
            _chamber_of_values(region, (), (), (), p_squared)
            for region, p_squared in ((Polygon.rectangle(0, 1, 0, 1), base),
                                      (Polygon.rectangle(1, 2, 0, 1), base + difference))
        )
        return ChamberDecomposition(
            lat, DivisorData.from_parametric(lat, d), Polygon.rectangle(0, 2, 0, 1), chambers
        )

    across_u_equals_one(Polynomial2({(1, 1): 1, (0, 1): -1})).validate_continuity()
    with pytest.raises(ZariskiError, match="discontinuous across chambers 0 and 1"):
        across_u_equals_one(Polynomial2({(0, 1): 1, (0, 2): -1})).validate_continuity()


def test_oracle_check_empty_domain_is_vacuous():
    lat, d = cusp_setup()
    dec = decompose_parametric(lat, d, Polygon([]))
    assert oracle_check(lat, d, dec, 10).passed


def _spy(monkeypatch, name, log):
    real = getattr(zariski, name)

    def spy(*args):
        out = real(*args)
        log.append(out)
        return out

    monkeypatch.setattr(zariski, name, spy)


def test_sample_retry_skips_outside_and_covered_samples(monkeypatch):
    """Discovery skips a sample outside the piece and a sample whose support
    already has a chamber, and still places the same chambers."""
    lat, d = cusp_setup()
    dom = Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])
    expected = decompose_parametric(lat, d, dom)
    real_points = Polygon.interior_points

    def retry_first(piece):
        x, y = piece.vertices[0]
        yield (x + 100, y + 100)  # outside, and not pseudoeffective there
        yield from piece.vertices  # on the boundary of covered chambers
        yield from real_points(piece)

    monkeypatch.setattr(Polygon, "interior_points", retry_first)
    samples, builds = [], []
    _spy(monkeypatch, "_support_closure", samples)
    _spy(monkeypatch, "_build_chamber", builds)
    dec = decompose_parametric(lat, d, dom)
    discovery_samples = len(samples)
    assert dec.chambers == expected.chambers
    assert oracle_check(lat, d, dec, 40, seed=3).passed
    placed = [c.support for c in dec.chambers]
    assert len(builds) == len(placed)
    # every sample that built nothing repeated a support already placed
    assert discovery_samples > len(builds)


def crossing_setup():
    """Support {C1} for u < 1/2 and {C2} for u > 1/2; the empty support
    holds only on the line u = 1/2, a chamber of zero area."""
    lat = CurveLattice(["F", "C1", "C2"], [[0, 1, 1], [1, -1, 0], [1, 0, -1]])
    d = ParametricDivisor.of(
        (AffineForm(1), AffineForm(F(3, 2), -1), AffineForm(F(1, 2), 1))
    )
    return lat, d


def test_sample_retry_skips_a_degenerate_chamber(monkeypatch):
    lat, d = crossing_setup()
    builds = []
    _spy(monkeypatch, "_build_chamber", builds)
    dec = decompose_parametric(lat, d, Polygon.rectangle(0, 1, 0, 1))
    # the vertex centroid (1/2, 1/2) has the empty support
    assert [b[0].support for b in builds] == [(), (1,), (2,)]
    assert builds[0][0].region.is_degenerate()
    assert [(c.support, c.region) for c in dec.chambers] == [
        ((1,), Polygon.rectangle(0, F(1, 2), 0, 1)),
        ((2,), Polygon.rectangle(F(1, 2), 1, 0, 1)),
    ]
    assert oracle_check(lat, d, dec, 20, seed=1).passed
    # with no other sample the degenerate chamber is not placed
    domain = Polygon.rectangle(0, 1, 0, 1)
    monkeypatch.setattr(Polygon, "interior_points", lambda piece: iter([(F(1, 2), F(1, 2))]))
    with pytest.raises(CoverageError, match="could not place") as info:
        decompose_parametric(lat, d, domain)
    assert info.value.polygon == domain


def test_volume_monotone_in_v():
    lat, d = cusp_setup()
    dom = Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])
    dec = decompose_parametric(lat, d, dom)
    rng = random.Random(11)
    for _ in range(40):
        u = F(rng.randint(0, 20), 21)
        v = F(rng.randint(0, 60), 10)
        step = F(rng.randint(1, 10), 10)
        if v + step > 9 - 3 * u:
            continue
        low = dec.chamber_at((u, v)).p_squared(u, v)
        high = dec.chamber_at((u, v + step)).p_squared(u, v + step)
        assert high <= low


def nodal_setup():
    names = ["f", "C"] + [f"L{i}" for i in range(1, 10)]
    gram = [[F(0)] * 11 for _ in range(11)]
    gram[0][0], gram[1][1] = F(-1), F(-4)
    gram[0][1] = gram[1][0] = F(2)
    for k in range(2, 11):
        gram[k][k] = F(-1)
        gram[0][k] = gram[k][0] = F(1)
    lat = CurveLattice(names, gram)
    d = ParametricDivisor.of(
        (AffineForm(F(19, 6), F(-7, 6), -1), AffineForm(F(5, 6), F(1, 6)))
        + (AffineForm(F(1, 6), F(-1, 6)),) * 9
    )
    return lat, d


def test_effective_threshold_nodal():
    lat, d = nodal_setup()
    pieces = effective_threshold(lat, d, 0, 1)
    assert pieces == [(F(0), F(1), AffineForm(F(19, 6), F(-7, 6), 0))]


def test_effective_threshold_series_band():
    from kstab.series import compute_band

    assert compute_band(0, 2).threshold == AffineForm(F(17, 7), F(-15, 7), 0)


def test_effective_threshold_through_a_drop():
    # (2 - v)E + (1 + u)F: E leaves the support at v = 1 - u, and the sweep
    # stops at v = 2, where absorbing F would break negative definiteness
    lat = CurveLattice(["E", "F"], [[-1, 1], [1, 0]])
    d = ParametricDivisor((AffineForm(2, 0, -1), AffineForm(1, 1, 0)))
    assert effective_threshold(lat, d, 0, F(1, 2)) == [(0, F(1, 2), AffineForm(2, 0, 0))]
    assert effective_threshold(lat, d, F(1, 4), F(1, 4)) == [
        (F(1, 4), F(1, 4), AffineForm(2, 0, 0))
    ]
    dec = decompose_parametric(lat, d, Polygon.band(0, F(1, 2), AffineForm(2)))
    assert [(c.support, c.region.vertices) for c in dec.chambers] == [
        ((), ((0, 1), (F(1, 2), F(1, 2)), (F(1, 2), 2), (0, 2))),
        ((0,), ((0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2)), (0, 1))),
    ]
    assert dec.chambers[1].neg_coeffs == (AffineForm(1, -1, -1),)
    assert oracle_check(lat, d, dec, 50, seed=3).passed


def test_effective_threshold_unbounded_error():
    lat = CurveLattice(["a"], [[-1]])
    d = ParametricDivisor.of((AffineForm(1, 0, 1),))  # grows with v, stays feasible
    with pytest.raises(ZariskiError, match="no threshold"):
        effective_threshold(lat, d, 0, 1)


def test_effective_threshold_rejects_quadratic_root():
    # nef family minus v times a class of positive self-intersection: the
    # feasibility region is bounded only by the root of P^2, not affinely
    lat = CurveLattice(["a", "b"], [[1, 0], [0, -1]])
    d = ParametricDivisor.of((AffineForm(1), AffineForm(0, 0, -1)))
    with pytest.raises(ZariskiError, match="P\\^2"):
        effective_threshold(lat, d, 0, 1)


def test_orthogonality_of_chamber_positive_parts():
    lat, d = cusp_setup()
    dom = Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])
    dec = decompose_parametric(lat, d, dom)
    for chamber in dec.chambers:
        for i in chamber.support:
            assert chamber.p_pairings[i].is_zero()


# -- the integer elimination against the Fraction reference ------------------

_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
# half of the curve pairs meet, so that larger negative definite sets occur
_off_diagonal = st.one_of(st.just(F(0)), st.builds(F, st.integers(1, 4), st.integers(1, 6)))


@st.composite
def _lattice_and_subset(draw):
    """A random symmetric lattice of rank 1-6 (rational entries, denominators
    up to 6, non-negative off-diagonals) and a random subset, in any order."""
    n = draw(st.integers(1, 6))
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(draw(st.integers(-36, 3)), draw(st.integers(1, 6)))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(_off_diagonal)
    lat = CurveLattice([f"c{i}" for i in range(n)], gram)
    subset = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return lat, subset


def _sylvester_reference(lat, subset):
    """Leading principal minors of the Gram submatrix, each its own Fraction
    determinant (elimination with row swaps), must alternate in sign."""
    for k in range(1, len(subset) + 1):
        m = [[lat.gram[i][j] for j in subset[:k]] for i in subset[:k]]
        det = F(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if m[r][col]), None)
            if pivot is None:
                return False
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, k):
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        if det * (-1) ** k <= 0:
            return False
    return True


def _positive_part_reference(lat, pairings, self_sq, support):
    """solve_gram on the support, then the subtraction, all in Fraction."""
    gram = [[lat.gram[i][j] for j in support] for i in support]
    coeffs = solve_gram(gram, [pairings[i] for i in support]) if support else []
    p_pairings = list(pairings)
    p_sq = self_sq
    for i, c in zip(support, coeffs):
        for j in range(lat.rank):
            if lat.gram[i][j]:
                p_pairings[j] = p_pairings[j] - c * lat.gram[i][j]
        p_sq = p_sq - c * pairings[i]
    return coeffs, p_pairings, p_sq


@given(_lattice_and_subset(), st.data())
@settings(max_examples=400, deadline=None)
def test_integer_elimination_matches_fraction_reference(case, data):
    lat, subset = case
    definite = is_negative_definite(lat, subset)
    assert definite == _sylvester_reference(lat, subset)
    n = lat.rank
    numbers = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    forms = [AffineForm(*data.draw(st.tuples(_rationals, _rationals, _rationals)))
             for _ in range(n)]
    square = Polynomial2({exp: data.draw(_rationals)
                          for exp in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]})
    for pairings, self_sq in ((numbers, data.draw(_rationals)), (forms, square)):
        if definite:
            assert _positive_part(lat, pairings, self_sq, subset) == (
                _positive_part_reference(lat, pairings, self_sq, subset)
            )
        else:
            with pytest.raises(LatticeError):
                _positive_part(lat, pairings, self_sq, subset)


# -- the integer engine against the Fraction engine it replaced --------------
#
# The references below are the Fraction support closure and threshold sweep
# as they stood before the engine moved onto integer rows, with every solve
# done by ``_positive_part_reference`` behind the Sylvester test.


def _solve_reference(lat, pairings, self_sq, support):
    if not _sylvester_reference(lat, support):
        raise LatticeError("support is not negative definite")
    return _positive_part_reference(lat, pairings, self_sq, support)


def _decompose_at_reference(lat, point):
    rank = lat.rank
    support = []
    coeffs, p_pairings, p_sq = [], point.pairings, point.self_sq
    for _ in range(rank + 1):
        violations = [j for j in range(rank) if j not in support and p_pairings[j] < 0]
        if not violations:
            break
        support = sorted(set(support) | set(violations))
        try:
            coeffs, p_pairings, p_sq = _solve_reference(lat, point.pairings, point.self_sq, support)
        except LatticeError:
            raise ZariskiError(
                "not pseudoeffective w.r.t. universe: candidate support "
                f"{{{', '.join(lat.names[i] for i in support)}}} is not negative definite"
            ) from None
    else:
        raise ZariskiError("support closure failed to stabilize")
    if any(c < 0 for c in coeffs):
        raise ZariskiError("not pseudoeffective w.r.t. universe: negative multiplicity")
    negative = [F(0)] * rank
    for i, c in zip(support, coeffs):
        negative[i] = c
    return PointDecomposition(
        tuple(support), tuple(coeffs), DivisorClass(tuple(negative)), tuple(p_pairings), p_sq
    )


def _effective_threshold_reference(lat, data, u_lo, u_hi):
    if u_lo > u_hi:
        raise ZariskiError("empty u-interval")
    if u_lo == u_hi:
        return [(u_lo, u_hi, _threshold_sweep_reference(lat, data, u_lo)[0])]
    pieces = _threshold_recurse_reference(lat, data, u_lo, u_hi, 0)
    pieces.sort(key=lambda item: item[0])
    merged = []
    for piece in pieces:
        if merged and merged[-1][2] == piece[2] and merged[-1][1] == piece[0]:
            merged[-1] = (merged[-1][0], piece[1], piece[2])
        else:
            merged.append(piece)
    return merged


def _threshold_recurse_reference(lat, data, u_lo, u_hi, depth):
    if depth > 64:
        raise ZariskiError("effective threshold recursion too deep")
    samples = [u_lo + (u_hi - u_lo) * w for w in (F(1, 2), F(2, 5), F(5, 9), F(3, 11))]
    last_error = None
    for u0 in samples:
        threshold, guards = _threshold_sweep_reference(lat, data, u0)
        lo, hi = u_lo, u_hi
        degenerate = False
        for guard in guards:
            alpha, beta = guard.c, guard.cu
            value = alpha + beta * u0
            if value < 0:
                raise ZariskiError("threshold sweep produced an inconsistent guard")
            if value == 0 and beta != 0:
                degenerate = True
                break
            if beta > 0:
                lo = max(lo, -alpha / beta)
            elif beta < 0:
                hi = min(hi, -alpha / beta)
            elif alpha < 0:
                raise ZariskiError("threshold sweep produced an impossible guard")
        if degenerate:
            last_error = ZariskiError(f"degenerate sweep position at u = {u0}")
            continue
        out = [(lo, hi, threshold)]
        if lo > u_lo:
            out.extend(_threshold_recurse_reference(lat, data, u_lo, lo, depth + 1))
        if hi < u_hi:
            out.extend(_threshold_recurse_reference(lat, data, hi, u_hi, depth + 1))
        return out
    raise last_error or ZariskiError("threshold sweep failed")


def _threshold_sweep_reference(lat, data, u0):
    """(threshold, guards), both affine forms in u."""
    rank = lat.rank
    guards = []

    def add_guard(form_u):
        if form_u.is_constant():
            if form_u.c < 0:
                raise ZariskiError("inconsistent constant guard")
            return
        guards.append(form_u)

    try:
        start = _decompose_at_reference(lat, data.at(u0, 0))
    except ZariskiError as exc:
        raise ZariskiError(f"not pseudoeffective at (u, v) = ({u0}, 0): {exc}") from exc
    support = list(start.support)
    parts = _solve_reference(lat, data.pairings, data.self_sq, support)
    v_cur = AffineForm(0, 0, 0)
    for _ in range(4 * rank + 8):
        coeffs, p_pairings, p_sq = parts
        events = []
        constraints = [(form, "drop", i) for form, i in zip(coeffs, support)]
        constraints += [(p_pairings[j], "add", j) for j in range(rank) if j not in support]
        v_cur_at = v_cur(u0, 0)
        for form, kind, idx in constraints:
            if form.cv < 0:
                root = AffineForm(-form.c / form.cv, -form.cu / form.cv, 0)
                root_at = root(u0, 0)
                if root_at < v_cur_at:
                    raise ZariskiError("sweep constraint already violated")
                events.append((root_at, root, kind, idx))
            else:
                add_guard(AffineForm(form.c + form.cv * v_cur.c, form.cu + form.cv * v_cur.cu, 0))
        if not events:
            _reject_unbounded_reference(p_sq, u0)
        binding_at = min(e[0] for e in events)
        binding = [e for e in events if e[0] == binding_at]
        binding_root = binding[0][1]
        for root_at, root, _, _ in events:
            if root_at != binding_at:
                add_guard(root - binding_root)
        add_guard(binding_root - v_cur)
        _check_volume_reference(p_sq, u0, v_cur_at, binding_at)
        adds = [idx for _, _, kind, idx in binding if kind == "add"]
        drops = [idx for _, _, kind, idx in binding if kind == "drop"]
        if adds:
            new_support = sorted(set(support) | set(adds))
            try:
                parts = _solve_reference(lat, data.pairings, data.self_sq, new_support)
            except LatticeError:
                return binding_root, guards
            support = new_support
        elif drops:
            support = [i for i in support if i not in drops]
            parts = _solve_reference(lat, data.pairings, data.self_sq, support)
        v_cur = binding_root
    raise ZariskiError("threshold sweep failed to terminate")


def _reject_unbounded_reference(p_sq, u0):
    poly_v = p_sq.eval_u(u0)
    c2, c1 = poly_v.coefficient(0, 2), poly_v.coefficient(0, 1)
    if c2 < 0 or (c2 == 0 and c1 < 0):
        raise ZariskiError("no affine threshold: feasibility is bounded only by a P^2 root")
    raise ZariskiError("no threshold: family remains feasible for all v")


def _check_volume_reference(p_sq, u0, v_lo, v_hi):
    poly_v = p_sq.eval_u(u0)
    values = [poly_v(0, v_lo), poly_v(0, v_hi)]
    c2, c1 = poly_v.coefficient(0, 2), poly_v.coefficient(0, 1)
    if c2 > 0:
        vertex = -c1 / (2 * c2)
        if v_lo < vertex < v_hi:
            values.append(poly_v(0, vertex))
    if any(value < 0 for value in values):
        raise ZariskiError("no affine threshold: P^2 becomes negative inside a sweep chamber")


def _same_outcome(run, reference):
    """run() == reference(), or both raise the same exception type and text."""
    try:
        expected = reference()
    except Exception as exc:  # noqa: BLE001 - any failure must be matched
        with pytest.raises(Exception) as info:
            run()
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return "raised"
    assert run() == expected
    return "returned"


_widths = st.one_of(st.just(F(0)), st.builds(F, st.integers(1, 12), st.integers(1, 6)))
# curve coefficients of a family: a non-negative constant and a v-slope
# <= 0, so that raising v subtracts curves as the series does
_curve_forms = st.tuples(
    st.builds(F, st.integers(0, 12), st.integers(1, 6)),
    st.builds(F, st.integers(-4, 4), st.integers(1, 6)),
    st.one_of(st.just(F(0)), st.builds(F, st.integers(-6, -1), st.integers(1, 6))),
)


@st.composite
def _threshold_case(draw):
    """(universe, family, curve part, u-interval).

    The universe is a ``_lattice_and_subset`` lattice plus one curve x with
    x^2 in -2..1 that meets every other curve 0-6 times, so that absorbing
    can break negative definiteness and a threshold exists.  The family is
    t h + sum c_i C_i for an ample class h outside the universe (h^2 = H,
    h . C_i >= 0) and t = T + b u, seen through its pairings with the
    universe, as the series bands are.
    """
    lat, _ = draw(_lattice_and_subset())
    n = lat.rank + 1
    row = [F(draw(st.integers(0, 6))) for _ in range(n - 1)]
    gram = [list(r) + [x] for r, x in zip(lat.gram, row)] + [row + [F(draw(st.integers(-2, 1)))]]
    k = [F(draw(st.integers(0, 3))) for _ in range(n)]
    ample = [r + [x] for r, x in zip(gram, k)] + [k + [F(draw(st.integers(1, 20)))]]
    names = [f"c{i}" for i in range(n)]
    curves = [AffineForm(*draw(_curve_forms)) for _ in range(n)]
    t = AffineForm(draw(st.integers(0, 12)), draw(st.builds(F, st.integers(-2, 2), st.integers(1, 6))))
    full = DivisorData.from_parametric(
        CurveLattice(names + ["h"], ample), ParametricDivisor.of(curves + [t])
    )
    u_lo = draw(_rationals)
    return (
        CurveLattice(names, gram),
        DivisorData(full.pairings[:n], full.self_sq),
        ParametricDivisor.of(curves),
        (u_lo, u_lo + draw(_widths)),
    )


@given(_threshold_case(), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_engine_matches_fraction_engine(case, data):
    """effective_threshold and decompose_at agree with the Fraction engine,
    values or errors, on random affine families, u-intervals and points."""
    lat, family, curves, (u_lo, u_hi) = case
    _same_outcome(
        lambda: effective_threshold(lat, family, u_lo, u_hi),
        lambda: _effective_threshold_reference(lat, family, u_lo, u_hi),
    )
    u, v = data.draw(_rationals), data.draw(_rationals)
    point = family.at(u, v)
    _same_outcome(
        lambda: decompose_at(lat, point),
        lambda: _decompose_at_reference(lat, point),
    )
    divisor = curves.at(u, v)
    _same_outcome(
        lambda: decompose_at(lat, divisor),
        lambda: _decompose_at_reference(lat, PointDivisor.from_class(lat, divisor)),
    )


def test_chambers_match_the_fraction_positive_part():
    cusp_lat, cusp = cusp_setup()
    nodal_lat, nodal = nodal_setup()
    cases = (
        (cusp_lat, cusp, Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])),
        (nodal_lat, nodal, Polygon.band(0, 1, AffineForm(F(19, 6), F(-7, 6)))),
    )
    for lat, d, domain in cases:
        data = DivisorData.from_parametric(lat, d)
        chambers = decompose_parametric(lat, d, domain).chambers
        assert len(chambers) > 1
        for chamber in chambers:
            coeffs, p_pairings, p_sq = _positive_part_reference(
                lat, data.pairings, data.self_sq, chamber.support
            )
            assert chamber.neg_coeffs == tuple(coeffs)
            assert chamber.p_pairings == tuple(p_pairings)
            assert chamber.p_squared == p_sq


def test_chamber_views_match_the_positive_part():
    """neg_coeffs, p_pairings and p_squared, read from the integer rows,
    are the values _positive_part gives on each chamber's support."""
    from kstab.series import band_divisor, band_universe, interval_bounds

    cusp_lat, cusp = cusp_setup()
    nodal_lat, nodal = nodal_setup()
    cases = [
        (cusp_lat, DivisorData.from_parametric(cusp_lat, cusp),
         Polygon([(0, 0), (1, 0), (1, 6), (0, 9)])),
        (nodal_lat, DivisorData.from_parametric(nodal_lat, nodal),
         Polygon.band(0, 1, AffineForm(F(19, 6), F(-7, 6)))),
    ]
    for n, i in ((0, 1), (1, 2), (7, 3), (40, 4)):
        lat, members = band_universe(n, i)
        data = band_divisor(members)
        lo, hi = interval_bounds(n, i, "p")[0], interval_bounds(n, i, "pp")[1]
        ((_, _, top),) = effective_threshold(lat, data, lo, hi)
        cases.append((lat, data, Polygon.band(lo, hi, top)))
    for lat, data, domain in cases:
        for chamber in decompose_parametric(lat, data, domain).chambers:
            coeffs, p_pairings, p_sq = _positive_part(
                lat, data.pairings, data.self_sq, chamber.support
            )
            assert chamber.neg_coeffs == tuple(coeffs)
            assert chamber.p_pairings == tuple(p_pairings)
            assert chamber.p_squared == p_sq


def _single_curve_case(self_sq, domain):
    """A one-curve universe that the family never meets negatively, so the
    one chamber is the whole domain with P^2 = D^2."""
    return decompose_parametric(
        CurveLattice(["E"], [[-1]]), DivisorData((AffineForm(1),), self_sq), domain
    )


def test_negative_volume_is_a_coverage_error():
    """The P^2 >= 0 guard fires with the minimum at a vertex, inside an edge
    only, or at an interior point only, and not at a corner zero."""
    square = Polygon.rectangle(0, 1, 0, 1)
    with pytest.raises(CoverageError, match=r"P\^2 turns negative"):
        decompose_parametric(
            CurveLattice(["E"], [[-1]]),
            DivisorData((AffineForm(0, 1, 0),), Polynomial2({(0, 0): 1, (0, 1): -1})),
            Polygon.rectangle(0, 1, 0, 2),
        )
    interior = Polynomial2({(2, 0): 1, (1, 0): -1, (0, 2): 1, (0, 1): -1, (0, 0): F(49, 100)})
    edge = Polynomial2({(2, 0): 1, (1, 0): -1, (0, 1): 1, (0, 0): F(24, 100)})
    for self_sq in (interior, edge):  # (u-1/2)^2 + (v-1/2)^2 - 1/100, (u-1/2)^2 + v - 1/100
        with pytest.raises(CoverageError, match=r"P\^2 turns negative") as info:
            _single_curve_case(self_sq, square)
        assert info.value.polygon == square
    corner_zero = Polynomial2({(0, 0): 4, (1, 0): 1, (0, 2): -1})
    dec = _single_curve_case(corner_zero, Polygon.rectangle(0, 1, 0, 2))
    assert [c.p_squared for c in dec.chambers] == [corner_zero]
