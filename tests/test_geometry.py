import pickle
from fractions import Fraction as F
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.geometry import (
    Polygon,
    _over_lcm,
    integrate_polygon,
    polygon_clip,
    polygon_intersection,
    polygon_moments,
    quadratic_dips_below_zero,
    shared_edge,
    split_by_line,
)
from kstab.poly import AffineForm, Polynomial2, poly_from_terms

UNIT_SQUARE = Polygon.rectangle(0, 1, 0, 1)
TRIANGLE = Polygon([(0, 0), (1, 0), (0, 1)])


def gauss_integrate(p, poly, order=12):
    """Float Gauss quadrature oracle (Duffy transform per fan triangle)."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = (nodes + 1) / 2
    weights = weights / 2

    def feval(u, v):
        return sum(float(c) * u**a * v**b for (a, b), c in p.terms.items())

    verts = [(float(x), float(y)) for x, y in poly.canonical().vertices]
    if len(verts) < 3:
        return 0.0
    total = 0.0
    x0, y0 = verts[0]
    for i in range(1, len(verts) - 1):
        x1, y1 = verts[i]
        x2, y2 = verts[i + 1]
        jac = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        for xi, wi in zip(nodes, weights):
            for eta, we in zip(nodes, weights):
                s, t = xi, eta * (1 - xi)
                u = x0 + s * (x1 - x0) + t * (x2 - x0)
                v = y0 + s * (y1 - y0) + t * (y2 - y0)
                total += abs(jac) * wi * we * (1 - xi) * feval(u, v)
    return total


def _row(h):
    """The AffineForm h as an integer half-plane row (c, cu, cv)."""
    return tuple(_over_lcm(h.c, h.cu, h.cv)[1])


def unchecked(verts):
    """The polygon on verts without the convex counter-clockwise check, for
    clockwise inputs."""
    den = lcm(*(F(c).denominator for p in verts for c in p))
    return Polygon._from_ints(den, [(int(F(x) * den), int(F(y) * den)) for x, y in verts])


def _ref_substitute(p, u_form, v_form):
    """p(u_form(s, t), v_form(s, t)) as a polynomial in (s, t)."""
    pu, pv = u_form.to_poly(), v_form.to_poly()
    max_u, max_v = p.degrees()
    pow_u = [Polynomial2.const(1)]
    for _ in range(max_u):
        pow_u.append(pow_u[-1] * pu)
    pow_v = [Polynomial2.const(1)]
    for _ in range(max_v):
        pow_v.append(pow_v[-1] * pv)
    total = Polynomial2()
    for (du, dv), coeff in p.terms.items():
        total = total + pow_u[du] * pow_v[dv] * coeff
    return total


def _ref_std_triangle(p):
    """Integral of p(s, t) over {s >= 0, t >= 0, s + t <= 1}."""
    return sum(
        (coeff * F(factorial(a) * factorial(b), factorial(a + b + 2))
         for (a, b), coeff in p.terms.items()),
        F(0),
    )


def _ref_integrate(p, poly):
    """Integral of a polynomial of any degree over a convex polygon, by
    affine substitution of each fan triangle onto the standard triangle with
    Jacobian |det|: the exact reference for the degree <= 2 moment kernel."""
    verts = poly.canonical().vertices
    if len(verts) < 3:
        return F(0)
    p0 = verts[0]
    total = F(0)
    for p1, p2 in zip(verts[1:], verts[2:]):
        du1, dv1 = p1[0] - p0[0], p1[1] - p0[1]
        du2, dv2 = p2[0] - p0[0], p2[1] - p0[1]
        jac = du1 * dv2 - du2 * dv1
        u_form = AffineForm(p0[0], du1, du2)  # u = u0 + s*du1 + t*du2
        v_form = AffineForm(p0[1], dv1, dv2)
        total += abs(jac) * _ref_std_triangle(_ref_substitute(p, u_form, v_form))
    return total


def test_clip_noop():
    assert polygon_clip(UNIT_SQUARE, (0, 1, 0)) == UNIT_SQUARE


def test_clip_to_triangle():
    clipped = polygon_clip(UNIT_SQUARE, (1, -1, -1)).canonical()
    assert clipped == TRIANGLE.canonical()


def test_clip_first_chamber_of_the_nodal_flag():
    # {0 <= u <= 1, 0 <= v <= 4 - 2u} cut down to {v <= 2 - 2u}
    band = Polygon.band(0, 1, AffineForm(4, -2, 0))
    chamber = polygon_clip(band, (2, -2, -1)).canonical()
    assert chamber == Polygon([(0, 0), (1, 0), (0, 2)]).canonical()


def test_clip_empty_result():
    assert polygon_clip(UNIT_SQUARE, (-5, 0, 1)).area() == 0


def test_integrate_area_and_centroid():
    assert integrate_polygon(Polynomial2.const(1), TRIANGLE) == F(1, 2)
    assert integrate_polygon(Polynomial2.var_u(), TRIANGLE) == F(1, 6)


def test_integrate_singular_fiber_volume():
    p = poly_from_terms([(0, 0, 2), (0, 1, -4), (0, 2, 2)])  # 2(1-v)^2
    assert integrate_polygon(p, UNIT_SQUARE) / 2 == F(1, 3)


def test_integrate_degenerate_is_zero():
    flat = Polygon([(0, 0), (1, 0), (2, 0)])
    assert integrate_polygon(Polynomial2.const(5), flat) == 0


def test_integrate_rejects_degree_three():
    for terms in ([(2, 1, 1)], [(3, 0, 1), (0, 0, 2)], [(0, 3, -1)]):
        for poly in (UNIT_SQUARE, Polygon([(0, 0), (1, 0), (2, 0)])):
            with pytest.raises(ValueError, match="total degree <= 2"):
                integrate_polygon(poly_from_terms(terms), poly)


def test_band_with_vanishing_edge():
    tri = Polygon.band(0, 1, AffineForm(0, 1, 0))  # v <= u
    assert tri.area() == F(1, 2)


def test_nonconvex_rejected():
    with pytest.raises(ValueError, match="convex"):
        Polygon([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)])


rational_01 = st.fractions(min_value=F(0), max_value=F(1), max_denominator=16)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=8),
    max_size=5,
).map(Polynomial2)


quadratic_polys = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=8),
    max_size=6,
).map(Polynomial2)


# Each property runs the degree <= 6 reference on small_polys and the
# kernel on quadratic_polys.


@given(small_polys, quadratic_polys, rational_01, rational_01)
@settings(max_examples=60)
def test_split_additivity(p, q, a, b):
    """Integration is additive under any chord split of the polygon."""
    line = AffineForm(a - b, b - 1, 1)  # through (a,0) with slope (1-b)
    lhs, rhs = split_by_line(UNIT_SQUARE, _row(line))
    for integrate, poly in ((_ref_integrate, p), (integrate_polygon, q)):
        split_total = integrate(poly, lhs) + integrate(poly, rhs)
        assert split_total == integrate(poly, UNIT_SQUARE)


@given(
    small_polys,
    quadratic_polys,
    st.fractions(min_value=F(1, 8), max_value=F(3), max_denominator=8),
    st.fractions(min_value=F(1, 8), max_value=F(2), max_denominator=8),
)
@settings(max_examples=40)
def test_fubini_on_rectangles(p, q, width, height):
    from kstab.poly import integrate_interval

    rect = Polygon.rectangle(0, width, 0, height)
    for integrate, poly in ((_ref_integrate, p), (integrate_polygon, q)):
        # iterate: integrate in v monomial-by-monomial, then in u
        inner = {}
        for (du, dv), c in poly.terms.items():
            inner[(du, 0)] = inner.get((du, 0), F(0)) + c * height ** (dv + 1) / (dv + 1)
        iterated = integrate_interval(Polynomial2(inner), 0, width)
        assert integrate(poly, rect) == iterated


@given(small_polys, quadratic_polys, st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_numeric_quadrature_cross_check(p, q, seed):
    import random

    rng = random.Random(seed)
    region = UNIT_SQUARE
    for _ in range(rng.randint(0, 2)):
        line = AffineForm(
            F(rng.randint(-2, 2), rng.randint(1, 3)),
            F(rng.randint(-3, 3), rng.randint(1, 3)),
            1,
        )
        region = polygon_clip(region, _row(line))
    for integrate, poly in ((_ref_integrate, p), (integrate_polygon, q)):
        exact = integrate(poly, region)
        approx = gauss_integrate(poly, region)
        assert abs(float(exact) - approx) <= 1e-9 * max(1.0, abs(float(exact)))

small_rational = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=6)
clip_lines = st.tuples(small_rational, small_rational, small_rational).map(
    lambda c: AffineForm(*c)
)


@st.composite
def fast_path_polygons(draw):
    """UNIT_SQUARE or a rational rectangle, clipped 0-2 times, then kept,
    given collinear edge midpoints, reversed to clockwise, or flattened."""
    if draw(st.booleans()):
        poly = UNIT_SQUARE
    else:
        u0, v0 = draw(small_rational), draw(small_rational)
        width = draw(st.fractions(min_value=F(1, 6), max_value=F(3), max_denominator=6))
        height = draw(st.fractions(min_value=F(1, 6), max_value=F(3), max_denominator=6))
        poly = Polygon.rectangle(u0, u0 + width, v0, v0 + height)
    for line in draw(st.lists(clip_lines, max_size=2)):
        poly = polygon_clip(poly, _row(line))
    shape = draw(st.sampled_from(["convex", "collinear", "clockwise", "degenerate"]))
    if shape == "collinear":
        verts = []
        for a, b in poly.edges():
            verts += [a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)]
        poly = Polygon(verts)
    elif shape == "clockwise":
        poly = unchecked(poly.vertices[::-1])
    elif shape == "degenerate":
        line = draw(clip_lines)
        poly = polygon_clip(polygon_clip(poly, _row(line)), _row(-line))
    return poly


@given(quadratic_polys, fast_path_polygons())
@settings(max_examples=300, deadline=None)
def test_moments_match_substitution_exactly(p, poly):
    """The closed-form moment kernel agrees with the substitution reference."""
    fast = integrate_polygon(p, poly)
    assert fast == _ref_integrate(p, poly)
    if poly.is_degenerate():
        assert fast == 0


def test_moments_path_handles_each_shape():
    p = poly_from_terms([(0, 0, 1), (1, 0, -2), (1, 1, 3), (0, 2, F(1, 2))])
    tri = Polygon([(0, 0), (2, 0), (0, 1)])
    with_midpoints = Polygon([(0, 0), (1, 0), (2, 0), (1, F(1, 2)), (0, 1), (0, F(1, 2))])
    clockwise = unchecked(tri.vertices[::-1])
    expected = _ref_integrate(p, tri)
    for poly in (tri, with_midpoints, clockwise):
        assert integrate_polygon(p, poly) == expected
    flat = Polygon([(0, 0), (1, 1), (3, 3)])
    assert integrate_polygon(p, flat) == 0 == _ref_integrate(p, flat)


def test_polygon_intersection():
    shifted = Polygon.rectangle(F(1, 2), F(3, 2), F(1, 2), F(3, 2))
    overlap = polygon_intersection(UNIT_SQUARE, shifted)
    assert overlap.area() == F(1, 4)


def test_shared_edge_segment():
    left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    right = Polygon([(1, F(1, 2)), (2, F(1, 2)), (2, 2), (1, 2)])
    # the overlap of the edges u = 1, v in [0, 1] and v in [1/2, 2]
    assert set(shared_edge(left, right)) == {(1, F(1, 2)), (1, 1)}
    assert set(shared_edge(right, left)) == {(1, F(1, 2)), (1, 1)}
    corner = Polygon.rectangle(1, 2, 1, 2)  # meets left only at (1, 1)
    assert shared_edge(left, corner) is None
    far = Polygon.rectangle(5, 6, 5, 6)
    assert shared_edge(left, far) is None


# -- Fraction reference: the kernels as they were before the integer form --


def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_clean(verts):
    cleaned = []
    for p in verts:
        if not cleaned or p != cleaned[-1]:
            cleaned.append(p)
    if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
        cleaned.pop()
    return tuple(cleaned)


def _ref_clip(verts, h):
    values = [h(x, y) for x, y in verts]
    if all(val >= 0 for val in values):
        return verts
    out = []
    n = len(verts)
    for i in range(n):
        a, fa = verts[i], values[i]
        b, fb = verts[(i + 1) % n], values[(i + 1) % n]
        if fa >= 0:
            out.append(a)
        if (fa > 0 > fb) or (fb > 0 > fa):
            t = fa / (fa - fb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return _ref_clean(out)


def _ref_canonical(verts):
    verts = list(verts)
    if len(verts) >= 3:
        n = len(verts)
        out = [verts[i] for i in range(n) if _ref_cross(verts[i - 1], verts[i], verts[(i + 1) % n])]
        verts = out if len(out) >= 3 else verts
    if not verts:
        return ()
    k = min(range(len(verts)), key=lambda i: verts[i])
    return _ref_clean(verts[k:] + verts[:k])


def _ref_signed_area(verts):
    n = len(verts)
    if n < 3:
        return F(0)
    return sum(
        (verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
         for i in range(n)),
        F(0),
    ) / 2


def _ref_contains(verts, p):
    """Whether p lies in the closed convex hull of verts; for zero area,
    the segment between the two vertices farthest apart."""
    n = len(verts)
    if _ref_signed_area(verts) == 0:
        if not verts:
            return False
        a, b = max(((a, b) for a in verts for b in verts),
                   key=lambda ab: (ab[0][0] - ab[1][0]) ** 2 + (ab[0][1] - ab[1][1]) ** 2)
        return (_ref_cross(a, b, p) == 0
                and (p[0] - a[0]) * (p[0] - b[0]) + (p[1] - a[1]) * (p[1] - b[1]) <= 0)
    return all(_ref_cross(verts[i], verts[(i + 1) % n], p) >= 0 for i in range(n))


def _ref_intersection(verts, other):
    """verts clipped by the inward side of each edge of other."""
    if len(other) < 3:
        return ()
    for (px, py), (qx, qy) in zip(other, other[1:] + other[:1]):
        verts = _ref_clip(verts, AffineForm((qy - py) * px - (qx - px) * py, -(qy - py), qx - px))
    return verts


def _ref_quadratic_min(p, verts):
    # every vertex is a candidate, collinear ones too: a minimum can sit at
    # a collinear vertex where the parabolas of both its edges end
    if not verts:
        raise ValueError("empty polygon")
    candidates = [p(x, y) for x, y in verts]
    cu2, cv2, cuv = p.coefficient(2, 0), p.coefficient(0, 2), p.coefficient(1, 1)
    cu, cv = p.coefficient(1, 0), p.coefficient(0, 1)
    det = 4 * cu2 * cv2 - cuv * cuv
    if det != 0:
        su = (-cu * 2 * cv2 + cv * cuv) / det
        sv = (-cv * 2 * cu2 + cu * cuv) / det
        if _ref_contains(verts, (su, sv)):
            candidates.append(p(su, sv))
    n = len(verts)
    for a, b in ([(verts[i], verts[(i + 1) % n]) for i in range(n)] if n >= 2 else []):
        du, dv = b[0] - a[0], b[1] - a[1]
        c2 = cu2 * du * du + cuv * du * dv + cv2 * dv * dv
        if c2 == 0:
            continue
        c1 = (2 * cu2 * a[0] * du + cuv * (a[0] * dv + a[1] * du)
              + 2 * cv2 * a[1] * dv + cu * du + cv * dv)
        t = -c1 / (2 * c2)
        if 0 < t < 1:
            candidates.append(p(a[0] + t * du, a[1] + t * dv))
    return min(candidates)


@st.composite
def reference_polygons(draw):
    """(vertex list, convex flag): a rational rectangle clipped 0-2 times
    by the Fraction reference, then kept, given collinear edge midpoints,
    reversed to clockwise, flattened to zero area, or cut to 0-2 vertices."""
    u0, v0 = draw(small_rational), draw(small_rational)
    width = draw(st.fractions(min_value=F(1, 6), max_value=F(3), max_denominator=6))
    height = draw(st.fractions(min_value=F(1, 6), max_value=F(3), max_denominator=6))
    verts = ((u0, v0), (u0 + width, v0), (u0 + width, v0 + height), (u0, v0 + height))
    for line in draw(st.lists(clip_lines, max_size=2)):
        verts = _ref_clip(verts, line)
    shape = draw(st.sampled_from(["convex", "collinear", "clockwise", "degenerate", "few"]))
    if shape == "collinear":
        n = len(verts)
        verts = tuple(q for i in range(n) for q in (
            verts[i],
            ((verts[i][0] + verts[(i + 1) % n][0]) / 2, (verts[i][1] + verts[(i + 1) % n][1]) / 2),
        ))
    elif shape == "clockwise":
        verts = verts[::-1]
    elif shape == "degenerate":
        line = draw(clip_lines)
        verts = _ref_clip(_ref_clip(verts, line), -line)
    elif shape == "few":
        verts = verts[: draw(st.integers(0, 2))]
    return list(verts), shape != "clockwise"


@st.composite
def halfplanes_for(draw, verts):
    """A rational half-plane that misses, touches a vertex, runs along an
    edge or cuts through, scaled by a nonzero rational of either sign."""
    kind = draw(st.sampled_from(["any", "vertex", "edge", "miss"]))
    if kind == "vertex" and verts:
        x, y = draw(st.sampled_from(verts))
        a, b = draw(small_rational), draw(small_rational)
        h = AffineForm(-a * x - b * y, a, b)
    elif kind == "edge" and len(verts) >= 2:
        i = draw(st.integers(0, len(verts) - 1))
        (px, py), (qx, qy) = verts[i], verts[(i + 1) % len(verts)]
        h = AffineForm((qy - py) * px - (qx - px) * py, -(qy - py), qx - px)
    elif kind == "miss":
        h = AffineForm(draw(st.sampled_from([F(-7), F(7)])), draw(small_rational) / 8, 0)
    else:
        h = draw(clip_lines)
    scale = draw(small_rational.filter(bool))
    return h * scale


@given(reference_polygons(), quadratic_polys, st.data())
@settings(max_examples=400, deadline=None)
def test_integer_kernels_match_fraction_reference(case, p, data):
    verts, convex = case
    poly = Polygon(verts) if convex else unchecked(verts)
    ref = _ref_clean([(F(x), F(y)) for x, y in verts])
    assert poly.vertices == ref
    h = data.draw(halfplanes_for(ref))
    # the half-plane as an integer row, times any positive integer
    k = data.draw(st.integers(1, 9))
    row = tuple(k * x for x in _row(h))
    other_verts, _ = data.draw(reference_polygons())
    other = _ref_clean([(F(x), F(y)) for x, y in other_verts])
    overlap = polygon_intersection(poly, unchecked(other))
    # the lowest-terms form makes == and the hash see the vertex values
    for mine, theirs in ((polygon_clip(poly, row), _ref_clip(ref, h)),
                         (overlap, _ref_intersection(ref, other)),
                         (poly.canonical(), _ref_canonical(ref))):
        assert mine.vertices == theirs
        assert mine == unchecked(theirs)
        assert hash(mine) == hash(unchecked(theirs))
    assert poly.signed_area() == _ref_signed_area(ref)
    assert poly.is_degenerate() == (_ref_signed_area(ref) == 0)
    n = len(ref)
    probes = list(ref) + [
        ((ref[i][0] + ref[(i + 1) % n][0]) / 2, (ref[i][1] + ref[(i + 1) % n][1]) / 2)
        for i in range(n)
    ] + [
        # past the end of each edge: on the line of a zero-area polygon
        (2 * ref[(i + 1) % n][0] - ref[i][0], 2 * ref[(i + 1) % n][1] - ref[i][1])
        for i in range(n)
    ] + [(x + F(1, 7), y - F(2, 9)) for x, y in ref] + [(F(-5), F(1, 3)), (F(1, 2), F(1, 3))]
    for q in probes:
        assert poly.contains(q) == _ref_contains(ref, q)
    flat = Polygon([(0, 0), (1, 0), (2, 0)])
    assert not flat.contains((5, 0)) and flat.contains((F(3, 2), 0))


MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@given(reference_polygons())
@settings(max_examples=400, deadline=None)
def test_polygon_moments_match_fraction_reference(case):
    """The six moments are the integrals of 1, u, v, u^2, uv, v^2 exactly, in
    either orientation, for collinear, zero-area, 0-2 vertex and clipped
    polygons of differing denominators."""
    verts, convex = case
    poly = Polygon(verts) if convex else unchecked(verts)
    den, moments = polygon_moments(poly)
    assert den > 0 and len(moments) == 6
    expected = [_ref_integrate(Polynomial2({exp: 1}), poly) for exp in MONOMIALS]
    assert [F(m, den) for m in moments] == expected


@st.composite
def hessian_quadratics(draw, verts):
    """(kind, p): p = l1 (a x + b y)^2 + l2 (c x + d y)^2 + k at x = u - u0,
    y = v - v0, with signs of l1, l2 that make the degree-2 part positive or
    negative definite, indefinite or degenerate.  (u0, v0) is a weighted
    mean of the vertices, so interior minima are common; a ramp added to
    some draws moves the stationary point elsewhere."""
    kind = draw(st.sampled_from(["positive", "negative", "indefinite", "degenerate"]))
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    l1, l2 = (draw(st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=4))
              for _ in range(2))
    l1, l2 = {"positive": (l1, l2), "negative": (-l1, -l2),
              "indefinite": (l1, -l2), "degenerate": (l1 * draw(st.sampled_from([-1, 0, 1])), 0)}[kind]
    weights = [draw(st.integers(1, 4)) for _ in verts]
    u0, v0 = (sum(w * q[k] for w, q in zip(weights, verts)) / sum(weights) for k in (0, 1))
    x, y = Polynomial2({(1, 0): 1, (0, 0): -u0}), Polynomial2({(0, 1): 1, (0, 0): -v0})
    p = (x * a + y * b) * (x * a + y * b) * l1 + (x * c + y * d) * (x * c + y * d) * l2
    p = p + Polynomial2.const(draw(small_rational) / 16)
    if draw(st.booleans()):
        p = p + Polynomial2({(1, 0): draw(small_rational), (0, 1): draw(small_rational)})
    return kind, p


def _int_coefficients(p):
    den = lcm(*(p.coefficient(*exp).denominator for exp in MONOMIALS))
    return [int(p.coefficient(*exp) * den) for exp in MONOMIALS]


def test_sign_test_matches_the_fraction_minimum():
    """quadratic_dips_below_zero agrees with the sign of the Fraction
    minimum on positive-area and 1-2 vertex polygons, and both outcomes
    occur."""
    seen = set()

    @given(
        reference_polygons().filter(
            lambda case: case[1] and (0 < len(case[0]) < 3 or _ref_signed_area(case[0]) != 0)
        ),
        st.data(),
    )
    @settings(max_examples=500, deadline=None)
    def check(case, data):
        verts, _ = case
        ref = _ref_clean([(F(x), F(y)) for x, y in verts])
        _, p = data.draw(hessian_quadratics(ref))
        negative = quadratic_dips_below_zero(_int_coefficients(p), Polygon(verts))
        assert negative == (_ref_quadratic_min(p, ref) < 0)
        seen.add(negative)

    check()
    assert seen == {True, False}


def test_equal_vertex_values_make_equal_polygons():
    a = Polygon([(F(2, 4), 1), (F(3, 2), 1), (1, F(6, 4))])
    b = Polygon([(F(1, 2), 1), (F(3, 2), 1), (1, F(3, 2))])
    assert a == b and hash(a) == hash(b)
    assert (a.den, a.points) == (2, ((1, 2), (3, 2), (2, 3)))
    copy = pickle.loads(pickle.dumps(a))
    assert copy == b and hash(copy) == hash(b) and copy.vertices == b.vertices
