"""Rational convex polygons, half-plane clipping, and exact double integrals.

Chambers of the parameter rectangle are convex polygons with rational
vertices.  Integration is fan triangulation from vertex 0, by one of two
exact paths.  An integrand whose every term has total degree <= 2 (every
integrand the chamber engine produces) uses closed-form fan moments in
integer arithmetic.  Higher degrees use an affine substitution onto the
standard triangle, where monomials integrate to a!b!/(a+b+2)!.  Degenerate
(zero-area) polygons are legal everywhere and integrate to 0, so the chamber
engine never special-cases emptiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Sequence

from .poly import AffineForm, Polynomial2
from .rationals import rat

Point = tuple[Fraction, Fraction]


def _pt(p) -> Point:
    return (rat(p[0]), rat(p[1]))


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polygon:
    """Convex polygon with rational vertices in counter-clockwise order.

    May be degenerate (fewer than 3 distinct vertices, or zero area).
    """

    vertices: tuple[Point, ...]

    def __init__(self, vertices: Sequence, validate: bool = True):
        verts = tuple(_pt(p) for p in vertices)
        # drop consecutive duplicates (closing duplicate included)
        cleaned: list[Point] = []
        for p in verts:
            if not cleaned or p != cleaned[-1]:
                cleaned.append(p)
        if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
            cleaned.pop()
        object.__setattr__(self, "vertices", tuple(cleaned))
        if validate and len(cleaned) >= 3:
            self._validate_convex_ccw()

    def _validate_convex_ccw(self):
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            turn = _cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n])
            if turn < 0:
                raise ValueError("polygon is not convex counter-clockwise")

    @classmethod
    def rectangle(cls, u0, u1, v0, v1) -> "Polygon":
        u0, u1, v0, v1 = rat(u0), rat(u1), rat(v0), rat(v1)
        return cls([(u0, v0), (u1, v0), (u1, v1), (u0, v1)])

    @classmethod
    def band(cls, u0, u1, top: AffineForm) -> "Polygon":
        """{(u, v) : u0 <= u <= u1, 0 <= v <= top(u)} for an affine top edge."""
        u0, u1 = rat(u0), rat(u1)
        t0, t1 = top(u0, 0), top(u1, 0)
        if t0 < 0 or t1 < 0:
            raise ValueError("band top edge dips below v = 0")
        verts = [(u0, Fraction(0)), (u1, Fraction(0))]
        if t1 > 0:
            verts.append((u1, t1))
        if t0 > 0:
            verts.append((u0, t0))
        return cls(verts)

    # -- queries -----------------------------------------------------------

    def signed_area(self) -> Fraction:
        verts = self.vertices
        n = len(verts)
        if n < 3:
            return Fraction(0)
        total = Fraction(0)
        for i in range(n):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % n]
            total += x0 * y1 - x1 * y0
        return total / 2

    def area(self) -> Fraction:
        return abs(self.signed_area())

    def is_degenerate(self) -> bool:
        return self.signed_area() == 0

    def contains(self, point) -> bool:
        """Closed containment test (boundary counts as inside)."""
        p = _pt(point)
        verts = self.vertices
        n = len(verts)
        if n == 0:
            return False
        if n < 3:
            return p in verts  # degenerate: only exact vertex hits
        return all(_cross(verts[i], verts[(i + 1) % n], p) >= 0 for i in range(n))

    def edges(self) -> list[tuple[Point, Point]]:
        verts = self.vertices
        n = len(verts)
        return [(verts[i], verts[(i + 1) % n]) for i in range(n)] if n >= 2 else []

    def centroid(self) -> Point:
        verts = self.vertices
        if not verts:
            raise ValueError("empty polygon has no centroid")
        n = len(verts)
        sx = sum((p[0] for p in verts), Fraction(0))
        sy = sum((p[1] for p in verts), Fraction(0))
        return (sx / n, sy / n)

    def interior_points(self) -> Iterable[Point]:
        """Deterministic sequence of points interior to a non-degenerate polygon.

        The vertex centroid first, then centroid/vertex and centroid/edge-midpoint
        blends; used to pick generic sample points with retry on degeneracy.
        """
        c = self.centroid()
        yield c
        for weight in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 7), Fraction(3, 5)):
            for p in self.vertices:
                yield (c[0] + (p[0] - c[0]) * weight, c[1] + (p[1] - c[1]) * weight)
            for a, b in self.edges():
                mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
                yield (c[0] + (mx - c[0]) * weight, c[1] + (my - c[1]) * weight)

    def random_interior_point(self, rng) -> Point:
        """Random rational interior point: a random convex combination of the
        vertex centroid and all vertices, with positive weight on the centroid.

        Weights are small integers so the point's denominators stay small;
        everything downstream computes with these coordinates exactly.
        """
        verts = self.vertices
        c = self.centroid()
        weights = [rng.randint(0, 7) for _ in verts]
        wc = rng.randint(5, 11)
        total = Fraction(wc + sum(weights))
        x = (wc * c[0] + sum((w * p[0] for w, p in zip(weights, verts)), Fraction(0))) / total
        y = (wc * c[1] + sum((w * p[1] for w, p in zip(weights, verts)), Fraction(0))) / total
        return (x, y)

    def canonical(self) -> "Polygon":
        """Drop collinear vertices and rotate so the smallest vertex is first."""
        verts = list(self.vertices)
        if len(verts) >= 3:
            out = []
            n = len(verts)
            for i in range(n):
                if _cross(verts[i - 1], verts[i], verts[(i + 1) % n]) != 0:
                    out.append(verts[i])
            verts = out if len(out) >= 3 else verts
        if not verts:
            return Polygon([])
        k = min(range(len(verts)), key=lambda i: verts[i])
        return Polygon(verts[k:] + verts[:k], validate=False)

    def __repr__(self):
        from .rationals import format_rational as fr

        inside = ", ".join(f"({fr(x)}, {fr(y)})" for x, y in self.vertices)
        return f"Polygon[{inside}]"


def polygon_clip(poly: Polygon, halfplane: AffineForm) -> Polygon:
    """Exact intersection of a convex polygon with {halfplane(u, v) >= 0}."""
    verts = poly.vertices
    if not verts:
        return poly
    values = [halfplane(x, y) for x, y in verts]
    if all(val >= 0 for val in values):
        return poly
    out: list[Point] = []
    n = len(verts)
    for i in range(n):
        a, fa = verts[i], values[i]
        b, fb = verts[(i + 1) % n], values[(i + 1) % n]
        if fa >= 0:
            out.append(a)
        if (fa > 0 > fb) or (fb > 0 > fa):
            t = fa / (fa - fb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return Polygon(out, validate=False)


def _integrate_std_triangle(p: Polynomial2) -> Fraction:
    """Integral of p(s, t) over {s >= 0, t >= 0, s + t <= 1}."""
    total = Fraction(0)
    for (a, b), coeff in p.terms.items():
        total += coeff * Fraction(factorial(a) * factorial(b), factorial(a + b + 2))
    return total


def integrate_polygon(p: Polynomial2, poly: Polygon) -> Fraction:
    """Exact double integral of p(u, v) over a convex polygon.

    Fan triangulation from vertex 0; convexity makes the fan a genuine
    partition, and each triangle counts with |det|, so either orientation
    works.  When every term of p has total degree <= 2 the closed-form fan
    moments give the value; otherwise each triangle is pulled back to the
    standard triangle by the affine substitution.
    """
    if all(a + b <= 2 for a, b in p.terms):
        return _integrate_moments(p, poly)
    return _integrate_substitution(p, poly)


def _integrate_moments(p: Polynomial2, poly: Polygon) -> Fraction:
    """Closed-form integral of a polynomial of total degree <= 2.

    Shifting p to vertex 0 changes only its constant and linear terms.  Over
    the fan triangle (0, a, b) with d = |det(a, b)| the monomials integrate to
    d/2, d(a+b)/6, d(a^2+ab+b^2)/12 and d(2a0a1 + a0b1 + b0a1 + 2b0b1)/24.
    The vertices are scaled to integers by the common denominator L, so the
    moment sums are plain ints carrying the factors L^2, L^3 and L^4.
    """
    verts = poly.vertices
    if len(verts) < 3:
        return Fraction(0)
    scale = lcm(*(c.denominator for vertex in verts for c in vertex))
    ints = [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in verts]
    ox, oy = ints[0]
    s0 = sx = sy = sxx = sxy = syy = 0
    ax, ay = ints[1][0] - ox, ints[1][1] - oy
    for x, y in ints[2:]:
        bx, by = x - ox, y - oy
        d = abs(ax * by - bx * ay)
        s0 += d
        sx += d * (ax + bx)
        sy += d * (ay + by)
        sxx += d * (ax * ax + ax * bx + bx * bx)
        sxy += d * (2 * ax * ay + ax * by + bx * ay + 2 * bx * by)
        syy += d * (ay * ay + ay * by + by * by)
        ax, ay = bx, by
    x0, y0 = verts[0]
    c20, c11, c02 = p.coefficient(2, 0), p.coefficient(1, 1), p.coefficient(0, 2)
    c10 = p.coefficient(1, 0) + 2 * c20 * x0 + c11 * y0
    c01 = p.coefficient(0, 1) + c11 * x0 + 2 * c02 * y0
    sq = scale * scale
    return (
        p(x0, y0) * Fraction(s0, 2 * sq)
        + (c10 * sx + c01 * sy) / (6 * sq * scale)
        + (2 * c20 * sxx + c11 * sxy + 2 * c02 * syy) / (24 * sq * sq)
    )


def _integrate_substitution(p: Polynomial2, poly: Polygon) -> Fraction:
    """Integral of a polynomial of any degree by affine substitution of each
    fan triangle onto the standard triangle, with Jacobian |det|."""
    verts = poly.canonical().vertices
    if len(verts) < 3:
        return Fraction(0)
    p0 = verts[0]
    total = Fraction(0)
    for i in range(1, len(verts) - 1):
        p1, p2 = verts[i], verts[i + 1]
        du1, dv1 = p1[0] - p0[0], p1[1] - p0[1]
        du2, dv2 = p2[0] - p0[0], p2[1] - p0[1]
        jac = du1 * dv2 - du2 * dv1
        if jac == 0:
            continue
        u_form = AffineForm(p0[0], du1, du2)  # u = u0 + s*du1 + t*du2
        v_form = AffineForm(p0[1], dv1, dv2)
        total += abs(jac) * _integrate_std_triangle(p.substitute(u_form, v_form))
    return total


def split_by_line(poly: Polygon, line: AffineForm) -> tuple[Polygon, Polygon]:
    """(poly ∩ {line >= 0}, poly ∩ {line <= 0}); shared boundary has area 0."""
    return polygon_clip(poly, line), polygon_clip(poly, -line)


def quadratic_min_on_polygon(p: Polynomial2, poly: Polygon) -> Fraction:
    """Exact minimum of a polynomial of degree <= 2 over a convex polygon.

    The minimum sits at a vertex, at a parabola vertex interior to an edge,
    or at an interior stationary point; all are rational and enumerable.
    """
    if p.degrees() > (2, 2) or any(a + b > 2 for a, b in p.terms):
        raise ValueError("quadratic_min_on_polygon needs total degree <= 2")
    verts = poly.canonical().vertices
    if not verts:
        raise ValueError("empty polygon")
    candidates = [p(x, y) for x, y in verts]
    cu2, cv2 = p.coefficient(2, 0), p.coefficient(0, 2)
    cuv = p.coefficient(1, 1)
    cu, cv = p.coefficient(1, 0), p.coefficient(0, 1)
    # interior stationary point: solve the 2x2 gradient system
    det = 4 * cu2 * cv2 - cuv * cuv
    if det != 0:
        su = (-cu * 2 * cv2 + cv * cuv) / det
        sv = (-cv * 2 * cu2 + cu * cuv) / det
        if poly.contains((su, sv)):
            candidates.append(p(su, sv))
    for a, b in poly.edges():
        du, dv = b[0] - a[0], b[1] - a[1]
        # restrict to a + t (b - a), t in [0, 1]: quadratic in t
        c2 = cu2 * du * du + cuv * du * dv + cv2 * dv * dv
        if c2 == 0:
            continue
        c1 = (
            2 * cu2 * a[0] * du + cuv * (a[0] * dv + a[1] * du)
            + 2 * cv2 * a[1] * dv + cu * du + cv * dv
        )
        t = -c1 / (2 * c2)
        if 0 < t < 1:
            candidates.append(p(a[0] + t * du, a[1] + t * dv))
    return min(candidates)


def edge_halfplane(p: Point, q: Point) -> AffineForm:
    """The inward half-plane of a CCW edge: {r : cross(p, q, r) >= 0}."""
    return AffineForm(
        (q[1] - p[1]) * p[0] - (q[0] - p[0]) * p[1],
        -(q[1] - p[1]),
        q[0] - p[0],
    )


def polygon_intersection(a: Polygon, b: Polygon) -> Polygon:
    """Exact intersection of two convex polygons."""
    if len(b.vertices) < 3:
        return Polygon([])
    out = a
    for p, q in b.edges():
        out = polygon_clip(out, edge_halfplane(p, q))
        if not out.vertices:
            break
    return out


def shared_edge_line(a: Polygon, b: Polygon) -> AffineForm | None:
    """A line supporting a positive-length common boundary segment, or None.

    Two chambers are adjacent when some edge of each lies on the same line
    and their parameter spans overlap in more than a point.
    """
    for (a0, a1) in a.edges():
        for (b0, b1) in b.edges():
            cross_dir = (a1[0] - a0[0]) * (b1[1] - b0[1]) - (a1[1] - a0[1]) * (b1[0] - b0[0])
            if cross_dir != 0:
                continue
            if _cross(a0, a1, b0) != 0:
                continue  # parallel but different lines
            direction = (a1[0] - a0[0], a1[1] - a0[1])

            def param(p):
                return p[0] * direction[0] + p[1] * direction[1]

            lo_a, hi_a = sorted((param(a0), param(a1)))
            lo_b, hi_b = sorted((param(b0), param(b1)))
            if min(hi_a, hi_b) > max(lo_a, lo_b):
                # inward normal is irrelevant for identity checks on the line
                return AffineForm(
                    a0[0] * a1[1] - a1[0] * a0[1],
                    a0[1] - a1[1],
                    a1[0] - a0[0],
                )
    return None


def restrict_to_line(p: Polynomial2, line: AffineForm) -> Polynomial2:
    """Substitute the affine relation {line = 0} into p, for boundary identities.

    Solves the line for v (or u when the line is vertical) and substitutes,
    returning a univariate polynomial in the remaining parameter.
    """
    if line.cv != 0:
        v_expr = AffineForm(-line.c / line.cv, -line.cu / line.cv, 0)
        return p.substitute(AffineForm(0, 1, 0), v_expr)
    if line.cu != 0:
        u_expr = AffineForm(-line.c / line.cu, 0, -line.cv / line.cu)
        return p.substitute(u_expr, AffineForm(0, 0, 1))
    raise ValueError("not a line")
