"""Rational convex polygons, half-plane clipping, and exact double integrals.

Chambers of the parameter rectangle are convex polygons with rational
vertices, stored as integer numerators over one positive common denominator
W in lowest terms.  A half-plane {c + cu u + cv v >= 0} is an integer row
(c, cu, cv), taken up to a positive multiple: ``polygon_clip`` is the one
clip kernel, and a caller holding an ``AffineForm`` scales it to a row once
with ``_over_lcm``.  Clipping, the canonical form, area and containment run
on those integers and build at most one ``Fraction``, at their output.
``polygon_moments`` is the one integration kernel: it returns the six fan
moments (the integrals of 1, u, v, u^2, uv, v^2) as ints over one
denominator, so the integral of any integrand of total degree <= 2 (P^2,
(P.C)^2 and (P.C) times an affine form: every integrand the chamber engine
produces) is an integer dot product, and a ``Fraction`` is built only for
the value a caller keeps.  ``quadratic_dips_below_zero``, the P^2 >= 0
guard, decides a sign in integers and builds no ``Fraction`` at all.
Degenerate (zero-area) polygons are legal everywhere and have zero moments,
so the chamber engine never special-cases emptiness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import AffineForm, Polynomial2
from .rationals import rat

Point = tuple[Fraction, Fraction]
_QUADRATIC = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _over_lcm(*values) -> tuple[int, list[int]]:
    """(m, [m * x for x in values]): rationals scaled to ints by the lcm m of
    their denominators."""
    qs = [rat(x) for x in values]
    m = lcm(*(q.denominator for q in qs))
    return m, [q.numerator * (m // q.denominator) for q in qs]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _quadratic_at(c: Sequence[int], w: int, x: int, y: int) -> int:
    """m * w^2 * p(x / w, y / w) for c = m * (p's coefficients of 1, u, v,
    u^2, uv, v^2), the order of _QUADRATIC."""
    return (c[0] * w + c[1] * x + c[2] * y) * w + c[3] * x * x + c[4] * x * y + c[5] * y * y


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polygon:
    """Convex polygon with rational vertices in counter-clockwise order.

    Vertex i is (points[i][0] / den, points[i][1] / den), with den > 0 and
    gcd(den, every coordinate) == 1.  That form is unique, so ``==``, the
    hash and pickling see the vertex values.  ``vertices`` gives them back
    as ``Fraction`` pairs.  May be degenerate (fewer than 3 distinct
    vertices, or zero area).
    """

    den: int
    points: tuple[tuple[int, int], ...]

    def __init__(self, vertices: Sequence):
        scaled = [_over_lcm(*p) for p in vertices]
        den = lcm(*(m for m, _ in scaled))
        self._set(den, [(x * (den // m), y * (den // m)) for m, (x, y) in scaled])
        if len(self.points) >= 3:
            self._validate_convex_ccw()

    @classmethod
    def _from_ints(cls, den: int, points: Sequence[tuple[int, int]]) -> "Polygon":
        poly = object.__new__(cls)
        poly._set(den, points)
        return poly

    def _set(self, den: int, points: Sequence[tuple[int, int]]) -> None:
        # drop consecutive duplicates (closing duplicate included), then
        # reduce to lowest terms
        cleaned: list[tuple[int, int]] = []
        for p in points:
            if not cleaned or p != cleaned[-1]:
                cleaned.append(p)
        if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
            cleaned.pop()
        g = gcd(den, *(c for p in cleaned for c in p))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "points", tuple((x // g, y // g) for x, y in cleaned))

    def _validate_convex_ccw(self):
        pts = self.points
        n = len(pts)
        for i in range(n):
            if _cross(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) < 0:
                raise ValueError("polygon is not convex counter-clockwise")

    @property
    def vertices(self) -> tuple[Point, ...]:
        w = self.den
        return tuple((Fraction(x, w), Fraction(y, w)) for x, y in self.points)

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

    def _twice_area(self) -> int:
        """2 * den^2 * signed area (0 for fewer than 3 vertices)."""
        pts = self.points
        return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))

    def signed_area(self) -> Fraction:
        return Fraction(self._twice_area(), 2 * self.den * self.den)

    def area(self) -> Fraction:
        return abs(self.signed_area())

    def is_degenerate(self) -> bool:
        return self._twice_area() == 0

    def contains(self, point) -> bool:
        """Closed containment: whether the point lies in the convex hull of
        the vertices.  A zero-area polygon is the segment between its
        extreme vertices (a point, or nothing, for fewer than two)."""
        q, (px, py) = _over_lcm(*point)
        # both sides over the common denominator den * q
        p = (px * self.den, py * self.den)
        pts = [(x * q, y * q) for x, y in self.points]
        crosses = [_cross(o, a, p) for o, a in zip(pts, pts[1:] + pts[:1])]
        if any(c < 0 for c in crosses):
            return False
        if any(crosses):
            return True
        # every cross is 0: no vertices, or a zero-area polygon whose line
        # runs through the point; int order runs along that line
        return bool(pts) and min(pts) <= p <= max(pts)

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
        pts = self.points
        n = len(pts)
        if n >= 3:
            out = [pts[i] for i in range(n) if _cross(pts[i - 1], pts[i], pts[(i + 1) % n]) != 0]
            pts = out if len(out) >= 3 else pts
        if not pts:
            return self
        # int order is Fraction order over the common positive denominator
        k = min(range(len(pts)), key=pts.__getitem__)
        return Polygon._from_ints(self.den, pts[k:] + pts[:k])

    def __repr__(self):
        from .rationals import format_rational as fr

        inside = ", ".join(f"({fr(x)}, {fr(y)})" for x, y in self.vertices)
        return f"Polygon[{inside}]"


def polygon_clip(poly: Polygon, halfplane: Sequence[int]) -> Polygon:
    """Exact intersection of a convex polygon with {c + cu u + cv v >= 0}
    for the integer row halfplane = (c, cu, cv), or any positive multiple."""
    pts, w = poly.points, poly.den
    c, cu, cv = halfplane
    values = [c * w + cu * x + cv * y for x, y in pts]
    if all(val >= 0 for val in values):
        return poly
    out: list[tuple[int, int, int]] = []  # (x, y, d): vertex (x, y) / (w * d)
    n = len(pts)
    for i in range(n):
        (xa, ya), fa = pts[i], values[i]
        (xb, yb), fb = pts[(i + 1) % n], values[(i + 1) % n]
        if fa >= 0:
            out.append((xa, ya, 1))
        if (fa > 0 > fb) or (fb > 0 > fa):
            # a + fa / (fa - fb) * (b - a)
            out.append((fa * xb - fb * xa, fa * yb - fb * ya, fa - fb))
    # lcm is positive and d // k carries the sign of a crossing's k
    d = lcm(*(k for _, _, k in out))
    return Polygon._from_ints(w * d, [(x * (d // k), y * (d // k)) for x, y, k in out])


def _quadratic_coefficients(p: Polynomial2, what: str) -> tuple[int, list[int]]:
    """(m, m * p's coefficients in the order of _QUADRATIC), for p of total
    degree <= 2."""
    if any(a + b > 2 for a, b in p.terms):
        raise ValueError(f"{what} needs total degree <= 2")
    return _over_lcm(*(p.coefficient(a, b) for a, b in _QUADRATIC))


def _affine_product(r: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    """(r0 + r1 u + r2 v)(s0 + s1 u + s2 v) by the monomials of _QUADRATIC."""
    r0, r1, r2 = r
    s0, s1, s2 = s
    return (r0 * s0, r0 * s1 + r1 * s0, r0 * s2 + r2 * s0, r1 * s1, r1 * s2 + r2 * s1, r2 * s2)


def _dot(c: Sequence[int], moments: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(c, moments))


def polygon_moments(poly: Polygon) -> tuple[int, tuple[int, ...]]:
    """(den, m): the six moments of a convex polygon, the integrals of 1, u,
    v, u^2, uv and v^2 (the order of _QUADRATIC), are m[k] / den with den > 0.

    Fan triangulation from vertex 0 = (ox, oy) / W; convexity makes the fan a
    genuine partition, and each triangle counts with |det|, so either
    orientation works and a degenerate polygon has zero moments.  Over the
    fan triangle (0, a, b) with d = |det(a, b)| the monomials of the offset
    from vertex 0 integrate to d/2, d(a+b)/6, d(a^2+ab+b^2)/12 and
    d(2a0a1 + a0b1 + b0a1 + 2b0b1)/24; expanding u = ox / W + offset turns
    those into the six moments, every one an int over 24 W^4.  The integral
    of a polynomial of degree <= 2 is then the dot product of its
    coefficients with the moments.
    """
    pts, w = poly.points, poly.den
    if len(pts) < 3:
        return 1, (0,) * 6
    ox, oy = pts[0]
    s0 = sx = sy = sxx = sxy = syy = 0
    ax, ay = pts[1][0] - ox, pts[1][1] - oy
    for x, y in pts[2:]:
        bx, by = x - ox, y - oy
        d = abs(ax * by - bx * ay)
        s0 += d
        sx += d * (ax + bx)
        sy += d * (ay + by)
        sxx += d * (ax * ax + ax * bx + bx * bx)
        sxy += d * (2 * ax * ay + ax * by + bx * ay + 2 * bx * by)
        syy += d * (ay * ay + ay * by + by * by)
        ax, ay = bx, by
    a0 = 12 * s0
    return 24 * w**4, (
        a0 * w * w,
        (a0 * ox + 4 * sx) * w,
        (a0 * oy + 4 * sy) * w,
        (a0 * ox + 8 * sx) * ox + 2 * sxx,
        a0 * ox * oy + 4 * (ox * sy + oy * sx) + sxy,
        (a0 * oy + 8 * sy) * oy + 2 * syy,
    )


def integrate_polygon(p: Polynomial2, poly: Polygon) -> Fraction:
    """Exact double integral of p(u, v), of total degree <= 2, over a convex
    polygon: p's coefficients, scaled to ints by M, dotted with
    ``polygon_moments``, over M times the moments' denominator."""
    m, c = _quadratic_coefficients(p, "integrate_polygon")
    den, moments = polygon_moments(poly)
    return Fraction(_dot(c, moments), m * den)


def split_by_line(poly: Polygon, line: Sequence[int]) -> tuple[Polygon, Polygon]:
    """(poly ∩ {line >= 0}, poly ∩ {line <= 0}) for an integer row line =
    (c, cu, cv); the shared boundary has area 0."""
    c, cu, cv = line
    return polygon_clip(poly, line), polygon_clip(poly, (-c, -cu, -cv))


def quadratic_dips_below_zero(c: Sequence[int], poly: Polygon) -> bool:
    """Whether the quadratic with integer coefficients c (of 1, u, v, u^2,
    uv, v^2, times any positive scale) is negative somewhere on a convex
    polygon.

    Its minimum over the closed polygon sits at a vertex, at the parabola
    minimum inside an edge, or, when the Hessian is positive definite and
    the polygon has positive area, at the interior stationary point; each
    candidate's sign is an integer expression, and containment is a
    cross-multiplied test.
    """
    pts, w = poly.points, poly.den
    if any(_quadratic_at(c, w, x, y) < 0 for x, y in pts):
        return True
    c0, c1, c2, c3, c4, c5 = c
    n = len(pts)
    for i in range(n):
        (xa, ya), (xb, yb) = pts[i], pts[(i + 1) % n]
        dx, dy = xb - xa, yb - ya
        # w^2 p(a + t (b - a)) = k0 + k1 t + k2 t^2
        k2 = c3 * dx * dx + c4 * dx * dy + c5 * dy * dy
        k1 = 2 * c3 * xa * dx + c4 * (xa * dy + ya * dx) + 2 * c5 * ya * dy + w * (c1 * dx + c2 * dy)
        if k2 > 0 and 0 < -k1 < 2 * k2:
            if 4 * _quadratic_at(c, w, xa, ya) * k2 < k1 * k1:
                return True
    det = 4 * c3 * c5 - c4 * c4
    if c3 > 0 and det > 0 and poly._twice_area() > 0:
        # the stationary point (sx, sy) / det; the sign of its value times det
        sx, sy = c4 * c2 - 2 * c5 * c1, c4 * c1 - 2 * c3 * c2
        if c0 * det + c1 * c2 * c4 - c5 * c1 * c1 - c3 * c2 * c2 < 0:
            # over the common denominator w * det
            q = (sx * w, sy * w)
            corners = [(x * det, y * det) for x, y in pts]
            return all(_cross(o, a, q) >= 0 for o, a in zip(corners, corners[1:] + corners[:1]))
    return False


def polygon_intersection(a: Polygon, b: Polygon) -> Polygon:
    """Exact intersection of two convex polygons."""
    pts, w = b.points, b.den
    if len(pts) < 3:
        return Polygon([])
    out = a
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        # the inward side of a CCW edge, {r : cross(p, q, r) >= 0}, times w^2
        dx, dy = qx - px, qy - py
        out = polygon_clip(out, (dy * px - dx * py, -dy * w, dx * w))
        if not out.points:
            break
    return out


def shared_edge(a: Polygon, b: Polygon) -> tuple[Point, Point] | None:
    """The endpoints of a positive-length common boundary segment, or None.

    Two chambers are adjacent when some edge of each lies on the same line
    and their parameter spans overlap in more than a point; the overlap then
    runs between the middle two of the four edge endpoints along the line.
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
                ends = sorted((a0, a1, b0, b1), key=param)
                return ends[1], ends[2]
    return None
