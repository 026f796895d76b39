"""Invariant functionals on chamber decompositions.

Threefold-level S values integrate the declared volume polynomials P(u)^3
(computed through the intersection 3-tensor); surface-level S(W;C) and
point-level S(W;P) with their F-terms integrate over the chamber structure
produced by the decomposition engine.  Every prefactor is the dimension
weight over the anticanonical volume V: 1/V for threefold S, 3/V for the
square terms, 6/V for the order terms.

Threefold P(u)/N(u) are scenario inputs, not outputs: the functions here
validate the decomposition identity and volume continuity but trust
nefness, which the source arguments establish geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .geometry import Polygon, _affine_product, _dot, _over_lcm, polygon_clip, polygon_moments
from .lattice import CurveLattice, ParametricDivisor
from .poly import AffineForm, Polynomial2, integrate_interval
from .rationals import rat
from .zariski import ChamberDecomposition, decompose_parametric, effective_threshold


class InvariantError(ValueError):
    pass


# -- threefold data ----------------------------------------------------------


@dataclass(frozen=True)
class ThreefoldInterval:
    u_lo: Fraction
    u_hi: Fraction
    p: tuple[AffineForm, ...]  # affine in u over the threefold basis
    n: tuple[AffineForm, ...]


@dataclass(frozen=True)
class ThreefoldFamilyData:
    """A piecewise description of P(u), N(u) for one divisor ray on the 3-fold."""

    basis: tuple[str, ...]
    triple_form: dict[tuple[int, int, int], Fraction]  # keys sorted ascending
    anticanonical_volume: Fraction
    intervals: tuple[ThreefoldInterval, ...]

    def triple(self, i: int, j: int, k: int) -> Fraction:
        return self.triple_form.get(tuple(sorted((i, j, k))), Fraction(0))

    def cubed(self, coeffs: Sequence[AffineForm]) -> Polynomial2:
        """(sum_i c_i D_i)^3 as an exact polynomial in u."""
        n = len(self.basis)
        if len(coeffs) != n:
            raise InvariantError("coefficient vector does not match threefold basis")
        total = Polynomial2()
        for i in range(n):
            if coeffs[i].is_zero():
                continue
            for j in range(i, n):
                if coeffs[j].is_zero():
                    continue
                pij = coeffs[i] * coeffs[j]
                for k in range(j, n):
                    t = self.triple(i, j, k)
                    if not t:
                        continue
                    mult = _multinomial(i, j, k)
                    total = total + pij * coeffs[k] * (t * mult)
        return total

    def square_against(self, coeffs: Sequence[AffineForm], face: int) -> Polynomial2:
        """(sum_i c_i D_i)^2 . D_face, a polynomial in u."""
        n = len(self.basis)
        total = Polynomial2()
        for i in range(n):
            if coeffs[i].is_zero():
                continue
            for j in range(i, n):
                if coeffs[j].is_zero():
                    continue
                t = self.triple(i, j, face)
                if not t:
                    continue
                mult = 1 if i == j else 2
                total = total + coeffs[i] * coeffs[j] * (t * mult)
        return total

    def validate(self) -> None:
        """Decomposition identity and volume continuity across intervals."""
        intervals = self.intervals
        if not intervals:
            raise InvariantError("threefold family has no intervals")
        n = len(self.basis)
        family = [p + q for p, q in zip(intervals[0].p, intervals[0].n)]
        for piece in intervals:
            if len(piece.p) != n or len(piece.n) != n:
                raise InvariantError("interval coefficient length mismatch")
            if piece.u_lo >= piece.u_hi:
                raise InvariantError("empty threefold interval")
            for a, b, c in zip(piece.p, piece.n, family):
                if a + b != c:
                    raise InvariantError(
                        "P(u) + N(u) differs from the declared family on an interval"
                    )
            for form in piece.n:
                if form(piece.u_lo, 0) < 0 or form(piece.u_hi, 0) < 0:
                    raise InvariantError("negative part has a negative multiplicity")
        for prev, nxt in zip(intervals, intervals[1:]):
            if prev.u_hi != nxt.u_lo:
                raise InvariantError("threefold intervals are not contiguous")
            left = self.cubed(prev.p).eval_u(prev.u_hi)
            right = self.cubed(nxt.p).eval_u(nxt.u_lo)
            if left != right:
                raise InvariantError(
                    f"P(u)^3 is discontinuous at u = {prev.u_hi}"
                )
        first = intervals[0]
        if first.u_lo == 0 and all(form.is_zero() for form in first.n):
            if self.cubed(first.p)(0, 0) != self.anticanonical_volume:
                raise InvariantError(
                    "P(0)^3 does not equal the declared anticanonical volume"
                )


def _multinomial(i: int, j: int, k: int) -> int:
    if i == j == k:
        return 1
    if i == j or j == k or i == k:
        return 3
    return 6


def s_threefold(data: ThreefoldFamilyData) -> Fraction:
    """(1/V) integral of P(u)^3 over the declared intervals."""
    data.validate()
    total = Fraction(0)
    for piece in data.intervals:
        total += integrate_interval(data.cubed(piece.p), piece.u_lo, piece.u_hi)
    return total / data.anticanonical_volume


# -- surface families --------------------------------------------------------


@dataclass(frozen=True)
class SurfacePiece:
    u_lo: Fraction
    u_hi: Fraction
    divisor: ParametricDivisor


@dataclass(frozen=True)
class SurfaceFamily:
    """Restriction family on a flag surface, piecewise affine in u.

    The v-domain of every piece is [0, t(u)] for the effective threshold the
    engine computes; a declared threshold, when present, is cross-checked.
    """

    name: str
    pieces: tuple[SurfacePiece, ...]
    declared_threshold: tuple[tuple[Fraction, Fraction, AffineForm], ...] | None = None


@dataclass(frozen=True)
class FamilyDecomposition:
    lattice: CurveLattice
    thresholds: tuple[tuple[Fraction, Fraction, AffineForm], ...]
    parts: tuple[ChamberDecomposition, ...]

    def chambers(self):
        for dec in self.parts:
            yield from dec.chambers


def decompose_family(lat: CurveLattice, family: SurfaceFamily) -> FamilyDecomposition:
    parts = []
    thresholds = []
    for piece in family.pieces:
        segments = effective_threshold(lat, piece.divisor, piece.u_lo, piece.u_hi)
        thresholds.extend(segments)
        for lo, hi, top in segments:
            domain = Polygon.band(lo, hi, top)
            parts.append(decompose_parametric(lat, piece.divisor, domain))
    thresholds_t = tuple(thresholds)
    if family.declared_threshold is not None and thresholds_t != tuple(family.declared_threshold):
        raise InvariantError(
            f"computed threshold {thresholds_t} differs from the declared one "
            f"for family {family.name!r}"
        )
    return FamilyDecomposition(lat, thresholds_t, tuple(parts))


# -- flags -------------------------------------------------------------------


@dataclass(frozen=True)
class FlagData:
    """Point-level data for S(W;P): the center curve, the multiplicities of
    the negative-part curves at the point, the log-discrepancy weight, and
    the orbifold different at marked points."""

    center: str
    point_multiplicities: dict[str, Fraction] = field(default_factory=dict)
    weight: Fraction = Fraction(1)
    different: dict[str, Fraction] = field(default_factory=dict)
    # order of the threefold-level N(u) along the center at the point,
    # as (u_lo, u_hi, affine-in-u) pieces
    threefold_ord: tuple[tuple[Fraction, Fraction, AffineForm], ...] = ()

    def validate(self) -> None:
        for value in self.point_multiplicities.values():
            if value < 0:
                raise InvariantError("point multiplicities must be non-negative")
        for value in self.different.values():
            if not 0 <= value < 1:
                raise InvariantError("different coefficients must lie in [0, 1)")


def s_curve(
    V,
    famdec: FamilyDecomposition,
    ord_pieces: Sequence[tuple[Fraction, Fraction, Polynomial2]] = (),
) -> Fraction:
    """(3/V) [ integral of (P(u)^2 . face) ord du  +  double integral of P^2 ].

    The first summand's integrand pieces are supplied precomposed (they mix
    threefold data with the order of N(u) along the flag curve); most flags
    have none.
    """
    V = rat(V)
    total = Fraction(0)
    for lo, hi, integrand in ord_pieces:
        total += integrate_interval(integrand, lo, hi)
    for chamber in famdec.chambers():
        den, moments = polygon_moments(chamber.region)
        total += Fraction(_dot(chamber.sq_row, moments), chamber.sq_den * den)
    return total * Fraction(3) / V


def s_point(V, famdec: FamilyDecomposition, flag: FlagData) -> Fraction:
    """(3/V) double integral of (P . C)^2, plus the F-term."""
    return _point_base(V, famdec, flag) + f_term(V, famdec, flag)


def _point_base(V, famdec: FamilyDecomposition, flag: FlagData) -> Fraction:
    V = rat(V)
    center = famdec.lattice.index(flag.center)
    total = Fraction(0)
    for chamber in famdec.chambers():
        row = chamber.pair_rows[center]
        den, moments = polygon_moments(chamber.region)
        total += Fraction(_dot(_affine_product(row, row), moments), chamber.den**2 * den)
    return total * Fraction(3) / V


def f_term(V, famdec: FamilyDecomposition, flag: FlagData) -> Fraction:
    """(6/V) double integral of (P . C) ord_P(N|_C).

    ord_P(N(u,v)|_C) is assembled from the declared point multiplicities of
    the support curves; a threefold-level restriction order (affine in u)
    contributes on its u-range.
    """
    V = rat(V)
    flag.validate()
    lat = famdec.lattice
    center = lat.index(flag.center)
    mults = {lat.index(name): value for name, value in flag.point_multiplicities.items()}
    for idx in mults:
        if idx == center:
            raise InvariantError("the center curve cannot carry its own multiplicity")
    # the multiplicities as ints over q > 0
    q, scaled = _over_lcm(*mults.values())
    mults = dict(zip(mults, scaled))
    ord_rows = [_over_lcm(f.c, f.cu, f.cv) for _, _, f in flag.threefold_ord]
    windows = []  # u >= lo and u <= hi of each piece, as integer rows
    for lo, hi, _ in flag.threefold_ord:
        lo, hi = rat(lo), rat(hi)
        windows.append(((-lo.numerator, lo.denominator, 0), (hi.numerator, -hi.denominator, 0)))
    total = Fraction(0)
    for chamber in famdec.chambers():
        p_center = chamber.pair_rows[center]
        order = [0, 0, 0]  # ord_P(N|_C) times den * q
        for i, coeff in zip(chamber.support, chamber.coeff_rows):
            if i in mults:
                order = [o + c * mults[i] for o, c in zip(order, coeff)]
            elif mults and i != center and lat.int_gram[i][center] != 0:
                # once the flag locates the point on some support curve, every
                # support curve meeting the center must state its multiplicity
                # at the point (zero is fine); an absent entry is a data bug
                raise InvariantError(
                    f"incomplete flag data: no point multiplicity for {lat.names[i]}"
                )
        if any(order):
            den, moments = polygon_moments(chamber.region)
            numerator = _dot(_affine_product(p_center, order), moments)
            total += Fraction(numerator, chamber.den**2 * q * den)
        for (above, below), (m, ord_u) in zip(windows, ord_rows):
            window = polygon_clip(polygon_clip(chamber.region, above), below)
            den, moments = polygon_moments(window)
            total += Fraction(_dot(_affine_product(p_center, ord_u), moments), chamber.den * m * den)
    return total * Fraction(6) / V


# -- scalar combinators ------------------------------------------------------


def beta(a_weight, s_value) -> Fraction:
    """beta(F) = A(F) - S(F)."""
    return rat(a_weight) - rat(s_value)


def beta_lower_bound(
    V, a_weight, overestimates: Sequence[tuple[Fraction, Fraction, Polynomial2]]
) -> Fraction:
    """A - (1/V) sum of the overestimate integrals.

    Valid as a lower bound whenever each piece dominates the true volume on
    its interval; that dominance is a scenario assertion, not verified here.
    The pieces must tile [0, u_max] without gaps.
    """
    V = rat(V)
    pieces = sorted(((rat(a), rat(b), p) for a, b, p in overestimates), key=lambda x: x[0])
    if not pieces:
        raise InvariantError("no overestimate pieces")
    if pieces[0][0] != 0:
        raise InvariantError("overestimate pieces must start at u = 0")
    for (_, hi, _), (lo, _, _) in zip(pieces, pieces[1:]):
        if hi != lo:
            raise InvariantError("gap in the overestimate interval cover")
    total = Fraction(0)
    for lo, hi, p in pieces:
        total += integrate_interval(p, lo, hi)
    return rat(a_weight) - total / V


def delta_min_combinator(terms: Sequence[tuple]) -> Fraction:
    """Exact minimum of the quotients numerator/denominator."""
    if not terms:
        raise InvariantError("empty term list")
    values = []
    for num, den in terms:
        den = rat(den)
        if den <= 0:
            raise InvariantError("denominators must be positive")
        values.append(rat(num) / den)
    return min(values)


def fiber_delta_bound(d: int, delta_a, on_e: bool) -> Fraction:
    """Local delta bound through a del Pezzo fiber of degree d in {1, 2, 3}:
    min{16/11, (16/15) delta} off the exceptional surface, and
    min{16/11, 16 delta / (delta + 15)} on it."""
    if d not in (1, 2, 3):
        raise InvariantError("fiber degree must be 1, 2, or 3")
    delta_a = rat(delta_a)
    if delta_a <= 0:
        raise InvariantError("delta must be positive")
    if on_e:
        candidate = 16 * delta_a / (delta_a + 15)
    else:
        candidate = Fraction(16, 15) * delta_a
    return min(Fraction(16, 11), candidate)


QUARTIC_VERDICTS = ("delta_P(X)>1", "inconclusive")


def quartic_fiber_bound(delta_s, singular_point: bool) -> str:
    """Verdict of the quartic del Pezzo fiber criterion: delta above 54/55 at
    a smooth point (27/28 at a singular one) forces delta_P(X) > 1."""
    delta_s = rat(delta_s)
    if delta_s <= 0:
        raise InvariantError("delta must be positive")
    threshold = Fraction(27, 28) if singular_point else Fraction(54, 55)
    return QUARTIC_VERDICTS[0] if delta_s > threshold else QUARTIC_VERDICTS[1]
