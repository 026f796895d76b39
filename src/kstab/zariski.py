"""Parametric Zariski decomposition over polygonal parameter domains.

``decompose_at`` computes the unique decomposition of a numeric divisor
class relative to the finite curve universe (negative part supported on a
negative-definite set, positive part orthogonal to the support and
non-negative against every universe curve).  ``decompose_parametric``
produces the exact chamber structure of a family that is affine in (u, v):
one convex polygon per support set, with affine negative-part coefficients
and the quadratic volume polynomial P^2 on each chamber.

Divisors may be given in curve coordinates or abstractly through their
pairing vector against the universe (``DivisorData``); the second form is
what the infinite-series bands use, where the family lives in a Picard
basis larger than the current curve universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Sequence

from .geometry import (
    Polygon,
    polygon_clip,
    polygon_intersection,
    quadratic_min_on_polygon,
)
from .lattice import (
    CurveLattice,
    DivisorClass,
    LatticeError,
    ParametricDivisor,
    bareiss_solve,
    is_negative_definite,
    pairing_form,
)
from .poly import AffineForm, Polynomial2
from .rationals import format_rational, rat

_MAX_CHAMBERS = 4096
_MONOMIALS = ((0, 0), (1, 0), (0, 1))  # of the columns c, cu, cv of a pairing


class ZariskiError(ValueError):
    pass


class CoverageError(ZariskiError):
    """Chambers fail to cover the domain: universe incomplete, or the domain
    exceeds the pseudoeffective region (shrink it to the effective threshold)."""

    def __init__(self, message: str, polygon: Polygon):
        super().__init__(message)
        self.polygon = polygon


@dataclass(frozen=True)
class DivisorData:
    """A parametric divisor seen through its pairings with the universe."""

    pairings: tuple[AffineForm, ...]
    self_sq: Polynomial2

    @classmethod
    def from_parametric(cls, lat: CurveLattice, d: ParametricDivisor) -> "DivisorData":
        forms = tuple(pairing_form(lat, d, i) for i in range(lat.rank))
        sq = Polynomial2()
        for coeff, form in zip(d.coefficients, forms):
            sq = sq + coeff * form
        return cls(forms, sq)

    def at(self, u, v) -> "PointDivisor":
        return PointDivisor(tuple(f(u, v) for f in self.pairings), self.self_sq(u, v))


@dataclass(frozen=True)
class PointDivisor:
    """Numeric counterpart of DivisorData at one parameter point."""

    pairings: tuple[Fraction, ...]
    self_sq: Fraction

    @classmethod
    def from_class(cls, lat: CurveLattice, d: DivisorClass) -> "PointDivisor":
        pairings = []
        for j in range(lat.rank):
            row = lat.gram[j]
            pairings.append(sum((c * row[i] for i, c in enumerate(d.coefficients) if c), Fraction(0)))
        sq = sum((c * p for c, p in zip(d.coefficients, pairings)), Fraction(0))
        return cls(tuple(pairings), sq)


@dataclass(frozen=True)
class PointDecomposition:
    support: tuple[int, ...]
    neg_coeffs: tuple[Fraction, ...]  # aligned with support
    negative: DivisorClass  # in curve coordinates, full length
    p_pairings: tuple[Fraction, ...]
    p_squared: Fraction


def _as_point(lat: CurveLattice, d) -> PointDivisor:
    if isinstance(d, PointDivisor):
        return d
    if isinstance(d, DivisorClass):
        return PointDivisor.from_class(lat, d)
    raise TypeError(f"cannot decompose {type(d).__name__}")


def _as_data(lat: CurveLattice, d) -> DivisorData:
    if isinstance(d, DivisorData):
        return d
    if isinstance(d, ParametricDivisor):
        return DivisorData.from_parametric(lat, d)
    raise TypeError(f"cannot decompose {type(d).__name__}")


def _positive_part(lat: CurveLattice, pairings, self_sq, support):
    """Negative-part coefficients, P . C_j and P^2 of D on one support set.

    Solves P . C_i = 0 for i in the support, subtracts N from every pairing
    and forms P^2 = D^2 - N . D, all in integers.  The pairings are scaled
    to integers r by their common denominator M: one column for Fraction
    pairings, three (c, cu, cv) for AffineForm pairings.  ``bareiss_solve``
    on ``int_gram`` (the Gram matrix times L = ``lat.scale``) gives det and
    X = det * int_gram_S^-1 r, and then, each divided once at the end,

        coefficients  L X_i / (M det)
        P . C_j       (det r_j - sum_i X_i int_gram[i][j]) / (M det)
        P^2           D^2 - L sum_i X_i r_i / (M^2 det)

    Fraction pairings with a Fraction D^2 give numbers, AffineForm pairings
    with a Polynomial2 D^2 give forms and a polynomial.  A support that is
    not negative definite raises ``LatticeError``.
    """
    if not support:
        return [], list(pairings), self_sq
    affine = isinstance(pairings[0], AffineForm)
    columns = [(f.c, f.cu, f.cv) if affine else (f,) for f in pairings]
    m = lcm(*(x.denominator for col in columns for x in col))
    r = [[x.numerator * (m // x.denominator) for x in col] for col in columns]
    solved = bareiss_solve(lat, support, [r[i] for i in support])
    if solved is None:
        raise LatticeError("support is not negative definite")
    det, x = solved
    den = m * det

    def value(parts):
        if affine:
            return AffineForm(*(Fraction(n, den) for n in parts))
        return Fraction(parts[0], den)

    coeffs = [value([lat.scale * n for n in xi]) for xi in x]
    p_pairings = list(pairings)
    gram_rows = [lat.int_gram[i] for i in support]
    for j in range(lat.rank):
        hits = [(xi, row[j]) for xi, row in zip(x, gram_rows) if row[j]]
        if hits:
            p_pairings[j] = value(
                [det * rc - sum(xi[c] * g for xi, g in hits) for c, rc in enumerate(r[j])]
            )
    # the numerator of N . D: a product of two affine forms when affine
    nd: dict[tuple[int, int], int] = {}
    for i, xi in zip(support, x):
        for (au, av), xa in zip(_MONOMIALS, xi):
            for (bu, bv), rb in zip(_MONOMIALS, r[i]):
                exp = (au + bu, av + bv)
                nd[exp] = nd.get(exp, 0) + xa * rb
    nd_den = m * den
    if not affine:
        return coeffs, p_pairings, self_sq - Fraction(lat.scale * nd[(0, 0)], nd_den)
    terms = dict(self_sq.terms)
    for exp, n in nd.items():
        terms[exp] = terms.get(exp, 0) - Fraction(lat.scale * n, nd_den)
    return coeffs, p_pairings, Polynomial2(terms)


def _decomposition(rank: int, support, coeffs, p_pairings, p_sq) -> PointDecomposition:
    negative = [Fraction(0)] * rank
    for i, c in zip(support, coeffs):
        negative[i] = c
    return PointDecomposition(
        support=tuple(support),
        neg_coeffs=tuple(coeffs),
        negative=DivisorClass(tuple(negative)),
        p_pairings=tuple(p_pairings),
        p_squared=p_sq,
    )


def decompose_at(lat: CurveLattice, d) -> PointDecomposition:
    """Unique Zariski decomposition of a numeric class, relative to the universe.

    Support discovery iterates the violation closure: starting from the
    curves the class meets negatively, solve the orthogonality system on the
    current support and absorb every curve the candidate positive part still
    meets negatively.  Distinct curves pair non-negatively (``CurveLattice``
    enforces it), so the closure grows monotonically and reaches the unique
    support in at most rank steps; the result is fully validated
    (negative-definite support, non-negative coefficients, orthogonality,
    nefness) before being returned.
    """
    point = _as_point(lat, d)
    rank = lat.rank
    support: list[int] = []
    coeffs, p_pairings, p_sq = [], point.pairings, point.self_sq
    for _ in range(rank + 1):
        violations = [j for j in range(rank) if j not in support and p_pairings[j] < 0]
        if not violations:
            break
        support = sorted(set(support) | set(violations))
        try:
            coeffs, p_pairings, p_sq = _positive_part(lat, point.pairings, point.self_sq, support)
        except LatticeError:
            raise ZariskiError(
                "not pseudoeffective w.r.t. universe: candidate support "
                f"{{{', '.join(lat.names[i] for i in support)}}} is not negative definite"
            ) from None
    else:
        raise ZariskiError("support closure failed to stabilize")
    if any(c < 0 for c in coeffs):
        raise ZariskiError("not pseudoeffective w.r.t. universe: negative multiplicity")
    return _decomposition(rank, support, coeffs, p_pairings, p_sq)


def enumerate_valid_supports(lat: CurveLattice, d) -> list[PointDecomposition]:
    """Brute-force oracle: all supports admitting a valid decomposition.

    Grows negative-definite subsets by size and tests each; intended for
    small universes in tests (the classical uniqueness statement says the
    resulting negative parts all coincide).  Capped at 20 curves: this is
    desk scale, where exactness beats asymptotics.
    """
    if lat.rank > 20:
        raise ZariskiError("support enumeration is capped at 20 curves")
    point = _as_point(lat, d)
    rank = lat.rank
    results = []
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        for subset in frontier:
            dec = _try_support(lat, point, subset)
            if dec is not None:
                results.append(dec)
        next_frontier = []
        for subset in frontier:
            start = subset[-1] + 1 if subset else 0
            for j in range(start, rank):
                candidate = subset + (j,)
                if is_negative_definite(lat, candidate):
                    next_frontier.append(candidate)
        frontier = next_frontier
    return results


def _try_support(lat, point: PointDivisor, subset: tuple[int, ...]):
    try:
        coeffs, p_pairings, p_sq = _positive_part(lat, point.pairings, point.self_sq, subset)
    except LatticeError:
        return None
    if any(c < 0 for c in coeffs) or any(p < 0 for p in p_pairings):
        return None
    return _decomposition(lat.rank, subset, coeffs, p_pairings, p_sq)


@dataclass(frozen=True)
class Chamber:
    """One maximal parameter polygon with constant negative support."""

    region: Polygon
    support: tuple[int, ...]
    neg_coeffs: tuple[AffineForm, ...]  # aligned with support
    p_pairings: tuple[AffineForm, ...]  # P . C_j for every universe curve
    p_squared: Polynomial2

    def negative_vector_at(self, u, v) -> tuple[Fraction, ...]:
        rank = len(self.p_pairings)
        out = [Fraction(0)] * rank
        for i, form in zip(self.support, self.neg_coeffs):
            out[i] = form(u, v)
        return tuple(out)


@dataclass(frozen=True)
class ChamberDecomposition:
    lattice: CurveLattice
    divisor: DivisorData
    domain: Polygon
    chambers: tuple[Chamber, ...]

    def chamber_at(self, point) -> Chamber:
        for chamber in self.chambers:
            if chamber.region.contains(point):
                return chamber
        raise ZariskiError(f"point {point} is outside every chamber")

    def validate_partition(self) -> None:
        total = sum((c.region.area() for c in self.chambers), Fraction(0))
        if total != self.domain.area():
            raise CoverageError(
                "universe incomplete or domain exceeds pseudoeffective region: "
                f"chamber area {total} != domain area {self.domain.area()}",
                self.domain,
            )
        for i in range(len(self.chambers)):
            for j in range(i + 1, len(self.chambers)):
                overlap = polygon_intersection(
                    self.chambers[i].region, self.chambers[j].region
                )
                if overlap.area() != 0:
                    raise ZariskiError(
                        f"chambers {i} and {j} overlap with positive area"
                    )

    def validate_continuity(self) -> None:
        """Volume continuity: P^2 of adjacent chambers agrees identically on
        the shared boundary line (polynomial identity after substitution)."""
        from .geometry import restrict_to_line, shared_edge_line

        for i in range(len(self.chambers)):
            for j in range(i + 1, len(self.chambers)):
                line = shared_edge_line(self.chambers[i].region, self.chambers[j].region)
                if line is None:
                    continue
                left = restrict_to_line(self.chambers[i].p_squared, line)
                right = restrict_to_line(self.chambers[j].p_squared, line)
                if left != right:
                    raise ZariskiError(
                        f"P^2 discontinuous across chambers {i} and {j}"
                    )

    def validate_orthogonality(self) -> None:
        for chamber in self.chambers:
            for i in chamber.support:
                if not chamber.p_pairings[i].is_zero():
                    raise ZariskiError(
                        f"positive part meets support curve {self.lattice.names[i]}"
                    )


def _build_chamber(lat: CurveLattice, d: DivisorData, domain: Polygon, support: tuple[int, ...]):
    """Parametric data and validity region for one candidate support."""
    coeffs, p_pairings, p_sq = _positive_part(lat, d.pairings, d.self_sq, support)
    halfplanes = []
    for form in coeffs + [p_pairings[j] for j in range(lat.rank) if j not in support]:
        if form.is_constant():
            if form.c < 0:
                return None  # support invalid everywhere
            continue
        normal = form.normalized()
        if normal not in halfplanes:
            halfplanes.append(normal)
    region = domain
    for h in halfplanes:
        region = polygon_clip(region, h)
    region = region.canonical()
    chamber = Chamber(
        region=region,
        support=tuple(support),
        neg_coeffs=tuple(coeffs),
        p_pairings=tuple(p_pairings),
        p_squared=p_sq,
    )
    return chamber, halfplanes


def decompose_parametric(lat: CurveLattice, d, domain: Polygon) -> ChamberDecomposition:
    """Exact chamber decomposition of an affine divisor family over a polygon.

    Supports are discovered by pointwise decomposition at interior sample
    points; each support's full validity region (coefficients >= 0, positive
    part nef against the universe) is clipped from the domain and removed
    from the uncovered remainder, so every support contributes exactly one
    chamber.  The result is verified to be a partition.
    """
    data = _as_data(lat, d)
    domain = domain.canonical()
    chambers: list[Chamber] = []
    pieces = [] if domain.is_degenerate() else [domain]
    seen: set[tuple[int, ...]] = set()
    for _ in range(_MAX_CHAMBERS):
        pieces = [p for p in pieces if not p.is_degenerate()]
        if not pieces:
            break
        piece = pieces.pop()
        built = None
        for sample in islice(piece.interior_points(), 48):
            if not piece.contains(sample):
                continue
            try:
                point_dec = decompose_at(lat, data.at(*sample))
            except ZariskiError as exc:
                raise CoverageError(
                    "universe incomplete or domain exceeds pseudoeffective region "
                    f"near {piece!r}: {exc}",
                    piece,
                ) from exc
            if point_dec.support in seen:
                continue  # boundary sample of an already-covered chamber
            built = _build_chamber(lat, data, domain, point_dec.support)
            if built is not None and not built[0].region.is_degenerate():
                break
            built = None
        if built is None:
            raise CoverageError(
                f"could not place a chamber inside remainder {piece!r}", piece
            )
        chamber, halfplanes = built
        if not chamber.region.is_degenerate():
            # the formal decomposition can remain feasible past the true
            # pseudoeffective boundary when the universe is too small to see
            # it; a negative volume is the tell
            if quadratic_min_on_polygon(chamber.p_squared, chamber.region) < 0:
                raise CoverageError(
                    "universe incomplete or domain exceeds pseudoeffective "
                    f"region: P^2 turns negative on {chamber.region!r}",
                    chamber.region,
                )
        chambers.append(chamber)
        seen.add(chamber.support)
        next_pieces = []
        for other in pieces + [piece]:
            next_pieces.extend(_subtract(other, halfplanes))
        pieces = next_pieces
    else:
        raise ZariskiError("chamber count exceeded the safety cap")
    chambers.sort(key=lambda c: c.support)  # supports are unique: see `seen`
    decomposition = ChamberDecomposition(lat, data, domain, tuple(chambers))
    decomposition.validate_partition()
    decomposition.validate_orthogonality()
    return decomposition


def _subtract(piece: Polygon, halfplanes: Sequence[AffineForm]) -> list[Polygon]:
    """Convex remainder pieces of piece minus {all halfplanes >= 0}."""
    remainders = []
    current = piece
    for h in halfplanes:
        below = polygon_clip(current, -h).canonical()
        if not below.is_degenerate():
            remainders.append(below)
        current = polygon_clip(current, h)
        if current.is_degenerate():
            break
    return remainders


@dataclass(frozen=True)
class OracleFailure:
    point: tuple[Fraction, Fraction]
    detail: str


@dataclass(frozen=True)
class OracleReport:
    samples: int
    failures: tuple[OracleFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def oracle_check(
    lat: CurveLattice, d, dec: ChamberDecomposition, samples: int, seed: int = 0
) -> OracleReport:
    """Compare the chamber data against pointwise decomposition at random
    rational interior points; exact equality is required."""
    import random

    data = _as_data(lat, d)
    rng = random.Random(seed)
    failures = []
    if dec.domain.is_degenerate():
        return OracleReport(0, ())
    for _ in range(samples):
        point = dec.domain.random_interior_point(rng)
        chamber = dec.chamber_at(point)
        expected = decompose_at(lat, data.at(*point))
        actual_n = chamber.negative_vector_at(*point)
        expected_n = expected.negative.coefficients
        if actual_n != expected_n:
            failures.append(
                OracleFailure(
                    point,
                    "negative parts differ: chamber "
                    f"{[format_rational(x) for x in actual_n]} vs pointwise "
                    f"{[format_rational(x) for x in expected_n]}",
                )
            )
            continue
        if chamber.p_squared(*point) != expected.p_squared:
            failures.append(OracleFailure(point, "P^2 values differ"))
    return OracleReport(samples, tuple(failures))


# -- effective threshold -----------------------------------------------------


@dataclass(frozen=True)
class _SweepOutcome:
    threshold: AffineForm  # affine in u (cv = 0)
    guards: tuple[AffineForm, ...]  # affine in u, all must stay >= 0


def effective_threshold(lat: CurveLattice, d, u_lo, u_hi) -> list[tuple[Fraction, Fraction, AffineForm]]:
    """The supremum t(u) of v with a feasible decomposition, piecewise affine.

    For each u the sweep walks v upward through the 1-dimensional chamber
    structure; the threshold is reached when absorbing the binding curve
    would break negative definiteness.  Every comparison the sweep makes is
    recorded as an affine guard in u, giving the exact validity interval of
    the resulting affine formula; the remaining u-range is processed
    recursively.  If the would-be threshold is governed by a root of P^2
    instead of an affine boundary, the affine structure breaks and the
    computation is rejected.
    """
    data = _as_data(lat, d)
    u_lo, u_hi = rat(u_lo), rat(u_hi)
    if u_lo > u_hi:
        raise ZariskiError("empty u-interval")
    if u_lo == u_hi:
        outcome = _threshold_sweep(lat, data, u_lo)
        return [(u_lo, u_hi, outcome.threshold)]
    pieces = _threshold_recurse(lat, data, u_lo, u_hi, depth=0)
    pieces.sort(key=lambda item: item[0])
    merged: list[tuple[Fraction, Fraction, AffineForm]] = []
    for piece in pieces:
        if merged and merged[-1][2] == piece[2] and merged[-1][1] == piece[0]:
            merged[-1] = (merged[-1][0], piece[1], piece[2])
        else:
            merged.append(piece)
    return merged


def _threshold_recurse(lat, data, u_lo, u_hi, depth):
    if depth > 64:
        raise ZariskiError("effective threshold recursion too deep")
    samples = [
        u_lo + (u_hi - u_lo) * Fraction(1, 2),
        u_lo + (u_hi - u_lo) * Fraction(2, 5),
        u_lo + (u_hi - u_lo) * Fraction(5, 9),
        u_lo + (u_hi - u_lo) * Fraction(3, 11),
    ]
    last_error = None
    for u0 in samples:
        outcome = _threshold_sweep(lat, data, u0)
        lo, hi = u_lo, u_hi
        degenerate = False
        for guard in outcome.guards:
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
        out = [(lo, hi, outcome.threshold)]
        if lo > u_lo:
            out.extend(_threshold_recurse(lat, data, u_lo, lo, depth + 1))
        if hi < u_hi:
            out.extend(_threshold_recurse(lat, data, hi, u_hi, depth + 1))
        return out
    raise last_error or ZariskiError("threshold sweep failed")


def _threshold_sweep(lat, data: DivisorData, u0: Fraction) -> _SweepOutcome:
    rank = lat.rank
    guards: list[AffineForm] = []

    def add_guard(form_u: AffineForm):
        if form_u.is_constant():
            if form_u.c < 0:
                raise ZariskiError("inconsistent constant guard")
            return
        guards.append(form_u)

    try:
        start = decompose_at(lat, data.at(u0, 0))
    except ZariskiError as exc:
        raise ZariskiError(f"not pseudoeffective at (u, v) = ({u0}, 0): {exc}") from exc
    support = list(start.support)
    parts = _positive_part(lat, data.pairings, data.self_sq, support)
    v_cur = AffineForm(0, 0, 0)  # bottom of the current 1-D chamber, affine in u
    for _ in range(4 * rank + 8):
        coeffs, p_pairings, p_sq = parts
        events: list[tuple[Fraction, AffineForm, str, int]] = []
        constraints = [(form, "drop", i) for form, i in zip(coeffs, support)]
        constraints += [
            (p_pairings[j], "add", j) for j in range(rank) if j not in support
        ]
        v_cur_at = v_cur(u0, 0)
        for form, kind, idx in constraints:
            if form.cv < 0:
                root = AffineForm(-form.c / form.cv, -form.cu / form.cv, 0)
                root_at = root(u0, 0)
                if root_at < v_cur_at:
                    raise ZariskiError("sweep constraint already violated")
                events.append((root_at, root, kind, idx))
            else:
                # constant or increasing in v: must hold at the chamber bottom
                add_guard(
                    AffineForm(
                        form.c + form.cv * v_cur.c,
                        form.cu + form.cv * v_cur.cu,
                        0,
                    )
                )
        if not events:
            _reject_unbounded(p_sq, u0, v_cur_at)
        binding_at = min(e[0] for e in events)
        binding = [e for e in events if e[0] == binding_at]
        binding_root = binding[0][1]
        for root_at, root, _, _ in events:
            if root_at != binding_at:
                add_guard(root - binding_root)
        add_guard(binding_root - v_cur)
        _check_volume_nonnegative(p_sq, u0, v_cur_at, binding_at)
        adds = [idx for _, _, kind, idx in binding if kind == "add"]
        drops = [idx for _, _, kind, idx in binding if kind == "drop"]
        if adds:
            new_support = sorted(set(support) | set(adds))
            try:
                parts = _positive_part(lat, data.pairings, data.self_sq, new_support)
            except LatticeError:  # absorbing breaks negative definiteness
                return _SweepOutcome(binding_root, tuple(guards))
            support = new_support
        elif drops:
            support = [i for i in support if i not in drops]
            parts = _positive_part(lat, data.pairings, data.self_sq, support)
        v_cur = binding_root
    raise ZariskiError("threshold sweep failed to terminate")


def _reject_unbounded(p_sq: Polynomial2, u0: Fraction, v_from: Fraction):
    poly_v = p_sq.eval_u(u0)
    c2 = poly_v.coefficient(0, 2)
    c1 = poly_v.coefficient(0, 1)
    if c2 < 0 or (c2 == 0 and c1 < 0):
        raise ZariskiError(
            "no affine threshold: feasibility is bounded only by a P^2 root"
        )
    raise ZariskiError("no threshold: family remains feasible for all v")


def _check_volume_nonnegative(p_sq: Polynomial2, u0, v_lo, v_hi):
    """P^2 must stay >= 0 throughout the swept chamber; a sign change means
    the threshold would be a quadratic root, which we refuse to emit."""
    poly_v = p_sq.eval_u(u0)
    values = [poly_v(0, v_lo), poly_v(0, v_hi)]
    c2 = poly_v.coefficient(0, 2)
    c1 = poly_v.coefficient(0, 1)
    if c2 > 0:
        vertex = -c1 / (2 * c2)
        if v_lo < vertex < v_hi:
            values.append(poly_v(0, vertex))
    if any(value < 0 for value in values):
        raise ZariskiError(
            "no affine threshold: P^2 becomes negative inside a sweep chamber"
        )
