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

The engine runs on integers.  ``_int_columns`` scales the pairings once to
integer rows over one positive denominator: one column for a point, three
(c, cu, cv) for an affine family.  ``_int_positive_part`` is the one
positive-part computation: a ``bareiss_solve`` on those rows whose every
output is an integer row over one positive denominator, so a sign test or
a cross-multiplication of ints decides each comparison.  The support
closure (``_support_closure``), the threshold sweep and the chamber build
all read those rows.  ``_build_chamber`` reduces each half-plane of a
chamber to a primitive integer row and hands the rows to ``polygon_clip``
as they are, and ``_subtract`` splits the remainder by the same rows.  A
``Chamber`` keeps its rows: the negative-part coefficients and pairings
over one denominator and P^2 as six integer coefficients over another, and
the P^2 >= 0 guard is an integer sign test on them.  ``Fraction``s,
``AffineForm``s and ``Polynomial2``s are built once, for what a caller
reads: the ``PointDecomposition``, the threshold form and a ``Chamber``'s
``neg_coeffs``, ``p_pairings`` and ``p_squared`` views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from typing import Sequence

from .geometry import (
    _QUADRATIC,
    Polygon,
    _over_lcm,
    _quadratic_coefficients,
    polygon_clip,
    polygon_intersection,
    quadratic_dips_below_zero,
    shared_edge,
    split_by_line,
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
        _check_length(lat, len(d.coefficients))
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


def _check_length(lat: CurveLattice, count: int) -> None:
    if count != lat.rank:
        raise LatticeError(
            f"rank mismatch: divisor has {count} coefficients, lattice rank is {lat.rank}"
        )


def _as_point(lat: CurveLattice, d) -> PointDivisor:
    if isinstance(d, PointDivisor):
        _check_length(lat, len(d.pairings))
        return d
    if isinstance(d, DivisorClass):
        return PointDivisor.from_class(lat, d)
    raise TypeError(f"cannot decompose {type(d).__name__}")


def _as_data(lat: CurveLattice, d) -> DivisorData:
    if isinstance(d, DivisorData):
        _check_length(lat, len(d.pairings))
        return d
    if isinstance(d, ParametricDivisor):
        return DivisorData.from_parametric(lat, d)
    raise TypeError(f"cannot decompose {type(d).__name__}")


def _int_columns(pairings) -> tuple[int, list[list[int]]]:
    """(m, r): the pairings as integer rows r over their lcm denominator m > 0,
    one column per Fraction and three (c, cu, cv) per AffineForm."""
    columns = [(f.c, f.cu, f.cv) if isinstance(f, AffineForm) else (f,) for f in pairings]
    m = lcm(*(x.denominator for col in columns for x in col))
    return m, [[x.numerator * (m // x.denominator) for x in col] for col in columns]


def _int_positive_part(lat: CurveLattice, m: int, r, support):
    """The positive part on one support, for pairings r / m in integer rows.

    ``bareiss_solve`` on ``int_gram`` (the Gram matrix times L = ``lat.scale``)
    gives det and X = det * int_gram_S^-1 r.  Returns (den, coeffs, pairs,
    nd, nd_den) with den = m * |det| > 0, so that a numerator has the sign of
    its value:

        coeffs[k] / den   the coefficient of support[k]:  L X_k / (m det)
        pairs[j] / den    P . C_j:  (det r_j - sum_k X_k int_gram[k][j]) / (m det)
        nd[e] / nd_den    N . D by monomial e = (deg u, deg v):
                          L sum_k X_k r_k / (m den), nd_den = m den

    every row of r's width.  A support that is not negative definite raises
    ``LatticeError``.
    """
    if not support:
        return m, [], r, {}, 1
    solved = bareiss_solve(lat, support, [r[i] for i in support])
    if solved is None:
        raise LatticeError("support is not negative definite")
    det, x = solved
    if det < 0:  # X / det is the solution: flip both so that den > 0
        det, x = -det, [[-n for n in xi] for xi in x]
    scale = lat.scale
    gram_rows = [lat.int_gram[i] for i in support]
    pairs = []
    for j, rj in enumerate(r):
        hits = [(xi, row[j]) for xi, row in zip(x, gram_rows) if row[j]]
        pairs.append([det * rc - sum(xi[c] * g for xi, g in hits) for c, rc in enumerate(rj)])
    # the numerator of N . D: a product of two affine forms when affine
    nd: dict[tuple[int, int], int] = {}
    for i, xi in zip(support, x):
        for (au, av), xa in zip(_MONOMIALS, xi):
            for (bu, bv), rb in zip(_MONOMIALS, r[i]):
                exp = (au + bu, av + bv)
                nd[exp] = nd.get(exp, 0) + xa * rb
    den = m * det
    coeffs = [[scale * n for n in xi] for xi in x]
    return den, coeffs, pairs, {exp: scale * n for exp, n in nd.items()}, m * den


def _value(row, den: int):
    """An integer row over den as a Fraction (one column) or an AffineForm."""
    if len(row) == 1:
        return Fraction(row[0], den)
    return AffineForm(Fraction(row[0], den), Fraction(row[1], den), Fraction(row[2], den))


def _volume(d_sq, nd, nd_den: int) -> tuple[int, tuple[int, ...]]:
    """P^2 = D^2 - N . D as (den, row): six integer coefficients by the
    monomials of _QUADRATIC over den > 0, for D^2 = (s, c) from
    ``_quadratic_coefficients`` and the N . D numerators of
    ``_int_positive_part``."""
    s, c = d_sq
    return s * nd_den, tuple(ck * nd_den - s * nd.get(exp, 0) for ck, exp in zip(c, _QUADRATIC))


def _quadratic(den: int, row) -> Polynomial2:
    return Polynomial2({exp: Fraction(n, den) for exp, n in zip(_QUADRATIC, row) if n})


def _positive_part(lat: CurveLattice, pairings, self_sq, support):
    """Negative-part coefficients, P . C_j and P^2 of D on one support set.

    ``_int_positive_part`` on the pairings scaled to integers, then the one
    conversion: Fraction pairings with a Fraction D^2 give numbers,
    AffineForm pairings with a Polynomial2 D^2 give forms and a polynomial.
    The engine itself reads the integer rows and converts only what it
    returns; this is the same computation for a caller that wants values.
    A support that is not negative definite raises ``LatticeError``.
    """
    if not support:
        return [], list(pairings), self_sq
    m, r = _int_columns(pairings)
    den, coeffs, pairs, nd, nd_den = _int_positive_part(lat, m, r, support)
    coeffs = [_value(row, den) for row in coeffs]
    pairs = [_value(row, den) for row in pairs]
    if isinstance(pairings[0], AffineForm):
        d_sq = _quadratic_coefficients(self_sq, "P^2")
        return coeffs, pairs, _quadratic(*_volume(d_sq, nd, nd_den))
    return coeffs, pairs, self_sq - Fraction(nd[(0, 0)], nd_den)


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


def _support_closure(lat: CurveLattice, m: int, r):
    """The support of a point, pairings r / m in one-column integer rows,
    and ``_int_positive_part`` on it.

    Starting from the curves the class meets negatively, solve the
    orthogonality system on the current support and absorb every curve the
    candidate positive part still meets negatively.  Distinct curves pair
    non-negatively (``CurveLattice`` enforces it), so the closure grows
    monotonically and reaches the unique support in at most rank steps.
    """
    rank = lat.rank
    support: list[int] = []
    parts = _int_positive_part(lat, m, r, support)
    for _ in range(rank + 1):
        pairs = parts[2]
        violations = [j for j in range(rank) if j not in support and pairs[j][0] < 0]
        if not violations:
            break
        support = sorted(set(support) | set(violations))
        try:
            parts = _int_positive_part(lat, m, r, support)
        except LatticeError:
            raise ZariskiError(
                "not pseudoeffective w.r.t. universe: candidate support "
                f"{{{', '.join(lat.names[i] for i in support)}}} is not negative definite"
            ) from None
    else:
        raise ZariskiError("support closure failed to stabilize")
    if any(row[0] < 0 for row in parts[1]):
        raise ZariskiError("not pseudoeffective w.r.t. universe: negative multiplicity")
    return tuple(support), parts


def decompose_at(lat: CurveLattice, d) -> PointDecomposition:
    """Unique Zariski decomposition of a numeric class, relative to the universe.

    The support is the violation closure of ``_support_closure``, run in
    integers: it ends with no off-support curve met negatively, a negative
    definite support, non-negative coefficients and, by the solve, a
    positive part orthogonal to the support.  The result is converted to
    ``Fraction``s once.
    """
    point = _as_point(lat, d)
    m, r = _int_columns(point.pairings)
    support, (den, coeffs, pairs, nd, nd_den) = _support_closure(lat, m, r)
    return _decomposition(
        lat.rank,
        support,
        [_value(row, den) for row in coeffs],
        [_value(row, den) for row in pairs],
        point.self_sq - Fraction(nd.get((0, 0), 0), nd_den),
    )


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
    """One maximal parameter polygon with constant negative support.

    The chamber data are integer rows over positive denominators: the
    negative-part coefficient of support[k] is coeff_rows[k] / den and
    P . C_j is pair_rows[j] / den, each row (c, cu, cv) meaning
    c + cu u + cv v; P^2 is sq_row / sq_den, by the monomials 1, u, v, u^2,
    uv, v^2.  The constructor takes any integer sequences, stores tuples and
    reduces both to lowest terms, so ``==`` and the hash see the values.  ``neg_coeffs``, ``p_pairings`` and ``p_squared``
    give them back as ``AffineForm``s and a ``Polynomial2``, each built on
    first read.
    """

    region: Polygon
    support: tuple[int, ...]
    den: int
    coeff_rows: tuple[tuple[int, int, int], ...]  # aligned with support
    pair_rows: tuple[tuple[int, int, int], ...]  # one per universe curve
    sq_den: int
    sq_row: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        g = gcd(self.den, *(x for row in (*self.coeff_rows, *self.pair_rows) for x in row))
        object.__setattr__(self, "den", self.den // g)
        for name in ("coeff_rows", "pair_rows"):
            rows = getattr(self, name)
            object.__setattr__(self, name, tuple(tuple(x // g for x in row) for row in rows))
        g = gcd(self.sq_den, *self.sq_row)
        object.__setattr__(self, "sq_den", self.sq_den // g)
        object.__setattr__(self, "sq_row", tuple(x // g for x in self.sq_row))

    @cached_property
    def neg_coeffs(self) -> tuple[AffineForm, ...]:
        return tuple(_value(row, self.den) for row in self.coeff_rows)

    @cached_property
    def p_pairings(self) -> tuple[AffineForm, ...]:
        return tuple(_value(row, self.den) for row in self.pair_rows)

    @cached_property
    def p_squared(self) -> Polynomial2:
        return _quadratic(self.sq_den, self.sq_row)

    def negative_vector_at(self, u, v) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * len(self.pair_rows)
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
        the shared boundary segment.  Along the segment both are polynomials
        of degree <= deg, the larger total degree of the two, so equal values
        at deg + 1 distinct points decide the identity exactly."""
        for i in range(len(self.chambers)):
            for j in range(i + 1, len(self.chambers)):
                segment = shared_edge(self.chambers[i].region, self.chambers[j].region)
                if segment is None:
                    continue
                left, right = self.chambers[i].p_squared, self.chambers[j].p_squared
                deg = max((a + b for p in (left, right) for a, b in p.terms), default=0)
                (x0, y0), (x1, y1) = segment
                for k in range(deg + 1):
                    t = Fraction(k, max(deg, 1))
                    x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
                    if left(x, y) != right(x, y):
                        raise ZariskiError(
                            f"P^2 discontinuous across chambers {i} and {j}"
                        )

    def validate_orthogonality(self) -> None:
        for chamber in self.chambers:
            for i in chamber.support:
                if any(chamber.pair_rows[i]):
                    raise ZariskiError(
                        f"positive part meets support curve {self.lattice.names[i]}"
                    )


def _build_chamber(lat: CurveLattice, d_sq, columns, domain: Polygon, support):
    """Parametric data and validity region for one candidate support.

    ``columns`` is ``_int_columns`` of the pairings and ``d_sq`` is D^2 as
    ``_quadratic_coefficients`` gives it.  Each half-plane is a
    coefficient or an off-support pairing as a primitive integer row: the
    row over den > 0 divided by its gcd, which keeps the half-plane and
    gives equal half-planes equal rows.  The rows go to ``polygon_clip``
    as they are.
    """
    m, r = columns
    den, coeffs, pairs, nd, nd_den = _int_positive_part(lat, m, r, support)
    rows = []
    for a, b, e in coeffs + [pairs[j] for j in range(lat.rank) if j not in support]:
        if not (b or e):
            if a < 0:
                return None  # support invalid everywhere
            continue
        g = gcd(a, b, e)
        rows.append((a // g, b // g, e // g))
    halfplanes = list(dict.fromkeys(rows))
    region = domain
    for h in halfplanes:
        region = polygon_clip(region, h)
    region = region.canonical()
    chamber = Chamber(
        region,
        tuple(support),
        den,
        coeffs,
        pairs,
        *_volume(d_sq, nd, nd_den),
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
    columns = _int_columns(data.pairings)
    m, r = columns
    d_sq = _quadratic_coefficients(data.self_sq, "decompose_parametric: D^2")
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
            # the point (x / w, y / w) turns row (a, b, e) into a w + b x + e y
            w, (x, y) = _over_lcm(*sample)
            try:
                support, _ = _support_closure(lat, m * w, [[a * w + b * x + e * y] for a, b, e in r])
            except ZariskiError as exc:
                raise CoverageError(
                    "universe incomplete or domain exceeds pseudoeffective region "
                    f"near {piece!r}: {exc}",
                    piece,
                ) from exc
            if support in seen:
                continue  # boundary sample of an already-covered chamber
            built = _build_chamber(lat, d_sq, columns, domain, support)
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
            if quadratic_dips_below_zero(chamber.sq_row, chamber.region):
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


def _subtract(piece: Polygon, halfplanes: Sequence[tuple[int, int, int]]) -> list[Polygon]:
    """Convex remainder pieces of piece minus {all halfplanes >= 0}, each
    half-plane an integer row (c, cu, cv)."""
    remainders = []
    current = piece
    for h in halfplanes:
        current, below = split_by_line(current, h)
        below = below.canonical()
        if not below.is_degenerate():
            remainders.append(below)
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
    # (alpha, beta): alpha + beta u >= 0 must hold, a guard of the sweep
    # times a positive integer; beta != 0 (constant guards are checked at once)
    guards: tuple[tuple[int, int], ...]


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
        p, q = u0.numerator, u0.denominator
        lo, hi = u_lo, u_hi
        degenerate = False
        for alpha, beta in outcome.guards:
            value = alpha * q + beta * p  # the guard at u0, times q > 0
            if value < 0:
                raise ZariskiError("threshold sweep produced an inconsistent guard")
            if value == 0:
                degenerate = True
                break
            if beta > 0:
                lo = max(lo, Fraction(-alpha, beta))
            else:
                hi = min(hi, Fraction(-alpha, beta))
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
    """Walk v upward at u = u0 = p / q through the 1-D chambers, in integers.

    A constraint is a negative-part coefficient ("drop") or an off-support
    pairing ("add"), a row (a, b, e) over the current den > 0.  With e < 0
    it holds up to its root (a + b u) / -e, which is (a q + b p) / (-e q)
    at u0; roots compare by cross-multiplication.  The chamber bottom is
    (vc + vu u) / vd with vd > 0.  Every guard is recorded scaled by a
    positive integer (see ``_SweepOutcome``).
    """
    rank = lat.rank
    m, r = _int_columns(data.pairings)
    p, q = u0.numerator, u0.denominator
    guards: list[tuple[int, int]] = []

    def add_guard(alpha: int, beta: int):
        if not beta:
            if alpha < 0:
                raise ZariskiError("inconsistent constant guard")
            return
        guards.append((alpha, beta))

    try:
        support, _ = _support_closure(lat, m * q, [[a * q + b * p] for a, b, _ in r])
    except ZariskiError as exc:
        raise ZariskiError(f"not pseudoeffective at (u, v) = ({u0}, 0): {exc}") from exc
    parts = _int_positive_part(lat, m, r, support)
    d_sq = _in_v(data.self_sq, u0)
    vc, vu, vd = 0, 0, 1
    for _ in range(4 * rank + 8):
        _, coeffs, pairs, nd, nd_den = parts
        constraints = [(row, "drop", i) for row, i in zip(coeffs, support)]
        constraints += [(pairs[j], "add", j) for j in range(rank) if j not in support]
        bottom = (vc * q + vu * p, vd * q)  # at u0
        events = []  # (x, y, row, kind, idx): the row's root is x / y at u0, y > 0
        for row, kind, idx in constraints:
            a, b, e = row
            if e < 0:
                x, y = a * q + b * p, -e * q
                if x * bottom[1] < bottom[0] * y:
                    raise ZariskiError("sweep constraint already violated")
                events.append((x, y, row, kind, idx))
            else:
                # constant or increasing in v: must hold at the chamber bottom
                add_guard(a * vd + e * vc, b * vd + e * vu)
        p_sq = _p_squared_in_v(d_sq, nd, nd_den, p, q)
        if not events:
            _reject_unbounded(p_sq)
        bx, by, (a0, b0, e0) = events[0][:3]  # the first smallest root binds
        for x, y, row, _, _ in events:
            if x * by < bx * y:
                bx, by, (a0, b0, e0) = x, y, row
        adds, drops = [], []
        for x, y, (a, b, e), kind, idx in events:
            if x * by != bx * y:
                add_guard(e * a0 - e0 * a, e * b0 - e0 * b)  # root - binding, times e e0
            else:
                (adds if kind == "add" else drops).append(idx)
        add_guard(a0 * vd + e0 * vc, b0 * vd + e0 * vu)  # binding - bottom, times -e0 vd
        _check_volume_nonnegative(p_sq, bottom, (bx, by))
        if adds:
            new_support = sorted(set(support) | set(adds))
            try:
                parts = _int_positive_part(lat, m, r, new_support)
            except LatticeError:  # absorbing breaks negative definiteness
                threshold = AffineForm(Fraction(a0, -e0), Fraction(b0, -e0), 0)
                return _SweepOutcome(threshold, tuple(guards))
            support = new_support
        elif drops:
            support = [i for i in support if i not in drops]
            parts = _int_positive_part(lat, m, r, support)
        vc, vu, vd = a0, b0, -e0
    raise ZariskiError("threshold sweep failed to terminate")


def _in_v(self_sq: Polynomial2, u0: Fraction) -> tuple[int, list[int]]:
    """D^2(u0, v) as (s, c): integer coefficients c of 1, v, v^2, ... over
    s > 0, at least three of them."""
    by_v: dict[int, Fraction] = {}
    for (du, dv), coeff in self_sq.terms.items():
        by_v[dv] = by_v.get(dv, 0) + coeff * u0**du
    values = [by_v.get(k, Fraction(0)) for k in range(max([2, *by_v]) + 1)]
    s = lcm(*(x.denominator for x in values))
    return s, [x.numerator * (s // x.denominator) for x in values]


def _p_squared_in_v(d_sq, nd, nd_den: int, p: int, q: int) -> list[int]:
    """P^2(p / q, v) = D^2 - N . D as integer v-coefficients over the positive
    s * nd_den * q^2; the sweep reads only signs."""
    s, c = d_sq
    out = [ck * nd_den * q * q for ck in c]
    for (du, dv), n in nd.items():
        out[dv] -= s * n * p**du * q ** (2 - du)
    return out


def _sign_at(c: Sequence[int], x: int, y: int) -> int:
    """sum c_k (x / y)^k times y^deg > 0: an int with the value's sign."""
    deg = len(c) - 1
    return sum(ck * x**k * y ** (deg - k) for k, ck in enumerate(c))


def _reject_unbounded(p_sq: Sequence[int]):
    c1, c2 = p_sq[1], p_sq[2]
    if c2 < 0 or (c2 == 0 and c1 < 0):
        raise ZariskiError(
            "no affine threshold: feasibility is bounded only by a P^2 root"
        )
    raise ZariskiError("no threshold: family remains feasible for all v")


def _check_volume_nonnegative(p_sq: Sequence[int], v_lo, v_hi):
    """P^2 must stay >= 0 throughout the swept chamber; a sign change means
    the threshold would be a quadratic root, which we refuse to emit.  The
    ends are (x, y) pairs with y > 0."""
    values = [_sign_at(p_sq, *v_lo), _sign_at(p_sq, *v_hi)]
    c1, c2 = p_sq[1], p_sq[2]
    if c2 > 0:
        vx, vy = -c1, 2 * c2  # the vertex
        if v_lo[0] * vy < vx * v_lo[1] and vx * v_hi[1] < v_hi[0] * vy:
            values.append(_sign_at(p_sq, vx, vy))
    if any(value < 0 for value in values):
        raise ZariskiError(
            "no affine threshold: P^2 becomes negative inside a sweep chamber"
        )
