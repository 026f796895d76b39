"""The blown-quadric surface series: B-classes, interval schedule, exact sums.

The ambient lattice is the Picard basis (l1, l2, e1..e8) of the quadric
surface blown up in eight points, with intersection form 2*a1*a2 - sum b_i^2
and anticanonical class (2, 2; 1, ..., 1).  For each n >= 0 the table below
produces seventeen verified (-1)-classes in five kinds; the family

    d(u, v) = (3 - u)(l1 + l2) - (1 + v) e1 - (e2 + ... + e8)

is decomposed band by band over the interval schedule I_{n,i}, and the
S / M / F ledger entries are exact double integrals over the chambers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Polygon, _affine_product, _dot, polygon_clip, polygon_moments
from .lattice import CurveLattice
from .poly import AffineForm, Polynomial2
from .rationals import format_decimal
from .zariski import DivisorData, decompose_parametric, effective_threshold

PICARD_NAMES = ("l1", "l2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8")


def picard_gram() -> tuple[tuple[int, ...], ...]:
    size = len(PICARD_NAMES)
    gram = [[0] * size for _ in range(size)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, size):
        gram[i][i] = -1
    return tuple(tuple(row) for row in gram)


def picard_pair(a, b) -> int:
    """The intersection form 2*a1*a2 - sum b_i^2, polarized; exact in int."""
    return a[0] * b[1] + a[1] * b[0] - sum(x * y for x, y in zip(a[2:], b[2:]))


def _minus_k_vector() -> tuple[int, ...]:
    return (2, 2) + (-1,) * 8


class BClassError(ValueError):
    pass


def _row(n: int, kind: str, i: int | None):
    nn = n * n
    if kind == "1":
        a = 14 * nn + 7 * n
        b1 = 7 * nn + 7 * n + 1
        bj = 7 * nn + 3 * n
        if i == 1:
            return a + 1, a, b1, bj, None
        if i == 2:
            return a, a + 1, b1, bj, None
        raise BClassError("kind 1 needs i in {1, 2}")
    if kind == "2":
        a = 14 * nn + 13 * n + 3
        return a, a, 7 * nn + 10 * n + 3, 7 * nn + 6 * n + 1, 7 * nn + 6 * n + 2
    if kind == "3":
        a = 14 * nn + 21 * n + 7
        return a, a, 7 * nn + 14 * n + 6, 7 * nn + 10 * n + 3, None
    if kind == "4":
        a = 14 * nn + 29 * n + 15
        return a, a, 7 * nn + 18 * n + 11, 7 * nn + 14 * n + 7, 7 * nn + 14 * n + 6
    raise BClassError(f"unknown kind {kind!r}")


def b_class(n: int, kind: str, i: int | None = None) -> tuple[int, ...]:
    """The class B_{n,kind[,i]} in integer Picard coordinates, verified (-1)."""
    if n < 0:
        raise BClassError("n must be non-negative")
    a1, a2, b1, bj, bi = _row(n, kind, i if kind in ("1",) else None)
    b = [bj] * 7
    if kind in ("2", "4"):
        if i is None or not 2 <= i <= 8:
            raise BClassError(f"kind {kind} needs i in 2..8")
        b[i - 2] = bi
    vector = (a1, a2, -b1) + tuple(-x for x in b)
    if picard_pair(vector, vector) != -1:
        raise BClassError(f"B_({n},{kind},{i}) is not a (-1)-class: table bug")
    if picard_pair(_minus_k_vector(), vector) != 1:
        raise BClassError(f"B_({n},{kind},{i}) has wrong anticanonical degree")
    return vector


def generate_b_classes(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """All seventeen verified (-1)-classes of level n, in table order."""
    return [entry for kind in (1, 2, 3, 4) for entry in kind_components(n, kind)]


def kind_components(n: int, kind: int) -> list[tuple[str, tuple[int, ...]]]:
    if kind == 1:
        return [(f"B({n},1,1)", b_class(n, "1", 1)), (f"B({n},1,2)", b_class(n, "1", 2))]
    if kind == 2:
        return [(f"B({n},2,{i})", b_class(n, "2", i)) for i in range(2, 9)]
    if kind == 3:
        return [(f"B({n},3)", b_class(n, "3"))]
    if kind == 4:
        return [(f"B({n},4,{i})", b_class(n, "4", i)) for i in range(2, 9)]
    raise BClassError(f"kind must be 1..4, got {kind}")


def e1_pairing_coefficient(n: int, kind: int) -> Fraction:
    """(component of B_{n,kind}) . e1, i.e. the table entry b1."""
    _, _, b1, _, _ = _row(n, str(kind), 1 if kind == 1 else None)
    return Fraction(b1)


# -- interval schedule -------------------------------------------------------


def _frac(num_poly, den_poly, n):
    num = sum(c * n**k for k, c in enumerate(num_poly))
    den = sum(c * n**k for k, c in enumerate(den_poly))
    return Fraction(num, den)


def interval_bounds(n: int, i: int, half: str) -> tuple[Fraction, Fraction]:
    """Endpoints of I'_{n,i} (half="p") or I''_{n,i} (half="pp")."""
    if n < 0 or i not in (1, 2, 3, 4) or half not in ("p", "pp"):
        raise ValueError("bad interval selector")
    if i == 1:
        if n == 0:
            return (Fraction(0), Fraction(1, 3)) if half == "p" else (Fraction(1, 3), Fraction(3, 8))
        left = _frac((-1, 4, 14), (0, 6, 14), n)
        mid = _frac((1, 13, 21), (3, 16, 21), n)
        right = _frac((3, 35, 49), (8, 42, 49), n)
    elif i == 2:
        left = _frac((3, 35, 49), (8, 42, 49), n)
        mid = _frac((3, 22, 28), (6, 26, 28), n)
        right = _frac((2, 7), (3, 7), n)
    elif i == 3:
        left = _frac((2, 7), (3, 7), n)
        mid = _frac((21, 50, 28), (26, 54, 28), n)
        right = _frac((39, 91, 49), (48, 98, 49), n)
    else:
        left = _frac((39, 91, 49), (48, 98, 49), n)
        mid = _frac((19, 41, 21), (23, 44, 21), n)
        right = _frac((17, 32, 14), (20, 34, 14), n)
    return (left, mid) if half == "p" else (mid, right)


def interval_schedule(n_max: int) -> None:
    """Check the bands I_{n,i} = I'_{n,i} union I''_{n,i} for n <= n_max:
    halves meet, consecutive bands chain, and lengths are positive."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    prev_right = Fraction(0)
    for n in range(n_max + 1):
        for i in (1, 2, 3, 4):
            p_lo, p_hi = interval_bounds(n, i, "p")
            pp_lo, pp_hi = interval_bounds(n, i, "pp")
            if not (p_lo < p_hi == pp_lo < pp_hi):
                raise ValueError(f"band I_({n},{i}) is not an increasing chain")
            if p_lo != prev_right:
                raise ValueError(f"band I_({n},{i}) does not chain at {p_lo}")
            prev_right = pp_hi


# -- band decompositions -----------------------------------------------------


# (name, Picard vector, (level, kind)); the (level, kind) of e1 is None
BandMember = tuple[str, tuple[int, ...], tuple[int, int] | None]


def band_universe(n: int, i: int) -> tuple[CurveLattice, list[BandMember]]:
    """e1 plus the components of the kinds that can support N on band I_{n,i}.

    Kind i-1 is included as an extra nefness witness; kind 0 of level n is
    kind 4 of level n-1 and kind 5 is kind 1 of level n+1.
    """
    e1 = tuple(int(name == "e1") for name in PICARD_NAMES)
    members: list[BandMember] = [("e1", e1, None)]
    for kind in (i - 1, i, i + 1):
        level = n
        if kind == 0:
            if n == 0:
                continue
            level, kind = n - 1, 4
        elif kind == 5:
            level, kind = n + 1, 1
        members.extend(
            (name, vector, (level, kind)) for name, vector in kind_components(level, kind)
        )
    vectors = [vector for _, vector, _ in members]
    gram = [[0] * len(vectors) for _ in vectors]
    for i, a in enumerate(vectors):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = picard_pair(a, vectors[j])
    return CurveLattice([name for name, _, _ in members], gram), members


# d^2 = 2 (3-u)^2 - (1+v)^2 - 7, the same on every band
_D_SQUARED = Polynomial2({(0, 0): 10, (1, 0): -12, (2, 0): 2, (0, 1): -2, (0, 2): -1})


def band_divisor(members) -> DivisorData:
    """(3 - u)(l1 + l2) - (1 + v) e1 - sum_{i >= 2} e_i, via its pairings:
    against (a1, a2, -b1, ...) it pairs to (3 - u) s + (1 + v) b1 + the
    rest, with s = a1 + a2."""
    pairings = []
    for _, vector, _ in members:
        s, b1 = vector[0] + vector[1], vector[2]
        pairings.append(AffineForm(3 * s + b1 + sum(vector[3:]), -s, b1))
    return DivisorData(tuple(pairings), _D_SQUARED)


@dataclass(frozen=True)
class BandResult:
    s_term: Fraction
    m_prime: Fraction
    m_double_prime: Fraction
    phi_by_kind: dict[tuple[int, int], Fraction]  # (level, kind) -> per-component Phi
    chamber_count: int
    threshold: AffineForm  # the effective threshold t(u) bounding the band


def compute_band(n: int, i: int) -> BandResult:
    """Decompose one band and integrate its S, M', M'' and Phi ledger entries.

    The band is lo <= u <= hi, 0 <= v <= t(u) with t its effective threshold.
    Phi for a component ell of kind (level, kind) is the integral
    (3/7) double-int (P . e1) * coeff_ell dv du over the band; the F-terms
    are Phi sums weighted by (ell . e1).  Components of one kind must carry
    identical coefficients (the configuration is symmetric); this is checked
    on the integer numerators of their Phi over one shared denominator.

    Every integrand is P^2 or a product of two of the chamber's integer rows,
    so each integral is the dot product of six integer coefficients with the
    six ``polygon_moments`` of the chamber region, or of its part left of the
    split, each computed once.  M'' is the whole-chamber integral minus M':
    the two parts share only a segment of area 0, so the difference is exact.
    """
    lat, members = band_universe(n, i)
    data = band_divisor(members)
    lo, split = interval_bounds(n, i, "p")
    hi = interval_bounds(n, i, "pp")[1]
    pieces = effective_threshold(lat, data, lo, hi)
    if len(pieces) != 1:
        raise ValueError(f"band I_({n},{i}) threshold is not a single affine piece")
    threshold = pieces[0][2]
    dec = decompose_parametric(lat, data, Polygon.band(lo, hi, threshold))
    kind_of = [key for _, _, key in members]
    e1_idx = lat.index("e1")
    s_term = Fraction(0)
    m_lo = Fraction(0)
    m_hi = Fraction(0)
    phi: dict[tuple[int, int], list[Fraction]] = {}
    left_cut = (split.numerator, -split.denominator, 0)  # u <= split
    for chamber in dec.chambers:
        whole_den, whole = polygon_moments(chamber.region)
        left_den, left = polygon_moments(polygon_clip(chamber.region, left_cut))
        s_term += Fraction(_dot(chamber.sq_row, whole), chamber.sq_den * whole_den)
        pe1 = chamber.pair_rows[e1_idx]
        pe1_sq = _affine_product(pe1, pe1)
        den_sq = chamber.den * chamber.den
        m_left = Fraction(_dot(pe1_sq, left), den_sq * left_den)
        m_lo += m_left
        m_hi += Fraction(_dot(pe1_sq, whole), den_sq * whole_den) - m_left
        per_curve: dict[tuple[int, int], set[int]] = {}
        for idx, coeff in zip(chamber.support, chamber.coeff_rows):
            numerator = _dot(_affine_product(pe1, coeff), whole)
            per_curve.setdefault(kind_of[idx], set()).add(numerator)
        for key, numerators in per_curve.items():
            if len(numerators) != 1:
                raise ValueError(
                    f"asymmetric multiplicities within kind {key} on band I_({n},{i})"
                )
            phi.setdefault(key, []).append(Fraction(numerators.pop(), den_sq * whole_den))
    scale = Fraction(3, 14)
    return BandResult(
        s_term=s_term * scale,
        m_prime=m_lo * scale,
        m_double_prime=m_hi * scale,
        phi_by_kind={k: sum(v, Fraction(0)) * Fraction(3, 7) for k, v in phi.items()},
        chamber_count=len(dec.chambers),
        threshold=threshold,
    )


# -- assembled series --------------------------------------------------------


@dataclass(frozen=True)
class SeriesEntry:
    n: int
    s_terms: tuple[Fraction, Fraction, Fraction, Fraction]
    m_terms: tuple[tuple[Fraction, Fraction], ...]  # (M', M'') per i
    f_terms: tuple[Fraction, Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class SeriesReport:
    n_max: int
    entries: tuple[SeriesEntry, ...]
    s_partial: Fraction
    m_partial: Fraction
    f_partial: Fraction

    @property
    def s_decimal(self) -> str:
        return format_decimal(self.s_partial)

    @property
    def f_decimal(self) -> str:
        return format_decimal(self.f_partial)

    def tail_estimate(self) -> float:
        """HEURISTIC tail for the S-sum: (last per-n term) * n_max.

        An uncalibrated heuristic, not a bound and not an estimate of the
        true tail: the closed forms decay like n^-4, so it overstates the
        tail by orders of n.  Its value is part of ``series --json`` and
        stays as it is."""
        if not self.entries or self.n_max == 0:
            return float("nan")
        last = sum(self.entries[-1].s_terms, Fraction(0))
        return float(last * self.n_max)


def _feeding_bands(n: int, i: int) -> tuple[tuple[int, int], ...]:
    """The bands whose negative parts can carry kind (n, i): its own band
    and the one before, which is band (n-1, 4) when i = 1."""
    if i > 1:
        return ((n, i - 1), (n, i))
    if n > 0:
        return ((n - 1, 4), (n, 1))
    return ((0, 1),)


def _f_term(n: int, i: int, band) -> Fraction:
    """F_{n,i}: the Phi of kind (n, i) over its feeding bands, times (ell . e1)."""
    phi = sum(
        (band(*key).phi_by_kind.get((n, i), Fraction(0)) for key in _feeding_bands(n, i)),
        Fraction(0),
    )
    return phi * e1_pairing_coefficient(n, i)


def series_sum(n_max: int, band=None) -> SeriesReport:
    """Exact S / M / F ledger for all n <= n_max.

    ``band(n, i) -> BandResult`` is the band source, called once per band
    in band order; None means ``compute_band``.  F_{n,i} reads the bands
    that feed kind (n, i), all of level n or n-1.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    interval_schedule(n_max)  # validates the chaining once
    source = compute_band if band is None else band
    results = {(n, i): source(n, i) for n in range(n_max + 1) for i in (1, 2, 3, 4)}
    entries = []
    for n in range(n_max + 1):
        bands = [results[(n, i)] for i in (1, 2, 3, 4)]
        entries.append(SeriesEntry(
            n,
            tuple(b.s_term for b in bands),
            tuple((b.m_prime, b.m_double_prime) for b in bands),
            tuple(_f_term(n, i, lambda m, k: results[m, k]) for i in (1, 2, 3, 4)),
        ))
    s_partial = sum((sum(e.s_terms, Fraction(0)) for e in entries), Fraction(0))
    m_partial = sum(
        (sum((a + b for a, b in e.m_terms), Fraction(0)) for e in entries), Fraction(0)
    )
    f_partial = sum((sum(e.f_terms, Fraction(0)) for e in entries), Fraction(0))
    return SeriesReport(n_max, tuple(entries), s_partial, m_partial, f_partial)


def series_term(n: int, i: int, kind: str, band=None) -> Fraction:
    """One ledger entry: kind in {"S", "Mp", "Mpp", "F"}.

    ``band(n, i) -> BandResult`` is the band source; None means
    ``compute_band``.  S, M' and M'' read band (n, i); F reads the bands
    that feed kind (n, i).
    """
    source = compute_band if band is None else band
    if kind == "F":
        return _f_term(n, i, source)
    if kind in ("S", "Mp", "Mpp"):
        result = source(n, i)
        return {"S": result.s_term, "Mp": result.m_prime, "Mpp": result.m_double_prime}[kind]
    raise ValueError(f"unknown series term kind {kind!r}")
