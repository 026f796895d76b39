"""Bivariate polynomials and affine forms in the parameters (u, v).

``Polynomial2`` is a sparse exact polynomial: a map from exponent pairs
(degree in u, degree in v) to nonzero rational coefficients.  ``AffineForm``
is the degree-(1,1)-truncated special case c + cu*u + cv*v used for divisor
coefficients and chamber boundaries; affine forms are closed under the
linear algebra the decomposition engine performs.

Both are frozen slotted dataclasses: immutable after construction, safe to
share, and they copy, deep-copy and pickle like any value.  Each keeps its
own coercing ``__init__`` so that a field is written once per construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .rationals import format_rational, rat

_ZERO = Fraction(0)

# sanity threshold, not a hard limit: paper scenarios stay within degree 6
_DEGREE_WARN = 6


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polynomial2:
    """Exact sparse polynomial in u and v with rational coefficients."""

    terms: dict[tuple[int, int], Fraction]

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (du, dv), coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[(int(du), int(dv))] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Polynomial2":
        return cls({(0, 0): rat(c)})

    @classmethod
    def var_u(cls) -> "Polynomial2":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_v(cls) -> "Polynomial2":
        return cls({(0, 1): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def degrees(self) -> tuple[int, int]:
        if not self.terms:
            return (0, 0)
        return (max(e[0] for e in self.terms), max(e[1] for e in self.terms))

    def has_v(self) -> bool:
        return any(e[1] for e in self.terms)

    def coefficient(self, du: int, dv: int) -> Fraction:
        return self.terms.get((du, dv), _ZERO)

    def __call__(self, u, v) -> Fraction:
        u = rat(u)
        v = rat(v)
        total = _ZERO
        for (du, dv), coeff in self.terms.items():
            total += coeff * u**du * v**dv
        return total

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial2") -> "Polynomial2":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, _ZERO) + coeff
        return Polynomial2(out)

    def __sub__(self, other: "Polynomial2") -> "Polynomial2":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, _ZERO) - coeff
        return Polynomial2(out)

    def __mul__(self, other) -> "Polynomial2":
        if isinstance(other, AffineForm):
            other = other.to_poly()
        if isinstance(other, Polynomial2):
            out: dict[tuple[int, int], Fraction] = {}
            for (a, b), ca in self.terms.items():
                for (c, d), cb in other.terms.items():
                    exp = (a + c, b + d)
                    out[exp] = out.get(exp, _ZERO) + ca * cb
            return Polynomial2(out)
        scalar = rat(other)
        return Polynomial2({e: c * scalar for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __hash__(self):  # the terms field is a dict
        return hash(frozenset(self.terms.items()))

    def eval_u(self, u) -> "Polynomial2":
        """Substitute a rational value for u, leaving a polynomial in v."""
        u = rat(u)
        out: dict[tuple[int, int], Fraction] = {}
        for (du, dv), coeff in self.terms.items():
            exp = (0, dv)
            out[exp] = out.get(exp, _ZERO) + coeff * u**du
        return Polynomial2(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (du, dv) in sorted(self.terms):
            coeff = self.terms[(du, dv)]
            mono = "".join(
                (f"*u^{du}" if du > 1 else "*u" if du == 1 else "",
                 f"*v^{dv}" if dv > 1 else "*v" if dv == 1 else "")
            )
            parts.append(f"{format_rational(coeff)}{mono}")
        return " + ".join(parts)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class AffineForm:
    """c + cu*u + cv*v with exact rational coefficients."""

    c: Fraction
    cu: Fraction
    cv: Fraction

    def __init__(self, c=0, cu=0, cv=0):
        object.__setattr__(self, "c", rat(c))
        object.__setattr__(self, "cu", rat(cu))
        object.__setattr__(self, "cv", rat(cv))

    def __call__(self, u, v) -> Fraction:
        return self.c + self.cu * rat(u) + self.cv * rat(v)

    def is_zero(self) -> bool:
        return not (self.c or self.cu or self.cv)

    def is_constant(self) -> bool:
        return not (self.cu or self.cv)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(self.c + other.c, self.cu + other.cu, self.cv + other.cv)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(self.c - other.c, self.cu - other.cu, self.cv - other.cv)

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.c, -self.cu, -self.cv)

    def __mul__(self, other) -> "AffineForm | Polynomial2":
        if isinstance(other, AffineForm):
            return self.to_poly() * other.to_poly()
        if isinstance(other, Polynomial2):
            return self.to_poly() * other
        scalar = rat(other)
        return AffineForm(self.c * scalar, self.cu * scalar, self.cv * scalar)

    __rmul__ = __mul__

    def to_poly(self) -> Polynomial2:
        return Polynomial2({(0, 0): self.c, (1, 0): self.cu, (0, 1): self.cv})

    def __repr__(self):
        parts = []
        if self.c or not (self.cu or self.cv):
            parts.append(format_rational(self.c))
        if self.cu:
            parts.append(f"{format_rational(self.cu)}*u")
        if self.cv:
            parts.append(f"{format_rational(self.cv)}*v")
        return " + ".join(parts)


def poly_from_terms(entries: Iterable[tuple[int, int, object]]) -> Polynomial2:
    """Build a polynomial from (deg_u, deg_v, coefficient) triples.

    This is the path from scenario files to polynomials, so it is where an
    implausibly high degree is flagged.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for du, dv, coeff in entries:
        out[(du, dv)] = out.get((du, dv), _ZERO) + rat(coeff)
    poly = Polynomial2(out)
    deg_u, deg_v = poly.degrees()
    if deg_u > _DEGREE_WARN or deg_v > _DEGREE_WARN:
        warnings.warn(
            f"polynomial degree ({deg_u}, {deg_v}) exceeds the sanity threshold",
            stacklevel=2,
        )
    return poly


def integrate_interval(p: Polynomial2, a, b) -> Fraction:
    """Exact value of the definite integral of a univariate p(u) over [a, b].

    Rejects polynomials with v-terms: the caller meant a double integral.
    """
    if p.has_v():
        raise ValueError("not univariate: polynomial has v-terms")
    a = rat(a)
    b = rat(b)
    if a > b:
        raise ValueError(f"empty interval: {a} > {b}")
    total = _ZERO
    for (du, _), coeff in p.terms.items():
        total += coeff * (b ** (du + 1) - a ** (du + 1)) / (du + 1)
    return total
