"""Curve-class lattices: exact intersection forms, divisor classes, negativity.

A ``CurveLattice`` is the finite universe of curves a scenario names, with a
symmetric rational Gram matrix (orbifold entries like -1/6 are permitted).
Distinct curves must pair non-negatively: the support closure of the Zariski
decomposition relies on it.
Nefness and pseudoeffectivity everywhere in this package are relative to
this declared universe.

A lattice's value is integers: ``scale`` (the lcm of its entry
denominators) and ``int_gram`` (the Gram matrix times ``scale``).  That form
is unique, so ``==``, the hash and pickling see the Gram values; ``gram`` is
the ``Fraction`` view, built on first read.  Integer entries, such as the
Picard Gram of a series band, go in without a ``Fraction``.

Negativity and the Gram solves run on ``int_gram``.  ``bareiss_solve`` is
one fraction-free elimination (Bareiss, Math. Comp. 1968) of
``[int_gram on S | R]``: every division in it is exact, its pivots are the
leading principal minors, so it doubles as Sylvester's test, and its
back-substitution returns det * solution as integers.  A caller divides
once, by one common denominator, per output.  ``solve_gram`` is the
``Fraction`` elimination kept as the exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .poly import AffineForm
from .rationals import rat


class LatticeError(ValueError):
    pass


@dataclass(frozen=True, init=False, repr=False)
class CurveLattice:
    """Named curve classes with a symmetric rational intersection form.

    A frozen dataclass: it compares by value, copies and pickles.  The
    Gram entry (i, j) is int_gram[i][j] / scale.  The constructor checks
    shape, symmetry, distinct names and that distinct curves pair
    non-negatively.
    """

    names: tuple[str, ...]
    scale: int  # the lcm of the entry denominators
    int_gram: tuple[tuple[int, ...], ...]

    def __init__(self, names: Sequence[str], gram: Sequence[Sequence]):
        names = tuple(str(n) for n in names)
        # an int is its own numerator over denominator 1
        matrix = [[x if type(x) is int else rat(x) for x in row] for row in gram]
        n = len(names)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise LatticeError(f"gram matrix shape does not match {n} curve names")
        scale = lcm(*(x.denominator for row in matrix for x in row))
        ints = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in matrix)
        for i in range(n):  # scale > 0: the int entries compare like the rationals
            for j in range(i):
                if ints[i][j] != ints[j][i]:
                    raise LatticeError(
                        f"gram matrix is not symmetric at ({names[i]}, {names[j]})"
                    )
                if ints[i][j] < 0:
                    raise LatticeError(
                        f"distinct curves {names[j]} and {names[i]} pair negatively"
                    )
        if len(set(names)) != n:
            raise LatticeError("duplicate curve names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "int_gram", ints)

    @cached_property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.int_gram)

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LatticeError(f"unknown curve {name!r}") from None

    def __repr__(self):
        return f"CurveLattice({', '.join(self.names)})"


@dataclass(frozen=True)
class DivisorClass:
    """Rational coefficients over the lattice basis."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Sequence) -> "DivisorClass":
        return cls(tuple(rat(c) for c in coeffs))

    @classmethod
    def zero(cls, rank: int) -> "DivisorClass":
        return cls((Fraction(0),) * rank)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def __mul__(self, scalar) -> "DivisorClass":
        s = rat(scalar)
        return DivisorClass(tuple(c * s for c in self.coefficients))

    __rmul__ = __mul__


@dataclass(frozen=True)
class ParametricDivisor:
    """Divisor class whose coefficients are affine forms in (u, v)."""

    coefficients: tuple[AffineForm, ...]

    @classmethod
    def of(cls, coeffs: Sequence[AffineForm]) -> "ParametricDivisor":
        return cls(tuple(coeffs))

    def at(self, u, v) -> DivisorClass:
        return DivisorClass(tuple(f(u, v) for f in self.coefficients))


def _check_rank(lat: CurveLattice, d) -> None:
    if len(d.coefficients) != lat.rank:
        raise LatticeError(
            f"rank mismatch: divisor has {len(d.coefficients)} coefficients, "
            f"lattice rank is {lat.rank}"
        )


def pair(lat: CurveLattice, a: DivisorClass, b: DivisorClass) -> Fraction:
    """a^T . gram . b, exactly."""
    _check_rank(lat, a)
    _check_rank(lat, b)
    total = Fraction(0)
    for i, ca in enumerate(a.coefficients):
        if not ca:
            continue
        row = lat.gram[i]
        for j, cb in enumerate(b.coefficients):
            if cb:
                total += ca * row[j] * cb
    return total


def pairing_form(lat: CurveLattice, d: ParametricDivisor, curve: int) -> AffineForm:
    """The affine form (d . C_curve)."""
    _check_rank(lat, d)
    if not 0 <= curve < lat.rank:
        raise LatticeError(f"curve index {curve} out of range")
    total = AffineForm(0, 0, 0)
    for i, form in enumerate(d.coefficients):
        g = lat.gram[i][curve]
        if g:
            total = total + form * g
    return total


def is_negative_definite(lat: CurveLattice, subset: Sequence[int]) -> bool:
    """Sylvester test on the Gram submatrix: exact leading principal minors.

    The minors are the pivots of ``bareiss_solve``; the empty set is
    vacuously negative definite.
    """
    subset = list(subset)
    for i in subset:
        if not 0 <= i < lat.rank:
            raise LatticeError(f"curve index {i} out of range")
    if len(set(subset)) != len(subset):
        raise LatticeError("subset has repeated indices")
    return bareiss_solve(lat, subset) is not None


def bareiss_solve(lat: CurveLattice, subset: Sequence[int], rhs: Sequence[Sequence[int]] = ()):
    """Fraction-free elimination of ``[int_gram on subset | rhs]``, no pivoting.

    ``subset`` holds distinct indices in range (``is_negative_definite``
    checks them; the engine's supports are built that way).  ``rhs`` holds
    one row of integers per subset entry (no rows: the test alone).  The
    k-th pivot is the k-th leading principal minor of the integer
    submatrix, which has the sign of the rational one (``scale`` is
    positive), so the elimination stops and returns ``None`` at the first
    minor that breaks the (-1)^k pattern of a negative definite matrix.
    Otherwise it returns ``(det, x)``: the determinant of the integer
    submatrix and the integer rows x = det * solution of
    ``int_gram_S x = rhs``, from the fraction-free back-substitution
    x_i = (det * rhs'_i - sum_{j>i} U_ij x_j) / U_ii, every division exact.
    """
    k = len(subset)
    width = len(rhs[0]) if rhs else 0
    rows = [
        [lat.int_gram[i][j] for j in subset] + (list(rhs[r]) if rhs else [])
        for r, i in enumerate(subset)
    ]
    prev = 1
    for p in range(k):
        pivot_row = rows[p]
        pivot = pivot_row[p]  # the (p+1)-th leading minor
        if (pivot if p % 2 else -pivot) <= 0:
            return None
        tail = pivot_row[p + 1:]
        for row in rows[p + 1:]:
            f = row[p]
            row[p + 1:] = [(pivot * a - f * b) // prev for a, b in zip(row[p + 1:], tail)]
        prev = pivot
    det = prev
    x: list[list[int]] = [[]] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        later = [(row[j], x[j]) for j in range(i + 1, k) if row[j]]
        x[i] = [
            (det * row[k + c] - sum(u * xj[c] for u, xj in later)) // row[i]
            for c in range(width)
        ]
    return det, x


def solve_gram(matrix: Sequence[Sequence[Fraction]], rhs: Sequence):
    """Solve M x = rhs by exact Gaussian elimination with partial pivoting.

    The ``Fraction`` reference for ``bareiss_solve``.  rhs entries may be
    Fractions or AffineForms (anything closed under addition, subtraction,
    and rational scaling).
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    b = list(rhs)
    if len(b) != n:
        raise LatticeError("solve_gram: shape mismatch")
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise LatticeError("singular Gram submatrix")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor:
                for j in range(col, n):
                    m[r][j] -= factor * m[col][j]
                b[r] = b[r] - b[col] * factor
    out = [None] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for j in range(row + 1, n):
            acc = acc - out[j] * m[row][j]
        out[row] = acc * (Fraction(1) / m[row][row])
    return out
