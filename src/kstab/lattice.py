"""Curve-class lattices: exact intersection forms, divisor classes, negativity.

A ``CurveLattice`` is the finite universe of curves a scenario names, with a
symmetric rational Gram matrix (orbifold entries like -1/6 are permitted).
Distinct curves must pair non-negatively: the support closure of the Zariski
decomposition relies on it.
Nefness and pseudoeffectivity everywhere in this package are relative to
this declared universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import AffineForm
from .rationals import rat


class LatticeError(ValueError):
    pass


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CurveLattice:
    """Named curve classes with a symmetric rational intersection form.

    A frozen dataclass: it compares by value, copies and pickles.  The
    constructor checks shape, symmetry, distinct names and that distinct
    curves pair non-negatively.
    """

    names: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, names: Sequence[str], gram: Sequence[Sequence]):
        names = tuple(str(n) for n in names)
        matrix = tuple(tuple(rat(x) for x in row) for row in gram)
        n = len(names)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise LatticeError(f"gram matrix shape does not match {n} curve names")
        for i in range(n):
            for j in range(i):
                if matrix[i][j] != matrix[j][i]:
                    raise LatticeError(
                        f"gram matrix is not symmetric at ({names[i]}, {names[j]})"
                    )
                if matrix[i][j] < 0:
                    raise LatticeError(
                        f"distinct curves {names[j]} and {names[i]} pair negatively"
                    )
        if len(set(names)) != n:
            raise LatticeError("duplicate curve names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "gram", matrix)

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


def submatrix(lat: CurveLattice, subset: Sequence[int]) -> list[list[Fraction]]:
    return [[lat.gram[i][j] for j in subset] for i in subset]


def is_negative_definite(lat: CurveLattice, subset: Sequence[int]) -> bool:
    """Sylvester test on the Gram submatrix: exact leading principal minors.

    Gaussian elimination without row swaps yields the leading minors as pivot
    products; a zero pivot already rules out definiteness.  The empty set is
    vacuously negative definite.
    """
    subset = list(subset)
    for i in subset:
        if not 0 <= i < lat.rank:
            raise LatticeError(f"curve index {i} out of range")
    if len(set(subset)) != len(subset):
        raise LatticeError("subset has repeated indices")
    k = len(subset)
    if k == 0:
        return True
    m = submatrix(lat, subset)
    minor = Fraction(1)
    for col in range(k):
        pivot = m[col][col]
        if pivot == 0:
            return False
        minor *= pivot
        #  (-1)^(col+1) * minor > 0  <=>  alternating sign pattern
        if minor * (-1) ** (col + 1) <= 0:
            return False
        for row in range(col + 1, k):
            factor = m[row][col] / pivot
            if factor:
                for j in range(col, k):
                    m[row][j] -= factor * m[col][j]
    return True


def solve_gram(matrix: Sequence[Sequence[Fraction]], rhs: Sequence):
    """Solve M x = rhs by exact Gaussian elimination with partial pivoting.

    rhs entries may be Fractions or AffineForms (anything closed under
    addition, subtraction, and rational scaling), so the same routine solves
    the pointwise and the parametric chamber systems.
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
