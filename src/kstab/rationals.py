"""Exact rational scalars and their serialized string form.

Every number that flows through the engine is a ``fractions.Fraction``:
always in lowest terms, positive denominator, no rounding anywhere.
Floats appear only in the reporting layer (``format_decimal``).
"""

from __future__ import annotations

import decimal
from fractions import Fraction


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def parse_rational(s: str) -> Fraction:
    """Parse the serialized form "p/q" (or "p" when q = 1)."""
    text = s.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}: {exc}") from exc
    return value


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(q: Fraction, significant: int = 12) -> str:
    """Decimal approximation with a fixed number of significant digits.

    Deterministic (round-half-even on exact inputs), for report display only.
    """
    q = Fraction(q)
    ctx = decimal.Context(prec=significant, rounding=decimal.ROUND_HALF_EVEN)
    value = ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    return str(value)
