"""Exact arithmetic substrate: dense integer polynomials and truncated series.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
constant term first; ``IntPoly((1, 0, 2))`` is ``1 + 2x^2``.  A truncated
series is the list of its ``order + 1`` coefficients through t^order, as
`factor_product` returns it; nothing past the order is computed.
`factor_product` expands truncated products of factors (1 - t^k)^{+-1}, the
kernel behind every closed form in the package.  Many of those products are
palindromic (or antipalindromic) polynomials: `_mirrored_prefix` expands such
a product only through half its degree and reads the upper half off the lower
one.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable

from .errors import ValidationError, frozen

# Degree reported for the zero polynomial: a sentinel strictly below every
# attainable degree, so degree comparisons never need a special case.
ZERO_DEGREE = -1


@frozen
class IntPoly:
    """Dense polynomial with integer coefficients.

    >>> IntPoly((1, 1)) * IntPoly((1, 1, 1))
    IntPoly((1, 2, 2, 1))
    >>> IntPoly((1, 1, 2, 1, 1)).eval_at(2)
    35
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        trimmed = [int(c) for c in coeffs]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> IntPoly:
        if power < 0:
            raise ValidationError("monomial power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Index of the last stored coefficient; ZERO_DEGREE for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of x^i, zero outside the stored range."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def eval_at(self, q: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def exact_quotient(self, divisor: IntPoly) -> IntPoly:
        """Exact polynomial division; rejects any nonzero remainder.

        >>> IntPoly((1, 2, 2, 1)).exact_quotient(IntPoly((1, 1)))
        IntPoly((1, 1, 1))
        """
        if divisor.is_zero():
            raise ValidationError("division by the zero polynomial")
        if self.is_zero():
            return IntPoly.zero()
        if self.degree < divisor.degree:
            raise ValidationError("quotient is not a polynomial: degree too small")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dd = divisor.degree
        out = [0] * (self.degree - dd + 1)
        for k in range(len(out) - 1, -1, -1):
            head = rem[k + dd]
            if head % lead != 0:
                raise ValidationError("division is not exact")
            q = head // lead
            out[k] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[k + j] -= q * c
        if any(rem):
            raise ValidationError("division is not exact")
        return IntPoly(out)


# No caller in the package; perfbench/spans.py still looks the class up by name.
@frozen
class TruncatedSeries:
    """Formal power series known exactly through t^order, nothing beyond."""

    coeffs: tuple[int, ...]
    order: int

    def __init__(self, coeffs: Iterable[int], order: int):
        data = tuple(int(c) for c in coeffs)
        if order < 0:
            raise ValidationError("truncation order must be nonnegative")
        if len(data) != order + 1:
            raise ValidationError(
                f"series of order {order} needs {order + 1} coefficients, got {len(data)}"
            )
        object.__setattr__(self, "coeffs", data)
        object.__setattr__(self, "order", order)


def factor_product(num: Iterable[int], den: Iterable[int], order: int) -> list[int]:
    """Coefficients through t^order of prod_{a in num} (1 - t^a) / prod_{b in den} (1 - t^b).

    Multiplying by (1 - t^a) subtracts the series shifted by a; dividing by
    (1 - t^b) takes running sums along each residue class mod b.  Each factor
    costs O(order) exact integer additions.

    >>> factor_product((2, 3), (1, 1), 6)
    [1, 2, 2, 1, 0, 0, 0]
    """
    num, den = tuple(num), tuple(den)
    if order < 0:
        raise ValidationError("truncation order must be nonnegative")
    if min(num + den, default=1) < 1:
        raise ValidationError(f"factor exponents must be positive integers, got {min(num + den)}")
    out = [1] + [0] * order
    for a in num:
        out[a:] = map(operator.sub, out[a:], out[:-a])
    for b in den:
        for r in range(min(b, order + 1)):
            out[r::b] = itertools.accumulate(out[r::b])
    return out


def _mirrored_prefix(
    num: Iterable[int], den: Iterable[int], degree: int, order: int, sign: int = 1
) -> list[int]:
    """`factor_product(num, den, order)` for a polynomial product of the given
    degree whose coefficients satisfy c[degree - i] = sign * c[i].

    Only c[0..degree // 2] is expanded; the rest is that half mirrored (negated
    when sign = -1), then zeros past the degree.

    >>> _mirrored_prefix((3, 4), (1, 2), 4, 6)
    [1, 1, 2, 1, 1, 0, 0]
    >>> _mirrored_prefix((1, 2, 3), (), 6, 7, sign=-1)
    [1, -1, -1, 0, 1, 1, -1, 0]
    """
    half = degree // 2
    if order <= half:
        return factor_product(num, den, order)
    low = factor_product(num, den, half)
    out = low + [sign * c for c in reversed(low[: degree - half])]
    return out[: order + 1] + [0] * (order - degree)
