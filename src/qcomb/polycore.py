"""Exact arithmetic substrate: dense integer polynomials and truncated series.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
constant term first; ``IntPoly((1, 0, 2))`` is ``1 + 2x^2``.  A truncated
series is the list of its ``order + 1`` coefficients through t^order, as
`factor_product` returns it; nothing past the order is computed.
`factor_product` expands truncated products of factors (1 - t^k)^{+-1}, the
kernel behind every closed form in the package.  Its numerators run on a
packed series: t becomes 2^w, the series one integer mod 2^(w(order+1)),
and (1 - t^a) a shift, a subtraction and a mask.  Each factor at most
doubles the largest |coefficient|, so a width of bits(max |c|) plus the
number of factors plus 2 keeps them exact; the series is unpacked after
each batch of `NUMERATOR_BATCH` factors, and the denominators take running
sums on the list.  Many of those products are
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

# Numerator factors `factor_product` applies per packing of its series: the
# packed width grows by one bit per factor, and decoding after each batch
# starts the next one from the real largest coefficient.
NUMERATOR_BATCH = 128


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
        trimmed = list(map(int, coeffs))
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

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPoly(out)

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

    The numerators are applied to a packed series (`_times_numerators`), in
    batches of `NUMERATOR_BATCH`: each factor costs a shift, a subtraction
    and a mask of one integer, not O(order) Python-level list operations.
    A digit width of bits(max |c|) + batch size + 2 keeps them exact.
    Dividing by (1 - t^b) takes running sums along each residue class mod b.
    A factor with a or b past the order cannot reach t^order and is skipped.

    >>> factor_product((2, 3), (1, 1), 6)
    [1, 2, 2, 1, 0, 0, 0]
    """
    num, den = tuple(num), tuple(den)
    if order < 0:
        raise ValidationError("truncation order must be nonnegative")
    if min(num + den, default=1) < 1:
        raise ValidationError(f"factor exponents must be positive integers, got {min(num + den)}")
    # The list is allocated before any shift, so a row too long to hold ends
    # in MemoryError here, never in an OverflowError from a shift count.
    out = [1] + [0] * order
    num = [a for a in num if a <= order]
    for start in range(0, len(num), NUMERATOR_BATCH):
        out = _times_numerators(out, num[start : start + NUMERATOR_BATCH], from_one=start == 0)
    for b in den:
        if b <= order:
            for r in range(b):
                out[r::b] = itertools.accumulate(out[r::b])
    return out


def _times_numerators(series: list[int], exponents: list[int], from_one: bool) -> list[int]:
    """`series` times prod_{a in exponents} (1 - t^a), through the same order.

    t is mapped to X = 2^w and the series held as one integer mod X^(order+1),
    so (1 - t^a) is P - (P << a*w), masked.  A factor at most doubles the
    largest |coefficient|, so w = bits(max |c|) + len(exponents) + 2 (rounded
    up to whole bytes) keeps every result inside (-2^(w-1), 2^(w-1)) and the
    arithmetic exact.  The digits are signed: adding 2^(w-1) to each (the
    integer `bias`) makes them the bytes of one nonnegative integer.  With
    `from_one` the series is 1, so nothing needs encoding.
    """
    n = len(series)
    size = (max(map(abs, series)).bit_length() + len(exponents) + 9) // 8
    width = 8 * size
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    mask = (1 << (width * n)) - 1
    if from_one:
        p = 1
    else:
        digits = b"".join([(c + half).to_bytes(size, "little") for c in series])
        p = int.from_bytes(digits, "little") - bias
    for a in exponents:
        p = (p - (p << (a * width))) & mask
    digits = ((p + bias) & mask).to_bytes(size * n, "little")
    starts = range(0, size * n, size)
    return [int.from_bytes(digits[i : i + size], "little") - half for i in starts]


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
    mirror = low[: degree - half][::-1]
    out = low + (mirror if sign == 1 else list(map(operator.neg, mirror)))
    return out[: order + 1] + [0] * (order - degree)
