"""Exact arithmetic substrate: dense integer polynomials and truncated series.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
constant term first; ``IntPoly((1, 0, 2))`` is ``1 + 2x^2``.  A truncated
series is the list of its ``order + 1`` coefficients through t^order, as
`factor_product` returns it; nothing past the order is computed.
`factor_product` expands truncated products of factors (1 - t^k)^{+-1}, the
kernel behind every closed form in the package.  It first pairs each
denominator b with an unused numerator a = k*b, k <= 4, by the identity
(1 - t^(kb)) / (1 - t^b) = 1 + t^b + ... + t^((k-1)b): k = 1 cancels the
pair, and k = 2..4 leaves a factor of k terms.  The numerators and those
factors run on a packed series: t becomes 2^w, the series one integer mod
2^(w(order+1)), and each factor a few shifts, additions and a mask.  A
factor whose coefficients have absolute sum k grows the largest
|coefficient| by at most ceil(log2 k) bits, so a width of bits(max |c|)
plus the summed growth plus 2 keeps them exact; the series is unpacked after
each batch of at most `PACKED_BATCH_BITS` bits of growth, and the unpaired
denominators take running sums on the list.  Many of those products are
palindromic (or antipalindromic) polynomials: `_mirrored_prefix` expands
such a product only through half its degree and reads the upper half off
the lower one.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Iterable

from .errors import ValidationError, frozen

# Degree reported for the zero polynomial: a sentinel strictly below every
# attainable degree, so degree comparisons never need a special case.
ZERO_DEGREE = -1

# Growth in bits of the largest |coefficient| that `factor_product` allows
# per packing of its series: the packed width grows by it, and decoding after
# each batch starts the next one from the real largest coefficient.
PACKED_BATCH_BITS = 128


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


class TruncatedSeries:
    """Unused: kept only because perfbench/spans.py looks it up (ROADMAP item 11)."""


def factor_product(num: Iterable[int], den: Iterable[int], order: int) -> list[int]:
    """Coefficients through t^order of prod_{a in num} (1 - t^a) / prod_{b in den} (1 - t^b).

    First each denominator b is paired with an unused numerator a = k*b,
    k <= 4 (`_pair`): (1 - t^(kb)) / (1 - t^b) = 1 + t^b + ... + t^((k-1)b),
    so k = 1 cancels the pair and k = 2..4 leaves one factor with k terms.
    The numerators and those factors are applied to a packed series
    (`_times_packed`), each at the cost of a few shifts, additions and a mask
    of one integer, not O(order) Python-level list operations.  A factor
    whose coefficients have absolute sum k grows the largest |coefficient|
    by at most ceil(log2 k) bits (1 for 1 - t^a and 1 + t^b, 2 for three and
    four terms); the factors go in batches whose growth adds up to at most
    `PACKED_BATCH_BITS`, and the digit width of each batch is bits(max |c|)
    + its growth + 2, which keeps them exact.  Dividing by an unpaired
    (1 - t^b) takes running sums along each residue class mod b.  A factor
    with a or b past the order cannot reach t^order and is skipped.

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
    den = [b for b in den if b <= order]
    if num and den:  # a dict per call is a cost to the many tiny calls
        packed, den = _pair(num, den)
    else:
        packed = [(a, 0) for a in num]
    # batch ends chosen greedily so that the growth of each batch, the
    # difference of two running totals, stays within PACKED_BATCH_BITS
    growth = list(itertools.accumulate(1 + (k > 2) for _, k in packed))
    start = done = 0
    while start < len(packed):
        end = bisect.bisect_right(growth, done + PACKED_BATCH_BITS)
        out = _times_packed(out, packed[start:end], growth[end - 1] - done, from_one=start == 0)
        start, done = end, growth[end - 1]
    for b in den:
        if b == 1:
            out = list(itertools.accumulate(out))
        else:
            for r in range(b):
                out[r::b] = itertools.accumulate(out[r::b])
    return out


def _pair(num: list[int], den: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Match each denominator b, largest first, to an unused numerator k*b,
    smallest k in 1..4 first.

    Returns the factors for `_times_packed`: (a, 0) for each unmatched
    numerator (1 - t^a) and (b, k) for each k >= 2 pair, whose quotient is
    1 + t^b + ... + t^((k-1)b); a k = 1 pair cancels.  Also returns the
    unmatched denominators.
    """
    free: dict[int, int] = {}
    for a in num:
        free[a] = free.get(a, 0) + 1
    paired, rest = [], []
    for b in sorted(den, reverse=True):
        for k in (1, 2, 3, 4):
            if free.get(k * b):
                free[k * b] -= 1
                if k > 1:
                    paired.append((b, k))
                break
        else:
            rest.append(b)
    return [(a, 0) for a, count in free.items() for _ in range(count)] + paired, rest


def _times_packed(
    series: list[int], factors: list[tuple[int, int]], growth: int, from_one: bool
) -> list[int]:
    """`series` times the `_pair` factors, through the same order.

    t is mapped to X = 2^w and the series held as one integer mod X^(order+1),
    so 1 - t^a is P - (P << a*w), masked, and 1 + t^b + ... + t^((k-1)b)
    sums k shifted copies (four as two steps of two).  Together the factors
    grow the largest |coefficient| by at most `growth` bits, so w =
    bits(max |c|) + growth + 2 (rounded up to whole bytes) keeps every result
    inside (-2^(w-1), 2^(w-1)) and the arithmetic exact.  The digits are
    signed: adding 2^(w-1) to each (the integer `bias`) makes them the bytes
    of one nonnegative integer.  With `from_one` the series is 1, so nothing
    needs encoding.
    """
    n = len(series)
    size = (max(map(abs, series)).bit_length() + growth + 9) // 8
    width = 8 * size
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    mask = (1 << (width * n)) - 1
    if from_one:
        p = 1
    else:
        digits = b"".join([(c + half).to_bytes(size, "little") for c in series])
        p = int.from_bytes(digits, "little") - bias
    for s, k in factors:
        shift = s * width
        if k == 0:
            p = (p - (p << shift)) & mask
        elif k == 2:
            p = (p + (p << shift)) & mask
        elif k == 3:
            q = p << shift
            p = (p + q + (q << shift)) & mask
        else:
            p += p << shift
            p = (p + (p << 2 * shift)) & mask
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
