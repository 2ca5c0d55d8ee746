"""q-integers, q-factorials, q-binomial and q-multinomial coefficients.

The q-binomial and q-multinomial coefficients are truncated products of
factors (1 - x^k)^{+-1}, expanded by the kernel `factor_product`:

    qbinom(n, e) = prod_{i=n-e+1}^{n} (1 - x^i) / prod_{j=1}^{e} (1 - x^j)

The division is exact, so every coefficient is a nonnegative integer.  The
q-multinomial [n]! / prod_i [e_i]! hands the kernel all n numerator factors
and every block's denominators; the kernel pairs each denominator with a
numerator factor it divides, which cancels the largest block's [e_max]!
against the first e_max factors of [n]!.  qbinom is the two-block case, with
e <= n - e.  The row is a palindrome of degree nu, so only its lower half is
expanded and the upper half is read off it (`polycore._mirrored_prefix`).
`q_multinomial_at` evaluates a q-multinomial at any integer without the row:
by a product with the largest block cancelled, or at q = 1 and q = -1 by a
product of binomials.
`q_binomial_at` is its two-block case too, and `FlagShape.multinomial` its
value at q = 1.  The q-factorial is kept on plain `IntPoly` products as the
oracle the kernel is checked against, and `verify` compares both with the
Pascal-type recurrence qbinom(n, e) = qbinom(n-1, e-1) + x^e * qbinom(n-1, e),
and Horner on the row with `q_binomial_at`.  Partition counting and
bounded-multiset enumeration provide independent oracles for the same
coefficients.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .errors import DEFAULT_CAP, ValidationError, check_cap, frozen, require_int, require_ints
from .polycore import IntPoly, _mirrored_prefix

__all__ = [
    "FlagShape",
    "all_shapes",
    "multiset_sum_poly",
    "partition_count",
    "q_binomial",
    "q_binomial_at",
    "q_factorial",
    "q_int",
    "q_multinomial",
    "q_multinomial_at",
    "q_multinomial_prefix",
]


@frozen
class FlagShape:
    """A dimension vector: n together with a strictly increasing cut sequence d.

    The cuts split [n] into r+1 consecutive blocks of sizes e_1, ..., e_{r+1};
    d may be empty (one block).  The top inversion number nu counts pairs of
    positions in distinct blocks, eta counts pairs inside a block.  Cuts,
    block sizes, nu and eta are computed once; nothing derived is longer
    than r + 2, so a shape with a huge n stays small.
    """

    n: int
    d: tuple[int, ...]

    def __init__(self, n: int, d: tuple[int, ...] | list[int] = ()):
        n, cuts = require_int(n, "n", 1), require_ints(d, "cuts")
        prev = 0
        for x in cuts:
            if x <= prev:
                raise ValidationError(f"cut sequence must be strictly increasing, got {cuts}")
            prev = x
        if cuts and cuts[-1] >= n:
            raise ValidationError(
                f"cuts must stay below n={n}; drop a final cut equal to n instead"
            )
        padded = (0,) + cuts + (n,)  # 0 = d_0 < d_1 < ... < d_r < d_{r+1} = n
        sizes = tuple(b - a for a, b in zip(padded, padded[1:]))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", cuts)
        object.__setattr__(self, "cuts", padded)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "nu", (n * n - sum(e * e for e in sizes)) // 2)
        object.__setattr__(self, "eta", sum(e * (e - 1) // 2 for e in sizes))

    @classmethod
    def full(cls, n: int) -> FlagShape:
        """The complete cut sequence 1 < 2 < ... < n-1 (all blocks singletons)."""
        return cls(n, tuple(range(1, require_int(n, "n", 1))))

    @property
    def r(self) -> int:
        return len(self.d)

    def multinomial(self) -> int:
        """n! / prod(e_i!), the number of words of this block content: the q = 1 value."""
        return q_multinomial_at(self, 1)


def all_shapes(n: int) -> Iterator[FlagShape]:
    """Every FlagShape on n, cut sequences in size-then-lex order; none for n = 0."""
    n = require_int(n, "n", 0)
    for r in range(n):
        for d in itertools.combinations(range(1, n), r):
            yield FlagShape(n, d)


def q_int(n: int) -> IntPoly:
    """1 + x + ... + x^{n-1}; the zero polynomial for n = 0."""
    return IntPoly((1,) * require_int(n, "n", 0))


def q_factorial(n: int) -> IntPoly:
    """Product of q_int(1) ... q_int(n); the constant 1 for n = 0."""
    result = IntPoly.one()
    for m in range(1, require_int(n, "n", 0) + 1):
        result = result * q_int(m)
    return result


def _binomial_lower(n: int, e: int) -> int:
    # validates a q-binomial's arguments and returns min(e, n - e)
    n, e = require_int(n, "n", 0), require_int(e, "e", 0)
    if e > n:
        raise ValidationError(f"q_binomial needs e <= n, got e={e}, n={n}")
    return min(e, n - e)


def q_binomial(n: int, e: int) -> IntPoly:
    """Gaussian binomial coefficient, degree e(n-e): the two-block `q_multinomial`."""
    e = _binomial_lower(n, e)
    return q_multinomial(FlagShape(n, (e,))) if e else IntPoly.one()


def q_binomial_at(n: int, e: int, q: int) -> int:
    """The Gaussian binomial coefficient evaluated at the integer q, without its row:
    the two-block `q_multinomial_at`, and 1 for e = 0.

    >>> q_binomial_at(4, 2, 2), q_binomial_at(4, 2, -1), q_binomial_at(5, 2, -1)
    (35, 2, 2)
    """
    e, q = _binomial_lower(n, e), require_int(q, "q")
    return q_multinomial_at(FlagShape(n, (e,)), q) if e else 1


def q_multinomial_at(shape: FlagShape, q: int) -> int:
    """The q-multinomial of `shape` evaluated at the integer q.

    At q = 1 it is n!/prod_i e_i!, the product over i of C(e_1 + ... + e_i, e_i).
    At q = -1 it is 0 when two or more blocks are odd, else the q = 1 value of
    the halves e_i // 2 (the q-Lucas theorem at the primitive square root of
    unity).  At any other q, [n]!/prod_i [e_i]! is prod_{j<=n} (q^j - 1) over
    prod_i prod_{j<=e_i} (q^j - 1).  The largest block's factors cancel first,
    leaving j = e_max+1..n over the other blocks' factors, so the products stay
    the size of the answer; the division must be exact.

    >>> [q_multinomial_at(FlagShape(4, (2,)), q) for q in range(-2, 3)]
    [15, 2, 1, 6, 35]
    >>> [q_multinomial_at(FlagShape(3, (1, 2)), q) for q in range(-2, 3)]
    [-3, 0, 1, 6, 21]
    """
    sizes, q = shape.block_sizes, require_int(q, "q")
    if q == -1:
        if sum(e % 2 for e in sizes) > 1:
            return 0
        sizes, q = [e // 2 for e in sizes], 1
    if q == 1:
        return math.prod(map(math.comb, itertools.accumulate(sizes), sizes))
    *others, largest = sorted(sizes)
    top = math.prod(q**j - 1 for j in range(largest + 1, shape.n + 1))
    value, rest = divmod(top, math.prod(q**j - 1 for e in others for j in range(1, e + 1)))
    if rest:
        raise RuntimeError(f"q-multinomial product left a remainder for {shape} at q={q}")
    return value


def q_multinomial(shape: FlagShape) -> IntPoly:
    """[n]! / prod_i [e_i]! over the blocks of `shape`; degree nu."""
    return IntPoly(q_multinomial_prefix(shape, shape.nu))


def q_multinomial_prefix(shape: FlagShape, order: int) -> list[int]:
    """Coefficients of the q-multinomial of `shape` through t^order.

    The numerator runs over 1..n and the denominator over every block;
    `factor_product` pairs them, so the largest block's [e_max]! cancels the
    first e_max factors of [n]! there.  Factors past the order are left out.
    The row is a palindrome of degree nu: past t^(nu // 2) it is mirrored, not
    expanded.
    """
    order = require_int(order, "truncation order", 0)
    return _mirrored_prefix(range(1, min(shape.n, order) + 1), _ramp(shape, order), shape.nu, order)


def _ramp(shape: FlagShape, order: int) -> list[int]:
    """The exponents 1, 2, ..., e of each block of size e, less those past `order`."""
    return [j for e in shape.block_sizes for j in range(1, min(e, order) + 1)]


def partition_count(e: int, s: int, m: int) -> int:
    """Partitions of m into at most s parts, each part at most e; 0 for m < 0."""
    return _partition_count(require_int(e, "e", 0), require_int(s, "s", 0), require_int(m, "m"))


@lru_cache(maxsize=None)
def _partition_count(e: int, s: int, m: int) -> int:
    if m < 0:
        return 0
    if m == 0:
        return 1
    if e == 0 or s == 0:
        return 0
    # split on whether a part of size exactly e occurs
    return _partition_count(e - 1, s, m) + _partition_count(e, s - 1, m - e)


def multiset_sum_poly(e: int, s: int, cap: int = DEFAULT_CAP) -> IntPoly:
    """Sum of x^{sum(M)} over multisets M of at most s integers from [1, e].

    Enumerates all binom(e+s, e) such multisets, so the count is capped.  A
    depth-first walk over their non-increasing listings visits each multiset
    once, in O(1): it carries the running sum, the largest part still allowed
    and the room left, on an explicit stack, since s may be far deeper than
    the recursion limit.  Below a node whose largest allowed part is 1 the
    multisets add ones only, so it counts them in a flat loop.
    """
    e, s = require_int(e, "e", 0), require_int(s, "s", 0)
    check_cap(cap, "bounded-multiset enumeration", min(e, s),  # binom(e+s, e) >= 2^min(e, s)
              lambda: math.comb(e + s, e))
    hist = [0] * (e * s + 1)
    stack = [(0, e, s)]  # the empty multiset
    while stack:
        total, largest, room = stack.pop()
        if largest == 1:  # the node itself, then 1, 2, ..., room more ones
            for t in range(total, total + room + 1):
                hist[t] += 1
            continue
        hist[total] += 1
        if room:
            stack.extend((total + part, part, room - 1) for part in range(1, largest + 1))
    return IntPoly(hist)
