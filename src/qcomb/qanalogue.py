"""q-integers, q-factorials, q-binomial and q-multinomial coefficients.

The q-binomial and q-multinomial coefficients are truncated products of
factors (1 - x^k)^{+-1}, expanded by the kernel `factor_product`:

    qbinom(n, e) = prod_{i=n-e+1}^{n} (1 - x^i) / prod_{j=1}^{e} (1 - x^j)

The division is exact, so every coefficient is a nonnegative integer.  The
largest block's factorial is cancelled before expanding: qbinom uses
e <= n - e, and the q-multinomial [n]! / prod_i [e_i]! starts its numerator
at e_max + 1 and divides by the other blocks only.  Both are palindromes of
degree e(n - e) and nu, so only the lower half of a row is expanded and the
upper half is read off it (`polycore._mirrored_prefix`).  `q_multinomial_at`
evaluates a q-multinomial at an integer by the same cancelled product, without
the row; `q_binomial_at` is its two-block case.  The q-factorial is kept on
plain `IntPoly` products as the oracle the kernel is checked against, and
`verify` compares both with the Pascal-type recurrence
qbinom(n, e) = qbinom(n-1, e-1) + x^e * qbinom(n-1, e), and Horner on the
row with `q_binomial_at`.  Partition counting and bounded-multiset
enumeration provide independent oracles for the same coefficients.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .errors import DEFAULT_CAP, ValidationError, check_cap, frozen
from .polycore import IntPoly, _mirrored_prefix


@frozen
class FlagShape:
    """A dimension vector: n together with a strictly increasing cut sequence d.

    The cuts split [n] into r+1 consecutive blocks of sizes e_1, ..., e_{r+1};
    d may be empty (one block).  The top inversion number nu counts pairs of
    positions in distinct blocks, eta counts pairs inside a block.  Cuts,
    block sizes, sorted letters (the lex-first word), nu and eta are
    computed once.
    """

    n: int
    d: tuple[int, ...]

    def __init__(self, n: int, d: tuple[int, ...] | list[int] = ()):
        if n < 1:
            raise ValidationError(f"n must be a positive integer, got {n}")
        cuts = tuple(int(x) for x in d)
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
        letters = tuple(i for i, e in enumerate(sizes, start=1) for _ in range(e))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", cuts)
        object.__setattr__(self, "cuts", padded)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "sorted_letters", letters)
        object.__setattr__(self, "nu", (n * n - sum(e * e for e in sizes)) // 2)
        object.__setattr__(self, "eta", sum(e * (e - 1) // 2 for e in sizes))

    @classmethod
    def full(cls, n: int) -> FlagShape:
        """The complete cut sequence 1 < 2 < ... < n-1 (all blocks singletons)."""
        return cls(n, tuple(range(1, n)))

    @property
    def r(self) -> int:
        return len(self.d)

    def multinomial(self) -> int:
        """n! / prod(e_i!), the number of words of this block content."""
        total = math.factorial(self.n)
        for e in self.block_sizes:
            total //= math.factorial(e)
        return total


def all_shapes(n: int) -> Iterator[FlagShape]:
    """Every FlagShape on n, cut sequences in size-then-lex order."""
    for r in range(n):
        for d in itertools.combinations(range(1, n), r):
            yield FlagShape(n, d)


def q_int(n: int) -> IntPoly:
    """1 + x + ... + x^{n-1}; the zero polynomial for n = 0."""
    if n < 0:
        raise ValidationError("q_int requires a nonnegative integer")
    return IntPoly((1,) * n)


def q_factorial(n: int) -> IntPoly:
    """Product of q_int(1) ... q_int(n); the constant 1 for n = 0."""
    if n < 0:
        raise ValidationError("q_factorial requires a nonnegative integer")
    result = IntPoly.one()
    for m in range(1, n + 1):
        result = result * q_int(m)
    return result


def _binomial_lower(n: int, e: int) -> int:
    # validates a q-binomial's arguments and returns min(e, n - e)
    if n < 0 or e < 0:
        raise ValidationError("q_binomial requires nonnegative arguments")
    if e > n:
        raise ValidationError(f"q_binomial needs e <= n, got e={e}, n={n}")
    return min(e, n - e)


def q_binomial(n: int, e: int) -> IntPoly:
    """Gaussian binomial coefficient, degree e(n-e), positive coefficients."""
    e = _binomial_lower(n, e)
    degree = e * (n - e)
    return IntPoly(_mirrored_prefix(range(n - e + 1, n + 1), range(1, e + 1), degree, degree))


def q_binomial_at(n: int, e: int, q: int) -> int:
    """The Gaussian binomial coefficient evaluated at the integer q, without its row.

    For q = 0 and |q| >= 2 it is the two-block `q_multinomial_at` (at q = 0
    every factor is -1, so it gives 1); at q = 1 it is C(n, e), and at q = -1
    it is 0 when n is even and e odd, else C(n // 2, e // 2).

    >>> q_binomial_at(4, 2, 2), q_binomial_at(4, 2, -1), q_binomial_at(5, 2, -1)
    (35, 2, 2)
    """
    e = _binomial_lower(n, e)
    if q == 1:
        return math.comb(n, e)
    if q == -1:
        return 0 if n % 2 == 0 and e % 2 else math.comb(n // 2, e // 2)
    return q_multinomial_at(FlagShape(n, (e,)), q) if e else 1


def q_multinomial_at(shape: FlagShape, q: int) -> int:
    """The q-multinomial of `shape` evaluated at an integer q other than 1 and -1.

    [n]!/prod_i [e_i]! at q is prod_{j<=n} (q^j - 1) over prod_i prod_{j<=e_i} (q^j - 1).
    The largest block's factors cancel first, leaving j = e_max+1..n over the
    other blocks' factors, so the products stay the size of the answer; the
    division must be exact.

    >>> q_multinomial_at(FlagShape(3, (1, 2)), 2), q_multinomial_at(FlagShape(4, (2,)), -2)
    (21, 15)
    """
    *others, largest = sorted(shape.block_sizes)
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

    The largest block's [e_max]! cancels the first e_max factors of [n]!, so
    the numerator runs over e_max + 1..n and the denominator over the other
    blocks only.  The row is a palindrome of degree nu: past t^(nu // 2) it
    is mirrored, not expanded.
    """
    sizes = list(shape.block_sizes)
    largest = max(sizes)
    sizes.remove(largest)
    den = [j for e in sizes for j in range(1, e + 1)]
    return _mirrored_prefix(range(largest + 1, shape.n + 1), den, shape.nu, order)


@lru_cache(maxsize=None)
def partition_count(e: int, s: int, m: int) -> int:
    """Partitions of m into at most s parts, each part at most e."""
    if e < 0 or s < 0:
        raise ValidationError("partition bounds must be nonnegative")
    if m < 0:
        return 0
    if m == 0:
        return 1
    if e == 0 or s == 0:
        return 0
    # split on whether a part of size exactly e occurs
    return partition_count(e - 1, s, m) + partition_count(e, s - 1, m - e)


def multiset_sum_poly(e: int, s: int, cap: int = DEFAULT_CAP) -> IntPoly:
    """Sum of x^{sum(M)} over multisets M of at most s integers from [1, e].

    Enumerates all binom(e+s, e) such multisets, so the count is capped.
    """
    if e < 0 or s < 0:
        raise ValidationError("multiset bounds must be nonnegative")
    check_cap(math.comb(e + s, e), cap, "bounded-multiset enumeration")
    hist = [0] * (e * s + 1)
    for size in range(s + 1):
        for combo in itertools.combinations_with_replacement(range(1, e + 1), size):
            hist[sum(combo)] += 1
    return IntPoly(hist)
