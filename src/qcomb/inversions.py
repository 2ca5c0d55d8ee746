"""Multiset permutations, inversion counting, and inversion distributions.

The central object is the table I(shape; k): how many words with block
content e_1, ..., e_{r+1} have exactly k inversions.  It is read off the
q-multinomial coefficient; a brute-force enumeration oracle, a refinement
convolution recurrence, and rational upper/lower bounds are provided
alongside for cross-validation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator, Sequence

from .denumerant import generalized_binomial, psi_prefix
from .errors import DEFAULT_CAP, ValidationError, check_cap, frozen
from .polycore import IntPoly, factor_product
from .qanalogue import FlagShape, q_multinomial, q_multinomial_prefix

if TYPE_CHECKING:
    from fractions import Fraction


@frozen
class MultisetWord:
    """A word in which letter i occurs exactly e_i times."""

    letters: tuple[int, ...]
    shape: FlagShape

    def __init__(self, letters: Sequence[int], shape: FlagShape):
        data = tuple(letters)
        if tuple(sorted(data)) != shape.sorted_letters:
            raise ValidationError(f"letters {data} do not have block content {shape.block_sizes}")
        object.__setattr__(self, "letters", data)
        object.__setattr__(self, "shape", shape)


@frozen
class MahonianTable:
    """Inversion counts by value: counts[k] words have exactly k inversions.

    Always a full row 0..nu, symmetric, everywhere positive, summing to the
    multinomial coefficient; construction enforces all of that.
    """

    shape: FlagShape
    counts: tuple[int, ...]

    def __init__(self, shape: FlagShape, counts: Sequence[int]):
        data = tuple(int(c) for c in counts)
        nu = shape.nu
        if len(data) != nu + 1:
            raise ValidationError(f"table must cover 0..{nu}, got {len(data)} entries")
        if any(c < 1 for c in data):
            raise ValidationError("inversion counts must be positive across 0..nu")
        if data != data[::-1]:
            raise ValidationError("inversion table must be symmetric")
        if sum(data) != shape.multinomial():
            raise ValidationError("inversion table must sum to the multinomial coefficient")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "counts", data)

    def value(self, k: int) -> int:
        if 0 <= k < len(self.counts):
            return self.counts[k]
        return 0


def enumerate_words(shape: FlagShape, cap: int = DEFAULT_CAP) -> Iterator[MultisetWord]:
    """Every word of the given block content, exactly once, in lexicographic order.

    Knuth's Algorithm L (TAOCP Vol. 4A, 7.2.1.2) steps from each word to the
    next: find the rightmost ascent a[j] < a[j+1], swap a[j] with the
    smallest larger letter to its right, and reverse the tail after j.
    """
    check_cap(shape.multinomial(), cap, "multiset word enumeration")
    a = list(shape.sorted_letters)
    while True:
        yield MultisetWord(a, shape)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(a) - 1
        while a[m] <= a[j]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1 :] = reversed(a[j + 1 :])


def inversion_count(word: MultisetWord | Sequence[int]) -> int:
    """Number of position pairs i < j whose letters satisfy w[i] > w[j].

    Reads the word right to left, keeping the letters seen so far sorted:
    each letter adds the number of smaller letters already seen, found by
    binary search.  The quadratic counter below is the oracle it is checked
    against.
    """
    letters = word.letters if isinstance(word, MultisetWord) else tuple(word)
    seen: list[int] = []
    total = 0
    for x in reversed(letters):
        i = bisect_left(seen, x)
        total += i
        seen.insert(i, x)
    return total


def inversion_count_quadratic(word: MultisetWord | Sequence[int]) -> int:
    """Direct O(n^2) pair scan."""
    letters = word.letters if isinstance(word, MultisetWord) else tuple(word)
    n = len(letters)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if letters[i] > letters[j]
    )


def inversion_distribution_oracle(shape: FlagShape, cap: int = DEFAULT_CAP) -> IntPoly:
    """Brute-force inversion histogram over every word, packed as a polynomial."""
    hist = [0] * (shape.nu + 1)
    for word in enumerate_words(shape, cap=cap):
        hist[inversion_count(word)] += 1
    return IntPoly(hist)


def mahonian_table(shape: FlagShape) -> MahonianTable:
    """Inversion counts read off the q-multinomial coefficient; no enumeration."""
    return MahonianTable(shape, q_multinomial(shape).coeffs)


def mahonian_coefficient(shape: FlagShape, k: int) -> int:
    """I(shape; k) alone, 0 outside 0..nu.

    The row is a palindrome, so the q-multinomial is expanded only through
    t^min(k, nu - k).
    """
    if not 0 <= k <= shape.nu:
        return 0
    return q_multinomial_prefix(shape, min(k, shape.nu - k))[-1]


def full_mahonian(n: int) -> MahonianTable:
    """Inversion counts of plain permutations of [n], via (1)(1+t)...(1+...+t^{n-1})."""
    if n < 1:
        raise ValidationError("n must be a positive integer")
    counts = factor_product(range(1, n + 1), (1,) * n, n * (n - 1) // 2)
    return MahonianTable(FlagShape.full(n), counts)


def is_refinement(shape: FlagShape, refined: FlagShape) -> bool:
    """True iff the refined cut sequence contains every cut of `shape`."""
    return shape.n == refined.n and set(shape.d) <= set(refined.d)


def refinement_recurrence(shape: FlagShape, refined: FlagShape) -> MahonianTable:
    """Recover the inversion table of `shape` from that of a refinement.

    Splitting each block of `shape` along the refined cuts factorizes the
    refined distribution as (distribution of shape) * (product of the
    within-block distributions).  Deconvolving by that product, whose
    constant term is 1, recovers the coarse table:

        I(shape; k) = I(refined; k) - sum_{m>=1} c_m * I(shape; k - m)
    """
    if not is_refinement(shape, refined):
        raise ValidationError("second shape does not refine the first")
    base = mahonian_table(refined)
    convolver = IntPoly.one()
    cuts = shape.cuts
    for i in range(shape.r + 1):
        lo, hi = cuts[i], cuts[i + 1]
        inner = tuple(x - lo for x in refined.d if lo < x < hi)
        convolver = convolver * q_multinomial(FlagShape(hi - lo, inner))
    recovered: list[int] = []
    for k in range(shape.nu + 1):
        value = base.value(k)
        for m in range(1, k + 1):
            value -= convolver.coefficient(m) * recovered[k - m]
        recovered.append(value)
    return MahonianTable(shape, recovered)


def inv_bounds(shape: FlagShape, k: int) -> tuple[Fraction, Fraction]:
    """Exact rational lower/upper estimates for the inversion count I(shape; k).

    Splitting the psi coefficients by sign and stretching one side's
    binomials by eta gives a lower estimate; exchanging the two index sets
    gives the upper one.  With all blocks singletons (eta = 0) the two
    coincide with the exact count.
    """
    from fractions import Fraction
    if k < 0:
        raise ValidationError("inversion count must be nonnegative")
    n = shape.n
    psi = psi_prefix(n, k)
    eta = shape.eta
    divisor = math.prod(math.factorial(e) for e in shape.block_sizes)
    plain = [generalized_binomial(n - 1 + k - i, n - 1) for i in range(k + 1)]
    shifted = [generalized_binomial(n - 1 + eta + k - i, n - 1) for i in range(k + 1)]
    positive = [i for i in range(k + 1) if psi[i] > 0]
    negative = [i for i in range(k + 1) if psi[i] < 0]
    lower = sum(psi[i] * plain[i] for i in positive) + sum(psi[i] * shifted[i] for i in negative)
    upper = sum(psi[i] * plain[i] for i in negative) + sum(psi[i] * shifted[i] for i in positive)
    return Fraction(lower, divisor), Fraction(upper, divisor)


def log_concavity_scan(seq: Sequence[int]) -> list[int]:
    """Indices k with seq[k]^2 < seq[k-1] * seq[k+1]; empty means log-concave."""
    return [
        k for k in range(1, len(seq) - 1) if seq[k] * seq[k] < seq[k - 1] * seq[k + 1]
    ]
