"""Multiset permutations, inversion counting, and inversion distributions.

The central object is the table I(shape; k): how many words with block
content e_1, ..., e_{r+1} have exactly k inversions.  It is read off the
q-multinomial coefficient; a brute-force enumeration oracle, a refinement
convolution recurrence, and rational upper/lower bounds are provided
alongside for cross-validation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import TYPE_CHECKING, Iterator, Sequence

from .denumerant import _over_block_factorials, _psi_binomial_sums
from .errors import DEFAULT_CAP, ValidationError, check_cap, frozen
from .polycore import IntPoly
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
        if sorted(data) != _first_word(shape):
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
        data = tuple(map(int, counts))
        nu = shape.nu
        if len(data) != nu + 1:
            raise ValidationError(f"table must cover 0..{nu}, got {len(data)} entries")
        if min(data) < 1:
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


def _first_word(shape: FlagShape) -> list[int]:
    # the lexicographically first word: letter i written e_i times, in order
    return [i for i, e in enumerate(shape.block_sizes, start=1) for _ in range(e)]


def enumerate_words(shape: FlagShape, cap: int = DEFAULT_CAP) -> Iterator[MultisetWord]:
    """Every word of the given block content, exactly once, in lexicographic order.

    Knuth's Algorithm L (TAOCP Vol. 4A, 7.2.1.2) steps from each word to the
    next: find the rightmost ascent a[j] < a[j+1], swap a[j] with the
    smallest larger letter to its right, and reverse the tail after j.  Words
    are built unchecked, by storing the two fields straight into each new
    instance's __dict__; test_enumerated_objects_match_public_constructors pins them.
    """
    check_cap(cap, "multiset word enumeration", shape.n - max(shape.block_sizes), shape.multinomial)
    a = _first_word(shape)
    last = len(a) - 1
    new, cls = object.__new__, MultisetWord
    while True:
        word = new(cls)
        fields = word.__dict__
        fields["letters"] = tuple(a)
        fields["shape"] = shape
        yield word
        j = last - 1
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = last
        while a[m] <= a[j]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1 :] = a[:j:-1]


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
    """Brute-force inversion histogram over every word, packed as a polynomial.
    Its nu + 1 entries are laid out only once the enumeration has passed its cap."""
    hist = Counter(map(inversion_count, enumerate_words(shape, cap=cap)))
    return IntPoly([hist[k] for k in range(shape.nu + 1)])


def mahonian_table(shape: FlagShape) -> MahonianTable:
    """Inversion counts read off the q-multinomial coefficient; no enumeration."""
    return MahonianTable(shape, q_multinomial_prefix(shape, shape.nu))


def mahonian_coefficient(shape: FlagShape, k: int) -> int:
    """I(shape; k) alone, 0 outside 0..nu.

    The row is a palindrome, so the q-multinomial is expanded only through
    t^min(k, nu - k).
    """
    if not 0 <= k <= shape.nu:
        return 0
    return q_multinomial_prefix(shape, min(k, shape.nu - k))[-1]


def full_mahonian(n: int) -> MahonianTable:
    """Inversion counts of plain permutations of [n]: the table of the full shape."""
    return mahonian_table(FlagShape.full(n))


def is_refinement(shape: FlagShape, refined: FlagShape) -> bool:
    """True iff the refined cut sequence contains every cut of `shape`."""
    return shape.n == refined.n and set(shape.d) <= set(refined.d)


def refinement_recurrence(shape: FlagShape, refined: FlagShape) -> MahonianTable:
    """Recover the inversion table of `shape` from that of a refinement.

    Splitting each block of `shape` along the refined cuts factorizes the
    refined distribution as (distribution of shape) * (product of the
    within-block distributions).  Dividing the refined row by that product,
    which must leave no remainder, recovers the coarse table.
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
    return MahonianTable(shape, IntPoly(base.counts).exact_quotient(convolver).coeffs)


def inv_bounds(shape: FlagShape, k: int) -> tuple[Fraction, Fraction]:
    """Exact rational lower/upper estimates for the inversion count I(shape; k).

    Splitting the psi coefficients by sign and stretching one side's
    binomials by eta gives a lower estimate; exchanging the two sides gives
    the upper one.  With all blocks singletons (eta = 0) the two coincide
    with the exact count, the sum `full_mahonian_via_binomials` reads.
    """
    return _over_block_factorials(shape, *_psi_binomial_sums(shape.n, k, shape.eta))


def log_concavity_scan(seq: Sequence[int]) -> list[int]:
    """Indices k with seq[k]^2 < seq[k-1] * seq[k+1]; empty means log-concave."""
    return [
        k for k in range(1, len(seq) - 1) if seq[k] * seq[k] < seq[k - 1] * seq[k + 1]
    ]
