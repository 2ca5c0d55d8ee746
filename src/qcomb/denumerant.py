"""Sylvester denumerants and the signed coefficients of prod (1 - t^i).

D_w(m) counts representations of m as a nonnegative integer combination of
the weights w.  The signed coefficients psi_n(r) of
f_n(t) = (1-t)(1-t^2)...(1-t^n) tie denumerants to inversion counting: the
inversion distribution of words with block content e is the convolution of
psi_n with the denumerant of the per-block weight vector.

psi_n(r) is computable four ways (signed subset sums, direct expansion of
f_n, Euler's pentagonal shortcut for r <= n, and exponentiating the
logarithmic series built from restricted divisor sums); all four are exposed
and cross-validated.  The direct expansion reads the upper half of f_n off
the lower one, since psi_n(n(n+1)/2 - r) = (-1)^n psi_n(r).  The psi-weighted
binomial sums behind `inv_bounds` call `math.comb` twice, once for the plain
and once for the eta-stretched binomials, and step each to the next term by
C(N-1, r) = C(N, r) (N-r) / N, an exact small multiply and divide.

The module exports results, not checks.  The signed-subset identity (f_r
times the series of D_w is the sum over subsets T of [r] of (-1)^|T| D_w
shifted by sum(T)) and the quasi-polynomiality of D_w are compared in their
`verify` rows (`qcomb.verification`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import DEFAULT_CAP, ValidationError, check_cap, frozen, require_int, require_ints
from .polycore import _mirrored_prefix, factor_product
from .qanalogue import FlagShape, _ramp

if TYPE_CHECKING:
    from fractions import Fraction

PSI_METHODS = ("subset-oracle", "fn-coefficients", "pentagonal", "exp-log")


@frozen
class WeightVector:
    """A tuple of positive integer weights."""

    weights: tuple[int, ...]

    def __init__(self, weights: Sequence[int]):
        data = require_ints(weights, "weights", 1)
        if not data:
            raise ValidationError("weights must be a nonempty tuple of positive integers, got ()")
        object.__setattr__(self, "weights", data)

    @classmethod
    def ones(cls, n: int) -> WeightVector:
        return cls((1,) * require_int(n, "n", 1))


@frozen
class PsiTable:
    """All coefficients of f_n(t) = (1-t)(1-t^2)...(1-t^n), indices 0..n(n+1)/2."""

    n: int
    values: tuple[int, ...]

    def __init__(self, n: int, values: tuple[int, ...]):
        n, values = require_int(n, "PsiTable n", 1), require_ints(values, "psi values")
        if len(values) != n * (n + 1) // 2 + 1:
            raise ValidationError("PsiTable has the wrong length for its n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @classmethod
    def for_n(cls, n: int) -> PsiTable:
        n = require_int(n, "PsiTable n", 1)
        return cls(n, tuple(psi_prefix(n, n * (n + 1) // 2)))

    def value(self, r: int) -> int:
        if 0 <= r < len(self.values):
            return self.values[r]
        return 0


def psi_prefix(n: int, order: int) -> list[int]:
    """psi_n(0), ..., psi_n(order): the coefficients of f_n(t) through t^order.

    Factors (1 - t^i) with i > order cannot reach t^order, so only the first
    min(n, order) are expanded.  f_n has degree top = n(n+1)/2 and
    psi_n(top - r) = (-1)^n psi_n(r), so past t^(top // 2) the coefficients
    are mirrored, not expanded.
    """
    n, order = require_int(n, "psi n", 0), require_int(order, "truncation order", 0)
    top = n * (n + 1) // 2
    return _mirrored_prefix(range(1, min(n, order) + 1), (), top, order, -1 if n % 2 else 1)


def denumerant(w: WeightVector, m: int) -> int:
    """Number of ways to write m as a nonnegative combination of the weights; 0 for m < 0."""
    if (m := require_int(m, "m")) < 0:
        return 0
    return factor_product((), w.weights, m)[m]


def epsilon_weights(shape: FlagShape) -> WeightVector:
    """Per-block ramp weights: block of size e contributes 1, 2, ..., e."""
    return WeightVector(_ramp(shape, shape.n))


def restricted_divisor_sum(n: int, k: int) -> int:
    """Sum of the divisors of k that are at most n."""
    return _divisor_sum(require_int(n, "divisor bound", 1), require_int(k, "k", 1))


def _divisor_sum(n: int, k: int) -> int:
    return sum(d for d in range(1, min(n, k) + 1) if k % d == 0)


@lru_cache(maxsize=None)
def _subset_signed_histogram(n: int) -> tuple[int, ...]:
    # hist[r] = sum over subsets T of [n] with element sum r of (-1)^|T|.
    # A Gray-code walk visits the 2^(n-1) subsets T of {2..n}: step s toggles
    # element i = (s & -s).bit_length() + 1, so the sum and the sign change in
    # O(1); step[i] is +i while i is out of T and -i while it is in.  Each step
    # also counts T + {1}, whose sum is one more and whose sign is the opposite.
    if n == 0:
        return (1,)
    hist = [0] * (n * (n + 1) // 2 + 1)
    hist[0] = 1
    hist[1] = -1
    step = list(range(n + 1))
    total = 0
    sign = 1
    for s in range(1, 1 << (n - 1)):
        i = (s & -s).bit_length() + 1
        total += step[i]
        step[i] = -step[i]
        sign = -sign
        hist[total] += sign
        hist[total + 1] -= sign
    return tuple(hist)


def _exp_log_coefficients(n: int, top: int) -> list[int]:
    # exp of L(t) = -sum_k (sigma_k / k) t^k, via m*e_m = -sum_j sigma_j e_{m-j} in integers
    sigma = [_divisor_sum(n, k) for k in range(1, top + 1)]
    coeffs = [1]
    for m in range(1, top + 1):
        value, rest = divmod(-sum(map(mul, sigma[:m], reversed(coeffs))), m)
        if rest:
            raise RuntimeError(f"exp-log series produced a non-integer psi_{n}({m})")
        coeffs.append(value)
    return coeffs


def psi(n: int, r: int, method: str = "fn-coefficients", cap: int = DEFAULT_CAP) -> int:
    """Coefficient of t^r in (1-t)(1-t^2)...(1-t^n), by the chosen route.

    The pentagonal route is only valid for 1 <= r <= n; the subset oracle
    enumerates 2^n signed subsets under the cap, which every route checks; the
    exp-log route works in integers and insists that each step divide exactly.
    """
    n, r, cap = require_int(n, "psi n", 1), require_int(r, "psi index"), require_int(cap, "cap", 1)
    if method not in PSI_METHODS:
        raise ValidationError(f"unknown psi method {method!r}; choose from {PSI_METHODS}")
    top = n * (n + 1) // 2
    if method == "pentagonal":
        if not 1 <= r <= n:
            raise ValidationError("the pentagonal shortcut is only valid for 1 <= r <= n")
        s = 1
        while s * (3 * s - 1) <= 2 * r:
            if 2 * r in (s * (3 * s - 1), s * (3 * s + 1)):
                return -1 if s & 1 else 1
            s += 1
        return 0
    if r < 0 or r > top:
        return 0
    if method == "fn-coefficients":  # psi_n(top - r) = (-1)^n psi_n(r): read the shorter side
        value = psi_prefix(n, min(r, top - r))[-1]
        return -value if n % 2 and 2 * r > top else value
    if method == "subset-oracle":
        check_cap(cap, "signed subset enumeration", n)
        return _subset_signed_histogram(n)[r]
    return _exp_log_coefficients(n, r)[r]


def mahonian_via_denumerant(shape: FlagShape, k: int) -> int:
    """Count words of the given block content with exactly k inversions,
    via the convolution of psi with the per-block ramp denumerant; 0 for k > nu."""
    if (k := require_int(k, "inversion count", 0)) > shape.nu:
        return 0
    coeffs = psi_prefix(shape.n, k)
    series = factor_product((), _ramp(shape, k), k)  # weights past t^k cannot reach it
    return sum(c * series[k - i] for i, c in enumerate(coeffs))


def _psi_binomial_sums(n: int, k: int, eta: int) -> tuple[int, int]:
    # sum_{i <= k} psi_n(i) C(n-1+k-i, n-1) over the nonzero psi_n(i), twice: with
    # the binomials of the negative psi_n(i), then of the positive ones, stretched
    # to C(n-1+eta+k-i, n-1).  At eta = 0 both count permutations with k inversions.
    # Each binomial comes from the one before by C(N-1, r) = C(N, r) (N-r) / N,
    # r = n - 1, one exact small multiply and divide per i, zero psi_n(i) or not.
    k, r = require_int(k, "inversion count", 0), n - 1
    plain = math.comb(r + k, r)
    stretched = math.comb(r + eta + k, r)
    first = second = 0
    for i, c in enumerate(psi_prefix(n, min(k, n * (n + 1) // 2))):
        if i:  # from N = r + k - i + 1 (plain) and N + eta (stretched)
            plain = plain * (k - i + 1) // (r + k - i + 1)
            stretched = stretched * (eta + k - i + 1) // (r + eta + k - i + 1)
        if c > 0:
            first += c * plain
            second += c * stretched
        elif c:
            first += c * stretched
            second += c * plain
    return first, second


def full_mahonian_via_binomials(n: int, k: int) -> int:
    """Permutations of [n] with exactly k inversions, as a psi-weighted sum of binomials."""
    return _psi_binomial_sums(require_int(n, "n", 1), k, 0)[0]


def denumerant_bounds(shape: FlagShape, m: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds sandwiching the ramp-weight denumerant:

        binom(n-1+m, n-1)/prod(e_i!) <= D(m) <= binom(n-1+eta+m, n-1)/prod(e_i!)
    """
    m, r = require_int(m, "m", 0), shape.n - 1
    return _over_block_factorials(shape, math.comb(r + m, r), math.comb(r + shape.eta + m, r))


def _over_block_factorials(shape: FlagShape, lower: int, upper: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) / prod(e_i!) over the blocks of `shape`, as exact fractions."""
    from fractions import Fraction
    divisor = math.prod(math.factorial(e) for e in shape.block_sizes)
    return Fraction(lower, divisor), Fraction(upper, divisor)
