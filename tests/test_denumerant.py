import math
from fractions import Fraction

import pytest

from qcomb import (
    FlagShape,
    PsiTable,
    ResourceLimitError,
    ValidationError,
    WeightVector,
    all_shapes,
    denumerant,
    denumerant_bounds,
    epsilon_weights,
    full_mahonian_via_binomials,
    mahonian_table,
    mahonian_via_denumerant,
    psi,
    restricted_divisor_sum,
)
from qcomb.denumerant import _psi_binomial_sums, _subset_signed_histogram


def test_denumerant_examples():
    assert denumerant(WeightVector((1, 2)), 4) == 3
    assert denumerant(WeightVector((1, 2)), -3) == 0
    for w in [WeightVector((1, 2)), WeightVector((3, 5, 7)), WeightVector.ones(4)]:
        assert denumerant(w, 0) == 1


def test_weight_vector_validation():
    with pytest.raises(ValidationError):
        WeightVector((1, 0))
    with pytest.raises(ValidationError):
        WeightVector(())
    with pytest.raises(ValidationError):
        WeightVector((1.5, 2))  # not truncated to (1, 2)
    assert WeightVector((2.0, 3)).weights == (2, 3)


def test_epsilon_weights():
    assert epsilon_weights(FlagShape(4, (2,))).weights == (1, 2, 1, 2)
    assert epsilon_weights(FlagShape(5, ())).weights == (1, 2, 3, 4, 5)
    assert epsilon_weights(FlagShape(5, (2,))).weights == (1, 2, 1, 2, 3)
    for n in range(1, 8):
        assert epsilon_weights(FlagShape.full(n)).weights == (1,) * n


def test_psi_reference_values():
    for method in ("subset-oracle", "fn-coefficients", "exp-log"):
        assert psi(6, 5, method) == 1
        assert psi(6, 6, method) == 0
        assert psi(6, 7, method) == 2
    for n in range(1, 9):
        assert psi(n, 0) == 1
        assert psi(n, 1) == -1


def test_psi_pentagonal_cases():
    # within 1 <= r <= n the only surviving coefficients sit at r = s(3s+-1)/2
    for n in range(5, 10):
        expected = {1: -1, 2: -1, 5: 1, 7: 1}
        for r in range(1, n + 1):
            assert psi(n, r, "pentagonal") == expected.get(r, 0)
    with pytest.raises(ValidationError):
        psi(5, 0, "pentagonal")
    with pytest.raises(ValidationError):
        psi(5, 6, "pentagonal")


def test_psi_out_of_range_and_bad_method():
    assert psi(4, -1) == 0
    assert psi(4, 11) == 0
    assert psi(4, 10) == (-1) ** 4  # top coefficient of the degree-10 product
    with pytest.raises(ValidationError):
        psi(4, 2, "magic")


def test_subset_histogram_matches_popcount_loop():
    for n in range(13):
        hist = [0] * (n * (n + 1) // 2 + 1)
        for mask in range(1 << n):
            members = [i for i in range(1, n + 1) if mask >> (i - 1) & 1]
            hist[sum(members)] += (-1) ** len(members)
        assert _subset_signed_histogram(n) == tuple(hist)


def test_psi_subset_cap():
    with pytest.raises(ResourceLimitError):
        psi(25, 3, "subset-oracle", cap=2**20)


def alpha(n: int, k: int) -> Fraction:
    # the logarithmic-series coefficient, as a fraction
    return Fraction(restricted_divisor_sum(n, k), k)


def _psi_multi_index(n: int, r: int) -> int:
    # literal expansion of exp(-sum alpha_n(k) t^k): sum over partitions of r
    # with multiplicity vector (i_1, ..., i_r) of
    #   (-1)^{sum i_j} / prod i_j! * prod alpha_n(j)^{i_j}
    total = Fraction(0)

    def walk(j: int, left: int, term: Fraction) -> None:
        nonlocal total
        if left == 0:
            total += term
            return
        if j > left:
            return
        walk(j + 1, left, term)
        power = term
        count = 0
        amount = left
        while amount >= j:
            count += 1
            amount -= j
            power = power * (-alpha(n, j)) / count
            walk(j + 1, amount, power)

    walk(1, r, Fraction(1))
    assert total.denominator == 1
    return int(total)


def test_exp_log_matches_literal_multi_index_sum():
    for n in (2, 3, 5, 8):
        for r in range(0, 16):
            assert psi(n, r, "exp-log") == _psi_multi_index(n, r)


def test_restricted_divisor_sum():
    assert restricted_divisor_sum(5, 6) == 6
    assert restricted_divisor_sum(3, 1) == 1
    for k in range(1, 40):
        assert restricted_divisor_sum(1, k) == 1
    assert alpha(5, 6) == Fraction(6, 6)
    with pytest.raises(ValidationError):
        restricted_divisor_sum(5, 0)


def test_mahonian_via_denumerant_examples():
    assert mahonian_via_denumerant(FlagShape(7, (2, 4)), 3) == 8
    for shape in [FlagShape(4, (2,)), FlagShape(6, (1, 3)), FlagShape(5, ())]:
        assert mahonian_via_denumerant(shape, 0) == 1


def test_mahonian_via_denumerant_sweep():
    for n in range(1, 8):
        for shape in all_shapes(n):
            table = mahonian_table(shape)
            for k in range(shape.nu + 2):
                assert mahonian_via_denumerant(shape, k) == table.value(k)


def test_full_mahonian_via_binomials():
    assert full_mahonian_via_binomials(3, 1) == 2
    assert full_mahonian_via_binomials(10, 12) == 47043


def test_psi_binomial_sums_match_direct_binomials():
    # the running binomials against one math.comb per term: n = 1 (where N
    # falls to k - i), k = 0 and k past the top degree, eta = 0 and eta > 0,
    # and from n = 3 on zero psi_n(i) between nonzero ones
    for n in range(1, 9):
        top = n * (n + 1) // 2
        values = PsiTable.for_n(n).values
        for eta in (0, 1, 7):
            for k in range(top + 4):
                first = second = 0
                for i in range(min(k, top) + 1):
                    plain = math.comb(n - 1 + k - i, n - 1)
                    stretched = math.comb(n - 1 + eta + k - i, n - 1)
                    c = values[i]
                    first += c * (plain if c > 0 else stretched)
                    second += c * (stretched if c > 0 else plain)
                assert _psi_binomial_sums(n, k, eta) == (first, second)


def test_denumerant_bounds_examples():
    for n in range(2, 7):
        shape = FlagShape.full(n)
        for m in range(10):
            lower, upper = denumerant_bounds(shape, m)
            assert lower == upper == math.comb(n - 1 + m, n - 1)
