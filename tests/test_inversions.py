import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcomb import (
    FlagShape,
    MahonianTable,
    MultisetWord,
    ResourceLimitError,
    ValidationError,
    all_shapes,
    enumerate_words,
    factor_product,
    full_mahonian,
    inv_bounds,
    inversion_count,
    inversion_count_quadratic,
    inversion_distribution_oracle,
    is_refinement,
    log_concavity_scan,
    mahonian_coefficient,
    mahonian_table,
    refinement_recurrence,
)


def test_enumerate_words_examples():
    words = [w.letters for w in enumerate_words(FlagShape(3, (2,)))]
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    words = [w.letters for w in enumerate_words(FlagShape(2, (1,)))]
    assert words == [(1, 2), (2, 1)]
    assert sum(1 for _ in enumerate_words(FlagShape(4, (2,)))) == 6


def test_enumerate_words_is_sorted_and_complete():
    for n in range(1, 7):
        for shape in all_shapes(n):
            letters = [i for i, e in enumerate(shape.block_sizes, start=1) for _ in range(e)]
            words = [w.letters for w in enumerate_words(shape)]
            assert words == sorted(set(itertools.permutations(letters)))
            assert len(words) == shape.multinomial()


def test_enumerate_words_cap():
    with pytest.raises(ResourceLimitError):
        list(enumerate_words(FlagShape.full(10), cap=1000))


def test_word_validation():
    shape = FlagShape(3, (2,))
    MultisetWord((1, 2, 1), shape)
    with pytest.raises(ValidationError):
        MultisetWord((1, 2, 2), shape)
    with pytest.raises(ValidationError):
        MultisetWord((1, 1), shape)


def test_inversion_count_examples():
    assert inversion_count((2, 1, 1)) == 2
    assert inversion_count((1, 1, 2, 2, 3)) == 0
    # blocks in reverse order, each block increasing: every cross pair inverted
    shape = FlagShape(7, (2, 4))
    word = (3, 3, 3, 2, 2, 1, 1)
    assert inversion_count(word) == shape.nu


@given(st.lists(st.integers(min_value=1, max_value=20), max_size=200))
def test_inversion_counters_agree(letters):
    assert inversion_count(letters) == inversion_count_quadratic(letters)


def test_distribution_oracle_examples():
    assert inversion_distribution_oracle(FlagShape(3, (2,))).coeffs == (1, 1, 1)
    assert inversion_distribution_oracle(FlagShape(3, (1, 2))).coeffs == (1, 2, 2, 1)
    assert inversion_distribution_oracle(FlagShape(2, (1,))).coeffs == (1, 1)


def test_mahonian_table_reference_values():
    table = mahonian_table(FlagShape(7, (2, 4)))
    assert table.counts[:5] == (1, 2, 5, 8, 13)
    full10 = mahonian_table(FlagShape.full(10))
    assert full10.value(12) == 47043
    assert full10.value(20) == 230131
    for k in (-1, 12, 20, 45 - 20, 46):
        assert mahonian_coefficient(FlagShape.full(10), k) == full10.value(k)


def test_table_invariants_enforced():
    shape = FlagShape(3, (1,))
    MahonianTable(shape, (1, 1, 1))
    with pytest.raises(ValidationError):
        MahonianTable(shape, (1, 1))  # wrong length
    with pytest.raises(ValidationError):
        MahonianTable(shape, (1, 2, 1))  # wrong total
    with pytest.raises(ValidationError):
        MahonianTable(FlagShape(4, (2,)), (1, 2, 1, 1, 1))  # asymmetric


def test_full_mahonian_examples():
    assert full_mahonian(3).counts == (1, 2, 2, 1)
    for n in range(1, 9):
        assert full_mahonian(n).value(0) == 1
    assert full_mahonian(10).value(12) == 47043


def test_full_mahonian_symmetry():
    # full_mahonian mirrors its lower half, so the palindrome is checked on
    # the full-degree expansion [n]! / (1 - t)^n
    for n in range(1, 13):
        full = factor_product(range(1, n + 1), (1,) * n, n * (n - 1) // 2)
        assert full == full[::-1]
        assert full_mahonian(n).counts == tuple(full)


def test_refinement_example():
    shape = FlagShape(3, (2,))
    refined = FlagShape(3, (1, 2))
    assert refinement_recurrence(shape, refined).counts == (1, 1, 1)
    # trivial refinement leaves the table unchanged
    assert refinement_recurrence(shape, shape).counts == mahonian_table(shape).counts


def test_refinement_rejects_non_refinement():
    assert not is_refinement(FlagShape(4, (2,)), FlagShape(4, (1, 3)))
    with pytest.raises(ValidationError):
        refinement_recurrence(FlagShape(4, (2,)), FlagShape(4, (1, 3)))
    with pytest.raises(ValidationError):
        refinement_recurrence(FlagShape(4, (2,)), FlagShape(5, (2, 3)))


def test_inv_bounds_reference_values():
    _, upper = inv_bounds(FlagShape(5, (1, 2)), 6)
    assert upper == 104
    _, upper = inv_bounds(FlagShape(5, (1, 2, 3)), 6)
    assert upper == 77
    _, upper = inv_bounds(FlagShape(5, (2,)), 6)
    assert upper == Fraction(1001, 12)
    assert upper < 84


def test_bound_rationals_are_normalized():
    for shape, k in [(FlagShape(5, (2,)), 6), (FlagShape(10, (1,)), 12), (FlagShape(3, (1,)), 2)]:
        for value in inv_bounds(shape, k):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_log_concavity_scan():
    assert log_concavity_scan((1, 2, 5, 8, 13)) == [1, 3]
    table = mahonian_table(FlagShape(7, (2, 4)))
    assert log_concavity_scan(table.counts) == [1, 3, 13, 15]
    assert log_concavity_scan((4, 4, 4, 4)) == []


def test_expected_inversions_of_uniform_word():
    # mean of the distribution is nu/2, by symmetry of the table
    for shape in [FlagShape(5, (2,)), FlagShape(6, (1, 4))]:
        table = mahonian_table(shape)
        mean = Fraction(sum(k * c for k, c in enumerate(table.counts)), sum(table.counts))
        assert mean == Fraction(shape.nu, 2)


def test_total_count_matches_multinomial():
    for n in range(1, 8):
        for shape in all_shapes(n):
            assert sum(mahonian_table(shape).counts) == math.factorial(n) // math.prod(
                math.factorial(e) for e in shape.block_sizes
            )
