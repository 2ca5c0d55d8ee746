import math
import time

import pytest

from qcomb import (
    FlagShape,
    IntPoly,
    ResourceLimitError,
    ValidationError,
    all_shapes,
    multiset_sum_poly,
    partition_count,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
)
from qcomb.qanalogue import q_binomial_at, q_multinomial_at


def test_q_int_examples():
    assert q_int(0) == IntPoly.zero()
    assert q_int(1).coeffs == (1,)
    assert q_int(3).coeffs == (1, 1, 1)


def test_q_factorial_examples():
    assert q_factorial(0) == IntPoly.one()
    assert q_factorial(3).coeffs == (1, 2, 2, 1)
    for n in range(9):
        assert q_factorial(n).eval_at(1) == math.factorial(n)


def test_q_binomial_at_matches_horner():
    for n in range(21):
        for e in range(n + 1):
            poly = q_binomial(n, e)
            for q in range(-4, 5):
                assert q_binomial_at(n, e, q) == poly.eval_at(q)
    for n in range(1, 9):
        for shape in all_shapes(n):
            poly = q_multinomial(shape)
            for q in range(-4, 6):
                assert q_multinomial_at(shape, q) == poly.eval_at(q)
    for n, e in [(-1, 0), (3, -1), (3, 4)]:
        with pytest.raises(ValidationError):
            q_binomial_at(n, e, 2)


def test_q_binomial_examples():
    for n in range(7):
        assert q_binomial(n, 0) == IntPoly.one()
        assert q_binomial(n, n) == IntPoly.one()
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(2, 1).coeffs == (1, 1)


def test_q_binomial_long_row():
    # deeper than the interpreter's recursion limit allows a recursive route to go
    assert q_binomial(1500, 1).coeffs == (1,) * 1500
    assert q_binomial(1500, 1499) == q_binomial(1500, 1)


def test_q_binomial_large_central():
    # the Pascal triangle below (400, 200) would not fit in memory
    poly = q_binomial(400, 200)
    assert poly.degree == 200 * 200
    assert sum(poly.coeffs) == math.comb(400, 200)


def test_q_binomial_rejects_bad_args():
    with pytest.raises(ValidationError):
        q_binomial(3, 4)
    with pytest.raises(ValidationError):
        q_binomial(-1, 0)
    with pytest.raises(ValidationError):
        q_binomial(3, -1)


def test_q_multinomial_examples():
    for n in range(1, 7):
        assert q_multinomial(FlagShape.full(n)) == q_factorial(n)
    assert q_multinomial(FlagShape(3, (2,))).coeffs == (1, 1, 1)
    assert q_multinomial(FlagShape(3, (1, 2))).coeffs == (1, 2, 2, 1)
    assert q_multinomial(FlagShape(5, ())) == IntPoly.one()


def test_shape_validation():
    with pytest.raises(ValidationError):
        FlagShape(0)
    with pytest.raises(ValidationError):
        FlagShape(3, (2, 2))
    with pytest.raises(ValidationError):
        FlagShape(3, (1, 3))  # final cut equal to n must be dropped by the caller
    with pytest.raises(ValidationError):
        FlagShape(3, (0, 1))


def test_shape_derived_quantities():
    shape = FlagShape(7, (2, 4))
    assert shape.block_sizes == (2, 2, 3)
    assert shape.cuts == (0, 2, 4, 7)
    assert shape.nu == 2 * 2 + 2 * 3 + 2 * 3
    assert shape.eta == 1 + 1 + 3
    assert shape.multinomial() == math.factorial(7) // (2 * 2 * 6)


def test_shape_identity_nu_eta():
    for n in range(1, 9):
        for shape in all_shapes(n):
            assert sum(shape.block_sizes) == n
            assert shape.nu + shape.eta + n == n * (n + 1) // 2
            assert shape.nu <= n * (n - 1) // 2


def test_partition_count_examples():
    assert partition_count(2, 2, 2) == 2
    assert partition_count(5, 0, 0) == 1
    assert partition_count(0, 7, 0) == 1
    assert partition_count(3, 3, -2) == 0
    assert [partition_count(2, 2, m) for m in range(6)] == [1, 1, 2, 1, 1, 0]  # m > e*s: none


def test_multiset_sum_examples():
    assert multiset_sum_poly(2, 2).coeffs == (1, 1, 2, 1, 1)
    assert multiset_sum_poly(0, 5) == IntPoly.one()
    assert multiset_sum_poly(5, 0) == IntPoly.one()
    # the number of multisets is binom(e+s, e)
    assert multiset_sum_poly(3, 4).eval_at(1) == math.comb(7, 3)


def test_multiset_sum_cap():
    with pytest.raises(ResourceLimitError):
        multiset_sum_poly(30, 30, cap=1000)
    # binom(2e, e) >= 2^e: refused by that bound, before the binomial is built
    with pytest.raises(ResourceLimitError, match=r"at least 2\^10000000 items"):
        multiset_sum_poly(10**7, 10**7)


@pytest.mark.parametrize("e, s", [(1, 30000), (2, 2000)])
def test_multiset_sum_long_rows_end_quickly(e, s):
    # one step per multiset, not per part: each of these took 7 s or more when
    # every multiset was summed from scratch
    start = time.perf_counter()
    poly = multiset_sum_poly(e, s, cap=math.comb(e + s, e))
    assert time.perf_counter() - start < 3
    assert poly == (IntPoly((1,) * (s + 1)) if e == 1 else q_binomial(s + e, e))
