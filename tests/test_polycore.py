import math

import pytest
from hypothesis import given, settings, strategies as st

from qcomb import (
    IntPoly,
    ValidationError,
    all_shapes,
    factor_product,
    q_multinomial_prefix,
)
from qcomb.polycore import PACKED_BATCH_BITS, _mirrored_prefix

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
polys = coeff_lists.map(IntPoly)


def test_mul_examples():
    assert (IntPoly((1, 1)) * IntPoly((1, 1, 1))).coeffs == (1, 2, 2, 1)
    p = IntPoly((3, 0, -2, 7))
    assert p * IntPoly.one() == p
    assert p * IntPoly.zero() == IntPoly.zero()


def test_degree_sentinel():
    assert IntPoly.zero().degree == -1
    assert IntPoly((5,)).degree == 0
    assert IntPoly((0, 0, 1)).degree == 2
    assert IntPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed


def test_eval_examples():
    assert IntPoly((1, 1, 2, 1, 1)).eval_at(1) == 6
    assert IntPoly((1, 1, 2, 1, 1)).eval_at(2) == 35
    assert IntPoly.zero().eval_at(7) == 0


def test_exact_quotient():
    a = IntPoly((1, 2, 2, 1))
    assert a.exact_quotient(IntPoly((1, 1))).coeffs == (1, 1, 1)
    with pytest.raises(ValidationError):
        IntPoly((1, 1, 1)).exact_quotient(IntPoly((1, 1)))
    with pytest.raises(ValidationError):
        a.exact_quotient(IntPoly.zero())


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, st.integers(min_value=-9, max_value=9))
def test_eval_is_ring_homomorphism(a, b, q):
    assert (a * b).eval_at(q) == a.eval_at(q) * b.eval_at(q)
    assert (a + b).eval_at(q) == a.eval_at(q) + b.eval_at(q)


def test_series_examples():
    # reciprocal weight products prod 1/(1 - t^w): counts of weighted representations
    assert factor_product((), (1, 2), 4) == [1, 1, 2, 2, 3]
    assert factor_product((), (1, 1, 1), 2) == [1, 3, 6]
    assert factor_product((), (5, 3), 0) == [1]


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=25),
)
def test_series_truncation_consistency(weights, order):
    full = factor_product((), weights, order)
    for shorter in range(order + 1):
        assert full[: shorter + 1] == factor_product((), weights, shorter)
    assert all(c >= 0 for c in full)
    assert full[0] == 1


def _truncated(poly, order):
    return IntPoly(poly.coeffs[: order + 1])


def _intpoly_route(num, den, order):
    # the same product on IntPoly, cut at the order after every factor
    expected = IntPoly.one()
    for a in num:
        expected = _truncated(expected * (IntPoly.one() - IntPoly.monomial(1, a)), order)
    for b in den:  # 1/(1 - t^b) = sum_j t^{jb}, cut at the order
        geometric = IntPoly(1 if m % b == 0 else 0 for m in range(order + 1))
        expected = _truncated(expected * geometric, order)
    return [expected.coefficient(m) for m in range(order + 1)]


def _power(poly, k, order):
    # poly^k by repeated IntPoly products, cut at the order
    result = IntPoly.one()
    for _ in range(k):
        result = _truncated(result * poly, order)
    return [result.coefficient(m) for m in range(order + 1)]


@given(
    st.lists(st.integers(min_value=1, max_value=9), max_size=5),
    st.lists(st.integers(min_value=1, max_value=9), max_size=5),
    st.integers(min_value=0, max_value=30),
)
def test_factor_product_matches_intpoly_expansion(num, den, order):
    assert factor_product(num, den, order) == _intpoly_route(num, den, order)


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=300).flatmap(
        lambda k: st.lists(st.integers(min_value=1, max_value=12), min_size=k, max_size=k)
    ),
    st.lists(st.integers(min_value=1, max_value=12), max_size=4),
    st.integers(min_value=0, max_value=40),
)
def test_factor_product_packs_many_numerators(num, den, order):
    # up to 300 numerators: several packed batches, each wider than the last
    assert factor_product(num, den, order) == _intpoly_route(num, den, order)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=6)),
        max_size=16,
    ),
    st.lists(st.integers(min_value=1, max_value=30), max_size=6),
    st.integers(min_value=0, max_value=60),
)
def test_factor_product_pairs_denominators(pairs, extras, order):
    # each denominator b comes with a numerator k*b, k = 1..6 (5 and 6 stay
    # unpaired), plus free numerators that may match a denominator too
    num = [k * b for b, k in pairs] + extras
    den = [b for b, _ in pairs]
    assert factor_product(num, den, order) == _intpoly_route(num, den, order)


def test_factor_product_across_batch_boundaries():
    bits = PACKED_BATCH_BITS  # 1 - t^a grows the digits by 1 bit
    for k in (bits - 1, bits, bits + 1, 2 * bits + 1):
        order = k + 3
        row = factor_product([1] * k, (), order)  # (1 - t)^k: the widest digits there are
        assert row == [(-1) ** j * math.comb(k, j) for j in range(order + 1)]
        assert factor_product([1] * k, [1] * k, order) == [1] + [0] * order  # every pair cancels
        # no numerator is a small multiple of 1, so every denominator stays on the list
        assert factor_product([7] * k, [1] * k, order) == _power(IntPoly((1,) * 7), k, order)


def test_factor_product_paired_factors():
    # 3- and 4-term factors grow the digits by 2 bits each, so 64 fill a batch
    for k in (63, 64, 65):
        order = 3 * k + 2
        for terms in (3, 4):
            row = factor_product([terms] * k, [1] * k, order)
            assert row == _power(IntPoly((1,) * terms), k, order)
    for b in (1, 3):  # (1 + t^b)^k, 1 bit each
        for k in (PACKED_BATCH_BITS, PACKED_BATCH_BITS + 1):
            order = b * k + 2
            assert factor_product([2 * b] * k, [b] * k, order) == _power(
                IntPoly.one() + IntPoly.monomial(1, b), k, order
            )
    # numerator 2 goes to denominator 2, so denominator 1 stays unpaired
    assert factor_product([2], [2, 1], 5) == [1] * 6


def test_factor_product_edge_cases():
    assert factor_product((3, 1), (2,), 0) == [1]
    assert factor_product((), (), 4) == [1, 0, 0, 0, 0]
    assert factor_product((7,), (9,), 5) == [1, 0, 0, 0, 0, 0]  # factors beyond the order
    for num, den, order in [((0,), (), 3), ((2, -1), (), 3), ((), (1, 0), 3), ((1,), (1,), -1)]:
        with pytest.raises(ValidationError):
            factor_product(num, den, order)


def _branch_orders(degree):
    # past degree // 2 _mirrored_prefix slices one mirrored list, so the orders
    # on each side of its two branch points (half and degree) cover every slice
    half = degree // 2
    orders = (0, half - 1, half, half + 1, degree - 1, degree, degree + 1, degree + 2)
    return {order for order in orders if order >= 0}


def _assert_mirror_matches(num, den, degree, sign=1):
    # those orders against the full-degree expansion, cut or padded with zeros
    full = factor_product(num, den, degree + 2)
    for order in _branch_orders(degree):
        assert _mirrored_prefix(num, den, degree, order, sign) == full[: order + 1]


def test_mirrored_prefix_matches_full_expansion():
    # q-binomials: odd and even degrees, degree 0 at e in {0, n}
    for n in range(31):
        for e in range(n + 1):
            degree = e * (n - e)
            num, den = range(n - e + 1, n + 1), range(1, e + 1)
            full = factor_product(num, den, degree + 2)
            for order in (degree // 2, degree // 2 + 1, degree, degree + 2):
                assert _mirrored_prefix(num, den, degree, order) == full[: order + 1]
    # q-multinomials of every shape, also through the largest-block cancellation
    for n in range(1, 9):
        for shape in all_shapes(n):
            den = [j for e in shape.block_sizes for j in range(1, e + 1)]
            _assert_mirror_matches(range(1, n + 1), den, shape.nu)
            full = factor_product(range(1, n + 1), den, shape.nu + 2)
            for order in _branch_orders(shape.nu):
                assert q_multinomial_prefix(shape, order) == full[: order + 1]
    # psi_n: degree n(n+1)/2 (1 at n = 1), sign (-1)^n
    for n in range(1, 41):
        _assert_mirror_matches(range(1, n + 1), (), n * (n + 1) // 2, -1 if n % 2 else 1)


def test_docstring_examples():
    import doctest
    import importlib
    import pkgutil

    import qcomb

    results = [
        doctest.testmod(importlib.import_module(f"qcomb.{module.name}"))
        for module in pkgutil.iter_modules(qcomb.__path__)
    ]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0


def test_public_names_resolve_once():
    import qcomb

    assert len(qcomb.__all__) == len(set(qcomb.__all__))
    namespace: dict = {}
    exec("from qcomb import *", namespace)
    for name in qcomb.__all__:
        assert namespace[name] is getattr(qcomb, name)


def test_each_module_declares_its_public_names():
    """`qcomb.__all__` is the six modules' own lists, joined in import order; each
    list names only what its module defines, and in the math modules every public
    function and class."""
    import sys

    import qcomb

    modules = [sys.modules[f"qcomb.{name}"] for name in
               ("errors", "polycore", "qanalogue", "denumerant", "inversions", "flagcells")]
    for module in modules:
        listed = module.__all__
        assert len(listed) == len(set(listed)), module.__name__
        defined = {name for name, value in vars(module).items()
                   if callable(value) and getattr(value, "__module__", None) == module.__name__}
        assert {name for name in listed if callable(getattr(module, name))} <= defined, module.__name__
        if module is not qcomb.errors:
            unlisted = {name for name in defined - set(listed) if not name.startswith("_")}
            # TruncatedSeries stays only for perfbench/spans.py's lookup (ROADMAP item 11)
            assert unlisted == ({"TruncatedSeries"} if module is qcomb.polycore else set()), module.__name__
    assert qcomb.__all__ == [name for module in modules for name in module.__all__]
