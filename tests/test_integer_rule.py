"""One integer rule across the public library: wherever a public class or
function takes integer data, a whole number is stored as an int and anything
else raises ValidationError.  The prime modulus is stricter: it must be an int
itself.  No module but `qcomb.errors` writes the rule out by hand."""

import ast
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

import qcomb
from qcomb import (
    DEFAULT_CAP,
    CellForm,
    Flag,
    FlagShape,
    FpMatrix,
    IntPoly,
    MahonianTable,
    MultisetWord,
    OrderedSetPartition,
    PsiTable,
    ValidationError,
    WeightVector,
    all_shapes,
    cell_dimension,
    cell_form,
    cell_sum_poly,
    denumerant,
    denumerant_bounds,
    enumerate_flags,
    enumerate_general_linear,
    enumerate_partitions,
    enumerate_words,
    factor_product,
    flag_count_group_formula,
    full_mahonian,
    full_mahonian_via_binomials,
    inv_bounds,
    inversion_count,
    inversion_count_quadratic,
    inversion_distribution_oracle,
    is_parabolic_member,
    is_refinement,
    mahonian_coefficient,
    mahonian_table,
    mahonian_via_denumerant,
    multiset_sum_poly,
    partition_count,
    phi_flag,
    psi,
    psi_prefix,
    q_binomial,
    q_binomial_at,
    q_factorial,
    q_int,
    q_multinomial_at,
    q_multinomial_prefix,
    reduced_echelon_bases,
    restricted_divisor_sum,
    s_reduce,
    tau_for_lambda,
    theta_word,
)

SHAPE = FlagShape(3, (2,))
CAP = DEFAULT_CAP

# One valid call per public callable that takes integer data, and per public
# class method that does: (name, callable, arguments, positions of a prime
# modulus).  Every int among the arguments, alone or inside a tuple, is replaced
# in turn; the rows that end in CAP give each enumerator's cap a slot.
CALLS = [
    ("IntPoly", IntPoly, ((1, 2, 1),), ()),
    ("FlagShape", FlagShape, (4, (1, 3)), ()),
    ("PsiTable", PsiTable, (1, (1, -1)), ()),
    ("WeightVector", WeightVector, ((1, 2),), ()),
    ("MahonianTable", MahonianTable, (FlagShape(2, (1,)), (1, 1)), ()),
    ("MultisetWord", MultisetWord, ((1, 2, 1), SHAPE), ()),
    ("OrderedSetPartition", OrderedSetPartition, (SHAPE, ((1, 3), (2,))), ()),
    ("FpMatrix", FpMatrix, (3, ((1, 2), (0, 1))), (0,)),
    ("FpMatrix.identity", FpMatrix.identity, (3, 2), (0,)),
    ("Flag", Flag, (FlagShape(2, (1,)), 2, (FpMatrix(2, ((1,), (0,))),)), (1,)),
    ("CellForm", CellForm, (OrderedSetPartition(SHAPE, ((1, 2), (3,))), FpMatrix.identity(2, 3)), ()),
    ("enumerate_general_linear", enumerate_general_linear, (2, 2, CAP), (1,)),
    ("reduced_echelon_bases", reduced_echelon_bases, (2, 1, 2), (2,)),
    ("tau_for_lambda", tau_for_lambda, (3, 1, 1), ()),
    ("psi", psi, (3, 2), ()),
    ("mahonian_coefficient", mahonian_coefficient, (SHAPE, 1), ()),
    ("denumerant", denumerant, (WeightVector((1, 2)), 2), ()),
    ("IntPoly.monomial", IntPoly.monomial, (3, 2), ()),
    ("factor_product", factor_product, ((2, 3), (1, 1), 6), ()),
    ("FlagShape.full", FlagShape.full, (3,), ()),
    ("all_shapes", all_shapes, (3,), ()),
    ("q_int", q_int, (3,), ()),
    ("q_factorial", q_factorial, (3,), ()),
    ("q_binomial", q_binomial, (4, 2), ()),
    ("q_binomial_at", q_binomial_at, (4, 2, 2), ()),
    ("q_multinomial_at", q_multinomial_at, (FlagShape(4, (2,)), 2), ()),
    ("q_multinomial_prefix", q_multinomial_prefix, (SHAPE, 1), ()),
    ("partition_count", partition_count, (2, 3, 1), ()),
    ("multiset_sum_poly", multiset_sum_poly, (2, 1, CAP), ()),
    ("PsiTable.for_n", PsiTable.for_n, (3,), ()),
    ("WeightVector.ones", WeightVector.ones, (2,), ()),
    ("psi_prefix", psi_prefix, (3, 4), ()),
    ("psi subset-oracle", psi, (3, 2, "subset-oracle", CAP), ()),
    ("psi fn-coefficients", psi, (3, 2, "fn-coefficients", CAP), ()),
    ("psi pentagonal", psi, (3, 2, "pentagonal", CAP), ()),
    ("psi exp-log", psi, (3, 2, "exp-log", CAP), ()),
    ("restricted_divisor_sum", restricted_divisor_sum, (6, 12), ()),
    ("mahonian_via_denumerant", mahonian_via_denumerant, (SHAPE, 1), ()),
    ("full_mahonian_via_binomials", full_mahonian_via_binomials, (3, 1), ()),
    ("denumerant_bounds", denumerant_bounds, (SHAPE, 1), ()),
    ("enumerate_words", enumerate_words, (SHAPE, CAP), ()),
    ("inversion_distribution_oracle", inversion_distribution_oracle, (SHAPE, CAP), ()),
    ("full_mahonian", full_mahonian, (3,), ()),
    ("inv_bounds", inv_bounds, (SHAPE, 1), ()),
    ("enumerate_partitions", enumerate_partitions, (SHAPE, CAP), ()),
    ("cell_sum_poly", cell_sum_poly, (SHAPE, False, CAP), ()),
    ("enumerate_flags", enumerate_flags, (FlagShape(2, (1,)), 2, CAP), (1,)),
    ("flag_count_group_formula", flag_count_group_formula, (FlagShape(2, (1,)), 2), (1,)),
]

# Public callables that take no integer argument, each with the reason.
NO_INTEGER_ARGUMENT = {
    "inversion_count": "reads any comparable sequence, not integer data",
    "inversion_count_quadratic": "reads any comparable sequence, not integer data",
    "log_concavity_scan": "reads any comparable sequence, not integer data",
    "q_multinomial": "takes a FlagShape only, which checks its own integers",
    "mahonian_table": "takes a FlagShape only, which checks its own integers",
    "epsilon_weights": "takes a FlagShape only, which checks its own integers",
    "is_refinement": "takes two FlagShapes only",
    "refinement_recurrence": "takes two FlagShapes only",
    "cell_dimension": "takes an OrderedSetPartition and the anti flag, a bool",
    "theta_word": "takes an OrderedSetPartition only",
    "s_reduce": "takes an FpMatrix and the anti flag, a bool",
    "cell_form": "takes an FpMatrix, a FlagShape and the anti flag, a bool",
    "is_parabolic_member": "takes an FpMatrix and a FlagShape only",
    "phi_flag": "takes an FpMatrix and a FlagShape only",
}


def _int_slots(args, path=()):
    """The path of every int in `args`, alone or inside nested tuples."""
    for i, arg in enumerate(args):
        if type(arg) is int:
            yield path + (i,)
        elif type(arg) is tuple:
            yield from _int_slots(arg, path + (i,))


def _at(args, path):
    for i in path:
        args = args[i]
    return args


def _replace(args, path, value):
    i, *rest = path
    new = _replace(args[i], rest, value) if rest else value
    return args[:i] + (new,) + args[i + 1 :]


def _result(call, args):
    out = call(*args)
    return list(out) if isinstance(out, Iterator) else out


def _stored(value):
    """Every scalar stored in `value`: in tuples, lists and instance fields."""
    if isinstance(value, (tuple, list)):
        for x in value:
            yield from _stored(x)
    elif hasattr(value, "__dict__"):
        for x in vars(value).values():
            yield from _stored(x)
    else:
        yield value


def test_table_covers_every_public_class():
    classes = {
        name
        for name in qcomb.__all__
        if isinstance(getattr(qcomb, name), type) and not issubclass(getattr(qcomb, name), Exception)
    }
    assert classes <= {name for name, *_ in CALLS}


@pytest.mark.parametrize("name, call, args, strict", CALLS, ids=[row[0] for row in CALLS])
def test_whole_numbers_become_ints_and_the_rest_is_refused(name, call, args, strict):
    expected = _result(call, args)
    for path in _int_slots(args):
        value = _at(args, path)
        refused = [value + 0.5, None, str(value), math.nan, math.inf, -math.inf]
        if path[0] in strict:
            refused.append(float(value))
        else:
            out = _result(call, _replace(args, path, float(value)))
            assert out == expected, (name, path)
            # CellForm.anti is a bool; the bounds are exact fractions of ints
            assert {type(x) for x in _stored(out)} <= {int, bool, Fraction}, (name, path)
        for bad in refused:
            with pytest.raises(ValidationError):
                _result(call, _replace(args, path, bad))


def test_table_covers_every_public_callable():
    public = {
        name
        for name in qcomb.__all__
        if callable(value := getattr(qcomb, name)) and not (isinstance(value, type) and issubclass(value, Exception))
    }
    rows = {name for name, *_ in CALLS}
    assert public <= rows | set(NO_INTEGER_ARGUMENT)
    assert not rows & set(NO_INTEGER_ARGUMENT)


CAPPED = [row for row in CALLS if row[2][-1] == CAP]


@pytest.mark.parametrize("name, call, args, strict", CAPPED, ids=[row[0] for row in CAPPED])
def test_a_cap_below_one_is_refused(name, call, args, strict):
    for cap in (0, -5):
        with pytest.raises(ValidationError, match=f"^cap must be a positive integer, got {cap}$"):
            _result(call, args[:-1] + (cap,))


@pytest.mark.parametrize("outer", [None, 5])
@pytest.mark.parametrize(
    "call",
    [
        lambda outer: FpMatrix(2, outer),
        lambda outer: OrderedSetPartition(SHAPE, outer),
        lambda outer: Flag(FlagShape(2, (1,)), 2, outer),
    ],
    ids=["FpMatrix", "OrderedSetPartition", "Flag"],
)
def test_a_non_iterable_outer_sequence_is_refused(call, outer):
    with pytest.raises(ValidationError, match="must be a sequence"):
        call(outer)


def test_a_non_matrix_is_refused():
    sigma = OrderedSetPartition(SHAPE, ((1, 2), (3,)))
    calls = [
        lambda: CellForm(sigma, None),
        lambda: cell_form(None, SHAPE),
        lambda: phi_flag(None, SHAPE),
        lambda: is_parabolic_member(None, SHAPE),
        lambda: Flag(FlagShape(2, (1,)), 2, [None]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="matrix|basis"):
            call()


MATRIX = FpMatrix.identity(2, 3)

WRONG_TYPES = [
    (mahonian_table, (None,)),
    (is_refinement, (SHAPE, None)),
    (cell_dimension, (None,)),
    (inversion_count, (None,)),
    (inversion_count_quadratic, (None,)),
    (cell_form, (MATRIX, None)),
    (phi_flag, (MATRIX, None)),
    (is_parabolic_member, (MATRIX, None)),
    (s_reduce, (None,)),
    (enumerate_flags, (None, 2)),
    (enumerate_partitions, (None,)),
    (cell_sum_poly, (None,)),
    (theta_word, (None,)),
    (flag_count_group_formula, (None, 2)),
    (OrderedSetPartition, (None, ((1, 2), (3,)))),
    (Flag, (None, 2, ())),
    (CellForm, (None, MATRIX)),
]


@pytest.mark.parametrize("call, args", WRONG_TYPES, ids=[call.__name__ for call, _ in WRONG_TYPES])
def test_an_object_of_the_wrong_type_is_refused(call, args):
    with pytest.raises(ValidationError, match="must be (of type|a sequence)"):
        _result(call, args)


def _range_checks(tree: ast.AST) -> Iterator[tuple[int, str]]:
    """(line, expression) for each name, attribute or `min(...)` call that an `if`
    compares (<, <=, >, >=) with 0 or 1, alone or in an `or`/`and`, when the `if`
    goes straight to `raise ValidationError`."""
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, ast.If) else None
        if not (
            isinstance(first, ast.Raise)
            and isinstance(first.exc, ast.Call)
            and getattr(first.exc.func, "id", None) == "ValidationError"
        ):
            continue
        tests = node.test.values if isinstance(node.test, ast.BoolOp) else [node.test]
        for test in tests:
            if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
                continue
            if not isinstance(test.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                continue
            pair = (test.left, test.comparators[0])
            for side, bound in (pair, pair[::-1]):
                is_min = isinstance(side, ast.Call) and getattr(side.func, "id", None) == "min"
                if (
                    (is_min or isinstance(side, (ast.Name, ast.Attribute)))
                    and isinstance(bound, ast.Constant)
                    and type(bound.value) is int
                    and bound.value in (0, 1)
                ):
                    yield node.lineno, ast.unparse(side)


def test_no_range_check_is_written_out_by_hand():
    """Every minimum of 0 or 1 goes through `require_int` or `require_ints`; only
    `qcomb.errors` states it."""
    sources = sorted(Path(qcomb.__file__).parent.glob("*.py"))
    found = [
        (path.name, line, expression)
        for path in sources
        if path.name != "errors.py"
        for line, expression in _range_checks(ast.parse(path.read_text()))
    ]
    assert found == []
