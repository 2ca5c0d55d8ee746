"""One integer rule across the public library: wherever a class or a checked
size or index takes integer data, a whole number is stored as an int and
anything else raises ValidationError.  The prime modulus is stricter: it must
be an int itself."""

import math
from typing import Iterator

import pytest

import qcomb
from qcomb import (
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
    denumerant,
    enumerate_general_linear,
    mahonian_coefficient,
    psi,
    reduced_echelon_bases,
    tau_for_lambda,
)

SHAPE = FlagShape(3, (2,))

# One valid call per public class, per flagcells size argument and per index
# reader: (name, callable, arguments, positions of a prime modulus).  Every int
# among the arguments, alone or inside a tuple, is replaced in turn.
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
    ("enumerate_general_linear", enumerate_general_linear, (2, 2), (1,)),
    ("reduced_echelon_bases", reduced_echelon_bases, (2, 1, 2), (2,)),
    ("tau_for_lambda", tau_for_lambda, (3, 1, 1), ()),
    ("psi", psi, (3, 2), ()),
    ("mahonian_coefficient", mahonian_coefficient, (SHAPE, 1), ()),
    ("denumerant", denumerant, (WeightVector((1, 2)), 2), ()),
]


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
            assert {type(x) for x in _stored(out)} <= {int, bool}, (name, path)  # CellForm.anti is a bool
        for bad in refused:
            with pytest.raises(ValidationError):
                _result(call, _replace(args, path, bad))
