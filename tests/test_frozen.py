import pytest

from qcomb import FlagShape, IntPoly, WeightVector
from qcomb.cli import OutputRecord
from qcomb.errors import frozen
from qcomb.verification import CheckResult


def test_equality_and_hash_follow_the_fields():
    a, b, c = FlagShape(5, (2, 3)), FlagShape(5, [2, 3]), FlagShape(5, (2,))
    assert a == b and hash(a) == hash(b) == hash((5, (2, 3)))
    assert a != c and FlagShape(6, (2, 3)) != a
    assert IntPoly((1, 2)) == IntPoly((1, 2, 0)) and IntPoly((1, 2)) != IntPoly((1, 3))
    assert hash(IntPoly((1, 2))) == hash(((1, 2),))
    assert len({a, b, c}) == 2


def test_other_classes_compare_unequal():
    poly, weights = IntPoly((1, 2)), WeightVector((1, 2))
    assert poly.__eq__(weights) is NotImplemented
    assert poly != weights and poly != (1, 2) and poly.coeffs == weights.weights


def test_repr_lists_the_fields():
    assert repr(FlagShape(5, (2, 3))) == "FlagShape(n=5, d=(2, 3))"
    assert repr(WeightVector((1, 2))) == "WeightVector(weights=(1, 2))"
    # a class's own __repr__ wins
    assert repr(IntPoly((1, 1))) == "IntPoly((1, 1))"


def test_derived_attributes_are_not_fields():
    shape = FlagShape(5, (2, 3))
    assert (shape.cuts, shape.block_sizes, shape.sorted_letters) == (
        (0, 2, 3, 5), (2, 1, 2), (1, 1, 2, 3, 3))
    assert "cuts" not in repr(shape)


def test_assignment_and_deletion_raise():
    shape = FlagShape(5, (2, 3))
    with pytest.raises(AttributeError):
        shape.n = 6
    with pytest.raises(AttributeError):
        shape.extra = 1
    with pytest.raises(AttributeError):
        del shape.d
    assert shape == FlagShape(5, (2, 3))


def test_generated_init_takes_positional_and_keyword_fields():
    record = OutputRecord("psi", {"n": "6"}, ("value",), (("0",),))
    assert record == OutputRecord(kind="psi", parameters={"n": "6"}, columns=("value",),
                                  rows=(("0",),))
    assert record == OutputRecord("psi", {"n": "6"}, rows=(("0",),), columns=("value",))
    assert repr(record) == (
        "OutputRecord(kind='psi', parameters={'n': '6'}, columns=('value',), rows=(('0',),))")
    result = CheckResult("qanalogue", "x", True, "1 pair", 1, 0.5)
    assert result == CheckResult(suite="qanalogue", name="x", passed=True, detail="1 pair",
                                 cases=1, elapsed_s=0.5)
    assert (result.suite, result.cases, result.elapsed_s) == ("qanalogue", 1, 0.5)
    with pytest.raises(AttributeError):
        result.passed = False


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),                     # missing field
    ((1, 2, 3), {}),                # too many
    ((1,), {"a": 2}),               # field given twice
    ((1,), {"c": 2}),               # unknown field
])
def test_generated_init_rejects_wrong_fields(args, kwargs):
    @frozen
    class Pair:
        a: int
        b: int

    assert Pair(1, 2) == Pair(b=2, a=1) and hash(Pair(1, 2)) == hash((1, 2))
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)
