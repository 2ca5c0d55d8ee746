import pytest

from qcomb import FlagShape, IntPoly, WeightVector


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
    assert (shape.cuts, shape.block_sizes, shape.nu, shape.eta) == ((0, 2, 3, 5), (2, 1, 2), 8, 2)
    assert repr(shape) == "FlagShape(n=5, d=(2, 3))"
    assert hash(shape) == hash((5, (2, 3)))


def test_assignment_and_deletion_raise():
    shape = FlagShape(5, (2, 3))
    with pytest.raises(AttributeError):
        shape.n = 6
    with pytest.raises(AttributeError):
        shape.extra = 1
    with pytest.raises(AttributeError):
        del shape.d
    assert shape == FlagShape(5, (2, 3))
