"""The immutable value types: `NewtonPoint`, `LieType`, `AType`,
`StratumRecord` and `StablePlane` compare, hash, print, pickle and copy by
their fields, and refuse assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from dieumod import AType, LieType, NewtonPoint, StratumRecord
from dieumod.hecke import StablePlane
from dieumod.strata import stratum_record
from dieumod.wittring import Frozen

RREF = ((1, 0, 2, 3), (0, 1, 4, 5))

# (class, fields, the same fields built apart, other fields, repr)
CASES = [
    (NewtonPoint, (5, Fraction(5, 2)), (5, Fraction(5, 2)), (5, Fraction(2)), "s(5/2)"),
    (LieType, (2, ((0, 2), (1, 1))), (2, ((0, 2), (1, 1))), (2, ((0, 2), (0, 2))),
     "LieType(e=2, pairs=((0, 2), (1, 1)))"),
    (AType, (2, ((0, 1), (1, 2))), (2, ((0, 1), (1, 2))), (3, ((0, 1), (1, 2))),
     "AType(e=2, pairs=((0, 1), (1, 2)))"),
    (StratumRecord, ((1, 0), 3, True, 1, NewtonPoint(4, 1), None),
     ((1, 0), 3, True, 1, NewtonPoint(4, Fraction(1)), None),
     ((1, 0), 3, True, 1, NewtonPoint(4, 1), NewtonPoint(4, 1)),
     "StratumRecord(a=(1, 0), dim=3, spaced=True, lam=1, generic_slope_lower=s(1), "
     "generic_slope_exact=None)"),
    (StablePlane, (RREF, (2, 3, 4, 5)), (tuple(map(tuple, map(list, RREF))), (2, 3, 4, 5)),
     (RREF, None), "StablePlane(rref=((1, 0, 2, 3), (0, 1, 4, 5)), chart=(2, 3, 4, 5))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,fields,same,other,text", CASES, ids=IDS)
def test_equality_hash_and_repr_follow_the_fields(cls, fields, same, other, text):
    a, b, c = cls(*fields), cls(*same), cls(*other)
    assert a == b and not a != b and hash(a) == hash(b) == hash(fields)
    assert a != c and not a == c
    assert a != fields and a != object()
    assert len({a, b, c}) == 2
    assert repr(a) == text


@pytest.mark.parametrize("cls,fields,same,other,text", CASES, ids=IDS)
def test_assignment_is_refused(cls, fields, same, other, text):
    a = cls(*fields)
    for name in (*cls._fields, "a_number", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert a == cls(*fields)


@pytest.mark.parametrize("cls,fields,same,other,text", CASES, ids=IDS)
def test_pickle_and_copy_rebuild_through_the_constructor(cls, fields, same, other, text):
    a = cls(*fields)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and repr(b) == repr(a)
    assert pickle.loads(pickle.dumps(AType(2, ((0, 1), (1, 2))))).a_number == 4


def test_classes_with_the_same_fields_differ():
    pairs = ((0, 1), (1, 2))
    assert LieType(2, pairs) != AType(2, pairs)
    assert AType(2, pairs) != LieType(2, pairs)
    assert hash(LieType(2, pairs)) == hash(AType(2, pairs))  # equal hashes, still unequal
    assert len({LieType(2, pairs), AType(2, pairs)}) == 2


def test_constructors_validate():
    with pytest.raises(ValueError):
        NewtonPoint(4, Fraction(3, 2))
    with pytest.raises(ValueError):
        LieType(1, ((0, 2),))
    assert NewtonPoint(4, 2) == NewtonPoint(4, Fraction(2))
    assert type(NewtonPoint(4, 2).index) is Fraction


def test_stratum_record_of_the_poset():
    r = stratum_record(2, 2, (1, 0))
    assert r == StratumRecord((1, 0), 3, True, 1, NewtonPoint(4, 1), NewtonPoint(4, 1))
    assert r.to_json()["generic_slope_exact_known"] is True



def test_the_base_compares_and_hashes_by_the_field_tuple():
    # two subclasses with the same fields that write only their __init__
    class Left(Frozen):
        __slots__ = _fields = ("x", "y")

        def __init__(self, x, y):
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)

    class Right(Frozen):
        __slots__ = _fields = ("x", "y")

        def __init__(self, x, y):
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)

    a, b, c = Left(1, (2, 3)), Left(1, (2, 3)), Left(1, (2, 4))
    assert a is not b and a == b and not a != b and hash(a) == hash(b) == hash((1, (2, 3)))
    assert a != c and not a == c
    assert a != Right(1, (2, 3)) and Right(1, (2, 3)) != a
    assert a != (1, (2, 3)) and (1, (2, 3)) != a
    assert len({a, b}) == 1 and len({a, b, c, Right(1, (2, 3))}) == 3
    for cls in (Left, Right, *(case[0] for case in CASES)):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
