"""The value-class contract of Dimension, Unit, Quantity, ScalingRelation,
PiGroup, BlastConfig and CaseReport.

Each is an immutable value: equal fields compare equal (and hash equal
unless a field holds a dict), fields cannot be set or deleted, copies and
pickles are equal values, construction takes the fields positionally or
by keyword and runs its checks in a fixed order, and ``repr`` prints the
fields in declaration order.
"""

import base64
import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest

from scalelab.algebra import PiGroup, ScalingRelation
from scalelab.casebook import BlastConfig, CaseReport
from scalelab.errors import (
    CapacityError,
    DataError,
    DimensionMismatchError,
    QuantityParseError,
    RelationError,
)
from scalelab.units import DENSITY, LENGTH, Dimension, Quantity, Unit, parse_quantity

M = Unit("m", LENGTH, 1.0)
AIR = parse_quantity("1.2 kg m^-3")


def hull_relation():
    return ScalingRelation("v", {"g": Fraction(1, 2), "l": "1/2", "k": 0})


# One factory per class: each call builds a new instance with equal fields.
FACTORIES = {
    "Dimension": lambda: Dimension(1, Fraction(-1, 3)),
    "Unit": lambda: Unit("m", LENGTH, 1.0),
    "Quantity": lambda: Quantity(2.0, M),
    "ScalingRelation": hull_relation,
    "PiGroup": lambda: PiGroup(("E", "t"), (1, -2)),
    "BlastConfig": lambda: BlastConfig(2.0, AIR),
    "CaseReport": lambda: CaseReport("hull", (("l", Quantity(2.0, M)),), hull_relation(),
                                     "C", Quantity(2.0, M), LENGTH),
}
UNHASHABLE = {"ScalingRelation", "CaseReport"}  # both hold a dict

FIELDS = {
    "Dimension": ("numerators", "denominator"),
    "Unit": ("symbol", "dimension", "scale"),
    "Quantity": ("magnitude", "unit"),
    "ScalingRelation": ("target", "exponents"),
    "PiGroup": ("names", "exponents"),
    "BlastConfig": ("prefactor", "rho"),
    "CaseReport": ("title", "inputs", "relation", "prefactor_label", "prediction",
                   "output_dimension", "display", "notes"),
}

CLASSES = sorted(FACTORIES)


@pytest.mark.parametrize("name", CLASSES)
def test_equal_fields_make_equal_values(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b
    assert not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("left, right", list(itertools.combinations(CLASSES, 2)))
def test_values_of_different_classes_are_never_equal(left, right):
    a, b = FACTORIES[left](), FACTORIES[right]()
    assert a != b and b != a
    assert not (a == b or b == a)


@pytest.mark.parametrize("name", CLASSES)
def test_a_different_field_makes_a_different_value(name):
    a = FACTORIES[name]()
    others = {
        "Dimension": Dimension(1, Fraction(-1, 3), 1),
        "Unit": Unit("m", LENGTH, 2.0),
        "Quantity": Quantity(3.0, M),
        "ScalingRelation": ScalingRelation("v", {"g": 1}),
        "PiGroup": PiGroup(("E", "r"), (1, -2)),
        "BlastConfig": BlastConfig(),
        "CaseReport": CaseReport("hull", (), hull_relation(), "C", Quantity(2.0, M), LENGTH),
    }
    assert a != others[name]
    assert a != (a,)


@pytest.mark.parametrize("name", CLASSES)
def test_fields_cannot_be_set_or_deleted(name):
    value = FACTORIES[name]()
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", CLASSES)
def test_copies_and_pickles_are_equal_values(name):
    value = FACTORIES[name]()
    pickles = (pickle.dumps(value, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    for twin in (copy.copy(value), copy.deepcopy(value), *map(pickle.loads, pickles)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)
        if name not in UNHASHABLE:
            assert hash(twin) == hash(value)


# Protocol-2 pickles of Quantity(2.0, m) and PiGroup(("E", "t"), (1, -2)),
# written when these classes were frozen dataclasses.
DATACLASS_PICKLES = {
    "Quantity": (
        "gAJjc2NhbGVsYWIudW5pdHMKUXVhbnRpdHkKcQApgXEBfXECKFgJAAAAbWFnbml0dWRlcQNH"
        "QAAAAAAAAABYBAAAAHVuaXRxBGNzY2FsZWxhYi51bml0cwpVbml0CnEFKYFxBn1xByhYBgAA"
        "AHN5bWJvbHEIWAEAAABtcQlYCQAAAGRpbWVuc2lvbnEKY3NjYWxlbGFiLnVuaXRzCkRpbWVu"
        "c2lvbgpxCyhjZnJhY3Rpb25zCkZyYWN0aW9uCnEMSwBLAYZxDVJxDmgMSwFLAYZxD1JxEGgM"
        "SwBLAYZxEVJxEmgMSwBLAYZxE1JxFGgMSwBLAYZxFVJxFnRxF1JxGFgFAAAAc2NhbGVxGUc/"
        "8AAAAAAAAHVidWIu"
    ),
    "PiGroup": (
        "gAJjc2NhbGVsYWIuYWxnZWJyYQpQaUdyb3VwCnEAKYFxAX1xAihYBQAAAG5hbWVzcQNYAQAA"
        "AEVxBFgBAAAAdHEFhnEGWAkAAABleHBvbmVudHNxB0sBSv7///+GcQh1Yi4="
    ),
}


@pytest.mark.parametrize("name", sorted(DATACLASS_PICKLES))
def test_pickles_of_the_dataclass_versions_still_load(name):
    value = pickle.loads(base64.b64decode(DATACLASS_PICKLES[name]))
    expected = FACTORIES[name]()
    assert type(value) is type(expected)
    assert value == expected
    assert repr(value) == repr(expected)


class Metre(Unit):
    pass


class Length(Quantity):
    __slots__ = ()


def test_a_subclass_is_a_value_of_its_own_class():
    metre = Metre("m", LENGTH, 1.0)
    assert metre == Metre("m", LENGTH, 1.0) and hash(metre) == hash(M)
    assert metre != M and M != metre
    assert repr(metre) == "Metre" + repr(M)[len("Unit"):]
    length = Length(2.0, M)
    assert length != Quantity(2.0, M)
    assert repr(length) == "Length" + repr(Quantity(2.0, M))[len("Quantity"):]
    for twin in (copy.deepcopy(length), pickle.loads(pickle.dumps(length))):
        assert type(twin) is Length and twin == length
    with pytest.raises(AttributeError):
        metre.symbol = "ft"
    with pytest.raises(AttributeError):
        length.unit = M


def test_positional_and_keyword_construction_agree():
    q = Quantity(2.0, M)
    rel = hull_relation()
    pairs = [
        (Dimension(1, Fraction(-1, 3), 2, 0, -1),
         Dimension(mass=1, length=Fraction(-1, 3), time=2, currency=-1)),
        (Unit("m", LENGTH, 1.0), Unit(symbol="m", scale=1.0, dimension=LENGTH)),
        (Quantity(2.0, M), Quantity(unit=M, magnitude=2)),
        (ScalingRelation("v", {"g": 1}), ScalingRelation(exponents={"g": 1}, target="v")),
        (PiGroup(("E", "t"), (1, -2)), PiGroup(exponents=(1, -2), names=("E", "t"))),
        (BlastConfig(1.0, AIR), BlastConfig(rho=AIR)),
        (BlastConfig(), BlastConfig(prefactor=1.0)),
        (CaseReport("hull", (), rel, "C", q, LENGTH, None, ""),
         CaseReport(title="hull", inputs=(), relation=rel, prefactor_label="C",
                    prediction=q, output_dimension=LENGTH)),
        (CaseReport("hull", (), rel, "C", q, LENGTH, q, "n"),
         CaseReport("hull", (), rel, "C", q, LENGTH, notes="n", display=q)),
    ]
    for positional, keyword in pairs:
        assert positional == keyword


def test_defaults():
    default = BlastConfig()
    assert default.prefactor == 1.0
    assert default.rho == AIR
    assert BlastConfig().rho is default.rho
    report = CaseReport("hull", (), hull_relation(), "C", Quantity(2.0, M), LENGTH)
    assert report.display is None
    assert report.notes == ""
    assert Dimension() == Dimension(0, 0, 0, 0, 0)


def test_construction_normalises_its_fields():
    assert Quantity(2, M).magnitude == 2.0 and type(Quantity(2, M).magnitude) is float
    assert Dimension("2/4").numerators == (1, 0, 0, 0, 0)
    assert Dimension("2/4").denominator == 2
    given = {"g": 1, "l": "1/2", "k": 0}
    rel = ScalingRelation("v", given)
    assert rel.exponents == {"g": Fraction(1), "l": Fraction(1, 2)}
    assert all(type(e) is Fraction for e in rel.exponents.values())
    assert given == {"g": 1, "l": "1/2", "k": 0}
    assert ScalingRelation("x", {"x": 1}).is_identity


def _blast(prefactor=1.0, rho=AIR):
    return lambda: BlastConfig(prefactor, rho)


def _report(prediction):
    return lambda: CaseReport("hull speed", (), hull_relation(), "C", prediction, LENGTH)


@pytest.mark.parametrize(
    "construct, error, message",
    [
        (lambda: Dimension(mass=0.5), TypeError,
         "dimension exponents must be int, str, or Fraction, not float"),
        (lambda: Dimension(time="x"), QuantityParseError, "malformed rational 'x'"),
        (lambda: Dimension(0.5, "x"), TypeError,
         "dimension exponents must be int, str, or Fraction, not float"),
        (lambda: Dimension(length=2**31), CapacityError,
         "rational exponent 2147483648 exceeds the supported range (|num|, den < 2^31)"),
        (lambda: Unit("", LENGTH, 0.0), QuantityParseError, "unit symbol must be non-empty"),
        (lambda: Unit("m", LENGTH, 0.0), DataError, "unit 'm' must have a positive finite scale"),
        (lambda: Unit("m", LENGTH, math.inf), DataError,
         "unit 'm' must have a positive finite scale"),
        (lambda: Unit("m", LENGTH, math.nan), DataError,
         "unit 'm' must have a positive finite scale"),
        (lambda: Quantity(math.inf, M), DataError, "quantity magnitude must be finite, got inf"),
        (lambda: Quantity(math.nan, M), DataError, "quantity magnitude must be finite, got nan"),
        (lambda: Quantity("x", M), ValueError, "could not convert string to float: 'x'"),
        (lambda: ScalingRelation("", {"x": 0.5}), RelationError,
         "relation target must be a non-empty name"),
        (lambda: ScalingRelation("y", {"x": 0.5}), TypeError,
         "dimension exponents must be int, str, or Fraction, not float"),
        (lambda: ScalingRelation("x", {"x": 2}), RelationError,
         "target 'x' may not appear among the terms"),
        (lambda: ScalingRelation("x", {"x": 1, "y": 1}), RelationError,
         "target 'x' may not appear among the terms"),
        (lambda: PiGroup(("a",), (0, 1)), RelationError, "names and exponents must align"),
        (lambda: PiGroup(("a", "b"), (0, 0)), RelationError,
         "a dimensionless group must have a nonzero exponent"),
        (lambda: PiGroup(("a", "b"), (2, 4)), RelationError,
         "exponents (2, 4) are not in normalized form"),
        (lambda: PiGroup(("a", "b"), (-1, 1)), RelationError,
         "exponents (-1, 1) are not in normalized form"),
        (_blast(math.inf), DataError, "blast prefactor must be finite, got inf"),
        (_blast(math.nan, None), DataError, "blast prefactor must be finite, got nan"),
        (_blast(0.0, None), DataError, "blast prefactor must be positive, got 0.0"),
        (_blast(-1), DataError, "blast prefactor must be positive, got -1"),
        (_blast(rho=parse_quantity("1.2 kg")), DimensionMismatchError,
         "blast density: incommensurable dimensions [M] and [M L^-3]"),
        (_blast(rho=parse_quantity("-1.2 kg m^-3")), DataError,
         "blast density must be positive, got -1.2 kg m^-3"),
        (_blast(rho=parse_quantity("1e-322 g m^-3")), DataError,
         "blast density 9.88131e-323 g m^-3 underflows a float to 0 in SI units"),
        (_report(parse_quantity("2 s")), DimensionMismatchError,
         "hull speed prediction: incommensurable dimensions [T] and [L]"),
    ],
    ids=["dim-float", "dim-malformed", "dim-first-error", "dim-capacity", "unit-symbol-first",
         "unit-zero-scale", "unit-inf-scale", "unit-nan-scale", "quantity-inf", "quantity-nan",
         "quantity-text", "relation-target-first", "relation-float", "relation-target-term",
         "relation-target-among-terms", "pi-align", "pi-zero", "pi-gcd", "pi-sign",
         "blast-inf", "blast-nan-first", "blast-zero", "blast-negative", "blast-rho-dimension",
         "blast-rho-sign", "blast-rho-si", "report-dimension"],
)
def test_validation_errors_keep_their_type_and_message(construct, error, message):
    with pytest.raises(error) as info:
        construct()
    assert type(info.value) is error
    assert str(info.value) == message


def _dim(*exponents):
    names = ("mass", "length", "time", "temperature", "currency")
    return "Dimension(" + ", ".join(
        f"{name}=Fraction({Fraction(e).numerator}, {Fraction(e).denominator})"
        for name, e in zip(names, exponents)
    ) + ")"


UNIT_M = f"Unit(symbol='m', dimension={_dim(0, 1, 0, 0, 0)}, scale=1.0)"
Q2 = f"Quantity(magnitude=2.0, unit={UNIT_M})"
REL = "ScalingRelation(target='v', exponents={'g': Fraction(1, 2), 'l': Fraction(1, 2)})"
AIR_REPR = ("Quantity(magnitude=1.2, unit=Unit(symbol='kg m^-3', "
            f"dimension={_dim(1, -3, 0, 0, 0)}, scale=1.0))")


@pytest.mark.parametrize(
    "name, expected",
    [
        ("Dimension", "Dimension(mass=Fraction(1, 1), length=Fraction(-1, 3), "
                      "time=Fraction(0, 1), temperature=Fraction(0, 1), "
                      "currency=Fraction(0, 1))"),
        ("Unit", "Unit(symbol='m', dimension=Dimension(mass=Fraction(0, 1), "
                 "length=Fraction(1, 1), time=Fraction(0, 1), temperature=Fraction(0, 1), "
                 "currency=Fraction(0, 1)), scale=1.0)"),
        ("Quantity", Q2),
        ("ScalingRelation", REL),
        ("PiGroup", "PiGroup(names=('E', 't'), exponents=(1, -2))"),
        ("BlastConfig", f"BlastConfig(prefactor=2.0, rho={AIR_REPR})"),
        ("CaseReport", f"CaseReport(title='hull', inputs=(('l', {Q2}),), relation={REL}, "
                       f"prefactor_label='C', prediction={Q2}, "
                       f"output_dimension={_dim(0, 1, 0, 0, 0)}, display=None, notes='')"),
    ],
)
def test_repr_lists_the_fields_in_order(name, expected):
    assert repr(FACTORIES[name]()) == expected


def test_repr_of_defaults_and_optional_fields():
    q = Quantity(2.0, M)
    report = CaseReport("hull", (), hull_relation(), "C", q, LENGTH, q, "n")
    assert repr(report) == (
        f"CaseReport(title='hull', inputs=(), relation={REL}, prefactor_label='C', "
        f"prediction={Q2}, output_dimension={_dim(0, 1, 0, 0, 0)}, display={Q2}, notes='n')"
    )
    assert repr(BlastConfig()) == f"BlastConfig(prefactor=1.0, rho={AIR_REPR})"
    assert repr(Dimension(time=-1)) == _dim(0, 0, -1, 0, 0)
    assert repr(DENSITY) == _dim(1, -3, 0, 0, 0)
