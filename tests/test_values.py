"""The value-class contract of Dimension, Unit, Quantity, ScalingRelation,
PiGroup, BlastConfig, CaseReport, ModelSpec, CsvSchema, PlotSpec and
FitResult.

Each is an immutable value: equal fields compare equal (and hash equal
unless a field holds a dict), fields cannot be set or deleted, copies and
pickles are equal values, construction takes the fields positionally or
by keyword and runs its checks in a fixed order, and ``repr`` prints the
fields in declaration order.  A FitResult holds arrays, so it is equal
only to itself, and its arrays stay read-only in every copy.
"""

import base64
import copy
import itertools
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from scalelab.algebra import PiGroup, ScalingRelation
from scalelab.casebook import BlastConfig, CaseReport
from scalelab.csvio import CsvSchema
from scalelab.errors import (
    CapacityError,
    DataError,
    DimensionMismatchError,
    QuantityParseError,
    RelationError,
)
from scalelab.regression import FitResult, ModelSpec
from scalelab.svgplot import PlotSpec
from scalelab.units import (
    DENSITY,
    LENGTH,
    Dimension,
    Quantity,
    Unit,
    default_registry,
    parse_quantity,
)

M = Unit("m", LENGTH, 1.0)
AIR = parse_quantity("1.2 kg m^-3")
W, G, YR = (default_registry().symbol(symbol) for symbol in ("W", "g", "yr"))


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
    "ModelSpec": lambda: ModelSpec("bmr", W, "mass", G, True, (("age", YR),)),
    "CsvSchema": lambda: CsvSchema(("mass", "bmr"), ("g", "W")),
    "PlotSpec": lambda: PlotSpec("mass", "bmr", G, W),
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
    "ModelSpec": ("response", "response_reference", "predictor", "predictor_reference",
                  "include_quadratic", "covariates"),
    "CsvSchema": ("names", "unit_expressions"),
    "PlotSpec": ("x", "y", "x_reference", "y_reference"),
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
        "ModelSpec": ModelSpec("bmr", W, "mass", G, True),
        "CsvSchema": CsvSchema(("mass", "bmr"), ("kg", "W")),
        "PlotSpec": PlotSpec("mass", "bmr", W, G),
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


def copies_and_pickles(value):
    """``copy.copy``, ``copy.deepcopy`` and a pickle at every protocol of ``value``."""
    pickles = (pickle.dumps(value, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    return [copy.copy(value), copy.deepcopy(value), *map(pickle.loads, pickles)]


@pytest.mark.parametrize("name", CLASSES)
def test_copies_and_pickles_are_equal_values(name):
    value = FACTORIES[name]()
    for twin in copies_and_pickles(value):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)
        if name not in UNHASHABLE:
            assert hash(twin) == hash(value)


# Protocol-2 pickles of Quantity(2.0, m), PiGroup(("E", "t"), (1, -2)) and
# the ModelSpec and PlotSpec of FACTORIES, written when these classes were
# frozen dataclasses.
DATACLASS_PICKLES = {
    "ModelSpec": (
        "gAJjc2NhbGVsYWIucmVncmVzc2lvbgpNb2RlbFNwZWMKcQApgXEBfXECKFgIAAAAcmVzcG9u"
        "c2VxA1gDAAAAYm1ycQRYEgAAAHJlc3BvbnNlX3JlZmVyZW5jZXEFY3NjYWxlbGFiLnVuaXRz"
        "ClVuaXQKcQYpgXEHWAEAAABXcQhjc2NhbGVsYWIudW5pdHMKRGltZW5zaW9uCnEJKYFxCihL"
        "AUsCSv3///9LAEsAdHELSwGGcQxiRz/wAAAAAAAAh3ENYlgJAAAAcHJlZGljdG9ycQ5YBAAA"
        "AG1hc3NxD1gTAAAAcHJlZGljdG9yX3JlZmVyZW5jZXEQaAYpgXERWAEAAABncRJoCSmBcRMo"
        "SwFLAEsASwBLAHRxFEsBhnEVYkc/UGJN0vGp/IdxFmJYEQAAAGluY2x1ZGVfcXVhZHJhdGlj"
        "cReIWAoAAABjb3ZhcmlhdGVzcRhYAwAAAGFnZXEZaAYpgXEaWAIAAAB5cnEbaAkpgXEcKEsA"
        "SwBLAUsASwB0cR1LAYZxHmJHQX4YWIAAAACHcR9ihnEghXEhdWIu"
    ),
    "PlotSpec": (
        "gAJjc2NhbGVsYWIuc3ZncGxvdApQbG90U3BlYwpxACmBcQF9cQIoWAEAAAB4cQNYBAAAAG1h"
        "c3NxBFgBAAAAeXEFWAMAAABibXJxBlgLAAAAeF9yZWZlcmVuY2VxB2NzY2FsZWxhYi51bml0"
        "cwpVbml0CnEIKYFxCVgBAAAAZ3EKY3NjYWxlbGFiLnVuaXRzCkRpbWVuc2lvbgpxCymBcQwo"
        "SwFLAEsASwBLAHRxDUsBhnEOYkc/UGJN0vGp/IdxD2JYCwAAAHlfcmVmZXJlbmNlcRBoCCmB"
        "cRFYAQAAAFdxEmgLKYFxEyhLAUsCSv3///9LAEsAdHEUSwGGcRViRz/wAAAAAAAAh3EWYnVi"
        "Lg=="
    ),
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


# A protocol-2 pickle of fit_result(), written when FitResult was a frozen
# dataclass; its arrays were writable once loaded.
DATACLASS_FIT_RESULT = (
    "gAJjc2NhbGVsYWIucmVncmVzc2lvbgpGaXRSZXN1bHQKcQApgXEBfXECKFgMAAAAY29lZmZp"
    "Y2llbnRzcQNjbnVtcHkuX2NvcmUubXVsdGlhcnJheQpfcmVjb25zdHJ1Y3QKcQRjbnVtcHkK"
    "bmRhcnJheQpxBUsAhXEGY19jb2RlY3MKZW5jb2RlCnEHWAEAAABicQhYBgAAAGxhdGluMXEJ"
    "hnEKUnELh3EMUnENKEsBSwOFcQ5jbnVtcHkKZHR5cGUKcQ9YAgAAAGY4cRCJiIdxEVJxEihL"
    "A1gBAAAAPHETTk5OSv////9K/////0sAdHEUYoloB1gcAAAAAAAAAAAAw6A/AAAAAAAAw6g/"
    "AAAAAAAAw5DCv3EVaAmGcRZScRd0cRhiWBYAAABjb2VmZmljaWVudF9jb3ZhcmlhbmNlcRlo"
    "BGgFSwCFcRpoC4dxG1JxHChLAUsDSwOGcR1oEoloB1hQAAAAexTCrkfDoXrCpD8AAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAB7FMKuR8OhesKEPwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAHsU"
    "wq5Hw6F6ZD9xHmgJhnEfUnEgdHEhYlgJAAAAcl9zcXVhcmVkcSJHP+zMzMzMzM1YDQAAAHJl"
    "c2lkdWFsc19sb2dxI2gEaAVLAIVxJGgLh3ElUnEmKEsBSwOFcSdoEoloB1gcAAAAAAAAAAAA"
    "w6A/AAAAAAAAw7DCvwAAAAAAAMOgP3EoaAmGcSlScSp0cStiWAEAAABucSxLA1gPAAAAcmVm"
    "ZXJlbmNlX3VuaXRzcS1jc2NhbGVsYWIucmVncmVzc2lvbgpNb2RlbFNwZWMKcS4pgXEvfXEw"
    "KFgIAAAAcmVzcG9uc2VxMVgDAAAAYm1ycTJYEgAAAHJlc3BvbnNlX3JlZmVyZW5jZXEzY3Nj"
    "YWxlbGFiLnVuaXRzClVuaXQKcTQpgXE1WAEAAABXcTZjc2NhbGVsYWIudW5pdHMKRGltZW5z"
    "aW9uCnE3KYFxOChLAUsCSv3///9LAEsAdHE5SwGGcTpiRz/wAAAAAAAAh3E7YlgJAAAAcHJl"
    "ZGljdG9ycTxYBAAAAG1hc3NxPVgTAAAAcHJlZGljdG9yX3JlZmVyZW5jZXE+aDQpgXE/WAEA"
    "AABncUBoNymBcUEoSwFLAEsASwBLAHRxQksBhnFDYkc/UGJN0vGp/IdxRGJYEQAAAGluY2x1"
    "ZGVfcXVhZHJhdGljcUWIWAoAAABjb3ZhcmlhdGVzcUZYAwAAAGFnZXFHaDQpgXFIWAIAAAB5"
    "cnFJaDcpgXFKKEsASwBLAUsASwB0cUtLAYZxTGJHQX4YWIAAAACHcU1ihnFOhXFPdWJYDgAA"
    "AHJlc2lkdWFsX3NjYWxlcVBHQCAAAAAAAABYEgAAAGRyb3BwZWRfY292YXJpYXRlc3FRKXVi"
    "Lg=="
)


def fit_result(**fields):
    """A FitResult with fixed fields; each call builds new arrays."""
    values = dict(coefficients=np.array([0.5, 0.75, -0.25]),
                  coefficient_covariance=np.diag([0.04, 0.01, 0.0025]), r_squared=0.9,
                  residuals_log=np.array([0.5, -1.0, 0.5]), n=3,
                  reference_units=FACTORIES["ModelSpec"](), residual_scale=8.0)
    return FitResult(**{**values, **fields})


FIT_ARRAYS = ("coefficients", "coefficient_covariance", "residuals_log")
FIT_FIELDS = (*FIT_ARRAYS, "r_squared", "n", "reference_units", "residual_scale",
              "dropped_covariates")


def assert_same_fit(twin, fit):
    """``twin`` is a FitResult with ``fit``'s fields, its arrays as tuples."""
    assert type(twin) is FitResult
    for field in FIT_ARRAYS:
        array = getattr(twin, field)
        np.testing.assert_array_equal(array, getattr(fit, field))
        assert type(array) is tuple
        with pytest.raises(TypeError):
            array[0] = 0.0
    for field in FIT_FIELDS[len(FIT_ARRAYS):]:
        assert getattr(twin, field) == getattr(fit, field)
    assert repr(twin) == repr(fit)


def test_a_fit_result_is_equal_only_to_itself():
    fit, twin = fit_result(), fit_result()
    assert fit == fit and not fit != fit
    assert fit != twin and not fit == twin
    assert hash(fit) == hash(fit) and len({fit, twin, fit}) == 2
    for field in FIT_FIELDS:
        before = getattr(fit, field)
        with pytest.raises(AttributeError):
            setattr(fit, field, before)
        with pytest.raises(AttributeError):
            delattr(fit, field)
        assert getattr(fit, field) is before
    with pytest.raises(AttributeError):
        fit.extra = 1


def test_fit_result_copies_and_pickles_keep_the_fields_and_read_only_arrays():
    fit = fit_result()
    for twin in copies_and_pickles(fit):
        assert twin != fit
        assert_same_fit(twin, fit)


def test_pickle_of_the_dataclass_fit_result_still_loads():
    assert_same_fit(pickle.loads(base64.b64decode(DATACLASS_FIT_RESULT)), fit_result())


def test_fit_result_positional_and_keyword_construction_agree():
    fit = fit_result()
    positional = FitResult(fit.coefficients, fit.coefficient_covariance, fit.r_squared,
                           fit.residuals_log, fit.n, fit.reference_units, fit.residual_scale)
    assert_same_fit(positional, fit)
    assert positional.dropped_covariates == ()
    assert positional.coefficients == fit.coefficients


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
        (ModelSpec("bmr", W, "mass", G, False, ()),
         ModelSpec(predictor="mass", predictor_reference=G, response="bmr",
                   response_reference=W)),
        (ModelSpec("bmr", W, "mass", G, True, (("age", YR),)),
         ModelSpec("bmr", W, "mass", G, covariates=(("age", YR),), include_quadratic=True)),
        (CsvSchema(("mass",), ("g",)), CsvSchema(unit_expressions=("g",), names=("mass",))),
        (PlotSpec("mass", "bmr", G, W),
         PlotSpec(y="bmr", x="mass", y_reference=W, x_reference=G)),
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
    spec = ModelSpec("bmr", W, "mass", G)
    assert spec.include_quadratic is False
    assert spec.covariates == ()


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
        (lambda: Dimension(time="x"), QuantityParseError, "malformed exponent 'x'"),
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
        (lambda: Quantity("x", M), DataError, "'x' is a str, not a real number"),
        (lambda: Quantity("5", M), DataError, "'5' is a str, not a real number"),
        (lambda: Unit("z", LENGTH, "2"), DataError, "'2' is a str, not a real number"),
        (lambda: parse_quantity("2 m") * "3", DataError, "'3' is a str, not a real number"),
        (lambda: "3" * parse_quantity("2 m"), DataError, "'3' is a str, not a real number"),
        (lambda: parse_quantity("2 m") / "4", DataError, "'4' is a str, not a real number"),
        (lambda: parse_quantity("2 m") * Decimal("1.5"), DataError,
         "Decimal('1.5') is a Decimal, not a real number"),
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
        (lambda: fit_result(r_squared=1.5, residuals_log=np.array([0.5, -1.0, 1.0])),
         DataError, "r_squared 1.5 outside [0, 1]"),
        (lambda: fit_result(r_squared=math.nan), DataError, "r_squared nan outside [0, 1]"),
        (lambda: fit_result(residuals_log=np.array([0.5, -1.0, 1.0])), DataError,
         "residuals sum to 0.5, beyond the rounding bound 8.53e-14; intercept fit failed"),
        (lambda: fit_result(residuals_log=np.array([0.5, -1.0, math.nan])), DataError,
         "residuals sum to nan, beyond the rounding bound 8.53e-14; intercept fit failed"),
    ],
    ids=["dim-float", "dim-malformed", "dim-first-error", "dim-capacity", "unit-symbol-first",
         "unit-zero-scale", "unit-inf-scale", "unit-nan-scale", "quantity-inf", "quantity-nan",
         "quantity-text", "quantity-numeric-text", "unit-text-scale", "times-text",
         "text-times", "divided-by-text", "times-decimal", "relation-target-first", "relation-float", "relation-target-term",
         "relation-target-among-terms", "pi-align", "pi-zero", "pi-gcd", "pi-sign",
         "blast-inf", "blast-nan-first", "blast-zero", "blast-negative", "blast-rho-dimension",
         "blast-rho-sign", "blast-rho-si", "report-dimension", "fit-r-squared-first",
         "fit-r-squared-nan", "fit-residual-sum", "fit-residual-nan"],
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
UNIT_W = f"Unit(symbol='W', dimension={_dim(1, 2, -3, 0, 0)}, scale=1.0)"
UNIT_G = f"Unit(symbol='g', dimension={_dim(1, 0, 0, 0, 0)}, scale=0.001)"
UNIT_YR = f"Unit(symbol='yr', dimension={_dim(0, 0, 1, 0, 0)}, scale=31557000.0)"
SPEC = (f"ModelSpec(response='bmr', response_reference={UNIT_W}, predictor='mass', "
        f"predictor_reference={UNIT_G}, include_quadratic=True, "
        f"covariates=(('age', {UNIT_YR}),))")


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
        ("ModelSpec", SPEC),
        ("CsvSchema", "CsvSchema(names=('mass', 'bmr'), unit_expressions=('g', 'W'))"),
        ("PlotSpec", f"PlotSpec(x='mass', y='bmr', x_reference={UNIT_G}, y_reference={UNIT_W})"),
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


def test_repr_of_a_fit_result():
    assert repr(fit_result()) == (
        "FitResult(coefficients=(0.5, 0.75, -0.25), "
        "coefficient_covariance=((0.04, 0.0, 0.0), (0.0, 0.01, 0.0), (0.0, 0.0, 0.0025)), "
        f"r_squared=0.9, residuals_log=(0.5, -1.0, 0.5), n=3, reference_units={SPEC}, "
        "residual_scale=8.0, dropped_covariates=())"
    )
