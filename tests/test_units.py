import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelab.errors import (
    CapacityError,
    DataError,
    DimensionMismatchError,
    QuantityParseError,
    UnknownUnitError,
)
from scalelab.units import (
    ACCELERATION,
    DENSITY,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    MASS,
    TIME,
    VELOCITY,
    Dimension,
    Quantity,
    Unit,
    UnitRegistry,
    convert,
    default_registry,
    log_ratio,
    parse_quantity,
)

REG = default_registry()


# ---------------------------------------------------------------------------
# Dimension.combine

def test_energy_over_density_cancels_mass():
    # [E] = M L^2 T^-2, [rho] = M L^-3; E/rho has dimensions L^5 T^-2
    combined = ENERGY.combine(DENSITY, -1)
    assert combined == Dimension(length=Fraction(5), time=Fraction(-2))


def test_combine_with_zero_vector_is_identity():
    d = Dimension(mass=Fraction(1, 3), time=Fraction(-2))
    assert d.combine(DIMENSIONLESS, 1) == d


def test_combine_adds_componentwise():
    assert ACCELERATION.combine(LENGTH, 1) == Dimension(
        length=Fraction(2), time=Fraction(-2)
    )


def test_combine_overflow_is_reported():
    big = Fraction(2**30, 1)
    d = Dimension(mass=big)
    with pytest.raises(CapacityError):
        d.combine(d, 2**30)


@pytest.mark.parametrize(
    "base,exponent",
    [
        (Fraction(2**30), 2),
        (Fraction(-(2**30)), 2),
        (Fraction(1, 2**16), Fraction(1, 2**16)),
    ],
    ids=["numerator", "negative-numerator", "denominator"],
)
def test_pow_overflow_is_reported(base, exponent):
    with pytest.raises(CapacityError, match="exceeds the supported range"):
        Dimension(mass=base) ** exponent


def test_float_exponents_are_rejected():
    with pytest.raises(TypeError):
        Dimension(mass=0.5)


# ---------------------------------------------------------------------------
# parse_quantity

def test_parse_gram_quantity():
    q = parse_quantity("20 g")
    assert q.magnitude == 20.0
    assert q.dimension == MASS


def test_parse_composite_acceleration():
    q = parse_quantity("9.80665 m s^-2")
    assert q.dimension == ACCELERATION
    assert q.si_value == pytest.approx(9.80665, rel=1e-15)


def test_parse_knots_converts_on_demand():
    q = parse_quantity("6 knot")
    expected = 6 * 1852 / 3600  # from the registry's defining ratio
    assert q.si_value == pytest.approx(expected, rel=1e-15)
    assert convert(q, REG.symbol("m/s")).magnitude == pytest.approx(expected, rel=1e-15)


def test_parse_rational_exponent():
    q = parse_quantity("2 m^1/2")
    assert q.dimension == Dimension(length=Fraction(1, 2))


def test_parse_unknown_unit():
    with pytest.raises(UnknownUnitError, match="stone"):
        parse_quantity("3 stone")


def test_parse_malformed_number():
    with pytest.raises(QuantityParseError):
        parse_quantity("3..5 m")


def test_parse_malformed_exponent():
    with pytest.raises(QuantityParseError):
        parse_quantity("3 m^a")
    with pytest.raises(QuantityParseError):
        parse_quantity("3 m^1.5")


def test_parse_missing_unit():
    with pytest.raises(QuantityParseError):
        parse_quantity("42")


# ---------------------------------------------------------------------------
# convert

def test_convert_hours_to_seconds():
    assert convert(parse_quantity("1 hr"), REG.symbol("s")).magnitude == 3600.0


def test_convert_kilograms_to_grams():
    assert convert(parse_quantity("200 kg"), REG.symbol("g")).magnitude == pytest.approx(
        2e5, rel=1e-15
    )


def test_convert_mph():
    q = convert(parse_quantity("150 mph"), REG.symbol("m/s"))
    assert q.magnitude == pytest.approx(150 * 1609.344 / 3600, rel=1e-15)
    assert q.magnitude == pytest.approx(67.056, rel=1e-12)


def test_convert_dimension_mismatch_names_both():
    with pytest.raises(DimensionMismatchError) as err:
        convert(parse_quantity("1 kg"), REG.symbol("m"))
    assert "M" in str(err.value) and "L" in str(err.value)


# ---------------------------------------------------------------------------
# log_ratio

def test_log_ratio_mass_to_gram():
    assert log_ratio(parse_quantity("20 g"), parse_quantity("1 g")) == pytest.approx(
        math.log(20), rel=1e-15
    )


def test_log_ratio_identity_is_zero():
    q = parse_quantity("7 hr")
    assert log_ratio(q, q) == 0.0


def test_log_ratio_across_units():
    value = log_ratio(parse_quantity("1 kg"), parse_quantity("1 g"))
    assert value == pytest.approx(math.log(1000), rel=1e-15)


def test_log_ratio_requires_commensurable():
    with pytest.raises(DimensionMismatchError):
        log_ratio(parse_quantity("1 kg"), parse_quantity("1 m"))


def test_log_ratio_requires_positive():
    with pytest.raises(DataError):
        log_ratio(parse_quantity("-2 g"), parse_quantity("1 g"))


# ---------------------------------------------------------------------------
# registry consistency

def test_registry_defining_ratios():
    assert REG.symbol("kg").scale / REG.symbol("g").scale == pytest.approx(1000, rel=1e-15)
    assert REG.symbol("ft").scale == 0.3048
    assert REG.symbol("hr").scale == 3600.0
    assert REG.symbol("yr").scale == 3.1557e7
    assert REG.symbol("knot").scale == pytest.approx(1852 / 3600, rel=1e-15)
    assert REG.symbol("mph").scale == pytest.approx(1609.344 / 3600, rel=1e-15)


def test_registry_minimum_contents():
    for symbol in ("g", "kg", "m", "ft", "s", "hr", "yr", "knot", "mph",
                   "m/s", "W", "GBP"):
        assert symbol in REG


def test_registry_rejects_duplicates():
    reg = UnitRegistry()
    reg.register("thing", MASS, 1.0)
    with pytest.raises(DataError):
        reg.register("thing", MASS, 2.0)


def test_single_symbol_resolves_to_registered_unit():
    assert REG.resolve("knot") is REG.symbol("knot")


# ---------------------------------------------------------------------------
# properties

small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
dimensions = st.builds(
    Dimension,
    mass=small_fractions,
    length=small_fractions,
    time=small_fractions,
    temperature=small_fractions,
    currency=small_fractions,
)


@given(dimensions, dimensions, dimensions)
def test_dimension_combine_is_associative_and_commutative(a, b, c):
    assert a.combine(b).combine(c) == a.combine(b.combine(c))
    assert a.combine(b) == b.combine(a)


@given(dimensions)
def test_dimension_inverse(d):
    assert d.combine(d, -1) == DIMENSIONLESS


positive_reals = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@given(positive_reals, positive_reals, positive_reals, positive_reals)
def test_convert_is_transitive(magnitude, s1, s2, s3):
    u1 = Unit("u1", TIME, s1)
    u2 = Unit("u2", TIME, s2)
    u3 = Unit("u3", TIME, s3)
    q = Quantity(magnitude, u1)
    direct = convert(q, u3).magnitude
    via = convert(convert(q, u2), u3).magnitude
    assert via == pytest.approx(direct, rel=1e-12)


@given(positive_reals, positive_reals, positive_reals)
def test_convert_round_trips(magnitude, s1, s2):
    u1 = Unit("u1", MASS, s1)
    u2 = Unit("u2", MASS, s2)
    q = Quantity(magnitude, u1)
    back = convert(convert(q, u2), u1).magnitude
    assert back == pytest.approx(magnitude, rel=1e-12)


@given(positive_reals, positive_reals, positive_reals)
@settings(max_examples=50)
def test_log_ratio_reference_shift_is_constant(magnitude, s1, s2):
    # log_ratio(q, ref1) - log_ratio(q, ref2) depends only on the two
    # references, never on q.
    u1 = Unit("u1", VELOCITY, s1)
    u2 = Unit("u2", VELOCITY, s2)
    q = Quantity(magnitude, REG.symbol("m/s"))
    ref1, ref2 = Quantity(1.0, u1), Quantity(1.0, u2)
    shift = log_ratio(q, ref1) - log_ratio(q, ref2)
    assert shift == pytest.approx(math.log(s2 / s1), abs=1e-12)


def test_quantity_pow_negative_base_fractional_exponent():
    with pytest.raises(DataError):
        parse_quantity("-4 m") ** Fraction(1, 2)


def test_quantity_pow_overflow_is_a_data_error():
    with pytest.raises(DataError, match="overflows"):
        parse_quantity("1e200 s") ** 2
