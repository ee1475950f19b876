import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelab.algebra import ScalingRelation, solve_balance
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
    _TOKEN_TABLE_SIZE,
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


@pytest.mark.parametrize(
    "number", ["\u0663", "\uff11\uff12", "1_0", "nan", "-inf", "Infinity", "0x10", "1e", "."],
    ids=["arabic-indic", "fullwidth", "underscore", "nan", "inf", "Infinity", "hex", "bare-e",
         "point"],
)
def test_a_number_outside_the_ascii_grammar_is_malformed(number):
    with pytest.raises(QuantityParseError) as info:
        parse_quantity(f"{number} m")
    assert str(info.value) == f"malformed number {number!r} in {number + ' m'!r}"


def test_parse_malformed_exponent():
    with pytest.raises(QuantityParseError):
        parse_quantity("3 m^a")
    with pytest.raises(QuantityParseError):
        parse_quantity("3 m^1.5")


def test_parse_missing_unit():
    with pytest.raises(QuantityParseError):
        parse_quantity("42")


@pytest.mark.parametrize(
    "text, ending",
    [
        ("1e400 ft", "overflows a float"),
        ("-1e400 ft", "overflows a float"),
        ("1e-400 ft", "underflows a float to 0"),
        ("-.5e-400 m s^-2", "underflows a float to 0"),
    ],
    ids=["overflow", "negative-overflow", "underflow", "negative-underflow"],
)
def test_parse_number_out_of_float_range_is_named(text, ending):
    number = text.split()[0]
    with pytest.raises(DataError) as info:
        parse_quantity(text)
    assert str(info.value) == f"number {number!r} in {text!r} {ending}"


@pytest.mark.parametrize("text", ["0 m", "-0.0e-999 m", "0e400 m", "1e-320 m"])
def test_parse_zero_and_subnormal_numbers_are_kept(text):
    assert parse_quantity(text).magnitude == float(text.split()[0])


_BIG, _TINY = 10**400, Fraction(1, 10**400)


@pytest.mark.parametrize(
    "compute, message",
    [
        (lambda: Quantity(_BIG, REG.symbol("m")), f"number {_BIG} overflows a float"),
        (lambda: Quantity(-_BIG, REG.symbol("m")), f"number {-_BIG} overflows a float"),
        (lambda: Quantity(_TINY, REG.symbol("m")), f"number {_TINY} underflows a float to 0"),
        (lambda: UnitRegistry().register("big", LENGTH, _BIG), f"number {_BIG} overflows a float"),
        (lambda: parse_quantity("2 m") * _BIG, f"number {_BIG} overflows a float"),
        (lambda: parse_quantity("2 m") / Fraction(_BIG), f"number {_BIG} overflows a float"),
        (lambda: _TINY * parse_quantity("2 m"), f"number {_TINY} underflows a float to 0"),
    ],
    ids=["magnitude-overflow", "negative-magnitude-overflow", "magnitude-underflow",
         "scale-overflow", "mul-operand-overflow", "div-operand-overflow",
         "rmul-operand-underflow"],
)
def test_a_real_outside_the_float_range_is_named(compute, message):
    with pytest.raises(DataError) as info:
        compute()
    assert str(info.value) == message


def test_reals_inside_the_float_range_become_their_float():
    m = REG.symbol("m")
    for value in (0, Fraction(0), -0.0, Fraction(1, 3), 10**300, Fraction(1, 10**300)):
        assert Quantity(value, m).magnitude == float(value)
    assert Unit("third", LENGTH, Fraction(1, 3)).scale == 1 / 3


# More digits than str() prints by default (4300), so a message names the
# number by its size: 10**5000 has 16610 bits.
_HUGE = 10**5000
_TOO_WIDE = "rational exponent <16610-bit integer> exceeds the supported range (|num|, den < 2^31)"
_TOO_LARGE = "number <16610-bit integer> overflows a float"


@pytest.mark.parametrize(
    "compute, error, message",
    [
        (lambda: Dimension(mass=_HUGE), CapacityError, _TOO_WIDE),
        (lambda: Dimension(mass=-_HUGE), CapacityError, _TOO_WIDE),
        (lambda: Dimension(mass=Fraction(1, _HUGE)), CapacityError,
         "rational exponent <16610-bit fraction> exceeds the supported range (|num|, den < 2^31)"),
        (lambda: LENGTH ** _HUGE, CapacityError, _TOO_WIDE),
        (lambda: LENGTH.combine(LENGTH, _HUGE), CapacityError, _TOO_WIDE),
        (lambda: ScalingRelation("y", {"a": _HUGE}), CapacityError, _TOO_WIDE),
        (lambda: Quantity(_HUGE, REG.symbol("m")), DataError, _TOO_LARGE),
        (lambda: Quantity(Fraction(1, _HUGE), REG.symbol("m")), DataError,
         "number <16610-bit fraction> underflows a float to 0"),
        (lambda: parse_quantity("2 m") * _HUGE, DataError, _TOO_LARGE),
        (lambda: parse_quantity("2 m") ** _HUGE, CapacityError, _TOO_WIDE),
        (lambda: UnitRegistry().register("big", LENGTH, _HUGE), DataError, _TOO_LARGE),
        (lambda: ScalingRelation("y", {"a": 1}).evaluate({"a": parse_quantity("2 m")}, _HUGE),
         DataError, f"evaluating 'y ~ a': {_TOO_LARGE}"),
    ],
    ids=["dimension", "negative-dimension", "dimension-denominator", "pow", "combine",
         "relation", "magnitude", "magnitude-denominator", "mul-operand", "quantity-pow",
         "scale", "prefactor"],
)
def test_a_number_too_long_to_print_is_named_by_its_size(compute, error, message):
    with pytest.raises(error) as info:
        compute()
    assert str(info.value) == message


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


def test_default_registry_is_read_only():
    before = list(REG)
    with pytest.raises(DataError, match="read-only"):
        default_registry().register("furlong", LENGTH, 201.168)
    assert "furlong" not in default_registry()
    assert list(default_registry()) == before
    own = UnitRegistry()
    assert own.register("furlong", LENGTH, 201.168).scale == 201.168
    assert own.resolve("furlong") is own.symbol("furlong")


def test_single_symbol_resolves_to_registered_unit():
    assert REG.resolve("knot") is REG.symbol("knot")


# ---------------------------------------------------------------------------
# resolve against the token-by-token fold


_REFERENCE_RATIONAL = re.compile(r"^([+-]?[0-9]+)(?:/([1-9][0-9]*))?$")


def _reference_rational(text: str) -> tuple[int, int]:
    """The README's ``rational := integer | integer '/' integer``, parsed
    here on its own rather than by the reader under test."""
    match = _REFERENCE_RATIONAL.match(text)
    if not match:
        raise QuantityParseError(f"malformed exponent {text!r}")
    try:
        numerator, denominator = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise QuantityParseError(f"malformed rational {text!r}") from exc
    g = math.gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    if abs(numerator) >= 2**31 or denominator >= 2**31:
        raise CapacityError(f"rational exponent {Fraction(numerator, denominator)} exceeds "
                            f"the supported range (|num|, den < 2^31)")
    return numerator, denominator


def _resolve_reference(registry: UnitRegistry, expression: str) -> Unit:
    """The fold ``resolve`` replaced: ``Dimension.combine`` per token, and
    each ``scale ** (p/q)`` multiplied in left to right."""
    tokens = expression.split()
    if not tokens:
        raise QuantityParseError("empty unit expression")
    if len(tokens) == 1 and tokens[0] in registry:
        return registry.symbol(tokens[0])
    dim, scale, normalized = DIMENSIONLESS, 1.0, []
    for token in tokens:
        symbol, caret, exp_text = token.partition("^")
        unit = registry.symbol(symbol)
        p, q = _reference_rational(exp_text) if caret else (1, 1)
        dim = dim.combine(unit.dimension, Fraction(p, q))
        try:
            scale *= unit.scale ** (p / q)
        except OverflowError:
            scale = math.inf
        normalized.append(symbol if p == q else f"{symbol}^{Fraction(p, q)}")
    return Unit(" ".join(normalized), dim, scale)


def _resolved(resolve, registry, expression):
    """Symbol, dimension and the scale's bits, or the error's type and message."""
    try:
        unit = resolve(registry, expression)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return unit.symbol, unit.dimension, unit.scale.hex()


_RESOLVE_EXPONENTS = ("", "^-1", "^2", "^1/2", "^-2/3", "^2/4", "^+2", "^01", "^100",
                      "^-100", "^1/3", "^715827883", "^-715827883", "^2147483647",
                      "^2147483648", "^1/2147483648", "^x", "^1/0", "^", "^1.5")
_resolve_tokens = st.builds(
    lambda symbol, exp: symbol + exp,
    st.sampled_from(sorted(u.symbol for u in REG) + ["xyz", "M", ""]),
    st.one_of(st.sampled_from(_RESOLVE_EXPONENTS), st.integers(-400, 400).map("^{}".format)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_resolve_tokens, min_size=1, max_size=4).map(" ".join))
@example("s^2 W^715827883")  # each partial sum is in range
@example("W^715827883 s^2")  # the first partial sum's time exponent is not
@example("m^2147483647 m^-2147483647 m^2147483647")
@example("m^2147483647 m")  # integral tokens: the second partial sum is past the bound
@example("m^1/2 kg m^-1/2")  # a fractional partial sum, then integral tokens
@example("m^1/2 m^1/2 kg s^-2")  # back to an integral sum, then integral tokens
@example("   ")
@example("kg^ 1/2")  # a padded exponent: the token "kg^" has an empty one
def test_resolve_matches_the_token_fold(expression):
    for _ in range(2):  # the second resolve reads the token table
        assert _resolved(UnitRegistry.resolve, REG, expression) == _resolved(
            _resolve_reference, REG, expression
        )


def test_resolve_with_a_unit_of_fractional_dimension():
    # An integral token of such a unit is not an integer vector: it takes
    # the rational path, and integral tokens after it do too.
    own = UnitRegistry()
    own.register("m", LENGTH, 1.0)
    own.register("rtm", LENGTH ** Fraction(1, 2), 1.0)
    for expression in ("rtm m", "m rtm", "rtm rtm m", "rtm^2 m^-1", "m^2147483647 rtm^2"):
        for _ in range(2):
            assert _resolved(UnitRegistry.resolve, own, expression) == _resolved(
                _resolve_reference, own, expression
            )
    assert own.resolve("rtm rtm m").dimension == LENGTH ** 2


def test_resolve_depends_on_token_order():
    # The bound applies to every partial sum, not only to the result.
    assert REG.resolve("s^2 W^715827883").dimension.time == -(2**31 - 1)
    with pytest.raises(CapacityError, match="^rational exponent -2147483649 exceeds"):
        REG.resolve("W^715827883 s^2")


def test_resolve_does_not_remember_a_failed_token():
    own = UnitRegistry()
    own.register("s", TIME, 1.0)
    with pytest.raises(UnknownUnitError):
        own.resolve("s^-1 furlong^2")
    own.register("furlong", LENGTH, 201.168)
    assert own.resolve("s^-1 furlong^2").scale == 201.168**2


def test_resolve_past_the_token_table_cap():
    own = UnitRegistry()
    own.register("m", LENGTH, 1.0)
    own.register("ft", LENGTH, 0.3048)
    half = _TOKEN_TABLE_SIZE // 2
    expressions = [f"ft^{k} m" for k in range(-half, half + 50)]
    for expression in expressions + expressions[::7]:
        assert _resolved(UnitRegistry.resolve, own, expression) == _resolved(
            _resolve_reference, own, expression
        )
    assert len(own._tokens) == _TOKEN_TABLE_SIZE


# ---------------------------------------------------------------------------
# one grammar for every string exponent

def _exponent_outcomes(text: str) -> dict:
    """Each entry point's reading of ``text`` as an exponent: the Fraction
    it gives, or the type and message of what it raises."""
    entry_points = {
        "Dimension": lambda: Dimension(mass=text).mass,
        "combine": lambda: DIMENSIONLESS.combine(MASS, text).mass,
        "pow": lambda: (MASS ** text).mass,
        "ScalingRelation": lambda: ScalingRelation("y", {"a": text}).exponents.get("a", 0),
        "solve_balance": lambda: solve_balance({"y": 1}, {"a": text}, "y").exponents.get("a", 0),
    }
    if not any(ch.isspace() for ch in text):  # whitespace separates unit tokens
        entry_points["resolve"] = lambda: REG.resolve(f"kg^{text}").dimension.mass
    outcomes = {}
    for name, read in entry_points.items():
        try:
            outcomes[name] = Fraction(read())
        except Exception as exc:  # compared, not handled
            outcomes[name] = (type(exc), str(exc))
    return outcomes


_reduced_in_bound = st.builds(
    Fraction, st.integers(-(2**31) + 1, 2**31 - 1), st.integers(1, 2**31 - 1)
)
_exponent_texts = st.one_of(
    _reduced_in_bound.map(str),
    _reduced_in_bound.map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.text(st.sampled_from("0123456789+-/ .e_"), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(_exponent_texts)
@example("0.5")
@example("1e3")
@example(" 1/2")
@example("1_0")
@example("1/0")
@example("+")
@example("2/4")
@example("2147483648")
@example("1e10000000")  # not parsed as a number: rejected at once
@example("1" * 5000)  # more digits than int() converts
@example("\uff12")  # fullwidth 2: digits are ASCII
@example("\u0663")  # Arabic-Indic 3
def test_every_entry_point_reads_one_exponent_grammar(text):
    outcomes = _exponent_outcomes(text)
    assert len(set(outcomes.values())) == 1, outcomes
    try:
        expected = Fraction(*_reference_rational(text))
    except (QuantityParseError, CapacityError) as exc:
        expected = (type(exc), str(exc))
    assert next(iter(outcomes.values())) == expected


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


@pytest.mark.parametrize(
    "compute, message",
    [
        (lambda: parse_quantity("0 m") ** -1, "0 m to the power -1 divides by zero"),
        (lambda: parse_quantity("1 m") / 0, "1 m / 0 divides by zero"),
        (lambda: parse_quantity("1 m") / parse_quantity("0 s"), "1 m / 0 s divides by zero"),
        (lambda: parse_quantity("1e-200 m") * parse_quantity("1e-200 m"),
         "1e-200 m * 1e-200 m underflows a float to 0"),
        (lambda: parse_quantity("1e200 m") * 1e200, "1e+200 m * 1e+200 overflows a float"),
        (lambda: 1e-200 * parse_quantity("1e-200 m"), "1e-200 m * 1e-200 underflows a float to 0"),
        (lambda: parse_quantity("1 m") * math.inf, "1 m * inf overflows a float"),
        (lambda: parse_quantity("1 m") * math.nan, "1 m * nan overflows a float"),
        (lambda: parse_quantity("1e100 m") ** 5, "1e+100 m to the power 5 overflows a float"),
        (lambda: parse_quantity("1e-200 m") ** 2, "1e-200 m to the power 2 underflows a float to 0"),
        (lambda: convert(parse_quantity("1e-322 g"), REG.symbol("kg")),
         "9.88131e-323 g to kg underflows a float to 0"),
        (lambda: convert(parse_quantity("1e-320 s"), REG.symbol("yr")),
         "9.99989e-321 s to yr underflows a float to 0"),
        (lambda: convert(parse_quantity("1e308 yr"), REG.symbol("s")),
         "1e+308 yr to s overflows a float"),
        (lambda: log_ratio(parse_quantity("1e-300 m"), parse_quantity("1e300 m")),
         "1e-300 m / 1e+300 m underflows a float to 0"),
        (lambda: log_ratio(parse_quantity("1e300 m"), parse_quantity("1e-300 m")),
         "1e+300 m / 1e-300 m overflows a float"),
        (lambda: parse_quantity("1e308 m") + parse_quantity("1e308 m"),
         "1e+308 m + 1e+308 m overflows a float"),
        (lambda: parse_quantity("1e308 m") - parse_quantity("-1e308 m"),
         "1e+308 m - -1e+308 m overflows a float"),
        (lambda: parse_quantity("1e308 yr").in_si(), "1e+308 yr to s overflows a float"),
        # An operand whose SI value leaves the float range is named as such.
        (lambda: parse_quantity("1 m") / parse_quantity("1e308 yr"),
         "1e+308 yr to s overflows a float"),
        (lambda: parse_quantity("1e308 yr") ** -1, "1e+308 yr to s overflows a float"),
        (lambda: parse_quantity("1e308 yr") * parse_quantity("1 m"),
         "1e+308 yr to s overflows a float"),
        (lambda: parse_quantity("2 m") * parse_quantity("1e-322 g"),
         "9.88131e-323 g to kg underflows a float to 0"),
        (lambda: parse_quantity("1e-322 g") ** Fraction(1, 2),
         "9.88131e-323 g to kg underflows a float to 0"),
    ],
    ids=["zero-to-negative-power", "div-by-zero-scalar", "div-by-zero-quantity",
         "mul-underflow", "mul-overflow", "rmul-underflow", "mul-inf", "mul-nan",
         "pow-overflow", "pow-underflow", "convert-si-underflow", "convert-underflow",
         "convert-overflow", "log-ratio-underflow", "log-ratio-overflow", "add-overflow",
         "sub-overflow", "in-si-overflow", "div-operand-si-overflow",
         "pow-operand-si-overflow", "mul-operand-si-overflow", "mul-operand-si-underflow",
         "pow-operand-si-underflow"],
)
def test_arithmetic_leaving_the_float_range_names_the_operation(compute, message):
    with pytest.raises(DataError) as info:
        compute()
    assert str(info.value) == message


def test_arithmetic_on_zero_quantities_is_zero():
    zero, one = parse_quantity("0 m"), parse_quantity("1 m")
    assert (zero * one).magnitude == 0
    assert (zero / one).magnitude == 0
    assert (zero * 5).magnitude == 0
    assert (one * 0).magnitude == 0
    assert (zero ** 2).magnitude == 0
    assert convert(zero, REG.symbol("ft")).magnitude == 0
    # A sum that cancels is an exact 0, not an underflow.
    tiny = parse_quantity("5e-324 m")
    assert (tiny - tiny).magnitude == 0
    assert (one + parse_quantity("-1 m")).magnitude == 0
    assert (tiny + zero).magnitude == 5e-324


def _in_range_model(op, x, y):
    """``op(x, y)``, or None where the arithmetic must raise DataError."""
    try:
        value = op(x, y)
    except (OverflowError, ZeroDivisionError):
        return None
    if not math.isfinite(value) or (value == 0 and x != 0 and y != 0):
        return None
    return value


wide_floats = st.floats(allow_nan=False, allow_infinity=False)
scales = st.floats(min_value=1e-300, max_value=1e300)


@given(wide_floats, wide_floats, scales, scales)
@settings(max_examples=300, deadline=None)
def test_arithmetic_is_the_plain_float_expression_or_a_data_error(a, b, s1, s2):
    # In range, every result is bit-identical to the unguarded expression
    # evaluated in the same order; out of range it is a DataError.  An
    # operand whose SI value leaves the range is out of range itself, even
    # where the unguarded expression would hide it (0 * 0, 0 ** 3).
    q1, q2 = Quantity(a, Unit("u1", LENGTH, s1)), Quantity(b, Unit("u2", TIME, s2))
    ft = REG.symbol("ft")
    si1, si2 = _in_range_model(operator.mul, a, s1), _in_range_model(operator.mul, b, s2)

    def model(op, x, y):
        return None if x is None or y is None else _in_range_model(op, x, y)

    cases = [
        (lambda: q1 * q2, model(operator.mul, si1, si2)),
        (lambda: q1 / q2, model(operator.truediv, si1, si2)),
        (lambda: q1 * b, _in_range_model(operator.mul, a, b)),
        (lambda: q1 / b, _in_range_model(operator.truediv, a, b)),
        (lambda: q1 ** 3, model(operator.pow, si1, 3.0)),
        (lambda: convert(q1, ft), model(operator.truediv, si1, ft.scale)),
    ]
    for guarded, expected in cases:
        if expected is None:
            with pytest.raises(DataError):
                guarded()
        else:
            assert guarded().magnitude == expected


# ---------------------------------------------------------------------------
# Dimension against a reference model: five Fractions, each bounded

_BOUND = 2**31
# Few distinct values next to the bound, so that sums and products land on
# it exactly: 2^30 + 2^30, (2^31 - 1) + 1, 2^16 * 2^15 ...
_NEAR_BOUND = st.sampled_from([2**30, _BOUND - 1, _BOUND, _BOUND + 1])
_exponent_fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), _NEAR_BOUND, _NEAR_BOUND.map(lambda n: -n)),
    st.one_of(st.integers(1, 3), st.sampled_from([2**15, 2**16, 2**16 - 1, _BOUND - 1, _BOUND])),
)


def _model_check(value: Fraction) -> Fraction:
    if abs(value.numerator) >= _BOUND or value.denominator >= _BOUND:
        raise CapacityError(
            f"rational exponent {value} exceeds the supported range (|num|, den < 2^31)"
        )
    return value


def _model(components):
    """The reference: a tuple of five bounded Fractions."""
    return tuple(_model_check(Fraction(c)) for c in components)


def _model_str(model) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(("M", "L", "T", "Theta", "Cur"), model)
        if e != 0
    ]
    return " ".join(parts) or "1"


def _outcome(fn):
    """``("ok", value)`` or ``("capacity", message)``."""
    try:
        return "ok", fn()
    except CapacityError as exc:
        return "capacity", str(exc)


def _as_input(value: Fraction, form: int):
    """The same exponent as a Fraction, an int (when integral) or a str."""
    if form == 1 and value.denominator == 1:
        return int(value)
    return str(value) if form == 2 else value


def _assert_matches(dim: Dimension, model) -> None:
    assert dim.as_tuple() == model
    fields = (dim.mass, dim.length, dim.time, dim.temperature, dim.currency)
    assert fields == model
    assert all(type(f) is Fraction for f in fields + dim.as_tuple())
    assert str(dim) == _model_str(model)
    assert dim.is_dimensionless == (not any(model))
    assert dim == Dimension(*model) and hash(dim) == hash(Dimension(*model))


_five = st.lists(_exponent_fractions, min_size=5, max_size=5)


@settings(max_examples=200)
@given(_five, st.integers(0, 2))
def test_dimension_construction_matches_the_model(components, form):
    inputs = [_as_input(c, form) for c in components]
    got = _outcome(lambda: Dimension(*inputs))
    want = _outcome(lambda: _model(components))
    assert got[0] == want[0]
    if got[0] == "ok":
        _assert_matches(got[1], want[1])
        assert Dimension(**dict(zip(Dimension._FIELDS, inputs))) == got[1]
    else:
        assert got[1] == want[1]


_bounded_five = st.lists(
    _exponent_fractions.filter(lambda f: abs(f.numerator) < _BOUND and f.denominator < _BOUND),
    min_size=5,
    max_size=5,
)


def _check_operations(a, b, k: Fraction, form: int) -> None:
    left, right = Dimension(*a), Dimension(*b)
    exponent = _as_input(k, form)
    cases = [
        (lambda: left.combine(right, exponent),
         lambda: _model(x + _model_check(k) * y for x, y in zip(a, b))),
        (lambda: left * right, lambda: _model(x + y for x, y in zip(a, b))),
        (lambda: left / right, lambda: _model(x - y for x, y in zip(a, b))),
        (lambda: left ** exponent, lambda: _model(x * _model_check(k) for x in a)),
    ]
    for operate, reference in cases:
        got, want = _outcome(operate), _outcome(reference)
        assert got[0] == want[0]
        if got[0] == "ok":
            _assert_matches(got[1], want[1])
        else:
            assert got[1] == want[1]
    assert (left == right) == (tuple(a) == tuple(b))
    if tuple(a) == tuple(b):
        assert hash(left) == hash(right)


@settings(max_examples=200)
@given(_bounded_five, _bounded_five, _exponent_fractions, st.integers(0, 2))
def test_dimension_operations_match_the_model(a, b, k, form):
    _check_operations(a, b, k, form)


def _mass(value, length=0) -> list:
    return [Fraction(value), Fraction(length), Fraction(0), Fraction(0), Fraction(0)]


@pytest.mark.parametrize(
    "a, b, k",
    [
        (_mass(_BOUND - 2), _mass(1), Fraction(1)),
        (_mass(_BOUND - 1), _mass(1), Fraction(1)),
        (_mass(-(_BOUND - 1)), _mass(1), Fraction(-1)),
        (_mass(2**30), _mass(2**30), Fraction(2)),
        (_mass(Fraction(1, 2**16), Fraction(1, 2**16 - 1)), _mass(0), Fraction(1)),
        (_mass(Fraction(1, 2**16)), _mass(Fraction(1, 2**16 - 1)), Fraction(1, 2**15)),
        (_mass(Fraction(1, 2**16)), _mass(0), Fraction(1, 2**15 - 1)),
        (_mass(0), _mass(1), Fraction(_BOUND - 1)),
        (_mass(0), _mass(1), Fraction(_BOUND)),
        (_mass(Fraction(1, 2)), _mass(1), Fraction(1, _BOUND - 1)),
    ],
)
def test_dimension_bound_is_exact(a, b, k):
    # Each case puts one result just inside or just outside the bound; the
    # fifth has a common denominator above 2^31 while each exponent is inside.
    for form in (0, 1, 2):
        _check_operations(a, b, k, form)


def test_dimension_is_immutable():
    d = Dimension(mass=1)
    with pytest.raises(AttributeError):
        d.mass = Fraction(2)
    with pytest.raises(AttributeError):
        d.numerators = (2, 0, 0, 0, 0)
    assert d == MASS


def test_dimension_stores_one_reduced_integer_vector():
    d = Dimension(mass=Fraction(1, 2), length=Fraction(-1, 3), time=2)
    assert (d.numerators, d.denominator) == ((3, -2, 12, 0, 0), 6)
    assert (d * d).numerators == (3, -2, 12, 0, 0) and (d * d).denominator == 3
    assert (d / d).numerators == (0,) * 5 and (d / d).denominator == 1
