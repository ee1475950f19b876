import itertools
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalelab.algebra as algebra
from scalelab.algebra import (
    PiGroup,
    ScalingRelation,
    chain,
    check_exponent_bound,
    pi_basis,
    solve_balance,
    solve_target_exponents,
)
from scalelab.errors import (
    DataError,
    DerivationError,
    InconsistentDimensionsError,
    RelationError,
    UnderdeterminedError,
)
from scalelab.units import (
    DENSITY,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    MASS,
    TIME,
    VELOCITY,
    Dimension,
    Quantity,
    coherent_unit,
    default_registry,
    parse_quantity,
)

F = Fraction
REG = default_registry()

KAPPA = Dimension(length=F(2), time=F(-1))       # thermal diffusivity
VISCOSITY = Dimension(mass=F(1), length=F(-1), time=F(-1))
GRAVITY = Dimension(length=F(1), time=F(-2))


# ---------------------------------------------------------------------------
# solve_target_exponents

def test_blast_wave_exponents():
    rel = solve_target_exponents(
        LENGTH, [("E", ENERGY), ("rho", DENSITY), ("t", TIME)], target_name="r"
    )
    assert rel.exponents == {"E": F(1, 5), "rho": F(-1, 5), "t": F(2, 5)}
    assert str(rel) == rel.render() == "r ~ E^1/5 rho^-1/5 t^2/5"


def test_diffusion_time_exponents():
    rel = solve_target_exponents(
        TIME, [("kappa", KAPPA), ("l", LENGTH)], target_name="t"
    )
    assert rel.exponents == {"kappa": F(-1), "l": F(2)}


def test_hull_speed_exponents():
    rel = solve_target_exponents(
        VELOCITY, [("g", GRAVITY), ("l", LENGTH)], target_name="v"
    )
    assert rel.exponents == {"g": F(1, 2), "l": F(1, 2)}
    assert rel.render() == "v ~ g^1/2 l^1/2"


def test_two_lengths_are_underdetermined():
    # rank of the 2x3 dimension matrix is 2, so one free direction remains
    with pytest.raises(UnderdeterminedError) as err:
        solve_target_exponents(
            VELOCITY, [("g", GRAVITY), ("l", LENGTH), ("lambda", LENGTH)]
        )
    assert err.value.free_directions == 1
    matrix = np.array([[1.0, 1.0, 1.0], [-2.0, 0.0, 0.0]])
    assert 3 - np.linalg.matrix_rank(matrix) == 1


def test_impossible_target_is_inconsistent():
    with pytest.raises(InconsistentDimensionsError, match="impossible"):
        solve_target_exponents(ENERGY, [("l", LENGTH), ("t", TIME)])


def test_no_parameters_is_an_error():
    with pytest.raises(RelationError):
        solve_target_exponents(LENGTH, [])


@pytest.mark.parametrize("empty", [[], (), iter([]), (pair for pair in ())],
                         ids=["list", "tuple", "iterator", "generator"])
@pytest.mark.parametrize("derive", [pi_basis, lambda params: solve_target_exponents(LENGTH, params)],
                         ids=["pi_basis", "solve_target_exponents"])
def test_an_empty_parameter_list_is_one_error(derive, empty):
    with pytest.raises(RelationError, match="^at least one quantity is required$"):
        derive(empty)


_PAIRS = "quantities must be (name, Dimension) pairs; got "


@pytest.mark.parametrize(
    "derive, message",
    [
        (lambda: pi_basis([("a", "m")]), _PAIRS + "('a', 'm')"),
        (lambda: pi_basis([("a", LENGTH), ("b", "m")]), _PAIRS + "('b', 'm')"),
        (lambda: solve_target_exponents(LENGTH, [("a", "m")]), _PAIRS + "('a', 'm')"),
        (lambda: solve_target_exponents("m", [("a", LENGTH)]),
         "target 'm' is a str, not a Dimension"),
        (lambda: pi_basis([("a", LENGTH, 1)]), _PAIRS + f"('a', {LENGTH!r}, 1)"),
        (lambda: pi_basis([LENGTH]), _PAIRS + repr(LENGTH)),
        (lambda: pi_basis(iter([("a", LENGTH), LENGTH])), _PAIRS + repr(LENGTH)),
        (lambda: pi_basis([(["a"], LENGTH)]), _PAIRS + f"(['a'], {LENGTH!r})"),
        (lambda: pi_basis([("a", [0, 1, 0, 0, 0])]), _PAIRS + "('a', [0, 1, 0, 0, 0])"),
        (lambda: pi_basis([("a", F(1, 2))]), _PAIRS + "('a', Fraction(1, 2))"),
        (lambda: pi_basis(None), _PAIRS + "None"),
        (lambda: solve_target_exponents(LENGTH, 5), _PAIRS + "5"),
    ],
    ids=["str-dimension", "second-entry", "solve-str-dimension", "str-target",
         "triple", "bare-dimension", "bare-dimension-in-iterator", "unhashable-name",
         "unhashable-dimension", "fraction-dimension", "none", "not-iterable"],
)
def test_a_malformed_parameter_list_names_the_entry(derive, message):
    for _ in range(2):  # an error is not cached: the second call raises it again
        with pytest.raises(RelationError) as info:
            derive()
        assert str(info.value) == message


def test_duplicate_parameter_names_rejected():
    # The check runs in the cached elimination; an exception is not cached,
    # so every call raises it again.
    params = [("a", LENGTH), ("a", TIME)]
    for call in [lambda: solve_target_exponents(LENGTH, params),
                 lambda: pi_basis(params)] * 2:
        with pytest.raises(RelationError) as info:
            call()
        assert str(info.value) == "duplicate quantity names in ['a', 'a']"


def test_impossible_takes_precedence_over_underdetermined():
    # Two lengths are dependent, yet a time is out of their span: the target
    # column becomes a pivot, which is reported before the free direction.
    params = [("a", LENGTH), ("b", LENGTH)]
    with pytest.raises(InconsistentDimensionsError, match="impossible"):
        solve_target_exponents(TIME, params)
    with pytest.raises(UnderdeterminedError) as err:
        solve_target_exponents(LENGTH, params)
    assert err.value.free_directions == 1


@pytest.mark.parametrize(
    "derive,message",
    [
        (
            lambda: solve_target_exponents(
                VELOCITY, [("g", GRAVITY), ("l", LENGTH)], target_name="v"
            ),
            "substitution gives [L T^-2], expected [L T^-1]",
        ),
        (
            lambda: pi_basis(
                [("r", LENGTH), ("E", ENERGY), ("rho", DENSITY), ("t", TIME)]
            ),
            "group pi: r^3 rho t^-1 has dimension [M T^-1]",
        ),
    ],
    ids=["solve_target_exponents", "pi_basis"],
)
def test_a_wrong_elimination_fails_the_internal_check(monkeypatch, derive, message):
    derive()  # the unpatched path passes its own check
    real = algebra._elimination

    def off_by_one(key):
        # Add 1 to each nonzero multiplier of the first step, which a target
        # column replays (here the target stays in the span), and to every
        # echelon entry, which the groups are read off.
        names, rows, common, echelon, pivots, last, steps = real(key)
        (swap, pivot, prev, multipliers), *rest = steps
        multipliers = tuple([(i, m + 1 if m else 0) for i, m in multipliers])
        steps = ((swap, pivot, prev, multipliers), *rest)
        echelon = tuple([tuple([v + 1 for v in row]) for row in echelon])
        return names, rows, common, echelon, pivots, last, steps

    monkeypatch.setattr(algebra, "_elimination", off_by_one)
    with pytest.raises(DerivationError, match=f"^internal check failed: {re.escape(message)}$"):
        derive()


KEPLER_G = Dimension(mass=F(-1), length=F(3), time=F(-2))  # the gravitational constant


def test_a_negative_last_pivot_is_read_with_its_sign():
    # G's mass exponent -1 is the first pivot, and every pivot ends as the
    # last one, -2: the answers are the reduced column over it, negated.
    params = [("G", KEPLER_G), ("M", MASS), ("a", LENGTH)]
    assert algebra._eliminated(params)[5] == -2
    assert solve_target_exponents(TIME, params, "T") == ScalingRelation(
        "T", {"G": "-1/2", "M": "-1/2", "a": "3/2"}
    )
    # With the period as a fourth quantity its column is free: x_T = -2,
    # and the group read off is (-1, -1, 3, -2), sign-normalised.
    groups = pi_basis(params + [("T", TIME)])
    assert [g.exponents for g in groups] == [(1, 1, -3, 2)]
    assert groups[0].render() == "pi: G M a^-3 T^2"


def test_a_read_off_group_has_its_gcd_divided_out():
    # An area's pivot is 2, so the second moment of area (L^4) reads off
    # as x_I = 2, x_A = -4: the group is (2, -1) once the 2 is divided out.
    params = [("A", Dimension(length=F(2))), ("I", Dimension(length=F(4)))]
    assert algebra._eliminated(params)[3][0] == (2, 4)
    assert [g.exponents for g in pi_basis(params)] == [(2, -1)]


# ---------------------------------------------------------------------------
# pi_basis

def test_blast_group_in_conventional_order():
    groups = pi_basis(
        [("E", ENERGY), ("t", TIME), ("rho", DENSITY), ("r", LENGTH)]
    )
    assert len(groups) == 1
    assert groups[0].exponents == (1, 2, -1, -5)
    assert str(groups[0]) == groups[0].render() == "pi: E t^2 rho^-1 r^-5"


def test_blast_group_alternate_order_is_the_reciprocal():
    # Normalization pins the first nonzero exponent positive, so with the
    # radius listed first the group appears inverted; same content.
    groups = pi_basis(
        [("r", LENGTH), ("E", ENERGY), ("rho", DENSITY), ("t", TIME)]
    )
    assert len(groups) == 1
    assert groups[0].exponents == (5, -1, 1, -2)


def test_roasting_group():
    groups = pi_basis([("kappa", KAPPA), ("t", TIME), ("l", LENGTH)])
    assert len(groups) == 1
    assert groups[0].exponents == (1, 1, -2)
    assert groups[0].render() == "pi: kappa t l^-2"


def test_reynolds_group():
    groups = pi_basis(
        [("rho", DENSITY), ("v", VELOCITY), ("l", LENGTH), ("eta", VISCOSITY)]
    )
    assert len(groups) == 1
    assert groups[0].exponents == (1, 1, 1, -1)


def test_single_quantity_has_empty_basis():
    assert pi_basis([("E", ENERGY)]) == []


def test_pi_group_normal_form_is_enforced():
    with pytest.raises(RelationError):
        PiGroup(("a", "b"), (-1, 1))
    with pytest.raises(RelationError):
        PiGroup(("a", "b"), (2, 4))
    with pytest.raises(RelationError):
        PiGroup(("a",), (0,))


# ---------------------------------------------------------------------------
# solve_balance / chain

def test_drag_balance():
    rel = solve_balance({"l": 2, "v": 2}, {"l": 3}, "v")
    assert rel.exponents == {"l": F(1, 2)}
    assert rel.render() == "v ~ l^1/2"


def test_degenerate_balance():
    with pytest.raises(RelationError, match="zero net exponent"):
        solve_balance({"x": 1}, {"x": 1}, "x")


def test_balance_missing_name():
    with pytest.raises(RelationError):
        solve_balance({"x": 1}, {"y": 1}, "z")


def test_balance_inversion():
    rel = solve_balance({"m": 1}, {"l": 3}, "l")
    assert rel.exponents == {"m": F(1, 3)}


def test_chain_terminal_velocity():
    v = ScalingRelation("v", {"l": F(1, 2)})
    l_of_m = ScalingRelation("l", {"m": F(1, 3)})
    assert chain(v, l_of_m).exponents == {"m": F(1, 6)}


def test_chain_metabolic():
    s = ScalingRelation("s", {"l": 2})
    l_of_m = ScalingRelation("l", {"m": F(3, 8)})
    assert chain(s, l_of_m).exponents == {"m": F(3, 4)}


def test_chain_with_identity_is_noop():
    rel = ScalingRelation("v", {"l": F(1, 2), "g": F(1, 2)})
    assert chain(rel, ScalingRelation.identity("l")).exponents == rel.exponents


def test_chain_requires_target_present():
    with pytest.raises(RelationError):
        chain(ScalingRelation("v", {"l": 1}), ScalingRelation("m", {"x": 1}))


def test_relation_rejects_self_reference():
    with pytest.raises(RelationError):
        ScalingRelation("x", {"x": 2})
    # the lone exception: the identity relation, used for no-op chaining
    assert ScalingRelation.identity("x").is_identity


def test_evaluate_requires_every_term_bound():
    relation = ScalingRelation("v", {"g": F(1, 2), "l": F(1, 2)})
    with pytest.raises(RelationError, match="no value for l"):
        relation.evaluate({"g": parse_quantity("9.8 m s^-2")})


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            st.sampled_from(["kg", "m", "s", "J", "m/s", "kg m^-3"]),
            st.floats(min_value=0.1, max_value=10.0),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_evaluate_dimension_is_the_exponent_weighted_sum(terms, prefactor):
    relation = ScalingRelation(
        "y", {f"q{i}": exp for i, (exp, _, _) in enumerate(terms)}
    )
    bindings = {
        f"q{i}": Quantity(value, REG.resolve(unit))
        for i, (_, unit, value) in enumerate(terms)
    }
    expected = Dimension()
    for name, exp in relation.exponents.items():
        expected = expected.combine(bindings[name].dimension, exp)
    result = relation.evaluate(bindings, prefactor)
    assert result.dimension == expected
    magnitude = prefactor
    for name, exp in relation.exponents.items():
        magnitude *= bindings[name].si_value ** float(exp)
    assert result.si_value == pytest.approx(magnitude, rel=1e-12)


def test_evaluate_underflow_is_a_data_error():
    relation = ScalingRelation("y", {"a": 1, "b": 1})
    tiny = parse_quantity("1e-200 m")
    with pytest.raises(DataError, match=r"^evaluating 'y ~ a b': 1e-200 m \* 1e-200 m underflows a float to 0$"):
        relation.evaluate({"a": tiny, "b": tiny})
    with pytest.raises(DataError, match="underflows"):
        relation.evaluate({"a": tiny, "b": parse_quantity("1 m")}, 1e-200)


def test_evaluate_zero_input_gives_zero():
    # A zero result is an underflow only when every input is nonzero.
    relation = ScalingRelation("y", {"a": 1, "b": 1})
    one, zero = parse_quantity("1 m"), parse_quantity("0 m")
    assert relation.evaluate({"a": one, "b": zero}).si_value == 0
    assert relation.evaluate({"a": one, "b": one}, 0.0).si_value == 0


def test_evaluate_identity_returns_the_binding():
    q = parse_quantity("3 ft")
    assert ScalingRelation.identity("x").evaluate({"x": q}) == q.in_si()


def _evaluate_reference(relation, bindings, prefactor):
    """The quantity fold ``evaluate`` replaced."""
    try:
        result = Quantity(1.0, coherent_unit(DIMENSIONLESS)) * prefactor
        for name, exp in relation.exponents.items():
            result = bindings[name] ** exp * result
    except DataError as exc:
        raise DataError(f"evaluating {relation.render()!r}: {exc}") from None
    return result


def _evaluated(evaluate, relation, bindings, prefactor):
    """The magnitude's bits and the unit, or the error's type and message."""
    try:
        result = evaluate(relation, bindings, prefactor)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return result.magnitude.hex(), result.unit


_EVAL_MAGNITUDES = st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 1e-300, 1e-200, 1e-100, 0.5,
                                    1.0, -1.0, 3.7, -3.7, 1e100, 1e200, 1e300, 1e308, -1e308])
_eval_quantities = st.builds(
    lambda magnitude, unit: Quantity(magnitude, REG.resolve(unit)),
    _EVAL_MAGNITUDES,
    st.sampled_from(["kg", "g", "m", "ft", "s", "hr", "yr", "J", "W", "mph", "kg m^-3",
                     "m^1/2", "s^-1/3"]),
)
_eval_exponents = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds(F, st.integers(-(2**30), 2**30), st.sampled_from([1, 2, 3])),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_eval_exponents, _eval_quantities), max_size=4),
    st.one_of(_EVAL_MAGNITUDES, _eval_quantities),
)
@example([(F(2**30), parse_quantity("1 m"))] * 2, 1.0)  # the product's dimension
@example([(F(2**30), parse_quantity("1 kg m^-3"))], 1.0)  # the power's dimension
@example([(F(1), parse_quantity("1e-200 m"))] * 2, 1.0)
@example([(F(1, 2), parse_quantity("-4 m"))], 1.0)
@example([(F(-1), parse_quantity("0 m"))], parse_quantity("2 ft"))
@example([(F(1), parse_quantity("1e200 m")), (F(-1), parse_quantity("1e-150 s"))], 1e10)
@example([(F(0), parse_quantity("1e308 yr"))], 1.0)  # its SI value overflows; inf ** 0.0 is 1.0
@example([(F(-1), parse_quantity("3 m"))], 0.0)  # a zero prefactor gives 0
@example([(F(2), parse_quantity("1e-200 m")), (F(1), parse_quantity("0 s"))], 1.0)
def test_evaluate_matches_the_quantity_fold(terms, prefactor):
    # Exponents are set in place, so a drawn 0 stays a term.
    relation = ScalingRelation("y", {})
    relation.exponents.update({f"q{i}": exp for i, (exp, _) in enumerate(terms)})
    bindings = {f"q{i}": q for i, (_, q) in enumerate(terms)}
    expected = _evaluated(_evaluate_reference, relation, bindings, prefactor)
    algebra._evaluation_plan.cache_clear()
    for _ in range(2):  # the first call makes the shape's plan, the second reads it
        assert _evaluated(ScalingRelation.evaluate, relation, bindings, prefactor) == expected


def test_evaluate_sees_exponents_changed_in_place():
    relation = ScalingRelation("y", {"a": F(1, 2), "b": F(-1)})
    bindings = {"a": parse_quantity("4 m"), "b": parse_quantity("2 s^2")}
    assert relation.evaluate(bindings).unit.symbol == "m^1/2 s^-2"
    changes = [
        {"a": F(3)},  # a new exponent value
        {"b": F(2**30)},  # a dimension past the exponent bound
        {"a": F(1, 3), "b": F(1, 2)},
    ]
    for change in changes:
        relation.exponents.update(change)
        for _ in range(2):
            assert _evaluated(ScalingRelation.evaluate, relation, bindings, 2.0) == _evaluated(
                _evaluate_reference, relation, bindings, 2.0
            )
    del relation.exponents["b"]
    assert relation.evaluate(bindings).unit.symbol == "m^1/3"


@pytest.mark.parametrize(
    "bindings,prefactor,message",
    [
        ({"a": 2.0}, 1.0, "'a' is bound to a float, not a Quantity"),
        ({"a": "2 m"}, 1.0, "'a' is bound to a str, not a Quantity"),
        ({"a": parse_quantity("2 m")}, "x", "the prefactor must be a real number or a Quantity, not str"),
        ({"a": parse_quantity("2 m")}, None, "the prefactor must be a real number or a Quantity, not NoneType"),
    ],
    ids=["float-binding", "str-binding", "str-prefactor", "none-prefactor"],
)
def test_evaluate_rejects_a_bad_argument(bindings, prefactor, message):
    relation = ScalingRelation("y", {"a": 1})
    with pytest.raises(RelationError, match=f"^cannot evaluate 'y ~ a': {message}$"):
        relation.evaluate(bindings, prefactor)


@pytest.mark.parametrize(
    "exponent,message",
    [
        (0.5, "'y ~ a^0.5 b^2': the exponent of 'a' is a float, not an int or Fraction"),
        ("1/2", "'y ~ a^1/2 b^2': the exponent of 'a' is a str, not an int or Fraction"),
    ],
    ids=["float", "str"],
)
def test_evaluate_names_an_exponent_set_in_place_to_a_non_rational(exponent, message):
    # The constructor raises TypeError for such an exponent; one set in
    # place is only seen by evaluate.
    relation = ScalingRelation("y", {"a": 1, "b": 2})
    relation.exponents["a"] = exponent
    bindings = {"a": parse_quantity("4 m"), "b": parse_quantity("2 s")}
    with pytest.raises(RelationError, match=f"^cannot evaluate {re.escape(message)}$"):
        relation.evaluate(bindings)


def test_evaluate_takes_any_real_prefactor():
    relation = ScalingRelation("y", {"a": 1})
    bindings = {"a": parse_quantity("2 m")}
    for prefactor in (3, F(3), np.float64(3.0), True):
        assert relation.evaluate(bindings, prefactor).si_value == 2.0 * float(prefactor)


@pytest.mark.parametrize(
    "prefactor,ending",
    [(10**400, f"number {10**400} overflows a float"),
     (F(1, 10**400), f"number 1/{10**400} underflows a float to 0")],
    ids=["overflow", "underflow"],
)
def test_evaluate_names_a_prefactor_outside_the_float_range(prefactor, ending):
    relation = ScalingRelation("y", {"a": 1})
    bindings = {"a": parse_quantity("2 m")}
    with pytest.raises(DataError) as info:
        relation.evaluate(bindings, prefactor)
    assert str(info.value) == f"evaluating 'y ~ a': {ending}"
    assert _evaluated(_evaluate_reference, relation, bindings, prefactor) == (
        DataError, str(info.value))


# ---------------------------------------------------------------------------
# check_exponent_bound

def test_beam_bound():
    assert check_exponent_bound(2.70, F(7, 3), F(8, 3)) is False
    assert check_exponent_bound(2.5, F(7, 3), F(8, 3)) is True
    assert check_exponent_bound(F(8, 3), F(7, 3), F(8, 3)) is False


def test_bound_requires_order():
    with pytest.raises(RelationError):
        check_exponent_bound(1, F(2), F(1))
    with pytest.raises(RelationError, match="^bound requires lower < upper, got 1 and 1$"):
        check_exponent_bound(1, F(1), F(1))


@pytest.mark.parametrize(
    "compute, message",
    [
        (lambda: check_exponent_bound(1, 10**5000, 0),
         "bound requires lower < upper, got <16610-bit integer> and 0"),
        (lambda: PiGroup(("a",), (2 * 10**5000,)),
         "exponents (<16611-bit integer>) are not in normalized form"),
    ],
    ids=["bound", "pi-group"],
)
def test_a_number_too_long_to_print_is_named_by_its_size(compute, message):
    with pytest.raises(RelationError) as info:
        compute()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# exactness invariants

small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
dimensions = st.builds(
    Dimension,
    mass=small_fractions,
    length=small_fractions,
    time=small_fractions,
)


@given(st.lists(dimensions, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_pi_groups_are_exactly_dimensionless_and_count_matches_rank(dims):
    quantities = [(f"q{i}", d) for i, d in enumerate(dims)]
    groups = pi_basis(quantities)
    for group in groups:
        total = Dimension()
        for (name, dim), exp in zip(quantities, group.exponents):
            total = total.combine(dim, exp)
        assert total.is_dimensionless  # exact, not approximate
    # Buckingham count against an independent floating-point rank oracle
    matrix = np.array(
        [[float(e) for e in d.as_tuple()] for d in dims], dtype=float
    ).T
    rank = int(np.linalg.matrix_rank(matrix))
    assert rank + len(groups) == len(dims)


@given(st.lists(dimensions, min_size=1, max_size=4), dimensions)
@settings(max_examples=100, deadline=None)
def test_solutions_verify_by_exact_substitution(dims, target):
    quantities = [(f"q{i}", d) for i, d in enumerate(dims)]
    try:
        rel = solve_target_exponents(target, quantities)
    except (InconsistentDimensionsError, UnderdeterminedError):
        return
    total = Dimension()
    for name, dim in quantities:
        total = total.combine(dim, rel.exponents.get(name, F(0)))
    assert total == target


nonzero_fractions = small_fractions.filter(lambda f: f != 0)


@given(nonzero_fractions, nonzero_fractions, nonzero_fractions)
def test_chain_is_associative(a, b, c):
    xy = ScalingRelation("x", {"y": a})
    yz = ScalingRelation("y", {"z": b})
    zw = ScalingRelation("z", {"w": c})
    left = chain(chain(xy, yz), zw)
    right = chain(xy, chain(yz, zw))
    assert left.target == right.target and left.exponents == right.exponents


# ---------------------------------------------------------------------------
# unit covariance: an answer does not depend on the units its inputs are in

_UNITS_PER_BASE = (("kg", "g"), ("m", "ft"), ("s", "min", "hr", "yr"))
_half_integers = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)])
_mlt_dimensions = st.builds(
    Dimension, mass=_half_integers, length=_half_integers, time=_half_integers
)


def _in_units(quantity, system):
    """``quantity`` in the product of ``system``'s mass, length and time
    units that has its dimension (``g^1/2 ft hr^-2`` ...), its magnitude
    worked out here from the registry's scales."""
    exponents = quantity.dimension.as_tuple()[:3]
    powers = [(symbol, e) for symbol, e in zip(system, exponents) if e]
    if not powers:
        return quantity
    scale = math.prod(REG.symbol(symbol).scale ** float(e) for symbol, e in powers)
    unit = REG.resolve(" ".join(f"{symbol}^{e}" for symbol, e in powers))
    return Quantity(quantity.si_value / scale, unit)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            _mlt_dimensions,
            st.floats(0.1, 10.0),
            st.tuples(*(st.sampled_from(symbols) for symbols in _UNITS_PER_BASE)),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5),
)
def test_derived_relations_and_pi_groups_are_unit_covariant(params, weights):
    si = {f"q{i}": Quantity(m, coherent_unit(dim)) for i, (dim, m, _) in enumerate(params)}
    other = {name: _in_units(si[name], system) for name, (_, _, system) in zip(si, params)}
    quantities = [(name, q.dimension) for name, q in si.items()]
    relations = [
        ScalingRelation("pi", dict(zip(group.names, group.exponents)))
        for group in pi_basis(quantities)
    ]
    target = Dimension()
    for (_, dim), weight in zip(quantities, weights):
        target = target.combine(dim, weight)
    try:
        relations.append(solve_target_exponents(target, quantities))
    except UnderdeterminedError:
        pass
    for relation in relations:
        expected = relation.evaluate(si).si_value
        assert relation.evaluate(other).si_value == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# independent exact oracle: Fraction Gauss-Jordan with a null space
#
# Shares nothing with the algebra module: the inputs are read through
# Dimension.as_tuple(), and every step is plain Fraction arithmetic.


def _rref(columns):
    """Reduced row echelon form of the matrix with these columns, and its
    pivot columns."""
    rows = [list(row) for row in zip(*columns)]
    pivots = []
    for c in range(len(columns)):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def _oracle_solve(columns, target):
    """("impossible", None), ("underdetermined", surplus) or ("ok", x)."""
    n = len(columns)
    rows, pivots = _rref(list(columns) + [target])
    if n in pivots:
        return "impossible", None
    if len(pivots) < n:
        return "underdetermined", n - len(pivots)
    return "ok", [rows[i][n] for i in range(n)]


def _oracle_null_space(columns):
    rows, pivots = _rref(columns)
    basis = []
    for free in (c for c in range(len(columns)) if c not in pivots):
        vector = [F(0)] * len(columns)
        vector[free] = F(1)
        for row, pivot in zip(rows, pivots):
            vector[pivot] = -row[free]
        basis.append(vector)
    return basis


def _combination(columns, weights):
    return [sum((F(w) * col[k] for col, w in zip(columns, weights)), F(0)) for k in range(5)]


_oracle_exponents = st.sampled_from(
    [F(0)] * 6 + [F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 2), F(3, 2), F(-1, 3), F(2, 5)]
)
_oracle_dimensions = st.lists(_oracle_exponents, min_size=5, max_size=5).map(lambda v: Dimension(*v))


@st.composite
def _oracle_problems(draw):
    """1-8 quantities, some zero, some repeating an earlier column, and two
    targets, each a random dimension or a combination of the columns."""
    dims = []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new"] * 4 + ["zero", "repeat"]))
        if kind == "zero":
            dims.append(DIMENSIONLESS)
        elif kind == "repeat" and dims:
            dims.append(draw(st.sampled_from(dims)))
        else:
            dims.append(draw(_oracle_dimensions))
    columns = [d.as_tuple() for d in dims]
    targets = []
    for _ in range(2):
        if draw(st.booleans()):
            targets.append(draw(_oracle_dimensions))
        else:
            weights = draw(st.lists(_oracle_exponents, min_size=len(dims), max_size=len(dims)))
            targets.append(Dimension(*_combination(columns, weights)))
    return [(f"q{i}", d) for i, d in enumerate(dims)], targets


def _solved(target, params):
    """The relation's exponents, or the error's type, message and surplus."""
    try:
        relation = solve_target_exponents(target, params, "y")
    except UnderdeterminedError as exc:
        return UnderdeterminedError, str(exc), exc.free_directions
    except InconsistentDimensionsError as exc:
        return InconsistentDimensionsError, str(exc), None
    return dict(relation.exponents)


def _check_against_oracle(params, target, solved):
    columns = [d.as_tuple() for _, d in params]
    outcome, detail = _oracle_solve(columns, list(target.as_tuple()))
    if outcome == "ok":
        assert isinstance(solved, dict)
        exponents = [solved.get(name, F(0)) for name, _ in params]
        assert exponents == detail
        assert _combination(columns, exponents) == list(target.as_tuple())
    elif outcome == "impossible":
        assert type(solved) is tuple and solved[0] is InconsistentDimensionsError
    else:
        assert type(solved) is tuple and solved[0] is UnderdeterminedError
        assert solved[2] == detail


def _check_groups_against_oracle(params, groups):
    columns = [d.as_tuple() for _, d in params]
    null_space = _oracle_null_space(columns)
    assert len(groups) == len(null_space)  # n - rank
    for group in groups:
        assert group.names == tuple(name for name, _ in params)
        assert _combination(columns, group.exponents) == [0] * 5  # exactly dimensionless
        nonzero = [e for e in group.exponents if e != 0]
        assert all(isinstance(e, int) for e in group.exponents)
        assert math.gcd(*nonzero) == 1 and nonzero[0] > 0  # normalized
    if groups:
        _, pivots = _rref([[F(e) for e in g.exponents] for g in groups])
        assert len(pivots) == len(groups)  # independent


@settings(max_examples=300, deadline=None)
@given(_oracle_problems())
def test_derivations_agree_with_an_independent_oracle(problem):
    params, (target, other) = problem
    algebra._elimination.cache_clear()
    solved = _solved(target, params)  # solve, then pi over the same matrix
    groups = pi_basis(params)
    _check_against_oracle(params, target, solved)
    _check_groups_against_oracle(params, groups)

    algebra._elimination.cache_clear()
    assert pi_basis(params) == groups  # pi, then solve
    assert _solved(target, params) == solved

    algebra._elimination.cache_clear()
    _check_against_oracle(params, other, _solved(other, params))  # two targets, one matrix
    assert _solved(target, params) == solved


@pytest.mark.parametrize(
    "columns,target,expected",
    [
        ([(1, 0, 0, 0, 0), (1, 0, 0, 0, 0)], (1, 0, 0, 0, 0), ("underdetermined", 1)),
        ([(0, 1, 0, 0, 0)], (0, 0, 1, 0, 0), ("impossible", None)),
        ([(1, 2, -2, 0, 0), (1, -3, 0, 0, 0), (0, 0, 1, 0, 0)], (0, 1, 0, 0, 0),
         ("ok", [F(1, 5), F(-1, 5), F(2, 5)])),
        ([(0, 0, 0, 0, 0)], (0, 0, 0, 0, 0), ("underdetermined", 1)),
    ],
    ids=["repeated", "impossible", "blast", "zero"],
)
def test_the_oracle_itself(columns, target, expected):
    columns = [[F(v) for v in col] for col in columns]
    assert _oracle_solve(columns, [F(v) for v in target]) == expected


# ---------------------------------------------------------------------------
# brute-force enumeration oracle
#
# Build systems whose solution is a known grid vector, enumerate every grid
# vector satisfying the system exactly, and demand the solver agree: a
# unique grid solution must be returned verbatim, several must raise
# UnderdeterminedError.

def _grid(bound: int, max_denominator: int) -> list[Fraction]:
    values = {F(0)}
    for q in range(1, max_denominator + 1):
        for p in range(-bound * q, bound * q + 1):
            values.add(F(p, q))
    return sorted(values)


def _enumerate_solutions(int_dims, target, grid):
    """All grid exponent vectors x with sum x_i * dim_i == target, exactly."""
    scale = 60  # lcm of denominators 1..6
    matrix = np.array(int_dims, dtype=np.int64).T  # rows: base dims
    scaled_target = [t * scale for t in target]
    assert all(t.denominator == 1 for t in scaled_target)
    rhs = np.array([int(t) for t in scaled_target], dtype=np.int64)
    candidates = np.array(
        list(itertools.product(*[[int(v * scale) for v in grid]] * len(int_dims))),
        dtype=np.int64,
    ).T
    hits = np.all(matrix @ candidates == rhs[:, None], axis=0)
    return [
        tuple(F(int(c), scale) for c in candidates[:, i])
        for i in np.nonzero(hits)[0]
    ]


@pytest.mark.parametrize("n_quantities,bound", [(2, 2), (3, 2), (4, 1)])
def test_solver_agrees_with_enumeration_oracle(n_quantities, bound):
    rng = np.random.default_rng(1859 + n_quantities)
    grid = _grid(bound, 6)
    for trial in range(12):
        int_dims = [
            tuple(int(v) for v in rng.integers(-3, 4, size=3))
            for _ in range(n_quantities)
        ]
        dims = [
            Dimension(mass=F(a), length=F(b), time=F(c)) for a, b, c in int_dims
        ]
        chosen = [grid[i] for i in rng.integers(0, len(grid), size=n_quantities)]
        target_vec = tuple(
            sum(x * F(d[k]) for x, d in zip(chosen, int_dims)) for k in range(3)
        )
        target = Dimension(
            mass=target_vec[0], length=target_vec[1], time=target_vec[2]
        )
        solutions = _enumerate_solutions(int_dims, target_vec, grid)
        assert tuple(chosen) in solutions
        quantities = [(f"q{i}", d) for i, d in enumerate(dims)]
        float_matrix = np.array(int_dims, dtype=float).T
        nullity = n_quantities - int(np.linalg.matrix_rank(float_matrix))
        try:
            rel = solve_target_exponents(target, quantities)
        except UnderdeterminedError as err:
            # A free direction exists; the bounded grid may see one point of
            # the solution line or several, but never zero.
            assert err.free_directions == nullity
            assert len(solutions) >= 1
        else:
            # A unique solution: the grid must contain it and nothing else.
            found = tuple(
                rel.exponents.get(f"q{i}", F(0)) for i in range(n_quantities)
            )
            assert solutions == [found]
            assert nullity == 0


def test_inconsistent_instances_against_rank_oracle():
    # Two quantities span at most a plane in dimension space, so a random
    # integer target usually falls outside it.
    rng = np.random.default_rng(4105)
    checked = 0
    for trial in range(60):
        int_dims = [
            tuple(int(v) for v in rng.integers(-3, 4, size=3)) for _ in range(2)
        ]
        target_vec = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        a = np.array(int_dims, dtype=float).T
        augmented = np.column_stack([a, np.array(target_vec, dtype=float)])
        if np.linalg.matrix_rank(augmented) <= np.linalg.matrix_rank(a):
            continue  # solvable; covered by the enumeration oracle
        checked += 1
        dims = [
            Dimension(mass=F(x), length=F(y), time=F(z)) for x, y, z in int_dims
        ]
        target = Dimension(
            mass=F(target_vec[0]), length=F(target_vec[1]), time=F(target_vec[2])
        )
        with pytest.raises(InconsistentDimensionsError):
            solve_target_exponents(target, [(f"q{i}", d) for i, d in enumerate(dims)])
    assert checked > 5


# ---------------------------------------------------------------------------
# Rendering: one monomial format for dimensions, units, relations and groups

MIXED = Dimension(mass=F(-1), length=F(1, 2), time=F(3))


@pytest.mark.parametrize(
    "render,expected",
    [
        pytest.param(lambda: str(MIXED), "M^-1 L^1/2 T^3", id="dimension"),
        pytest.param(
            lambda: str(Dimension(temperature=F(-2, 3), currency=F(1))),
            "Theta^-2/3 Cur",
            id="dimension-theta-cur",
        ),
        pytest.param(lambda: str(DIMENSIONLESS), "1", id="dimension-zero"),
        pytest.param(
            lambda: coherent_unit(MIXED).symbol, "kg^-1 m^1/2 s^3", id="unit"
        ),
        pytest.param(
            lambda: coherent_unit(MASS ** -2).symbol, "kg^-2", id="unit-integer"
        ),
        pytest.param(
            lambda: coherent_unit(DIMENSIONLESS).symbol, "1", id="unit-zero"
        ),
        pytest.param(
            lambda: ScalingRelation(
                "y", {"a": -1, "b": F(1, 2), "c": F(3), "d": 0}
            ).render(),
            "y ~ a^-1 b^1/2 c^3",
            id="relation",
        ),
        pytest.param(
            lambda: ScalingRelation("y", {"a": F(6, 3)}).render(),
            "y ~ a^2",
            id="relation-integral-fraction",
        ),
        pytest.param(
            lambda: ScalingRelation("y", {"a": 0}).render(), "y ~ 1", id="relation-zero"
        ),
        pytest.param(
            lambda: PiGroup(("a", "b", "c"), (1, 0, -2)).render(),
            "pi: a c^-2",
            id="pi-group",
        ),
        pytest.param(
            lambda: PiGroup(("a", "b"), (3, -1)).render(),
            "pi: a^3 b^-1",
            id="pi-group-power",
        ),
    ],
)
def test_monomials_render_alike(render, expected):
    assert render() == expected


# ---------------------------------------------------------------------------
# one elimination per parameter list

def test_one_parameter_list_is_eliminated_once_for_solve_and_pi():
    params = [("E", ENERGY), ("rho", DENSITY), ("t", TIME)]
    algebra._elimination.cache_clear()
    solved = solve_target_exponents(LENGTH, params, "r")
    assert solved == ScalingRelation("r", {"E": "1/5", "rho": "-1/5", "t": "2/5"})
    assert pi_basis(params) == []
    info = algebra._elimination.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    # Pairs given as lists, or as a generator, key the same entry.
    assert solve_target_exponents(LENGTH, [list(pair) for pair in params], "r") == solved
    assert pi_basis(pair for pair in params) == []
    info = algebra._elimination.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# ---------------------------------------------------------------------------
# shared caches under threads

_THREAD_SYMBOLS = ["kg", "g", "m", "ft", "s", "hr", "yr", "J", "W", "N", "K", "GBP", "mph"]


def _cache_work(seed):
    """Seeded resolve, derive and evaluate work, as comparable values."""
    rng = random.Random(seed)

    def expression():
        return " ".join(
            f"{rng.choice(_THREAD_SYMBOLS)}^{rng.choice([-2, -1, 2, 3, '1/2', '-1/3'])}"
            for _ in range(rng.randint(1, 3))
        )

    results = []
    for _ in range(150):
        units = [REG.resolve(expression()) for _ in range(rng.randint(2, 5))]
        results.append([(u.symbol, u.dimension, u.scale.hex()) for u in units])
        params = [(f"q{i}", u.dimension) for i, u in enumerate(units[1:])]
        try:
            relation = solve_target_exponents(units[0].dimension, params)
        except (InconsistentDimensionsError, UnderdeterminedError) as exc:
            relation = ScalingRelation("y", {name: rng.randint(-2, 2) for name, _ in params})
            results.append((type(exc), str(exc)))
        results.append((relation.exponents, pi_basis(params)))
        bindings = {f"q{i}": Quantity(rng.choice([0.5, 3.0, 1e-200, 1e200]), u)
                    for i, u in enumerate(units[1:])}
        results.append(_evaluated(ScalingRelation.evaluate, relation, bindings, 2.0))
    return results


def test_shared_caches_give_the_serial_answers_under_threads():
    # The token table, the elimination, the evaluation plans and the
    # coherent units start empty, and 8 threads fill them at once.
    seeds = range(16)
    serial = [_cache_work(seed) for seed in seeds]
    REG._tokens.clear()
    for cache in (algebra._elimination, algebra._evaluation_plan, coherent_unit):
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(_cache_work, seeds))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
