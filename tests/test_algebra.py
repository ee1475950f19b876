import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalelab.algebra as algebra
from scalelab.algebra import (
    DimMatrix,
    PiGroup,
    ScalingRelation,
    chain,
    check_exponent_bound,
    pi_basis,
    solve_balance,
    solve_target_exponents,
)
from scalelab.errors import (
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
    assert rel.render() == "r ~ E^1/5 rho^-1/5 t^2/5"


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


def test_duplicate_parameter_names_rejected():
    with pytest.raises(RelationError):
        solve_target_exponents(LENGTH, [("l", LENGTH), ("l", LENGTH)])


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
    "derive",
    [
        lambda: solve_target_exponents(
            VELOCITY, [("g", GRAVITY), ("l", LENGTH)], target_name="v"
        ),
        lambda: pi_basis(
            [("r", LENGTH), ("E", ENERGY), ("rho", DENSITY), ("t", TIME)]
        ),
    ],
    ids=["solve_target_exponents", "pi_basis"],
)
def test_wrong_back_substitution_fails_the_internal_check(monkeypatch, derive):
    derive()  # the unpatched path passes its own check
    real = algebra._back_substitute

    def off_by_one(*args):
        return [x + 1 for x in real(*args)]

    monkeypatch.setattr(algebra, "_back_substitute", off_by_one)
    with pytest.raises(DerivationError, match="internal check failed"):
        derive()


# ---------------------------------------------------------------------------
# pi_basis

def test_blast_group_in_conventional_order():
    groups = pi_basis(
        [("E", ENERGY), ("t", TIME), ("rho", DENSITY), ("r", LENGTH)]
    )
    assert len(groups) == 1
    assert groups[0].exponents == (1, 2, -1, -5)
    assert groups[0].render() == "pi: E t^2 rho^-1 r^-5"


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


def test_evaluate_identity_returns_the_binding():
    q = parse_quantity("3 ft")
    assert ScalingRelation.identity("x").evaluate({"x": q}) == q.in_si()


# ---------------------------------------------------------------------------
# check_exponent_bound

def test_beam_bound():
    assert check_exponent_bound(2.70, F(7, 3), F(8, 3)) is False
    assert check_exponent_bound(2.5, F(7, 3), F(8, 3)) is True
    assert check_exponent_bound(F(8, 3), F(7, 3), F(8, 3)) is False


def test_bound_requires_order():
    with pytest.raises(RelationError):
        check_exponent_bound(1, F(2), F(1))


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
# DimMatrix

def test_dim_matrix_preserves_order_and_entries():
    matrix = DimMatrix([("E", ENERGY), ("t", TIME)])
    assert matrix.names == ("E", "t")
    assert matrix.columns[0] == ENERGY.as_tuple()
    assert matrix.rank() == 2
