import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lsq_oracle import exact_least_squares

from scalelab.errors import (
    CollinearityError,
    DataError,
    DimensionMismatchError,
)
from scalelab.regression import (
    CovariateCoefficient,
    DataSet,
    FitResult,
    ModelSpec,
    fit,
    fit_power_law,
    fit_quadratic_log,
    fit_with_covariates,
    residual_distance_ratio,
    transform_under_unit_change,
)
from scalelab.synthetic import metabolic_dataset, yacht_dataset
from scalelab.units import Quantity, Unit, default_registry, parse_quantity

# tests/test_fit_paths.py runs every test here again on the numpy path.
pytestmark = pytest.mark.usefixtures("float_path")

REG = default_registry()
G = REG.symbol("g")
KG = REG.symbol("kg")
M = REG.symbol("m")
W = REG.symbol("W")
YR = REG.symbol("yr")
GBP = REG.symbol("GBP")
FT = REG.symbol("ft")


def power_law_dataset(x, y):
    return DataSet({"x": (x, M), "y": (y, M)})


def plain_spec(**kwargs):
    base = dict(
        response="y",
        response_reference=M,
        predictor="x",
        predictor_reference=M,
    )
    base.update(kwargs)
    return ModelSpec(**base)


# ---------------------------------------------------------------------------
# fit_power_law

def test_noiseless_square_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_power_law(power_law_dataset(x, 3 * x**2), plain_spec())
    assert fit.beta == pytest.approx(2.0, abs=1e-12)
    assert fit.alpha == pytest.approx(math.log(3), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_exact_line_through_two_points_needs_three_rows():
    # n >= 3 is the documented floor; pad the two-point line with its own
    # midpoint so the fit is still exactly that line.
    x = np.array([1.0, math.sqrt(10.0), 10.0])
    y = 2.0 * x
    fit = fit_power_law(power_law_dataset(x, y), plain_spec())
    assert fit.beta == pytest.approx(1.0, abs=1e-12)
    assert fit.alpha == pytest.approx(math.log(2), abs=1e-12)


def test_two_rows_is_too_small():
    x = np.array([1.0, 10.0])
    with pytest.raises(DataError, match="at least 3"):
        fit_power_law(power_law_dataset(x, 2 * x), plain_spec())


def test_metabolic_recovery_within_two_se():
    ds = metabolic_dataset()
    fit = fit_power_law(
        ds, ModelSpec("bmr", W, "mass", G)
    )
    assert abs(fit.beta - 0.75) <= 2 * fit.se_beta
    assert fit.se_beta <= 0.02


def test_non_positive_response_is_named():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, -4.0, 9.0])
    with pytest.raises(DataError, match=r"'y', row 1"):
        fit_power_law(power_law_dataset(x, y), plain_spec())


def test_degenerate_predictor():
    x = np.array([5.0, 5.0, 5.0])
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="zero variance"):
        fit_power_law(power_law_dataset(x, y), plain_spec())


def test_fit_power_law_rejects_extended_specs():
    x = np.array([1.0, 2.0, 4.0])
    with pytest.raises(DataError):
        fit_power_law(
            power_law_dataset(x, x), plain_spec(include_quadratic=True)
        )


@pytest.mark.parametrize(
    "spec,role",
    [
        (plain_spec(predictor="y"), "the predictor"),
        (plain_spec(covariates=(("x", M), ("y", M))), "a covariate"),
    ],
    ids=["predictor", "covariate"],
)
def test_response_reused_in_the_design_is_named(spec, role):
    # Regressed on itself the response fits perfectly: r_squared 1, beta 1.
    x = np.array([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(DataError) as info:
        fit(power_law_dataset(x, x * x), spec)
    assert str(info.value) == f"column 'y' is both the response and {role}"


def test_incommensurable_reference_unit():
    x = np.array([1.0, 2.0, 4.0])
    with pytest.raises(DimensionMismatchError):
        fit_power_law(power_law_dataset(x, x), plain_spec(predictor_reference=KG))


# ---------------------------------------------------------------------------
# fit_with_covariates

def test_yacht_recovery_within_two_se():
    ds = yacht_dataset()
    fit = fit_with_covariates(
        ds,
        ModelSpec("price", GBP, "length", FT, covariates=(("age", YR),)),
    )
    assert abs(fit.beta - 3.5) <= 2 * fit.se_beta
    delta = fit.covariate_coefficients[0]
    assert delta.name == "age"
    assert abs(delta.value - (-0.03)) <= 2 * delta.stderr


def test_zero_covariate_column_matches_plain_fit():
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(0, 3, 30))
    y = 2.0 * x**1.5 * np.exp(rng.normal(0, 0.1, 30))
    ds = DataSet({"x": (x, M), "y": (y, M), "age": (np.zeros(30), YR)})
    spec = plain_spec(covariates=(("age", YR),))
    with_cov = fit_with_covariates(ds, spec)
    plain = fit_power_law(DataSet({"x": (x, M), "y": (y, M)}), plain_spec())
    assert with_cov.dropped_covariates == ("age",)
    assert with_cov.covariate_coefficients == ()
    assert with_cov.alpha == plain.alpha
    assert with_cov.beta == plain.beta
    assert with_cov.se_beta == plain.se_beta
    assert with_cov.r_squared == plain.r_squared
    np.testing.assert_array_equal(with_cov.residuals_log, plain.residuals_log)


def test_noiseless_covariate_data_is_exact():
    u = np.linspace(0.0, 4.0, 25)
    age = (np.arange(25.0) % 5) * 6.0  # varies independently of u
    x = np.exp(u)
    y = np.exp(math.log(2) + 3.5 * u - 0.03 * age)
    ds = DataSet({"x": (x, FT), "y": (y, GBP), "age": (age, YR)})
    fit = fit_with_covariates(
        ds,
        ModelSpec("y", GBP, "x", FT, covariates=(("age", YR),)),
    )
    assert fit.alpha == pytest.approx(math.log(2), abs=1e-9)
    assert fit.beta == pytest.approx(3.5, abs=1e-9)
    assert fit.covariate_coefficients[0].value == pytest.approx(-0.03, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_r_squared_matches_an_independent_least_squares():
    # A noisy quadratic fit with a covariate; R^2 from numpy's own solve.
    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 3.0, 60)
    age = rng.uniform(0.0, 20.0, 60)
    x = np.exp(u)
    y = np.exp(0.7 + 1.5 * u - 0.2 * u**2 - 0.03 * age + rng.normal(0.0, 0.3, 60))
    ds = DataSet({"x": (x, FT), "y": (y, GBP), "age": (age, YR)})
    result = fit(ds, ModelSpec("y", GBP, "x", FT, include_quadratic=True,
                               covariates=(("age", YR),)))
    log_x, log_y = np.log(x), np.log(y)
    design = np.column_stack([np.ones(60), log_x, log_x**2, age])
    coefficients, *_ = np.linalg.lstsq(design, log_y, rcond=None)
    residuals = log_y - design @ coefficients
    expected = 1.0 - residuals @ residuals / ((log_y - log_y.mean()) ** 2).sum()
    assert 0.5 < expected < 0.99  # noisy, so R^2 is not pinned at 1
    assert result.r_squared == pytest.approx(expected, abs=1e-12)


def test_collinear_design_names_offenders():
    x = np.exp(np.linspace(0, 3, 20))
    age = np.linspace(1.0, 20.0, 20)
    ds = DataSet(
        {"x": (x, M), "y": (x**2, M), "a1": (age, YR), "a2": (2 * age, YR)}
    )
    spec = plain_spec(covariates=(("a1", YR), ("a2", YR)))
    with pytest.raises(CollinearityError) as err:
        fit_with_covariates(ds, spec)
    assert "delta[a2]" in str(err.value)


# ---------------------------------------------------------------------------
# fit_quadratic_log

def test_quadratic_on_pure_power_law_gives_zero_gamma():
    x = np.exp(np.linspace(0, 5, 30))
    fit = fit_quadratic_log(
        power_law_dataset(x, 3 * x**2), plain_spec(include_quadratic=True)
    )
    assert abs(fit.gamma) < 1e-9
    assert fit.beta == pytest.approx(2.0, abs=1e-9)


def test_quadratic_recovers_exact_coefficients():
    u = np.linspace(0.0, 12.0, 40)
    mass = np.exp(u)
    s = np.exp(1.0 + 0.7 * u + 0.01 * u**2)
    ds = DataSet({"mass": (mass, G), "bmr": (s, W)})
    fit = fit_quadratic_log(
        ds, ModelSpec("bmr", W, "mass", G, include_quadratic=True)
    )
    assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    assert fit.beta == pytest.approx(0.7, abs=1e-9)
    assert fit.gamma == pytest.approx(0.01, abs=1e-9)


def test_quadratic_with_three_rows_is_rejected():
    x = np.array([1.0, 2.0, 4.0])
    with pytest.raises(DataError, match="at least 4"):
        fit_quadratic_log(
            power_law_dataset(x, x**2), plain_spec(include_quadratic=True)
        )


# ---------------------------------------------------------------------------
# the exact least-squares answer

def narrow_quadratic():
    """40 rows on x in [1, 1.5] kg, y = e^(0.3 + 1.7u - 0.8u^2) m with 1 %
    noise, u = log(x/kg): over so narrow a range u^2 is nearly collinear
    with u."""
    x = np.linspace(1.0, 1.5, 40)
    u = np.log(x)
    noise = 1.0 + 0.01 * np.random.default_rng(3).normal(size=40)
    ds = DataSet({"x": (x, KG), "y": (np.exp(0.3 + 1.7 * u - 0.8 * u * u) * noise, M)})
    return ds, ModelSpec("y", M, "x", KG, include_quadratic=True)


ORACLE_CASES = {
    "yacht": lambda: (yacht_dataset(), ModelSpec("price", GBP, "length", FT)),
    "yacht-quadratic": lambda: (yacht_dataset(),
                                ModelSpec("price", GBP, "length", FT, include_quadratic=True)),
    "yacht-age": lambda: (yacht_dataset(),
                          ModelSpec("price", GBP, "length", FT, covariates=(("age", YR),))),
    "narrow-quadratic": narrow_quadratic,
}


def ratios(ds, name, reference):
    column = ds.column(name)
    factor = column.unit.scale / reference.scale
    return [value * factor for value in column.data]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_fit_is_within_1e_13_of_the_exact_least_squares_answer(case):
    """Against the exact solution of the design the fit builds, every
    coefficient is within 1e-13 of the largest; on both paths the largest
    error seen was 7.0e-15 (yacht-quadratic, numpy)."""
    ds, spec = ORACLE_CASES[case]()
    u = list(map(math.log, ratios(ds, spec.predictor, spec.predictor_reference)))
    columns = [u, *([[v * v for v in u]] if spec.include_quadratic else []),
               *(ratios(ds, name, unit) for name, unit in spec.covariates)]
    exact = exact_least_squares(
        list(map(math.log, ratios(ds, spec.response, spec.response_reference))), columns)
    error = max(abs(Fraction(c) - e) for c, e in zip(fit(ds, spec).coefficients, exact))
    assert error <= Fraction(1e-13) * max(map(abs, exact))


# ---------------------------------------------------------------------------
# transform_under_unit_change

def quadratic_fit(seed=11, n=50):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 10.0, n)
    mass = np.exp(u)
    s = np.exp(1.0 + 0.7 * u + 0.01 * u**2 + rng.normal(0, 0.05, n))
    ds = DataSet({"mass": (mass, G), "bmr": (s, W)})
    spec = ModelSpec("bmr", W, "mass", G, include_quadratic=True)
    return ds, spec, fit_quadratic_log(ds, spec)


def test_same_unit_is_identity():
    _, _, fit = quadratic_fit()
    same = transform_under_unit_change(fit, G)
    assert same.alpha == fit.alpha
    assert same.beta == fit.beta
    assert same.gamma == fit.gamma
    assert same.r_squared == fit.r_squared


def test_pure_power_law_slope_survives_unit_change():
    x = np.exp(np.linspace(0, 5, 30))
    fit = fit_power_law(power_law_dataset(x, 3.0 * x**2), plain_spec())
    moved = transform_under_unit_change(fit, FT)
    shift = math.log(FT.scale / M.scale)
    assert moved.beta == fit.beta
    assert moved.alpha == pytest.approx(fit.alpha + fit.beta * shift, rel=1e-12)
    assert moved.r_squared == fit.r_squared


def test_transform_matches_refit_gram_to_kilogram():
    ds, spec, fit = quadratic_fit()
    transformed = transform_under_unit_change(fit, KG)
    refit = fit_quadratic_log(
        ds, ModelSpec("bmr", W, "mass", KG, include_quadratic=True)
    )
    assert transformed.alpha == pytest.approx(refit.alpha, abs=1e-9)
    assert transformed.beta == pytest.approx(refit.beta, abs=1e-9)
    assert transformed.gamma == pytest.approx(refit.gamma, abs=1e-9)
    assert transformed.se_beta == pytest.approx(refit.se_beta, rel=1e-9)
    assert transformed.se_gamma == pytest.approx(refit.se_gamma, rel=1e-9)
    assert transformed.r_squared == fit.r_squared
    assert transformed.reference_units.predictor_reference == KG


def test_transform_commutes_with_refit_over_random_shifts():
    rng = np.random.default_rng(23)
    for trial in range(20):
        ds, spec, fit = quadratic_fit(seed=100 + trial, n=40)
        mu = rng.uniform(-10.0, 10.0)
        new_unit = Unit(f"u{trial}", G.dimension, G.scale * math.exp(mu))
        transformed = transform_under_unit_change(fit, new_unit)
        refit = fit_quadratic_log(
            ds, ModelSpec("bmr", W, "mass", new_unit, include_quadratic=True)
        )
        assert transformed.alpha == pytest.approx(refit.alpha, abs=1e-9)
        assert transformed.beta == pytest.approx(refit.beta, abs=1e-9)
        assert transformed.gamma == pytest.approx(refit.gamma, abs=1e-9)
        assert transformed.r_squared == fit.r_squared


def test_gamma_is_invariant_under_unit_change():
    ds, spec, fit = quadratic_fit()
    for unit in (KG, Unit("oddmass", G.dimension, 0.0371)):
        refit = fit_quadratic_log(
            ds, ModelSpec("bmr", W, "mass", unit, include_quadratic=True)
        )
        assert refit.gamma == pytest.approx(fit.gamma, abs=1e-9)
        assert transform_under_unit_change(fit, unit).gamma == fit.gamma


def test_beta_hat_is_invariant_under_data_rescaling():
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(0, 5, 60))
    y = 0.7 * x**0.75 * np.exp(rng.normal(0, 0.05, 60))
    baseline = fit_power_law(power_law_dataset(x, y), plain_spec())
    for cx, cy in ((1000.0, 1.0), (1.0, 1e-3), (12.7, 3.9e4)):
        rescaled = fit_power_law(
            power_law_dataset(cx * x, cy * y), plain_spec()
        )
        assert rescaled.beta == pytest.approx(baseline.beta, rel=1e-12)


@pytest.mark.parametrize("include_quadratic", [False, True])
def test_unit_change_beyond_the_float_range_matches_refit(include_quadratic):
    # The two references' ratio, 1e-597, is 0 as a float; its log is not.
    ds, _, _ = quadratic_fit()
    old, new = REG.resolve("kg^100 g^-99"), REG.resolve("g^100 kg^-99")
    assert new.scale / old.scale == 0.0
    spec = ModelSpec("bmr", W, "mass", old, include_quadratic=include_quadratic)
    transformed = transform_under_unit_change(fit(ds, spec), new)
    refit = fit(ds, ModelSpec("bmr", W, "mass", new, include_quadratic=include_quadratic))
    assert all(math.isfinite(v) for row in transformed.coefficient_covariance for v in row)
    scale = max(map(abs, refit.coefficients))
    assert max(abs(t - r) for t, r in zip(transformed.coefficients, refit.coefficients)) \
        <= 1e-9 * scale


@pytest.mark.parametrize(
    "values, unit, reference, message",
    [
        ([2.0, 1e308, 3.0, 4.0], M, FT, "column 'x', row 1: 1e+308 m to ft overflows a float"),
        ([2.0, 1e-323, 3.0, 4.0], G, KG,
         "column 'x', row 1: 9.88131e-324 g to kg underflows a float to 0"),
    ],
    ids=["overflow", "underflow"],
)
@pytest.mark.parametrize("role", ["predictor", "covariate"])
def test_column_leaving_the_float_range_in_its_reference_unit_is_named(
    values, unit, reference, message, role
):
    y = np.array([1.0, 2.0, 3.0, 5.0])
    if role == "predictor":
        ds = DataSet({"x": (values, unit), "y": (y, M)})
        spec = ModelSpec("y", M, "x", reference)
    else:
        ds = DataSet({"x": (values, unit), "y": (y, M), "u": ([1.0, 2.0, 4.0, 8.0], M)})
        spec = ModelSpec("y", M, "u", M, covariates=(("x", reference),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as info:
            fit(ds, spec)
    assert str(info.value) == message


def test_transform_rejects_incommensurable_unit():
    _, _, fit = quadratic_fit()
    with pytest.raises(DimensionMismatchError):
        transform_under_unit_change(fit, REG.symbol("s"))


@given(
    position=st.floats(min_value=-12.0, max_value=12.0),
    width=st.floats(min_value=0.5, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_short_linear_segments_never_show_curvature(position, width):
    # A quadratic fitted to noiseless log-linear data must report zero
    # curvature no matter where the segment sits.
    u = np.linspace(position, position + width, 25)
    ds = DataSet({"x": (np.exp(u), G), "y": (np.exp(0.3 + 0.8 * u), W)})
    fit = fit_quadratic_log(
        ds, ModelSpec("y", W, "x", G, include_quadratic=True)
    )
    assert abs(fit.gamma) < 1e-9


def test_normal_equations_hold_at_the_solution():
    # Central differences on the RSS are exact for a quadratic objective up
    # to rounding, so the gradient at the solution must vanish.
    ds, spec, fit = quadratic_fit()
    y = np.log(ds.column("bmr").values)
    u = np.log(ds.column("mass").values)
    design = np.column_stack([np.ones(ds.n), u, u * u])
    coef = fit.coefficient_vector()

    def rss(c):
        r = y - design @ c
        return float(r @ r)

    h = 1e-5
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        gradient = (rss(coef + step) - rss(coef - step)) / (2 * h)
        assert abs(gradient) < 1e-9


# ---------------------------------------------------------------------------
# residual_distance_ratio

def fitted_three_quarters_law():
    u = np.linspace(math.log(20), math.log(2e5), 30)
    mass = np.exp(u)
    s = 0.02 * mass**0.75
    ds = DataSet({"mass": (mass, G), "bmr": (s, W)})
    return fit_power_law(ds, ModelSpec("bmr", W, "mass", G))


def test_log_space_ratio_ten_vs_ten_percent():
    fit = fitted_three_quarters_law()
    mouse_mass = parse_quantity("20 g")
    bear_mass = parse_quantity("200 kg")
    mouse_obs = Quantity(10.0 * fit.predict(mouse_mass).magnitude, W)
    bear_obs = Quantity(1.1 * fit.predict(bear_mass).magnitude, W)
    ratio = residual_distance_ratio(
        (mouse_mass, mouse_obs), (bear_mass, bear_obs), fit, space="log"
    )
    assert ratio == pytest.approx(math.log(10) / math.log(1.1), rel=1e-9)


def test_log_space_symmetric_deviations_cancel():
    fit = fitted_three_quarters_law()
    a_mass = parse_quantity("50 g")
    b_mass = parse_quantity("5 kg")
    a_obs = Quantity(2.0 * fit.predict(a_mass).magnitude, W)
    b_obs = Quantity(2.0 * fit.predict(b_mass).magnitude, W)
    assert residual_distance_ratio(
        (a_mass, a_obs), (b_mass, b_obs), fit, space="log"
    ) == pytest.approx(1.0, rel=1e-12)


def test_natural_space_flips_the_outlier():
    # In natural units the bear's 10% excess dwarfs the mouse's tenfold
    # excess, because the fitted values differ by a factor of a thousand.
    fit = fitted_three_quarters_law()
    mouse_mass = parse_quantity("20 g")
    bear_mass = parse_quantity("200 kg")
    mouse_obs = Quantity(10.0 * fit.predict(mouse_mass).magnitude, W)
    bear_obs = Quantity(1.1 * fit.predict(bear_mass).magnitude, W)
    ratio = residual_distance_ratio(
        (bear_mass, bear_obs), (mouse_mass, mouse_obs), fit, space="natural"
    )
    # 0.1 * s_bear / (9 * s_mouse) with s_bear/s_mouse = (10^4)^(3/4) = 10^3
    assert ratio == pytest.approx(100.0 / 9.0, rel=1e-9)


def test_zero_residual_at_b_is_reported():
    fit = fitted_three_quarters_law()
    a_mass = parse_quantity("50 g")
    b_mass = parse_quantity("5 kg")
    a_obs = Quantity(2.0 * fit.predict(a_mass).magnitude, W)
    b_obs = fit.predict(b_mass)
    with pytest.raises(DataError, match="undefined"):
        residual_distance_ratio((a_mass, a_obs), (b_mass, b_obs), fit)


# tests/data/exact_power.csv: y = 2x exactly, so every residual is rounding
# noise.  tests/data/one_on_fit.csv: log(y/x) is (1, -1, 0, -1, 1) log 2,
# whose fit is y = x, so only row 2 lies on it.
EXACT_POWER = ([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
ONE_ON_FIT = ([1.0, 2.0, 4.0, 8.0, 16.0], [2.0, 1.0, 4.0, 4.0, 32.0])


def rows_and_fit(table):
    x, y = table
    fitted = fit_power_law(power_law_dataset(x, y), plain_spec())
    return [(Quantity(a, M), Quantity(b, M)) for a, b in zip(x, y)], fitted


@pytest.mark.parametrize("space", ["log", "natural"])
def test_a_residual_of_rounding_noise_is_on_the_fit(space):
    rows, fitted = rows_and_fit(EXACT_POWER)
    for a, b in [(3, 1), (0, 1), (1, 0)]:
        with pytest.raises(DataError) as info:
            residual_distance_ratio(rows[a], rows[b], fitted, space)
        assert str(info.value) == "point B lies on the fit, to rounding; the ratio is undefined"
    rows, fitted = rows_and_fit(ONE_ON_FIT)
    assert residual_distance_ratio(rows[2], rows[0], fitted, space) == 0.0
    with pytest.raises(DataError, match="undefined"):
        residual_distance_ratio(rows[0], rows[2], fitted, space)
    expected = 1.0 if space == "log" else (32.0 - 16.0) / (2.0 - 1.0)
    assert residual_distance_ratio(rows[4], rows[0], fitted, space) == pytest.approx(expected)


@pytest.mark.parametrize(
    "x, ending", [(1e300, "overflows a float"), (1e-300, "underflows a float to 0")],
    ids=["overflow", "underflow"],
)
def test_a_fitted_value_beyond_the_float_range_is_a_data_error(x, ending):
    # About y = x^2, so the fitted log at x = 1e+-300 is about +-1381.
    rows, fitted = rows_and_fit(([1.0, 2.0, 4.0, 8.0], [1.0, 4.1, 15.9, 64.2]))
    with pytest.raises(DataError) as info:
        fitted.predict(Quantity(x, M))
    assert str(info.value) == f"the fitted 'y' at {x:g} m {ending}"


def test_requires_pure_power_law():
    ds, spec, fit = quadratic_fit()
    point = (parse_quantity("1 kg"), parse_quantity("1 W"))
    with pytest.raises(DataError, match="pure power-law"):
        residual_distance_ratio(point, point, fit)


def test_multiplicative_error_asymmetry():
    # A doubling and a halving are the same size in log space but not in
    # natural space; this is the whole argument for log-space residuals.
    assert abs(math.log(2.0)) == abs(math.log(0.5))
    assert (2.0 - 1.0) > (1.0 - 0.5)


# ---------------------------------------------------------------------------
# DataSet and report plumbing

def test_dataset_rejects_ragged_columns():
    with pytest.raises(DataError, match="rows"):
        DataSet({"a": ([1.0, 2.0], M), "b": ([1.0], M)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(bad):
    values = [1.0, 2.0, bad, 4.0, bad]
    with pytest.raises(DataError) as info:
        DataSet({"x": ([1.0, 2.0, 3.0, 4.0, 5.0], M), "age": (values, YR)})
    assert str(info.value) == f"column 'age', row 2: {float(bad)!r} is not a finite number"


def test_dataset_unknown_column():
    ds = power_law_dataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DataError, match="no column"):
        ds.column("nope")


def test_dataset_arrays_are_frozen():
    ds = power_law_dataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 4.0, 9.0]))
    with pytest.raises(ValueError):
        ds.column("x").values[0] = 5.0
    with pytest.raises(TypeError):
        ds.column("x").data[0] = 5.0


def test_a_dataset_pickles_with_its_columns():
    ds = power_law_dataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 4.0, 9.0]))
    twin = pickle.loads(pickle.dumps(ds))
    assert (twin.names, twin.n) == (ds.names, ds.n)
    for name in ds.names:
        assert list(twin.column(name).data) == list(ds.column(name).data)
        assert twin.column(name).unit == ds.column(name).unit


def test_report_field_order_is_deterministic():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_power_law(power_law_dataset(x, 3 * x**2), plain_spec())
    keys = [key for key, _ in fit.report_fields()]
    assert keys == ["alpha", "beta", "se_beta", "r_squared", "n", "p", "y",
                    "y0", "x", "x0"]
    report = fit.report()
    assert report.splitlines()[0].startswith("alpha = ")
    assert "beta = 2" in report


_REPORT_TAIL = ["r_squared", "n", "p", "y", "y0", "x", "x0"]

# layout -> (quadratic, covariates, coefficient labels, report keys)
COEFFICIENT_LAYOUTS = {
    "plain": (False, (), ["alpha", "beta"],
              ["alpha", "beta", "se_beta", *_REPORT_TAIL]),
    "quadratic": (True, (), ["alpha", "beta", "gamma"],
                  ["alpha", "beta", "se_beta", "gamma", "se_gamma", *_REPORT_TAIL]),
    "covariate": (False, ("age",), ["alpha", "beta", "delta[age]"],
                  ["alpha", "beta", "se_beta", "delta[age]", "se_delta[age]",
                   *_REPORT_TAIL, "covariate[age]"]),
    "quadratic-covariate": (
        True, ("age",), ["alpha", "beta", "gamma", "delta[age]"],
        ["alpha", "beta", "se_beta", "gamma", "se_gamma", "delta[age]",
         "se_delta[age]", *_REPORT_TAIL, "covariate[age]"]),
    # A dropped covariate has no coefficient but its reference is reported.
    "dropped-covariate": (
        False, ("zero", "age"), ["alpha", "beta", "delta[age]"],
        ["alpha", "beta", "se_beta", "delta[age]", "se_delta[age]",
         *_REPORT_TAIL, "covariate[zero]", "covariate[age]"]),
}


def layout_fit(layout):
    quadratic, covariates, _, _ = COEFFICIENT_LAYOUTS[layout]
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 4.0, 40)
    age = rng.uniform(0.0, 30.0, 40)
    y = np.exp(0.5 + 1.5 * u + 0.1 * u * u - 0.03 * age + rng.normal(0, 0.05, 40))
    ds = DataSet({"x": (np.exp(u), FT), "y": (y, GBP), "age": (age, YR),
                  "zero": (np.zeros(40), YR)})
    spec = ModelSpec("y", GBP, "x", FT, include_quadratic=quadratic,
                     covariates=tuple((name, YR) for name in covariates))
    return fit(ds, spec)


@pytest.mark.parametrize("layout", COEFFICIENT_LAYOUTS)
def test_coefficient_layout_is_pinned(layout):
    _, _, labels, keys = COEFFICIENT_LAYOUTS[layout]
    fitted = layout_fit(layout)
    assert list(fitted.coefficient_labels()) == labels
    assert [key for key, _ in fitted.report_fields()] == keys
    assert fitted.p == len(labels)


@pytest.mark.parametrize("layout", COEFFICIENT_LAYOUTS)
def test_named_coefficients_are_entries_of_the_vector(layout):
    quadratic, _, labels, _ = COEFFICIENT_LAYOUTS[layout]
    fitted = layout_fit(layout)
    coef = fitted.coefficients
    stderr = np.sqrt(np.diag(fitted.coefficient_covariance))
    assert type(coef) is tuple and len(coef) == len(labels)
    assert type(fitted.coefficient_covariance) is tuple
    assert [len(row) for row in fitted.coefficient_covariance] == [len(labels)] * len(labels)
    assert type(fitted.alpha) is float and fitted.alpha == coef[0]
    assert type(fitted.beta) is float and fitted.beta == coef[1]
    assert type(fitted.se_beta) is float and fitted.se_beta == stderr[1]
    if quadratic:
        assert type(fitted.gamma) is float and fitted.gamma == coef[2]
        assert type(fitted.se_gamma) is float and fitted.se_gamma == stderr[2]
    else:
        assert fitted.gamma is None and fitted.se_gamma is None
    first = 3 if quadratic else 2
    assert fitted.covariate_coefficients == tuple(
        CovariateCoefficient(label[len("delta["):-1], coef[i], stderr[i])
        for i, label in enumerate(labels[first:], start=first)
    )
    for c in fitted.covariate_coefficients:
        assert type(c.value) is float and type(c.stderr) is float
    report = dict(fitted.report_fields())
    for i, label in enumerate(labels):
        assert report[label] == coef[i]
        if i:
            assert report[f"se_{label}"] == stderr[i]


def test_coefficient_arrays_are_read_only():
    fitted = layout_fit("quadratic")
    with pytest.raises(TypeError):
        fitted.coefficients[0] = 0.0
    with pytest.raises(TypeError):
        fitted.coefficient_covariance[0][0] = 0.0
    with pytest.raises(AttributeError):
        fitted.coefficients = np.zeros(3)


@pytest.mark.parametrize("layout", ["quadratic-covariate", "dropped-covariate"])
def test_unit_change_keeps_the_fit_quality_and_layout(layout):
    fitted = layout_fit(layout)
    moved = transform_under_unit_change(fitted, M)
    assert moved.dropped_covariates == fitted.dropped_covariates
    np.testing.assert_array_equal(moved.residuals_log, fitted.residuals_log)
    assert moved.n == fitted.n
    assert moved.r_squared == fitted.r_squared
    assert moved.coefficient_labels() == fitted.coefficient_labels()
    assert moved.covariate_coefficients == fitted.covariate_coefficients
    assert moved.reference_units.predictor_reference == M


def test_standard_error_matches_simple_regression_closed_form():
    # For a single log predictor, SE(beta) has the textbook closed form
    # sqrt(RSS/(n-2) / sum((u - mean u)^2)); an independent check on the
    # QR-based covariance.
    ds = metabolic_dataset()
    fit = fit_power_law(ds, ModelSpec("bmr", W, "mass", G))
    u = np.log(ds.column("mass").values / 1.0)
    rss = math.fsum(r * r for r in fit.residuals_log)
    s_xx = float(((u - u.mean()) ** 2).sum())
    expected = math.sqrt(rss / (fit.n - 2) / s_xx)
    assert fit.se_beta == pytest.approx(expected, rel=1e-10)


def test_fits_are_safe_to_run_concurrently():
    from concurrent.futures import ThreadPoolExecutor

    ds = metabolic_dataset()
    spec = ModelSpec("bmr", W, "mass", G)
    serial = fit_power_law(ds, spec)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: fit_power_law(ds, spec), range(64)))
    for result in results:
        assert result.beta == serial.beta
        assert result.alpha == serial.alpha
        assert result.r_squared == serial.r_squared


def test_residuals_sum_to_zero_with_intercept():
    ds = yacht_dataset()
    fit = fit_with_covariates(
        ds, ModelSpec("price", GBP, "length", FT, covariates=(("age", YR),))
    )
    assert abs(math.fsum(fit.residuals_log)) < 1e-9


def with_residuals(fit, residuals):
    """A new FitResult with the fields of ``fit`` but these residuals."""
    return FitResult(fit.coefficients, fit.coefficient_covariance, fit.r_squared, residuals,
                     fit.n, fit.reference_units, fit.residual_scale, fit.dropped_covariates)


def test_broken_intercept_is_caught():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(power_law_dataset(x, 3 * x**2.5), plain_spec())
    with pytest.raises(DataError, match="intercept fit failed"):
        with_residuals(fit, [r + 1e-9 for r in fit.residuals_log])


def test_nan_residuals_are_caught():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(power_law_dataset(x, 3 * x**2.5), plain_spec())
    residuals = list(fit.residuals_log)
    residuals[2] = np.nan
    with pytest.raises(DataError, match="intercept fit failed"):
        with_residuals(fit, residuals)
    # The fit copies what it is given; the caller's list is left as it was.
    assert type(residuals) is list and math.isnan(residuals[2])


@pytest.mark.parametrize("seed", range(5))
def test_valid_large_magnitude_fit_passes_the_residual_check(seed):
    # log magnitudes near 60 over 2e5 rows: the residual sum's rounding
    # error exceeds any fixed absolute tolerance such as 1e-9.
    rng = np.random.default_rng(seed)
    n = 200_000
    u = rng.uniform(55.0, 65.0, n)
    log_y = 60.0 + 1.5 * (u - 60.0) + rng.normal(0.0, 0.3, n)
    fit = fit_power_law(power_law_dataset(np.exp(u), np.exp(log_y)), plain_spec())
    assert fit.beta == pytest.approx(1.5, abs=1e-2)
    transform_under_unit_change(fit, FT)  # checks the same residuals again
