"""Acceptance suite: every criterion with its stated tolerance.

Run under pytest (`pytest tests/test_acceptance.py -v`) or directly
(`python tests/test_acceptance.py`) to get one PASS/FAIL line per
criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from scalelab.algebra import (
    ScalingRelation,
    chain,
    check_exponent_bound,
    pi_basis,
    solve_target_exponents,
)
from scalelab.casebook import (
    BlastConfig,
    blast_radius,
    blast_yield,
    hull_speed,
    kleiber_chain_demo,
    roast_time,
    terminal_velocity_scale,
)
from scalelab.regression import (
    DataSet,
    ModelSpec,
    fit_power_law,
    fit_quadratic_log,
    fit_with_covariates,
    residual_distance_ratio,
    transform_under_unit_change,
)
from scalelab.synthetic import metabolic_dataset, yacht_dataset
from scalelab.units import (
    DENSITY,
    ENERGY,
    LENGTH,
    TIME,
    VELOCITY,
    Dimension,
    Quantity,
    Unit,
    convert,
    default_registry,
    parse_quantity,
)

# Criteria 7, 8 and 10 fit tables; tests/test_fit_paths.py runs them again
# on the numpy path.
pytestmark = pytest.mark.usefixtures("float_path")

F = Fraction
REG = default_registry()


def _passed(number: int, description: str) -> None:
    print(f"[PASS] criterion {number:2d}: {description}")


def _best_time(func, repeats: int = 7) -> float:
    func()  # warm up
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_blast_exponents_exact_and_fast():
    def solve():
        return solve_target_exponents(
            LENGTH, [("E", ENERGY), ("rho", DENSITY), ("t", TIME)], target_name="r"
        )

    relation = solve()
    assert relation.exponents == {"E": F(1, 5), "rho": F(-1, 5), "t": F(2, 5)}
    elapsed = _best_time(solve)
    assert elapsed < 1e-3, f"solve took {elapsed * 1e3:.3f} ms"
    _passed(1, f"blast exponents (1/5, -1/5, 2/5) exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_pi_groups_exact_and_fast():
    kappa = Dimension(length=F(2), time=F(-1))
    viscosity = Dimension(mass=F(1), length=F(-1), time=F(-1))
    cases = [
        ([("E", ENERGY), ("t", TIME), ("rho", DENSITY), ("r", LENGTH)],
         (1, 2, -1, -5), "E t^2 / (rho r^5)"),
        ([("kappa", kappa), ("t", TIME), ("l", LENGTH)],
         (1, 1, -2), "kappa t / l^2"),
        ([("rho", DENSITY), ("v", VELOCITY), ("l", LENGTH), ("eta", viscosity)],
         (1, 1, 1, -1), "rho v l / eta"),
    ]
    worst = 0.0
    for quantities, expected, label in cases:
        groups = pi_basis(quantities)
        assert len(groups) == 1, label
        assert groups[0].exponents == expected, label
        assert all(isinstance(e, int) for e in groups[0].exponents)
        elapsed = _best_time(lambda q=quantities: pi_basis(q))
        assert elapsed < 1e-3, f"{label} took {elapsed * 1e3:.3f} ms"
        worst = max(worst, elapsed)
    _passed(2, f"three classic groups exact, worst case {worst * 1e6:.0f} us")


def test_criterion_3_roast_ratio():
    t = roast_time(
        parse_quantity("5 kg"), parse_quantity("1 kg"), parse_quantity("1 hr")
    )
    closed_form = 5.0 ** (2.0 / 3.0)
    assert t.unit.symbol == "hr"
    assert abs(t.magnitude - closed_form) <= 1e-9
    assert abs(t.magnitude - 3.0) / 3.0 <= 0.03
    _passed(3, f"roast 5 kg vs 1 kg at 1 hr -> {t.magnitude:.4f} hr = 5^(2/3) hr")


def test_criterion_4_hull_speed_footnote_checks():
    knot = REG.symbol("knot")
    v25 = convert(hull_speed(parse_quantity("25 ft")), knot).magnitude
    v600 = convert(hull_speed(parse_quantity("600 ft")), knot).magnitude
    assert 5.7 <= v25 <= 7.7
    assert abs(v25 - 6.0) / 6.0 <= 0.15
    assert 25.5 <= v600 <= 37.8
    assert abs(v600 - 30.0) / 30.0 <= 0.15
    _passed(4, f"hull speeds {v25:.2f} kn (25 ft) and {v600:.2f} kn (600 ft)")


def test_criterion_5_terminal_velocity_scale():
    v = terminal_velocity_scale(
        parse_quantity("150 mph"), parse_quantity("200 kg"), parse_quantity("20 g")
    )
    closed_form = 150.0 * 10.0 ** (-2.0 / 3.0)
    assert v.unit.symbol == "mph"
    assert abs(v.magnitude - closed_form) <= 1e-6
    assert abs(v.magnitude - 30.0) / 30.0 <= 0.10
    _passed(5, f"terminal velocity 150 mph at 200 kg -> {v.magnitude:.2f} mph at 20 g")


def test_criterion_6_kleiber_chaining_exact():
    surface = chain(
        ScalingRelation("s", {"l": 2}), ScalingRelation("l", {"m": F(3, 8)})
    )
    assert surface.exponents == {"m": F(3, 4)}
    isometric, allometric = kleiber_chain_demo()
    assert isometric.exponents == {"m": F(2, 3)}
    assert allometric.exponents == {"m": F(3, 4)}
    _passed(6, "s ~ m^3/4 from s ~ l^2 with m ~ l^(8/3); isometric branch m^2/3")


def test_criterion_7_quadratic_unit_change_law():
    gram = REG.symbol("g")
    watt = REG.symbol("W")
    rng = np.random.default_rng(60902)
    start = time.perf_counter()
    for trial in range(100):
        n = 40
        u = rng.uniform(0.0, 10.0, n)
        alpha, beta, gamma = rng.uniform(-2, 2), rng.uniform(0.2, 1.5), rng.uniform(-0.05, 0.05)
        s = np.exp(alpha + beta * u + gamma * u * u + rng.normal(0, 0.05, n))
        ds = DataSet({"mass": (np.exp(u), gram), "bmr": (s, watt)})
        fit = fit_quadratic_log(
            ds, ModelSpec("bmr", watt, "mass", gram, include_quadratic=True)
        )
        mu = float(rng.uniform(-10.0, 10.0))
        new_unit = Unit(f"u{trial}", gram.dimension, gram.scale * math.exp(mu))
        transformed = transform_under_unit_change(fit, new_unit)
        refit = fit_quadratic_log(
            ds, ModelSpec("bmr", watt, "mass", new_unit, include_quadratic=True)
        )
        assert abs(transformed.alpha - refit.alpha) <= 1e-9
        assert abs(transformed.beta - refit.beta) <= 1e-9
        assert abs(transformed.gamma - refit.gamma) <= 1e-9
        assert abs(transformed.gamma - fit.gamma) <= 1e-9
        assert transformed.r_squared == fit.r_squared
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _passed(7, f"100 random unit changes match refits to 1e-9 in {elapsed:.2f} s")


def test_criterion_8_pure_power_law_scale_invariance():
    metre = REG.symbol("m")
    rng = np.random.default_rng(31415)
    x = np.exp(rng.uniform(0.0, 5.0, 60))
    y = 0.7 * x**0.75 * np.exp(rng.normal(0, 0.05, 60))

    def fit_of(xs, ys):
        ds = DataSet({"x": (xs, metre), "y": (ys, metre)})
        return fit_power_law(ds, ModelSpec("y", metre, "x", metre))

    baseline = fit_of(x, y).beta
    for cx, cy in ((1000.0, 1.0), (1.0, 2.5e-4), (0.3048, 745.7), (17.0, 1e6)):
        rescaled = fit_of(cx * x, cy * y).beta
        assert abs(rescaled - baseline) <= 1e-12 * max(1.0, abs(baseline))
    _passed(8, f"beta = {baseline:.6f} invariant under x/y rescaling to 1e-12")


def test_criterion_9_residual_weighting():
    gram = REG.symbol("g")
    watt = REG.symbol("W")
    u = np.linspace(math.log(20), math.log(2e5), 30)
    mass = np.exp(u)
    ds = DataSet({"mass": (mass, gram), "bmr": (0.02 * mass**0.75, watt)})
    fit = fit_power_law(ds, ModelSpec("bmr", watt, "mass", gram))
    mouse = parse_quantity("20 g")
    bear = parse_quantity("200 kg")
    mouse_obs = Quantity(10.0 * fit.predict(mouse).magnitude, watt)
    bear_obs = Quantity(1.1 * fit.predict(bear).magnitude, watt)
    ratio = residual_distance_ratio(
        (mouse, mouse_obs), (bear, bear_obs), fit, space="log"
    )
    expected = math.log(10.0) / math.log(1.1)
    assert abs(ratio - expected) <= 1e-6
    _passed(9, f"10x vs 1.1x deviations sit {ratio:.3f} = ln10/ln1.1 apart in log space")


def test_criterion_10_synthetic_exponent_recovery():
    start = time.perf_counter()
    gram = REG.symbol("g")
    watt = REG.symbol("W")
    metabolic = metabolic_dataset()
    fit = fit_power_law(metabolic, ModelSpec("bmr", watt, "mass", gram))
    assert abs(fit.beta - 0.75) <= 2 * fit.se_beta
    assert fit.se_beta <= 0.02

    yacht = yacht_dataset()
    boat_fit = fit_with_covariates(
        yacht,
        ModelSpec(
            "price", REG.symbol("GBP"), "length", REG.symbol("ft"),
            covariates=(("age", REG.symbol("yr")),),
        ),
    )
    assert abs(boat_fit.beta - 3.5) <= 2 * boat_fit.se_beta
    delta = boat_fit.covariate_coefficients[0]
    assert abs(delta.value - (-0.03)) <= 2 * delta.stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _passed(
        10,
        f"recovered beta {fit.beta:.3f}+-{fit.se_beta:.3f}, "
        f"{boat_fit.beta:.2f}+-{boat_fit.se_beta:.2f}, "
        f"delta {delta.value:.4f}+-{delta.stderr:.4f} in {elapsed:.2f} s",
    )


def test_criterion_11_blast_round_trip():
    cfg = BlastConfig()
    energy = parse_quantity("8e13 J")
    second = REG.symbol("s")
    observations = []
    for t_value in np.linspace(0.01, 0.1, 25):
        t = Quantity(float(t_value), second)
        observations.append((blast_radius(cfg, energy, t), t))
    recovered = blast_yield(cfg, observations)
    assert abs(recovered.si_value - energy.si_value) / energy.si_value <= 1e-9

    rng = np.random.default_rng(141421)
    worst = 0.0
    for _ in range(100):
        noisy = [
            (Quantity(r.magnitude * (1.0 + rng.normal(0.0, 0.01)), r.unit), t)
            for r, t in observations
        ]
        estimate = blast_yield(cfg, noisy)
        worst = max(
            worst, abs(estimate.si_value - energy.si_value) / energy.si_value
        )
    assert worst <= 0.052
    _passed(11, f"yield exact to 1e-9; worst 1%-noise error {worst * 100:.2f}% <= 5.2%")


def test_criterion_12_beam_bound_check():
    assert check_exponent_bound(2.70, F(7, 3), F(8, 3)) is False
    assert check_exponent_bound(2.5, F(7, 3), F(8, 3)) is True
    _passed(12, "strict bound: 2.70 outside (7/3, 8/3), 2.5 inside")


CRITERIA = [
    test_criterion_1_blast_exponents_exact_and_fast,
    test_criterion_2_pi_groups_exact_and_fast,
    test_criterion_3_roast_ratio,
    test_criterion_4_hull_speed_footnote_checks,
    test_criterion_5_terminal_velocity_scale,
    test_criterion_6_kleiber_chaining_exact,
    test_criterion_7_quadratic_unit_change_law,
    test_criterion_8_pure_power_law_scale_invariance,
    test_criterion_9_residual_weighting,
    test_criterion_10_synthetic_exponent_recovery,
    test_criterion_11_blast_round_trip,
    test_criterion_12_beam_bound_check,
]


def main() -> int:
    failures = 0
    for number, criterion in enumerate(CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as err:
            failures += 1
            print(f"[FAIL] criterion {number:2d}: {err}")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
