import math
from fractions import Fraction

import numpy as np
import pytest

import scalelab.casebook as cb
from scalelab.casebook import (
    STANDARD_GRAVITY,
    BlastConfig,
    CaseReport,
    blast_radius,
    blast_report,
    blast_yield,
    fall_report,
    hull_report,
    hull_speed,
    kleiber_chain_demo,
    roast_report,
    roast_time,
    terminal_velocity_scale,
    yield_report,
)
from scalelab.errors import DataError, DimensionMismatchError
from scalelab.units import (
    LENGTH,
    TIME,
    Quantity,
    convert,
    default_registry,
    parse_quantity,
)

REG = default_registry()
KNOT = REG.symbol("knot")


# ---------------------------------------------------------------------------
# blast_radius

def test_blast_radius_unit_inputs():
    cfg = BlastConfig(rho=parse_quantity("1 kg m^-3"))
    r = blast_radius(cfg, parse_quantity("1 J"), parse_quantity("1 s"))
    assert r.dimension == LENGTH
    assert r.si_value == pytest.approx(1.0, rel=1e-12)


def test_blast_radius_worked_example():
    # (E t^2 / rho)^(1/5) at E = 8e13 J, t = 0.025 s, rho = 1.2 kg/m^3:
    # E t^2 = 5e10 J s^2, over rho gives 4.1667e10 m^5, fifth root 133.03 m.
    cfg = BlastConfig()
    r = blast_radius(cfg, parse_quantity("8e13 J"), parse_quantity("0.025 s"))
    expected = (8e13 * 0.025**2 / 1.2) ** 0.2
    assert r.si_value == pytest.approx(expected, rel=1e-12)
    assert r.si_value == pytest.approx(133.0325, rel=1e-6)


def test_doubling_time_scales_radius_by_two_to_the_two_fifths():
    cfg = BlastConfig()
    energy = parse_quantity("3.7e12 J")
    r1 = blast_radius(cfg, energy, parse_quantity("0.02 s"))
    r2 = blast_radius(cfg, energy, parse_quantity("0.04 s"))
    assert r2.si_value / r1.si_value == pytest.approx(2 ** 0.4, rel=1e-12)


def test_blast_radius_rejects_wrong_dimensions():
    cfg = BlastConfig()
    with pytest.raises(DimensionMismatchError):
        blast_radius(cfg, parse_quantity("1 kg"), parse_quantity("1 s"))


@pytest.mark.parametrize("prefactor", [math.inf, -math.inf, math.nan])
def test_blast_config_rejects_a_non_finite_prefactor(prefactor):
    with pytest.raises(DataError, match=r"^blast prefactor must be finite, got -?(inf|nan)$"):
        BlastConfig(prefactor=prefactor)


def test_blast_config_validates():
    with pytest.raises(DataError):
        BlastConfig(prefactor=-1.0)
    with pytest.raises(DimensionMismatchError):
        BlastConfig(rho=parse_quantity("1 kg"))


# ---------------------------------------------------------------------------
# blast_yield

def test_yield_round_trips_radius():
    cfg = BlastConfig(prefactor=1.07)
    energy = parse_quantity("8.4e13 J")
    observations = []
    for t_value in (0.01, 0.025, 0.05, 0.1):
        t = Quantity(t_value, REG.symbol("s"))
        observations.append((blast_radius(cfg, energy, t), t))
    recovered = blast_yield(cfg, observations)
    assert recovered.si_value == pytest.approx(energy.si_value, rel=1e-9)


def test_yield_single_unit_observation():
    cfg = BlastConfig(rho=parse_quantity("1 kg m^-3"))
    e = blast_yield(cfg, [(parse_quantity("1 m"), parse_quantity("1 s"))])
    assert e.si_value == pytest.approx(1.0, rel=1e-12)
    assert e.unit.symbol == "J"


def test_yield_with_one_percent_radius_noise():
    # r enters the estimate at the fifth power, so 1% noise on r becomes
    # about 5% on E; averaging over observations keeps the combined
    # estimate well inside 5.2% for every seeded trial.
    cfg = BlastConfig()
    energy = parse_quantity("8e13 J")
    rng = np.random.default_rng(141421)
    worst = 0.0
    for trial in range(100):
        observations = []
        for t_value in np.linspace(0.01, 0.1, 25):
            t = Quantity(float(t_value), REG.symbol("s"))
            r = blast_radius(cfg, energy, t)
            noisy = Quantity(r.magnitude * (1 + rng.normal(0, 0.01)), r.unit)
            observations.append((noisy, t))
        estimate = blast_yield(cfg, observations)
        worst = max(worst, abs(estimate.si_value - energy.si_value) / energy.si_value)
    assert worst <= 0.052


def test_yield_requires_observations():
    with pytest.raises(DataError):
        blast_yield(BlastConfig(), [])


# ---------------------------------------------------------------------------
# roast_time

def test_turkey_from_pheasant():
    t = roast_time(
        parse_quantity("5 kg"), parse_quantity("1 kg"), parse_quantity("1 hr")
    )
    assert t.unit.symbol == "hr"
    assert t.magnitude == pytest.approx(5 ** (2 / 3), rel=1e-12)
    # two-thirds scaling keeps the answer within a few percent of "about 3"
    assert abs(t.magnitude - 3.0) / 3.0 < 0.03


def test_roast_identity():
    t_ref = parse_quantity("45 min")
    t = roast_time(parse_quantity("2 kg"), parse_quantity("2 kg"), t_ref)
    assert t.magnitude == pytest.approx(t_ref.magnitude, rel=1e-15)


def test_roast_eightfold_mass_is_exactly_four_times():
    t = roast_time(
        parse_quantity("8 kg"), parse_quantity("1 kg"), parse_quantity("1 hr")
    )
    assert t.magnitude == pytest.approx(4.0, rel=1e-12)


def test_roast_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        roast_time(
            parse_quantity("5 m"), parse_quantity("1 kg"), parse_quantity("1 hr")
        )


# ---------------------------------------------------------------------------
# hull_speed

def test_hull_speed_25_foot_yacht():
    v = hull_speed(parse_quantity("25 ft"))
    knots = convert(v, KNOT).magnitude
    expected = math.sqrt(9.80665 * 25 * 0.3048 / (2 * math.pi)) / KNOT.scale
    assert knots == pytest.approx(expected, rel=1e-12)
    assert 5.7 <= knots <= 7.7  # the folklore figure is "about 6 knots"


def test_hull_speed_600_foot_ship():
    knots = convert(hull_speed(parse_quantity("600 ft")), KNOT).magnitude
    assert 25.5 <= knots <= 37.8  # "about 30 knots"
    assert abs(knots - 30.0) / 30.0 <= 0.15


def test_quadrupling_length_doubles_hull_speed():
    v1 = hull_speed(parse_quantity("10 m"))
    v4 = hull_speed(parse_quantity("40 m"))
    assert v4.si_value / v1.si_value == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# terminal_velocity_scale

def test_bear_to_mouse_terminal_velocity():
    v = terminal_velocity_scale(
        parse_quantity("150 mph"), parse_quantity("200 kg"), parse_quantity("20 g")
    )
    assert v.unit.symbol == "mph"
    assert v.magnitude == pytest.approx(150 * 10 ** (-2 / 3), rel=1e-12)
    assert v.magnitude == pytest.approx(32.3165, abs=1e-3)


def test_terminal_velocity_identity():
    v_ref = parse_quantity("150 mph")
    v = terminal_velocity_scale(v_ref, parse_quantity("5 kg"), parse_quantity("5 kg"))
    assert v.magnitude == pytest.approx(150.0, rel=1e-15)


def test_sixty_four_fold_mass_doubles_speed():
    v = terminal_velocity_scale(
        parse_quantity("10 m/s"), parse_quantity("1 kg"), parse_quantity("64 kg")
    )
    assert v.magnitude == pytest.approx(20.0, rel=1e-12)


# ---------------------------------------------------------------------------
# kleiber_chain_demo

def test_kleiber_branches_are_exact():
    isometric, allometric = kleiber_chain_demo()
    assert isometric.exponents == {"m": Fraction(2, 3)}
    assert allometric.exponents == {"m": Fraction(3, 4)}
    assert allometric.render() == "s ~ m^3/4"


def test_volume_proportional_chain_sanity():
    from scalelab.algebra import ScalingRelation, chain, solve_balance

    s = ScalingRelation("s", {"l": 3})
    rel = chain(s, solve_balance({"m": 1}, {"l": 3}, "l"))
    assert rel.exponents == {"m": Fraction(1)}


# ---------------------------------------------------------------------------
# round-trip property and reports

def test_blast_radius_and_yield_are_mutual_inverses():
    rng = np.random.default_rng(99)
    for _ in range(25):
        cfg = BlastConfig(
            prefactor=float(rng.uniform(0.5, 2.0)),
            rho=Quantity(float(rng.uniform(0.5, 5.0)), REG.resolve("kg m^-3")),
        )
        energy = Quantity(float(10 ** rng.uniform(6, 15)), REG.symbol("J"))
        t = Quantity(float(10 ** rng.uniform(-3, 1)), REG.symbol("s"))
        r = blast_radius(cfg, energy, t)
        back = blast_yield(cfg, [(r, t)])
        assert back.si_value == pytest.approx(energy.si_value, rel=1e-9)


def test_case_report_rejects_mismatched_prediction():
    with pytest.raises(DimensionMismatchError):
        CaseReport(
            title="broken",
            inputs=(),
            relation=kleiber_chain_demo()[0],
            prefactor_label="1",
            prediction=parse_quantity("3 kg"),
            output_dimension=TIME,
        )


def test_reports_render_prediction_in_si_and_input_family():
    report = roast_report(
        parse_quantity("5 kg"), parse_quantity("1 kg"), parse_quantity("1 hr")
    )
    text = report.render()
    assert "10526.5 s" in text
    assert "2.92402 hr" in text
    assert "t ~ kappa^-1 m^2/3" in text

    hull_text = hull_report(parse_quantity("25 ft")).render()
    assert "6.70362 knot" in hull_text

    fall_text = fall_report(
        parse_quantity("150 mph"), parse_quantity("200 kg"), parse_quantity("20 g")
    ).render()
    assert "32.3165 mph" in fall_text

    blast_text = blast_report(
        BlastConfig(), parse_quantity("8e13 J"), parse_quantity("0.025 s")
    ).render()
    assert "133.032 m" in blast_text
    assert "C = 1" in blast_text

    yield_text = yield_report(
        BlastConfig(rho=parse_quantity("1 kg m^-3")),
        [(parse_quantity("1 m"), parse_quantity("1 s"))],
    ).render()
    assert "1 J" in yield_text


def test_standard_gravity_value():
    assert STANDARD_GRAVITY.si_value == pytest.approx(9.80665, rel=1e-15)


# ---------------------------------------------------------------------------
# predictions are derived relations, evaluated

J, M_UNIT, KG, G_UNIT, FT = (REG.symbol(u) for u in ("J", "m", "kg", "g", "ft"))

# (relation builder, its exponents, the varied term, prediction as a function
# of the varied input's magnitude, a base magnitude)
DERIVED_CASES = {
    "blast": (
        cb._blast_relation,
        {"E": Fraction(1, 5), "rho": Fraction(-1, 5), "t": Fraction(2, 5)},
        "E",
        lambda e: blast_radius(
            BlastConfig(), Quantity(e, J), parse_quantity("0.025 s")
        ),
        8e13,
    ),
    "yield": (
        cb._yield_relation,
        {"r": 5, "C": -5, "rho": 1, "t": -2},
        "r",
        lambda r: blast_yield(
            BlastConfig(prefactor=1.07),
            [(Quantity(r, M_UNIT), parse_quantity("0.025 s"))],
        ),
        133.0,
    ),
    "roast": (
        cb._roast_relation,
        {"kappa": -1, "m": Fraction(2, 3)},
        "m",
        lambda m: roast_time(
            Quantity(m, KG), parse_quantity("1 kg"), parse_quantity("1 hr")
        ),
        5.0,
    ),
    "hull": (
        cb._hull_relation,
        {"g": Fraction(1, 2), "l": Fraction(1, 2)},
        "l",
        lambda length: hull_speed(Quantity(length, FT)),
        25.0,
    ),
    "fall": (
        cb._fall_relation,
        {"m": Fraction(1, 6)},
        "m",
        lambda m: terminal_velocity_scale(
            parse_quantity("150 mph"), parse_quantity("200 kg"), Quantity(m, G_UNIT)
        ),
        20.0,
    ),
}


@pytest.mark.parametrize("case", list(DERIVED_CASES))
def test_prediction_scales_by_its_derived_exponent(case):
    relation, exponents, varied, predict, x = DERIVED_CASES[case]
    assert relation().exponents == exponents
    k = 3.7
    ratio = predict(k * x).si_value / predict(x).si_value
    assert ratio == pytest.approx(k ** float(relation().exponents[varied]), rel=1e-12)


REPORTS = {
    "blast": lambda: blast_report(
        BlastConfig(), parse_quantity("8e13 J"), parse_quantity("0.025 s")
    ),
    "yield": lambda: yield_report(
        BlastConfig(), [(parse_quantity("133 m"), parse_quantity("0.025 s"))]
    ),
    "roast": lambda: roast_report(
        parse_quantity("5 kg"), parse_quantity("1 kg"), parse_quantity("1 hr")
    ),
    "hull": lambda: hull_report(parse_quantity("25 ft")),
    "fall": lambda: fall_report(
        parse_quantity("150 mph"), parse_quantity("200 kg"), parse_quantity("20 g")
    ),
}


def test_every_table_case_is_pinned():
    # A new row of the case table needs its own hand-written exponents and
    # report above before these tests cover it.
    assert set(cb.CASES) <= set(DERIVED_CASES) & set(REPORTS)
    for case, row in cb.CASES.items():
        assert DERIVED_CASES[case][0] is row.relation


@pytest.mark.parametrize("case", list(REPORTS))
def test_each_relation_is_derived_once_per_process(monkeypatch, case):
    for relation, *_ in DERIVED_CASES.values():
        relation.cache_clear()
    calls = []

    def counting(name):
        solver = getattr(cb, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return wrapped

    for name in ("solve_target_exponents", "solve_balance", "chain"):
        monkeypatch.setattr(cb, name, counting(name))
    REPORTS[case]()
    derived = len(calls)
    REPORTS[case]()
    REPORTS[case]()
    assert derived > 0 and len(calls) == derived
    assert all(r.cache_info().misses <= 1 for r, *_ in DERIVED_CASES.values())
