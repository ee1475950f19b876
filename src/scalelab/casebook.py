"""Worked scaling predictions built on the units and algebra layers.

Each case here is a classic of dimensional analysis: the blast-wave radius
grown from an energy release, roasting time against mass, displacement-hull
speed against waterline length, terminal velocity against body mass, and
the surface-area route to metabolic scaling.  No case writes its formula
out by hand: each derives its relation through the dimension solver, once
per process and on first use, and evaluates that relation on its checked
inputs, so a prediction always uses the exponents the dimensions force.

Dimensionless prefactors are case-level constants, reported with each
prediction and never stored in relations.  The blast constant defaults to
1 and is configurable; gravity is standard gravity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import ScalingRelation, chain, solve_balance, solve_target_exponents
from .errors import DataError, DimensionMismatchError
from .units import (
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
    coherent_unit,
    convert,
    default_registry,
    parse_quantity,
)

__all__ = [
    "BlastConfig",
    "CaseReport",
    "STANDARD_GRAVITY",
    "blast_radius",
    "blast_yield",
    "roast_time",
    "hull_speed",
    "terminal_velocity_scale",
    "kleiber_chain_demo",
    "blast_report",
    "yield_report",
    "roast_report",
    "hull_report",
    "fall_report",
]

STANDARD_GRAVITY = parse_quantity("9.80665 m s^-2")
_ONE = Quantity(1.0, coherent_unit(DIMENSIONLESS))


@dataclass(frozen=True)
class BlastConfig:
    """Blast-wave constants: the dimensionless prefactor and the air density."""

    prefactor: float = 1.0
    rho: Quantity = parse_quantity("1.2 kg m^-3")

    def __post_init__(self):
        if not self.prefactor > 0:
            raise DataError(f"blast prefactor must be positive, got {self.prefactor}")
        _check_inputs((self.rho, DENSITY, "blast density"))


@dataclass(frozen=True)
class CaseReport:
    """One case's inputs, derived relation, and checked prediction.

    Construction fails unless the prediction's dimension equals the case's
    declared output dimension, so a report can never carry a nonsensical
    prediction.
    """

    title: str
    inputs: tuple[tuple[str, Quantity], ...]
    relation: ScalingRelation
    prefactor_label: str
    prediction: Quantity
    output_dimension: Dimension
    display: Quantity | None = None
    notes: str = ""

    def __post_init__(self):
        if self.prediction.dimension != self.output_dimension:
            raise DimensionMismatchError(
                self.prediction.dimension,
                self.output_dimension,
                f"{self.title} prediction",
            )

    def render(self) -> str:
        lines = [self.title]
        for name, quantity in self.inputs:
            lines.append(f"  {name} = {quantity}")
        lines.append(f"  relation: {self.relation.render()}")
        lines.append(f"  prefactor: {self.prefactor_label}")
        if self.prediction.unit.scale == 1.0:
            si = self.prediction
        else:
            si = convert(self.prediction, coherent_unit(self.output_dimension))
        lines.append(f"  prediction: {si}")
        if self.display is not None and self.display.unit != si.unit:
            lines.append(f"              = {self.display}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _check_inputs(*rows: tuple[Quantity, Dimension, str]) -> None:
    """Each ``(quantity, dimension, what)`` row must have that dimension and
    a positive value; every dimension is checked before any sign."""
    for quantity, dimension, what in rows:
        if quantity.dimension != dimension:
            raise DimensionMismatchError(quantity.dimension, dimension, what)
    for quantity, _, what in rows:
        if not quantity.si_value > 0:
            raise DataError(f"{what} must be positive, got {quantity}")


@functools.cache
def _blast_relation() -> ScalingRelation:
    return solve_target_exponents(
        LENGTH,
        [("E", ENERGY), ("rho", DENSITY), ("t", TIME)],
        target_name="r",
    )


@functools.cache
def _yield_relation() -> ScalingRelation:
    """The blast relation solved for the energy, with the prefactor C as a term."""
    return solve_balance({"r": 1}, {"C": 1, **_blast_relation().exponents}, "E")


def blast_radius(cfg: BlastConfig, energy: Quantity, t: Quantity) -> Quantity:
    """Blast-wave radius r = C (E t^2 / rho)^(1/5), dimension checked."""
    _check_inputs((energy, ENERGY, "blast energy"), (t, TIME, "blast time"))
    return _blast_relation().evaluate(
        {"E": energy, "rho": cfg.rho, "t": t}, cfg.prefactor
    )


def blast_yield(
    cfg: BlastConfig, observations: Sequence[tuple[Quantity, Quantity]]
) -> Quantity:
    """Energy estimate from (radius, time) observations.

    Each observation gives E = rho r^5 / (C^5 t^2); multiple observations
    are combined by the geometric mean, since errors in r and t act
    multiplicatively on the estimate.
    """
    if not observations:
        raise DataError("blast_yield needs at least one (radius, time) observation")
    relation = _yield_relation()
    prefactor = _ONE * cfg.prefactor
    log_sum = 0.0
    for radius, t in observations:
        _check_inputs((radius, LENGTH, "observed radius"), (t, TIME, "observed time"))
        energy = relation.evaluate(
            {"r": radius, "C": prefactor, "rho": cfg.rho, "t": t}
        )
        if not energy.si_value > 0:
            raise DataError(
                f"observation {radius} @ {t}: the energy underflows a float to 0"
            )
        log_sum += math.log(energy.si_value)
    joule = default_registry().symbol("J")
    return Quantity(math.exp(log_sum / len(observations)), joule)


@functools.cache
def _roast_relation() -> ScalingRelation:
    diffusivity = Dimension(length=Fraction(2), time=Fraction(-1))
    time_vs_size = solve_target_exponents(
        TIME, [("kappa", diffusivity), ("l", LENGTH)], target_name="t"
    )
    return chain(time_vs_size, solve_balance({"m": 1}, {"l": 3}, "l"))


def roast_time(m: Quantity, m_ref: Quantity, t_ref: Quantity) -> Quantity:
    """Cooking time scaled from a reference bird: t = t_ref (m/m_ref)^(2/3).

    Both birds share the diffusivity kappa, so it enters as 1 and the mass
    as its ratio to the reference; the answer is in the reference's unit.
    """
    _check_inputs(
        (m, MASS, "mass"),
        (m_ref, MASS, "reference mass"),
        (t_ref, TIME, "reference time"),
    )
    t = _roast_relation().evaluate({"kappa": _ONE, "m": m / m_ref}, t_ref)
    return convert(t, t_ref.unit)


@functools.cache
def _hull_relation() -> ScalingRelation:
    return solve_target_exponents(
        VELOCITY, [("g", ACCELERATION), ("l", LENGTH)], target_name="v"
    )


def hull_speed(length: Quantity) -> Quantity:
    """Displacement-hull limit v = sqrt(g l / 2 pi) at waterline length l.

    The bow wave a hull cannot overtake has wavelength proportional to the
    waterline, and a deep-water wave of wavelength l travels at
    sqrt(g l / 2 pi); the 1/(2 pi) is the case's dimensionless prefactor.
    """
    _check_inputs((length, LENGTH, "waterline length"))
    return _hull_relation().evaluate(
        {"g": STANDARD_GRAVITY, "l": length}, 1.0 / math.sqrt(2.0 * math.pi)
    )


@functools.cache
def _fall_relation() -> ScalingRelation:
    speed_vs_size = solve_balance({"l": 2, "v": 2}, {"l": 3}, "v")
    return chain(speed_vs_size, solve_balance({"m": 1}, {"l": 3}, "l"))


def terminal_velocity_scale(
    v_ref: Quantity, m_ref: Quantity, m: Quantity
) -> Quantity:
    """Terminal velocity scaled across body mass: v = v_ref (m/m_ref)^(1/6).

    Drag grows with cross-section (l^2) and speed squared while weight grows
    with volume (l^3); balancing them gives v ~ l^(1/2) ~ m^(1/6) for
    geometrically similar bodies.  The answer is in the reference's unit.
    """
    _check_inputs(
        (v_ref, VELOCITY, "reference speed"),
        (m_ref, MASS, "reference mass"),
        (m, MASS, "mass"),
    )
    v = _fall_relation().evaluate({"m": m / m_ref}, v_ref)
    return convert(v, v_ref.unit)


def kleiber_chain_demo() -> tuple[ScalingRelation, ScalingRelation]:
    """Metabolic-rate scaling via surface-area heat loss, two ways.

    Both branches start from s ~ l^2 (heat loss through surface area).
    The isometric branch assumes m ~ l^3 and lands on s ~ m^(2/3); the
    allometric branch assumes m ~ l^(8/3) and lands on s ~ m^(3/4), the
    empirically observed exponent.
    """
    surface = ScalingRelation("s", {"l": 2})
    isometric = chain(surface, solve_balance({"m": 1}, {"l": 3}, "l"))
    allometric = chain(surface, solve_balance({"m": 1}, {"l": Fraction(8, 3)}, "l"))
    return isometric, allometric


def blast_report(cfg: BlastConfig, energy: Quantity, t: Quantity) -> CaseReport:
    radius = blast_radius(cfg, energy, t)
    return CaseReport(
        title="blast-wave radius",
        inputs=(("E", energy), ("t", t), ("rho", cfg.rho)),
        relation=_blast_relation(),
        prefactor_label=f"C = {cfg.prefactor:g}",
        prediction=radius,
        output_dimension=LENGTH,
    )


def yield_report(
    cfg: BlastConfig, observations: Sequence[tuple[Quantity, Quantity]]
) -> CaseReport:
    energy = blast_yield(cfg, observations)
    inputs = []
    for index, (radius, t) in enumerate(observations):
        inputs.append((f"r[{index}]", radius))
        inputs.append((f"t[{index}]", t))
    return CaseReport(
        title="blast-wave yield",
        inputs=tuple(inputs) + (("rho", cfg.rho),),
        relation=_blast_relation(),
        prefactor_label=f"C = {cfg.prefactor:g}",
        prediction=energy,
        output_dimension=ENERGY,
        notes="geometric mean over observations",
    )


def roast_report(m: Quantity, m_ref: Quantity, t_ref: Quantity) -> CaseReport:
    t = roast_time(m, m_ref, t_ref)
    return CaseReport(
        title="roasting time",
        inputs=(("m", m), ("m_ref", m_ref), ("t_ref", t_ref)),
        relation=_roast_relation(),
        prefactor_label="C' absorbed into the reference time",
        prediction=t,
        output_dimension=TIME,
        display=t,
    )


def hull_report(length: Quantity) -> CaseReport:
    speed = hull_speed(length)
    return CaseReport(
        title="hull speed",
        inputs=(("l", length), ("g", STANDARD_GRAVITY)),
        relation=_hull_relation(),
        prefactor_label="1/sqrt(2 pi)",
        prediction=speed,
        output_dimension=VELOCITY,
        display=convert(speed, default_registry().symbol("knot")),
    )


def fall_report(v_ref: Quantity, m_ref: Quantity, m: Quantity) -> CaseReport:
    speed = terminal_velocity_scale(v_ref, m_ref, m)
    return CaseReport(
        title="terminal velocity",
        inputs=(("v_ref", v_ref), ("m_ref", m_ref), ("m", m)),
        relation=_fall_relation(),
        prefactor_label="absorbed into the reference speed",
        prediction=speed,
        output_dimension=VELOCITY,
        display=speed,
    )
