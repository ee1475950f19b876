"""Worked scaling predictions built on the units and algebra layers.

Each case here is a classic of dimensional analysis: the blast-wave radius
grown from an energy release, roasting time against mass, displacement-hull
speed against waterline length, terminal velocity against body mass, and
the surface-area route to metabolic scaling.  No case writes its formula
out by hand: each derives its relation through the dimension solver, once
per process and on first use, and evaluates that relation on its checked
inputs, so a prediction always uses the exponents the dimensions force.

The cases that take only quantities (roast, hull, fall) are rows of one
table, :data:`CASES`, keyed by their ``predict`` subcommand.  A row holds
the help text, report title, output dimension, relation builder, inputs
in call order as ``(flag, symbol, dimension, label)``, prefactor label and
display unit symbol (``None`` for the reference's unit); the input checks,
the reports and the CLI parsers all read it.  Two evaluators serve the
rows.  Roasting time and terminal velocity scale a reference by the mass
ratio, so they share one: every term bound to 1 except ``m``, bound to
``m/m_ref``, the reference as the prefactor, and the answer in the
reference's unit.  Hull speed evaluates its own relation with standard
gravity and the prefactor ``1/sqrt(2 pi)``.

Blast radius and yield are not rows, and ``predict blast`` keeps its own
parser.  A row's inputs are required quantities, one per flag.  Blast
takes a repeatable ``--obs`` whose value is a pair, ``RADIUS @ TIME``,
an optional ``--rho`` with a default, and a ``--prefactor`` that is a
plain number the user sets, not a case constant; and its flags choose
between two reports.  Rows able to say that would need repeated pair
inputs, defaults, number inputs and a choice of report, each for this
one command: more code than the parser they would replace.

Dimensionless prefactors are case-level constants, reported with each
prediction and never stored in relations.  The blast constant defaults to
1 and is configurable; gravity is standard gravity.
"""

from __future__ import annotations

import functools
import math
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
    _Value,
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


class BlastConfig(_Value):
    """Blast-wave constants: the dimensionless prefactor and the air density."""

    __slots__ = ("prefactor", "rho")

    def __init__(self, prefactor: float = 1.0, rho: Quantity = parse_quantity("1.2 kg m^-3")):
        if not math.isfinite(prefactor):
            raise DataError(f"blast prefactor must be finite, got {prefactor}")
        if not prefactor > 0:
            raise DataError(f"blast prefactor must be positive, got {prefactor}")
        _check_inputs((rho, DENSITY, "blast density"))
        self.__setstate__((prefactor, rho))


class CaseReport(_Value):
    """One case's inputs, derived relation, and checked prediction.

    Construction fails unless the prediction's dimension equals the case's
    declared output dimension, so a report can never carry a nonsensical
    prediction.
    """

    __slots__ = ("title", "inputs", "relation", "prefactor_label", "prediction",
                 "output_dimension", "display", "notes")

    def __init__(self, title: str, inputs: tuple[tuple[str, Quantity], ...],
                 relation: ScalingRelation, prefactor_label: str, prediction: Quantity,
                 output_dimension: Dimension, display: Quantity | None = None,
                 notes: str = ""):
        if prediction.dimension != output_dimension:
            raise DimensionMismatchError(
                prediction.dimension, output_dimension, f"{title} prediction"
            )
        self.__setstate__((title, inputs, relation, prefactor_label, prediction,
                           output_dimension, display, notes))

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
    a positive magnitude that stays nonzero and finite in SI units; every
    dimension is checked before any sign."""
    for quantity, dimension, what in rows:
        if quantity.dimension != dimension:
            raise DimensionMismatchError(quantity.dimension, dimension, what)
    for quantity, _, what in rows:
        if not quantity.magnitude > 0:
            raise DataError(f"{what} must be positive, got {quantity}")
        si = quantity.si_value
        if si == 0 or not math.isfinite(si):
            ending = "underflows a float to 0" if si == 0 else "overflows a float"
            raise DataError(f"{what} {quantity} {ending} in SI units")


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
        try:
            energy = relation.evaluate(
                {"r": radius, "C": prefactor, "rho": cfg.rho, "t": t}
            )
        except DataError as exc:
            raise DataError(f"observation {radius} @ {t}: {exc}") from None
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


@functools.cache
def _hull_relation() -> ScalingRelation:
    return solve_target_exponents(
        VELOCITY, [("g", ACCELERATION), ("l", LENGTH)], target_name="v"
    )


@functools.cache
def _fall_relation() -> ScalingRelation:
    speed_vs_size = solve_balance({"l": 2, "v": 2}, {"l": 3}, "v")
    return chain(speed_vs_size, solve_balance({"m": 1}, {"l": 3}, "l"))


class Case(_Value):
    """A row of :data:`CASES`, with the fields the module docstring lists."""

    __slots__ = ("help", "title", "output", "relation", "inputs", "prefactor", "display")

    def __init__(self, *fields):
        self.__setstate__(fields)


CASES = {
    "roast": Case("roasting time from a reference", "roasting time", TIME, _roast_relation,
                  (("--mass", "m", MASS, "mass"),
                   ("--ref-mass", "m_ref", MASS, "reference mass"),
                   ("--ref-time", "t_ref", TIME, "reference time")),
                  "C' absorbed into the reference time", None),
    "hull": Case("displacement-hull speed limit", "hull speed", VELOCITY, _hull_relation,
                 (("--length", "l", LENGTH, "waterline length"),),
                 "1/sqrt(2 pi)", "knot"),
    "fall": Case("terminal velocity across masses", "terminal velocity", VELOCITY,
                 _fall_relation,
                 (("--ref-speed", "v_ref", VELOCITY, "reference speed"),
                  ("--ref-mass", "m_ref", MASS, "reference mass"),
                  ("--mass", "m", MASS, "mass")),
                 "absorbed into the reference speed", None),
}


def _checked(case: str, quantities: Sequence[Quantity]) -> dict[str, Quantity]:
    """The case's inputs by symbol, once each passes its row's check."""
    inputs = CASES[case].inputs
    _check_inputs(*((q, dim, label) for q, (_, _, dim, label) in zip(quantities, inputs)))
    return {symbol: q for q, (_, symbol, _, _) in zip(quantities, inputs)}


def _scaled_from_reference(case: str, *quantities: Quantity) -> Quantity:
    """The relation ``x ~ ...`` of a case scaled from a reference ``x_ref``: every
    term bound to 1 except the mass ``m``, bound to ``m/m_ref``, with ``x_ref``
    as the prefactor and the answer converted to its unit."""
    given = _checked(case, quantities)
    relation = CASES[case].relation()
    bindings = dict.fromkeys(relation.exponents, _ONE)
    bindings["m"] = given["m"] / given["m_ref"]
    reference = given[f"{relation.target}_ref"]
    return convert(relation.evaluate(bindings, reference), reference.unit)


def roast_time(m: Quantity, m_ref: Quantity, t_ref: Quantity) -> Quantity:
    """Cooking time scaled from a reference bird: t = t_ref (m/m_ref)^(2/3).

    Both birds share the diffusivity kappa, so it enters as 1 and the mass
    as its ratio to the reference; the answer is in the reference's unit.
    """
    return _scaled_from_reference("roast", m, m_ref, t_ref)


def hull_speed(length: Quantity) -> Quantity:
    """Displacement-hull limit v = sqrt(g l / 2 pi) at waterline length l.

    The bow wave a hull cannot overtake has wavelength proportional to the
    waterline, and a deep-water wave of wavelength l travels at
    sqrt(g l / 2 pi); the 1/(2 pi) is the case's dimensionless prefactor.
    """
    _checked("hull", (length,))
    return _hull_relation().evaluate(
        {"g": STANDARD_GRAVITY, "l": length}, 1.0 / math.sqrt(2.0 * math.pi)
    )


def terminal_velocity_scale(v_ref: Quantity, m_ref: Quantity, m: Quantity) -> Quantity:
    """Terminal velocity scaled across body mass: v = v_ref (m/m_ref)^(1/6).

    Drag grows with cross-section (l^2) and speed squared while weight grows
    with volume (l^3); balancing them gives v ~ l^(1/2) ~ m^(1/6) for
    geometrically similar bodies.  The answer is in the reference's unit.
    """
    return _scaled_from_reference("fall", v_ref, m_ref, m)


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
    inputs = tuple((f"{name}[{index}]", quantity) for index, pair in enumerate(observations)
                   for name, quantity in zip("rt", pair))
    return CaseReport(
        title="blast-wave yield",
        inputs=inputs + (("rho", cfg.rho),),
        relation=_blast_relation(),
        prefactor_label=f"C = {cfg.prefactor:g}",
        prediction=energy,
        output_dimension=ENERGY,
        notes="geometric mean over observations",
    )


def _case_report(case: str, prediction: Quantity, quantities: Sequence[Quantity],
                 *constants: tuple[str, Quantity]) -> CaseReport:
    """A case's report, read from its :data:`CASES` row; ``constants`` are
    fixed inputs shown after the row's."""
    row = CASES[case]
    unit = row.display and default_registry().symbol(row.display)
    display = convert(prediction, unit) if unit else prediction
    inputs = tuple(zip((symbol for _, symbol, _, _ in row.inputs), quantities))
    return CaseReport(row.title, inputs + constants, row.relation(), row.prefactor,
                      prediction, row.output, display)


def roast_report(m: Quantity, m_ref: Quantity, t_ref: Quantity) -> CaseReport:
    return _case_report("roast", roast_time(m, m_ref, t_ref), (m, m_ref, t_ref))


def hull_report(length: Quantity) -> CaseReport:
    return _case_report("hull", hull_speed(length), (length,), ("g", STANDARD_GRAVITY))


def fall_report(v_ref: Quantity, m_ref: Quantity, m: Quantity) -> CaseReport:
    return _case_report("fall", terminal_velocity_scale(v_ref, m_ref, m), (v_ref, m_ref, m))
