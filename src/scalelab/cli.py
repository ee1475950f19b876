"""Command-line surface.

Subcommands: ``derive``, ``pi``, ``fit``, ``diagnose unit-change``,
``diagnose residuals``, ``predict blast|roast|hull|fall``, ``plot``.
Exit codes: 0 on success, 1 on usage errors, 2 on data or dimension
errors.  Reports print numbers to 6 significant digits; pass ``--json``
for a flat full-precision dump.

Quantities on the command line follow the same grammar as everywhere
else: ``"<number> <unit-expression>"``, e.g. ``--mass "5 kg"``.  Dimension
arguments for derivations are ``name:<unit-expression>`` with an optional
magnitude, e.g. ``--params "g:m s^-2,l:m"``; derivations only need the
dimensions, so magnitudes may be omitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import TYPE_CHECKING

from .algebra import pi_basis, solve_target_exponents
from .casebook import (
    BlastConfig,
    blast_report,
    fall_report,
    hull_report,
    roast_report,
    yield_report,
)
from .errors import QuantityParseError, ScaleLabError, UnderdeterminedError
from .units import Quantity, default_registry, parse_quantity

# csvio, regression and svgplot import numpy: the handlers that need them
# import them locally, so derive, pi and predict start without it.
if TYPE_CHECKING:
    from .regression import FitResult

__all__ = ["run_command", "main"]


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, so surface them as exceptions instead of
    # letting argparse sys.exit(2).
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _parse_named_dimension(text: str, registry):
    """Parse ``name:<unit-expr>`` or ``name:<number> <unit-expr>``."""
    name, sep, rest = text.partition(":")
    name = name.strip()
    rest = rest.strip()
    if not sep or not name or not rest:
        raise QuantityParseError(
            f"expected 'name:unit-expression' or 'name:value unit', got {text!r}"
        )
    first = rest.split()[0]
    try:
        float(first)
    except ValueError:
        return name, registry.resolve(rest).dimension
    return name, parse_quantity(rest, registry).dimension


def _parse_quantity_list(text: str, registry):
    items = [item for item in text.split(",") if item.strip()]
    if not items:
        raise QuantityParseError("expected a comma-separated list of quantities")
    return [_parse_named_dimension(item, registry) for item in items]


def _build_parser() -> _Parser:
    parser = _Parser(prog="scalelab", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    derive = commands.add_parser("derive", help="solve a target from parameters")
    derive.add_argument("--target", required=True, metavar="NAME:UNITS")
    derive.add_argument("--params", required=True, metavar="NAME:UNITS,...")
    derive.set_defaults(handler=_cmd_derive)

    pi = commands.add_parser("pi", help="dimensionless-group basis")
    pi.add_argument("--quantities", required=True, metavar="NAME:UNITS,...")
    pi.set_defaults(handler=_cmd_pi)

    fit = commands.add_parser("fit", help="fit a power law to CSV data")
    _add_fit_arguments(fit)
    fit.add_argument("--covariate", action="append", default=[], metavar="COL[:UNIT]")
    fit.add_argument("--quadratic", action="store_true")
    fit.add_argument("--json", action="store_true")
    fit.set_defaults(handler=_cmd_fit)

    diagnose = commands.add_parser("diagnose", help="fit diagnostics")
    diagnose_sub = diagnose.add_subparsers(
        dest="diagnostic", required=True, parser_class=_Parser
    )

    unit_change = diagnose_sub.add_parser(
        "unit-change", help="transformed vs refit coefficients"
    )
    _add_fit_arguments(unit_change)
    unit_change.add_argument("--quadratic", action="store_true")
    unit_change.add_argument("--new-x0", required=True, metavar="UNIT")
    unit_change.add_argument("--json", action="store_true")
    unit_change.set_defaults(handler=_cmd_unit_change)

    residuals = diagnose_sub.add_parser(
        "residuals", help="residual distance ratio between two rows"
    )
    _add_fit_arguments(residuals)
    residuals.add_argument("--row", action="append", required=True, type=int,
                           metavar="INDEX", help="pass twice: row A, then row B")
    residuals.add_argument("--space", choices=["log", "natural"], default="log")
    residuals.add_argument("--json", action="store_true")
    residuals.set_defaults(handler=_cmd_residuals)

    predict = commands.add_parser("predict", help="run a worked case")
    predict_sub = predict.add_subparsers(
        dest="case", required=True, parser_class=_Parser
    )

    blast = predict_sub.add_parser("blast", help="blast radius or yield")
    blast.add_argument("--energy", metavar="QTY")
    blast.add_argument("--time", metavar="QTY")
    blast.add_argument("--obs", action="append", default=[], metavar="'R @ T'",
                       help="observed radius/time pair; repeat to combine")
    blast.add_argument("--rho", default="1.2 kg m^-3", metavar="QTY")
    blast.add_argument("--prefactor", type=float, default=1.0, metavar="C")
    blast.add_argument("--json", action="store_true")
    blast.set_defaults(handler=_cmd_blast)

    roast = predict_sub.add_parser("roast", help="roasting time from a reference")
    roast.add_argument("--mass", required=True, metavar="QTY")
    roast.add_argument("--ref-mass", required=True, metavar="QTY")
    roast.add_argument("--ref-time", required=True, metavar="QTY")
    roast.add_argument("--json", action="store_true")
    roast.set_defaults(handler=_cmd_roast)

    hull = predict_sub.add_parser("hull", help="displacement-hull speed limit")
    hull.add_argument("--length", required=True, metavar="QTY")
    hull.add_argument("--json", action="store_true")
    hull.set_defaults(handler=_cmd_hull)

    fall = predict_sub.add_parser("fall", help="terminal velocity across masses")
    fall.add_argument("--ref-speed", required=True, metavar="QTY")
    fall.add_argument("--ref-mass", required=True, metavar="QTY")
    fall.add_argument("--mass", required=True, metavar="QTY")
    fall.add_argument("--json", action="store_true")
    fall.set_defaults(handler=_cmd_fall)

    plot = commands.add_parser("plot", help="log-log scatter plot as SVG")
    _add_fit_arguments(plot)
    plot.add_argument("--out", required=True, metavar="FILE.svg")
    plot.add_argument("--fit", action="store_true", dest="fit_line")
    plot.add_argument("--quadratic", action="store_true")
    plot.set_defaults(handler=_cmd_plot)

    return parser


def _add_fit_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--csv", required=True, metavar="FILE")
    sub.add_argument("--x", required=True, metavar="COL")
    sub.add_argument("--y", required=True, metavar="COL")
    sub.add_argument("--x0", metavar="UNIT", help="predictor reference unit")
    sub.add_argument("--y0", metavar="UNIT", help="response reference unit")


def _load_with_spec(args, quadratic: bool = False, covariates=()):
    from .csvio import load_csv
    from .regression import ModelSpec

    registry = default_registry()
    ds = load_csv(args.csv, registry)
    x0 = registry.resolve(args.x0) if args.x0 else ds.column(args.x).unit
    y0 = registry.resolve(args.y0) if args.y0 else ds.column(args.y).unit
    parsed_covariates = []
    for item in covariates:
        name, sep, unit_expr = item.partition(":")
        unit = registry.resolve(unit_expr) if sep else ds.column(name).unit
        parsed_covariates.append((name, unit))
    spec = ModelSpec(
        response=args.y,
        response_reference=y0,
        predictor=args.x,
        predictor_reference=x0,
        include_quadratic=quadratic,
        covariates=tuple(parsed_covariates),
    )
    return registry, ds, spec


def _print_json(payload: dict) -> None:
    print(json.dumps(payload))


def _cmd_derive(args) -> int:
    registry = default_registry()
    name, target = _parse_named_dimension(args.target, registry)
    params = _parse_quantity_list(args.params, registry)
    try:
        relation = solve_target_exponents(target, params, target_name=name)
    except UnderdeterminedError as err:
        print(f"underdetermined: {err.free_directions} free direction(s)")
        print("dimensionless groups of the parameters:")
        for group in pi_basis(params):
            print(f"  {group.render()}")
        return 0
    print(relation.render())
    return 0


def _cmd_pi(args) -> int:
    registry = default_registry()
    quantities = _parse_quantity_list(args.quantities, registry)
    groups = pi_basis(quantities)
    if not groups:
        print("no dimensionless groups")
        return 0
    for group in groups:
        print(group.render())
    return 0


def _cmd_fit(args) -> int:
    from .regression import fit_power_law, fit_quadratic_log, fit_with_covariates

    _, ds, spec = _load_with_spec(args, args.quadratic, args.covariate)
    if args.quadratic:
        result = fit_quadratic_log(ds, spec)
    elif spec.covariates:
        result = fit_with_covariates(ds, spec)
    else:
        result = fit_power_law(ds, spec)
    if args.json:
        _print_json(dict(result.report_fields()))
    else:
        print(result.report())
    return 0


def _fit_for_diagnosis(ds, spec) -> FitResult:
    from .regression import fit_power_law, fit_quadratic_log

    if spec.include_quadratic:
        return fit_quadratic_log(ds, spec)
    return fit_power_law(ds, spec)


def _cmd_unit_change(args) -> int:
    from .regression import transform_under_unit_change

    registry, ds, spec = _load_with_spec(args, args.quadratic)
    fit = _fit_for_diagnosis(ds, spec)
    new_x0 = registry.resolve(args.new_x0)
    transformed = transform_under_unit_change(fit, new_x0)
    refit = _fit_for_diagnosis(
        ds, dataclasses.replace(spec, predictor_reference=new_x0)
    )
    labels = transformed.coefficient_labels()
    t_vec = transformed.coefficient_vector()
    r_vec = refit.coefficient_vector()
    max_diff = max(abs(t - r) for t, r in zip(t_vec, r_vec))
    if args.json:
        payload = {"new_x0": new_x0.symbol, "max_abs_difference": float(max_diff)}
        for label, t, r in zip(labels, t_vec, r_vec):
            payload[f"transformed[{label}]"] = float(t)
            payload[f"refit[{label}]"] = float(r)
        _print_json(payload)
        return 0
    print(f"reference change: {spec.predictor_reference.symbol} -> {new_x0.symbol}")
    print(f"{'coefficient':<14}{'transformed':>16}{'refit':>16}{'|difference|':>16}")
    for label, t, r in zip(labels, t_vec, r_vec):
        print(f"{label:<14}{_fmt(t):>16}{_fmt(r):>16}{_fmt(abs(t - r)):>16}")
    print(f"max |transformed - refit| = {_fmt(max_diff)}")
    print(f"r_squared unchanged: {_fmt(transformed.r_squared)}")
    return 0


def _cmd_residuals(args) -> int:
    if len(args.row) != 2:
        raise _UsageError("--row must be given exactly twice (rows A and B)", "")
    from .regression import fit_power_law, residual_distance_ratio

    _, ds, spec = _load_with_spec(args)
    fit = fit_power_law(ds, spec)
    x_col = ds.column(spec.predictor)
    y_col = ds.column(spec.response)
    points = []
    for row in args.row:
        if not 0 <= row < ds.n:
            raise ScaleLabError(
                f"row {row} out of range (dataset has {ds.n} rows)"
            )
        points.append(
            (
                Quantity(float(x_col.values[row]), x_col.unit),
                Quantity(float(y_col.values[row]), y_col.unit),
            )
        )
    ratio = residual_distance_ratio(points[0], points[1], fit, space=args.space)
    if args.json:
        _print_json({"space": args.space, "row_a": args.row[0],
                     "row_b": args.row[1], "distance_ratio": ratio})
    else:
        print(
            f"|residual(row {args.row[0]})| / |residual(row {args.row[1]})| "
            f"in {args.space} space = {_fmt(ratio)}"
        )
    return 0


def _report_out(report, as_json: bool) -> int:
    if as_json:
        payload = {"case": report.title}
        for name, quantity in report.inputs:
            payload[f"input[{name}]"] = str(quantity)
        payload["relation"] = report.relation.render()
        payload["prefactor"] = report.prefactor_label
        si = report.prediction.in_si()
        payload["prediction"] = si.magnitude
        payload["prediction_unit"] = si.unit.symbol
        if report.display is not None:
            payload["display"] = report.display.magnitude
            payload["display_unit"] = report.display.unit.symbol
        _print_json(payload)
    else:
        print(report.render())
    return 0


def _cmd_blast(args) -> int:
    registry = default_registry()
    cfg = BlastConfig(
        prefactor=args.prefactor, rho=parse_quantity(args.rho, registry)
    )
    if args.obs:
        if args.energy or args.time:
            raise _UsageError("--obs excludes --energy/--time", "")
        observations = []
        for item in args.obs:
            left, sep, right = item.partition("@")
            if not sep:
                raise QuantityParseError(
                    f"expected 'RADIUS @ TIME', got {item!r}"
                )
            observations.append(
                (parse_quantity(left, registry), parse_quantity(right, registry))
            )
        return _report_out(yield_report(cfg, observations), args.json)
    if not (args.energy and args.time):
        raise _UsageError("blast needs --energy and --time, or --obs", "")
    report = blast_report(
        cfg, parse_quantity(args.energy, registry), parse_quantity(args.time, registry)
    )
    return _report_out(report, args.json)


def _cmd_roast(args) -> int:
    registry = default_registry()
    report = roast_report(
        parse_quantity(args.mass, registry),
        parse_quantity(args.ref_mass, registry),
        parse_quantity(args.ref_time, registry),
    )
    return _report_out(report, args.json)


def _cmd_hull(args) -> int:
    report = hull_report(parse_quantity(args.length, default_registry()))
    return _report_out(report, args.json)


def _cmd_fall(args) -> int:
    registry = default_registry()
    report = fall_report(
        parse_quantity(args.ref_speed, registry),
        parse_quantity(args.ref_mass, registry),
        parse_quantity(args.mass, registry),
    )
    return _report_out(report, args.json)


def _cmd_plot(args) -> int:
    from .csvio import atomic_write
    from .svgplot import PlotSpec, emit_svg_plot

    _, ds, spec = _load_with_spec(args, args.quadratic)
    fit = None
    if args.fit_line:
        fit = _fit_for_diagnosis(ds, spec)
    plot_spec = PlotSpec(
        x=spec.predictor,
        y=spec.response,
        x_reference=spec.predictor_reference,
        y_reference=spec.response_reference,
    )
    svg = emit_svg_plot(ds, fit, plot_spec)
    atomic_write(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def run_command(argv) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        if err.usage:
            print(err.usage, file=sys.stderr, end="")
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ScaleLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
