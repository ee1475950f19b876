"""Command-line surface.

Subcommands: ``derive``, ``pi``, ``fit``, ``diagnose unit-change``,
``diagnose residuals``, ``predict blast|roast|hull|fall``, ``plot``.
Exit codes: 0 on success, 1 on usage errors, 2 on data or dimension
errors, 3 on an internal error (a bug, reported in one line).  Reports
print numbers to 6 significant digits; pass ``--json`` for a flat
full-precision dump.  The ``predict`` subcommands of the worked cases that
take only quantities are built from the rows of ``casebook.CASES``.

Quantities on the command line follow the same grammar as everywhere
else: ``"<number> <unit-expression>"``, e.g. ``--mass "5 kg"``.  Dimension
arguments for derivations are ``name:<unit-expression>`` with an optional
magnitude, e.g. ``--params "g:m s^-2,l:m"``; derivations only need the
dimensions, so magnitudes may be omitted.  Text after ``name:`` that
starts with a digit, a sign or a point is read as a quantity, any other as
a unit expression.  Numbers, there and in ``--prefactor``, are read by the
one reader of ``units``, so ``a:nan`` names an unknown unit symbol and
``--prefactor 1_0`` a malformed number (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import casebook
from .algebra import pi_basis, solve_target_exponents
from .errors import QuantityParseError, ScaleLabError, UnderdeterminedError
from .units import Quantity, _real, default_registry, parse_quantity

# csvio, regression and svgplot are imported by the handlers that need them,
# so derive, pi and predict start without loading them.  None imports numpy
# for a fit or plot below regression._NUMPY_ENTRIES values.

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


def _parse_named_dimension(text: str):
    """Parse ``name:<unit-expr>`` or ``name:<number> <unit-expr>``."""
    name, sep, rest = text.partition(":")
    name = name.strip()
    rest = rest.strip()
    if not sep or not name or not rest:
        raise QuantityParseError(
            f"expected 'name:unit-expression' or 'name:value unit', got {text!r}"
        )
    if rest[0] in "+-.0123456789":  # a number's first character
        return name, parse_quantity(rest).dimension
    return name, default_registry().resolve(rest).dimension


def _parse_quantity_list(text: str):
    items = [item for item in text.split(",") if item.strip()]
    if not items:
        raise QuantityParseError("expected a comma-separated list of quantities")
    return [_parse_named_dimension(item) for item in items]


# Built once per process: parsing leaves a parser unchanged, so runs share it.
@functools.cache
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
    unit_change.set_defaults(handler=_cmd_unit_change)

    residuals = diagnose_sub.add_parser(
        "residuals", help="residual distance ratio between two rows"
    )
    _add_fit_arguments(residuals)
    residuals.add_argument("--row", action="append", required=True, type=int,
                           metavar="INDEX", help="pass twice: row A, then row B")
    residuals.add_argument("--space", choices=["log", "natural"], default="log")
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
    blast.add_argument("--prefactor", default="1", metavar="C")
    blast.set_defaults(handler=_cmd_blast)

    for case, row in casebook.CASES.items():
        sub = predict_sub.add_parser(case, help=row.help)
        dests = [sub.add_argument(flag, required=True, metavar="QTY").dest
                 for flag, *_ in row.inputs]
        sub.set_defaults(handler=_cmd_case, quantities=dests)
        sub.add_argument("--json", action="store_true")

    for sub in (fit, unit_change, residuals, blast):
        sub.add_argument("--json", action="store_true")

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


def _load_with_spec(args):
    """The dataset and model spec that a fit-family command's flags name."""
    from .csvio import load_csv
    from .regression import ModelSpec

    registry = default_registry()
    ds = load_csv(args.csv)
    x, y = args.x.strip(), args.y.strip()
    x0 = registry.resolve(args.x0) if args.x0 else ds.column(x).unit
    y0 = registry.resolve(args.y0) if args.y0 else ds.column(y).unit
    parsed_covariates = []
    for item in getattr(args, "covariate", ()):
        name, sep, unit_expr = item.partition(":")
        name = name.strip()
        unit = registry.resolve(unit_expr) if sep else ds.column(name).unit
        parsed_covariates.append((name, unit))
    spec = ModelSpec(
        response=y,
        response_reference=y0,
        predictor=x,
        predictor_reference=x0,
        include_quadratic=getattr(args, "quadratic", False),
        covariates=tuple(parsed_covariates),
    )
    return ds, spec


def _cmd_derive(args) -> int:
    name, target = _parse_named_dimension(args.target)
    params = _parse_quantity_list(args.params)
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
    quantities = _parse_quantity_list(args.quantities)
    groups = pi_basis(quantities)
    if not groups:
        print("no dimensionless groups")
        return 0
    for group in groups:
        print(group.render())
    return 0


def _cmd_fit(args) -> int:
    from .regression import fit

    ds, spec = _load_with_spec(args)
    result = fit(ds, spec)
    if args.json:
        print(json.dumps(dict(result.report_fields())))
    else:
        print(result.report())
    return 0


def _cmd_unit_change(args) -> int:
    from .regression import fit, transform_under_unit_change

    ds, spec = _load_with_spec(args)
    original = fit(ds, spec)
    new_x0 = default_registry().resolve(args.new_x0)
    transformed = transform_under_unit_change(original, new_x0)
    refit = fit(ds, transformed.reference_units)
    labels = transformed.coefficient_labels()
    t_vec = transformed.coefficients
    r_vec = refit.coefficients
    max_diff = max(abs(t - r) for t, r in zip(t_vec, r_vec))
    if args.json:
        payload = {"new_x0": new_x0.symbol, "max_abs_difference": max_diff}
        for label, t, r in zip(labels, t_vec, r_vec):
            payload[f"transformed[{label}]"] = t
            payload[f"refit[{label}]"] = r
        print(json.dumps(payload))
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
    from .regression import fit, residual_distance_ratio

    ds, spec = _load_with_spec(args)
    result = fit(ds, spec)
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
                Quantity(x_col.data[row], x_col.unit),
                Quantity(y_col.data[row], y_col.unit),
            )
        )
    ratio = residual_distance_ratio(points[0], points[1], result, space=args.space)
    if args.json:
        print(json.dumps({"space": args.space, "row_a": args.row[0],
                          "row_b": args.row[1], "distance_ratio": ratio}))
    else:
        print(
            f"|residual(row {args.row[0]})| / |residual(row {args.row[1]})| "
            f"in {args.space} space = {_fmt(ratio)}"
        )
    return 0


def _report_out(report, as_json: bool) -> int:
    if not as_json:
        print(report.render())
        return 0
    si = report.prediction.in_si()
    payload = {"case": report.title,
               **{f"input[{name}]": str(quantity) for name, quantity in report.inputs},
               "relation": report.relation.render(), "prefactor": report.prefactor_label,
               "prediction": si.magnitude, "prediction_unit": si.unit.symbol}
    if report.display is not None:
        payload.update(display=report.display.magnitude,
                       display_unit=report.display.unit.symbol)
    print(json.dumps(payload))
    return 0


def _cmd_blast(args) -> int:
    cfg = casebook.BlastConfig(prefactor=_real(args.prefactor), rho=parse_quantity(args.rho))
    if args.obs:
        if args.energy is not None or args.time is not None:
            raise _UsageError("--obs excludes --energy/--time", "")
        observations = []
        for item in args.obs:
            left, sep, right = item.partition("@")
            if not sep:
                raise QuantityParseError(
                    f"expected 'RADIUS @ TIME', got {item!r}"
                )
            observations.append((parse_quantity(left.strip()), parse_quantity(right.strip())))
        return _report_out(casebook.yield_report(cfg, observations), args.json)
    if args.energy is None or args.time is None:
        raise _UsageError("blast needs --energy and --time, or --obs", "")
    energy, t = parse_quantity(args.energy), parse_quantity(args.time)
    return _report_out(casebook.blast_report(cfg, energy, t), args.json)


def _cmd_case(args) -> int:
    # Looked up when the command runs, so a rebound casebook attribute is the
    # report that runs.
    report = getattr(casebook, f"{args.case}_report")
    quantities = [parse_quantity(getattr(args, dest)) for dest in args.quantities]
    return _report_out(report(*quantities), args.json)


def _cmd_plot(args) -> int:
    from .csvio import atomic_write
    from .regression import fit
    from .svgplot import PlotSpec, emit_svg_plot

    ds, spec = _load_with_spec(args)
    result = fit(ds, spec) if args.fit_line else None
    plot_spec = PlotSpec(
        x=spec.predictor,
        y=spec.response,
        x_reference=spec.predictor_reference,
        y_reference=spec.response_reference,
    )
    svg = emit_svg_plot(ds, result, plot_spec)
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
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
