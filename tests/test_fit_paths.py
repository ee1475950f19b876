"""The fit suite on the numpy path, and the parity of the two paths.

``regression.fit`` runs on Python floats below ``_NUMPY_ENTRIES`` design
entries, rows times parameters, and in numpy from it on.
tests/test_regression.py and acceptance criteria 7, 8 and 10 run on the
float path; this module runs them again with every table on the numpy
path, then fits seeded tables of 60,000 rows on both paths and compares
the results, and plots a table and prints the CLI's fits of
tests/data/yacht.csv on both paths.

Both paths run one solver; only its column kernels differ, modified
Gram-Schmidt on floats and Householder QR in numpy, and they round
differently, so the paths agree to a tolerance, not to the bit.  Over
designs from well conditioned to a quadratic with two covariates on a log
range of width 0.01, the largest differences seen were 2.7e-9 of the
largest coefficient, 1.3e-8 of a covariance entry's scale, 1.1e-14 in
r_squared and 1.4e-15 of ``residual_scale`` in a residual; the tolerances
below are about ten times those.
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import ABOVE_EVERY_TABLE
from test_acceptance import (  # noqa: F401
    test_criterion_7_quadratic_unit_change_law,
    test_criterion_8_pure_power_law_scale_invariance,
    test_criterion_10_synthetic_exponent_recovery,
)
from test_regression import *  # noqa: F403

import scalelab.regression as regression
from scalelab.cli import run_command
from scalelab.errors import DataError, ScaleLabError
from scalelab.svgplot import PlotSpec, emit_svg_plot
from scalelab.units import default_registry

pytestmark = pytest.mark.usefixtures("numpy_path")

# Near the threshold: at this size a fit of 2 parameters runs on floats, of 3
# or more in numpy.
ROWS = 60_000
REG = default_registry()
FT, G, KG, M, W, YR = (REG.symbol(s) for s in ("ft", "g", "kg", "m", "W", "yr"))

COEFFICIENT_TOL = 3e-8  # of the largest coefficient's magnitude
COVARIANCE_TOL = 1e-7  # of sqrt(var_i var_j)
R_SQUARED_TOL = 1e-12
RESIDUAL_TOL = 1e-13  # of residual_scale


def on_both_paths(monkeypatch, call):
    """``call()`` on the float path, then on the numpy path; a ScaleLabError
    is returned as its type and message."""
    outcomes = []
    for entries in (ABOVE_EVERY_TABLE, 0):
        monkeypatch.setattr(regression, "_NUMPY_ENTRIES", entries)
        try:
            outcomes.append(call())
        except ScaleLabError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def seeded_table(seed, lo, hi, rows=ROWS, **columns):
    """``rows`` rows: x = e^u with u uniform on [lo, hi], y a noisy power
    law in x with an age effect, covariates ``c1`` and ``c2``, a zero column
    and ``twice`` = 2 c1; ``columns`` replaces any of them."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(lo, hi, rows)
    c1, c2 = rng.uniform(0.0, 30.0, rows), rng.uniform(-5.0, 5.0, rows)
    y = np.exp(0.5 + 1.5 * u + 0.1 * u * u - 0.03 * c1 + rng.normal(0.0, 0.05, rows))
    table = {"x": (np.exp(u), G), "y": (y, W), "c1": (c1, YR), "c2": (c2, YR),
             "zero": (np.zeros(rows), YR), "twice": (2 * c1, YR)}
    return regression.DataSet({**table, **columns})


def spec_of(quadratic=False, covariates=(), predictor_reference=G):
    return regression.ModelSpec("y", W, "x", predictor_reference, quadratic,
                                tuple((name, YR) for name in covariates))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "lo, hi, quadratic, covariates",
    [
        (0.0, 12.0, False, ()),
        (3.0, 3.01, False, ()),
        (-40.0, 40.0, True, ()),
        (5.0, 5.5, True, ()),
        (0.0, 12.0, False, ("c1",)),
        (3.0, 3.01, True, ("c1",)),
        (0.0, 12.0, True, ("c1", "c2")),
        (3.0, 3.01, True, ("c1", "c2")),
        (0.0, 12.0, False, ("zero", "c1")),
    ],
    ids=["p2-wide", "p2-narrow", "p3-quadratic-wide", "p3-quadratic-narrow", "p3-covariate",
         "p4-narrow", "p5-wide", "p5-narrow", "p3-dropped-zero"],
)
def test_both_paths_give_the_same_fit(monkeypatch, seed, lo, hi, quadratic, covariates):
    ds = seeded_table(seed, lo, hi)
    floats, arrays = on_both_paths(monkeypatch, lambda: regression.fit(
        ds, spec_of(quadratic, covariates)))
    assert floats.coefficient_labels() == arrays.coefficient_labels()
    assert floats.dropped_covariates == arrays.dropped_covariates
    largest = max(map(abs, arrays.coefficients))
    for a, b in zip(floats.coefficients, arrays.coefficients):
        assert abs(a - b) <= COEFFICIENT_TOL * largest
    covariance = arrays.coefficient_covariance
    for i, (row_a, row_b) in enumerate(zip(floats.coefficient_covariance, covariance)):
        for j, (a, b) in enumerate(zip(row_a, row_b)):
            assert abs(a - b) <= COVARIANCE_TOL * math.sqrt(covariance[i][i] * covariance[j][j])
    assert abs(floats.r_squared - arrays.r_squared) <= R_SQUARED_TOL
    assert floats.residual_scale == pytest.approx(arrays.residual_scale, rel=COEFFICIENT_TOL)
    assert len(floats.residuals_log) == len(arrays.residuals_log) == ROWS
    worst = max(abs(a - b) for a, b in zip(floats.residuals_log, arrays.residuals_log))
    assert worst <= RESIDUAL_TOL * arrays.residual_scale


def _with_cell(name, row, value, unit):
    """A seeded table whose column ``name`` holds ``value`` at ``row``."""
    values = np.exp(np.random.default_rng(5).uniform(0.0, 4.0, ROWS))
    values[row] = value
    return {name: (values, unit)}


@pytest.mark.parametrize(
    "columns, spec, message",
    [
        ({}, spec_of(covariates=("c1", "twice")),
         "collinear design; offending column(s): delta[twice]"),
        ({"x": (np.full(ROWS, 5.0), G)}, spec_of(),
         "predictor 'x' has zero variance in log space"),
        (_with_cell("y", 123, -4.0, W), spec_of(),
         "column 'y', row 123: value must be strictly positive to take a log, got -4.0"),
        (_with_cell("x", 7, 0.0, G), spec_of(),
         "column 'x', row 7: value must be strictly positive to take a log, got 0.0"),
        (_with_cell("c2", 9, 1e308, M),
         regression.ModelSpec("y", W, "x", G, covariates=(("c2", FT),)),
         "column 'c2', row 9: 1e+308 m to ft overflows a float"),
        (_with_cell("x", 11, 1e-323, G), spec_of(predictor_reference=KG),
         "column 'x', row 11: 9.88131e-324 g to kg underflows a float to 0"),
        ({"rows": 0}, spec_of(), "need at least 3 rows to fit 2 parameters, got 0"),
        ({"rows": 1}, spec_of(), "need at least 3 rows to fit 2 parameters, got 1"),
    ],
    ids=["collinear", "zero-variance", "negative", "zero", "overflow", "underflow",
         "zero-rows", "one-row"],
)
def test_both_paths_refuse_a_table_alike(monkeypatch, columns, spec, message):
    ds = seeded_table(2, 0.0, 12.0, **columns)
    floats, arrays = on_both_paths(monkeypatch, lambda: regression.fit(ds, spec))
    assert floats == arrays
    assert floats[1] == message


def plot_table(first_y):
    """500 rows on y = e^0.5 x^1.5, with ``first_y`` in row 0."""
    u = np.random.default_rng(3).uniform(0.0, 12.0, 500)
    y = np.exp(0.5 + 1.5 * u)
    y[0] = first_y
    return regression.DataSet({"x": (np.exp(u), G), "y": (y, W)})


def test_both_paths_plot_alike(monkeypatch):
    ds = plot_table(math.exp(0.5))
    floats, arrays = on_both_paths(monkeypatch, lambda: emit_svg_plot(
        ds, regression.fit(ds, spec_of()), PlotSpec("x", "y", G, W)))
    assert floats == arrays
    assert floats.count("<circle") == 500


@pytest.mark.parametrize(
    "ds, message",
    [
        (plot_table(-1.5),
         "column 'y', row 0: value must be strictly positive to take a log, got -1.5"),
        (regression.DataSet({"x": ([], G), "y": ([], W)}), "cannot plot a table of 0 rows"),
    ],
    ids=["negative", "zero-rows"],
)
def test_both_paths_refuse_a_plot_alike(monkeypatch, ds, message):
    floats, arrays = on_both_paths(monkeypatch, lambda: emit_svg_plot(
        ds, None, PlotSpec("x", "y", G, W)))
    assert floats == arrays == (DataError, message)


YACHT = ["--csv", str(Path(__file__).parent / "data" / "yacht.csv"), "--x", "length",
         "--y", "price"]


def stdout_of(argv):
    """``(exit code, stdout)`` of one command run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("flags", [[], ["--quadratic"], ["--covariate", "age"]],
                         ids=["plain", "quadratic", "covariate"])
def test_both_paths_print_a_fit_alike(monkeypatch, flags):
    floats, arrays = on_both_paths(monkeypatch, lambda: stdout_of(["fit", *YACHT, *flags]))
    assert floats == arrays
    assert floats[0] == 0 and "r_squared = " in floats[1]


@pytest.mark.parametrize("flags", [[], ["--quadratic"]], ids=["plain", "quadratic"])
def test_both_paths_print_a_unit_change_alike_but_its_rounding_residue(monkeypatch, flags):
    """``diagnose unit-change`` prints each coefficient transformed and
    refitted, then ``|difference|``: the rounding residue of the two, which
    each path rounds its own way (1.8e-15 on floats, 2.7e-15 in numpy for
    alpha in the plain fit).  Every other byte is the same on both paths,
    and the residue is below 16 eps of the largest coefficient."""
    argv = ["diagnose", "unit-change", *YACHT, "--new-x0", "m", *flags]
    outputs = []
    for code, out in on_both_paths(monkeypatch, lambda: stdout_of(argv)):
        assert code == 0
        lines = out.splitlines()
        rows = lines[2:-2]  # between the column header and the last two lines
        residues = [float(line.split()[-1]) for line in [*rows, lines[-2]]]
        largest = max(abs(float(line.split()[1])) for line in rows)
        assert max(residues) <= 16 * sys.float_info.epsilon * largest
        outputs.append([*lines[:2], *(line.rsplit(None, 1)[0] for line in rows), lines[-1]])
    assert outputs[0] == outputs[1]
