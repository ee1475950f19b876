import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalelab
from scalelab.cli import run_command
from scalelab.csvio import dump_csv, load_csv, parse_header, save_csv
from scalelab.errors import DataError, ScaleLabError, UnknownUnitError
from scalelab.regression import (
    DataSet,
    ModelSpec,
    fit,
    fit_power_law,
    fit_quadratic_log,
)
from scalelab.svgplot import PlotSpec, emit_svg_plot, plot_maps
from scalelab.units import default_registry, parse_quantity

REG = default_registry()
DATA_DIR = Path(__file__).parent / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def square_law_csv(tmp_path):
    lines = ["# noiseless square law", "x[m],y[m]"]
    for x in (1.0, 2.0, 4.0, 8.0):
        lines.append(f"{x!r},{3 * x * x!r}")
    return write(tmp_path, "square.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# load_csv

def test_load_well_formed(tmp_path):
    path = write(
        tmp_path,
        "boats.csv",
        "length[ft],price[GBP],age[yr]\n30,50000,5\n40,120000,2\n25,30000,12\n",
    )
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.names == ("length", "price", "age")
    assert ds.column("length").unit.symbol == "ft"
    assert list(ds.column("price").values) == [50000.0, 120000.0, 30000.0]


def test_unknown_unit_is_named(tmp_path):
    path = write(tmp_path, "bad.csv", "mass[stone]\n1\n")
    with pytest.raises(UnknownUnitError, match="stone"):
        load_csv(path)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    plain = write(tmp_path, "plain.csv", "x[m],y[m]\n1,2\n3,4\n")
    noisy = write(
        tmp_path,
        "noisy.csv",
        "# leading comment\n\nx[m],y[m]\n1,2\n  # interior comment\n3,4\n\n",
    )
    a, b = load_csv(plain), load_csv(noisy)
    assert a.n == b.n == 2
    for name in a.names:
        np.testing.assert_array_equal(a.column(name).values, b.column(name).values)


def test_a_utf8_byte_order_mark_is_not_read_as_header_text(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a leading BOM.
    text = "x[m],y[s]\n1.0,2.0\n2.0,3.0\n4.0,5.0\n"
    plain = write(tmp_path, "plain.csv", text)
    marked = write(tmp_path, "marked.csv", "\ufeff" + text)
    a, b = load_csv(plain), load_csv(marked)
    assert b.names == a.names == ("x", "y")
    assert dump_csv(b) == dump_csv(a) == text
    assert run_command(["fit", "--csv", marked, "--x", "x", "--y", "y"]) == 0


def test_ragged_row_reports_line_number(tmp_path):
    path = write(tmp_path, "ragged.csv", "x[m],y[m]\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path)


def test_unparseable_cell_reports_line_and_column(tmp_path):
    path = write(tmp_path, "badcell.csv", "x[m],y[m]\n1,2\n3,fish\n")
    with pytest.raises(DataError, match=r"line 3, column 'y'"):
        load_csv(path)


def test_duplicate_headers_rejected(tmp_path):
    path = write(tmp_path, "dup.csv", "x[m],x[ft]\n1,2\n")
    with pytest.raises(DataError, match="duplicate"):
        load_csv(path)


def test_header_without_unit_rejected(tmp_path):
    path = write(tmp_path, "nounit.csv", "x,y[m]\n1,2\n")
    with pytest.raises(DataError, match="name\\[unit\\]"):
        load_csv(path)


@pytest.mark.parametrize(
    "cell, outcome",
    [
        ("nan", "malformed number 'nan'"),
        ("inf", "malformed number 'inf'"),
        ("-inf", "malformed number '-inf'"),
        ("NaN", "malformed number 'NaN'"),
        ("1_0", "malformed number '1_0'"),
        ("\uff11\uff12", "malformed number '\uff11\uff12'"),  # fullwidth digits
        ('"1.5"', "malformed number '\"1.5\"'"),  # quoted
        ("1e400", "number '1e400' overflows a float"),
        ("1e-400", "number '1e-400' underflows a float to 0"),
        (" 3\t", 3.0),  # padded with blanks, as parse_quantity strips its text
        ("1E-0400", "number '1E-0400' underflows a float to 0"),
        ("0." + "0" * 330 + "1", f"number '0.{'0' * 330}1' underflows a float to 0"),
        ("0e400", 0.0),  # a true zero
        ("0e-400", 0.0),  # a true zero with a tiny exponent
        ("1e-320", 1e-320),  # subnormal, not 0
    ],
    ids=["nan", "inf", "-inf", "NaN", "1_0", "fullwidth", "quoted", "1e400", "1e-400", "padded",
         "1E-0400", "long-fraction", "zero", "zero-tiny-exponent", "subnormal"],
)
def test_non_finite_cell_reports_line_and_column(tmp_path, cell, outcome):
    path = write(tmp_path, "nonfinite.csv", f"x[m],y[m]\n1,2\n# note\n3,{cell}\n5,6\n")
    if isinstance(outcome, float):
        assert list(load_csv(path).column("y").values) == [2.0, outcome, 6.0]
        return
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == f"line 4, column 'y': {outcome}"


_LOAD_IN_CHILD = """
import sys
from scalelab.csvio import load_csv
from scalelab.errors import DataError
try:
    load_csv(sys.argv[1])
except DataError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "columns, row, message",
    [
        (12, ",".join(["1234567890"] * 11 + ["x"]), "line 2, column 'c11': malformed number 'x'"),
        (12, ",".join(["1234567890"] * 13), "line 2: expected 12 fields, got 13"),
        (1, "1" * 10**5 + "x", f"line 2, column 'c0': malformed number '{'1' * 10**5}x'"),
    ],
    ids=["bad-last-cell", "one-field-too-many", "long-bad-cell"],
)
def test_a_long_row_that_fails_the_pattern_fails_at_once(tmp_path, columns, row, message):
    """A number text has one way to match the number pattern, so a row that
    fails it fails in time linear in its length, not after trying every
    split of its digits.  The load runs in a child process, so a regression
    ends at the time limit instead of hanging the suite."""
    header = ",".join(f"c{i}[m]" for i in range(columns))
    path = write(tmp_path, "long.csv", f"{header}\n{row}\n")
    env = dict(os.environ)
    src = str(Path(scalelab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _LOAD_IN_CHILD, path], capture_output=True,
                           text=True, env=env, timeout=10, check=True)
    assert child.stdout == message + "\n"


def _run(argv):
    """``(exit code, stderr)`` of one command; its stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, err.getvalue()


# Digits, sign, point, exponent, underscore and the words float() reads,
# padded at either end with a blank.
_number_texts = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " "]),
        st.lists(st.sampled_from([*"0123456789+-.e_", "nan", "inf"]), min_size=1, max_size=6)
        .map("".join),
        st.sampled_from(["", " "]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(text=_number_texts)
@example(text="1_0")
@example(text=" 3 ")
@example(text="1e400")
@example(text="1e-400")
@example(text="1e-320")
@example(text="0." + "0" * 330 + "1")  # underflows with no exponent
@example(text=".")
@example(text="+.5")
@example(text="5.")
@example(text="\uff11\uff12")  # fullwidth digits
@example(text="nan")
@example(text="-inf")
def test_one_number_text_reads_alike_at_every_entry_point(tmp_path_factory, text):
    """A quantity, a CLI ``name:`` argument and a CSV cell read one number
    grammar: a text is accepted everywhere, as one float, or rejected
    everywhere (exit 2 on the command line) by a message quoting it."""
    path = tmp_path_factory.mktemp("number") / "cell.csv"
    path.write_text(f"x[m],y[m]\n1,2\n2,{text}\n3,5\n", encoding="utf-8")
    derive = _run(["derive", "--target", "y:m", "--params", f"a:{text} m"])
    fitted = _run(["fit", "--csv", str(path), "--x", "x", "--y", "y"])
    quoted = repr(text.strip())
    try:
        magnitude = parse_quantity(f"{text} m").magnitude
    except ScaleLabError as exc:
        assert quoted in str(exc)
        with pytest.raises(ScaleLabError) as info:
            load_csv(str(path))
        assert quoted in str(info.value)
        assert derive[0] == 2 and quoted in derive[1]
        assert fitted == (2, f"error: {info.value}\n")
    else:
        assert derive == (0, "")
        assert load_csv(str(path)).column("y").values[1] == magnitude


def test_empty_data_rejected(tmp_path):
    path = write(tmp_path, "empty.csv", "x[m],y[m]\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path)


def test_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv")


def test_parse_header_allows_composite_units():
    schema = parse_header(["speed[m s^-1]", "price[GBP]"])
    assert schema.unit_expressions == ("m s^-1", "GBP")


def test_round_trip_is_text_identical(tmp_path):
    original = "x[m],y[GBP]\n1.5,2.25\n0.1,12345.0\n3.333333333333333,1e-06\n"
    path = write(tmp_path, "canon.csv", original)
    ds = load_csv(path)
    assert dump_csv(ds) == original
    # and a second pass through save/load is stable
    out = tmp_path / "copy.csv"
    save_csv(ds, str(out))
    assert out.read_text() == original


# ---------------------------------------------------------------------------
# SVG emission

def three_point_dataset():
    return DataSet(
        {"x": (np.array([1.0, 2.0, 4.0]), REG.symbol("m")),
         "y": (np.array([2.0, 8.0, 32.0]), REG.symbol("m"))}
    )


def spec_for(ds, quadratic=False):
    return ModelSpec(
        response="y",
        response_reference=ds.column("y").unit,
        predictor="x",
        predictor_reference=ds.column("x").unit,
        include_quadratic=quadratic,
    )


def plot_spec(ds, **kwargs):
    return PlotSpec(
        x="x",
        y="y",
        x_reference=ds.column("x").unit,
        y_reference=ds.column("y").unit,
        **kwargs,
    )


def test_svg_has_one_circle_per_point():
    ds = three_point_dataset()
    svg = emit_svg_plot(ds, None, plot_spec(ds))
    assert svg.count("<circle") == 3
    assert "log(x/m)" in svg and "log(y/m)" in svg


def test_svg_is_byte_identical_across_runs():
    ds = three_point_dataset()
    spec = plot_spec(ds)
    assert emit_svg_plot(ds, None, spec) == emit_svg_plot(ds, None, spec)


def test_svg_rejects_non_positive_values():
    ds = DataSet(
        {"x": (np.array([1.0, -2.0, 4.0]), REG.symbol("m")),
         "y": (np.array([2.0, 8.0, 32.0]), REG.symbol("m"))}
    )
    with pytest.raises(DataError, match="row 1"):
        emit_svg_plot(ds, None, plot_spec(ds))


def test_svg_rejects_fit_from_other_columns():
    ds = three_point_dataset()
    fit = fit_power_law(ds, spec_for(ds))
    mismatched = PlotSpec(
        x="x", y="y",
        x_reference=REG.symbol("ft"),
        y_reference=ds.column("y").unit,
    )
    with pytest.raises(DataError, match="different columns or reference"):
        emit_svg_plot(ds, fit, mismatched)


def test_fitted_line_slope_matches_beta():
    ds = three_point_dataset()
    fit = fit_power_law(ds, spec_for(ds))
    svg = emit_svg_plot(ds, fit, plot_spec(ds))
    match = re.search(
        r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)" '
        r'stroke="crimson"',
        svg,
    )
    assert match
    x1, y1, x2, y2 = map(float, match.groups())
    x_map, y_map = plot_maps(ds, plot_spec(ds))
    x_scale = x_map(1.0) - x_map(0.0)
    y_scale = y_map(1.0) - y_map(0.0)
    slope = ((y2 - y1) / (x2 - x1)) * (x_scale / y_scale)
    assert slope == pytest.approx(fit.beta, abs=1e-6)


def test_parabola_polyline_vertex():
    u = np.linspace(0.0, 12.0, 50)
    ds = DataSet(
        {"x": (np.exp(u), REG.symbol("m")),
         "y": (np.exp(0.5 - 0.5 * u + 0.05 * u**2), REG.symbol("m"))}
    )
    fit = fit_quadratic_log(ds, spec_for(ds, quadratic=True))
    vertex = -fit.beta / (2 * fit.gamma)
    assert vertex == pytest.approx(5.0, abs=1e-6)

    svg = emit_svg_plot(ds, fit, plot_spec(ds))
    match = re.search(r'<polyline points="([^"]+)"', svg)
    assert match
    points = [tuple(map(float, p.split(","))) for p in match.group(1).split()]
    assert len(points) == 100
    x_map, y_map = plot_maps(ds, plot_spec(ds))
    x_scale = x_map(1.0) - x_map(0.0)
    lowest = min(points, key=lambda p: -p[1])  # svg y grows downward
    u_at_lowest = (lowest[0] - x_map(0.0)) / x_scale
    grid_step = (points[1][0] - points[0][0]) / x_scale
    assert abs(u_at_lowest - vertex) <= grid_step


# ---------------------------------------------------------------------------
# run_command

def test_derive_command(capsys):
    code = run_command(
        ["derive", "--target", "v:m s^-1", "--params", "g:m s^-2,l:m"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "v ~ g^1/2 l^1/2"


def test_derive_underdetermined_prints_pi_diagnosis(capsys):
    code = run_command(
        ["derive", "--target", "v:m s^-1", "--params", "g:m s^-2,l:m,lambda:m"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "underdetermined: 1 free direction(s)" in out
    assert "pi: l lambda^-1" in out


def test_derive_impossible_target_exits_2(capsys):
    code = run_command(["derive", "--target", "E:J", "--params", "l:m,t:s"])
    assert code == 2
    assert "impossible" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", ["100", "-100"])
def test_derive_unit_scale_out_of_float_range_exits_2(exponent, capsys):
    # yr^100 overflows a float and yr^-100 underflows to 0; neither is a scale.
    code = run_command(["derive", "--target", "y:m", "--params", f"a:yr^{exponent}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unit 'yr^{exponent}' must have a positive finite scale\n"
    )


def test_internal_error_is_one_line_and_exit_3(monkeypatch, capsys):
    import scalelab.casebook as casebook

    def broken(length):
        raise RuntimeError("case broke")

    monkeypatch.setattr(casebook, "hull_speed", broken)
    assert run_command(["predict", "hull", "--length", "30 ft"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: case broke\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "roast", "--mass", "5 kg", "--ref-mass", "1 kg", "--ref-time", "1 hr"],
        ["predict", "hull", "--length", "30 ft"],
        ["predict", "fall", "--ref-speed", "150 mph", "--ref-mass", "70 kg", "--mass", "20 g"],
    ],
    ids=["roast", "hull", "fall"],
)
def test_case_report_is_looked_up_when_the_command_runs(argv, monkeypatch, capsys):
    # The parser is built by the first run; a casebook report rebound after
    # that, as a tracer does, must still be the one that runs.
    import scalelab.casebook as casebook

    assert run_command(argv) == 0
    expected = capsys.readouterr().out
    name = f"{argv[1]}_report"
    report, calls = getattr(casebook, name), []

    def counting(*quantities):
        calls.append(quantities)
        return report(*quantities)

    monkeypatch.setattr(casebook, name, counting)
    assert run_command(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == expected


def usage_transcript():
    """``(argv, exit code, text)`` per entry of ``data/cli_usage.txt``.

    Each entry is a ``$ scalelab ...`` line, a ``? <code>`` line and the
    exact output at 80 columns: stdout when the exit code is 0, stderr
    otherwise, and the other stream must be empty.  The file covers
    ``--help`` and a usage error (exit 1) for the top-level parser and every
    subcommand, and, for each worked case, a text run, a ``--json`` run and
    inputs of the wrong dimension or sign (exit 2).  Edit it by hand when an
    output changes on purpose.
    """
    text = (DATA_DIR / "cli_usage.txt").read_text(encoding="utf-8")
    entries = []
    for chunk in re.split(r"^\$ ", text, flags=re.MULTILINE)[1:]:
        command, status, body = chunk.split("\n", 2)
        entries.append(pytest.param(shlex.split(command)[1:], int(status[2:]), body,
                                    id=command))
    return entries


@pytest.mark.parametrize("argv, code, expected", usage_transcript())
def test_help_and_usage_errors_are_pinned(argv, code, expected, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((expected, "") if code == 0 else ("", expected))


def test_run_command_calls_share_one_parser(monkeypatch, capsys):
    import scalelab.cli as cli

    run_command(["pi", "--quantities", "E:J"])
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert run_command(["pi", "--quantities", "E:J"]) == 0
    assert run_command(["predict", "hull", "--length", "30 ft"]) == 0
    assert built == []


def test_pi_command(capsys):
    code = run_command(
        ["pi", "--quantities", "E:J,t:s,rho:kg m^-3,r:m"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "pi: E t^2 rho^-1 r^-5"


def test_pi_command_no_groups(capsys):
    assert run_command(["pi", "--quantities", "E:J"]) == 0
    assert "no dimensionless groups" in capsys.readouterr().out


def test_unknown_subcommand_exits_1(capsys):
    assert run_command(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_help_exits_0():
    assert run_command(["--help"]) == 0


def test_no_arguments_exits_1(capsys):
    assert run_command([]) == 1


def test_fit_command_on_square_law(tmp_path, capsys):
    path = square_law_csv(tmp_path)
    code = run_command(["fit", "--csv", path, "--x", "x", "--y", "y"])
    assert code == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(" = ") for line in out.strip().splitlines()
    )
    assert float(values["beta"]) == pytest.approx(2.0, abs=1e-9)
    assert float(values["r_squared"]) == pytest.approx(1.0, abs=1e-9)
    assert values["x0"] == "m" and values["y0"] == "m"


def test_fit_command_json_is_full_precision(tmp_path, capsys):
    path = square_law_csv(tmp_path)
    assert run_command(["fit", "--csv", path, "--x", "x", "--y", "y", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta"] == pytest.approx(2.0, abs=1e-12)
    assert payload["alpha"] == pytest.approx(math.log(3), abs=1e-12)
    assert payload["n"] == 4


def test_fit_command_with_covariate_fixture(capsys):
    code = run_command(
        ["fit", "--csv", str(DATA_DIR / "yacht.csv"), "--x", "length",
         "--y", "price", "--covariate", "age", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["beta"] - 3.5) <= 2 * payload["se_beta"]
    assert abs(payload["delta[age]"] + 0.03) <= 2 * payload["se_delta[age]"]


def test_fit_command_covariate_with_explicit_reference(capsys):
    # age entered relative to hours instead of years rescales delta by the
    # hours-per-year ratio
    base = ["fit", "--csv", str(DATA_DIR / "yacht.csv"), "--x", "length",
            "--y", "price", "--json"]
    assert run_command(base + ["--covariate", "age"]) == 0
    in_years = json.loads(capsys.readouterr().out)
    assert run_command(base + ["--covariate", "age:hr"]) == 0
    in_hours = json.loads(capsys.readouterr().out)
    hours_per_year = REG.symbol("yr").scale / REG.symbol("hr").scale
    assert in_hours["delta[age]"] * hours_per_year == pytest.approx(
        in_years["delta[age]"], rel=1e-9
    )
    assert in_hours["beta"] == pytest.approx(in_years["beta"], rel=1e-12)


def test_fit_command_quadratic_with_covariate_json(capsys):
    path = str(DATA_DIR / "yacht.csv")
    code = run_command(
        ["fit", "--csv", path, "--x", "length", "--y", "price", "--quadratic",
         "--covariate", "age", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "alpha", "beta", "se_beta", "gamma", "se_gamma", "delta[age]",
        "se_delta[age]", "r_squared", "n", "p", "y", "y0", "x", "x0",
        "covariate[age]",
    ]
    spec = ModelSpec("price", REG.symbol("GBP"), "length", REG.symbol("ft"),
                     include_quadratic=True, covariates=(("age", REG.symbol("yr")),))
    assert payload == json.loads(json.dumps(dict(fit(load_csv(path), spec).report_fields())))
    assert payload["p"] == 4


def test_fit_command_data_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "neg.csv", "x[m],y[m]\n1,1\n2,-4\n4,16\n")
    assert run_command(["fit", "--csv", path, "--x", "x", "--y", "y"]) == 2
    assert "row 1" in capsys.readouterr().err


def test_fit_command_non_finite_covariate_exits_2(tmp_path, capsys):
    path = write(
        tmp_path,
        "boats.csv",
        "length[m],price[GBP],age[yr]\n10,100,1\n20,400,nan\n30,900,3\n"
        "40,1600,4\n50,2500,5\n",
    )
    code = run_command(
        ["fit", "--csv", path, "--x", "length", "--y", "price", "--covariate", "age"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 3, column 'age'" in captured.err


def test_fit_command_incommensurable_x0_exits_2(tmp_path, capsys):
    path = square_law_csv(tmp_path)
    code = run_command(
        ["fit", "--csv", path, "--x", "x", "--y", "y", "--x0", "kg"]
    )
    assert code == 2


def test_diagnose_unit_change_on_shipped_fixture(capsys):
    code = run_command(
        ["diagnose", "unit-change", "--csv", str(DATA_DIR / "metabolic.csv"),
         "--x", "mass", "--y", "bmr", "--quadratic", "--new-x0", "kg"]
    )
    assert code == 0
    out = capsys.readouterr().out
    match = re.search(r"max \|transformed - refit\| = ([0-9.e+-]+)", out)
    assert match
    assert float(match.group(1)) < 1e-9
    assert "m -> kg" not in out  # reference symbols, not meters
    assert "g -> kg" in out


@pytest.mark.parametrize("quadratic", [[], ["--quadratic"]], ids=["plain", "quadratic"])
@pytest.mark.parametrize(
    "x0, new_x0",
    [("kg^100 g^-99", "g^100 kg^-99"), ("g^100 kg^-99", "kg^100 g^-99")],
    ids=["down", "up"],
)
def test_diagnose_unit_change_beyond_the_float_range_is_finite(x0, new_x0, quadratic, capsys):
    # The references differ by a factor 1e597, beyond the float range.
    argv = ["diagnose", "unit-change", "--csv", str(DATA_DIR / "metabolic.csv"), "--x", "mass",
            "--y", "bmr", "--x0", x0, "--new-x0", new_x0, *quadratic, "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    coefficients = [v for k, v in payload.items() if k.startswith(("transformed[", "refit["))]
    assert all(math.isfinite(v) for v in coefficients)
    assert payload["max_abs_difference"] <= 1e-9 * max(abs(v) for v in coefficients)


@pytest.mark.parametrize(
    "text, x0, message",
    [
        ("x[m],y[m]\n1e308,5\n2,3\n3,4\n4,7\n", "ft",
         "column 'x', row 0: 1e+308 m to ft overflows a float"),
        ("x[g],y[W]\n1e-323,1\n2,3\n3,4\n4,9\n", "kg",
         "column 'x', row 0: 9.88131e-324 g to kg underflows a float to 0"),
    ],
    ids=["overflow", "underflow"],
)
@pytest.mark.parametrize("command", ["fit", "plot"])
def test_column_leaving_the_float_range_exits_2(text, x0, message, command, tmp_path, capsys):
    path, svg = write(tmp_path, "range.csv", text), tmp_path / "range.svg"
    argv = [command, "--csv", path, "--x", "x", "--y", "y", "--x0", x0]
    if command == "plot":
        argv += ["--out", str(svg)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not svg.exists()


def test_diagnose_residuals_known_ratio(tmp_path, capsys):
    # Exact baseline rows plus two symmetric off-line pairs keep the OLS
    # line exactly on the underlying law, so the published off-line rows
    # have exactly the intended deviations.
    rows = ["mass[g],bmr[W]"]
    for m in (50.0, 500.0, 5000.0, 50000.0):
        rows.append(f"{m!r},{0.02 * m ** 0.75!r}")
    mouse, bear = 20.0, 200000.0
    for mass, factor in ((mouse, 10.0), (mouse, 0.1), (bear, 1.1), (bear, 1 / 1.1)):
        rows.append(f"{mass!r},{factor * 0.02 * mass ** 0.75!r}")
    path = write(tmp_path, "outliers.csv", "\n".join(rows) + "\n")
    code = run_command(
        ["diagnose", "residuals", "--csv", path, "--x", "mass", "--y", "bmr",
         "--row", "4", "--row", "6", "--space", "log", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance_ratio"] == pytest.approx(
        math.log(10) / math.log(1.1), rel=1e-9
    )
    # natural space flips the comparison the other way
    code = run_command(
        ["diagnose", "residuals", "--csv", path, "--x", "mass", "--y", "bmr",
         "--row", "6", "--row", "4", "--space", "natural", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance_ratio"] == pytest.approx(
        (0.1 / 9.0) * (bear / mouse) ** 0.75, rel=1e-9
    )


def test_diagnose_residuals_row_out_of_range(tmp_path, capsys):
    path = square_law_csv(tmp_path)
    code = run_command(
        ["diagnose", "residuals", "--csv", path, "--x", "x", "--y", "y",
         "--row", "0", "--row", "99"]
    )
    assert code == 2


def test_predict_roast_command(capsys):
    code = run_command(
        ["predict", "roast", "--mass", "5 kg", "--ref-mass", "1 kg",
         "--ref-time", "1 hr"]
    )
    assert code == 0
    assert "2.92402 hr" in capsys.readouterr().out


def test_predict_hull_command(capsys):
    assert run_command(["predict", "hull", "--length", "25 ft"]) == 0
    assert "6.70362 knot" in capsys.readouterr().out


def test_predict_fall_command(capsys):
    code = run_command(
        ["predict", "fall", "--ref-speed", "150 mph", "--ref-mass", "200 kg",
         "--mass", "20 g"]
    )
    assert code == 0
    assert "32.3165 mph" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fall", "--ref-speed", "150 mph", "--ref-mass", "200 kg", "--mass", "1e-320 g"],
         "9.99989e-321 g / 200 kg underflows a float to 0"),
        (["roast", "--mass", "1e-320 g", "--ref-mass", "200 kg", "--ref-time", "1 hr"],
         "9.99989e-321 g / 200 kg underflows a float to 0"),
        (["fall", "--ref-speed", "150 mph", "--ref-mass", "1e-300 g", "--mass", "1e300 kg"],
         "1e+300 kg / 1e-300 g overflows a float"),
        (["roast", "--mass", "1e300 kg", "--ref-mass", "1e-300 g", "--ref-time", "1 hr"],
         "1e+300 kg / 1e-300 g overflows a float"),
    ],
    ids=["fall-underflow", "roast-underflow", "fall-overflow", "roast-overflow"],
)
def test_predict_mass_ratio_out_of_float_range_exits_2(argv, message, capsys):
    # 1e-320 g is subnormal; over 200 kg the ratio rounds to 0.
    assert run_command(["predict", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fall", "--ref-speed", "1e-300 m/s", "--ref-mass", "1 kg", "--mass", "1e-300 kg"],
         "evaluating 'v ~ m^1/6': 1e-50 1 * 1e-300 m s^-1 underflows a float to 0"),
        (["roast", "--mass", "1e-300 kg", "--ref-mass", "1 kg", "--ref-time", "1e-200 hr"],
         "evaluating 't ~ kappa^-1 m^2/3': 1e-200 1 * 3.6e-197 s underflows a float to 0"),
        (["blast", "--energy", "1e-300 J", "--time", "1e-300 s", "--prefactor", "1e-200"],
         "evaluating 'r ~ E^1/5 rho^-1/5 t^2/5': 1e-120 s^2/5 * 9.64193e-261 m s^-2/5 "
         "underflows a float to 0"),
    ],
    ids=["fall", "roast", "blast"],
)
def test_predict_underflow_exits_2(argv, message, capsys):
    # Every input is nonzero, yet the prediction rounds to 0.
    assert run_command(["predict", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_predict_result_underflowing_in_the_reference_unit_exits_2(capsys):
    # The time is 3.2e-317 s, but in years it rounds to 0.
    argv = ["roast", "--mass", "1e-36 kg", "--ref-mass", "1 kg", "--ref-time", "1e-300 yr"]
    assert run_command(["predict", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 3.1557e-317 s to yr underflows a float to 0\n"


def test_predict_input_underflowing_in_si_exits_2(capsys):
    # 1e-322 g is positive, but 1e-325 kg rounds to 0.
    argv = ["roast", "--mass", "1e-322 g", "--ref-mass", "1 kg", "--ref-time", "1 hr"]
    assert run_command(["predict", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mass 9.88131e-323 g underflows a float to 0 in SI units\n"


def test_predict_input_overflowing_in_si_exits_2(capsys):
    # 1e308 yr is a finite time, but in seconds it is beyond the float range.
    argv = ["roast", "--mass", "5 kg", "--ref-mass", "1 kg", "--ref-time", "1e308 yr"]
    assert run_command(["predict", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reference time 1e+308 yr overflows a float in SI units\n"


def test_predict_blast_radius_command(capsys):
    code = run_command(
        ["predict", "blast", "--energy", "8e13 J", "--time", "0.025 s", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["prediction"] == pytest.approx(133.0325, rel=1e-6)
    assert payload["prediction_unit"] == "m"


def test_predict_blast_yield_from_observations(capsys):
    code = run_command(
        ["predict", "blast", "--obs", "133.03249971309862 m @ 0.025 s", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["prediction"] == pytest.approx(8e13, rel=1e-9)


def test_predict_blast_usage_conflict(capsys):
    code = run_command(
        ["predict", "blast", "--energy", "1 J", "--time", "1 s",
         "--obs", "1 m @ 1 s"]
    )
    assert code == 1


def test_predict_dimension_error_exits_2(capsys):
    code = run_command(
        ["predict", "roast", "--mass", "5 m", "--ref-mass", "1 kg",
         "--ref-time", "1 hr"]
    )
    assert code == 2


def test_predict_blast_huge_inputs_give_a_finite_radius(capsys):
    # Each factor of C E^1/5 rho^-1/5 t^2/5 is raised on its own, so inputs
    # whose product E t^2 would overflow still give the finite radius.
    code = run_command(
        ["predict", "blast", "--energy", "1e300 J", "--time", "1e200 s"]
    )
    assert code == 0
    assert "prediction: 9.64193e+139 m" in capsys.readouterr().out


def test_predict_blast_overflow_exits_2(capsys):
    # The yield needs r^5, which overflows a float for r = 1e100 m.
    code = run_command(["predict", "blast", "--obs", "1e100 m @ 1 s"])
    assert code == 2
    assert "overflows" in capsys.readouterr().err


def test_predict_blast_underflow_exits_2(capsys):
    # r^5 underflows to 0 for r = 1e-70 m, and so does t^-2 for t = 1e100 s;
    # the log of a zero energy is undefined.
    code = run_command(["predict", "blast", "--obs", "1e-70 m @ 1e100 s"])
    assert code == 2
    err = capsys.readouterr().err
    assert "observation 1e-70 m @ 1e+100 s" in err
    assert "underflows" in err


def test_plot_command_unwritable_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "p.svg"
    code = run_command(
        ["plot", "--csv", square_law_csv(tmp_path), "--x", "x", "--y", "y",
         "--out", str(out)]
    )
    assert code == 2
    assert f"cannot write {str(out)!r}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_plot_command_quadratic_curve(tmp_path, capsys):
    u = np.linspace(0.0, 12.0, 30)
    rows = ["x[m],y[m]"]
    for uu in u:
        rows.append(f"{math.exp(uu)!r},{math.exp(0.5 - 0.5 * uu + 0.05 * uu * uu)!r}")
    path = write(tmp_path, "quad.csv", "\n".join(rows) + "\n")
    out = tmp_path / "quad.svg"
    code = run_command(
        ["plot", "--csv", path, "--x", "x", "--y", "y", "--out", str(out),
         "--fit", "--quadratic"]
    )
    assert code == 0
    assert "<polyline" in out.read_text()


def test_plot_command_writes_deterministic_svg(tmp_path, capsys):
    path = square_law_csv(tmp_path)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code = run_command(
            ["plot", "--csv", path, "--x", "x", "--y", "y",
             "--out", str(out), "--fit"]
        )
        assert code == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"<svg")
    assert data.count(b"<circle") == 4
    assert not list(tmp_path.glob("*.tmp"))
