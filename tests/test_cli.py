import contextlib
import importlib.util
import io
import json
import math
import os
import re
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
from scalelab.svgplot import PlotSpec, _layout, emit_svg_plot
from scalelab.units import default_registry, parse_quantity

REG = default_registry()
DATA_DIR = Path(__file__).parent / "data"


def child_env():
    """This process's environment, with the package's ``src`` first on
    PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(scalelab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    assert len(ds) == ds.n == 3
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


# Characters that str.splitlines() also reads as line ends; open() ends a
# line only at \n, \r\n or \r.
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


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
        *[("3" + char, f"malformed number {'3' + char!r}") for char in _NOT_LINE_ENDS],
    ],
    ids=["nan", "inf", "-inf", "NaN", "1_0", "fullwidth", "quoted", "1e400", "1e-400", "padded",
         "1E-0400", "long-fraction", "zero", "zero-tiny-exponent", "subnormal",
         *(f"3{char!r}" for char in _NOT_LINE_ENDS)],
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
    child = subprocess.run([sys.executable, "-c", _LOAD_IN_CHILD, path], capture_output=True,
                           text=True, env=child_env(), timeout=10, check=True)
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


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=repr)
def test_a_character_that_is_no_line_end_leaves_later_line_numbers_true(tmp_path, char):
    path = write(tmp_path, "comment.csv", f"x[m],y[m]\n# note{char}more\n1,2\n3,1_0\n")
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == "line 4, column 'y': malformed number '1_0'"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=repr)
def test_crlf_and_cr_line_ends_keep_line_numbers(tmp_path, end):
    good = tmp_path / "good.csv"
    good.write_bytes("x[m],y[m]\n# c\n1,2\n3,4\n".replace("\n", end).encode())
    assert dump_csv(load_csv(str(good))) == "x[m],y[m]\n1.0,2.0\n3.0,4.0\n"
    bad = tmp_path / "bad.csv"
    bad.write_bytes("x[m],y[m]\n# c\n1,2\n3,1_0\n".replace("\n", end).encode())
    # A byte order mark, then a byte that is not UTF-8 on line 4.
    latin = tmp_path / "latin1.csv"
    text = "x[m],y[m]\n# c\n1,2\n3,\xff4\n".replace("\n", end)
    latin.write_bytes(b"\xef\xbb\xbf" + text.encode("latin-1"))
    not_utf8 = "line 4 is not UTF-8 (byte 0xff: invalid start byte)"
    for path, message in [(bad, "line 4, column 'y': malformed number '1_0'"),
                          (latin, f"cannot read {str(latin)!r}: {not_utf8}")]:
        with pytest.raises(DataError) as info:
            load_csv(str(path))
        assert str(info.value) == message


def test_header_cells_split_at_every_comma_and_keep_their_quotes(tmp_path):
    path = write(tmp_path, "quoted.csv", '"x[m]",y[m]\n1,2\n')
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == "header cell '\"x[m]\"' does not match 'name[unit]'"


@pytest.mark.parametrize("ws", ["\t", "\xa0", "   "], ids=repr)
def test_any_run_of_whitespace_separates_number_and_unit(capsys, ws):
    """A tab, a no-break space or several spaces between a quantity's
    number and unit read as one space, as they do between unit tokens."""
    assert parse_quantity(f"3{ws}m") == parse_quantity("3 m")
    outputs = []
    for sep in (" ", ws):
        assert run_command(["derive", "--target", "y:m", "--params", f"a:3{sep}m"]) == 0
        assert run_command(["predict", "hull", "--length", f"30{sep}ft", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
    *_, x_map, y_map = _layout(ds, plot_spec(ds))
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
    *_, x_map, y_map = _layout(ds, plot_spec(ds))
    x_scale = x_map(1.0) - x_map(0.0)
    lowest = min(points, key=lambda p: -p[1])  # svg y grows downward
    u_at_lowest = (lowest[0] - x_map(0.0)) / x_scale
    grid_step = (points[1][0] - points[0][0]) / x_scale
    assert abs(u_at_lowest - vertex) <= grid_step


# ---------------------------------------------------------------------------
# run_command

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


def _load_transcript_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "transcript.py"
    spec = importlib.util.spec_from_file_location("transcript", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


transcript = _load_transcript_tool()
# The CLI contract: every entry of the transcript, parsed by the replayer.
ENTRIES = transcript.parse(str(DATA_DIR / "cli_usage.txt"))


@pytest.mark.parametrize(
    "argv, expected",
    [pytest.param(argv, expected, id=command) for command, argv, expected in ENTRIES],
)
def test_help_and_usage_errors_are_pinned(argv, expected, monkeypatch, capsys):
    """Each transcript entry, run in this process as the replayer runs it:
    from the repository root, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(transcript.ROOT)
    code = run_command(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


# One entry each of derive, pi, predict, fit, a usage error and exit 2.
FRESH_SAMPLE = {
    "scalelab derive --target 'v:m s^-1' --params 'g:m s^-2,l:m'",
    "scalelab pi --quantities 'E:J,t:s,rho:kg m^-3,r:m'",
    "scalelab predict blast --obs '133 m @ 0.025 s'",
    "scalelab fit --csv tests/data/yacht.csv --x ' length' --y price",
    "scalelab predict hull",
    "scalelab derive --target E:J --params l:m,t:s",
}


def test_a_transcript_sample_replays_in_fresh_processes():
    """``cli.main``, which the console script calls, in fresh ``python -m
    scalelab.cli`` processes; under 1 s of wall time on a 2-core host."""
    sample = [entry for entry in ENTRIES if entry[0] in FRESH_SAMPLE]
    assert len(sample) == len(FRESH_SAMPLE)
    python = [sys.executable, "-m", "scalelab.cli"]
    assert transcript.replay(sample, python, child_env()) == []


# Each of the three faulty entries differs from its run in one thing only:
# the exit code, one stdout line, or stderr on exit 0.
_FAULTY_TRANSCRIPT = """\
$ scalelab 0 'same|' ''
? 0
same
$ scalelab 2 '' 'error: code|'
? 1
error: code
$ scalelab 0 'first|second|' ''
? 0
first
wrong
$ scalelab 0 'out|' 'stray|'
? 0
out
$ scalelab 2 '' 'error: same|'
? 2
error: same
"""

# Stands in for scalelab: exits with its first argument and writes the
# next two to stdout and stderr, each "|" as a line end.
_FAKE_CLI = """
import sys
code, out, err = sys.argv[1:]
sys.stdout.write(out.replace("|", "\\n"))
sys.stderr.write(err.replace("|", "\\n"))
sys.exit(int(code))
"""


def test_the_replayer_reports_each_kind_of_difference(tmp_path):
    (tmp_path / "bin").mkdir()
    fake = tmp_path / "bin" / "scalelab"
    fake.write_text(f"#!{sys.executable}{_FAKE_CLI}", encoding="utf-8")
    fake.chmod(0o755)
    path = write(tmp_path, "faulty.txt", _FAULTY_TRANSCRIPT)
    env = dict(os.environ, PATH=os.pathsep.join([str(tmp_path / "bin"), os.environ["PATH"]]))
    proc = subprocess.run([sys.executable, transcript.__file__, path], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    reported = [line for line in proc.stdout.splitlines() if line.startswith("$ ")]
    assert reported == [
        "$ scalelab 2 '' 'error: code|'",
        "$ scalelab 0 'first|second|' ''",
        "$ scalelab 0 'out|' 'stray|'",
    ]
    assert proc.stdout.endswith("\n5 entries, 3 differ\n")
    assert (proc.returncode, proc.stderr) == (1, "")


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


def test_unknown_subcommand_exits_1(capsys):
    # Not a transcript entry: argparse quotes the choices in this message on
    # some Python versions and not on others.
    assert run_command(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


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


def test_fit_command_covariate_name_and_unit_may_be_padded(capsys):
    base = ["fit", "--csv", str(DATA_DIR / "yacht.csv"), "--x", "length",
            "--y", "price", "--json"]
    assert run_command(base + ["--covariate", "age:yr"]) == 0
    plain = capsys.readouterr().out
    assert run_command(base + ["--covariate", "age : yr"]) == 0
    assert capsys.readouterr().out == plain
    padded = base + ["--covariate", "age:yr"]
    padded[padded.index("length")] = " length"
    assert run_command(padded) == 0
    assert capsys.readouterr().out == plain


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


@pytest.mark.parametrize(
    "command,argv,role",
    [
        (["fit"], ["--x", "price", "--y", "price"], "the predictor"),
        (["fit"], ["--x", "length", "--y", "price", "--covariate", "price"], "a covariate"),
        (["diagnose", "residuals"], ["--x", "price", "--y", " price", "--row", "0", "--row", "1"],
         "the predictor"),
    ],
    ids=["predictor", "covariate", "residuals-padded"],
)
def test_response_reused_in_the_design_exits_2(command, argv, role, capsys):
    path = str(DATA_DIR / "yacht.csv")
    assert run_command([*command, "--csv", path, *argv]) == 2
    assert capsys.readouterr().err == f"error: column 'price' is both the response and {role}\n"


def test_plot_without_a_fit_may_use_one_column_twice(tmp_path, capsys):
    out = tmp_path / "p.svg"
    code = run_command(["plot", "--csv", str(DATA_DIR / "yacht.csv"), "--x", "price",
                        "--y", "price", "--out", str(out)])
    assert code == 0
    assert out.read_text().count("<circle") == 80


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


def test_plot_command_unwritable_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "p.svg"
    code = run_command(
        ["plot", "--csv", square_law_csv(tmp_path), "--x", "x", "--y", "y",
         "--out", str(out)]
    )
    assert code == 2
    assert f"cannot write {str(out)!r}" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--csv", "a\x00b", "--x", "x", "--y", "y"],
         "error: cannot read 'a\\x00b': embedded null byte\n"),
        (["plot", "--csv", str(DATA_DIR / "yacht.csv"), "--x", "length", "--y", "price",
          "--out", "a\x00b"],
         "error: cannot write 'a\\x00b': embedded null byte\n"),
    ],
    ids=["read", "write"],
)
def test_a_nul_byte_in_a_path_is_a_data_error(argv, message):
    """The OS refuses a path holding a NUL byte with a ValueError, not an
    OSError.  A shell cannot pass one in an argument, so only an in-process
    caller reaches this."""
    assert _run(argv) == (2, message)


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


def test_plot_of_a_constant_column_centres_it_in_a_range_two_wide(tmp_path, capsys):
    path = write(tmp_path, "flat.csv", "x[m],y[m]\n2,1\n2,10\n2,100\n")
    out = tmp_path / "flat.svg"
    assert run_command(["plot", "--csv", path, "--x", "x", "--y", "y", "--out", str(out)]) == 0
    svg = out.read_text()
    assert re.findall(r'<circle cx="([\d.]+)"', svg) == ["345.000000"] * 3
    for tick in (math.log(2) - 1, math.log(2) + 1):
        assert f'text-anchor="middle">{tick:.3g}</text>' in svg


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
