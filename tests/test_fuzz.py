"""Generated command lines and CSV files through the whole CLI.

Every run must end with exit 0, 1 (usage) or 2 (data), never a traceback,
a float warning or the internal-error exit 3, and a successful run must
print no NaN, no infinity and no prediction that rounded to 0.  Three
exactness properties ride along: a unit change reported by ``diagnose
unit-change`` matches the refit, canonical CSV text survives a load and a
dump bit for bit, and a ``predict`` case gives the same SI prediction
whatever units its inputs are given in.  The settings are fixed and
derandomized, so the suite runs the same examples every time.
"""

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from scalelab.casebook import CASES
from scalelab.cli import run_command
from scalelab.csvio import dump_csv, load_csv
from scalelab.units import DENSITY, ENERGY, LENGTH, TIME, default_registry

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MAGNITUDES = ("0", "-1", "1e-320", "1e-300", "1", "1e300", "1e308", "inf", "nan")
EXPONENTS = ("", "^-1", "^100", "^-100", "^1/3", "^2147483648")
SYMBOLS = tuple(sorted(unit.symbol for unit in default_registry()))
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    # A float warning becomes an exception, and so the internal-error exit 3.
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert not NON_FINITE.search(out), (argv, out)
        assert "prediction: 0 " not in out, (argv, out)
    return code


def unit_expressions(symbols=SYMBOLS):
    """One or two registry symbols, each with an exponent from EXPONENTS."""
    token = st.builds(lambda s, e: s + e, st.sampled_from(symbols), st.sampled_from(EXPONENTS))
    return st.lists(token, min_size=1, max_size=2).map(" ".join)


def quantities(*natural):
    """``"<magnitude> <unit>"``.  Given the flag's natural units, three in
    four are a positive magnitude in one of them, so that most cases can
    succeed; the rest take any magnitude and unit expression."""
    wild = st.builds(lambda m, u: f"{m} {u}", st.sampled_from(MAGNITUDES), unit_expressions())
    if not natural:
        return wild
    positive = st.sampled_from([m for m in MAGNITUDES if float(m) > 0])
    sane = st.builds(lambda m, u: f"{m} {u}", positive, st.sampled_from(natural))
    return st.one_of(sane, sane, sane, wild)


names = st.sampled_from(("a", "b", "c", "E", "rho", "t", "y"))
named = st.builds(lambda n, d: f"{n}:{d}", names, unit_expressions() | quantities())
named_lists = st.lists(named, min_size=1, max_size=4).map(",".join)
json_flag = st.sampled_from(([], ["--json"]))


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from(("derive", "pi", "blast", "roast", "hull", "fall")))
    if command == "derive":
        return ["derive", "--target", draw(named), "--params", draw(named_lists)]
    if command == "pi":
        return ["pi", "--quantities", draw(named_lists)]
    mass, time = quantities("kg", "g"), quantities("s", "hr", "yr")
    if command == "roast":
        flags = ["--mass", draw(mass), "--ref-mass", draw(mass), "--ref-time", draw(time)]
    elif command == "hull":
        flags = ["--length", draw(quantities("m", "ft"))]
    elif command == "fall":
        speed = quantities("m/s", "mph", "knot")
        flags = ["--ref-speed", draw(speed), "--ref-mass", draw(mass), "--mass", draw(mass)]
    else:
        length = quantities("m", "ft")
        if draw(st.booleans()):
            flags = ["--energy", draw(quantities("J")), "--time", draw(time)]
        else:
            pairs = st.lists(st.builds(lambda r, t: f"{r} @ {t}", length, time),
                             min_size=1, max_size=2)
            flags = [f for pair in draw(pairs) for f in ("--obs", pair)]
        if draw(st.booleans()):
            flags += ["--prefactor", draw(st.sampled_from(MAGNITUDES))]
        if draw(st.booleans()):
            flags += ["--rho", draw(quantities("kg m^-3"))]
    return ["predict", command, *flags, *draw(json_flag)]


@FUZZ
@given(argv_lists())
@example(["predict", "roast", "--mass", "1e-36 kg", "--ref-mass", "1 kg",
          "--ref-time", "1e-300 yr"])
@example(["derive", "--target", "y:m", "--params", "a:yr^100"])
@example(["predict", "blast", "--energy", "1 J", "--time", "1 s", "--prefactor", "inf"])
@example(["predict", "blast", "--obs", "1e300 m @ 1 s"])
@example(["predict", "roast", "--mass", "5 kg", "--ref-mass", "1 kg",
          "--ref-time", "1e308 yr"])
def test_generated_command_lines(argv):
    check(argv)


# ``(flag, dimensions)`` of each quantity flag of ``predict <case>``; an
# ``--obs`` value is a radius and a time joined by " @ ".  The table cases
# read theirs from the case table, so a new row is covered here unchanged.
CASE_FLAGS = {
    **{case: [(flag, (dim,)) for flag, _, dim, _ in row.inputs] for case, row in CASES.items()},
    "blast": [("--energy", (ENERGY,)), ("--time", (TIME,)), ("--rho", (DENSITY,))],
    "yield": [("--obs", (LENGTH, TIME)), ("--obs", (LENGTH, TIME)), ("--rho", (DENSITY,))],
}


def unit_product(symbols, dimension):
    """``dimension`` as a product of one symbol per base dimension."""
    return " ".join(s if e == 1 else f"{s}^{e}"
                    for s, e in zip(symbols, dimension.as_tuple()) if e)


def other_units(dimension):
    """Every registry unit of ``dimension``, and its product of g, ft and hr."""
    found = [unit.symbol for unit in default_registry() if unit.dimension == dimension]
    return found + [unit_product(("g", "ft", "hr", "K", "GBP"), dimension)]


@pytest.mark.parametrize("case", list(CASE_FLAGS))
@FUZZ
@given(data=st.data())
def test_prediction_does_not_depend_on_the_input_units(case, data):
    # Each input is given once in SI base units and once re-expressed in
    # another unit of its dimension; the SI prediction must agree.
    si_argv, other_argv = [], []
    for flag, dimensions in CASE_FLAGS[case]:
        si_texts, other_texts = [], []
        for dimension in dimensions:
            si = data.draw(st.floats(min_value=1e-6, max_value=1e6), label=flag)
            unit = data.draw(st.sampled_from(other_units(dimension)), label=flag)
            scale = default_registry().resolve(unit).scale
            si_texts.append(f"{si!r} {unit_product(('kg', 'm', 's', 'K', 'GBP'), dimension)}")
            other_texts.append(f"{si / scale!r} {unit}")
        si_argv += [flag, " @ ".join(si_texts)]
        other_argv += [flag, " @ ".join(other_texts)]
    predictions = []
    for argv in (si_argv, other_argv):
        code, out, err = run(["predict", "blast" if case == "yield" else case, *argv, "--json"])
        assert code == 0, (argv, err)
        predictions.append(json.loads(out)["prediction"])
    si_prediction, other_prediction = predictions
    assert abs(other_prediction - si_prediction) <= 1e-12 * abs(si_prediction)


CELLS = ("1e-320", "nan", "1e400", "", "0", "-1", "1e300", "1e-300", "inf")
CSV_UNITS = ("m", "ft", "kg", "g", "s", "yr", "W", "GBP", "yr^100", "m^1/3")
# Three in four units are lengths, so that many references match their column.
length = st.sampled_from(("m", "ft"))
csv_units = st.one_of(length, length, length, st.sampled_from(CSV_UNITS))


@st.composite
def csv_texts(draw):
    """A header of 2-3 ``name[unit]`` columns and 2-8 rows of positive
    numbers, with up to two cells swapped for awkward ones and, sometimes,
    a ragged row."""
    columns = draw(st.sampled_from((("x", "y"), ("x", "y", "c"))))
    units = [draw(csv_units) for _ in columns]
    positive = st.floats(min_value=1e-3, max_value=1e3).map(repr)
    rows = draw(st.lists(st.lists(positive, min_size=len(columns), max_size=len(columns)),
                         min_size=2, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(columns) - 1))] = draw(st.sampled_from(CELLS))
    if draw(st.integers(0, 4)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + ["1"]
    header = ",".join(f"{name}[{unit}]" for name, unit in zip(columns, units))
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


@st.composite
def csv_commands(draw):
    """A fit, unit-change or plot command line on ``CSV``, drawing to ``SVG``."""
    command = draw(st.sampled_from(("fit", "unit-change", "plot")))
    flags = ["--csv", "CSV", "--x", "x", "--y", "y"]
    if draw(st.booleans()):
        flags += ["--x0", draw(csv_units)]
    quadratic = draw(st.sampled_from(([], ["--quadratic"])))
    if command == "fit":
        covariate = draw(st.sampled_from(([], ["--covariate", "c"])))
        return ["fit", *flags, *covariate, *quadratic, *draw(json_flag)]
    if command == "unit-change":
        new_x0 = draw(csv_units)
        return ["diagnose", "unit-change", *flags, *quadratic, "--new-x0", new_x0,
                *draw(json_flag)]
    fit_line = draw(st.sampled_from(([], ["--fit"])))
    return ["plot", *flags, "--out", "SVG", *fit_line, *quadratic]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Reproducers: a value that overflows in the reference unit, and a pair of
# references whose ratio leaves the float range.
BIG_X = "x[m],y[m]\n1e308,5\n2,3\n3,4\n4,7\n"
MASSES = "x[kg],y[W]\n1,2\n2,3.5\n4,7\n8,11\n"
UNIT_CHANGE = ["diagnose", "unit-change", "--csv", "CSV", "--x", "x", "--y", "y"]


@FUZZ
@given(csv_texts(), csv_commands())
@example("x[g],y[W]\n1e-320,1\n2,3\n", ["diagnose", "unit-change", "--csv", "CSV", "--x", "x",
                                      "--y", "y", "--new-x0", "kg"])
@example("x[m],y[m],c[yr]\n1,2,nan\n2,3,1\n3,5,2\n", ["fit", "--csv", "CSV", "--x", "x",
                                                     "--y", "y", "--covariate", "c"])
@example(BIG_X, ["fit", "--csv", "CSV", "--x", "x", "--y", "y", "--x0", "ft"])
@example(BIG_X, ["plot", "--csv", "CSV", "--x", "x", "--y", "y", "--x0", "ft", "--out", "SVG"])
@example("x[g],y[W]\n1e-323,1\n2,3\n3,4\n", ["fit", "--csv", "CSV", "--x", "x", "--y", "y",
                                             "--x0", "kg"])
@example(MASSES, [*UNIT_CHANGE, "--x0", "kg^100 g^-99", "--new-x0", "g^100 kg^-99"])
@example(MASSES, [*UNIT_CHANGE, "--x0", "g^100 kg^-99", "--new-x0", "kg^100 g^-99"])
@example(MASSES, [*UNIT_CHANGE, "--quadratic", "--x0", "g^100 kg^-99", "--new-x0",
                  "kg^100 g^-99"])
def test_generated_csv_files(workdir, text, argv):
    path, out = workdir / "data.csv", workdir / "plot.svg"
    path.write_text(text, encoding="utf-8")
    check([{"CSV": str(path), "SVG": str(out)}.get(arg, arg) for arg in argv])


UNIT_FAMILIES = (("kg", "g"), ("m", "ft"))


@st.composite
def spread_csvs(draw):
    """A ``x[unit],y[W]`` CSV of 4-12 rows whose x values lie one per binade
    in 2^-8 .. 2^9, so a quadratic fit stays well conditioned, and the
    x unit's family."""
    family = draw(st.sampled_from(UNIT_FAMILIES))
    binades = draw(st.lists(st.integers(-8, 8), min_size=4, max_size=12, unique=True))
    mantissa = st.floats(min_value=1.0, max_value=2.0, exclude_max=True)
    rows = [(2.0 ** k * draw(mantissa), draw(st.floats(min_value=1e-3, max_value=1e3)))
            for k in binades]
    lines = [f"x[{draw(st.sampled_from(family))}],y[W]"]
    lines += [f"{x!r},{y!r}" for x, y in rows]
    return "\n".join(lines) + "\n", family


@FUZZ
@given(spread_csvs(), st.data())
def test_unit_change_transform_matches_the_refit(workdir, csv_and_family, data):
    text, family = csv_and_family
    path = workdir / "spread.csv"
    path.write_text(text, encoding="utf-8")
    x0, new_x0 = (data.draw(st.sampled_from(family)) for _ in range(2))
    quadratic = data.draw(st.sampled_from(([], ["--quadratic"])))
    argv = [*UNIT_CHANGE, "--x0", x0, "--new-x0", new_x0, *quadratic, "--json"]
    code, out, err = run([str(path) if arg == "CSV" else arg for arg in argv])
    assert code == 0, err
    assert json.loads(out)["max_abs_difference"] <= 1e-9


def canonical_csv_texts():
    """CSV text as ``dump_csv`` writes it: ``name[unit]`` headers over any
    finite floats in shortest round-trip form."""
    unit = st.builds(lambda s, e: s + e, st.sampled_from(SYMBOLS),
                     st.sampled_from(("", "^2", "^-1", "^1/3")))
    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr)

    @st.composite
    def texts(draw):
        units = draw(st.lists(unit, min_size=1, max_size=3))
        header = ",".join(f"c{i}[{u}]" for i, u in enumerate(units))
        rows = draw(st.lists(st.lists(cell, min_size=len(units), max_size=len(units)),
                             min_size=1, max_size=6))
        return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"

    return texts()


@FUZZ
@given(canonical_csv_texts())
def test_dump_csv_of_load_csv_is_bit_equal(workdir, text):
    path = workdir / "canonical.csv"
    path.write_text(text, encoding="utf-8")
    assert dump_csv(load_csv(str(path))) == text
