"""Commands must start without importing numpy, unless they fit a design of
``regression._NUMPY_ENTRIES`` entries or more, and no command may import
``dataclasses`` (which imports ``inspect``) or ``csv``.

numpy is already loaded in the test process, so each command runs in a
fresh interpreter that reports its exit code and whether numpy,
``dataclasses`` and ``csv`` were imported.  The package's export surface
is pinned here too: ``import scalelab`` loads no submodule, and each
exported name is the defining module's object.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scalelab
import scalelab.regression

SRC = str(Path(scalelab.__file__).resolve().parents[1])
DATA_DIR = Path(__file__).parent / "data"

RUN_COMMAND = """
from scalelab.cli import run_command
code = run_command(json.loads(sys.argv[1]))
print(json.dumps([code, *(m in sys.modules for m in ("numpy", "dataclasses", "csv"))]))
"""


def run_python(*args):
    """Run a new interpreter with ``args``, ``src`` on its path; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_fresh(script, *args, flags=()):
    """Run ``script`` in a new interpreter started with ``flags``; return its
    last stdout line as JSON."""
    proc = run_python(*flags, "-c", "import json, sys\n" + script, *args)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


DERIVE = ["derive", "--target", "v:m s^-1", "--params", "g:m s^-2,l:m"]
PI = ["pi", "--quantities", "E:J,t:s,rho:kg m^-3,r:m"]
ROAST = ["predict", "roast", "--mass", "5 kg", "--ref-mass", "1 kg", "--ref-time", "1 hr"]
FIT_ARGS = ["--csv", str(DATA_DIR / "metabolic.csv"), "--x", "mass", "--y", "bmr"]
# (exit code, numpy, dataclasses, csv)
LEAN = (0, False, False, False)
NUMPY = (0, True, False, False)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (DERIVE, LEAN),
        (PI, LEAN),
        (["predict", "blast", "--energy", "8e13 J", "--time", "0.025 s"], LEAN),
        (["predict", "blast", "--obs", "133 m @ 0.025 s", "--json"], LEAN),
        (ROAST, LEAN),
        (["predict", "hull", "--length", "25 ft"], LEAN),
        (["predict", "fall", "--ref-speed", "150 mph", "--ref-mass", "200 kg", "--mass", "20 g"],
         LEAN),
        (["derive", "--target", "E:J", "--params", "l:m,t:s"], (2, False, False, False)),
        (["fit", "--csv", str(DATA_DIR / "yacht.csv"), "--x", "length", "--y", "price"], LEAN),
        (["fit", *FIT_ARGS, "--quadratic", "--json"], LEAN),
        (["diagnose", "unit-change", *FIT_ARGS, "--new-x0", "kg", "--quadratic"], LEAN),
        (["diagnose", "residuals", *FIT_ARGS, "--row", "0", "--row", "1"], LEAN),
        (["plot", *FIT_ARGS, "--fit", "--out", "{tmp}/plot.svg"], LEAN),
        (["fit", "--csv", "{tmp}/large.csv", "--x", "x", "--y", "y"], NUMPY),
    ],
    ids=["derive", "pi", "blast", "blast-obs", "roast", "hull", "fall", "error", "fit",
         "fit-quadratic", "unit-change", "residuals", "plot", "fit-large"],
)
def test_what_a_fresh_command_imports(argv, expected, tmp_path):
    if "{tmp}/large.csv" in argv:  # the control: a fit this large runs in numpy
        n = scalelab.regression._NUMPY_ENTRIES // 2  # a plain fit has 2 parameters
        rows = (f"{i},{i * (1 + i % 3)}" for i in range(1, n + 1))
        (tmp_path / "large.csv").write_text("\n".join(["x[m],y[m]", *rows]) + "\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_fresh(RUN_COMMAND, json.dumps(argv)) == expected


@pytest.mark.parametrize(
    "module, expected",
    [("dataclasses", (0, False, True, False)), ("csv", (0, False, False, True))],
)
def test_the_probe_sees_a_module_when_it_is_imported(module, expected):
    script = f"import {module}\n" + RUN_COMMAND
    assert run_fresh(script, json.dumps(PI)) == expected


@pytest.mark.parametrize(
    "preamble, argv, expected",
    [("", DERIVE, (0, False)), ("", PI, (0, False)), ("", ROAST, (0, False)),
     ("import typing\n", PI, (0, True))],
    ids=["derive", "pi", "roast", "control"],
)
def test_a_numpy_free_command_imports_no_typing(preamble, argv, expected):
    # -S: a .pth file in site-packages may import typing into every interpreter.
    script = preamble + """
from scalelab.cli import run_command
print(json.dumps([run_command(json.loads(sys.argv[1])), "typing" in sys.modules]))
"""
    assert run_fresh(script, json.dumps(argv), flags=["-S"]) == expected


def test_import_scalelab_defers_numpy_until_a_lazy_name_is_used():
    # The name is Column.values: loading and fitting a small table need no numpy.
    script = """
import scalelab
before = ["numpy" in sys.modules, "dataclasses" in sys.modules]
column = scalelab.csvio.load_csv(sys.argv[1]).column("mass")
loaded = "numpy" in sys.modules
column.values
print(json.dumps([*before, loaded, "numpy" in sys.modules]))
"""
    assert run_fresh(script, str(DATA_DIR / "metabolic.csv")) == (False, False, False, True)


def test_import_scalelab_derives_no_case_relation():
    # Case relations are derived on first use, not by every process that
    # imports the package.
    script = """
import scalelab.casebook as cb
builders = [cb._blast_relation, cb._yield_relation]
builders += [case.relation for case in cb.CASES.values()]
print(json.dumps([b.cache_info().currsize for b in builders]))
"""
    sizes = run_fresh(script)
    assert len(sizes) >= 5 and set(sizes) == {0}


@pytest.mark.parametrize(
    "args, modules",
    [
        (["-c", "import scalelab; scalelab.pi_basis"], {"scalelab.algebra"}),
        (["-m", "scalelab.cli", *ROAST], {"scalelab.algebra", "scalelab.casebook"}),
    ],
    ids=["package-attribute", "roast"],
)
def test_importtime_lists_a_module_loaded_through_the_package(args, modules):
    # perfbench's cli_cold reads these lines for its cli.import_* metrics; a
    # module the package loads on first use must be among them.
    log = run_python("-X", "importtime", *args).stderr
    listed = {line.split("|")[-1].strip() for line in log.splitlines()
              if line.startswith("import time:")}
    assert modules <= listed


def test_import_scalelab_loads_no_submodule():
    script = """
import scalelab
loaded = [m for m in sys.modules if m.startswith("scalelab.")]
print(json.dumps([loaded, "numpy" in sys.modules, "dataclasses" in sys.modules]))
"""
    assert run_fresh(script) == ([], False, False)


EXPORTS = [
    "BlastConfig", "CapacityError", "CaseReport", "CollinearityError", "DataError",
    "DataSet", "DerivationError", "Dimension", "DimensionMismatchError",
    "FitResult", "InconsistentDimensionsError", "ModelSpec", "PiGroup", "PlotSpec",
    "Quantity", "QuantityParseError", "RelationError", "ScaleLabError",
    "ScalingRelation", "UnderdeterminedError", "Unit", "UnitRegistry",
    "UnknownUnitError", "algebra", "blast_radius", "blast_yield", "casebook", "chain",
    "check_exponent_bound", "convert", "csvio", "default_registry", "dump_csv",
    "emit_svg_plot", "errors", "fit", "fit_power_law", "fit_quadratic_log",
    "fit_with_covariates", "hull_speed", "kleiber_chain_demo", "load_csv", "log_ratio",
    "parse_quantity", "pi_basis", "regression", "residual_distance_ratio", "roast_time",
    "save_csv", "solve_balance", "solve_target_exponents", "svgplot",
    "terminal_velocity_scale", "transform_under_unit_change", "units",
]


def test_all_is_the_pinned_export_list():
    assert scalelab.__all__ == EXPORTS


@pytest.mark.parametrize("name", sorted(scalelab._LAZY))
def test_lazy_exports_resolve_to_their_modules(name):
    module = importlib.import_module(f"scalelab.{scalelab._LAZY[name]}")
    assert getattr(scalelab, name) is getattr(module, name)
    assert getattr(module, name).__module__ == module.__name__
    namespace = {}
    exec(f"from scalelab import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_a_name_patched_in_its_module_is_seen_through_the_package(monkeypatch):
    patched = object()
    monkeypatch.setattr(scalelab.algebra, "pi_basis", patched)
    assert scalelab.pi_basis is patched


def test_lazy_exports_are_listed():
    names = dir(scalelab)
    for name in scalelab._LAZY:
        assert name in names
        assert name in scalelab.__all__


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        scalelab.no_such_name  # noqa: B018
