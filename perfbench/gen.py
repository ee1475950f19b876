"""Seeded input generators.

Everything the program receives is made here from the ``--seed`` value:
dimensional problems, casebook inputs, CLI command lines and CSV files.
The same seed gives the same inputs byte for byte.  Magnitudes follow the
shipped example data (yacht prices in GBP, animal masses in g, blast
energies in J); nothing here avoids inputs that trip a known defect.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np

import oracle

ALL_SYMBOLS = list(oracle.UNITS)
# Mechanics only (no K, no GBP): spans at most M, L, T, so a target with
# temperature or currency, or a dependent parameter set, is easy to draw.
MECH_SYMBOLS = [s for s in ALL_SYMBOLS if s not in ("K", "GBP")]
INT_EXPONENTS = ("1", "1", "1", "2", "-1", "-1", "-2", "3", "-3")
FRAC_EXPONENTS = ("1/2", "-1/2", "3/2", "1/3")
COEFFICIENTS = tuple(Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2"))
NAMES = ("E", "rho", "t", "g", "l", "v", "m", "P", "k", "mu", "c", "h", "w",
         "d", "F", "a", "b", "q", "r", "z")

# Outcome mix of derive problems, and the cases predict ops cycle through.
DERIVE_BLOCK = ("ok", "ok", "ok", "impossible", "underdetermined")
CASES = ("blast", "yield", "roast", "hull", "fall")


def loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def unit_expr(rng: random.Random, symbols) -> str:
    tokens = []
    for symbol in rng.sample(symbols, rng.choice((1, 1, 2, 2, 3))):
        pool = INT_EXPONENTS if rng.random() < 0.9 else FRAC_EXPONENTS
        e = rng.choice(pool)
        tokens.append(symbol if e == "1" else f"{symbol}^{e}")
    return " ".join(tokens)


def _combination(rng, vectors):
    total = oracle.ZERO
    for v in vectors:
        total = oracle.add(total, v, rng.choice(COEFFICIENTS))
    return total


class DeriveProblems:
    """Distinct dimensional problems with a stated outcome class.

    Each problem is a target unit expression and 2-7 named parameters; the
    expected outcome and rank come from :mod:`oracle`, not from scalelab.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()

    def draw(self, outcome: str) -> dict:
        while True:
            problem = self._attempt(outcome)
            if problem is None:
                continue
            # An 8-byte digest per problem keeps this set, and so the peak RSS
            # of long runs, small.
            key = hashlib.blake2b(repr((problem["target"], problem["params"])).encode(),
                                  digest_size=8).digest()
            if key in self.seen:
                continue
            self.seen.add(key)
            return problem

    def _attempt(self, outcome: str) -> dict | None:
        rng = self.rng
        if outcome == "ok":
            n, pool = rng.choice((2, 2, 3, 3, 3, 4, 5)), ALL_SYMBOLS
        elif outcome == "impossible":
            n, pool = rng.randint(2, 7), MECH_SYMBOLS
        else:
            n, pool = rng.randint(3, 7), MECH_SYMBOLS
        exprs = [unit_expr(rng, pool) for _ in range(n)]
        vectors = [oracle.expr_vector(e) for e in exprs]
        if outcome == "impossible":
            target = oracle.expr_vector(unit_expr(rng, ALL_SYMBOLS))
        else:
            target = _combination(rng, vectors)
        if target == oracle.ZERO:
            return None
        got, r = oracle.derive_outcome(vectors, target)
        if got != outcome:
            return None
        names = rng.sample(NAMES, n + 1)
        return {
            "target_name": names[0],
            "target": oracle.vector_expr(target),
            "params": [[name, expr] for name, expr in zip(names[1:], exprs)],
            "outcome": outcome,
            "rank": r,
        }


def _q(value: float, unit: str) -> str:
    return f"{value:.6g} {unit}"


def case_input(rng: random.Random, case: str) -> dict:
    """Realistic inputs for one casebook prediction, as quantity strings."""
    if case in ("blast", "yield"):
        out = {
            "rho": rng.choice(("1.2 kg m^-3", "1.225 kg m^-3", "1.1 kg m^-3")),
            "prefactor": rng.choice((1.0, 1.033, 0.9)),
        }
        if case == "blast":
            out["energy"] = _q(loguniform(rng, 1e9, 1e15), "J")
            out["time"] = _q(loguniform(rng, 1e-3, 0.1), "s")
        else:
            out["obs"] = [
                [_q(loguniform(rng, 20.0, 300.0), "m"), _q(loguniform(rng, 1e-3, 0.1), "s")]
                for _ in range(rng.randint(1, 3))
            ]
        return out
    if case == "roast":
        def mass():
            if rng.random() < 0.5:
                return _q(rng.uniform(1.0, 12.0), "kg")
            return _q(rng.uniform(1000.0, 12000.0), "g")
        ref_time = (_q(rng.uniform(1.0, 5.0), "hr") if rng.random() < 0.5
                    else _q(rng.uniform(60.0, 300.0), "min"))
        return {"mass": mass(), "ref_mass": mass(), "ref_time": ref_time}
    if case == "hull":
        if rng.random() < 0.5:
            return {"length": _q(rng.uniform(15.0, 400.0), "ft")}
        return {"length": _q(rng.uniform(5.0, 120.0), "m")}
    if case == "fall":
        def mass():
            if rng.random() < 0.5:
                return _q(loguniform(rng, 0.01, 150.0), "kg")
            return _q(loguniform(rng, 10.0, 150000.0), "g")
        speed = (_q(rng.uniform(5.0, 60.0), "m/s") if rng.random() < 0.5
                 else _q(rng.uniform(10.0, 130.0), "mph"))
        return {"ref_speed": speed, "ref_mass": mass(), "mass": mass()}
    raise ValueError(case)


def exact_blocks(seed: int):
    """Endless blocks of ten ops: five derive problems (3 ok, 1 impossible,
    1 underdetermined) and one prediction per case, in seeded order."""
    rng = random.Random(f"exact-{seed}")
    problems = DeriveProblems(rng)
    while True:
        block = [{"kind": "derive", "problem": problems.draw(o)} for o in DERIVE_BLOCK]
        block += [{"kind": "predict", "case": c, "inputs": case_input(rng, c)} for c in CASES]
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------- CSV data

def write_csv(path, header, columns, chunk=100_000) -> None:
    """Unit-annotated CSV with shortest round-trip numbers, written in chunks
    so the writer's memory stays small next to the program's load."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), chunk):
            cells = [map(repr, col[start:start + chunk].tolist()) for col in columns]
            handle.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def yacht_columns(rng: np.random.Generator, n: int) -> dict:
    """Yacht-like data: price ~ length^2.1 exp(-0.03 age), lognormal noise."""
    length = np.exp(rng.uniform(math.log(10.0), math.log(300.0), n))
    age = rng.uniform(0.5, 40.0, n)
    price = 2.0e3 * length**2.1 * np.exp(-0.03 * age + rng.normal(0.0, 0.25, n))
    return {"length": (length, "ft"), "age": (age, "yr"), "price": (price, "GBP")}


def metabolic_columns(rng: np.random.Generator, n: int) -> dict:
    """Metabolic-like data: bmr ~ mass^0.72, body temperature as covariate."""
    mass = np.exp(rng.uniform(math.log(10.0), math.log(1e6), n))
    temp = rng.uniform(300.0, 315.0, n)
    bmr = 0.02 * mass**0.72 * np.exp(0.01 * (temp - 307.0) + rng.normal(0.0, 0.15, n))
    return {"mass": (mass, "g"), "temp": (temp, "K"), "bmr": (bmr, "W")}


def header_of(columns: dict) -> list[str]:
    return [f"{name}[{unit}]" for name, (_, unit) in columns.items()]


# ---------------------------------------------------------------- CLI mix

# One block of the cli_cold mix: every subcommand, with two expected-error
# commands in twenty (exit code 2 is the right answer for those).
CLI_BLOCK = (
    "derive", "derive", "derive_under", "pi", "pi",
    "fit", "fit", "fit_quadratic", "fit_covariate",
    "unit_change", "residuals",
    "blast", "yield", "roast", "hull", "fall",
    "plot", "plot_fit", "error", "error",
)
ERRORS = ("impossible", "unknown_unit", "malformed")
DATASETS = {  # name -> (column builder, x, y, covariate, alternative x0)
    "yacht": (yacht_columns, "length", "price", "age", "m"),
    "metabolic": (metabolic_columns, "mass", "bmr", "temp", "kg"),
}


def cli_datasets(seed: int) -> dict:
    """Four small CSV tables (60-80 rows, like the shipped data)."""
    rng = np.random.default_rng([seed, 1])
    out = {}
    for kind in DATASETS:
        for i in range(2):
            n = int(rng.integers(60, 81))
            out[f"{kind}{i}"] = (kind, DATASETS[kind][0](rng, n))
    return out


def _named_list(pairs) -> str:
    return ",".join(f"{name}:{expr}" for name, expr in pairs)


def cli_blocks(seed: int, datasets: dict, workdir: str):
    """Endless blocks of twenty command lines, each with what to expect."""
    rng = random.Random(f"cli-{seed}")
    problems = DeriveProblems(rng)
    plots = 0
    names = sorted(datasets)
    while True:
        block = []
        for kind in CLI_BLOCK:
            cmd = {"kind": kind}
            if kind in ("derive", "derive_under"):
                p = problems.draw("ok" if kind == "derive" else "underdetermined")
                cmd["problem"] = p
                cmd["argv"] = ["derive", "--target", f"{p['target_name']}:{p['target']}",
                               "--params", _named_list(p["params"])]
            elif kind == "pi":
                p = problems.draw(rng.choice(("ok", "underdetermined")))
                cmd["problem"] = p
                cmd["argv"] = ["pi", "--quantities", _named_list(p["params"])]
            elif kind in CASES:
                cmd["inputs"] = inputs = case_input(rng, kind)
                cmd["argv"] = _predict_argv(kind, inputs)
            elif kind == "error":
                cmd.update(_error_command(rng, rng.choice(ERRORS), problems))
            else:
                table = rng.choice(names)
                cmd["table"] = table
                data_kind = datasets[table][0]
                _, x, y, cov, alt_x0 = DATASETS[data_kind]
                argv = ["--csv", f"{workdir}/{table}.csv", "--x", x, "--y", y]
                cmd["x0"] = None
                if rng.random() < 0.5:
                    cmd["x0"] = alt_x0
                    argv += ["--x0", alt_x0]
                cmd["quadratic"] = kind == "fit_quadratic" or (
                    kind in ("unit_change", "plot_fit") and rng.random() < 0.5)
                quad = ["--quadratic"] if cmd["quadratic"] else []
                if kind.startswith("fit"):
                    cmd["covariate"] = cov if kind == "fit_covariate" else None
                    extra = ["--covariate", cov] if cmd["covariate"] else []
                    cmd["argv"] = ["fit", *argv, *quad, *extra, "--json"]
                elif kind == "unit_change":
                    cmd["new_x0"] = rng.choice(("m", "ft") if data_kind == "yacht" else ("kg", "g"))
                    cmd["argv"] = ["diagnose", "unit-change", *argv, *quad,
                                   "--new-x0", cmd["new_x0"], "--json"]
                elif kind == "residuals":
                    n = len(datasets[table][1][x][0])
                    cmd["rows"] = rng.sample(range(n), 2)
                    cmd["space"] = rng.choice(("log", "natural"))
                    cmd["argv"] = ["diagnose", "residuals", *argv,
                                   "--row", str(cmd["rows"][0]), "--row", str(cmd["rows"][1]),
                                   "--space", cmd["space"], "--json"]
                else:
                    plots += 1
                    cmd["out"] = f"{workdir}/plot{plots % 40}.svg"
                    fit = ["--fit"] if kind == "plot_fit" else []
                    cmd["argv"] = ["plot", *argv, *fit, *quad, "--out", cmd["out"]]
            block.append(cmd)
        rng.shuffle(block)
        yield block


def _predict_argv(case: str, inputs: dict) -> list[str]:
    if case in ("blast", "yield"):
        argv = ["predict", "blast", "--rho", inputs["rho"],
                "--prefactor", repr(inputs["prefactor"])]
        if case == "blast":
            argv += ["--energy", inputs["energy"], "--time", inputs["time"]]
        else:
            for r, t in inputs["obs"]:
                argv += ["--obs", f"{r} @ {t}"]
        return argv + ["--json"]
    flags = {
        "roast": (("--mass", "mass"), ("--ref-mass", "ref_mass"), ("--ref-time", "ref_time")),
        "hull": (("--length", "length"),),
        "fall": (("--ref-speed", "ref_speed"), ("--ref-mass", "ref_mass"), ("--mass", "mass")),
    }[case]
    argv = ["predict", case]
    for flag, key in flags:
        argv += [flag, inputs[key]]
    return argv + ["--json"]


def _error_command(rng: random.Random, error: str, problems: DeriveProblems) -> dict:
    if error == "impossible":
        p = problems.draw("impossible")
        argv = ["derive", "--target", f"{p['target_name']}:{p['target']}",
                "--params", _named_list(p["params"])]
    elif error == "unknown_unit":
        unit = rng.choice(("furlong", "stone", "lb", "fathom"))
        argv = ["predict", "hull", "--length", f"{rng.uniform(10, 100):.4g} {unit}"]
    else:
        bad = rng.choice(("five kg", "1.2.3 kg", "3e kg", "kg"))
        argv = ["predict", "roast", "--mass", bad, "--ref-mass", "4 kg", "--ref-time", "2 hr"]
    return {"kind": "error", "error": error, "argv": argv}
