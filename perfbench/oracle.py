"""The benchmark's own answers, computed without calling scalelab.

Dimension vectors and scales of every registry symbol are held here as
plain tuples, ranks come from an exact Fraction elimination written here,
predictions from closed forms, and fit coefficients from
``numpy.linalg.lstsq``.  Every check returns ``None`` when the program's
answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

BASE = ("kg", "m", "s", "K", "GBP")  # M, L, T, Theta, Cur


def _v(*components) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in components)


M, L, T = _v(1, 0, 0, 0, 0), _v(0, 1, 0, 0, 0), _v(0, 0, 1, 0, 0)
ZERO = _v(0, 0, 0, 0, 0)

# symbol -> (dimension vector over M, L, T, Theta, Cur; scale to coherent SI)
UNITS: dict[str, tuple[tuple[Fraction, ...], float]] = {
    "kg": (M, 1.0),
    "m": (L, 1.0),
    "s": (T, 1.0),
    "K": (_v(0, 0, 0, 1, 0), 1.0),
    "GBP": (_v(0, 0, 0, 0, 1), 1.0),
    "g": (M, 1e-3),
    "ft": (L, 0.3048),
    "min": (T, 60.0),
    "hr": (T, 3600.0),
    "yr": (T, 3.1557e7),
    "m/s": (_v(0, 1, -1, 0, 0), 1.0),
    "knot": (_v(0, 1, -1, 0, 0), 1852.0 / 3600.0),
    "mph": (_v(0, 1, -1, 0, 0), 1609.344 / 3600.0),
    "J": (_v(1, 2, -2, 0, 0), 1.0),
    "W": (_v(1, 2, -3, 0, 0), 1.0),
    "N": (_v(1, 1, -2, 0, 0), 1.0),
}

STANDARD_GRAVITY = 9.80665


def add(a, b, k=1):
    return tuple(x + k * y for x, y in zip(a, b))


def expr_vector(expr: str) -> tuple[Fraction, ...]:
    """Dimension vector of a unit expression such as ``"kg m^-3"``."""
    total = ZERO
    for token in expr.split():
        symbol, _, exponent = token.partition("^")
        total = add(total, UNITS[symbol][0], Fraction(exponent or 1))
    return total


def expr_scale(expr: str) -> float:
    scale = 1.0
    for token in expr.split():
        symbol, _, exponent = token.partition("^")
        scale *= UNITS[symbol][1] ** float(Fraction(exponent or 1))
    return scale


def vector_expr(vector) -> str:
    """A unit expression over the base symbols with the given dimension."""
    return " ".join(
        sym if e == 1 else f"{sym}^{e}" for sym, e in zip(BASE, vector) if e != 0
    )


def quantity_si(text: str) -> float:
    number, _, expr = text.strip().partition(" ")
    return float(number) * expr_scale(expr)


def rank(vectors) -> int:
    """Exact rank of a list of equal-length rational vectors."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                k = rows[i][c] / rows[r][c]
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def derive_outcome(param_vectors, target_vector) -> tuple[str, int]:
    """(outcome, rank) the solver must report; impossibility is tested first."""
    r = rank(param_vectors)
    if rank(list(param_vectors) + [target_vector]) > r:
        return "impossible", r
    if r < len(param_vectors):
        return "underdetermined", r
    return "ok", r


def check_exponents(exponents: dict, names, vectors, target) -> str | None:
    """The exponents must rebuild the target dimension by substitution."""
    lookup = dict(zip(names, vectors))
    if not set(exponents) <= set(lookup):
        return f"unknown names {sorted(set(exponents) - set(lookup))}"
    total = ZERO
    for name, e in exponents.items():
        total = add(total, lookup[name], Fraction(e))
    if total != tuple(target):
        return f"exponents {exponents} give {total}, expected {tuple(target)}"
    return None


def check_groups(groups, names, vectors, expected_count) -> str | None:
    """``groups``: list of {name: exponent}; a basis of dimensionless groups."""
    if len(groups) != expected_count:
        return f"{len(groups)} groups, expected n - rank = {expected_count}"
    lookup = dict(zip(names, vectors))
    rows = []
    for group in groups:
        if not any(group.values()):
            return f"empty group {group}"
        if not set(group) <= set(lookup):
            return f"group {group} names unknown quantities"
        total = ZERO
        for name, e in group.items():
            total = add(total, lookup[name], Fraction(e))
        if total != ZERO:
            return f"group {group} has dimension {total}"
        rows.append([Fraction(group.get(name, 0)) for name in names])
    if rank(rows) != len(groups):
        return "groups are not independent"
    return None


def parse_terms(text: str) -> dict[str, Fraction]:
    """``"E^1/5 rho^-1/5 t^2/5"`` -> exponents; ``"1"`` is the empty product."""
    terms = {}
    for token in text.split():
        if token == "1":
            continue
        name, _, exponent = token.partition("^")
        terms[name] = Fraction(exponent or 1)
    return terms


# Case relations as the dimensions force them, and their closed forms in SI.
CASE_RELATIONS = {
    "blast": {"E": Fraction(1, 5), "rho": Fraction(-1, 5), "t": Fraction(2, 5)},
    "yield": {"E": Fraction(1, 5), "rho": Fraction(-1, 5), "t": Fraction(2, 5)},
    "roast": {"kappa": Fraction(-1), "m": Fraction(2, 3)},
    "hull": {"g": Fraction(1, 2), "l": Fraction(1, 2)},
    "fall": {"m": Fraction(1, 6)},
}


def case_prediction_si(case: str, inputs: dict) -> float:
    """Closed-form prediction in coherent SI for one generated case input."""
    q = {k: quantity_si(v) for k, v in inputs.items() if isinstance(v, str)}
    if case == "blast":
        c = inputs["prefactor"]
        return c * (q["energy"] * q["time"] ** 2 / q["rho"]) ** 0.2
    if case == "yield":
        c = inputs["prefactor"]
        rho = q["rho"]
        logs = [
            math.log(rho * quantity_si(r) ** 5 / (quantity_si(t) ** 2 * c**5))
            for r, t in inputs["obs"]
        ]
        return math.exp(sum(logs) / len(logs))
    if case == "roast":
        return q["ref_time"] * (q["mass"] / q["ref_mass"]) ** (2.0 / 3.0)
    if case == "hull":
        return math.sqrt(STANDARD_GRAVITY * q["length"] / (2.0 * math.pi))
    if case == "fall":
        return q["ref_speed"] * (q["mass"] / q["ref_mass"]) ** (1.0 / 6.0)
    raise ValueError(case)


def close(a: float, b: float, rel: float = 1e-12, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_prediction(case, inputs, relation_terms, prediction_si) -> str | None:
    if relation_terms != CASE_RELATIONS[case]:
        return f"{case} relation {relation_terms}, expected {CASE_RELATIONS[case]}"
    expected = case_prediction_si(case, inputs)
    if not close(prediction_si, expected):
        return f"{case} prediction {prediction_si!r}, expected {expected!r}"
    return None


def lstsq_coefficients(u, y, quadratic=False, covariates=()) -> np.ndarray:
    """Reference OLS on the log design [1, u, (u^2), covariates...]."""
    columns = [np.ones_like(u), u]
    if quadratic:
        columns.append(u * u)
    columns.extend(covariates)
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef


def check_coefficients(got, expected, rel=1e-8) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != expected.shape:
        return f"{got.size} coefficients, expected {expected.size}"
    tol = rel * np.maximum(1.0, np.abs(expected))
    if not np.all(np.abs(got - expected) <= tol):
        return f"coefficients {got.tolist()}, lstsq gives {expected.tolist()}"
    return None
