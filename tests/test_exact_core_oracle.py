"""Differential oracle for the exact core: seeded problems, pinned digests.

A seeded in-file generator builds dimensional problems (1-7 parameters,
exponents from {0, +-1, +-2, 1/2, -1/3, 3/2}, targets both random and built
from the parameters) and unit expressions over the default registry.  Every
answer is rendered to text and hashed per kind; the digests were recorded
from the Fraction-field implementation of ``Dimension``, so any change to
how exponents are stored, combined, eliminated or rendered must reproduce
its output byte for byte (unit scales to 12 significant digits).

``digests(seed, count)`` is importable, so the same generator can compare
two checkouts over many more problems than the test runs.
"""

import hashlib
import random
from fractions import Fraction

from scalelab.algebra import pi_basis, solve_target_exponents
from scalelab.errors import ScaleLabError
from scalelab.units import Dimension, coherent_unit, default_registry

EXPONENTS = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2),
)
UNIT_EXPONENTS = (
    "", "^2", "^-1", "^1/2", "^-1/3", "^3/2", "^2/4", "^+2", "^01", "^1", "^0",
    "^1.5", "^2147483648",
)

SEED = 20261018
COUNT = 1000
PINNED = {
    "solve": "6a4c8c3a27d64458a038a4bdef2694a8158a3775ca3ae7338cfae0c80ead635a",
    "pi": "44f07dbdd60c46cbf2699206caeb80ea1fc2162c870ef49d2b325e4c40b27380",
    "dim": "4f0d8eead03426d538506342959952ac17776c7e825a34784ec234fb88008638",
    "unit": "f8c8ff5876db0ab3c5751ec2a525e39cafe408c8af511dddb7b4cd8f439de12a",
    "resolve": "bf7d34b644c87c4b18095d41e80e7d65f4ec466ed5d56892e3d5f0fb697dfe85",
}


def _dimension(rng: random.Random) -> Dimension:
    # Half the entries zero, so that dependent and sparse columns are common.
    return Dimension(*(
        rng.choice(EXPONENTS) if rng.random() < 0.5 else Fraction(0) for _ in range(5)
    ))


def problems(seed: int, count: int):
    """``(params, target, recipe)`` triples; ``recipe`` builds the target
    as ``(index, coefficient)`` pairs, or is None for a random target."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        params = [(f"q{i}", _dimension(rng)) for i in range(n)]
        if rng.random() < 0.3:
            params[-1] = (params[-1][0], params[rng.randrange(n)][1])  # repeat a column
        if rng.random() < 0.5:
            yield params, _dimension(rng), None
            continue
        recipe = [(i, rng.choice(EXPONENTS)) for i in range(n) if rng.random() < 0.7]
        target = Dimension()
        for index, coefficient in recipe:
            target = target.combine(params[index][1], coefficient)
        yield params, target, recipe


def expressions(seed: int, count: int):
    """Unit expressions of 1-4 symbols with assorted exponent texts; some
    name an unknown symbol or carry a malformed or out-of-range exponent."""
    rng = random.Random(seed)
    symbols = sorted(unit.symbol for unit in default_registry()) + ["stone"]
    for _ in range(count):
        yield " ".join(
            rng.choice(symbols) + rng.choice(UNIT_EXPONENTS) for _ in range(rng.randint(1, 4))
        )


def _solve_text(params, target) -> str:
    try:
        return solve_target_exponents(target, params, "y").render()
    except ScaleLabError as exc:
        return f"{type(exc).__name__}: {exc}"


def digests(seed: int, count: int) -> dict[str, str]:
    """sha256 per kind of answer over ``count`` problems and expressions."""
    hashes = {kind: hashlib.sha256() for kind in PINNED}

    def add(kind: str, text: str) -> None:
        hashes[kind].update(text.encode() + b"\n")

    registry = default_registry()
    for params, target, recipe in problems(seed, count):
        add("solve", _solve_text(params, target))
        add("pi", " | ".join(group.render() for group in pi_basis(params)))
        dims = [dim for _, dim in params] + [target]
        if recipe is not None:
            dims += [params[i][1] ** coefficient for i, coefficient in recipe]
        for dim in dims:
            add("dim", str(dim))
            add("unit", coherent_unit(dim).symbol)
    for expression in expressions(seed, count):
        try:
            unit = registry.resolve(expression)
            # A scale with a fractional exponent comes from the C library's
            # pow, whose last bit may differ between platforms; 12 digits
            # are reproducible everywhere, the symbol and dimension are exact.
            add("resolve", f"{unit.symbol} [{unit.dimension}] {unit.scale:.12g}")
        except ScaleLabError as exc:
            add("resolve", f"{type(exc).__name__}: {exc}")
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def test_exact_core_matches_pinned_digests():
    assert digests(SEED, COUNT) == PINNED
