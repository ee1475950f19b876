"""Exact dimension algebra, unit registry, and quantity arithmetic.

The base dimension set is fixed at mass (M), length (L), time (T),
temperature (Theta), and currency (Cur).  Dimension exponents are exact
rationals with bounded numerator and denominator; arithmetic that would
exceed the bound raises :class:`~scalelab.errors.CapacityError` rather than
silently growing.

All types here are immutable values and every operation is pure, so the
module is safe for unrestricted concurrent use.  A registry is built once
and then treated as read-only.

Unit-expression grammar (used by :func:`parse_quantity` and
:meth:`UnitRegistry.resolve`)::

    unit     := symbol ('^' rational)? (' ' unit)*
    rational := integer | integer '/' integer

e.g. ``"m s^-2"``, ``"kg m^-3"``, ``"m^5 s^-2"``.  A symbol may itself
contain ``/`` (the registry ships ``m/s``); the exponent separator is the
first ``^`` in a token.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapacityError,
    DataError,
    DimensionMismatchError,
    QuantityParseError,
    UnknownUnitError,
)

__all__ = [
    "Dimension",
    "Unit",
    "Quantity",
    "UnitRegistry",
    "DIMENSIONLESS",
    "MASS",
    "LENGTH",
    "TIME",
    "TEMPERATURE",
    "CURRENCY",
    "VELOCITY",
    "ACCELERATION",
    "DENSITY",
    "ENERGY",
    "POWER",
    "parse_quantity",
    "convert",
    "log_ratio",
    "default_registry",
]

# Bound on |numerator| and denominator of any dimension exponent.
_CAPACITY = 2**31


def _as_exponent(value) -> Fraction:
    """Coerce an exact rational, rejecting floats (they are not exact)."""
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise QuantityParseError(f"malformed rational {value!r}") from exc
    else:
        raise TypeError(
            f"dimension exponents must be int, str, or Fraction, not {type(value).__name__}"
        )
    if abs(frac.numerator) >= _CAPACITY or frac.denominator >= _CAPACITY:
        raise CapacityError(
            f"rational exponent {frac} exceeds the supported range "
            f"(|num|, den < 2^31)"
        )
    return frac


def _render_monomial(names, exponents) -> str:
    """``name^exp`` for each nonzero exponent, space-joined; ``1`` if none.

    An exponent of 1 is left off; an integral Fraction prints as an integer.
    """
    parts = [
        name if exp == 1 else f"{name}^{exp}"
        for name, exp in zip(names, exponents)
        if exp != 0
    ]
    return " ".join(parts) or "1"


_ZERO = Fraction(0)


@dataclass(frozen=True)
class Dimension:
    """A vector of exact rational exponents over the base dimensions.

    The zero vector is the unique dimensionless value; equality is
    component-wise rational equality.
    """

    mass: Fraction = _ZERO
    length: Fraction = _ZERO
    time: Fraction = _ZERO
    temperature: Fraction = _ZERO
    currency: Fraction = _ZERO

    _FIELDS = ("mass", "length", "time", "temperature", "currency")
    _LETTERS = ("M", "L", "T", "Theta", "Cur")

    def __post_init__(self):
        for name in self._FIELDS:
            object.__setattr__(self, name, _as_exponent(getattr(self, name)))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(getattr(self, name) for name in self._FIELDS)

    @property
    def is_dimensionless(self) -> bool:
        return all(e == 0 for e in self.as_tuple())

    def combine(self, other: Dimension, exponent=1) -> Dimension:
        """Return ``self + exponent * other``, component-wise and exact.

        The constructor bounds each component, as for ``**``.
        """
        k = _as_exponent(exponent)
        pairs = zip(self.as_tuple(), other.as_tuple())
        return Dimension(*(a + k * b for a, b in pairs))

    def __mul__(self, other: Dimension) -> Dimension:
        return self.combine(other, 1)

    def __truediv__(self, other: Dimension) -> Dimension:
        return self.combine(other, -1)

    def __pow__(self, exponent) -> Dimension:
        k = _as_exponent(exponent)
        return Dimension(*(e * k for e in self.as_tuple()))

    def __str__(self) -> str:
        return _render_monomial(self._LETTERS, self.as_tuple())


DIMENSIONLESS = Dimension()
MASS = Dimension(mass=Fraction(1))
LENGTH = Dimension(length=Fraction(1))
TIME = Dimension(time=Fraction(1))
TEMPERATURE = Dimension(temperature=Fraction(1))
CURRENCY = Dimension(currency=Fraction(1))

VELOCITY = Dimension(length=Fraction(1), time=Fraction(-1))
ACCELERATION = Dimension(length=Fraction(1), time=Fraction(-2))
DENSITY = Dimension(mass=Fraction(1), length=Fraction(-3))
ENERGY = Dimension(mass=Fraction(1), length=Fraction(2), time=Fraction(-2))
POWER = Dimension(mass=Fraction(1), length=Fraction(2), time=Fraction(-3))


# Coherent base symbols used when arithmetic has to synthesise a unit for an
# arbitrary dimension.  Shared by every registry built here.
_SI_BASE_SYMBOLS = ("kg", "m", "s", "K", "GBP")


@dataclass(frozen=True)
class Unit:
    """A named unit: a symbol, a dimension, and a positive scale factor.

    ``scale`` converts a magnitude in this unit to the coherent base unit of
    its dimension (kg, m, s, K, GBP and their products).
    """

    symbol: str
    dimension: Dimension
    scale: float

    def __post_init__(self):
        if not self.symbol:
            raise QuantityParseError("unit symbol must be non-empty")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise DataError(f"unit {self.symbol!r} must have a positive finite scale")

    def __str__(self) -> str:
        return self.symbol


def coherent_unit(dimension: Dimension) -> Unit:
    """The scale-1 unit of a dimension, named from the SI base symbols."""
    symbol = _render_monomial(_SI_BASE_SYMBOLS, dimension.as_tuple())
    return Unit(symbol, dimension, 1.0)


@dataclass(frozen=True)
class Quantity:
    """A real magnitude bound to a unit.

    Two quantities are commensurable iff their dimensions are equal; only
    commensurable quantities may be added, subtracted, or converted.
    Logarithms are deliberately not defined on quantities; use
    :func:`log_ratio` on a pair of commensurable quantities instead.
    """

    magnitude: float
    unit: Unit

    def __post_init__(self):
        object.__setattr__(self, "magnitude", float(self.magnitude))
        if not math.isfinite(self.magnitude):
            raise DataError(f"quantity magnitude must be finite, got {self.magnitude!r}")

    @property
    def dimension(self) -> Dimension:
        return self.unit.dimension

    @property
    def si_value(self) -> float:
        """Magnitude expressed in the coherent base unit."""
        return self.magnitude * self.unit.scale

    def to(self, target: Unit) -> Quantity:
        return convert(self, target)

    def in_si(self) -> Quantity:
        return Quantity(self.si_value, coherent_unit(self.dimension))

    def __add__(self, other: Quantity) -> Quantity:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(self.dimension, other.dimension, "add")
        return Quantity(self.magnitude + other.to(self.unit).magnitude, self.unit)

    def __sub__(self, other: Quantity) -> Quantity:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(self.dimension, other.dimension, "subtract")
        return Quantity(self.magnitude - other.to(self.unit).magnitude, self.unit)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            dim = self.dimension * other.dimension
            return Quantity(self.si_value * other.si_value, coherent_unit(dim))
        return Quantity(self.magnitude * float(other), self.unit)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            dim = self.dimension / other.dimension
            return Quantity(self.si_value / other.si_value, coherent_unit(dim))
        return Quantity(self.magnitude / float(other), self.unit)

    def __pow__(self, exponent) -> Quantity:
        k = _as_exponent(exponent)
        if self.si_value < 0 and k.denominator != 1:
            raise DataError(
                f"cannot raise negative quantity {self} to fractional power {k}"
            )
        dim = self.dimension ** k
        try:
            magnitude = self.si_value ** float(k)
        except OverflowError:
            raise DataError(f"{self} to the power {k} overflows a float") from None
        return Quantity(magnitude, coherent_unit(dim))

    def ratio(self, other: Quantity) -> float:
        """Dimensionless ratio of two commensurable quantities."""
        if self.dimension != other.dimension:
            raise DimensionMismatchError(self.dimension, other.dimension, "ratio")
        return self.si_value / other.si_value

    def __str__(self) -> str:
        return f"{self.magnitude:g} {self.unit.symbol}"


class UnitRegistry:
    """Mapping of unit symbols to units.

    Build once, then treat as read-only; :meth:`register` raises on duplicate
    symbols so a registry's meaning cannot drift.
    """

    def __init__(self):
        self._units: dict[str, Unit] = {}

    def register(self, symbol: str, dimension: Dimension, scale: float) -> Unit:
        if symbol in self._units:
            raise DataError(f"unit symbol {symbol!r} already registered")
        if any(ch.isspace() for ch in symbol) or "^" in symbol:
            raise QuantityParseError(
                f"unit symbol {symbol!r} may not contain whitespace or '^'"
            )
        unit = Unit(symbol, dimension, scale)
        self._units[symbol] = unit
        return unit

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._units

    def __iter__(self):
        return iter(self._units.values())

    def symbol(self, symbol: str) -> Unit:
        try:
            return self._units[symbol]
        except KeyError:
            raise UnknownUnitError(symbol) from None

    def resolve(self, expression: str) -> Unit:
        """Resolve a unit expression (see module grammar) to a single Unit."""
        tokens = expression.split()
        if not tokens:
            raise QuantityParseError("empty unit expression")
        dim = DIMENSIONLESS
        scale = 1.0
        normalized = []
        for token in tokens:
            symbol, caret, exp_text = token.partition("^")
            unit = self.symbol(symbol)
            if caret:
                exponent = _parse_rational(exp_text)
            else:
                exponent = Fraction(1)
            dim = dim.combine(unit.dimension, exponent)
            scale *= unit.scale ** float(exponent)
            normalized.append(symbol if exponent == 1 else f"{symbol}^{exponent}")
        if len(tokens) == 1 and normalized[0] in self._units:
            return self._units[normalized[0]]
        return Unit(" ".join(normalized), dim, scale)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise QuantityParseError(f"malformed exponent {text!r}")
    return _as_exponent(text)


_NUMBER_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def parse_quantity(text: str, registry: UnitRegistry | None = None) -> Quantity:
    """Parse ``"<number> <unit-expression>"`` into a Quantity.

    ``"9.80665 m s^-2"`` resolves to an acceleration; ``"6 knot"`` binds to
    the registered knot unit and converts on demand.
    """
    registry = registry or default_registry()
    stripped = text.strip()
    number_text, _, unit_text = stripped.partition(" ")
    if not unit_text.strip():
        raise QuantityParseError(
            f"expected '<number> <unit-expression>', got {text!r}"
        )
    if not _NUMBER_RE.match(number_text):
        raise QuantityParseError(f"malformed number {number_text!r} in {text!r}")
    unit = registry.resolve(unit_text.strip())
    return Quantity(float(number_text), unit)


def convert(quantity: Quantity, target: Unit) -> Quantity:
    """Re-express a quantity in a commensurable target unit."""
    if quantity.dimension != target.dimension:
        raise DimensionMismatchError(
            quantity.dimension, target.dimension, f"convert {quantity} to {target.symbol}"
        )
    return Quantity(quantity.magnitude * quantity.unit.scale / target.scale, target)


def log_ratio(quantity: Quantity, reference: Quantity) -> float:
    """Natural log of the dimensionless ratio quantity/reference.

    This is the only logarithm exposed anywhere in the package: a lone
    dimensionful quantity has no intrinsic number to take a log of, but a
    ratio of commensurable quantities does.
    """
    if quantity.dimension != reference.dimension:
        raise DimensionMismatchError(
            quantity.dimension, reference.dimension, "log_ratio"
        )
    if not (quantity.si_value > 0 and reference.si_value > 0):
        raise DataError(
            f"log_ratio requires strictly positive magnitudes, got "
            f"{quantity} and {reference}"
        )
    return math.log(quantity.si_value / reference.si_value)


@functools.lru_cache(maxsize=1)
def default_registry() -> UnitRegistry:
    """The shared registry: SI base plus the everyday units used here.

    Exact defining ratios: kg = 1000 g, ft = 0.3048 m, hr = 3600 s,
    yr = 3.1557e7 s, knot = 1852 m / 3600 s, mph = 1609.344 m / 3600 s.
    Currency carries a single unit (GBP); no cross-currency conversion is
    registered, though callers may add further currencies with fixed ratios
    to their own registry.
    """
    reg = UnitRegistry()
    reg.register("kg", MASS, 1.0)
    reg.register("m", LENGTH, 1.0)
    reg.register("s", TIME, 1.0)
    reg.register("K", TEMPERATURE, 1.0)
    reg.register("GBP", CURRENCY, 1.0)

    reg.register("g", MASS, 1e-3)
    reg.register("ft", LENGTH, 0.3048)
    reg.register("min", TIME, 60.0)
    reg.register("hr", TIME, 3600.0)
    reg.register("yr", TIME, 3.1557e7)
    reg.register("m/s", VELOCITY, 1.0)
    reg.register("knot", VELOCITY, 1852.0 / 3600.0)
    reg.register("mph", VELOCITY, 1609.344 / 3600.0)
    reg.register("J", ENERGY, 1.0)
    reg.register("W", POWER, 1.0)
    reg.register("N", Dimension(mass=Fraction(1), length=Fraction(1), time=Fraction(-2)), 1.0)
    return reg
