"""Exact dimension algebra, unit registry, and quantity arithmetic.

The base dimension set is fixed at mass (M), length (L), time (T),
temperature (Theta), and currency (Cur).  Dimension exponents are exact
rationals, stored per :class:`Dimension` as one vector of integer
numerators over one common denominator, so combining, raising, comparing
and rendering dimensions is integer arithmetic.  Each exponent's reduced
numerator and denominator are bounded; arithmetic that would exceed the
bound raises :class:`~scalelab.errors.CapacityError` rather than silently
growing.

Quantity arithmetic keeps its results inside the float range.  ``+``,
``-``, ``*``, ``/``, ``**``, :func:`convert` (and so
:meth:`Quantity.in_si`) and :func:`log_ratio` each compute their float
through one guard, which raises :class:`~scalelab.errors.DataError` naming
the operation and both operands when a product, quotient or power of
nonzero operands gives 0 ("underflows a float to 0"), when the result is
infinite or NaN ("overflows a float"), or when the operation divides by
zero ("divides by zero").  ``*``, ``/`` and ``**`` first take each
quantity operand to SI units through the same guard, as :func:`convert`
does, so an operand that leaves the range there is the one named.  A real
that cannot become a float (an int or Fraction past the largest float, or
a nonzero one that rounds to 0), given as a magnitude, a unit scale or an
operand of ``*`` and ``/``, raises a DataError naming it.  An
in-range result is the plain float expression, bit for bit, so no result
silently becomes 0 or inf and no float exception escapes as a traceback.

All types here are immutable values and every operation is pure, so the
module is safe for unrestricted concurrent use.  A registry is built once
and then treated as read-only.  What it does write is a table of the
tokens (``kg``, ``m^-3`` ...) it has resolved, filled on first use and
capped at 4096 entries; a token that fails is never stored, so a later
:meth:`UnitRegistry.register` is seen, and two threads filling one entry
store equal values.  :func:`coherent_unit` shares one unit per dimension
among its callers.

The value classes here and in ``algebra``, ``casebook``, ``regression``,
``csvio`` and ``svgplot`` share one private ``__slots__`` base: equality
of the fields within one class, hashing, a ``Class(field=value, ...)``
repr, copy and pickle, and an ``AttributeError`` on setting or deleting an
attribute.  Each class's ``__init__`` checks its arguments and sets its
fields.  The base stands in for ``dataclasses``, whose import (with
``inspect``) would otherwise be part of every start-up.

Unit-expression grammar (used by :func:`parse_quantity` and
:meth:`UnitRegistry.resolve`)::

    quantity := number ws unit
    unit     := symbol ('^' rational)? (ws unit)*
    rational := integer | integer '/' integer
    number   := [+-]? (digits ('.' digits?)? | '.' digits) ([eE] [+-]? digits)?
    ws       := a run of whitespace, as str.split() reads it

e.g. ``"m s^-2"``, ``"kg m^-3"``, ``"m^5 s^-2"``.  A symbol may itself
contain ``/`` (the registry ships ``m/s``); the exponent separator is the
first ``^`` in a token.  Digits are the ASCII ``0``-``9``.  ``rational``
is the one string form of every exponent: a unit token's, and a string
given to :class:`Dimension`, :meth:`Dimension.combine`, ``**``,
``ScalingRelation`` or ``solve_balance``.  Other text (``"0.5"``,
``"1e3"``, ``" 1/2"``, ``"２"``) raises
:class:`~scalelab.errors.QuantityParseError` naming it, with the same
message wherever it is given.  ``number`` is likewise the one text form
of a magnitude, read by :func:`_real` for quantities, CLI arguments and
CSV cells, so ``"1_0"``, ``"nan"`` and ``"٣"`` are malformed everywhere.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from numbers import Real
from operator import add, attrgetter, mul, sub, truediv

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
# Most tokens one registry's token table keeps; past it, a token is parsed
# on each use.
_TOKEN_TABLE_SIZE = 4096


def _bounded(numerator: int, denominator: int) -> tuple[int, int]:
    """A reduced exponent ``numerator/denominator``, checked against the bound."""
    if abs(numerator) >= _CAPACITY or denominator >= _CAPACITY:
        raise CapacityError(
            f"rational exponent {_number_text(Fraction(numerator, denominator))} "
            f"exceeds the supported range (|num|, den < 2^31)"
        )
    return numerator, denominator


# The grammar's ``rational``: the one string form of an exponent.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def _ratio(value) -> tuple[int, int]:
    """An exact exponent as a reduced, bounded ``(numerator, denominator)``.

    The exponent is an int, a Fraction, or text in the grammar's
    ``rational`` form; a float is rejected, as it is not exact.
    """
    if type(value) is int and -_CAPACITY < value < _CAPACITY:
        return value, 1
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if not match:
            raise QuantityParseError(f"malformed exponent {value!r}")
        try:
            value = Fraction(int(match[1]), int(match[2] or 1))
        except ValueError as exc:  # more digits than int() converts
            raise QuantityParseError(f"malformed rational {value!r}") from exc
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"dimension exponents must be int, str, or Fraction, not {type(value).__name__}"
        )
    return _bounded(value.numerator, value.denominator)


def _as_exponent(value) -> Fraction:
    """An exact exponent, as :func:`_ratio` reads it, as a Fraction; a
    Fraction comes back as itself, after the bound check alone."""
    if isinstance(value, Fraction):
        _bounded(value.numerator, value.denominator)
        return value
    return Fraction(*_ratio(value))


def _number_text(number) -> str:
    """``str(number)``; an int or Fraction with more digits than ``str``
    prints is named by its size instead, as ``<16610-bit integer>``."""
    try:
        return str(number)
    except ValueError:  # past the interpreter's limit on printed digits
        n, d = number.numerator, number.denominator
        kind = "integer" if d == 1 else "fraction"
        return f"<{max(abs(n).bit_length(), d.bit_length())}-bit {kind}>"


def _render_monomial(names, exponents, denominator: int = 1) -> str:
    """``name^exp`` for each nonzero exponent, space-joined; ``1`` if none.

    The exponents are integers or Fractions, each divided by
    ``denominator``.  An exponent of 1 is left off; an integral one prints
    as an integer.
    """
    parts = []
    for name, exp in zip(names, exponents):
        if exp == 0:
            continue
        if denominator != 1:
            g = math.gcd(exp, denominator)
            exp = exp // g if g == denominator else f"{exp // g}/{denominator // g}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts) or "1"


_set = object.__setattr__  # sets one field of a new _Value


class _Value:
    """An immutable value whose fields are its ``__slots__``, in order."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):  # a class that declares fields
            cls.__match_args__ = cls.__slots__
            cls._values = attrgetter(*cls.__slots__)

    def __getstate__(self):
        return self._values(self)

    def __setstate__(self, values) -> None:  # also how a constructor sets its fields
        if isinstance(values, dict):  # pickled when the class was a dataclass
            values = [values[name] for name in self.__match_args__]
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be set or deleted")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


def _component(index: int) -> property:
    return property(lambda self: Fraction(self.numerators[index], self.denominator))


class Dimension(_Value):
    """A vector of exact rational exponents over the base dimensions.

    The five exponents are stored as one tuple of integer ``numerators``
    over one positive common ``denominator``, reduced so that the
    numerators and the denominator have gcd 1.  Each value has exactly one
    such form, so equality and hashing compare integers, and the zero
    vector, ``(0, 0, 0, 0, 0)`` over 1, is the unique dimensionless value.
    Construction and every operation check once, on the result, that each
    exponent as a reduced fraction has |numerator| and denominator below
    2^31.  The named exponents and :meth:`as_tuple` are ``Fraction``
    values.  Instances are immutable.
    """

    __slots__ = ("numerators", "denominator")

    _FIELDS = ("mass", "length", "time", "temperature", "currency")
    _LETTERS = ("M", "L", "T", "Theta", "Cur")

    mass = _component(0)
    length = _component(1)
    time = _component(2)
    temperature = _component(3)
    currency = _component(4)

    def __init__(self, mass=0, length=0, time=0, temperature=0, currency=0):
        # Reduced fractions over the lcm of their denominators share no
        # factor with it, so the result is already in reduced form.
        pairs = [_ratio(e) for e in (mass, length, time, temperature, currency)]
        denominator = math.lcm(*(q for _, q in pairs))
        self.__setstate__((tuple(p * (denominator // q) for p, q in pairs), denominator))

    # Written out, not the base's tuple of fields: unit arithmetic and
    # derivations compare dimensions in their inner loops.
    def __eq__(self, other):
        if other.__class__ is not Dimension:
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def is_dimensionless(self) -> bool:
        return not any(self.numerators)

    def combine(self, other: Dimension, exponent=1) -> Dimension:
        """Return ``self + exponent * other``, component-wise and exact."""
        return _dimension(*_combined(self.numerators, self.denominator, other, *_ratio(exponent)))

    def __mul__(self, other: Dimension) -> Dimension:
        return self.combine(other)

    def __truediv__(self, other: Dimension) -> Dimension:
        return self.combine(other, -1)

    def __pow__(self, exponent) -> Dimension:
        p, q = _ratio(exponent)
        return _dimension(*_reduced(tuple(n * p for n in self.numerators), self.denominator * q))

    def __repr__(self) -> str:
        fields = zip(self._FIELDS, self.as_tuple())
        return "Dimension(" + ", ".join(f"{name}={e!r}" for name, e in fields) + ")"

    def __str__(self) -> str:
        return _render_monomial(self._LETTERS, self.numerators, self.denominator)


def _reduced(numerators: tuple[int, ...], denominator: int) -> tuple[tuple[int, ...], int]:
    """``numerators / denominator`` (denominator > 0) in reduced form,
    checked against the bound."""
    if denominator != 1:
        g = math.gcd(denominator, *numerators)
        if g != 1:
            numerators = tuple(n // g for n in numerators)
            denominator //= g
    low, high = min(numerators), max(numerators)
    if denominator >= _CAPACITY or low <= -_CAPACITY or high >= _CAPACITY:
        for n in numerators:
            g = math.gcd(n, denominator)
            _bounded(n // g, denominator // g)
    return numerators, denominator


def _combined(numerators: tuple[int, ...], denominator: int, other: Dimension,
              p: int, q: int) -> tuple[tuple[int, ...], int]:
    """``numerators / denominator + (p/q) other`` over the lcm of the two
    denominators, reduced and checked against the bound."""
    theirs = other.denominator * q
    common = denominator if denominator == theirs else math.lcm(denominator, theirs)
    s, t = common // denominator, p * (common // theirs)
    pairs = zip(numerators, other.numerators)
    # A list, not a generator: resolve runs this per token, and it is faster.
    return _reduced(tuple([a * s + b * t for a, b in pairs]), common)


def _dimension(numerators: tuple[int, ...], denominator: int) -> Dimension:
    """The Dimension of a reduced, bounded ``numerators / denominator``."""
    dim = object.__new__(Dimension)
    _set(dim, "numerators", numerators)
    _set(dim, "denominator", denominator)
    return dim


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


class Unit(_Value):
    """A named unit: a symbol, a dimension, and a positive scale factor.

    ``scale`` converts a magnitude in this unit to the coherent base unit of
    its dimension (kg, m, s, K, GBP and their products).
    """

    __slots__ = ("symbol", "dimension", "scale")

    def __init__(self, symbol: str, dimension: Dimension, scale: float):
        if not symbol:
            raise QuantityParseError("unit symbol must be non-empty")
        scale = _as_float(scale)
        if not (scale > 0 and math.isfinite(scale)):
            raise DataError(f"unit {symbol!r} must have a positive finite scale")
        _set(self, "symbol", symbol)
        _set(self, "dimension", dimension)
        _set(self, "scale", scale)

    def __str__(self) -> str:
        return self.symbol


@functools.lru_cache(maxsize=256)
def coherent_unit(dimension: Dimension) -> Unit:
    """The scale-1 unit of a dimension, named from the SI base symbols;
    units are immutable, so callers share one per dimension."""
    symbol = _render_monomial(
        _SI_BASE_SYMBOLS, dimension.numerators, dimension.denominator
    )
    return Unit(symbol, dimension, 1.0)


def _as_float(value) -> float:
    """``float(value)`` of a ``numbers.Real``, or a DataError naming a value
    that is not one (text, a Decimal), or a real that leaves the float
    range: one too large for a float, or a nonzero one that rounds to 0."""
    if type(value) is float:
        return value
    if not isinstance(value, Real):
        raise DataError(f"{value!r} is a {type(value).__name__}, not a real number")
    try:
        result = float(value)
    except OverflowError:
        raise DataError(f"number {_number_text(value)} overflows a float") from None
    if result == 0 and value != 0:
        raise DataError(f"number {_number_text(value)} underflows a float to 0")
    return result


def _in_range(op, a: float, b: float, left, how: str, right) -> float:
    """``op(a, b)``, or a DataError naming ``left how right`` if it leaves the float range.

    A sum or difference of floats is 0 only when it cancels exactly, never
    by underflow, so only a product, quotient or power of nonzero operands
    counts a 0 as underflow.
    """
    try:
        value = op(a, b)
    except ZeroDivisionError:
        raise DataError(f"{left} {how} {right} divides by zero") from None
    except OverflowError:
        value = math.inf
    underflow = value == 0 and a != 0 and b != 0 and op not in (add, sub)
    if not math.isfinite(value) or underflow:
        ending = "overflows a float" if value else "underflows a float to 0"
        raise DataError(f"{left} {how} {right} {ending}")
    return value


class Quantity(_Value):
    """A real magnitude bound to a unit.

    Two quantities are commensurable iff their dimensions are equal; only
    commensurable quantities may be added, subtracted, or converted.
    Logarithms are deliberately not defined on quantities; use
    :func:`log_ratio` on a pair of commensurable quantities instead.
    """

    __slots__ = ("magnitude", "unit")

    def __init__(self, magnitude: float, unit: Unit):
        magnitude = _as_float(magnitude)
        if not math.isfinite(magnitude):
            raise DataError(f"quantity magnitude must be finite, got {magnitude!r}")
        _set(self, "magnitude", magnitude)
        _set(self, "unit", unit)

    @property
    def dimension(self) -> Dimension:
        return self.unit.dimension

    @property
    def si_value(self) -> float:
        """Magnitude expressed in the coherent base unit."""
        return self.magnitude * self.unit.scale

    def _checked_si(self) -> float:
        """``si_value``, or the DataError of :meth:`in_si` naming this
        quantity if the SI value leaves the float range."""
        si = self.magnitude * self.unit.scale
        if not math.isfinite(si) or si == 0 and self.magnitude:
            self.in_si()  # raises
        return si

    def to(self, target: Unit) -> Quantity:
        return convert(self, target)

    def in_si(self) -> Quantity:
        return convert(self, coherent_unit(self.dimension))

    def _sum(self, op, how: str, other: Quantity, what: str) -> Quantity:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(self.dimension, other.dimension, what)
        theirs = other.to(self.unit).magnitude
        return Quantity(_in_range(op, self.magnitude, theirs, self, how, other), self.unit)

    def __add__(self, other: Quantity) -> Quantity:
        return self._sum(add, "+", other, "add")

    def __sub__(self, other: Quantity) -> Quantity:
        return self._sum(sub, "-", other, "subtract")

    def _apply(self, op, how: str, other) -> Quantity:
        if isinstance(other, Quantity):
            dim = op(self.dimension, other.dimension)
            si, theirs = self._checked_si(), other._checked_si()
            magnitude = _in_range(op, si, theirs, self, how, other)
            return Quantity(magnitude, coherent_unit(dim))
        magnitude = _in_range(op, self.magnitude, _as_float(other), self, how, other)
        return Quantity(magnitude, self.unit)

    def __mul__(self, other):
        return self._apply(mul, "*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(truediv, "/", other)

    def __pow__(self, exponent) -> Quantity:
        k = _as_exponent(exponent)
        if self.si_value < 0 and k.denominator != 1:
            raise DataError(
                f"cannot raise negative quantity {self} to fractional power {k}"
            )
        dim = self.dimension ** k
        magnitude = _in_range(pow, self._checked_si(), float(k), self, "to the power", k)
        return Quantity(magnitude, coherent_unit(dim))

    def __str__(self) -> str:
        return f"{self.magnitude:g} {self.unit.symbol}"


class UnitRegistry:
    """Mapping of unit symbols to units.

    Build once, then treat as read-only; :meth:`register` raises on duplicate
    symbols so a registry's meaning cannot drift.  The shared
    :func:`default_registry` is read-only in fact: it refuses every
    :meth:`register`.
    """

    def __init__(self):
        self._units: dict[str, Unit] = {}
        self._tokens: dict[str, tuple] = {}
        self._read_only = False

    def register(self, symbol: str, dimension: Dimension, scale: float) -> Unit:
        if self._read_only:
            raise DataError(
                f"cannot register {symbol!r}: the default registry is shared "
                f"and read-only; register it in a UnitRegistry() of your own"
            )
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
        if len(tokens) == 1 and tokens[0] in self._units:
            return self._units[tokens[0]]
        # The exponents accumulate as integers over one denominator, bounded
        # after each token, so a partial sum past the bound raises.  While
        # that denominator is 1, an integral token adds its integer vector.
        numerators, denominator = DIMENSIONLESS.numerators, 1
        scale = 1.0
        normalized = []
        for token in tokens:
            unit, p, q, factor, text, vector = self._tokens.get(token) or self._token(token)
            if vector and denominator == 1:
                numerators, denominator = _reduced(tuple(map(add, numerators, vector)), 1)
            else:
                numerators, denominator = _combined(numerators, denominator, unit.dimension, p, q)
            scale *= factor
            normalized.append(text)
        return Unit(" ".join(normalized), _dimension(numerators, denominator), scale)

    def _token(self, token: str) -> tuple[Unit, int, int, float, str, tuple | None]:
        """``(unit, p, q, unit.scale ** (p/q), normalized text, vector)`` of a
        token ``symbol^p/q``, kept in the token table while it has room.
        ``vector`` is the integer exponent vector ``p * unit.dimension`` of
        an integral token (``q`` and the unit's denominator 1), else None."""
        symbol, caret, exp_text = token.partition("^")
        unit = self.symbol(symbol)
        p, q = _ratio(exp_text) if caret else (1, 1)
        try:
            factor = unit.scale ** (p / q)
        except OverflowError:  # Unit rejects it, as it rejects a 0 scale
            factor = math.inf
        vector = None
        if q == 1 and unit.dimension.denominator == 1:
            vector = tuple([p * n for n in unit.dimension.numerators])
        text = symbol if p == q else f"{symbol}^{Fraction(p, q)}"
        entry = unit, p, q, factor, text, vector
        if len(self._tokens) < _TOKEN_TABLE_SIZE:
            self._tokens[token] = entry
        return entry


# The grammar's ``number``: the one text form of a magnitude.  ``csvio``
# builds its row pattern from it.  Each text has one way to match, so a
# line that fails the row pattern fails in time linear in its length.
_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE = re.compile(_NUMBER)


def _real(text: str, within: str = "") -> float:
    """The float of ``text``, which must be in the grammar's ``number`` form.

    Other text raises QuantityParseError ``malformed number 'text'``; a
    number past the float range (``1e400``, or ``1e-400`` rounding to 0)
    raises DataError ``number 'text' overflows a float`` (or ``underflows a
    float to 0``).  Given ``within``, each message names it after the
    number, as ``'text' in 'within'``.
    """
    if not _NUMBER_RE.fullmatch(text):
        raise QuantityParseError(f"malformed number {text!r}{within and f' in {within!r}'}")
    value = float(text)
    # A 0 from a mantissa with a nonzero digit is an underflow.
    if math.isinf(value) or not value and text.lower().partition("e")[0].strip("+-0."):
        ending = "overflows a float" if value else "underflows a float to 0"
        raise DataError(f"number {text!r}{within and f' in {within!r}'} {ending}")
    return value


def parse_quantity(text: str, registry: UnitRegistry | None = None) -> Quantity:
    """Parse ``"<number> <unit-expression>"`` into a Quantity.

    ``"9.80665 m s^-2"`` resolves to an acceleration; ``"6 knot"`` binds to
    the registered knot unit and converts on demand.  The number is read
    by :func:`_real`, so one out of the float range (``"1e400"``, or
    ``"1e-400"`` rounding to 0) raises a DataError naming it.
    """
    registry = registry or default_registry()
    words = text.split(None, 1)
    if len(words) < 2:
        raise QuantityParseError(
            f"expected '<number> <unit-expression>', got {text!r}"
        )
    return Quantity(_real(words[0], text), registry.resolve(words[1]))


def convert(quantity: Quantity, target: Unit) -> Quantity:
    """Re-express a quantity in a commensurable target unit."""
    if quantity.dimension != target.dimension:
        raise DimensionMismatchError(
            quantity.dimension, target.dimension, f"convert {quantity} to {target.symbol}"
        )
    si = _in_range(mul, quantity.magnitude, quantity.unit.scale, quantity, "to", target)
    return Quantity(_in_range(truediv, si, target.scale, quantity, "to", target), target)


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
    ratio = _in_range(truediv, quantity.si_value, reference.si_value, quantity, "/", reference)
    return math.log(ratio)


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
    reg._read_only = True
    return reg
