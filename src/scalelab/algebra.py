"""Dimensional derivation engine over exact rationals.

Solves for the unique exponent combination that builds a target dimension
from a parameter list, computes bases of dimensionless groups, and solves
and chains monomial scaling relations.  No floating point is involved in
a derivation (only :meth:`ScalingRelation.evaluate` touches magnitudes):
the elimination is fraction-free over the integer numerators that each
:class:`~scalelab.units.Dimension` stores, scaled to one common
denominator for the whole matrix, and the substitution check is one
integer matrix-vector product.

Both derivations read one elimination of the parameter matrix ``A``, kept
per parameter list in a small cache, so solving for a target and
computing the groups of the same parameters eliminate ``A`` once.  The
elimination is Gauss-Jordan with the Bareiss update: it ends in a reduced
echelon form whose pivots all equal the last pivot ``d``, and it records
each pivot step (row swap, pivot, previous pivot, multipliers) so that a
target column ``t`` is reduced by the same integer arithmetic.  If the
reduced ``t`` is nonzero below the rank the target is impossible; if the
rank is below ``n`` there are ``n - rank`` free directions; otherwise the
unique exponents of ``A x = t`` are the reduced ``t`` over ``d``.  The
group of a free column ``f`` is read off the echelon in the same way:
``x_f = d``, and each pivot variable is minus its row's entry in column
``f``.  Only the elimination is cached: every answer is built and checked
by substitution on each call.

Everything here is a pure function over immutable values; the caches
(elimination per parameter list, evaluation plan per relation shape) are
bounded, keyed by value, hold immutable results and are safe to share
across threads.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from numbers import Rational, Real
from operator import mul

from .errors import (
    CapacityError,
    DataError,
    DerivationError,
    InconsistentDimensionsError,
    RelationError,
    UnderdeterminedError,
)
from .units import (
    DIMENSIONLESS,
    Dimension,
    Quantity,
    _Value,
    _as_exponent,
    _as_float,
    _dimension,
    _number_text,
    _reduced,
    _render_monomial,
    coherent_unit,
)

__all__ = [
    "PiGroup",
    "ScalingRelation",
    "solve_target_exponents",
    "pi_basis",
    "solve_balance",
    "chain",
    "check_exponent_bound",
]


class ScalingRelation(_Value):
    """A pure monomial law: target ~ product of names raised to exponents.

    Dimensionful prefactors are deliberately absent; only the exponents are
    scale-invariant content, so prefactors belong to whoever evaluates the
    relation, not to the relation itself.

    The target may appear among the terms only in the identity relation
    ``x ~ x^1``, which exists so that chaining with it is a no-op.
    """

    __slots__ = ("target", "exponents")
    __hash__ = None  # the exponents are a dict

    def __init__(self, target: str, exponents: Mapping[str, int | str | Fraction]):
        if not target:
            raise RelationError("relation target must be a non-empty name")
        cleaned = {name: frac for name, exp in exponents.items() if (frac := _as_exponent(exp))}
        if target in cleaned and cleaned != {target: Fraction(1)}:
            raise RelationError(f"target {target!r} may not appear among the terms")
        self.__setstate__((target, cleaned))

    @classmethod
    def identity(cls, name: str) -> ScalingRelation:
        return cls(name, {name: Fraction(1)})

    @property
    def is_identity(self) -> bool:
        return self.exponents == {self.target: Fraction(1)}

    def render(self) -> str:
        terms = _render_monomial(self.exponents, self.exponents.values())
        return f"{self.target} ~ {terms}"

    def evaluate(self, bindings: Mapping[str, Quantity], prefactor=1.0) -> Quantity:
        """``prefactor`` times each bound quantity raised to its exponent.

        The prefactor is a real number or a quantity, and each binding a
        quantity; anything else raises :class:`RelationError`.  The
        result's dimension is the prefactor's plus the exponent-weighted sum
        of the bound dimensions.  The answer is the quantity fold
        ``result = bindings[name] ** exp * result``, from
        ``result = Quantity(1.0, coherent_unit(DIMENSIONLESS)) * prefactor``,
        bit for bit and with the same errors; a :class:`DataError` from it
        is raised again naming the relation.

        Per call shape (the exponents in term order, the bound dimensions,
        the prefactor's dimension) a bounded cache keyed by value keeps the
        result's unit and each term's float exponent.  The magnitude is one
        float fold over the SI values in the quantity fold's order.  It
        leaves for the quantity fold itself on a base that is 0, not finite
        or negative under a fractional exponent, on an overflow in ``**``,
        on a final magnitude that is 0 or not finite, and for a shape past
        the exponent bound (no plan).  With finite nonzero operands, an
        overflow or underflow at any step leaves the product infinite, NaN
        or 0, so the one check at the end stands for a check at each step.
        """
        exponents = self.exponents
        unbound = [name for name in exponents if name not in bindings]
        if unbound:
            raise RelationError(
                f"cannot evaluate {self.render()!r}: no value for {', '.join(unbound)}"
            )
        if not isinstance(prefactor, (Real, Quantity)):
            raise RelationError(
                f"cannot evaluate {self.render()!r}: the prefactor must be a real "
                f"number or a Quantity, not {type(prefactor).__name__}"
            )
        for name in exponents:
            if not isinstance(bindings[name], Quantity):
                raise RelationError(
                    f"cannot evaluate {self.render()!r}: {name!r} is bound to a "
                    f"{type(bindings[name]).__name__}, not a Quantity"
                )
        try:
            if isinstance(prefactor, Quantity):
                magnitude, dimension = prefactor.si_value, prefactor.unit.dimension
            else:
                magnitude, dimension = _as_float(prefactor), DIMENSIONLESS
            try:
                plan = _evaluation_plan(tuple([
                    (exp.numerator, exp.denominator, bindings[name].unit.dimension)
                    for name, exp in exponents.items()
                ]), dimension)
            except AttributeError:  # an exponent set in place to a non-rational
                name = next(n for n, e in exponents.items() if not isinstance(e, Rational))
                raise RelationError(
                    f"cannot evaluate {self.render()!r}: the exponent of {name!r} is a "
                    f"{type(exponents[name]).__name__}, not an int or Fraction"
                ) from None
            if plan:
                try:
                    for name, power in zip(exponents, plan[1]):
                        base = bindings[name].si_value
                        if not 0 < abs(base) < math.inf or base < 0 and not power.is_integer():
                            break
                        magnitude = base ** power * magnitude
                    else:
                        if 0 < abs(magnitude) < math.inf:
                            return Quantity(magnitude, plan[0])
                except OverflowError:
                    pass
            result = Quantity(1.0, coherent_unit(DIMENSIONLESS)) * prefactor
            for name, exp in exponents.items():
                result = bindings[name] ** exp * result
        except DataError as exc:
            raise DataError(f"evaluating {self.render()!r}: {exc}") from None
        return result

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=256)
def _evaluation_plan(terms: tuple[tuple[int, int, Dimension], ...], dimension: Dimension):
    """The dimension side of :meth:`ScalingRelation.evaluate` for one shape.

    ``terms`` holds each term's exponent, as its numerator and denominator,
    and its bound dimension, in term order; ``dimension`` is the
    prefactor's.  Folds ``dimension`` with each term's dimension raised to
    its exponent, as the quantity fold does, and returns the result's
    coherent unit and each term's exponent as a float (``p / q`` is
    ``float(Fraction(p, q))``, bit for bit).  Returns None when the fold
    passes the exponent bound, so a failing shape is kept too.
    """
    try:
        for p, q, base in terms:
            dimension = base ** Fraction(p, q) * dimension
    except CapacityError:
        return None
    return coherent_unit(dimension), tuple([p / q for p, q, _ in terms])


class PiGroup(_Value):
    """A dimensionless product of powers, in normalized integer form.

    Normalization: the exponent vector is scaled to the smallest integers
    with gcd 1 and its first nonzero entry positive.  A group and its
    reciprocal carry the same content; the convention just pins one of the
    two for deterministic rendering and exact test equality.
    """

    __slots__ = ("names", "exponents")

    def __init__(self, names: tuple[str, ...], exponents: tuple[int, ...]):
        if len(names) != len(exponents):
            raise RelationError("names and exponents must align")
        nonzero = [e for e in exponents if e != 0]
        if not nonzero:
            raise RelationError("a dimensionless group must have a nonzero exponent")
        if math.gcd(*(abs(e) for e in nonzero)) != 1 or nonzero[0] <= 0:
            raise RelationError(f"exponents ({', '.join(map(_number_text, exponents))}) "
                                f"are not in normalized form")
        self.__setstate__((names, exponents))

    def render(self) -> str:
        return "pi: " + _render_monomial(self.names, self.exponents)

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=64)
def _elimination(params: tuple[tuple[str, tuple[int, ...], int], ...]):
    """Fraction-free Gauss-Jordan elimination of one parameter list.

    ``params`` holds each quantity's name and its Dimension's numerators
    and denominator, one column per quantity; a repeated name raises
    :class:`RelationError`.  Row ``r`` of the integer matrix holds
    ``common`` times each column's exponent of base dimension ``r``,
    ``common`` the lcm of the denominators; one factor for the whole
    matrix leaves its row space and null space as they are.  Pivot columns
    are chosen left to right.

    Each pivot step applies the Bareiss update
    ``row[j] = (pivot * row[j] - m * top[j]) // prev`` to every other row,
    above the pivot row as well as below, ``m`` being that row's entry in
    the pivot column; every division is exact.  At the end each pivot
    column is zero but for its pivot, and every pivot equals the last one,
    ``d`` (1 when there is none).

    Returns ``(names, rows, common, echelon, pivots, d, steps)``: the
    names, the scaled rows, ``common``, the reduced echelon rows, the
    pivot column indices, ``d``, and per pivot the step ``(swap, pivot,
    previous pivot, multipliers)`` that :func:`_reduce_column` replays on
    another column, the multipliers as ``(row index, m)`` pairs; a row the
    update leaves as it is (``m`` 0 and ``pivot == prev``) has no pair.
    Every part is an immutable tuple.
    """
    names = [name for name, _, _ in params]
    if len(set(names)) != len(names):
        raise RelationError(f"duplicate quantity names in {names}")
    common = math.lcm(*[d for _, _, d in params])
    rows = tuple(zip(*[
        nums if d == common else [n * (common // d) for n in nums]
        for _, nums, d in params
    ]))
    matrix = [list(row) for row in rows]
    pivots, steps = [], []
    prev = 1
    for c in range(len(params)):
        r = len(pivots)
        for swap in range(r, len(matrix)):
            if matrix[swap][c]:
                break
        else:
            continue
        matrix[r], matrix[swap] = matrix[swap], matrix[r]
        top = matrix[r]
        pivot = top[c]
        multipliers = []
        for i, row in enumerate(matrix):
            m = row[c]
            if i != r and (m or pivot != prev):  # else the update leaves the row as it is
                multipliers.append((i, m))
                if m or any(row):  # a zero row stays zero
                    matrix[i] = [(pivot * a - m * b) // prev for a, b in zip(row, top)]
        steps.append((swap, pivot, prev, tuple(multipliers)))
        prev = pivot
        pivots.append(c)
    return (tuple(names), rows, common, tuple(map(tuple, matrix)), tuple(pivots), prev,
            tuple(steps))


def _eliminated(params):
    """:func:`_elimination` of ``params``, any iterable of ``(name, Dimension)``
    pairs, keyed once by each name and its Dimension's integer form.

    An empty list raises :class:`RelationError`, as does an entry that is
    not such a pair, whose name the cache cannot hash or whose dimension
    has no integer form (``numerators`` and ``denominator``), naming that
    entry.  Reading those integers is the dimension check: no isinstance
    test runs per call, and the cache hashes and compares ints and strs.
    """
    key, entry = [], params  # entry: what an error names, params if not iterable
    try:
        for entry in params:
            name, dim = entry
            hash(name)
            key.append((name, dim.numerators, dim.denominator))
    except (AttributeError, TypeError, ValueError):
        raise RelationError(f"quantities must be (name, Dimension) pairs; got {entry!r}") from None
    if not key:
        raise RelationError("at least one quantity is required")
    return _elimination(tuple(key))


def _reduce_column(steps, column: list[int]) -> list[int]:
    """``column`` (modified in place) taken through the recorded pivot
    steps, as the elimination reduces the last column of ``[A | column]``."""
    for r, (swap, pivot, prev, multipliers) in enumerate(steps):
        column[r], column[swap] = column[swap], column[r]
        top = column[r]
        for i, m in multipliers:
            column[i] = (pivot * column[i] - m * top) // prev
    return column


def _product(rows: Sequence[Sequence[int]], vector: Sequence[int]) -> list[int]:
    """``rows`` times ``vector``, over the vector's length of each row."""
    return [sum(map(mul, row, vector)) for row in rows]


def solve_target_exponents(
    target: Dimension,
    params: Sequence[tuple[str, Dimension]],
    target_name: str = "y",
) -> ScalingRelation:
    """Find the unique exponents building ``target`` from the parameters.

    Raises :class:`InconsistentDimensionsError` when the target lies outside
    the rational span of the parameter dimensions (the combination is
    dimensionally impossible), and :class:`UnderdeterminedError` when the
    parameter dimensions are rationally dependent; the latter carries the
    number of free directions, i.e. the count of surplus dimensionless
    groups.  A target that is not a Dimension, and a parameter list that
    is empty or not ``(name, Dimension)`` pairs, raise
    :class:`RelationError`.
    """
    if not isinstance(target, Dimension):
        raise RelationError(f"target {target!r} is a {type(target).__name__}, not a Dimension")
    names, rows, common, _, pivots, last, steps = _eliminated(params)
    n = len(names)
    # rows is common * A.  With c = scale * common the lcm of common and
    # the target's denominator, c * t is integral, and rows y = c * t is
    # solved by y = scale * x.
    scale = math.lcm(common, target.denominator) // common
    factor = common * scale // target.denominator
    column = [v * factor for v in target.numerators]
    reduced = _reduce_column(steps, list(column))
    if any(reduced[len(pivots):]):
        raise InconsistentDimensionsError(
            f"target [{target}] is dimensionally impossible from "
            f"{', '.join(names)}"
        )
    if len(pivots) < n:
        raise UnderdeterminedError(n - len(pivots))
    # Full rank: pivot i sits in column i, so d y_i = reduced[i].
    solution = reduced[:n]
    if last < 0:
        last, solution = -last, [-v for v in solution]
    total = _product(rows, solution)
    if total != [last * v for v in column]:
        raise DerivationError(
            f"internal check failed: substitution gives "
            f"[{_dimension(*_reduced(tuple(total), common * scale * last))}], "
            f"expected [{target}]"
        )
    denominator = last * scale
    return ScalingRelation(
        target_name,
        {name: Fraction(v, denominator) for name, v in zip(names, solution)},
    )


def _normalize_group(vector: Sequence[int]) -> tuple[int, ...]:
    # The read-off vector has d at its free column and the echelon entries
    # elsewhere, which can share a factor: divide out the gcd, with the
    # sign that makes the first nonzero entry positive.
    g = math.gcd(*vector)
    if next(v for v in vector if v != 0) < 0:
        g = -g
    return tuple([v // g for v in vector])


def pi_basis(quantities: Sequence[tuple[str, Dimension]]) -> list[PiGroup]:
    """A basis for the dimensionless groups of the given quantities.

    Returns one normalized group per free direction of the dimension
    matrix (size n - rank); an empty list is a valid result.  Every group
    is verified exactly dimensionless before being returned.  Free
    variables are taken in input column order, so the basis is
    deterministic.  A list that is empty or not ``(name, Dimension)``
    pairs raises :class:`RelationError`.
    """
    names, rows, common, echelon, pivots, last, _ = _eliminated(quantities)
    basis = []
    for free in (c for c in range(len(names)) if c not in pivots):
        # d x_c + row[free] x_free = 0 for each pivot row: x_free = d.
        vector = [0] * len(names)
        vector[free] = last
        for row, c in zip(echelon, pivots):
            vector[c] = -row[free]
        group = PiGroup(names, _normalize_group(vector))
        total = _product(rows, group.exponents)
        if any(total):
            raise DerivationError(
                f"internal check failed: group {group.render()} has dimension "
                f"[{_dimension(*_reduced(tuple(total), common))}]"
            )
        basis.append(group)
    return basis


MonomialLike = Mapping[str, "int | str | Fraction"]


def _as_monomial(terms: MonomialLike) -> dict[str, Fraction]:
    if isinstance(terms, ScalingRelation):
        raise RelationError(
            "solve_balance takes bare monomials (name -> exponent mappings)"
        )
    return {name: _as_exponent(exp) for name, exp in terms.items()}


def solve_balance(
    lhs: MonomialLike, rhs: MonomialLike, solve_for: str
) -> ScalingRelation:
    """Isolate one name from a monomial balance ``lhs ~ rhs``.

    Moves everything to one side and solves for ``solve_for``, which must
    appear with nonzero net exponent.
    """
    net = _as_monomial(lhs)
    for name, exp in _as_monomial(rhs).items():
        net[name] = net.get(name, Fraction(0)) - exp
    if solve_for not in net:
        raise RelationError(f"{solve_for!r} does not appear in the balance")
    pivot = net.pop(solve_for)
    if pivot == 0:
        raise RelationError(
            f"{solve_for!r} has zero net exponent and cannot be isolated"
        )
    terms = {name: -exp / pivot for name, exp in net.items() if exp != 0}
    return ScalingRelation(solve_for, terms)


def chain(outer: ScalingRelation, inner: ScalingRelation) -> ScalingRelation:
    """Substitute ``inner`` into ``outer``.

    The inner target must appear among the outer terms; its exponent there
    multiplies every inner exponent, exactly.  Chaining with the identity
    relation is a no-op.
    """
    if inner.target not in outer.exponents:
        raise RelationError(
            f"cannot chain: {inner.target!r} does not appear in {outer.render()!r}"
        )
    terms: dict[str, Fraction] = {}
    for name, exp in outer.exponents.items():
        if name == inner.target:
            for inner_name, inner_exp in inner.exponents.items():
                terms[inner_name] = terms.get(inner_name, Fraction(0)) + exp * inner_exp
        else:
            terms[name] = terms.get(name, Fraction(0)) + exp
    return ScalingRelation(outer.target, terms)


def check_exponent_bound(beta, lower, upper) -> bool:
    """Strict bound check: lower < beta < upper.

    Pass exact ``Fraction`` values for exact boundary behaviour; Python
    compares mixed Fraction/float operands exactly.
    """
    if not lower < upper:
        raise RelationError(f"bound requires lower < upper, got {_number_text(lower)} "
                            f"and {_number_text(upper)}")
    return lower < beta < upper
