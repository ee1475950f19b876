"""Dimensional derivation engine over exact rationals.

Solves for the unique exponent combination that builds a target dimension
from a parameter list, computes bases of dimensionless groups, and solves
and chains monomial scaling relations.  No floating point is involved in
a derivation (only :meth:`ScalingRelation.evaluate` touches magnitudes):
the elimination is fraction-free over the integer numerators that each
:class:`~scalelab.units.Dimension` stores, scaled to one common
denominator for the whole matrix, and the substitution check is one
integer matrix-vector product.

A derivation is one elimination of ``[A | t]``: a column of ``A`` per
parameter and, when solving, the target ``t`` as one more column, which
every step reduces but none takes as its pivot.  The elimination is
Gauss-Jordan with the Bareiss update and ends in a reduced echelon form
whose pivots all equal the last pivot ``d``.  If the reduced ``t`` is
nonzero below the rank the target is impossible; if the rank is below
``n`` there are ``n - rank`` free directions; otherwise the unique
exponents of ``A x = t`` are the reduced ``t`` over ``d``.  The group of a
free column ``f`` is read off the same echelon: ``x_f = d``, and each
pivot variable is minus its row's entry in column ``f``.  Every answer is
checked by substitution on each call.

Everything here is a pure function over immutable values.  The state is
a bounded cache of evaluation plans per relation shape, keyed by value,
and a memo of the last parameter list eliminated for a target, which
:func:`pi_basis` reads when it is called on that list next, as a derive
does.  Both hold immutable results, and the memo is one tuple rebound at
once, so they are safe to share across threads.
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


# The last parameter list eliminated for a target, and its elimination.
_memo: tuple = ((), None)


def _elimination(params, target: Dimension | None = None):
    """Fraction-free Gauss-Jordan elimination of ``[A | t]``.

    ``params`` is any iterable of ``(name, Dimension)`` pairs, one column
    of ``A`` each, and ``target``, if given, is the column ``t`` after
    them.  An empty list raises :class:`RelationError`, as do a repeated
    name and an entry that is not such a pair, whose name is not hashable
    or whose dimension has no integer form (``numerators`` and
    ``denominator``), naming that entry.  Row ``r`` of the integer matrix
    holds ``common`` times each column's exponent of base dimension ``r``,
    ``common`` the lcm of the denominators; one factor for the whole
    matrix leaves its row space and null space as they are.  Pivot columns
    are chosen left to right among the parameters; ``t`` is reduced by
    every step but is never a pivot.

    Each pivot step applies the Bareiss update
    ``row[j] = (pivot * row[j] - m * top[j]) // prev`` to every other row,
    above the pivot row as well as below, ``m`` being that row's entry in
    the pivot column; every division is exact.  At the end each pivot
    column is zero but for its pivot, and every pivot equals the last one,
    ``d`` (1 when there is none).

    Returns ``(names, rows, common, echelon, pivots, d)``: the names, the
    scaled rows, ``common``, the reduced echelon rows, the pivot column
    indices and ``d``, each an immutable tuple, the rows and echelon rows
    with ``t`` last when there is a target.  An elimination for a target
    is kept as the memo; without a target, the memo's is returned when
    its list is the same.
    """
    global _memo
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
    key = tuple(key)
    memo = _memo
    if target is None and memo[0] == key:
        return memo[1]
    names = [name for name, _, _ in key]
    if len(set(names)) != len(names):
        raise RelationError(f"duplicate quantity names in {names}")
    columns = [(nums, d) for _, nums, d in key]
    if target is not None:
        columns.append((target.numerators, target.denominator))
    common = math.lcm(*[d for _, d in columns])
    rows = tuple(zip(*[nums if d == common else [n * (common // d) for n in nums]
                       for nums, d in columns]))
    matrix = [list(row) for row in rows]
    pivots = []
    prev = 1
    for c in range(len(names)):
        r = len(pivots)
        for swap in range(r, len(matrix)):
            if matrix[swap][c]:
                break
        else:
            continue
        matrix[r], matrix[swap] = matrix[swap], matrix[r]
        top = matrix[r]
        pivot = top[c]
        for i, row in enumerate(matrix):
            m = row[c]
            if i != r and (m or pivot != prev and any(row)):  # else the row stays as it is
                matrix[i] = [(pivot * a - m * b) // prev for a, b in zip(row, top)]
        prev = pivot
        pivots.append(c)
    elimination = tuple(names), rows, common, tuple(map(tuple, matrix)), tuple(pivots), prev
    if target is not None:
        _memo = key, elimination
    return elimination


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
    names, rows, common, echelon, pivots, last = _elimination(params, target)
    n = len(names)
    if any(row[n] for row in echelon[len(pivots):]):
        raise InconsistentDimensionsError(
            f"target [{target}] is dimensionally impossible from "
            f"{', '.join(names)}"
        )
    if len(pivots) < n:
        raise UnderdeterminedError(n - len(pivots))
    # Full rank: pivot i sits in column i, so d x_i is row i's entry in t.
    solution = [row[n] for row in echelon[:n]]
    if last < 0:
        last, solution = -last, [-v for v in solution]
    total = _product(rows, solution)
    if total != [last * row[n] for row in rows]:
        raise DerivationError(
            f"internal check failed: substitution gives "
            f"[{_dimension(*_reduced(tuple(total), common * last))}], "
            f"expected [{target}]"
        )
    return ScalingRelation(
        target_name, {name: Fraction(v, last) for name, v in zip(names, solution)}
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
    names, rows, common, echelon, pivots, last = _elimination(quantities)
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
