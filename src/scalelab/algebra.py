"""Dimensional derivation engine over exact rationals.

Solves for the unique exponent combination that builds a target dimension
from a parameter list, computes bases of dimensionless groups, and solves
and chains monomial scaling relations.  No floating point is involved in
a derivation (only :meth:`ScalingRelation.evaluate` touches magnitudes):
the elimination is fraction-free (Bareiss) over integers obtained
by clearing denominators row by row, and back-substitution works in exact
fractions.

Both derivations run the same path: echelon the dimension matrix, then
back-substitute with the free columns fixed.  A target dimension ``t`` is
one more column of the augmented matrix ``[A | t]``: if ``t`` becomes a
pivot the target is impossible; if fewer than ``n`` pivots fall in ``A``
there are ``n - rank`` free directions; otherwise fixing the target's
exponent at -1 leaves the unique exponents ``x`` of ``A x = t``.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DerivationError,
    InconsistentDimensionsError,
    RelationError,
    UnderdeterminedError,
)
from .units import (
    DIMENSIONLESS,
    Dimension,
    Quantity,
    _as_exponent,
    _render_monomial,
    coherent_unit,
)

__all__ = [
    "DimMatrix",
    "PiGroup",
    "ScalingRelation",
    "solve_target_exponents",
    "pi_basis",
    "solve_balance",
    "chain",
    "check_exponent_bound",
]


@dataclass(frozen=True)
class ScalingRelation:
    """A pure monomial law: target ~ product of names raised to exponents.

    Dimensionful prefactors are deliberately absent; only the exponents are
    scale-invariant content, so prefactors belong to whoever evaluates the
    relation, not to the relation itself.

    The target may appear among the terms only in the identity relation
    ``x ~ x^1``, which exists so that chaining with it is a no-op.
    """

    target: str
    exponents: dict[str, Fraction]

    def __post_init__(self):
        if not self.target:
            raise RelationError("relation target must be a non-empty name")
        cleaned: dict[str, Fraction] = {}
        for name, exp in self.exponents.items():
            frac = _as_exponent(exp)
            if frac != 0:
                cleaned[name] = frac
        if self.target in cleaned and cleaned != {self.target: Fraction(1)}:
            raise RelationError(
                f"target {self.target!r} may not appear among the terms"
            )
        object.__setattr__(self, "exponents", cleaned)

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

        The prefactor is a number or a quantity; the result's dimension is
        the prefactor's plus the exponent-weighted sum of the bound
        dimensions, as quantity arithmetic works it out.
        """
        unbound = [name for name in self.exponents if name not in bindings]
        if unbound:
            raise RelationError(
                f"cannot evaluate {self.render()!r}: no value for {', '.join(unbound)}"
            )
        result = Quantity(1.0, coherent_unit(DIMENSIONLESS)) * prefactor
        for name, exp in self.exponents.items():
            result = bindings[name] ** exp * result
        return result

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class PiGroup:
    """A dimensionless product of powers, in normalized integer form.

    Normalization: the exponent vector is scaled to the smallest integers
    with gcd 1 and its first nonzero entry positive.  A group and its
    reciprocal carry the same content; the convention just pins one of the
    two for deterministic rendering and exact test equality.
    """

    names: tuple[str, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.exponents):
            raise RelationError("names and exponents must align")
        nonzero = [e for e in self.exponents if e != 0]
        if not nonzero:
            raise RelationError("a dimensionless group must have a nonzero exponent")
        if math.gcd(*(abs(e) for e in nonzero)) != 1 or nonzero[0] <= 0:
            raise RelationError(
                f"exponents {self.exponents} are not in normalized form"
            )

    def render(self) -> str:
        return "pi: " + _render_monomial(self.names, self.exponents)

    def __str__(self) -> str:
        return self.render()


class DimMatrix:
    """Dimension exponents of named quantities, columns in input order.

    Rows are indexed by the base dimensions, columns by the quantities;
    entries are the quantities' exact exponents.
    """

    def __init__(self, quantities: Sequence[tuple[str, Dimension]]):
        names = [name for name, _ in quantities]
        if len(set(names)) != len(names):
            raise RelationError(f"duplicate quantity names in {names}")
        self.names: tuple[str, ...] = tuple(names)
        self.columns: tuple[tuple[Fraction, ...], ...] = tuple(
            dim.as_tuple() for _, dim in quantities
        )
        self._dimensions = tuple(dim for _, dim in quantities)

    @property
    def n_quantities(self) -> int:
        return len(self.names)

    def rows(self, extra: Dimension | None = None) -> list[list[Fraction]]:
        """Matrix rows (base dimension by quantity), optionally augmented."""
        n_rows = len(self.columns[0])
        out = []
        for r in range(n_rows):
            row = [col[r] for col in self.columns]
            if extra is not None:
                row.append(extra.as_tuple()[r])
            out.append(row)
        return out

    def dimension(self, index: int) -> Dimension:
        return self._dimensions[index]

    def rank(self) -> int:
        _, pivots = _fraction_free_echelon(self.rows())
        return len(pivots)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row scaled by the lcm of its denominators: same direction, integers."""
    lcm = math.lcm(*(entry.denominator for entry in row))
    return [entry.numerator * (lcm // entry.denominator) for entry in row]


def _fraction_free_echelon(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[int]], list[int]]:
    """Bareiss fraction-free row echelon of the rows, each cleared to integers.

    Pivot columns are chosen left to right over every column.  For an
    augmented ``[A | t]`` the last column is a pivot exactly when ``t`` is
    outside the span of ``A``'s columns, and the pivots left of it give the
    rank of ``A``.  Returns the echelon matrix and the pivot column indices.
    """
    matrix = [_integer_row(row) for row in rows]
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if matrix[i][c] != 0), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                matrix[i][j] = (
                    matrix[r][c] * matrix[i][j] - matrix[i][c] * matrix[r][j]
                ) // prev
            matrix[i][c] = 0
        prev = matrix[r][c]
        pivots.append(c)
        r += 1
    return matrix, pivots


def _back_substitute(
    echelon: list[list[int]], pivots: list[int], free_values: Mapping[int, Fraction]
) -> list[Fraction]:
    """Solve for the pivot variables given the free variables' values.

    Free columns missing from ``free_values`` are fixed at 0.
    """
    n_cols = len(echelon[0])
    solution = [Fraction(0)] * n_cols
    for col, value in free_values.items():
        solution[col] = value
    for row_index in range(len(pivots) - 1, -1, -1):
        pivot_col = pivots[row_index]
        row = echelon[row_index]
        acc = Fraction(0)
        for j in range(pivot_col + 1, n_cols):
            if row[j] != 0 and solution[j] != 0:
                acc += Fraction(row[j]) * solution[j]
        solution[pivot_col] = -acc / row[pivot_col]
    return solution


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
    groups.
    """
    if not params:
        raise RelationError("at least one parameter is required")
    matrix = DimMatrix(params)
    n = matrix.n_quantities
    echelon, pivots = _fraction_free_echelon(matrix.rows(extra=target))
    if n in pivots:
        raise InconsistentDimensionsError(
            f"target [{target}] is dimensionally impossible from "
            f"{', '.join(matrix.names)}"
        )
    if len(pivots) < n:
        raise UnderdeterminedError(n - len(pivots))
    solution = _back_substitute(echelon, pivots, {n: Fraction(-1)})[:n]
    total = _dimension_of(matrix, solution)
    if total != target:
        raise DerivationError(
            f"internal check failed: substitution gives [{total}], "
            f"expected [{target}]"
        )
    return ScalingRelation(target_name, dict(zip(matrix.names, solution)))


def _dimension_of(matrix: DimMatrix, exponents: Iterable) -> Dimension:
    """The dimension of the product of the matrix's quantities to these powers."""
    total = DIMENSIONLESS
    for index, exp in enumerate(exponents):
        total = total.combine(matrix.dimension(index), exp)
    return total


def _normalize_group(vector: Sequence[Fraction]) -> tuple[int, ...]:
    ints = _integer_row(vector)
    g = math.gcd(*ints)
    sign = -1 if next(v for v in ints if v != 0) < 0 else 1
    return tuple(sign * v // g for v in ints)


def pi_basis(quantities: Sequence[tuple[str, Dimension]]) -> list[PiGroup]:
    """A basis for the dimensionless groups of the given quantities.

    Returns one normalized group per free direction of the dimension
    matrix (size n - rank); an empty list is a valid result.  Every group
    is verified exactly dimensionless before being returned.  Free
    variables are taken in input column order, so the basis is
    deterministic.
    """
    if not quantities:
        raise RelationError("at least one quantity is required")
    matrix = DimMatrix(quantities)
    n = matrix.n_quantities
    echelon, pivots = _fraction_free_echelon(matrix.rows())
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        solution = _back_substitute(echelon, pivots, {free: Fraction(1)})
        group = PiGroup(matrix.names, _normalize_group(solution))
        total = _dimension_of(matrix, group.exponents)
        if not total.is_dimensionless:
            raise DerivationError(
                f"internal check failed: group {group.render()} has dimension [{total}]"
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
        raise RelationError(f"bound requires lower < upper, got {lower} and {upper}")
    return lower < beta < upper
