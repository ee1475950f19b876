"""An exact least-squares oracle for ``regression.fit``.

Every float is a rational number, so the design a fit builds has one exact
least-squares solution: the solution of the normal equations
``X^T X b = X^T y`` in rational arithmetic.  A solver's error is its
distance from that answer, whatever path it took.  Standard library only.
"""

from fractions import Fraction


def exact_least_squares(y, columns):
    """The exact coefficients, as Fractions, of floats ``y`` regressed on an
    intercept and the float ``columns``."""
    design = [[Fraction(1)] * len(y), *([Fraction(v) for v in column] for column in columns)]
    response = [Fraction(v) for v in y]
    # The augmented normal equations [X^T X | X^T y], then Gauss-Jordan
    # elimination; X^T X is positive definite for a full-rank design, so
    # every pivot is nonzero.
    rows = [[sum(a * b for a, b in zip(row, column)) for column in (*design, response)]
            for row in design]
    p = len(rows)
    for k in range(p):
        pivot = rows[k][k]
        rows[k] = [value / pivot for value in rows[k]]
        for i in range(p):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [row[p] for row in rows]
