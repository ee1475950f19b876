"""Log-space least-squares fitting of power laws, with diagnostics.

A power law ``y = C x^beta`` is fitted by ordinary least squares on
logarithms of dimensionless ratios: ``log(y/y0) = alpha + beta log(x/x0)``,
optionally extended with a quadratic term ``gamma log^2(x/x0)`` and with
linear covariates (entered as pure numbers relative to their reference
unit, not logged).  The reference units are part of the model: without
them the coefficients have no meaning, and changing them transforms the
coefficients in a way this module implements and checks.

:func:`fit` is the fit entry point: ``fit(ds, spec)`` fits the model that
a :class:`ModelSpec` describes.  ``fit_power_law``, ``fit_quadratic_log``
and ``fit_with_covariates`` delegate to it.

One solver, :func:`_solve`, fits a column-equilibrated design through a QR
decomposition rather than the raw normal equations; squared-log regressors
are nearly collinear with log regressors on narrow ranges, and that route
keeps them well conditioned.  It makes every decision on the parameters
once, on Python floats; only the work that grows with the row count runs
in one of two kernels, chosen by the size of the design.

Columns are stored as 8-byte floats in ``array('d')``.  A design of fewer
than ``_NUMPY_ENTRIES`` entries, rows times parameters, goes to
:class:`_FloatKernel`: modified Gram-Schmidt on Python floats, dot products
summed by ``math.fsum``, which on the augmented matrix ``[X | y]`` is
backward stable for least squares (Bjorck, *Numerical Methods for Least
Squares Problems*, 1996, section 2.4).  So a fit of a small table never
imports numpy.  A larger one goes to :class:`_NumpyKernel`, Householder QR
through ``numpy.linalg.qr``, where the stdlib column work alone would cost
a quarter of a second per column at 1e6 rows.

Fitting is a pure function of (DataSet, ModelSpec); datasets are frozen at
construction, so fits may run concurrently without coordination.

A note on residual weighting, worked through by
:func:`residual_distance_ratio`: multiplicative errors are symmetric in log
space but not in natural space.  A doubling and a halving deserve equal
weight, and ``|log 2| == |log 1/2|`` grants it, while the natural-space
deviations differ: ``2 - 1 > 1 - 1/2``.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import (
    CollinearityError,
    DataError,
    DimensionMismatchError,
)
from .units import Quantity, Unit, _Value, convert, log_ratio

if TYPE_CHECKING:
    import numpy

# A fit whose design has at least this many entries, rows times parameters,
# is checked and solved in numpy; a smaller one on Python floats.  A fresh
# ``fit --json`` took as long either way at about 85,000, 55,000 and 31,000
# rows for 2, 3 and 5 parameters: about this many entries each time.
_NUMPY_ENTRIES = 160_000
_EPS = sys.float_info.epsilon

__all__ = [
    "Column",
    "DataSet",
    "ModelSpec",
    "CovariateCoefficient",
    "FitResult",
    "fit",
    "fit_power_law",
    "fit_with_covariates",
    "fit_quadratic_log",
    "transform_under_unit_change",
    "residual_distance_ratio",
]


class Column(NamedTuple):
    """A column's magnitudes, a read-only view of 8-byte floats, and its unit."""

    data: memoryview
    unit: Unit

    @property
    def values(self) -> numpy.ndarray:
        """The magnitudes as a read-only float64 ndarray over ``data``; this
        imports numpy."""
        import numpy as np

        return np.frombuffer(self.data, dtype=float)


class DataSet:
    """Named columns of finite magnitudes, each bound to one unit.

    Columns are copied into 8-byte floats and frozen at construction; a
    dataset never changes after it is built.  A NaN or infinite value is a
    :class:`DataError` naming its column and row.
    """

    def __init__(self, columns: Mapping[str, tuple[Sequence[float], Unit]]):
        if not columns:
            raise DataError("a dataset needs at least one column")
        self._columns: dict[str, Column] = {}
        n = None
        for name, (values, unit) in columns.items():
            data = _float_array(name, values)
            if n is None:
                n = len(data)
            elif len(data) != n:
                raise DataError(
                    f"column {name!r} has {len(data)} rows, expected {n}"
                )
            if not all(map(math.isfinite, data)):
                row = next(i for i, value in enumerate(data) if not math.isfinite(value))
                raise DataError(
                    f"column {name!r}, row {row}: {data[row]!r} is not a finite number"
                )
            self._columns[name] = Column(memoryview(data).toreadonly(), unit)
        self.n = n

    def __reduce__(self):  # a memoryview does not pickle; the array under it does
        return DataSet, ({name: (col.data.obj, col.unit) for name, col in self._columns.items()},)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def __len__(self) -> int:
        return self.n


def _float_array(name: str, values) -> array:
    """A copy of ``values`` as 8-byte floats.

    A flat list, tuple, array or float memoryview of numbers is copied as
    it is; numpy reads any other input (an ndarray, a nested list, text),
    and a result that is not one-dimensional is a DataError.
    """
    if isinstance(values, memoryview) and values.format == "d" and values.ndim == 1:
        return array("d", values.tobytes())
    if isinstance(values, (list, tuple, array)):
        try:
            return array("d", values)
        except TypeError:  # a nested list, or an entry that is not a number
            pass
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DataError(f"column {name!r} must be one-dimensional")
    return array("d", values.tobytes())


class ModelSpec(_Value):
    """What to fit: response and log predictor with their reference units,
    an optional quadratic-in-log term, and linear covariates."""

    __slots__ = ("response", "response_reference", "predictor", "predictor_reference",
                 "include_quadratic", "covariates")

    def __init__(self, response: str, response_reference: Unit, predictor: str,
                 predictor_reference: Unit, include_quadratic: bool = False,
                 covariates: tuple[tuple[str, Unit], ...] = ()):
        self.__setstate__((response, response_reference, predictor, predictor_reference,
                           include_quadratic, covariates))


class CovariateCoefficient(NamedTuple):
    name: str
    value: float
    stderr: float


class FitResult(_Value):
    """Coefficients, their covariance, fit quality, and the reference units
    that fix what the coefficients mean.

    ``coefficients`` (alpha, beta, then gamma if the spec is quadratic, then
    a delta per kept covariate) and ``coefficient_covariance`` are the only
    coefficient state; the named coefficients are read from them.  Both,
    and ``residuals_log``, are tuples of floats, the covariance a tuple of
    rows, whatever sequences they are built from.

    ``residual_scale`` is the largest log response magnitude plus, for each
    coefficient, the largest magnitude of its term in the design; the
    rounding error of the residuals, and so of their sum, scales with it.
    """

    __slots__ = ("coefficients", "coefficient_covariance", "r_squared", "residuals_log", "n",
                 "reference_units", "residual_scale", "dropped_covariates")
    __eq__, __hash__ = object.__eq__, object.__hash__  # a fit is equal only to itself

    def __init__(self, coefficients: Sequence[float],
                 coefficient_covariance: Sequence[Sequence[float]], r_squared: float,
                 residuals_log: Sequence[float], n: int, reference_units: ModelSpec,
                 residual_scale: float, dropped_covariates: tuple[str, ...] = ()):
        self.__setstate__((coefficients, coefficient_covariance, r_squared, residuals_log, n,
                           reference_units, residual_scale, dropped_covariates))
        if not 0.0 <= r_squared <= 1.0:
            raise DataError(f"r_squared {r_squared} outside [0, 1]")
        # With an intercept the residuals sum to zero up to the forward
        # error of computing and adding n of them; written so NaN fails.
        try:
            total = math.fsum(self.residuals_log)
        except (OverflowError, ValueError):  # the terms overflow, or hold inf and -inf
            total = sum(self.residuals_log)
        bound = 16 * n * _EPS * residual_scale
        if not abs(total) <= bound:
            raise DataError(
                f"residuals sum to {total:.3g}, beyond the rounding bound "
                f"{bound:.3g}; intercept fit failed"
            )

    def __setstate__(self, values) -> None:  # so copies and pickles hold tuples too
        if isinstance(values, dict):  # pickled when the class was a dataclass
            values = [values[name] for name in self.__match_args__]
        coefficients, covariance, r_squared, residuals, *rest = values
        super().__setstate__((_floats(coefficients), tuple(map(_floats, covariance)),
                              r_squared, _floats(residuals), *rest))

    def _stderr(self, i: int) -> float:
        return math.sqrt(self.coefficient_covariance[i][i])

    @property
    def p(self) -> int:
        return len(self.coefficients)

    @property
    def alpha(self) -> float:
        return self.coefficients[0]

    @property
    def beta(self) -> float:
        return self.coefficients[1]

    @property
    def se_beta(self) -> float:
        return self._stderr(1)

    @property
    def gamma(self) -> float | None:
        return self.coefficients[2] if self.reference_units.include_quadratic else None

    @property
    def se_gamma(self) -> float | None:
        return self._stderr(2) if self.reference_units.include_quadratic else None

    @property
    def covariate_coefficients(self) -> tuple[CovariateCoefficient, ...]:
        spec = self.reference_units
        kept = [name for name, _ in spec.covariates if name not in self.dropped_covariates]
        return tuple(
            CovariateCoefficient(name, self.coefficients[i], self._stderr(i))
            for i, name in enumerate(kept, start=3 if spec.include_quadratic else 2)
        )

    def coefficient_vector(self) -> list[float]:
        """A writable copy of ``coefficients``."""
        return list(self.coefficients)

    def coefficient_labels(self) -> tuple[str, ...]:
        labels = ["alpha", "beta"]
        if self.gamma is not None:
            labels.append("gamma")
        labels.extend(f"delta[{c.name}]" for c in self.covariate_coefficients)
        return tuple(labels)

    def predicted_log(self, u: float) -> float:
        """Model value of log(y/y0) at log(x/x0) = u."""
        value = self.alpha + self.beta * u
        if self.gamma is not None:
            value += self.gamma * u * u
        return value

    def predict(self, x: Quantity) -> Quantity:
        """Fitted response at x, as a quantity in the response reference unit.

        Only defined for fits without covariates (there is no single fitted
        curve otherwise).
        """
        if self.covariate_coefficients:
            raise DataError("predict is only defined for covariate-free fits")
        spec = self.reference_units
        u = log_ratio(x, Quantity(1.0, spec.predictor_reference))
        return Quantity(math.exp(self.predicted_log(u)), spec.response_reference)

    def report_fields(self) -> list[tuple[str, object]]:
        """Flat key-value view in deterministic order."""
        spec = self.reference_units
        labels = self.coefficient_labels()
        # alpha's standard error is not reported.
        fields: list[tuple[str, object]] = [("alpha", self.alpha)]
        for i in range(1, self.p):
            fields.append((labels[i], self.coefficients[i]))
            fields.append((f"se_{labels[i]}", self._stderr(i)))
        fields.extend(
            [
                ("r_squared", self.r_squared),
                ("n", self.n),
                ("p", self.p),
                ("y", spec.response),
                ("y0", spec.response_reference.symbol),
                ("x", spec.predictor),
                ("x0", spec.predictor_reference.symbol),
            ]
        )
        for name, unit in spec.covariates:
            fields.append((f"covariate[{name}]", unit.symbol))
        return fields

    def report(self) -> str:
        """One ``key = value`` line per report field, floats to 6 significant digits."""
        lines = []
        for key, value in self.report_fields():
            if isinstance(value, float):
                lines.append(f"{key} = {value:.6g}")
            else:
                lines.append(f"{key} = {value}")
        return "\n".join(lines)


def _floats(values) -> tuple[float, ...]:
    if type(values) is tuple and set(map(type, values)) <= {float}:
        return values
    return tuple(map(float, values))


def _numpy_for(rows: int, columns: int):
    """The numpy module for work on ``rows`` by ``columns`` values if there
    are ``_NUMPY_ENTRIES`` of them or more, else None."""
    if rows * columns < _NUMPY_ENTRIES:
        return None
    import numpy

    return numpy


def _ratio_column(ds: DataSet, name: str, reference: Unit, what: str, np=None):
    """Column ``name`` as pure numbers: its values over the reference unit.

    A list of floats, or an ndarray when ``np`` is the numpy module.  A
    value that leaves the float range in the reference unit, infinite or
    nonzero turned 0, is a DataError naming its column, row and both units.
    """
    col = ds.column(name)
    if col.unit.dimension != reference.dimension:
        raise DimensionMismatchError(
            col.unit.dimension, reference.dimension, f"{what} column {name!r}"
        )
    factor = col.unit.scale / reference.scale
    if np is None:
        ratios = [value * factor for value in col.data]
        row = None
        if not all(map(math.isfinite, ratios)) or 0.0 in ratios:
            row = next((i for i, (value, ratio) in enumerate(zip(col.data, ratios))
                        if not math.isfinite(ratio) or (ratio == 0 and value != 0)), None)
    else:
        values = col.values
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = values * factor
        bad = np.flatnonzero(~np.isfinite(ratios) | ((ratios == 0) & (values != 0)))
        row = int(bad[0]) if bad.size else None
    if row is not None:
        ending = "underflows a float to 0" if ratios[row] == 0 else "overflows a float"
        raise DataError(
            f"column {name!r}, row {row}: {col.data[row]:g} {col.unit.symbol} "
            f"to {reference.symbol} {ending}"
        )
    return ratios


def _log_ratio_column(ds: DataSet, name: str, reference: Unit, what: str, np=None):
    """The log of :func:`_ratio_column`, which must be positive."""
    ratios = _ratio_column(ds, name, reference, what, np)
    if np is None:
        row = next((i for i, ratio in enumerate(ratios) if not ratio > 0), None)
    else:
        bad = np.flatnonzero(~(ratios > 0))
        row = int(bad[0]) if bad.size else None
    if row is not None:
        raise DataError(
            f"column {name!r}, row {row}: value must be strictly "
            f"positive to take a log, got {ds.column(name).data[row]}"
        )
    return list(map(math.log, ratios)) if np is None else np.log(ratios)


def _dot(a, b) -> float:
    return math.fsum(map(operator.mul, a, b))


def _project(q: list[list[float]], v: list[float],
             coef: list[float] | None = None) -> tuple[list[float], list[float]]:
    """The coefficients, and what is left of ``v`` once each column of ``q``
    times its coefficient is taken away in turn.  The coefficients are
    ``coef`` or, by default, modified Gram-Schmidt's ``Q^T v``: each is the
    dot product of its column with what the earlier ones left."""
    components = []
    for k, column in enumerate(q):
        h = _dot(column, v) if coef is None else coef[k]
        components.append(h)
        v = [b - h * a for a, b in zip(column, v)]
    return components, v


def _back_substitute(r: list[list[float]], z: list[float]) -> list[float]:
    """The solution of ``R x = z`` for upper-triangular ``R``."""
    x = [0.0] * len(z)
    for i in reversed(range(len(z))):
        x[i] = (z[i] - _dot(r[i][i + 1:], x[i + 1:])) / r[i][i]
    return x


class _FloatKernel:
    """The work of :func:`_solve` that grows with the row count, on lists of
    Python floats: modified Gram-Schmidt, twice per column so that Q stays
    orthogonal to working precision."""

    def __init__(self, y: list[float], columns: list[list[float]]):
        self.y, self.design = y, [[1.0] * len(y), *columns]
        self.norms = [math.hypot(*column) for column in self.design]
        self.largest = [max(map(abs, column)) for column in (y, *self.design)]
        mean = math.fsum(y) / len(y)
        deviations = [v - mean for v in y]
        self.tss = _dot(deviations, deviations)

    def factor(self) -> tuple[list[list[float]], list[float]]:
        """R of the design with each column divided by its norm, and
        ``Q^T y``."""
        self.scaled = [[value / norm for value in column]
                       for column, norm in zip(self.design, self.norms)]
        self.q: list[list[float]] = []
        r = [[0.0] * len(self.norms) for _ in self.norms]
        for j, column in enumerate(self.scaled):
            for _ in range(2):
                components, column = _project(self.q, column)
                for k, h in enumerate(components):
                    r[k][j] += h
            r[j][j] = math.hypot(*column)
            self.q.append([value / r[j][j] for value in column] if r[j][j] else column)
        return r, _project(self.q, self.y)[0]

    def correction(self, coef: list[float]) -> list[float]:
        """``Q^T (y - X coef)``, for ``X`` the design that :meth:`factor` factored."""
        return _project(self.q, _project(self.scaled, self.y, coef)[1])[0]

    def residuals(self, coef: list[float]) -> tuple[tuple[float, ...], float]:
        """``y - X coef`` for the design ``X``, and its sum of squares."""
        residuals = _project(self.design, self.y, coef)[1]
        return tuple(residuals), _dot(residuals, residuals)


class _NumpyKernel:
    """:class:`_FloatKernel` on float64 ndarrays: Householder QR through
    ``numpy.linalg.qr``, whose R may have negative diagonal entries."""

    def __init__(self, y: numpy.ndarray, columns: list[numpy.ndarray]):
        import numpy as np

        self.y, self.design = y, np.column_stack([np.ones(len(y)), *columns])
        self.norms = list(map(math.sqrt, (self.design * self.design).sum(axis=0).tolist()))
        self.largest = [float(abs(y).max()), *abs(self.design).max(axis=0).tolist()]
        deviations = y - y.mean()
        self.tss = float(deviations @ deviations)

    def factor(self) -> tuple[list[list[float]], list[float]]:
        """As :meth:`_FloatKernel.factor`, dividing the design in place."""
        import numpy as np

        self.design /= self.norms
        self.q, r = np.linalg.qr(self.design)
        return r.tolist(), (self.q.T @ self.y).tolist()

    def correction(self, coef: list[float]) -> list[float]:
        return (self.q.T @ (self.y - self.design @ coef)).tolist()

    def residuals(self, coef: list[float]) -> tuple[tuple[float, ...], float]:
        """As :meth:`_FloatKernel.residuals`, from the scaled design."""
        residuals = self.y - self.design @ [c * norm for c, norm in zip(coef, self.norms)]
        return tuple(residuals.tolist()), float(residuals @ residuals)


def _solve(y, columns, labels: Sequence[str], kernel):
    """Least squares of ``y`` on an intercept and ``columns`` (parameters
    ``labels``), ``kernel`` doing the row work: coefficients and covariance
    as lists, residuals as a tuple, ``residual_scale`` and r^2."""
    n, p = len(y), len(labels)
    work = kernel(y, columns)
    zero = [label for label, norm in zip(labels, work.norms) if norm == 0]
    if zero:
        raise CollinearityError(zero)
    r, z = work.factor()
    diagonal = [abs(row[j]) for j, row in enumerate(r)]
    tol = max(n, p) * _EPS * max(diagonal)
    offenders = [label for label, d in zip(labels, diagonal) if d <= tol]
    if offenders:
        raise CollinearityError(offenders)

    coef = _back_substitute(r, z)
    # One step of iterative refinement.  Against the exact least-squares
    # answer on 42 seeded designs of 300 rows, dropping it leaves the worst
    # error (5e-10 on floats, 5e-9 in numpy: narrow-range quadratics) as it
    # is, but raises the median 3x on floats and 8x in numpy, one design's
    # error up to 81x, and one of five 2e5-row fits at log magnitudes near
    # 60 then fails the residual-sum check.
    correction = _back_substitute(r, work.correction(coef))
    coef = [(c + d) / norm for c, d, norm in zip(coef, correction, work.norms)]
    residuals, rss = work.residuals(coef)

    inverse = [_back_substitute(r, [float(i == j) for i in range(p)]) for j in range(p)]
    covariance = [[rss / (n - p) * math.fsum(col[i] * col[k] for col in inverse)
                   / (work.norms[i] * work.norms[k]) for k in range(p)] for i in range(p)]
    largest_y, *largest = work.largest
    residual_scale = largest_y + math.fsum(m * abs(c) for m, c in zip(largest, coef))
    r_squared = 1.0 if work.tss == 0 else 1.0 - rss / work.tss
    return coef, covariance, residuals, residual_scale, r_squared


def fit(ds: DataSet, spec: ModelSpec) -> FitResult:
    """OLS fit of ``log(y/y0) = alpha + beta log(x/x0)``, with the
    ``gamma log^2(x/x0)`` term if ``spec.include_quadratic`` and one linear
    term per covariate in ``spec.covariates``.

    Covariates enter the design as pure numbers (value over reference unit),
    not logged, so each fitted coefficient is an exponential rate per
    covariate unit: the model is
    ``y ~ x^beta * exp(delta * c/c0) * ...``.  A covariate column that is
    identically zero is dropped and listed in ``dropped_covariates``.  A
    response column that is also the predictor or a covariate raises
    :class:`DataError`: a column regressed on itself fits perfectly.

    A design of ``_NUMPY_ENTRIES`` entries or more, counting every
    covariate of the spec, is factored by the numpy kernel, a smaller one
    by the float kernel; the two agree to rounding.
    """
    if spec.response == spec.predictor:
        raise DataError(f"column {spec.response!r} is both the response and the predictor")
    if any(name == spec.response for name, _ in spec.covariates):
        raise DataError(f"column {spec.response!r} is both the response and a covariate")
    np = _numpy_for(ds.n, 2 + spec.include_quadratic + len(spec.covariates))
    y = _log_ratio_column(ds, spec.response, spec.response_reference, "response", np)
    u = _log_ratio_column(ds, spec.predictor, spec.predictor_reference, "predictor", np)

    columns = [u]
    labels = ["alpha", "beta"]
    if spec.include_quadratic:
        columns.append([v * v for v in u] if np is None else u * u)
        labels.append("gamma")
    dropped: list[str] = []
    for name, reference in spec.covariates:
        values = _ratio_column(ds, name, reference, "covariate", np)
        if not (any(values) if np is None else values.any()):
            # An identically zero covariate contributes nothing; drop it so
            # the remaining fit matches the covariate-free model exactly.
            dropped.append(name)
            continue
        columns.append(values)
        labels.append(f"delta[{name}]")

    p = len(columns) + 1
    minimum = max(3, p + 1)
    if ds.n < minimum:
        raise DataError(
            f"need at least {minimum} rows to fit {p} parameters, got {ds.n}"
        )
    if (max(u) - min(u) if np is None else np.ptp(u)) == 0:
        raise DataError(
            f"predictor {spec.predictor!r} has zero variance in log space"
        )

    kernel = _FloatKernel if np is None else _NumpyKernel
    coef, covariance, residuals, residual_scale, r_squared = _solve(y, columns, labels, kernel)
    return FitResult(
        coefficients=coef,
        coefficient_covariance=covariance,
        r_squared=min(1.0, max(0.0, r_squared)),
        residuals_log=residuals,
        n=ds.n,
        reference_units=spec,
        residual_scale=residual_scale,
        dropped_covariates=tuple(dropped),
    )


def fit_power_law(ds: DataSet, spec: ModelSpec) -> FitResult:
    """:func:`fit` restricted to a plain spec."""
    if spec.include_quadratic or spec.covariates:
        raise DataError(
            "fit_power_law takes a plain spec; use fit_quadratic_log or "
            "fit_with_covariates"
        )
    return fit(ds, spec)


def fit_with_covariates(ds: DataSet, spec: ModelSpec) -> FitResult:
    """:func:`fit` under the name of the covariate model."""
    return fit(ds, spec)


def fit_quadratic_log(ds: DataSet, spec: ModelSpec) -> FitResult:
    """:func:`fit` with the quadratic term switched on."""
    if not spec.include_quadratic:
        spec = ModelSpec(spec.response, spec.response_reference, spec.predictor,
                         spec.predictor_reference, True, spec.covariates)
    return fit(ds, spec)


def transform_under_unit_change(fit: FitResult, new_reference: Unit) -> FitResult:
    """Re-express a fit against a new predictor reference unit, exactly.

    With ``shift = log(x0_new / x0_old)``, computed as a difference of logs
    so that a ratio beyond the float range still gives a finite shift, the
    log abscissa translates as
    ``log(x/x0_new) = log(x/x0_old) - shift`` and the coefficients become

    ``alpha -> alpha + beta*shift + gamma*shift^2``
    ``beta  -> beta + 2*gamma*shift``
    ``gamma -> gamma``

    which matches refitting the same data under the new unit.  Fitted
    values, residuals, and r_squared are unchanged: for a pure power law
    (gamma = 0) the slope is invariant and only the intercept moves, while
    a quadratic's linear coefficient genuinely depends on the choice of
    unit.  Standard errors transform with the same linear map.
    """
    spec = fit.reference_units
    old = spec.predictor_reference
    if new_reference.dimension != old.dimension:
        raise DimensionMismatchError(
            new_reference.dimension, old.dimension, "new predictor reference"
        )
    shift = math.log(new_reference.scale) - math.log(old.scale)

    transform = [[float(i == j) for j in range(fit.p)] for i in range(fit.p)]
    transform[0][1] = shift
    if spec.include_quadratic:
        transform[0][2] = shift * shift
        transform[1][2] = 2.0 * shift
    transformed = [[_dot(row, column) for column in zip(*fit.coefficient_covariance)]
                   for row in transform]

    moved = ModelSpec(spec.response, spec.response_reference, spec.predictor, new_reference,
                      spec.include_quadratic, spec.covariates)
    return FitResult([_dot(row, fit.coefficients) for row in transform],
                     [[_dot(row, t) for t in transform] for row in transformed],
                     fit.r_squared, fit.residuals_log, fit.n, moved, fit.residual_scale,
                     fit.dropped_covariates)


def residual_distance_ratio(
    point_a: tuple[Quantity, Quantity],
    point_b: tuple[Quantity, Quantity],
    fit: FitResult,
    space: str = "log",
) -> float:
    """|residual at A| / |residual at B| under a pure power-law fit.

    In log space the residual is ``log(y_obs / y_fit)``; in natural space it
    is ``y_obs - y_fit`` taken in the response reference unit.  The choice
    decides which point counts as the outlier; see the module docstring.

    In both spaces a point lies on the fit when its log residual is within
    the rounding error of one residual, ``16 eps`` times the fit's
    ``residual_scale``: a residual that small is rounding noise.  If B is on
    the fit the ratio is undefined, a DataError; else, if A is, it is 0.
    """
    if space not in ("log", "natural"):
        raise DataError(f"space must be 'log' or 'natural', got {space!r}")
    if fit.p != 2:
        raise DataError("residual_distance_ratio requires a pure power-law fit")

    fitted = [(y_observed, fit.predict(x)) for x, y_observed in (point_a, point_b)]
    res_a, res_b = (log_ratio(y_observed, y_fit) for y_observed, y_fit in fitted)
    on_fit = 16 * _EPS * fit.residual_scale
    if abs(res_b) <= on_fit:
        raise DataError("point B lies on the fit, to rounding; the ratio is undefined")
    if abs(res_a) <= on_fit:
        return 0.0
    if space == "natural":
        res_a, res_b = (convert(y_observed, y_fit.unit).magnitude - y_fit.magnitude
                        for y_observed, y_fit in fitted)
    return abs(res_a) / abs(res_b)
