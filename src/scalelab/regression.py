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

The solver works on a column-equilibrated design matrix through a QR
decomposition rather than the raw normal equations; squared-log regressors
are nearly collinear with log regressors on narrow ranges, and that route
keeps them well conditioned.

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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CollinearityError,
    DataError,
    DimensionMismatchError,
)
from .units import Quantity, Unit, _Value, convert, log_ratio

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
    values: np.ndarray
    unit: Unit


class DataSet:
    """Named columns of finite magnitudes, each bound to one unit.

    Arrays are copied and frozen at construction; a dataset never changes
    after it is built.  A NaN or infinite value is a :class:`DataError`
    naming its column and row.
    """

    def __init__(self, columns: Mapping[str, tuple[Sequence[float], Unit]]):
        if not columns:
            raise DataError("a dataset needs at least one column")
        self._columns: dict[str, Column] = {}
        n = None
        for name, (values, unit) in columns.items():
            arr = np.asarray(values, dtype=float).copy()
            if arr.ndim != 1:
                raise DataError(f"column {name!r} must be one-dimensional")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DataError(
                    f"column {name!r} has {arr.size} rows, expected {n}"
                )
            finite = np.isfinite(arr)
            if not finite.all():
                row = int(np.argmin(finite))
                raise DataError(
                    f"column {name!r}, row {row}: {float(arr[row])!r} is not a finite number"
                )
            arr.setflags(write=False)
            self._columns[name] = Column(arr, unit)
        self.n = int(n)

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
    coefficient state; the named coefficients are read from them.

    ``residual_scale`` is the largest log response magnitude plus, for each
    coefficient, the largest magnitude of its term in the design; the
    rounding error of the residuals, and so of their sum, scales with it.
    """

    __slots__ = ("coefficients", "coefficient_covariance", "r_squared", "residuals_log", "n",
                 "reference_units", "residual_scale", "dropped_covariates")
    __eq__, __hash__ = object.__eq__, object.__hash__  # it holds arrays

    def __init__(self, coefficients: np.ndarray, coefficient_covariance: np.ndarray,
                 r_squared: float, residuals_log: np.ndarray, n: int,
                 reference_units: ModelSpec, residual_scale: float,
                 dropped_covariates: tuple[str, ...] = ()):
        if not 0.0 <= r_squared <= 1.0:
            raise DataError(f"r_squared {r_squared} outside [0, 1]")
        # With an intercept the residuals sum to zero up to the forward
        # error of computing and adding n of them; written so NaN fails.
        total = float(residuals_log.sum())
        bound = 16 * n * np.finfo(float).eps * residual_scale
        if not abs(total) <= bound:
            raise DataError(
                f"residuals sum to {total:.3g}, beyond the rounding bound "
                f"{bound:.3g}; intercept fit failed"
            )
        self.__setstate__((coefficients, coefficient_covariance, r_squared, residuals_log, n,
                           reference_units, residual_scale, dropped_covariates))

    def __setstate__(self, values) -> None:  # so copies and pickles stay read-only too
        super().__setstate__(values)
        for array in (self.coefficients, self.coefficient_covariance, self.residuals_log):
            array.setflags(write=False)

    def _stderr(self, i: int) -> float:
        return float(np.sqrt(self.coefficient_covariance[i, i]))

    @property
    def p(self) -> int:
        return len(self.coefficients)

    @property
    def alpha(self) -> float:
        return float(self.coefficients[0])

    @property
    def beta(self) -> float:
        return float(self.coefficients[1])

    @property
    def se_beta(self) -> float:
        return self._stderr(1)

    @property
    def gamma(self) -> float | None:
        return float(self.coefficients[2]) if self.reference_units.include_quadratic else None

    @property
    def se_gamma(self) -> float | None:
        return self._stderr(2) if self.reference_units.include_quadratic else None

    @property
    def covariate_coefficients(self) -> tuple[CovariateCoefficient, ...]:
        spec = self.reference_units
        kept = [name for name, _ in spec.covariates if name not in self.dropped_covariates]
        return tuple(
            CovariateCoefficient(name, float(self.coefficients[i]), self._stderr(i))
            for i, name in enumerate(kept, start=3 if spec.include_quadratic else 2)
        )

    def coefficient_vector(self) -> np.ndarray:
        """A writable copy of ``coefficients``."""
        return self.coefficients.copy()

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
            fields.append((labels[i], float(self.coefficients[i])))
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


def _ratio_column(ds: DataSet, name: str, reference: Unit, what: str) -> np.ndarray:
    """Column ``name`` as pure numbers: its values over the reference unit.

    A value that leaves the float range in the reference unit, infinite or
    nonzero turned 0, is a DataError naming its column, row and both units.
    """
    col = ds.column(name)
    if col.unit.dimension != reference.dimension:
        raise DimensionMismatchError(
            col.unit.dimension, reference.dimension, f"{what} column {name!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = col.values * (col.unit.scale / reference.scale)
    bad = np.nonzero(~np.isfinite(ratios) | ((ratios == 0) & (col.values != 0)))[0]
    if bad.size:
        row = int(bad[0])
        ending = "underflows a float to 0" if ratios[row] == 0 else "overflows a float"
        raise DataError(
            f"column {name!r}, row {row}: {col.values[row]:g} {col.unit.symbol} "
            f"to {reference.symbol} {ending}"
        )
    return ratios


def _log_ratio_column(
    ds: DataSet, name: str, reference: Unit, what: str
) -> np.ndarray:
    ratios = _ratio_column(ds, name, reference, what)
    bad = np.nonzero(~(ratios > 0))[0]
    if bad.size:
        raise DataError(
            f"column {name!r}, row {int(bad[0])}: value must be strictly "
            f"positive to take a log, got {ds.column(name).values[int(bad[0])]}"
        )
    return np.log(ratios)


def _solve_ols(design: np.ndarray, y: np.ndarray, labels: Sequence[str]):
    """Equilibrated QR least squares with a rank check.

    Returns (coefficients, covariance, residuals).
    """
    n, p = design.shape
    norms = np.sqrt((design * design).sum(axis=0))
    if np.any(norms == 0):
        zero = [labels[i] for i in np.nonzero(norms == 0)[0]]
        raise CollinearityError(zero)
    scaled = design / norms
    q, r = np.linalg.qr(scaled)
    diag = np.abs(np.diag(r))
    tol = max(n, p) * np.finfo(float).eps
    if diag.min() <= tol * diag.max():
        offenders = [labels[i] for i in np.nonzero(diag <= tol * diag.max())[0]]
        raise CollinearityError(offenders)
    coef_scaled = np.linalg.solve(r, q.T @ y)
    # One step of iterative refinement keeps ill-conditioned (but full-rank)
    # designs, such as a squared log next to a log over a narrow range, at
    # machine-level accuracy.
    coef_scaled += np.linalg.solve(r, q.T @ (y - scaled @ coef_scaled))
    coef = coef_scaled / norms
    residuals = y - design @ coef
    rss = float(residuals @ residuals)
    sigma2 = rss / (n - p)
    r_inv = np.linalg.solve(r, np.eye(p))
    covariance = sigma2 * (r_inv @ r_inv.T) / np.outer(norms, norms)
    return coef, covariance, residuals


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
    """
    if spec.response == spec.predictor:
        raise DataError(f"column {spec.response!r} is both the response and the predictor")
    if any(name == spec.response for name, _ in spec.covariates):
        raise DataError(f"column {spec.response!r} is both the response and a covariate")
    y = _log_ratio_column(ds, spec.response, spec.response_reference, "response")
    u = _log_ratio_column(ds, spec.predictor, spec.predictor_reference, "predictor")
    if np.ptp(u) == 0:
        raise DataError(
            f"predictor {spec.predictor!r} has zero variance in log space"
        )

    columns = [np.ones(ds.n), u]
    labels = ["alpha", "beta"]
    if spec.include_quadratic:
        columns.append(u * u)
        labels.append("gamma")
    dropped: list[str] = []
    for name, reference in spec.covariates:
        values = _ratio_column(ds, name, reference, "covariate")
        if np.all(values == 0):
            # An identically zero covariate contributes nothing; drop it so
            # the remaining fit matches the covariate-free model exactly.
            dropped.append(name)
            continue
        columns.append(values)
        labels.append(f"delta[{name}]")

    p = len(columns)
    minimum = max(3, p + 1)
    if ds.n < minimum:
        raise DataError(
            f"need at least {minimum} rows to fit {p} parameters, got {ds.n}"
        )

    design = np.column_stack(columns)
    coef, covariance, residuals = _solve_ols(design, y, labels)
    residual_scale = float(
        np.abs(y).max() + np.abs(design).max(axis=0) @ np.abs(coef)
    )
    rss = float(residuals @ residuals)
    tss = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if tss == 0 else 1.0 - rss / tss
    r_squared = float(min(1.0, max(0.0, r_squared)))

    return FitResult(
        coefficients=coef,
        coefficient_covariance=covariance,
        r_squared=r_squared,
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

    transform = np.eye(fit.p)
    transform[0, 1] = shift
    if spec.include_quadratic:
        transform[0, 2] = shift * shift
        transform[1, 2] = 2.0 * shift

    moved = ModelSpec(spec.response, spec.response_reference, spec.predictor, new_reference,
                      spec.include_quadratic, spec.covariates)
    return FitResult(transform @ fit.coefficients,
                     transform @ fit.coefficient_covariance @ transform.T,
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
    """
    if space not in ("log", "natural"):
        raise DataError(f"space must be 'log' or 'natural', got {space!r}")
    if fit.p != 2:
        raise DataError("residual_distance_ratio requires a pure power-law fit")

    def residual(point: tuple[Quantity, Quantity]) -> float:
        x, y_observed = point
        fitted = fit.predict(x)
        if space == "log":
            return log_ratio(y_observed, fitted)
        observed = convert(y_observed, fitted.unit)
        return observed.magnitude - fitted.magnitude

    res_a = residual(point_a)
    res_b = residual(point_b)
    if res_b == 0.0:
        raise DataError("point B lies exactly on the fit; the ratio is undefined")
    return abs(res_a) / abs(res_b)
