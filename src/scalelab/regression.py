"""Log-space least-squares fitting of power laws, with diagnostics.

A power law ``y = C x^beta`` is fitted by ordinary least squares on
logarithms of dimensionless ratios: ``log(y/y0) = alpha + beta log(x/x0)``,
optionally extended with a quadratic term ``gamma log^2(x/x0)`` and with
linear covariates (entered as pure numbers relative to their reference
unit, not logged).  The reference units are part of the model: without
them the coefficients have no meaning, and changing them transforms the
coefficients in a way this module implements and checks.

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
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CollinearityError,
    DataError,
    DimensionMismatchError,
)
from .units import Quantity, Unit, convert, log_ratio

__all__ = [
    "Column",
    "DataSet",
    "ModelSpec",
    "CovariateCoefficient",
    "FitResult",
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
    """Named columns of magnitudes, each bound to one unit.

    Arrays are copied and frozen at construction; a dataset never changes
    after it is built.
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


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: response and log predictor with their reference units,
    an optional quadratic-in-log term, and linear covariates."""

    response: str
    response_reference: Unit
    predictor: str
    predictor_reference: Unit
    include_quadratic: bool = False
    covariates: tuple[tuple[str, Unit], ...] = ()


class CovariateCoefficient(NamedTuple):
    name: str
    value: float
    stderr: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Coefficients, standard errors, fit quality, and the reference units
    that fix what the coefficients mean.

    ``residual_scale`` is the largest log response magnitude plus, for each
    coefficient, the largest magnitude of its term in the design; the
    rounding error of the residuals, and so of their sum, scales with it.
    """

    alpha: float
    beta: float
    se_beta: float
    gamma: float | None
    se_gamma: float | None
    covariate_coefficients: tuple[CovariateCoefficient, ...]
    r_squared: float
    residuals_log: np.ndarray
    n: int
    p: int
    reference_units: ModelSpec
    coefficient_covariance: np.ndarray
    residual_scale: float
    dropped_covariates: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise DataError(f"r_squared {self.r_squared} outside [0, 1]")
        # With an intercept the residuals sum to zero up to the forward
        # error of computing and adding n of them; written so NaN fails.
        total = float(self.residuals_log.sum())
        bound = 16 * self.n * np.finfo(float).eps * self.residual_scale
        if not abs(total) <= bound:
            raise DataError(
                f"residuals sum to {total:.3g}, beyond the rounding bound "
                f"{bound:.3g}; intercept fit failed"
            )
        self.residuals_log.setflags(write=False)
        self.coefficient_covariance.setflags(write=False)

    @property
    def is_pure_power_law(self) -> bool:
        return self.gamma is None and not self.covariate_coefficients

    def coefficient_vector(self) -> np.ndarray:
        coefs = [self.alpha, self.beta]
        if self.gamma is not None:
            coefs.append(self.gamma)
        coefs.extend(c.value for c in self.covariate_coefficients)
        return np.array(coefs)

    def coefficient_labels(self) -> tuple[str, ...]:
        labels = ["alpha", "beta"]
        if self.gamma is not None:
            labels.append("gamma")
        labels.extend(f"delta[{c.name}]" for c in self.covariate_coefficients)
        return tuple(labels)

    def predicted_log(self, u: float, covariate_values: Sequence[float] = ()) -> float:
        """Model value of log(y/y0) at log(x/x0) = u."""
        value = self.alpha + self.beta * u
        if self.gamma is not None:
            value += self.gamma * u * u
        for coef, cov in zip(self.covariate_coefficients, covariate_values):
            value += coef.value * cov
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
        fields: list[tuple[str, object]] = [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("se_beta", self.se_beta),
        ]
        if self.gamma is not None:
            fields.append(("gamma", self.gamma))
            fields.append(("se_gamma", self.se_gamma))
        for coef in self.covariate_coefficients:
            fields.append((f"delta[{coef.name}]", coef.value))
            fields.append((f"se_delta[{coef.name}]", coef.stderr))
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

    def report(self, digits: int = 6) -> str:
        lines = []
        for key, value in self.report_fields():
            if isinstance(value, float):
                lines.append(f"{key} = {value:.{digits}g}")
            else:
                lines.append(f"{key} = {value}")
        return "\n".join(lines)


def _log_ratio_column(
    ds: DataSet, name: str, reference: Unit, what: str
) -> np.ndarray:
    col = ds.column(name)
    if col.unit.dimension != reference.dimension:
        raise DimensionMismatchError(
            col.unit.dimension, reference.dimension, f"{what} column {name!r}"
        )
    ratios = col.values * (col.unit.scale / reference.scale)
    bad = np.nonzero(~(ratios > 0))[0]
    if bad.size:
        raise DataError(
            f"column {name!r}, row {int(bad[0])}: value must be strictly "
            f"positive to take a log, got {col.values[int(bad[0])]}"
        )
    return np.log(ratios)


def _covariate_column(ds: DataSet, name: str, reference: Unit) -> np.ndarray:
    col = ds.column(name)
    if col.unit.dimension != reference.dimension:
        raise DimensionMismatchError(
            col.unit.dimension, reference.dimension, f"covariate column {name!r}"
        )
    return col.values * (col.unit.scale / reference.scale)


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


def _coefficient_fields(
    coef: np.ndarray,
    covariance: np.ndarray,
    quadratic: bool,
    covariate_names: Sequence[str],
) -> dict[str, object]:
    """FitResult's coefficient and standard-error fields from a coefficient
    vector and its covariance, both in design order: alpha, beta, then
    gamma if ``quadratic``, then one delta per covariate."""
    stderr = np.sqrt(np.diag(covariance))
    first_covariate = 3 if quadratic else 2
    return {
        "alpha": float(coef[0]),
        "beta": float(coef[1]),
        "se_beta": float(stderr[1]),
        "gamma": float(coef[2]) if quadratic else None,
        "se_gamma": float(stderr[2]) if quadratic else None,
        "covariate_coefficients": tuple(
            CovariateCoefficient(name, float(coef[i]), float(stderr[i]))
            for i, name in enumerate(covariate_names, start=first_covariate)
        ),
    }


def _fit(ds: DataSet, spec: ModelSpec) -> FitResult:
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
    kept_covariates: list[str] = []
    dropped: list[str] = []
    for name, reference in spec.covariates:
        values = _covariate_column(ds, name, reference)
        if np.all(values == 0):
            # An identically zero covariate contributes nothing; drop it so
            # the remaining fit matches the covariate-free model exactly.
            dropped.append(name)
            continue
        columns.append(values)
        labels.append(f"delta[{name}]")
        kept_covariates.append(name)

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
        **_coefficient_fields(
            coef, covariance, spec.include_quadratic, kept_covariates
        ),
        r_squared=r_squared,
        residuals_log=residuals,
        n=ds.n,
        p=p,
        reference_units=spec,
        coefficient_covariance=covariance,
        residual_scale=residual_scale,
        dropped_covariates=tuple(dropped),
    )


def fit_power_law(ds: DataSet, spec: ModelSpec) -> FitResult:
    """OLS fit of ``log(y/y0) = alpha + beta log(x/x0)``."""
    if spec.include_quadratic or spec.covariates:
        raise DataError(
            "fit_power_law takes a plain spec; use fit_quadratic_log or "
            "fit_with_covariates"
        )
    return _fit(ds, spec)


def fit_with_covariates(ds: DataSet, spec: ModelSpec) -> FitResult:
    """Power-law fit with linear covariates.

    Covariates enter the design as pure numbers (value over reference unit),
    not logged, so each fitted coefficient is an exponential rate per
    covariate unit: the model is
    ``y ~ x^beta * exp(delta * c/c0) * ...``.
    """
    return _fit(ds, spec)


def fit_quadratic_log(ds: DataSet, spec: ModelSpec) -> FitResult:
    """Power-law fit with an added ``log^2(x/x0)`` regressor."""
    if not spec.include_quadratic:
        spec = replace(spec, include_quadratic=True)
    return _fit(ds, spec)


def transform_under_unit_change(fit: FitResult, new_reference: Unit) -> FitResult:
    """Re-express a fit against a new predictor reference unit, exactly.

    With ``shift = log(x0_new / x0_old)`` the log abscissa translates as
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
    shift = math.log(new_reference.scale / old.scale)

    p = fit.p
    transform = np.eye(p)
    transform[0, 1] = shift
    if fit.gamma is not None:
        transform[0, 2] = shift * shift
        transform[1, 2] = 2.0 * shift

    coef = transform @ fit.coefficient_vector()
    covariance = transform @ fit.coefficient_covariance @ transform.T
    return FitResult(
        **_coefficient_fields(
            coef,
            covariance,
            fit.gamma is not None,
            [c.name for c in fit.covariate_coefficients],
        ),
        r_squared=fit.r_squared,
        residuals_log=fit.residuals_log.copy(),
        n=fit.n,
        p=fit.p,
        reference_units=replace(spec, predictor_reference=new_reference),
        coefficient_covariance=covariance,
        residual_scale=fit.residual_scale,
        dropped_covariates=fit.dropped_covariates,
    )


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
    if not fit.is_pure_power_law:
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
