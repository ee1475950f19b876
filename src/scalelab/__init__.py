"""scalelab: a unit-aware dimensional-analysis and scaling-law workbench.

Derive power-law forms from dimensional constraints over exact rationals,
compute dimensionless-group bases, solve and chain monomial scaling
relations, fit power laws to data in log space with covariates and
diagnostics, and run a casebook of classic worked predictions behind a
command-line interface.

The names served by ``regression``, ``csvio`` and ``svgplot`` are loaded on
first use: those modules import numpy, and derivations, pi-group bases and
the casebook do not need it.
"""

from importlib import import_module as _import_module

from .algebra import (
    DimMatrix,
    PiGroup,
    ScalingRelation,
    chain,
    check_exponent_bound,
    pi_basis,
    solve_balance,
    solve_target_exponents,
)
from .casebook import (
    BlastConfig,
    CaseReport,
    blast_radius,
    blast_yield,
    hull_speed,
    kleiber_chain_demo,
    roast_time,
    terminal_velocity_scale,
)
from .errors import (
    CapacityError,
    CollinearityError,
    DataError,
    DerivationError,
    DimensionMismatchError,
    InconsistentDimensionsError,
    QuantityParseError,
    RelationError,
    ScaleLabError,
    UnderdeterminedError,
    UnknownUnitError,
)
from .units import (
    Dimension,
    Quantity,
    Unit,
    UnitRegistry,
    convert,
    default_registry,
    log_ratio,
    parse_quantity,
)

__version__ = "0.1.0"

_LAZY_MODULES = ("csvio", "regression", "svgplot")
_LAZY = {
    **dict.fromkeys(("dump_csv", "load_csv", "save_csv"), "csvio"),
    **dict.fromkeys(
        (
            "DataSet",
            "FitResult",
            "ModelSpec",
            "fit",
            "fit_power_law",
            "fit_quadratic_log",
            "fit_with_covariates",
            "residual_distance_ratio",
            "transform_under_unit_change",
        ),
        "regression",
    ),
    **dict.fromkeys(("PlotSpec", "emit_svg_plot"), "svgplot"),
}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")]
    + [*_LAZY_MODULES, *_LAZY]
)


def __getattr__(name: str):
    # No caching in this module's globals: every lookup reads the defining
    # module's current binding, so a name patched there is seen here too.
    if name in _LAZY_MODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
