"""scalelab: a unit-aware dimensional-analysis and scaling-law workbench.

Derive power-law forms from dimensional constraints over exact rationals,
compute dimensionless-group bases, solve and chain monomial scaling
relations, fit power laws to data in log space with covariates and
diagnostics, and run a casebook of classic worked predictions behind a
command-line interface.

Every public name is served by one table, ``_LAZY``, which maps it to its
defining submodule: ``import scalelab`` loads no submodule, and each one is
imported when a name from it is first used.  None of them imports numpy
when it is loaded: ``regression`` and ``svgplot`` import it only for a
fit or plot of ``regression._NUMPY_ENTRIES`` values or more, rows times
columns, or when ``Column.values`` is first read, so every command on a
smaller table runs without it.
"""

__version__ = "0.1.0"

_LAZY_MODULES = (
    "algebra", "casebook", "csvio", "errors", "regression", "svgplot", "units",
)
_LAZY = {
    "PiGroup": "algebra",
    "ScalingRelation": "algebra",
    "chain": "algebra",
    "check_exponent_bound": "algebra",
    "pi_basis": "algebra",
    "solve_balance": "algebra",
    "solve_target_exponents": "algebra",
    "BlastConfig": "casebook",
    "CaseReport": "casebook",
    "blast_radius": "casebook",
    "blast_yield": "casebook",
    "hull_speed": "casebook",
    "kleiber_chain_demo": "casebook",
    "roast_time": "casebook",
    "terminal_velocity_scale": "casebook",
    "dump_csv": "csvio",
    "load_csv": "csvio",
    "save_csv": "csvio",
    "CapacityError": "errors",
    "CollinearityError": "errors",
    "DataError": "errors",
    "DerivationError": "errors",
    "DimensionMismatchError": "errors",
    "InconsistentDimensionsError": "errors",
    "QuantityParseError": "errors",
    "RelationError": "errors",
    "ScaleLabError": "errors",
    "UnderdeterminedError": "errors",
    "UnknownUnitError": "errors",
    "DataSet": "regression",
    "FitResult": "regression",
    "ModelSpec": "regression",
    "fit": "regression",
    "fit_power_law": "regression",
    "fit_quadratic_log": "regression",
    "fit_with_covariates": "regression",
    "residual_distance_ratio": "regression",
    "transform_under_unit_change": "regression",
    "PlotSpec": "svgplot",
    "emit_svg_plot": "svgplot",
    "Dimension": "units",
    "Quantity": "units",
    "Unit": "units",
    "UnitRegistry": "units",
    "convert": "units",
    "default_registry": "units",
    "log_ratio": "units",
    "parse_quantity": "units",
}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")]
    + [*_LAZY_MODULES, *_LAZY]
)


def __getattr__(name: str):
    # No caching in this module's globals: every lookup reads the defining
    # module's current binding, so a name patched there is seen here too.
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    if name in _LAZY_MODULES:
        return __import__(f"{__name__}.{name}", fromlist=["_"])
    if name in _LAZY:
        return getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=["_"]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
