"""data_large: one process, one 1e6-row unit-annotated CSV (about 55 MB).

Each pass loads the file, fits three models (plain, quadratic, covariate),
moves the quadratic fit to a new reference unit, saves a second DataSet to
a new file, and plots a 1e5-row subsample.  Here csvio and regression do
most of the work and writes sit beside reads; cli_cold runs the same layers
at 60-80 rows, where fixed cost dominates.
"""

from __future__ import annotations

import os
import time

import numpy as np

import gen
import oracle
from common import Op, Tally, median, request_metrics, self_peak_rss_mb, verdict
from tracing import Tracer, layer_metrics

import scalelab.csvio as csvio
import scalelab.regression as regression
import scalelab.svgplot as svgplot
import scalelab.units as units

ROWS, TOY_ROWS = 1_000_000, 2_000
NAMES = ("length", "age", "price")


class DataLarge:
    setup_import = "import scalelab"

    def __init__(self, seed: int, workdir: str, toy: bool = False):
        self.seed = seed
        self.rows = TOY_ROWS if toy else ROWS
        self.path = os.path.join(workdir, "large.csv")
        self.saved_path = os.path.join(workdir, "saved.csv")
        self.svg_path = os.path.join(workdir, "plot.svg")
        self.expected: dict[str, np.ndarray] = {}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.columns = gen.yacht_columns(rng, self.rows)
        gen.write_csv(self.path, gen.header_of(self.columns),
                      [values for values, _ in self.columns.values()])
        self.subsample = np.sort(rng.choice(self.rows, self.rows // 10, replace=False))

    def run(self, seconds: float):
        tally, passes = Tally(), []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            passes.append(self.run_pass(tally))
        return tally, dict(request_metrics(passes), peak_rss_mb=self_peak_rss_mb(),
                           **self._step_rates(tally))

    def _step_rates(self, tally: Tally) -> dict:
        """Rows per second of each step (median over passes); None if it never ran."""
        def rate(items, *kinds):
            times = [median(tally.seconds(kind)) for kind in kinds]
            return None if None in times else items / sum(times)

        return {
            "load_rows_per_s": rate(self.rows, "load"),
            "fit_rows_per_s": rate(3 * self.rows, "fit_power", "fit_quadratic", "fit_covariates"),
            "save_rows_per_s": rate(self.rows, "save"),
            "plot_points_per_s": rate(len(self.subsample), "plot"),
        }

    def run_traced(self, seconds: float, spans_path: str):
        """One untraced pass, then one traced; their op-time ratio is the
        tracing overhead."""
        tally = Tally()
        untraced = self.run_pass(tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.run_pass(tally, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_ratio"] = traced / untraced
        return tally, metrics

    # ------------------------------------------------------------ one pass

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> float:
        """One pass; returns its request time, the sum of its op times."""
        total = 0.0

        def op(kind, call, check):
            nonlocal total
            if tracer is not None:
                tracer.op += 1
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # any raise on a valid input is a failed op
                total += tally.add(Op(kind, time.perf_counter() - start, "failed", repr(exc))).seconds
                return None
            elapsed = time.perf_counter() - start
            try:
                reason = check(result)
            except Exception as exc:  # an answer of the wrong shape
                reason = f"malformed answer: {exc!r}"
            total += tally.add(Op(kind, elapsed, *verdict(reason))).seconds
            return result

        registry = units.default_registry()
        ft, m, gbp, yr = (registry.symbol(s) for s in ("ft", "m", "GBP", "yr"))
        ds = op("load", lambda: csvio.load_csv(self.path), self._check_load)
        if ds is None:
            return total
        spec = dict(response="price", response_reference=gbp,
                    predictor="length", predictor_reference=ft)
        plain = regression.ModelSpec(**spec)
        quadratic = regression.ModelSpec(**spec, include_quadratic=True)
        covariate = regression.ModelSpec(**spec, covariates=(("age", yr),))
        op("fit_power", lambda: regression.fit_power_law(ds, plain),
           lambda f: self._check_fit(f, "power"))
        quad = op("fit_quadratic", lambda: regression.fit_quadratic_log(ds, quadratic),
                  lambda f: self._check_fit(f, "quadratic"))
        op("fit_covariates", lambda: regression.fit_with_covariates(ds, covariate),
           lambda f: self._check_fit(f, "covariates"))
        if quad is not None:
            op("transform", lambda: regression.transform_under_unit_change(quad, m),
               lambda f: self._check_fit(f, "transform"))
        op("save", lambda: self._save(ds, m), self._check_save)
        op("plot", lambda: self._plot(ds, ft, gbp), self._check_plot)
        return total

    def _save(self, ds, m):
        length = ds.column("length")
        second = regression.DataSet({
            "length": (length.values * (length.unit.scale / m.scale), m),
            "age": ds.column("age"),
            "price": ds.column("price"),
        })
        csvio.save_csv(second, self.saved_path)
        return second

    def _plot(self, ds, ft, gbp):
        sub = regression.DataSet({name: (ds.column(name).values[self.subsample], ds.column(name).unit)
                                  for name in ("length", "price")})
        spec = svgplot.PlotSpec(x="length", y="price", x_reference=ft, y_reference=gbp)
        svg = svgplot.emit_svg_plot(sub, None, spec)
        csvio.atomic_write(self.svg_path, svg)
        return svg

    # ------------------------------------------------------------ oracle

    def _check_load(self, ds) -> str | None:
        if ds.names != NAMES or ds.n != self.rows:
            return f"loaded {ds.names} x {ds.n}"
        for name, (values, unit) in self.columns.items():
            column = ds.column(name)
            if column.unit.symbol != unit:
                return f"column {name} unit {column.unit.symbol}"
            if column.values.dtype != np.float64 or not np.array_equal(column.values, values):
                return f"column {name} differs from the generated values"
        return None

    def _reference(self, kind: str) -> np.ndarray:
        if kind not in self.expected:
            length, age, price = (self.columns[name][0] for name in NAMES)
            x0 = 1.0 if kind == "transform" else 0.3048  # m after the transform, else ft
            u = np.log(length * (0.3048 / x0))
            self.expected[kind] = oracle.lstsq_coefficients(
                u, np.log(price), quadratic=kind in ("quadratic", "transform"),
                covariates=[age] if kind == "covariates" else ())
        return self.expected[kind]

    def _check_fit(self, fit, kind: str) -> str | None:
        if fit.n != self.rows:
            return f"fit over {fit.n} rows"
        return oracle.check_coefficients(fit.coefficient_vector(), self._reference(kind))

    def _check_save(self, second) -> str | None:
        with open(self.saved_path, encoding="utf-8") as handle:
            header = handle.readline().strip()
        if header != "length[m],age[yr],price[GBP]":
            return f"saved header {header!r}"
        table = np.loadtxt(self.saved_path, delimiter=",", skiprows=1, ndmin=2)
        length = self.columns["length"][0] * (0.3048 / 1.0)  # ft -> m as the program computes it
        for i, (name, expected) in enumerate(
                (("length", length), ("age", self.columns["age"][0]),
                 ("price", self.columns["price"][0]))):
            if not np.array_equal(second.column(name).values, expected):
                return f"second DataSet column {name} differs"
            if not np.array_equal(table[:, i], expected):
                return f"saved column {name} does not re-read equal"
        return None

    def _check_plot(self, svg: str) -> str | None:
        circles = svg.count("<circle ")
        if circles != len(self.subsample):
            return f"{circles} circles, expected {len(self.subsample)}"
        with open(self.svg_path, encoding="utf-8") as handle:
            if handle.read() != svg:
                return "written SVG differs from the emitted text"
        return None
