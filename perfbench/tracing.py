"""Per-layer tracing from outside the program.

Each public function of a layer module is wrapped at every name it is bound
to (``scalelab.cli.load_csv`` as well as ``scalelab.csvio.load_csv``), and a
few methods are wrapped on their class, so a call is recorded under the
layer that defines it whoever calls it.  A span is (name, start ns, end ns,
parent span, op id); spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("units", "algebra", "casebook", "regression", "csvio", "svgplot", "cli")
# Modules that do no layer work but may hold bindings of layer functions.
OTHER_MODULES = ("scalelab", "scalelab.errors", "scalelab.synthetic")
METHODS = {
    "units": (("Dimension", "combine"), ("Quantity", "__pow__"), ("UnitRegistry", "resolve")),
    "regression": (("DataSet", "__init__"),),
}


def _fit_extra(args, result):
    ds, spec = args[0], args[1]
    return {"rows": ds.n, "p": 2 + int(spec.include_quadratic) + len(spec.covariates)}


# name -> function(args, result) giving counts to keep on the span; result is
# None when the call raised.
EXTRAS = {
    "algebra.pi_basis": lambda a, r: {"groups": len(r) if r is not None else 0},
    "regression.fit_power_law": _fit_extra,
    "regression.fit_with_covariates": _fit_extra,
    "regression.fit_quadratic_log": lambda a, r: dict(_fit_extra(a, r), p=3 + len(a[1].covariates)),
    "csvio.load_csv": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "csvio.atomic_write": lambda a, r: {"bytes": len(a[1].encode())},
    "svgplot.emit_svg_plot": lambda a, r: {"bytes": len(r.encode()) if r is not None else 0},
    "cli.run_command": lambda a, r: {"command": a[0][0] if a[0] else ""},
}


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, op id, error type, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = 0

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = type(exc).__name__
                if extra:
                    span[6] = extra(args, None)
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if extra:
                span[6] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"scalelab.{layer}") for layer in LAYERS]
        modules += [importlib.import_module(name) for name in OTHER_MODULES]
        for layer in LAYERS:
            mod = sys.modules[f"scalelab.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, bound, fn))
                            setattr(holder, bound, wrapper)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[method]
                self._patches.append((cls, method, fn))
                setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        for holder, bound, fn in reversed(self._patches):
            setattr(holder, bound, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, error, extra in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                if error:
                    record["error"] = error
                if extra:
                    record.update(extra)
                out.write(json.dumps(record) + "\n")


class Summary:
    """Calls and self time per span name and per layer, and layer ancestry."""

    def __init__(self, spans):
        self.spans = spans
        child = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)
        for i, span in enumerate(spans):
            name = span[0]
            own = span[2] - span[1] - child[i]
            self.calls[name] += 1
            self.self_ns[name] += own
            self.layer_self_ns[name.split(".")[0]] += own

    def mean_self(self, name: str, scale: float) -> float:
        calls = self.calls[name]
        return self.self_ns[name] / calls / scale if calls else 0.0

    def with_ancestor(self, names, layer: str) -> list[list]:
        """Spans named in ``names`` whose nearest traced layer ancestor is ``layer``."""
        out = []
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0].split(".")[0] == span[0].split(".")[0]:
                parent = self.spans[parent][3]
            if parent >= 0 and self.spans[parent][0].split(".")[0] == layer:
                out.append(span)
        return out

    def extra_sum(self, name: str, key: str) -> int:
        return sum((s[6] or {}).get(key, 0) for s in self.spans if s[0] == name)

    def errors(self, name: str, error: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5] == error)


# Measured by cli_cold from fresh processes, so 0 in the other workloads.
PROCESS_METRICS = ("cli.bare_python_ms", "cli.import_numpy_ms", "cli.import_scalelab_ms",
                   "cli.numpy_import_share", "cli.child_cpu_ms")

DERIVATIONS = ("algebra.solve_target_exponents", "algebra.solve_balance", "algebra.chain")
FITS = {"power": "regression.fit_power_law", "quadratic": "regression.fit_quadratic_log",
        "covariates": "regression.fit_with_covariates"}
US, MS = 1e3, 1e6


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric; 0 where the layer did not run.

    Times are mean self time per call (span minus its traced children),
    except ``cli.run_command.*.ms``, the whole in-process command.
    """
    s = Summary(spans)
    m: dict[str, float] = {}
    for short, name in (("parse_quantity", "units.parse_quantity"),
                        ("resolve", "units.UnitRegistry.resolve"),
                        ("Dimension.combine", "units.Dimension.combine")):
        m[f"units.{short}.calls"] = s.calls[name]
        m[f"units.{short}.self_us"] = s.mean_self(name, US)
    m["units.Quantity.pow.calls"] = s.calls["units.Quantity.__pow__"]
    m["units.convert.calls"] = s.calls["units.convert"]

    solve = "algebra.solve_target_exponents"
    m[f"{solve}.calls"] = s.calls[solve]
    m[f"{solve}.self_us"] = s.mean_self(solve, US)
    m[f"{solve}.impossible"] = s.errors(solve, "InconsistentDimensionsError")
    m[f"{solve}.underdetermined"] = s.errors(solve, "UnderdeterminedError")
    m["algebra.pi_basis.calls"] = s.calls["algebra.pi_basis"]
    m["algebra.pi_basis.self_us"] = s.mean_self("algebra.pi_basis", US)
    m["algebra.pi_basis.groups"] = s.extra_sum("algebra.pi_basis", "groups")
    m["algebra.solve_balance.calls"] = s.calls["algebra.solve_balance"]
    m["algebra.chain.calls"] = s.calls["algebra.chain"]

    # A prediction is an outermost casebook call; derivations under it are
    # the work a relation cache would save.
    top = [sp for sp in spans if sp[0].startswith("casebook.")
           and (sp[3] < 0 or not spans[sp[3]][0].startswith("casebook."))]
    predictions = len(top)
    m["casebook.predictions"] = predictions
    m["casebook.self_us"] = s.layer_self_ns["casebook"] / predictions / US if predictions else 0.0
    derivations = len(s.with_ancestor(DERIVATIONS, "casebook"))
    m["casebook.derivations_per_prediction"] = derivations / predictions if predictions else 0.0

    m["regression.DataSet.ms"] = s.mean_self("regression.DataSet.__init__", MS)
    for kind, name in FITS.items():
        m[f"regression.fit.{kind}.ms"] = s.mean_self(name, MS)
    m["regression.fit.rows"] = sum(s.extra_sum(name, "rows") for name in FITS.values())
    designs = [sp[6]["rows"] * sp[6]["p"] * 8 / 1e6 for sp in spans
               if sp[0] in FITS.values() and sp[6]]
    m["regression.fit.design_mb"] = max(designs, default=0.0)
    m["regression.transform_under_unit_change.us"] = s.mean_self(
        "regression.transform_under_unit_change", US)

    m["csvio.load_csv.ms"] = s.mean_self("csvio.load_csv", MS)
    m["csvio.load_csv.bytes_read"] = s.extra_sum("csvio.load_csv", "bytes")
    m["csvio.dump_csv.ms"] = s.mean_self("csvio.dump_csv", MS)
    m["csvio.atomic_write.ms"] = s.mean_self("csvio.atomic_write", MS)
    m["csvio.bytes_written"] = s.extra_sum("csvio.atomic_write", "bytes")

    emits = s.calls["svgplot.emit_svg_plot"]
    m["svgplot.emit_svg_plot.ms"] = s.layer_self_ns["svgplot"] / emits / MS if emits else 0.0
    m["svgplot.emit_svg_plot.bytes"] = s.extra_sum("svgplot.emit_svg_plot", "bytes")

    by_command = defaultdict(list)
    for sp in spans:
        if sp[0] == "cli.run_command":
            by_command[sp[6]["command"]].append(sp[2] - sp[1])
    for command in ("derive", "pi", "fit", "diagnose", "predict", "plot"):
        times = by_command[command]
        m[f"cli.run_command.{command}.ms"] = sum(times) / len(times) / MS if times else 0.0
    m.update(dict.fromkeys(PROCESS_METRICS, 0.0))
    return m
