"""cli_cold: fresh ``python -m scalelab.cli`` processes, one after another.

A CLI user waits for interpreter start, imports and argparse far more than
for any layer, so this workload shows import-time work (numpy is imported
by every command today) and any fixed cost a change adds on small inputs.
The mix covers every subcommand; two commands in twenty are expected
errors, for which exit code 2 is the right answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import time

import numpy as np

import gen
import oracle
from common import (
    Op,
    Tally,
    child_env,
    children_cpu_s,
    children_peak_rss_mb,
    median,
    request_metrics,
    run_python,
)
from tracing import Tracer, layer_metrics

import scalelab.cli as cli

BARE_RUNS = 5
COMMAND_TIMEOUT = 30  # seconds; a hung command is a failed op


class CliCold:
    setup_import = "import scalelab.cli"

    def __init__(self, seed: int, workdir: str, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.extra_path = ""  # prepended to the children's PYTHONPATH
        self.references: dict = {}

    def setup(self) -> None:
        self.datasets = gen.cli_datasets(self.seed)
        for table, (_, columns) in self.datasets.items():
            gen.write_csv(os.path.join(self.workdir, f"{table}.csv"), gen.header_of(columns),
                          [values for values, _ in columns.values()])
        self.blocks = gen.cli_blocks(self.seed, self.datasets, self.workdir)

    def run(self, seconds: float):
        tally = Tally()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for cmd in next(self.blocks):
                tally.add(self.fresh(cmd)[0])
        metrics = request_metrics(tally.seconds())
        return tally, dict(metrics, peak_rss_mb=children_peak_rss_mb(),
                         cmd_ms_p50=metrics["request_ms_p50"], cmd_ms_p90=metrics["request_ms_p90"])

    def fresh(self, cmd: dict, importtime: bool = False):
        args = (["-X", "importtime"] if importtime else []) + ["-m", "scalelab.cli", *cmd["argv"]]
        cpu = children_cpu_s()
        start = time.perf_counter()
        try:
            proc = run_python(args, child_env(self.extra_path), timeout=COMMAND_TIMEOUT)
        except subprocess.TimeoutExpired:
            op = Op(cmd["kind"], time.perf_counter() - start, "failed", "timed out")
            return op, "", children_cpu_s() - cpu
        elapsed = time.perf_counter() - start
        op = Op(cmd["kind"], elapsed, *self.check(cmd, proc.returncode, proc.stdout))
        return op, proc.stderr, children_cpu_s() - cpu

    def in_process(self, cmd: dict) -> Op:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run_command(list(cmd["argv"]))
        except Exception as exc:  # a traceback where an exit code was due
            return Op(cmd["kind"], time.perf_counter() - start, "failed", repr(exc))
        elapsed = time.perf_counter() - start
        return Op(cmd["kind"], elapsed, *self.check(cmd, code, out.getvalue()))

    def run_traced(self, seconds: float, spans_path: str):
        """Fresh processes under ``-X importtime`` for import costs, then the
        same commands replayed in-process, untraced and traced."""
        env = child_env(self.extra_path)
        bare = []
        for _ in range(BARE_RUNS):
            start = time.perf_counter()
            run_python(["-c", "pass"], env)
            bare.append(time.perf_counter() - start)
        tally = Tally()
        commands, numpy_ms, scalelab_ms, cpu = [], [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / 2:
            for cmd in next(self.blocks):
                op, stderr, cpu_s = self.fresh(cmd, importtime=True)
                tally.add(op)
                commands.append(cmd)
                cpu.append(cpu_s)
                imports = _import_times(stderr)
                if "numpy" in imports:
                    numpy_ms.append(imports["numpy"])
                scalelab_ms.append(imports.get("scalelab", 0.0))
        for cmd in commands:  # warm-up
            tally.add(self.in_process(cmd))
        untraced = [tally.add(self.in_process(cmd)).seconds for cmd in commands]
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for cmd in commands:
                tracer.op += 1
                traced.append(tally.add(self.in_process(cmd)).seconds)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        metrics = layer_metrics(tracer.spans)
        metrics.update({
            "cli.bare_python_ms": median(bare) * 1e3,
            "cli.import_numpy_ms": median(numpy_ms) if numpy_ms else 0.0,
            "cli.import_scalelab_ms": median(scalelab_ms),
            "cli.numpy_import_share": len(numpy_ms) / len(commands),
            "cli.child_cpu_ms": sum(cpu) / len(cpu) * 1e3,
            "trace.overhead_ratio": sum(traced) / sum(untraced),
        })
        return tally, metrics

    # ------------------------------------------------------------ oracle

    def check(self, cmd: dict, code: int, stdout: str) -> tuple[str, str]:
        """(status, reason) for one command's exit code and standard output."""
        expected_code = 2 if cmd["kind"] == "error" else 0
        if code != expected_code:
            status = "wrong" if code == 0 else "failed"
            return status, f"exit code {code}, expected {expected_code}: {cmd['argv']}"
        if cmd["kind"] == "error":
            return "ok", ""
        try:
            reason = self._check_output(cmd, stdout)
        except Exception as exc:  # output of the wrong shape
            reason = f"unreadable output {exc!r}"
        return ("ok", "") if reason is None else ("wrong", f"{reason}: {cmd['argv']}")

    def _check_output(self, cmd: dict, stdout: str) -> str | None:
        kind = cmd["kind"]
        lines = stdout.splitlines()
        if kind in ("derive", "derive_under", "pi"):
            p = cmd["problem"]
            names = [name for name, _ in p["params"]]
            vectors = [oracle.expr_vector(expr) for _, expr in p["params"]]
            free = len(names) - p["rank"]
            if kind == "derive":
                target, _, terms = lines[0].partition(" ~ ")
                if target != p["target_name"]:
                    return f"target {target!r}"
                return oracle.check_exponents(oracle.parse_terms(terms), names, vectors,
                                              oracle.expr_vector(p["target"]))
            if kind == "derive_under":
                if lines[:2] != [f"underdetermined: {free} free direction(s)",
                                 "dimensionless groups of the parameters:"]:
                    return f"header {lines[:2]}"
                lines = [line.strip() for line in lines[2:]]
            elif free == 0:
                return None if lines == ["no dimensionless groups"] else f"output {lines}"
            if not all(line.startswith("pi: ") for line in lines):
                return f"group lines {lines}"
            groups = [oracle.parse_terms(line[4:]) for line in lines]
            return oracle.check_groups(groups, names, vectors, free)
        if kind in gen.CASES:
            payload = json.loads(stdout)
            terms = oracle.parse_terms(payload["relation"].partition(" ~ ")[2])
            return oracle.check_prediction(kind, cmd["inputs"], terms, payload["prediction"])
        if kind.startswith("plot"):
            if stdout != f"wrote {cmd['out']}\n":
                return f"stdout {stdout!r}"
            with open(cmd["out"], encoding="utf-8") as handle:
                svg = handle.read()
            rows = len(self._table(cmd)[0])
            if svg.count("<circle ") != rows:
                return f"{svg.count('<circle ')} circles, expected {rows}"
            if ('stroke="crimson"' in svg) != (kind == "plot_fit"):
                return "fitted curve present" if kind == "plot" else "fitted curve missing"
            return None
        payload = json.loads(stdout)
        if kind == "residuals":
            return self._check_residuals(cmd, payload["distance_ratio"])
        labels = ["alpha", "beta"] + (["gamma"] if cmd["quadratic"] else [])
        if kind == "unit_change":
            expected = self._reference(cmd, cmd["new_x0"])
            for side in ("transformed", "refit"):
                reason = oracle.check_coefficients(
                    [payload[f"{side}[{label}]"] for label in labels], expected)
                if reason:
                    return f"{side}: {reason}"
            return None
        if cmd["covariate"]:
            labels.append(f"delta[{cmd['covariate']}]")
        return oracle.check_coefficients([payload[label] for label in labels],
                                         self._reference(cmd, cmd["x0"]))

    def _table(self, cmd):
        kind, columns = self.datasets[cmd["table"]]
        _, x, y, _, _ = gen.DATASETS[kind]
        return columns[x][0], columns[x][1], columns[y][0]

    def _reference(self, cmd, x0) -> np.ndarray:
        covariate = cmd.get("covariate")
        key = (cmd["table"], x0, cmd["quadratic"], covariate)
        if key not in self.references:
            x, unit, y = self._table(cmd)
            u = np.log(x * (oracle.UNITS[unit][1] / oracle.UNITS[x0 or unit][1]))
            covariates = [self.datasets[cmd["table"]][1][covariate][0]] if covariate else []
            self.references[key] = oracle.lstsq_coefficients(u, np.log(y), cmd["quadratic"],
                                                             covariates)
        return self.references[key]

    def _check_residuals(self, cmd, ratio: float) -> str | None:
        x, unit, y = self._table(cmd)
        alpha, beta = self._reference(dict(cmd, quadratic=False, covariate=None), cmd["x0"])
        u = np.log(x * (oracle.UNITS[unit][1] / oracle.UNITS[cmd["x0"] or unit][1]))
        a, b = cmd["rows"]
        fitted = np.exp(alpha + beta * u)
        if cmd["space"] == "log":
            residual = np.log(y / fitted)
        else:
            residual = y - fitted
        expected = abs(residual[a]) / abs(residual[b])
        if not math.isclose(ratio, expected, rel_tol=1e-6):
            return f"distance ratio {ratio!r}, expected {expected!r}"
        return None


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative ms per top-level package from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("numpy", "scalelab"):
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e3
            except ValueError:
                continue
    return out
