"""exact_batch: warm, in-process derivations and casebook predictions.

Derive ops are distinct dimensional problems (2-7 parameters, outcomes ok,
impossible and underdetermined), so no two share work: their
repeated-relation share is 0.  Predict ops cycle through the five casebook
reports, so each reuses one of five relations: their share is 1.  A
relation cache would show on predictions and must not show on
derivations.
"""

from __future__ import annotations

import time

import gen
import oracle
from common import Op, Tally, percentile, request_metrics, self_peak_rss_mb, verdict
from tracing import Tracer, layer_metrics

import scalelab.algebra as algebra
import scalelab.casebook as casebook
import scalelab.units as units
from scalelab.errors import InconsistentDimensionsError, UnderdeterminedError

TRACED_BLOCKS = 300


class ExactBatch:
    setup_import = "import scalelab"

    def __init__(self, seed: int, workdir: str, toy: bool = False):
        self.seed = seed
        self.toy = toy

    def setup(self) -> None:
        self.blocks = gen.exact_blocks(self.seed)
        self.pending = [next(self.blocks) for _ in range(2 if self.toy else 20)]

    def _next_block(self):
        return self.pending.pop(0) if self.pending else next(self.blocks)

    def run(self, seconds: float):
        tally = Tally()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for op in self._next_block():
                tally.add(run_op(op))
        peak_rss_mb = self_peak_rss_mb()  # before the summaries below allocate
        derive, predict = tally.seconds("derive"), tally.seconds("predict")
        return tally, dict(request_metrics(tally.seconds()),
                           peak_rss_mb=peak_rss_mb,
                           derive_per_s=len(derive) / sum(derive),
                           derive_us_p99=percentile(derive, 99) * 1e6,
                           predict_per_s=len(predict) / sum(predict))

    def run_traced(self, seconds: float, spans_path: str):
        """Untraced blocks, then as many fresh blocks traced; the op-time
        ratio of the two halves is the tracing overhead."""
        tally = Tally()
        for op in self._next_block():  # warm-up
            tally.add(run_op(op))
        untraced = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / 3 and len(untraced) < TRACED_BLOCKS * 10:
            untraced += [tally.add(run_op(op)).seconds for op in self._next_block()]
        blocks = [self._next_block() for _ in range(len(untraced) // 10)]
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for block in blocks:
                for op in block:
                    tracer.op += 1
                    traced.append(tally.add(run_op(op)).seconds)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
        return tally, metrics


def run_op(op: dict) -> Op:
    run = _derive if op["kind"] == "derive" else _predict
    start = time.perf_counter()
    try:
        answer = run(op)
    except Exception as exc:  # any raise on a valid input is a failed op
        return Op(op["kind"], time.perf_counter() - start, "failed", repr(exc))
    elapsed = time.perf_counter() - start
    try:
        reason = _check(op, answer)
    except Exception as exc:  # an answer of the wrong shape
        reason = f"malformed answer: {exc!r}"
    return Op(op["kind"], elapsed, *verdict(reason))


def _derive(op):
    p = op["problem"]
    registry = units.default_registry()
    params = [(name, registry.resolve(expr).dimension) for name, expr in p["params"]]
    target = registry.resolve(p["target"]).dimension
    relation, free = None, None
    try:
        relation = algebra.solve_target_exponents(target, params, p["target_name"])
        outcome = "ok"
    except InconsistentDimensionsError:
        outcome = "impossible"
    except UnderdeterminedError as exc:
        outcome, free = "underdetermined", exc.free_directions
    return outcome, relation, free, algebra.pi_basis(params)


def _predict(op):
    case, q = op["case"], op["inputs"]
    parse = units.parse_quantity
    if case in ("blast", "yield"):
        cfg = casebook.BlastConfig(prefactor=q["prefactor"], rho=parse(q["rho"]))
        if case == "blast":
            return casebook.blast_report(cfg, parse(q["energy"]), parse(q["time"]))
        return casebook.yield_report(cfg, [(parse(r), parse(t)) for r, t in q["obs"]])
    if case == "roast":
        return casebook.roast_report(parse(q["mass"]), parse(q["ref_mass"]), parse(q["ref_time"]))
    if case == "hull":
        return casebook.hull_report(parse(q["length"]))
    return casebook.fall_report(parse(q["ref_speed"]), parse(q["ref_mass"]), parse(q["mass"]))


def _check(op: dict, answer) -> str | None:
    if op["kind"] == "predict":
        return oracle.check_prediction(op["case"], op["inputs"], dict(answer.relation.exponents),
                                       answer.prediction.si_value)
    p = op["problem"]
    outcome, relation, free, groups = answer
    names = [name for name, _ in p["params"]]
    vectors = [oracle.expr_vector(expr) for _, expr in p["params"]]
    n, r = len(names), p["rank"]
    if outcome != p["outcome"]:
        return f"outcome {outcome}, expected {p['outcome']} (rank {r} of {n})"
    if outcome == "ok":
        if relation.target != p["target_name"]:
            return f"relation target {relation.target!r}"
        reason = oracle.check_exponents(relation.exponents, names, vectors,
                                        oracle.expr_vector(p["target"]))
        if reason:
            return reason
    if outcome == "underdetermined" and free != n - r:
        return f"{free} free directions, expected {n - r}"
    if any(g.names != tuple(names) for g in groups):
        return "pi group names differ from the parameters"
    return oracle.check_groups([dict(zip(g.names, g.exponents)) for g in groups],
                               names, vectors, n - r)
