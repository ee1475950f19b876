"""Shared pieces of the workloads: op records, timing summaries, child env."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass

SRC = "src"  # the program, relative to the checkout root


@dataclass(slots=True)
class Op:
    """One call into the program: its kind, wall time, and the oracle's verdict.

    ``status`` is ``ok``, ``failed`` (raised or exited where an answer was
    due) or ``wrong`` (answered, but the oracle disagrees).
    """

    kind: str
    seconds: float
    status: str = "ok"
    reason: str = ""


class Tally:
    """The ops of one run: how many, which failed, and request times per kind.

    Only failed ops are kept whole; times go to compact arrays, so the
    bookkeeping of a long run does not show in the process's peak RSS.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[Op] = []
        self._times: dict[str, array] = {}

    def add(self, op: Op) -> Op:
        self.attempted += 1
        self._times.setdefault(op.kind, array("d")).append(op.seconds)
        if op.status != "ok":
            self.failures.append(op)
        return op

    def seconds(self, *kinds: str) -> list[float]:
        """Request times of the given kinds, or of every kind."""
        return [t for kind in kinds or tuple(self._times) for t in self._times.get(kind, ())]


def verdict(reason: str | None) -> tuple[str, str]:
    return ("ok", "") if reason is None else ("wrong", reason)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def request_metrics(times: list[float]) -> dict[str, float]:
    """Latency and throughput of requests, the oracle's time excluded.

    A request is what one user waits for: a command (cli_cold), a derive or
    predict call (exact_batch), an analysis pass (data_large).
    """
    return {
        "request_ms_p50": percentile(times, 50) * 1e3,
        "request_ms_p90": percentile(times, 90) * 1e3,
        "requests_per_s": len(times) / sum(times),
    }


def median(values) -> float | None:
    return statistics.median(values) if values else None



def child_env(extra_path: str = "") -> dict:
    """Environment for a fresh program process: the checkout's ``src`` first."""
    path = os.path.abspath(SRC)
    if extra_path:
        path = os.pathsep.join([extra_path, path])
    return dict(os.environ, PYTHONPATH=path)


def run_python(args, env, timeout=120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout, check=False)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
