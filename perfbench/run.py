"""scalelab benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact_batch --seed 1 --seconds 50 --trace 0

The program is imported from ``src/`` (there is nothing to build).  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Metadata and the failed-op ratio are printed on the
lines before it; spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, child_env, median, run_python  # noqa: E402

WORKLOADS = {"cli_cold": "CliCold", "exact_batch": "ExactBatch", "data_large": "DataLarge"}
SETUP_REPEATS = 3
WORK_ROOT = ".perfbench_work"
OUT_ROOT = ".perfbench_out"
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)


def _blas_threads():
    """Threads OpenBLAS will use, as the environment leaves it (not overridden)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit():
    if not os.path.exists(".git"):
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def metadata(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
                 configure=None) -> tuple[dict, dict]:
    """Set up several times, measure once; returns (result, details).

    ``configure`` is called on the workload object before set-up (the smoke
    test uses it to inject a wrong answer).
    """
    import importlib

    workload_cls = getattr(importlib.import_module(name), WORKLOADS[name])
    workdir = os.path.join(WORK_ROOT, f"{name}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    details = {"meta": metadata(seed), "loadavg_start": os.getloadavg()}
    try:
        workload = workload_cls(seed, workdir, toy)
        if configure is not None:
            configure(workload)
        env = child_env()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            probe = run_python(["-c", workload.setup_import], env)
            if probe.returncode != 0:
                raise RuntimeError(f"cannot import the program: {probe.stderr.strip()}")
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if trace:
            os.makedirs(OUT_ROOT, exist_ok=True)
            details["spans"] = os.path.join(OUT_ROOT, f"spans-{name}-{seed}.jsonl")
            tally, measured = workload.run_traced(seconds, details["spans"])
        else:
            tally, measured = workload.run(seconds)
            measured["setup_s"] = median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["loadavg_end"] = os.getloadavg()
    failed = tally.failures
    details["failed_ratio"] = len(failed) / tally.attempted
    details["failures"] = sorted({f"{op.kind}: {op.status}: {op.reason[:300]}"
                                  for op in failed})[:20]
    section = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured.pop(m["name"]), "unit": m["unit"]} for m in section}
    details["other_metrics"] = measured
    result = {
        "correct": not any(op.status == "wrong" for op in failed),
        "attempted": tally.attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scalelab", "__init__.py")):
        print(f"no program to measure: {SRC}/scalelab is missing "
              "(run from the root of a scalelab checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.toy)
    print("details: " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
