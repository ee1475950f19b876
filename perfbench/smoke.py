"""Smoke test of the benchmark itself.  Run from the checkout root::

    python3 perfbench/smoke.py

It runs every workload at toy size, traced and untraced, and checks that
each named metric is reported with its unit; checks that one seed gives
byte-identical inputs; and injects a wrong answer into each workload to
show that the oracle notices.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = run.SPEC


def check_reports() -> None:
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, check=True, timeout=170)
            result = json.loads(out.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            if trace and workload == "exact_batch":
                ratio = result["metrics"]["casebook.derivations_per_prediction"]["value"]
                assert 2 <= ratio <= 6, ratio
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def _first_blocks(blocks, count=30) -> str:
    return json.dumps([next(blocks) for _ in range(count)], default=str)


def check_inputs_repeat() -> None:
    assert _first_blocks(gen.exact_blocks(7)) == _first_blocks(gen.exact_blocks(7))
    assert _first_blocks(gen.exact_blocks(7)) != _first_blocks(gen.exact_blocks(8))
    tables = gen.cli_datasets(7)
    assert (_first_blocks(gen.cli_blocks(7, tables, "w"), 5)
            == _first_blocks(gen.cli_blocks(7, gen.cli_datasets(7), "w"), 5))
    from cli_cold import CliCold
    from data_large import DataLarge

    texts = []
    for attempt in range(2):
        workdir = os.path.join(run.WORK_ROOT, f"smoke-inputs-{attempt}")
        os.makedirs(workdir, exist_ok=True)
        try:
            DataLarge(7, workdir, toy=True).setup()
            CliCold(7, workdir).setup()
            files = {}
            for name in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, name), "rb") as handle:
                    files[name] = handle.read()
            texts.append(files)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    assert texts[0] == texts[1] and len(texts[0]) == 5, sorted(texts[0])
    print("ok  one seed gives byte-identical inputs")


def _expect_caught(workload: str, configure=None) -> None:
    result, details = run.run_workload(workload, 5, 1, False, toy=True, configure=configure)
    assert result["failed"] > 0 and not result["correct"], (workload, result, details)
    print(f"ok  {workload}: injected wrong answer gives failed_ratio "
          f"{details['failed_ratio']:.3f}")


def check_oracle_bites() -> None:
    import scalelab.casebook as casebook
    import scalelab.regression as regression

    roast = casebook.roast_time
    casebook.roast_time = lambda *args: roast(*args) * 1.001
    try:
        _expect_caught("exact_batch")
    finally:
        casebook.roast_time = roast

    transform = regression.transform_under_unit_change

    def shifted(fit, unit):
        result = transform(fit, unit)
        return dataclasses.replace(result, alpha=result.alpha + 1e-3)

    regression.transform_under_unit_change = shifted
    try:
        _expect_caught("data_large")
    finally:
        regression.transform_under_unit_change = transform

    # Fresh processes: a sitecustomize on their path patches the hull case.
    shim = os.path.abspath(os.path.join(run.WORK_ROOT, "smoke-shim"))
    os.makedirs(shim, exist_ok=True)
    with open(os.path.join(shim, "sitecustomize.py"), "w", encoding="utf-8") as handle:
        handle.write("import scalelab.casebook as c\n"
                     "_hull = c.hull_speed\n"
                     "c.hull_speed = lambda length: _hull(length) * 1.01\n")
    try:
        _expect_caught("cli_cold", configure=lambda w: setattr(w, "extra_path", shim))
    finally:
        shutil.rmtree(shim, ignore_errors=True)


if __name__ == "__main__":
    check_reports()
    check_inputs_repeat()
    check_oracle_bites()
    print("smoke test passed")
