"""Smoke test of the benchmark itself, at toy size (under a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json shrunk to a few hundred data, once
untraced and once traced, and checks that:

* every run passes its output checks (``correct``, no failed trial; the
  traced trials also check that no child span outlasts its parent);
* the untraced run emits exactly the ``end_to_end`` metrics and the traced
  run exactly the ``per_layer`` metrics, each with its declared unit;
* the layer self times of the traced run add up to ``trace.run_s``;
* without ``src/`` and ``configs/`` the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--toy"], ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}: {proc.stderr[-1000:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        if entry.get("unit") != declared.get(name):
            errors.append(f"{where}: {name} has unit {entry.get('unit')!r}, "
                          f"declared {declared.get(name)!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r}")
    if trace and not errors:
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        if not math.isclose(total, metrics["trace.run_s"]["value"], rel_tol=1e-9):
            errors.append(f"{where}: layer self times add to {total}, "
                          f"trace.run_s is {metrics['trace.run_s']['value']}")
    return errors


def check_bare_directory(spec: dict) -> list[str]:
    """The benchmark alone, without the program, must fail without a result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run([*spec["command"][1:], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: done", flush=True)
    errors += check_bare_directory(spec)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
