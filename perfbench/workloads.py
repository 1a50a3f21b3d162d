"""The four workloads: their inputs, and the checks on their result files.

Each workload is one ``cendre run`` or ``cendre sweep`` invocation on a
committed config, with the workload seed passed on as ``--seed``.  Why
each one exists is in NOTES.md and in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file under configs/
    gated: str  # the censoring method whose accuracy and ledger are reported
    sweep: tuple[str, ...] = ()  # methods for `cendre sweep --axis methods`

    @property
    def results_file(self) -> str:
        return "sweep.csv" if self.sweep else "results.csv"


WORKLOADS = {w.name: w for w in (
    Workload("nac-samle2-p30", "censor75.json", "samle2"),
    Workload("ac-rls-p200", "bench-large.json", "ac-rls"),
    Workload("rac-rls-outliers", "robust.json", "rac-rls"),
    Workload("csv-baselines", "sketch-compare.json", "ac-rls",
             sweep=("ac-rls", "rls", "srht", "uniform", "kaczmarz")),
)}

# Methods that consume the stream datum by datum; srht and uniform are batch.
STREAMING = ("samle1", "samle2", "ac-lms", "ac-rls", "rac-lms", "rac-rls", "lms",
             "rls", "kaczmarz")


@dataclass(frozen=True)
class Prepared:
    config: Path
    cli_args: tuple[str, ...]  # without --out
    p: int


def _toy(doc: dict) -> dict:
    """Shrink a config to a seconds-long smoke run of the same shape."""
    doc = dict(doc)
    doc["stream"] = dict(doc["stream"], D=int(doc.get("K", 0)) + 400)
    doc["replicates"] = min(int(doc.get("replicates", 1)), 2)
    doc.pop("record_at", None)
    return doc


def prepare(wl: Workload, root: Path, work: Path, seed: int, toy: bool, env: dict) -> Prepared:
    """Write the workload's inputs under work/ and return how to run it."""
    config = root / "configs" / wl.config
    doc = json.loads(config.read_text())
    if toy:
        doc = _toy(doc)
    p = int(doc["stream"]["p"])
    if wl.sweep:
        # The stream of the config, written once as a CSV by `cendre gen`
        # and read back through the dataset path; not part of any trial.
        stream = doc.pop("stream")
        unsupported = set(stream) - {"p", "D", "sigma", "design", "df"}
        if unsupported:
            raise ValueError(f"{wl.config}: stream fields {sorted(unsupported)} "
                             "cannot be written by `cendre gen`")
        gen = [sys.executable, "-m", "cendre", "gen", "--p", str(stream["p"]),
               "--D", str(stream["D"]), "--sigma", str(stream["sigma"]),
               "--design", "t" if stream.get("design") == "student-t" else "gaussian",
               "--seed", str(seed), "--out", str(work / "data"), "--name", "stream"]
        if stream.get("df") is not None:
            gen += ["--df", str(stream["df"])]
        subprocess.run(gen, env=env, cwd=root, check=True, capture_output=True, timeout=120)
        doc["dataset"] = {"path": str(work / "data" / "stream.csv"), "target_column": "y"}
    if toy or wl.sweep:
        config = work / "config.json"
        config.write_text(json.dumps(doc, indent=1))
    if wl.sweep:
        args = ("sweep", "--config", str(config), "--axis", "methods",
                "--values", ",".join(wl.sweep))
    else:
        args = ("run", "--config", str(config))
    return Prepared(config=config, cli_args=args + ("--seed", str(seed)), p=p)


# ---------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------


def digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every result file."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _ledger_problem(method: str, p: int, n: int, kept: int, mult: int) -> str | None:
    """Compare a multiply count with the exact ledger of its method."""
    if method == "ac-rls":
        expect = kept * (2 * p * p + 3 * p) + n * p
    elif method == "samle2":
        expect = n * (2 * p * p + 3 * p + 2) + (n - kept) * p
    elif method == "rls":
        expect = n * (2 * p * p + 4 * p)
    elif method == "rac-rls":
        # Censored p, nominal kept 2p^2+4p, clipped outlier p^2+2p: the
        # remainder is a whole number of nominal-minus-outlier steps.
        rest = mult - n * p - kept * (p * p + p)
        step = p * p + 2 * p
        if rest >= 0 and rest % step == 0 and rest // step <= kept:
            return None
        return f"{method} n={n}: {mult} multiplies fit no split of {kept} kept data"
    else:
        return None
    if mult != expect:
        return f"{method} n={n}: {mult} multiplies, ledger says {expect}"
    return None


def summarize(wl: Workload, out_dir: Path, p: int, target: float) -> tuple[dict, list[str]]:
    """Quality numbers of one trial's result file, and every failed check."""
    with open(out_dir / wl.results_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    final: dict[tuple[str, str], dict] = {}
    for row in rows:
        n, mse = int(row["n"]), float(row["mse"])
        if not math.isfinite(mse):
            problems.append(f"{row['method']} seed {row['seed']} n={n}: mse {mse}")
        kept = n - round(float(row["censor_ratio"]) * n)
        problem = _ledger_problem(row["method"], p, n, kept, int(row["multiplies"]))
        if problem:
            problems.append(problem)
        key = (row["method"], row["seed"])
        if key not in final or n > int(final[key]["n"]):
            final[key] = row
    methods = {m for m, _ in final}
    expected = set(wl.sweep) if wl.sweep else {wl.gated}
    if methods != expected:
        problems.append(f"methods {sorted(methods)} in results, expected {sorted(expected)}")
    gated = [row for (m, _), row in final.items() if m == wl.gated]
    if not gated:
        problems.append(f"no {wl.gated} rows")
        return {}, problems
    rate = sum(float(r["censor_ratio"]) for r in gated) / len(gated)
    quality = {
        "mse_final": sum(float(r["mse"]) for r in gated) / len(gated),
        "censor_rate": rate,
        "censor_target": target,
        "censor_gap": abs(rate - target),
        "multiplies_per_datum": sum(int(r["multiplies"]) / int(r["n"]) for r in gated) / len(gated),
        "streamed": sum(int(r["n"]) for (m, _), r in final.items() if m in STREAMING),
    }
    return quality, problems


def reference_problems(ref: dict, quality: dict) -> list[str]:
    """Check mse_final and the censor rate against the recorded band."""
    problems = []
    rate = ref["censor_rate"]
    if abs(quality["censor_rate"] - rate["median"]) > rate["abs_tol"]:
        problems.append(f"censor rate {quality['censor_rate']:.4f} outside "
                        f"{rate['median']:.4f} +- {rate['abs_tol']:.4f}")
    mse = ref["mse_final"]
    ratio = quality["mse_final"] / mse["median"]
    if not 1.0 / mse["factor"] <= ratio <= mse["factor"]:
        problems.append(f"mse_final {quality['mse_final']:.4g} outside "
                        f"{mse['median']:.4g} x/ {mse['factor']:.2f}")
    return problems
