"""cendre benchmark: one workload, measured in a closed loop.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and the workload configs are read from ``configs/``.  One caller
runs the workload's ``cendre run`` / ``cendre sweep`` invocation again and
again, each time in a fresh interpreter (worker.py) and only after the
previous one ended, for about S seconds.  Before the loop, a few
fresh interpreters only set up (import and config validation), so that
``setup_s`` is a median of several.

With ``--trace 0`` every trial is untraced and the last line of standard
output holds the end-to-end metrics.  With ``--trace 1`` untraced and
traced trials alternate; the last line holds the per-layer metrics of the
traced trial with the median run time, and ``trace.overhead`` compares the
two kinds.  Every trial's result files are checked (see NOTES.md); a trial
that fails a check counts in ``failed``.  The line before the last records
the seed, the held-out seed and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, digest, prepare, reference_problems, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Kept out of every tuning run; later gains are confirmed on it.
HELD_OUT_SEED = 20261017

SETUP_PROBES = 3
HARD_CAP_S = 150.0  # start no trial that would end past this
TRIAL_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "data_per_s": "1/s",
    "multiplies_per_datum": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "likelihood.evaluate.calls": "count",
    "likelihood.evaluate.ns_per_call": "ns",
    "likelihood.evaluate.self_s": "s",
    "likelihood.censored_share": "ratio",
    "numkit.interval_log_prob.calls": "count",
    "numkit.interval_log_prob.ns_per_call": "ns",
    "numkit.interval_log_prob.share_of_likelihood": "ratio",
    "numkit.fwht_in_place.s": "s",
    "numkit.fwht_in_place.bytes_computed": "B",
    "numkit.cholesky_solve.calls": "count",
    "numkit.cholesky_solve.s": "s",
    "censor.threshold.calls": "count",
    "censor.threshold.ns_per_call": "ns",
    "censor.decide.calls": "count",
    "censor.decide.ns_per_call": "ns",
    "censor.kept_ratio": "ratio",
    "estimators.step_kept.calls": "count",
    "estimators.step_kept.ns_per_call": "ns",
    "estimators.step_censored.calls": "count",
    "estimators.step_censored.ns_per_call": "ns",
    "estimators.step_outlier.calls": "count",
    "estimators.multiplies_per_kept": "count",
    "estimators.multiplies_per_censored": "count",
    "estimators.ns_per_multiply_kept": "ns",
    "estimators.ns_per_multiply_censored": "ns",
    "estimators.gate_gap": "ratio",
    "estimators.snapshot.s": "s",
    "estimators.preliminary_fit.s": "s",
    "estimators.kaczmarz_run.s": "s",
    "datagen.generate.s": "s",
    "datagen.generate.data_per_s": "1/s",
    "datagen.materialize.s": "s",
    "ingest.load_csv.s": "s",
    "ingest.load_csv.rows_per_s": "1/s",
    "ingest.load_csv.bytes_per_s": "B/s",
    "ingest.surrogate_truth.s": "s",
    "sketch.srht_reduce.s": "s",
    "sketch.uniform_reduce.s": "s",
    "sketch.solve_reduced.s": "s",
    "harness.run_trial.calls": "count",
    "harness.run_trial.s_p50": "s",
    "harness.self_share": "ratio",
    "harness.prop_bounds.s": "s",
    "harness.write_results.s": "s",
    "harness.write_results.bytes": "B",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.overhead": "ratio",
    "mse_final": "theta2",
    "censor_gap": "share",
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CENDRE_SEED")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(mode: str, prep, work: Path, index: int, env: dict, timeout: float) -> dict:
    """Run one worker to completion; return its report and exit state."""
    out = work / f"trial-{index}"
    report = work / f"report-{index}.json"
    head = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--config", str(prep.config), "--report", str(report)]
    tail = [] if mode == "setup" else ["--", *prep.cli_args, "--out", str(out)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(head + ["--spawn", repr(t_spawn)] + tail, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, err = None, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t_spawn
    data = json.loads(report.read_text()) if rc == 0 and report.is_file() else None
    return {"mode": mode, "rc": rc, "stderr": err[-2000:], "wall": wall, "out": out,
            "report": data}


def closed_loop(prep, work: Path, env: dict, seconds: float, trace: bool):
    start = time.perf_counter()
    deadline, cap = start + seconds, start + HARD_CAP_S
    count = 0

    def run(mode):
        nonlocal count
        count += 1
        timeout = max(5.0, start + TRIAL_TIMEOUT_S - time.perf_counter())
        return spawn(mode, prep, work, count, env, timeout)

    probes = [run("setup") for _ in range(SETUP_PROBES)]
    cycle = ("plain", "traced") if trace else ("plain",)
    trials = []
    while True:
        trials.append(run(cycle[len(trials) % len(cycle)]))
        modes = [t["mode"] for t in trials]
        # Two untraced trials at least, for the byte-identity check.
        enough = modes.count("plain") >= 2 or (trace and "traced" in modes)
        now = time.perf_counter()
        expected = statistics.median(t["wall"] for t in trials)
        # Start another trial if it should end before the cap and be half
        # done by the deadline, so that runs last `seconds` on average.
        if now + expected > cap or (enough and now + expected / 2 > deadline):
            break
    return probes, trials


def check(wl, prep, trials, toy: bool) -> None:
    """Attach quality numbers and the list of failed checks to each trial."""
    reference = None if toy else json.loads((HERE / "reference.json").read_text())[wl.name]
    first = None
    for t in trials:
        t["quality"], problems = {}, []
        rep = t["report"]
        if rep is None or rep.get("rc") != 0:
            code = t["rc"] if rep is None else rep.get("rc")
            problems.append(f"exit {code}: {t['stderr'].strip()[-500:]}")
        elif not Path(rep["cendre_file"]).resolve().is_relative_to(ROOT / "src"):
            problems.append(f"cendre imported from {rep['cendre_file']}, not from src/")
        else:
            try:
                t["quality"], found = summarize(wl, t["out"], prep.p, rep["censor_target"])
                problems += found
                d = digest(t["out"])
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"unreadable result files: {exc!r}")
                d = None
            if d is not None:
                if first is None:
                    first = d
                elif d != first:
                    problems.append("result files differ from the first trial's at the same seed")
            if reference is not None and t["quality"]:
                problems += reference_problems(reference, t["quality"])
            tr = rep.get("trace")
            if tr is not None:
                if tr["violations"]:
                    problems.append(f"{tr['violations']} spans outlasted by their children")
                if sum(tr["layer_self_ns"].values()) != tr["root_ns"]:
                    problems.append("layer self times do not add up to the traced run")
        t["problems"] = problems


def layer_metrics(rep: dict, plain_run_s: float, traced_run_s: float, quality: dict) -> dict:
    tr = rep["trace"]
    stats, counters = tr["stats"], tr["counters"]

    def calls(*keys):
        return sum(stats.get(k, (0, 0, 0))[0] for k in keys)

    def secs(*keys):
        return sum(stats.get(k, (0, 0, 0))[1] for k in keys) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def ns_per_call(*keys):
        return ratio(secs(*keys) * 1e9, calls(*keys))

    m = {}
    ev, ilp = "likelihood.evaluate", "numkit.interval_log_prob"
    m[ev + ".calls"] = calls(ev)
    m[ev + ".ns_per_call"] = ns_per_call(ev)
    m[ev + ".self_s"] = stats.get(ev, (0, 0, 0))[2] / 1e9
    m["likelihood.censored_share"] = ratio(counters.get(ev + ".censored", 0), calls(ev))
    m[ilp + ".calls"] = calls(ilp)
    m[ilp + ".ns_per_call"] = ns_per_call(ilp)
    m[ilp + ".share_of_likelihood"] = ratio(secs(ilp), secs(ev))
    fwht = "numkit.fwht_in_place"
    m[fwht + ".s"] = secs(fwht)
    m[fwht + ".bytes_computed"] = counters.get(fwht + ".bytes_computed", 0)
    m["numkit.cholesky_solve.calls"] = calls("numkit.cholesky_solve")
    m["numkit.cholesky_solve.s"] = secs("numkit.cholesky_solve")

    decide = ("censor.nac_decide", "censor.ac_decide", "censor.robust_decide")
    m["censor.threshold.calls"] = calls("censor.threshold")
    m["censor.threshold.ns_per_call"] = ns_per_call("censor.threshold")
    m["censor.decide.calls"] = calls(*decide)
    m["censor.decide.ns_per_call"] = ns_per_call(*decide)
    kept, cens = counters.get("decided_kept", 0), counters.get("decided_censored", 0)
    m["censor.kept_ratio"] = ratio(kept, kept + cens)

    per_step = {}
    for kind in ("kept", "censored"):
        key = f"estimators.step_{kind}"
        m[key + ".calls"] = calls(key)
        m[key + ".ns_per_call"] = ns_per_call(key)
        mults = ratio(counters.get(key + ".multiplies", 0), calls(key))
        m[f"estimators.multiplies_per_{kind}"] = mults
        m[f"estimators.ns_per_multiply_{kind}"] = ratio(m[key + ".ns_per_call"], mults)
        per_step[kind] = (mults, m[key + ".ns_per_call"])
    m["estimators.step_outlier.calls"] = calls("estimators.step_outlier")
    # Multiply gain of a censored step over a kept one, divided by its wall gain.
    (mk, tk), (mc, tc) = per_step["kept"], per_step["censored"]
    m["estimators.gate_gap"] = ratio(ratio(mk, mc), ratio(tk, tc)) if mk and mc else 0.0
    # Subclass snapshots call their parent's, so nested snapshot spans add
    # up by self time, not by duration.
    m["estimators.snapshot.s"] = stats.get("estimators.snapshot", (0, 0, 0))[2] / 1e9
    for name in ("preliminary_fit", "kaczmarz_run"):
        m[f"estimators.{name}.s"] = secs(f"estimators.{name}")

    m["datagen.generate.s"] = secs("datagen.generate")
    m["datagen.generate.data_per_s"] = ratio(counters.get("datagen.generate.items", 0),
                                             secs("datagen.generate"))
    m["datagen.materialize.s"] = secs("datagen.materialize")

    load = secs("ingest.load_csv")
    m["ingest.load_csv.s"] = load
    m["ingest.load_csv.rows_per_s"] = ratio(counters.get("ingest.load_csv.rows", 0), load)
    m["ingest.load_csv.bytes_per_s"] = ratio(counters.get("ingest.load_csv.bytes", 0), load)
    m["ingest.surrogate_truth.s"] = secs("ingest.surrogate_truth")

    for name in ("srht_reduce", "uniform_reduce", "solve_reduced"):
        m[f"sketch.{name}.s"] = secs(f"sketch.{name}")

    root_s = tr["root_ns"] / 1e9
    trial_ns = tr["samples"].get("harness.run_trial", [])
    m["harness.run_trial.calls"] = calls("harness.run_trial")
    m["harness.run_trial.s_p50"] = statistics.median(trial_ns) / 1e9 if trial_ns else 0.0
    m["harness.self_share"] = ratio(tr["layer_self_ns"]["harness"] / 1e9, root_s)
    m["harness.prop_bounds.s"] = secs("harness.prop_bounds")
    m["harness.write_results.s"] = secs("harness.write_results_csv", "harness.write_summary_json")
    m["harness.write_results.bytes"] = counters.get("harness.write_results.bytes", 0)
    m["cli.import_s"] = rep["import_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr["layer_self_ns"][layer] / 1e9
    m["trace.run_s"] = root_s
    m["trace.overhead"] = traced_run_s / plain_run_s - 1.0
    m["mse_final"] = quality.get("mse_final", 0.0)
    m["censor_gap"] = quality.get("censor_gap", 0.0)
    return m


def metrics_of(probes, trials, trace: bool) -> tuple[dict, dict]:
    """(metrics, quality) from the trials that passed, else from any that ran."""
    def usable(mode):
        ran = [t for t in trials if t["mode"] == mode and t["report"] is not None
               and "run_s" in t["report"]]
        return [t for t in ran if not t["problems"]] or ran

    plain = usable("plain")
    if not plain:
        raise SystemExit("perfbench: no untraced trial ran; see the trial errors above")
    quality = next((t["quality"] for t in plain if t["quality"]), {})
    run_s = statistics.median(t["report"]["run_s"] for t in plain)
    if trace:
        traced = sorted(usable("traced"), key=lambda t: t["report"]["run_s"])
        if not traced:
            raise SystemExit("perfbench: no traced trial ran; see the trial errors above")
        pick = traced[(len(traced) - 1) // 2]
        values = layer_metrics(pick["report"], run_s, pick["report"]["run_s"], quality)
        units = PER_LAYER
    else:
        setups = [t["report"]["setup_s"] for t in probes + plain if t["report"] is not None]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "data_per_s": statistics.median(quality.get("streamed", 0) / t["report"]["run_s"]
                                            for t in plain),
            "multiplies_per_datum": quality.get("multiplies_per_datum", 0.0),
            "peak_rss_mb": statistics.median(t["report"]["peak_rss_mb"] for t in plain),
        }
        units = END_TO_END
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}, quality


def run_workload(wl, seed: int, seconds: float, trace: bool, toy: bool) -> int:
    """Measure one workload; print its environment line and its result line."""
    needed = [ROOT / "src" / "cendre" / "cli.py", ROOT / "configs" / wl.config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root of a "
              "cendre source checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{wl.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = worker_env()
        prep = prepare(wl, ROOT, work, seed, toy, env)
        probes, trials = closed_loop(prep, work, env, seconds, trace)
        check(wl, prep, trials, toy)
        for t in probes:
            died = t["report"] is None
            t["problems"] = [f"exit {t['rc']}: {t['stderr'][-500:]}"] if died else []
        for t in probes + trials:
            for problem in t["problems"]:
                print(f"perfbench: {t['mode']} trial failed: {problem}", file=sys.stderr)
        metrics, quality = metrics_of(probes, trials, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    env_report = next((t["report"]["env"] for t in trials
                       if t["report"] and "env" in t["report"]), {})
    info = {"workload": wl.name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "seconds": seconds, "trace": int(trace), "toy": toy,
            "env": env_report, "quality": quality,
            "trials": [{"mode": t["mode"], "run_s": (t["report"] or {}).get("run_s"),
                        "setup_s": (t["report"] or {}).get("setup_s"),
                        "failed_checks": t["problems"]} for t in probes + trials]}
    attempted = len(probes) + len(trials)
    failed = sum(1 for t in probes + trials if t["problems"])
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to a smoke-test size (selftest.py)")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        code = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.toy)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
