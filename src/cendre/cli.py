"""Command-line interface.

Subcommands: gen (synthetic dataset files), run (one experiment config),
sweep (a family of runs along one axis), bench (wall-time and multiply
comparison at matched compression), info (build and capability report).

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.
A default seed may be supplied via the CENDRE_SEED environment variable;
an explicit --seed always wins over both the environment and the config
file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import StreamSpec, materialize, toeplitz_cov
from .errors import CendreError, ConfigError, SingularityError
from .harness import (ALL_METHODS, AC_METHODS, BATCH_METHODS, RESULT_COLUMNS,
                      ExperimentConfig, monte_carlo, result_rows, run_trial,
                      write_results_csv, write_summary_json)
from .numkit.rng import derive

__all__ = ["main", "build_parser"]

_ENV_SEED = "CENDRE_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cendre",
        description="Streaming regression with censored data: generators, "
                    "estimators, and benchmarks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"master seed (overrides config and ${_ENV_SEED})")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")

    p_gen = sub.add_parser("gen", parents=[common],
                           help="write a synthetic dataset CSV plus truth sidecar")
    p_gen.add_argument("--p", type=int, required=True, help="number of features")
    p_gen.add_argument("--D", type=int, required=True, help="number of rows")
    p_gen.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p_gen.add_argument("--design", choices=["gaussian", "t"], default="gaussian")
    p_gen.add_argument("--df", type=float, default=None,
                       help="degrees of freedom for the t design")
    p_gen.add_argument("--cov", default="identity",
                       help="'identity' or 'toeplitz:a,r'")
    p_gen.add_argument("--outliers", default=None, metavar="PROB,VAR",
                       help="sparse outlier process added to y")
    p_gen.add_argument("--name", default="stream", help="output file stem")

    p_run = sub.add_parser("run", parents=[common],
                           help="execute one experiment config")
    p_run.add_argument("--config", type=Path, required=True, help="JSON config path")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a config once per point along one axis")
    p_sweep.add_argument("--config", type=Path, required=True, help="JSON config path")
    p_sweep.add_argument("--axis", choices=["tau", "ratio", "methods"], required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 0.1,0.3,0.5 "
                              "or ac-rls,srht,uniform")

    p_bench = sub.add_parser("bench", parents=[common],
                             help="wall time and multiply counts at matched d/D")
    p_bench.add_argument("--config", type=Path, required=True,
                         help="JSON config for the censoring method (ac-rls or rac-rls)")

    sub.add_parser("info", parents=[common], help="print build and capability report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {"gen": _cmd_gen, "run": _cmd_run, "sweep": _cmd_sweep,
                   "bench": _cmd_bench, "info": _cmd_info}[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularityError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except CendreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def _default_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"${_ENV_SEED} must be an integer, got {env!r}") from None
    raise ConfigError(f"no seed given: pass --seed or set ${_ENV_SEED}")


def _load_config(args) -> ExperimentConfig:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from None
    if args.seed is None and os.environ.get(_ENV_SEED) is not None and "seed" not in doc:
        doc["seed"] = int(os.environ[_ENV_SEED])
    if args.seed is not None:
        doc["seed"] = int(args.seed)
    return ExperimentConfig.from_dict(doc)


# ---------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------


def _parse_cov(text: str, p: int):
    if text == "identity":
        return None
    if text.startswith("toeplitz:"):
        parts = text[len("toeplitz:"):].split(",")
        if len(parts) != 2:
            raise ConfigError("--cov toeplitz takes two values, e.g. toeplitz:2,0.5")
        return toeplitz_cov(p, float(parts[0]), float(parts[1]))
    raise ConfigError(f"unknown --cov {text!r}; use 'identity' or 'toeplitz:a,r'")


def _cmd_gen(args) -> int:
    seed = _default_seed(args)
    outlier_prob = outlier_var = 0.0
    if args.outliers is not None:
        parts = args.outliers.split(",")
        if len(parts) != 2:
            raise ConfigError("--outliers takes PROB,VAR, e.g. 0.05,225")
        outlier_prob, outlier_var = float(parts[0]), float(parts[1])
    spec = StreamSpec(p=args.p, D=args.D, sigma=args.sigma, seed=seed,
                      design="student-t" if args.design == "t" else "gaussian",
                      cov=_parse_cov(args.cov, args.p), df=args.df,
                      outlier_prob=outlier_prob, outlier_var=outlier_var)
    X, y = materialize(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"{args.name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(spec.p)] + ["y"])
        for row, target in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    truth_path = args.out / f"{args.name}.truth.json"
    doc = {"theta_o": [float(v) for v in spec.resolved_theta()],
           "sigma": spec.sigma, "seed": seed,
           "p": spec.p, "D": spec.D, "design": spec.design}
    if spec.df is not None:
        doc["df"] = spec.df
    if spec.has_outliers:
        doc["outliers"] = {"prob": outlier_prob, "var": outlier_var}
    with open(truth_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({spec.D} rows) and {truth_path}")
    return 0


# ---------------------------------------------------------------------
# run / sweep / bench / info
# ---------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    result = monte_carlo(cfg)
    csv_path = write_results_csv(result.traces, args.out / "results.csv")
    json_path = write_summary_json(result, args.out / "summary.json")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _axis_float(text: str, axis: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--values entry {text!r} is not a number for axis {axis!r}") from None


def _axis_configs(cfg: ExperimentConfig, axis: str, values: list[str]):
    """One (label, config) per axis point."""
    if not values:
        raise ConfigError("--values is empty")
    points = []
    if axis == "tau":
        for text in values:
            tau = _axis_float(text, axis)
            doc = cfg.to_dict()
            doc["censor"] = {"kind": "constant", "tau": tau}
            points.append((text, ExperimentConfig.from_dict(doc)))
    elif axis == "ratio":
        for text in values:
            ratio = _axis_float(text, axis)
            if not 0.0 < ratio <= 1.0:
                raise ConfigError(f"ratio {ratio} outside (0, 1]")
            doc = cfg.to_dict()
            if cfg.method in BATCH_METHODS:
                doc["ratio"] = ratio
            elif cfg.method in AC_METHODS:
                kind = (cfg.censor or {}).get("kind")
                if kind not in ("ac-online", "ac-offline"):
                    raise ConfigError("ratio sweeps need an ac-online or ac-offline "
                                      "censor section to translate d/D into a target")
                doc["censor"] = {"kind": kind, "target_pi": 1.0 - ratio}
            else:
                raise ConfigError(f"method {cfg.method!r} has no d/D axis")
            points.append((text, ExperimentConfig.from_dict(doc)))
    else:  # methods
        for name in values:
            if name not in ALL_METHODS:
                raise ConfigError(f"unknown method {name!r} in --values")
            doc = cfg.to_dict()
            doc["method"] = name
            if name not in AC_METHODS + ("samle1", "samle2"):
                doc.pop("censor", None)
            points.append((name, ExperimentConfig.from_dict(doc)))
    return points


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    points = _axis_configs(cfg, args.axis, values)
    args.out.mkdir(parents=True, exist_ok=True)
    merged_path = args.out / "sweep.csv"
    summary: dict = {"axis": args.axis, "points": {}}
    with open(merged_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", *RESULT_COLUMNS])
        for label, point_cfg in points:
            result = monte_carlo(point_cfg)
            summary["points"][label] = result.summary_doc()
            writer.writerows([args.axis, label, *row] for row in result_rows(result.traces))
    json_path = args.out / "sweep.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {merged_path} and {json_path}")
    return 0


def _timed_trial(cfg: ExperimentConfig, seed: int, data):
    """run_trial on a stream drawn beforehand, so only the estimator is timed."""
    start = time.perf_counter()
    trace = run_trial(cfg, seed, data)
    return trace, time.perf_counter() - start


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    if cfg.method not in ("ac-rls", "rac-rls"):
        raise ConfigError("bench expects an ac-rls or rac-rls config as the baseline")
    if cfg.stream is None:
        raise ConfigError("bench needs a synthetic stream config")
    args.out.mkdir(parents=True, exist_ok=True)
    seed = derive(cfg.seed, 0)
    data = materialize(cfg.stream.pinned().with_seed(seed))

    report: dict = {"p": cfg.stream.p, "D": cfg.stream.D, "methods": {}}
    ac_trace, ac_secs = _timed_trial(cfg, seed, data)
    d = ac_trace.kept_total
    report["d"] = d
    report["ratio"] = d / cfg.stream.D

    for name in (cfg.method, "rls", *BATCH_METHODS):
        if name == cfg.method:
            trace, secs = ac_trace, ac_secs
        else:  # the same stream without the gate, or sketched to d rows
            doc = cfg.to_dict()
            doc["method"] = name
            doc.pop("censor", None)
            doc.get("estimator", {}).pop("tau_out", None)
            if name in BATCH_METHODS:
                doc["ratio"] = max(d, cfg.stream.p) / cfg.stream.D
            trace, secs = _timed_trial(ExperimentConfig.from_dict(doc), seed, data)
        report["methods"][name] = {"wall_seconds": secs, "multiplies": int(trace.multiplies[-1]),
                                   "final_mse": float(trace.mse[-1])}
    rls_secs = report["methods"]["rls"]["wall_seconds"]
    report["speedup_vs_rls"] = rls_secs / ac_secs if ac_secs > 0 else float("inf")
    out_path = args.out / "bench.json"
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    print(f"{cfg.method} kept {d}/{cfg.stream.D} rows; "
          f"wall {ac_secs:.3f}s vs rls {rls_secs:.3f}s "
          f"({report['speedup_vs_rls']:.1f}x)")
    return 0


def _cmd_info(args) -> int:
    print(f"cendre {__version__}")
    print(f"methods: {', '.join(sorted(ALL_METHODS))}")
    print("censor kinds: constant, nac-exact, nac-clt, ac-online, ac-offline")
    print("config schema: 1 (JSON; flags override file values)")
    print(f"seed sources: --seed flag > ${_ENV_SEED} > config file")
    print("exit codes: 0 ok, 2 config error, 3 numerical error")
    return 0
