"""Command-line interface: subcommands, precedence, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cendre.cli import main
from cendre.ingest import load_csv
from cendre.numkit import substream


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("CENDRE_SEED", raising=False)


def _run_config(tmp_path, doc, name="cfg.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return f


def _basic_doc(**over):
    doc = {
        "schema": 1,
        "method": "ac-rls",
        "seed": 5,
        "replicates": 2,
        "stream": {"p": 3, "D": 128, "sigma": 1.0},
        "censor": {"kind": "constant", "tau": 0.8},
    }
    doc.update(over)
    return doc


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "cendre" in out
    assert "exit codes" in out


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------

def test_gen_writes_csv_and_truth(tmp_path, capsys):
    rc = main(["gen", "--p", "3", "--D", "50", "--sigma", "0.5",
               "--seed", "42", "--out", str(tmp_path), "--name", "toy"])
    assert rc == 0
    ds = load_csv(tmp_path / "toy.csv", "y")
    assert (ds.D, ds.p) == (50, 3)
    truth = json.loads((tmp_path / "toy.truth.json").read_text())
    assert len(truth["theta_o"]) == 3
    assert truth["sigma"] == 0.5 and truth["seed"] == 42
    # The CSV holds full-precision values consistent with the truth:
    # residual scale matches sigma.
    resid = ds.response - ds.design @ np.array(truth["theta_o"])
    assert 0.2 < float(np.std(resid)) < 1.0


def test_gen_deterministic(tmp_path):
    for sub in ("a", "b"):
        main(["gen", "--p", "2", "--D", "20", "--sigma", "1.0",
              "--seed", "7", "--out", str(tmp_path / sub)])
    assert (tmp_path / "a" / "stream.csv").read_bytes() == \
           (tmp_path / "b" / "stream.csv").read_bytes()


def test_gen_variants(tmp_path):
    assert main(["gen", "--p", "2", "--D", "30", "--sigma", "1.0", "--seed", "1",
                 "--design", "t", "--df", "3", "--cov", "toeplitz:1,0.5",
                 "--outliers", "0.1,25", "--out", str(tmp_path)]) == 0
    truth = json.loads((tmp_path / "stream.truth.json").read_text())
    assert truth["design"] == "student-t" and truth["df"] == 3.0
    assert truth["outliers"] == {"prob": 0.1, "var": 25.0}


def test_gen_bad_flags(tmp_path, capsys):
    assert main(["gen", "--p", "2", "--D", "9", "--sigma", "1.0", "--seed", "1",
                 "--cov", "circulant:1", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["gen", "--p", "2", "--D", "9", "--sigma", "1.0", "--seed", "1",
                 "--outliers", "0.1", "--out", str(tmp_path)]) == 2
    assert main(["gen", "--p", "2", "--D", "9", "--sigma", "1.0", "--seed", "-5",
                 "--out", str(tmp_path)]) == 2
    assert "config error: invalid 'stream' section: seed must be nonnegative" \
        in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch, capsys):
    args = ["gen", "--p", "2", "--D", "9", "--sigma", "1.0", "--out", str(tmp_path)]
    assert main(args) == 2  # no seed anywhere
    assert "no seed" in capsys.readouterr().err
    monkeypatch.setenv("CENDRE_SEED", "33")
    assert main(args) == 0
    truth = json.loads((tmp_path / "stream.truth.json").read_text())
    assert truth["seed"] == 33
    assert main(args + ["--seed", "44"]) == 0  # flag beats environment
    truth = json.loads((tmp_path / "stream.truth.json").read_text())
    assert truth["seed"] == 44
    monkeypatch.setenv("CENDRE_SEED", "not-a-number")
    assert main(args) == 2
    monkeypatch.setenv("CENDRE_SEED", "-2")
    assert main(args) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


# ---------------------------------------------------------------------
# run
# ---------------------------------------------------------------------

def test_run_writes_results(tmp_path, capsys):
    cfg = _run_config(tmp_path, _basic_doc())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("method,seed,n")
    assert len(lines) > 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["method"] == "ac-rls"
    assert summary["replicates"] == 2


def test_run_byte_stable(tmp_path):
    cfg = _run_config(tmp_path, _basic_doc())
    for sub in ("a", "b"):
        main(["run", "--config", str(cfg), "--out", str(tmp_path / sub)])
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = _run_config(tmp_path, _basic_doc(seed=5))
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 99


def test_run_env_seed_fills_missing(tmp_path, monkeypatch):
    doc = _basic_doc()
    del doc["seed"]
    cfg = _run_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("CENDRE_SEED", "17")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 17


def test_run_seed_sources_on_bad_documents(tmp_path, monkeypatch, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["run", "--config", str(listed), "--seed", "3"]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    doc = _basic_doc()
    del doc["seed"]
    cfg = _run_config(tmp_path, doc)
    monkeypatch.setenv("CENDRE_SEED", "not-a-number")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env"])
def test_run_negative_seed_names_the_seed(tmp_path, monkeypatch, capsys, source):
    # The stream section takes the top-level seed as its default, so the
    # top-level field must be checked first for the message to name it.
    doc = _basic_doc()
    args = []
    if source == "flag":
        args = ["--seed", "-5"]
    else:
        del doc["seed"]
        monkeypatch.setenv("CENDRE_SEED", "-2")
    cfg = _run_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert "config error: field 'seed' must be nonnegative" in err
    assert "stream" not in err


def test_run_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    cfg = _run_config(tmp_path, _basic_doc(typo_field=1), "typo.json")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "typo_field" in capsys.readouterr().err

    doc = _basic_doc()
    del doc["censor"]
    cfg = _run_config(tmp_path, doc, "nocensor.json")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "censor" in capsys.readouterr().err

    stream = {"p": 3, "D": 128, "sigma": 1.0, "seed": -4}
    cfg = _run_config(tmp_path, _basic_doc(stream=stream), "seed.json")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "invalid 'stream' section: seed must be nonnegative" in capsys.readouterr().err

    # A noiseless stream is a valid stream, but gives a censoring rule no scale.
    cfg = _run_config(tmp_path, _basic_doc(stream={"p": 3, "D": 128, "sigma": 0.0}), "s0.json")
    assert main(["run", "--config", str(cfg)]) == 2
    assert ("config error: censoring rules need a positive noise scale sigma"
            in capsys.readouterr().err)

    # A value of the wrong type is rejected, never cast: a bool is no column
    # index or count, a string no flag or list, a fraction no integer.
    data = tmp_path / "d.csv"
    rows = substream(8).standard_normal((200, 4))
    data.write_text("a,b,c,y\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    dataset = lambda **over: {"dataset": {"path": str(data), "target_column": "y", **over},
                              "stream": None, "replicates": 1}
    wrong = [("dataset.target_column", dataset(target_column=True)),
             ("dataset.target_column", dataset(target_column=False)),
             ("dataset.target_column", dataset(target_column=["y"])),
             ("dataset.standardize", dataset(standardize="no")),
             ("dataset.header", dataset(header="false")),
             ("dataset.delimiter", dataset(delimiter=5)),
             ("dataset.delimiter", dataset(delimiter=",,")),
             ("dataset.delimiter", dataset(delimiter="")),
             ("replicates", {"replicates": 2.7}), ("seed", {"seed": 1.9}),
             ("stream.p", {"stream": {"p": 3.9, "D": 128, "sigma": 1.0}}),
             ("passes", {"passes": True}), ("record_at", {"record_at": "123"})]
    for i, (field, over) in enumerate(wrong):
        doc = {key: value for key, value in _basic_doc(**over).items() if value is not None}
        out = tmp_path / f"wrong{i}"
        assert main(["run", "--config", str(_run_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert f"config error: field '{field}' has invalid value" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, field", [
    (("run", "stream", {"p": "x", "D": 64, "sigma": 1.0}), "stream.p"),
    (("run", "censor", {"kind": "ac-offline", "target_pi": "high"}), "censor.target_pi"),
    (("run", "estimator", {"epsilon": "small"}), "estimator.epsilon"),
    (("gen", "--cov", "toeplitz:x,0.5"), "stream.cov.a"),
], ids=["stream.p", "censor.target_pi", "estimator.epsilon", "gen-cov"])
def test_wrong_value_type_is_a_config_error(tmp_path, capsys, command, field):
    if command[0] == "run":
        cfg = _run_config(tmp_path, _basic_doc(**{command[1]: command[2]}))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    else:
        argv = ["gen", "--p", "2", "--D", "9", "--sigma", "1.0", "--seed", "1",
                *command[1:], "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"config error: field '{field}' has invalid value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize("a, r, bound", [(-1.0, 0.5, "a > 0"), (1.0, 1.5, "|r| < 1")],
                         ids=["a", "r"])
def test_toeplitz_cov_outside_domain_is_a_config_error(tmp_path, capsys, command, a, r, bound):
    if command == "run":
        stream = {"p": 2, "D": 9, "sigma": 1.0, "cov": {"kind": "toeplitz", "a": a, "r": r}}
        cfg = _run_config(tmp_path, _basic_doc(stream=stream))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    else:
        argv = ["gen", "--p", "2", "--D", "9", "--sigma", "1", "--seed", "1",
                "--cov", f"toeplitz:{a},{r}", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid 'stream' section: toeplitz_cov needs {bound}" in err


def test_run_numerical_failure_exit_code(tmp_path, capsys):
    # A dataset with a duplicated column makes the full-data normal
    # equations singular; that is a numerical failure, not a config one.
    rng = substream(9)
    lines = ["a,b,y"]
    for _ in range(12):
        a = rng.standard_normal()
        lines.append(f"{a},{a},{rng.standard_normal()}")
    data = tmp_path / "collinear.csv"
    data.write_text("\n".join(lines) + "\n")
    doc = {"schema": 1, "method": "rls", "seed": 1,
           "dataset": {"path": str(data), "target_column": "y"}}
    cfg = _run_config(tmp_path, doc, "singular.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

def test_sweep_tau_axis(tmp_path):
    cfg = _run_config(tmp_path, _basic_doc(replicates=1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "tau", "--values", "0.5,1.0"]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["axis"] == "tau"
    assert sorted(summary["points"]) == ["0.5", "1.0"]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("axis,value,method")
    assert {line.split(",")[1] for line in lines[1:]} == {"0.5", "1.0"}


def test_sweep_rows_match_run_results(tmp_path):
    # A one-point sweep writes run's results.csv behind its axis and value.
    cfg = _run_config(tmp_path, _basic_doc())
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                 "--axis", "tau", "--values", "0.8"]) == 0
    run_lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
    sweep_lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert [line.split(",", 2)[2] for line in sweep_lines] == run_lines
    assert all(line.startswith("tau,0.8,") for line in sweep_lines[1:])


def test_sweep_ratio_axis(tmp_path):
    doc = _basic_doc(replicates=1, censor={"kind": "ac-offline", "target_pi": 0.5})
    cfg = _run_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "ratio", "--values", "0.2,0.6"]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    pis = {label: point["config"]["censor"]["target_pi"]
           for label, point in summary["points"].items()}
    assert pis == {"0.2": 0.8, "0.6": 0.4}


def test_sweep_ratio_needs_adaptive_censor(tmp_path, capsys):
    cfg = _run_config(tmp_path, _basic_doc(replicates=1))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--axis", "ratio", "--values", "0.2"]) == 2
    assert "ac-online or ac-offline" in capsys.readouterr().err


def test_sweep_methods_axis(tmp_path):
    cfg = _run_config(tmp_path, _basic_doc(replicates=1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "methods", "--values", "rls,kaczmarz,ac-rls"]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert sorted(summary["points"]) == ["ac-rls", "kaczmarz", "rls"]


def test_sweep_rejects_unknown_method(tmp_path):
    cfg = _run_config(tmp_path, _basic_doc(replicates=1))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--axis", "methods", "--values", "rls,sgd"]) == 2


def test_sweep_rejects_non_numeric_values(tmp_path, capsys):
    cfg = _run_config(tmp_path, _basic_doc(replicates=1))
    for axis in ("tau", "ratio"):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--axis", axis, "--values", "banana,0.5"]) == 2
        err = capsys.readouterr().err
        assert "banana" in err and axis in err


def test_sweep_ratio_axis_on_a_sketch(tmp_path):
    doc = _basic_doc(method="srht", ratio=0.5, replicates=1)
    del doc["censor"]
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(_run_config(tmp_path, doc)), "--out", str(out),
                 "--axis", "ratio", "--values", "0.25,1"]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert {label: point["config"]["ratio"] for label, point in summary["points"].items()} \
        == {"0.25": 0.25, "1": 1.0}
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(value, n) for _, value, _, _, n, *_ in rows] == [("0.25", "32"), ("1", "128")]


@pytest.mark.parametrize("over, values, message", [
    ({"censor": {"kind": "ac-offline", "target_pi": 0.5}}, "0.5,1.5", "outside (0, 1]"),
    ({"censor": {"kind": "ac-offline", "target_pi": 0.5}}, "0", "outside (0, 1]"),
    ({"method": "rls", "censor": None}, "0.5", "has no d/D axis"),
    ({}, " , ", "--values is empty"),
    ({"censor": {"kind": "ac-offline", "target_pi": 0.5}}, "0.5,0.5", "repeats '0.5'"),
    ({"censor": {"kind": "ac-offline", "target_pi": 0.5}}, "0.5,0.50", "repeats '0.5'"),
])
def test_sweep_ratio_axis_errors(tmp_path, capsys, over, values, message):
    doc = {key: value for key, value in _basic_doc(replicates=1, **over).items()
           if value is not None}
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(_run_config(tmp_path, doc)), "--out", str(out),
                 "--axis", "ratio", "--values", values]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, message", [
    ("tau", "1.0,1", "'1' repeats '1.0'"),
    ("tau", "0.5,2,5e-1", "'5e-1' repeats '0.5'"),
    ("methods", "rls,ac-rls,rls", "'rls' repeats 'rls'"),
])
def test_sweep_rejects_a_repeated_value(tmp_path, capsys, axis, values, message):
    # Two labels of one point would run it twice; one label twice would keep
    # both in sweep.csv and one in sweep.json.
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(_run_config(tmp_path, _basic_doc(replicates=1))),
                 "--out", str(out), "--axis", axis, "--values", values]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------

def test_bench_report(tmp_path):
    doc = _basic_doc(stream={"p": 8, "D": 512, "sigma": 1.0},
                     censor={"kind": "constant", "tau": 1.5})
    cfg = _run_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "bench.json").read_text())
    assert sorted(report["methods"]) == ["ac-rls", "rls", "srht", "uniform"]
    assert 0 < report["d"] < 512
    ac = report["methods"]["ac-rls"]
    full = report["methods"]["rls"]
    assert ac["multiplies"] < full["multiplies"]


def test_bench_labels_robust_runs(tmp_path, capsys):
    doc = _basic_doc(method="rac-rls", stream={"p": 4, "D": 256, "sigma": 1.0},
                     censor={"kind": "constant", "tau": 1.0}, estimator={"tau_out": 3.0})
    cfg = _run_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("rac-rls kept ")
    report = json.loads((out / "bench.json").read_text())
    assert sorted(report["methods"]) == ["rac-rls", "rls", "srht", "uniform"]


def test_bench_rejects_wrong_method(tmp_path, capsys):
    cfg = _run_config(tmp_path, _basic_doc(method="rls", censor=None))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "ac-rls" in capsys.readouterr().err


# ---------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cendre", "info"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "methods:" in proc.stdout


def test_tracer_binds_every_required_boundary():
    # perfbench's span tracer wraps names where cendre modules import them
    # and raises MissingBoundary when one it needs is gone.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import sys, cendre.cli; sys.path.insert(0, sys.argv[1]); "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code, str(perfbench)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "MissingBoundary" not in proc.stderr


@pytest.mark.parametrize("config", ["robust.json", "censor75.json"])
def test_traced_benchmark_trial(tmp_path, config):
    # One traced trial of perfbench's worker on a toy copy of a committed
    # config, shrunk as its smoke runs are: D = K + 400, two replicates.
    # The tracer wraps every step and snapshot of a class in
    # cendre.estimators, and each layer's self time must add up to the root.
    root = Path(__file__).resolve().parents[1]
    doc = json.loads((root / "configs" / config).read_text())
    doc["stream"] = dict(doc["stream"], D=int(doc.get("K", 0)) + 400)
    doc["replicates"] = min(int(doc.get("replicates", 1)), 2)
    doc.pop("record_at", None)
    cfg, report = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "CENDRE_SEED"}
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--mode", "traced",
         "--spawn", repr(time.perf_counter()), "--config", str(cfg), "--report", str(report),
         "--", "run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"],
        env=env, cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    assert doc["rc"] == 0
    trace = doc["trace"]
    assert trace["violations"] == 0
    assert sum(trace["layer_self_ns"].values()) == trace["root_ns"] > 0
