"""The package runs on numpy and the standard library alone.

scipy stays installed for the test oracles, so the command checks run in a
fresh interpreter with ``sys.modules["scipy"] = None``: any import of scipy,
or of one of its submodules, then raises ImportError.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cendre.harness import ALL_METHODS
from cendre.numkit import substream

ROOT = Path(__file__).resolve().parents[1]

# Blocks scipy, then runs `cendre` with the arguments that follow.
_GUARDED = ("import sys; sys.modules['scipy'] = None; "
            "from cendre.cli import main; sys.exit(main(sys.argv[1:]))")


def _guarded(*args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "CENDRE_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, "-c", _GUARDED, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_cendre_loads_no_scipy():
    code = ("import sys, cendre, cendre.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs the statement put in for {}, then prints the top-level names of the
# loaded modules that live under site-packages.
_SITE_PACKAGES = ("import site, sys; roots = tuple(site.getsitepackages()) + "
                  "(site.getusersitepackages(),); {}; "
                  "print(*{{n.split('.')[0] for n, m in list(sys.modules.items()) "
                  "if (getattr(m, '__file__', None) or '').startswith(roots)}})")


def test_import_cendre_cli_loads_no_third_party_package_but_numpy():
    # A bare interpreter may already hold packages that .pth files load.
    def loaded(imports):
        proc = subprocess.run([sys.executable, "-c", _SITE_PACKAGES.format(imports)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    assert loaded("import cendre.cli") - loaded("pass") == {"numpy"}


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_run_without_scipy(tmp_path, config):
    # A toy copy of each committed config, shrunk as perfbench's smoke runs
    # are: D = K + 400, at most two replicates, the default marks.
    doc = json.loads((ROOT / "configs" / config).read_text())
    doc["stream"] = dict(doc["stream"], D=int(doc.get("K", 0)) + 400)
    doc["replicates"] = min(int(doc.get("replicates", 1)), 2)
    doc.pop("record_at", None)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    proc = _guarded("run", "--config", cfg, "--out", tmp_path / "out", "--seed", 5, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").is_file()


def test_methods_sweep_without_scipy(tmp_path):
    # Every method on a small CSV: the NAC fits and Cholesky solves, the
    # gated recursions, Kaczmarz and both sketches.
    rows = substream(7).standard_normal((600, 5))
    rows[:, -1] = rows[:, :-1] @ [0.5, -1.0, 2.0, 0.3] + 0.5 * rows[:, -1]
    data = tmp_path / "d.csv"
    data.write_text("a,b,c,d,y\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                           for row in rows))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema": 1, "method": "ac-rls", "seed": 3, "replicates": 1, "K": 40,
        "dataset": {"path": str(data), "target_column": "y"},
        "censor": {"kind": "constant", "tau": 1.0},
        "estimator": {"tau_out": 3.0, "mu": {"policy": "diminishing", "value": 0.5}},
        "ratio": 0.3}))
    proc = _guarded("sweep", "--config", cfg, "--out", tmp_path / "out", "--axis", "methods",
                    "--values", ",".join(ALL_METHODS), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert sorted(summary["points"]) == sorted(ALL_METHODS)
