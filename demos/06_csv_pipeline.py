"""From a CSV file on disk to a streaming estimate.

Real tables arrive with headers, junk cells, and no ground truth.
The ingest path parses and cleans them, fits a full least-squares
reference (the surrogate truth that error curves are measured
against), and then any streaming estimator can make a pass over the
rows.  A sidecar JSON records what cleaning happened, so a results
file can always be traced back to decisions about the raw data.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from cendre import (
    RLS,
    Dataset,
    ExperimentConfig,
    StreamSpec,
    load_csv,
    materialize,
    run_trial,
    surrogate_truth,
    write_csv,
    write_sidecar,
    sidecar_path,
)


def main():
    with tempfile.TemporaryDirectory(prefix="cendre-demo-") as workdir:
        pipeline(Path(workdir) / "stream.csv")


def pipeline(csv_path: Path):
    # Fabricate a table: a synthetic stream written out column-wise.
    spec = StreamSpec(p=6, D=2000, sigma=0.5, seed=99).pinned()
    X, y = materialize(spec)
    ds = Dataset(design=X, response=y,
                 column_names=[f"x{j}" for j in range(X.shape[1])],
                 response_name="y", provenance={"source": "synthetic demo"})
    write_csv(ds, csv_path)
    print(f"wrote {csv_path} ({ds.D} rows, {ds.p} features)")

    # Load it back the way a consumer would, and fit the reference.
    loaded = load_csv(csv_path, target_column="y", standardize=False)
    theta_ref, sigma_hat = surrogate_truth(loaded)
    write_sidecar(loaded, csv_path)
    print(f"surrogate truth: sigma_hat = {sigma_hat:.4f} "
          f"(noise used to generate: {spec.sigma})")
    print(f"sidecar: {sidecar_path(csv_path).name} -> source "
          f"{json.loads(sidecar_path(csv_path).read_text())['source']!r}")
    print()

    # Stream the rows through an adaptive-censoring estimator.
    est = RLS(loaded.p, sigma=sigma_hat)
    tau = 1.0
    for xi, yi in zip(loaded.design, loaded.response):
        est.step(float(yi), xi, tau)
    err = float(np.sum((est.theta - theta_ref) ** 2) / np.sum(theta_ref**2))
    print(f"one pass at tau={tau}: kept {est.kept_count}/{loaded.D} rows, "
          f"rse vs surrogate truth = {err:.2e}")
    print()

    # The same run, driven by a config document instead of code.
    cfg = ExperimentConfig.from_dict({
        "schema": 1, "method": "ac-rls", "seed": 1,
        "dataset": {"path": str(csv_path), "target_column": "y"},
        "censor": {"kind": "constant", "tau": 1.0},
        "record_at": [500, 2000],
    })
    trace = run_trial(cfg, replicate_seed=1)
    print("config-driven trial on the same file:")
    for n, rse, ratio in zip(trace.n, trace.rse, trace.censor_ratio):
        print(f"  n={n:>5}  rse={rse:.2e}  censored={ratio:.0%}")


if __name__ == "__main__":
    main()
