"""One trial of a workload in a fresh interpreter.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py --mode plain|traced|setup --spawn T \
        --config CONFIG --report REPORT.json -- <cendre CLI arguments>

``--spawn`` is the parent's ``time.perf_counter()`` taken just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so ``setup_s`` covers interpreter start, ``import
cendre``, and loading and validating the config.  ``setup`` mode stops
there.  The other modes then call ``cendre.cli.main`` once, with the
tracer installed in ``traced`` mode, and write their timings to REPORT.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    t_import = time.perf_counter()
    import cendre.cli
    from cendre.censor import censor_prob_clt
    from cendre.harness import ExperimentConfig
    import_s = time.perf_counter() - t_import

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with open(args.config) as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
    setup_s = time.perf_counter() - args.spawn

    censor = cfg.censor or {}
    if "target_pi" in censor:
        target = float(censor["target_pi"])
    else:
        target = censor_prob_clt(float(censor["tau"]), cfg.stream.p, cfg.K)
    report = {"mode": args.mode, "setup_s": setup_s, "import_s": import_s,
              "censor_target": target, "cendre_file": cendre.cli.__file__}
    if args.mode != "setup":
        t0 = time.perf_counter()
        rc = cendre.cli.main(args.cli_args)
        report["run_s"] = time.perf_counter() - t0
        report["rc"] = rc
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["trace"] = tracer.report()
        import numpy
        import scipy
        report["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "nproc": os.cpu_count(),
                         "blas_threads": _blas_threads()}
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
