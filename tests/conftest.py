import os

# One BLAS thread, set before anything imports numpy: with OpenBLAS's
# default the p = 200 tests slow several-fold whenever another process
# shares the cores.  Subprocesses the tests start inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis

hypothesis.settings.register_profile(
    "suite",
    max_examples=150,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("suite")
