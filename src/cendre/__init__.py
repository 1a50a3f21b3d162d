"""Streaming regression under censoring.

Online maximum-likelihood estimation from interval-censored data, one
censoring gate (with an optional outlier clip) in front of first-order
LMS and second-order RLS recursions, threshold planners that hit a
target discard rate, randomized sketching baselines, synthetic and CSV
data pipelines, and a reproducible Monte Carlo harness with a CLI front
end.
"""

from .censor import (CensorDecision, ThresholdPlan, ac_threshold_offline,
                     censor_prob_clt, censor_prob_exact, nac_decide,
                     nac_threshold_clt, nac_threshold_exact, robust_decide)
from .datagen import StreamSpec, full_lse_mse, generate, materialize, toeplitz_cov
from .errors import (CendreError, ConfigError, DomainError, SingularityError,
                     UsageError)
from .estimators import (LMS, RLS, FirstOrderCensoredMLE, PreliminaryFit,
                         SecondOrderCensoredMLE, StepSize, batch_lse,
                         from_snapshot, kaczmarz_run, preliminary_fit, regret)
from .harness import (ExperimentConfig, MonteCarloResult, TrialTrace,
                      geometric_schedule, monte_carlo, prop_bounds, run_trial,
                      write_results_csv, write_summary_json)
from .ingest import (Dataset, load_csv, sidecar_path, surrogate_truth, write_csv,
                     write_sidecar)
from .likelihood import CensoredTerm, ScoreInfo, evaluate, loss, score_info
from .numkit import (cholesky_solve, derive, fwht_in_place, gauss_pdf, gauss_q,
                     gauss_q_inv, interval_log_prob, substream)
from .sketch import ReducedProblem, solve_reduced, srht_reduce, uniform_reduce

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CendreError", "ConfigError", "DomainError", "SingularityError", "UsageError",
    # numkit
    "gauss_pdf", "gauss_q", "gauss_q_inv", "interval_log_prob",
    "fwht_in_place", "cholesky_solve",
    "substream", "derive",
    # likelihood
    "CensoredTerm", "ScoreInfo", "loss", "evaluate", "score_info",
    # censor
    "CensorDecision", "ThresholdPlan", "nac_decide", "robust_decide",
    "nac_threshold_exact", "censor_prob_exact", "nac_threshold_clt",
    "censor_prob_clt", "ac_threshold_offline",
    # estimators
    "StepSize", "PreliminaryFit", "preliminary_fit", "FirstOrderCensoredMLE",
    "SecondOrderCensoredMLE", "LMS", "RLS", "kaczmarz_run", "batch_lse",
    "regret", "from_snapshot",
    # sketch
    "ReducedProblem", "srht_reduce", "uniform_reduce", "solve_reduced",
    # datagen
    "StreamSpec", "toeplitz_cov", "generate", "materialize", "full_lse_mse",
    # ingest
    "Dataset", "load_csv", "sidecar_path", "surrogate_truth", "write_csv",
    "write_sidecar",
    # harness
    "ExperimentConfig", "TrialTrace", "MonteCarloResult", "run_trial",
    "monte_carlo", "prop_bounds", "geometric_schedule", "write_results_csv",
    "write_summary_json",
]
