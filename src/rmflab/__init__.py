"""rmflab: desk-scale experiments on sign changes of random partial sums.

A simulation laboratory around the partial sums M(u) of a Rademacher
random multiplicative function and of general orthogonal step sequences:
exact number-theoretic baselines (squarefree counts, Mertens census),
closed-form grid sums and correlations, and deterministic parallel Monte
Carlo estimators with bootstrap confidence intervals.
"""

__version__ = "0.1.0"

from .analysis import (
    LambdaParams,
    SignChangeReport,
    count_sign_changes,
    exact_correlation,
    forcing_events,
    harper_predictor,
    lambda_asymptotic,
    lambda_exact,
)
from .engine import PartialSumTrace, WalkResult, run_walks
from .errors import ParameterError, ResourceError, RmflabError
from .models import (
    ModelSpec,
    SidonSet,
    collect_walks,
    mian_chowla,
    psi_predictor,
    sample_path,
)
from .montecarlo import (
    EstimateWithCI,
    ExperimentPlan,
    correlation_table,
    estimate_correlation,
    estimate_event_probs,
    estimate_expected_V,
    estimate_moment,
    estimate_sign_change_prob,
    expected_v_table,
    moment_table,
    x_ell_grid,
)
from .rmf import SignOracle, rmf_trace
from .sieve import PrimeTable, mertens_trace, primes_up_to, squarefree_count

__all__ = [
    "__version__",
    # errors
    "RmflabError", "ParameterError", "ResourceError",
    # sieve
    "PrimeTable", "primes_up_to", "squarefree_count", "mertens_trace",
    # walks
    "PartialSumTrace", "WalkResult", "run_walks",
    "SignOracle", "rmf_trace",
    # models
    "ModelSpec", "SidonSet", "mian_chowla", "sample_path", "collect_walks",
    "psi_predictor",
    # analysis
    "LambdaParams", "lambda_exact", "lambda_asymptotic", "harper_predictor",
    "SignChangeReport", "count_sign_changes", "exact_correlation", "forcing_events",
    # experiments
    "ExperimentPlan", "EstimateWithCI",
    "estimate_moment", "moment_table", "estimate_expected_V",
    "expected_v_table", "estimate_sign_change_prob", "estimate_correlation",
    "correlation_table", "estimate_event_probs", "x_ell_grid",
]
