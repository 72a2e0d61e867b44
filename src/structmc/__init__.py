"""Low-rank matrix completion with regularization of the unobserved entries.

The package provides nuclear norm minimization and three structured
variants (entrywise L1 on the unobserved entries, quadratic noisy data
fits, and a restricted-support low-rank + sparse decomposition), all
solved by ADMM with closed-form proximal steps, plus seeded synthetic data
generation and a benchmark harness that sweeps zero/nonzero sampling rates
and reports error ratios against the plain nuclear-norm baseline.
"""

from .harness import (
    ExperimentGrid,
    GridResult,
    RealSweep,
    TrialRecord,
    run_cell,
    run_grid,
    run_real_matrix,
)
from .matrix import (
    ObservationMask,
    as_matrix,
    entrywise_l1,
    frobenius_norm,
    nuclear_norm,
    project,
)
from .metrics import IncoherenceStats, error_ratio, incoherence, ratio_from_errors, relative_error
from .prox import enforce_observed, prox_obs_fit, prox_obs_fit_quad, soft_threshold, svt
from .solvers import (
    CONVERGED,
    FORMULATIONS,
    MAX_ITERS,
    NUMERICAL_FAILURE,
    CompletionProblem,
    SolveResult,
    SolverConfig,
    estimate_rank,
    monotone_envelope,
    objective_value,
    oracle_solve,
    solve,
    solve_nnm_exact,
    solve_nnm_noisy,
    solve_nnm_noisy_reg,
    solve_nnm_reg,
    solve_rpca_restricted,
)
from .synth import (
    GeneratorSpec,
    SamplingSpec,
    add_noise,
    derive_seed,
    generate_low_rank,
    normal_draws,
    rho_for_noise,
    sample_structured_mask,
    stream,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ObservationMask",
    "as_matrix",
    "project",
    "nuclear_norm",
    "frobenius_norm",
    "entrywise_l1",
    "svt",
    "soft_threshold",
    "prox_obs_fit",
    "prox_obs_fit_quad",
    "enforce_observed",
    "FORMULATIONS",
    "CONVERGED",
    "MAX_ITERS",
    "NUMERICAL_FAILURE",
    "CompletionProblem",
    "SolverConfig",
    "SolveResult",
    "estimate_rank",
    "objective_value",
    "monotone_envelope",
    "solve",
    "solve_nnm_exact",
    "solve_nnm_reg",
    "solve_nnm_noisy",
    "solve_nnm_noisy_reg",
    "solve_rpca_restricted",
    "oracle_solve",
    "GeneratorSpec",
    "SamplingSpec",
    "stream",
    "derive_seed",
    "normal_draws",
    "generate_low_rank",
    "sample_structured_mask",
    "add_noise",
    "rho_for_noise",
    "error_ratio",
    "ratio_from_errors",
    "relative_error",
    "incoherence",
    "IncoherenceStats",
    "ExperimentGrid",
    "RealSweep",
    "TrialRecord",
    "GridResult",
    "run_cell",
    "run_grid",
    "run_real_matrix",
]
