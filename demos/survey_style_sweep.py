"""Run the sweep protocol against a fixed, fully known matrix.

Survey data is the motivating shape: integer responses 0-4 where a missing
answer plausibly means "nothing to report", i.e. a zero.  Real registries
are proprietary, so this demo synthesizes a survey-like table with low-rank
structure plus many exact zeros, then applies the identical protocol the
synthetic sweeps use: per trial, subsample rows, hide entries at the cell's
zero/nonzero rates, complete both ways, and report the error ratio.
"""

import numpy as np

import structmc as smc

# survey-like ground truth: 120 respondents x 30 questions, scores 0..4,
# driven by 3 latent traits so the table is approximately low-rank
rng = smc.stream(8080, "survey-demo")
traits = rng.random((120, 3)) * np.array([2.0, 1.5, 1.0])
loadings = rng.random((3, 30))
scores = np.clip(np.floor(traits @ loadings), 0.0, 4.0)
truth = smc.as_matrix(scores)
zero_share = float((truth == 0).mean())
print(f"synthetic survey table: {truth.shape[0]} rows x {truth.shape[1]} cols, "
      f"{zero_share:.0%} exact zeros, integer scores 0..4")

sweep = smc.RealSweep(
    zero_rates=(0.1, 0.9),
    nonzero_rates=(0.1, 0.9),
    alphas=(1e-1, 1e-2, 1e-3, 1e-4),
    trials=3,
    base_seed=8081,
    row_subsample=50,  # each trial samples 50 rows, as a large registry would require
)
result = smc.run_real_matrix(truth, sweep)

print("\nmean error ratio (rows: rate_zero, cols: rate_nonzero):")
print("            " + "  ".join(f"{r:>6.1f}" for r in sweep.nonzero_rates))
for i, rz in enumerate(sweep.zero_rates):
    cells = "  ".join(
        "  --  " if np.isnan(v) else f"{v:6.3f}" for v in result.mean_ratio[i]
    )
    print(f"{rz:>10.1f}  {cells}")

print("\nmean optimal alpha per cell:")
for i, rz in enumerate(sweep.zero_rates):
    cells = "  ".join(
        "  --  " if np.isnan(v) else f"{v:6.4f}" for v in result.mean_alpha[i]
    )
    print(f"{rz:>10.1f}  {cells}")

print(
    "\nAs with the synthetic sweeps, the payoff concentrates where few zeros"
    "\nbut most nonzeros are observed; there the optimal alpha is also larger."
)
