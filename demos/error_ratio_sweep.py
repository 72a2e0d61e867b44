"""Sweep zero/nonzero sampling rates and map where regularization wins.

For each cell of a small rate grid, a sparse-factor low-rank matrix is
drawn, subsampled at the cell's (rate_zero, rate_nonzero) pair, and
completed twice: plain, and with the best L1 weight from a small grid.
Mean error ratios below one mark the regime where penalizing the
unobserved entries helps - the high-nonzero / low-zero corner.

This desk-scale version (a coarse grid, a few trials, one rank per panel)
runs in a couple of minutes; the CLI `structmc benchmark` drives the same
protocol from a config file for full-resolution sweeps.
"""

import numpy as np

import structmc as smc

RATES = (0.1, 0.5, 0.9)
RANKS = (1, 2, 3, 5)  # panel per rank; pick what your application expects
TRIALS = 3


def sweep(rank):
    grid = smc.ExperimentGrid(
        zero_rates=RATES,
        nonzero_rates=RATES,
        alphas=(1e-1, 1e-2, 1e-3, 1e-4),
        trials=TRIALS,
        generator=smc.GeneratorSpec(20, 20, rank, 0.3, 0.5),
        base_seed=512 + rank,
    )
    return smc.run_grid(grid)


def show(table, title):
    print(f"\n{title}")
    header = "rate_zero\\rate_nonzero " + " ".join(f"{r:>7.1f}" for r in RATES)
    print(header)
    for i, rz in enumerate(RATES):
        cells = []
        for j in range(len(RATES)):
            v = table[i, j]
            cells.append("   --  " if np.isnan(v) else f"{v:7.3f}")
        print(f"{rz:>21.1f} " + " ".join(cells))


panels = {}
for rank in RANKS:
    result = sweep(rank)
    panels[rank] = result.mean_ratio
    show(result.mean_ratio, f"mean error ratio, rank {rank} (below 1: regularization wins)")

print(
    "\nReading the tables: rows are the fraction of zero entries observed,"
    "\ncolumns the fraction of nonzero entries observed.  The low-zero /"
    "\nhigh-nonzero corner (top right) is where the structural assumption"
    "\n'missing means close to zero' holds, and the ratio drops below one."
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the heatmap figure")
else:
    fig, axes = plt.subplots(1, len(RANKS), figsize=(4 * len(RANKS), 3.4), constrained_layout=True)
    for ax, rank in zip(np.atleast_1d(axes), RANKS):
        im = ax.imshow(panels[rank], origin="lower", cmap="RdBu", vmin=0.0, vmax=2.0,
                       extent=(RATES[0], RATES[-1], RATES[0], RATES[-1]))
        ax.set_title(f"rank {rank}")
        ax.set_xlabel("rate_nonzero")
        ax.set_ylabel("rate_zero")
    fig.colorbar(im, ax=np.atleast_1d(axes).tolist(), label="mean error ratio")
    fig.suptitle(f"20x20 sparse-factor matrices, ranks {RANKS}, {TRIALS} trials/cell")
    fig.savefig("error_ratio_sweep.png", dpi=130)
    print("\nwrote error_ratio_sweep.png")
