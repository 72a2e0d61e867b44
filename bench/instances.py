"""Benchmark inputs, made with numpy alone so that no input passes through the
package under test before the package sees it.

Two kinds of input:

* sparse-factor low-rank matrices observed through a structured mask (a
  share of the zero entries and a share of the nonzero entries), in the
  paper's set-up;
* a survey-like table of integer scores 0..4 driven by a few latent traits.

Matrices are written as headerless CSV with ``repr`` floats, so the package
reads back exactly the values written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240601

MODES = ("nnm-exact", "nnm-reg", "nnm-noisy", "nnm-noisy-reg", "rpca-restricted")
REG_ALPHA = 0.01
NOISE_SIGMA = 0.1


def write_matrix_csv(path: Path, m: np.ndarray, observed: np.ndarray | None = None) -> None:
    """Write ``m``; entries outside ``observed`` become empty cells."""
    lines = []
    for i, row in enumerate(m):
        cells = [
            repr(float(v)) if observed is None or observed[i, j] else ""
            for j, v in enumerate(row)
        ]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: Path) -> np.ndarray:
    """Read a complete headerless matrix CSV (no empty cells)."""
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in Path(path).read_text().splitlines()
        if line
    ]
    return np.array(rows, dtype=np.float64)


def write_mask_csv(path: Path, observed: np.ndarray) -> None:
    Path(path).write_text("".join(f"{i},{j}\n" for i, j in np.argwhere(observed)))


def sparse_factor_matrix(rng, n1: int, n2: int, rank: int, density_left: float,
                         density_right: float) -> np.ndarray:
    """Product of two sparse nonnegative factors; rank at most ``rank``."""
    left = np.where(rng.random((n1, rank)) < density_left, rng.random((n1, rank)), 0.0)
    right = np.where(rng.random((rank, n2)) < density_right, rng.random((rank, n2)), 0.0)
    return left @ right


def structured_mask(rng, m: np.ndarray, rate_zero: float, rate_nonzero: float) -> np.ndarray:
    """Observe round(rate * count) of the zero and of the nonzero entries."""
    observed = np.zeros(m.shape, dtype=bool)
    for positions, rate in ((np.argwhere(m == 0.0), rate_zero),
                            (np.argwhere(m != 0.0), rate_nonzero)):
        k = int(round(rate * len(positions)))
        chosen = positions[rng.permutation(len(positions))[:k]]
        observed[chosen[:, 0], chosen[:, 1]] = True
    return observed


def survey_table(seed: int, rows: int, cols: int, traits: int = 3) -> np.ndarray:
    """Integer scores 0..4 from ``traits`` latent traits; roughly 40% exact zeros."""
    rng = np.random.default_rng([seed, 1])
    weights = np.linspace(2.0, 1.0, traits)
    scores = (rng.random((rows, traits)) * weights) @ rng.random((traits, cols))
    return np.clip(np.floor(scores), 0.0, 4.0)


@dataclass(frozen=True)
class Completion:
    """A ground truth, its observed set and a noisy copy of the observations."""

    truth: np.ndarray
    observed: np.ndarray
    noisy: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.truth.shape

    def permuted(self, seed: int) -> "Completion":
        """The same instance with rows and columns shuffled by ``seed``.

        Every mode is equivariant under row and column permutations, so the
        shuffled instance costs the same iterations as the original: the
        seed changes the input files but not the amount of work.
        """
        rng = np.random.default_rng([seed, 2])
        rows = rng.permutation(self.shape[0])
        cols = rng.permutation(self.shape[1])
        return Completion(*(a[rows][:, cols] for a in (self.truth, self.observed, self.noisy)))

    def alpha(self, mode: str) -> float | None:
        if mode == "rpca-restricted":
            return 1.0 / float(np.sqrt(max(self.shape)))
        if mode in ("nnm-reg", "nnm-noisy-reg"):
            return REG_ALPHA
        return None

    @staticmethod
    def sigma(mode: str) -> float | None:
        return NOISE_SIGMA if mode.startswith("nnm-noisy") else None

    def data(self, mode: str) -> np.ndarray:
        return self.noisy if self.sigma(mode) is not None else self.truth

    def write(self, directory: Path) -> None:
        """``clean.csv`` and ``noisy.csv`` hold the observations only."""
        write_matrix_csv(directory / "clean.csv", self.truth, self.observed)
        write_matrix_csv(directory / "noisy.csv", self.noisy, self.observed)
        write_mask_csv(directory / "mask.csv", self.observed)

    def input_name(self, mode: str) -> str:
        return "noisy.csv" if self.sigma(mode) is not None else "clean.csv"


def observe(rng, truth: np.ndarray, rate_zero: float, rate_nonzero: float) -> Completion:
    observed = structured_mask(rng, truth, rate_zero, rate_nonzero)
    noise = rng.standard_normal(truth.shape) * NOISE_SIGMA
    return Completion(truth, observed, np.where(observed, truth + noise, truth))


def sparse_factor_completion(seed: int, n: int, rank: int) -> Completion:
    """Sparse-factor truth (densities 0.3 / 0.5) with few zeros and most nonzeros observed."""
    rng = np.random.default_rng([seed, 3])
    truth = sparse_factor_matrix(rng, n, n, rank, 0.3, 0.5)
    return observe(rng, truth, 0.1, 0.9)


