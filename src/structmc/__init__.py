"""Low-rank matrix completion with regularization of the unobserved entries.

The package provides nuclear norm minimization and three structured
variants (entrywise L1 on the unobserved entries, quadratic noisy data
fits, and a restricted-support low-rank + sparse decomposition), all
solved by ADMM with closed-form proximal steps, plus seeded synthetic data
generation and a benchmark harness that sweeps zero/nonzero sampling rates
and reports error ratios against the plain nuclear-norm baseline.
"""

from . import harness, matrix, metrics, prox, solvers, synth
from .harness import *  # noqa: F403
from .matrix import *  # noqa: F403
from .metrics import *  # noqa: F403
from .prox import *  # noqa: F403
from .solvers import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *matrix.__all__, *prox.__all__, *solvers.__all__, *synth.__all__,
           *metrics.__all__, *harness.__all__]
