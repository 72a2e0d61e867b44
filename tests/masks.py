"""Observation masks for the tests, built from index pairs."""

import numpy as np

from structmc import ObservationMask


def mask_of(shape, pairs):
    """The ``shape`` mask that observes exactly ``pairs``."""
    lookup = np.zeros(shape, dtype=bool)
    lookup[tuple(np.transpose(pairs))] = True
    return ObservationMask.from_lookup(lookup)
