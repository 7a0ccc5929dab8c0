"""Shared test fixtures."""

import numpy as np
import pytest

from flowgrid.rng import INIT_NOISE, substream


def _gathered_sample(target, n, seed):
    """Reference draw: every row gathers its component's mean and variance."""
    rng = substream(seed, INIT_NOISE)
    z = rng.standard_normal((n, target.dim))
    if target.n_components == 1:
        comps = np.zeros(n, dtype=np.intp)
    else:
        comps = rng.choice(target.n_components, size=n, p=target.weights)
    return target.means[comps] + np.sqrt(target.variances[comps]) * z


@pytest.fixture
def gathered_sample():
    """The gather-based target draw that ``sample_target`` must match bit for bit."""
    return _gathered_sample
