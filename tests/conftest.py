"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowgrid
from flowgrid.rng import INIT_NOISE, substream

_SRC = str(Path(flowgrid.__file__).resolve().parents[1])


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


@pytest.fixture
def fresh_python(tmp_path):
    """Runs ``code`` in a new interpreter that imports this flowgrid, in a
    temporary directory, and returns the finished process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )

    return run
