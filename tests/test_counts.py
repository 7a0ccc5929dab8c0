"""The one count rule: every count parameter takes an integer that is not a
bool and is at least its minimum, and raises DomainError before any draw."""

import numpy as np
import pytest

import flowgrid.localization
import flowgrid.metrics
import flowgrid.rng
import flowgrid.samplers
import flowgrid.targets
from flowgrid import DomainError
from flowgrid.harness import ExperimentSpec
from flowgrid.localization import check_marginal_equivalence, simulate_forward
from flowgrid.metrics import estimate_tv
from flowgrid.samplers import rf_euler
from flowgrid.schedules import (
    build_ddpm_schedule,
    build_uniform_grid,
    build_ushaped_grid,
    default_delta,
)
from flowgrid.targets import ExactOracle, Target, sample_target

_TARGET = Target.low_rank(2, 1)
_DATA = np.random.default_rng(0).normal(size=(200, 2))

# name: (minimum, an accepted count, the call with that count)
_COUNTS = {
    "rf_euler": (1, 3, lambda v: rf_euler(ExactOracle(_TARGET), build_uniform_grid(4), v, 0)),
    "sample_target": (1, 3, lambda v: sample_target(_TARGET, v, 0)),
    "simulate_forward": (1, 3, lambda v: simulate_forward("sl", _TARGET, [1.0], v, 0)),
    "check_marginal_equivalence": (
        2, 50, lambda v: check_marginal_equivalence(_TARGET, [1.0], v, 0)
    ),
    "estimate_tv": (1, 1, lambda v: estimate_tv(_DATA, _DATA + 1.0, rounds=v)),
    "build_uniform_grid": (1, 3, build_uniform_grid),
    "build_ushaped_grid": (4, 6, lambda v: build_ushaped_grid(v, 0.1)),
    "build_ddpm_schedule": (2, 20, build_ddpm_schedule),
    "Target.low_rank.dim": (0, 3, lambda v: Target.low_rank(v, 0)),
    "Target.low_rank.intrinsic_dim": (0, 1, lambda v: Target.low_rank(3, v)),
    "Target.intrinsic_dim": (0, 1, lambda v: Target.gaussian(np.zeros(2), 1.0, v)),
    "default_delta.n_steps": (1, 3, default_delta),
    "default_delta.dim": (1, 3, lambda v: default_delta(10, v)),
    "ExperimentSpec.rounds": (1, 2, lambda v: ExperimentSpec(rounds=v)),
    "ExperimentSpec.num_samples": (200, 300, lambda v: ExperimentSpec(num_samples=v)),
    "ExperimentSpec.n_steps": (2, 100, lambda v: ExperimentSpec(n_steps=(v,))),
    "ExperimentSpec.dims": (1, 10, lambda v: ExperimentSpec(dims=(v,), intrinsic_dim=1)),
    "ExperimentSpec.intrinsic_dim": (1, 2, lambda v: ExperimentSpec(intrinsic_dim=v)),
    "ExperimentSpec.seeds": (0, 3, lambda v: ExperimentSpec(seeds=(v,))),
}


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew random numbers for a bad count")

    for module in (flowgrid.rng, flowgrid.samplers, flowgrid.targets,
                   flowgrid.localization, flowgrid.metrics):
        monkeypatch.setattr(module, "substream", refuse)


@pytest.mark.parametrize("bad", ["fraction", "fraction-above-minimum", "bool", "below"])
@pytest.mark.parametrize("name", list(_COUNTS))
def test_a_bad_count_is_a_domain_error_before_any_draw(name, bad, no_draws):
    minimum, _, call = _COUNTS[name]
    value = {
        "fraction": 2.5, "fraction-above-minimum": minimum + 0.5, "bool": True,
        "below": minimum - 1,
    }[bad]
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("name", list(_COUNTS))
def test_a_numpy_integer_count_is_accepted(name):
    _, accepted, call = _COUNTS[name]
    call(np.int64(accepted))
