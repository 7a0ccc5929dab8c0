"""Sampler tests: exact algebra against independent oracles, then MC bands.

The deterministic claims (per-step interpolation of point masses, the
two-form agreement of the score-driven update, the coupled-noise match of
the denoising chain and the whitened flow) are checked to float tolerances;
distributional claims are checked against the closed-form push-forward with
4-standard-error Monte-Carlo bands.
"""

import dataclasses
import functools
import hashlib
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgrid.batch
import flowgrid.rng
import flowgrid.samplers
from flowgrid.batch import BatchMeta, SampleBatch
from flowgrid.errors import DomainError, NonFiniteState
from flowgrid.rng import INIT_NOISE, STEP_NOISE, StepNoise, substream
from flowgrid.samplers import (
    ddim_rf,
    ddim_step_sizes,
    ddpm_sample,
    gaussian_pushforward,
    identity_checks,
    interpolation_scale2,
    langevin_rf,
    SAMPLERS,
    rf_euler,
    run_sampler,
    stoc_rf,
    stoc_rf_coefficients,
)
from flowgrid.schedules import (
    GRIDS,
    DdpmSchedule,
    GridKind,
    TimeGrid,
    build_ddpm_schedule,
    build_uniform_grid,
    build_ushaped_grid,
    ddpm_induced_rf_grid,
    time_from_mix_weight,
)
from flowgrid.targets import AdditiveFieldOracle, ExactOracle, ScaleBiasOracle, Target


def point_mass(c):
    c = np.asarray(c, dtype=np.float64)
    return Target.gaussian(c, np.zeros_like(c))


def induced_grid(n_steps=100, c0=2.0, c1=6.0):
    return ddpm_induced_rf_grid(build_ddpm_schedule(n_steps, c0, c1))


class _ExplodingOracle:
    """Finite below t = 0.5, infinite above — for abort-path tests."""

    def __init__(self, dim):
        self._dim = dim

    @property
    def dim(self):
        return self._dim

    def velocity(self, t, x, out):
        out.fill(np.inf if t > 0.5 else 0.0)
        return out

    score = velocity


# ---------------------------------------------------------------------------
# update coefficients


class TestCoefficients:
    def test_scale_anchors(self):
        assert interpolation_scale2(0.5) == 0.5
        assert interpolation_scale2(0.0) == 1.0
        assert interpolation_scale2(1.0) == 1.0

    def test_frozen_anchor_pair(self):
        # at (t_i, t_{i+1}) = (1/2, 2/3): σ² = 1/2, R² = (1/2, 4/5),
        # stochastic step 3/8 with noise 3/32, damped step 1/4 with
        # step·σ² = 1/8 = (t_{i+1}-t_i)(1-t_i)/t_{i+1}.
        c = stoc_rf_coefficients(np.array([0.5, 2.0 / 3.0]))
        assert c.sigma2[0] == pytest.approx(0.5, abs=1e-15)
        assert c.r2[0] == pytest.approx(0.5, abs=1e-15)
        assert c.r2[1] == pytest.approx(0.8, abs=1e-15)
        assert c.eta[0] == pytest.approx(3.0 / 8.0, abs=1e-15)
        assert c.psi[0] == pytest.approx(3.0 / 32.0, abs=1e-15)
        damped = ddim_step_sizes(np.array([0.5, 2.0 / 3.0]))
        assert damped[0] == pytest.approx(0.25, abs=1e-15)
        assert damped[0] * c.sigma2[0] == pytest.approx(1.0 / 8.0, abs=1e-15)

    @given(
        t0=st.floats(1e-3, 0.995),
        frac=st.floats(1e-4, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_factorized_forms_match_ratio_definitions(self, t0, frac):
        t1 = t0 + frac * (0.999 - t0)
        if t1 - t0 < 1e-9:
            return
        times = np.array([t0, t1])
        c = stoc_rf_coefficients(times)
        s0, s1 = interpolation_scale2(t0), interpolation_scale2(t1)
        ratio = (t0 * t0 * s1) / (s0 * t1 * t1)  # R_i²/R_{i+1}²
        direct_eta = 1.0 - ratio
        direct_psi = ratio * ((1.0 - c.r2[1]) / (1.0 - c.r2[0])) * direct_eta
        np.testing.assert_allclose(c.eta[0], direct_eta, rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(c.psi[0], direct_psi, rtol=1e-9, atol=1e-14)
        assert 0.0 < c.eta[0] <= 1.0
        assert c.psi[0] >= 0.0

    @given(
        t0=st.floats(1e-3, 0.99),
        frac=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_damped_step_identity(self, t0, frac):
        t1 = t0 + frac * (1.0 - 1e-3 - t0)
        if t1 <= t0:
            return
        eta = ddim_step_sizes(np.array([t0, t1]))[0]
        lhs = eta * interpolation_scale2(t0)
        rhs = (t1 - t0) * (1.0 - t0) / t1
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_signal_fraction_increases_along_grid(self):
        c = stoc_rf_coefficients(induced_grid(100))
        assert np.all(np.diff(c.r2) > 0.0)
        assert c.n_steps == 99

    def test_invariants_on_induced_grids(self):
        for n_steps, c1 in ((100, 6.0), (200, 6.0), (100, 1.0)):
            c = stoc_rf_coefficients(induced_grid(n_steps, 2.0, c1))
            assert c.sigma2.min() >= 0.5 and c.sigma2.max() <= 1.0
            assert c.r2.min() >= 0.0 and c.r2.max() < 1.0
            assert np.all((c.eta > 0.0) & (c.eta < 1.0))
            assert np.all(c.psi >= 0.0)

    def test_closing_knot_at_one_has_zero_noise(self):
        c = stoc_rf_coefficients(np.array([0.25, 0.75, 1.0]))
        assert c.psi[-1] == 0.0
        assert c.eta[-1] == pytest.approx(0.0625 / interpolation_scale2(0.75), rel=1e-14)

    def test_accepts_grid_object(self):
        grid = induced_grid(50)
        via_grid = stoc_rf_coefficients(grid)
        via_array = stoc_rf_coefficients(grid.times)
        np.testing.assert_array_equal(via_grid.eta, via_array.eta)

    def test_rejects_bad_knots(self):
        with pytest.raises(DomainError):
            stoc_rf_coefficients(np.array([0.0, 0.5]))
        with pytest.raises(DomainError):
            stoc_rf_coefficients(np.array([0.5, 0.4]))
        with pytest.raises(DomainError):
            stoc_rf_coefficients(np.array([0.5, 1.1]))
        with pytest.raises(DomainError):
            stoc_rf_coefficients(build_ushaped_grid(10, 0.05))  # starts at 0


# ---------------------------------------------------------------------------
# deterministic flow


class TestRfEuler:
    def test_point_mass_trajectories_interpolate_exactly(self):
        c = np.array([3.0, -2.0, 0.5])
        oracle = ExactOracle(point_mass(c))
        grid = build_ushaped_grid(20, 0.05)
        batch = rf_euler(oracle, grid, 16, seed=3, record_trajectories=True)
        y0 = batch.trajectory[0]
        for t_j, frame in zip(batch.trajectory_times, batch.trajectory):
            expected = (1.0 - t_j) * y0 + t_j * c
            np.testing.assert_allclose(frame, expected, atol=1e-12)
        gap = np.linalg.norm(batch.data - c, axis=1)
        start = np.linalg.norm(y0 - c, axis=1)
        assert np.all(gap <= 0.05 * start * (1.0 + 1e-9))

    def test_single_step_from_zero_hits_mixture_mean_direction(self):
        # at t = 0 the velocity of any target is (mean - x), so one raw step
        # to t₁ lands on the interpolation point exactly
        mu = np.array([4.0, -1.0])
        oracle = ExactOracle(Target.gaussian(mu, np.array([2.0, 0.3])))
        batch = rf_euler(oracle, [0.0, 0.35], 32, seed=1)
        y0 = substream(1, INIT_NOISE).standard_normal((32, 2))
        np.testing.assert_allclose(batch.data, 0.65 * y0 + 0.35 * mu, rtol=1e-13, atol=1e-13)

    def test_full_jump_in_one_step(self):
        mu = np.array([1.5, -0.5, 2.0])
        oracle = ExactOracle(Target.gaussian(mu, np.ones(3)))
        batch = rf_euler(oracle, [0.0, 1.0], 8, seed=0)
        np.testing.assert_allclose(batch.data, np.broadcast_to(mu, (8, 3)), atol=1e-12)
        assert batch.meta.terminal_time == 1.0

    def test_low_rank_benchmark_mean_band(self):
        target = Target.low_rank(10, 8)
        oracle = ExactOracle(target)
        grid = build_ushaped_grid(100, 0.01)
        n = 2000
        batch = rf_euler(oracle, grid, n, seed=11)
        push = gaussian_pushforward(oracle, grid, "rf")
        mean, var = push.terminal()
        band = 4.0 * np.sqrt(var / n)
        assert np.all(np.abs(batch.data.mean(axis=0) - 0.99 * 8.0) <= band + 1e-12)

    def test_stops_short_of_one_by_default(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        grid = build_ushaped_grid(10, 0.02)
        batch = rf_euler(oracle, grid, 4, seed=0)
        assert batch.meta.terminal_time == pytest.approx(0.98, abs=1e-12)
        closed = rf_euler(oracle, grid, 4, seed=0, final_step=True)
        assert closed.meta.terminal_time == 1.0

    def test_trajectory_layout_and_meta(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(3), np.ones(3)))
        grid = build_uniform_grid(8)
        batch = rf_euler(oracle, grid, 5, seed=2, record_trajectories=True)
        assert batch.trajectory.shape == (8, 5, 3)  # knots 0..7/8 (1 dropped)
        assert batch.trajectory_times[0] == 0.0
        assert batch.meta.sampler == "rf"
        assert "uniform" in batch.meta.grid
        np.testing.assert_array_equal(batch.trajectory[-1], batch.data)

    def test_deterministic_in_seed(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        grid = build_uniform_grid(16)
        a = rf_euler(oracle, grid, 64, seed=9)
        b = rf_euler(oracle, grid, 64, seed=9)
        c = rf_euler(oracle, grid, 64, seed=10)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_nonfinite_state_aborts(self):
        with pytest.raises(NonFiniteState, match="rf"):
            rf_euler(_ExplodingOracle(2), build_uniform_grid(10), 4, seed=0)


# ---------------------------------------------------------------------------
# deterministic score-driven sampler


class TestDdimRf:
    def test_two_forms_agree_on_thousand_states(self):
        oracle = ExactOracle(
            Target.gaussian(np.array([2.0, -1.0, 0.5, 3.0]), np.array([1.0, 0.5, 2.0, 0.0]))
        )
        grid = induced_grid(100)
        a = ddim_rf(oracle, grid, 1000, seed=5, record_trajectories=True)
        b = ddim_rf(oracle, grid, 1000, seed=5, form="scaled", record_trajectories=True)
        assert np.max(np.abs(a.trajectory - b.trajectory)) <= 1e-10

    def test_is_the_euler_flow_in_disguise(self):
        oracle = ExactOracle(Target.low_rank(6, 4))
        grid = induced_grid(100)
        ddim = ddim_rf(oracle, grid, 256, seed=8, record_trajectories=True)
        flow = rf_euler(oracle, grid, 256, seed=8, record_trajectories=True)
        assert np.max(np.abs(ddim.trajectory - flow.trajectory)) <= 1e-10

    def test_step_identity_on_every_induced_step(self):
        for n_steps in (50, 100, 200):
            grid = induced_grid(n_steps)
            t0, t1 = grid.times[:-1], grid.times[1:]
            lhs = ddim_step_sizes(grid.times) * interpolation_scale2(t0)
            rhs = (t1 - t0) * (1.0 - t0) / t1
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_grid_starting_at_zero(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        with pytest.raises(DomainError, match="t_0 > 0"):
            ddim_rf(oracle, build_uniform_grid(10), 4, seed=0)

    def test_rejects_unknown_form(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        with pytest.raises(DomainError, match="form"):
            ddim_rf(oracle, induced_grid(50), 4, seed=0, form="heun")

    def test_deterministic(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        grid = induced_grid(20)
        np.testing.assert_array_equal(
            ddim_rf(oracle, grid, 32, seed=4).data,
            ddim_rf(oracle, grid, 32, seed=4).data,
        )


# ---------------------------------------------------------------------------
# stochastic whitened sampler


class TestStocRf:
    def test_standard_gaussian_matches_closed_form_recursion(self):
        target = Target.gaussian(np.zeros(3), np.ones(3))
        grid = induced_grid(100)
        n = 4000
        batch = stoc_rf(ExactOracle(target), grid, n, seed=21)
        push = gaussian_pushforward(ExactOracle(target), grid, "stoc-rf")
        mean, var = push.terminal()
        emp_mean = batch.data.mean(axis=0)
        emp_var = batch.data.var(axis=0, ddof=1)
        assert np.all(np.abs(emp_mean - mean) <= 4.0 * np.sqrt(var / n))
        assert np.all(np.abs(emp_var - var) <= 4.0 * var * math.sqrt(2.0 / (n - 1)))
        # the terminal law is near (not exactly) the interpolation marginal:
        # the chain's per-step noise is the point-mass posterior's, which
        # under-disperses a smooth target at finite N
        sigma2 = interpolation_scale2(grid.times[-1])
        assert np.all(np.abs(var / sigma2 - 1.0) < 0.2)

    def test_exact_on_degenerate_coordinates(self):
        target = Target.low_rank(6, 3)
        grid = induced_grid(100)
        push = gaussian_pushforward(ExactOracle(target), grid, "stoc-rf")
        mean, var = push.terminal()
        delta = grid.delta
        # point-mass coordinates follow the blur map exactly; full-variance
        # coordinates pick up O(1e-9) mean drift across 100 affine steps
        np.testing.assert_allclose(mean[3:], (1.0 - delta) * 8.0, rtol=1e-12)
        np.testing.assert_allclose(var[3:], delta**2, rtol=1e-10)
        np.testing.assert_allclose(mean[:3], (1.0 - delta) * 8.0, rtol=1e-8)

    def test_rejects_grid_starting_at_zero(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        with pytest.raises(DomainError, match="t = 0"):
            stoc_rf(oracle, build_ushaped_grid(10, 0.05), 8, seed=0)

    def test_deterministic_in_seed(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        grid = induced_grid(30)
        a = stoc_rf(oracle, grid, 50, seed=13)
        b = stoc_rf(oracle, grid, 50, seed=13)
        c = stoc_rf(oracle, grid, 50, seed=14)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_nonfinite_state_aborts(self):
        with pytest.raises(NonFiniteState, match="stoc-rf"):
            stoc_rf(_ExplodingOracle(2), induced_grid(20), 4, seed=0)


# ---------------------------------------------------------------------------
# Langevin-corrected flow


class TestLangevinRf:
    def test_zero_gamma_reproduces_euler_flow_bitwise(self):
        oracle = ExactOracle(Target.low_rank(5, 3))
        grid = induced_grid(50)
        lan = langevin_rf(oracle, grid, 64, seed=6, gamma_scale=0.0, record_trajectories=True)
        flow = rf_euler(oracle, grid, 64, seed=6, record_trajectories=True)
        np.testing.assert_array_equal(lan.data, flow.data)
        np.testing.assert_array_equal(lan.trajectory, flow.trajectory)

    def test_standard_gaussian_terminal_mean(self):
        target = Target.gaussian(np.zeros(4), np.ones(4))
        grid = induced_grid(200)
        n = 5000
        batch = langevin_rf(ExactOracle(target), grid, n, seed=17)
        assert np.all(np.abs(batch.data.mean(axis=0)) <= 4.0 / math.sqrt(n))

    def test_moments_match_pushforward(self):
        target = Target.gaussian(np.array([2.0, -1.0, 0.5]), np.array([0.5, 1.5, 1.0]))
        grid = induced_grid(100)
        n = 4000
        batch = langevin_rf(ExactOracle(target), grid, n, seed=23)
        mean, var = gaussian_pushforward(ExactOracle(target), grid, "langevin").terminal()
        emp_mean = batch.data.mean(axis=0)
        emp_var = batch.data.var(axis=0, ddof=1)
        assert np.all(np.abs(emp_mean - mean) <= 4.0 * np.sqrt(var / n))
        assert np.all(np.abs(emp_var - var) <= 4.0 * var * math.sqrt(2.0 / (n - 1)))

    def test_repeated_runs_identical(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        grid = induced_grid(40)
        a = langevin_rf(oracle, grid, 128, seed=3)
        b = langevin_rf(oracle, grid, 128, seed=3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rejects_bad_inputs(self):
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        with pytest.raises(DomainError, match="gamma_scale"):
            langevin_rf(oracle, induced_grid(50), 4, seed=0, gamma_scale=-1.0)
        with pytest.raises(DomainError, match="diverges"):
            langevin_rf(oracle, build_uniform_grid(10), 4, seed=0)


# ---------------------------------------------------------------------------
# denoising chain


class TestDdpmSample:
    def test_coupled_noise_matches_whitened_flow(self):
        # same seed, same per-step noise blocks, coordinates mapped by
        # x = σ_t·y: the chain and the whitened flow recursion are the same
        # affine updates and must agree to accumulated rounding only
        schedule = build_ddpm_schedule(100)
        oracle = ExactOracle(Target.low_rank(10, 8))
        chain = ddpm_sample(oracle, schedule, 100, seed=31, record_trajectories=True)
        flow = stoc_rf(
            oracle, ddpm_induced_rf_grid(schedule), 100, seed=31, record_trajectories=True
        )
        np.testing.assert_allclose(
            chain.trajectory_times, flow.trajectory_times, atol=1e-15
        )
        assert np.max(np.abs(chain.trajectory - flow.trajectory)) <= 1e-10

    def test_coupling_survives_the_closing_step(self):
        schedule = build_ddpm_schedule(60)
        oracle = ExactOracle(Target.gaussian(np.array([1.0, -2.0]), np.array([1.0, 0.0])))
        chain = ddpm_sample(oracle, schedule, 32, seed=2, final_step=True, record_trajectories=True)
        flow = stoc_rf(
            oracle,
            ddpm_induced_rf_grid(schedule),
            32,
            seed=2,
            final_step=True,
            record_trajectories=True,
        )
        assert chain.trajectory_times[-1] == 1.0
        assert np.max(np.abs(chain.trajectory - flow.trajectory)) <= 1e-10

    def test_standard_gaussian_cov_matches_recursion(self):
        target = Target.gaussian(np.zeros(3), np.ones(3))
        schedule = build_ddpm_schedule(100)
        n = 4000
        batch = ddpm_sample(ExactOracle(target), schedule, n, seed=29)
        mean, var = gaussian_pushforward(
            ExactOracle(target), ddpm_induced_rf_grid(schedule), "ddpm"
        ).terminal()
        emp_mean = batch.data.mean(axis=0)
        emp_var = batch.data.var(axis=0, ddof=1)
        assert np.all(np.abs(emp_mean - mean) <= 4.0 * np.sqrt(var / n))
        assert np.all(np.abs(emp_var - var) <= 4.0 * var * math.sqrt(2.0 / (n - 1)))

    def test_terminal_time_is_last_induced_knot(self):
        schedule = build_ddpm_schedule(100)
        grid = ddpm_induced_rf_grid(schedule)
        batch = ddpm_sample(ExactOracle(Target.gaussian(np.zeros(2), np.ones(2))), schedule, 8, seed=0)
        assert batch.meta.terminal_time == pytest.approx(float(grid.times[-1]), abs=1e-15)
        assert batch.meta.grid.startswith("ddpm-induced")

    @pytest.mark.parametrize("n_steps, c0, c1", [(100, 2.0, 6.0), (37, 1.5, 4.0), (400, 2.0, 6.0)])
    def test_grid_label_is_the_induced_grid_and_builds_no_grid(self, monkeypatch, n_steps, c0, c1):
        import flowgrid.samplers as samplers_module

        schedule = build_ddpm_schedule(n_steps, c0, c1)
        expected = ddpm_induced_rf_grid(schedule).describe()

        def no_rebuild(_schedule):
            raise AssertionError("ddpm_sample rebuilt the induced grid")

        monkeypatch.setattr(samplers_module, "ddpm_induced_rf_grid", no_rebuild)
        oracle = ExactOracle(Target.low_rank(3, 2))
        for final_step in (False, True):
            batch = ddpm_sample(oracle, schedule, 4, seed=0, final_step=final_step)
            assert batch.meta.grid == expected

    def test_small_beta_coefficient_expansions(self):
        # the drift weight of the stochastic chain is β (not β/2: that rate
        # belongs to the damped deterministic update); 1/√α carries the β/2,
        # and the noise scale is √β once the signal fraction has decayed
        sched = build_ddpm_schedule(400)
        beta, alpha = sched.betas[1:], sched.alphas[1:]
        omega, omega_prev = sched.omegas[1:], sched.omegas[:-1]
        inv_root = 1.0 / np.sqrt(alpha)
        assert np.max(np.abs(inv_root / (1.0 + beta / 2.0) - 1.0) / beta) <= 1.0
        drift = beta * inv_root
        assert np.max(np.abs(drift / beta - 1.0) / beta) <= 1.0
        # regression guard: the stochastic drift is *not* β/2-scaled
        assert np.min(np.abs(drift / (beta / 2.0) - 1.0)) > 0.5
        deep = omega_prev < 1.0 / 3.0
        assert deep.any()
        damp = 1.0 + np.sqrt((alpha - omega) / (1.0 - omega))
        damped = beta / damp * inv_root
        assert (
            np.max(np.abs(damped[deep] / (beta[deep] / 2.0) - 1.0) / beta[deep]) <= 1.0
        )
        nu = np.sqrt(beta * (alpha - omega) / (1.0 - omega))
        assert (
            np.max(np.abs(nu[deep] * inv_root[deep] / np.sqrt(beta[deep]) - 1.0) / beta[deep])
            <= 1.0
        )
        # ...and the √β form genuinely fails at the start of the chain,
        # where the noise is clamped toward ν_1 = 0
        assert nu[0] == 0.0

    def test_rejects_non_contracting_schedule(self):
        from flowgrid.schedules import DdpmSchedule

        broken = DdpmSchedule(
            betas=np.array([0.0, 0.1, 0.1]),
            alphas=np.array([1.0, 0.9, 0.9]),
            omegas=np.array([1.0, 1.5, 0.9]),  # ω_1 > α_1: not a product chain
            c0=2.0,
            c1=6.0,
        )
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        with pytest.raises(DomainError, match="alpha_1"):
            ddpm_sample(oracle, broken, 4, seed=0)

    def test_deterministic_in_seed(self):
        schedule = build_ddpm_schedule(50)
        oracle = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        a = ddpm_sample(oracle, schedule, 32, seed=7)
        b = ddpm_sample(oracle, schedule, 32, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_nonfinite_state_aborts(self):
        with pytest.raises(NonFiniteState, match="ddpm"):
            ddpm_sample(_ExplodingOracle(2), build_ddpm_schedule(30), 4, seed=0)


# ---------------------------------------------------------------------------
# step noise drawn ahead on worker threads
#
# The reference loops below draw each step's (n, d) noise inline, as the
# samplers did before their noise came from a StepNoise; the samplers must
# match them bit for bit.  A StepNoise hands out each step's rows one row
# block at a time, in the step loop's order (for each row block, every
# step).  Row blocks of 2**14 values or more go to draw threads when a core
# is free, smaller ones are drawn on the caller's thread: tests cover both,
# on this machine's cores and on a patched core count.


def _reference_stoc_rf(oracle, grid, n, seed):
    times = grid.integration_times()
    coeffs = stoc_rf_coefficients(times)
    sigma = np.sqrt(interpolation_scale2(times))
    growth = (times[1:] * sigma[:-1]) / (times[:-1] * sigma[1:])
    z = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [sigma[0] * z]
    for i in range(times.size - 1):
        t_i = float(times[i])
        inner = z + (coeffs.eta[i] * sigma[i]) * oracle.score(t_i, sigma[i] * z)
        xi = substream(seed, STEP_NOISE, i).standard_normal(z.shape)
        inner = inner + math.sqrt(coeffs.psi[i]) * xi
        z = growth[i] * inner
        frames.append(sigma[i + 1] * z)
    return sigma[-1] * z, np.stack(frames)


def _reference_ddpm(oracle, schedule, n, seed, final_step):
    alphas, omegas, betas = schedule.alphas, schedule.omegas, schedule.betas
    n_chain = schedule.n_steps
    signal_gap = alphas[1:] - omegas[1:]
    rev_omegas = omegas[:0:-1]
    times = time_from_mix_weight(rev_omegas)
    sigma = times / np.sqrt(rev_omegas)
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [sigma[0] * y]
    for tau in range(n_chain, 0 if final_step else 1, -1):
        i = n_chain - tau
        scale = float(sigma[i])
        s_hat = scale * oracle.score(float(times[i]), scale * y)
        xi = substream(seed, STEP_NOISE, i).standard_normal(y.shape)
        nu = math.sqrt(betas[tau] * signal_gap[tau - 1] / (1.0 - omegas[tau]))
        y = (y + betas[tau] * s_hat + nu * xi) / math.sqrt(alphas[tau])
        scale_next = float(sigma[i + 1]) if tau >= 2 else 1.0
        frames.append(scale_next * y)
    return scale_next * y, np.stack(frames)


def _reference_langevin(oracle, grid, n, seed):
    times = grid.integration_times()
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [y]
    for i in range(times.size - 1):
        t_i = float(times[i])
        step = float(times[i + 1]) - t_i
        gamma = (1.0 - t_i) / t_i
        drift = oracle.velocity(t_i, y) + gamma * oracle.score(t_i, y)
        xi = substream(seed, STEP_NOISE, i).standard_normal(y.shape)
        y = y + step * drift + math.sqrt(2.0 * step * gamma) * xi
        frames.append(y)
    return y, np.stack(frames)


def _reference_rf_euler(oracle, grid, n, seed, final_step):
    """The flow loop as it was before the shared Euler step loop."""
    times = grid.integration_times(final_step=final_step)
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [y]
    for i in range(times.size - 1):
        t_i = float(times[i])
        y = y + (float(times[i + 1]) - t_i) * oracle.velocity(t_i, y)
        frames.append(y)
    return y, np.stack(frames)


def _reference_ddim_euler(oracle, grid, n, seed, final_step):
    """``ddim_rf(form="euler")``'s loop as it was before the shared step loop."""
    times = grid.integration_times(final_step=final_step)
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [y]
    for i in range(times.size - 1):
        t_i = float(times[i])
        step = float(times[i + 1]) - t_i
        drift = y / t_i + ((1.0 - t_i) / t_i) * oracle.score(t_i, y)
        y = y + step * drift
        frames.append(y)
    return y, np.stack(frames)


def _reference_langevin_scaled(oracle, grid, n, seed, final_step, gamma_scale):
    """``langevin_rf``'s loop as it was before the shared step loop, any γ scale."""
    times = grid.integration_times(final_step=final_step)
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [y]
    for i in range(times.size - 1):
        t_i = float(times[i])
        step = float(times[i + 1]) - t_i
        gamma = gamma_scale * (1.0 - t_i) / t_i
        drift = gamma * oracle.score(t_i, y) + oracle.velocity(t_i, y)
        xi = substream(seed, STEP_NOISE, i).standard_normal(y.shape)
        y = (step * drift + y) + math.sqrt(2.0 * step * gamma) * xi
        frames.append(y)
    return y, np.stack(frames)


_SCHEDULE = build_ddpm_schedule(40)
_GRID = ddpm_induced_rf_grid(_SCHEDULE)


def _run_stochastic(name, oracle, n, seed):
    if name == "stoc-rf":
        return stoc_rf(oracle, _GRID, n, seed, record_trajectories=True)
    if name == "ddpm":
        return ddpm_sample(oracle, _SCHEDULE, n, seed, record_trajectories=True)
    if name == "ddpm-final":
        return ddpm_sample(
            oracle, _SCHEDULE, n, seed, final_step=True, record_trajectories=True
        )
    return langevin_rf(oracle, _GRID, n, seed, record_trajectories=True)


def _live_threads_settle(expected, timeout=5.0):
    deadline = time.monotonic() + timeout
    while threading.active_count() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class _InfAtCall:
    """Zero fields until call ``k`` of ``score``, which returns inf."""

    def __init__(self, dim, k):
        self._dim, self._k, self.calls = dim, k, 0

    @property
    def dim(self):
        return self._dim

    def velocity(self, t, x, out):
        out.fill(0.0)
        return out

    def score(self, t, x, out):
        self.calls += 1
        out.fill(np.inf if self.calls == self._k else 0.0)
        return out


STOCHASTIC = ("stoc-rf", "ddpm", "ddpm-final", "langevin")


_D1 = Target.gaussian(np.array([1.5]), np.array([0.3]))
_D5_MIXTURE = Target(
    weights=np.array([0.4, 0.6]),
    means=np.array([[2.0, -1.0, 0.0, 1.0, 3.0], [-2.0, 1.0, 0.5, 0.0, 3.0]]),
    variances=np.array([[1.0, 0.5, 2.0, 0.0, 0.0], [0.3, 1.0, 1.0, 0.7, 0.0]]),
)
_WORKER_N = 4096  # with d = 4, a 2**14-value row block: drawn on the worker


def _set_cores(monkeypatch, cores):
    """Give the process ``cores`` cores with only the caller's thread on them:
    the affinity mask grows by the threads already live."""
    mask = set(range(cores + threading.active_count() - 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)


def _draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith("flowgrid-step-noise")]


def _inline_rows(seed, shape, steps, rows):
    """The row blocks a StepNoise hands out, in its order, drawn inline."""
    whole = [substream(seed, STEP_NOISE, i).standard_normal(shape) for i in range(steps)]
    starts = range(0, shape[0], rows)
    return [(i, noise[lo : lo + rows]) for lo in starts for i, noise in enumerate(whole)]


@pytest.fixture
def blocks_ahead(monkeypatch):
    """Sets a StepNoise to keep ``w`` blocks in flight (at most ``steps``) on
    one draw thread per free core of ``cores``, but no more than ``w``."""

    def set_ahead(w, cores=64):
        _set_cores(monkeypatch, cores)
        monkeypatch.setattr(flowgrid.rng, "_BLOCKS_AHEAD", w)

    return set_ahead


class TestStepNoisePrefetch:
    @pytest.mark.parametrize("cores", ["this-machine", "64"])
    @pytest.mark.parametrize(
        "target, n",
        [(_D1, 37), (_D1, 20000), (_D5_MIXTURE, 3500)],
        ids=["d1-caller", "d1-worker", "d5-mixture-worker"],
    )
    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_bitwise_equal_to_inline_draws(self, name, target, n, cores, monkeypatch):
        if cores != "this-machine":
            _set_cores(monkeypatch, int(cores))
        oracle = ExactOracle(target)
        seed = 11
        if name == "stoc-rf":
            data, frames = _reference_stoc_rf(oracle, _GRID, n, seed)
        elif name.startswith("ddpm"):
            data, frames = _reference_ddpm(
                oracle, _SCHEDULE, n, seed, final_step=name == "ddpm-final"
            )
        else:
            data, frames = _reference_langevin(oracle, _GRID, n, seed)
        batch = _run_stochastic(name, oracle, n, seed)
        assert np.array_equal(batch.data, data)
        assert np.array_equal(batch.trajectory, frames)

    @pytest.mark.parametrize(
        "shape, rows, ahead, cores, threads",
        [
            ((10, 3), 4, 3, 64, 0),
            ((3 * _WORKER_N - 5, 4), _WORKER_N, 1, 64, 1),
            ((3 * _WORKER_N - 5, 4), _WORKER_N, 2, 64, 2),
            ((3 * _WORKER_N - 5, 4), _WORKER_N, 3, 64, 3),
            ((3 * _WORKER_N - 5, 4), _WORKER_N, 3, 2, 2),
        ],
        ids=["caller", "w1", "w2", "w3", "w3-on-two-threads"],
    )
    def test_blocks_match_inline_draws_and_are_read_in_order(
        self, shape, rows, ahead, cores, threads, blocks_ahead
    ):
        blocks_ahead(ahead, cores)
        before = threading.active_count()
        with StepNoise(5, shape, 7, rows) as noise:
            assert threading.active_count() == before + threads
            with pytest.raises(ValueError, match="step 1's"):
                noise.block(1)
            for i, expected in _inline_rows(5, shape, 7, rows):
                assert np.array_equal(noise.block(i), expected)
            with pytest.raises(ValueError, match="step 7's"):
                noise.block(7)
            with pytest.raises(ValueError, match="step 0's"):
                noise.block(0)  # no row block is left
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "shape, rows, ahead", [((10, 3), 4, 3), ((3 * _WORKER_N, 4), _WORKER_N, 3)],
        ids=["caller", "w3"],
    )
    def test_step_0_moves_on_to_the_next_row_block(self, shape, rows, ahead, blocks_ahead):
        blocks_ahead(ahead)
        expected = _inline_rows(5, shape, 7, rows)
        with StepNoise(5, shape, 7, rows) as noise:
            for i in range(3):  # the first row block stops after step 2
                noise.block(i)
            for i, want in expected[7:]:
                assert np.array_equal(noise.block(i), want)

    @pytest.mark.parametrize(
        "ahead, cores", [(1, 64), (2, 64), (3, 64), (3, 2)],
        ids=["w1", "w2", "w3", "w3-on-two-threads"],
    )
    def test_held_block_survives_every_draw_in_flight(self, ahead, cores, blocks_ahead):
        blocks_ahead(ahead, cores)
        with StepNoise(5, (3 * _WORKER_N, 4), 9, _WORKER_N) as noise:
            for i in list(range(9)) * 3:  # three row blocks
                block = noise.block(i)
                kept = block.copy()
                for pending in list(noise._pending):
                    pending.result(timeout=60)
                assert np.array_equal(block, kept), f"step {i}'s rows overwritten"

    @pytest.mark.parametrize("name", STOCHASTIC)
    @pytest.mark.parametrize("steps", [1, 2])
    def test_fewer_steps_than_blocks_ahead_give_the_inline_bits(
        self, steps, name, blocks_ahead, monkeypatch
    ):
        # W = min(3, steps) draw threads over five row blocks: the jobs in
        # flight must read distinct generators.  Each read sleeps, so a second
        # reader of one generator would overlap the first.
        blocks_ahead(3)
        monkeypatch.setattr(flowgrid.batch, "_BLOCK_BYTES", _WORKER_N * 4 * 8)
        real, overlaps = flowgrid.rng.substream, []

        class Watched:
            def __init__(self, generator):
                self._generator, self._readers = generator, 0

            def standard_normal(self, out):
                self._readers += 1
                overlaps.append(self._readers > 1)
                time.sleep(0.002)
                try:
                    return self._generator.standard_normal(out=out)
                finally:
                    self._readers -= 1

        monkeypatch.setattr(flowgrid.rng, "substream", lambda *address: Watched(real(*address)))
        n, seed, schedule = 4 * _WORKER_N + 100, 3, build_ddpm_schedule(steps + 1, 1.0, 1.0)
        grid = ddpm_induced_rf_grid(schedule)
        oracle = ExactOracle(Target.low_rank(4, 2))
        if name == "stoc-rf":
            batch = stoc_rf(oracle, grid, n, seed, record_trajectories=True)
            data, frames = _reference_stoc_rf(oracle, grid, n, seed)
        elif name.startswith("ddpm"):
            final = name == "ddpm-final"
            batch = ddpm_sample(
                oracle, schedule, n, seed, final_step=final, record_trajectories=True
            )
            data, frames = _reference_ddpm(oracle, schedule, n, seed, final_step=final)
        else:
            batch = langevin_rf(oracle, grid, n, seed, record_trajectories=True)
            data, frames = _reference_langevin(oracle, grid, n, seed)
        assert len(overlaps) == 5 * (frames.shape[0] - 1) and not any(overlaps)
        assert np.array_equal(batch.data, data)
        assert np.array_equal(batch.trajectory, frames)

    @pytest.mark.parametrize(
        "cores, steps, threads",
        [(1, 7, 0), (2, 7, 2), (64, 7, 3), (64, 2, 2), (64, 1, 1)],
        ids=["1-core", "2-cores", "64-cores", "64-cores-2-steps", "64-cores-1-step"],
    )
    def test_one_draw_thread_per_free_core_up_to_three(self, cores, steps, threads, monkeypatch):
        _set_cores(monkeypatch, cores)
        before = threading.active_count()
        with StepNoise(5, (_WORKER_N, 4), steps, _WORKER_N) as noise:
            assert len(_draw_threads()) == threads
            assert threading.active_count() == before + threads
            for i in range(steps):
                noise.block(i)
        assert _draw_threads() == []

    def test_threads_need_a_large_block(self, monkeypatch):
        big = flowgrid.rng._PREFETCH_MIN_VALUES
        assert flowgrid.rng._prefetch_pays(big)
        assert not flowgrid.rng._prefetch_pays(big - 1)
        _set_cores(monkeypatch, 64)
        with StepNoise(5, (big // 4 - 1, 4), 5, big):
            assert _draw_threads() == []
        with StepNoise(5, (big, 4), 5, big // 4 - 1):  # many rows, small blocks
            assert _draw_threads() == []

    def test_live_threads_take_the_free_cores(self, monkeypatch):
        _set_cores(monkeypatch, 3)  # two free cores, then none once two threads live
        release = threading.Event()
        busy = [threading.Thread(target=release.wait) for _ in range(2)]
        for thread in busy:
            thread.start()
        try:
            with StepNoise(5, (_WORKER_N, 4), 5, _WORKER_N):
                assert _draw_threads() == []
        finally:
            release.set()
            for thread in busy:
                thread.join()

    def test_no_steps_starts_no_thread(self, blocks_ahead):
        blocks_ahead(3)
        before = threading.active_count()
        with StepNoise(5, (_WORKER_N, 4), 0, _WORKER_N) as noise:
            assert threading.active_count() == before
            with pytest.raises(ValueError):
                noise.block(0)

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_nonfinite_state_stops_the_worker(self, name, blocks_ahead):
        blocks_ahead(3)
        before = threading.active_count()
        with pytest.raises(NonFiniteState):
            _run_stochastic(name, _InfAtCall(4, k=5), _WORKER_N, 0)
        assert threading.active_count() == before
        assert _draw_threads() == []

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_failed_draw_raises_from_the_sampler(self, name, monkeypatch, blocks_ahead):
        blocks_ahead(3)
        real = flowgrid.rng.substream

        def failing(seed, *path):
            if path == (STEP_NOISE, 7):
                raise RuntimeError("draw failed")
            return real(seed, *path)

        monkeypatch.setattr(flowgrid.rng, "substream", failing)
        oracle = ExactOracle(Target.gaussian(np.zeros(4), np.ones(4)))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            _run_stochastic(name, oracle, _WORKER_N, 0)
        assert threading.active_count() == before
        assert _draw_threads() == []

    @pytest.mark.parametrize("read", [0, 2], ids=["none-read", "two-read"])
    def test_unread_failed_draw_raises_on_exit(self, read, monkeypatch, blocks_ahead):
        blocks_ahead(3)
        real = flowgrid.rng.substream

        def failing(seed, *path):
            if path == (STEP_NOISE, 2):
                raise RuntimeError("draw failed")
            return real(seed, *path)

        monkeypatch.setattr(flowgrid.rng, "substream", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            with StepNoise(0, (_WORKER_N, 4), 5, _WORKER_N) as noise:
                for i in range(read):
                    noise.block(i)
        assert _draw_threads() == []

    def test_failure_in_the_caller_wins_over_a_failed_draw(self, monkeypatch, blocks_ahead):
        blocks_ahead(3)

        def failing(seed, *path):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(flowgrid.rng, "substream", failing)
        with pytest.raises(KeyError):
            with StepNoise(0, (_WORKER_N, 4), 5, _WORKER_N):
                raise KeyError("caller")
        assert _draw_threads() == []

    def test_concurrent_calls_match_serial_runs(self, blocks_ahead):
        blocks_ahead(3)
        oracle = ExactOracle(Target.low_rank(4, 3))
        jobs = [("stoc-rf", 0), ("ddpm", 1), ("stoc-rf", 2), ("ddpm-final", 3)]
        serial = [_run_stochastic(name, oracle, _WORKER_N, seed) for name, seed in jobs]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(_run_stochastic, name, oracle, _WORKER_N, seed)
                    for name, seed in jobs
                ]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            assert np.array_equal(got.data, want.data)
            assert np.array_equal(got.trajectory, want.trajectory)
        assert _live_threads_settle(before) == before


# ---------------------------------------------------------------------------
# the sample count, checked by the one step loop


class TestSampleCount:
    RUNS = {
        "rf": lambda n: rf_euler(ExactOracle(_D1), _GRID, n, 0),
        "ddim-rf[euler]": lambda n: ddim_rf(ExactOracle(_D1), _GRID, n, 0),
        "ddim-rf[scaled]": lambda n: ddim_rf(ExactOracle(_D1), _GRID, n, 0, form="scaled"),
        "stoc-rf": lambda n: stoc_rf(ExactOracle(_D1), _GRID, n, 0),
        "ddpm": lambda n: ddpm_sample(ExactOracle(_D1), _SCHEDULE, n, 0),
        "langevin": lambda n: langevin_rf(ExactOracle(_D1), _GRID, n, 0),
    }

    @pytest.mark.parametrize("n", [0, -1, 2.0], ids=["zero", "negative", "float"])
    @pytest.mark.parametrize("name", list(RUNS))
    def test_every_sampler_rejects_a_bad_count(self, name, n, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew noise for a bad sample count")

        monkeypatch.setattr(flowgrid.samplers, "substream", no_draw)
        with pytest.raises(DomainError, match="sample count must be an integer >= 1"):
            self.RUNS[name](n)

    @pytest.mark.parametrize("name", list(RUNS))
    def test_one_sample_runs(self, name):
        assert self.RUNS[name](np.int64(1)).data.shape == (1, 1)


# ---------------------------------------------------------------------------
# the shared Euler step loop


class TestEulerStepLoop:
    @pytest.mark.parametrize("final_step", [False, True], ids=["stop-short", "final-step"])
    @pytest.mark.parametrize("target", [_D1, _D5_MIXTURE], ids=["d1", "d5-mixture"])
    @pytest.mark.parametrize(
        "name, grid",
        [
            ("rf", _GRID),
            ("rf", build_ushaped_grid(40, 0.01)),
            ("ddim-rf", _GRID),
            ("langevin", _GRID),
        ],
        ids=["rf-induced", "rf-ushaped", "ddim-rf-induced", "langevin-induced"],
    )
    def test_bitwise_equal_to_the_old_loops(self, name, grid, target, final_step):
        oracle = ExactOracle(target)
        if name == "langevin":
            reference = functools.partial(_reference_langevin_scaled, gamma_scale=0.7)
            run = functools.partial(langevin_rf, gamma_scale=0.7)
        else:
            reference = _reference_rf_euler if name == "rf" else _reference_ddim_euler
            run = rf_euler if name == "rf" else ddim_rf
        data, frames = reference(oracle, grid, 300, 7, final_step)
        batch = run(oracle, grid, 300, 7, record_trajectories=True, final_step=final_step)
        assert np.array_equal(batch.data, data)
        assert np.array_equal(batch.trajectory, frames)
        assert np.array_equal(batch.trajectory_times, grid.integration_times(final_step))
        assert np.array_equal(run(oracle, grid, 300, 7, final_step=final_step).data, data)

    @pytest.mark.parametrize(
        "run, label",
        [
            (lambda o: rf_euler(o, _GRID, 8, 1), "rf"),
            (lambda o: ddim_rf(o, _GRID, 8, 1), "ddim-rf[euler]"),
            (lambda o: langevin_rf(o, _GRID, 8, 1, gamma_scale=0.5), "langevin(gamma_scale=0.5)"),
        ],
        ids=["rf", "ddim-rf", "langevin"],
    )
    def test_batch_metadata(self, run, label):
        batch = run(ExactOracle(_D1))
        assert batch.meta.sampler == label
        assert batch.meta.grid == _GRID.describe()
        assert batch.meta.target == _D1.describe()
        assert batch.meta.seed == 1
        assert batch.meta.terminal_time == float(_GRID.integration_times()[-1])


# ---------------------------------------------------------------------------
# the step loop's buffer ring
#
# The loop reuses its state, update and scratch buffers across steps, and
# the oracle fills them through ``out``.  Recorded frames must still be
# distinct arrays, recording must not change the batch, a perturbed oracle
# must give the bits it gave before the buffers, and an oracle without
# ``out`` breaks the contract at its first call.

_RING_RUNS = {
    "rf": lambda o, n, **kw: rf_euler(o, _GRID, n, 4, **kw),
    "ddim-rf[euler]": lambda o, n, **kw: ddim_rf(o, _GRID, n, 4, **kw),
    "ddim-rf[scaled]": lambda o, n, **kw: ddim_rf(o, _GRID, n, 4, form="scaled", **kw),
    "stoc-rf": lambda o, n, **kw: stoc_rf(o, _GRID, n, 4, **kw),
    "ddpm": lambda o, n, **kw: ddpm_sample(o, _SCHEDULE, n, 4, **kw),
    "langevin": lambda o, n, **kw: langevin_rf(o, _GRID, n, 4, **kw),
}


# Bits of ``data`` from the samplers before the buffer ring, on a schedule of 30
# equal β = 0.08 and single-Gaussian targets: the pins then rest on IEEE
# arithmetic and libm's cos alone (no exp/log, and a 1-D additive field whose
# matrix product is one multiplication), not on a BLAS kernel's sums.
_PIN_BETAS = np.concatenate([[0.0], np.full(30, 0.08)])
_PIN_SCHEDULE = DdpmSchedule(
    betas=_PIN_BETAS, alphas=1.0 - _PIN_BETAS, omegas=np.cumprod(1.0 - _PIN_BETAS),
    c0=0.0, c1=0.0,
)
_PIN_GRID = ddpm_induced_rf_grid(_PIN_SCHEDULE)
_PIN_RUNS = {
    "rf": lambda o: rf_euler(o, _PIN_GRID, 64, 5),
    "ddim-rf[euler]": lambda o: ddim_rf(o, _PIN_GRID, 64, 5),
    "ddim-rf[scaled]": lambda o: ddim_rf(o, _PIN_GRID, 64, 5, form="scaled"),
    "stoc-rf": lambda o: stoc_rf(o, _PIN_GRID, 64, 5),
    "ddpm": lambda o: ddpm_sample(o, _PIN_SCHEDULE, 64, 5),
    "langevin": lambda o: langevin_rf(o, _PIN_GRID, 64, 5),
}
_PIN_TARGETS = {
    "scale-bias": Target.gaussian([2.0, -1.0, 0.5, 3.0], [1.0, 0.5, 2.0, 0.0]),
    "additive-field": Target.gaussian([1.5], [0.3]),
}
_PERTURB = {
    "scale-bias": lambda o: ScaleBiasOracle(o, 0.2),
    "additive-field": lambda o: AdditiveFieldOracle(o, 0.2, 7),
}
_PINNED_SHA256 = {
    ("scale-bias", "rf"): "b4f859ac799313701df7e233c3efb8570e11615e7bb5e68cfe9056561c5d7734",
    ("scale-bias", "ddim-rf[euler]"):
        "5e96add49e033d762a48b4ad434c53467edd0a2ab25974bcb618f56e66c24721",
    ("scale-bias", "ddim-rf[scaled]"):
        "6259f0174ed7519624ae86b975efd70422b4357358d7f43756682162e3b39a2b",
    ("scale-bias", "stoc-rf"): "0a0dcd040edce4bcd3a3885e584ade8c16403064d8e8c38201161cb688c3ca72",
    ("scale-bias", "ddpm"): "ee82b32d9c9ef198b3f94a96c865541e3d2fafd681c9d9c4e580a0eb6592f647",
    ("scale-bias", "langevin"): "0c443236cbcd152d94f7fe4cec733bbb15cd5948eeb2b0dba2b7079d26f57ee4",
    ("additive-field", "rf"): "263fd200ce8865ca4f8fd33d5fd43deb79408033d0fe8b26d335aeba03266350",
    ("additive-field", "ddim-rf[euler]"):
        "621173c09fd8eb91ab8614ce34518dc67f486841c462984f53c12d398b02765a",
    ("additive-field", "ddim-rf[scaled]"):
        "c0b7371d3cca6cb0332c0a163a1321267db39663da50a8f6d4e01792e1598e4b",
    ("additive-field", "stoc-rf"):
        "52d3886defea13f98306beda49169ce5f127ea344c35d65c8ca823bda3bc8954",
    ("additive-field", "ddpm"): "61160c0257f1784d4b22e849bacae542be9cb10713fa77ec985bedf71a647529",
    ("additive-field", "langevin"):
        "074e9a5a35774d5887a82ec6111458cf8a7c75329bba45abb4152021737284ea",
}


class TestBufferRing:
    @pytest.mark.parametrize("n", [37, 3500], ids=["caller-draws", "worker-draws"])
    @pytest.mark.parametrize("name", list(_RING_RUNS))
    def test_frames_share_no_memory(self, name, n, monkeypatch):
        loops = []
        step_loop = flowgrid.samplers._step_loop

        def kept_loop(*args, **kwargs):
            loops.append(step_loop(*args, **kwargs))
            return loops[-1]

        monkeypatch.setattr(flowgrid.samplers, "_step_loop", kept_loop)
        batch = _RING_RUNS[name](ExactOracle(_D5_MIXTURE), n, record_trajectories=True)
        (_, frames), = loops
        assert len(frames) == batch.trajectory.shape[0]
        for i, frame in enumerate(frames):
            assert not any(np.shares_memory(frame, later) for later in frames[i + 1:])
            assert np.array_equal(frame, batch.trajectory[i])
        assert not np.shares_memory(batch.data, batch.trajectory)
        assert np.array_equal(batch.trajectory[-1], batch.data)

    @pytest.mark.parametrize("name", list(_RING_RUNS))
    def test_recording_leaves_the_batch_bitwise_unchanged(self, name):
        oracle = ExactOracle(_D5_MIXTURE)
        plain = _RING_RUNS[name](oracle, 300)
        recorded = _RING_RUNS[name](oracle, 300, record_trajectories=True)
        assert plain.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("name", list(_PIN_RUNS))
    @pytest.mark.parametrize("kind", list(_PIN_TARGETS))
    def test_perturbed_oracle_gives_the_pinned_bits(self, kind, name):
        oracle = _PERTURB[kind](ExactOracle(_PIN_TARGETS[kind]))
        digest = hashlib.sha256(_PIN_RUNS[name](oracle).data.tobytes()).hexdigest()
        assert digest == _PINNED_SHA256[kind, name]

    @pytest.mark.parametrize("name", list(_RING_RUNS))
    def test_an_oracle_without_out_fails_at_its_first_call(self, name):
        class NoOut:
            dim = 1
            calls = 0

            def velocity(self, t, x):
                self.calls += 1
                return np.zeros_like(x)

            score = velocity

        oracle = NoOut()
        with pytest.raises(TypeError, match="out"):
            _RING_RUNS[name](oracle, 8)
        assert oracle.calls == 0


# ---------------------------------------------------------------------------
# row blocks
#
# Every sampler takes its rows through every step one block at a time, a
# noise-drawing one reading each step's noise one row block at a time.
# Their bits must not depend on the blocks: pinned below on a target wide
# enough for many blocks (the digests are those the samplers gave when they
# ran all rows at once, recorded before each kind ran in blocks), and
# compared on a patched block budget.  The finite check must still name the
# earliest failing knot over all rows.

_BLOCK_RUNS = {
    "rf": lambda o, n, **kw: rf_euler(o, _PIN_GRID, n, 5, **kw),
    "ddim-rf[euler]": lambda o, n, **kw: ddim_rf(o, _PIN_GRID, n, 5, **kw),
    "ddim-rf[scaled]": lambda o, n, **kw: ddim_rf(o, _PIN_GRID, n, 5, form="scaled", **kw),
    "langevin(0)": lambda o, n, **kw: langevin_rf(o, _PIN_GRID, n, 5, gamma_scale=0.0, **kw),
    "stoc-rf": lambda o, n, **kw: stoc_rf(o, _PIN_GRID, n, 5, **kw),
    "ddpm": lambda o, n, **kw: ddpm_sample(o, _PIN_SCHEDULE, n, 5, **kw),
    "langevin(1)": lambda o, n, **kw: langevin_rf(o, _PIN_GRID, n, 5, gamma_scale=1.0, **kw),
}
# Target.low_rank(300, 8), n = 2000: 218 rows a block, ten blocks.
_BLOCK_PINS = {
    "rf": "028ea1361ddde5411d440569fdb22ff86b7ca1b100f6cd484bf252e3e6aca8a2",
    "ddim-rf[euler]": "a84dd5e5893c3dcffa2e11347bed5bf1029e5df6635fa1e52c83bb4d855d0bdf",
    "ddim-rf[scaled]": "0b20091dae6f5a1c9f223bffeae663431982b0c27c296b8f19e8a423147f2155",
    "langevin(0)": "028ea1361ddde5411d440569fdb22ff86b7ca1b100f6cd484bf252e3e6aca8a2",
    "stoc-rf": "718025ae35ed49d013d867ad2677474535fedc0c4d553fbad93d92d2a0bddbfd",
    "ddpm": "f54de2a22f7ab12bc1aae297be1f9642d922ba3d258e39ab300f34fc6ea89d68",
    "langevin(1)": "8f7799c9f2114b258b42bd77de945d700a39f32d3ac1ae41d19944e8362765ba",
}

# Runs on raw knots 0.1, 0.2, ..., 0.9 (the chain needs its own schedule).
_SIGNED_TIMES = np.linspace(0.1, 0.9, 9)
_SIGNED_RUNS = {
    "rf": lambda o: rf_euler(o, _SIGNED_TIMES, 3000, 0),
    "ddim-rf[euler]": lambda o: ddim_rf(o, _SIGNED_TIMES, 3000, 0),
    "ddim-rf[scaled]": lambda o: ddim_rf(o, _SIGNED_TIMES, 3000, 0, form="scaled"),
    "langevin(0)": lambda o: langevin_rf(o, _SIGNED_TIMES, 3000, 0, gamma_scale=0.0),
    "stoc-rf": lambda o: stoc_rf(o, _SIGNED_TIMES, 3000, 0),
    "langevin(1)": lambda o: langevin_rf(o, _SIGNED_TIMES, 3000, 0, gamma_scale=1.0),
}


class _RowSigns:
    """Stands in for the initial draw: +64 on rows before ``cut`` and -64 from
    it on, counted row after row across calls like a generator's stream; far
    enough from 0 that no step noise turns a row's sign."""

    def __init__(self, cut):
        self._cut = cut
        self._row = 0

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        rows = self._row + np.arange(out.shape[0])
        out[...] = np.where(rows < self._cut, 64.0, -64.0)[:, None]
        self._row += out.shape[0]
        return out


class _SignedExplosion:
    """Zero on every row until it turns infinite: from t > 0.35 on rows
    whose first coordinate is negative, from t > 0.65 on all rows."""

    dim = 64

    def velocity(self, t, x, out):
        out.fill(np.inf if t > 0.65 else 0.0)
        if t > 0.35:
            out[x[:, 0] < 0.0] = np.inf
        return out

    score = velocity


class TestRowBlocks:
    @pytest.mark.parametrize("name", list(_BLOCK_RUNS))
    def test_many_blocks_give_the_pinned_bits(self, name):
        batch = _BLOCK_RUNS[name](ExactOracle(Target.low_rank(300, 8)), 2000)
        assert hashlib.sha256(batch.data.tobytes()).hexdigest() == _BLOCK_PINS[name]

    @pytest.mark.parametrize("record", [False, True], ids=["plain", "recorded"])
    @pytest.mark.parametrize("name", list(_BLOCK_RUNS))
    def test_the_bits_do_not_depend_on_the_block_size(self, name, record, monkeypatch):
        oracle = ExactOracle(_D5_MIXTURE)
        whole = _BLOCK_RUNS[name](oracle, 300, record_trajectories=record)
        monkeypatch.setattr(flowgrid.batch, "_BLOCK_BYTES", 7 * 5 * 8)  # 7 rows a block
        blocked = _BLOCK_RUNS[name](oracle, 300, record_trajectories=record)
        assert blocked.data.tobytes() == whole.data.tobytes()
        if record:
            assert blocked.trajectory.tobytes() == whole.trajectory.tobytes()
            plain = _BLOCK_RUNS[name](oracle, 300)
            assert plain.data.tobytes() == blocked.data.tobytes()

    @pytest.mark.parametrize("name", list(_SIGNED_RUNS))
    def test_later_rows_failing_earlier_name_the_earlier_knot(self, name, monkeypatch):
        # 64 coordinates: 1024 rows a block, so rows 2048 on are the third block.
        monkeypatch.setattr(flowgrid.samplers, "substream", lambda *address: _RowSigns(2048))
        # The first blocks fail at the step from t = 0.7, the last one at the
        # step from t = 0.4, which lands on t = 0.5, with noise or without.
        with pytest.raises(NonFiniteState, match=r"at t = 0\.5;"):
            _SIGNED_RUNS[name](_SignedExplosion())


class TestSamplerTable:
    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_run_sampler_calls_the_module_attribute(self, name, monkeypatch):
        # Wrappers installed on the module (tracing, say) must see every run.
        import flowgrid.samplers as samplers

        function = SAMPLERS[name].function
        real = getattr(samplers, function)
        handed = []

        def spy(oracle, grid, n, seed, **kwargs):
            handed.append(grid)
            return real(oracle, grid, n, seed, **kwargs)

        monkeypatch.setattr(samplers, function, spy)
        built = GRIDS[GridKind.DDPM_INDUCED].build(40, 0.025)
        batch = run_sampler(name, ExactOracle(_D1), built, 4, 0, record_trajectories=True)
        assert handed == [built.schedule if name == "ddpm" else built.grid]
        assert batch.trajectory is not None

    def test_unknown_names_and_missing_schedules_are_domain_errors(self):
        built = GRIDS[GridKind.UNIFORM].build(10, 0.1)
        with pytest.raises(DomainError, match="unknown sampler"):
            run_sampler("heun", ExactOracle(_D1), built, 4, 0)
        with pytest.raises(DomainError, match="schedule"):
            run_sampler("ddpm", ExactOracle(_D1), built, 4, 0)


# ---------------------------------------------------------------------------
# closed-form push-forward

# sha256 of (times, mean, var_diag) for every SAMPLERS row on each grid kind
# it runs on (N = 20, δ = 0.05), recorded before the push-forward read its
# steps from the SAMPLERS rows and its coefficients from the oracle
_PUSH_TARGET = Target.gaussian([2.0, -1.0, 0.5, 3.0], [1.0, 0.5, 2.0, 0.0])
_PUSH_PINS = {
    ("rf", "uniform", False): "7f11c6453c9e9f64c9007b693418e81ca3e2765ee98e127af30027da30d00876",
    ("rf", "uniform", True): "eb0fbf55d5ac1f2376e808c56a8f9317785fe0861b6c30e88abd07469831898b",
    ("rf", "ushaped", False): "d28f67a91b1e338ca89a19d769712b9d41f2ab71a6df210835cdd3c5284f3f80",
    ("rf", "ushaped", True): "742f314af9a6f00df4ac54e0430462897b9baec4028adfcfdc9bd7eab131505e",
    ("rf", "ddpm-induced", False): "c78f28ca6f6b37036a0adeccd7a95b71d00a08262a131722d89df6bbd16a9468",
    ("rf", "ddpm-induced", True): "f697e6bcc04abb85d21bd89ba49c247db776f7d246eb6d8d56514de44a6800a4",
    ("ddim-rf", "ddpm-induced", False):
        "f31aef193b123eb83ee7f5897d95c89893824396779e6c9d98112f486e43b91e",
    ("ddim-rf", "ddpm-induced", True):
        "02614cb7c56d133a58fadc50fed590229c7f15b07df34fd75cceb978b9423b95",
    ("stoc-rf", "ddpm-induced", False):
        "fa3692403a69386903d80993b408fdf157e6b40bf17d086f3b614cfd547eeae4",
    ("stoc-rf", "ddpm-induced", True):
        "1fb792c6e03a6dbe2b4993f41c1e64bfe85884608c68a2a729172c7cad4412f8",
    ("ddpm", "ddpm-induced", False):
        "fa3692403a69386903d80993b408fdf157e6b40bf17d086f3b614cfd547eeae4",
    ("ddpm", "ddpm-induced", True):
        "1fb792c6e03a6dbe2b4993f41c1e64bfe85884608c68a2a729172c7cad4412f8",
    ("langevin", "ddpm-induced", False):
        "135e266a3d32140c1c37843c7888bbbc31d049f8cc40890b8e3630c33d9c2945",
    ("langevin", "ddpm-induced", True):
        "732c8d5987c9900d01a6ad9f6ebffad8751b8f7629312ec22a28d0518cd95e57",
}


class TestGaussianPushforward:
    def test_the_pins_cover_every_row_on_every_grid_it_runs_on(self):
        runs = {
            (name, kind.value)
            for name, entry in SAMPLERS.items()
            for kind in GRIDS
            if entry.needs <= GRIDS[kind].provides
        }
        assert {(name, kind) for name, kind, _ in _PUSH_PINS} == runs

    @pytest.mark.parametrize("case", list(_PUSH_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_the_path_gives_the_pinned_bits(self, case):
        sampler, kind, final_step = case
        grid = GRIDS[GridKind(kind)].build(20, 0.05).grid
        path = gaussian_pushforward(
            ExactOracle(_PUSH_TARGET), grid, sampler, final_step=final_step
        )
        digest = hashlib.sha256()
        for array in (path.times, path.mean, path.var_diag):
            digest.update(array.tobytes())
        assert digest.hexdigest() == _PUSH_PINS[case]

    @pytest.mark.parametrize("sampler", list(SAMPLERS))
    def test_the_scale_bias_path_is_the_law_its_sampler_draws(self, sampler):
        # m = 0.05 moves the law far from the exact one (|z| > 50), and the
        # push-forward of the perturbed oracle is what its sampler draws
        built = GRIDS[GridKind.DDPM_INDUCED].build(100, 0.0)
        exact = ExactOracle(Target.low_rank(20, 8))
        oracle = ScaleBiasOracle(exact, 0.05)
        n = 20_000
        data = run_sampler(sampler, oracle, built, n, 17).data

        def worst_z(law_of):
            mean, var = gaussian_pushforward(law_of, built.grid, sampler).terminal()
            z_mean = (data.mean(axis=0) - mean) / np.sqrt(var / n)
            z_var = (data.var(axis=0, ddof=1) - var) / (var * np.sqrt(2.0 / (n - 1)))
            return float(np.max(np.abs(np.concatenate([z_mean, z_var]))))

        assert worst_z(oracle) <= 4.0
        assert worst_z(exact) > 50.0

    def test_point_mass_path(self):
        c = np.array([2.0, -3.0])
        grid = build_ushaped_grid(10, 0.1)
        path = gaussian_pushforward(ExactOracle(point_mass(c)), grid, "rf")
        for t_j, m_j, v_j in zip(path.times, path.mean, path.var_diag):
            np.testing.assert_allclose(m_j, t_j * c, atol=1e-12)
            np.testing.assert_allclose(v_j, (1.0 - t_j) ** 2, atol=1e-12)

    def test_single_full_step_collapses_to_the_mean(self):
        mu = np.array([1.0, 2.0, 3.0])
        path = gaussian_pushforward(ExactOracle(Target.gaussian(mu, np.ones(3))), [0.0, 1.0], "rf")
        np.testing.assert_allclose(path.mean[-1], mu, atol=1e-14)
        np.testing.assert_allclose(path.var_diag[-1], 0.0, atol=1e-14)

    def test_terminal_error_shrinks_monotonically_in_n(self):
        # against the exact interpolation marginal at the matching stop time
        target = Target.low_rank(10, 8)
        errors = []
        for n_steps in (25, 50, 100, 200):
            path = gaussian_pushforward(ExactOracle(target), build_uniform_grid(n_steps), "rf")
            t_last = path.times[-1]
            exact_var = t_last**2 * target.variances[0] + (1.0 - t_last) ** 2
            exact_mean = t_last * target.means[0]
            assert np.max(np.abs(path.mean[-1] - exact_mean)) < 1e-12
            errors.append(np.max(np.abs(path.var_diag[-1] - exact_var)))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_tracks_empirical_moments_of_a_shared_start(self):
        # seeding the recursion with the draw's own moments makes the
        # deterministic path exact for the finite ensemble, not just in law
        target = Target.gaussian(np.array([2.0, -1.0, 8.0]), np.array([1.0, 0.5, 0.0]))
        oracle = ExactOracle(target)
        grid = build_ushaped_grid(100, 0.01)
        batch = rf_euler(oracle, grid, 500, seed=7, record_trajectories=True)
        y0 = batch.trajectory[0]
        path = gaussian_pushforward(
            oracle,
            grid,
            "rf",
            init_mean=y0.mean(axis=0),
            init_var=y0.var(axis=0, ddof=1),
        )
        for frame, m_j, v_j in zip(batch.trajectory, path.mean, path.var_diag):
            np.testing.assert_allclose(frame.mean(axis=0), m_j, atol=1e-10)
            np.testing.assert_allclose(frame.var(axis=0, ddof=1), v_j, atol=1e-10)

    def test_ddpm_kind_is_the_whitened_recursion(self):
        target = Target.gaussian(np.zeros(2), np.ones(2))
        grid = induced_grid(40)
        a = gaussian_pushforward(ExactOracle(target), grid, "ddpm")
        b = gaussian_pushforward(ExactOracle(target), grid, "stoc-rf")
        np.testing.assert_array_equal(a.var_diag, b.var_diag)

    def test_rejections(self):
        mix = Target(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [1.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        with pytest.raises(DomainError, match="single-Gaussian"):
            gaussian_pushforward(ExactOracle(mix), build_uniform_grid(4), "rf")
        gauss = ExactOracle(Target.gaussian(np.zeros(2), np.ones(2)))
        with pytest.raises(DomainError, match="not affine"):
            gaussian_pushforward(AdditiveFieldOracle(gauss, 0.1, 1), build_uniform_grid(4), "rf")
        with pytest.raises(DomainError, match="sampler kind"):
            gaussian_pushforward(gauss, build_uniform_grid(4), "rk4")
        with pytest.raises(DomainError, match="t_0 > 0"):
            gaussian_pushforward(gauss, build_uniform_grid(4), "ddim-rf")
        with pytest.raises(DomainError, match="initial moments"):
            gaussian_pushforward(gauss, build_uniform_grid(4), "rf", init_var=-1.0)
        induced = ddpm_induced_rf_grid(build_ddpm_schedule(20))
        for gamma_scale in (-5.0, math.nan):  # what langevin_rf refuses
            with pytest.raises(DomainError, match="gamma_scale must be finite and >= 0"):
                gaussian_pushforward(gauss, induced, "langevin", gamma_scale=gamma_scale)

    def test_scalar_init_broadcasts(self):
        gauss = ExactOracle(Target.gaussian(np.zeros(3), np.ones(3)))
        path = gaussian_pushforward(gauss, build_uniform_grid(4), "rf", init_mean=2.0, init_var=0.5)
        np.testing.assert_allclose(path.mean[0], 2.0)
        np.testing.assert_allclose(path.var_diag[0], 0.5)

    @pytest.mark.parametrize("sampler", ["stoc-rf", "ddpm"])
    def test_whitened_kinds_start_in_sample_coordinates(self, sampler):
        # the whitened state starts at N(0, I), so the sample-coordinate
        # default is N(0, σ_{t_0}²·I); naming that start changes nothing
        target = Target.gaussian(np.array([1.0, -2.0, 0.5]), np.array([1.0, 0.3, 0.0]))
        grid = induced_grid(60)
        default = gaussian_pushforward(ExactOracle(target), grid, sampler)
        sigma2_start = interpolation_scale2(grid.times[0])
        named = gaussian_pushforward(ExactOracle(target), grid, sampler, init_mean=0.0, init_var=sigma2_start)
        np.testing.assert_array_equal(named.mean, default.mean)
        np.testing.assert_array_equal(named.var_diag, default.var_diag)
        np.testing.assert_array_equal(default.var_diag[0], sigma2_start)

    @pytest.mark.parametrize("init", ["init_mean", "init_var"])
    @pytest.mark.parametrize("shape", [(3,), (2, 5)], ids=["short", "two-rows"])
    def test_init_moments_must_broadcast_to_the_target(self, init, shape):
        target = Target.low_rank(5, 2)
        with pytest.raises(DomainError, match=r"broadcast to \(5,\)"):
            gaussian_pushforward(ExactOracle(target), build_uniform_grid(4), "rf", **{init: np.ones(shape)})

    @pytest.mark.parametrize("n_steps", [50, 100, 400])
    @pytest.mark.parametrize("kind", list(GridKind), ids=lambda k: k.value)
    def test_euler_is_exact_on_flat_coordinates(self, kind, n_steps):
        # Started on the interpolation's law at t_0 (N(0, I) when t_0 = 0), a
        # zero-variance coordinate keeps mean t·μ and variance (1-t)² at every
        # knot: the flow step is exact there on any grid, the closing one too.
        target = Target.low_rank(800, 8)
        built = GRIDS[kind].build(n_steps, 1.0 / 800)
        t0 = float(built.grid.times[0])
        path = gaussian_pushforward(
            ExactOracle(target), built.grid, "rf", final_step=True, init_mean=8.0 * t0, init_var=(1.0 - t0) ** 2
        )
        t = path.times[:, None]
        flat = (t.size, 792)
        np.testing.assert_allclose(
            path.mean[:, 8:], np.broadcast_to(8.0 * t, flat), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            path.var_diag[:, 8:], np.broadcast_to((1.0 - t) ** 2, flat), rtol=0, atol=4e-15
        )
        assert path.times[-1] == 1.0


def _array_fields(value):
    return {
        f.name: getattr(value, f.name)
        for f in dataclasses.fields(value)
        if isinstance(getattr(value, f.name), np.ndarray)
    }


class TestCallerArraysStayWriteable:
    """Value types hold read-only views; the arrays passed in stay writeable."""

    def build(self, kind):
        """(value, the caller's arrays it was built from)."""
        if kind == "target":
            arrays = (np.array([0.4, 0.6]), np.zeros((2, 3)), np.ones((2, 3)))
            return Target(weights=arrays[0], means=arrays[1], variances=arrays[2]), arrays
        if kind == "time-grid":
            times = np.linspace(0.0, 1.0, 5)
            return TimeGrid(times, GridKind.UNIFORM), (times,)
        if kind == "ddpm-schedule":
            built = build_ddpm_schedule(20)
            arrays = (built.betas.copy(), built.alphas.copy(), built.omegas.copy())
            value = DdpmSchedule(
                betas=arrays[0], alphas=arrays[1], omegas=arrays[2], c0=2.0, c1=6.0
            )
            return value, arrays
        if kind == "sample-batch":
            arrays = (np.ones((3, 2)), np.zeros((2, 3, 2)), np.array([0.5, 1.0]))
            arrays[1][-1] = arrays[0]
            meta = BatchMeta("rf", "custom", "none", 0, 1.0)
            value = SampleBatch(
                data=arrays[0], meta=meta, trajectory=arrays[1], trajectory_times=arrays[2]
            )
            return value, arrays
        times = np.array([0.2, 0.5, 0.9])
        if kind == "stoc-rf-coefficients":
            return stoc_rf_coefficients(times), (times,)
        target = Target.gaussian(np.zeros(2), np.ones(2))
        return gaussian_pushforward(ExactOracle(target), times, "stoc-rf"), (times,)

    @pytest.mark.parametrize(
        "kind",
        [
            "target",
            "time-grid",
            "ddpm-schedule",
            "sample-batch",
            "stoc-rf-coefficients",
            "pushforward-path",
        ],
    )
    def test_only_the_value_is_read_only(self, kind):
        value, arrays = self.build(kind)
        assert all(a.flags.writeable for a in arrays)
        fields = _array_fields(value)
        assert fields and not any(a.flags.writeable for a in fields.values())
        for a in arrays:
            a[...] = 0.0  # the caller may still write its own array

    @pytest.mark.parametrize(
        "kind", ["target", "time-grid", "stoc-rf-coefficients", "pushforward-path"]
    )
    def test_a_later_write_to_the_caller_array_leaves_the_value(self, kind):
        # these values check their contents, so they hold copies: a write to
        # the caller's array afterwards cannot slip past those checks
        value, arrays = self.build(kind)
        before = {name: a.copy() for name, a in _array_fields(value).items()}
        for a in arrays:
            a[...] = -1.0
        for name, a in _array_fields(value).items():
            np.testing.assert_array_equal(a, before[name])
        if kind == "time-grid":
            assert np.all(value.step_sizes() > 0.0)

    def test_raw_sampler_times_are_copied(self):
        times = np.array([0.2, 0.5, 0.9])
        batch = rf_euler(ExactOracle(_D1), times, 4, 0, record_trajectories=True)
        times[...] = 0.0
        np.testing.assert_array_equal(batch.trajectory_times, [0.2, 0.5, 0.9])


# ---------------------------------------------------------------------------
# the bundled identity suite


class TestIdentitySuite:
    def test_every_record_passes(self):
        records = identity_checks(0)
        assert len(records) >= 15
        names = [r.name for r in records]
        assert len(names) == len(set(names))
        failures = [r for r in records if not r.passed]
        assert not failures, failures

    def test_wired_into_the_check_runner(self):
        from flowgrid.checks import run_suite

        records = run_suite("identities", seed=1)
        assert all(r.passed for r in records)
