"""Sampler tests: exact algebra against independent oracles, then MC bands.

The deterministic claims (per-step interpolation of point masses, the
two-form agreement of the score-driven update, the coupled-noise match of
the denoising chain and the whitened flow) are checked to float tolerances;
distributional claims are checked against the closed-form push-forward with
4-standard-error Monte-Carlo bands.
"""

import functools
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

import flowgrid.rng
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
    GridKind,
    build_ddpm_schedule,
    build_uniform_grid,
    build_ushaped_grid,
    ddpm_induced_rf_grid,
    time_from_mix_weight,
)
from flowgrid.targets import ExactOracle, Target


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

    def velocity(self, t, x):
        return np.full_like(x, np.inf) if t > 0.5 else np.zeros_like(x)

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
        push = gaussian_pushforward(target, grid, "rf")
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
        push = gaussian_pushforward(target, grid, "stoc-rf")
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
        push = gaussian_pushforward(target, grid, "stoc-rf")
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
        mean, var = gaussian_pushforward(target, grid, "langevin").terminal()
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
            target, ddpm_induced_rf_grid(schedule), "ddpm"
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
# step noise drawn ahead on a worker thread
#
# The reference loops below draw each step's block inline, as the samplers
# did before their blocks came from a StepNoise; the samplers must match
# them bit for bit.  Blocks of 2**14 values or more go through the worker
# thread (here whatever the core count), smaller ones are drawn on the
# caller's thread: tests cover both.


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

    def velocity(self, t, x):
        return np.zeros_like(x)

    def score(self, t, x):
        self.calls += 1
        return np.full_like(x, np.inf) if self.calls == self._k else np.zeros_like(x)


STOCHASTIC = ("stoc-rf", "ddpm", "ddpm-final", "langevin")


_D1 = Target.gaussian(np.array([1.5]), np.array([0.3]))
_D5_MIXTURE = Target(
    weights=np.array([0.4, 0.6]),
    means=np.array([[2.0, -1.0, 0.0, 1.0, 3.0], [-2.0, 1.0, 0.5, 0.0, 3.0]]),
    variances=np.array([[1.0, 0.5, 2.0, 0.0, 0.0], [0.3, 1.0, 1.0, 0.7, 0.0]]),
)
_WORKER_N = 4096  # with d = 4, a 2**14-value block: drawn on the worker


class TestStepNoisePrefetch:
    @pytest.fixture(autouse=True)
    def _worker_on_any_core_count(self, monkeypatch):
        monkeypatch.setattr(
            flowgrid.rng,
            "_prefetch_pays",
            lambda values: values >= flowgrid.rng._PREFETCH_MIN_VALUES,
        )

    @pytest.mark.parametrize(
        "target, n",
        [(_D1, 37), (_D1, 20000), (_D5_MIXTURE, 3500)],
        ids=["d1-caller", "d1-worker", "d5-mixture-worker"],
    )
    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_bitwise_equal_to_inline_draws(self, name, target, n):
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
        "shape, workers", [((6, 3), 0), ((_WORKER_N, 4), 1)], ids=["caller", "worker"]
    )
    def test_blocks_match_inline_draws_and_are_read_in_order(self, shape, workers):
        before = threading.active_count()
        with StepNoise(5, shape, 3) as noise:
            assert threading.active_count() == before + workers
            with pytest.raises(ValueError, match="block 1"):
                noise.block(1)
            for i in range(3):
                expected = substream(5, STEP_NOISE, i).standard_normal(shape)
                assert np.array_equal(noise.block(i), expected)
            with pytest.raises(ValueError, match="block 3"):
                noise.block(3)
        assert _live_threads_settle(before) == before

    def test_worker_needs_a_large_block_and_a_free_core(self, monkeypatch):
        monkeypatch.undo()
        pays = flowgrid.rng._prefetch_pays
        big = flowgrid.rng._PREFETCH_MIN_VALUES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert pays(big)
        assert not pays(big - 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not pays(big)

    def test_no_steps_starts_no_thread(self):
        before = threading.active_count()
        with StepNoise(5, (_WORKER_N, 4), 0) as noise:
            assert threading.active_count() == before
            with pytest.raises(ValueError):
                noise.block(0)

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_nonfinite_state_stops_the_worker(self, name):
        before = threading.active_count()
        with pytest.raises(NonFiniteState):
            _run_stochastic(name, _InfAtCall(4, k=5), _WORKER_N, 0)
        assert _live_threads_settle(before) == before

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_failed_draw_raises_from_the_sampler(self, name, monkeypatch):
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
        assert _live_threads_settle(before) == before

    def test_unread_failed_draw_raises_on_exit(self, monkeypatch):
        def failing(seed, *path):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(flowgrid.rng, "substream", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            with StepNoise(0, (_WORKER_N, 4), 2):
                pass

    def test_concurrent_calls_match_serial_runs(self):
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
# the shared Euler step loop


class _KeepingOracle:
    """The exact fields, keeping every output with a copy taken at return."""

    def __init__(self, target):
        self.exact = ExactOracle(target)
        self.outputs = []

    @property
    def dim(self):
        return self.exact.dim

    def _keep(self, out):
        self.outputs.append((out, out.copy()))
        return out

    def velocity(self, t, x):
        return self._keep(self.exact.velocity(t, x))

    def score(self, t, x):
        return self._keep(self.exact.score(t, x))


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

    @pytest.mark.parametrize("name", ["rf", "ddim-rf", "langevin", "langevin-off"])
    def test_oracle_outputs_are_never_written(self, name):
        oracle = _KeepingOracle(_D5_MIXTURE)
        if name == "rf":
            rf_euler(oracle, _GRID, 50, 3, record_trajectories=True)
        elif name == "ddim-rf":
            ddim_rf(oracle, _GRID, 50, 3, record_trajectories=True)
        else:
            gamma_scale = 0.0 if name == "langevin-off" else 1.0
            langevin_rf(oracle, _GRID, 50, 3, gamma_scale=gamma_scale, record_trajectories=True)
        assert oracle.outputs
        for out, copy in oracle.outputs:
            assert np.array_equal(out, copy)

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


class TestGaussianPushforward:
    def test_point_mass_path(self):
        c = np.array([2.0, -3.0])
        grid = build_ushaped_grid(10, 0.1)
        path = gaussian_pushforward(point_mass(c), grid, "rf")
        for t_j, m_j, v_j in zip(path.times, path.mean, path.var_diag):
            np.testing.assert_allclose(m_j, t_j * c, atol=1e-12)
            np.testing.assert_allclose(v_j, (1.0 - t_j) ** 2, atol=1e-12)

    def test_single_full_step_collapses_to_the_mean(self):
        mu = np.array([1.0, 2.0, 3.0])
        path = gaussian_pushforward(Target.gaussian(mu, np.ones(3)), [0.0, 1.0], "rf")
        np.testing.assert_allclose(path.mean[-1], mu, atol=1e-14)
        np.testing.assert_allclose(path.var_diag[-1], 0.0, atol=1e-14)

    def test_terminal_error_shrinks_monotonically_in_n(self):
        # against the exact interpolation marginal at the matching stop time
        target = Target.low_rank(10, 8)
        errors = []
        for n_steps in (25, 50, 100, 200):
            path = gaussian_pushforward(target, build_uniform_grid(n_steps), "rf")
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
            target,
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
        a = gaussian_pushforward(target, grid, "ddpm")
        b = gaussian_pushforward(target, grid, "stoc-rf")
        np.testing.assert_array_equal(a.var_diag, b.var_diag)

    def test_rejections(self):
        mix = Target(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [1.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        with pytest.raises(DomainError, match="single-Gaussian"):
            gaussian_pushforward(mix, build_uniform_grid(4), "rf")
        gauss = Target.gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError, match="sampler kind"):
            gaussian_pushforward(gauss, build_uniform_grid(4), "rk4")
        with pytest.raises(DomainError, match="t_0 > 0"):
            gaussian_pushforward(gauss, build_uniform_grid(4), "ddim-rf")
        with pytest.raises(DomainError, match="initial moments"):
            gaussian_pushforward(gauss, build_uniform_grid(4), "rf", init_var=-1.0)

    def test_scalar_init_broadcasts(self):
        gauss = Target.gaussian(np.zeros(3), np.ones(3))
        path = gaussian_pushforward(gauss, build_uniform_grid(4), "rf", init_mean=2.0, init_var=0.5)
        np.testing.assert_allclose(path.mean[0], 2.0)
        np.testing.assert_allclose(path.var_diag[0], 0.5)


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
