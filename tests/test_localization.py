"""Clock-change and forward-process tests.

The covariance-evolution assertions are checked against two independent
oracles built in this file: a closed-form quotient-rule derivative for
Gaussian targets, and a dense trapezoid integration over the explicit
mixture densities (no shared code with the package's quadrature path).
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgrid.localization
import flowgrid.rng
from flowgrid.batch import _block_rows
from flowgrid.errors import DomainError, NonFiniteState, NoRootError
from flowgrid.localization import (
    EquivalenceReport,
    ForwardPath,
    ProcessKind,
    _moment_stats,
    check_marginal_equivalence,
    covariance_checks,
    covariance_ode_residual,
    ddpm_time_from_sl,
    equivalence_checks,
    expected_posterior_variance_moments,
    interpolant_time_change,
    mix_weight_from_rf_time,
    rf_time_from_ddpm,
    rf_time_from_sl,
    simulate_forward,
    sl_time_from_ddpm,
    sl_time_from_rf,
)
from flowgrid.rng import STEP_NOISE, substream
from flowgrid.targets import Target

# --- independent oracles ----------------------------------------------------


def gaussian_posterior_var(t, v):
    """Closed form: Σ_t = v(1-t)² / (t²v + (1-t)²)."""
    return v * (1.0 - t) ** 2 / (t * t * v + (1.0 - t) ** 2)


def gaussian_posterior_var_slope(t, v):
    """d/dt of the closed form, by the quotient rule (independent oracle)."""
    u = v * (1.0 - t) ** 2
    w = t * t * v + (1.0 - t) ** 2
    du = -2.0 * v * (1.0 - t)
    dw = 2.0 * t * v - 2.0 * (1.0 - t)
    return (du * w - u * dw) / (w * w)


def trapezoid_variance_moments(weights, means, variances, t, n_grid=40001):
    """E[Σ_t] and E[Σ_t²] for a 1-D mixture by brute-force integration.

    Everything (densities, responsibilities, per-component posterior
    moments, the law-of-total-variance combination) is written out here from
    first principles.
    """
    m_means = t * means
    m_vars = t * t * variances + (1.0 - t) ** 2
    lo = (m_means - 10.0 * np.sqrt(m_vars)).min()
    hi = (m_means + 10.0 * np.sqrt(m_vars)).max()
    x = np.linspace(lo, hi, n_grid)
    dens = np.zeros((len(weights), n_grid))
    for k in range(len(weights)):
        dens[k] = (
            weights[k]
            / math.sqrt(2.0 * math.pi * m_vars[k])
            * np.exp(-0.5 * (x - m_means[k]) ** 2 / m_vars[k])
        )
    total = dens.sum(axis=0)
    resp = dens / total
    post_mean_k = np.empty_like(dens)
    post_var_k = np.empty(len(weights))
    for k in range(len(weights)):
        d_k = t * t * variances[k] + (1.0 - t) ** 2
        post_mean_k[k] = (t * variances[k] * x + (1.0 - t) ** 2 * means[k]) / d_k
        post_var_k[k] = variances[k] * (1.0 - t) ** 2 / d_k
    mixed_mean = np.sum(resp * post_mean_k, axis=0)
    sigma = (
        np.sum(resp * (post_var_k[:, None] + post_mean_k**2), axis=0) - mixed_mean**2
    )
    first = np.trapezoid(sigma * total, x)
    second = np.trapezoid(sigma * sigma * total, x)
    return first, second


# --- clock maps ---------------------------------------------------------------


class TestClockMaps:
    def test_anchor_values(self):
        assert rf_time_from_sl(1.0) == pytest.approx(0.5, abs=1e-15)
        assert rf_time_from_sl(4.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert ddpm_time_from_sl(1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert rf_time_from_ddpm(0.2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert rf_time_from_ddpm(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_extreme_precision_limits(self):
        assert ddpm_time_from_sl(1e12) == pytest.approx(5e-13, rel=1e-6)
        assert rf_time_from_sl(1e12) == pytest.approx(1.0, abs=2e-6)
        assert rf_time_from_sl(1e-12) == pytest.approx(1e-6, rel=1e-5)

    @given(st.floats(-13.8, 13.8))
    @settings(max_examples=150, deadline=None)
    def test_sl_rf_roundtrip(self, log_s):
        s = math.exp(log_s)
        assert sl_time_from_rf(rf_time_from_sl(s)) == pytest.approx(s, rel=1e-12)

    @given(st.floats(1e-3, 1.0 - 1e-3))
    @settings(max_examples=150, deadline=None)
    def test_rf_sl_roundtrip(self, t):
        assert rf_time_from_sl(sl_time_from_rf(t)) == pytest.approx(t, rel=1e-12)

    @given(st.floats(-13.8, 13.8))
    @settings(max_examples=150, deadline=None)
    def test_ddpm_clock_roundtrip(self, log_s):
        s = math.exp(log_s)
        assert sl_time_from_ddpm(ddpm_time_from_sl(s)) == pytest.approx(s, rel=1e-12)

    @given(st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=150, deadline=None)
    def test_mix_weight_roundtrip(self, omega):
        t = rf_time_from_ddpm(omega)
        assert mix_weight_from_rf_time(t) == pytest.approx(omega, rel=1e-12)

    @given(st.floats(-9.2, 9.2))
    @settings(max_examples=100, deadline=None)
    def test_composition_through_the_noising_clock(self, log_s):
        s = math.exp(log_s)
        omega = math.exp(-2.0 * ddpm_time_from_sl(s))
        assert rf_time_from_ddpm(omega) == pytest.approx(rf_time_from_sl(s), abs=1e-13)

    def test_unit_rate_profile_identities(self):
        # ω_τ = e^{−2τ}: the noise-to-signal ratio (1 − ω)/ω = e^{2τ} − 1 is 1/s
        for s in (1e-6, 0.7, 1.0, 40.0, 1e6):
            tau = ddpm_time_from_sl(s)
            assert tau == 0.5 * math.log1p(1.0 / s)
            want = 1.0 / math.expm1(2.0 * tau)
            assert sl_time_from_ddpm(tau) == pytest.approx(want, rel=1e-14)
            omega = math.exp(-2.0 * tau)
            assert (1.0 - omega) / omega == pytest.approx(1.0 / s, rel=1e-9)

    def test_vectorized_maps_match_scalars(self):
        s = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(
            rf_time_from_sl(s), [rf_time_from_sl(v) for v in s], rtol=1e-15
        )
        np.testing.assert_allclose(
            ddpm_time_from_sl(s), [ddpm_time_from_sl(v) for v in s], rtol=1e-15
        )
        assert isinstance(rf_time_from_sl(1.0), float)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                rf_time_from_sl(bad)
            with pytest.raises(DomainError):
                ddpm_time_from_sl(bad)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                sl_time_from_rf(bad)
            with pytest.raises(DomainError):
                rf_time_from_ddpm(bad)
            with pytest.raises(DomainError):
                mix_weight_from_rf_time(bad)
        with pytest.raises(DomainError):
            sl_time_from_ddpm(0.0)

    @pytest.mark.parametrize(
        "forward, inverse, points",
        [
            (rf_time_from_sl, sl_time_from_rf, np.geomspace(1e-6, 1e6, 25)),
            (sl_time_from_rf, rf_time_from_sl, np.linspace(0.01, 0.99, 25)),
            (ddpm_time_from_sl, sl_time_from_ddpm, np.geomspace(1e-6, 1e6, 25)),
            (rf_time_from_ddpm, mix_weight_from_rf_time, np.linspace(0.01, 0.99, 25)),
        ],
        ids=["sl-to-rf", "rf-to-sl", "sl-to-ddpm-ou", "ddpm-to-rf"],
    )
    def test_maps_round_trip(self, forward, inverse, points):
        np.testing.assert_allclose(inverse(forward(points)), points, rtol=1e-12)


class TestInterpolantTimeChange:
    def test_linear_pair_recovers_closed_form(self):
        for s in (0.1, 0.25, 1.0, 4.0, 40.0):
            theta = interpolant_time_change(lambda u: u, lambda u: 1.0 - u, s)
            assert theta == pytest.approx(rf_time_from_sl(s), abs=2e-12)

    def test_trigonometric_symmetric_point(self):
        theta = interpolant_time_change(
            lambda u: math.sin(0.5 * math.pi * u),
            lambda u: math.cos(0.5 * math.pi * u),
            1.0,
        )
        assert theta == pytest.approx(0.5, abs=2e-12)

    def test_trigonometric_composition(self):
        a = lambda u: math.sin(0.5 * math.pi * u)
        b = lambda u: math.cos(0.5 * math.pi * u)
        rng = np.random.default_rng(5)
        for s in np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=12)):
            theta = interpolant_time_change(a, b, float(s))
            t = a(theta) / (a(theta) + b(theta))
            assert t == pytest.approx(rf_time_from_sl(float(s)), abs=1e-10)

    def test_trigonometric_pair_recovers_closed_form(self):
        # r(θ) = cot(πθ/2), so r² = 1/s at θ = (2/π)·atan(√s); bisection to 1e-12
        a = lambda u: math.sin(0.5 * math.pi * u)
        b = lambda u: math.cos(0.5 * math.pi * u)
        for s in np.geomspace(1e-4, 1e4, 17):
            theta = interpolant_time_change(a, b, float(s))
            assert theta == pytest.approx(2.0 / math.pi * math.atan(math.sqrt(s)), abs=2e-12)

    def test_rejects_non_unit_pair(self):
        with pytest.raises(DomainError, match="unit interpolation pair"):
            interpolant_time_change(lambda u: 2.0 * u, lambda u: 1.0 - u, 1.0)

    def test_rejects_non_monotone_ratio(self):
        wavy = lambda u: 1.0 - u + 0.3 * math.sin(2.0 * math.pi * u)
        with pytest.raises(NoRootError):
            interpolant_time_change(lambda u: u, wavy, 1.0)

    def test_rejects_bad_precision(self):
        with pytest.raises(DomainError):
            interpolant_time_change(lambda u: u, lambda u: 1.0 - u, 0.0)

    def test_equivalence_suite_checks_each_pair_once(self, monkeypatch):
        checked = []
        real = flowgrid.localization._check_unit_pair

        def counted(a, b):
            checked.append((a(0.5), b(0.5)))
            return real(a, b)

        monkeypatch.setattr(flowgrid.localization, "_check_unit_pair", counted)
        records = {r.name: r.observed for r in flowgrid.localization.equivalence_checks(seed=3)}
        # the linear and the trigonometric pair, once each, for 13 solves
        assert checked == [(0.5, 0.5), (math.sin(0.25 * math.pi), math.cos(0.25 * math.pi))]
        monkeypatch.undo()
        a = lambda u: math.sin(0.5 * math.pi * u)
        b = lambda u: math.cos(0.5 * math.pi * u)
        expected = abs(interpolant_time_change(a, b, 1.0) - 0.5)
        assert records["interpolant:trig-symmetric-point"] == expected


# --- forward simulators -------------------------------------------------------


class TestSimulateForward:
    def test_sl_point_mass_moments(self):
        c = np.array([2.0, -1.0])
        target = Target.gaussian(c, np.zeros(2))
        n = 20000
        path = simulate_forward(ProcessKind.SL, target, [0.5, 1.0, 2.0], n, seed=3)
        for s, states in zip(path.times, path.states):
            rescaled = states / s
            assert np.all(np.abs(rescaled.mean(axis=0) - c) <= 4.0 / math.sqrt(s * n))
            emp_var = rescaled.var(axis=0, ddof=1)
            assert np.all(
                np.abs(emp_var - 1.0 / s) <= 4.0 * (1.0 / s) * math.sqrt(2.0 / (n - 1))
            )

    def test_sl_brownian_increments_are_consistent(self):
        target = Target.gaussian(np.zeros(1), np.zeros(1))
        n = 20000
        path = simulate_forward(ProcessKind.SL, target, [1.0, 3.0], n, seed=8)
        jump = path.states[1] - path.states[0]  # (3-1)·0 + B_3 - B_1 ~ N(0, 2)
        assert abs(jump.var(ddof=1) - 2.0) <= 4.0 * 2.0 * math.sqrt(2.0 / (n - 1))

    def test_rf_linear_standard_gaussian_marginal(self):
        target = Target.gaussian(np.zeros(2), np.ones(2))
        n = 20000
        path = simulate_forward(ProcessKind.RF_LINEAR, target, [0.3, 0.7], n, seed=5)
        for t, states in zip(path.times, path.states):
            sigma2 = (1.0 - t) ** 2 + t * t
            emp_var = states.var(axis=0, ddof=1)
            assert np.all(np.abs(states.mean(axis=0)) <= 4.0 * math.sqrt(sigma2 / n))
            assert np.all(
                np.abs(emp_var - sigma2) <= 4.0 * sigma2 * math.sqrt(2.0 / (n - 1))
            )

    def test_rf_linear_shares_brownian_past_across_times(self):
        # rescaled states are X₁ + W at backward clocks c(t); for t₁ < t₂ the
        # covariance is Var(X₁) + min(c₁, c₂) = 1 + c(t₂)
        target = Target.gaussian(np.zeros(1), np.ones(1))
        n = 40000
        t1, t2 = 0.4, 0.8
        path = simulate_forward(ProcessKind.RF_LINEAR, target, [t1, t2], n, seed=12)
        a = path.states[0][:, 0] / t1
        b = path.states[1][:, 0] / t2
        c2 = ((1.0 - t2) / t2) ** 2
        emp_cov = np.cov(a, b, ddof=1)[0, 1]
        se = math.sqrt((a.var(ddof=1) * b.var(ddof=1) + emp_cov**2) / n)
        assert abs(emp_cov - (1.0 + c2)) <= 4.0 * se

    def test_ddpm_forward_marginal(self):
        mu = np.array([1.0, -1.0])
        v = np.array([0.5, 2.0])
        target = Target.gaussian(mu, v)
        n = 20000
        path = simulate_forward(ProcessKind.DDPM_FORWARD, target, [0.2, 0.6], n, seed=9)
        for tau, states in zip(path.times, path.states):
            omega = math.exp(-2.0 * tau)
            want_mean = math.sqrt(omega) * mu
            want_var = omega * v + (1.0 - omega)
            emp_mean = states.mean(axis=0)
            emp_var = states.var(axis=0, ddof=1)
            assert np.all(np.abs(emp_mean - want_mean) <= 4.0 * np.sqrt(want_var / n))
            assert np.all(
                np.abs(emp_var - want_var) <= 4.0 * want_var * math.sqrt(2.0 / (n - 1))
            )

    @pytest.mark.parametrize(
        "target",
        [
            Target.low_rank(4, 2),
            Target(
                weights=np.array([0.3, 0.7]),
                means=np.array([[-1.0, 0.0], [3.0, 1.0]]),
                variances=np.array([[0.5, 1.0], [2.0, 1.0]]),
            ),
        ],
        ids=["gaussian", "mixture"],
    )
    def test_ddpm_state_rescales_to_the_rf_state(self, target):
        # at one point both draw X₁ + B_c on the same streams, with
        # c = (1 − ω)/ω = ((1 − t)/t)² for t = rf_time_from_ddpm(ω)
        tau = 0.4
        omega = math.exp(-2.0 * tau)
        t = rf_time_from_ddpm(omega)
        ddpm = simulate_forward(ProcessKind.DDPM_FORWARD, target, [tau], 37, seed=4)
        rf = simulate_forward(ProcessKind.RF_LINEAR, target, [t], 37, seed=4)
        np.testing.assert_allclose(
            ddpm.states[0] / math.sqrt(omega), rf.states[0] / t, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize(
        "clock", [[0.1, 400.0], [1e-300, 2e-300]], ids=["signal-underflow", "noise-underflow"]
    )
    def test_a_noise_clock_that_stops_increasing_raises(self, clock):
        # ω = e^{−800} is 0, and e^{−2e−300} is 1 at both points
        target = Target.gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError, match="noise clock"):
            simulate_forward(ProcessKind.DDPM_FORWARD, target, clock, 4, seed=0)

    def test_accepts_string_kind_and_freezes_arrays(self):
        target = Target.gaussian(np.zeros(2), np.ones(2))
        path = simulate_forward("sl", target, [1.0], 8, seed=0)
        assert path.kind is ProcessKind.SL
        assert not path.states.flags.writeable
        assert not path.times.flags.writeable
        assert path.states.shape == (1, 8, 2)

    def test_domain_errors(self):
        target = Target.gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError, match="positive"):
            simulate_forward(ProcessKind.SL, target, [0.0, 1.0], 4, seed=0)
        with pytest.raises(DomainError, match="strictly increasing"):
            simulate_forward(ProcessKind.SL, target, [2.0, 1.0], 4, seed=0)
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            simulate_forward(ProcessKind.RF_LINEAR, target, [0.5, 1.0], 4, seed=0)
        with pytest.raises(DomainError, match="positive"):
            simulate_forward(ProcessKind.DDPM_FORWARD, target, [-0.1, 0.5], 4, seed=0)
        with pytest.raises(ValueError):
            simulate_forward("heat", target, [0.5], 4, seed=0)


class TestMarginalEquivalence:
    def test_point_mass_passes_and_matches_the_exact_law(self):
        c = np.array([1.5, -0.5])
        target = Target.gaussian(c, np.zeros(2))
        n = 20000
        report = check_marginal_equivalence(target, [0.5, 2.0], n, seed=6)
        assert report.passed
        assert report.n == n
        assert report.s_points == (0.5, 2.0)

    def test_low_rank_three_precisions(self):
        report = check_marginal_equivalence(
            Target.low_rank(10, 8), [0.25, 1.0, 4.0], 20000, seed=1
        )
        assert isinstance(report, EquivalenceReport)
        assert len(report.records) == 18  # 3 s × 3 pairs × 2 statistics
        assert report.passed, report.worst()
        assert report.worst().observed <= 4.0
        names = {r.name for r in report.records}
        assert any("sl-vs-rf" in name for name in names)
        assert any(":var" in name for name in names)

    def test_rejects_bad_inputs(self):
        target = Target.gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError):
            check_marginal_equivalence(target, [1.0], 1, seed=0)
        with pytest.raises(DomainError):
            check_marginal_equivalence(target, [-1.0], 100, seed=0)


def _old_moment_stats(x):
    """Reference moments with ``**`` powers: one ``pow`` per element for the fourth."""
    mean = x.mean(axis=0)
    centered = x - mean
    var = np.sum(centered**2, axis=0) / (x.shape[0] - 1)
    fourth = np.mean(centered**4, axis=0)
    return mean, var, fourth


def _whole_array_moments(x):
    """Reference moments over whole arrays, the fourth as the mean of the
    squared squares."""
    mean = x.mean(axis=0)
    centered = x - mean
    squared = centered * centered
    return mean, np.sum(squared, axis=0) / (x.shape[0] - 1), np.mean(squared * squared, axis=0)


def _heavy_tailed(n, d, seed):
    rng = np.random.default_rng(seed)
    return 1.5 + 3.0 * rng.standard_t(5, size=(n, d))


def _exact_fourth(x):
    wide = x.astype(np.longdouble)
    centered = wide - wide.mean(axis=0)
    return np.mean(centered**4, axis=0)


class TestMomentStats:
    @pytest.mark.parametrize("shape", [(20000, 10), (2000, 10), (7, 3), (2, 1)])
    def test_mean_and_variance_bitwise_unchanged(self, shape):
        x = _heavy_tailed(*shape, seed=4)
        mean, var, _ = _moment_stats(x)
        old_mean, old_var, _ = _old_moment_stats(x)
        assert np.array_equal(mean, old_mean)
        assert np.array_equal(var, old_var)

    @pytest.mark.parametrize("divisor", [1.0, 0.7, math.sqrt(0.8)])
    @pytest.mark.parametrize("rows", ["below-one-block", "one-row-over", "not-a-multiple"])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_row_blocks_keep_the_whole_array_bits(self, d, rows, divisor):
        block = _block_rows(d * 8)
        n = {"below-one-block": 37, "one-row-over": block + 1}.get(rows, 2 * block + 123)
        x = _heavy_tailed(n, d, seed=d)
        got = _moment_stats(x, divisor)
        rescaled = x / divisor
        for value, want in zip(got, _whole_array_moments(rescaled)):
            assert _same_bits(value, want)
        for value, want in zip(got[:2], _old_moment_stats(rescaled)):
            assert _same_bits(value, want)
        assert _same_bits(got[1], rescaled.var(axis=0, ddof=1))

    def test_a_column_of_negative_zeros_sums_as_numpy_does(self):
        x = _heavy_tailed(_block_rows(3 * 8) + 5, 3, seed=1)
        x[:, 1] = -0.0
        mean, var, fourth = _moment_stats(x)
        for value, want in zip((mean, var, fourth), _whole_array_moments(x)):
            assert _same_bits(value, want)

    # At the suite's n = 20000 the row-by-row accumulation of an axis-0 mean,
    # not the per-element product, sets the error: both forms reach 1.2e-14.
    @pytest.mark.parametrize("n, tolerance", [(2000, 1e-14), (20000, 5e-14)])
    @pytest.mark.parametrize("seed", range(3))
    def test_fourth_moment_matches_extended_precision(self, n, tolerance, seed):
        x = _heavy_tailed(n, 10, seed)
        exact = _exact_fourth(x)
        rel = np.abs((_moment_stats(x)[2] - exact) / exact)
        assert np.max(rel) <= tolerance

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_fourth_moment_no_less_accurate_than_pow(self, n):
        # (c*c)*(c*c) rounds three times where pow rounds once, so per column
        # it can lose a few ulps to the old form; it must lose no more.
        eps = np.finfo(np.float64).eps
        for seed in range(5):
            x = _heavy_tailed(n, 10, seed)
            exact = _exact_fourth(x)
            new = np.abs((_moment_stats(x)[2] - exact) / exact)
            old = np.abs((_old_moment_stats(x)[2] - exact) / exact)
            assert np.all(new <= old + 4 * eps)


# --- forward simulators against the zero-start reference ---------------------


def _zero_start_brownian(clocks, n, d, seed):
    """Reference Brownian path: a zero start plus one fresh draw per increment."""
    gaps = np.diff(clocks, prepend=0.0)
    out = np.empty((clocks.size, n, d))
    level = np.zeros((n, d))
    for k, gap in enumerate(gaps):
        level = level + math.sqrt(gap) * substream(seed, STEP_NOISE, k).standard_normal(
            (n, d)
        )
        out[k] = level
    return out


def _reference_forward(kind, x1, clock, seed):
    """Reference states: stacked Brownian values, then one broadcast expression."""
    clock = np.asarray(clock, dtype=np.float64)
    n, d = x1.shape
    if kind == "sl":
        return clock[:, None, None] * x1[None] + _zero_start_brownian(clock, n, d, seed)
    if kind == "rf-linear":
        back_clock = ((1.0 - clock) / clock) ** 2
        noise = _zero_start_brownian(back_clock[::-1], n, d, seed)[::-1]
        return clock[:, None, None] * (x1[None] + noise)
    omega = np.exp(-2.0 * clock)
    noise = _zero_start_brownian((1.0 - omega) / omega, n, d, seed)
    return np.sqrt(omega)[:, None, None] * (x1[None] + noise)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_ZERO_VARIANCE = Target.gaussian(
    np.array([1.5, -0.5, 0.0, 2.0]), np.array([0.3, 0.0, 0.0, 4.0])
)
_MIXTURE = Target(
    weights=np.array([0.4, 0.6]),
    means=np.array([[2.0, -1.0, 0.0, 1.0], [-2.0, 1.0, 0.5, 0.0]]),
    variances=np.array([[1.0, 0.5, 0.0, 0.0], [0.3, 1.0, 0.7, 0.0]]),
)
_CLOCKS = {
    "sl": ([0.5], [0.5, 1.0, 3.0]),
    "rf-linear": ([0.4], [0.2, 0.5, 0.9]),
    "ddpm-forward": ([0.3], [0.1, 0.4, 1.2]),
}
_BLOCKS_N = 16385  # one row past a d = 4 block; three blocks at d = 10


@pytest.fixture
def increment_draws(monkeypatch):
    """Records the thread of every draw from a step-noise stream, and every
    thread started, with free cores plenty; yields both lists."""
    monkeypatch.setattr(flowgrid.rng, "_free_cores", lambda: 64)
    real = flowgrid.localization.substream
    draws, started = [], []

    class Recording:
        def __init__(self, generator):
            self._generator = generator

        def standard_normal(self, *args, **kwargs):
            draws.append(threading.current_thread())
            return self._generator.standard_normal(*args, **kwargs)

    def recording(seed, *path):
        generator = real(seed, *path)
        return Recording(generator) if path[:1] == (STEP_NOISE,) else generator

    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(flowgrid.localization, "substream", recording)
    monkeypatch.setattr(threading.Thread, "start", start)
    return draws, started


def _row_blocks(n, d):
    return -(-n // _block_rows(d * 8))


class TestForwardBitwise:
    @pytest.mark.parametrize("n", [37, _BLOCKS_N], ids=["one-block", "row-blocks"])
    @pytest.mark.parametrize(
        "target",
        [Target.low_rank(10, 8), _ZERO_VARIANCE, _MIXTURE],
        ids=["low-rank", "zero-variance", "mixture"],
    )
    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("kind", ["sl", "rf-linear", "ddpm-forward"])
    def test_states_equal_the_zero_start_reference(
        self, kind, points, target, n, increment_draws, gathered_sample
    ):
        clock = _CLOCKS[kind][points == 3]
        path = simulate_forward(kind, target, clock, n, seed=21)
        want = _reference_forward(kind, gathered_sample(target, n, 21), clock, 21)
        assert _same_bits(path.states, want)
        # every increment is drawn on the caller's thread, one row block at a time
        draws, started = increment_draws
        assert len(draws) == points * _row_blocks(n, target.dim)
        assert all(t is threading.main_thread() for t in draws)
        assert started == []

    def test_no_thread_starts(self, increment_draws):
        before = threading.active_count()
        simulate_forward("sl", _ZERO_VARIANCE, [0.5, 1.0], _BLOCKS_N, seed=2)
        draws, started = increment_draws
        assert threading.active_count() == before
        assert started == []
        assert len(draws) == 2 * _row_blocks(_BLOCKS_N, 4)
        assert all(t is threading.main_thread() for t in draws)

    @pytest.mark.parametrize("n", [37, _BLOCKS_N], ids=["one-block", "row-blocks"])
    def test_a_non_finite_state_raises(self, n):
        huge = Target.gaussian(np.full(4, 1e308), np.ones(4))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="forward process sl"):
            simulate_forward("sl", huge, [4.0], n, seed=0)


# --- the equivalence check's job pool -----------------------------------------


def _record_tuples(report):
    return [(r.name, repr(r.observed), r.tolerance) for r in report.records]


@pytest.fixture
def forward_calls(monkeypatch):
    """Records the thread of every ``simulate_forward`` call."""
    real = flowgrid.localization.simulate_forward
    calls = []

    def recording(kind, *args, **kwargs):
        calls.append(threading.current_thread())
        return real(kind, *args, **kwargs)

    monkeypatch.setattr(flowgrid.localization, "simulate_forward", recording)
    return calls


def _set_free_cores(monkeypatch, free):
    monkeypatch.setattr(flowgrid.rng, "_free_cores", lambda: free)


class TestEquivalencePool:
    def _report(self):
        return check_marginal_equivalence(
            Target.low_rank(6, 4), [0.25, 1.0, 4.0], 2000, seed=9
        )

    @pytest.mark.parametrize(
        "free, workers", [(-3, 1), (0, 1), (1, 2), (7, 8), (20, 9)]
    )
    def test_pool_takes_only_free_cores(self, monkeypatch, free, workers):
        real = flowgrid.localization.ThreadPoolExecutor
        sizes = []

        def recording(max_workers, **kwargs):
            sizes.append(max_workers)
            return real(max_workers, **kwargs)

        monkeypatch.setattr(flowgrid.localization, "ThreadPoolExecutor", recording)
        _set_free_cores(monkeypatch, free)
        self._report()
        assert sizes == [workers]

    def test_records_equal_with_one_and_many_workers(self, monkeypatch, forward_calls):
        before = threading.active_count()
        _set_free_cores(monkeypatch, 0)
        single = _record_tuples(self._report())
        assert len(forward_calls) == 9
        assert len(set(forward_calls)) == 1
        assert forward_calls[0] is not threading.main_thread()
        assert not forward_calls[0].is_alive()
        _set_free_cores(monkeypatch, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert _record_tuples(self._report()) == single
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert threading.main_thread() not in forward_calls
        assert not any(t.is_alive() for t in forward_calls)

    def test_nonfinite_state_in_one_job_propagates(self, monkeypatch):
        real = flowgrid.localization.simulate_forward
        threads = []

        def failing(kind, target, clock, n, seed):
            threads.append(threading.current_thread())
            if kind is ProcessKind.RF_LINEAR and clock[0] == rf_time_from_sl(1.0):
                raise NonFiniteState("forward process rf-linear: non-finite states")
            return real(kind, target, clock, n, seed)

        monkeypatch.setattr(flowgrid.localization, "simulate_forward", failing)
        before = threading.active_count()
        with pytest.raises(NonFiniteState, match="rf-linear"):
            self._report()
        assert threading.active_count() == before
        assert threading.main_thread() not in threads
        assert not any(t.is_alive() for t in threads)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_clock_raises_before_any_simulation(self, forward_calls, bad):
        target = Target.low_rank(6, 4)
        with pytest.raises(DomainError, match="precision clock"):
            check_marginal_equivalence(target, [1.0, 4.0, bad], 2000, seed=0)
        assert forward_calls == []


# --- covariance evolution -----------------------------------------------------


class TestCovarianceOde:
    def test_quadrature_reproduces_the_gaussian_closed_form(self):
        for v in (0.5, 1.0, 2.0):
            target = Target.gaussian(np.zeros(1), np.array([v]))
            for t in (0.1, 0.5, 0.9):
                first, second = expected_posterior_variance_moments(target, t)
                want = gaussian_posterior_var(t, v)
                assert first == pytest.approx(want, rel=1e-12)
                assert second == pytest.approx(want * want, rel=1e-12)

    def test_residual_against_the_quotient_rule_oracle(self):
        grid = np.linspace(0.05, 0.95, 20)
        for v in (0.5, 1.0, 2.0):
            target = Target.gaussian(np.array([0.3]), np.array([v]))
            for t in grid:
                slope = gaussian_posterior_var_slope(t, v)
                rate = 2.0 * t / (1.0 - t) ** 3
                sigma = gaussian_posterior_var(t, v)
                # the evolution law itself, on the closed form
                assert slope == pytest.approx(-rate * sigma * sigma, rel=1e-12)
            assert covariance_ode_residual(target, grid) < 1e-6

    def test_symmetric_point_slope_is_minus_two(self):
        assert gaussian_posterior_var_slope(0.5, 1.0) == pytest.approx(-2.0, abs=1e-15)
        assert gaussian_posterior_var(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
        target = Target.gaussian(np.zeros(1), np.ones(1))
        up, _ = expected_posterior_variance_moments(target, 0.5 + 1e-5)
        dn, _ = expected_posterior_variance_moments(target, 0.5 - 1e-5)
        assert (up - dn) / 2e-5 == pytest.approx(-2.0, abs=1e-6)

    def test_point_mass_residual_is_zero(self):
        target = Target.gaussian(np.array([2.0]), np.zeros(1))
        assert covariance_ode_residual(target, np.linspace(0.1, 0.9, 9)) == 0.0

    def test_mixture_moments_match_the_trapezoid_oracle(self):
        weights = np.array([0.5, 0.5])
        means = np.array([-2.0, 2.0])
        variances = np.array([1.0, 1.0])
        target = Target(
            weights=weights, means=means[:, None], variances=variances[:, None]
        )
        for t in (0.2, 0.5, 0.8):
            first, second = expected_posterior_variance_moments(target, t)
            ref_first, ref_second = trapezoid_variance_moments(
                weights, means, variances, t
            )
            assert first == pytest.approx(ref_first, rel=1e-8)
            assert second == pytest.approx(ref_second, rel=1e-8)

    def test_mixture_residual_within_tolerance(self):
        target = Target(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-2.0], [2.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        grid = np.linspace(0.05, 0.95, 20)
        assert covariance_ode_residual(target, grid) < 1e-4

    def test_uneven_mixture_also_satisfies_the_law(self):
        target = Target(
            weights=np.array([0.3, 0.7]),
            means=np.array([[-1.0], [3.0]]),
            variances=np.array([[0.5], [2.0]]),
        )
        assert covariance_ode_residual(target, np.linspace(0.1, 0.9, 9)) < 1e-4

    @pytest.mark.parametrize("n_nodes", [3, 5, 21, 201])
    def test_the_numpy_hermite_rule_matches_scipys(self, n_nodes):
        from scipy.special import roots_hermitenorm

        nodes, weights = flowgrid.localization._hermite_rule(n_nodes)
        want_nodes, want_weights = roots_hermitenorm(n_nodes)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(
            weights, want_weights / math.sqrt(2.0 * math.pi), rtol=1e-12, atol=0.0
        )

    def test_the_covariance_records_pass_on_the_numpy_rule(self):
        for seed in range(5):
            failures = [r for r in covariance_checks(seed) if not r.passed]
            assert not failures, (seed, failures)

    def test_the_fixed_step_sets_the_grid_edge(self):
        # central differences with step 1e-5 need t ± 1e-5 inside (0, 1)
        one_d = Target.gaussian(np.zeros(1), np.ones(1))
        assert covariance_ode_residual(one_d, [2e-5, 1.0 - 2e-5]) < 1e-4
        for t in (1e-5, 1.0 - 1e-5):
            with pytest.raises(DomainError, match="step 1e-05 leaves"):
                covariance_ode_residual(one_d, [t])

    def test_moments_domain_errors(self):
        two_d = Target.gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError, match="1-D"):
            expected_posterior_variance_moments(two_d, 0.5)
        one_d = Target.gaussian(np.zeros(1), np.ones(1))
        for bad in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError, match=r"\(0, 1\)"):
                expected_posterior_variance_moments(one_d, bad)

    def test_domain_errors(self):
        two_d = Target.gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError, match="1-D"):
            covariance_ode_residual(two_d, [0.5])
        one_d = Target.gaussian(np.zeros(1), np.ones(1))
        with pytest.raises(DomainError, match="leaves"):
            covariance_ode_residual(one_d, [1e-6])


# --- bundled suites -----------------------------------------------------------


class TestSuites:
    def test_equivalence_suite_passes(self):
        records = equivalence_checks(0)
        assert len(records) >= 40
        names = [r.name for r in records]
        assert len(names) == len(set(names))
        failures = [r for r in records if not r.passed]
        assert not failures, failures

    def test_covariance_suite_passes(self):
        records = covariance_checks(0)
        assert len(records) == 5
        assert all(r.passed for r in records)

    def test_runner_dispatch(self):
        from flowgrid.checks import run_suite

        assert all(r.passed for r in run_suite("covariance", seed=3))
