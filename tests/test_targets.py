"""Target oracle tests.

The closed forms are checked against independent numerical oracles:
log-density finite differences for the score, dense 1-D quadrature for the
posterior moments, and Monte Carlo for the sampling/blur laws.  The
velocity/score exchange identities are property-tested over random mixtures.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import DomainError
from flowgrid.targets import (
    ExactOracle,
    PerturbationKind,
    PerturbationSpec,
    Target,
    affine_field,
    blur_samples,
    perturb_field,
    posterior_moments,
    sample_target,
    score,
    velocity,
)

# ---------------------------------------------------------------------------
# independent oracles


def mixture_logpdf_t(target: Target, t: float, x: np.ndarray) -> np.ndarray:
    """Brute-force log density of X_t = t·X1 + (1-t)·X0 at points x (n, d)."""
    x = np.atleast_2d(x)
    scale = t * t * target.variances + (1.0 - t) ** 2  # (m, d)
    diff = x[:, None, :] - t * target.means[None, :, :]
    comp = -0.5 * np.sum(
        diff**2 / scale + np.log(2.0 * np.pi * scale), axis=2
    )  # (n, m)
    comp += np.log(target.weights)
    top = comp.max(axis=1, keepdims=True)
    return (top + np.log(np.exp(comp - top).sum(axis=1, keepdims=True)))[:, 0]


def fd_score(target: Target, t: float, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the log density."""
    x = np.atleast_2d(x)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        out[:, j] = (mixture_logpdf_t(target, t, xp) - mixture_logpdf_t(target, t, xm)) / (
            2.0 * h
        )
    return out


def quadrature_posterior_1d(target: Target, t: float, x: float):
    """Posterior mean/variance of X1 by dense numerical integration (d=1)."""
    lo = float(target.means.min() - 12.0 * np.sqrt(target.variances.max() + 1.0))
    hi = float(target.means.max() + 12.0 * np.sqrt(target.variances.max() + 1.0))
    x1 = np.linspace(lo, hi, 400_001)
    # target density (zero-variance coordinates need point masses; exclude here)
    dens = np.zeros_like(x1)
    for w, mu, v in zip(target.weights, target.means[:, 0], target.variances[:, 0]):
        dens += w * np.exp(-0.5 * (x1 - mu) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
    like = np.exp(-0.5 * (x - t * x1) ** 2 / (1.0 - t) ** 2)
    post = dens * like
    post /= np.trapezoid(post, x1)
    mean = np.trapezoid(x1 * post, x1)
    var = np.trapezoid((x1 - mean) ** 2 * post, x1)
    return mean, var


def random_mixture(rng: np.random.Generator, dim: int, m: int) -> Target:
    w = rng.uniform(0.2, 1.0, m)
    w /= w.sum()
    means = rng.normal(0.0, 3.0, (m, dim))
    variances = rng.uniform(0.0, 2.0, (m, dim))
    variances[rng.random((m, dim)) < 0.25] = 0.0  # degenerate coordinates
    return Target(weights=w, means=means, variances=variances)


# ---------------------------------------------------------------------------


class TestTargetConstruction:
    def test_low_rank_layout(self):
        t = Target.low_rank(10, 8)
        assert t.dim == 10 and t.intrinsic_dim == 8
        np.testing.assert_array_equal(t.means[0], np.full(10, 8.0))
        np.testing.assert_array_equal(t.variances[0, :8], np.ones(8))
        np.testing.assert_array_equal(t.variances[0, 8:], np.zeros(2))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Target(
                weights=np.array([0.5, 0.6]),
                means=np.zeros((2, 1)),
                variances=np.ones((2, 1)),
            )

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            Target.gaussian([0.0], [-1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            Target(
                weights=np.array([1.0]),
                means=np.zeros((1, 2)),
                variances=np.ones((1, 3)),
            )

    def test_describe(self):
        assert "d=10" in Target.low_rank(10, 8).describe()


class TestPosteriorMoments:
    def test_standard_gaussian_midpoint(self):
        # 1-D standard Gaussian, t = 1/2, x = 1: the marginal scale is 1/2,
        # so the posterior mean is (t·x)/(1/2) = 1 and the variance is
        # (1/4)/(1/2) = 1/2.
        t = Target.gaussian([0.0], [1.0])
        pm = posterior_moments(t, 0.5, np.array([1.0]))
        assert pm.mean[0] == pytest.approx(1.0, abs=1e-15)
        assert pm.var_diag[0] == pytest.approx(0.5, abs=1e-15)

    def test_point_mass_posterior_is_the_point(self):
        t = Target.gaussian([3.0], [0.0])
        pm = posterior_moments(t, 0.7, np.array([[0.1], [5.0]]))
        np.testing.assert_allclose(pm.mean, [[3.0], [3.0]])
        np.testing.assert_allclose(pm.var_diag, 0.0)

    def test_prior_limit_at_time_zero(self):
        t = Target(
            weights=np.array([0.3, 0.7]),
            means=np.array([[-1.0], [2.0]]),
            variances=np.array([[0.5], [1.5]]),
        )
        pm = posterior_moments(t, 0.0, np.array([[9.0]]))
        prior_mean = 0.3 * -1.0 + 0.7 * 2.0
        prior_second = 0.3 * (0.5 + 1.0) + 0.7 * (1.5 + 4.0)
        assert pm.mean[0, 0] == pytest.approx(prior_mean, rel=1e-12)
        assert pm.var_diag[0, 0] == pytest.approx(
            prior_second - prior_mean**2, rel=1e-12
        )

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("x", [-2.0, 0.3, 4.0])
    def test_mixture_matches_quadrature(self, t, x):
        target = Target(
            weights=np.array([0.4, 0.6]),
            means=np.array([[-2.0], [2.0]]),
            variances=np.array([[1.0], [0.25]]),
        )
        mean, var = quadrature_posterior_1d(target, t, x)
        pm = posterior_moments(target, t, np.array([x]))
        assert pm.mean[0] == pytest.approx(mean, rel=1e-6, abs=1e-8)
        assert pm.var_diag[0] == pytest.approx(var, rel=1e-5, abs=1e-8)

    def test_time_domain(self):
        tgt = Target.gaussian([0.0], [1.0])
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                posterior_moments(tgt, bad, np.array([0.0]))


class TestVelocity:
    def test_low_rank_block_example(self):
        # d=2, variance (1, 0), mean (8, 8), t=1/2, x=0:
        # live coordinate: (1-t)·8/σ² = 4/0.5 = 8; dead: 8/(1-t) = 16.
        tgt = Target.low_rank(2, 1)
        v = velocity(tgt, 0.5, np.zeros(2))
        np.testing.assert_allclose(v, [8.0, 16.0], rtol=1e-14)

    def test_time_zero_is_mean_displacement(self):
        rng = np.random.default_rng(1)
        tgt = random_mixture(rng, 4, 3)
        x = rng.normal(size=(6, 4))
        prior_mean = tgt.weights @ tgt.means
        np.testing.assert_allclose(
            velocity(tgt, 0.0, x), prior_mean - x, rtol=1e-12, atol=1e-12
        )

    def test_centered_block_form(self):
        # Zero-mean low-rank target: the field is linear with factors
        # (2t-1)/σ_t² on live coordinates and -1/(1-t) on dead ones.
        tgt = Target.gaussian(np.zeros(5), [1.0, 1.0, 1.0, 0.0, 0.0])
        t = 0.73
        x = np.random.default_rng(2).normal(size=(8, 5))
        sigma2 = t * t + (1.0 - t) ** 2
        expect = np.concatenate(
            [
                (2.0 * t - 1.0) / sigma2 * x[:, :3],
                -x[:, 3:] / (1.0 - t),
            ],
            axis=1,
        )
        np.testing.assert_allclose(velocity(tgt, t, x), expect, rtol=1e-12)

    def test_degenerate_coordinate_stays_finite_near_one(self):
        tgt = Target.low_rank(3, 1)
        v = velocity(tgt, 1.0 - 1e-12, np.array([8.0, 8.0, 8.0]))
        assert np.all(np.isfinite(v))
        # dead coordinates pull toward the support value at rate 1/(1-t)
        assert v[2] == pytest.approx(0.0, abs=1e-3)

    def test_standard_gaussian_midpoint_is_zero(self):
        tgt = Target.gaussian([0.0], [1.0])
        np.testing.assert_allclose(
            velocity(tgt, 0.5, np.array([[1.0], [-3.0]])), 0.0, atol=1e-15
        )


class TestAffineField:
    def test_velocity_is_the_affine_map_bit_for_bit(self):
        target = Target.low_rank(6, 3, var_value=0.4)
        x = np.random.default_rng(0).normal(size=(50, 6))
        for t in (0.0, 0.2, 0.5, 0.97, 0.999999):
            a, b, _, _ = affine_field(target, t)
            assert np.array_equal(velocity(target, t, x), a[0] * x + b[0])

    @pytest.mark.parametrize("t", [0.05, 0.5, 0.95])
    def test_score_coefficients_match_the_score(self, t):
        target = Target(
            weights=np.array([0.3, 0.7]),
            means=np.array([[1.0, -2.0, 0.0], [0.5, 3.0, 2.0]]),
            variances=np.array([[1.0, 0.0, 2.0], [0.2, 1.5, 0.0]]),
        )
        a, b, p, q = affine_field(target, t)
        assert all(c.shape == (2, 3) for c in (a, b, p, q))
        x = np.random.default_rng(1).normal(size=(40, 3))
        for c in range(2):
            single = Target.gaussian(target.means[c], target.variances[c])
            np.testing.assert_allclose(score(single, t, x), p[c] * x + q[c], rtol=1e-13, atol=1e-13)

    def test_time_domain(self):
        with pytest.raises(DomainError):
            affine_field(Target.low_rank(2, 1), 1.0)


class TestScore:
    def test_standard_gaussian_midpoint(self):
        # marginal variance at t=1/2 is 1/2, so s(1) = -1/(1/2) = -2.
        tgt = Target.gaussian([0.0], [1.0])
        s = score(tgt, 0.5, np.array([1.0]))
        assert s[0] == pytest.approx(-2.0, rel=1e-14)
        # agree with the finite-difference oracle
        fd = fd_score(tgt, 0.5, np.array([[1.0]]))
        assert s[0] == pytest.approx(fd[0, 0], rel=1e-8)

    @pytest.mark.parametrize("t", [0.05, 0.4, 0.85])
    def test_mixture_matches_finite_differences(self, t):
        rng = np.random.default_rng(5)
        tgt = Target(
            weights=np.array([0.3, 0.5, 0.2]),
            means=rng.normal(0.0, 2.0, (3, 3)),
            variances=rng.uniform(0.3, 1.5, (3, 3)),
        )
        x = rng.normal(0.0, 2.0, (5, 3))
        np.testing.assert_allclose(
            score(tgt, t, x), fd_score(tgt, t, x), rtol=2e-5, atol=2e-6
        )

    def test_time_zero_score_is_standard_normal(self):
        tgt = Target.low_rank(4, 2)
        x = np.random.default_rng(0).normal(size=(7, 4))
        np.testing.assert_allclose(score(tgt, 0.0, x), -x, rtol=1e-13)


class TestExchangeIdentities:
    @given(
        seed=st.integers(0, 10_000),
        t=st.floats(0.01, 0.99),
        m=st.integers(1, 3),
        dim=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_velocity_score_exchange(self, seed, t, m, dim):
        rng = np.random.default_rng(seed)
        tgt = random_mixture(rng, dim, m)
        x = rng.normal(0.0, 2.0, (3, dim))
        v = velocity(tgt, t, x)
        s = score(tgt, t, x)
        scale = 1.0 + np.abs(x)
        if t > 0:
            np.testing.assert_allclose(
                v, x / t + (1.0 - t) / t * s, atol=1e-10 * scale.max() / t
            )
        np.testing.assert_allclose(
            s, (t * v - x) / (1.0 - t), atol=1e-10 * scale.max() / (1.0 - t)
        )

    def test_posterior_mean_consistency(self):
        # velocity = (posterior_mean - x)/(1-t) for non-degenerate targets
        rng = np.random.default_rng(11)
        tgt = Target(
            weights=np.array([0.5, 0.5]),
            means=rng.normal(0.0, 2.0, (2, 3)),
            variances=rng.uniform(0.5, 1.5, (2, 3)),
        )
        t, x = 0.6, rng.normal(size=(4, 3))
        pm = posterior_moments(tgt, t, x)
        np.testing.assert_allclose(
            velocity(tgt, t, x), (pm.mean - x) / (1.0 - t), rtol=1e-10, atol=1e-12
        )


class TestPerturbations:
    def test_none_is_identity(self):
        oracle = ExactOracle(Target.low_rank(3, 2))
        assert perturb_field(oracle, PerturbationSpec()) is oracle

    def test_scale_bias_formula(self):
        tgt = Target.low_rank(3, 2)
        oracle = ExactOracle(tgt)
        m = 0.05
        pert = perturb_field(
            oracle, PerturbationSpec(kind="scale-bias", magnitude=m, seed=1)
        )
        t = 0.4
        x = np.random.default_rng(3).normal(size=(6, 3))
        np.testing.assert_allclose(
            pert.velocity(t, x), (1.0 + m) * oracle.velocity(t, x) + m, rtol=1e-14
        )
        # derived score obeys the exchange identity against the perturbed field
        np.testing.assert_allclose(
            pert.score(t, x),
            (t * pert.velocity(t, x) - x) / (1.0 - t),
            rtol=1e-14,
        )

    def test_zero_magnitude_scale_bias_matches_exact(self):
        oracle = ExactOracle(Target.low_rank(3, 2))
        pert = perturb_field(
            oracle, PerturbationSpec(kind="scale-bias", magnitude=0.0)
        )
        x = np.random.default_rng(4).normal(size=(5, 3))
        np.testing.assert_array_equal(pert.velocity(0.3, x), oracle.velocity(0.3, x))

    def test_additive_field_error_norm_is_exact(self):
        tgt = Target.low_rank(6, 4)
        oracle = ExactOracle(tgt)
        m = 0.37
        pert = perturb_field(
            oracle, PerturbationSpec(kind="additive-field", magnitude=m, seed=9)
        )
        rng = np.random.default_rng(10)
        for t in (0.1, 0.5, 0.9):
            x = t * sample_target(tgt, 200, 21).data + (1.0 - t) * rng.normal(
                size=(200, 6)
            )
            err = pert.velocity(t, x) - oracle.velocity(t, x)
            np.testing.assert_allclose(
                np.linalg.norm(err, axis=1), m, rtol=1e-12
            )

    def test_additive_field_rms_monte_carlo(self):
        # the headline property: RMS field error within 10% of the magnitude
        tgt = Target.low_rank(6, 4)
        oracle = ExactOracle(tgt)
        m = 0.25
        pert = perturb_field(
            oracle, PerturbationSpec(kind="additive-field", magnitude=m, seed=2)
        )
        t = 0.5
        rng = np.random.default_rng(1)
        x = t * sample_target(tgt, 20_000, 3).data + (1.0 - t) * rng.normal(
            size=(20_000, 6)
        )
        rms = np.sqrt(np.mean(np.sum((pert.velocity(t, x) - oracle.velocity(t, x)) ** 2, axis=1)))
        assert abs(rms - m) <= 0.1 * m

    def test_additive_field_is_seed_deterministic_and_smooth(self):
        oracle = ExactOracle(Target.low_rank(4, 2))
        spec = PerturbationSpec(kind="additive-field", magnitude=0.1, seed=5)
        a, b = perturb_field(oracle, spec), perturb_field(oracle, spec)
        x = np.random.default_rng(6).normal(size=(3, 4))
        np.testing.assert_array_equal(a.velocity(0.3, x), b.velocity(0.3, x))
        # different seed, different field
        other = perturb_field(
            oracle, PerturbationSpec(kind="additive-field", magnitude=0.1, seed=6)
        )
        assert not np.allclose(a.velocity(0.3, x), other.velocity(0.3, x))
        # continuity: small input change, small output change
        dv = a.velocity(0.3, x + 1e-9) - a.velocity(0.3, x)
        assert np.max(np.abs(dv)) < 1e-6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec(kind="wobble")


class TestSampling:
    def test_moments_single_component(self):
        tgt = Target.low_rank(10, 8)
        batch = sample_target(tgt, 40_000, seed=0)
        assert batch.data.shape == (40_000, 10)
        se = 1.0 / math.sqrt(40_000)
        np.testing.assert_allclose(batch.data.mean(axis=0), 8.0, atol=5 * se)
        np.testing.assert_array_equal(batch.data[:, 8:], 8.0)
        np.testing.assert_allclose(
            batch.data[:, :8].var(axis=0, ddof=1), 1.0, atol=6 * se * math.sqrt(2)
        )

    def test_mixture_component_frequencies(self):
        tgt = Target(
            weights=np.array([0.25, 0.75]),
            means=np.array([[-10.0], [10.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        data = sample_target(tgt, 20_000, seed=3).data
        frac_low = float(np.mean(data[:, 0] < 0.0))
        assert frac_low == pytest.approx(0.25, abs=0.02)

    def test_deterministic_in_seed(self):
        tgt = Target.low_rank(5, 3)
        a = sample_target(tgt, 100, seed=7).data
        b = sample_target(tgt, 100, seed=7).data
        c = sample_target(tgt, 100, seed=8).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "target",
        [
            Target.low_rank(10, 8),
            Target.gaussian(
                np.array([1.5, -0.0, 0.0, -2.0]), np.array([0.3, 0.0, 0.0, 4.0])
            ),
            Target(
                weights=np.array([0.4, 0.6]),
                means=np.array([[2.0, -1.0, 0.0], [-2.0, 1.0, 0.5]]),
                variances=np.array([[1.0, 0.0, 2.0], [0.3, 1.0, 0.0]]),
            ),
        ],
        ids=["low-rank", "zero-variance", "mixture"],
    )
    @pytest.mark.parametrize("n", [1, 37, 20000])
    def test_bitwise_equal_to_gathered_draw(self, target, n, gathered_sample):
        got = sample_target(target, n, seed=4).data
        want = gathered_sample(target, n, 4)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_meta_provenance(self):
        batch = sample_target(Target.low_rank(2, 1), 10, seed=1)
        assert batch.meta.sampler == "target-exact"
        assert batch.meta.terminal_time == 1.0


class TestBlur:
    def test_zero_level_is_identity(self):
        batch = sample_target(Target.low_rank(2, 1), 50, seed=0)
        assert blur_samples(batch, 0.0, seed=1) is batch

    def test_moments(self):
        tgt = Target.gaussian([0.0], [1.0])
        batch = sample_target(tgt, 60_000, seed=2)
        delta = 0.3
        blurred = blur_samples(batch, delta, seed=5)
        var = (1.0 - delta) ** 2 + delta**2
        assert blurred.data.mean() == pytest.approx(0.0, abs=5 / math.sqrt(60_000))
        assert blurred.data.var(ddof=1) == pytest.approx(var, rel=0.03)

    def test_point_mass_blur_law(self):
        tgt = Target.gaussian([4.0], [0.0])
        batch = sample_target(tgt, 50_000, seed=4)
        delta = 0.1
        blurred = blur_samples(batch, delta, seed=6)
        assert blurred.data.mean() == pytest.approx(3.6, abs=0.005)
        assert blurred.data.std(ddof=1) == pytest.approx(0.1, rel=0.03)

    def test_domain(self):
        batch = sample_target(Target.low_rank(2, 1), 10, seed=0)
        with pytest.raises(DomainError):
            blur_samples(batch, 1.0, seed=0)
        with pytest.raises(DomainError):
            blur_samples(batch, -0.2, seed=0)
