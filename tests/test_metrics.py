"""TV estimator and oracle tests.

The oracle is cross-checked against closed forms derived here from scratch
(Gaussian CDF differences at the density crossing points), and the
classifier estimator is calibrated against the oracle on 1-D pairs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgrid.batch
from flowgrid.batch import BatchMeta, SampleBatch
from flowgrid.errors import DomainError
from flowgrid.metrics import (
    TvEstimate,
    _column_std,
    _to_float32,
    estimate_tv,
    gaussian_tv_bounds,
    moment_stats,
    tv_oracle_gaussian_1d,
)
from flowgrid.rng import substream
from flowgrid.targets import Target, sample_target


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def tv_mean_shift(delta, sigma=1.0):
    """Closed form for equal variances: 2Φ(|Δ|/(2σ)) − 1."""
    return 2.0 * phi(abs(delta) / (2.0 * sigma)) - 1.0


def tv_centered_scales(v_small, v_big):
    """Closed form for equal means, v_small < v_big, via crossing points."""
    # densities cross where (1/v_small − 1/v_big)x² = log(v_big/v_small)
    x0 = math.sqrt(
        math.log(v_big / v_small) / (1.0 / v_small - 1.0 / v_big)
    )
    return 2.0 * (phi(x0 / math.sqrt(v_small)) - phi(x0 / math.sqrt(v_big)))


def gaussian_rows(seed, role, n, d=1):
    return substream(seed, role).standard_normal((n, d))


class TestTvOracle:
    def test_identical_distributions(self):
        assert tv_oracle_gaussian_1d(0.0, 1.0, 0.0, 1.0) == 0.0
        assert tv_oracle_gaussian_1d(2.5, 0.3, 2.5, 0.3) == 0.0

    def test_unit_mean_shift_anchor(self):
        value = tv_oracle_gaussian_1d(0.0, 1.0, 1.0, 1.0)
        assert value == pytest.approx(0.3829249225480262, abs=1e-9)
        assert value == pytest.approx(tv_mean_shift(1.0), abs=1e-9)

    def test_centered_scale_pair(self):
        value = tv_oracle_gaussian_1d(0.0, 1.0, 0.0, 4.0)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(tv_centered_scales(1.0, 4.0), abs=1e-9)
        assert value == pytest.approx(tv_oracle_gaussian_1d(0.0, 4.0, 0.0, 1.0), abs=1e-12)

    @given(
        mu=st.floats(-3.0, 3.0),
        v1=st.floats(0.2, 5.0),
        v2=st.floats(0.2, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_bounds(self, mu, v1, v2):
        forward = tv_oracle_gaussian_1d(0.0, v1, mu, v2)
        backward = tv_oracle_gaussian_1d(mu, v2, 0.0, v1)
        assert forward == pytest.approx(backward, abs=1e-10)
        assert 0.0 <= forward < 1.0

    def test_general_pair_matches_dense_integration(self):
        mu1, v1, mu2, v2 = 0.3, 0.7, -1.1, 2.2
        x = np.linspace(-30.0, 30.0, 2_000_001)
        p = np.exp(-0.5 * (x - mu1) ** 2 / v1) / math.sqrt(2 * math.pi * v1)
        q = np.exp(-0.5 * (x - mu2) ** 2 / v2) / math.sqrt(2 * math.pi * v2)
        brute = 0.5 * np.trapezoid(np.abs(p - q), x)
        assert tv_oracle_gaussian_1d(mu1, v1, mu2, v2) == pytest.approx(brute, abs=1e-8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            tv_oracle_gaussian_1d(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            tv_oracle_gaussian_1d(0.0, 1.0, 1.0, -2.0)
        with pytest.raises(DomainError):
            tv_oracle_gaussian_1d(math.nan, 1.0, 0.0, 1.0)


class TestEstimateTv:
    def test_null_pair_reads_near_zero(self):
        pooled = gaussian_rows(200, 0, 4000)
        est = estimate_tv(pooled[:2000], pooled[2000:], rounds=10, seed=3)
        assert est.value < 0.08

    def test_unit_mean_shift_matches_oracle(self):
        n = 5000
        a = gaussian_rows(11, 0, n)
        b = gaussian_rows(11, 1, n) + 1.0
        est = estimate_tv(a, b, rounds=10, seed=7)
        assert abs(est.value - 0.3829) < 0.06

    def test_batch_vs_shuffled_self(self):
        x = gaussian_rows(300, 0, 2000, d=3)
        shuffled = x[np.random.default_rng(1).permutation(2000)]
        assert estimate_tv(x, shuffled, rounds=10, seed=5).value < 0.05

    @pytest.mark.parametrize("oracle_tv", [0.1, 0.3829249225480262, 0.7])
    def test_calibration_band_on_mean_shifts(self, oracle_tv):
        # Δ giving the requested oracle TV, inverting 2Φ(Δ/2) − 1
        from scipy.stats import norm

        delta = 2.0 * norm.ppf((oracle_tv + 1.0) / 2.0)
        n = 5000
        a = gaussian_rows(100, 0, n)
        b = gaussian_rows(100, 1, n) + delta
        est = estimate_tv(a, b, rounds=10, seed=7)
        assert -0.10 <= est.value - oracle_tv <= 0.05

    def test_swap_symmetry_within_pooled_error(self):
        a = gaussian_rows(42, 0, 3000) + 0.5
        b = gaussian_rows(42, 1, 3000)
        ab = estimate_tv(a, b, rounds=10, seed=1)
        ba = estimate_tv(b, a, rounds=10, seed=1)
        pooled_se = math.sqrt(ab.std_error**2 + ba.std_error**2)
        assert abs(ab.value - ba.value) <= 2.0 * pooled_se

    def test_deterministic(self):
        a = gaussian_rows(9, 0, 400, d=2)
        b = gaussian_rows(9, 1, 400, d=2) + 0.3
        first = estimate_tv(a, b, rounds=4, seed=11)
        second = estimate_tv(a, b, rounds=4, seed=11)
        assert first == second
        assert first.per_round == second.per_round

    def test_estimate_structure(self):
        a = gaussian_rows(21, 0, 500)
        b = gaussian_rows(21, 1, 500) + 2.0
        est = estimate_tv(a, b, rounds=6, seed=2)
        assert est.rounds == 6 and len(est.per_round) == 6
        assert est.value == pytest.approx(
            float(np.clip(np.mean(est.per_round), 0.0, 1.0))
        )
        assert est.std_error == pytest.approx(
            float(np.std(est.per_round, ddof=1) / math.sqrt(6))
        )
        assert all(0.0 <= r <= 1.0 for r in est.per_round)

    def test_single_round_has_zero_std_error(self):
        a = gaussian_rows(5, 0, 300)
        b = gaussian_rows(5, 1, 300)
        est = estimate_tv(a, b, rounds=1, seed=0)
        assert est.std_error == 0.0 and est.rounds == 1

    def test_accepts_sample_batches(self):
        target = Target.gaussian(np.zeros(2), np.ones(2))
        a = sample_target(target, 600, seed=1)
        b = sample_target(target, 600, seed=2)
        est = estimate_tv(a, b, rounds=3, seed=4)
        assert est.value < 0.1

    def test_rejects_bad_inputs(self):
        a = gaussian_rows(1, 0, 300, d=2)
        with pytest.raises(DomainError, match="dimension mismatch"):
            estimate_tv(a, gaussian_rows(1, 1, 300, d=3), rounds=2, seed=0)
        with pytest.raises(DomainError, match="at least 200"):
            estimate_tv(a, gaussian_rows(1, 1, 150, d=2), rounds=2, seed=0)
        with pytest.raises(DomainError, match="round"):
            estimate_tv(a, gaussian_rows(1, 1, 300, d=2), rounds=0, seed=0)
        with pytest.raises(DomainError, match="rounds must be an integer"):
            estimate_tv(a, gaussian_rows(1, 1, 300, d=2), rounds=2.5, seed=0)

    def test_numpy_integer_rounds_read_like_ints(self):
        a = gaussian_rows(9, 0, 300)
        b = gaussian_rows(9, 1, 300) + 0.3
        assert estimate_tv(a, b, rounds=np.int64(2), seed=1) == estimate_tv(a, b, rounds=2, seed=1)

    @pytest.mark.filterwarnings("error")  # the check comes before the cast's overflow warning
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    @pytest.mark.parametrize("which", ["batch_a", "batch_b"])
    def test_rejects_values_float32_cannot_hold(self, bad, which):
        batches = {
            "batch_a": gaussian_rows(1, 0, 300, d=2),
            "batch_b": gaussian_rows(1, 1, 300, d=2),
        }
        batches[which][17, 1] = bad
        with pytest.raises(DomainError, match=f"{which} holds a NaN"):
            estimate_tv(batches["batch_a"], batches["batch_b"], rounds=2, seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39, -1e39])
    def test_the_float32_cast_checks_before_it_casts(self, bad):
        x = gaussian_rows(2, 0, 10, d=3)
        x[4, 2] = bad
        with pytest.raises(DomainError, match="batch_b holds a NaN"):
            _to_float32(x, "batch_b")
        with pytest.raises(DomainError, match="batch_a holds a NaN"):
            _to_float32(x, "batch_a", out=np.empty(x.shape, dtype=np.float32))

    def test_the_float32_cast_keeps_every_bit_of_numpys_cast(self):
        x = gaussian_rows(3, 0, 50, d=4) * 1e30
        assert _to_float32(x, "x").tobytes() == x.astype(np.float32).tobytes()
        out = np.empty(x.shape, dtype=np.float32)
        assert _to_float32(x, "x", out=out) is out
        assert out.tobytes() == x.astype(np.float32).tobytes()
        single = x.astype(np.float32)
        assert _to_float32(single, "x") is single

    def test_float32_batches_read_like_float64_ones(self):
        a = gaussian_rows(4, 0, 300, d=6)
        b = gaussian_rows(4, 1, 300, d=6) + 0.2
        single = estimate_tv(a.astype(np.float32), b.astype(np.float32), rounds=3, seed=5)
        assert single == estimate_tv(a, b, rounds=3, seed=5)

    def test_the_row_block_size_leaves_the_readings_unchanged(self, monkeypatch):
        a = gaussian_rows(6, 0, 301, d=7)
        b = gaussian_rows(6, 1, 300, d=7) * 1.3
        whole = estimate_tv(a, b, rounds=3, seed=2)
        monkeypatch.setattr(flowgrid.batch, "_BLOCK_BYTES", 3 * 7 * 4)  # three rows
        assert estimate_tv(a, b, rounds=3, seed=2) == whole

    def test_estimate_record_validation(self):
        with pytest.raises(DomainError):
            TvEstimate(value=1.2, std_error=0.0, rounds=1, per_round=(1.2,))
        with pytest.raises(DomainError):
            TvEstimate(value=0.5, std_error=-0.1, rounds=1, per_round=(0.5,))
        with pytest.raises(DomainError):
            TvEstimate(value=0.5, std_error=0.0, rounds=2, per_round=(0.5,))


class TestGaussianTvBounds:
    @given(
        mu=st.floats(-4.0, 4.0),
        v1=st.floats(0.05, 20.0),
        v2=st.floats(0.05, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_brackets_the_1d_oracle(self, mu, v1, v2):
        lower, upper = gaussian_tv_bounds(0.0, v1, mu, v2)
        tv = tv_oracle_gaussian_1d(0.0, v1, mu, v2)
        assert 0.0 <= lower <= upper <= 1.0
        assert lower - 1e-9 <= tv <= upper + 1e-9

    @given(
        data=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 9.0),
                      st.floats(-5.0, 5.0), st.floats(0.0, 9.0)),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_p_and_q(self, data):
        mp, vp, mq, vq = (np.array(c) for c in zip(*data))
        assert gaussian_tv_bounds(mp, vp, mq, vq) == gaussian_tv_bounds(mq, vq, mp, vp)

    def test_identical_laws_read_zero(self):
        assert gaussian_tv_bounds([0.3, -1.0], [2.0, 0.5], [0.3, -1.0], [2.0, 0.5]) == (0.0, 0.0)

    def test_zero_variance_limits(self):
        # two equal point masses, then flat coordinates next to a proper one
        assert gaussian_tv_bounds(1.5, 0.0, 1.5, 0.0) == (0.0, 0.0)
        assert gaussian_tv_bounds([0.0, 2.0], [1.0, 0.0], [0.0, 2.0], [1.0, 0.0]) == (0.0, 0.0)
        # distinct point masses, and a point mass against a proper Gaussian
        assert gaussian_tv_bounds(1.5, 0.0, 1.5 + 1e-12, 0.0) == (1.0, 1.0)
        assert gaussian_tv_bounds(0.0, 0.0, 0.0, 2.0) == (1.0, 1.0)
        assert gaussian_tv_bounds([0.0, 0.0], [1.0, 3.0], [0.0, 0.0], [1.0, 0.0]) == (1.0, 1.0)
        # a vanishing variance against a proper one: rounding must not give NaN
        assert gaussian_tv_bounds(0.0, 2.0, 0.0, 5e-324) == (1.0, 1.0)

    def test_coordinate_factors_multiply(self):
        mp, vp = np.array([0.0, 1.0, -2.0]), np.array([1.0, 0.5, 3.0])
        mq, vq = np.array([0.4, 1.0, -1.5]), np.array([2.0, 0.25, 3.0])
        affinity = 1.0
        for j in range(3):
            h2, _ = gaussian_tv_bounds(mp[j], vp[j], mq[j], vq[j])
            affinity *= 1.0 - h2
        lower, upper = gaussian_tv_bounds(mp, vp, mq, vq)
        assert lower == pytest.approx(1.0 - affinity, rel=1e-12)
        assert upper == pytest.approx(math.sqrt(lower * (2.0 - lower)), rel=1e-12)
        # the closed form, written out once for the first coordinate
        s = vp[0] + vq[0]
        bc = math.sqrt(2.0 * math.sqrt(vp[0] * vq[0]) / s)
        bc *= math.exp(-((mp[0] - mq[0]) ** 2) / (4.0 * s))
        h2, _ = gaussian_tv_bounds(mp[0], vp[0], mq[0], vq[0])
        assert h2 == pytest.approx(1.0 - bc, rel=1e-12)

    def test_reads_the_rf_pushforward_against_the_blurred_target(self):
        # rf at d = 800, N = 100, δ = 1/800 on the benchmark target: the
        # U-shaped cell sits at [0.0046, 0.096], the uniform one at [1, 1]
        from flowgrid.samplers import gaussian_pushforward
        from flowgrid.schedules import GRIDS, GridKind

        d, delta = 800, 1.0 / 800
        target = Target.low_rank(d, 8)
        blurred_mean = (1.0 - delta) * target.means[0]
        blurred_var = (1.0 - delta) ** 2 * target.variances[0] + delta**2
        readings = {}
        for kind in (GridKind.USHAPED, GridKind.UNIFORM):
            path = gaussian_pushforward(target, GRIDS[kind].build(100, delta).grid, "rf")
            readings[kind] = gaussian_tv_bounds(
                path.mean[-1], path.var_diag[-1], blurred_mean, blurred_var
            )
        lower, upper = readings[GridKind.USHAPED]
        assert round(lower, 4) == 0.0046 and round(upper, 3) == 0.096
        assert readings[GridKind.UNIFORM] == (1.0, 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError, match="non-negative"):
            gaussian_tv_bounds(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="non-negative"):
            gaussian_tv_bounds(0.0, 1.0, 0.0, math.nan)
        with pytest.raises(DomainError, match="means"):
            gaussian_tv_bounds(math.inf, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="broadcast"):
            gaussian_tv_bounds([0.0, 1.0], [1.0, 1.0, 1.0], 0.0, 1.0)


class TestMomentStats:
    def test_constant_batch(self):
        mean, var = moment_stats(np.full((5, 2), 3.0))
        np.testing.assert_array_equal(mean, [3.0, 3.0])
        np.testing.assert_array_equal(var, [0.0, 0.0])

    def test_two_point_hand_computation(self):
        mean, var = moment_stats(np.array([[0.0], [2.0]]))
        assert mean[0] == 1.0
        assert var[0] == 2.0

    def test_large_standard_normal(self):
        n = 100_000
        mean, var = moment_stats(gaussian_rows(77, 0, n, d=2))
        assert np.all(np.abs(mean) <= 4.0 / math.sqrt(n))
        assert np.all(np.abs(var - 1.0) <= 4.0 * math.sqrt(2.0 / n))

    def test_accepts_sample_batch(self):
        batch = sample_target(Target.gaussian(np.array([2.0]), np.array([0.0])), 10, 0)
        mean, var = moment_stats(batch)
        assert mean[0] == pytest.approx(2.0)
        assert var[0] == 0.0

    def test_rejects_single_sample(self):
        with pytest.raises(DomainError):
            moment_stats(np.ones((1, 3)))


def _block_std(x: np.ndarray, block_rows: int) -> np.ndarray:
    squares = np.empty((min(block_rows, x.shape[0]) + 1, x.shape[1]), dtype=np.float32)
    return _column_std(x, x.mean(axis=0), squares)


class TestColumnStd:
    """The probe's row-block column std is ``x.std(axis=0)`` bit for bit."""

    @staticmethod
    def _rows(seed, m, d):
        return (8.0 + 3.0 * gaussian_rows(seed, 0, m, d=d)).astype(np.float32)

    @pytest.mark.parametrize("m, block", [(1000, 163), (999, 7), (1001, 1000), (5, 2), (3, 1)])
    @pytest.mark.parametrize("d", [2, 3, 800])
    def test_rows_that_do_not_fill_the_last_block(self, m, block, d):
        x = self._rows(m + d, m, d)
        assert _block_std(x, block).tobytes() == x.std(axis=0).tobytes()

    @pytest.mark.parametrize("block", [1, 16, 200])
    def test_constant_and_zero_variance_columns(self, block):
        x = self._rows(1, 1000, 12)
        x[:, 0] = 8.0  # a flat coordinate, as on a uniform-grid cell
        x[:, 5] = 0.0
        x[:, 7] = -1e-30
        x[::2, 9] = 3.0
        x[1::2, 9] = -3.0
        want = x.std(axis=0)
        assert want[0] == want[5] == want[7] == 0.0
        assert _block_std(x, block).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 50, 800])
    def test_the_probes_smallest_training_half(self, d):
        # 200 samples per batch: the training half of the 400 pooled rows
        x = self._rows(d, 200, d)
        for block in (1, 13, 81, 200):
            assert _block_std(x, block).tobytes() == x.std(axis=0).tobytes()

    def test_wide_spread_columns(self):
        x = self._rows(7, 2000, 40) * np.logspace(-15, 15, 40, dtype=np.float32)
        assert _block_std(x, 81).tobytes() == x.std(axis=0).tobytes()

    def test_a_single_column(self):
        # numpy sums one column pairwise, so the helper leaves it to numpy
        x = self._rows(3, 5000, 1)
        assert _block_std(x, 64).tobytes() == x.std(axis=0).tobytes()
