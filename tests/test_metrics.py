"""TV estimator and oracle tests.

The oracle is cross-checked against closed forms derived here from scratch
(Gaussian CDF differences at the density crossing points), against values
pinned from an independent numerical integration, and against the
Hellinger bracket; the classifier estimator is calibrated against the
oracle on 1-D pairs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgrid.batch
import flowgrid.metrics
from flowgrid.batch import BatchMeta, SampleBatch, _to_float32
from flowgrid.errors import DomainError
from flowgrid.metrics import (
    _ITERATIONS,
    _L2_WEIGHT,
    _STEP_SIZE,
    TvEstimate,
    _expit,
    _fit,
    _gather,
    _readable,
    _standardize,
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

    @pytest.mark.parametrize("v", [0.05, 0.0500004])  # 1/v and 1/v' round together at the second
    def test_variances_one_ulp_apart_read_like_equal_ones(self, v):
        # the crossings' quadratic nearly vanishes; its textbook roots cancelled
        # to a crossing away from the means and read 0.49999
        tv = tv_oracle_gaussian_1d(0.0, v, 1.0, math.nextafter(v, 1.0))
        assert tv == pytest.approx(tv_mean_shift(1.0, math.sqrt(v)), abs=1e-12)

    def test_narrow_distant_laws_read_one(self):
        # far apart, each law's mass sits where the other's density underflows
        assert tv_oracle_gaussian_1d(0.0, 1e-4, 10.0, 1e-4) == 1.0
        assert tv_oracle_gaussian_1d(0.0, 1.0, 50.0, 1.0) <= 1.0

    @pytest.mark.parametrize(
        "mu1, v1, mu2, v2, expected",
        [
            (0.0, 2.0, 0.0, 5e-324, 1.0),
            (0.0, 1e-300, 0.0, 1e10, 1.0),
            (1.0, 1e200, 0.0, 1e-200, 1.0),
            (0.0, 1e-310, 0.0, 2e-310, None),
            (0.0, 1e300, 0.0, 2e300, None),
        ],
        ids=["subnormal-variance", "tiny-against-wide", "ratio-1e400", "subnormal-pair",
             "huge-pair"],
    )
    def test_variances_past_float_range_read_their_limits(self, mu1, v1, mu2, v2, expected):
        # TV is affine-invariant, so the scaled pairs read (0, 1, 0, 2)
        if expected is None:
            expected = tv_oracle_gaussian_1d(0.0, 1.0, 0.0, 2.0)
        lower, upper = gaussian_tv_bounds(mu1, v1, mu2, v2)
        for args in ((mu1, v1, mu2, v2), (mu2, v2, mu1, v1)):
            tv = tv_oracle_gaussian_1d(*args)
            assert tv == pytest.approx(expected, abs=1e-12), args
            assert lower <= tv <= upper, args

    @given(
        mu1=st.floats(-100.0, 100.0),
        v1=st.floats(1e-6, 1e4),
        mu2=st.floats(-100.0, 100.0),
        v2=st.floats(1e-6, 1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_wide_range_stays_in_the_unit_interval_and_the_bracket(self, mu1, v1, mu2, v2):
        forward = tv_oracle_gaussian_1d(mu1, v1, mu2, v2)
        backward = tv_oracle_gaussian_1d(mu2, v2, mu1, v1)
        lower, upper = gaussian_tv_bounds(mu1, v1, mu2, v2)
        assert 0.0 <= forward <= 1.0
        assert forward == pytest.approx(backward, abs=1e-14)
        assert lower - 1e-12 <= forward <= upper + 1e-12

    @pytest.mark.parametrize(
        "mu1, v1, mu2, v2, pinned",
        [
            (0.0, 1.0, 1.0, 1.0, 0.38292492254802635),
            (-0.75, 2.5, 2.0, 2.5, 0.6154953706197313),
            (0.0, 1.0, 0.0, 4.0, 0.3226745688347687),
            (1.5, 0.3, 1.5, 0.05, 0.40686343024790544),
            (0.3, 0.7, -1.1, 2.2, 0.4945206614558426),
            (-2.0, 5.0, 1.0, 0.5, 0.7553901399126237),
            (0.0, 1.0, 1e-3, 1.0, 0.00039894226377879574),
            (0.2, 1.0, 0.2, 1.001, 0.00024184981471982766),
        ],
        ids=["shift", "shift-wide", "scale", "scale-narrow", "both", "both-crossed",
             "near-equal-means", "near-equal-variances"],
    )
    def test_matches_the_pinned_integration(self, mu1, v1, mu2, v2, pinned):
        # values of ½∫|p − q| by adaptive quadrature between the crossings
        assert tv_oracle_gaussian_1d(mu1, v1, mu2, v2) == pytest.approx(pinned, abs=1e-11)

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

    def test_the_halves_of_one_pool_read_like_separate_batches(self):
        # Adjacent, reversed or apart, the halves are read where they lie
        # (test_allocation measures that): the readings agree.
        a = gaussian_rows(7, 0, 300, d=5).astype(np.float32)
        b = (gaussian_rows(7, 1, 301, d=5) + 0.3).astype(np.float32)
        pool = np.concatenate([a, b])
        for (x, y), (xa, xb) in (
            ((pool[:300], pool[300:]), (a, b)),
            ((pool[300:], pool[:300]), (b, a)),
            ((pool[:300], pool[301:]), (a, b[1:])),
        ):
            assert estimate_tv(x, y, rounds=3, seed=2) == estimate_tv(xa, xb, rounds=3, seed=2)

    @pytest.mark.parametrize(
        "kind", ["float64", "float32", "mixed", "fortran", "strided", "int", "sample-batch"]
    )
    def test_any_two_batches_read_like_adjacent_halves_of_their_float32_pool(self, kind):
        a = 4.0 * gaussian_rows(12, 0, 300, d=6)
        b = 4.0 * gaussian_rows(12, 1, 301, d=6) + 0.4
        if kind == "int":
            a, b = np.rint(a).astype(np.int64), np.rint(b).astype(np.int64)
        pool = np.concatenate([a, b]).astype(np.float32)
        want = estimate_tv(pool[:300], pool[300:], rounds=3, seed=6)
        xa, xb = {
            "float64": (a, b),
            "float32": (a.astype(np.float32), b.astype(np.float32)),
            "mixed": (a, b.astype(np.float32)),
            "fortran": (np.asfortranarray(a), np.asfortranarray(b)),
            "strided": (np.repeat(a, 2, axis=0)[::2], np.hstack([b, b])[:, :6]),
            "int": (a, b),
            "sample-batch": (SampleBatch(a, BatchMeta("rf", "uniform", "t", 0, 1.0)), b),
        }[kind]
        assert estimate_tv(xa, xb, rounds=3, seed=6) == want

    def test_only_c_contiguous_float_batches_are_read_in_place(self):
        # np.take copies a strided source whole on every call, so such a
        # batch is copied once, as C-contiguous float32
        x = gaussian_rows(13, 0, 300, d=4)
        for kept in (x, x.astype(np.float32), x[:150]):
            assert _readable(kept, "x") is kept
        for copied in (np.asfortranarray(x), x[::2], x[:, :3], np.rint(x).astype(np.int64)):
            got = _readable(copied, "x")
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert got.tobytes() == copied.astype(np.float32).tobytes()

    @pytest.mark.parametrize("which", ["batch_a", "batch_b"])
    def test_the_halves_of_one_pool_are_range_checked(self, which):
        pool = gaussian_rows(8, 0, 600, d=3).astype(np.float32)
        pool[17 if which == "batch_a" else 317, 1] = np.inf
        with pytest.raises(DomainError, match=f"{which} holds a NaN"):
            estimate_tv(pool[:300], pool[300:], rounds=1, seed=0)

    def test_the_row_block_size_leaves_the_readings_unchanged(self, monkeypatch):
        a = gaussian_rows(6, 0, 301, d=7)
        b = gaussian_rows(6, 1, 300, d=7) * 1.3
        whole = estimate_tv(a, b, rounds=3, seed=2)
        monkeypatch.setattr(flowgrid.batch, "_BLOCK_BYTES", 3 * 7 * 4)  # a row at a time
        assert estimate_tv(a, b, rounds=3, seed=2) == whole

    def test_the_group_size_leaves_the_readings_unchanged(self, monkeypatch):
        # 601 rows: 301 test rows per round, 8428 bytes at d = 7, so the
        # default budget trains all five rounds as one group
        a = gaussian_rows(6, 0, 301, d=7)
        b = gaussian_rows(6, 1, 300, d=7) * 1.3
        grouped = estimate_tv(a, b, rounds=5, seed=2)
        monkeypatch.setattr(flowgrid.metrics, "_GROUP_BYTES", 4 * 7 * 301)  # one round
        assert estimate_tv(a, b, rounds=5, seed=2) == grouped

    def test_flat_coordinates_read_like_their_absence(self):
        # zero-variance features, as on a low-rank target's flat coordinates,
        # standardize to 0 through the 1e-8 floor and leave the reading be
        a = gaussian_rows(4, 0, 1000, d=2)
        b = gaussian_rows(4, 1, 1000, d=2) + 0.5
        flat = np.zeros((1000, 2))
        flat[:, 0] = 8.0
        est = estimate_tv(np.hstack([a, flat]), np.hstack([b, flat]), rounds=3, seed=1)
        assert est.value == pytest.approx(estimate_tv(a, b, rounds=3, seed=1).value, abs=0.01)

    def test_the_final_gradient_norm_is_small_and_deterministic(self):
        a = gaussian_rows(8, 0, 1000, d=4)
        b = gaussian_rows(8, 1, 1000, d=4) + 0.5
        est = estimate_tv(a, b, rounds=3, seed=1)
        assert 0.0 < est.grad_norm < 1e-3
        assert estimate_tv(a, b, rounds=3, seed=1).grad_norm == est.grad_norm
        # the largest over the rounds
        assert est.grad_norm >= estimate_tv(a, b, rounds=1, seed=1).grad_norm
        assert TvEstimate(value=0.5, std_error=0.0, rounds=1, per_round=(0.5,)).grad_norm == 0.0

    def test_every_reading_is_a_float(self):
        # a variance-only pair: some rounds clip at 0, the others do not
        a = gaussian_rows(1, 0, 2000)
        b = 2.0 * gaussian_rows(1, 1, 2000)
        est = estimate_tv(a, b, rounds=10, seed=0)
        assert 0.0 in est.per_round and max(est.per_round) > 0.0
        assert all(type(r) is float for r in est.per_round)
        assert "np.float64" not in repr(est)

    def test_estimate_record_validation(self):
        with pytest.raises(DomainError):
            TvEstimate(value=1.2, std_error=0.0, rounds=1, per_round=(1.2,))
        with pytest.raises(DomainError):
            TvEstimate(value=0.5, std_error=-0.1, rounds=1, per_round=(0.5,))
        with pytest.raises(DomainError):
            TvEstimate(value=0.5, std_error=0.0, rounds=2, per_round=(0.5,))


def _logistic_sweep() -> np.ndarray:
    """Strided float32 inputs over |z| < 200, the overflow edges ±88.7 and
    ±104 (where e^(−z) first exceeds float32 and where the logistic rounds
    to 0 in float32), ±inf, ±0 and NaN."""
    edges = [88.72283, 88.7, 104.0, np.inf, 0.0, np.nan]
    sweep = np.arange(-200.0, 200.0, 400.0 / 550_000).astype(np.float32)
    return np.concatenate([sweep, np.float32(edges), -np.float32(edges)])


class TestExpit:
    """The probe's numpy logistic against scipy's ``expit`` as the reference."""

    def test_lies_within_4_ulp_of_scipys_expit(self):
        from scipy.special import expit

        z = _logistic_sweep()
        want = expit(z)
        with np.errstate(over="ignore"):
            got = _expit(z.copy())
        assert got.dtype == np.float32
        assert np.array_equal(np.isnan(got), np.isnan(z))
        gap = np.abs(got.view(np.int32).astype(np.int64) - want.view(np.int32).astype(np.int64))
        assert gap[~np.isnan(z)].max() <= 4
        # the saturated tails are exact: 0 below the overflow edge, 1 far above
        assert got[z <= -104.0].tobytes() == np.zeros(np.sum(z <= -104.0), np.float32).tobytes()
        assert np.all(got[z >= 20.0] == 1.0)

    @pytest.mark.parametrize("offset", [1, 3, 7])
    def test_gives_the_same_bits_at_any_offset(self, offset):
        # the lockstep probe relies on it: a round's residual row starts
        # wherever its group places it
        z = _logistic_sweep()
        shifted = np.empty(z.size + offset, np.float32)[offset:]
        shifted[:] = z
        with np.errstate(over="ignore"):
            assert _expit(shifted).tobytes() == _expit(z.copy()).tobytes()

    def test_a_probe_driven_past_the_overflow_edge_raises_no_warning(self):
        # equal rows, all labeled 0: the first step takes each weight to
        # -0.05·c and b to -0.05, so every z of the second step is -0.05·c²·d
        # - 0.05, about -100
        c = np.float32(math.sqrt(1999.0 / 2))
        x = np.full((1, 2, 300), c, dtype=np.float32)
        z = x[0, :, 0] @ (-0.05 * x[0, :, 0]) - 0.05
        assert -101.0 < z < -99.0
        weights, bias, norms = _fit(x, np.zeros((1, 300), dtype=np.float32))
        assert np.all(np.isfinite(weights)) and np.isfinite(bias[0]) and np.isfinite(norms[0])


def _fit_alone(x, y):
    """One round's probe through the 1-D products ``x.T @ w`` and ``x @ r``:
    the plain loop that the stacked one must reproduce."""
    m, step = np.float32(x.shape[1]), np.float32(_STEP_SIZE)
    weights, bias = np.zeros(x.shape[0], dtype=np.float32), np.float32(0.0)
    for _ in range(_ITERATIONS):
        residual = _expit(x.T @ weights + bias) - y
        grad = (x @ residual) / m + np.float32(_L2_WEIGHT) * weights
        weights -= grad * step
        bias -= step * (np.add.reduce(residual) / m)
    return weights, bias


class TestLockstepRounds:
    """A group of probe rounds trains each round to the bits it gets alone."""

    @pytest.mark.parametrize("d", [1, 10, 50])
    @pytest.mark.parametrize("n", [401, 4000])
    def test_a_group_trains_each_round_as_it_would_alone(self, d, n):
        half, width = n // 2, n - n // 2
        # feature-major rows with one spare test column when n is odd, as in the probe
        rows = gaussian_rows(n, d, 3 * d * width).astype(np.float32).reshape(3, d, width)
        x = rows[:, :, :half]
        y = (gaussian_rows(n, d + 1, 3 * half) > 0.3).astype(np.float32).reshape(3, half)
        weights, bias, norms = _fit(x, y)
        for r in range(3):
            alone = _fit(x[r : r + 1], y[r : r + 1])
            plain_w, plain_b = _fit_alone(x[r], y[r])
            assert weights[r].tobytes() == alone[0][0].tobytes() == plain_w.tobytes()
            assert bias[r].tobytes() == alone[1][0].tobytes() == plain_b.tobytes()
            assert norms[r] == alone[2][0]


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


def _splits(m: int, block_rows: int) -> set[int]:
    """Rows of ``m`` at which to split the gather's sources: at the end (every
    row in the first source), on a block boundary and mid-block."""
    boundary = block_rows * max(1, m // (2 * block_rows))
    return {m, min(boundary, m), min(boundary + block_rows // 2, m)}


def _block_std(x: np.ndarray, block_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``x`` in a shuffled order, gathered feature-major from ``x``
    split in two through a block of ``block_rows`` rows and standardized as
    the probe does: the (d, m) standardized rows and the (d,) divisors."""
    m, d = x.shape
    index = substream(m, d).permutation(np.arange(m, dtype=np.int32))
    block = np.empty((min(block_rows, m), d), dtype=np.float32)
    out = np.empty((1, d, m), dtype=np.float32)
    for split in _splits(m, block.shape[0]):
        out[0] = np.nan
        _gather(x[:split], x[split:], index, out[0], block)
        assert out[0].tobytes() == x[index].T.tobytes()  # a plain transposed copy
    _, scale = _standardize(out)
    return out[0], scale[0, :, 0]


class TestColumnStd:
    """The probe's feature-major rows, gathered through the row block, are
    centred and divided by their standard deviation plus 1e-8, to within
    float32 rounding of the float64 values, whatever the block size."""

    @staticmethod
    def _rows(seed, m, d):
        return (8.0 + 3.0 * gaussian_rows(seed, 0, m, d=d)).astype(np.float32)

    @staticmethod
    def _assert_standardized(x, block_rows):
        z, scale = _block_std(x, block_rows)
        index = substream(*x.shape).permutation(x.shape[0])
        wide = x[index].astype(np.float64)
        want_scale = wide.std(axis=0) + 1e-8
        np.testing.assert_allclose(scale, want_scale, rtol=1e-6, atol=0.0)
        # x - mean rounds to about an ulp of the largest |x|; the divisor scales it
        eps = float(np.finfo(np.float32).eps)
        tol = 8.0 * eps * np.abs(wide).max(axis=0) / want_scale
        assert np.all(np.abs(z.T - (wide - wide.mean(axis=0)) / want_scale) <= tol)
        return z, scale

    @pytest.mark.parametrize("m, block", [(1000, 163), (999, 7), (1001, 1000), (5, 2), (3, 1)])
    @pytest.mark.parametrize("d", [2, 3, 800])
    def test_rows_that_do_not_fill_the_last_block(self, m, block, d):
        x = self._rows(m + d, m, d)
        z, scale = self._assert_standardized(x, block)
        whole = _block_std(x, m)
        assert z.tobytes() == whole[0].tobytes() and scale.tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("block", [1, 16, 200])
    def test_constant_and_zero_variance_columns(self, block):
        x = self._rows(1, 1000, 12)
        x[:, 0] = 8.0  # a flat coordinate, as on a uniform-grid cell
        x[:, 5] = 0.0
        x[:, 7] = -1e-30
        x[::2, 9] = 3.0
        x[1::2, 9] = -3.0
        z, scale = self._assert_standardized(x, block)
        # flat features standardize to 0 through the 1e-8 floor
        assert scale[0] == scale[5] == scale[7] == np.float32(1e-8)
        assert not z[[0, 5, 7]].any()
        assert set(np.abs(z[9]).tolist()) == {1.0}  # 3 + 1e-8 rounds to 3 in float32

    @pytest.mark.parametrize("d", [2, 50, 800])
    def test_the_probes_smallest_training_half(self, d):
        # 200 samples per batch: the training half of the 400 pooled rows
        x = self._rows(d, 200, d)
        z, scale = self._assert_standardized(x, 200)
        for block in (1, 13, 81):
            got = _block_std(x, block)
            assert got[0].tobytes() == z.tobytes() and got[1].tobytes() == scale.tobytes()

    def test_wide_spread_columns(self):
        x = self._rows(7, 2000, 40) * np.logspace(-15, 15, 40, dtype=np.float32)
        self._assert_standardized(x, 81)

    def test_a_single_column(self):
        x = self._rows(3, 5000, 1)
        self._assert_standardized(x, 64)

    @pytest.mark.parametrize("kind", ["float64", "fortran", "mixed", "int"])
    @pytest.mark.parametrize("m, block_rows", [(1000, 163), (5, 2)])
    def test_sources_of_any_dtype_and_layout_gather_their_float32_cast(
        self, kind, m, block_rows
    ):
        wide = 8.0 + 3.0 * gaussian_rows(m, 1, m, d=5)
        if kind == "int":
            # 2**60 + 3·2**36 - 1 rounds down cast straight to float32, but up
            # cast through float64
            wide = np.full((m, 5), 2**60 + 3 * 2**36 - 1, dtype=np.int64)
            wide[:, 1:] = np.rint(1e6 * gaussian_rows(m, 2, m, d=4))
        index = substream(m, 7).permutation(np.arange(m, dtype=np.int32))
        out = np.empty((5, m), dtype=np.float32)
        for split in _splits(m, block_rows):
            xa, xb = wide[:split], wide[split:]
            if kind == "fortran":
                xa, xb = np.asfortranarray(xa), np.asfortranarray(xb)
            elif kind == "mixed":
                xb = xb.astype(np.float32)
            want = np.concatenate([xa, xb])[index].T.astype(np.float32)
            # as estimate_tv reads them: the block takes xa's dtype
            xa, xb = _readable(xa, "xa"), _readable(xb, "xb")
            out[:] = np.nan
            _gather(xa, xb, index, out, np.empty((block_rows, 5), dtype=xa.dtype))
            assert out.tobytes() == want.tobytes()
