"""Two-sample total-variation estimation, its 1-D Gaussian oracle, and
closed-form TV bounds for diagonal Gaussians.

The estimator is deliberately plain: a linear logistic probe trained by
full-batch gradient descent on a random 50/50 split of the pooled, labeled
data, repeated over independent rounds.  Balanced test accuracy ``acc``
converts to a per-round TV reading ``max(0, 2·acc − 1)`` — a classifier
that cannot separate the batches gives ≈ 0, a perfect one gives 1.  Linear
probes are a *lower-bound-style* reading of TV: they see mean shifts and
scale differences along some direction, not arbitrary density differences,
and the acceptance tests calibrate the resulting band against
:func:`tv_oracle_gaussian_1d` rather than assuming exactness.

Hyperparameters are fixed (500 iterations, step 0.1, L2 weight 1e−4,
training-split standardization) so that estimates are deterministic given
(batches, rounds, seed).

:func:`gaussian_tv_bounds` brackets TV between diagonal Gaussians through
the Hellinger distance, with numpy alone.  Only the 1-D oracle needs
``scipy.integrate``, which it imports on first use so that sweeps never
load it; ``expit`` comes from ``scipy.special`` at import, since the probe
calls it every iteration and a numpy stand-in is not bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .batch import SampleBatch, _block_rows
from .errors import DomainError
from .rng import substream
from .schedules import _count

__all__ = [
    "TvEstimate",
    "estimate_tv",
    "tv_oracle_gaussian_1d",
    "gaussian_tv_bounds",
    "moment_stats",
]

TV_ROUND_STREAM = 2
"""Stream role for the per-round train/test splits (0/1 are sampler roles)."""

_ITERATIONS = 500
_STEP_SIZE = 0.1
_L2_WEIGHT = 1e-4
_MIN_SAMPLES = 200


@dataclass(frozen=True)
class TvEstimate:
    """Aggregated classifier-TV reading.

    ``value`` is the mean of the per-round readings clipped to [0, 1] and
    ``std_error`` their sample standard deviation over √rounds (0 for a
    single round).
    """

    value: float
    std_error: float
    rounds: int
    per_round: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"TV value must lie in [0, 1]; got {self.value!r}")
        if self.std_error < 0.0:
            raise DomainError("standard error cannot be negative")
        if self.rounds != len(self.per_round):
            raise DomainError("rounds must match the number of per-round readings")


def _batch_data(batch: SampleBatch | np.ndarray, who: str) -> np.ndarray:
    data = batch.data if isinstance(batch, SampleBatch) else np.asarray(batch)
    if data.ndim != 2:
        raise DomainError(f"{who} must be a 2-D (n, d) batch")
    return data


def _to_float32(x: np.ndarray, who: str, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` cast to float32, into ``out`` when given, once it is checked.

    The check comes first: a NaN, an inf or a value beyond float32's finite
    range raises :class:`~flowgrid.errors.DomainError` naming ``who``
    (before the cast could turn it into inf with an overflow warning).  It
    takes one min and one max, no temporary; NaN fails both comparisons.
    A float32 ``x`` is returned as it is when there is no ``out``.
    """
    top = np.finfo(np.float32).max
    if x.size and not (x.min() >= -top and x.max() <= top):
        raise DomainError(f"{who} holds a NaN, an inf or a value beyond float32's range")
    if out is None:
        return x.astype(np.float32, copy=False)
    np.copyto(out, x, casting="same_kind")
    return out


def _column_std(x: np.ndarray, center: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """``x.std(axis=0)`` bit for bit, with no temporary the size of ``x``.

    ``x`` is a C-contiguous float32 (m, d) array and ``center`` its
    ``x.mean(axis=0)``.  numpy's ``_var`` squares ``x - mean`` into one
    (m, d) temporary and sums it along axis 0; for d > 1 that sum runs row
    after row (numpy sums pairwise only along the fast axis).  Here the rows
    go through ``squares``, a (rows + 1, d) buffer: its first row carries
    the running sum, the others take one block of squared deviations, and
    one axis-0 sum of the buffer continues the row-after-row order.  The
    division is numpy's own, by the count as an ``np.intp``.  For d = 1 the
    sum runs pairwise, and the temporary is a column: numpy does it.
    """
    m, d = x.shape
    if d == 1:
        return x.std(axis=0)
    total = np.zeros(d, dtype=x.dtype)
    block = squares.shape[0] - 1
    for start in range(0, m, block):
        rows = squares[: min(block, m - start) + 1]
        rows[0] = total
        np.subtract(x[start : start + rows.shape[0] - 1], center, out=rows[1:])
        np.square(rows[1:], out=rows[1:])
        np.add.reduce(rows, axis=0, out=total)
    np.true_divide(total, np.intp(m), out=total, casting="unsafe")
    return np.sqrt(total, out=total)


def _balanced_accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    acc = 0.0
    for cls in (0, 1):
        mask = labels == cls
        # a missing class contributes a chance-level 1/2 (possible only in
        # vanishingly small splits; keeps the reading neutral, not biased)
        acc += 0.5 * (np.mean(pred[mask] == cls) if mask.any() else 0.5)
    return acc


def estimate_tv(
    batch_a: SampleBatch | np.ndarray,
    batch_b: SampleBatch | np.ndarray,
    rounds: int = 10,
    seed: int = 0,
) -> TvEstimate:
    """Classifier two-sample estimate of TV(law(a), law(b)).

    Each round re-splits the pooled labeled data 50/50, standardizes
    features on the training half, trains the linear logistic probe by
    full-batch gradient descent, and reads ``max(0, 2·balanced accuracy − 1)``
    on the held-out half.  Rounds use independent substreams of ``seed``,
    so the estimate is reproducible and rounds could run in any order.

    In memory the probe holds the pooled batches, cast straight to one
    (n, d) float32 array with n = n_a + n_b; one (n - n//2, d) float32
    buffer that takes a round's training rows (standardized in place) and
    then its test rows; one row block of at most 512 KiB in which the
    training half's column standard deviation is summed; and vectors of
    length n//2 and d for the gradient loop.  The peak is therefore about
    1.5 times the pool's bytes whatever the number of rounds, besides the
    caller's batches: passing float32 arrays rather than float64 ones
    halves those.

    Raises :class:`~flowgrid.errors.DomainError` when dimensions differ,
    either batch has fewer than 200 samples, or a value is NaN, infinite or
    outside float32's finite range (the probe computes in float32).
    """
    xa = _batch_data(batch_a, "batch_a")
    xb = _batch_data(batch_b, "batch_b")
    if xa.shape[1] != xb.shape[1]:
        raise DomainError(
            f"dimension mismatch: batch_a has d={xa.shape[1]}, batch_b d={xb.shape[1]}"
        )
    if min(xa.shape[0], xb.shape[0]) < _MIN_SAMPLES:
        raise DomainError(
            f"need at least {_MIN_SAMPLES} samples per batch; "
            f"got {xa.shape[0]} and {xb.shape[0]}"
        )
    _count(rounds, "rounds", 1)

    na = xa.shape[0]
    n, d = na + xb.shape[0], xa.shape[1]
    pooled = np.empty((n, d), dtype=np.float32)
    _to_float32(xa, "batch_a", out=pooled[:na])
    _to_float32(xb, "batch_b", out=pooled[na:])
    labels = np.concatenate([np.zeros(na, dtype=np.int8), np.ones(n - na, dtype=np.int8)])
    half = n // 2
    m = np.float32(half)
    # One buffer holds a round's standardized training rows, then its test rows.
    rows = np.empty((n - half, d), dtype=np.float32)
    x_train = rows[:half]
    squares = np.empty((min(half, _block_rows(d * 4)) + 1, d), dtype=np.float32)
    residual = np.empty(half, dtype=np.float32)
    grad_w = np.empty(d, dtype=np.float32)
    decay = np.empty(d, dtype=np.float32)

    readings = []
    for r in range(rounds):
        rng = substream(seed, TV_ROUND_STREAM, r)
        order = rng.permutation(n)
        train, test = order[:half], order[half:]
        # mode="clip" writes straight into ``out`` (the default mode buffers
        # it); a permutation's indices are all in range, so nothing is clipped.
        np.take(pooled, train, axis=0, out=x_train, mode="clip")
        center = x_train.mean(axis=0)
        scale = _column_std(x_train, center, squares)
        scale += np.float32(1e-8)
        x_train -= center
        x_train /= scale

        weights = np.zeros(d, dtype=np.float32)
        bias = np.float32(0.0)
        y_float = labels[train].astype(np.float32)
        for _ in range(_ITERATIONS):
            # residual = expit(x·w + b) - y
            np.matmul(x_train, weights, out=residual)
            residual += bias
            expit(residual, out=residual)
            residual -= y_float
            # w -= step·(xᵀ·residual/m + λ·w);  b -= step·mean(residual)
            np.matmul(x_train.T, residual, out=grad_w)
            grad_w /= m
            grad_w += np.multiply(np.float32(_L2_WEIGHT), weights, out=decay)
            grad_w *= np.float32(_STEP_SIZE)
            weights -= grad_w
            bias -= np.float32(_STEP_SIZE) * (np.add.reduce(residual) / m)

        x_test = np.take(pooled, test, axis=0, out=rows, mode="clip")
        x_test -= center
        x_test /= scale
        pred = (x_test @ weights + bias > 0.0).astype(np.int8)
        readings.append(max(0.0, 2.0 * _balanced_accuracy(pred, labels[test]) - 1.0))

    value = float(np.clip(np.mean(readings), 0.0, 1.0))
    std_error = (
        float(np.std(readings, ddof=1) / math.sqrt(rounds)) if rounds > 1 else 0.0
    )
    return TvEstimate(
        value=value, std_error=std_error, rounds=rounds, per_round=tuple(readings)
    )


def _density_crossings(mu1: float, v1: float, mu2: float, v2: float) -> list[float]:
    """Real solutions of p(x) = q(x) for two 1-D Gaussian densities."""
    if v1 == v2:
        return [] if mu1 == mu2 else [0.5 * (mu1 + mu2)]
    # log p − log q is quadratic: a·x² + b·x + c
    a = 0.5 * (1.0 / v2 - 1.0 / v1)
    b = mu1 / v1 - mu2 / v2
    c = 0.5 * (mu2**2 / v2 - mu1**2 / v1) + 0.5 * math.log(v2 / v1)
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    root = math.sqrt(disc)
    return sorted([(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)])


def tv_oracle_gaussian_1d(mu1: float, v1: float, mu2: float, v2: float) -> float:
    """TV distance between N(mu1, v1) and N(mu2, v2), d = 1.

    Integrates ½|p − q| numerically, splitting the line at the density
    crossing points so each piece is smooth and single-signed; the absolute
    error is far below 1e−8.  Symmetric in its two arguments.
    """
    for v in (v1, v2):
        if not (np.isfinite(v) and v > 0.0):
            raise DomainError(f"variances must be positive; got {v!r}")
    if not (np.isfinite(mu1) and np.isfinite(mu2)):
        raise DomainError("means must be finite")
    if mu1 == mu2 and v1 == v2:
        return 0.0

    def gap(x: float) -> float:
        p = math.exp(-0.5 * (x - mu1) ** 2 / v1) / math.sqrt(2.0 * math.pi * v1)
        q = math.exp(-0.5 * (x - mu2) ** 2 / v2) / math.sqrt(2.0 * math.pi * v2)
        return abs(p - q)

    from scipy.integrate import quad  # on first use: keeps it out of every sweep process

    cuts = _density_crossings(mu1, v1, mu2, v2)
    edges = [-math.inf, *cuts, math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, _ = quad(gap, lo, hi, epsabs=1e-12, limit=200)
        total += piece
    return 0.5 * total


def gaussian_tv_bounds(mean_p, var_p, mean_q, var_q) -> tuple[float, float]:
    """Closed-form bounds on TV between two diagonal Gaussians.

    With the squared Hellinger distance H² = 1 − ∏ⱼ BCⱼ, where

        BCⱼ = √(2σσ′/(σ² + σ′²)) · exp(−(μ − μ′)²/(4(σ² + σ′²)))

    per coordinate, returns ``(H², H·√(2 − H²))``, which bracket TV.  The
    arguments are per-coordinate means and variances (scalars broadcast).
    Zero variances are taken as limits: two point masses give BCⱼ = 1 at
    equal means and 0 otherwise, and a point mass against a proper
    Gaussian gives 0.  Symmetric in p and q.
    """
    try:
        mp, vp, mq, vq = np.broadcast_arrays(
            *(np.asarray(a, dtype=np.float64) for a in (mean_p, var_p, mean_q, var_q))
        )
    except ValueError:
        raise DomainError("means and variances must broadcast to one shape") from None
    if not (np.all(np.isfinite(mp)) and np.all(np.isfinite(mq))):
        raise DomainError("means must be finite")
    if not (np.all(np.isfinite(vp) & (vp >= 0.0)) and np.all(np.isfinite(vq) & (vq >= 0.0))):
        raise DomainError("variances must be finite and non-negative")
    zero_p, zero_q = vp == 0.0, vq == 0.0
    proper = ~(zero_p | zero_q)
    total = np.where(proper, vp + vq, 1.0)
    gap = mp - mq
    # 2σσ′/(σ² + σ′²) = 1 − (σ − σ′)²/(σ² + σ′²): log1p keeps near-equal
    # variances accurate where 1 − BC is tiny.  The ratio is capped at 1,
    # which rounding can pass when one variance is vanishingly small; there
    # the factor underflows to 0, its limit.
    spread = np.where(proper, np.sqrt(vp) - np.sqrt(vq), 0.0)
    ratio = np.minimum(spread * spread / total, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        log_bc = 0.5 * np.log1p(-ratio) - gap * gap / (4.0 * total)
    point_match = zero_p & zero_q & (gap == 0.0)
    log_bc = np.where(proper, log_bc, np.where(point_match, 0.0, -np.inf))
    h2 = min(1.0, max(0.0, float(-np.expm1(np.sum(log_bc)))))
    return h2, math.sqrt(h2 * (2.0 - h2))


def moment_stats(batch: SampleBatch | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased per-coordinate variance of a batch."""
    data = _batch_data(batch, "batch")
    if data.shape[0] < 2:
        raise DomainError("need at least two samples for moment statistics")
    return _moment_stats(data)[:2]


def _moment_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column mean, unbiased variance and fourth central moment; the
    variance is ``x.var(axis=0, ddof=1)`` bit for bit (same sums, same order)."""
    mean = x.mean(axis=0)
    centered = x - mean
    # ``**2`` already runs as ``np.square``, but ``**4`` calls libm ``pow`` per
    # element (about ten times slower), so the fourth moment squares the square.
    squared = centered * centered
    var = np.sum(squared, axis=0) / (x.shape[0] - 1)
    fourth = np.mean(squared * squared, axis=0)
    return mean, var, fourth
