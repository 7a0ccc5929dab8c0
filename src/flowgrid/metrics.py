"""Two-sample total-variation estimation and its 1-D Gaussian oracle.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from .batch import SampleBatch
from .errors import DomainError
from .rng import substream

__all__ = ["TvEstimate", "estimate_tv", "tv_oracle_gaussian_1d", "moment_stats"]

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

    Raises :class:`~flowgrid.errors.DomainError` when dimensions differ or
    either batch has fewer than 200 samples.
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
    if rounds < 1:
        raise DomainError("need at least one round")

    pooled = np.concatenate([xa, xb]).astype(np.float32)
    labels = np.concatenate(
        [np.zeros(xa.shape[0], dtype=np.int8), np.ones(xb.shape[0], dtype=np.int8)]
    )
    n = pooled.shape[0]
    half = n // 2

    readings = []
    for r in range(rounds):
        rng = substream(seed, TV_ROUND_STREAM, r)
        order = rng.permutation(n)
        train, test = order[:half], order[half:]
        x_train, y_train = pooled[train], labels[train]
        x_test, y_test = pooled[test], labels[test]

        center = x_train.mean(axis=0)
        scale = x_train.std(axis=0) + np.float32(1e-8)
        x_train = (x_train - center) / scale
        x_test = (x_test - center) / scale

        weights = np.zeros(pooled.shape[1], dtype=np.float32)
        bias = np.float32(0.0)
        y_float = y_train.astype(np.float32)
        m = np.float32(x_train.shape[0])
        for _ in range(_ITERATIONS):
            residual = expit(x_train @ weights + bias) - y_float
            grad_w = x_train.T @ residual / m + np.float32(_L2_WEIGHT) * weights
            grad_b = residual.mean()
            weights -= np.float32(_STEP_SIZE) * grad_w
            bias -= np.float32(_STEP_SIZE) * grad_b

        pred = (x_test @ weights + bias > 0.0).astype(np.int8)
        readings.append(max(0.0, 2.0 * _balanced_accuracy(pred, y_test) - 1.0))

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

    cuts = _density_crossings(mu1, v1, mu2, v2)
    edges = [-math.inf, *cuts, math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, _ = quad(gap, lo, hi, epsabs=1e-12, limit=200)
        total += piece
    return 0.5 * total


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
