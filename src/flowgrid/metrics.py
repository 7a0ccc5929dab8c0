"""Two-sample total-variation estimation, its 1-D Gaussian oracle, and
closed-form TV bounds for diagonal Gaussians.

The estimator is deliberately plain: a linear logistic probe trained by
full-batch gradient descent on a random 50/50 split of both batches' rows,
read where they lie, repeated over independent rounds.  Balanced test
accuracy ``acc`` converts to a per-round TV reading ``max(0, 2·acc − 1)``:
a classifier that cannot separate the batches gives ≈ 0, a perfect one 1.
Linear probes are a *lower-bound-style* reading of TV: they see mean
shifts, and a difference in variance alone reads near 0 (N(0, 1) against
N(0, 4) in d = 1, n = 2000, 10 rounds, reads under 0.05 where the exact
TV is 0.323).  The acceptance tests calibrate the resulting band on mean
shifts whose exact TV, 2Φ(|Δμ|/2) − 1, sets the shift, rather than
assuming exactness; an exact TV layer and a probe that sees variance are
ROADMAP.md's open items 1–2.

Hyperparameters are fixed (500 iterations, step 0.1, L2 weight 1e−4,
training-split standardization) so that estimates are deterministic given
(batches, rounds, seed).

:func:`gaussian_tv_bounds` brackets TV between diagonal Gaussians through
the Hellinger distance, with numpy alone, and :func:`tv_oracle_gaussian_1d`
gives the exact 1-D TV through ``math.erfc``.  The module needs numpy
alone: the probe's logistic, :func:`_expit`, is four in-place float32
ufunc calls, so no flowgrid code path imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import SampleBatch, _block_rows, _check_float32
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
_GROUP_BYTES = 1 << 20
"""Byte budget of the rows of the probe rounds that train in lockstep: small-threaded
``op_s_p50`` read 0.227 s with it, 0.247 s with the 512 KiB row block (one round
at d = 50), lower in 8 of 10 rotations at seed 3 (2-vCPU x86 VM)."""


@dataclass(frozen=True)
class TvEstimate:
    """Aggregated classifier-TV reading.

    ``value`` is the mean of the per-round readings clipped to [0, 1] and
    ``std_error`` their sample standard deviation over √rounds (0 for a
    single round).  ``grad_norm``, the rounds' largest final gradient norm,
    is a convergence diagnostic.
    """

    value: float
    std_error: float
    rounds: int
    per_round: tuple[float, ...]
    grad_norm: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"TV value must lie in [0, 1]; got {self.value!r}")
        if not self.std_error >= 0.0:  # NaN fails too
            raise DomainError(f"standard error must be >= 0; got {self.std_error!r}")
        if self.rounds != len(self.per_round):
            raise DomainError("rounds must match the number of per-round readings")


def _expit(z: np.ndarray) -> np.ndarray:
    """The logistic 1/(1 + e^(−z)) of the float32 array ``z``, in place.

    Where z < −88.7, e^(−z) overflows float32 to inf and the result is
    exactly 0, as ``scipy.special.expit`` gives; the caller silences that
    overflow warning.  numpy's SIMD ``exp`` differs from libm's ``expf`` in
    the last bits, so this and scipy's ``expit`` can differ by up to 4 ulp;
    a result is the same bits at any offset of ``z`` in memory.
    """
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1
    return np.reciprocal(z, out=z)


def _batch_data(batch: SampleBatch | np.ndarray, who: str) -> np.ndarray:
    data = batch.data if isinstance(batch, SampleBatch) else np.asarray(batch)
    if data.ndim != 2:
        raise DomainError(f"{who} must be a 2-D (n, d) batch")
    return data


def _carry(rows: np.ndarray, total: np.ndarray) -> None:
    """Add the block ``rows[1:]`` to the running column sum ``total``: the
    first row takes ``total``, and one axis-0 sum of ``rows`` continues the
    row-after-row order of numpy's own axis-0 sum (C-contiguous, d > 1)."""
    rows[0] = total
    np.add.reduce(rows, axis=0, out=total)


def _readable(x: np.ndarray, who: str) -> np.ndarray:
    """``x``, range-checked, as :func:`_gather` reads it: C-contiguous float32
    and float64 rows where they lie, any other batch as one C-contiguous
    float32 copy (``np.take`` copies a strided batch whole on every call)."""
    _check_float32(x, who)
    in_place = x.dtype in (np.float32, np.float64) and x.flags.c_contiguous
    return x if in_place else x.astype(np.float32, order="C", casting="same_kind")


def _gather(
    xa: np.ndarray, xb: np.ndarray, index: np.ndarray, out: np.ndarray, block: np.ndarray
) -> None:
    """``out[:, j]`` = row ``index[j]`` of ``xa`` stacked on ``xb``, cast to
    float32, for every j: the rows go through the row block ``block``, of
    ``xa``'s dtype, and are cast as they are transposed into ``out``.  A
    block's rows of ``xb`` pass through a temporary of at most as many rows."""
    na = xa.shape[0]
    for start in range(0, index.size, block.shape[0]):
        rows = index[start : start + block.shape[0]]
        # mode="clip" writes straight into the block (the default mode buffers
        # it) and reads xa's last row for each row of xb, replaced next
        part = np.take(xa, rows, axis=0, out=block[: rows.size], mode="clip")
        in_b = np.flatnonzero(rows >= na)
        part[in_b] = np.take(xb, rows[in_b] - na, axis=0)
        out[:, start : start + rows.size] = part.T


def _fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (g, d) weights, (g,) biases and final gradient norms ‖(∇w, ∇b)‖ of
    g probes trained in lockstep on standardized, feature-major (g, d, m)
    float32 rows ``x`` with (g, m) float32 labels ``y``.  A step makes one
    batched ``matmul`` per product (numpy runs one gemv per round) and one
    call per elementwise op, and each bias sum runs along its round's row,
    so a round's weights are the same bits whatever group it trains in."""
    g, d, half = x.shape
    m, step = np.float32(half), np.float32(_STEP_SIZE)
    weights, grad_w, decay = (np.zeros((g, d), dtype=np.float32) for _ in range(3))
    bias, grad_b = np.zeros(g, dtype=np.float32), np.zeros(g, dtype=np.float32)
    residual = np.empty((g, half), dtype=np.float32)
    # the products' operands as stacks of (half, d) and (d, half) matrices and columns
    x_t, b_col = x.transpose(0, 2, 1), bias[:, None]
    w_col, r_col, g_col = weights[..., None], residual[..., None], grad_w[..., None]
    with np.errstate(over="ignore"):  # see _expit
        for _ in range(_ITERATIONS):
            # residual = expit(x·w + b) - y
            np.matmul(x_t, w_col, out=r_col)
            residual += b_col
            _expit(residual)
            residual -= y
            # w -= step·(xᵀ·residual/m + λ·w);  b -= step·mean(residual)
            np.matmul(x, r_col, out=g_col)
            grad_w /= m
            grad_w += np.multiply(np.float32(_L2_WEIGHT), weights, out=decay)
            weights -= np.multiply(grad_w, step, out=decay)
            np.add.reduce(residual, axis=1, out=grad_b)
            grad_b /= m
            bias -= step * grad_b
    return weights, bias, np.hypot(np.linalg.norm(grad_w.astype(np.float64), axis=1), grad_b)


def _balanced_accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    acc = 0.0
    for cls in (0, 1):
        mask = labels == cls
        # a missing class contributes a chance-level 1/2 (possible only in
        # vanishingly small splits; keeps the reading neutral, not biased)
        acc += 0.5 * (np.mean(pred[mask] == cls) if mask.any() else 0.5)
    return float(acc)


def _standardize(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre each feature row of the feature-major (g, d, m) float32 rows
    ``train`` in place and divide it by its standard deviation plus 1e-8;
    return the (g, d, 1) centres and divisors."""
    center = train.mean(axis=2, keepdims=True)
    train -= center
    # the standard deviation: one dot product per feature row, no temporary
    m = np.float32(train.shape[2])
    scale = np.sqrt(np.matmul(train[:, :, None], train[:, :, :, None])[:, :, 0] / m)
    scale += np.float32(1e-8)
    train /= scale
    return center, scale


def _read_rounds(
    xa: np.ndarray, xb: np.ndarray, x: np.ndarray, block: np.ndarray, rounds: range, seed: int
) -> tuple[list[float], float]:
    """The TV readings of ``rounds``, trained in lockstep in the (g, d,
    n - n//2) buffers ``x``, and their largest final gradient norm.  A row
    of ``xa`` stacked on ``xb`` is labeled 1 when it lies in ``xb``."""
    # an int32 arange shuffles to the order of permutation(n) at half its bytes
    arange = np.arange(xa.shape[0] + xb.shape[0], dtype=np.int32)
    na, half = xa.shape[0], arange.size // 2
    orders = [substream(seed, TV_ROUND_STREAM, r).permutation(arange) for r in rounds]
    for xr, order in zip(x, orders):
        _gather(xa, xb, order[:half], xr, block)
    train = x[:, :, :half]
    center, scale = _standardize(train)
    y = np.stack([order[:half] >= na for order in orders]).astype(np.float32)
    weights, bias, norms = _fit(train, y)

    for xr, order in zip(x, orders):
        _gather(xa, xb, order[half:], xr, block)
    x -= center
    x /= scale
    scores = np.matmul(x.transpose(0, 2, 1), weights[:, :, None])[:, :, 0]
    preds = (scores + bias[:, None] > 0.0).astype(np.int8)
    accuracies = [_balanced_accuracy(p, order[half:] >= na) for p, order in zip(preds, orders)]
    return [max(0.0, 2.0 * acc - 1.0) for acc in accuracies], float(norms.max())


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

    The probe reads C-contiguous float32 and float64 batches where they lie,
    casting their rows to float32 as a round gathers them; any other batch
    (another dtype, Fortran order, a strided view) is cast to a C-contiguous
    float32 copy first.  A round's rows are feature-major: one (d, n - n//2)
    float32 buffer, with n = n_a + n_b, takes its training rows,
    standardized in place, then its test rows, each gathered from both
    batches through one row block and transposed in, the block and its
    temporaries within 512 KiB.  As many rounds as have rows within
    ``_GROUP_BYTES`` (1 MiB), and at least one, train in lockstep, each to
    the bits it gets alone.  So the probe adds the group's rows, the row
    block, the rounds' splits and vectors to the batches the caller holds:
    about 0.54 times the float32 bytes of two C-contiguous batches at
    (4000, 800).

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

    xa, xb = _readable(xa, "batch_a"), _readable(xb, "batch_b")
    n, d = xa.shape[0] + xb.shape[0], xa.shape[1]
    width = n - n // 2  # a round's test rows; its training rows are n // 2
    group = min(rounds, max(1, _GROUP_BYTES // (4 * d * width)))
    rows = np.empty((group, d, width), dtype=np.float32)
    # a block of xa's rows and the rows of xb it takes, at most as many, within 512 KiB
    block = np.empty((min(width, _block_rows(d * (xa.itemsize + xb.itemsize))), d), xa.dtype)

    readings, grad_norm = [], 0.0
    for first in range(0, rounds, group):
        x = rows[: min(group, rounds - first)]
        got, norm = _read_rounds(xa, xb, x, block, range(first, first + len(x)), seed)
        readings += got
        grad_norm = max(grad_norm, norm)

    value = float(np.clip(np.mean(readings), 0.0, 1.0))
    std_error = (
        float(np.std(readings, ddof=1) / math.sqrt(rounds)) if rounds > 1 else 0.0
    )
    return TvEstimate(value, std_error, rounds, tuple(readings), grad_norm)


def _narrow_crossings(m: float, r: float) -> list[float]:
    """Where the densities of N(0, 1) and N(m, r²) cross, for 0 < r ≤ 1 and
    (m, r) ≠ (0, 1), as w = (z − m)/r: in the narrow law's units from its mean."""
    # a·w² − 2rm·w − (m² − 2·log r) = 0 with a = 1 − r² ≥ 0, whose quarter
    # discriminant is m² + K², K² = −2a·log r; for the |m| < 78 that reach
    # here no term leaves float range, whatever r
    a = (1.0 - r) * (1.0 + r)
    log_r = math.log(r)
    # r·m and ±√(m² + K²) never cancel in q, so both roots stay accurate when a is tiny
    q = r * m + math.copysign(math.hypot(m, math.sqrt(-2.0 * a * log_r)), m)
    near = (2.0 * log_r - m * m) / q
    return sorted([near] if a == 0.0 else [q / a, near])


def tv_oracle_gaussian_1d(mu1: float, v1: float, mu2: float, v2: float) -> float:
    """TV distance between N(mu1, v1) and N(mu2, v2), d = 1, in closed form.

    With Δ(x) = P(X₁ ≤ x) − P(X₂ ≤ x) and Δ(±∞) = 0, p − q keeps one sign
    between consecutive density crossings, so TV is ½·Σ|Δ(hi) − Δ(lo)| over
    those pieces.  Each Φ goes through ``math.erfc``, which keeps its
    relative precision in the far tails, so narrow, distant laws read 1.
    The crossings are found with both laws standardized by the wider one
    and then read in the narrow one's units, so no variance ratio or
    precision leaves float range, subnormal variances included.
    Symmetric in its two arguments.
    """
    for v in (v1, v2):
        if not (np.isfinite(v) and v > 0.0):
            raise DomainError(f"variances must be positive; got {v!r}")
    if not (np.isfinite(mu1) and np.isfinite(mu2)):
        raise DomainError("means must be finite")
    (v_narrow, mu_narrow), (v_wide, mu_wide) = sorted([(v1, mu1), (v2, mu2)])
    sd_narrow, sd_wide = math.sqrt(v_narrow), math.sqrt(v_wide)
    m, r = (mu_narrow - mu_wide) / sd_wide, sd_narrow / sd_wide  # r > 0: both sds are normal
    if m == 0.0 and r == 1.0:
        return 0.0
    # The set |z| < |m|/2 holds all but erfc(|m|/√8) of the wide law and at
    # most that much of the narrow one (r ≤ 1), so TV ≥ 1 − 2·erfc(|m|/√8).
    if math.erfc(abs(m) / math.sqrt(8.0)) == 0.0:
        return 1.0

    def gap(x: float) -> float:  # erfc(±inf) makes Δ(±∞) = 0 exactly
        return 0.5 * (
            math.erfc((mu1 - x) / (math.sqrt(v1) * math.sqrt(2.0)))
            - math.erfc((mu2 - x) / (math.sqrt(v2) * math.sqrt(2.0)))
        )

    crossings = (mu_narrow + sd_narrow * w for w in _narrow_crossings(m, r))
    edges = [-math.inf, *crossings, math.inf]
    return 0.5 * sum(abs(gap(hi) - gap(lo)) for lo, hi in zip(edges[:-1], edges[1:]))


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


def _moment_stats(
    x: np.ndarray, divisor: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column mean, unbiased variance and fourth central moment of
    ``y = x / divisor``, with no temporary the size of ``x``.

    The results are those of the whole-array forms bit for bit:
    ``y.mean(axis=0)``, ``y.var(axis=0, ddof=1)`` and the mean of the
    squared squares.  For a C-contiguous float64 ``x`` with d > 1 numpy sums
    along axis 0 row after row, so the rows go through one (rows + 1, d)
    buffer of at most 512 KiB: its rows after the first take one block of
    ``y``, then of its squared deviations, then of their squares, each
    summed by :func:`_carry`.  Other inputs take the whole-array forms; for
    d = 1 numpy sums the column pairwise.
    """
    n, d = x.shape
    if d == 1 or x.dtype != np.float64 or not x.flags.c_contiguous:
        y = x / divisor if divisor != 1.0 else x
        mean = y.mean(axis=0)
        centered = y - mean
        # ``**4`` calls libm ``pow`` per element (about ten times slower than
        # a product), so the fourth moment squares the square.
        squared = centered * centered
        return mean, np.sum(squared, axis=0) / (n - 1), np.mean(squared * squared, axis=0)

    rows = np.empty((min(n, _block_rows(d * 8)) + 1, d))
    step = rows.shape[0] - 1

    def rescaled_blocks():
        for start in range(0, n, step):
            part = rows[: min(step, n - start) + 1]
            np.true_divide(x[start : start + part.shape[0] - 1], divisor, out=part[1:])
            yield part

    mean, var, fourth = np.zeros(d), np.zeros(d), np.zeros(d)
    for part in rescaled_blocks():
        _carry(part, mean)
    np.true_divide(mean, np.intp(n), out=mean, casting="unsafe")
    for part in rescaled_blocks():
        deviation = part[1:]
        deviation -= mean
        np.square(deviation, out=deviation)
        _carry(part, var)
        np.square(deviation, out=deviation)
        _carry(part, fourth)
    var /= n - 1
    np.true_divide(fourth, np.intp(n), out=fourth, casting="unsafe")
    return mean, var, fourth
