"""Gaussian-mixture targets and their exact interpolation oracles.

A target is a finite mixture of axis-aligned Gaussians; components may have
zero variance in any coordinate, so point masses and distributions supported
on a lower-dimensional slice (the main experimental regime) are ordinary
members of the family.

For the linear interpolation X_t = t·X₁ + (1-t)·X₀ with X₀ ~ N(0, I), every
conditional quantity the samplers consume is available in closed form:

* the marginal of X_t given component c is N(t·μ_c, t²v_c + (1-t)²) per
  coordinate, which yields exact responsibilities;
* the posterior mean/variance of X₁ given X_t = x are affine/constant in x
  per component;
* the velocity E[X₁ - X₀ | X_t = x] is a responsibility-weighted affine
  field whose per-component coefficients

      a_j(t) = (t·v_j - (1-t)) / (t²v_j + (1-t)²),
      b_j(t) = (1-t)·μ_j      / (t²v_j + (1-t)²)

  are safe to evaluate for every t in [0, 1) — including zero-variance
  coordinates, where the naive posterior-mean route loses all precision to
  cancellation as t → 1;
* the score of the marginal is the responsibility-weighted Gaussian score.

The two routes are tied together by the exchange identities

    v_t(x) = x/t + ((1-t)/t)·s_t(x),      s_t(x) = (t·v_t(x) - x)/(1-t),

which hold exactly for the closed forms and are enforced by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

import numpy as np

from .batch import BatchMeta, SampleBatch, _block_rows, _to_float32
from .errors import DomainError
from .rng import INIT_NOISE, substream
from .schedules import _count, _freeze

__all__ = [
    "Target",
    "PosteriorMoments",
    "FieldOracle",
    "ExactOracle",
    "ScaleBiasOracle",
    "AdditiveFieldOracle",
    "posterior_moments",
    "affine_field",
    "velocity",
    "score",
    "sample_target",
    "blur_samples",
    "sample_blurred_target",
]


@dataclass(frozen=True)
class Target:
    """Axis-aligned Gaussian mixture: weights (m,), means/variances (m, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    intrinsic_dim: int | None = None

    def __post_init__(self) -> None:
        # copies, so a later write to the caller's arrays cannot undo these checks
        w = np.atleast_1d(np.array(self.weights, dtype=np.float64))
        mu = np.atleast_2d(np.array(self.means, dtype=np.float64))
        var = np.atleast_2d(np.array(self.variances, dtype=np.float64))
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a non-empty 1-D array")
        if mu.shape != (w.size, mu.shape[1]) or var.shape != mu.shape:
            raise DomainError(
                f"means {mu.shape} and variances {var.shape} must both be "
                f"(n_components={w.size}, dim)"
            )
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise DomainError("component weights must be positive and finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"component weights sum to {w.sum()!r}, not 1")
        if np.any(var < 0.0) or not np.all(np.isfinite(var)):
            raise DomainError("variances must be non-negative and finite")
        if not np.all(np.isfinite(mu)):
            raise DomainError("means must be finite")
        k = self.intrinsic_dim
        if k is not None and _count(k, "intrinsic_dim", 0) > mu.shape[1]:
            raise DomainError("intrinsic_dim must lie in [0, dim]")
        for name, arr in (("weights", w), ("means", mu), ("variances", var)):
            object.__setattr__(self, name, _freeze(arr))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size

    @classmethod
    def gaussian(
        cls, mean, variance, intrinsic_dim: int | None = None
    ) -> "Target":
        """Single-component target with the given mean/variance vectors."""
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        variance = np.broadcast_to(
            np.asarray(variance, dtype=np.float64), mean.shape
        )
        return cls(
            weights=np.ones(1),
            means=mean[None, :],
            variances=variance.copy()[None, :],
            intrinsic_dim=intrinsic_dim,
        )

    @classmethod
    def low_rank(
        cls,
        dim: int,
        intrinsic_dim: int,
        mean_value: float = 8.0,
        var_value: float = 1.0,
    ) -> "Target":
        """The benchmark family: mean 8·𝟙, unit variance on the first
        ``intrinsic_dim`` coordinates and zero variance on the rest."""
        if _count(intrinsic_dim, "intrinsic_dim", 0) > _count(dim, "dim", 0):
            raise DomainError("intrinsic_dim must lie in [0, dim]")
        var = np.zeros(dim)
        var[:intrinsic_dim] = var_value
        return cls.gaussian(
            np.full(dim, float(mean_value)), var, intrinsic_dim=intrinsic_dim
        )

    def describe(self) -> str:
        return (
            f"gmm(d={self.dim}, components={self.n_components}, "
            f"k={self.intrinsic_dim if self.intrinsic_dim is not None else self.dim})"
        )


@dataclass(frozen=True)
class PosteriorMoments:
    """E[X₁ | X_t = x] and the diagonal of Cov[X₁ | X_t = x], row per x."""

    mean: np.ndarray
    var_diag: np.ndarray


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise DomainError(f"interpolation time must lie in [0, 1), got {t!r}")
    return t


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    if squeezed:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DomainError(f"states must have {dim} coordinates, got shape {x.shape}")
    return x, squeezed


def _field_out(x, dim: int, out) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x`` as (n, d) rows, the (n, d) rows a field is written into, and the
    array to return: ``out`` once it is a writeable C-contiguous float64
    array of the caller's state shape, else a fresh array of that shape."""
    x, squeezed = _as_batch(x, dim)
    shape = x.shape[1:] if squeezed else x.shape
    if out is None:
        out = np.empty(shape)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise DomainError(
            f"out must be a writeable C-contiguous float64 array of shape {shape}, got {got}"
        )
    return x, (out[None, :] if squeezed else out), out


def _marginal_scale(target: Target, t) -> np.ndarray:
    """Per-coordinate marginal variance of X_t given each component, (m, d),
    or (K, m, d) for a (K, 1, 1) array of times.  (1-t)² is Python's float
    power either way: numpy's array square rounds some values differently."""
    if np.ndim(t):
        gap2 = [(1.0 - s) ** 2 for s in t.ravel().tolist()]
        return t * t * target.variances + np.reshape(gap2, t.shape)
    return t * t * target.variances + (1.0 - t) ** 2


def _log_responsibilities(target: Target, t: float, x: np.ndarray) -> np.ndarray:
    """log P[component | X_t = x], shape (n, m)."""
    d_scale = _marginal_scale(target, t)  # (m, d)
    diff = x[:, None, :] - t * target.means[None, :, :]  # (n, m, d)
    log_like = -0.5 * np.sum(diff * diff / d_scale + np.log(d_scale), axis=2)
    log_post = np.log(target.weights)[None, :] + log_like
    log_post -= log_post.max(axis=1, keepdims=True)
    log_post -= np.log(np.exp(log_post).sum(axis=1, keepdims=True))
    return log_post


def posterior_moments(target: Target, t: float, x) -> PosteriorMoments:
    """Exact posterior mean and per-coordinate variance of X₁ given X_t = x.

    Per component the posterior is Gaussian with

        mean_c = (t·v·x + (1-t)²·μ_c) / (t²v + (1-t)²),
        var_c  = v·(1-t)² / (t²v + (1-t)²);

    mixtures combine them with the responsibilities, the variance picking up
    the usual between-component spread Σ r_c(var_c + mean_c²) - mean².
    """
    t = _check_time(t)
    x, squeezed = _as_batch(x, target.dim)
    d_scale = _marginal_scale(target, t)  # (m, d)
    omt2 = (1.0 - t) ** 2
    mean_c = (
        t * target.variances[None, :, :] * x[:, None, :]
        + omt2 * target.means[None, :, :]
    ) / d_scale  # (n, m, d)
    var_c = target.variances * omt2 / d_scale  # (m, d)
    if target.n_components == 1:
        mean = mean_c[:, 0, :]
        var = np.broadcast_to(var_c[0], mean.shape).copy()
    else:
        resp = np.exp(_log_responsibilities(target, t, x))[:, :, None]  # (n, m, 1)
        mean = np.sum(resp * mean_c, axis=1)
        second = np.sum(resp * (var_c[None, :, :] + mean_c**2), axis=1)
        var = np.maximum(second - mean * mean, 0.0)
    if squeezed:
        return PosteriorMoments(mean=mean[0], var_diag=var[0])
    return PosteriorMoments(mean=mean, var_diag=var)


def _velocity_coefficients(target: Target, t) -> tuple[np.ndarray, ...]:
    """(a, b), each (m, d), of the velocity a·x + b at a checked time ``t``, and the scale."""
    d_scale = _marginal_scale(target, t)  # (m, d)
    return (t * target.variances - (1.0 - t)) / d_scale, (1.0 - t) * target.means / d_scale, d_scale


def affine_field(target: Target, t) -> tuple[np.ndarray, ...]:
    """Per-component (a, b, p, q), each (m, d), of the velocity a·x + b (module
    docstring) and the score p·x + q, p = -1/(t²v + (1-t)²), q = -p·t·μ.  For
    a 1-D array of K times each is (K, m, d), with the bits of K calls."""
    t = np.array([_check_time(s) for s in t])[:, None, None] if np.ndim(t) else _check_time(t)
    a, b, d_scale = _velocity_coefficients(target, t)
    return a, b, -1.0 / d_scale, t * target.means / d_scale


def velocity(target: Target, t: float, x, out=None) -> np.ndarray:
    """Exact interpolation velocity E[X₁ - X₀ | X_t = x].

    Evaluated through the per-component affine coefficients of
    :func:`affine_field`, so zero-variance coordinates stay exact all the way
    to t → 1 — the naive (posterior mean - x)/(1-t) route cancels there.

    ``out``, if given, receives the field and is returned: a writeable
    C-contiguous float64 array of ``x``'s shape (:class:`DomainError`
    otherwise), which may be ``x`` itself.  The bits are the same either way.
    """
    t = _check_time(t)
    a, b, _ = _velocity_coefficients(target, t)
    x, rows, out = _field_out(x, target.dim, out)
    if target.n_components == 1:
        np.multiply(a[0], x, out=rows)
        rows += b[0]
    else:
        resp = np.exp(_log_responsibilities(target, t, x))  # (n, m)
        fields = a[None, :, :] * x[:, None, :] + b[None, :, :]  # (n, m, d)
        np.sum(resp[:, :, None] * fields, axis=1, out=rows)
    return out


def score(target: Target, t: float, x, out=None) -> np.ndarray:
    """Score of the X_t marginal, ∇ log p_t(x).

    The responsibility-weighted per-component Gaussian score
    -Σ_c r_c(x)·(x - t·μ_c)/(t²v_c + (1-t)²); exchanging it with
    :func:`velocity` through s = (t·v - x)/(1-t) is an exact identity.
    It is evaluated in this form, not as p·x + q from :func:`affine_field`:
    the two round differently, and the score-driven samplers' outputs are
    pinned bit for bit to this one.  ``out`` is as for :func:`velocity`.
    """
    t = _check_time(t)
    x, rows, out = _field_out(x, target.dim, out)
    d_scale = _marginal_scale(target, t)
    if target.n_components == 1:  # -(x - t·μ)/scale, in one array
        np.subtract(x, t * target.means[0], out=rows)
        np.negative(rows, out=rows)
        rows /= d_scale[0]
    else:
        grads = -(x[:, None, :] - t * target.means[None, :, :]) / d_scale  # (n, m, d)
        resp = np.exp(_log_responsibilities(target, t, x))
        np.sum(resp[:, :, None] * grads, axis=1, out=rows)
    return out


@runtime_checkable
class FieldOracle(Protocol):
    """What samplers need: a velocity field and a matching score field.

    Each method writes its field at the (n, d) states ``x`` into ``out`` and
    returns ``out``.  The samplers pass ``out`` by keyword, a C-contiguous
    float64 array of ``x``'s shape and never ``x`` itself, so a sampler step
    allocates no (n, d) array.  A method that takes no ``out`` fails at a
    sampler's first call with :class:`TypeError`.

    A field's row j depends on row j of ``x`` alone, bit for bit:
    ``f(t, x)[a:b]`` equals ``f(t, x[a:b])``, so the samplers may run their
    rows in blocks, calling each field once per row block.  The oracles
    here keep that, with one exception: :class:`AdditiveFieldOracle`
    at d > 1 forms ``x @ freqs.T``, a BLAS matrix product whose kernel and
    sums depend on the row count, so its bits may differ with the number of
    rows (at d = 200 with OpenBLAS on a 2-vCPU x86 VM, the first 4, 5 or 6
    of 333 rows gave other bits alone than in the whole).  Every sampler
    carries that caveat with it, the noise-drawing ones since they too run
    in row blocks; no sweep, pin or check runs that perturbation at d > 1.
    At d = 1 that product is one multiplication a value.

    :func:`~flowgrid.samplers.gaussian_pushforward` also reads ``affine(t)``:
    the (a, b, p, q) of a velocity a·x + b and score p·x + q, each (d,), or
    (K, d) for K times; a field not affine in the state raises DomainError.
    """

    @property
    def dim(self) -> int: ...

    def velocity(self, t: float, x: np.ndarray, out: np.ndarray) -> np.ndarray: ...

    def score(self, t: float, x: np.ndarray, out: np.ndarray) -> np.ndarray: ...


class ExactOracle:
    """The closed-form velocity/score of a mixture target.

    Both fields are built from the target on every call, so the oracle
    keeps nothing between calls and one oracle may be shared across threads.
    """

    def __init__(self, target: Target):
        self._target = target

    @property
    def target(self) -> Target:
        return self._target

    @property
    def dim(self) -> int:
        return self.target.dim

    def velocity(self, t: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return velocity(self.target, t, x, out=out)

    def score(self, t: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return score(self.target, t, x, out=out)

    def affine(self, t) -> tuple[np.ndarray, ...]:
        """:func:`affine_field` of a single-Gaussian target, one row per time."""
        if self.target.n_components != 1:
            raise DomainError("the fields are affine only for single-Gaussian targets")
        return tuple(c[..., 0, :] for c in affine_field(self.target, t))

    def __repr__(self) -> str:
        return f"ExactOracle({self.target.describe()})"


class _DerivedScoreOracle:
    """A corrupted velocity v̂ of ``base``, of size ``m``, with its score derived.

    The score is always (t·v̂(x) - x)/(1-t): the perturbed pair then
    satisfies the same exchange identity as the exact pair, so score-driven
    samplers see a perturbation consistent with velocity-driven ones.  Both
    methods take ``out`` as :func:`velocity` does; the base oracle writes
    its velocity straight into it.  A subclass defines ``velocity``, and
    ``affine`` if its field is affine in the state.
    """

    def __init__(self, base: FieldOracle, m: float):
        if not math.isfinite(m):
            raise DomainError(f"perturbation magnitude must be finite, got {m!r}")
        self.base, self.m = base, float(m)

    @property
    def dim(self) -> int:
        return self.base.dim

    def score(self, t: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        t = _check_time(t)
        x = np.asarray(x, dtype=np.float64)
        if out is not None and np.may_share_memory(out, x):
            x = x.copy()  # read again below, after ``out`` is written
        s = self.velocity(t, x, out=out)  # (t·v̂ - x)/(1-t)
        s *= t
        s -= x
        s /= 1.0 - t
        return s

    def affine(self, t):
        raise DomainError(f"{type(self).__name__}'s field is not affine in the state")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base!r}, {self.m!r})"


class ScaleBiasOracle(_DerivedScoreOracle):
    """The velocity (1+m)·v + m of ``base``: a scale error and a bias m·𝟙 of
    norm m√d.  Over an affine base, ``affine(t)`` gives â = (1+m)a,
    b̂ = (1+m)b + m and the derived score's p̂ = (t·â - 1)/(1-t), q̂ = t·b̂/(1-t)."""

    def velocity(self, t: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, rows, out = _field_out(x, self.dim, out)
        self.base.velocity(t, x, out=rows)
        rows *= 1.0 + self.m
        rows += self.m
        return out

    def affine(self, t) -> tuple[np.ndarray, ...]:
        a, b, _, _ = self.base.affine(t)
        t = np.asarray(t, dtype=np.float64)[..., None]
        a, b = (1.0 + self.m) * a, (1.0 + self.m) * b + self.m
        return a, b, (t * a - 1.0) / (1.0 - t), t * b / (1.0 - t)


class AdditiveFieldOracle(_DerivedScoreOracle):
    """The velocity of ``base`` plus a smooth field drawn from ``seed``, of
    norm exactly m at every point (so m in root-mean-square under any state
    law).  It is not affine in the state: ``affine`` raises DomainError."""

    def __init__(self, base: FieldOracle, m: float, seed: int):
        super().__init__(base, m)
        rng = substream(_count(seed, "seed", 0), INIT_NOISE)
        d = base.dim
        self._anchor = rng.standard_normal(d)
        self._anchor *= np.sqrt(d) / np.linalg.norm(self._anchor)
        self._freqs = rng.standard_normal((d, d)) * (2.0 / np.sqrt(d))
        self._rates = rng.standard_normal(d) * 2.0
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=d)

    def velocity(self, t: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, rows, out = _field_out(x, self.dim, out)
        # taken before v is written, since ``out`` may be ``x``
        w = np.sqrt(self.dim) * self._anchor + 0.5 * np.cos(
            x @ self._freqs.T + self._rates * t + self._phases
        )
        g = self.m * w / np.linalg.norm(w, axis=1, keepdims=True)
        self.base.velocity(t, x, out=rows)
        rows += g
        return out


def sample_target(target: Target, n: int, seed: int) -> SampleBatch:
    """Draw n exact samples of the target (component pick + Gaussian draw)."""
    _count(n, "the sample count", 1)
    rng = substream(seed, INIT_NOISE)
    data = rng.standard_normal((n, target.dim))
    if target.n_components == 1:
        _place(data, target)
    else:
        comps = rng.choice(target.n_components, size=n, p=target.weights)
        data = target.means[comps] + np.sqrt(target.variances[comps]) * data
    meta = BatchMeta(
        sampler="target-exact",
        grid="none",
        target=target.describe(),
        seed=seed,
        terminal_time=1.0,
    )
    return SampleBatch(data=data, meta=meta)


def _place(rows: np.ndarray, target: Target) -> None:
    """Standard normal rows to a single-Gaussian target's law, in place, with
    the same two operations per element as a mixture's gather."""
    rows *= np.sqrt(target.variances[0])
    rows += target.means[0]


def _check_blur(delta: float) -> None:
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"blur level must lie in [0, 1), got {delta!r}")


def blur_samples(batch: SampleBatch, delta: float, seed: int) -> SampleBatch:
    """Contract toward 0 and add noise: x ↦ (1-δ)·x + δ·Z, Z ~ N(0, I).

    This is the law a sampler stopped at time 1-δ is compared against;
    δ = 0 returns the batch itself.  Z is the ``(seed, INIT_NOISE)`` draw
    of the batch's shape.  It is the whole-array reference: a sweep cell
    blurs its reference with :func:`sample_blurred_target` instead,
    streamed straight into the probe's float32 pool.
    """
    _check_blur(delta)
    if delta == 0.0:
        return batch
    z = substream(seed, INIT_NOISE).standard_normal(batch.data.shape)
    data = (1.0 - delta) * batch.data + delta * z
    meta = replace(
        batch.meta,
        sampler=f"{batch.meta.sampler}+blur(delta={delta:.6g})",
        terminal_time=batch.meta.terminal_time * (1.0 - delta),
    )
    return SampleBatch(data=data, meta=meta)


def sample_blurred_target(
    target: Target, delta: float, target_seed: int, blur_seed: int, out: np.ndarray
) -> np.ndarray:
    """Write a blurred target draw into the float32 rows of ``out`` and return it.

    Row for row these are the bits of
    ``blur_samples(sample_target(target, n, target_seed), delta, blur_seed).data``
    cast to float32, with (n, d) ``out``'s shape: the sweep cell's
    reference batch.  Both draws are read in sequential row blocks from
    their two generators (the values of one (n, d) draw each), through two
    float64 buffers of at most 512 KiB, and each block is range-checked and
    cast into its rows of ``out``; no (n, d) float64 array is made.

    Raises :class:`DomainError` for a mixture target (its component picks
    follow the whole normal draw, so its rows cannot be streamed), a δ
    outside [0, 1), an ``out`` that is not a writeable C-contiguous (n, d)
    float32 array with n >= 1 and d the target's dimension, or a value
    beyond float32's range.
    """
    if target.n_components != 1:
        raise DomainError("a blurred target is streamed only for single-Gaussian targets")
    _check_blur(delta)
    d = target.dim
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float32
        and out.ndim == 2
        and out.shape[1] == d
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise DomainError(f"out must be a writeable C-contiguous (n, {d}) float32 array")
    n = _count(out.shape[0], "the sample count", 1)
    draw, blur = substream(target_seed, INIT_NOISE), substream(blur_seed, INIT_NOISE)
    rows = _block_rows(d * 8)
    block = np.empty((min(n, rows), d))
    noise = np.empty_like(block) if delta else None
    for start in range(0, n, rows):
        x = block[: min(rows, n - start)]
        draw.standard_normal(out=x)
        _place(x, target)
        if delta:  # (1-δ)·x + δ·Z, each element rounded as the whole-array form
            x *= 1.0 - delta  # a product of two floats commutes exactly
            z = noise[: x.shape[0]]
            blur.standard_normal(out=z)
            z *= delta
            x += z
        _to_float32(x, "the reference batch", out=out[start : start + x.shape[0]])
    return out
