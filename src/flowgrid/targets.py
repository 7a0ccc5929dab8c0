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

import enum
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

import numpy as np

from .batch import BatchMeta, SampleBatch
from .errors import DomainError
from .rng import INIT_NOISE, substream

__all__ = [
    "Target",
    "PosteriorMoments",
    "PerturbationKind",
    "PerturbationSpec",
    "FieldOracle",
    "ExactOracle",
    "posterior_moments",
    "affine_field",
    "velocity",
    "score",
    "perturb_field",
    "sample_target",
    "blur_samples",
]


@dataclass(frozen=True)
class Target:
    """Axis-aligned Gaussian mixture: weights (m,), means/variances (m, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    intrinsic_dim: int | None = None

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        var = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
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
        if self.intrinsic_dim is not None and not (
            0 <= self.intrinsic_dim <= mu.shape[1]
        ):
            raise DomainError("intrinsic_dim must lie in [0, dim]")
        for name, arr in (("weights", w), ("means", mu), ("variances", var)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
        if not 0 <= intrinsic_dim <= dim:
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


def _marginal_scale(target: Target, t: float) -> np.ndarray:
    """Per-coordinate marginal variance of X_t given each component, (m, d)."""
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


def affine_field(target: Target, t: float) -> tuple[np.ndarray, ...]:
    """Per-component (a, b, p, q), each (m, d), of the velocity a·x + b (module
    docstring) and the score p·x + q, p = -1/(t²v + (1-t)²), q = -p·t·μ."""
    t = _check_time(t)
    d_scale = _marginal_scale(target, t)  # (m, d)
    a = (t * target.variances - (1.0 - t)) / d_scale
    b = (1.0 - t) * target.means / d_scale
    return a, b, -1.0 / d_scale, t * target.means / d_scale


def velocity(target: Target, t: float, x) -> np.ndarray:
    """Exact interpolation velocity E[X₁ - X₀ | X_t = x].

    Evaluated through the per-component affine coefficients of
    :func:`affine_field`, so zero-variance coordinates stay exact all the way
    to t → 1 — the naive (posterior mean - x)/(1-t) route cancels there.
    """
    a, b, _, _ = affine_field(target, t)
    x, squeezed = _as_batch(x, target.dim)
    if target.n_components == 1:
        out = a[0] * x + b[0]
    else:
        resp = np.exp(_log_responsibilities(target, float(t), x))  # (n, m)
        fields = a[None, :, :] * x[:, None, :] + b[None, :, :]  # (n, m, d)
        out = np.sum(resp[:, :, None] * fields, axis=1)
    return out[0] if squeezed else out


def score(target: Target, t: float, x) -> np.ndarray:
    """Score of the X_t marginal, ∇ log p_t(x).

    The responsibility-weighted per-component Gaussian score
    -Σ_c r_c(x)·(x - t·μ_c)/(t²v_c + (1-t)²); exchanging it with
    :func:`velocity` through s = (t·v - x)/(1-t) is an exact identity.
    It is evaluated in this form, not as p·x + q from :func:`affine_field`:
    the two round differently, and the score-driven samplers' outputs are
    pinned bit for bit to this one.
    """
    t = _check_time(t)
    x, squeezed = _as_batch(x, target.dim)
    d_scale = _marginal_scale(target, t)
    grads = -(x[:, None, :] - t * target.means[None, :, :]) / d_scale  # (n, m, d)
    if target.n_components == 1:
        out = grads[:, 0, :]
    else:
        resp = np.exp(_log_responsibilities(target, t, x))
        out = np.sum(resp[:, :, None] * grads, axis=1)
    return out[0] if squeezed else out


class PerturbationKind(str, enum.Enum):
    """Ways of corrupting a velocity oracle on purpose."""

    NONE = "none"
    SCALE_BIAS = "scale-bias"
    ADDITIVE_FIELD = "additive-field"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PerturbationSpec:
    """What to do to the field: kind, size, and the seed of the random field."""

    kind: PerturbationKind = PerturbationKind.NONE
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PerturbationKind(self.kind))
        if not np.isfinite(self.magnitude):
            raise DomainError("perturbation magnitude must be finite")


@runtime_checkable
class FieldOracle(Protocol):
    """What samplers need: a velocity field and a matching score field."""

    @property
    def dim(self) -> int: ...

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray: ...

    def score(self, t: float, x: np.ndarray) -> np.ndarray: ...


class ExactOracle:
    """The closed-form velocity/score of a mixture target."""

    def __init__(self, target: Target):
        self.target = target

    @property
    def dim(self) -> int:
        return self.target.dim

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        return velocity(self.target, t, x)

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        return score(self.target, t, x)

    def __repr__(self) -> str:
        return f"ExactOracle({self.target.describe()})"


class _PerturbedOracle:
    """A corrupted velocity field with the score derived from it.

    The score is always (t·v̂(x) - x)/(1-t): the perturbed pair then
    satisfies the same exchange identity as the exact pair, so score-driven
    samplers see a perturbation consistent with velocity-driven ones.
    """

    def __init__(self, base: FieldOracle, spec: PerturbationSpec):
        self.base = base
        self.spec = spec
        if spec.kind is PerturbationKind.ADDITIVE_FIELD:
            rng = substream(spec.seed, INIT_NOISE)
            d = base.dim
            self._anchor = rng.standard_normal(d)
            self._anchor *= np.sqrt(d) / np.linalg.norm(self._anchor)
            self._freqs = rng.standard_normal((d, d)) * (2.0 / np.sqrt(d))
            self._rates = rng.standard_normal(d) * 2.0
            self._phases = rng.uniform(0.0, 2.0 * np.pi, size=d)

    @property
    def dim(self) -> int:
        return self.base.dim

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        v = self.base.velocity(t, x)
        kind, m = self.spec.kind, self.spec.magnitude
        if kind is PerturbationKind.SCALE_BIAS:
            return (1.0 + m) * v + m
        # additive-field: a fixed smooth unit-norm direction field scaled to
        # magnitude m — the field error ||v̂ - v|| equals m at every point,
        # hence exactly m in root-mean-square under any state distribution.
        x2d = np.atleast_2d(np.asarray(x, dtype=np.float64))
        w = np.sqrt(self.dim) * self._anchor + 0.5 * np.cos(
            x2d @ self._freqs.T + self._rates * t + self._phases
        )
        g = m * w / np.linalg.norm(w, axis=1, keepdims=True)
        return v + g.reshape(np.shape(v))

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        t = _check_time(t)
        return (t * self.velocity(t, x) - np.asarray(x, dtype=np.float64)) / (1.0 - t)

    def __repr__(self) -> str:
        return (
            f"perturbed({self.base!r}, kind={self.spec.kind.value}, "
            f"magnitude={self.spec.magnitude})"
        )


def perturb_field(oracle: FieldOracle, spec: PerturbationSpec) -> FieldOracle:
    """Wrap an oracle with a controlled corruption (identity for kind none)."""
    if spec.kind is PerturbationKind.NONE:
        return oracle
    return _PerturbedOracle(oracle, spec)


def sample_target(target: Target, n: int, seed: int) -> SampleBatch:
    """Draw n exact samples of the target (component pick + Gaussian draw)."""
    if n < 1:
        raise DomainError("need at least one sample")
    rng = substream(seed, INIT_NOISE)
    data = rng.standard_normal((n, target.dim))
    if target.n_components == 1:
        # In place, with the same two operations per element as the gather.
        data *= np.sqrt(target.variances[0])
        data += target.means[0]
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


def blur_samples(batch: SampleBatch, delta: float, seed: int) -> SampleBatch:
    """Contract toward 0 and add noise: x ↦ (1-δ)·x + δ·Z, Z ~ N(0, I).

    This is the law a sampler stopped at time 1-δ is compared against;
    δ = 0 returns the data unchanged.
    """
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"blur level must lie in [0, 1), got {delta!r}")
    if delta == 0.0:
        return batch
    rng = substream(seed, INIT_NOISE)
    data = (1.0 - delta) * batch.data + delta * rng.standard_normal(batch.data.shape)
    meta = replace(
        batch.meta,
        sampler=f"{batch.meta.sampler}+blur(delta={delta:.6g})",
        terminal_time=batch.meta.terminal_time * (1.0 - delta),
    )
    return SampleBatch(data=data, meta=meta)
