"""Flow and diffusion samplers, plus an exact push-forward oracle.

Five ways of turning the closed-form oracles of :mod:`flowgrid.targets` into
samples, all integrating on a :class:`~flowgrid.schedules.TimeGrid` (or a raw
array of times) and all stopping one knot short of t = 1 unless asked for the
final step explicitly:

* :func:`rf_euler` — the deterministic flow: Euler steps on the velocity
  field, ``y += (t_{i+1} - t_i)·v(t_i, y)``.
* :func:`ddim_rf` — the deterministic scaled-coordinate update driven by the
  score.  Algebra makes it the same map as the Euler flow step; both code
  paths are kept (an ``form="scaled"`` variant runs the whitened-coordinate
  recursion) precisely so that claim stays checkable.
* :func:`stoc_rf` — the stochastic counterpart: the whitened state
  ``z = y/σ_t`` is pulled toward the score and re-noised a little each step,
  with per-step coefficients from :func:`stoc_rf_coefficients`.
* :func:`ddpm_sample` — the discrete denoising chain driven by a
  :class:`~flowgrid.schedules.DdpmSchedule`.  Substituting its coefficients
  shows it is :func:`stoc_rf` on the induced grid in disguise; with shared
  noise blocks the two produce the same trajectories to float rounding, and
  the check suite asserts exactly that.
* :func:`langevin_rf` — the flow plus a score-weighted Langevin channel with
  weight γ_t = (1-t)/t and matching noise; ``gamma_scale=0`` switches the
  channel off and reproduces :func:`rf_euler` bit for bit.

:data:`SAMPLERS` is the one table of them (function, push-forward kind, grid
needs) and :func:`run_sampler` dispatches through it.  ``rf_euler``,
``ddim_rf``'s default form and ``langevin_rf`` share one drift-plus-noise
Euler step loop; the whitened recursion, the chain and the push-forward keep
their own, because comparing them with it is the check.

For single-Gaussian targets every one of these updates is affine in the
state, so mean and per-coordinate variance propagate in closed form;
:func:`gaussian_pushforward` does that propagation, with the coefficients of
:func:`~flowgrid.targets.affine_field`, and is the reference the Monte-Carlo
tests compare against.

Noise addressing: the initial state comes from the ``(seed, INIT_NOISE)``
substream and step i consumes one (n, d) block from ``(seed, STEP_NOISE, i)``,
row j belonging to trajectory j.  The stochastic samplers read their blocks
from a :class:`~flowgrid.rng.StepNoise`, which draws block i+1 on a worker
thread while step i computes (when blocks are large enough and a core is
free); a block depends only on its address, so the values are the same as
drawing it inline.  A block is valid only until the next block is read, so each step
consumes its block before asking for the next.  Samplers never share or
mutate state across trajectories, so results are independent of any
parallel execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import BatchMeta, SampleBatch
from .errors import DomainError, NonFiniteState
from .rng import INIT_NOISE, StepNoise, substream
from .schedules import (
    BuiltGrid,
    DdpmSchedule,
    GridKind,
    TimeGrid,
    build_ddpm_schedule,
    ddpm_induced_rf_grid,
    time_from_mix_weight,
)
from .targets import FieldOracle, Target, affine_field

__all__ = [
    "StocRfCoefficients",
    "PushforwardPath",
    "interpolation_scale2",
    "stoc_rf_coefficients",
    "ddim_step_sizes",
    "rf_euler",
    "ddim_rf",
    "stoc_rf",
    "langevin_rf",
    "ddpm_sample",
    "gaussian_pushforward",
    "identity_checks",
    "SamplerEntry",
    "SAMPLERS",
    "run_sampler",
]


def interpolation_scale2(t):
    """Marginal scale σ_t² = (1-t)² + t² of the linear interpolation.

    This is the variance of t·X₁ + (1-t)·X₀ when both ends are standard
    normal; it bottoms out at 1/2 (t = 1/2) and equals 1 at both endpoints.
    """
    t = np.asarray(t, dtype=np.float64)
    out = (1.0 - t) ** 2 + t * t
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StocRfCoefficients:
    """Per-knot scales and per-step coefficients of the whitened update.

    For knots t_0 < ... < t_{M-1} (all positive, at most the last equal
    to 1):

    * ``sigma2[i]`` — σ_{t_i}², the interpolation scale at the knot;
    * ``r2[i]`` — R_i² = t_i²/σ_{t_i}², the signal fraction of the whitened
      state (strictly increasing along the grid);
    * ``eta[i]`` — the score step 1 - R_i²/R_{i+1}², in (0, 1];
    * ``psi[i]`` — the refresh-noise variance, ``q_i·eta[i]`` with
      q_i = (t_i(1-t_{i+1})/(t_{i+1}(1-t_i)))² the squared per-step
      contraction of the noise-to-signal ratio (1-t)/t.

    Both step arrays are evaluated through cancellation-free factorizations
    (differences of knots, never differences of near-equal ratios), so they
    stay fully accurate on grids with steps near float resolution.
    """

    times: np.ndarray
    sigma2: np.ndarray
    r2: np.ndarray
    eta: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "sigma2", "r2", "eta", "psi"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.eta.size


def _positive_knots(times, *, who: str) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise DomainError(f"{who} needs at least two time knots")
    if not np.all(np.isfinite(times)):
        raise DomainError(f"{who} received non-finite times")
    if times[0] <= 0.0:
        raise DomainError(
            f"{who} is undefined at t = 0 (zero signal fraction); start the "
            "grid strictly inside (0, 1) — e.g. a DDPM-induced grid"
        )
    if times[-1] > 1.0 or not np.all(np.diff(times) > 0.0):
        raise DomainError(f"{who} needs strictly increasing times within (0, 1]")
    return times


def _nsr_contraction2(t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Squared per-step shrinkage of the noise-to-signal ratio (1-t)/t."""
    return (t0 * (1.0 - t1)) ** 2 / (t1 * (1.0 - t0)) ** 2


def stoc_rf_coefficients(times) -> StocRfCoefficients:
    """Whitened-update coefficients for a grid of times.

    Accepts a :class:`TimeGrid` (its integration knots are used) or a raw
    increasing array with ``times[0] > 0``.  The step coefficient is
    factorized as

        eta_i = (t_{i+1} - t_i)·(t_i + t_{i+1} - 2 t_i t_{i+1})
                / (σ_{t_i}² · t_{i+1}²),

    which equals 1 - R_i²/R_{i+1}² exactly but never subtracts two ratios
    that agree to many digits.

    Raises
    ------
    DomainError
        If the times are not strictly increasing inside (0, 1].
    """
    if isinstance(times, TimeGrid):
        times = times.integration_times()
    times = _positive_knots(times, who="the whitened update")
    sigma2 = interpolation_scale2(times)
    r2 = times * times / sigma2
    t0, t1 = times[:-1], times[1:]
    mixed = t0 + t1 - 2.0 * t0 * t1  # = t1(1-t0) + t0(1-t1) > 0
    eta = (t1 - t0) * mixed / (sigma2[:-1] * t1 * t1)
    psi = _nsr_contraction2(t0, t1) * eta
    return StocRfCoefficients(times=times, sigma2=sigma2, r2=r2, eta=eta, psi=psi)


def ddim_step_sizes(times) -> np.ndarray:
    """Per-step coefficients of the deterministic scaled update.

    The deterministic variant damps the stochastic score step by
    1 + √q_i (q_i as in :class:`StocRfCoefficients`):

        eta_i = (1 - R_i²/R_{i+1}²) / (1 + √q_i).

    It satisfies eta_i·σ_{t_i}² = (t_{i+1} - t_i)(1 - t_i)/t_{i+1}
    identically — the algebra behind :func:`ddim_rf` being an Euler flow
    step — and the factorized evaluation keeps that identity true to float
    rounding, which the check suite relies on.
    """
    coeffs = stoc_rf_coefficients(times)
    t0, t1 = coeffs.times[:-1], coeffs.times[1:]
    return coeffs.eta / (1.0 + np.sqrt(_nsr_contraction2(t0, t1)))


def _integration_times(grid, final_step: bool) -> tuple[np.ndarray, str]:
    """Resolve a TimeGrid or raw array into the knots a sampler visits."""
    if isinstance(grid, TimeGrid):
        return grid.integration_times(final_step=final_step), grid.describe()
    times = np.asarray(grid, dtype=np.float64)
    if times.ndim != 1 or times.size < 1:
        raise DomainError("a sampling grid needs a 1-D array of times")
    if not np.all(np.isfinite(times)):
        raise DomainError("sampling times must be finite")
    if times[0] < 0.0 or times[-1] > 1.0 or not np.all(np.diff(times) > 0.0):
        raise DomainError("sampling times must increase strictly within [0, 1]")
    if final_step and times[-1] < 1.0:
        times = np.append(times, 1.0)
    return times, f"custom({times.size} knots)"


def _ensure_finite(state: np.ndarray, sampler: str, t: float) -> None:
    if not np.all(np.isfinite(state)):
        raise NonFiniteState(
            f"{sampler} produced a non-finite state at t = {t:.6g}; "
            "the field/grid pairing is unstable"
        )


def _finish(
    data: np.ndarray, frames: list[np.ndarray] | None, times: np.ndarray, sampler: str,
    grid_label: str, oracle: FieldOracle, seed: int, terminal_time: float | None = None,
) -> SampleBatch:
    target = getattr(oracle, "target", None)
    meta = BatchMeta(
        sampler=sampler,
        grid=grid_label,
        target=target.describe() if isinstance(target, Target) else repr(oracle),
        seed=seed,
        terminal_time=float(times[-1]) if terminal_time is None else terminal_time,
    )
    if frames is None:
        return SampleBatch(data=data, meta=meta)
    return SampleBatch(
        data=data,
        meta=meta,
        trajectory=np.stack(frames),
        trajectory_times=times,
    )


def _check_start(name: str, times: np.ndarray) -> None:
    if "t0>0" in SAMPLERS[name].needs and times[0] <= 0.0:
        raise DomainError(
            f"{name} needs t_0 > 0: its score weight (1-t)/t diverges at t = 0, "
            "where uniform and U-shaped grids start — use a DDPM-induced grid"
        )


def _euler_steps(
    oracle: FieldOracle, grid, n: int, seed: int, record: bool, final_step: bool,
    name: str, label: str, increment, noise_scale=None,
) -> SampleBatch:
    """Euler steps y ← y + increment(t_i, Δ_i, y) [+ noise_scale(t_i, Δ_i)·ξ_i].

    ``increment`` returns step·drift as a fresh array; the loop adds y and
    then the scaled noise block into it in place, so the operands pair as in
    y + step·drift + c·ξ, and neither y (a recorded frame may hold it) nor an
    oracle output is written.  ``noise_scale=None`` draws no noise.  ``name``
    is the sampler's :data:`SAMPLERS` key, ``label`` its batch metadata name.
    """
    times, grid_label = _integration_times(grid, final_step)
    _check_start(name, times)
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [y] if record else None
    steps = times.size - 1
    with StepNoise(seed, y.shape, 0 if noise_scale is None else steps) as noise:
        for i in range(steps):
            t_i = float(times[i])
            step = float(times[i + 1]) - t_i
            update = increment(t_i, step, y)
            update += y
            if noise_scale is not None:
                xi = noise.block(i)
                xi *= noise_scale(t_i, step)
                update += xi
            y = update
            _ensure_finite(y, name, float(times[i + 1]))
            if frames is not None:
                frames.append(y)
    return _finish(y, frames, times, label, grid_label, oracle, seed)


def _flow_increment(oracle: FieldOracle):
    return lambda t, step, y: step * oracle.velocity(t, y)


def rf_euler(
    oracle: FieldOracle,
    grid,
    n: int,
    seed: int,
    *,
    record_trajectories: bool = False,
    final_step: bool = False,
) -> SampleBatch:
    """Integrate the velocity field from N(0, I) with Euler steps.

    Visits the grid's knots in order, ``y += (t_{i+1} - t_i)·v(t_i, y)``,
    and returns the state at the last knot before 1 (``final_step=True``
    appends the closing step to exactly 1).

    Raises
    ------
    NonFiniteState
        If any iterate leaves the finite floats; the whole batch is
        abandoned rather than silently truncated.
    """
    increment = _flow_increment(oracle)
    return _euler_steps(
        oracle, grid, n, seed, record_trajectories, final_step, "rf", "rf", increment
    )


def ddim_rf(
    oracle: FieldOracle,
    grid,
    n: int,
    seed: int,
    *,
    form: str = "euler",
    record_trajectories: bool = False,
    final_step: bool = False,
) -> SampleBatch:
    """Deterministic score-driven sampler.

    Two algebraically identical code paths are provided and kept honest by
    the check suite:

    * ``form="euler"`` (default) — the simplified update
      ``y += Δ_i·(y/t_i + ((1-t_i)/t_i)·s(t_i, y))``, which is an Euler step
      of the velocity field written through the score;
    * ``form="scaled"`` — the whitened-coordinate recursion with the damped
      step sizes of :func:`ddim_step_sizes` and no refresh noise.

    Raises
    ------
    DomainError
        If the grid starts at t = 0 (the score weight 1/t diverges) or
        ``form`` is not one of the two variants.
    """
    label = f"ddim-rf[{form}]"
    if form == "scaled":
        times, grid_label = _integration_times(grid, final_step)
        start = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
        x, frames = _whitened_chain(
            oracle,
            times,
            ddim_step_sizes(times),
            None,
            n,
            seed,
            record_trajectories,
            sampler=label,
            init=start,
        )
        return _finish(x, frames, times, label, grid_label, oracle, seed)
    if form != "euler":
        raise DomainError(f"unknown update form {form!r}: use 'euler' or 'scaled'")

    def increment(t, step, y):
        # step·(y/t + ((1-t)/t)·s), the sum taken in the other order: it commutes
        update = ((1.0 - t) / t) * oracle.score(t, y)
        update += y / t
        update *= step
        return update

    return _euler_steps(
        oracle, grid, n, seed, record_trajectories, final_step, "ddim-rf", label, increment
    )


def _whitened_chain(
    oracle: FieldOracle,
    times: np.ndarray,
    eta: np.ndarray,
    psi: np.ndarray | None,
    n: int,
    seed: int,
    record: bool,
    *,
    sampler: str,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Run the scaled-coordinate recursion shared by the score samplers.

    The whitened state z_i = y_{t_i}/σ_{t_i} evolves by

        z_{i+1} = (R_{i+1}/R_i)·( z_i + eta_i·σ_{t_i}·s(t_i, σ_{t_i} z_i)
                                      [ + √psi_i·ξ_i ] ),

    the noise term present only when ``psi`` is given (the deterministic
    variant passes None and draws nothing).  By default z_0 ~ N(0, I) — the
    stochastic sampler's convention; ``init`` instead supplies the starting
    points in sample coordinates (z_0 = init/σ_{t_0}), which is how the
    deterministic variant shares its N(0, I) start with the plain Euler
    flow.  Returns the terminal state and optional per-knot frames, both
    mapped back to sample coordinates y = σ_t·z.
    """
    sigma2 = interpolation_scale2(times)
    sigma = np.sqrt(sigma2)
    # R_{i+1}/R_i with R = t/σ, as one positive factor per step.
    growth = (times[1:] * sigma[:-1]) / (times[:-1] * sigma[1:])
    if init is None:
        z = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    else:
        z = np.asarray(init, dtype=np.float64) / sigma[0]
    frames = [sigma[0] * z] if record else None
    steps = times.size - 1
    with StepNoise(seed, z.shape, steps if psi is not None else 0) as noise:
        for i in range(steps):
            t_i = float(times[i])
            # growth·(z + c·s + √ψ·ξ) in place, pairing the operands as that
            # expression does so every bit is kept; the score is not written
            inner = (eta[i] * sigma[i]) * oracle.score(t_i, sigma[i] * z)
            inner += z
            if psi is not None:
                xi = noise.block(i)
                xi *= math.sqrt(psi[i])
                inner += xi
            inner *= growth[i]
            z = inner
            _ensure_finite(z, sampler, float(times[i + 1]))
            if frames is not None:
                frames.append(sigma[i + 1] * z)
    return sigma[-1] * z, frames


def stoc_rf(
    oracle: FieldOracle,
    grid,
    n: int,
    seed: int,
    *,
    record_trajectories: bool = False,
    final_step: bool = False,
) -> SampleBatch:
    """Stochastic score-driven sampler in whitened coordinates.

    Each step contracts the whitened state toward the score and refreshes a
    ψ_i-sized slice of its variance with independent noise, so the state
    keeps the interpolation's exact signal fraction R_i² at every knot.

    Raises
    ------
    DomainError
        If the grid starts at t = 0, where the whitened state has zero
        signal and the multiplicative update is undefined.
    """
    times, grid_label = _integration_times(grid, final_step)
    coeffs = stoc_rf_coefficients(times)
    x, frames = _whitened_chain(
        oracle,
        times,
        coeffs.eta,
        coeffs.psi,
        n,
        seed,
        record_trajectories,
        sampler="stoc-rf",
    )
    return _finish(x, frames, times, "stoc-rf", grid_label, oracle, seed)


def langevin_rf(
    oracle: FieldOracle,
    grid,
    n: int,
    seed: int,
    *,
    gamma_scale: float = 1.0,
    record_trajectories: bool = False,
    final_step: bool = False,
) -> SampleBatch:
    """Flow sampler with an extra Langevin channel.

    Adds a score drift with weight γ_t = gamma_scale·(1-t)/t and the
    matching fluctuation √(2·step·γ_t)·ξ to every Euler step.  The weight
    keeps the channel strong early (t near 0) and fades it out near the
    target end.  With ``gamma_scale=0`` the channel — drift, noise, and
    score evaluation — is skipped entirely, and the trajectories coincide
    bitwise with :func:`rf_euler` under the same seed.

    Raises
    ------
    DomainError
        If the grid contains t = 0 (γ diverges) or ``gamma_scale`` is
        negative or non-finite.
    """
    if not (math.isfinite(gamma_scale) and gamma_scale >= 0.0):
        raise DomainError(f"gamma_scale must be finite and >= 0, got {gamma_scale!r}")

    def gamma(t):
        return gamma_scale * (1.0 - t) / t

    def increment(t, step, y):
        # step·(v + γ·s), the operands paired as written
        v = oracle.velocity(t, y)
        update = gamma(t) * oracle.score(t, y)
        update += v
        update *= step
        return update

    def noise_scale(t, step):
        return math.sqrt(2.0 * step * gamma(t))

    if gamma_scale == 0.0:  # the channel is off: no score call and no noise
        increment, noise_scale = _flow_increment(oracle), None
    label = f"langevin(gamma_scale={gamma_scale:.6g})"
    return _euler_steps(
        oracle, grid, n, seed, record_trajectories, final_step,
        "langevin", label, increment, noise_scale,
    )


def ddpm_sample(
    oracle: FieldOracle,
    schedule: DdpmSchedule,
    n: int,
    seed: int,
    *,
    record_trajectories: bool = False,
    final_step: bool = False,
) -> SampleBatch:
    """Run the denoising chain of a discrete noising schedule.

    The chain state lives in its own whitened coordinates; step τ (from N
    down to 2, plus τ = 1 when ``final_step`` is set) applies

        y ← ( y + β_τ·ŝ(y) + ν_τ·ξ_τ ) / √α_τ,
        ν_τ = √( β_τ·(α_τ - ω_τ) / (1 - ω_τ) ),

    where ŝ is the score of the matching flow marginal pulled back through
    the scale map x = σ_{t(τ)}·y with σ_{t(τ)} = t(τ)/√ω_τ.  Outputs (and
    recorded frames) are in sample coordinates x.  Noise block τ uses step
    index i = N - τ, so a shared seed couples this chain step-for-step with
    :func:`stoc_rf` on the induced grid.

    Raises
    ------
    DomainError
        If some α_τ < ω_τ (not a contracting noising chain).
    """
    alphas, omegas, betas = schedule.alphas, schedule.omegas, schedule.betas
    n_chain = schedule.n_steps
    signal_gap = alphas[1:] - omegas[1:]  # α_τ - ω_τ, τ = 1..N
    if np.any(signal_gap < 0.0):
        bad = int(np.flatnonzero(signal_gap < 0.0)[0]) + 1
        raise DomainError(
            f"alpha_{bad} < omega_{bad}: the schedule does not describe a "
            "noising chain"
        )
    rev_omegas = omegas[:0:-1]  # ω_N ... ω_1, indexed by i = N - τ
    times = time_from_mix_weight(rev_omegas)
    sigma = times / np.sqrt(rev_omegas)
    y = substream(seed, INIT_NOISE).standard_normal((n, oracle.dim))
    frames = [sigma[0] * y] if record_trajectories else None
    frame_times = [float(times[0])]
    last_tau = 0 if final_step else 1
    with StepNoise(seed, y.shape, n_chain - last_tau) as noise:
        for tau in range(n_chain, last_tau, -1):
            i = n_chain - tau
            scale = float(sigma[i])
            # (y + β·ŝ + ν·ξ)/√α in place, pairing the operands as written
            update = scale * oracle.score(float(times[i]), scale * y)
            update *= betas[tau]
            update += y
            nu = math.sqrt(betas[tau] * signal_gap[tau - 1] / (1.0 - omegas[tau]))
            xi = noise.block(i)
            xi *= nu
            update += xi
            update /= math.sqrt(alphas[tau])
            y = update
            if tau >= 2:
                t_next, scale_next = float(times[i + 1]), float(sigma[i + 1])
            else:  # the closing step lands on the target end, x = y exactly
                t_next, scale_next = 1.0, 1.0
            _ensure_finite(y, "ddpm", t_next)
            if frames is not None:
                frames.append(scale_next * y)
                frame_times.append(t_next)
    # ``times`` are the induced grid's knots (``ddpm_induced_rf_grid``), so
    # the label needs no second build of that grid.
    induced = TimeGrid(times, GridKind.DDPM_INDUCED, delta=1.0 - float(times[-1]))
    grid_label = induced.describe()
    frame_times = np.asarray(frame_times)
    return _finish(scale_next * y, frames, frame_times, "ddpm", grid_label, oracle, seed, t_next)


@dataclass(frozen=True)
class PushforwardPath:
    """Exact per-knot moments of an affine sampler on a Gaussian target."""

    times: np.ndarray
    mean: np.ndarray
    var_diag: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "mean", "var_diag"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def terminal(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean[-1], self.var_diag[-1]


@dataclass(frozen=True)
class SamplerEntry:
    """One row of :data:`SAMPLERS`: the sampler function's name in this
    module, the recursion :func:`gaussian_pushforward` propagates for it
    (``"flow"`` or ``"whitened"``), and what its grid must provide, in the
    terms of :class:`~flowgrid.schedules.GridEntry`."""

    function: str
    pushforward: str
    needs: frozenset[str] = frozenset()


SAMPLERS: dict[str, SamplerEntry] = {
    "rf": SamplerEntry("rf_euler", "flow"),
    "ddim-rf": SamplerEntry("ddim_rf", "flow", frozenset({"t0>0"})),
    "stoc-rf": SamplerEntry("stoc_rf", "whitened", frozenset({"t0>0"})),
    "ddpm": SamplerEntry("ddpm_sample", "whitened", frozenset({"schedule"})),
    "langevin": SamplerEntry("langevin_rf", "flow", frozenset({"t0>0"})),
}


def _sampler_entry(name: str) -> SamplerEntry:
    if name not in SAMPLERS:
        raise DomainError(f"unknown sampler kind {name!r}; choose from {tuple(SAMPLERS)}")
    return SAMPLERS[name]


def run_sampler(name: str, oracle: FieldOracle, built: BuiltGrid, n: int, seed: int, **kwargs):
    """Run sampler ``name`` on a built grid, or on its schedule for the chain.

    The function is looked up as a module attribute at call time, so a
    wrapper installed on the module sees the call.  Keyword arguments pass
    through.  Raises :class:`DomainError` for an unknown name, a missing
    schedule, or (from the sampler) a grid it cannot run on.
    """
    entry = _sampler_entry(name)
    sampler = globals()[entry.function]
    if "schedule" not in entry.needs:
        return sampler(oracle, built.grid, n, seed, **kwargs)
    if built.schedule is None:
        raise DomainError(f"the {name} sampler runs on its own schedule; use a ddpm-induced grid")
    return sampler(oracle, built.schedule, n, seed, **kwargs)


def gaussian_pushforward(
    target: Target,
    grid,
    sampler: str = "rf",
    *,
    init_mean=None,
    init_var=None,
    final_step: bool = False,
    gamma_scale: float = 1.0,
) -> PushforwardPath:
    """Propagate sampler moments exactly for a single-Gaussian target.

    On such targets the velocity and score are affine in the state, so every
    sampler update is an affine map plus (for the stochastic ones) Gaussian
    noise; mean and per-coordinate variance then evolve in closed form.  The
    returned path holds the moments at every visited knot, in sample
    coordinates.

    ``init_mean``/``init_var`` override the initial law (default standard
    normal) *in the sampler's own state coordinates*: sample coordinates for
    ``rf``/``ddim-rf``/``langevin``, whitened coordinates for ``stoc-rf`` and
    ``ddpm``.  Passing the empirical moments of a concrete initial draw makes
    the deterministic kinds track that finite ensemble exactly, which is how
    the sampler/oracle agreement tests use this.

    ``sampler="ddpm"`` expects the schedule's induced grid (the chain and
    the whitened flow recursion are the same affine map there, coefficient
    for coefficient).

    Raises
    ------
    DomainError
        For mixture targets, unknown sampler kinds, grids that start at 0
        for the score-driven kinds, or negative initial variances.
    """
    if target.n_components != 1:
        raise DomainError(
            "the affine push-forward exists only for single-Gaussian targets"
        )
    entry = _sampler_entry(sampler)
    times, _ = _integration_times(grid, final_step)
    d = target.dim
    m = np.zeros(d) if init_mean is None else np.broadcast_to(
        np.asarray(init_mean, dtype=np.float64), (d,)
    ).copy()
    var = np.ones(d) if init_var is None else np.broadcast_to(
        np.asarray(init_var, dtype=np.float64), (d,)
    ).copy()
    if np.any(var < 0.0) or not np.all(np.isfinite(var)) or not np.all(np.isfinite(m)):
        raise DomainError("initial moments must be finite with var >= 0")

    if entry.pushforward == "whitened":
        coeffs = stoc_rf_coefficients(times)  # validates t_0 > 0
        sigma2 = coeffs.sigma2
        sigma = np.sqrt(sigma2)
        growth = (times[1:] * sigma[:-1]) / (times[:-1] * sigma[1:])
        means = [sigma[0] * m]
        vars_ = [sigma2[0] * var]
        for i in range(times.size - 1):
            _, _, p, q = (c[0] for c in affine_field(target, float(times[i])))
            lin = growth[i] * (1.0 + coeffs.eta[i] * sigma2[i] * p)
            off = growth[i] * coeffs.eta[i] * sigma[i] * q
            m = lin * m + off
            var = lin * lin * var + growth[i] ** 2 * coeffs.psi[i]
            means.append(sigma[i + 1] * m)
            vars_.append(sigma2[i + 1] * var)
        return PushforwardPath(
            times=times, mean=np.stack(means), var_diag=np.stack(vars_)
        )

    _check_start(sampler, times)
    means = [m.copy()]
    vars_ = [var.copy()]
    for i in range(times.size - 1):
        t_i = float(times[i])
        step = float(times[i + 1]) - t_i
        a, b, p, q = (c[0] for c in affine_field(target, t_i))
        noise = 0.0
        if sampler == "rf":
            lin, off = 1.0 + step * a, step * b
        elif sampler == "ddim-rf":
            weight = (1.0 - t_i) / t_i
            lin = 1.0 + step / t_i + step * weight * p
            off = step * weight * q
        else:  # langevin
            gamma = gamma_scale * (1.0 - t_i) / t_i
            lin = 1.0 + step * (a + gamma * p)
            off = step * (b + gamma * q)
            noise = 2.0 * step * gamma
        m = lin * m + off
        var = lin * lin * var + noise
        means.append(m)
        vars_.append(var)
    return PushforwardPath(times=times, mean=np.stack(means), var_diag=np.stack(vars_))


def identity_checks(seed: int = 0) -> list:
    """Algebraic consistency checks across the samplers (``check`` suite).

    Covers the velocity/score exchange identities, the frozen coefficient
    anchors at (t_i, t_{i+1}) = (1/2, 2/3), coefficient invariants and the
    deterministic step identity on induced grids, the agreement of the three
    deterministic code paths, the coupled-noise match between the denoising
    chain and the whitened flow recursion, and the small-β expansions of the
    chain coefficients.
    """
    from .checks import CheckRecord
    from .targets import ExactOracle, score, velocity

    records: list[CheckRecord] = []

    def rec(name: str, observed: float, tolerance: float) -> None:
        records.append(CheckRecord(name, float(observed), float(tolerance)))

    rng = substream(seed, 2)

    # --- velocity/score exchange identities on a part-degenerate mixture ---
    target = Target(
        weights=np.array([0.35, 0.65]),
        means=rng.normal(0.0, 2.0, size=(2, 4)),
        variances=np.array([[1.0, 0.4, 2.5, 0.0], [0.7, 1.8, 0.2, 0.0]]),
    )
    worst_v = worst_s = 0.0
    for t in (0.05, 0.3, 0.5, 0.8, 0.95, 0.999):
        x = rng.normal(0.0, 1.5, size=(64, 4))
        vel = velocity(target, t, x)
        sc = score(target, t, x)
        from_score = x / t + ((1.0 - t) / t) * sc
        from_vel = (t * vel - x) / (1.0 - t)
        worst_v = max(worst_v, float(np.max(np.abs(vel - from_score) / (1.0 + np.abs(vel)))))
        worst_s = max(worst_s, float(np.max(np.abs(sc - from_vel) / (1.0 + np.abs(sc)))))
    rec("exchange-velocity-from-score", worst_v, 1e-11)
    rec("exchange-score-from-velocity", worst_s, 1e-11)

    # --- frozen coefficient anchors at the half/two-thirds step ---
    anchor = stoc_rf_coefficients(np.array([0.5, 2.0 / 3.0]))
    rec("anchor-sigma2", abs(anchor.sigma2[0] - 0.5), 1e-15)
    rec("anchor-signal-fraction", abs(anchor.r2[1] - 0.8), 1e-15)
    rec("anchor-stoc-step", abs(anchor.eta[0] - 0.375), 1e-15)
    rec("anchor-stoc-noise", abs(anchor.psi[0] - 3.0 / 32.0), 1e-15)
    damped = ddim_step_sizes(np.array([0.5, 2.0 / 3.0]))
    rec("anchor-ddim-step", abs(damped[0] - 0.25), 1e-15)
    rec("anchor-ddim-step-identity", abs(damped[0] * 0.5 - 0.125), 1e-15)

    # --- coefficient invariants + deterministic step identity, induced grids ---
    worst_inv = -math.inf
    worst_identity = 0.0
    for n_steps, c0, c1 in ((100, 2.0, 6.0), (200, 2.0, 6.0), (100, 2.0, 1.0)):
        grid = ddpm_induced_rf_grid(build_ddpm_schedule(n_steps, c0, c1))
        coeffs = stoc_rf_coefficients(grid)
        worst_inv = max(
            worst_inv,
            0.5 - float(coeffs.sigma2.min()),
            float(coeffs.sigma2.max()) - 1.0,
            -float(coeffs.r2.min()),
            float(coeffs.r2.max()) - 1.0,
            -float(coeffs.eta.min()),
            float(coeffs.eta.max()) - 1.0,
            -float(coeffs.psi.min()),
        )
        t0, t1 = grid.times[:-1], grid.times[1:]
        lhs = ddim_step_sizes(grid.times) * coeffs.sigma2[:-1]
        rhs = (t1 - t0) * (1.0 - t0) / t1
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs / rhs - 1.0))))
    rec("coefficient-invariants-induced-grids", worst_inv, 0.0)
    rec("ddim-step-identity-induced-grids", worst_identity, 1e-12)

    # --- the three deterministic routes agree pathwise ---
    oracle = ExactOracle(
        Target.gaussian(np.array([2.0, -1.0, 0.5, 3.0]), np.array([1.0, 0.5, 2.0, 0.0]))
    )
    grid = ddpm_induced_rf_grid(build_ddpm_schedule(50, 2.0, 6.0))
    run_seed = int(rng.integers(2**31))
    euler_form = ddim_rf(oracle, grid, 128, run_seed, record_trajectories=True)
    scaled_form = ddim_rf(oracle, grid, 128, run_seed, form="scaled", record_trajectories=True)
    flow = rf_euler(oracle, grid, 128, run_seed, record_trajectories=True)
    rec(
        "ddim-form-agreement",
        float(np.max(np.abs(euler_form.trajectory - scaled_form.trajectory))),
        1e-10,
    )
    rec(
        "ddim-equals-euler-flow",
        float(np.max(np.abs(euler_form.trajectory - flow.trajectory))),
        1e-10,
    )
    zero_noise, _ = _whitened_chain(
        oracle,
        grid.times,
        ddim_step_sizes(grid.times),
        np.zeros(grid.times.size - 1),
        128,
        run_seed,
        False,
        sampler="stoc-rf",
        init=substream(run_seed, INIT_NOISE).standard_normal((128, 4)),
    )
    rec(
        "stoc-zero-noise-matches-ddim",
        float(np.max(np.abs(zero_noise - euler_form.data))),
        1e-10,
    )

    # --- coupled-noise correspondence: denoising chain vs whitened flow ---
    schedule = build_ddpm_schedule(100, 2.0, 6.0)
    chain_oracle = ExactOracle(Target.low_rank(6, 4))
    chain = ddpm_sample(chain_oracle, schedule, 50, run_seed, record_trajectories=True)
    whitened = stoc_rf(
        chain_oracle,
        ddpm_induced_rf_grid(schedule),
        50,
        run_seed,
        record_trajectories=True,
    )
    rec(
        "ddpm-stoc-coupling",
        float(np.max(np.abs(chain.trajectory - whitened.trajectory))),
        1e-10,
    )

    # --- small-β expansions of the chain coefficients -----------------------
    # The guard digits: 1/√α = 1 + β/2 + O(β²); the stochastic drift weight
    # (1-α)/√α = β·(1+O(β)); the damped drift weight and the noise scale pick
    # up their clean β/2 and √β forms only once the surviving signal fraction
    # ω is below 1/2 (early in the chain ν is *smaller* — ν_1 = 0 exactly).
    sched = build_ddpm_schedule(400, 2.0, 6.0)
    beta, alpha = sched.betas[1:], sched.alphas[1:]
    omega, omega_prev = sched.omegas[1:], sched.omegas[:-1]
    inv_root = 1.0 / np.sqrt(alpha)
    rec(
        "small-beta-inv-sqrt-alpha",
        float(np.max(np.abs(inv_root / (1.0 + beta / 2.0) - 1.0) / beta)),
        1.0,
    )
    drift = beta * inv_root  # the chain's drift weight (1 - α_τ)/√α_τ
    rec(
        "small-beta-drift-stochastic",
        float(np.max(np.abs(drift / beta - 1.0) / beta)),
        1.0,
    )
    # Mask to the deep chain: at ω'_τ = ω_{τ-1} the leading relative error of
    # the damped drift is β·(1/2 + 1/(4(1-ω'))), which crosses 1·β right at
    # ω' = 1/2 — stay below ω' = 1/3 so the O(β) constant is cleanly < 1.
    deep = omega_prev < 1.0 / 3.0
    damp = 1.0 + np.sqrt((alpha - omega) / (1.0 - omega))
    damped_drift = beta / damp * inv_root
    rec(
        "small-beta-drift-deterministic",
        float(np.max(np.abs(damped_drift[deep] / (beta[deep] / 2.0) - 1.0) / beta[deep])),
        1.0,
    )
    nu = np.sqrt(beta * (alpha - omega) / (1.0 - omega))
    rec(
        "small-beta-noise-scale",
        float(np.max(np.abs(nu[deep] * inv_root[deep] / np.sqrt(beta[deep]) - 1.0) / beta[deep])),
        1.0,
    )
    return records
