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

:data:`SAMPLERS` is the one table of them (function and grid needs) and
:func:`run_sampler` dispatches through it.  All five run on one step loop,
x ← drift + x [+ c·ξ] [then a post-step], in buffers that are reused every
step and that the oracle fills through ``out``.  Each sampler supplies its
own knots, drift, noise scales, post-step and knot scales: the chain and the
whitened recursion keep their own coefficient arithmetic, and only the code
around it is shared, since comparing them is the check.  The push-forward
keeps its own loop for the same reason.  Trajectories never interact, so
the loop runs the rows in blocks of at most 512 KiB, which stay in cache,
and takes each block through every step, noise or none.  A run holds one
(n, d) array, its result, beside its row blocks: at (2000, 200) a
``stoc-rf`` run's traced peak is 1.69 times that array with inline draws.
The bits do not depend on the blocks.

For single-Gaussian targets every one of these updates is affine in the
state, so mean and per-coordinate variance propagate in closed form;
:func:`gaussian_pushforward` does that propagation in one loop, in sample
coordinates, with one affine step per sampler built from the coefficients
of :func:`~flowgrid.targets.affine_field`, and is the reference the
Monte-Carlo tests compare against.

Noise addressing: the initial state comes from the ``(seed, INIT_NOISE)``
substream and step i's noise from ``(seed, STEP_NOISE, i)``, each an (n, d)
draw read row block after row block, row j belonging to trajectory j.  The
stochastic samplers read their step noise from a
:class:`~flowgrid.rng.StepNoise`, which keeps the next three row blocks
queued for worker threads while a step computes (when blocks are large
enough and a core is free, one thread per free core); a row block depends
only on its address and position, so the values are those of drawing it
inline.  Samplers never share or mutate state across trajectories, so
results are independent of any parallel execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import BatchMeta, SampleBatch, _block_rows, _bounded
from .checks import CheckRecord
from .errors import DomainError, NonFiniteState
from .rng import INIT_NOISE, StepNoise, substream
from .schedules import (
    BuiltGrid,
    DdpmSchedule,
    GridKind,
    TimeGrid,
    _count,
    _freeze,
    _knots,
    build_ddpm_schedule,
    ddpm_induced_rf_grid,
    time_from_mix_weight,
)
from .targets import ExactOracle, FieldOracle, Target, affine_field, score, velocity

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

_FLOAT_MAX = np.finfo(np.float64).max
"""Largest finite float64: a state within ±this everywhere is finite."""


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
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n_steps(self) -> int:
        return self.eta.size


def _positive_knots(times, *, who: str) -> np.ndarray:
    times = _knots(times, f"the times of {who}", at_least=2)
    if times[0] <= 0.0:
        raise DomainError(
            f"{who} is undefined at t = 0 (zero signal fraction); start the "
            "grid strictly inside (0, 1) — e.g. a DDPM-induced grid"
        )
    if times[-1] > 1.0:
        raise DomainError(f"{who} needs times within (0, 1]")
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
    times = _knots(grid, "sampling times")
    if times[0] < 0.0 or times[-1] > 1.0:
        raise DomainError("sampling times must lie in [0, 1]")
    if final_step and times[-1] < 1.0:
        times = np.append(times, 1.0)
    return times, f"custom({times.size} knots)"


def _finish(
    data: np.ndarray, frames: np.ndarray | None, times: np.ndarray, sampler: str,
    grid_label: str, oracle: FieldOracle, seed: int,
) -> SampleBatch:
    target = getattr(oracle, "target", None)
    meta = BatchMeta(
        sampler=sampler,
        grid=grid_label,
        target=target.describe() if isinstance(target, Target) else repr(oracle),
        seed=seed,
        terminal_time=float(times[-1]),
    )
    if frames is None:
        return SampleBatch(data=data, meta=meta)
    return SampleBatch(data=data, meta=meta, trajectory=frames, trajectory_times=times)


def _check_gamma_scale(gamma_scale: float) -> None:
    if not (math.isfinite(gamma_scale) and gamma_scale >= 0.0):
        raise DomainError(f"gamma_scale must be finite and >= 0, got {gamma_scale!r}")


def _check_start(name: str, times: np.ndarray) -> None:
    if "t0>0" in SAMPLERS[name].needs and times[0] <= 0.0:
        raise DomainError(
            f"{name} needs t_0 > 0: its score weight (1-t)/t diverges at t = 0, "
            "where uniform and U-shaped grids start — use a DDPM-induced grid"
        )


def _step_loop(
    oracle: FieldOracle, times: np.ndarray, n: int, seed: int, record: bool, drift, *,
    name: str, noise=None, post=None, scales=None, sample_start: bool = False,
    scratch: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The one step loop of every sampler; step i updates a row block x by

        drift(i, x, u, work);  x += u;  [ξ_i *= noise[i];  x += ξ_i];  [post(i, x)]

    in place: x + u is the sum u + x, since adding two floats commutes, so
    the bits are those of forming the new state in u, and a step allocates
    and copies no array.  Rows never interact, so every sampler runs its
    rows in blocks of ``_block_rows(d * 8)`` rows, at most 512 KiB, that stay
    in cache: blocks outer, steps inner.  The state is one block buffer, and
    each block's terminal state is written into the (n, d) result.  ξ_i is
    the block's rows of step i's noise, read from a
    :class:`~flowgrid.rng.StepNoise` (``noise=None``: no noise is drawn).
    ``drift`` writes its term into the block buffer u, the oracle filling u
    through ``out``, and never writes x; ``work`` is a second block buffer
    for a term it cannot form in u (σ·z, y/t, the velocity beside the
    score), allocated only if ``scratch`` and None otherwise.

    x starts as the ``(seed, INIT_NOISE)`` draw, read block after block from
    one generator (the values of one (n, d) draw), divided by ``scales[0]``
    if ``sample_start`` (the draw is in sample coordinates); ``scales[i]·x``
    is the state in sample coordinates (``None``: x already is).  After
    each step a block must be finite, checked by one min and one max; a
    block that fails stops its rows there, later blocks run only up to that
    step, and :class:`NonFiniteState`, labelled ``name``, names the earliest
    failing knot over all rows.

    Returns the terminal state and, if ``record``, the (steps + 1, n, d)
    array of the per-knot states in sample coordinates, whose last frame
    equals the returned state.  The frames are one array allocated up
    front; frame i is written from the state x at knot i, as a copy of x
    without scales and as ``scales[i]·x`` with them.
    """
    _count(n, "the sample count", 1)
    steps, d = times.size - 1, oracle.dim
    frames = np.empty((steps + 1, n, d)) if record else None
    rows = min(n, _block_rows(d * 8))
    blocks = [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    update = np.empty((rows, d))
    spare = np.empty((rows, d)) if scratch else None
    draw = substream(seed, INIT_NOISE)
    failed = steps  # the earliest step whose state is not finite, in any block

    def keep(i: int, block: slice, x: np.ndarray) -> None:
        if not record:
            return
        if scales is None:
            frames[i, block] = x
        else:
            np.multiply(scales[i], x, out=frames[i, block])

    state = np.empty((rows, d))
    result = np.empty((n, d)) if len(blocks) > 1 and not record else None
    with StepNoise(seed, (n, d), 0 if noise is None else steps, rows) as noise_rows:
        for block in blocks:
            x = state[: block.stop - block.start]
            u = update[: len(x)]
            work = None if spare is None else spare[: len(x)]
            draw.standard_normal(out=x)
            if sample_start:
                x /= scales[0]
            keep(0, block, x)
            for i in range(failed):
                drift(i, x, u, work)
                x += u  # x + drift: the sum drift + x, since adding two floats commutes
                if noise is not None:
                    xi = noise_rows.block(i)
                    xi *= noise[i]
                    x += xi
                if post is not None:
                    post(i, x)
                if not _bounded(x, _FLOAT_MAX):
                    failed = i
                    break
                keep(i + 1, block, x)
            if failed == steps and not record:
                if scales is not None:
                    np.multiply(scales[steps], x, out=x)
                if result is None:  # one block: its buffer is the result
                    result = x
                else:
                    result[block] = x
    if failed < steps:
        raise NonFiniteState(
            f"{name} produced a non-finite state at t = {float(times[failed + 1]):.6g}; "
            "the field/grid pairing is unstable"
        )
    if record:  # the batch's data is a copy: it shares no memory with its trajectory
        return frames[steps].copy(), frames
    return result, None


def _euler_steps(
    oracle: FieldOracle, grid, n: int, seed: int, record: bool, final_step: bool,
    name: str, label: str, increment, noise_scale=None, scratch: bool = False,
) -> SampleBatch:
    """Euler steps y ← y + increment(t_i, Δ_i, y) [+ noise_scale(t_i, Δ_i)·ξ_i].

    ``increment(t, step, y, out, work)`` writes step·drift into ``out``, so
    the operands pair as in y + step·drift + c·ξ; ``work`` is the step
    loop's scratch buffer (None unless ``scratch``).  ``noise_scale=None``
    draws no noise.  ``name`` is the sampler's :data:`SAMPLERS` key,
    ``label`` its batch metadata name.
    """
    times, grid_label = _integration_times(grid, final_step)
    _check_start(name, times)
    knots = [float(t) for t in times]
    gaps = [t_next - t_i for t_i, t_next in zip(knots, knots[1:])]
    noise = None
    if noise_scale is not None:
        noise = [noise_scale(t_i, step) for t_i, step in zip(knots, gaps)]

    def drift(i, y, out, work):
        increment(knots[i], gaps[i], y, out, work)

    y, frames = _step_loop(
        oracle, times, n, seed, record, drift, name=name, noise=noise, scratch=scratch
    )
    return _finish(y, frames, times, label, grid_label, oracle, seed)


def _flow_increment(oracle: FieldOracle):
    def increment(t, step, y, out, work):
        oracle.velocity(t, y, out=out)
        out *= step  # step·v: a product of two floats commutes exactly

    return increment


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
        x, frames = _whitened_chain(
            oracle, times, ddim_step_sizes(times), None, n, seed, record_trajectories,
            sampler=label, sample_start=True,
        )
        return _finish(x, frames, times, label, grid_label, oracle, seed)
    if form != "euler":
        raise DomainError(f"unknown update form {form!r}: use 'euler' or 'scaled'")

    def increment(t, step, y, out, work):
        # step·(y/t + ((1-t)/t)·s), the sum taken in the other order: it commutes
        oracle.score(t, y, out=out)
        out *= (1.0 - t) / t
        out += np.divide(y, t, out=work)
        out *= step

    return _euler_steps(
        oracle, grid, n, seed, record_trajectories, final_step, "ddim-rf", label, increment,
        scratch=True,
    )


def _whitened_chain(
    oracle: FieldOracle, times: np.ndarray, eta: np.ndarray, psi: np.ndarray | None,
    n: int, seed: int, record: bool, *, sampler: str, sample_start: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The scaled-coordinate recursion shared by the score samplers.

    The whitened state z_i = y_{t_i}/σ_{t_i} evolves by

        z_{i+1} = (R_{i+1}/R_i)·( z_i + eta_i·σ_{t_i}·s(t_i, σ_{t_i} z_i)
                                      [ + √psi_i·ξ_i ] ),

    on the step loop with knot scales σ and the growth R_{i+1}/R_i as its
    post-step; the noise term is there only when ``psi`` is given (the
    deterministic variant passes None and draws nothing).  By default
    z_0 ~ N(0, I) — the stochastic sampler's convention; ``sample_start``
    takes that draw as y_0 instead (z_0 = y_0/σ_{t_0}), which is how the
    deterministic variant shares its N(0, I) start with the plain Euler
    flow.  Returns the terminal state and optional per-knot frames, both in
    sample coordinates y = σ_t·z.
    """
    sigma = np.sqrt(interpolation_scale2(times))
    # R_{i+1}/R_i with R = t/σ, as one positive factor per step.
    growth = (times[1:] * sigma[:-1]) / (times[:-1] * sigma[1:])

    def drift(i, z, out, work):
        oracle.score(float(times[i]), np.multiply(sigma[i], z, out=work), out=out)
        out *= eta[i] * sigma[i]

    def post(i, update):
        update *= growth[i]

    noise = None if psi is None else [math.sqrt(p) for p in psi]
    return _step_loop(
        oracle, times, n, seed, record, drift,
        name=sampler, noise=noise, post=post, scales=sigma, sample_start=sample_start,
        scratch=True,
    )


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
        oracle, times, coeffs.eta, coeffs.psi, n, seed, record_trajectories, sampler="stoc-rf"
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
    _check_gamma_scale(gamma_scale)

    def gamma(t):
        return gamma_scale * (1.0 - t) / t

    def noise_scale(t, step):
        return math.sqrt(2.0 * step * gamma(t))

    channel = gamma_scale != 0.0
    if channel:
        def increment(t, step, y, out, work):
            # step·(v + γ·s), the operands paired as written
            oracle.velocity(t, y, out=work)
            oracle.score(t, y, out=out)
            out *= gamma(t)
            out += work
            out *= step

    else:  # the channel is off: no score call and no noise
        increment, noise_scale = _flow_increment(oracle), None
    label = f"langevin(gamma_scale={gamma_scale:.6g})"
    return _euler_steps(
        oracle, grid, n, seed, record_trajectories, final_step,
        "langevin", label, increment, noise_scale, scratch=channel,
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
    the scale map x = σ_{t(τ)}·y with σ_{t(τ)} = t(τ)/√ω_τ.  On the step
    loop this is drift (σ_{t(τ)}·s)·β_τ, noise scale ν_τ, post-step
    division by √α_τ and knot scales σ; the closing step of ``final_step``
    lands on the knot t = 1 with scale 1 (x = y exactly there).  Outputs
    (and recorded frames) are in sample coordinates x.  Noise block τ uses
    step index i = N - τ, so a shared seed couples this chain step-for-step
    with :func:`stoc_rf` on the induced grid.

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
    # ``times`` are the induced grid's knots (``ddpm_induced_rf_grid``), so
    # the label needs no second build of that grid.
    induced = TimeGrid(times, GridKind.DDPM_INDUCED, delta=1.0 - float(times[-1]))
    taus = range(n_chain, 0 if final_step else 1, -1)
    nu = [math.sqrt(betas[tau] * signal_gap[tau - 1] / (1.0 - omegas[tau])) for tau in taus]
    if final_step:
        times, sigma = np.append(times, 1.0), np.append(sigma, 1.0)

    def drift(i, y, out, work):
        scale = float(sigma[i])
        oracle.score(float(times[i]), np.multiply(scale, y, out=work), out=out)
        out *= scale
        out *= betas[n_chain - i]

    def post(i, update):
        update /= math.sqrt(alphas[n_chain - i])

    x, frames = _step_loop(
        oracle, times, n, seed, record_trajectories, drift,
        name="ddpm", noise=nu, post=post, scales=sigma, scratch=True,
    )
    return _finish(x, frames, times, "ddpm", induced.describe(), oracle, seed)


@dataclass(frozen=True)
class PushforwardPath:
    """Exact per-knot moments of an affine sampler on a Gaussian target."""

    times: np.ndarray
    mean: np.ndarray
    var_diag: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "mean", "var_diag"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def terminal(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean[-1], self.var_diag[-1]


@dataclass(frozen=True)
class SamplerEntry:
    """One row of :data:`SAMPLERS`: the sampler function's name in this
    module and what its grid must provide, in the terms of
    :class:`~flowgrid.schedules.GridEntry`."""

    function: str
    needs: frozenset[str] = frozenset()


SAMPLERS: dict[str, SamplerEntry] = {
    "rf": SamplerEntry("rf_euler"),
    "ddim-rf": SamplerEntry("ddim_rf", frozenset({"t0>0"})),
    "stoc-rf": SamplerEntry("stoc_rf", frozenset({"t0>0"})),
    "ddpm": SamplerEntry("ddpm_sample", frozenset({"schedule"})),
    "langevin": SamplerEntry("langevin_rf", frozenset({"t0>0"})),
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
    noise.  One loop moves mean and per-coordinate variance by

        m ← lin·m + off,      v ← lin²·v + noise,

    each sampler's (lin, off, noise) built from the field's coefficients
    (a, b, p, q) of :func:`~flowgrid.targets.affine_field` and the sampler's
    coefficient arrays.  ``stoc-rf`` and ``ddpm`` take their whitened update
    in sample coordinates, y ← (t_{i+1}/t_i)·(y + η_iσ_i²·s(t_i, y) +
    σ_i√ψ_i·ξ).  The returned path holds the moments at every visited knot.

    ``init_mean``/``init_var`` override the initial law, in sample
    coordinates for every sampler.  The default is each sampler's own start:
    N(0, I) for ``rf``/``ddim-rf``/``langevin`` and N(0, σ_{t_0}²·I) for
    ``stoc-rf``/``ddpm``, whose whitened state starts at N(0, I).  Passing
    the empirical moments of a concrete initial draw makes the deterministic
    kinds track that finite ensemble exactly, which is how the
    sampler/oracle agreement tests use this.

    ``sampler="ddpm"`` expects the schedule's induced grid (the chain and
    the whitened flow recursion are the same affine map there, coefficient
    for coefficient).

    Raises
    ------
    DomainError
        For mixture targets, unknown sampler kinds, grids that start at 0
        for the score-driven kinds, a negative or non-finite
        ``gamma_scale``, negative initial variances, or initial moments
        that do not broadcast to the target's shape (d,).
    """
    if target.n_components != 1:
        raise DomainError(
            "the affine push-forward exists only for single-Gaussian targets"
        )
    _sampler_entry(sampler)
    _check_gamma_scale(gamma_scale)
    times, _ = _integration_times(grid, final_step)
    _check_start(sampler, times)
    whitened = sampler in ("stoc-rf", "ddpm")
    if whitened:
        coeffs = stoc_rf_coefficients(times)  # validates t_0 > 0
    start_var = coeffs.sigma2[0] if whitened else 1.0
    try:
        m = np.full(target.dim, 0.0 if init_mean is None else init_mean, dtype=np.float64)
        var = np.full(target.dim, start_var if init_var is None else init_var, dtype=np.float64)
    except ValueError:
        raise DomainError(f"init_mean and init_var must broadcast to ({target.dim},)") from None
    if np.any(var < 0.0) or not np.all(np.isfinite(var)) or not np.all(np.isfinite(m)):
        raise DomainError("initial moments must be finite with var >= 0")

    means = [m]
    vars_ = [var]
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
        elif sampler == "langevin":
            gamma = gamma_scale * (1.0 - t_i) / t_i
            lin = 1.0 + step * (a + gamma * p)
            off = step * (b + gamma * q)
            noise = 2.0 * step * gamma
        else:  # stoc-rf and ddpm
            grow = float(times[i + 1]) / t_i
            drift = coeffs.eta[i] * coeffs.sigma2[i]
            lin, off = grow * (1.0 + drift * p), grow * drift * q
            noise = grow * grow * coeffs.sigma2[i] * coeffs.psi[i]
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
    records: list[CheckRecord] = []

    def rec(name: str, observed: float, tolerance: float) -> None:
        records.append(CheckRecord(name, observed, float(tolerance)))

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
        oracle, grid.times, ddim_step_sizes(grid.times), np.zeros(grid.times.size - 1),
        128, run_seed, False, sampler="stoc-rf", sample_start=True,
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
