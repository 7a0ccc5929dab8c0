"""Time grids and noising schedules.

The samplers in this package integrate on a finite grid of times in [0, 1].
Three grid families are provided:

* uniform grids ``t_i = i/N``,
* U-shaped grids that grow geometrically out of ``t = δ`` and contract
  geometrically into ``t = 1 - δ`` (dense near both endpoints, where the
  velocity field of a degenerate target is stiff),
* the grid induced on flow time by a discrete denoising-diffusion schedule,
  via the mixing weight ω ↦ t(ω) = √ω/(√ω + √(1-ω)).

All constructors validate their inputs and raise :class:`DomainError` on
structural problems.  :data:`GRIDS` maps each :class:`GridKind` to its one
builder, which the sweep harness and the CLI both call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "GridKind",
    "TimeGrid",
    "DdpmSchedule",
    "solve_growth",
    "build_uniform_grid",
    "build_ushaped_grid",
    "build_ddpm_schedule",
    "ddpm_induced_rf_grid",
    "time_from_mix_weight",
    "default_delta",
    "BuiltGrid",
    "GridEntry",
    "GRIDS",
    "GRID_FLAGS",
]


class GridKind(str, enum.Enum):
    """Families of integration grids."""

    UNIFORM = "uniform"
    USHAPED = "ushaped"
    DDPM_INDUCED = "ddpm-induced"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _freeze(a) -> np.ndarray:
    """A read-only, C-contiguous float64 view of ``a`` (copied only if ``a`` is
    not one already); the caller's own array stays writeable."""
    view = np.ascontiguousarray(a, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def _knots(times, what: str, *, at_least: int = 1) -> np.ndarray:
    """A frozen copy of ``times``, once it is a 1-D run of at least
    ``at_least`` finite, strictly increasing knots (a copy, so a later write to
    the caller's array cannot undo the checks); ``what`` names it in the
    :class:`DomainError` raised otherwise.  Each caller checks its own range."""
    t = _freeze(np.array(times, dtype=np.float64))
    if t.ndim != 1 or t.size < at_least:
        raise DomainError(f"{what} must be a 1-D array of {at_least} or more knots")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
        raise DomainError(f"{what} must be finite and strictly increasing")
    return t


@dataclass(frozen=True)
class TimeGrid:
    """An ordered set of integration times.

    ``times`` is strictly increasing and contained in [0, 1].  For the
    uniform and U-shaped kinds it has ``n_steps + 1`` knots with
    ``times[0] = 0`` and ``times[-1] = 1``; a DDPM-induced grid has
    ``n_steps`` knots, all strictly inside (0, 1) (the noising chain's
    endpoint states are not sampling times).

    ``delta`` is the terminal gap ``1 - times[-2]`` of a U-shaped grid (its
    construction parameter) or ``1 - times[-1]`` of a DDPM-induced grid; it
    is ``None`` for uniform grids.  ``growth`` is the geometric growth factor
    of a U-shaped grid and ``None`` otherwise.
    """

    times: np.ndarray
    kind: GridKind
    delta: float | None = None
    growth: float | None = None

    def __post_init__(self) -> None:
        t = _knots(self.times, "grid times", at_least=2)
        object.__setattr__(self, "times", t)
        if t[0] < 0.0 or t[-1] > 1.0:
            raise DomainError("grid times must lie in [0, 1]")
        if self.kind is not GridKind.DDPM_INDUCED:
            if t[0] != 0.0 or t[-1] != 1.0:
                raise DomainError(
                    f"{self.kind.value} grids must run from 0 to 1 inclusive"
                )

    @property
    def n_steps(self) -> int:
        """The schedule size N the grid was built for."""
        n = self.times.size
        return n if self.kind is GridKind.DDPM_INDUCED else n - 1

    def step_sizes(self) -> np.ndarray:
        """Gaps η_i = times[i+1] - times[i] between consecutive knots."""
        return np.diff(self.times)

    def integration_times(self, final_step: bool = False) -> np.ndarray:
        """The knots a sampler visits, in order.

        Integration stops one knot short of ``t = 1`` (the exact-oracle
        velocity of a degenerate target blows up there); grids that do not
        contain 1 are traversed in full.  With ``final_step=True`` a closing
        knot at exactly 1.0 is appended.
        """
        knots = self.times[self.times < 1.0]
        if final_step:
            knots = np.append(knots, 1.0)
        return knots

    def describe(self) -> str:
        """One-line descriptor used in batch metadata."""
        bits = [f"N={self.n_steps}"]
        if self.delta is not None:
            bits.append(f"delta={self.delta:.6g}")
        if self.growth is not None:
            bits.append(f"growth={self.growth:.6g}")
        return f"{self.kind.value}({', '.join(bits)})"


def solve_growth(n_steps: int, delta: float) -> float:
    """Growth factor h of the U-shaped grid with N steps and endpoint gap δ.

    h is the unique positive solution of δ(1+h)^((N-2)/2) = 1/2 — the
    geometric ramp must reach the midpoint in N/2 - 1 multiplications:

        h = expm1(2·log(1/(2δ)) / (N - 2)).

    The degenerate input δ = 1/2 is accepted and yields h = 0 (the ramp is
    already at the midpoint); δ > 1/2 has no solution.

    Raises
    ------
    DomainError
        If ``n_steps`` is odd or < 4, or δ is outside (0, 1/2].
    """
    _validate_ushaped_args(n_steps, delta, closed_right=True)
    return math.expm1(2.0 * math.log(1.0 / (2.0 * delta)) / (n_steps - 2))


def _validate_ushaped_args(n_steps: int, delta: float, *, closed_right: bool) -> None:
    if not isinstance(n_steps, (int, np.integer)):
        raise DomainError("n_steps must be an integer")
    if n_steps < 4 or n_steps % 2 != 0:
        raise DomainError(
            f"U-shaped grids need an even number of steps >= 4, got {n_steps}"
        )
    hi_ok = delta <= 0.5 if closed_right else delta < 0.5
    if not (0.0 < delta and hi_ok and math.isfinite(delta)):
        rng = "(0, 1/2]" if closed_right else "(0, 1/2)"
        raise DomainError(f"delta must lie in {rng}, got {delta!r}")


def build_uniform_grid(n_steps: int) -> TimeGrid:
    """The grid t_i = i/N, i = 0..N.

    Raises
    ------
    DomainError
        If ``n_steps`` < 1.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise DomainError(f"n_steps must be a positive integer, got {n_steps!r}")
    times = np.arange(n_steps + 1, dtype=np.float64) / n_steps
    return TimeGrid(times=times, kind=GridKind.UNIFORM)


def build_ushaped_grid(n_steps: int, delta: float) -> TimeGrid:
    """Geometric-ramp grid: 0, δ, δ(1+h), ..., ~1/2, ..., 1-δ(1+h), 1-δ, 1.

    The first half grows geometrically from δ with the factor returned by
    :func:`solve_growth`; the second half mirrors it (t_{N-j} = 1 - t_j), so
    the grid is symmetric about 1/2 and its interior steps satisfy
    η_i = h·t_i on the way up and η_i = h·(1-t_{i+1}) on the way down.

    Raises
    ------
    DomainError
        If ``n_steps`` is odd or < 4, or δ is outside the open interval
        (0, 1/2) — δ = 1/2 would collapse the interior knots.
    """
    _validate_ushaped_args(n_steps, delta, closed_right=False)
    h = solve_growth(n_steps, delta)
    half = n_steps // 2
    times = np.empty(n_steps + 1, dtype=np.float64)
    times[0] = 0.0
    times[1 : half + 1] = delta * (1.0 + h) ** np.arange(half, dtype=np.float64)
    times[half + 1 : n_steps] = 1.0 - times[half - 1 : 0 : -1]
    times[n_steps] = 1.0
    return TimeGrid(times=times, kind=GridKind.USHAPED, delta=delta, growth=h)


@dataclass(frozen=True)
class DdpmSchedule:
    """A discrete noising schedule β_1..β_N with its products.

    Arrays are indexed by the chain step τ = 0..N, with the τ = 0 slots
    holding the conventions β_0 = 0, α_0 = 1, ω_0 = 1 (ω_τ = ∏_{j<=τ} α_j is
    the surviving signal fraction after τ noising steps).
    """

    betas: np.ndarray
    alphas: np.ndarray = field(repr=False)
    omegas: np.ndarray = field(repr=False)
    c0: float
    c1: float

    def __post_init__(self) -> None:
        for name in ("betas", "alphas", "omegas"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n_steps(self) -> int:
        return self.betas.size - 1


def build_ddpm_schedule(n_steps: int, c0: float = 2.0, c1: float = 6.0) -> DdpmSchedule:
    """Geometric-warmup noising schedule.

    With b = c1·log(N)/N the betas are

        β_1     = N^(-c0),
        β_(τ+1) = b · min{β_1 (1+b)^τ, 1},     τ = 1..N-1,

    i.e. a geometric ramp capped at the constant rate b.  The cap is reached
    only when c0·log(N) ramp decades fit inside N steps; with too small a c1
    the schedule stays in warmup throughout and the chain barely noises.

    Raises
    ------
    DomainError
        If N < 2, or any β_τ falls outside (0, 1) — e.g. c1 >= N/log(N),
        or a non-positive c0/c1.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 2:
        raise DomainError(f"n_steps must be an integer >= 2, got {n_steps!r}")
    n = int(n_steps)
    b = c1 * math.log(n) / n
    betas = np.zeros(n + 1, dtype=np.float64)
    betas[1] = float(n) ** (-c0)
    tau = np.arange(1, n, dtype=np.float64)
    betas[2:] = b * np.minimum(betas[1] * (1.0 + b) ** tau, 1.0)
    bad = np.flatnonzero((betas[1:] <= 0.0) | (betas[1:] >= 1.0))
    if bad.size:
        raise DomainError(
            f"beta_{bad[0] + 1} = {betas[bad[0] + 1]:.6g} is outside (0, 1); "
            f"got c0={c0!r}, c1={c1!r}, N={n}"
        )
    alphas = 1.0 - betas
    alphas[0] = 1.0
    omegas = np.cumprod(alphas)
    return DdpmSchedule(betas=betas, alphas=alphas, omegas=omegas, c0=c0, c1=c1)


def time_from_mix_weight(omega):
    """Flow time carrying the same signal/noise mix as weight ω.

    A state √ω·X + √(1-ω)·Z matches the flow interpolation t·X + (1-t)·Z
    after rescaling iff t/√ω = (1-t)/√(1-ω), i.e.

        t(ω) = √ω / (√ω + √(1-ω)).

    Accepts scalars or arrays with entries in (0, 1); the closed endpoints
    map to 0 and 1 but carry no mix.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if np.any(omega < 0.0) or np.any(omega > 1.0):
        raise DomainError("mixing weights must lie in [0, 1]")
    root = np.sqrt(omega)
    out = root / (root + np.sqrt(1.0 - omega))
    return float(out) if out.ndim == 0 else out


def ddpm_induced_rf_grid(schedule: DdpmSchedule) -> TimeGrid:
    """The flow-time grid a noising schedule induces.

    Running the denoising chain from τ = N down to τ = 1 visits mixing
    weights ω_N < ... < ω_1, i.e. flow times t(ω_N) < ... < t(ω_1); the grid
    is those times in increasing order, ``times[i] = t(ω_{N-i})``.  The grid
    starts at t(ω_N) > 0 (near 0 only if the schedule noises fully) and ends
    at t(ω_1) = 1 - O(√β_1) < 1; its ``delta`` records the terminal gap
    ``1 - t(ω_1)``.
    """
    omegas = schedule.omegas[1:]
    times = time_from_mix_weight(omegas[::-1])
    return TimeGrid(
        times=times,
        kind=GridKind.DDPM_INDUCED,
        delta=1.0 - float(times[-1]),
    )


def default_delta(n_steps: int, dim: int | None = None) -> float:
    """Endpoint gap used when none is given: min{1/N, 1/d} (1/N if no dim)."""
    if n_steps < 1:
        raise DomainError("n_steps must be positive")
    if dim is None:
        return 1.0 / n_steps
    if dim < 1:
        raise DomainError("dim must be positive")
    return min(1.0 / n_steps, 1.0 / dim)


@dataclass(frozen=True)
class BuiltGrid:
    """A grid, the blur level δ its samples are scored against, and the
    noising schedule behind it (DDPM-induced grids only)."""

    grid: TimeGrid
    delta: float
    schedule: DdpmSchedule | None = None


@dataclass(frozen=True)
class GridEntry:
    """One row of :data:`GRIDS`: ``build(n_steps, delta, c0, c1)`` and what
    the grid provides a sampler — ``"t0>0"``, a first knot inside (0, 1), and
    ``"schedule"``, its :class:`DdpmSchedule`.  The δ rule: a DDPM-induced
    grid is scored against its own terminal gap, the others against
    ``delta``, which also sets the U-shaped grid's gap."""

    build: Callable[..., BuiltGrid]
    provides: frozenset[str] = frozenset()


# Each builder looks its constructors up at call time, so a wrapper installed
# on this module (a tracer, say) sees every build.
def _uniform(n_steps: int, delta: float, c0: float = 2.0, c1: float = 6.0) -> BuiltGrid:
    return BuiltGrid(build_uniform_grid(n_steps), delta)


def _ushaped(n_steps: int, delta: float, c0: float = 2.0, c1: float = 6.0) -> BuiltGrid:
    return BuiltGrid(build_ushaped_grid(n_steps, delta), delta)


def _ddpm_induced(n_steps: int, delta: float, c0: float = 2.0, c1: float = 6.0) -> BuiltGrid:
    schedule = build_ddpm_schedule(n_steps, c0, c1)
    grid = ddpm_induced_rf_grid(schedule)
    return BuiltGrid(grid, grid.delta, schedule)


GRIDS: dict[GridKind, GridEntry] = {
    GridKind.UNIFORM: GridEntry(_uniform),
    GridKind.USHAPED: GridEntry(_ushaped),
    GridKind.DDPM_INDUCED: GridEntry(_ddpm_induced, frozenset({"t0>0", "schedule"})),
}

GRID_FLAGS: dict[str, GridKind] = {
    spelling: kind
    for kind in GRIDS
    for spelling in (kind.value, kind.value.removesuffix("-induced"))
}
"""Every accepted grid spelling, the kind names plus ``ddpm`` for the
DDPM-induced kind: the choices of ``flowgrid schedule --kind`` and
``flowgrid sample --grid``, also accepted by a config's ``grids`` key."""
