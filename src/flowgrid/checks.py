"""Self-check suites behind ``flowgrid check``.

Each suite returns a list of :class:`CheckRecord`; a record passes when its
observed value is at most its tolerance.  The suites cover

* ``grid`` — construction identities and step-size inequalities of the
  U-shaped grid, on randomized (N, δ) pairs;
* ``equivalence`` — time-change round trips and the cross-process marginal
  match of the forward simulators;
* ``covariance`` — the posterior-covariance ODE residual on 1-D targets;
* ``identities`` — algebraic relations tying the samplers together
  (velocity/score consistency, update-coefficient identities, the
  deterministic two-form agreement, and the coupled-noise correspondence
  between the diffusion chain and the stochastic flow sampler).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .schedules import TimeGrid, build_ushaped_grid

__all__ = [
    "CheckRecord",
    "grid_identity_checks",
    "grid_suite",
    "equivalence_suite",
    "covariance_suite",
    "identities_suite",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check: passes iff observed <= tolerance.

    ``observed`` is stored as a Python ``float``, so a numpy scalar handed in
    prints as a plain number in a suite's CSV.
    """

    name: str
    observed: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "observed", float(self.observed))

    @property
    def passed(self) -> bool:
        return bool(self.observed <= self.tolerance)


def _rel_excess(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """How far lhs exceeds rhs, relative to rhs (0 when lhs <= rhs)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = (lhs - rhs) / np.abs(rhs)
    excess = excess[np.isfinite(excess)]
    return float(excess.max(initial=0.0))


def grid_identity_checks(grid: TimeGrid, tag: str = "") -> list[CheckRecord]:
    """Construction identities and step inequalities for one U-shaped grid.

    The interior steps of the grid (1 <= i <= N-2) obey, with h the growth
    factor and η_i = t_{i+1} - t_i:

    * η_i = h·t_i while t_i < 1/2 and η_i = h·(1 - t_{i+1}) afterwards,
    * η_i <= h·(1 - t_i) and η_i <= h·(1 - t_{i+1}),
    * η_i·(1 - t_i)/(1 - t_{i+1}) <= h,
    * Σ η_i² / ((1 - t_{i+1})²·t_i²) <= 4·h²·N,

    and every pair with t_i > 0 (including the last step) satisfies the
    inverse-square gap estimate
    (1-t_i)²/t_i² - (1-t_{i+1})²/t_{i+1}² <= 2·η_i/t_i³.
    """
    if grid.growth is None or grid.delta is None:
        raise DomainError("grid identity checks apply to U-shaped grids")
    t = grid.times
    n = grid.n_steps
    h = grid.growth
    delta = grid.delta
    tol = 1e-12
    recs: list[CheckRecord] = []

    def rec(name: str, observed: float, tolerance: float = tol) -> None:
        recs.append(CheckRecord(f"{name}{tag}", observed, tolerance))

    rec(
        "endpoint-gaps",
        max(
            abs(t[0]),
            abs(t[1] - delta) / delta,
            abs(t[-2] - (1.0 - delta)),
            abs(t[-1] - 1.0),
        ),
    )
    rec("mirror-symmetry", np.abs(t + t[::-1] - 1.0).max())
    rec("midpoint", abs(t[n // 2] - 0.5))
    rec("geometric-ramp", abs(delta * (1.0 + h) ** ((n - 2) / 2) - 0.5))

    # Quantities near t = 1 are evaluated through the grid's mirror
    # (1 - t_j is the stored knot t_{N-j}), which keeps them relative-exact
    # instead of losing delta-sized gaps to cancellation against 1.0.
    mirror = t[::-1]
    gap = np.where(t <= 0.5, 1.0 - t, mirror)  # 1 - t_j, cancellation-free
    half = n // 2
    eta = np.diff(t)
    eta[half:] = -np.diff(mirror)[half:]

    # Interior steps 1..N-2; the ramp/contraction split is by index (the
    # midpoint knot is exactly 1/2 only up to rounding, so comparing it
    # against 0.5 would pick the branch by fp accident).
    idx = np.arange(1, n - 1)
    ti, tnext, et = t[idx], t[idx + 1], eta[idx]
    gi, gnext = gap[idx], gap[idx + 1]
    law = np.where(idx < half, h * ti, h * gnext)
    rec("interior-step-law", np.abs(et / law - 1.0).max())
    rec("step-over-gap", _rel_excess(et, h * gi))
    rec("step-over-next-gap", _rel_excess(et, h * gnext))
    rec("contraction-ratio", _rel_excess(et * gi / gnext, h))
    weighted = np.sum(et**2 / (gnext**2 * ti**2))
    rec("weighted-step-sum", _rel_excess(weighted, 4.0 * h * h * n))

    # All steps out of a positive time, including the final contraction step.
    pos, pos_eta = t[1:-1], eta[1:]
    ratios = gap[1:] / t[1:]
    gap_drop = ratios[:-1] ** 2 - ratios[1:] ** 2
    rec("gap-difference-bound", _rel_excess(gap_drop, 2.0 * pos_eta / pos**3))

    rec(
        "growth-bound",
        _rel_excess(np.array(h), np.array(8.0 * math.log(1.0 / (2.0 * delta)) / n)),
    )
    return recs


def random_grid_cases(
    seed: int,
    n_cases: int = 50,
    max_growth: float = 0.5,
    min_growth: float = 2e-3,
) -> list[tuple[int, float]]:
    """Random (N, δ) pairs whose U-shaped growth factor h stays in bounds.

    δ is sampled log-uniformly in the band that keeps
    h = expm1(2·log(1/(2δ))/(N-2)) inside [min_growth, max_growth]:

    * the cap is the regime the step-size inequalities are designed for —
      very small N with very small δ forces single steps longer than the
      whole interval, where the growth bound h <= 8·log(1/(2δ))/N genuinely
      fails;
    * the floor keeps the per-step increments resolvable in doubles, so the
      1e-12-relative identity checks measure the construction instead of
      rounding noise (η/t carries an absolute error of order ε/h).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cases: list[tuple[int, float]] = []
    log1p_cap = math.log1p(max_growth)
    log1p_floor = math.log1p(min_growth)
    for _ in range(n_cases):
        n = 2 * int(rng.integers(5, 201))
        lo = math.log(max(1e-12, 0.5 * math.exp(-(n - 2) * log1p_cap / 2.0)))
        hi = math.log(min(0.45, 0.5 * math.exp(-(n - 2) * log1p_floor / 2.0)))
        delta = math.exp(rng.uniform(lo, hi))
        cases.append((n, delta))
    return cases


def grid_suite(seed: int = 0, n_cases: int = 50) -> list[CheckRecord]:
    """Grid identities on ``n_cases`` randomized U-shaped grids."""
    records: list[CheckRecord] = []
    for n, delta in random_grid_cases(seed, n_cases):
        grid = build_ushaped_grid(n, delta)
        records.extend(grid_identity_checks(grid, tag=f"[N={n},delta={delta:.3e}]"))
    return records


def equivalence_suite(seed: int = 0) -> list[CheckRecord]:
    """Time-change round trips plus the forward-marginal match."""
    from . import localization as loc

    return loc.equivalence_checks(seed)


def covariance_suite(seed: int = 0) -> list[CheckRecord]:
    """Posterior-covariance ODE residuals on 1-D targets."""
    from . import localization as loc

    return loc.covariance_checks(seed)


def identities_suite(seed: int = 0) -> list[CheckRecord]:
    """Cross-sampler algebraic identities."""
    from . import samplers

    return samplers.identity_checks(seed)


SUITES = {
    "grid": grid_suite,
    "equivalence": equivalence_suite,
    "covariance": covariance_suite,
    "identities": identities_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckRecord]:
    """Run one named suite; unknown names raise DomainError."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise DomainError(
            f"unknown check suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    return suite(seed)
