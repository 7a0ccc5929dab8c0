"""Clock changes and forward simulators tying three noising views together.

The same family of Gaussian-smoothed laws appears here under three clocks:

* an *observation* process ``U_s = s·X₁ + B_s`` whose precision clock ``s``
  runs from 0 to ∞ (rescaling by ``1/s`` gives ``X₁`` plus noise of
  variance ``1/s``);
* the *flow interpolation* at time ``t ∈ (0, 1)``, whose noise-to-signal
  ratio is ``(1−t)/t``;
* an Ornstein–Uhlenbeck *noising chain* at time ``τ > 0`` with signal
  fraction ``ω_τ`` (``ω_τ = e^{−2τ}`` for the unit-rate profile).

Matching noise-to-signal ratios gives closed-form bijections between the
clocks; :func:`simulate_forward` realizes each process exactly from its
closed-form solution, and :func:`check_marginal_equivalence` verifies by
Monte Carlo that the three rescaled states share one law.  The module also
carries the evolution check for the posterior covariance along the flow
clock (:func:`covariance_ode_residual`).

Conventions: clock-change maps accept scalars or arrays and validate their
domain; a non-unit noising profile ``beta`` (a positive callable of τ) is
supported by numerically inverting its accumulated rate, and ``beta=None``
always means the unit-rate closed forms.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import roots_hermitenorm

from .checks import CheckRecord
from .errors import DomainError, NonFiniteState, NoRootError
from .metrics import _moment_stats
from .rng import INIT_NOISE, StepNoise, _free_cores, child_seed, substream
from .schedules import time_from_mix_weight
from .targets import Target, posterior_moments, sample_target

__all__ = [
    "TimeChangeKind",
    "TimeChange",
    "ProcessKind",
    "ForwardPath",
    "EquivalenceReport",
    "rf_time_from_sl",
    "sl_time_from_rf",
    "ddpm_time_from_sl",
    "sl_time_from_ddpm",
    "rf_time_from_ddpm",
    "mix_weight_from_rf_time",
    "interpolant_time_change",
    "simulate_forward",
    "check_marginal_equivalence",
    "expected_posterior_variance_moments",
    "covariance_ode_residual",
    "equivalence_checks",
    "covariance_checks",
]

BetaProfile = Callable[[float], float]


def _validated(x, *, name: str, lower: float, upper: float | None):
    """Coerce to float64, require finite values in (lower, upper)."""
    arr = np.asarray(x, dtype=np.float64)
    bad = ~np.isfinite(arr) | (arr <= lower)
    if upper is not None:
        bad |= arr >= upper
    if np.any(bad):
        bound = f"({lower:g}, {upper:g})" if upper is not None else f"> {lower:g}"
        raise DomainError(f"{name} must be finite and {bound}; got {x!r}")
    return arr


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# clock-change maps


def rf_time_from_sl(s):
    """Flow time with the same noise-to-signal ratio as precision ``s``.

    Solves ((1−t)/t)² = 1/s, giving t = √s/(1+√s).
    """
    s = _validated(s, name="precision clock s", lower=0.0, upper=None)
    root = np.sqrt(s)
    return _scalar_or_array(root / (1.0 + root))


def sl_time_from_rf(t):
    """Inverse of :func:`rf_time_from_sl`: s = (t/(1−t))²."""
    t = _validated(t, name="flow time t", lower=0.0, upper=1.0)
    ratio = t / (1.0 - t)
    return _scalar_or_array(ratio * ratio)


def _accumulated_rate(beta: BetaProfile, tau: float) -> float:
    value, _ = quad(beta, 0.0, tau, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


def _solve_noising_time(level: float, beta: BetaProfile) -> float:
    """Find τ with ∫₀^τ β(u) du = level (level > 0)."""
    hi = 1.0
    for _ in range(80):
        if _accumulated_rate(beta, hi) >= level:
            break
        hi *= 2.0
    else:
        raise NoRootError(
            f"accumulated noising rate never reaches {level:g}; "
            "profile integrates to a finite value"
        )
    return float(
        brentq(
            lambda tau: _accumulated_rate(beta, tau) - level,
            0.0,
            hi,
            xtol=1e-15,
            rtol=4.0 * np.finfo(float).eps,
        )
    )


def ddpm_time_from_sl(s, beta: BetaProfile | None = None):
    """Noising time whose signal fraction matches precision ``s``.

    Matching (1−ω_τ)/ω_τ = 1/s gives ∫₀^τ β = ½·log(1 + 1/s); the
    unit-rate profile yields τ = ½·log(1 + 1/s) in closed form, any other
    positive profile is inverted numerically.
    """
    s = _validated(s, name="precision clock s", lower=0.0, upper=None)
    level = 0.5 * np.log1p(1.0 / s)
    if beta is None:
        return _scalar_or_array(level)
    if level.ndim == 0:
        return _solve_noising_time(float(level), beta)
    return np.array([_solve_noising_time(float(lv), beta) for lv in level])


def sl_time_from_ddpm(tau, beta: BetaProfile | None = None):
    """Inverse of :func:`ddpm_time_from_sl`: s = ω_τ/(1−ω_τ) = 1/(e^{2∫β}−1)."""
    tau = _validated(tau, name="noising time tau", lower=0.0, upper=None)
    if beta is None:
        accumulated = tau
    elif tau.ndim == 0:
        accumulated = np.float64(_accumulated_rate(beta, float(tau)))
    else:
        accumulated = np.array([_accumulated_rate(beta, float(v)) for v in tau])
    return _scalar_or_array(1.0 / np.expm1(2.0 * accumulated))


def rf_time_from_ddpm(omega):
    """Flow time matching signal fraction ω: t = √ω/(√ω + √(1−ω))."""
    omega = _validated(omega, name="signal fraction omega", lower=0.0, upper=1.0)
    return time_from_mix_weight(omega)


def mix_weight_from_rf_time(t):
    """Inverse of :func:`rf_time_from_ddpm`: ω = t²/((1−t)² + t²)."""
    t = _validated(t, name="flow time t", lower=0.0, upper=1.0)
    omt = 1.0 - t
    return _scalar_or_array(t * t / (omt * omt + t * t))


class TimeChangeKind(str, enum.Enum):
    """Named directions between the three clocks."""

    SL_TO_RF = "sl-to-rf"
    RF_TO_SL = "rf-to-sl"
    SL_TO_DDPM_OU = "sl-to-ddpm-ou"
    DDPM_TO_RF = "ddpm-to-rf"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TimeChange:
    """A clock-change map bundled with its inverse.

    ``beta`` is the noising-rate profile used by the diffusion-clock maps
    (``None`` selects the unit-rate closed forms); the other kinds ignore
    it.  ``forward`` and ``inverse`` are mutual inverses on the map's
    domain.
    """

    kind: TimeChangeKind
    beta: BetaProfile | None = None

    def _pair(self):
        if self.kind is TimeChangeKind.SL_TO_RF:
            return rf_time_from_sl, sl_time_from_rf
        if self.kind is TimeChangeKind.RF_TO_SL:
            return sl_time_from_rf, rf_time_from_sl
        if self.kind is TimeChangeKind.SL_TO_DDPM_OU:
            return (
                lambda x: ddpm_time_from_sl(x, beta=self.beta),
                lambda x: sl_time_from_ddpm(x, beta=self.beta),
            )
        if self.kind is TimeChangeKind.DDPM_TO_RF:
            return rf_time_from_ddpm, mix_weight_from_rf_time
        raise DomainError(f"unknown time-change kind {self.kind!r}")

    def forward(self, x):
        return self._pair()[0](x)

    def inverse(self, x):
        return self._pair()[1](x)


def interpolant_time_change(
    a: Callable[[float], float],
    b: Callable[[float], float],
    s: float,
    *,
    tol: float = 1e-12,
) -> float:
    """Interpolant parameter whose noise-to-signal ratio matches ``s``.

    For a unit interpolation pair (a(0)=0, a(1)=1, b(0)=1, b(1)=0) with
    strictly decreasing ratio r(θ) = b(θ)/a(θ), solves r(θ)² = 1/s by
    bisection to within ``tol`` in θ.  The linear pair (θ, 1−θ) recovers
    :func:`rf_time_from_sl`.

    Raises :class:`~flowgrid.errors.NoRootError` when the ratio is not
    strictly decreasing on (0, 1), and :class:`~flowgrid.errors.DomainError`
    for inputs that are not a unit interpolation pair or s ≤ 0.
    """
    if not (np.isfinite(s) and s > 0.0):
        raise DomainError(f"precision clock s must be finite and > 0; got {s!r}")
    _check_unit_pair(a, b)
    return _solve_theta(a, b, s, tol)


def _check_unit_pair(a: Callable[[float], float], b: Callable[[float], float]) -> None:
    """Raise unless (a, b) is a unit pair with strictly decreasing b/a.

    The ratio is probed at 513 points through the Python callables, which
    costs far more than one bisection, so a caller solving many ``s`` for
    one pair checks it once and then calls :func:`_solve_theta` for each.
    """
    ends = (abs(a(0.0)), abs(a(1.0) - 1.0), abs(b(0.0) - 1.0), abs(b(1.0)))
    if max(ends) > 1e-8:
        raise DomainError(
            "not a unit interpolation pair: need a(0)=0, a(1)=1, b(0)=1, b(1)=0"
        )
    probe = np.linspace(1e-6, 1.0 - 1e-6, 513)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.array([b(th) for th in probe]) / np.array([a(th) for th in probe])
    if np.any(~np.isfinite(ratio[1:])) or np.any(np.diff(ratio) >= 0.0):
        raise NoRootError("interpolant ratio b/a is not strictly decreasing on (0, 1)")


def _solve_theta(
    a: Callable[[float], float],
    b: Callable[[float], float],
    s: float,
    tol: float = 1e-12,
) -> float:
    """Bisect for r(θ)² = 1/s on a pair :func:`_check_unit_pair` accepted."""
    half_log_s = 0.5 * math.log(s)

    def gap(theta: float) -> float:
        # log r(θ) + ½ log s, decreasing through 0 at the matching θ
        bt, at = b(theta), a(theta)
        if at <= 0.0:
            return math.inf
        if bt <= 0.0:
            return -math.inf
        return math.log(bt) - math.log(at) + half_log_s

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# forward simulators


class ProcessKind(str, enum.Enum):
    """The three forward constructions simulated exactly."""

    SL = "sl"
    RF_LINEAR = "rf-linear"
    DDPM_FORWARD = "ddpm-forward"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ForwardPath:
    """States of one forward process observed at increasing clock points.

    ``states[j]`` is the (n, d) ensemble at ``times[j]``, in the process's
    own clock (s, t, or τ).
    """

    kind: ProcessKind
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        states = np.ascontiguousarray(self.states, dtype=np.float64)
        if states.ndim != 3 or states.shape[0] != times.size:
            raise DomainError("states must be (len(times), n, d)")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def _strictly_increasing(clock: np.ndarray, what: str) -> None:
    if clock.ndim != 1 or clock.size == 0:
        raise DomainError(f"{what} must be a non-empty 1-D array")
    if clock.size > 1 and not np.all(np.diff(clock) > 0.0):
        raise DomainError(f"{what} must be strictly increasing")


def _brownian_at(clocks: np.ndarray, noise: StepNoise, out: np.ndarray) -> None:
    """Write one Brownian path's values at strictly increasing clocks to ``out[k]``.

    Increment k is ``noise.block(k)``, the (seed, STEP_NOISE, k) stream, so a
    path is reproducible and extends consistently: the value at a later
    clock is the earlier value plus an independent increment.
    """
    previous = None
    for k, gap in enumerate(np.diff(clocks, prepend=0.0)):
        level = np.multiply(noise.block(k), math.sqrt(gap), out=out[k])
        if previous is not None:
            level += previous
        previous = level


def simulate_forward(
    kind: ProcessKind | str,
    target: Target,
    clock: Sequence[float] | np.ndarray,
    n: int,
    seed: int,
    *,
    beta: BetaProfile | None = None,
) -> ForwardPath:
    """Exact draw of a forward process at the given clock points.

    Each process has a closed-form solution driven by one Brownian path, so
    no discretization is involved; states at successive clock points share
    their Brownian past.  ``clock`` must be strictly increasing in the
    process's own time: s > 0 for ``SL``, t ∈ (0, 1) for ``RF_LINEAR``
    (whose internal Brownian clock (1−t)²/t² runs *backwards* in t), τ > 0
    for ``DDPM_FORWARD``.

    The signal draw X₁ uses the (seed, INIT_NOISE) stream.  Brownian
    increment k is block k of a :class:`~flowgrid.rng.StepNoise`, i.e. the
    (seed, STEP_NOISE, k) stream, so whether a block is drawn on a worker
    thread follows the samplers' rule; no value depends on which thread
    drew it.
    """
    kind = ProcessKind(kind)
    clock = np.asarray(clock, dtype=np.float64)
    _strictly_increasing(clock, "clock points")
    if not np.all(np.isfinite(clock)):
        raise DomainError("clock points must be finite")
    if n < 1:
        raise DomainError("need at least one sample")

    # Each kind's states are a per-point affine map of X₁ and the Brownian
    # value at a derived clock: ``scale`` times (X₁ + B) for RF and DDPM.
    if kind is ProcessKind.SL:
        if clock[0] <= 0.0:
            raise DomainError("observation clock s must be positive")
        brownian_clock = clock
    elif kind is ProcessKind.RF_LINEAR:
        if clock[0] <= 0.0 or clock[-1] >= 1.0:
            raise DomainError("flow times must lie in (0, 1)")
        # strictly decreasing in t, so the path is built from the last point
        brownian_clock = (((1.0 - clock) / clock) ** 2)[::-1]
        scale = clock
    elif kind is ProcessKind.DDPM_FORWARD:
        if clock[0] <= 0.0:
            raise DomainError("noising clock tau must be positive")
        if beta is None:
            accumulated = clock
        else:
            accumulated = np.array([_accumulated_rate(beta, float(v)) for v in clock])
        omega = np.exp(-2.0 * accumulated)
        brownian_clock = (1.0 - omega) / omega
        _strictly_increasing(
            brownian_clock, "accumulated noise clock (check the beta profile)"
        )
        scale = np.sqrt(omega)
    else:  # pragma: no cover - enum is closed
        raise DomainError(f"unknown process kind {kind!r}")

    states = np.empty((clock.size, n, target.dim))
    levels = states[::-1] if kind is ProcessKind.RF_LINEAR else states
    with StepNoise(seed, states.shape[1:], clock.size) as noise:
        x1 = sample_target(target, n, seed).data
        _brownian_at(brownian_clock, noise, levels)
    if kind is ProcessKind.SL:
        for s, state in zip(clock, states):
            state += s * x1
    else:
        for c, state in zip(scale, states):
            state += x1
            state *= c

    if not np.all(np.isfinite(states)):
        raise NonFiniteState(f"forward process {kind} produced non-finite states")
    return ForwardPath(kind=kind, times=clock, states=states)


# ---------------------------------------------------------------------------
# cross-process marginal check


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the three-clock marginal comparison.

    One record per (clock point, process pair, statistic); ``observed`` is
    the largest per-coordinate discrepancy in Monte-Carlo standard errors,
    so every tolerance is 4.
    """

    records: tuple[CheckRecord, ...]
    n: int
    s_points: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def worst(self) -> CheckRecord:
        return max(self.records, key=lambda r: r.observed)


def check_marginal_equivalence(
    target: Target,
    s_points: Sequence[float],
    n: int,
    seed: int,
) -> EquivalenceReport:
    """Simulate all three processes at matched clocks and compare marginals.

    At precision s the rescaled states U_s/s, X̃_{t(s)}/t(s) and
    Y′_{τ(s)}/√ω_{τ(s)} all have the law of X₁ plus N(0, I/s) noise.  The
    three simulations are independent; per coordinate, mean gaps are
    standardized by √(v_a/n + v_b/n) and variance gaps by the empirical
    fourth-moment formula, and each record reports the worst coordinate in
    standard errors (pass ≤ 4).

    Each record is thus a 4-standard-error test maxed over up to 10
    coordinates, and correct code fails one by chance at a small rate: in the
    ``equivalence`` suite, seeds 80, 167, 181, 186, 192, 247, 260 and 266 of
    seeds 0–299 each fail exactly one record, about 3 % of seeds.  A failure
    at that rate is chance, not a defect.

    The 3·len(s_points) simulations are independent jobs, each seeded by
    ``child_seed(seed, i, k)`` for clock point i and process k.  They run on
    a thread pool, joined before this function returns, with one worker per
    core that no other live thread of the process may be using (the
    caller's own core included, since it only waits), but at least one and
    no more than there are jobs.  Every record is the same, bit for bit,
    whatever the number of workers.
    """
    if n < 2:
        raise DomainError("need at least two samples per process")
    s_values = np.asarray(s_points, dtype=np.float64)
    for s in s_values:
        if not (np.isfinite(s) and s > 0.0):
            raise DomainError(f"precision clock s must be positive; got {s!r}")
    jobs = []  # (process, its clock, the factor that rescales its state, seed)
    for i, s in enumerate(s_values):
        t = rf_time_from_sl(s)
        tau = ddpm_time_from_sl(s)
        omega = s / (1.0 + s)  # e^{-2tau}
        jobs += [
            (ProcessKind.SL, s, s, child_seed(seed, i, 0)),
            (ProcessKind.RF_LINEAR, t, t, child_seed(seed, i, 1)),
            (ProcessKind.DDPM_FORWARD, tau, math.sqrt(omega), child_seed(seed, i, 2)),
        ]

    def rescaled_moments(job):
        kind, point, factor, job_seed = job
        states = simulate_forward(kind, target, [point], n, job_seed).states[0]
        return _moment_stats(states / factor)

    # The caller only waits on the pool, so its own core counts as free.
    workers = max(1, min(len(jobs), _free_cores() + 1))
    pool = ThreadPoolExecutor(workers, thread_name_prefix="flowgrid-equivalence")
    try:
        moments = list(pool.map(rescaled_moments, jobs))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    records: list[CheckRecord] = []
    for i, s in enumerate(s_values):
        stats = dict(zip(("sl", "rf", "ddpm"), moments[3 * i : 3 * i + 3]))
        for a, b in (("sl", "rf"), ("sl", "ddpm"), ("rf", "ddpm")):
            mean_a, var_a, m4_a = stats[a]
            mean_b, var_b, m4_b = stats[b]
            se_mean = np.sqrt((var_a + var_b) / n)
            gap_mean = np.max(np.abs(mean_a - mean_b) / se_mean)
            se_var = np.sqrt(
                np.maximum(m4_a - var_a**2, 0.0) / n
                + np.maximum(m4_b - var_b**2, 0.0) / n
            )
            se_var = np.maximum(se_var, 1e-300)
            gap_var = np.max(np.abs(var_a - var_b) / se_var)
            records.append(
                CheckRecord(f"marginal[s={s:g}]:{a}-vs-{b}:mean", float(gap_mean), 4.0)
            )
            records.append(
                CheckRecord(f"marginal[s={s:g}]:{a}-vs-{b}:var", float(gap_var), 4.0)
            )
    return EquivalenceReport(
        records=tuple(records),
        n=n,
        s_points=tuple(float(s) for s in s_values),
    )


# ---------------------------------------------------------------------------
# posterior-covariance evolution


@lru_cache(maxsize=8)
def _hermite_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = roots_hermitenorm(n_nodes)
    weights = weights / math.sqrt(2.0 * math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def expected_posterior_variance_moments(
    target: Target,
    t: float,
    *,
    quad_nodes: int = 201,
) -> tuple[float, float]:
    """E[Σ_t] and E[Σ_t²] for a 1-D target, by Gaussian quadrature.

    Σ_t is the posterior variance of X₁ given the interpolation state, a
    function of the state; the expectation runs over the time-t marginal,
    itself a mixture of Gaussians handled component by component.
    """
    if target.dim != 1:
        raise DomainError("posterior-variance moments are defined for 1-D targets")
    if not 0.0 < t < 1.0:
        raise DomainError(f"flow time must lie in (0, 1); got {t!r}")
    if quad_nodes < 3:
        raise DomainError("need at least 3 quadrature nodes")
    nodes, weights = _hermite_rule(quad_nodes)
    first = second = 0.0
    omt2 = (1.0 - t) ** 2
    for k in range(target.n_components):
        center = t * target.means[k, 0]
        spread = math.sqrt(t * t * target.variances[k, 0] + omt2)
        x = center + spread * nodes
        sigma = posterior_moments(target, t, x[:, None]).var_diag[:, 0]
        first += target.weights[k] * float(weights @ sigma)
        second += target.weights[k] * float(weights @ (sigma * sigma))
    return first, second


def covariance_ode_residual(
    target: Target,
    t_points: Sequence[float] | np.ndarray,
    *,
    step: float = 1e-5,
    quad_nodes: int = 201,
) -> float:
    """Worst relative defect of the posterior-variance evolution law.

    Along the flow clock the expected posterior variance obeys

        d/dt E[Σ_t] = −(2t/(1−t)³) · E[Σ_t²],

    which couples the drift of the posterior to its second moment.  The
    left side is formed by central differences of the quadrature values
    (step ``step``), the right side from :func:`expected_posterior_variance_moments`,
    and the result is max over ``t_points`` of |lhs − rhs|/|lhs|; a target
    with identically zero posterior variance (a point mass) yields 0.
    """
    if target.dim != 1:
        raise DomainError("the evolution check is defined for 1-D targets")
    if not 0.0 < step < 0.5:
        raise DomainError(f"finite-difference step must lie in (0, 0.5); got {step!r}")
    worst = 0.0
    for t in np.asarray(t_points, dtype=np.float64):
        t = float(t)
        if not (0.0 < t - step and t + step < 1.0):
            raise DomainError(
                f"t = {t!r} with step {step:g} leaves (0, 1); shrink the grid or step"
            )
        up, _ = expected_posterior_variance_moments(target, t + step, quad_nodes=quad_nodes)
        dn, _ = expected_posterior_variance_moments(target, t - step, quad_nodes=quad_nodes)
        _, second = expected_posterior_variance_moments(target, t, quad_nodes=quad_nodes)
        lhs = (up - dn) / (2.0 * step)
        defect = abs(lhs + 2.0 * t / (1.0 - t) ** 3 * second)
        if defect == 0.0:
            continue
        worst = max(worst, defect / abs(lhs) if lhs != 0.0 else math.inf)
    return worst


# ---------------------------------------------------------------------------
# check suites


def _roundtrip_record(name: str, change: TimeChange, points: np.ndarray) -> CheckRecord:
    back = change.inverse(change.forward(points))
    observed = float(np.max(np.abs(back - points) / np.abs(points)))
    return CheckRecord(f"roundtrip:{name}", observed, 1e-12)


def equivalence_checks(seed: int = 0) -> list[CheckRecord]:
    """Clock-change algebra plus the Monte-Carlo three-process comparison."""
    records: list[CheckRecord] = []
    s_wide = np.geomspace(1e-6, 1e6, 49)
    t_wide = rf_time_from_sl(s_wide)
    omega_wide = np.concatenate(
        [np.geomspace(1e-6, 0.5, 25), 1.0 - np.geomspace(1e-6, 0.5, 25)[::-1][1:]]
    )
    records.append(
        _roundtrip_record("sl-to-rf", TimeChange(TimeChangeKind.SL_TO_RF), s_wide)
    )
    records.append(
        _roundtrip_record("rf-to-sl", TimeChange(TimeChangeKind.RF_TO_SL), t_wide)
    )
    records.append(
        _roundtrip_record(
            "sl-to-ddpm-ou", TimeChange(TimeChangeKind.SL_TO_DDPM_OU), s_wide
        )
    )
    records.append(
        _roundtrip_record(
            "ddpm-to-rf", TimeChange(TimeChangeKind.DDPM_TO_RF), omega_wide
        )
    )

    anchors = (
        ("anchor:t(s=1)=1/2", abs(rf_time_from_sl(1.0) - 0.5)),
        ("anchor:t(s=4)=2/3", abs(rf_time_from_sl(4.0) - 2.0 / 3.0)),
        ("anchor:tau(s=1)=log2/2", abs(ddpm_time_from_sl(1.0) - 0.5 * math.log(2.0))),
        ("anchor:t(omega=1/5)=1/3", abs(rf_time_from_ddpm(0.2) - 1.0 / 3.0)),
    )
    for name, gap in anchors:
        records.append(CheckRecord(name, float(gap), 1e-12))

    records.append(
        CheckRecord(
            "monotone:t(s)-increasing",
            float(np.max(-np.diff(t_wide), initial=0.0)),
            0.0,
        )
    )
    records.append(
        CheckRecord(
            "monotone:tau(s)-decreasing",
            float(np.max(np.diff(ddpm_time_from_sl(s_wide)), initial=0.0)),
            0.0,
        )
    )
    records.append(
        CheckRecord(
            "monotone:t(omega)-increasing",
            float(np.max(-np.diff(rf_time_from_ddpm(omega_wide)), initial=0.0)),
            0.0,
        )
    )

    rng = substream(seed, INIT_NOISE)
    s_rand = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), size=64))
    composed = rf_time_from_ddpm(np.exp(-2.0 * ddpm_time_from_sl(s_rand)))
    records.append(
        CheckRecord(
            "composition:t(tau(s))=t(s)",
            float(np.max(np.abs(composed - rf_time_from_sl(s_rand)))),
            1e-12,
        )
    )
    omega_rand = rng.uniform(1e-3, 1.0 - 1e-3, size=64)
    t_of = rf_time_from_ddpm(omega_rand)
    sigma2 = (1.0 - t_of) ** 2 + t_of * t_of
    records.append(
        CheckRecord(
            "identity:sigma2(t(omega))*omega=t2",
            float(np.max(np.abs(sigma2 * omega_rand - t_of * t_of))),
            1e-12,
        )
    )

    def trig_a(theta: float) -> float:
        return math.sin(0.5 * math.pi * theta)

    def trig_b(theta: float) -> float:
        return math.cos(0.5 * math.pi * theta)

    # Each pair is checked once; its s values then only need the bisection.
    def linear_a(theta: float) -> float:
        return theta

    def linear_b(theta: float) -> float:
        return 1.0 - theta

    _check_unit_pair(linear_a, linear_b)
    records.append(
        CheckRecord(
            "interpolant:linear-matches-closed-form",
            max(
                abs(_solve_theta(linear_a, linear_b, s) - rf_time_from_sl(s))
                for s in (0.25, 1.0, 4.0, 100.0)
            ),
            5e-12,
        )
    )
    _check_unit_pair(trig_a, trig_b)
    records.append(
        CheckRecord(
            "interpolant:trig-symmetric-point",
            abs(_solve_theta(trig_a, trig_b, 1.0) - 0.5),
            5e-12,
        )
    )
    trig_gap = 0.0
    for s in np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=8)):
        theta = _solve_theta(trig_a, trig_b, float(s))
        t_comp = trig_a(theta) / (trig_a(theta) + trig_b(theta))
        trig_gap = max(trig_gap, abs(t_comp - rf_time_from_sl(float(s))))
    records.append(CheckRecord("interpolant:trig-composition", trig_gap, 1e-10))

    std = Target.gaussian(np.zeros(2), np.ones(2))
    anchor_n = 20000
    report_std = check_marginal_equivalence(std, [1.0], anchor_n, child_seed(seed, 101))
    sl_var = (
        simulate_forward(ProcessKind.SL, std, [1.0], anchor_n, child_seed(seed, 102))
        .states[0]
        .var(axis=0, ddof=1)
    )
    records.append(
        CheckRecord(
            "law-anchor:sl-rescaled-var[s=1]",
            float(np.max(np.abs(sl_var - 2.0)) / (2.0 * math.sqrt(2.0 / anchor_n))),
            4.0,
        )
    )
    records.extend(
        CheckRecord(f"std-gauss:{r.name}", r.observed, r.tolerance)
        for r in report_std.records
    )
    low_rank = Target.low_rank(10, 8)
    records.extend(
        CheckRecord(f"low-rank:{r.name}", r.observed, r.tolerance)
        for r in check_marginal_equivalence(
            low_rank, [0.25, 1.0, 4.0], 20000, child_seed(seed, 103)
        ).records
    )
    return records


def covariance_checks(seed: int = 0) -> list[CheckRecord]:
    """Evolution-law residuals on 1-D targets with exact or quadrature oracles."""
    del seed  # deterministic quadrature; kept for the uniform suite signature
    records: list[CheckRecord] = []
    grid = np.linspace(0.05, 0.95, 20)

    std = Target.gaussian(np.zeros(1), np.ones(1))
    records.append(
        CheckRecord(
            "covariance-ode:std-gaussian",
            covariance_ode_residual(std, grid),
            1e-6,
        )
    )
    up, _ = expected_posterior_variance_moments(std, 0.5 + 1e-5)
    dn, _ = expected_posterior_variance_moments(std, 0.5 - 1e-5)
    records.append(
        CheckRecord(
            "covariance-ode:gaussian-anchor-slope-is-minus-2",
            abs((up - dn) / 2e-5 + 2.0),
            1e-6,
        )
    )
    records.append(
        CheckRecord(
            "covariance-ode:scaled-gaussian",
            covariance_ode_residual(Target.gaussian(np.array([1.0]), np.array([2.0])), grid),
            1e-6,
        )
    )
    records.append(
        CheckRecord(
            "covariance-ode:point-mass",
            covariance_ode_residual(Target.gaussian(np.array([1.5]), np.array([0.0])), grid),
            0.0,
        )
    )
    gmm = Target(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-2.0], [2.0]]),
        variances=np.array([[1.0], [1.0]]),
    )
    records.append(
        CheckRecord(
            "covariance-ode:two-component-mixture",
            covariance_ode_residual(gmm, grid),
            1e-4,
        )
    )
    return records
