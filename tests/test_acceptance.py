"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single ``[criterion N] ... PASS/FAIL`` line (visible under
``pytest -v -s`` or in captured output on failure) and enforces its runtime
budget.  Tolerances here are contractual — do not loosen them to make a
failing build green.
"""

import time

import numpy as np
import pytest

from flowgrid import (
    ExactOracle,
    ExperimentSpec,
    Target,
    build_ddpm_schedule,
    build_uniform_grid,
    build_ushaped_grid,
    check_marginal_equivalence,
    covariance_ode_residual,
    ddim_rf,
    ddim_step_sizes,
    ddpm_induced_rf_grid,
    ddpm_sample,
    ddpm_time_from_sl,
    estimate_tv,
    gaussian_pushforward,
    mix_weight_from_rf_time,
    rf_euler,
    rf_time_from_ddpm,
    rf_time_from_sl,
    run_fig2_experiment,
    sample_target,
    sl_time_from_ddpm,
    sl_time_from_rf,
    stoc_rf,
)
from flowgrid.checks import grid_suite
from flowgrid.rng import substream
from flowgrid.schedules import time_from_mix_weight


def report(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(
        f"[criterion {num:2d}] {label}: {status} — {detail} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {num} ({label}): {detail}"
    assert within, f"criterion {num} ({label}): took {elapsed:.2f}s, budget {budget}s"


def median_tv(rows, **keys):
    vals = [
        r.tv
        for r in rows
        if all(getattr(r, field) == want for field, want in keys.items())
    ]
    assert len(vals) == 5, (keys, len(vals))
    return float(np.median(vals))


def mean_stderr(rows, **keys):
    vals = [
        r.tv_stderr
        for r in rows
        if all(getattr(r, field) == want for field, want in keys.items())
    ]
    return float(np.mean(vals))


def test_criterion_01_grid_correctness():
    start = time.perf_counter()
    records = grid_suite(seed=0, n_cases=50)
    failures = [r for r in records if not r.passed]
    elapsed = time.perf_counter() - start
    report(
        1,
        "U-shaped grid identities (50 random cases)",
        not failures,
        f"{len(records)} checks, worst rel. excess "
        f"{max(r.observed for r in records):.2e}"
        + (f"; failing: {[r.name for r in failures[:3]]}" if failures else ""),
        elapsed,
        1.0,
    )


def test_criterion_02_time_change_round_trips():
    start = time.perf_counter()
    worst = 0.0

    # twelve decades of observation clock; the other clocks sweep its image
    s_sweep = np.geomspace(1e-6, 1e6, 4001)
    t_sweep = rf_time_from_sl(s_sweep)
    tau_sweep = np.geomspace(1e-8, 30.0, 4001)
    omega_sweep = mix_weight_from_rf_time(t_sweep)
    pairs = [
        (rf_time_from_sl, sl_time_from_rf, s_sweep),
        (sl_time_from_rf, rf_time_from_sl, t_sweep),
        (ddpm_time_from_sl, sl_time_from_ddpm, s_sweep),
        (sl_time_from_ddpm, ddpm_time_from_sl, tau_sweep),
        (mix_weight_from_rf_time, time_from_mix_weight, t_sweep),
        (time_from_mix_weight, mix_weight_from_rf_time, omega_sweep),
    ]
    for forward, backward, points in pairs:
        back = backward(forward(points))
        worst = max(worst, float(np.max(np.abs(back - points) / np.abs(points))))
    roundtrips_ok = worst <= 1e-12

    # chaining observation->noising->flow must be the direct map: the
    # noising state at time tau carries signal fraction exp(-2*tau)
    rng = substream(2026, 17)
    s_random = 10.0 ** rng.uniform(-6.0, 6.0, size=1000)
    composed = rf_time_from_ddpm(np.exp(-2.0 * ddpm_time_from_sl(s_random)))
    direct = rf_time_from_sl(s_random)
    comp_gap = float(np.max(np.abs(composed - direct) / direct))
    composition_ok = comp_gap <= 1e-12

    elapsed = time.perf_counter() - start
    report(
        2,
        "clock-map round trips and composition",
        roundtrips_ok and composition_ok,
        f"worst round trip {worst:.2e}, composition gap {comp_gap:.2e} (tol 1e-12)",
        elapsed,
        1.0,
    )


def test_criterion_03_marginal_equivalence():
    start = time.perf_counter()
    target = Target.low_rank(10, 8)
    equivalence = check_marginal_equivalence(target, (0.25, 1.0, 4.0), 100_000, seed=11)
    worst = equivalence.worst()
    elapsed = time.perf_counter() - start
    report(
        3,
        "three-process marginal equivalence (d=10, k=8, n=1e5)",
        equivalence.passed,
        f"{len(equivalence.records)} moment comparisons, worst "
        f"{worst.observed:.2f} SE ({worst.name})",
        elapsed,
        30.0,
    )


def test_criterion_04_covariance_ode():
    start = time.perf_counter()
    interior = np.linspace(0.05, 0.95, 20)
    gauss = covariance_ode_residual(Target.gaussian([0.0], [1.0]), interior)
    mixture = Target(
        weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[[1.0], [1.0]]
    )
    gmm = covariance_ode_residual(mixture, interior)
    elapsed = time.perf_counter() - start
    report(
        4,
        "posterior-variance evolution law (20 interior times)",
        gauss < 1e-6 and gmm < 1e-4,
        f"gaussian residual {gauss:.2e} (tol 1e-6), 2-GMM residual {gmm:.2e} (tol 1e-4)",
        elapsed,
        5.0,
    )


def test_criterion_05_flow_matches_affine_pushforward():
    start = time.perf_counter()
    target = Target.gaussian([1.0, -2.0, 0.5, 3.0], [0.25, 1.0, 2.0, 0.5])
    oracle = ExactOracle(target)
    grid = build_uniform_grid(80)

    # deterministic leg: both sides propagate the same empirical start
    batch = rf_euler(oracle, grid, 400, seed=21, record_trajectories=True)
    starts = batch.trajectory[0]
    push = gaussian_pushforward(
        oracle,
        grid,
        "rf",
        init_mean=starts.mean(axis=0),
        init_var=starts.var(axis=0, ddof=1),
    )
    mean_gap = float(np.max(np.abs(batch.trajectory.mean(axis=1) - push.mean)))
    var_gap = float(
        np.max(np.abs(batch.trajectory.var(axis=1, ddof=1) - push.var_diag))
    )
    deterministic_ok = mean_gap <= 1e-10 and var_gap <= 1e-10

    # sampled leg: fresh standard-normal starts against the analytic law
    n = 5000
    sampled = rf_euler(oracle, grid, n, seed=22)
    law_mean, law_var = gaussian_pushforward(oracle, grid, "rf").terminal()
    mean_se = np.sqrt(law_var / n)
    var_se = law_var * np.sqrt(2.0 / (n - 1))
    mean_dev = float(np.max(np.abs(sampled.data.mean(axis=0) - law_mean) / mean_se))
    var_dev = float(
        np.max(np.abs(sampled.data.var(axis=0, ddof=1) - law_var) / var_se)
    )
    sampled_ok = mean_dev <= 4.0 and var_dev <= 4.0

    elapsed = time.perf_counter() - start
    report(
        5,
        "flow sampler vs analytic pushforward",
        deterministic_ok and sampled_ok,
        f"shared-start gaps mean {mean_gap:.2e}/var {var_gap:.2e} (tol 1e-10); "
        f"sampled devs {mean_dev:.2f}/{var_dev:.2f} SE (tol 4)",
        elapsed,
        10.0,
    )


def test_criterion_06_ddpm_stoc_correspondence():
    start = time.perf_counter()
    target = Target.low_rank(10, 8)
    oracle = ExactOracle(target)
    schedule = build_ddpm_schedule(100)
    grid = ddpm_induced_rf_grid(schedule)
    chain = ddpm_sample(oracle, schedule, 100, seed=31, record_trajectories=True)
    whitened = stoc_rf(oracle, grid, 100, seed=31, record_trajectories=True)
    times_gap = float(np.max(np.abs(chain.trajectory_times - whitened.trajectory_times)))
    state_gap = float(np.max(np.abs(chain.trajectory - whitened.trajectory)))
    elapsed = time.perf_counter() - start
    report(
        6,
        "denoising chain == whitened stochastic flow (coupled noise)",
        state_gap <= 1e-10 and times_gap <= 1e-12,
        f"max pointwise gap {state_gap:.2e} over 100 steps x 100 paths x d=10 "
        f"(tol 1e-10)",
        elapsed,
        2.0,
    )


def test_criterion_07_ddim_two_forms():
    start = time.perf_counter()
    target = Target.low_rank(10, 8)
    oracle = ExactOracle(target)
    grid = ddpm_induced_rf_grid(build_ddpm_schedule(100))
    euler = ddim_rf(oracle, grid, 1000, seed=41, record_trajectories=True)
    scaled = ddim_rf(oracle, grid, 1000, seed=41, form="scaled", record_trajectories=True)
    form_gap = float(np.max(np.abs(euler.trajectory - scaled.trajectory)))

    worst_identity = 0.0
    for n_steps in (50, 100, 200, 400):
        times = ddpm_induced_rf_grid(build_ddpm_schedule(n_steps)).times
        t0, t1 = times[:-1], times[1:]
        sigma2 = (1.0 - t0) ** 2 + t0**2
        lhs = ddim_step_sizes(times) * sigma2
        rhs = (t1 - t0) * (1.0 - t0) / t1
        worst_identity = max(
            worst_identity, float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        )

    elapsed = time.perf_counter() - start
    report(
        7,
        "deterministic-score sampler: two forms, one algebra",
        form_gap <= 1e-10 and worst_identity <= 1e-12,
        f"form gap {form_gap:.2e} on 10^3 states (tol 1e-10); "
        f"step identity {worst_identity:.2e} (tol 1e-12)",
        elapsed,
        1.0,
    )


def test_criterion_08_tv_calibration():
    from scipy.stats import norm

    start = time.perf_counter()
    n, rounds = 5000, 10
    failures = []
    details = []
    for i, oracle_tv in enumerate((0.0, 0.1, 0.38, 0.7)):
        shift = 2.0 * norm.ppf((oracle_tv + 1.0) / 2.0)
        a = substream(51, i, 0).normal(0.0, 1.0, size=(n, 1))
        b = substream(51, i, 1).normal(shift, 1.0, size=(n, 1))
        estimate = estimate_tv(a, b, rounds=rounds, seed=100 + i)
        gap = estimate.value - oracle_tv
        details.append(f"{oracle_tv:.2f}:{gap:+.3f}")
        if not -0.10 <= gap <= 0.05:
            failures.append(f"oracle {oracle_tv}: gap {gap:+.3f}")

    null_a = substream(52, 0).normal(0.0, 1.0, size=(n, 1))
    null_b = substream(52, 1).normal(0.0, 1.0, size=(n, 1))
    null = estimate_tv(null_a, null_b, rounds=rounds, seed=200).value
    if null >= 0.08:
        failures.append(f"null reads {null:.3f}")

    elapsed = time.perf_counter() - start
    report(
        8,
        "classifier-TV calibration on 1-D Gaussian pairs",
        not failures,
        f"gaps {{{', '.join(details)}}} in [-0.10, +0.05], null {null:.3f} < 0.08"
        + (f"; failures: {failures}" if failures else ""),
        elapsed,
        20.0,
    )


@pytest.fixture(scope="class")
def fig2_sweeps(request, tmp_path_factory):
    """Run the three benchmark slices once and pin them on the test class."""
    cls = request.cls
    base = tmp_path_factory.mktemp("fig2")
    start = time.perf_counter()
    cls.rows_a = run_fig2_experiment(
        ExperimentSpec(
            dims=(200, 400, 800),
            n_steps=(100,),
            samplers=("rf",),
            grids=("uniform", "ushaped"),
            out=str(base / "a.csv"),
        )
    )
    cls.rows_b = run_fig2_experiment(
        ExperimentSpec(
            dims=(100,),
            n_steps=(50, 200),
            samplers=("rf",),
            grids=("ushaped",),
            out=str(base / "b.csv"),
        )
    )
    cls.rows_c = run_fig2_experiment(
        ExperimentSpec(
            dims=(100, 400),
            n_steps=(100,),
            samplers=("rf", "stoc-rf"),
            grids=("ushaped", "ddpm-induced"),
            out=str(base / "c.csv"),
        )
    )
    cls.elapsed = time.perf_counter() - start


@pytest.mark.usefixtures("fig2_sweeps")
class TestCriterion09FigureTrends:
    """Ordinal benchmark trends, shared across three assertions.

    The sweep results are computed once (class scope) because the three
    trend checks read different slices of the same protocol; the 10-minute
    budget covers everything.
    """

    rows_a = None
    rows_b = None
    rows_c = None
    elapsed = None

    def test_a_ushaped_beats_uniform_in_high_dimension(self):
        gaps = {}
        ok = True
        for d in (200, 400, 800):
            uniform = median_tv(self.rows_a, d=d, grid_kind="uniform")
            ushaped = median_tv(self.rows_a, d=d, grid_kind="ushaped")
            gaps[d] = (uniform, ushaped)
            ok = ok and ushaped < uniform
        detail = ", ".join(
            f"d={d}: ushaped {u:.3f} vs uniform {v:.3f}" for d, (v, u) in gaps.items()
        )
        report(9, "trend (a): U-shaped strictly better at d>=200", ok, detail,
               self.elapsed, 600.0)

    def test_b_more_steps_do_not_hurt_the_ushaped_grid(self):
        coarse = median_tv(self.rows_b, n_steps=50)
        fine = median_tv(self.rows_b, n_steps=200)
        pooled = float(
            np.hypot(mean_stderr(self.rows_b, n_steps=50),
                     mean_stderr(self.rows_b, n_steps=200))
        )
        ok = fine <= coarse + pooled
        report(
            9,
            "trend (b): TV(N=200) <= TV(N=50) + pooled SE at d=100",
            ok,
            f"N=200 median {fine:.4f} vs N=50 median {coarse:.4f} (+{pooled:.4f} SE)",
            self.elapsed,
            600.0,
        )

    def test_c_stochastic_sampler_stays_within_band(self):
        gaps = {}
        ok = True
        for d in (100, 400):
            flow = median_tv(self.rows_c, d=d, sampler="rf", grid_kind="ushaped")
            stochastic = median_tv(
                self.rows_c, d=d, sampler="stoc-rf", grid_kind="ddpm-induced"
            )
            gaps[d] = abs(stochastic - flow)
            ok = ok and gaps[d] <= 0.1
        detail = ", ".join(f"d={d}: |gap| {g:.3f}" for d, g in gaps.items())
        report(9, "trend (c): stochastic sampler within 0.1 of the flow", ok,
               detail, self.elapsed, 600.0)


def test_criterion_10_byte_identical_repeats(tmp_path):
    start = time.perf_counter()
    spec = ExperimentSpec(
        dims=(10, 20),
        n_steps=(40,),
        samplers=("rf", "stoc-rf"),
        grids=("uniform", "ushaped", "ddpm-induced"),
        num_samples=400,
        seeds=(0, 1),
        rounds=4,
        out=str(tmp_path / "repeat.csv"),
    )
    run_fig2_experiment(spec)
    first = (tmp_path / "repeat.csv").read_bytes()
    run_fig2_experiment(spec, threads=2)
    second = (tmp_path / "repeat.csv").read_bytes()

    batch_a = sample_target(Target.low_rank(12, 4), 64, seed=7)
    batch_b = sample_target(Target.low_rank(12, 4), 64, seed=7)
    elapsed = time.perf_counter() - start
    report(
        10,
        "determinism: repeated runs are byte-identical",
        first == second and np.array_equal(batch_a.data, batch_b.data),
        f"{len(first)} CSV bytes reproduced across serial and threaded runs",
        elapsed,
        60.0,
    )
