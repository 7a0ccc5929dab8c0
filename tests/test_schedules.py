"""Grid and schedule construction tests.

The growth factor is cross-checked against a bisection oracle, the frozen
example values are asserted exactly, and the step-size inequalities are
exercised through the randomized check suite plus hypothesis-generated
grids.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import (
    DomainError,
    GridKind,
    TimeGrid,
    build_ddpm_schedule,
    build_uniform_grid,
    build_ushaped_grid,
    ddpm_induced_rf_grid,
    default_delta,
    solve_growth,
    time_from_mix_weight,
)
from flowgrid.checks import grid_identity_checks, grid_suite, random_grid_cases
from flowgrid.schedules import GRIDS


def bisect_growth(n_steps: int, delta: float) -> float:
    """Independent oracle: solve delta*(1+h)^((N-2)/2) = 1/2 by bisection."""
    half_ramp = (n_steps - 2) / 2

    def ramp(h: float) -> float:
        return delta * (1.0 + h) ** half_ramp - 0.5

    lo, hi = 0.0, 1.0
    while ramp(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ramp(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveGrowth:
    def test_frozen_examples(self):
        assert solve_growth(4, 1.0 / (2.0 * math.e)) == pytest.approx(
            math.e - 1.0, rel=1e-14
        )
        assert solve_growth(4, 0.1) == pytest.approx(4.0, rel=1e-14)
        assert solve_growth(6, 0.125) == pytest.approx(1.0, rel=1e-14)
        # Closed right endpoint: the ramp starts at the midpoint.
        assert solve_growth(4, 0.5) == 0.0

    @given(
        n=st.integers(2, 300).map(lambda k: 2 * k + 2),
        log_delta=st.floats(math.log(1e-9), math.log(0.499)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_oracle(self, n, log_delta):
        delta = math.exp(log_delta)
        h = solve_growth(n, delta)
        assert h == pytest.approx(bisect_growth(n, delta), rel=1e-10, abs=1e-12)
        # The ramp identity itself.
        assert delta * (1.0 + h) ** ((n - 2) / 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("bad_n", [0, 2, 3, 5, 7, -4])
    def test_rejects_bad_step_counts(self, bad_n):
        with pytest.raises(DomainError):
            solve_growth(bad_n, 0.1)

    @pytest.mark.parametrize("bad_delta", [0.0, -0.1, 0.51, 1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, bad_delta):
        with pytest.raises(DomainError):
            solve_growth(4, bad_delta)


class TestUShapedGrid:
    def test_small_examples(self):
        g = build_ushaped_grid(4, 0.1)
        np.testing.assert_allclose(g.times, [0.0, 0.1, 0.5, 0.9, 1.0], atol=1e-15)
        assert g.growth == pytest.approx(4.0, rel=1e-14)
        assert g.delta == 0.1
        assert g.kind is GridKind.USHAPED

        g6 = build_ushaped_grid(6, 0.125)
        np.testing.assert_allclose(
            g6.times, [0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0], atol=1e-15
        )
        assert g6.times[3] == pytest.approx(0.5, abs=1e-15)
        assert g6.times[1] + g6.times[5] == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_delta_rejected(self):
        with pytest.raises(DomainError):
            build_ushaped_grid(4, 0.5)

    @pytest.mark.parametrize("bad_n", [0, 2, 3, 11])
    def test_odd_or_tiny_step_counts_rejected(self, bad_n):
        with pytest.raises(DomainError):
            build_ushaped_grid(bad_n, 0.1)

    @given(
        n=st.integers(2, 200).map(lambda k: 2 * k),
        log_delta=st.floats(math.log(1e-10), math.log(0.499)),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_monotonicity(self, n, log_delta):
        g = build_ushaped_grid(n, math.exp(log_delta))
        t = g.times
        assert np.all(np.diff(t) > 0)
        assert np.abs(t + t[::-1] - 1.0).max() <= 1e-12
        assert abs(t[n // 2] - 0.5) <= 1e-12
        assert t[0] == 0.0 and t[-1] == 1.0

    def test_identity_checks_pass_on_randomized_grids(self):
        records = grid_suite(seed=7, n_cases=25)
        failures = [r for r in records if not r.passed]
        assert not failures, failures

    def test_interior_step_law_directly(self):
        # Independent of the check-suite implementation: recompute the
        # two-branch law on a mid-sized grid.
        g = build_ushaped_grid(40, 1e-3)
        t, h = g.times, g.growth
        for i in range(1, g.n_steps - 1):
            eta = t[i + 1] - t[i]
            expected = h * t[i] if t[i] < 0.5 else h * (1.0 - t[i + 1])
            assert eta == pytest.approx(expected, rel=1e-12), i

    def test_growth_cap_check_regime(self):
        # Every sampled case keeps h <= 1/2, where the growth cap holds.
        for n, delta in random_grid_cases(seed=3, n_cases=50):
            h = solve_growth(n, delta)
            assert h <= 0.5 + 1e-12
            assert h <= 8.0 * math.log(1.0 / (2.0 * delta)) / n * (1 + 1e-12)

    def test_growth_cap_fails_outside_regime(self):
        # The cap is genuinely not universal: a short grid with a small
        # delta exceeds it, which is why the randomized cases are
        # constrained to gentle growth.
        h = solve_growth(4, 0.1)
        assert h > 8.0 * math.log(1.0 / (2.0 * 0.1)) / 4


class TestUniformGrid:
    def test_quarters(self):
        g = build_uniform_grid(4)
        np.testing.assert_array_equal(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.kind is GridKind.UNIFORM
        assert g.delta is None and g.growth is None

    def test_single_step(self):
        np.testing.assert_array_equal(build_uniform_grid(1).times, [0.0, 1.0])

    @pytest.mark.parametrize("bad_n", [0, -3])
    def test_rejects_nonpositive(self, bad_n):
        with pytest.raises(DomainError):
            build_uniform_grid(bad_n)

    @given(n=st.integers(1, 500))
    @settings(max_examples=30, deadline=None)
    def test_spacing_is_exact(self, n):
        g = build_uniform_grid(n)
        assert g.n_steps == n
        # each step equals 1/n up to one rounding of the knots against 1.0
        np.testing.assert_allclose(g.step_sizes(), 1.0 / n, rtol=0, atol=3e-16)


class TestTimeGridBehaviour:
    def test_integration_stops_short_of_one(self):
        g = build_uniform_grid(4)
        np.testing.assert_array_equal(g.integration_times(), [0.0, 0.25, 0.5, 0.75])
        np.testing.assert_array_equal(
            g.integration_times(final_step=True), [0.0, 0.25, 0.5, 0.75, 1.0]
        )

    def test_induced_grid_is_traversed_fully(self):
        grid = ddpm_induced_rf_grid(build_ddpm_schedule(10, 2.0, 2.0))
        np.testing.assert_array_equal(grid.integration_times(), grid.times)
        appended = grid.integration_times(final_step=True)
        assert appended[-1] == 1.0 and appended.size == grid.times.size + 1

    def test_validation(self):
        with pytest.raises(DomainError):
            TimeGrid(times=np.array([0.0, 0.5, 0.5, 1.0]), kind=GridKind.UNIFORM)
        with pytest.raises(DomainError):
            TimeGrid(times=np.array([0.0, 1.5]), kind=GridKind.UNIFORM)
        with pytest.raises(DomainError):
            TimeGrid(times=np.array([0.1, 0.9]), kind=GridKind.UNIFORM)
        with pytest.raises(DomainError):
            TimeGrid(times=np.array([0.5]), kind=GridKind.DDPM_INDUCED)

    def test_times_are_read_only(self):
        g = build_uniform_grid(3)
        with pytest.raises(ValueError):
            g.times[0] = 0.3

    def test_describe_mentions_parameters(self):
        text = build_ushaped_grid(8, 0.01).describe()
        assert "ushaped" in text and "N=8" in text and "0.01" in text


class TestDdpmSchedule:
    def test_frozen_first_betas(self):
        s = build_ddpm_schedule(100, c0=2.0, c1=1.0)
        assert s.betas[1] == pytest.approx(1e-4, rel=1e-15)
        # beta_2 = b * beta_1 * (1 + b) with b = log(100)/100.
        b = math.log(100.0) / 100.0
        assert s.betas[2] == pytest.approx(b * 1e-4 * (1.0 + b), rel=1e-14)
        assert s.betas[2] == pytest.approx(4.818e-6, rel=1e-3)

    def test_conventions_and_monotonicity(self):
        s = build_ddpm_schedule(50, 2.0, 6.0)
        assert s.betas[0] == 0.0 and s.alphas[0] == 1.0 and s.omegas[0] == 1.0
        assert s.n_steps == 50
        assert np.all(s.betas[1:] > 0) and np.all(s.betas[1:] < 1)
        assert np.all(np.diff(s.omegas) < 0)
        np.testing.assert_allclose(
            s.omegas, np.cumprod(1.0 - s.betas), rtol=1e-15
        )

    def test_warmup_then_cap(self):
        s = build_ddpm_schedule(100, 2.0, 6.0)
        cap = 6.0 * math.log(100.0) / 100.0
        assert s.betas[-1] == pytest.approx(cap, rel=1e-12)
        assert s.betas[2] < s.betas[1]  # the ramp restarts below beta_1
        assert np.all(np.diff(s.betas[2:]) >= 0)

    def test_beta_reaching_one_is_rejected(self):
        with pytest.raises(DomainError):
            build_ddpm_schedule(10, 2.0, 5.0)  # cap = 5*log(10)/10 > 1

    @pytest.mark.parametrize("c0,c1", [(0.0, 1.0), (2.0, 0.0), (2.0, -1.0)])
    def test_degenerate_constants_rejected(self, c0, c1):
        with pytest.raises(DomainError):
            build_ddpm_schedule(100, c0, c1)

    def test_tiny_chain_rejected(self):
        with pytest.raises(DomainError):
            build_ddpm_schedule(1, 2.0, 1.0)


class TestInducedGrid:
    def test_mix_weight_map_examples(self):
        assert time_from_mix_weight(0.5) == pytest.approx(0.5, abs=1e-15)
        assert time_from_mix_weight(0.2) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert time_from_mix_weight(0.0) == 0.0
        assert time_from_mix_weight(1.0) == 1.0
        with pytest.raises(DomainError):
            time_from_mix_weight(-0.1)
        with pytest.raises(DomainError):
            time_from_mix_weight(1.1)

    @given(log_s=st.floats(-18.0, 18.0))
    @settings(max_examples=50, deadline=None)
    def test_mix_weight_round_trip(self, log_s):
        # omega = t^2 / ((1-t)^2 + t^2) inverts the map.
        omega = 1.0 / (1.0 + math.exp(-log_s))
        t = time_from_mix_weight(omega)
        back = t * t / ((1.0 - t) ** 2 + t * t)
        assert back == pytest.approx(omega, rel=1e-9, abs=1e-12)

    def test_grid_orientation_and_span(self):
        s = build_ddpm_schedule(100, 2.0, 6.0)
        grid = ddpm_induced_rf_grid(s)
        assert grid.kind is GridKind.DDPM_INDUCED
        assert grid.n_steps == 100 and grid.times.size == 100
        assert np.all(np.diff(grid.times) > 0)
        assert 0.0 < grid.times[0] < 1e-3  # fully-noised start
        # terminal gap ~ sqrt(beta_1) = N^(-c0/2)
        assert grid.delta == pytest.approx(1.0 - grid.times[-1], abs=1e-18)
        assert grid.delta == pytest.approx(0.01, rel=0.05)
        # each knot is the mix-time of the matching omega
        np.testing.assert_allclose(
            grid.times, time_from_mix_weight(s.omegas[1:][::-1]), rtol=0, atol=0
        )

    def test_saturating_schedule_gives_endpoint_heavy_knots(self):
        # With the cap active for most of the chain, knots pile up near both
        # ends of [0, 1] — the same shape the U-shaped grid is built for.
        grid = ddpm_induced_rf_grid(build_ddpm_schedule(100, 2.0, 6.0))
        t = grid.times
        assert np.mean(t < 0.2) > 0.25
        assert np.mean(t > 0.8) > 0.25
        assert np.mean((t >= 0.2) & (t <= 0.8)) < 0.5

    def test_warmup_only_schedule_clusters_near_one(self):
        # The example constants (c0=2, c1=1, N=100) never reach the cap:
        # total noising is tiny and every knot sits above 0.9.  Monotonicity
        # still holds; the endpoint-heavy shape does not.
        grid = ddpm_induced_rf_grid(build_ddpm_schedule(100, 2.0, 1.0))
        assert np.all(np.diff(grid.times) > 0)
        assert grid.times[0] > 0.9


class TestDefaultDelta:
    def test_rules(self):
        assert default_delta(100) == pytest.approx(0.01)
        assert default_delta(100, dim=400) == pytest.approx(1.0 / 400.0)
        assert default_delta(100, dim=10) == pytest.approx(0.01)
        with pytest.raises(DomainError):
            default_delta(0)
        with pytest.raises(DomainError):
            default_delta(10, dim=0)


class TestGridTable:
    def test_every_kind_has_one_entry(self):
        assert set(GRIDS) == set(GridKind)

    def test_builders_and_delta_rules(self):
        uniform = GRIDS[GridKind.UNIFORM].build(50, 0.02)
        assert np.array_equal(uniform.grid.times, build_uniform_grid(50).times)
        assert (uniform.delta, uniform.schedule) == (0.02, None)
        ushaped = GRIDS[GridKind.USHAPED].build(50, 0.02)
        assert np.array_equal(ushaped.grid.times, build_ushaped_grid(50, 0.02).times)
        assert (ushaped.delta, ushaped.schedule) == (0.02, None)
        induced = GRIDS[GridKind.DDPM_INDUCED].build(50, 0.02, 2.5, 5.0)
        schedule = build_ddpm_schedule(50, 2.5, 5.0)
        assert np.array_equal(induced.schedule.betas, schedule.betas)
        assert np.array_equal(induced.grid.times, ddpm_induced_rf_grid(schedule).times)
        assert induced.delta == induced.grid.delta  # its own gap, not the one asked for

    @pytest.mark.parametrize(
        "kind, constructors",
        [
            (GridKind.UNIFORM, ["build_uniform_grid"]),
            (GridKind.USHAPED, ["build_ushaped_grid"]),
            (GridKind.DDPM_INDUCED, ["build_ddpm_schedule", "ddpm_induced_rf_grid"]),
        ],
    )
    def test_builders_call_the_module_attributes(self, kind, constructors, monkeypatch):
        # Wrappers installed on the module (tracing, say) must see every build.
        import flowgrid.schedules as schedules

        calls = []
        for name in constructors:
            real = getattr(schedules, name)
            monkeypatch.setattr(
                schedules,
                name,
                lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args),
            )
        GRIDS[kind].build(40, 0.025)
        assert calls == constructors
