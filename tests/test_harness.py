"""Sweep harness tests: tiny end-to-end cells, reproducibility, config parsing."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowgrid import (
    DeltaRule,
    DomainError,
    ExperimentSpec,
    ParseError,
    ResultRow,
    Target,
    parse_config,
    run_fig2_experiment,
    sampler_fits_grid,
)
from flowgrid.batch import SampleBatch
from flowgrid.cli import main as cli_main
from flowgrid.harness import CSV_HEADER, _git_blob_sha1
from flowgrid.samplers import SAMPLERS, run_sampler
from flowgrid.schedules import GRIDS, GridKind
from flowgrid.targets import ExactOracle


def _openblas_threads():
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    from flowgrid.harness import _openblas_handles

    return [get() for get, _ in _openblas_handles()]


@st.composite
def valid_specs(draw):
    """An ExperimentSpec drawn over every field, valid as constructed."""
    dims = tuple(draw(st.lists(st.integers(1, 1000), min_size=1, unique=True, max_size=4)))
    delta = draw(st.none() | st.floats(1e-4, 0.1))
    fields = dict(
        dims=dims,
        intrinsic_dim=draw(st.integers(1, min(dims))),
        n_steps=tuple(draw(st.lists(st.integers(20, 200).map(lambda n: 2 * n), min_size=1, unique=True, max_size=3))),
        samplers=tuple(draw(st.lists(st.sampled_from(tuple(SAMPLERS)), min_size=1, unique=True))),
        grids=tuple(draw(st.lists(st.sampled_from([k.value for k in GRIDS]), min_size=1, unique=True))),
        num_samples=draw(st.integers(200, 5000)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32), min_size=1, unique=True, max_size=5))),
        rounds=draw(st.integers(1, 20)),
        delta_rule=DeltaRule(delta),
        out=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
    )
    try:
        return ExperimentSpec(**fields)
    except DomainError:
        assume(False)


def tiny_spec(tmp_path, **overrides):
    base = dict(
        dims=(10,),
        intrinsic_dim=8,
        n_steps=(40,),
        samplers=("rf",),
        grids=("ushaped",),
        num_samples=300,
        seeds=(0,),
        rounds=3,
        out=str(tmp_path / "rows.csv"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_defaults_cover_the_benchmark_sweep(self):
        spec = ExperimentSpec()
        assert spec.dims == (10, 50, 100, 200, 400, 800)
        assert spec.intrinsic_dim == 8
        assert spec.n_steps == (100, 200)
        assert spec.grids == ("uniform", "ushaped")
        assert spec.num_samples == 2000
        assert spec.seeds == (0, 1, 2, 3, 4)
        assert spec.rounds == 10
        assert spec.delta_rule == DeltaRule()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(dims=()), "nonempty"),
            (dict(dims=(4,), intrinsic_dim=8), "intrinsic_dim"),
            (dict(intrinsic_dim=0), "intrinsic_dim"),
            (dict(n_steps=(1,)), "n_steps must be an integer >= 2, got 1"),
            (dict(samplers=("euler-maruyama",)), "unknown samplers"),
            (dict(grids=("chebyshev",)), "unknown grids"),
            (dict(num_samples=150), "num_samples must be an integer >= 200, got 150"),
            (dict(rounds=0), "rounds must be an integer >= 1, got 0"),
            (dict(seeds=(0, -1)), "seeds must be an integer >= 0, got -1"),
            # a repeat would score the same cells twice under one manifest key
            (dict(dims=(10, 50, 10)), "dims repeats 10"),
            (dict(n_steps=(100, 100)), "n_steps repeats 100"),
            (dict(samplers=("rf", "rf")), "samplers repeats 'rf'"),
            (dict(grids=("ushaped", "uniform", "ushaped")), "grids repeats 'ushaped'"),
            (dict(seeds=(3, 3)), "seeds repeats 3"),
            # a fractional count would build, then fail in the first cell
            (dict(dims=(10.5,), intrinsic_dim=8), "dims must be an integer >= 1, got 10.5"),
            (dict(intrinsic_dim=8.0), "intrinsic_dim must be an integer >= 1, got 8.0"),
            (dict(n_steps=(100, 200.0)), "n_steps must be an integer >= 2, got 200.0"),
            (dict(num_samples=2000.5), "num_samples must be an integer >= 200, got 2000.5"),
            (dict(rounds=2.5), "rounds must be an integer >= 1, got 2.5"),
        ],
    )
    def test_rejects_malformed_specs(self, overrides, match):
        with pytest.raises(DomainError, match=match):
            ExperimentSpec(**overrides)

    def test_numpy_integer_counts_are_accepted(self):
        spec = ExperimentSpec(
            dims=(np.int64(10),), intrinsic_dim=np.int32(8), n_steps=(np.int64(40),),
            num_samples=np.int64(300), rounds=np.int16(2),
        )
        assert spec.dims == (10,) and spec.rounds == 2

    def test_delta_rule(self):
        rule = DeltaRule()
        assert rule.resolve(100, 400) == pytest.approx(1 / 400)
        assert rule.resolve(50, 10) == pytest.approx(1 / 50)
        assert rule.describe() == "min(1/N,1/d)"
        pinned = DeltaRule(fixed=0.02)
        assert pinned.resolve(100, 400) == 0.02
        assert "0.02" in pinned.describe()
        with pytest.raises(DomainError, match="fixed delta"):
            DeltaRule(fixed=0.7)

    def test_result_row_guards(self):
        row = ResultRow(10, 8, 100, "rf", "ushaped", 0, 0.5, 0.01, 12.0)
        assert row.csv_line().startswith("10,8,100,rf,ushaped,0,")
        with pytest.raises(DomainError, match="tv"):
            ResultRow(10, 8, 100, "rf", "ushaped", 0, 1.5, 0.01, 12.0)
        for wall_ms in (0.0, math.nan):  # NaN must fail the check too
            with pytest.raises(DomainError, match="wall_ms"):
                ResultRow(10, 8, 100, "rf", "ushaped", 0, 0.5, 0.01, wall_ms)
        for stderr in (-0.01, math.nan):  # the CSV's tv_stderr column
            with pytest.raises(DomainError, match="tv_stderr"):
                ResultRow(10, 8, 100, "rf", "ushaped", 0, 0.5, stderr, 12.0)

    def test_sampler_grid_compatibility(self, tmp_path, capsys):
        assert sampler_fits_grid("rf", "uniform")
        assert sampler_fits_grid("rf", "ushaped")
        assert sampler_fits_grid("stoc-rf", "ddpm-induced")
        assert sampler_fits_grid("ddpm", "ddpm-induced")
        assert not sampler_fits_grid("stoc-rf", "uniform")
        assert not sampler_fits_grid("langevin", "ushaped")
        assert not sampler_fits_grid("ddim-rf", "uniform")
        # Every pair of the two tables: the declared fit matches what the
        # library call and ``flowgrid sample`` actually do.
        target_file = tmp_path / "target.cfg"
        target_file.write_text("kind = target\ndim = 3\nintrinsic_dim = 2\n")
        oracle = ExactOracle(parse_config(target_file))
        for sampler in SAMPLERS:
            for kind in GRIDS:
                built = GRIDS[kind].build(40, 0.025)
                try:
                    run_sampler(sampler, oracle, built, 5, 0)
                    runs = True
                except DomainError:
                    runs = False
                flag = "ddpm" if kind is GridKind.DDPM_INDUCED else kind.value
                code = cli_main([
                    "sample", "--sampler", sampler, "--grid", flag, "--target",
                    str(target_file), "--n-steps", "40", "--num-samples", "5",
                ])
                capsys.readouterr()
                fits = sampler_fits_grid(sampler, kind.value)
                assert fits == runs == (code == 0), (sampler, kind, code)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_steps=(100, 5), grids=("ushaped",)),
            dict(n_steps=(100, 2), samplers=("stoc-rf",), grids=("ddpm-induced",)),
        ],
        ids=["ushaped-odd-N", "ddpm-beta-above-one"],
    )
    def test_grid_sizes_are_checked_before_any_cell_runs(self, overrides, tmp_path):
        with pytest.raises(DomainError, match=f"N={overrides['n_steps'][1]}"):
            ExperimentSpec(**overrides)
        path = tmp_path / "bad.cfg"
        path.write_text(
            f"n_steps = 100, {overrides['n_steps'][1]}\n"
            f"samplers = {','.join(overrides.get('samplers', ('rf',)))}\n"
            f"grids = {overrides['grids'][0]}\n"
        )
        with pytest.raises(ParseError, match="bad.cfg"):
            parse_config(path)

    def test_grids_no_sampler_runs_on_are_not_built(self):
        spec = ExperimentSpec(
            n_steps=(101,), samplers=("stoc-rf",), grids=("ushaped", "ddpm-induced")
        )
        assert spec.n_steps == (101,)


class TestRunExperiment:
    def test_single_cell_produces_one_calibrated_row(self, tmp_path):
        spec = tiny_spec(tmp_path)
        rows = run_fig2_experiment(spec)
        assert len(rows) == 1
        row = rows[0]
        assert (row.d, row.k, row.n_steps) == (10, 8, 40)
        assert (row.sampler, row.grid_kind, row.seed) == ("rf", "ushaped", 0)
        # exact-oracle flow on a matched-blur reference: near-null TV
        assert 0.0 <= row.tv < 0.2
        assert row.tv_stderr >= 0.0
        assert row.wall_ms > 0.0
        text = (tmp_path / "rows.csv").read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert text[1] == row.csv_line()

    @pytest.mark.filterwarnings("error")  # no overflow warning from the float32 cast
    def test_a_batch_float32_cannot_hold_fails_the_cell_by_name(self, tmp_path, monkeypatch):
        import flowgrid.harness as harness

        def overflowing(*args):
            batch = run_sampler(*args)
            data = np.array(batch.data)
            data[3, 1] = 1e39
            return SampleBatch(data=data, meta=batch.meta)

        monkeypatch.setattr(harness, "run_sampler", overflowing)
        with pytest.raises(DomainError, match="batch_a holds a NaN, an inf or a value beyond"):
            run_fig2_experiment(tiny_spec(tmp_path))

    def test_incompatible_cells_are_skipped(self, tmp_path):
        spec = tiny_spec(
            tmp_path,
            samplers=("rf", "stoc-rf", "ddpm"),
            grids=("uniform", "ushaped", "ddpm-induced"),
            seeds=(0, 1),
        )
        rows = run_fig2_experiment(spec)
        # rf runs on all three grids; stoc-rf and ddpm only on the induced one
        assert len(rows) == (3 + 1 + 1) * 2
        combos = {(r.sampler, r.grid_kind) for r in rows}
        assert ("stoc-rf", "uniform") not in combos
        assert ("ddpm", "ddpm-induced") in combos

    def test_rows_follow_spec_order(self, tmp_path):
        spec = tiny_spec(
            tmp_path,
            dims=(10, 12),
            n_steps=(30, 40),
            grids=("uniform", "ushaped"),
            seeds=(0, 1),
        )
        rows = run_fig2_experiment(spec)
        keys = [(r.d, r.n_steps, r.grid_kind, r.seed) for r in rows]
        expected = [
            (d, n, g, s)
            for d in (10, 12)
            for n in (30, 40)
            for g in ("uniform", "ushaped")
            for s in (0, 1)
        ]
        assert keys == expected

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=(0, 1), grids=("uniform", "ushaped"))
        run_fig2_experiment(spec)
        first = (tmp_path / "rows.csv").read_bytes()
        run_fig2_experiment(spec)
        assert (tmp_path / "rows.csv").read_bytes() == first

    def test_worker_pool_matches_serial_output(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=(0, 1, 2), grids=("uniform", "ushaped"))
        serial = run_fig2_experiment(spec)
        serial_bytes = (tmp_path / "rows.csv").read_bytes()
        pooled = run_fig2_experiment(spec, threads=2)
        assert (tmp_path / "rows.csv").read_bytes() == serial_bytes
        assert [r.csv_line() for r in pooled] == [r.csv_line() for r in serial]
        assert multiprocessing.active_children() == []

    def test_manifest_records_spec_hash_and_timings(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=(0, 1))
        rows = run_fig2_experiment(spec, write_manifest=True)
        manifest = json.loads((tmp_path / "rows.json").read_text())
        assert manifest["row_count"] == len(rows) == 2
        assert manifest["spec"]["dims"] == [10]
        assert manifest["csv_blob_sha1"] == _git_blob_sha1(
            (tmp_path / "rows.csv").read_bytes()
        )
        timings = manifest["wall_ms_by_cell"]
        assert len(timings) == 2
        assert all(ms > 0 for ms in timings.values())
        # wall time stays out of the CSV so repeats can be byte-identical
        assert "wall" not in (tmp_path / "rows.csv").read_text()

    def test_manifest_records_stage_times(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=(0, 1), samplers=("rf", "stoc-rf"),
                         grids=("ushaped", "ddpm-induced"))
        rows = run_fig2_experiment(spec, threads=2, write_manifest=True)
        manifest = json.loads((tmp_path / "rows.json").read_text())
        stages = manifest["stage_ms_by_cell"]
        assert list(stages) == list(manifest["wall_ms_by_cell"])
        for row in rows:
            times = stages[f"d=10,N=40,{row.sampler},{row.grid_kind},seed={row.seed}"]
            assert times == {
                "sampler": row.sampler_ms,
                "reference": row.reference_ms,
                "probe": row.probe_ms,
            }
            assert all(ms > 0.0 for ms in times.values())
            assert sum(times.values()) <= row.wall_ms
        assert "ms" not in (tmp_path / "rows.csv").read_text()

    def test_manifest_records_the_probe_gradient_norm(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=(0, 1), grids=("uniform", "ushaped"))
        run_fig2_experiment(spec)
        plain_csv = (tmp_path / "rows.csv").read_bytes()
        norms = []
        for _ in range(2):
            rows = run_fig2_experiment(spec, write_manifest=True)
            manifest = json.loads((tmp_path / "rows.json").read_text())
            norms.append(manifest["probe_grad_norm_by_cell"])
            assert (tmp_path / "rows.csv").read_bytes() == plain_csv
        assert list(norms[0]) == list(manifest["wall_ms_by_cell"])
        assert list(norms[0].values()) == [r.probe_grad_norm for r in rows]
        assert all(0.0 < g < 1.0 for g in norms[0].values())
        assert norms[1] == norms[0]
        assert "grad" not in plain_csv.decode()

    @staticmethod
    def _logging_cell(harness, log, fail_seed=None):
        """A local closure in place of ``_run_cell``, as a tracer installs one:
        it cannot be pickled, and it logs each cell it starts, with the
        process and thread that run it, to a file, which worker processes
        share."""
        real = harness._run_cell

        def logged(spec, d, n_steps, sampler, grid_kind, seed, *rest):
            with open(log, "a", encoding="utf-8") as sink:
                sink.write(f"{seed} {os.getpid()} {threading.get_ident()}\n")
            if seed == fail_seed:
                raise RuntimeError("synthetic failure")
            time.sleep(0.05)  # keeps the workers busy while the pool is cancelled
            return real(spec, d, n_steps, sampler, grid_kind, seed, *rest)

        return logged

    @staticmethod
    def _started(log):
        if not log.exists():
            return []
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_cell_leaves_marker_row_and_reraises(self, tmp_path, monkeypatch, threads):
        import flowgrid.harness as harness

        log = tmp_path / "started.log"
        monkeypatch.setattr(harness, "_run_cell", self._logging_cell(harness, log, fail_seed=1))
        seeds = tuple(range(16))
        spec = tiny_spec(tmp_path, seeds=seeds)
        with pytest.raises(RuntimeError, match="synthetic"):
            run_fig2_experiment(spec, threads=threads)
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert len(lines) == 3  # header, one good row, one marker
        assert lines[1].startswith("10,8,40,rf,ushaped,0,")
        assert lines[2] == "10,8,40,rf,ushaped,1,error,RuntimeError"
        started = self._started(log)
        if threads == 1:  # in order, on this thread, stopping at the failure
            caller = (os.getpid(), threading.get_ident())
            assert started == [(0, *caller), (1, *caller)]
        else:  # in workers; the cells still queued when the failure surfaced never start
            assert os.getpid() not in {pid for _, pid, _ in started}
            assert len(started) < len(seeds)
        assert multiprocessing.active_children() == []

    def test_workers_run_a_local_closure_bound_as_run_cell(self, tmp_path, monkeypatch):
        import flowgrid.harness as harness

        spec = tiny_spec(tmp_path, seeds=(0, 1, 2))
        run_fig2_experiment(spec)
        serial_bytes = (tmp_path / "rows.csv").read_bytes()
        log = tmp_path / "started.log"
        monkeypatch.setattr(harness, "_run_cell", self._logging_cell(harness, log))
        run_fig2_experiment(spec, threads=2)
        assert (tmp_path / "rows.csv").read_bytes() == serial_bytes
        started = self._started(log)
        assert sorted(seed for seed, _, _ in started) == [0, 1, 2]
        assert os.getpid() not in {pid for _, pid, _ in started}

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        import flowgrid.harness as harness

        real_pool = harness._worker_pool
        built, children = [], []

        def counted_pool(workers):
            # a forking pool starts all its workers at the first submit
            pool = real_pool(workers)
            submit = pool.submit

            def counted_submit(*args):
                future = submit(*args)
                children.append(len(multiprocessing.active_children()))
                return future

            pool.submit = counted_submit
            built.append(workers)
            return pool

        monkeypatch.setattr(harness, "_worker_pool", counted_pool)
        spec = tiny_spec(tmp_path, seeds=(0, 1))
        run_fig2_experiment(spec, threads=4)
        assert built == [2]
        assert children and max(children) <= 2
        run_fig2_experiment(tiny_spec(tmp_path), threads=4)  # one cell: no pool
        assert built == [2]
        assert multiprocessing.active_children() == []

    def test_warns_when_no_blas_can_be_capped(self, tmp_path, monkeypatch):
        import flowgrid.harness as harness

        monkeypatch.setattr(harness, "_openblas_handles", lambda: [])
        with pytest.warns(RuntimeWarning, match="no OpenBLAS found to cap"):
            run_fig2_experiment(tiny_spec(tmp_path, seeds=(0, 1)), threads=2)

    def test_workers_share_the_cores_among_their_blas_threads(self, tmp_path, monkeypatch):
        import flowgrid.harness as harness
        from flowgrid.rng import _usable_cores

        before = _openblas_threads()
        if not before:
            pytest.skip("no OpenBLAS found through /proc/self/maps")
        real = harness._run_cell
        log = tmp_path / "blas.log"

        def logged(*args):
            with open(log, "a", encoding="utf-8") as sink:
                sink.write(f"{os.getpid()} {max(_openblas_threads())}\n")
            return real(*args)

        monkeypatch.setattr(harness, "_run_cell", logged)
        run_fig2_experiment(tiny_spec(tmp_path, seeds=(0, 1, 2, 3)), threads=2)
        counts = [int(line.split()[1]) for line in log.read_text().splitlines()]
        assert len(counts) == 4
        assert all(count <= max(1, _usable_cores() // 2) for count in counts)
        assert _openblas_threads() == before  # the caller's own pool is left alone

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the workers must inherit the patched affinity mask",
    )
    @pytest.mark.parametrize("cores, width", [(2, 0), (4, 2), (8, 3)])
    def test_workers_size_their_step_noise_by_their_core_share(
        self, tmp_path, monkeypatch, cores, width
    ):
        import flowgrid.harness as harness
        import flowgrid.rng as rng

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        real = harness._run_cell
        log = tmp_path / "cores.log"

        def logged(*args):
            with rng.StepNoise(0, (4096, 4), 5, 4096) as noise:
                threads = [t for t in threading.enumerate() if t.name.startswith("flowgrid-step-noise")]
                for i in range(5):
                    noise.block(i)
            with open(log, "a", encoding="utf-8") as sink:
                sink.write(f"{rng._usable_cores()} {len(threads)}\n")
            return real(*args)

        monkeypatch.setattr(harness, "_run_cell", logged)
        run_fig2_experiment(tiny_spec(tmp_path, seeds=(0, 1, 2, 3)), threads=2)
        lines = log.read_text().splitlines()
        assert len(lines) == 4
        assert set(lines) == {f"{cores // 2} {width}"}
        assert rng._usable_cores() == cores  # the caller keeps its whole mask

    def test_script_without_main_guard_runs_a_worker_sweep(self, tmp_path):
        script = tmp_path / "sweep.py"
        script.write_text(
            "from flowgrid import ExperimentSpec, run_fig2_experiment\n"
            "print('started')\n"
            f"spec = ExperimentSpec(dims=(10,), n_steps=(40,), grids=('ushaped',),"
            f" num_samples=300, seeds=(0, 1, 2), rounds=2, out={str(tmp_path / 'rows.csv')!r})\n"
            "rows = run_fig2_experiment(spec, threads=2)\n"
            "print(len(rows), 'rows')\n",
            encoding="utf-8",
        )
        import flowgrid

        src = str(Path(flowgrid.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )}
        done = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        # the workers neither re-run the script nor repeat its buffered output
        assert done.stdout.splitlines() == ["started", "3 rows"]
        assert len((tmp_path / "rows.csv").read_text().splitlines()) == 4

    def test_rejects_bad_invocations(self, tmp_path):
        spec = tiny_spec(tmp_path)
        for threads in (0, 1.5, True):
            with pytest.raises(DomainError, match="thread"):
                run_fig2_experiment(spec, threads=threads)
        missing = tiny_spec(tmp_path, out=str(tmp_path / "absent" / "rows.csv"))
        with pytest.raises(DomainError, match="does not exist"):
            run_fig2_experiment(missing)

    def test_output_under_a_regular_file_fails_before_any_cell(self, tmp_path, monkeypatch):
        import flowgrid.harness as harness

        monkeypatch.setattr(harness, "_run_cell", lambda *a: pytest.fail("a cell ran"))
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        spec = tiny_spec(tmp_path, out=str(plain / "rows.csv"))
        with pytest.raises(DomainError, match="is not a directory"):
            run_fig2_experiment(spec)
        assert plain.read_text() == ""


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "config.txt"
        path.write_text(text)
        return path

    def test_empty_file_is_the_default_sweep(self, tmp_path):
        spec = parse_config(self.write(tmp_path, "# just a comment\n\n"))
        assert spec == ExperimentSpec()

    def test_full_experiment_file(self, tmp_path):
        spec = parse_config(
            self.write(
                tmp_path,
                """
                kind = experiment
                dims = 10, 20          # two ambient dimensions
                intrinsic_dim = 4
                n_steps = 30, 60
                samplers = rf, stoc-rf
                grids = ushaped, ddpm
                num_samples = 250
                seeds = 3, 4
                rounds = 5
                delta = 0.02
                out = sweep.csv
                """,
            )
        )
        assert spec.dims == (10, 20)
        assert spec.samplers == ("rf", "stoc-rf")
        assert spec.grids == ("ushaped", "ddpm-induced")  # alias normalized
        assert spec.delta_rule == DeltaRule(fixed=0.02)
        assert spec.out == "sweep.csv"

    def test_config_and_sample_flag_read_ddpm_as_the_same_kind(self, tmp_path, monkeypatch):
        import flowgrid.cli as cli

        spec = parse_config(self.write(tmp_path, "samplers = stoc-rf\ngrids = ddpm\n"))
        built_kinds = []

        def spy(name, oracle, built, n, seed, **kwargs):
            built_kinds.append(built.grid.kind)
            return run_sampler(name, oracle, built, n, seed, **kwargs)

        monkeypatch.setattr(cli, "run_sampler", spy)
        target = tmp_path / "target.cfg"
        target.write_text("kind = target\ndim = 3\n")
        code = cli_main([
            "--out", str(tmp_path / "x.csv"), "sample", "--sampler", "stoc-rf", "--grid", "ddpm",
            "--target", str(target), "--n-steps", "40", "--num-samples", "5",
        ])
        assert code == 0
        assert [GridKind(g) for g in spec.grids] == built_kinds == [GridKind.DDPM_INDUCED]

    def test_delta_auto_keyword(self, tmp_path):
        spec = parse_config(self.write(tmp_path, "delta = auto\n"))
        assert spec.delta_rule == DeltaRule()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("wibble = 3\n", r"config.txt:1: unknown key 'wibble'"),
            ("dims = 10\ndims = 20\n", r":2: duplicate key 'dims'"),
            ("dims = ten\n", "needs an integer"),
            ("just some words\n", "expected 'key = value'"),
            ("kind = banana\n", "experiment|target"),
            ("delta = 0.9\n", r"delta must lie in \(0, 1/2\)"),
            ("dims = 4\nintrinsic_dim = 8\n", "invalid experiment spec"),
            ("kind = experiment\nkind = target\ndim = 3\n", r"config.txt:2: duplicate key 'kind'"),
            ("rounds = 3\ndelta = abc\n", r"config.txt:2: key 'delta': needs a number"),
            ("dims = 10,,20\n", r"config.txt:1: key 'dims': needs an integer, got ''"),
            (
                "dims = 10\nseeds = 0, -1\n",
                r"config.txt:2: key 'seeds': seeds must be an integer >= 0, got -1",
            ),
            ("grids = ddpm, ddpm-induced\n", "grids repeats 'ddpm-induced'"),
            ("dims = 10, 10\ngrids = ushaped, ushaped\n", "dims repeats 10"),
        ],
    )
    def test_rejects_malformed_experiment_files(self, tmp_path, text, match):
        with pytest.raises(ParseError, match=match):
            parse_config(self.write(tmp_path, text))

    @given(spec=valid_specs(), sep=st.sampled_from([",", ", ", " ,", " , "]))
    @settings(max_examples=40, deadline=None)
    def test_every_key_round_trips(self, tmp_path_factory, spec, sep):
        def items(values):
            return sep.join(map(str, values))

        delta = spec.delta_rule.fixed
        text = f"""
            kind = experiment
            dims = {items(spec.dims)}
            intrinsic_dim = {spec.intrinsic_dim}
            n_steps = {items(spec.n_steps)}
            samplers = {items(spec.samplers)}
            grids = {items(g.removesuffix("-induced") for g in spec.grids)}
            num_samples = {spec.num_samples}
            seeds = {items(spec.seeds)}
            rounds = {spec.rounds}
            delta = {"auto" if delta is None else repr(delta)}
            out = {spec.out}
        """
        assert "ddpm-induced" not in text
        assert parse_config(self.write(tmp_path_factory.mktemp("cfg"), text)) == spec

    def test_single_gaussian_target_with_broadcast(self, tmp_path):
        target = parse_config(
            self.write(tmp_path, "kind = target\ndim = 4\nmean = 2\nvar = 0.5, 1, 1.5, 2\n")
        )
        assert isinstance(target, Target)
        np.testing.assert_allclose(target.means, [[2.0, 2.0, 2.0, 2.0]])
        np.testing.assert_allclose(target.variances, [[0.5, 1.0, 1.5, 2.0]])

    def test_low_rank_target_shorthand(self, tmp_path):
        target = parse_config(
            self.write(
                tmp_path, "kind = target\ndim = 10\nintrinsic_dim = 8\nmean = 8\nvar = 1\n"
            )
        )
        assert target.intrinsic_dim == 8
        np.testing.assert_allclose(target.means[0], np.full(10, 8.0))
        np.testing.assert_allclose(target.variances[0, :8], 1.0)
        np.testing.assert_allclose(target.variances[0, 8:], 0.0)

    def test_component_blocks_build_a_mixture(self, tmp_path):
        target = parse_config(
            self.write(
                tmp_path,
                """
                kind = target
                dim = 3
                component
                weight = 0.25
                mean = -2
                var = 1
                component
                weight = 0.75
                mean = 1, 2, 3
                var = 0.5
                """,
            )
        )
        np.testing.assert_allclose(target.weights, [0.25, 0.75])
        np.testing.assert_allclose(target.means[0], [-2.0, -2.0, -2.0])
        np.testing.assert_allclose(target.means[1], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(target.variances[1], [0.5, 0.5, 0.5])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("kind = target\nmean = 1\n", "needs a 'dim'"),
            ("kind = target\ndim = 3\nweight = 1\n", "only valid inside"),
            ("kind = target\ndim = 3\nmean = 1, 2\n", "1 or 3 values"),
            (
                "kind = target\ndim = 3\nintrinsic_dim = 2\nmean = 1, 2, 3\n",
                "scalar 'mean'",
            ),
            ("kind = target\ndim = 3\nintrinsic_dim = 9\n", r"\[1, 3\]"),
            ("kind = target\ndim = 3\ncomponent\nmean = 0\n", "needs a 'weight'"),
            (
                "kind = target\ndim = 3\ncomponent\nweight = 0.5\nweight = 0.5\n",
                "duplicate key 'weight'",
            ),
            ("kind = target\ndim = 3\ncomponent = 2\n", "takes no value"),
            (
                "kind = target\ndim = 3\ncomponent\nweight = 0.3\n"
                "component\nweight = 0.3\n",
                "invalid mixture",
            ),
            (
                "kind = target\ndim = 3\nmean = 0\ncomponent\nweight = 1\n",
                "belongs inside component blocks",
            ),
            ("kind = target\ndim = 0\n", "dim must be positive"),
            ("kind = target\ndim = 3\nrounds = 2\n", "unknown key 'rounds'"),
        ],
    )
    def test_rejects_malformed_target_files(self, tmp_path, text, match):
        with pytest.raises(ParseError, match=match):
            parse_config(self.write(tmp_path, text))
