"""CLI tests: every subcommand exercised in process through ``main(argv)``."""

import builtins
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowgrid.checks import CheckRecord
from flowgrid.cli import build_parser, main
from flowgrid.harness import parse_config
from flowgrid.samplers import run_sampler
from flowgrid.schedules import GRIDS, GridKind, default_delta
from flowgrid.targets import ExactOracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_target(tmp_path, text="kind = target\ndim = 4\nintrinsic_dim = 3\nmean = 8\nvar = 1\n"):
    path = tmp_path / "target.cfg"
    path.write_text(text)
    return str(path)


class TestScheduleCommand:
    def test_uniform_grid_csv(self, capsys):
        code, out, _ = run(capsys, "schedule", "--kind", "uniform", "--n-steps", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,t,eta"
        assert len(lines) == 6  # header + 5 knots
        times = [float(line.split(",")[1]) for line in lines[1:]]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        etas = [line.split(",")[2] for line in lines[1:]]
        assert etas[-1] == ""  # no step leaves the last knot
        assert [float(e) for e in etas[:-1]] == pytest.approx([0.25] * 4)

    def test_ushaped_grid_honors_delta(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "--kind", "ushaped", "--n-steps", "8", "--delta", "0.02"
        )
        assert code == 0
        times = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert times[-2] == pytest.approx(0.98)
        assert times == sorted(times)

    def test_induced_grid_starts_inside_the_interval(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "--kind", "ddpm-induced", "--n-steps", "50"
        )
        assert code == 0
        times = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert times[0] > 0.0
        assert times == sorted(times)

    def test_both_ddpm_spellings_print_the_same_grid(self, capsys):
        argv = ("schedule", "--n-steps", "50", "--kind")
        code, short, _ = run(capsys, *argv, "ddpm")
        assert code == 0
        assert short == run(capsys, *argv, "ddpm-induced")[1]

    def test_writes_to_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys,
            "--out",
            str(out_file),
            "schedule",
            "--kind",
            "uniform",
            "--n-steps",
            "3",
        )
        assert code == 0
        assert out == ""
        assert out_file.read_text().splitlines()[0] == "index,t,eta"

    def test_global_flags_work_after_the_subcommand_too(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys,
            "schedule",
            "--kind",
            "uniform",
            "--n-steps",
            "3",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert out == ""
        assert out_file.read_text().splitlines()[0] == "index,t,eta"
        # and the later position wins when both are given
        winner = tmp_path / "winner.csv"
        code, _, _ = run(
            capsys,
            "--out",
            str(tmp_path / "loser.csv"),
            "schedule",
            "--kind",
            "uniform",
            "--n-steps",
            "3",
            "--out",
            str(winner),
        )
        assert code == 0
        assert winner.exists()
        assert not (tmp_path / "loser.csv").exists()


class TestSampleCommand:
    def test_writes_coordinate_header_and_rows(self, capsys, tmp_path):
        target = write_target(tmp_path)
        code, out, _ = run(
            capsys,
            "--seed",
            "3",
            "sample",
            "--sampler",
            "rf",
            "--target",
            target,
            "--grid",
            "ushaped",
            "--n-steps",
            "40",
            "--num-samples",
            "50",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x0,x1,x2,x3"
        assert len(lines) == 51
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        # mean-8 target, terminal gap: every coordinate sits near 8
        assert np.all(np.abs(data.mean(axis=0) - 8.0) < 1.0)

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        target = write_target(tmp_path)
        argv = (
            "--seed", "9", "sample", "--sampler", "stoc-rf", "--target", target,
            "--grid", "ddpm", "--n-steps", "30", "--num-samples", "20",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        _, other, _ = run(capsys, "--seed", "10", *argv[2:])
        assert other != first

    def test_both_ddpm_spellings_draw_the_same_samples(self, capsys, tmp_path):
        target = write_target(tmp_path)
        argv = (
            "sample", "--sampler", "ddpm", "--target", target,
            "--n-steps", "30", "--num-samples", "20", "--grid",
        )
        code, short, _ = run(capsys, *argv, "ddpm")
        assert code == 0
        assert short == run(capsys, *argv, "ddpm-induced")[1]

    @pytest.mark.parametrize("count", ["0", "-1", "-5"])
    @pytest.mark.parametrize("sampler", ["rf", "ddpm"])
    def test_a_bad_sample_count_exits_2(self, capsys, tmp_path, sampler, count):
        # -5 used to end in numpy's traceback (exit 1), 0 in a bare header (exit 0)
        target = write_target(tmp_path)
        code, out, err = run(
            capsys, "sample", "--sampler", sampler, "--target", target,
            "--grid", "ddpm", "--n-steps", "30", "--num-samples", count,
        )
        assert (code, out) == (2, "")
        assert err.startswith("flowgrid: ") and "sample count" in err

    def test_trajectories_add_step_and_time_columns(self, capsys, tmp_path):
        target = write_target(tmp_path, "kind = target\ndim = 2\nmean = 1\nvar = 1\n")
        code, out, _ = run(
            capsys,
            "sample",
            "--sampler",
            "rf",
            "--target",
            target,
            "--grid",
            "uniform",
            "--n-steps",
            "5",
            "--num-samples",
            "3",
            "--record-trajectories",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,t,x0,x1"
        body = [line.split(",") for line in lines[1:]]
        # default stop is the last knot before 1: steps 0..4, 3 rows each
        assert len(body) == 5 * 3
        assert [row[0] for row in body[:4]] == ["0", "0", "0", "1"]
        t_of_step = {row[0]: row[1] for row in body}
        assert float(t_of_step["4"]) == pytest.approx(0.8)

    @pytest.mark.parametrize("record", [False, True], ids=["data", "trajectories"])
    def test_values_read_back_bit_for_bit(self, capsys, tmp_path, record):
        target = write_target(tmp_path)
        flags = ["--record-trajectories"] if record else []
        code, out, _ = run(
            capsys, "--seed", "3", "sample", "--sampler", "stoc-rf", "--target", target,
            "--grid", "ddpm", "--n-steps", "20", "--num-samples", "30", *flags,
        )
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
        built = GRIDS[GridKind.DDPM_INDUCED].build(20, default_delta(20, 4))
        batch = run_sampler(
            "stoc-rf", ExactOracle(parse_config(target)), built, 30, 3,
            record_trajectories=record,
        )
        if not record:
            assert rows.tobytes() == batch.data.tobytes()
            return
        frames = batch.trajectory
        assert rows[:, 0].tolist() == np.repeat(np.arange(frames.shape[0]), 30).tolist()
        assert rows[:, 1].tobytes() == np.repeat(batch.trajectory_times, 30).tobytes()
        assert rows[:, 2:].tobytes() == frames.reshape(-1, 4).tobytes()
        assert frames[-1].tobytes() == batch.data.tobytes()

    def test_every_sampler_runs_on_the_induced_grid(self, capsys, tmp_path):
        target = write_target(tmp_path)
        for sampler in ("rf", "stoc-rf", "langevin", "ddpm", "ddim-rf"):
            code, out, _ = run(
                capsys,
                "sample",
                "--sampler",
                sampler,
                "--target",
                target,
                "--grid",
                "ddpm",
                "--n-steps",
                "30",
                "--num-samples",
                "10",
            )
            assert code == 0, sampler
            assert out.splitlines()[0] == "x0,x1,x2,x3"

    def test_incompatible_sampler_grid_pairs_exit_2(self, capsys, tmp_path):
        target = write_target(tmp_path)
        for sampler, grid in (("stoc-rf", "uniform"), ("ddpm", "ushaped")):
            code, _, err = run(
                capsys,
                "sample",
                "--sampler",
                sampler,
                "--target",
                target,
                "--grid",
                grid,
                "--n-steps",
                "40",
            )
            assert code == 2, (sampler, grid)
            assert "flowgrid:" in err

    def test_experiment_config_is_rejected_as_target(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("dims = 10\n")
        code, _, err = run(
            capsys,
            "sample",
            "--sampler",
            "rf",
            "--target",
            str(config),
            "--grid",
            "uniform",
            "--n-steps",
            "10",
        )
        assert code == 2
        assert "expected a target config" in err


    def test_missing_target_file_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.cfg")
        code, _, err = run(
            capsys, "sample", "--sampler", "rf", "--target", missing,
            "--grid", "uniform", "--n-steps", "10",
        )
        assert code == 2
        assert err.startswith("flowgrid: ") and f"{missing}: cannot read config file" in err


class TestTvCommand:
    def make_samples(self, tmp_path, name, mean, n=400, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.normal(mean, 1.0, size=(n, 3))
        path = tmp_path / name
        rows = ["x0,x1,x2"] + [",".join(repr(float(v)) for v in row) for row in data]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_near_null_for_matching_distributions(self, capsys, tmp_path):
        a = self.make_samples(tmp_path, "a.csv", 0.0, seed=1)
        b = self.make_samples(tmp_path, "b.csv", 0.0, seed=2)
        code, out, _ = run(capsys, "--seed", "4", "tv", "--a", a, "--b", b, "--rounds", "4")
        assert code == 0
        header, values = out.splitlines()
        assert header == "tv,std_error,rounds"
        tv, std_error, rounds = values.split(",")
        assert 0.0 <= float(tv) < 0.15
        assert float(std_error) >= 0.0
        assert rounds == "4"

    def test_separated_distributions_read_near_one(self, capsys, tmp_path):
        a = self.make_samples(tmp_path, "a.csv", 0.0, seed=1)
        b = self.make_samples(tmp_path, "b.csv", 8.0, seed=2)
        code, out, _ = run(capsys, "tv", "--a", a, "--b", b, "--rounds", "3")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[0]) > 0.9

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        a = self.make_samples(tmp_path, "a.csv", 0.0)
        bad = tmp_path / "bad.csv"
        bad.write_text("x0\n" + "\n".join(repr(float(i)) for i in range(300)) + "\n")
        code, _, err = run(capsys, "tv", "--a", a, "--b", str(bad))
        assert code == 2
        assert "flowgrid:" in err

    def test_a_nan_sample_exits_2(self, capsys, tmp_path):
        # one NaN among 300 rows used to read as a small TV and exit 0
        a = self.make_samples(tmp_path, "a.csv", 0.0, n=300, seed=1)
        b = self.make_samples(tmp_path, "b.csv", 0.5, n=300, seed=2)
        lines = Path(b).read_text().splitlines()
        lines[150] = "nan," + lines[150].split(",", 1)[1]
        Path(b).write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "tv", "--a", a, "--b", b)
        assert (code, out) == (2, "")
        assert err.startswith("flowgrid: ") and "batch_b holds a NaN" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "tv", "--a", "/no/such.csv", "--b", "/no/such.csv")
        assert code == 2
        assert "not a readable sample CSV" in err


class TestCheckCommand:
    def test_grid_suite_passes_and_reports_per_check(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "grid")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,observed,tolerance,status"
        body = [line for line in lines[1:] if not line.startswith("#")]
        assert len(body) >= 50
        assert all(line.endswith(",pass") for line in body)
        assert lines[-1].startswith("#") and "checks passed" in lines[-1]

    @pytest.mark.parametrize("suite", ["grid", "equivalence", "covariance", "identities"])
    def test_observed_column_holds_plain_numbers(self, capsys, suite):
        code, out, _ = run(capsys, "check", "--suite", suite)
        assert code == 0
        header, *body = csv.reader(io.StringIO(out))
        assert header == ["name", "observed", "tolerance", "status"]
        body = [row for row in body if not row[0].startswith("#")]
        assert body
        for row in body:
            assert len(row) == 4, row
            assert "np." not in row[1], row
            float(row[1])
        if suite == "grid":  # its names hold commas of their own and read back whole
            assert body[0][0].startswith("endpoint-gaps[N="), body[0]
            assert all(",delta=" in row[0] and row[0].endswith("]") for row in body), body

    def test_a_record_keeps_a_numpy_observation_as_a_python_float(self):
        record = CheckRecord("x", np.float64(2.5e-9), 1e-6)
        assert type(record.observed) is float
        assert record.observed == 2.5e-9
        assert record.passed

    def test_failing_record_flips_exit_code(self, capsys, monkeypatch):
        import flowgrid.cli as cli

        monkeypatch.setattr(
            cli,
            "run_suite",
            lambda name, seed=0: [
                CheckRecord("good", 0.0, 1.0),
                CheckRecord("bad", 2.0, 1.0),
            ],
        )
        code, out, _ = run(capsys, "check", "--suite", "identities")
        assert code == 1
        assert "bad,2.0,1.0,fail" in out
        assert "# 1/2 checks passed" in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("after_subcommand", [False, True])
    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch, after_subcommand):
        import flowgrid.cli as cli

        monkeypatch.setattr(cli, "run_suite", lambda name, seed=0: pytest.fail("suite ran"))
        argv = ["check", "--suite", "grid", "--seed", "-1"]
        code, out, err = run(capsys, *(argv if after_subcommand else argv[3:] + argv[:3]))
        assert code == 2
        assert out == ""
        assert "argument --seed: must be non-negative, got -1" in err

    def test_out_into_a_missing_directory_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such"
        code, out, err = run(capsys, "--out", str(missing / "grid.csv"), "check", "--suite", "grid")
        assert code == 2
        assert out == ""
        assert f"flowgrid: output directory {missing} does not exist" in err
        assert not missing.exists()


class TestOutFailures:
    """Any ``--out`` that cannot be opened exits 2 before the command's work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import flowgrid.cli as cli
        import flowgrid.harness as harness

        def refuse(*args, **kwargs):
            pytest.fail("work ran before --out was opened")

        for module, name in ((cli, "run_sampler"), (cli, "run_suite"), (harness, "run_sampler")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.fixture
    def commands(self, tmp_path):
        target = write_target(tmp_path)
        return {
            "sample": [
                "sample", "--sampler", "rf", "--target", target,
                "--grid", "uniform", "--n-steps", "10", "--num-samples", "20",
            ],
            "check": ["check", "--suite", "grid"],
            "experiment": ["experiment", "fig2"],
        }

    @pytest.mark.parametrize("command", ["sample", "check", "experiment"])
    @pytest.mark.parametrize(
        "case", ["missing-directory", "directory", "under-a-file", "permission-denied"]
    )
    def test_exits_2_with_a_message(
        self, capsys, monkeypatch, tmp_path, no_work, commands, command, case
    ):
        (tmp_path / "plain.txt").write_text("")
        out = {
            "missing-directory": tmp_path / "no" / "such" / "rows.csv",
            "directory": tmp_path,
            "under-a-file": tmp_path / "plain.txt" / "rows.csv",
            "permission-denied": tmp_path / "rows.csv",
        }[case]
        if case == "permission-denied":
            # file modes do not stop a superuser, so the refusal is simulated
            real_open = builtins.open

            def guarded(file, mode="r", *args, **kwargs):
                if "w" in mode and os.fspath(file) == str(out):
                    raise PermissionError(13, "Permission denied", str(file))
                return real_open(file, mode, *args, **kwargs)

            monkeypatch.setattr(builtins, "open", guarded)
        code, stdout, err = run(capsys, "--out", str(out), *commands[command])
        assert code == 2
        assert stdout == ""
        assert err.startswith("flowgrid: ")
        assert "Traceback" not in err
        assert not (tmp_path / "no").exists()

    def test_a_file_as_output_directory_is_named(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        code, _, err = run(capsys, "--out", str(plain / "grid.csv"), "check", "--suite", "grid")
        assert code == 2
        assert err == f"flowgrid: output directory {plain} is not a directory\n"
        assert plain.read_text() == ""


class TestExperimentCommand:
    def test_runs_sweep_from_config(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        config = tmp_path / "exp.cfg"
        config.write_text(
            "dims = 10\nn_steps = 30\nnum_samples = 250\nseeds = 0, 1\n"
            f"rounds = 3\nout = {out_csv}\n"
        )
        code, out, _ = run(capsys, "experiment", "fig2", "--config", str(config))
        assert code == 0
        assert f"wrote 4 rows to {out_csv}" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "d,k,N,sampler,grid_kind,seed,tv,tv_stderr"
        assert len(lines) == 5

    def test_out_flag_overrides_config_and_manifest_lands_next_to_it(
        self, capsys, tmp_path
    ):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "dims = 10\nn_steps = 30\ngrids = ushaped\nnum_samples = 250\n"
            "seeds = 0\nrounds = 2\nout = ignored.csv\n"
        )
        out_csv = tmp_path / "override.csv"
        code, _, _ = run(
            capsys,
            "--out",
            str(out_csv),
            "experiment",
            "fig2",
            "--config",
            str(config),
            "--manifest",
        )
        assert code == 0
        assert out_csv.exists()
        assert (tmp_path / "override.json").exists()
        assert not (tmp_path / "ignored.csv").exists()

    def test_target_config_is_rejected(self, capsys, tmp_path):
        config = tmp_path / "t.cfg"
        config.write_text("kind = target\ndim = 3\n")
        code, _, err = run(capsys, "experiment", "fig2", "--config", str(config))
        assert code == 2
        assert "expected an experiment config" in err

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("wibble = 1\n")
        code, _, err = run(capsys, "experiment", "fig2", "--config", str(config))
        assert code == 2
        assert "unknown key 'wibble'" in err


    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.cfg")
        code, _, err = run(capsys, "experiment", "fig2", "--config", missing)
        assert code == 2
        assert err.startswith("flowgrid: ") and f"{missing}: cannot read config file" in err

    @pytest.mark.parametrize("after_subcommand", [False, True])
    def test_seed_flag_exits_2_before_any_cell(self, capsys, monkeypatch, after_subcommand):
        import flowgrid.cli as cli

        monkeypatch.setattr(cli, "run_fig2_experiment", lambda *a, **k: pytest.fail("sweep ran"))
        command = ["experiment", "fig2"]
        argv = command + ["--seed", "7"] if after_subcommand else ["--seed", "7"] + command
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("flowgrid: ") and "'seeds' key" in err

    def test_repeated_dims_exit_2_before_any_output(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        out_csv = tmp_path / "sweep.csv"
        config.write_text(f"dims = 10, 10\ngrids = ushaped, ushaped\nout = {out_csv}\n")
        code, _, err = run(capsys, "experiment", "fig2", "--config", str(config))
        assert code == 2
        assert err.startswith(f"flowgrid: {config}: invalid experiment spec: dims repeats 10")
        assert not out_csv.exists()

    def test_negative_seed_in_config_exits_2_before_any_output(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        out_csv = tmp_path / "sweep.csv"
        config.write_text(f"dims = 10\nseeds = 0, -1\nout = {out_csv}\n")
        code, _, err = run(capsys, "experiment", "fig2", "--config", str(config))
        assert code == 2
        assert f"flowgrid: {config}:2: key 'seeds'" in err
        assert not out_csv.exists()


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "schedule", "--kind", "uniform", "--n-steps", "4", "--frob")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "sample", "--help")[0] == 0


class TestParserReuse:
    """``main`` reuses one parser; no flag of one call may leak into the next."""

    @staticmethod
    def fresh_run(capsys, *argv):
        args = build_parser().parse_args(list(argv))
        code = args.handler(args)
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("after_subcommand", [False, True])
    def test_seed_and_out_do_not_carry_over(self, capsys, tmp_path, after_subcommand):
        flags = ["--seed", "7", "--out", str(tmp_path / "seed7.csv")]
        command = ["check", "--suite", "grid"]
        argv = command + flags if after_subcommand else flags + command
        assert run(capsys, *argv)[:2] == (0, "")
        code, out, _ = run(capsys, *command)
        assert (code, out) == self.fresh_run(capsys, "--seed", "0", *command)
        assert out != (tmp_path / "seed7.csv").read_text()

    def test_main_keeps_one_parser_and_build_parser_makes_new_ones(self):
        import flowgrid.cli as cli

        assert cli._shared_parser() is cli._shared_parser()
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._shared_parser()

    def test_parser_is_not_built_at_import(self):
        code = (
            "import flowgrid.cli as cli; "
            "assert cli._shared_parser.cache_info().currsize == 0"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
