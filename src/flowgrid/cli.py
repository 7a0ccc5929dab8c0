"""Command-line interface.

Subcommands mirror the library layers: ``schedule`` prints a time grid,
``sample`` runs one sampler on one target, ``tv`` scores two sample files
against each other, ``check`` runs a named diagnostic suite, and
``experiment fig2`` runs the grid-comparison sweep from a config file.

Exit codes: 0 on success, 1 when a check suite reports a failure, 2 for
usage errors, malformed configs and an ``--out`` that cannot be opened.
Tabular output goes to ``--out`` when given, stdout otherwise.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import cache

import numpy as np

from .checks import SUITES, run_suite
from .errors import FlowgridError, ParseError
from .harness import (
    ExperimentSpec,
    _check_out_directory,
    parse_config,
    run_fig2_experiment,
)
from .metrics import estimate_tv
from .samplers import SAMPLERS, run_sampler
from .schedules import GRID_FLAGS, GRIDS, default_delta
from .targets import ExactOracle, Target

__all__ = ["main", "build_parser"]


def _global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    """The three cross-cutting flags, valid before or after the subcommand.

    Subparsers get SUPPRESS defaults so they only touch the namespace when
    the flag actually appears after the subcommand (and then it wins).  An
    absent ``--seed`` reads None: ``experiment`` refuses any other value, and
    :func:`main` makes it 0 for the other subcommands.
    """
    default = (lambda value: argparse.SUPPRESS if suppress else value)

    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    parser.add_argument(
        "--seed", type=seed, default=default(None), help="master seed (default 0)"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=default(1),
        help="worker processes for sweeps, at most one per cell (default 1: run in this process)",
    )
    parser.add_argument(
        "--out", type=str, default=default(None), help="output file (default: stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command line, on every call."""
    parser = argparse.ArgumentParser(
        prog="flowgrid",
        description="Time-grid schedules, exact-oracle samplers, and TV diagnostics.",
    )
    _global_flags(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _global_flags(shared, suppress=True)
    commands = parser.add_subparsers(dest="command", required=True)

    schedule = commands.add_parser(
        "schedule", help="print a time grid as CSV", parents=[shared]
    )
    schedule.add_argument("--kind", choices=tuple(GRID_FLAGS), required=True)
    schedule.add_argument("--n-steps", type=int, required=True)
    schedule.add_argument(
        "--delta", type=float, default=None, help="terminal gap (ushaped; default 1/N)"
    )
    schedule.add_argument("--c0", type=float, default=2.0, help="warmup floor scale")
    schedule.add_argument("--c1", type=float, default=6.0, help="growth-rate scale")
    schedule.set_defaults(handler=_cmd_schedule)

    sample = commands.add_parser("sample", help="draw samples from one sampler", parents=[shared])
    sample.add_argument("--sampler", choices=tuple(SAMPLERS), required=True)
    sample.add_argument("--target", required=True, help="target config file")
    sample.add_argument("--grid", choices=tuple(GRID_FLAGS), required=True)
    sample.add_argument("--n-steps", type=int, required=True)
    sample.add_argument("--delta", type=float, default=None)
    sample.add_argument("--c0", type=float, default=2.0)
    sample.add_argument("--c1", type=float, default=6.0)
    sample.add_argument("--num-samples", type=int, default=2000)
    sample.add_argument(
        "--record-trajectories",
        action="store_true",
        help="emit every step (adds step,t columns)",
    )
    sample.set_defaults(handler=_cmd_sample)

    tv = commands.add_parser("tv", help="classifier TV between two sample files", parents=[shared])
    tv.add_argument("--a", required=True, help="first sample CSV")
    tv.add_argument("--b", required=True, help="second sample CSV")
    tv.add_argument("--rounds", type=int, default=10)
    tv.set_defaults(handler=_cmd_tv)

    check = commands.add_parser("check", help="run a diagnostic suite", parents=[shared])
    check.add_argument("--suite", choices=tuple(SUITES), required=True)
    check.set_defaults(handler=_cmd_check)

    experiment = commands.add_parser("experiment", help="run a full sweep", parents=[shared])
    experiment.add_argument("what", choices=("fig2",), help="which experiment")
    experiment.add_argument("--config", default=None, help="experiment config file")
    experiment.add_argument(
        "--manifest",
        action="store_true",
        help="also write a JSON manifest with wall times",
    )
    experiment.set_defaults(handler=_cmd_experiment)
    return parser


def _sink(args):
    """Output handle honoring --out; stdout stays open, files close.

    Commands open it before their costly step, so an ``--out`` that cannot
    be opened fails before any sampling, probing or checking.
    """
    if args.out is None:
        return nullcontext(sys.stdout)
    _check_out_directory(args.out)
    return open(args.out, "w", encoding="utf-8")


def _cmd_schedule(args) -> int:
    delta = args.delta if args.delta is not None else default_delta(args.n_steps)
    grid = GRIDS[GRID_FLAGS[args.kind]].build(args.n_steps, delta, args.c0, args.c1).grid
    times = grid.times
    with _sink(args) as sink:
        sink.write("index,t,eta\n")
        for i, t in enumerate(times):
            eta = "" if i + 1 == times.size else repr(float(times[i + 1] - t))
            sink.write(f"{i},{float(t)!r},{eta}\n")
    return 0


def _load_target(path: str) -> Target:
    parsed = parse_config(path)
    if not isinstance(parsed, Target):
        raise ParseError(f"{path}: expected a target config (kind = target)")
    return parsed


def _write_rows(sink, rows: np.ndarray, prefix: str = "") -> None:
    """One CSV line per row of ``rows``: ``prefix`` and the shortest repr of
    each value, which reads back as the same float.  Rows are converted one
    at a time, so no list of the whole array is built."""
    for row in rows:
        sink.write(prefix + ",".join(map(repr, row.tolist())) + "\n")


def _cmd_sample(args) -> int:
    target = _load_target(args.target)
    delta = args.delta if args.delta is not None else default_delta(args.n_steps, target.dim)
    built = GRIDS[GRID_FLAGS[args.grid]].build(args.n_steps, delta, args.c0, args.c1)
    coords = ",".join(f"x{j}" for j in range(target.dim))
    with _sink(args) as sink:
        batch = run_sampler(
            args.sampler, ExactOracle(target), built, args.num_samples, args.seed,
            record_trajectories=args.record_trajectories,
        )
        if not args.record_trajectories:
            sink.write(coords + "\n")
            _write_rows(sink, batch.data)
        else:
            sink.write("step,t," + coords + "\n")
            for step, (t, frame) in enumerate(
                zip(batch.trajectory_times, batch.trajectory)
            ):
                _write_rows(sink, frame, f"{step},{float(t)!r},")
    return 0


def _read_samples(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: not a readable sample CSV: {exc}") from exc
    return data


def _cmd_tv(args) -> int:
    a = _read_samples(args.a)
    b = _read_samples(args.b)
    with _sink(args) as sink:
        estimate = estimate_tv(a, b, rounds=args.rounds, seed=args.seed)
        sink.write("tv,std_error,rounds\n")
        sink.write(f"{estimate.value!r},{estimate.std_error!r},{estimate.rounds}\n")
    return 0


def _cmd_check(args) -> int:
    with _sink(args) as sink:
        records = run_suite(args.suite, seed=args.seed)
        failures = sum(not record.passed for record in records)
        rows = csv.writer(sink, lineterminator="\n")  # quotes names that hold a comma
        rows.writerow(("name", "observed", "tolerance", "status"))
        for record in records:
            status = "pass" if record.passed else "fail"
            rows.writerow((record.name, record.observed, record.tolerance, status))
        sink.write(f"# {len(records) - failures}/{len(records)} checks passed\n")
    return 1 if failures else 0


def _cmd_experiment(args) -> int:
    if args.seed is not None:
        raise ParseError(
            "experiment fig2 takes its seeds from the config's 'seeds' key, not --seed"
        )
    if args.config is not None:
        spec = parse_config(args.config)
        if not isinstance(spec, ExperimentSpec):
            raise ParseError(f"{args.config}: expected an experiment config")
    else:
        spec = ExperimentSpec()
    if args.out is not None:
        spec = replace(spec, out=args.out)
    rows = run_fig2_experiment(spec, threads=args.threads, write_manifest=args.manifest)
    print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on first use rather than at import.

    Parsing leaves the parser unchanged (each call fills a fresh namespace
    and no action has a mutable default), so one instance serves every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    if args.seed is None and args.command != "experiment":
        args.seed = 0
    try:
        return args.handler(args)
    except (FlowgridError, OSError) as exc:
        print(f"flowgrid: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
