"""The four benchmark workloads and the correctness gate on their outputs.

A *pass* runs one workload once for one seed and returns its op times and
its output bytes.  An op is one sweep cell, or one seed's ``check`` calls
for all four suites.  The gate counts an op as failed when it raises, is
missing, writes an ``error`` row, has a ``tv`` outside [0, 1], moves from its
golden ``tv`` by more than ``TV_TOLERANCE``, or (for the check suites) exits
non-zero or reports a failed record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import SUITES

GOLDEN_PATH = Path(__file__).with_name("golden.json")

TV_TOLERANCE = 0.01
"""Largest |tv - golden tv| a sweep cell may move before it counts as failed.

Reordering float sums leaves tv unchanged at this commit: perturbing every
sample by a relative 1e-13 before the probe moves no cell's tv at all, and
the probe's resolution is one flipped test prediction, 1/n_test per class
averaged over rounds (about 1e-4 at n = 2000).  The criterion-9 gaps the
benchmark must keep are far wider: U-shaped vs uniform tv differ by about
0.98 at d >= 200, and the stochastic-vs-flow band is 0.1.  0.01 sits two
orders above the first and an order below the second; it is about two of
the probe's reported standard errors on the noisiest cells.
"""

@dataclass
class PassResult:
    wall_s: float
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output: bytes = b""
    identical_to_golden: bool | None = None
    errors: list[str] = field(default_factory=list)


def blob_sha1(data: bytes) -> str:
    """Git-style blob hash, as the harness manifest records it."""
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class Sweep:
    """A grid-comparison sweep, run through the library or through the CLI."""

    name: str
    dims: tuple[int, ...]
    n_steps: tuple[int, ...]
    samplers: tuple[str, ...]
    grids: tuple[str, ...]
    threads: int = 1
    via_cli: bool = False
    num_samples: int = 2000
    rounds: int = 10
    pass_s: float = 10.0
    """Seconds one pass takes on a 2-core x86 box; sets passes per run."""

    def tiny(self) -> "Sweep":
        return replace(
            self, dims=(12, 24)[: len(self.dims)], n_steps=(40,), num_samples=200, rounds=2
        )

    def spec(self, seed: int, out: Path):
        from flowgrid.harness import ExperimentSpec

        return ExperimentSpec(
            dims=self.dims,
            intrinsic_dim=min(8, min(self.dims)),
            n_steps=self.n_steps,
            samplers=self.samplers,
            grids=self.grids,
            num_samples=self.num_samples,
            seeds=(seed,),
            rounds=self.rounds,
            out=str(out),
        )

    def config_text(self, seed: int) -> str:
        grids = ",".join("ddpm" if g == "ddpm-induced" else g for g in self.grids)
        return (
            "kind = experiment\n"
            f"dims = {','.join(map(str, self.dims))}\n"
            f"intrinsic_dim = {min(8, min(self.dims))}\n"
            f"n_steps = {','.join(map(str, self.n_steps))}\n"
            f"samplers = {','.join(self.samplers)}\n"
            f"grids = {grids}\n"
            f"num_samples = {self.num_samples}\n"
            f"seeds = {seed}\n"
            f"rounds = {self.rounds}\n"
        )

    def prepare(self, seed: int, workdir: Path):
        """Everything a pass needs before its first op: the spec or the argv."""
        csv = workdir / f"{self.name}.csv"
        if not self.via_cli:
            return self.spec(seed, csv)
        from flowgrid.harness import parse_config

        config = workdir / f"{self.name}.cfg"
        config.write_text(self.config_text(seed), encoding="utf-8")
        parse_config(config)  # a malformed config fails in set-up, not in an op
        return [
            "--threads", str(self.threads), "--out", str(csv),
            "experiment", "fig2", "--config", str(config), "--manifest",
        ]

    def cell_keys(self, seed: int) -> list[tuple]:
        from flowgrid.harness import sampler_fits_grid

        return [
            (d, n, s, g, seed)
            for d in self.dims
            for n in self.n_steps
            for s in self.samplers
            for g in self.grids
            if sampler_fits_grid(s, g)
        ]

    def run_pass(self, seed: int, workdir: Path, prepared, threads: int | None = None,
                 golden: dict | None = None) -> PassResult:
        import flowgrid.cli
        from flowgrid.harness import run_fig2_experiment

        threads = self.threads if threads is None else threads
        csv = workdir / f"{self.name}.csv"
        errors: list[str] = []
        wall_ms: dict[tuple, float] = {}
        start = time.perf_counter()
        try:
            if self.via_cli:
                argv = list(prepared)
                argv[argv.index("--threads") + 1] = str(threads)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = flowgrid.cli.main(argv)
                if code != 0:
                    errors.append(f"flowgrid exited with code {code}")
                else:
                    manifest = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))
                    wall_ms = {
                        _manifest_key(label): ms
                        for label, ms in manifest["wall_ms_by_cell"].items()
                    }
            else:
                rows = run_fig2_experiment(prepared, threads=threads)
                wall_ms = {
                    (r.d, r.n_steps, r.sampler, r.grid_kind, r.seed): r.wall_ms for r in rows
                }
        except Exception as exc:  # the gate reports it as failed cells
            errors.append(f"{type(exc).__name__}: {exc}")
        wall_s = time.perf_counter() - start
        output = csv.read_bytes() if csv.exists() else b""
        result = PassResult(wall_s=wall_s, output=output, errors=errors)
        self._gate(result, seed, wall_ms, golden)
        return result

    def _gate(self, result: PassResult, seed: int, wall_ms: dict, golden: dict | None):
        tv_by_key = csv_cells(result.output)
        if tv_by_key is None:
            result.errors.append("CSV header missing or wrong")
            tv_by_key = {}
        golden_tv = (golden or {}).get("tv", {})
        keys = self.cell_keys(seed)
        result.attempted = len(keys)
        for key in keys:
            tv = _as_float(tv_by_key.get(key, "missing"))
            want = golden_tv.get(cell_label(key), tv)
            if key in wall_ms and 0.0 <= tv <= 1.0 and abs(tv - want) <= TV_TOLERANCE:
                result.op_s.append(wall_ms[key] / 1000.0)
            else:
                result.failed += 1
                result.errors.append(f"cell {cell_label(key)} failed the gate")
        if golden is not None:
            result.identical_to_golden = blob_sha1(result.output) == golden["csv_blob_sha1"]


def csv_cells(output: bytes) -> dict[tuple, str] | None:
    """The tv field of each row by cell key; None when the header is wrong."""
    from flowgrid.harness import CSV_HEADER

    lines = output.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    cells = {}
    for line in lines[1:]:
        f = line.split(",")
        if len(f) == 8:
            cells[(int(f[0]), int(f[2]), f[3], f[4], int(f[5]))] = f[6]
    return cells


def _as_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:  # an 'error' marker row, or a missing row
        return float("nan")


def cell_label(key: tuple) -> str:
    d, n, sampler, grid, seed = key
    return f"d={d},N={n},{sampler},{grid},seed={seed}"


def _manifest_key(label: str) -> tuple:
    d, n, sampler, grid, seed = label.split(",")
    return (int(d[2:]), int(n[2:]), sampler, grid, int(seed[5:]))


# ---------------------------------------------------------------------------
# check suites


@dataclass(frozen=True)
class CheckSuites:
    """``flowgrid check`` for every suite; one op is one seed's four calls.

    A single call other than ``equivalence`` takes 10-30 ms, mostly
    interpreter work, and between runs on a shared 2-vCPU VM such calls
    slowed twice as much as the numpy-bound rest (median spread 0.35 over
    ten runs against 0.15), so a seed's four calls are timed as one op.
    """

    name: str = "check-suites"
    pass_s: float = 0.33

    def tiny(self) -> "CheckSuites":
        return self

    def prepare(self, seed: int, workdir: Path):
        import flowgrid.cli  # noqa: F401

        return None

    def run_pass(self, seed: int, workdir: Path, prepared, threads: int | None = None,
                 golden: dict | None = None) -> PassResult:
        import flowgrid.cli

        result = PassResult(wall_s=0.0, attempted=1)
        start = time.perf_counter()
        for suite in SUITES:
            out = workdir / f"check-{suite}.csv"
            argv = ["--seed", str(seed), "--out", str(out), "check", "--suite", suite]
            try:
                code = flowgrid.cli.main(argv)
            except Exception as exc:  # the gate reports it as a failed op
                code = None
                result.errors.append(f"{suite}: {type(exc).__name__}: {exc}")
            text = out.read_bytes() if out.exists() else b""
            result.output += text
            failed_records = text.count(b",fail\n")
            if code != 0 or failed_records or not text:
                result.errors.append(f"{suite} seed {seed}: exit {code}, {failed_records} failed")
        result.wall_s = time.perf_counter() - start
        if result.errors:
            result.failed = 1
        else:
            result.op_s.append(result.wall_s)
        if golden is not None:
            result.identical_to_golden = blob_sha1(result.output) == golden["output_blob_sha1"]
        return result


WORKLOADS = {
    "rf-probe": Sweep(
        "rf-probe", dims=(200, 400, 800), n_steps=(100,), samplers=("rf",),
        grids=("uniform", "ushaped"), pass_s=10.0,
    ),
    "stochastic-chain": Sweep(
        "stochastic-chain", dims=(200,), n_steps=(400,),
        samplers=("rf", "ddim-rf", "stoc-rf", "ddpm", "langevin"), grids=("ddpm-induced",),
        pass_s=17.0,
    ),
    "small-threaded": Sweep(
        "small-threaded", dims=(10, 50, 100), n_steps=(100, 200), samplers=("rf", "stoc-rf"),
        grids=("uniform", "ushaped", "ddpm-induced"), threads=2, via_cli=True, pass_s=9.0,
    ),
    "check-suites": CheckSuites(),
}
