"""Experiment orchestration: config files, the grid-comparison sweep, CSV.

The sweep reproduces the benchmark protocol: a low-rank Gaussian target
(mean 8 on every coordinate, unit variance on the first k), exact-oracle
sampling stopped at the grid's last interior time, and a classifier-TV
score against an independent reference batch drawn from the blurred target
``(1−δ)X₁ + δZ`` with the δ belonging to the grid under test.

Everything is a pure function of the :class:`ExperimentSpec`: cell seeds derive from
``(seed, d, N, sampler, grid)`` addresses, rows are written in spec order
regardless of the execution schedule, and float columns are serialized via
``repr`` — two runs of the same spec must produce byte-identical CSVs.
Wall-clock times are therefore kept out of the CSV; they live on the
returned rows and in the optional JSON manifest.

A cell looks its sampler up in :data:`~flowgrid.samplers.SAMPLERS` and its
grid in :data:`~flowgrid.schedules.GRIDS`; the grid entry also gives the δ
the reference batch is blurred with.

With ``threads > 1`` a sweep runs its cells in that many worker processes,
not threads: a small cell is mostly interpreter work (the TV probe's
gradient steps are a dozen small numpy calls each), which threads of one
process would serialize on the interpreter lock.  Workers are forked where
the platform allows, so a script without a ``__main__`` guard can run a
parallel sweep, and they see the module as it stands at the fork.  A
sweep starts no more workers than it has cells, and each worker lowers its
OpenBLAS thread count to its share of the cores.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import DomainError, ParseError
from .metrics import estimate_tv
from .rng import _usable_cores, child_seed
from .samplers import SAMPLERS, run_sampler
from .schedules import GRID_FLAGS, GRIDS, GridKind, default_delta
from .targets import ExactOracle, Target, blur_samples, sample_target

__all__ = [
    "DeltaRule",
    "ExperimentSpec",
    "ResultRow",
    "sampler_fits_grid",
    "run_fig2_experiment",
    "parse_config",
    "CSV_HEADER",
]

_GRID_NAMES = tuple(kind.value for kind in GRIDS)
CSV_HEADER = "d,k,N,sampler,grid_kind,seed,tv,tv_stderr"

_DEFAULT_DIMS = (10, 50, 100, 200, 400, 800)
_DEFAULT_STEPS = (100, 200)
_DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class DeltaRule:
    """Terminal-gap rule for grids parameterized by δ.

    ``fixed=None`` selects min{1/N, 1/d} (the benchmark default); a number
    pins δ for every cell.
    """

    fixed: float | None = None

    def __post_init__(self) -> None:
        if self.fixed is not None and not 0.0 < self.fixed < 0.5:
            raise DomainError(f"fixed delta must lie in (0, 1/2); got {self.fixed!r}")

    def resolve(self, n_steps: int, dim: int) -> float:
        return self.fixed if self.fixed is not None else default_delta(n_steps, dim)

    def describe(self) -> str:
        return "min(1/N,1/d)" if self.fixed is None else f"fixed({self.fixed:g})"


def _seed(seed: int) -> int:
    if seed < 0:
        raise DomainError(f"seeds must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid-comparison sweep, fully determining its output."""

    dims: tuple[int, ...] = _DEFAULT_DIMS
    intrinsic_dim: int = 8
    n_steps: tuple[int, ...] = _DEFAULT_STEPS
    samplers: tuple[str, ...] = ("rf",)
    grids: tuple[str, ...] = ("uniform", "ushaped")
    num_samples: int = 2000
    seeds: tuple[int, ...] = _DEFAULT_SEEDS
    rounds: int = 10
    delta_rule: DeltaRule = DeltaRule()
    out: str = "fig2.csv"

    def __post_init__(self) -> None:
        for name, values in (
            ("dims", self.dims),
            ("n_steps", self.n_steps),
            ("samplers", self.samplers),
            ("grids", self.grids),
            ("seeds", self.seeds),
        ):
            if len(values) == 0:
                raise DomainError(f"{name} must be nonempty")
        for seed in self.seeds:
            _seed(seed)
        if any(d < 1 for d in self.dims):
            raise DomainError("dimensions must be positive")
        if not 1 <= self.intrinsic_dim <= min(self.dims):
            raise DomainError(
                f"intrinsic_dim={self.intrinsic_dim} must lie in [1, min(dims)={min(self.dims)}]"
            )
        if any(n < 2 for n in self.n_steps):
            raise DomainError("each n_steps must be at least 2")
        unknown = [s for s in self.samplers if s not in SAMPLERS]
        if unknown:
            raise DomainError(f"unknown samplers {unknown}; choose from {tuple(SAMPLERS)}")
        unknown = [g for g in self.grids if g not in _GRID_NAMES]
        if unknown:
            raise DomainError(f"unknown grids {unknown}; choose from {_GRID_NAMES}")
        # Build each grid a sampler will run on once, so a bad N fails here and
        # not mid-sweep.  The smallest d gives the largest default δ, the
        # only one that can leave a builder's range.
        for grid_kind in self.grids:
            if not any(sampler_fits_grid(s, grid_kind) for s in self.samplers):
                continue
            build = GRIDS[GridKind(grid_kind)].build
            for n_steps in self.n_steps:
                try:
                    build(n_steps, self.delta_rule.resolve(n_steps, min(self.dims)))
                except DomainError as exc:
                    raise DomainError(f"grid {grid_kind} with N={n_steps}: {exc}") from exc
        if self.num_samples < 200:
            raise DomainError("num_samples must be at least 200 for the TV probe")
        if self.rounds < 1:
            raise DomainError("need at least one TV round")


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell: a (d, N, sampler, grid, seed) combination scored once.

    ``wall_ms`` times the whole cell and the three ``*_ms`` fields its
    stages: the sampler run, the reference draw plus blur, and the TV probe.
    None of them reaches the CSV.
    """

    d: int
    k: int
    n_steps: int
    sampler: str
    grid_kind: str
    seed: int
    tv: float
    tv_stderr: float
    wall_ms: float
    sampler_ms: float = 0.0
    reference_ms: float = 0.0
    probe_ms: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tv <= 1.0:
            raise DomainError(f"tv must lie in [0, 1]; got {self.tv!r}")
        if self.wall_ms <= 0.0:
            raise DomainError("wall_ms must be positive")

    def csv_line(self) -> str:
        return (
            f"{self.d},{self.k},{self.n_steps},{self.sampler},{self.grid_kind},"
            f"{self.seed},{self.tv!r},{self.tv_stderr!r}"
        )


def sampler_fits_grid(sampler: str, grid_kind: str) -> bool:
    """Whether the grid kind provides what the sampler needs.

    Read from the two tables: the plain flow integrator runs on any grid,
    the score-driven samplers need t_0 > 0 and the denoising chain needs its
    schedule, which only the schedule-induced grid provides.
    """
    return SAMPLERS[sampler].needs <= GRIDS[GridKind(grid_kind)].provides


def _run_cell(
    spec: ExperimentSpec,
    d: int,
    n_steps: int,
    sampler: str,
    grid_kind: str,
    seed: int,
    sampler_idx: int,
    grid_idx: int,
) -> ResultRow:
    start = time.perf_counter()
    target = Target.low_rank(d, spec.intrinsic_dim)
    oracle = ExactOracle(target)
    built = GRIDS[GridKind(grid_kind)].build(n_steps, spec.delta_rule.resolve(n_steps, d))

    def cell_seed(role: int) -> int:
        return child_seed(seed, d, n_steps, sampler_idx, grid_idx, role)

    stage_start = time.perf_counter()
    batch = run_sampler(sampler, oracle, built, spec.num_samples, cell_seed(0))
    sampled = time.perf_counter()
    reference = blur_samples(
        sample_target(target, spec.num_samples, cell_seed(1)),
        built.delta,
        cell_seed(2),
    )
    referenced = time.perf_counter()
    estimate = estimate_tv(batch, reference, rounds=spec.rounds, seed=cell_seed(3))
    probed = time.perf_counter()
    wall_ms = (probed - start) * 1000.0
    return ResultRow(
        d=d,
        k=spec.intrinsic_dim,
        n_steps=n_steps,
        sampler=sampler,
        grid_kind=grid_kind,
        seed=seed,
        tv=estimate.value,
        tv_stderr=estimate.std_error,
        wall_ms=max(wall_ms, 1e-3),
        sampler_ms=(sampled - stage_start) * 1000.0,
        reference_ms=(referenced - sampled) * 1000.0,
        probe_ms=(probed - referenced) * 1000.0,
    )


def _cell_task(spec: ExperimentSpec, cell: tuple) -> ResultRow:
    """One cell in a worker process.

    A module-level function pickles by reference, and it looks ``_run_cell``
    up when it runs, so a wrapper installed on this module before the
    workers fork (a tracer's closure, which cannot be pickled) still runs.
    """
    return _run_cell(spec, *cell)


_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_handles() -> list[tuple]:
    """``(get, set)`` thread-count calls of each OpenBLAS this process loaded.

    The libraries are found through ``/proc/self/maps``; where that does
    not exist, or no OpenBLAS is loaded, the list is empty.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    handles = []
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                handles.append((get, set_))
                break
    return handles


def _limit_blas_threads(limit: int) -> None:
    """Lower each loaded OpenBLAS to at most ``limit`` threads.

    Runs in each sweep worker.  Every process has its own BLAS thread pool,
    and OpenBLAS threads spin while they wait for work: two workers with a
    two-thread pool each made the d >= 400 probe rounds ten times slower
    on a 2-vCPU x86 VM.  Thread counts do not change the sweep's output.
    """
    for get, set_ in _openblas_handles():
        set_(max(1, min(get(), limit)))


def _worker_pool(workers: int):
    """A process pool, forked where the platform can fork.

    Forked workers start from the caller's loaded modules and never re-run
    its script, so a caller needs no ``__main__`` guard; ``multiprocessing``
    flushes stdout and stderr before each fork, so no worker repeats the
    caller's buffered output.  A fork copies only the calling thread, so a
    caller should not start a parallel sweep while its other threads may
    hold locks.  A forking pool starts all its workers at once, so the
    caller sizes it to the work.  Each worker gets an equal share of the
    cores for its BLAS threads; where no OpenBLAS can be found to cap, a
    warning says so once.  The process machinery is imported here so that
    importing the package does not pay for it.
    """
    import multiprocessing
    import warnings
    from concurrent.futures import ProcessPoolExecutor

    if not _openblas_handles():
        warnings.warn(
            f"no OpenBLAS found to cap: each of the {workers} sweep workers keeps its "
            "BLAS library's own thread count, which can oversubscribe the cores",
            RuntimeWarning,
            stacklevel=3,
        )
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_limit_blas_threads,
        initargs=(_usable_cores() // workers,),
    )


def _cell_label(row: ResultRow) -> str:
    return f"d={row.d},N={row.n_steps},{row.sampler},{row.grid_kind},seed={row.seed}"


def _cells(spec: ExperimentSpec):
    for d in spec.dims:
        for n_steps in spec.n_steps:
            for sampler_idx, sampler in enumerate(spec.samplers):
                for grid_idx, grid_kind in enumerate(spec.grids):
                    if not sampler_fits_grid(sampler, grid_kind):
                        continue
                    for seed in spec.seeds:
                        yield d, n_steps, sampler, grid_kind, seed, sampler_idx, grid_idx


def _git_blob_sha1(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def run_fig2_experiment(
    spec: ExperimentSpec,
    *,
    threads: int = 1,
    write_manifest: bool = False,
) -> list[ResultRow]:
    """Run the sweep, streaming rows to ``spec.out`` as cells finish.

    With ``threads > 1`` the cells run in that many worker processes (no
    more than there are cells), but rows always land in spec order, so the
    CSV is identical either way.  If a cell raises, the rows finished so
    far are already flushed, a marker row naming the cell and the exception
    type is appended (its tv column reads ``error``), the exception
    propagates, and cells not yet handed to a worker never start.

    With ``write_manifest=True`` a JSON file next to the CSV records the
    spec, the CSV's git-style blob hash, and per-cell wall times and stage
    times — the one place timing information is persisted.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1; got {threads}")
    out_path = Path(spec.out)
    if out_path.parent and not out_path.parent.exists():
        raise DomainError(f"output directory {out_path.parent} does not exist")

    cells = list(_cells(spec))
    rows: list[ResultRow] = []
    total_start = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as sink:
        sink.write(CSV_HEADER + "\n")
        sink.flush()

        def finish(row: ResultRow) -> None:
            rows.append(row)
            sink.write(row.csv_line() + "\n")
            sink.flush()

        # One zero-argument call per cell that returns its row.  A single
        # worker runs each cell on the caller's thread when its row is due,
        # with no process started; a pool never has more workers than cells.
        workers = min(threads, len(cells))
        pool = _worker_pool(workers) if workers > 1 else None
        try:
            if pool is None:
                outcomes = [partial(_run_cell, spec, *cell) for cell in cells]
            else:
                outcomes = [pool.submit(_cell_task, spec, cell).result for cell in cells]
            for cell, outcome in zip(cells, outcomes):
                try:
                    finish(outcome())
                except Exception as exc:
                    d, n_steps, sampler, grid_kind, seed = cell[:5]
                    sink.write(
                        f"{d},{spec.intrinsic_dim},{n_steps},{sampler},{grid_kind},"
                        f"{seed},error,{type(exc).__name__}\n"
                    )
                    raise
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    if write_manifest:
        manifest = {
            "spec": asdict(spec),
            "csv_blob_sha1": _git_blob_sha1(out_path.read_bytes()),
            "row_count": len(rows),
            "total_wall_ms": (time.perf_counter() - total_start) * 1000.0,
            "wall_ms_by_cell": {_cell_label(r): r.wall_ms for r in rows},
            "stage_ms_by_cell": {
                _cell_label(r): {
                    "sampler": r.sampler_ms,
                    "reference": r.reference_ms,
                    "probe": r.probe_ms,
                }
                for r in rows
            },
        }
        out_path.with_suffix(".json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return rows


# ---------------------------------------------------------------------------
# config files


def _fail(path: str, lineno: int, message: str) -> ParseError:
    return ParseError(f"{path}:{lineno}: {message}")


def _parse_lines(path: str) -> list[tuple[int, str, str | None]]:
    """(lineno, key, value) triples; value None marks a bare ``component`` line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read config file: {exc}") from exc
    entries: list[tuple[int, str, str | None]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line == "component":
            entries.append((lineno, line, None))
        elif line:
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise _fail(path, lineno, f"expected 'key = value', got {line!r}")
            if not key:
                raise _fail(path, lineno, "empty key")
            entries.append((lineno, key, value))
    return entries


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"needs an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"needs a number, got {text!r}") from None


def _items(fn: Callable[[str], Any]) -> Callable[[str], tuple]:
    """A converter for a comma-separated list, each item converted by ``fn``."""
    return lambda text: tuple(fn(part.strip()) for part in text.split(","))


def _kind(text: str) -> str:
    if text not in ("experiment", "target"):
        raise ValueError(f"kind must be experiment|target, got {text!r}")
    return text


def _convert(path: str, lineno: int, key: str, value: str, fn: Callable[[str], Any]):
    """``fn(value)``, with a ValueError (a DomainError too) as a ParseError."""
    try:
        return fn(value)
    except ValueError as exc:
        raise _fail(path, lineno, f"key '{key}': {exc}") from exc


def _put(into: dict, path: str, lineno: int, key: str, value: str | None, fn) -> None:
    """Store ``key``'s converted value and line; ``fn`` None marks an unknown key."""
    if fn is None:
        raise _fail(path, lineno, f"unknown key '{key}'")
    if key in into:
        raise _fail(path, lineno, f"duplicate key '{key}'")
    into[key] = (lineno, _convert(path, lineno, key, value, fn))


# config key -> (ExperimentSpec field, converter); ``kind`` picks the schema.
_EXPERIMENT_KEYS: dict[str, tuple[str | None, Callable[[str], Any]]] = {
    "kind": (None, _kind),
    "dims": ("dims", _items(_int)),
    "intrinsic_dim": ("intrinsic_dim", _int),
    "n_steps": ("n_steps", _items(_int)),
    "samplers": ("samplers", _items(str)),
    "grids": ("grids", _items(lambda g: GRID_FLAGS[g].value if g in GRID_FLAGS else g)),
    "num_samples": ("num_samples", _int),
    "seeds": ("seeds", _items(lambda text: _seed(_int(text)))),
    "rounds": ("rounds", _int),
    "delta": ("delta_rule", lambda t: DeltaRule() if t == "auto" else DeltaRule(_float(t))),
    "out": ("out", str),
}
# A target's top-level keys, and the keys of its ``component`` blocks.
_TARGET_KEYS = {
    "kind": _kind,
    "dim": _int,
    "intrinsic_dim": _int,
    "mean": _items(_float),
    "var": _items(_float),
}
_COMPONENT_KEYS = {"weight": _float, "mean": _items(_float), "var": _items(_float)}


def _broadcast(path: str, key: str, entry: tuple[int, tuple], dim: int) -> np.ndarray:
    lineno, values = entry
    if len(values) == 1:
        return np.full(dim, values[0])
    if len(values) != dim:
        raise _fail(path, lineno, f"key '{key}' needs 1 or {dim} values, got {len(values)}")
    return np.asarray(values)


def _parse_target(path: str, entries) -> Target:
    top: dict[str, tuple[int, Any]] = {}
    blocks: list[dict[str, tuple[int, Any]]] = []
    for lineno, key, value in entries:
        if key == "component":
            if value is not None:
                raise _fail(path, lineno, "'component' opens a block and takes no value")
            blocks.append({})
        elif blocks and key in _COMPONENT_KEYS:
            _put(blocks[-1], path, lineno, key, value, _COMPONENT_KEYS[key])
        elif key == "weight":
            raise _fail(path, lineno, "'weight' is only valid inside a component block")
        else:
            _put(top, path, lineno, key, value, _TARGET_KEYS.get(key))

    if "dim" not in top:
        raise _fail(path, 1, "target config needs a 'dim' key")
    dim_line, dim = top["dim"]
    if dim < 1:
        raise _fail(path, dim_line, f"dim must be positive, got {dim}")
    if blocks:
        for key in ("mean", "var", "intrinsic_dim"):
            if key in top:
                raise _fail(path, top[key][0], f"'{key}' belongs inside component blocks here")
    elif "intrinsic_dim" in top:
        k_line, k = top["intrinsic_dim"]
        mean, var = top.get("mean", (1, (0.0,)))[1], top.get("var", (1, (1.0,)))[1]
        if len(mean) != 1 or len(var) != 1:
            raise _fail(path, k_line, "'intrinsic_dim' requires scalar 'mean' and 'var'")
        if not 1 <= k <= dim:
            raise _fail(path, k_line, f"intrinsic_dim must lie in [1, {dim}], got {k}")
        return Target.low_rank(dim, k, mean_value=mean[0], var_value=var[0])
    else:  # a single Gaussian is a one-component mixture
        blocks = [{"weight": (1, 1.0), **top}]

    means, variances = [], []
    for block in blocks:
        if "weight" not in block:
            raise _fail(path, 1, "every component block needs a 'weight'")
        means.append(_broadcast(path, "mean", block.get("mean", (1, (0.0,))), dim))
        variances.append(_broadcast(path, "var", block.get("var", (1, (1.0,))), dim))
    return Target(
        weights=np.asarray([block["weight"][1] for block in blocks]),
        means=np.stack(means),
        variances=np.stack(variances),
    )


def parse_config(path: str | Path) -> ExperimentSpec | Target:
    """Parse a key = value config file into a spec or a target.

    The optional ``kind`` key ('experiment' or 'target') selects the schema;
    it defaults to 'experiment', whose keys all carry defaults, so an empty
    file is the default sweep.  Mixture targets use bare ``component`` lines
    to open blocks of weight/mean/var keys; scalar ``mean``/``var`` values
    broadcast across ``dim`` coordinates.

    A file that cannot be read, a malformed line, an unknown or repeated key
    (``kind`` included), a bad number, an out-of-range ``delta`` and a
    negative seed raise :class:`~flowgrid.errors.ParseError` naming the file,
    line and key.  Lines are read in order and the first bad one is
    reported; checks that span keys (a target without ``dim``, an
    ``intrinsic_dim`` above ``min(dims)``) follow once every line is read.
    """
    path = str(path)
    entries = _parse_lines(path)
    if next((value for _, key, value in entries if key == "kind"), None) == "target":
        try:
            return _parse_target(path, entries)
        except DomainError as exc:
            raise ParseError(f"{path}: invalid mixture: {exc}") from exc
    seen: dict[str, tuple[int, Any]] = {}
    for lineno, key, value in entries:
        _put(seen, path, lineno, key, value, _EXPERIMENT_KEYS.get(key, (None, None))[1])
    kwargs = {
        field: seen[key][1]
        for key, (field, _) in _EXPERIMENT_KEYS.items()
        if field is not None and key in seen
    }
    try:
        return ExperimentSpec(**kwargs)
    except DomainError as exc:
        raise ParseError(f"{path}: invalid experiment spec: {exc}") from exc
