"""flowgrid benchmark: one workload, one seed, end-to-end or traced metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rf-probe --seed 3 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (metadata, the tail percentile, golden-identity
flags).  ``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload once untraced and once traced and reports
the per-layer metrics.  The program is imported from ``src/`` of the
checkout this file sits in; BLAS threading is left as the environment sets
it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith(("_mb", ".mb")):
        return "MB"
    if name.endswith(("_ms_p50", ".ms_p50", ".ms_per_round")):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_kb"):
        return "KB"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    return "count"


def _import_flowgrid():
    """Import flowgrid from this checkout's ``src/``, or fail loudly."""
    if not (SRC / "flowgrid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flowgrid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowgrid
    import flowgrid.cli  # noqa: F401  (every layer, scipy included)

    if Path(flowgrid.__file__).resolve().parent != SRC / "flowgrid":
        raise SystemExit(f"perfbench: imported flowgrid from {flowgrid.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# run metadata


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def _blas_version(module) -> str | None:
    try:
        config = module.show_config(mode="dicts")
    except (TypeError, AttributeError):
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _commit() -> dict:
    digest = hashlib.sha1()
    for path in sorted((SRC / "flowgrid").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha1": digest.hexdigest()}


def metadata(seeds: list[int]) -> dict:
    import numpy
    import scipy

    return {
        **_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload_seeds": seeds,
    }


# ---------------------------------------------------------------------------
# seeds, set-up and ops


def run_seeds(workload, seed: int, seconds: int, tiny: bool) -> list[int]:
    """The spec seeds of one run: ``seed`` itself for a sweep, repeated to
    fill ``seconds``; for the check suites, that many consecutive entries of
    the golden seed list, starting at an offset derived from ``seed``."""
    from workloads import load_golden

    passes = 1 if tiny else max(1, round(seconds / workload.pass_s))
    if workload.name != "check-suites":
        return [seed] * passes
    if tiny:
        return [seed]
    window = load_golden()["check-suites"]["seeds"]
    return [window[(seed * passes + j) % len(window)] for j in range(passes)]


def setup_probe(args) -> int:
    """Child process: import and prepare, then report the monotonic clock."""
    from workloads import WORKLOADS

    _import_flowgrid()
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workload.prepare(args.seed, workdir)
    print(json.dumps({"ready": time.monotonic()}))
    return 0


def measure_setup(args, workdir: Path) -> list[float]:
    """Interpreter start to first op, in fresh processes, SETUP_PROBES times."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-{i}"
        probe_dir.mkdir()
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(probe_dir),
        ]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - start)
    return times


def tail(op_s: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) for the highest nearest-rank
    percentile with at least ten ops above it.

    A run of fewer than 21 ops has no such percentile at or above the
    median; the tail then reads the median op, never a faster one.
    """
    ordered = sorted(op_s)
    n = len(ordered)
    rank = max(n - 11, (n + 1) // 2 - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def _run_passes(workload, seeds, workdir, golden, prepared, threads=None):
    results = []
    for seed in seeds:
        results.append(
            workload.run_pass(seed, workdir, prepared[seed], threads=threads,
                              golden=golden.get(str(seed)))
        )
    return results


def _gate_same(results, reference, what: str) -> bool:
    """Outputs must not depend on ``what``; a pass whose bytes differ from
    the reference pass counts all its ops as failed."""
    identical = True
    for r, ref in zip(results, reference):
        if r.output != ref.output:
            identical = False
            r.failed = r.attempted
            r.errors.append(f"output changed with {what}")
    return identical


def timed_run(args, workload, seeds, workdir) -> tuple[dict, dict, list]:
    from workloads import load_golden

    setup = measure_setup(args, workdir)
    golden = load_golden().get(workload.name, {})
    prepared = {seed: workload.prepare(seed, workdir) for seed in dict.fromkeys(seeds)}
    start = time.perf_counter()
    results = _run_passes(workload, seeds, workdir, golden, prepared)
    wall_s = time.perf_counter() - start
    first_pass: dict[int, object] = {}
    repeat_identical = _gate_same(
        results,
        [first_pass.setdefault(seed, r) for seed, r in zip(seeds, results)],
        "repetition",
    )

    op_s = [t for r in results for t in r.op_s] or [wall_s]
    tail_s, tail_pct, beyond = tail(op_s)
    # The median of each pass's median op: a pass's ops can fall into
    # classes with gaps between them (rf-probe's cells by dimension), and
    # the median of the pooled ops would sit in a gap, set by two extreme ops.
    pass_p50 = [statistics.median(r.op_s) for r in results if r.op_s] or [wall_s]
    metrics = {
        "wall_s": wall_s,
        "op_s_p50": statistics.median(pass_p50),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "passes": len(results),
        "pass_wall_s": [r.wall_s for r in results],
        "op_count": len(op_s),
        "op_s_tail_percentile": tail_pct,
        "ops_beyond_tail": beyond,
        "setup_s_samples": setup,
        "repeat_identical": repeat_identical,
    }
    return metrics, details, results


def traced_run(args, workload, seeds, workdir) -> tuple[dict, dict, list]:
    """Untraced, traced, then (sweeps) the other thread count, once each."""
    from tracing import Tracer, cell_gaps, layer_metrics
    from workloads import Sweep, load_golden

    golden = load_golden().get(workload.name, {})
    seeds = list(dict.fromkeys(seeds))
    prepared = {seed: workload.prepare(seed, workdir) for seed in seeds}

    def timed(threads=None):
        start = time.perf_counter()
        results = _run_passes(workload, seeds, workdir, golden, prepared, threads)
        return results, time.perf_counter() - start

    untraced, untraced_wall = timed()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = timed()
    finally:
        tracer.uninstall()
    results = untraced + traced
    is_sweep = isinstance(workload, Sweep)
    speedup = 0.0
    threads_identical = None
    if is_sweep:
        other_threads = 2 if workload.threads == 1 else 1
        other, other_wall = timed(other_threads)
        results += other
        serial, threaded = (
            (untraced_wall, other_wall) if workload.threads == 1 else (other_wall, untraced_wall)
        )
        speedup = serial / threaded
        threads_identical = _gate_same(other, untraced, "thread count")

    identical = _gate_same(traced, untraced, "tracing")
    csv_bytes = sum(len(r.output) for r in traced) if is_sweep else 0
    metrics = layer_metrics(
        tracer.spans,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
        csv_bytes=csv_bytes,
        thread_speedup=speedup,
    )
    gaps = cell_gaps(tracer.spans)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as sink:
        for s in tracer.spans:
            sink.write(json.dumps({
                "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                "thread": s.thread, "start": s.start, "end": s.end, "attrs": s.attrs,
            }) + "\n")
    details = {
        "traced_identical_to_untraced": identical,
        "other_threads_identical": threads_identical,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_names": tracer.missing,
        "cell_trace_gap_max": max(gaps, default=0.0),
    }
    return metrics, details, results


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every workload (benchmark self-test)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    from workloads import WORKLOADS

    _import_flowgrid()
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    seeds = run_seeds(workload, args.seed, args.seconds, args.tiny)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        metrics, details, results = run(args, workload, seeds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    units = END_TO_END_UNITS if not args.trace else {m: _per_layer_unit(m) for m in metrics}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        **details,
        "op_fail_ratio": failed / attempted,
        "identical_to_golden": {
            str(flag).lower(): [r.identical_to_golden for r in results].count(flag)
            for flag in (True, False, None)
        },
        "errors": [e for r in results for e in r.errors][:20],
        "metadata": metadata(sorted(set(seeds))),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
