"""Span tracing of flowgrid's public entry points, from outside the package.

``Tracer.install()`` rebinds module attributes of the loaded ``flowgrid``
modules to timing wrappers and ``Tracer.uninstall()`` puts the originals
back; nothing under ``src/`` is edited.  Every call into a wrapped function
records a span (name, start, end, parent span, op, thread).  Spans nest per
thread: a worker thread of the sweep pool starts its own stack, so a sweep
cell and everything it calls share one thread and one op id.  The op roots
are a sweep cell (``harness.cell``) and one check-suite call
(``checks.run_suite.<suite>``).

Counts, bytes and flops are computed from array shapes at the call
boundary, so they repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

OP_ROOTS = ("harness.cell", "checks.run_suite.")
SAMPLERS = {
    "rf_euler": "rf",
    "ddim_rf": "ddim-rf",
    "stoc_rf": "stoc-rf",
    "ddpm_sample": "ddpm",
    "langevin_rf": "langevin",
}
SUITES = ("grid", "equivalence", "covariance", "identities")
MB = 1e6


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _TracedGenerator:
    """A numpy Generator whose ``standard_normal`` draws are spans.

    Every other attribute is the wrapped generator's own, so the values
    drawn are bitwise the ones the untraced program draws.
    """

    def __init__(self, generator, tracer: "Tracer"):
        self._generator = generator
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call(
            "rng.block", self._generator.standard_normal, args, kwargs, _result_bytes
        )

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": int(result.nbytes)}


def _tv_work(args, kwargs, result) -> dict:
    from flowgrid import metrics

    def rows_cols(batch):
        data = getattr(batch, "data", batch)
        return data.shape

    (na, d), (nb, _) = rows_cols(args[0]), rows_cols(args[1])
    half = (na + nb) // 2
    iterations = result.rounds * metrics._ITERATIONS
    # Per gradient step: one (half, d) matrix-vector product forward and
    # one backward, 2 flops per multiply-add each.
    return {
        "rounds": result.rounds,
        "iterations": iterations,
        "flop": 4 * half * d * iterations,
    }


def _sampler_steps(args, kwargs, result) -> dict:
    """Steps taken: one per knot interval, as the samplers loop over them."""
    import numpy as np
    from flowgrid.schedules import DdpmSchedule, TimeGrid

    grid = args[1]
    final_step = kwargs.get("final_step", False)
    if isinstance(grid, DdpmSchedule):
        steps = grid.n_steps - (0 if final_step else 1)
    elif isinstance(grid, TimeGrid):
        steps = grid.integration_times(final_step=final_step).size - 1
    else:  # a raw array of knots
        times = np.asarray(grid)
        steps = times.size - 1 + int(final_step and times[-1] < 1.0)
    return {"steps": steps}


def _cell_wall(args, kwargs, result) -> dict:
    return {"wall_ms": result.wall_ms}


def _threads(args, kwargs, result) -> dict:
    return {"threads": kwargs.get("threads", 1)}


def _suite_records(args, kwargs, result) -> dict:
    return {
        "records": len(result),
        "failed": sum(not record.passed for record in result),
    }


def _forward_bytes(args, kwargs, result) -> dict:
    return {"bytes": int(result.states.nbytes)}


def _suite_name(args, kwargs) -> str:
    return "checks.run_suite." + (args[0] if args else kwargs["name"])


# (module, attribute, span name or name function, annotate)
TARGETS = [
    ("flowgrid.cli", "main", "cli.main", None),
    ("flowgrid.harness", "parse_config", "cli.parse_config", None),
    ("flowgrid.harness", "run_fig2_experiment", "harness.run", _threads),
    ("flowgrid.harness", "_run_cell", "harness.cell", _cell_wall),
    ("flowgrid.checks", "run_suite", _suite_name, _suite_records),
    ("flowgrid.metrics", "estimate_tv", "metrics.estimate_tv", _tv_work),
    ("flowgrid.targets", "velocity", "targets.velocity", _result_bytes),
    ("flowgrid.targets", "score", "targets.score", _result_bytes),
    ("flowgrid.targets", "sample_target", "targets.sample_target", None),
    ("flowgrid.targets", "blur_samples", "targets.blur_samples", None),
    ("flowgrid.schedules", "build_uniform_grid", "schedules.build", None),
    ("flowgrid.schedules", "build_ushaped_grid", "schedules.build", None),
    ("flowgrid.schedules", "build_ddpm_schedule", "schedules.build", None),
    ("flowgrid.schedules", "ddpm_induced_rf_grid", "schedules.build", None),
    ("flowgrid.localization", "simulate_forward", "localization.simulate_forward", _forward_bytes),
    ("flowgrid.localization", "check_marginal_equivalence",
     "localization.check_marginal_equivalence", None),
    ("flowgrid.localization", "covariance_ode_residual",
     "localization.covariance_ode_residual", None),
] + [
    ("flowgrid.samplers", fn, f"samplers.{label}", _sampler_steps)
    for fn, label in SAMPLERS.items()
]


class Tracer:
    """In-memory span recorder; install it, run, uninstall, then read spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, annotate=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent else None,
            op=parent.op if parent else None,
            thread=threading.get_ident(),
        )
        if name.startswith(OP_ROOTS):
            span.op = span.id
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if annotate is not None:
            span.attrs = annotate(args, kwargs, result)
        return result

    def _wrap(self, name, fn, annotate):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.call(label, fn, args, kwargs, annotate)

        traced.__wrapped__ = fn
        return traced

    def _traced_substream(self, fn):
        def traced(*args, **kwargs):
            return _TracedGenerator(self.call("rng.substream", fn, args, kwargs), self)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every flowgrid module attribute that names a traced function.

        A name imported into several modules (``from .metrics import
        estimate_tv``) is rebound in each, so the span is recorded whichever
        module the caller looks it up in.
        """
        import flowgrid.cli  # noqa: F401  (loads every layer)
        import flowgrid.rng

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "flowgrid"]
        wrappers = []
        for module_name, attr, name, annotate in TARGETS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrappers.append((original, self._wrap(name, original, annotate)))
        substream = flowgrid.rng.substream
        wrappers.append((substream, self._traced_substream(substream)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers:
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its children (same thread)."""
    own = {span.id: span.seconds for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(
    spans: list[Span],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    csv_bytes: int,
    thread_speedup: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in named(name))

    m: dict[str, float] = {}

    tv = named("metrics.estimate_tv")
    rounds = attr_sum("metrics.estimate_tv", "rounds")
    m["metrics.estimate_tv.calls"] = len(tv)
    m["metrics.estimate_tv.s"] = total("metrics.estimate_tv")
    m["metrics.estimate_tv.ms_per_round"] = (
        total("metrics.estimate_tv") * 1000.0 / rounds if rounds else 0.0
    )
    m["metrics.probe_iterations"] = attr_sum("metrics.estimate_tv", "iterations")
    m["metrics.probe_gflop"] = attr_sum("metrics.estimate_tv", "flop") / 1e9

    for field_name in ("velocity", "score"):
        calls = named(f"targets.{field_name}")
        m[f"targets.{field_name}.calls"] = len(calls)
        m[f"targets.{field_name}.ms_p50"] = _p50_ms([s.seconds for s in calls])
        m[f"targets.{field_name}.s"] = total(f"targets.{field_name}")
    cells = {s.id for s in named("harness.cell")}
    m["targets.reference.s"] = sum(
        s.seconds
        for s in named("targets.sample_target") + named("targets.blur_samples")
        if s.parent in cells
    )
    m["targets.oracle_mb"] = (
        attr_sum("targets.velocity", "bytes") + attr_sum("targets.score", "bytes")
    ) / MB

    blocks = named("rng.block")
    m["rng.blocks"] = len(blocks)
    m["rng.block.ms_p50"] = _p50_ms([s.seconds for s in blocks])
    m["rng.block.s"] = total("rng.block")
    m["rng.generators"] = len(named("rng.substream"))
    m["rng.mb"] = attr_sum("rng.block", "bytes") / MB

    for label in SAMPLERS.values():
        runs = named(f"samplers.{label}")
        steps = attr_sum(f"samplers.{label}", "steps")
        m[f"samplers.{label}.calls"] = len(runs)
        m[f"samplers.{label}.steps"] = steps
        m[f"samplers.{label}.s"] = total(f"samplers.{label}")
        m[f"samplers.{label}.self_s"] = sum(own[s.id] for s in runs)
        m[f"samplers.{label}.step_ms_p50"] = _p50_ms(
            [s.seconds / s.attrs["steps"] for s in runs if s.attrs.get("steps")]
        )

    m["schedules.build.calls"] = len(named("schedules.build"))
    m["schedules.build.s"] = total("schedules.build")

    sweeps = named("harness.run")
    sweep_wall = sum(s.seconds for s in sweeps)
    threads = max((s.attrs.get("threads", 1) for s in sweeps), default=1)
    m["harness.cells"] = len(cells)
    m["harness.cell.self_s"] = sum(own[s.id] for s in named("harness.cell"))
    m["harness.csv_kb"] = csv_bytes / 1000.0
    m["harness.pool_busy_ratio"] = (
        total("harness.cell") / (threads * sweep_wall) if sweep_wall else 0.0
    )
    m["harness.thread_speedup"] = thread_speedup

    m["cli.parse_config.s"] = total("cli.parse_config")
    m["cli.main.self_s"] = sum(own[s.id] for s in named("cli.main"))

    m["localization.simulate_forward.calls"] = len(named("localization.simulate_forward"))
    m["localization.simulate_forward.s"] = total("localization.simulate_forward")
    m["localization.check_marginal_equivalence.s"] = total(
        "localization.check_marginal_equivalence"
    )
    m["localization.covariance_ode_residual.s"] = total(
        "localization.covariance_ode_residual"
    )
    m["localization.brownian_mb"] = attr_sum("localization.simulate_forward", "bytes") / MB

    for suite in SUITES:
        m[f"checks.run_suite.{suite}.s"] = total(f"checks.run_suite.{suite}")
    suite_spans = [s for s in spans if s.name.startswith("checks.run_suite.")]
    m["checks.records"] = sum(s.attrs.get("records", 0) for s in suite_spans)
    m["checks.records_failed"] = sum(s.attrs.get("failed", 0) for s in suite_spans)

    m["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    return m


def cell_gaps(spans: list[Span]) -> list[float]:
    """Per sweep cell, how far its spans' self times miss the cell's wall_ms.

    The self times of every span in a cell's op add up to the time the
    trace accounts for; the harness's own ``wall_ms`` is the reference.
    """
    own = self_times(spans)
    per_op: dict[int, float] = {}
    for span in spans:
        if span.op is not None:
            per_op[span.op] = per_op.get(span.op, 0.0) + own[span.id]
    return [
        abs(per_op[s.id] * 1000.0 - s.attrs["wall_ms"]) / s.attrs["wall_ms"]
        for s in spans
        if s.name == "harness.cell" and "wall_ms" in s.attrs
    ]
