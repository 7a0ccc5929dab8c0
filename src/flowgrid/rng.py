"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox stream addressed
by ``(master_seed, *path)``: the path names the role of the stream (e.g.
initialization noise vs. step noise) and, for per-step noise, the step index.
Streams with different addresses are statistically independent, and a given
address always yields the same values — so samplers are bitwise reproducible
no matter how work is scheduled, and two samplers that address the same
stream consume *identical* noise (used by the coupled-chain tests).

Within a step, a single ``(n, d)`` block is drawn and row ``j`` belongs to
trajectory ``j``.  A sampler takes its step blocks from a :class:`StepNoise`,
which draws block i+1 on a worker thread while step i computes, when the
blocks are large enough and a core is free for it.  Because a block depends
only on its address, drawing it ahead of time leaves every value unchanged;
a block handed out is valid only until the next :meth:`StepNoise.block`
call, which refills its buffer.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

__all__ = ["substream", "child_seed", "StepNoise", "INIT_NOISE", "STEP_NOISE"]

INIT_NOISE = 0
"""Stream role for the draw that initializes a batch of trajectories."""

STEP_NOISE = 1
"""Stream role for the per-step innovation noise; path is (STEP_NOISE, i)."""


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator at address ``(seed, *path)``.

    Path elements must be non-negative integers below 2**32 (they become the
    SeedSequence spawn key).
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path: int) -> int:
    """Derive an independent integer seed at address ``(seed, *path)``.

    Used when one component hands a whole sub-task (with its own internal
    streams) to another, e.g. the experiment harness seeding a sampler run.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


_PREFETCH_MIN_VALUES = 1 << 14
"""Smallest block a worker thread draws: a fill takes about 15 ns a value,
and handing a block to a worker and back costs 35-75 us a step (2-vCPU x86
VM), which a shorter fill cannot win back."""


def _prefetch_pays(values: int) -> bool:
    """Whether drawing blocks of ``values`` values on a worker can save time.

    The block must outlast the handoff, and the process must have a core
    that none of its live threads may be using: when a pool of threads
    already fills the cores, a worker only takes CPU from them.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        cores = os.cpu_count() or 1
    return values >= _PREFETCH_MIN_VALUES and threading.active_count() < cores


class StepNoise:
    """The per-step noise blocks of one sampler call, each drawn one step ahead.

    Block i holds ``substream(seed, STEP_NOISE, i).standard_normal(shape)``
    for i = 0 .. steps-1, bit for bit.  Entering the context starts a
    one-worker thread that fills block 0; :meth:`block` waits for block i,
    then sets the worker filling block i+1 into the other of two
    preallocated buffers (numpy releases the GIL during the fill) and
    returns block i.  The caller may modify the returned array, which stays
    valid only until the next :meth:`block` call.

    The worker starts only if the blocks hold at least 2**14 values and the
    process has more usable cores than live threads; otherwise :meth:`block`
    fills each block on the caller's thread.  With ``steps=0`` nothing is
    allocated and no thread starts.  Leaving the context lets a draw still
    in flight finish and joins the worker; a draw that failed raises from
    :meth:`block`, or on leaving if no block read it and no other exception
    is propagating.
    """

    def __init__(self, seed: int, shape: tuple[int, ...], steps: int) -> None:
        self._seed = seed
        self._shape = shape
        self._steps = steps
        self._next = 0
        self._buffers: tuple[np.ndarray, np.ndarray] | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._pending: Future | None = None

    def __enter__(self) -> "StepNoise":
        if self._steps > 0:
            self._buffers = (np.empty(self._shape), np.empty(self._shape))
            if _prefetch_pays(self._buffers[0].size):
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="flowgrid-step-noise"
                )
                self._submit(0)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pending, self._pending = self._pending, None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._buffers = None
        if pending is not None:
            error = pending.exception()  # done: the worker has been joined
            if error is not None and exc_type is None:
                raise error

    def _submit(self, i: int) -> None:
        out = self._buffers[i % 2]
        self._pending = self._pool.submit(self._fill, i, out)

    def _fill(self, i: int, out: np.ndarray) -> np.ndarray:
        return substream(self._seed, STEP_NOISE, i).standard_normal(out=out)

    def block(self, i: int) -> np.ndarray:
        """Return step i's noise block; steps must be read in order 0, 1, ...

        Raises
        ------
        ValueError
            If ``i`` is not the next step, or the context is not entered.
        """
        if i != self._next or i >= self._steps or self._buffers is None:
            raise ValueError(
                f"step noise block {i} requested; the next is {self._next} "
                f"of {self._steps} (read blocks in order inside the context)"
            )
        self._next = i + 1
        if self._pool is None:
            return self._fill(i, self._buffers[i % 2])
        pending, self._pending = self._pending, None
        noise = pending.result()
        if self._next < self._steps:
            self._submit(self._next)
        return noise
