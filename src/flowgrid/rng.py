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
which keeps up to three blocks queued ahead for worker threads while the
steps compute, one thread per core that no other live thread of the process
may be using, when the blocks are large enough and such a core is free.
Because a block depends only on its address, drawing it ahead of time leaves
every value unchanged; a block handed out is valid only until the next
:meth:`StepNoise.block` call, which refills its buffer.  The forward-process
simulators in :mod:`flowgrid.localization` need no queue: they read Brownian
increment k from the ``(seed, STEP_NOISE, k)`` stream on the caller's thread,
one row block at a time, which gives the values of one whole draw.

A parallel sweep's worker process counts only its share of the cores, the
same share that caps its BLAS threads (:func:`_share_cores`), so workers
that together fill the machine draw their noise inline.
"""

from __future__ import annotations

import math
import os
import threading
import queue
from collections import deque
from concurrent.futures import Future

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

_BLOCKS_AHEAD = 3
"""Most blocks a :class:`StepNoise` keeps in flight.  A (2000, 200) block
takes 8.6-9.5 ms to draw and a stochastic sampler step's own compute, in
row blocks, 1.8-2.5 ms (2.0-2.6 ms in the same runs when it ran all rows as
one block), so the draws set the pace.  With blocks queued ahead, a draw
thread that finishes early starts the next block instead of waiting for
the caller.  Median stoc-rf steps at that size (2-vCPU x86 VM): 9.0 ms with
one thread and one block ahead, 6.7 ms with two threads and two blocks,
6.1 ms with two threads and three blocks.  Each block ahead holds one more
buffer (3.2 MB at that size), but two blocks ahead instead of three made
the row-blocked noise-drawing samplers slower: by 5-8 % in a first trial,
and by a median 5 % over six paired stoc-rf runs (3.8-5.3 ms against
4.1-5.5 ms a step, one run of the six faster)."""

_core_share: int | None = None
"""Cores this process may use when it is one of a sweep's worker processes,
else None (all of its affinity mask)."""


def _share_cores(cores: int) -> None:
    """Count ``cores`` (at least one) as this process's usable cores from now on."""
    global _core_share
    _core_share = max(1, cores)


def _usable_cores() -> int:
    """Cores this process may run on: its share in a sweep worker, else its mask."""
    if _core_share is not None:
        return _core_share
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


def _free_cores() -> int:
    """Usable cores minus this process's live threads; zero or less if none is free."""
    return _usable_cores() - threading.active_count()


def _thread_budget(cap: int) -> int:
    """Threads a call that only waits on them may use: one per free core,
    the caller's own core included, but at least one and at most ``cap``."""
    return max(1, min(cap, _free_cores() + 1))


def _prefetch_pays(values: int) -> bool:
    """Whether blocks of ``values`` values outlast the handoff to a worker."""
    return values >= _PREFETCH_MIN_VALUES


class StepNoise:
    """The per-step noise blocks of one sampler call, drawn ahead on worker threads.

    Block i holds ``substream(seed, STEP_NOISE, i).standard_normal(shape)``
    for i = 0 .. steps-1, bit for bit.  Entering the context starts the
    draw threads and queues blocks 0 .. W-1 into W of W + 1 preallocated
    buffers, W being at most 3 and at most ``steps``; the threads take
    queued blocks in order (numpy releases the GIL during the fill).
    :meth:`block` waits for block i, queues block i + W into the buffer
    block i - 1 used, and returns block i.  The caller may modify the
    returned array, which stays valid only until the next :meth:`block`
    call.

    There is one draw thread per core that no live thread of the process
    may be using, counting the caller's own core since it mostly waits on
    the draws, and at most W.  Threads start only if the blocks hold at
    least 2**14 values and a core is free; otherwise :meth:`block` fills
    each block on the caller's thread into one buffer.  With ``steps=0``
    nothing is allocated and no thread starts.  Leaving the context lets the
    draws still queued finish and joins the threads; a draw that failed
    raises from :meth:`block`, or on leaving if no block read it and no
    other exception is propagating.
    """

    def __init__(self, seed: int, shape: tuple[int, ...], steps: int) -> None:
        self._seed = seed
        self._shape = shape
        self._steps = steps
        self._next = 0
        self._buffers: list[np.ndarray] | None = None
        self._threads: list[threading.Thread] = []
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._pending: deque[Future] = deque()

    def __enter__(self) -> "StepNoise":
        if self._steps > 0:
            ahead = 0
            if _prefetch_pays(math.prod(self._shape)) and _free_cores() > 0:
                ahead = min(_BLOCKS_AHEAD, self._steps)
            self._buffers = [np.empty(self._shape) for _ in range(ahead + 1)]
            try:
                for k in range(_thread_budget(ahead) if ahead else 0):
                    thread = threading.Thread(
                        target=self._draw_queued, name=f"flowgrid-step-noise-{k}"
                    )
                    thread.start()
                    self._threads.append(thread)
            except BaseException:
                self._join()
                raise
            for i in range(ahead):
                self._submit(i)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pending, self._pending = self._pending, deque()
        self._join()
        self._buffers = None
        for future in pending:
            error = future.exception()  # done: the threads have been joined
            if error is not None and exc_type is None:
                raise error

    def _join(self) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        self._threads = []

    def _draw_queued(self) -> None:
        while (job := self._queue.get()) is not None:
            future, i, out = job
            future.set_running_or_notify_cancel()
            try:
                future.set_result(self._fill(i, out))
            except BaseException as error:  # raised again where the block is read
                future.set_exception(error)

    def _submit(self, i: int) -> None:
        future: Future = Future()
        self._queue.put((future, i, self._buffers[i % len(self._buffers)]))
        self._pending.append(future)

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
        if not self._threads:
            return self._fill(i, self._buffers[0])
        noise = self._pending.popleft().result()
        ahead = i + len(self._buffers) - 1
        if ahead < self._steps:
            self._submit(ahead)
        return noise
