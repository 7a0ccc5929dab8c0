"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox stream addressed
by ``(master_seed, *path)``: the path names the role of the stream (e.g.
initialization noise vs. step noise) and, for per-step noise, the step index.
Streams with different addresses are statistically independent, and a given
address always yields the same values — so samplers are bitwise reproducible
no matter how work is scheduled, and two samplers that address the same
stream consume *identical* noise (used by the coupled-chain tests).

Step i's noise is one ``(n, d)`` draw, row ``j`` belonging to trajectory
``j``, read row block after row block from one generator, which gives the
values of one whole draw.  A sampler takes its row blocks from a
:class:`StepNoise`, which draws up to three ahead on worker threads while
the steps compute, one thread per free core; a row block depends only on
its address and position, so that leaves every value unchanged.  The
forward-process simulators in :mod:`flowgrid.localization` need no queue:
they read Brownian increment k from the ``(seed, STEP_NOISE, k)`` stream on
the caller's thread.

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
"""Smallest row block a worker thread draws: a fill takes about 15 ns a
value, and handing a block to a worker and back costs 35-75 us (2-vCPU x86
VM), which a shorter fill cannot win back."""

_BLOCKS_AHEAD = 3
"""Most row blocks a :class:`StepNoise` keeps in flight.  At (2000, 200) a
step's noise takes 5.7-5.9 ms to draw (0.93-0.98 ms a 327-row block) and a
stoc-rf step's own compute 1.9-2.3 ms, so the draws set the pace; with jobs
queued ahead, a draw thread that finishes early starts the next one instead
of waiting for the caller.  Median stoc-rf steps at that size, N = 400
(2-vCPU x86 VM): 9.5-10.9 ms inline, 7.9-8.7 ms with one thread and one
block ahead, 5.6-6.3 ms with two threads and two, 5.1-6.2 ms with two
threads and three.  Each block ahead holds one more 512 KiB buffer, but two
ahead instead of three was slower: 5.6-6.3 against 5.1-6.0 ms a step in
two paired runs, and by a median 5 % over six paired runs when a job was a
whole step's (n, d) block."""

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
    """The per-step noise of one sampler call, drawn ahead on worker threads.

    Step i's (n, d) noise is ``substream(seed, STEP_NOISE, i)
    .standard_normal((n, d))``, bit for bit, read from its generator in row
    blocks of ``rows`` rows, which give the values of one whole draw.  A job
    is the next row block of one step's generator, and jobs come in the step
    loop's order: for each row block, steps 0 .. steps-1.  Entering the
    context starts the draw threads and queues jobs 0 .. W-1 into W of W + 1
    preallocated row-block buffers, W being at most 3 and at most ``steps``;
    the threads take queued jobs in order (numpy releases the GIL during the
    fill).  The W jobs in flight are consecutive, so with W <= steps they
    read distinct generators.  :meth:`block` waits for the next job, queues
    the job W later into the buffer the previous job used, and returns the
    rows.  The caller may modify them; they stay valid only until the next
    :meth:`block` call.

    There is one draw thread per core that no live thread of the process
    may be using, counting the caller's own core since it mostly waits on
    the draws, and at most W.  Threads start only if a row block holds at
    least 2**14 values and a core is free; otherwise :meth:`block` fills
    each block on the caller's thread into one buffer.  With ``steps=0``
    nothing is allocated and no thread starts.  Leaving the context lets the
    draws still queued finish and joins the threads; a draw that failed
    raises from :meth:`block`, or on leaving if no block read it and no
    other exception is propagating.
    """

    def __init__(self, seed: int, shape: tuple[int, int], steps: int, rows: int) -> None:
        self._seed = seed
        self._n, d = shape
        self._shape = (min(rows, self._n), d)
        self._steps = steps
        self._jobs = steps * -(-self._n // rows)
        self._next = 0
        self._generators: list = [None] * steps
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
            for k in range(ahead):
                self._submit(k)
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
            future, k, out = job
            future.set_running_or_notify_cancel()
            try:
                future.set_result(self._fill(k, out))
            except BaseException as error:  # raised again where the block is read
                future.set_exception(error)

    def _submit(self, k: int) -> None:
        future: Future = Future()
        self._queue.put((future, k, self._buffers[k % len(self._buffers)]))
        self._pending.append(future)

    def _fill(self, k: int, out: np.ndarray) -> np.ndarray:
        if k < self._steps:  # step k's first row block
            self._generators[k] = substream(self._seed, STEP_NOISE, k)
        rows = self._n - k // self._steps * len(out)  # clipped to the buffer's rows
        return self._generators[k % self._steps].standard_normal(out=out[:rows])

    def _take(self) -> np.ndarray:
        k = self._next
        self._next = k + 1
        if not self._threads:
            return self._fill(k, self._buffers[0])
        noise = self._pending.popleft().result()
        ahead = k + len(self._buffers) - 1
        if ahead < self._jobs:
            self._submit(ahead)
        return noise

    def block(self, i: int) -> np.ndarray:
        """Return the next row block of step i's noise.

        A row block's steps are read in order 0, 1, ...; reading step 0
        earlier moves on to the next row block, drawing and dropping the
        rest of this one.

        Raises
        ------
        ValueError
            If ``i`` is neither the next step nor 0, no row block is left,
            or the context is not entered.
        """
        while i == 0 and self._buffers is not None and self._next % self._steps:
            self._take()  # the rest of a row block the caller left
        if self._buffers is None or self._next >= self._jobs or i != self._next % self._steps:
            raise ValueError(
                f"step {i}'s noise requested; the next job is {self._next} of "
                f"{self._jobs} (read each row block's steps in order inside the context)"
            )
        return self._take()
