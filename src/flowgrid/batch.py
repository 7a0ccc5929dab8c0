"""Sample batches and their provenance metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .schedules import _freeze

__all__ = ["BatchMeta", "SampleBatch"]

_BLOCK_BYTES = 1 << 19
"""Byte budget of one row block: the noise-free samplers' state buffers, the
reference draw and its blur, the probe's gathers (a block with the rows it
takes from the second batch), the forward simulator (``simulate_forward``)
and the moment sums (``_moment_stats``) each work in blocks of this many bytes."""


def _block_rows(row_bytes: int) -> int:
    """Rows per block: as many rows of ``row_bytes`` as the budget holds, and at
    least one, however wide a row is."""
    return max(1, _BLOCK_BYTES // max(1, row_bytes))


def _bounded(x: np.ndarray, top: float) -> bool:
    """Whether every value of ``x`` lies in [-top, top]: one min and one max,
    no temporary.  A NaN propagates through both and fails the comparisons,
    so with ``top`` the largest float64 this is "every value is finite"."""
    return not x.size or bool(x.min() >= -top and x.max() <= top)


def _check_float32(x: np.ndarray, who: str) -> None:
    """Raise a DomainError naming ``who`` if ``x`` holds a NaN, an inf or a value
    beyond float32's finite range, before a cast could overflow it to inf."""
    if not _bounded(x, np.finfo(np.float32).max):
        raise DomainError(f"{who} holds a NaN, an inf or a value beyond float32's range")


def _to_float32(x: np.ndarray, who: str, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` cast to float32 once :func:`_check_float32` passes, into ``out``
    when given; a float32 ``x`` is returned as it is when there is no ``out``."""
    _check_float32(x, who)
    if out is None:
        return x.astype(np.float32, copy=False)
    np.copyto(out, x, casting="same_kind")
    return out


@dataclass(frozen=True)
class BatchMeta:
    """Where a batch came from: enough to reproduce it exactly."""

    sampler: str
    grid: str
    target: str
    seed: int
    terminal_time: float


@dataclass(frozen=True)
class SampleBatch:
    """A batch of d-dimensional samples, one per row.

    ``trajectory`` (optional) holds the recorded states, shaped
    ``(len(trajectory_times), n, d)`` — row layout matches ``data``, and the
    last recorded state equals ``data``.
    """

    data: np.ndarray
    meta: BatchMeta
    trajectory: np.ndarray | None = None
    trajectory_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        data = _freeze(self.data)
        if data.ndim != 2:
            raise DomainError(f"batch data must be 2-D (n, d), got shape {data.shape}")
        object.__setattr__(self, "data", data)
        if (self.trajectory is None) != (self.trajectory_times is None):
            raise DomainError("trajectory and trajectory_times come together")
        if self.trajectory is not None:
            traj = _freeze(self.trajectory)
            times = _freeze(self.trajectory_times)
            if traj.shape != (times.size, *data.shape):
                raise DomainError(
                    f"trajectory shape {traj.shape} does not match "
                    f"{(times.size, *data.shape)}"
                )
            object.__setattr__(self, "trajectory", traj)
            object.__setattr__(self, "trajectory_times", times)

    @property
    def dim(self) -> int:
        return self.data.shape[1]
