"""Sample batches and their provenance metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .schedules import _freeze

__all__ = ["BatchMeta", "SampleBatch"]


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
