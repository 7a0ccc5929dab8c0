"""What a sampler step, a probe round, a sweep cell and a recorded
trajectory allocate.

The step loop keeps its states in reused buffers that the oracle fills in
place, and writes recorded frames into one preallocated trajectory.  The TV
probe pools its batches straight to float32, gathers each round's rows into
one buffer and sums the column standard deviation in row blocks; a sweep
cell hands it float32 batches and blurs its reference in row blocks.  Without the buffers a sampler's speed
depended on glibc's dynamic mmap threshold: fresh (n, d) arrays every step
are served by mmap, and each one faults its pages in again, unless some
larger temporary freed earlier had raised the threshold, as the probe's
float64 pool used to.
"""

import tracemalloc

import numpy as np
import pytest

from flowgrid.harness import ExperimentSpec, _run_cell
from flowgrid.metrics import estimate_tv
from flowgrid.samplers import rf_euler, stoc_rf
from flowgrid.schedules import build_ddpm_schedule, ddpm_induced_rf_grid
from flowgrid.targets import ExactOracle, Target


def test_a_sampler_after_the_probe_does_not_fault_its_pages_in_every_step(fresh_python):
    pytest.importorskip("resource")
    code = """
import resource
import numpy as np
from flowgrid.harness import ExperimentSpec, _run_cell
from flowgrid.metrics import estimate_tv
from flowgrid.samplers import rf_euler, stoc_rf
from flowgrid.schedules import build_ddpm_schedule, ddpm_induced_rf_grid
from flowgrid.targets import ExactOracle, Target
from flowgrid.samplers import stoc_rf
from flowgrid.schedules import build_ddpm_schedule, ddpm_induced_rf_grid
from flowgrid.targets import ExactOracle, Target

rng = np.random.default_rng(0)
estimate_tv(rng.standard_normal((2000, 200)), rng.standard_normal((2000, 200)), rounds=1)
oracle = ExactOracle(Target.low_rank(200, 8))
grid = ddpm_induced_rf_grid(build_ddpm_schedule(100))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stoc_rf(oracle, grid, 2000, 3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
    # About 5 k here (2-vCPU x86 VM); fresh step arrays took about 80 k.
    assert int(done.stdout) < 20_000


def _traced_peak(run) -> int:
    """Bytes traced at the peak of ``run()`` above those held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_the_probe_holds_its_float32_pool_and_one_row_buffer():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2000, 800)), rng.standard_normal((2000, 800))
    pool_bytes = (a.size + b.size) * 4
    peak = _traced_peak(lambda: estimate_tv(a, b, rounds=1))
    # The pool, one gathered (n/2, d) buffer of rows and one 512 KiB row
    # block for the standard deviation: 1.54x.  The standard deviation's own
    # (n/2, d) temporary made it 2.0x, and a float64 pool temporary 3.0x.
    assert peak < 1.6 * pool_bytes


def test_a_sweep_cell_hands_the_probe_float32_batches():
    spec = ExperimentSpec(dims=(800,), n_steps=(20,), rounds=1, seeds=(3,))
    pool_bytes = 2 * spec.num_samples * 800 * 4
    peak = _traced_peak(lambda: _run_cell(spec, 800, 20, "rf", "ushaped", 3, 0, 1))
    # Peaks of 2.5x in the blur (the float32 sampler batch, the target draw
    # and the blurred batch) and in the probe (both float32 batches, the
    # pool and the row buffer).  Float64 batches kept alive across the probe,
    # a whole-array blur and the standard deviation's temporary made it 4.0x.
    assert peak < 2.75 * pool_bytes


@pytest.mark.parametrize("sampler", [rf_euler, stoc_rf])
def test_a_recorded_trajectory_is_written_in_place(sampler):
    oracle = ExactOracle(Target.low_rank(50, 8))
    grid = ddpm_induced_rf_grid(build_ddpm_schedule(51))
    batch = None

    def run():
        nonlocal batch
        batch = sampler(oracle, grid, 500, 4, record_trajectories=True)

    peak = _traced_peak(run)
    assert batch.trajectory.shape == (51, 500, 50)
    # The trajectory, the batch's copy of its last frame and the step
    # buffers: 1.1x.  Stacking a list of frames made it 2.0x.
    assert peak < 1.2 * batch.trajectory.nbytes
