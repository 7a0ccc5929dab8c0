"""What a sampler step, a sampler run, a probe round, a sweep cell and a
recorded trajectory allocate.

The step loop keeps its states in reused buffers that the oracle fills in
place, takes every sampler's rows through every step one row block at a
time (a noise-drawing one reading its step noise in row blocks too), and
writes recorded frames into one preallocated trajectory.  The TV probe
reads any two C-contiguous float32 or float64 batches where they lie,
gathering and casting each round's rows into one feature-major buffer
through a row block, several rounds to a group when their rows are small;
a sweep cell streams its sampler batch and its reference into the two
halves of one float32 pool.
The forward simulators build their states in row blocks, and the moment
sums of the equivalence check run over row blocks of those states.
Without the buffers a sampler's speed depended on glibc's dynamic mmap
threshold: fresh (n, d) arrays every step are served by mmap, and each one
faults its pages in again, unless some larger temporary freed earlier had
raised the threshold, as the probe's float64 pool used to.
"""

import tracemalloc

import numpy as np
import pytest

import flowgrid.batch
import flowgrid.metrics
import flowgrid.rng
from flowgrid.harness import ExperimentSpec, _run_cell
from flowgrid.localization import equivalence_checks
from flowgrid.metrics import estimate_tv
from flowgrid.samplers import ddpm_sample, rf_euler, stoc_rf
from flowgrid.schedules import build_ddpm_schedule, build_ushaped_grid, ddpm_induced_rf_grid
from flowgrid.targets import ExactOracle, Target


def test_a_sampler_after_the_probe_does_not_fault_its_pages_in_every_step(fresh_python):
    pytest.importorskip("resource")
    code = """
import resource
import numpy as np
from flowgrid.metrics import estimate_tv
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
    """Bytes traced at the peak of ``run()`` above those held before it.

    ``numpy.random``, which a process imports once, on first use, is loaded
    first, so that its memory does not count as the run's.
    """
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_the_probe_reads_float64_batches_in_place():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2000, 800)), rng.standard_normal((2000, 800))
    float32_bytes = (a.size + b.size) * 4
    peak = _traced_peak(lambda: estimate_tv(a, b, rounds=1))
    # The row buffer, a float64 row block and the rows of batch b that one
    # block takes: 0.54x.  Casting both batches into a float32 pool made it
    # 1.55x.
    assert peak < 0.6 * float32_bytes


def test_the_probe_groups_small_rounds_within_the_group_budget():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2000, 10)), rng.standard_normal((2000, 10))
    pool_bytes = (a.size + b.size) * 4
    peak = _traced_peak(lambda: estimate_tv(a, b, rounds=10))
    # All ten rounds train as one group: the group's 800 kB of rows, one row
    # block and the rounds' splits and vectors, 1.41 MB.  A float32 pool of
    # the probe's own made it 1.64 MB.
    assert peak < pool_bytes + flowgrid.metrics._GROUP_BYTES + flowgrid.batch._BLOCK_BYTES


def test_the_probe_draws_its_splits_as_int32():
    pool = np.random.default_rng(3).standard_normal((4000, 10)).astype(np.float32)
    peak = _traced_peak(lambda: estimate_tv(pool[:2000], pool[2000:], rounds=10))
    # The group's 800 kB of rows, its 80 kB row block and ten int32 splits of
    # 16 kB: 1.33 MB.  int64 splits made it 1.48 MB.
    assert peak < 1.4e6


def test_the_probe_reads_the_halves_of_one_pool_in_place():
    pool = np.random.default_rng(2).standard_normal((4000, 800)).astype(np.float32)
    peak = _traced_peak(lambda: estimate_tv(pool[:2000], pool[2000:], rounds=1))
    # The row buffer, the row block it is transposed through and the rows of
    # the second half that a block takes: 0.54x.  Copying the halves into a
    # pool of the probe's own made it 1.55x.
    assert peak < 0.6 * pool.nbytes


def test_a_noise_free_sampler_holds_one_output_array():
    oracle = ExactOracle(Target.low_rank(800, 8))
    grid = build_ushaped_grid(20, 1 / 800)
    output_bytes = 2000 * 800 * 8
    peak = _traced_peak(lambda: rf_euler(oracle, grid, 2000, 3))
    # The output and two row blocks of state: 1.08x.  Two (n, d) state
    # buffers, a bool finite-check buffer and no row blocks made it 2.13x.
    assert peak < 1.1 * output_bytes


_CHAIN = build_ddpm_schedule(50)


_NOISE_DRAWING = pytest.mark.parametrize(
    "sampler, grid",
    [(stoc_rf, ddpm_induced_rf_grid(_CHAIN)), (ddpm_sample, _CHAIN)],
    ids=["stoc-rf", "ddpm"],
)


@_NOISE_DRAWING
def test_a_noise_drawing_sampler_holds_one_state_array(sampler, grid, monkeypatch):
    # No free core: the step noise is drawn inline into one row-block buffer.
    monkeypatch.setattr(flowgrid.rng, "_free_cores", lambda: 0)
    oracle = ExactOracle(Target.low_rank(200, 8))
    peak = _traced_peak(lambda: sampler(oracle, grid, 2000, 3))
    state_bytes = 2000 * 200 * 8
    # The output and four row blocks (state, update, scratch, noise): 1.69x.
    # Stepping one (n, d) state with whole-step noise blocks made it 2.35x;
    # running all rows as one block, with two (n, d) state buffers and an
    # (n, d) scratch buffer, 4.02x.
    assert peak < 1.8 * state_bytes


@_NOISE_DRAWING
def test_worker_drawn_step_noise_holds_row_blocks(sampler, grid, monkeypatch):
    # Three draw threads, three row blocks in flight beside the one handed out.
    monkeypatch.setattr(flowgrid.rng, "_free_cores", lambda: 64)
    oracle = ExactOracle(Target.low_rank(200, 8))
    peak = _traced_peak(lambda: sampler(oracle, grid, 2000, 3))
    state_bytes = 2000 * 200 * 8
    # The output, three step buffers and four noise row blocks: 2.19x.
    # Four whole-step (n, d) noise blocks beside one (n, d) state made it 5.36x.
    assert peak < 2.5 * state_bytes


def test_a_sweep_cell_hands_the_probe_float32_batches():
    spec = ExperimentSpec(dims=(800,), n_steps=(20,), rounds=1, seeds=(3,))
    pool_bytes = 2 * spec.num_samples * 800 * 4
    peak = _traced_peak(lambda: _run_cell(spec, 800, 20, "rf", "ushaped", 3, 0, 1))
    # 1.55x, reached three times: the sampler's float64 output beside its
    # float32 cast, that cast beside the pool, and the pool beside the
    # probe's row buffer.  Float32 batches held beside a pool of the probe's
    # own, a float64 target draw and blur, and a sampler with two (n, d)
    # state buffers made it 2.55x; float64 batches kept alive across the
    # probe, a whole-array blur and the standard deviation's temporary 4.0x.
    assert peak < 1.6 * pool_bytes


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


def test_an_equivalence_job_holds_its_states_and_row_blocks(monkeypatch):
    # One job at a time, so the peak is one job's whatever the core count.
    monkeypatch.setattr(flowgrid.rng, "_free_cores", lambda: 0)
    state_bytes = 20000 * 10 * 8  # a low-rank job's (n, d) float64 states
    peak = _traced_peak(lambda: equivalence_checks(3))
    # The states and two 512 KiB row blocks: 1.73x.  Rescaling the states
    # into a second (n, d) array for the moments made it 2.40x; a whole
    # Brownian buffer, a whole X1 draw and whole-array moment temporaries 5.03x.
    assert peak < 2.0 * state_bytes
