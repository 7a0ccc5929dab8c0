"""What a sampler step and a probe round allocate.

The step loop keeps its states in reused buffers that the oracle fills in
place, and the TV probe pools its batches straight to float32 and gathers
each round's rows into one buffer.  Without the buffers a sampler's speed
depended on glibc's dynamic mmap threshold: fresh (n, d) arrays every step
are served by mmap, and each one faults its pages in again, unless some
larger temporary freed earlier had raised the threshold, as the probe's
float64 pool used to.
"""

import tracemalloc

import numpy as np
import pytest

from flowgrid.metrics import estimate_tv


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


def test_the_probe_holds_about_twice_its_float32_pool():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2000, 800)), rng.standard_normal((2000, 800))
    pool_bytes = (a.size + b.size) * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate_tv(a, b, rounds=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # The pool, one gathered (n/2, d) buffer of rows, and the standard
    # deviation's (n/2, d) temporary: 2.0x.  A float64 pool temporary made it 3.0x.
    assert peak < 2.25 * pool_bytes
