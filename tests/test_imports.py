"""What a flowgrid process loads.

flowgrid's only scipy use is ``scipy.special``'s ``expit`` for the TV
probe.  ``scipy.integrate`` and ``scipy.optimize`` (which pull in
``scipy.sparse`` and ``scipy.linalg``) stay off every path: a sweep, the
check suites and the closed-form 1-D TV oracle run without them, and the
oracle still gives its pinned value.  The check suites, ``schedule`` and
``sample`` never load ``scipy.special`` either, and a sweep loads it
before its first cell, so that no cell's timings carry the import.  Each
check runs in a fresh interpreter, since this one has long since imported
everything.
"""

import pytest

_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")


def test_sweep_and_check_suites_leave_quadrature_and_root_finder_unloaded(fresh_python):
    code = f"""
import sys
import flowgrid, flowgrid.cli
assert not set({_DEFERRED!r}) & set(sys.modules), "loaded at import"
from flowgrid import ExperimentSpec, run_fig2_experiment
from flowgrid.checks import SUITES
from flowgrid.metrics import gaussian_tv_bounds, tv_oracle_gaussian_1d
from flowgrid.samplers import SAMPLERS

spec = ExperimentSpec(
    dims=(12,), n_steps=(20,), samplers=tuple(SAMPLERS),
    grids=("uniform", "ushaped", "ddpm-induced"), num_samples=200, seeds=(0,),
    rounds=2, out="rows.csv",
)
rows = run_fig2_experiment(spec)
assert {{r.sampler for r in rows}} == set(SAMPLERS), rows
for suite in SUITES:
    assert flowgrid.cli.main(["check", "--suite", suite, "--out", suite + ".txt"]) == 0, suite
gaussian_tv_bounds([0.0, 1.0], [1.0, 0.0], [0.5, 1.0], [2.0, 0.0])
tv_oracle_gaussian_1d(0.0, 1.0, 0.5, 2.0)
loaded = sorted(set({_DEFERRED!r}) & set(sys.modules))
assert not loaded, loaded
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr


def test_on_demand_imports_give_the_pinned_values(fresh_python):
    code = f"""
import sys
from flowgrid.metrics import tv_oracle_gaussian_1d

assert tv_oracle_gaussian_1d(0.0, 1.0, 0.5, 2.0).hex() == "0x1.c4315cfd06eecp-3"
loaded = sorted(set({_DEFERRED!r}) & set(sys.modules))
assert not loaded, loaded
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr


def test_check_suites_schedule_and_sample_leave_scipy_special_unloaded(fresh_python):
    code = """
import sys
import flowgrid, flowgrid.cli
from flowgrid.checks import SUITES

assert "scipy.special" not in sys.modules, "loaded at import"
for suite in SUITES:
    assert flowgrid.cli.main(["check", "--suite", suite, "--out", suite + ".txt"]) == 0, suite
assert flowgrid.cli.main(["--out", "ddpm.txt", "schedule", "--kind", "ddpm", "--n-steps", "50"]) == 0
with open("t.cfg", "w", encoding="utf-8") as config:
    config.write("kind = target\\ndim = 4\\n")
argv = ["--out", "x.csv", "sample", "--sampler", "rf", "--target", "t.cfg",
        "--grid", "ushaped", "--n-steps", "10", "--num-samples", "5"]
assert flowgrid.cli.main(argv) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy.special"))
assert not loaded, loaded
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_loads_scipy_special_before_its_first_cell(fresh_python, threads):
    code = f"""
import sys
import flowgrid.harness as harness
from flowgrid import ExperimentSpec, run_fig2_experiment

assert "scipy.special" not in sys.modules, "loaded at import"
run_cell = harness._run_cell

def checked(*args):  # runs in the workers too: they look _run_cell up
    assert "scipy.special" in sys.modules, "a cell imports the probe's scipy"
    return run_cell(*args)

harness._run_cell = checked
spec = ExperimentSpec(
    dims=(12,), n_steps=(10,), samplers=("rf",), grids=("uniform", "ushaped"),
    num_samples=200, seeds=(0,), rounds=1, out="rows.csv",
)
assert len(run_fig2_experiment(spec, threads={threads})) == 2
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
