"""What a flowgrid process loads.

flowgrid needs numpy alone: no code path imports scipy, which the tests use
only as a reference.  A fresh interpreter runs every entry point (a serial
and a 2-worker sweep, each check suite, ``schedule``, ``sample``, ``tv`` and
the closed-form 1-D TV oracle, which still gives its pinned value) and then
finds no ``scipy`` module loaded, nor does any sweep worker after a cell;
this interpreter has long since imported scipy for the reference tests.
"""


def test_no_entry_point_loads_scipy(fresh_python):
    code = """
import sys
import flowgrid, flowgrid.cli
import flowgrid.harness as harness
from flowgrid import ExperimentSpec, run_fig2_experiment
from flowgrid.checks import SUITES
from flowgrid.metrics import gaussian_tv_bounds, tv_oracle_gaussian_1d
from flowgrid.samplers import SAMPLERS

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

assert not scipy_modules(), "loaded at import"
run_cell = harness._run_cell

def checked(*args):  # runs in the workers too: they look _run_cell up
    row = run_cell(*args)
    assert not scipy_modules(), scipy_modules()
    return row

harness._run_cell = checked
for threads in (2, 1):
    spec = ExperimentSpec(
        dims=(12,), n_steps=(20,), samplers=tuple(SAMPLERS),
        grids=("uniform", "ushaped", "ddpm-induced"), num_samples=200, seeds=(0,),
        rounds=2, out=f"rows-{threads}.csv",
    )
    rows = run_fig2_experiment(spec, threads=threads)
    assert {r.sampler for r in rows} == set(SAMPLERS), rows
for suite in SUITES:
    assert flowgrid.cli.main(["check", "--suite", suite, "--out", suite + ".txt"]) == 0, suite
assert flowgrid.cli.main(["--out", "ddpm.txt", "schedule", "--kind", "ddpm", "--n-steps", "50"]) == 0
with open("t.cfg", "w", encoding="utf-8") as config:
    config.write("kind = target\\ndim = 4\\n")
for grid, out in (("ushaped", "a.csv"), ("uniform", "b.csv")):
    argv = ["--out", out, "sample", "--sampler", "rf", "--target", "t.cfg",
            "--grid", grid, "--n-steps", "10", "--num-samples", "300"]
    assert flowgrid.cli.main(argv) == 0
assert flowgrid.cli.main(["--out", "tv.csv", "tv", "--a", "a.csv", "--b", "b.csv"]) == 0
gaussian_tv_bounds([0.0, 1.0], [1.0, 0.0], [0.5, 1.0], [2.0, 0.0])
assert tv_oracle_gaussian_1d(0.0, 1.0, 0.5, 2.0).hex() == "0x1.c4315cfd06eecp-3"
assert not scipy_modules(), scipy_modules()
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
