"""What a flowgrid process loads.

``scipy.integrate`` and ``scipy.optimize`` (which pull in ``scipy.sparse``
and ``scipy.linalg``) serve only the 1-D TV oracle and non-unit β
profiles, so they are imported on first use.  A sweep and the default
check suites must run without them; the on-demand paths must still give
their pinned values.  Each check runs in a fresh interpreter, since this
one has long since imported everything.
"""

_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")


def test_sweep_and_check_suites_leave_quadrature_and_root_finder_unloaded(fresh_python):
    code = f"""
import sys
import flowgrid, flowgrid.cli
assert not set({_DEFERRED!r}) & set(sys.modules), "loaded at import"
from flowgrid import ExperimentSpec, run_fig2_experiment
from flowgrid.checks import SUITES
from flowgrid.metrics import gaussian_tv_bounds
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
loaded = sorted(set({_DEFERRED!r}) & set(sys.modules))
assert not loaded, loaded
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr


def test_on_demand_imports_give_the_pinned_values(fresh_python):
    code = f"""
import hashlib, sys
import numpy as np
from flowgrid.localization import ddpm_time_from_sl, simulate_forward
from flowgrid.metrics import tv_oracle_gaussian_1d
from flowgrid.targets import Target

assert not set({_DEFERRED!r}) & set(sys.modules)
beta = lambda u: 1.0 + u
assert tv_oracle_gaussian_1d(0.0, 1.0, 0.5, 2.0).hex() == "0x1.c4315cfd06eecp-3"
taus = ddpm_time_from_sl(np.array([0.5, 2.0]), beta=beta)
assert [float(v).hex() for v in taus] == ["0x1.cb6d35b17a45ep-2", "0x1.7bf38decd8f8ap-3"], taus
path = simulate_forward("ddpm-forward", Target.low_rank(4, 2), [0.1, 0.3], 32, seed=4, beta=beta)
digest = hashlib.sha256(path.states.tobytes()).hexdigest()
assert digest == "30bf0704dbe1ef280494c8128f483257c042485a47e3267778bdcc00727bd048", digest
assert {{"scipy.integrate", "scipy.optimize"}} <= set(sys.modules)
"""
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
