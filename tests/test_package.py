import inspect
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import dualratio
from dualratio import dataio, simulation
from conftest import evaluate_batch


def test_all_lists_every_imported_public_name_once():
    # ``from dualratio import *`` exports exactly the names __init__ imports.
    names = dualratio.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(dualratio, name)
    public = {name for name, value in vars(dualratio).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_traced_functions_keep_their_names_and_arguments():
    # The benchmark's traced run wraps these functions by name, and reads a
    # call's rows from the arguments at these positions; a rename there makes
    # the run report the layer as not measured.
    for module, name in ((simulation, "run_monte_carlo"), (simulation, "enumerate_exact"),
                         (simulation, "_finalize"), (simulation, "compare_analytic_empirical"),
                         (dataio, "render_rows")):
        assert callable(getattr(module, name)), name
    for fn, position, arg in ((simulation._sample_index_matrix, 3, "rows"),
                              (simulation._evaluate_batch, 5, "idx"),
                              (simulation._accumulate, 0, "vals")):
        assert list(inspect.signature(fn).parameters)[position] == arg, fn.__name__


def test_evaluate_batch_returns_one_contiguous_column_per_estimator():
    # The traced run counts _accumulate's rows from vals.shape[0], so vals
    # stays (B, k+5); _accumulate reads each estimator as a contiguous column.
    rng = np.random.default_rng(0)
    y, x = rng.uniform(1.0, 2.0, 50), rng.uniform(1.0, 2.0, (50, 3))
    idx = np.sort(rng.integers(0, 50, (300, 5)), axis=1)
    vals, glin = evaluate_batch(y, x, x.mean(axis=0), 0.3, np.full(3, 1 / 3), idx)
    assert vals.shape == (300, 3 + 5) and glin.shape == (300,)
    assert all(vals[:, j].flags.c_contiguous for j in range(vals.shape[1]))


# Runs in a fresh interpreter: the test process has imported multiprocessing
# already (conftest). argv[1] is src/, argv[2] a directory for the CLI's files.
POOL_IMPORTED_ON_DEMAND = """
import os, sys
sys.path.insert(0, sys.argv[1])
import dualratio.cli
from dualratio import (SampleDesign, Weights, enumerate_exact, run_monte_carlo,
                       save_population_csv, simulation)
from dualratio.synth import correlated_population

def pool_modules():
    return [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]

assert pool_modules() == [], "import dualratio.cli"
simulation._cpus_available = lambda: 2  # so only the work cap keeps a pool off
pop = correlated_population(30, ybar=50.0, xbar=(20.0, 80.0), cv_y=0.2, cv_x=0.2,
                            rho_yx=0.6, rho_xx=0.3, seed=77)
design, w = SampleDesign(30, 8), Weights.equal(2)
# two 32,768-row chunks of 40,000 x 8 cells, below the cap
serial = run_monte_carlo(pop, design, w, 40_000, seed=7, workers=2)
assert pool_modules() == [], "run_monte_carlo below the work cap"
enumerate_exact(pop, SampleDesign(30, 4), w)
assert pool_modules() == [], "enumerate_exact"
data, out = os.path.join(sys.argv[2], "pop.csv"), os.path.join(sys.argv[2], "sim.csv")
save_population_csv(pop, data)
assert dualratio.cli.main(["simulate", "--data", data, "--y", "y", "--x", "x1,x2", "--n", "8",
                           "--reps", "40000", "--seed", "7", "--workers", "2",
                           "--format", "csv", "--out", out]) == 0
assert pool_modules() == [], "cli simulate --workers 2 below the work cap"
simulation._POOL_CELLS_PER_WORKER = 1  # as the pool_always fixture does
pooled = run_monte_carlo(pop, design, w, 40_000, seed=7, workers=2)
assert pooled == serial and repr(pooled) == repr(serial)
assert "concurrent.futures" in sys.modules, "a run that starts a pool"
"""


def test_only_a_run_that_starts_a_pool_imports_it(tmp_path):
    # The pool's modules are most of what the package would load beyond
    # numpy, and only a run that starts a pool uses them (see Workers in the
    # simulation module docstring).
    src = str(Path(simulation.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", POOL_IMPORTED_ON_DEMAND, src, str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
