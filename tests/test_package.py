import inspect
import types

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
