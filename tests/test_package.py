import inspect
import types

import dualratio
from dualratio import dataio, simulation


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
