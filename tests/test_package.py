import types

import dualratio


def test_all_lists_every_imported_public_name_once():
    # ``from dualratio import *`` exports exactly the names __init__ imports.
    names = dualratio.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(dualratio, name)
    public = {name for name, value in vars(dualratio).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
