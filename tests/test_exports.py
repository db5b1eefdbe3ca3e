"""The package's public names: every export resolves, once."""

import gromovlab


def test_every_export_resolves_once_and_star_imports():
    names = gromovlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gromovlab, name)] == []
    namespace = {}
    exec("from gromovlab import *", namespace)  # a star import needs module scope
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
