"""Package layout: no package attribute shadows one of its submodules."""

import importlib
import pkgutil

import repro


def test_every_submodule_is_its_packages_attribute():
    """``import repro.a.b as m`` binds the module ``repro.a.b``: a package
    that re-exports a function under its submodule's name would hand the
    function out instead, and patching ``m.<name>`` would do nothing."""
    shadowed = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        parent, _, leaf = info.name.rpartition(".")
        attr = getattr(importlib.import_module(parent), leaf, None)
        if attr is not module:
            shadowed.append(f"{info.name} is bound to a {type(attr).__name__}")
    assert shadowed == []
