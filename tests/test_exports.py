"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import floworder

MODULES = ["floworder"] + [
    f"floworder.{info.name}"
    for info in pkgutil.iter_modules(floworder.__path__)
    if info.name != "__main__"  # runs the command line on import
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_the_modules_objects():
    """A name the package re-exports is the same object as in its module."""
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in set(module.__all__) & set(floworder.__all__):
            assert getattr(floworder, attr) is getattr(module, attr), attr
