"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import highcontrast

MODULES = sorted(m.name for m in pkgutil.iter_modules(highcontrast.__path__))


def test_the_package_has_its_modules():
    assert {"fdm", "limitspec", "bloch", "dtn", "radial3d"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"highcontrast.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
