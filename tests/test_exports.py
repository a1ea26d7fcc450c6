"""The package's public names, which the package and emaflow.spectral
import from their modules on first use."""

import importlib

import pytest

import emaflow
import emaflow.spectral


@pytest.mark.parametrize("package", [emaflow, emaflow.spectral], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        getattr(package, name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package", ["emaflow", "emaflow.spectral"])
def test_star_import_gives_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(importlib.import_module(package).__all__) <= set(namespace)


@pytest.mark.parametrize("package", [emaflow, emaflow.spectral], ids=lambda m: m.__name__)
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")

