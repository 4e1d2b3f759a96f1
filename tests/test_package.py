"""The package namespace: every public name loads from its submodule on first use."""

import importlib

import pytest

import heatcalc

SUBMODULES = ("terms", "reduction", "certificates", "mixtures", "oracle")


def _homes(name):
    """The submodules that hold ``name`` as a module-level attribute."""
    return [m for m in SUBMODULES if hasattr(importlib.import_module(f"heatcalc.{m}"), name)]


@pytest.mark.parametrize("name", heatcalc.__all__)
def test_name_resolves_to_its_home_object(name):
    obj = getattr(heatcalc, name)
    homes = _homes(name)
    assert homes, f"{name} is in no submodule"
    # a re-exported name is the same object wherever it is held
    assert all(getattr(importlib.import_module(f"heatcalc.{m}"), name) is obj for m in homes)
    defined_in = getattr(obj, "__module__", None)
    if isinstance(defined_in, str) and defined_in.startswith("heatcalc."):
        assert getattr(importlib.import_module(defined_in), name) is obj
    assert name in dir(heatcalc)
    # resolved once, then an ordinary module global
    assert vars(heatcalc)[name] is obj


def test_all_is_sorted_and_unique():
    assert heatcalc.__all__ == sorted(set(heatcalc.__all__))
    assert len(heatcalc.__all__) == 55


def test_star_import_binds_every_name():
    namespace = {}
    exec("from heatcalc import *", namespace)
    missing = [n for n in heatcalc.__all__ if n not in namespace]
    assert not missing
    assert all(namespace[n] is getattr(heatcalc, n) for n in heatcalc.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heatcalc.no_such_name
    assert not hasattr(heatcalc, "no_such_name")
    with pytest.raises(ImportError):
        exec("from heatcalc import no_such_name", {})


def test_version():
    assert heatcalc.__version__ == "0.1.0"
