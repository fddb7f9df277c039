import importlib
import pkgutil

import pytest

import liftbmf
from liftbmf import mln

MODULES = {"liftbmf": liftbmf} | {
    f"liftbmf.{m.name}": importlib.import_module(f"liftbmf.{m.name}")
    for m in pkgutil.iter_modules(liftbmf.__path__)
}
EXPORTING = sorted(name for name, module in MODULES.items() if hasattr(module, "__all__"))

# Wrappers the chain runner never called, replaced by the compiled model's
# own primitives.  Spelled in parts so a text search for the old names
# finds only real leftovers.
REMOVED = {f"{move}_step" for move in ("gibbs", "orbital")} | {"world".title()}


def test_the_modules_that_export_are_found():
    assert {"liftbmf", "liftbmf.mln", "liftbmf.sampler", "liftbmf.factorize"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = MODULES[name]
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_removed_wrappers_stay_removed(name):
    module = MODULES[name]
    assert REMOVED.isdisjoint(getattr(module, "__all__", ()))
    assert not [n for n in REMOVED if hasattr(module, n)]


def test_conditioned_has_no_world_wrapper():
    assert not hasattr(mln.Conditioned, "world")
