"""The names other code reaches into the library by.

Every name a module exports in ``__all__`` resolves, and every attribute
that the ``perfbench`` tracer rebinds (``perfbench/spans.py``) still exists
with the kind it expects, so removing a name cannot silently break
``import *`` or a traced benchmark run.  ``perfbench/spans.py`` is loaded
from its file and only read.
"""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

MODULES = [
    "gowerslab",
    "gowerslab.cli",
    "gowerslab.errors",
    "gowerslab.groups",
    "gowerslab.harmonics",
    "gowerslab.instances",
    "gowerslab.nilcube",
    "gowerslab.polymaps",
]
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname", MODULES)
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec(f"from {modname} import *", namespace)


def test_the_tracers_functions_exist():
    for layer, name, modname, attr in _spans().FUNCTIONS:
        assert inspect.isfunction(getattr(importlib.import_module(modname), attr)), (layer, name, attr)


def test_the_tracers_rebound_attributes_keep_their_kind():
    from gowerslab.groups import Subgroup
    from gowerslab.nilcube import CubeSet, is_morphism
    from gowerslab.polymaps import SurjectionDecomposition

    assert inspect.isfunction(is_morphism)
    assert isinstance(Subgroup.__dict__["from_generators"], classmethod)
    assert inspect.isfunction(SurjectionDecomposition.__dict__["verify"])
    assert isinstance(CubeSet.__dict__["members"], functools.cached_property)
