"""The traced benchmark patches smoothtm functions and methods by name.

``perfbench/spans.py`` lists them in ``FUNCTIONS`` and ``METHODS``; a rename
in ``src/smoothtm`` would make ``perfbench/run.py --trace 1`` fail with an
AttributeError, so every listed name must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("modname, attr, layer", spans.FUNCTIONS)
def test_traced_function_resolves(modname, attr, layer):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, cls, attr, layer", spans.METHODS)
def test_traced_method_resolves(modname, cls, attr, layer):
    owner = getattr(importlib.import_module(modname), cls)
    assert callable(getattr(owner, attr))
