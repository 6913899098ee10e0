"""The benchmark's tracer finds cqmac functions by name, so a rename fails here.

``perfbench/tracer.py`` is loaded read-only from its file; nothing is
installed, so no binding changes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, modname, attr", tracer.FUNCTIONS, ids=[f[0] for f in tracer.FUNCTIONS])
def test_traced_function_resolves(name, modname, attr):
    assert modname.startswith("cqmac") or name.startswith("kernel.")
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_finds_every_binding():
    # building the tracer looks up every function, the optimizer's minimize
    # and each suite, and raises if one has no binding in a cqmac module
    built = tracer.Tracer()
    assert len(built._patches) >= len(tracer.FUNCTIONS)
