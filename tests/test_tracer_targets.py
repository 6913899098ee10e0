"""The benchmark's tracer finds cqmac functions by name, so a rename fails here.

``perfbench/tracer.py`` is loaded read-only from its file; nothing is
installed, so no binding changes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cqmac import codesim
from cqmac.qmatrix import maximally_mixed

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


def test_structural_hooks_read_the_code_objects(identity_qmac, basis_v, uniform_p):
    # the benchmark pins counts that these hooks read from the decoder and the
    # branches; calling them here makes a renamed attribute fail tier-1 too
    outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
    cb = codesim.pgm_codebook([outs], [(0,), (1,)])
    tb = codesim.effective_b_channel(identity_qmac, uniform_p, basis_v)
    et = codesim.sample_et_code([tb], 2, 1, 2, seed=5)
    code = codesim.combine_hybrid(cb, et, basis_v, identity_qmac)
    built = tracer.Tracer()
    built._after_sample_et_code(([tb], 2, 1, 2), et)
    built._after_combine_hybrid((cb, et, basis_v, identity_qmac), code)
    assert built.counts["decoder_kraus_ops"] > 0
    assert built.counts["branch_ops"] > 0
