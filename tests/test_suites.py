"""The property suites behind ``cqmac verify``: edge cases and the benchmark's gate.

``perfbench/workloads.py`` is loaded read-only from its file, so the
benchmark's ``verify`` check runs here too: a suite whose results drift from
the recorded reference fails tier-1, not only the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from cqmac.cli import main
from cqmac.suites import SUITES, SuiteResult

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(SUITES))
def test_no_samples_gives_an_empty_pass(name):
    assert SUITES[name](seed=3, samples=0) == SuiteResult(name, 0, 0, 0.0)


@pytest.mark.parametrize("seed", [4, 17])
def test_verify_matches_the_benchmark_reference(capsys, seed):
    # the benchmark's verify items run `cqmac verify --seed s` for pool seeds
    # 0-23 and check the printed lines against reference.json
    key = str(seed)
    code = main(["verify", "--seed", key])
    got = workloads.extract("verify", key, code, capsys.readouterr().err, Path("."))
    ref = workloads.load_reference()["verify"][key]
    assert workloads.check("verify", key, got, ref) == []
