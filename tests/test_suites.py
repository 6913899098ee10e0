"""The property suites behind ``cqmac verify``: edge cases and the benchmark's gate.

``perfbench/workloads.py`` is loaded read-only from its file, so the
benchmark's ``verify`` check runs here too: a suite whose results drift from
the recorded reference fails tier-1, not only the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracles
from cqmac import suites
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


def _old_draws(rng, suite: str, samples: int) -> None:
    """Each suite's draws made one instance at a time with the ``oracles``
    samplers: the generator state the stacked draws must end in."""
    for _ in range(samples):
        if suite == "eig_reconstruction":
            d = int(rng.integers(2, 17))
            oracles.complex_gaussian(rng, (d, d))
        elif suite == "partial_trace":
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            oracles.random_density_mat(rng, dims)
            rng.uniform()
        elif suite == "fidelity_monotone":
            dims = (2, int(rng.integers(2, 4)))
            oracles.random_density_mat(rng, dims)
            oracles.random_density_mat(rng, dims)
        elif suite == "alicki_fannes":
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            oracles.random_density_mat(rng, dims)
            oracles.random_density_mat(rng, dims)
            rng.uniform(0.0, 0.5)
        elif suite == "gentle_measurement":
            d = int(rng.integers(2, 7))
            oracles.random_density_mat(rng, (d,))
            oracles.random_effect(rng, d)
        elif suite == "pure_fidelity_perturbation":
            d = int(rng.integers(2, 7))
            oracles.random_pure(rng, (d,))
            oracles.random_density_mat(rng, (d,))
            oracles.random_density_mat(rng, (d,))
        elif suite == "product_fidelity_bound":
            da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            oracles.random_pure(rng, (da,))
            oracles.random_density_mat(rng, (db,))
            oracles.random_density_mat(rng, (da, db))
        elif suite == "entropy_additivity":
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            oracles.random_density_mat(rng, (da,))
            oracles.random_density_mat(rng, (db,))
        elif suite == "holevo_identity":
            x = int(rng.integers(2, 4))
            rng.dirichlet(np.ones(x))
            for _ in range(x):
                oracles.random_factor(rng, (2, 2))
        elif suite == "data_processing":
            da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            oracles.random_density_mat(rng, (da, db))
            oracles.random_kraus_ops(rng, db, db, 2)
        elif suite == "compound_monotonicity":
            for _ in range(int(rng.integers(1, 4)) + 1):
                oracles.random_kraus_ops(rng, 4, 4, 2)
            rng.dirichlet(np.ones(2))
            oracles.complex_gaussian(rng, 2)
            oracles.complex_gaussian(rng, 2)
            oracles.random_pure(rng, (2, 2))
        elif suite == "diamond_bounds":
            for _ in range(3):
                oracles.random_kraus_ops(rng, 3, 3, 2)
        elif suite == "net_cover":
            for _ in range(25):
                oracles.random_kraus_ops(rng, 4, 4, 2)
            rng.uniform(1.0, 3.0)
        elif suite == "code_identities":
            oracles.random_kraus_ops(rng, 4, 4, 2)
            for _ in range(2):  # the code, then the other code
                for _ in range(2):
                    oracles.random_pure(rng, (2,))
                oracles.random_kraus_ops(rng, 2, 2, 2)
                oracles.random_kraus_ops(rng, 4, 4, 2)


@pytest.mark.parametrize("samples", [1, 4])
@pytest.mark.parametrize("name", [s for s in SUITES if s != "timeshare"])
def test_stacked_draws_leave_the_generator_where_the_old_loop_did(monkeypatch, name, samples):
    # timeshare still draws as it evaluates; every other suite draws raw first
    made = []
    real = np.random.default_rng

    def recording(seed=None):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    SUITES[name](seed=11, samples=samples)
    old = real(11)
    _old_draws(old, name, samples)
    assert made[0].bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("samples", [1, 4])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["data_processing", "compound_monotonicity", "diamond_bounds"])
def test_stacked_suite_matches_its_per_instance_oracle(name, seed, samples, monkeypatch):
    # the oracle builds every channel, set and state through its constructor
    # and makes one library call per instance. Every margin is compared, not
    # only the worst: compound_monotonicity's worst is mostly its tolerance
    passed = []

    def capture(module):
        collect = module._collect

        def recording(suite, margins):
            passed.append(np.sort(np.hstack([np.zeros(0), *margins])))
            return collect(suite, margins)

        monkeypatch.setattr(module, "_collect", recording)

    capture(suites)
    capture(oracles)
    got = SUITES[name](seed=seed, samples=samples)
    want = getattr(oracles, f"suite_{name}")(seed=seed, samples=samples)
    assert (got.name, got.samples, got.violations) == (want.name, want.samples, want.violations)
    assert got.worst_margin == pytest.approx(want.worst_margin, rel=1e-12, abs=0)
    got_margins, want_margins = passed
    assert got_margins.size == want_margins.size == got.samples
    np.testing.assert_allclose(got_margins, want_margins, rtol=0, atol=1e-12)
