"""The stacked ``randutil`` functions against per-instance samplers.

Each sampler is its raw draw followed by its stacked function on a stack of
one, and a stack of N draws builds what N sampler calls would. ``oracles``
keeps per-instance samplers (two generator calls per complex draw), so both
the numbers and the generator's final state are compared against them.
"""

import numpy as np
import pytest

import oracles
from cqmac import randutil
from cqmac.codesim import random_et_code

TOL = 1e-12


def _pair(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _shapes(count: int, seed: int = 5):
    meta = np.random.default_rng(seed)
    for _ in range(count):
        yield int(meta.integers(1 << 30)), int(meta.integers(1, 7)), int(meta.integers(1, 7))


@pytest.mark.parametrize(
    "name, args",
    [
        ("complex_gaussian", lambda d, e: ((d, e),)),
        ("random_pure", lambda d, e: ((d, e),)),
        ("random_factor", lambda d, e: ((d,), e)),
        ("random_density_mat", lambda d, e: ((d, 2),)),
        ("random_effect", lambda d, e: (d,)),
        ("random_kraus_ops", lambda d, e: (d, e, 1 + (d + e) % 3)),
    ],
)
def test_sampler_matches_per_instance_oracle(name, args):
    for seed, d, e in _shapes(40):
        old_rng, new_rng = _pair(seed)
        old = getattr(oracles, name)(old_rng, *args(d, e))
        new = getattr(randutil, name)(new_rng, *args(d, e))
        old, new = (np.asarray(getattr(x, "vec", x)) for x in (old, new))
        assert new.shape == old.shape
        assert np.max(np.abs(new - old), initial=0.0) <= TOL
        # the generator ends where the oracle's does, so every later draw is unchanged
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert new_rng.integers(1 << 40) == old_rng.integers(1 << 40)


def test_haar_isometry_is_bitwise_the_oracle():
    # simulate draws its codes' isometries here, and its JSON is pinned byte for byte
    for seed, d, e in _shapes(40):
        old_rng, new_rng = _pair(seed)
        rows, cols = max(d, e), min(d, e)
        old = oracles.haar_isometry(old_rng, rows, cols)
        assert np.array_equal(randutil.haar_isometry(new_rng, rows, cols), old)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    for rows, cols in [(8, 2), (64, 2), (4, 4), (6, 6), (512, 2)]:
        old_rng, new_rng = _pair(rows * cols)
        old = oracles.haar_isometry(old_rng, rows, cols)
        assert np.array_equal(randutil.haar_isometry(new_rng, rows, cols), old)


@pytest.mark.parametrize("shape", [5, (3, 4)], ids=["int", "tuple"])
def test_gaussian_raw_is_one_generator_call(shape):
    old_rng, new_rng = _pair(17)
    raw = randutil.gaussian_raw(new_rng, shape)
    assert np.array_equal(raw, old_rng.standard_normal((2, *np.atleast_1d(shape))))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_isometry_needs_rows_at_least_cols(rng):
    with pytest.raises(ValueError, match="rows >= cols"):
        randutil.haar_isometry(rng, 2, 3)


@pytest.mark.parametrize("count", [1, 2, 7])
def test_stacked_functions_match_per_instance_oracles(count):
    # draw count instances in turn, build them in one call each
    for seed, d, e in _shapes(15, seed=count):
        old_rng, new_rng = _pair(seed)
        rows, cols = max(d, e), min(d, e)
        old = {
            "states": [oracles.random_density_mat(old_rng, (d,), e) for _ in range(count)],
            "projectors": [np.outer(v, v.conj()) for v in
                           (oracles.random_pure(old_rng, (d,)).vec for _ in range(count))],
            "isometries": [oracles.haar_isometry(old_rng, rows, cols) for _ in range(count)],
            "effects": [oracles.random_effect(old_rng, d) for _ in range(count)],
            "kraus": [oracles.random_kraus_ops(old_rng, d, e, 2) for _ in range(count)],
        }
        states = np.stack([randutil.gaussian_raw(new_rng, (d, e)) for _ in range(count)])
        pures = np.stack([randutil.gaussian_raw(new_rng, (d, 1)) for _ in range(count)])
        isos = np.stack([randutil.gaussian_raw(new_rng, (rows, cols)) for _ in range(count)])
        eff_raw, spectra = map(np.stack, zip(*[randutil.effect_raw(new_rng, d) for _ in range(count)]))
        kraus = np.stack([randutil.kraus_raw(new_rng, d, e, 2) for _ in range(count)])
        new = {
            "states": randutil.wishart_states(states),
            "projectors": randutil.wishart_states(pures),
            "isometries": randutil.haar_isometries(isos),
            "effects": randutil.effects(eff_raw, spectra),
            "kraus": randutil.whitened_kraus(kraus),
        }
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        for key, stack in new.items():
            assert stack.shape == np.shape(old[key]), key
            assert np.max(np.abs(stack - np.array(old[key]))) <= TOL, key
        assert np.array_equal(new["isometries"], np.array(old["isometries"]))


def test_whitened_kraus_is_trace_preserving_with_any_lead_axes(rng):
    raw = np.stack([[randutil.kraus_raw(rng, 3, 2, 4) for _ in range(2)] for _ in range(3)])
    ops = randutil.whitened_kraus(raw)
    assert ops.shape == (3, 2, 4, 2, 3)
    gram = np.einsum("abkoi,abkoj->abij", ops.conj(), ops)
    assert np.max(np.abs(gram - np.eye(3))) <= TOL


def test_random_et_code_matches_per_instance_draws(rng):
    # the code's parts from the oracle samplers in the order random_et_code draws them
    seed = int(rng.integers(1 << 30))
    old_rng, new_rng = _pair(seed)
    vectors = [oracles.random_pure(old_rng, (2,)).vec for _ in range(3)]
    enc = oracles.random_kraus_ops(old_rng, 2, 2, 2)
    dec = oracles.random_kraus_ops(old_rng, 4, 6, 2)
    code = random_et_code(new_rng, m1=3)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    for w, v in zip(code.classical_factors, vectors):
        assert np.max(np.abs(w[:, 0] - v)) <= TOL
    column = np.stack([e.T.reshape(-1) for e in enc], axis=1) / np.sqrt(2)
    assert np.max(np.abs(code.input_factor - column)) <= TOL
    for m, branch in enumerate(code.branches):
        assert np.max(np.abs(branch.stacked - np.array([k[2 * m : 2 * m + 2] for k in dec]))) <= TOL
