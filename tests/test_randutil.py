"""The raw draws and stacked ``randutil`` functions against per-instance samplers.

A stack of N raw draws builds what N per-instance sampler calls would, and
one instance is a stack of one. ``oracles`` keeps the per-instance samplers
(two generator calls per complex draw), so both the numbers and the
generator's final state are compared against them.
"""

import numpy as np
import pytest

import oracles
from cqmac import randutil
from cqmac.codesim import et_code_raw, random_et_codes

TOL = 1e-12


def _pair(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _shapes(count: int, seed: int = 5):
    meta = np.random.default_rng(seed)
    for _ in range(count):
        yield int(meta.integers(1 << 30)), int(meta.integers(1, 7)), int(meta.integers(1, 7))


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    # how ``codesim.sample_et_code`` draws its encoder: one raw draw, a stack of one
    return randutil.haar_isometries(randutil.gaussian_raw(rng, (rows, cols))[None])[0]


def test_haar_isometry_is_bitwise_the_oracle():
    # simulate draws its codes' isometries here, and its JSON is pinned byte for byte
    for seed, d, e in _shapes(40):
        old_rng, new_rng = _pair(seed)
        rows, cols = max(d, e), min(d, e)
        old = oracles.haar_isometry(old_rng, rows, cols)
        assert np.array_equal(_isometry(new_rng, rows, cols), old)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    for rows, cols in [(8, 2), (64, 2), (4, 4), (6, 6), (512, 2)]:
        old_rng, new_rng = _pair(rows * cols)
        old = oracles.haar_isometry(old_rng, rows, cols)
        assert np.array_equal(_isometry(new_rng, rows, cols), old)


@pytest.mark.parametrize("shape", [5, (3, 4)], ids=["int", "tuple"])
def test_gaussian_raw_is_one_generator_call(shape):
    old_rng, new_rng = _pair(17)
    raw = randutil.gaussian_raw(new_rng, shape)
    assert np.array_equal(raw, old_rng.standard_normal((2, *np.atleast_1d(shape))))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_isometry_needs_rows_at_least_cols(rng):
    with pytest.raises(ValueError, match="rows >= cols"):
        _isometry(rng, 2, 3)


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
            "factors": [oracles.random_factor(old_rng, (d,), e) for _ in range(count)],
            "gaussians": [oracles.complex_gaussian(old_rng, (d, e)) for _ in range(count)],
        }
        states = np.stack([randutil.gaussian_raw(new_rng, (d, e)) for _ in range(count)])
        pures = np.stack([randutil.gaussian_raw(new_rng, (d, 1)) for _ in range(count)])
        isos = np.stack([randutil.gaussian_raw(new_rng, (rows, cols)) for _ in range(count)])
        eff_raw, spectra = map(np.stack, zip(*[randutil.effect_raw(new_rng, d) for _ in range(count)]))
        kraus = np.stack([randutil.kraus_raw(new_rng, d, e, 2) for _ in range(count)])
        factors = np.stack([randutil.gaussian_raw(new_rng, (d, e)) for _ in range(count)])
        plain = np.stack([randutil.gaussian_raw(new_rng, (d, e)) for _ in range(count)])
        new = {
            "states": randutil.wishart_states(states),
            "projectors": randutil.wishart_states(pures),
            "isometries": randutil.haar_isometries(isos),
            "effects": randutil.effects(eff_raw, spectra),
            "kraus": randutil.whitened_kraus(kraus),
            "factors": randutil.unit_factors(factors),
            "gaussians": randutil.gaussians(plain),
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
    # the code's parts from the oracle samplers in the order et_code_raw draws them
    seed = int(rng.integers(1 << 30))
    old_rng, new_rng = _pair(seed)
    vectors = [oracles.random_pure(old_rng, (2,)).vec for _ in range(3)]
    enc = oracles.random_kraus_ops(old_rng, 2, 2, 2)
    dec = oracles.random_kraus_ops(old_rng, 4, 6, 2)
    code = random_et_codes(*(part[None] for part in et_code_raw(new_rng, m1=3)), m1=3)[0]
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    for w, v in zip(code.classical_factors, vectors):
        assert np.max(np.abs(w[:, 0] - v)) <= TOL
    column = np.stack([e.T.reshape(-1) for e in enc], axis=1) / np.sqrt(2)
    assert np.max(np.abs(code.input_factor - column)) <= TOL
    for m, branch in enumerate(code.branches):
        assert np.max(np.abs(branch.stacked - np.array([k[2 * m : 2 * m + 2] for k in dec]))) <= TOL
