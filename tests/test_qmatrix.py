import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqmac.channels import KrausChannel, identity_channel
from cqmac.entropic import von_neumann_entropy
from cqmac.qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    dagger,
    factor_trace_norm,
    fidelity,
    hermitian_eig,
    maximally_entangled,
    maximally_mixed,
    partial_trace_mat,
    sqrt_psd,
    tensor,
    trace_norm,
)
from cqmac.suites import (
    _collect,
    suite_eig_reconstruction,
    suite_fidelity_monotone,
    suite_gentle_measurement,
    suite_partial_trace,
    suite_product_fidelity_bound,
    suite_pure_fidelity_perturbation,
)
from oracles import (
    complex_gaussian,
    density,
    depolarizing_channel,
    entanglement_fidelity,
    partial_trace,
    purify,
    random_density,
    random_pure,
)


class TestHermitianEig:
    def test_identity(self):
        vals, vecs = hermitian_eig(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2))

    def test_diagonal(self):
        vals, vecs = hermitian_eig(np.diag([3.0, -1.0]))
        assert np.allclose(vals, [3.0, -1.0])
        # standard basis vectors up to phase
        assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12
        assert abs(abs(vecs[1, 1]) - 1.0) < 1e-12

    def test_random_reconstruction(self, rng):
        g = complex_gaussian(rng, (6, 6))
        h = g + g.conj().T
        vals, vecs = hermitian_eig(h)
        err = np.max(np.abs((vecs * vals) @ vecs.conj().T - h))
        assert err <= 1e-9 * np.linalg.norm(h, 2)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) < 1e-9
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(np.ones((2, 3)))


class TestTensor:
    def test_identities(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_rank_one_projector(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = tensor(p0, p1)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.allclose(out, expect)

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=16, deadline=None)
    def test_index_formula(self, i, j, k, l):
        rng = np.random.default_rng(5)
        a = complex_gaussian(rng, (2, 2))
        b = complex_gaussian(rng, (2, 2))
        out = tensor(a, b)
        assert out[i * 2 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])

    def test_stacks_pair_up(self, rng):
        """Two (N, r, c) stacks give ``np.kron`` of each pair, bit for bit."""
        a, b = complex_gaussian(rng, (4, 2, 3)), complex_gaussian(rng, (4, 3, 1))
        out = tensor(a, b)
        assert out.shape == (4, 6, 3)
        for got, x, y in zip(out, a, b):
            assert np.array_equal(got, np.kron(x, y))

    def test_leading_axes_broadcast(self, rng):
        a, b = complex_gaussian(rng, (3, 1, 2, 2)), complex_gaussian(rng, (5, 3, 2))
        out = tensor(a, b)
        assert out.shape == (3, 5, 6, 4)
        for i, j in itertools.product(range(3), range(5)):
            assert np.array_equal(out[i, j], np.kron(a[i, 0], b[j]))
        m = complex_gaussian(rng, (2, 2))
        for got, y in zip(tensor(m, b), b):
            assert np.array_equal(got, np.kron(m, y))

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_refuses_fewer_than_two_axes(self, shape):
        with pytest.raises(DimensionMismatchError):
            tensor(np.ones(shape), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            tensor(np.eye(2), np.ones(shape))


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        joint = DensityMatrix(tensor(a.mat, b.mat), (2, 3))
        assert np.allclose(partial_trace(joint, [0]).mat, a.mat, atol=1e-12)

    def test_bell_marginal(self):
        bell = density(maximally_entangled(2))
        assert np.allclose(partial_trace(bell, [1]).mat, np.eye(2) / 2)

    def test_summation_oracle(self, rng):
        rho = random_density(rng, (2, 2))
        expect = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            bra = np.zeros((1, 2), dtype=complex)
            bra[0, k] = 1.0
            op = np.kron(np.eye(2), bra)
            expect += op @ rho.mat @ op.conj().T
        assert np.allclose(partial_trace(rho, [0]).mat, expect, atol=1e-12)

    def test_trace_and_psd_preserved(self, rng):
        rho = random_density(rng, (2, 2, 2))
        red = partial_trace(rho, [0, 2])
        assert abs(np.trace(red.mat) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(red.mat)[0] > -1e-10

    def test_index_out_of_range(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(DimensionMismatchError):
            partial_trace_mat(rho.mat, rho.dims, [5])


class TestFidelity:
    def test_self(self, rng):
        rho = random_density(rng, (3,))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed(self):
        assert fidelity(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(0.5, abs=1e-10)

    def test_symmetric(self, rng):
        a = random_density(rng, (3,))
        b = random_density(rng, (3,))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-8)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            fidelity(random_density(rng, (2,)), random_density(rng, (3,)))

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
    def test_pure_state_is_overlap(self, rng, d):
        """F(|psi><psi|, rho) = <psi|rho|psi>, with the pure state on either side."""
        for _ in range(5):
            v = random_pure(rng, (d,)).vec
            rho = random_density(rng, (d,)).mat
            overlap = float(np.real(v.conj() @ rho @ v))
            psi = np.outer(v, v.conj())
            assert abs(fidelity(psi, rho) - overlap) <= 1e-12
            assert abs(fidelity(rho, psi) - overlap) <= 1e-12

    @pytest.mark.parametrize("small", [1e-7, 1e-9, 1e-11])
    def test_state_with_tiny_eigenvalue_has_self_fidelity_one(self, rng, small):
        u = np.linalg.qr(complex_gaussian(rng, (3, 3)))[0]
        rho = (u * [1.0 - 1.5 * small, small, 0.5 * small]) @ dagger(u)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-12


class TestTraceNorm:
    def test_diag(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == pytest.approx(0.0)
        assert type(trace_norm(np.zeros((3, 3)))) is float
        assert np.array_equal(trace_norm(np.zeros((2, 4, 3, 3))), np.zeros((2, 4)))

    def test_eigenvalue_oracle(self, rng):
        diff = random_density(rng, (2,)).mat - random_density(rng, (2,)).mat
        expect = np.sum(np.abs(np.linalg.eigvalsh(diff)))
        assert trace_norm(diff) == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("lead", [(), (7,), (2, 3)], ids=str)
    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_matches_singular_values_on_hermitian_stacks(self, rng, lead, d):
        g = complex_gaussian(rng, lead + (d, d))
        h = g + dagger(g)
        want = np.sum(np.linalg.svd(h, compute_uv=False), axis=-1)
        assert np.max(np.abs(trace_norm(h) - want)) <= 1e-12 * max(1.0, np.max(want))


def _svd_trace_norm(x, y):
    """Dense oracle: singular values of x x† - y y†."""
    return np.sum(np.linalg.svd(x @ dagger(x) - y @ dagger(y), compute_uv=False), axis=-1)


class TestFactorTraceNorm:
    """||x x† - y y†||_1 from factors, against the dense difference's SVD."""

    # (d, r1, r2): r1 + r2 below, at and above d, where r from the QR is not square
    SHAPES = [(6, 1, 2), (8, 3, 3), (16, 2, 2), (16, 1, 4), (4, 2, 2), (3, 2, 3), (5, 5, 1)]

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=str)
    @pytest.mark.parametrize("d, r1, r2", SHAPES, ids=str)
    def test_matches_dense_oracle(self, rng, lead, d, r1, r2):
        x = complex_gaussian(rng, lead + (d, r1))
        y = complex_gaussian(rng, lead + (d, r2))
        got, want = factor_trace_norm(x, y), _svd_trace_norm(x, y)
        assert np.shape(got) == lead
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(want))

    @pytest.mark.parametrize("d, r1, r2", SHAPES, ids=str)
    def test_equal_factors_give_zero(self, rng, d, r1, r2):
        x = complex_gaussian(rng, (3, d, r1))
        assert np.max(np.abs(factor_trace_norm(x, x))) <= 1e-12

    @pytest.mark.parametrize("d, r1, r2", SHAPES, ids=str)
    def test_zero_padded_columns(self, rng, d, r1, r2):
        x = complex_gaussian(rng, (3, d, r1)) / np.sqrt(d)
        y = complex_gaussian(rng, (3, d, r2)) / np.sqrt(d)
        pad = np.zeros((3, d, 2), dtype=complex)
        x_pad, y_pad = np.concatenate([x, pad], axis=-1), np.concatenate([pad, y], axis=-1)
        want = _svd_trace_norm(x, y)
        assert np.max(np.abs(factor_trace_norm(x_pad, y_pad) - want)) <= 1e-12
        assert np.max(np.abs(factor_trace_norm(x_pad, y) - want)) <= 1e-12

    def test_rows_must_match(self, rng):
        with pytest.raises(DimensionMismatchError):
            factor_trace_norm(complex_gaussian(rng, (4, 1)), complex_gaussian(rng, (5, 1)))
        with pytest.raises(DimensionMismatchError):
            factor_trace_norm(complex_gaussian(rng, (2, 4, 1)), complex_gaussian(rng, (3, 4, 1)))


def _psd_stack(rng, lead, d):
    g = complex_gaussian(rng, lead + (d, d))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None].real


# (dims, keep) of each partial trace checked on stacks, d = prod(dims) <= 8
PARTIAL_TRACES = [((2,), [0]), ((2, 2), [0]), ((2, 3), [1]), ((3, 2), [0]),
                  ((2, 2), [1]), ((5,), [0]), ((2, 3), [0]), ((2, 2, 2), [0, 2])]


class TestStackedPrimitives:
    """A (..., d, d) stack gives what a loop of 2-D calls gives, to 1e-12."""

    @pytest.mark.parametrize("lead", [(1,), (3,), (7,), (2, 3)], ids=str)
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_loop_of_2d_calls(self, rng, lead, d):
        general = complex_gaussian(rng, lead + (d, d))
        rho, sig = _psd_stack(rng, lead, d), _psd_stack(rng, lead, d)
        cases = [
            (hermitian_eig, (general,)),
            (sqrt_psd, (rho,)),
            (trace_norm, (general + dagger(general),)),
            (fidelity, (rho, sig)),
            (von_neumann_entropy, (rho,)),
        ]
        for fn, args in cases:
            stacked = fn(*args)
            for idx in np.ndindex(*lead):
                single = fn(*(a[idx] for a in args))
                if fn is hermitian_eig:  # (eigenvalues, eigenvectors)
                    pairs = [(stacked[0][idx], single[0]), (stacked[1][idx], single[1])]
                else:
                    pairs = [(stacked[idx], single)]
                for got, want in pairs:
                    assert np.max(np.abs(got - want)) <= 1e-12, fn.__name__

    @pytest.mark.parametrize("dims, keep", PARTIAL_TRACES, ids=str)
    def test_partial_trace_matches_loop(self, rng, dims, keep):
        d = int(np.prod(dims))
        for lead in [(1,), (4,), (2, 3)]:
            stack = complex_gaussian(rng, lead + (d, d))
            out = partial_trace_mat(stack, dims, keep)
            for idx in np.ndindex(*lead):
                assert np.max(np.abs(out[idx] - partial_trace_mat(stack[idx], dims, keep))) <= 1e-12

    def test_2d_calls_return_floats(self, rng):
        rho, sig = _psd_stack(rng, (), 3), _psd_stack(rng, (), 3)
        for value in (trace_norm(rho - sig), fidelity(rho, sig), von_neumann_entropy(rho),
                      fidelity(DensityMatrix(rho, (3,)), DensityMatrix(sig, (3,)))):
            assert type(value) is float

    @pytest.mark.parametrize(
        "fn, kinds",
        [
            (hermitian_eig, ("non-square", "non-finite")),
            (sqrt_psd, ("non-square", "non-finite")),
            (trace_norm, ("non-square", "non-finite")),
            (lambda m: factor_trace_norm(m, m), ("non-finite",)),
            (lambda m: fidelity(m, m), ("non-square", "non-finite")),
            (lambda m: partial_trace_mat(m, (3,), [0]), ("non-square",)),  # no finiteness check
            (von_neumann_entropy, ("non-square", "non-finite")),
        ],
        ids=["hermitian_eig", "sqrt_psd", "trace_norm", "factor_trace_norm", "fidelity",
             "partial_trace_mat", "von_neumann_entropy"],
    )
    def test_bad_stack_raises_like_bad_matrix(self, fn, kinds):
        nan = np.eye(3, dtype=complex)
        nan[0, 1] = np.nan
        bad = {"non-square": np.ones((2, 3), dtype=complex), "non-finite": nan}
        for kind in kinds:
            mat = bad[kind]
            with pytest.raises(ValueError) as single:
                fn(mat)
            with pytest.raises(ValueError) as stacked:
                fn(np.stack([np.ones_like(mat), mat, np.ones_like(mat)]))
            assert stacked.type is single.type, kind

    def test_density_matrix_refuses_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.stack([np.eye(2) / 2] * 2), (2,))


class TestEntanglementFidelity:
    def test_identity_channel(self, rng):
        rho = random_density(rng, (3,))
        assert entanglement_fidelity(rho, identity_channel(3)) == pytest.approx(1.0, abs=1e-10)

    def test_depolarizing_on_mixed(self):
        val = entanglement_fidelity(maximally_mixed(2), depolarizing_channel(2))
        assert val == pytest.approx(0.25, abs=1e-10)

    def test_kraus_formula_oracle(self, rng):
        z = np.diag([1.0, -1.0]).astype(complex)
        ch = KrausChannel(
            (np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * z), (2,), (2,)
        )
        rho = maximally_mixed(2)
        expect = sum(abs(np.trace(rho.mat @ k)) ** 2 for k in ch.kraus_ops)
        assert entanglement_fidelity(rho, ch) == pytest.approx(expect, abs=1e-10)

    def test_purification_independent(self, rng):
        rho = random_density(rng, (2,))
        ch = KrausChannel(
            (np.sqrt(0.7) * np.eye(2, dtype=complex), np.sqrt(0.3) * np.diag([1.0, -1.0]).astype(complex)),
            (2,),
            (2,),
        )
        base = entanglement_fidelity(rho, ch)
        # rotate the reference side of a purification: same value must result
        psi = purify(rho)
        u = np.linalg.qr(complex_gaussian(rng, (2, 2)))[0]
        vec = (np.kron(np.eye(2), u) @ psi.vec).reshape(-1)
        out = np.zeros((4, 4), dtype=complex)
        for k in ch.kraus_ops:
            w = np.kron(k, np.eye(2)) @ vec
            out += np.outer(w, w.conj())
        alt = float(np.real(vec.conj() @ out @ vec))
        assert base == pytest.approx(alt, abs=1e-10)


class TestPurify:
    def test_pure_input(self, rng):
        psi = random_pure(rng, (2,))
        out = purify(density(psi))
        red = partial_trace(density(out), [0])
        assert np.allclose(red.mat, density(psi).mat, atol=1e-9)

    def test_maximally_mixed(self):
        out = purify(maximally_mixed(2))
        # marginal is I/2 and the state is maximally entangled
        red = partial_trace(density(out), [0])
        assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-9)

    def test_round_trip(self, rng):
        rho = random_density(rng, (2,), rank=2)
        out = purify(rho)
        red = partial_trace(density(out), [0])
        assert np.max(np.abs(red.mat - rho.mat)) < 1e-9


class TestTypes:
    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]), (2,))
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]), (2,))
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(2) / 2, (3,))
        # a NaN or inf entry passes the Hermiticity, trace and eigenvalue
        # tolerances (each comparison with NaN is false), so it is refused first
        for bad, entry in itertools.product([np.nan, np.inf, -np.inf], [(0, 0), (0, 1)]):
            mat = np.eye(2, dtype=complex) / 2
            mat[entry] = mat[entry[::-1]] = bad
            with pytest.raises(ValueError, match="finite"):
                DensityMatrix(mat, (2,))

    def test_pure_state_validation(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_immutable(self, rng):
        rho = random_density(rng, (2,))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 5.0

    def test_sqrt_psd(self, rng):
        rho = random_density(rng, (3,))
        root = sqrt_psd(rho.mat)
        assert np.allclose(root @ root, rho.mat, atol=1e-9)


class TestLemmaSuites:
    """Random-instance inequality suites (small sample counts here; the
    acceptance run uses the full 500)."""

    def test_eig_reconstruction(self):
        assert suite_eig_reconstruction(seed=1, samples=25).violations == 0

    def test_partial_trace(self):
        assert suite_partial_trace(seed=2, samples=25).violations == 0

    def test_fidelity_monotone(self):
        assert suite_fidelity_monotone(seed=3, samples=25).violations == 0

    def test_gentle_measurement(self):
        assert suite_gentle_measurement(seed=4, samples=50).violations == 0

    def test_pure_fidelity_perturbation(self):
        assert suite_pure_fidelity_perturbation(seed=5, samples=50).violations == 0

    def test_product_fidelity_bound(self):
        assert suite_product_fidelity_bound(seed=6, samples=50).violations == 0

    def test_nan_margin_is_a_violation(self):
        res = _collect("nan", [1.0, float("nan"), 0.5])
        assert res.violations == 1 and not res.passed
        assert _collect("ok", [0.0, 1.0]).violations == 0
