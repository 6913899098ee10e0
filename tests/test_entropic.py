import numpy as np
import pytest

from cqmac.channels import (
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    channel_tensor,
    identity_channel,
)
from cqmac.entropic import (
    CqqState,
    alicki_fannes_bound,
    binary_entropy,
    coherent_information,
    coherent_information_b_cx,
    cqq_rates,
    cqq_tensor,
    effective_cqq_state,
    holevo_fano_rate_bound,
    holevo_information,
    mutual_information_x_c,
    pure_output_factors,
    quantum_mutual_information,
    von_neumann_entropy,
)
from cqmac.qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    maximally_entangled,
    partial_trace,
    permute_mat,
    tensor,
)
from cqmac.randutil import (
    complex_gaussian,
    random_density,
    random_factor,
    random_kraus_ops,
    random_pure,
)
from cqmac.suites import (
    suite_alicki_fannes,
    suite_data_processing,
    suite_entropy_additivity,
    suite_holevo_identity,
)
from oracles import to_density_matrix


class TestVonNeumann:
    def test_pure(self, rng):
        from cqmac.randutil import random_pure

        assert von_neumann_entropy(random_pure(rng, (4,)).density()) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2, (2,))) == pytest.approx(1.0)

    def test_scalar_oracle(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]), (2,))
        expect = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.8112781245, abs=1e-9)

    def test_basis_invariant(self, rng):
        from cqmac.randutil import haar_unitary

        rho = random_density(rng, (3,))
        u = haar_unitary(rng, 3)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (3,))
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-8
        )


class TestCoherentInformation:
    def test_bell(self):
        bell = maximally_entangled(2).density()
        assert coherent_information(bell, [0], [1]) == pytest.approx(1.0, abs=1e-10)

    def test_product(self, rng):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        joint = DensityMatrix(tensor(a.mat, b.mat), (2, 3))
        assert coherent_information(joint, [0], [1]) == pytest.approx(
            -von_neumann_entropy(a), abs=1e-8
        )

    def test_erasure_is_zero(self, erasure_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(erasure_qmac, uniform_p, basis_v, bell_psi)
        assert coherent_information_b_cx(omega) == pytest.approx(0.0, abs=1e-7)

    def test_range_bound(self, rng):
        rho = random_density(rng, (2, 2))
        val = coherent_information(rho, [0], [1])
        assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


class TestMutualInformation:
    def test_product(self, rng):
        a = random_density(rng, (2,))
        b = random_density(rng, (2,))
        joint = DensityMatrix(tensor(a.mat, b.mat), (2, 2))
        assert quantum_mutual_information(joint, [0], [1]) == pytest.approx(0.0, abs=1e-8)

    def test_bell(self):
        bell = maximally_entangled(2).density()
        assert quantum_mutual_information(bell, [0], [1]) == pytest.approx(2.0, abs=1e-10)

    def test_classical_correlation(self):
        mat = np.zeros((4, 4))
        mat[0, 0] = 0.5
        mat[3, 3] = 0.5
        rho = DensityMatrix(mat, (2, 2))
        assert quantum_mutual_information(rho, [0], [1]) == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative(self, rng):
        rho = random_density(rng, (2, 3))
        assert quantum_mutual_information(rho, [0], [1]) >= -1e-8


class TestEffectiveCqqState:
    def test_single_letter_identity(self, bell_psi):
        t = channel_tensor(identity_channel(2), identity_channel(2))
        v = CqChannel.basis(2, 1)
        omega = effective_cqq_state(t, [1.0], v, bell_psi)
        assert omega.alphabet_size == 1
        # conditional state is pure: the untouched half plus the channel output
        assert von_neumann_entropy(omega.dense_blocks()[0]) == pytest.approx(0.0, abs=1e-9)
        assert mutual_information_x_c(omega) == pytest.approx(0.0, abs=1e-10)

    def test_depolarizing_decouples(self, depolarizing_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(depolarizing_qmac, uniform_p, basis_v, bell_psi)
        assert mutual_information_x_c(omega) == pytest.approx(0.0, abs=1e-8)

    def test_identity_qmac_values(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        assert mutual_information_x_c(omega) == pytest.approx(1.0, abs=1e-9)
        assert coherent_information_b_cx(omega) == pytest.approx(1.0, abs=1e-9)

    def test_block_route_matches_dense_route(self, identity_qmac, basis_v, bell_psi, uniform_p):
        from cqmac.qmatrix import partial_trace

        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        dense = to_density_matrix(omega)
        assert dense.dim == 16
        # X part is subsystem 0, B is 1, C is 2
        i_xc = quantum_mutual_information(partial_trace(dense, [0, 2]), [0], [1])
        assert mutual_information_x_c(omega) == pytest.approx(i_xc, abs=1e-9)
        ic = coherent_information(dense, [1], [0, 2])
        assert coherent_information_b_cx(omega) == pytest.approx(ic, abs=1e-9)

    @pytest.mark.parametrize(
        "dims", [(2, 2, 4, 2), (3, 2, 5, 3), (2, 3, 2, 1)], ids=["qubits", "qutrit-a", "1d-ref"]
    )
    def test_pure_route_matches_dense_oracle(self, rng, dims):
        """Random complex channel, letters and psi against V(x) (x) psi evolved densely."""
        da, d_in, dc, d_ref = dims
        t = KrausChannel(random_kraus_ops(rng, da * d_in, dc, 3), (da, d_in), (dc,))
        v = CqChannel.from_vectors([complex_gaussian(rng, da) for _ in range(3)])
        psi = random_pure(rng, (d_ref, d_in))
        p = rng.dirichlet(np.ones(3))
        omega = effective_cqq_state(t, p, v, psi)
        for letter, cond in zip(v.vectors, omega.dense_blocks()):
            full = tensor(np.outer(letter, letter.conj()), psi.density().mat)  # (A, ref, in)
            full = permute_mat(full, (da, d_ref, d_in), [1, 0, 2])
            dense, dense_dims = apply_channel_mat(t, full, (d_ref, da, d_in), [1, 2])
            assert (omega.b_dim, omega.c_dim) == dense_dims
            assert np.allclose(cond, dense, rtol=0, atol=1e-12)

    def test_bad_distribution(self, identity_qmac, basis_v, bell_psi):
        with pytest.raises(ValueError):
            effective_cqq_state(identity_qmac, [0.5, 0.6], basis_v, bell_psi)

    def test_tensor_regroups(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        prod = cqq_tensor(omega, omega)
        assert prod.alphabet_size == 4
        assert mutual_information_x_c(prod) == pytest.approx(2.0, abs=1e-8)
        assert coherent_information_b_cx(prod) == pytest.approx(2.0, abs=1e-8)


class TestAlickiFannes:
    def test_zero(self):
        assert alicki_fannes_bound(0.0, 2) == pytest.approx(0.0)

    def test_unit_epsilon(self):
        expect = 6.0 + 6.0 * binary_entropy(2.0 / 3.0)
        assert alicki_fannes_bound(1.0, 2) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(11.51, abs=0.01)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alicki_fannes_bound(1.5, 2)

    def test_sampled_bound(self):
        assert suite_alicki_fannes(seed=9, samples=60).violations == 0


class TestHolevoFano:
    def test_zero_error(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        info = mutual_information_x_c(omega)
        assert holevo_fano_rate_bound(info, 0.0) == pytest.approx(info + 1.0, abs=1e-9)

    def test_full_error_sentinel(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        assert holevo_fano_rate_bound(mutual_information_x_c(omega), 1.0) == float("inf")

    def test_caps_simulated_rate(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        cap = holevo_fano_rate_bound(mutual_information_x_c(omega), 0.01)
        assert cap >= np.log2(2)  # achieved log M1 of the exact identity code


class TestInvariantSuites:
    def test_entropy_additivity(self):
        assert suite_entropy_additivity(seed=4, samples=30).violations == 0

    def test_holevo_identity(self):
        assert suite_holevo_identity(seed=5, samples=30).violations == 0

    def test_data_processing(self):
        assert suite_data_processing(seed=6, samples=30).violations == 0


class TestCqqValidation:
    def test_probability_check(self, rng):
        with pytest.raises(ValueError):
            CqqState(np.array([0.6, 0.6]), tuple(random_factor(rng, (2, 2)) for _ in range(2)))

    def test_holevo_equals_mutual_information(self, rng):
        p = rng.dirichlet(np.ones(3))
        omega = CqqState(p, tuple(random_factor(rng, (2, 2)) for _ in range(3)))
        assert mutual_information_x_c(omega) == pytest.approx(
            holevo_information(omega), abs=1e-10
        )

    @pytest.mark.parametrize(
        "bad, error",
        [
            (lambda u: u.reshape(4, 4), DimensionMismatchError),
            (lambda u: u.reshape(4, 1, 4), DimensionMismatchError),
            (lambda u: 2.0 * u, ValueError),
            (lambda u: np.where(np.arange(16).reshape(2, 2, 4) == 3, np.nan, u), ValueError),
        ],
        ids=["rank-2", "other-layout", "trace-4", "nan"],
    )
    def test_rejects_bad_factor(self, rng, bad, error):
        good = random_factor(rng, (2, 2))
        with pytest.raises(error):
            CqqState(np.array([0.5, 0.5]), (good, bad(random_factor(rng, (2, 2)))))

    def test_validation_computes_no_spectrum(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum computed during validation")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        omega = CqqState(np.array([0.3, 0.7]), (random_factor(rng, (2, 3), 2),) * 2)
        assert omega.factors[0].shape == (2, 3, 2) and not omega.factors[0].flags.writeable

    def test_factor_draws_the_wishart_state_from_the_stream(self):
        for dims, rank in [((2, 2), None), ((3, 2), 2)]:
            u = random_factor(np.random.default_rng(4), dims, rank)
            g = complex_gaussian(np.random.default_rng(4), (6 if rank else 4, rank or 4))
            wishart = g @ g.conj().T
            cols = u.reshape(len(g), -1)
            assert np.allclose(cols @ cols.conj().T, wishart / np.trace(wishart).real,
                               rtol=0, atol=1e-15)
            rho = random_density(np.random.default_rng(4), dims, rank)
            assert np.array_equal(rho.mat, cols @ cols.conj().T)


def _per_letter_factor(kraus_stack, letter, psi_grid):
    """Factor u[ref, out, k] of the output on V(x) (x) psi, one letter at a time."""
    w = np.einsum("rb,a->rab", psi_grid, letter).reshape(len(psi_grid), -1)
    return np.einsum("rj,koj->rok", w, kraus_stack)


class TestFactorOracle:
    """Factor entropies against the dense block-diagonal state."""

    @pytest.mark.parametrize("dims, ranks", [((2, 2), (1, 4, 2)), ((3, 2), (6, 2, 3)),
                                             ((1, 4), (1, 2, 4))])
    def test_rates_match_dense_blocks(self, rng, dims, ranks):
        from cqmac.qmatrix import partial_trace

        for p in (rng.dirichlet(np.ones(3)), np.array([0.4, 0.0, 0.6])):
            omega = CqqState(p, tuple(random_factor(rng, dims, r) for r in ranks))
            dense = to_density_matrix(omega)  # (X, B, C)
            i_xc = quantum_mutual_information(partial_trace(dense, [0, 2]), [0], [1])
            ic = coherent_information(dense, [1], [0, 2])
            assert mutual_information_x_c(omega) == pytest.approx(i_xc, abs=1e-12)
            assert holevo_information(omega) == pytest.approx(i_xc, abs=1e-12)
            assert coherent_information_b_cx(omega) == pytest.approx(ic, abs=1e-12)

    @pytest.mark.parametrize("dims, rank", [((2, 6), 2), ((3, 2), 4), ((1, 2), 5)],
                             ids=["bk-below-c", "bk-above-c", "rank-above-bc"])
    def test_kernel_takes_the_smaller_gram(self, rng, dims, rank, monkeypatch):
        """Stacked and per-label factors against the dense state, with one
        spectrum call per Gram stack, each on the smaller side of its pair."""
        b, c = dims
        p = np.array([0.5, 0.0, 0.2, 0.3])
        stack = np.stack([random_factor(rng, dims, rank) for _ in p])
        omega = CqqState(p, tuple(stack))
        dense = to_density_matrix(omega)  # (X, B, C)
        i_xc = holevo_information(omega)
        ic = von_neumann_entropy(partial_trace(dense, [0, 2])) - von_neumann_entropy(dense)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            shapes.append(a.shape[-1])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        for factors in (stack, omega.factors):
            r1, r2 = cqq_rates(p, factors)
            assert r1 == pytest.approx(i_xc, abs=1e-12)
            assert r2 == pytest.approx(ic, abs=1e-12)
        side_c, side_bc = min(c, b * rank), min(b * c, rank)
        assert shapes == 2 * [side_c, side_bc, min(c, 3 * b * rank)]

    @pytest.mark.parametrize("da, d_in, b, dc", [(2, 2, 2, 4), (2, 2, 1, 6), (2, 1, 1, 2)],
                             ids=["c-side", "bk-side", "bc-side"])
    def test_member_stack_matches_dense_oracle(self, rng, da, d_in, b, dc, monkeypatch):
        """Member-stacked rates against each member's dense state, for Kraus
        counts 1, 3 and 4 zero-padded to 4 and a p with a zero entry."""
        from cqmac.qmatrix import partial_trace
        from cqmac.qmatrix import zero_padded

        members = [KrausChannel(random_kraus_ops(rng, da * d_in, dc, count), (da, d_in), (dc,))
                   for count in (1, 3, 4)]
        v = CqChannel.from_vectors([complex_gaussian(rng, da) for _ in range(3)])
        psi = random_pure(rng, (b, d_in))
        p = np.array([0.3, 0.0, 0.7])
        stack = zero_padded([t.stacked for t in members], 0)
        assert stack.shape == (3, 4, dc, da * d_in)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        r1, r2 = cqq_rates(p, pure_output_factors(stack, v.vectors, psi.vec.reshape(b, d_in)))
        monkeypatch.undo()
        c_side, bc_side = min(dc, b * 4), min(b * dc, 4)
        assert shapes == [(3, 2, c_side, c_side), (3, 2, bc_side, bc_side),
                          (3, min(dc, 2 * b * 4), min(dc, 2 * b * 4))]
        assert r1.shape == r2.shape == (3,)
        for i, t in enumerate(members):
            omega = effective_cqq_state(t, p, v, psi)
            dense = to_density_matrix(omega)  # (X, B, C)
            ic = von_neumann_entropy(partial_trace(dense, [0, 2])) - von_neumann_entropy(dense)
            assert r1[i] == pytest.approx(holevo_information(omega), abs=1e-12)
            assert r2[i] == pytest.approx(ic, abs=1e-12)

    def test_zero_probability_labels_never_enter_a_spectrum(self, rng):
        """A p = 0 label's factor may hold anything, NaN included, in every member."""
        stack = np.stack([np.stack([random_factor(rng, (2, 3), 2) for _ in range(3)])
                          for _ in range(2)])
        p = np.array([0.4, 0.0, 0.6])
        clean = cqq_rates(p, stack)
        stack[:, 1] = np.nan
        poisoned = cqq_rates(p, stack)
        for a, b in zip(clean, poisoned):
            assert np.array_equal(a, b)
        for i in range(2):
            single = cqq_rates(p[[0, 2]], stack[i, [0, 2]])
            assert all(isinstance(r, np.floating) for r in single)  # scalars without a member axis
            assert single == (clean[0][i], clean[1][i])

    def test_factors_match_per_letter_route(self, rng):
        """One product for all letters against the per-letter contraction."""
        t = KrausChannel(random_kraus_ops(rng, 6, 5, 3), (3, 2), (5,))
        letters = CqChannel.from_vectors([complex_gaussian(rng, 3) for _ in range(4)]).vectors
        psi_grid = random_pure(rng, (3, 2)).vec.reshape(3, 2)
        u = pure_output_factors(t.stacked, letters, psi_grid)
        assert u.shape == (4, 3, 5, 3)
        for x, letter in enumerate(letters):
            assert np.allclose(u[x], _per_letter_factor(t.stacked, letter, psi_grid),
                               rtol=0, atol=1e-12)

    def test_tensor_matches_dense_product(self, rng):
        a = CqqState(rng.dirichlet(np.ones(2)), tuple(random_factor(rng, (2, 3), 2) for _ in range(2)))
        b = CqqState(rng.dirichlet(np.ones(3)), tuple(random_factor(rng, (2, 2), r) for r in (1, 3, 4)))
        prod = cqq_tensor(a, b)
        assert (prod.b_dim, prod.c_dim) == (4, 6)
        blocks = iter(prod.dense_blocks())
        for sa in a.dense_blocks():
            for sb in b.dense_blocks():
                dense = permute_mat(tensor(sa, sb), (2, 3, 2, 2), [0, 2, 1, 3])
                assert np.allclose(next(blocks), dense, rtol=0, atol=1e-15)
        assert np.allclose(prod.probs, np.outer(a.probs, b.probs).reshape(-1), rtol=0, atol=0)
