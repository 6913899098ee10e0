import numpy as np
import pytest

from cqmac.channels import (
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    channel_tensor,
    depolarizing_channel,
    identity_channel,
)
from cqmac.entropic import (
    CqqState,
    alicki_fannes_bound,
    binary_entropy,
    coherent_information,
    coherent_information_b_cx,
    cqq_tensor,
    effective_cqq_state,
    holevo_fano_rate_bound,
    holevo_information,
    mutual_information_x_c,
    quantum_mutual_information,
    von_neumann_entropy,
)
from cqmac.qmatrix import DensityMatrix, maximally_entangled, permute_mat, tensor
from cqmac.randutil import complex_gaussian, random_density, random_kraus_ops, random_pure
from cqmac.suites import (
    suite_alicki_fannes,
    suite_data_processing,
    suite_entropy_additivity,
    suite_holevo_identity,
)


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
        cond = omega.cond_states[0]
        assert von_neumann_entropy(cond) == pytest.approx(0.0, abs=1e-9)
        assert mutual_information_x_c(omega) == pytest.approx(0.0, abs=1e-10)

    def test_depolarizing_decouples(self, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(_depolarizing_qmac(), uniform_p, basis_v, bell_psi)
        assert mutual_information_x_c(omega) == pytest.approx(0.0, abs=1e-8)

    def test_identity_qmac_values(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        assert mutual_information_x_c(omega) == pytest.approx(1.0, abs=1e-9)
        assert coherent_information_b_cx(omega) == pytest.approx(1.0, abs=1e-9)

    def test_block_route_matches_dense_route(self, identity_qmac, basis_v, bell_psi, uniform_p):
        from cqmac.qmatrix import partial_trace

        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        dense = omega.to_density_matrix()
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
        for letter, cond in zip(v.vectors, omega.cond_states):
            full = tensor(np.outer(letter, letter.conj()), psi.density().mat)  # (A, ref, in)
            full = permute_mat(full, (da, d_ref, d_in), [1, 0, 2])
            dense, dense_dims = apply_channel_mat(t, full, (d_ref, da, d_in), [1, 2])
            assert cond.dims == dense_dims
            assert np.allclose(cond.mat, dense, rtol=0, atol=1e-12)

    def test_bad_distribution(self, identity_qmac, basis_v, bell_psi):
        with pytest.raises(ValueError):
            effective_cqq_state(identity_qmac, [0.5, 0.6], basis_v, bell_psi)

    def test_tensor_regroups(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        prod = cqq_tensor(omega, omega)
        assert prod.alphabet_size == 4
        assert mutual_information_x_c(prod) == pytest.approx(2.0, abs=1e-8)
        assert coherent_information_b_cx(prod) == pytest.approx(2.0, abs=1e-8)


def _depolarizing_qmac():
    from cqmac.channels import KrausChannel

    return KrausChannel(depolarizing_channel(4).kraus_ops, (2, 2), (4,))


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
        cap = holevo_fano_rate_bound(omega, 0.0)
        assert cap == pytest.approx(mutual_information_x_c(omega) + 1.0, abs=1e-9)

    def test_full_error_sentinel(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        assert holevo_fano_rate_bound(omega, 1.0) == float("inf")

    def test_caps_simulated_rate(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        cap = holevo_fano_rate_bound(omega, 0.01)
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
            CqqState(np.array([0.6, 0.6]), tuple(random_density(rng, (2, 2)) for _ in range(2)))

    def test_holevo_equals_mutual_information(self, rng):
        p = rng.dirichlet(np.ones(3))
        conds = tuple(random_density(rng, (2, 2)) for _ in range(3))
        omega = CqqState(p, conds)
        assert mutual_information_x_c(omega) == pytest.approx(
            holevo_information(omega), abs=1e-10
        )
