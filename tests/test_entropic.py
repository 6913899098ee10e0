import numpy as np
import pytest

from cqmac.channels import (
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    blocked_tensor_power,
    channel_tensor,
    identity_channel,
)
from cqmac.entropic import (
    CqqState,
    RateKernel,
    alicki_fannes_bound,
    binary_entropy,
    checked_probs,
    coherent_information_b_cx,
    effective_cqq_state,
    grouped_rates,
    holevo_fano_rate_bound,
    mutual_information_x_c,
    pure_output_factors,
    von_neumann_entropy,
)
from cqmac.qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    maximally_entangled,
    permute_mat,
    tensor,
)
from cqmac.suites import (
    suite_alicki_fannes,
    suite_data_processing,
    suite_entropy_additivity,
    suite_holevo_identity,
)
from cqmac.regions import compound_rect_powered, kraus_groups, per_use_minima
from oracles import (
    b_dim,
    c_dim,
    coherent_information,
    complex_gaussian,
    cqq_tensor,
    dense_blocks,
    density,
    eigvalsh_buckets,
    haar_isometry,
    holevo_information,
    member_gram_sizes,
    partial_trace,
    quantum_mutual_information,
    random_density,
    random_factor,
    random_kraus_ops,
    random_pure,
    to_density_matrix,
)


class TestVonNeumann:
    def test_pure(self, rng):
        assert von_neumann_entropy(density(random_pure(rng, (4,)))) == pytest.approx(
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
        rho = random_density(rng, (3,))
        u = haar_isometry(rng, 3, 3)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (3,))
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-8
        )


class TestCoherentInformation:
    def test_bell(self):
        bell = density(maximally_entangled(2))
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
        bell = density(maximally_entangled(2))
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
        assert omega.probs.size == 1
        # conditional state is pure: the untouched half plus the channel output
        assert von_neumann_entropy(dense_blocks(omega)[0]) == pytest.approx(0.0, abs=1e-9)
        assert mutual_information_x_c(omega) == pytest.approx(0.0, abs=1e-10)

    def test_depolarizing_decouples(self, depolarizing_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(depolarizing_qmac, uniform_p, basis_v, bell_psi)
        assert mutual_information_x_c(omega) == pytest.approx(0.0, abs=1e-8)

    def test_identity_qmac_values(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        assert mutual_information_x_c(omega) == pytest.approx(1.0, abs=1e-9)
        assert coherent_information_b_cx(omega) == pytest.approx(1.0, abs=1e-9)

    def test_block_route_matches_dense_route(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        dense = to_density_matrix(omega)
        assert dense.mat.shape[0] == 16
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
        for letter, cond in zip(v.vectors, dense_blocks(omega)):
            full = tensor(np.outer(letter, letter.conj()), density(psi).mat)  # (A, ref, in)
            full = permute_mat(full, (da, d_ref, d_in), [1, 0, 2])
            dense, dense_dims = apply_channel_mat(t, full, (d_ref, da, d_in), [1, 2])
            assert (b_dim(omega), c_dim(omega)) == dense_dims
            assert np.allclose(cond, dense, rtol=0, atol=1e-12)

    def test_bad_distribution(self, identity_qmac, basis_v, bell_psi):
        with pytest.raises(ValueError):
            effective_cqq_state(identity_qmac, [0.5, 0.6], basis_v, bell_psi)

    def test_tensor_regroups(self, identity_qmac, basis_v, bell_psi, uniform_p):
        omega = effective_cqq_state(identity_qmac, uniform_p, basis_v, bell_psi)
        prod = cqq_tensor(omega, omega)
        assert prod.probs.size == 4
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

    @pytest.mark.parametrize("eps", [-1e-9, float("nan"), [0.2, 1.5], [0.1, float("nan")]])
    def test_refuses_any_epsilon_outside_the_unit_interval(self, eps):
        with pytest.raises(ValueError):
            alicki_fannes_bound(eps, 2)

    def test_array_matches_scalar_formula(self, rng):
        # the scalar formula, element by element: h(2e / (1 + 2e)) with h(0) = 0
        eps = np.concatenate([[0.0, 1.0, 1e-300], rng.uniform(0.0, 1.0, 50)])
        for dim in (2, 3):
            got = alicki_fannes_bound(eps, dim)
            assert isinstance(got, np.ndarray) and got.shape == eps.shape
            for e, g in zip(eps, got):
                x = 2.0 * e / (1.0 + 2.0 * e)
                h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x) if e > 0 else 0.0
                assert g == pytest.approx(6.0 * e * np.log2(dim) + (2.0 + 4.0 * e) * h, rel=1e-14)
                assert g == alicki_fannes_bound(float(e), dim)
        assert isinstance(alicki_fannes_bound(0.25, 2), float)

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
        spectrum call per distinct Gram size, each Gram on the smaller side of
        its pair."""
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
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        for factors in (stack, omega.factors):
            (r1,), (r2,) = grouped_rates(p, [factors])
            assert r1 == pytest.approx(i_xc, abs=1e-12)
            assert r2 == pytest.approx(ic, abs=1e-12)
        side_c, side_bc, side_avg = member_gram_sizes(b, c, rank, 4)
        assert shapes == 2 * eigvalsh_buckets([(side_c, 4), (side_bc, 4), (side_avg, 1)])

    @staticmethod
    def _grouped_rates_recorded(members, p, v, psi, monkeypatch):
        """grouped_rates of the members grouped by Kraus count, and its eigvalsh shapes."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        groups = kraus_groups(members)
        factors = [pure_output_factors(g, v.vectors, psi.vec.reshape(psi.dims)) for g in groups]
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        r1, r2 = grouped_rates(p, factors)
        monkeypatch.undo()
        return groups, r1, r2, shapes

    @staticmethod
    def _assert_dense_rates(t, p, v, psi, r1, r2):
        omega = effective_cqq_state(t, p, v, psi)
        dense = to_density_matrix(omega)  # (X, B, C)
        ic = von_neumann_entropy(partial_trace(dense, [0, 2])) - von_neumann_entropy(dense)
        assert r1 == pytest.approx(holevo_information(omega), abs=1e-12)
        assert r2 == pytest.approx(ic, abs=1e-12)

    @pytest.mark.parametrize("da, d_in, b, dc", [(2, 2, 2, 4), (2, 2, 1, 6), (2, 1, 1, 2)],
                             ids=["c-side", "bk-side", "bc-side"])
    def test_member_stack_matches_dense_oracle(self, rng, da, d_in, b, dc, monkeypatch):
        """Members of Kraus counts 1, 3 and 4 rated in one call, each at its own
        count, against each member's dense state, with a p that has a zero entry."""
        members = [KrausChannel(random_kraus_ops(rng, da * d_in, dc, count), (da, d_in), (dc,))
                   for count in (1, 3, 4)]
        v = CqChannel.from_vectors([complex_gaussian(rng, da) for _ in range(3)])
        psi = random_pure(rng, (b, d_in))
        p = np.array([0.3, 0.0, 0.7])
        groups, r1, r2, shapes = self._grouped_rates_recorded(members, p, v, psi, monkeypatch)
        assert [g.shape for g in groups] == [(1, k, dc, da * d_in) for k in (1, 3, 4)]
        sizes = [member_gram_sizes(b, dc, k, 3) for k in (1, 3, 4)]
        assert shapes == eigvalsh_buckets([(s[kind], 1 if kind == 2 else 3)
                                           for kind in range(3) for s in sizes])
        assert r1.shape == r2.shape == (3,)
        for i, t in enumerate(members):
            self._assert_dense_rates(t, p, v, psi, r1[i], r2[i])

    def test_grouped_members_match_dense_oracle(self, rng, monkeypatch):
        """Kraus counts 1, 3, 4 and 3 in three groups, the count-1 group on the
        (B k) side and the others on the C side, and a p with a zero entry: the
        rates come group after group, each against its member's dense state,
        and no Gram is larger than its member's own smaller side."""
        da, d_in, b, dc = 2, 2, 2, 4
        counts = (1, 3, 4, 3)
        members = [KrausChannel(random_kraus_ops(rng, da * d_in, dc, k), (da, d_in), (dc,))
                   for k in counts]
        v = CqChannel.from_vectors([complex_gaussian(rng, da) for _ in range(4)])
        psi = random_pure(rng, (b, d_in))
        p = np.array([0.25, 0.4, 0.0, 0.35])
        groups, r1, r2, shapes = self._grouped_rates_recorded(members, p, v, psi, monkeypatch)
        order = [0, 1, 3, 2]  # count 1, both count 3, count 4
        assert [g.shape[:2] for g in groups] == [(1, 1), (2, 3), (1, 4)]
        assert b * 1 < dc <= b * 3  # one group on each side of C
        sizes = [member_gram_sizes(b, dc, counts[i], 4) for i in order]
        assert shapes == eigvalsh_buckets([(s[kind], 1 if kind == 2 else 4)
                                           for kind in range(3) for s in sizes])
        for i, row in enumerate(order):
            self._assert_dense_rates(members[row], p, v, psi, r1[i], r2[i])
        rect = compound_rect_powered(members, 1, p, v, psi)
        assert (rect.r1_max, rect.r2_max) == (max(0.0, r1.min()), max(0.0, r2.min()))

    def test_per_instance_p_matches_dense_oracle(self, rng):
        """Three instances, each with its own members (Kraus counts 1, 3 and 3:
        one group on each side of C), letters, psi and p, two p with a zero
        entry, rated in one call: each member against its dense state."""
        da, d_in, b, dc = 2, 2, 2, 4
        counts = (1, 3, 3)
        members = [[KrausChannel(random_kraus_ops(rng, da * d_in, dc, k), (da, d_in), (dc,))
                    for k in counts] for _ in range(3)]
        vs = [CqChannel.from_vectors([complex_gaussian(rng, da) for _ in range(3)])
              for _ in range(3)]
        psis = [random_pure(rng, (b, d_in)) for _ in range(3)]
        p = np.array([[0.3, 0.0, 0.7], [0.2, 0.5, 0.3], [0.0, 0.6, 0.4]])
        groups = [np.stack(g) for g in zip(*(kraus_groups(ms) for ms in members))]
        assert [g.shape[:3] for g in groups] == [(3, 1, 1), (3, 2, 3)]
        letters = np.stack([v.vectors for v in vs])
        grids = np.stack([psi.vec.reshape(psi.dims) for psi in psis])
        r1, r2 = grouped_rates(p, [pure_output_factors(g, letters, grids) for g in groups])
        assert r1.shape == r2.shape == (3, 3)
        for i in range(3):
            for j, t in enumerate(members[i]):  # group order is member order here
                self._assert_dense_rates(t, p[i], vs[i], psis[i], r1[i, j], r2[i, j])

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
        assert (b_dim(prod), c_dim(prod)) == (4, 6)
        blocks = iter(dense_blocks(prod))
        for sa in dense_blocks(a):
            for sb in dense_blocks(b):
                dense = permute_mat(tensor(sa, sb), (2, 3, 2, 2), [0, 2, 1, 3])
                assert np.allclose(next(blocks), dense, rtol=0, atol=1e-15)
        assert np.allclose(prod.probs, np.outer(a.probs, b.probs).reshape(-1), rtol=0, atol=0)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


class TestRateKernel:
    """A kernel built once and run on many inputs gives, bit for bit, what a
    one-shot ``grouped_rates`` of the same factors gives."""

    @staticmethod
    def _assert_runs_match(rng, groups, x, a, ref, lead=(), rounds=8):
        d_in = groups[0].shape[-1]
        kernel = RateKernel.inputs(groups, (*lead, x, a), (*lead, ref, d_in // a))
        for _ in range(rounds):
            letters = _unit_rows(complex_gaussian(rng, (*lead, x, a)))
            psi = complex_gaussian(rng, (*lead, ref, d_in // a))
            psi /= np.linalg.norm(psi, axis=(-2, -1), keepdims=True)
            p = rng.dirichlet(np.ones(x), size=lead or None)
            got = kernel(p, letters, psi)
            want = grouped_rates(p, [pure_output_factors(g, letters, psi) for g in groups])
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)
        return kernel

    @pytest.mark.parametrize("l", [1, 2])
    def test_pair_set(self, rng, id_deph_set, l):
        """Both Gram-side branches: the identity's average C state from its
        sqrt(p) factors, the dephasing member's from its label Grams."""
        powered = [blocked_tensor_power(m, l) for m in id_deph_set.members]
        d = 2**l
        kernel = self._assert_runs_match(rng, kraus_groups(powered), d, d, d)
        assert {c <= k * b for _, _, k, b, c in kernel.shapes} == {True, False}

    def test_random_set_of_three_kraus_counts(self, rng):
        members = [KrausChannel(random_kraus_ops(rng, 4, 4, count), (2, 2), (4,))
                   for count in (1, 3, 4)]
        groups = kraus_groups(members)
        assert [g.shape[1] for g in groups] == [1, 3, 4]
        self._assert_runs_match(rng, groups, 3, 2, 2)

    def test_per_instance_p(self, rng):
        kraus = np.stack([np.stack([random_kraus_ops(rng, 4, 4, 3) for _ in range(2)])
                          for _ in range(3)])  # (N, M, K, out, in)
        self._assert_runs_match(rng, [kraus], 3, 2, 2, lead=(3,))

    def test_zero_probability_label(self, rng, id_deph_set):
        """A logit of -800 underflows to p_x = 0 exactly; the label is rated and
        weighed out, as the one-shot route and ``compound_rect_powered`` weigh it."""
        from cqmac.optimizer import _materialize_flat, _param_count

        powered = [blocked_tensor_power(m, 2) for m in id_deph_set.members]
        groups = kraus_groups(powered)
        kernel = RateKernel.inputs(groups, (4, 4), (4, 4))
        theta = rng.standard_normal(_param_count(4, 4, 4))
        theta[1] = -800.0
        p, vv, pv = _materialize_flat(theta, 4, 4, 4)
        assert p[1] == 0.0 and np.all(np.delete(p, 1) > 0)
        psi_grid = pv.reshape(4, 4)
        got = kernel(p, vv, psi_grid)
        want = grouped_rates(p, [pure_output_factors(g, vv, psi_grid) for g in groups])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # compound_rect_powered rates what its checks keep: p as checked_probs
        # renormalizes it and the letters as CqChannel normalizes them
        v, psi = CqChannel.from_vectors(vv), PureState(pv, (4, 4))
        rect = compound_rect_powered(powered, 2, p, v, psi)
        r1, r2 = per_use_minima(kernel, 2, checked_probs(p, 4), v.vectors, psi.vec.reshape(4, 4))
        assert (rect.r1_max, rect.r2_max) == (max(0.0, r1), max(0.0, r2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_label_is_weighed_out_by_the_kernel_itself(self, rng, id_deph_set, monkeypatch):
        """One kernel of X = 4 labels rates a p with an exact zero, on the pair
        set at l = 2 (the identity's average C state from its sqrt(p) factors,
        the dephasing member's from its label Grams), through a call and a vjp
        that build no kernel: the rates match a kernel of the 3 nonzero labels
        and the dense states, and the theta gradient matches central differences."""
        from cqmac.optimizer import _flat_gradient, _materialize_flat, _param_count

        powered = [blocked_tensor_power(m, 2) for m in id_deph_set.members]
        groups = kraus_groups(powered)
        kernel = RateKernel.inputs(groups, (4, 4), (4, 4))
        assert {c <= k * b for _, _, k, b, c in kernel.shapes} == {True, False}
        fewer = RateKernel.inputs(groups, (3, 4), (4, 4))
        theta = rng.standard_normal(_param_count(4, 4, 4))
        theta[2] = -800.0
        p, vv, pv = _materialize_flat(theta, 4, 4, 4)
        psi_grid = pv.reshape(4, 4)
        assert p[2] == 0.0 and np.all(np.delete(p, 2) > 0)
        g1, g2 = rng.standard_normal(2), rng.standard_normal(2)

        built = []
        init = RateKernel.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(RateKernel, "__init__", counted)
        got = kernel(p, vv, psi_grid)
        rates, backward = kernel.vjp(p, vv, psi_grid)
        dp, dletters, dpsi = backward(g1, g2)
        assert built == []
        monkeypatch.undo()

        for g, r in zip(got, rates):
            assert np.array_equal(g, r)
        keep = p > 0
        for g, w in zip(got, fewer(p[keep], vv[keep], psi_grid)):
            assert np.allclose(g, w, rtol=0, atol=1e-12)
        v, psi = CqChannel.from_vectors(vv), PureState(pv, (4, 4))
        for i, t in enumerate(powered):
            TestFactorOracle._assert_dense_rates(t, p, v, psi, got[0][i], got[1][i])
        assert dp[2] == 0.0 and np.all(dletters[2] == 0.0)

        def value(th):
            r1, r2 = kernel(*_materialize_flat(th, 4, 4, 4))
            return g1 @ r1 + g2 @ r2

        grad = _flat_gradient(theta, 4, 4, 4, dp, dletters, dpsi)
        steps = 1e-6 * np.eye(theta.size)
        fd = np.array([(value(theta + e) - value(theta - e)) / 2e-6 for e in steps])
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_runs_return_new_arrays(self, rng, id_deph_set):
        """A second run overwrites the kernel's buffers, not what the first returned."""
        groups = kraus_groups(id_deph_set.members)
        kernel = RateKernel.inputs(groups, (2, 2), (2, 2))
        runs = []
        for _ in range(2):
            letters = _unit_rows(complex_gaussian(rng, (2, 2)))
            psi = _unit_rows(complex_gaussian(rng, (1, 4))).reshape(2, 2)
            got = kernel(rng.dirichlet(np.ones(2)), letters, psi)
            runs.append((got, [r.copy() for r in got]))
        assert not np.array_equal(runs[0][1][0], runs[1][1][0])
        for got, kept in runs:
            for g, k in zip(got, kept):
                assert np.array_equal(g, k)
