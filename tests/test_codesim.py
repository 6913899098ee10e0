import itertools

import numpy as np
import pytest

from cqmac import codesim
from cqmac.channels import (
    CompoundSet,
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    dephasing_channel,
    identity_channel,
)
from cqmac.qmatrix import (
    DimensionMismatchError,
    entanglement_fidelity,
    maximally_entangled,
    maximally_mixed,
    tensor_all,
)
from cqmac.randutil import complex_gaussian, random_kraus_ops
from cqmac.suites import suite_code_identities


@pytest.fixture
def identity_b_channel(identity_qmac, basis_v, uniform_p):
    return codesim.effective_b_channel(identity_qmac, uniform_p, basis_v)


def _orthogonal_codebook(identity_qmac, basis_v, n=1):
    words = [(0,) * n, (1,) * n]
    outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
    return codesim.pgm_codebook([outs], words), outs


def _identity_hybrid(identity_qmac, basis_v, uniform_p, seed=5):
    cb, _ = _orthogonal_codebook(identity_qmac, basis_v)
    tb = codesim.effective_b_channel(identity_qmac, uniform_p, basis_v)
    et = codesim.sample_et_code([tb], 2, 1, 2, seed=seed)
    return codesim.combine_hybrid(cb, et, v=basis_v, qmac=identity_qmac), cb, et


class TestCqCodebook:
    def test_orthogonal_distinct_words_zero_error(self, identity_qmac, basis_v):
        cb, outs = _orthogonal_codebook(identity_qmac, basis_v)
        assert codesim.average_error(cb, outs) == pytest.approx(0.0, abs=1e-10)

    def test_single_message_zero_error(self, identity_qmac, basis_v):
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        cb = codesim.pgm_codebook([outs], [(0,)])
        assert codesim.average_error(cb, outs) == pytest.approx(0.0, abs=1e-10)

    def test_povm_completeness(self, rng):
        vectors = [np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])]
        w = CqChannel.from_vectors(vectors)
        cb = codesim.sample_cq_codebook([w], [0.5, 0.5], 4, 2, seed=11)
        total = sum(cb.povm)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-8

    def test_phase_state_mean_error_matches_oracle(self):
        vectors = [np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])]
        w = CqChannel.from_vectors(vectors)
        impl_means = []
        oracle_means = []
        for seed in range(200):
            cb = codesim.sample_cq_codebook([w], [0.5, 0.5], 4, 2, seed=seed)
            impl = codesim.average_error(cb, w)
            # independent term-by-term evaluation
            total = 0.0
            for word, d in zip(cb.codewords, cb.povm):
                letters = [np.outer(v, v.conj()) for v in w.vectors]
                state = letters[word[0]]
                for x in word[1:]:
                    state = np.kron(state, letters[x])
                total += 1.0 - np.real(np.trace(d @ state))
            oracle = total / cb.size
            assert impl == pytest.approx(oracle, abs=1e-10)
            impl_means.append(impl)
            oracle_means.append(oracle)
        assert np.mean(impl_means) == pytest.approx(np.mean(oracle_means), abs=0.02)

    def test_random_guess_error(self, identity_qmac, basis_v):
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        m = 2
        cb = codesim.CqCodebook(((0,), (1,)), tuple(np.eye(4) / m for _ in range(m)))
        assert codesim.average_error(cb, outs) == pytest.approx(1 - 1 / m, abs=1e-10)

    def test_seed_reproducible(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        w = CqChannel.from_vectors(vectors)
        a = codesim.sample_cq_codebook([w], [0.3, 0.7], 3, 2, seed=21)
        b = codesim.sample_cq_codebook([w], [0.3, 0.7], 3, 2, seed=21)
        assert a.codewords == b.codewords
        for da, db in zip(a.povm, b.povm):
            assert np.array_equal(da, db)


class TestEtCodeSampling:
    def test_identity_channel_perfect(self):
        for seed in (0, 3, 17):
            et = codesim.sample_et_code([identity_channel(2)], 2, 2, 2, seed=seed)
            fe = codesim.et_entanglement_fidelity(et, identity_channel(2))
            assert fe == pytest.approx(1.0, abs=1e-10)

    def test_m2_one_trivial(self, identity_b_channel):
        et = codesim.sample_et_code([identity_b_channel], 2, 1, 1, seed=4)
        fe = codesim.et_entanglement_fidelity(et, identity_b_channel)
        assert fe == pytest.approx(1.0, abs=1e-9)

    def test_oracle_agreement(self):
        """Sampled-code fidelity equals the composed-channel entanglement
        fidelity computed by the generic purification route."""
        deph = dephasing_channel(0.1)
        for seed in range(6):
            et = codesim.sample_et_code([deph], 2, 2, 2, seed=seed)
            fe = codesim.et_entanglement_fidelity(et, deph)
            from cqmac.channels import compose, tensor_power

            full = compose(et.decoder, compose(tensor_power(deph, 2), et.encoder))
            oracle = entanglement_fidelity(maximally_mixed(2), full)
            assert fe == pytest.approx(oracle, abs=1e-9)

    def test_dephasing_mean_fidelity_vs_oracle(self):
        from cqmac.channels import compose, tensor_power

        deph = dephasing_channel(0.1)
        powered = tensor_power(deph, 3)
        impl = []
        oracle = []
        for seed in range(100):
            et = codesim.sample_et_code([deph], 2, 3, 2, seed=seed)
            impl.append(codesim.et_entanglement_fidelity(et, deph))
            full = compose(et.decoder, compose(powered, et.encoder))
            oracle.append(entanglement_fidelity(maximally_mixed(2), full))
        assert np.mean(impl) >= np.mean(oracle) - 0.02
        assert np.max(np.abs(np.array(impl) - np.array(oracle))) < 1e-9
        assert max(impl) > 0.9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factored_fidelity_matches_dense_evolution(self, rng, n):
        """Random complex channels against the encoded Phi evolved one use at a time."""
        chans = [KrausChannel(random_kraus_ops(rng, 2, 3, 2), (2,), (3,)) for _ in range(2)]
        et = codesim.sample_et_code(chans, 2, n, 2, seed=int(rng.integers(1 << 30)))
        for ch in chans + [KrausChannel(random_kraus_ops(rng, 2, 3, 3), (2,), (3,))]:
            state = codesim._encoded_phi(et.encoder, et.m2)
            dims = (et.m2,) + et.encoder.out_dims
            for _ in range(n):
                state, dims = apply_channel_mat(ch, state, dims, [1])
            oracle = codesim._branch_overlap(state, et.decoder.stacked, et.m2)
            assert codesim.et_entanglement_fidelity(et, ch) == pytest.approx(oracle, abs=1e-12)

    def test_fidelity_rejects_mismatched_channel(self):
        et = codesim.sample_et_code([dephasing_channel(0.1)], 2, 2, 2, seed=1)
        with pytest.raises(DimensionMismatchError):
            codesim.et_entanglement_fidelity(et, identity_channel(3))

    def test_m2_too_large(self, identity_b_channel):
        with pytest.raises(ValueError):
            codesim.sample_et_code([identity_b_channel], 2, 1, 3, seed=0)

    def test_expected_encoding_diagnostic_shrinks(self):
        small = codesim.expected_encoding_deviation(2, 1, 2, seed=3, family_size=8)
        large = codesim.expected_encoding_deviation(2, 1, 2, seed=3, family_size=256)
        assert large < small

    def test_seed_reproducible(self, identity_b_channel):
        a = codesim.sample_et_code([identity_b_channel], 2, 2, 2, seed=8)
        b = codesim.sample_et_code([identity_b_channel], 2, 2, 2, seed=8)
        assert np.array_equal(a.isometry, b.isometry)
        for ka, kb in zip(a.decoder.kraus_ops, b.decoder.kraus_ops):
            assert np.array_equal(ka, kb)


class TestCombineHybrid:
    def test_identity_exact(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        assert abs(codesim.performance(code, identity_qmac) - 1.0) < 1e-12

    def test_single_message_equals_fidelity_term(
        self, identity_qmac, basis_v, uniform_p
    ):
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        cb = codesim.pgm_codebook([outs], [(0,)])
        tb = codesim.effective_b_channel(identity_qmac, uniform_p, basis_v)
        et = codesim.sample_et_code([tb], 2, 1, 2, seed=9)
        rep = codesim.hybrid_chain_report(cb, et, basis_v, identity_qmac, uniform_p)
        row = rep["per_message"][0]
        # identity POVM leaves the state untouched: decoded fidelity equals
        # the ideal-tag fidelity and the performance itself
        assert row["one_word_error"] == pytest.approx(0.0, abs=1e-10)
        assert row["performance"] == pytest.approx(row["fidelity_decoded"], abs=1e-10)
        assert row["fidelity_decoded"] == pytest.approx(row["fidelity_ideal_tag"], abs=1e-10)

    @pytest.mark.parametrize("n, dc, x_size", [(1, 4, 2), (2, 3, 2), (3, 2, 3)])
    def test_tag_columns_equal_dense_embedding(self, rng, n, dc, x_size):
        dec = complex_gaussian(rng, (5, 2, (dc * x_size) ** n))
        for word in itertools.product(range(x_size), repeat=n):
            blocks = []
            for x in word:  # C -> C (x) X writing x into the tag register
                tag = np.zeros((x_size, 1), dtype=complex)
                tag[x, 0] = 1.0
                blocks.append(np.kron(np.eye(dc), tag))
            dense = codesim._stack_matmul(dec, tensor_all(blocks))
            assert np.array_equal(dec[:, :, codesim._tag_columns(word, dc, x_size)], dense)

    def test_completeness(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        assert codesim._completeness_defect(code.branches) < 1e-7

    def test_chain_holds_on_dephasing_instances(
        self, identity_qmac, mild_dephasing_qmac, basis_v, uniform_p
    ):
        cset = CompoundSet((identity_qmac, mild_dephasing_qmac), ("id", "deph"))
        a_fams = [
            codesim.effective_a_outputs(m, basis_v, maximally_mixed(2))
            for m in cset.members
        ]
        b_chans = [
            codesim.effective_b_channel(m, uniform_p, basis_v) for m in cset.members
        ]
        for idx in range(3):
            cb = codesim.sample_cq_codebook(a_fams, uniform_p, 3, 2, seed=100 + idx)
            et = codesim.sample_et_code(b_chans, 2, 3, 2, seed=200 + idx)
            for member in cset.members:
                rep = codesim.hybrid_chain_report(cb, et, basis_v, member, uniform_p)
                assert rep["violations"] == 0


class TestFidelityTrend:
    def test_best_seed_column_monotone_in_blocklength(
        self, identity_qmac, mild_dephasing_qmac, basis_v, uniform_p
    ):
        cset = CompoundSet((identity_qmac, mild_dephasing_qmac), ("id", "deph"))
        a_fams = [
            codesim.effective_a_outputs(m, basis_v, maximally_mixed(2))
            for m in cset.members
        ]
        b_chans = [
            codesim.effective_b_channel(m, uniform_p, basis_v) for m in cset.members
        ]
        best = []
        for n in (1, 2, 3):
            worst = []
            for idx in range(20):
                ss = np.random.SeedSequence([909, n, idx])
                s1, s2 = (int(s) for s in ss.generate_state(2))
                cb = codesim.sample_cq_codebook(a_fams, uniform_p, n, 2, seed=s1)
                et = codesim.sample_et_code(b_chans, 2, n, 2, seed=s2)
                code = codesim.combine_hybrid(cb, et, basis_v, cset.members[0])
                worst.append(min(codesim.performance(code, m) for m in cset.members))
            best.append(max(worst))
        assert all(best[i] <= best[i + 1] + 1e-12 for i in range(len(best) - 1))


class TestPerformance:
    def test_trace_and_reprepare_bounded(self, identity_qmac, basis_v, uniform_p):
        code, cb, et = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        m2 = code.m2
        # replace every branch by measure-and-forget: output a fixed state
        e0 = np.array([1.0, 0.0], dtype=complex)
        dump = []
        for m in range(code.m1):
            vals, vecs = np.linalg.eigh(cb.povm[m])
            ops = tuple(
                np.sqrt(max(val, 0.0)) * np.outer(e0, vecs[:, i].conj())
                for i, val in enumerate(vals)
                if val > 1e-12
            )
            dump.append(KrausChannel(ops, (4,), (2,), trace_nonincreasing=True))
        lazy = codesim.EtCode(
            n=1, m1=2, m2=2, da=2, db=2, dc=4,
            classical_states=code.classical_states,
            input_state=code.input_state,
            branches=tuple(dump),
        )
        val = codesim.performance(lazy, identity_qmac)
        assert val <= 1 / m2 + 1e-9

    def test_matches_direct_formula(self, identity_qmac, rng):
        code = codesim.random_et_code(rng)
        impl = codesim.performance(code, identity_qmac)
        # direct route: build the tagged decoder output and take the
        # fidelity with the target projector per message
        phi = maximally_entangled(code.m2)
        target_vecs = []
        for m in range(code.m1):
            tag = np.zeros(code.m1)
            tag[m] = 1.0
            target_vecs.append(np.kron(tag, phi.vec))
        sigmas = codesim._post_channel_states(code, identity_qmac)
        total = 0.0
        for m in range(code.m1):
            big = np.zeros((code.m1 * code.m2 * code.m2,) * 2, dtype=complex)
            for mp in range(code.m1):
                tag = np.zeros((code.m1, 1))
                tag[mp, 0] = 1.0
                for k in code.branches[mp].kraus_ops:
                    op = np.kron(tag, np.kron(np.eye(code.m2), k))
                    # output ordered (tag, F_B, F_C)
                    big += op @ sigmas[m] @ op.conj().T
            vec = target_vecs[m]
            total += float(np.real(vec.conj() @ big @ vec))
        assert impl == pytest.approx(total / code.m1, abs=1e-9)


class TestEtToEg:
    def test_isometric_encoder_equality(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        eg = codesim.et_to_eg(code, identity_qmac)
        assert codesim.performance(eg, identity_qmac) == pytest.approx(
            codesim.performance(code, identity_qmac), abs=1e-10
        )

    def test_random_codes_dominate(self, rng, identity_qmac):
        for _ in range(10):
            code = codesim.random_et_code(rng)
            p_et = codesim.performance(code, identity_qmac)
            eg = codesim.et_to_eg(code, identity_qmac)
            assert codesim.performance(eg, identity_qmac) >= p_et - 1e-12

    def test_convex_combination_identity(self, rng, identity_qmac):
        code = codesim.random_et_code(rng)
        vals, vecs = np.linalg.eigh(code.input_state.mat)
        total = 0.0
        from cqmac.qmatrix import PureState

        for i in range(vals.size):
            if vals[i] <= 1e-12:
                continue
            eg = codesim.EtCode(
                n=code.n, m1=code.m1, m2=code.m2, da=code.da, db=code.db, dc=code.dc,
                classical_states=code.classical_states,
                input_state=PureState(vecs[:, i], (code.m2, code.db**code.n)).density(),
                branches=code.branches,
            )
            total += vals[i] * codesim.performance(eg, identity_qmac)
        assert codesim.performance(code, identity_qmac) == pytest.approx(total, abs=1e-9)


class TestConcatenateAndPad:
    def test_two_perfect(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        joint = codesim.concatenate([code, code])
        assert joint.m1 == 4 and joint.m2 == 4 and joint.n == 2
        assert codesim.performance(joint, identity_qmac) == pytest.approx(1.0, abs=1e-10)

    def test_product_formula(self, rng, identity_qmac, basis_v, uniform_p):
        perfect, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        other = codesim.random_et_code(rng)
        p_other = codesim.performance(other, identity_qmac)
        joint = codesim.concatenate([perfect, other])
        assert codesim.performance(joint, identity_qmac) == pytest.approx(
            1.0 * p_other, abs=1e-10
        )

    def test_bernoulli_bound(self, rng, identity_qmac):
        codes = [codesim.random_et_code(rng) for _ in range(3)]
        ps = [codesim.performance(c, identity_qmac) for c in codes]
        joint = codesim.concatenate(codes)
        assert codesim.performance(joint, identity_qmac) >= 1 - sum(1 - p for p in ps) - 1e-9

    def test_each_product_branch_validated_once(self, rng, kraus_validations):
        codes = [codesim.random_et_code(rng, m1=2), codesim.random_et_code(rng, m1=3)]
        del kraus_validations[:]
        joint = codesim.concatenate(codes)
        assert len(kraus_validations) == len(joint.branches)
        assert all(v is b for v, b in zip(kraus_validations, joint.branches))
        for m, branch in enumerate(joint.branches):
            a, b = codes[0].branches[m // 3], codes[1].branches[m % 3]
            expect = [np.kron(ka, kb) for ka in a.kraus_ops for kb in b.kraus_ops]
            assert np.array_equal(branch.stacked, np.array(expect))

    def test_pad_branches_validated_once(self, rng, kraus_validations):
        code = codesim.random_et_code(rng, m1=3)
        del kraus_validations[:]
        padded = codesim.pad(code, 1)
        assert len(kraus_validations) == len(padded.branches)
        assert all(v is b for v, b in zip(kraus_validations, padded.branches))
        rows = np.eye(code.dc)
        for br, pbr in zip(code.branches, padded.branches):
            expect = [np.kron(k, rows[i : i + 1]) for k in br.kraus_ops for i in range(code.dc)]
            assert np.array_equal(pbr.stacked, np.array(expect))

    def test_pad_zero(self, rng, identity_qmac):
        code = codesim.random_et_code(rng)
        assert codesim.pad(code, 0) is code

    def test_pad_perfect(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        padded = codesim.pad(code, 2)
        assert padded.n == 3
        assert codesim.performance(padded, identity_qmac) == pytest.approx(1.0, abs=1e-10)

    def test_pad_preserves_performance(self, rng, identity_qmac):
        code = codesim.random_et_code(rng)
        base = codesim.performance(code, identity_qmac)
        padded = codesim.pad(code, 1)
        assert codesim.performance(padded, identity_qmac) == pytest.approx(base, abs=1e-10)

    def test_identity_suite(self):
        assert suite_code_identities(seed=31, samples=8).violations == 0


class TestConverseCheck:
    def test_perfect_identity_code(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        report = codesim.converse_check(code, CompoundSet((identity_qmac,), ("id",)))
        assert report["violations"] == 0
        member = report["members"][0]
        assert member["r1_cap"] >= 1.0 - 1e-9
        assert member["r2_cap"] >= 1.0 - 1e-9
        assert not member["low_fidelity"]

    def test_random_guess_no_violation(self, rng, identity_qmac):
        code = codesim.random_et_code(rng)
        report = codesim.converse_check(code, CompoundSet((identity_qmac,), ("id",)))
        assert report["violations"] == 0
        assert report["members"][0]["low_fidelity"] in (True, False)

    def test_dephasing_member_kills_quantum_cap(
        self, identity_qmac, dephasing_qmac, basis_v, uniform_p
    ):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        cset = CompoundSet((identity_qmac, dephasing_qmac), ("id", "dephB"))
        report = codesim.converse_check(code, cset)
        assert report["violations"] == 0
        by_label = {m["label"]: m for m in report["members"]}
        assert by_label["dephB"]["coherent_information_per_use"] == pytest.approx(
            0.0, abs=1e-7
        )
        assert by_label["id"]["coherent_information_per_use"] >= 1.0 - 1e-7


class TestRandomEtCode:
    def test_structurally_valid(self, rng):
        code = codesim.random_et_code(rng)
        assert codesim._completeness_defect(code.branches) < 1e-7

    def test_performance_in_range(self, rng, identity_qmac):
        code = codesim.random_et_code(rng)
        val = codesim.performance(code, identity_qmac)
        assert -1e-9 <= val <= 1.0 + 1e-9
