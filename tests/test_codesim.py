import itertools
from dataclasses import replace

import numpy as np
import pytest

from cqmac import codesim, entropic
from cqmac.channels import (
    BudgetExceededError,
    CompoundSet,
    CptpError,
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    batch_kron,
    choi_matrix,
    dephasing_channel,
    identity_channel,
    kraus_gram,
    tensor_power,
)
from cqmac.cli import _simulate_one
from cqmac.entropic import binary_entropy, von_neumann_entropy
from cqmac.qmatrix import (
    DimensionMismatchError,
    maximally_entangled,
    maximally_mixed,
    partial_trace_mat,
    sqrt_psd,
    tensor,
    tensor_all,
)
from cqmac.suites import suite_code_identities
import oracles
from oracles import (
    average_error,
    complex_gaussian,
    compose,
    density,
    entanglement_fidelity,
    haar_isometry,
    random_density,
    random_factor,
    random_kraus_ops,
)


def _outer(w: np.ndarray) -> np.ndarray:
    return w @ w.conj().T


def _dense_post_channel_states(code, channel) -> list[np.ndarray]:
    """Per-message joint states on [F, C^n] evolved densely: the factor route's oracle."""
    n = code.n
    dims = (code.da,) * n + (code.m2,) + (code.db,) * n
    positions = [x for i in range(n) for x in (i, n + 1 + i)]
    powered = tensor_power(channel, n)
    tau = _outer(code.input_factor)
    return [
        apply_channel_mat(powered, tensor(_outer(w), tau), dims, positions)[0]
        for w in code.classical_factors
    ]


def _abs_eig_sum(h: np.ndarray) -> float:
    """Trace norm of a dense Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def _encoder(et, g0: int) -> KrausChannel:
    """The sampled code's isometry as a channel F -> (G0)^n."""
    return KrausChannel((et.isometry,), (et.m2,), (g0,) * et.n)


def _encoded_phi(et, g0: int) -> np.ndarray:
    """(id_F (x) V)(Phi) formed densely on [F, (G0)^n]."""
    phi = density(maximally_entangled(et.m2)).mat
    return apply_channel_mat(_encoder(et, g0), phi, (et.m2, et.m2), [1])[0]


def _tagged_ops(channels) -> np.ndarray:
    """The averaged channel with the letter as a tensor factor: ops family[x, k] (x) |x> on (C, X).

    ``channels`` are per-letter families or KrausChannels (one letter, so no tag).
    """
    ops = []
    for ch in channels:
        family = ch.stacked[None] if isinstance(ch, KrausChannel) else ch
        tags = np.eye(len(family), dtype=complex)[:, :, None]  # |x> as an (X, 1) column
        ops += [batch_kron(letter, tag[None]) for letter, tag in zip(family, tags)]
    return np.concatenate(ops) / np.sqrt(len(channels))


def _tag_embedding(word, dc: int, x_size: int) -> np.ndarray:
    """C^n -> (C (x) X)^n writing the word into the tag registers."""
    tags = np.eye(x_size)[:, :, None]
    return tensor_all([np.kron(np.eye(dc), tags[x]) for x in word])


def _dense_recovery(ops: np.ndarray, n: int, iso: np.ndarray):
    """The pretty-good recovery from one dense eigh of M: the per-word route's oracle.

    Returns the recovery ops B_j = V† N_j† M^(-1/2) of the n-fold tagged ops
    N_j and an orthonormal basis of M's kernel, with the cutoff of
    ``codesim._recovery_blocks``.
    """
    single = KrausChannel(ops, (ops.shape[2],), (ops.shape[1],))
    mat, dims = iso @ iso.conj().T, (ops.shape[2],) * n
    for _ in range(n):
        mat, dims = apply_channel_mat(single, mat, dims, [0])
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    cutoff = max(1e-12, 1e-12 * max(float(vals[-1]), 0.0))
    inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, cutoff, None)), 0.0)
    m_inv = (vecs * inv) @ vecs.conj().T
    recov = np.array([(m_inv @ f).conj().T for f in batch_kron(*[ops] * n) @ iso])
    return recov, vecs[:, vals <= cutoff]


def _dense_decoder(channels, n: int, iso: np.ndarray) -> KrausChannel:
    """The dense route's decoder on the tagged channel: recovery ops plus one
    completion op per kernel vector."""
    recov, kernel = _dense_recovery(_tagged_ops(channels), n, iso)
    completion = np.zeros((kernel.shape[1], iso.shape[1], len(kernel)), dtype=complex)
    completion[:, 0, :] = kernel.T.conj()
    return KrausChannel(np.concatenate([recov, completion]), (len(kernel),), (iso.shape[1],))


def _dense_overlap(sigma: np.ndarray, branch_ops, m2: int) -> float:
    """<Phi| (id_F (x) branch)(sigma) |Phi> for a dense sigma on [F, C^n]."""
    rows = np.asarray(branch_ops).reshape(len(branch_ops), -1)
    return float(np.real(np.sum((rows @ sigma) * rows.conj()))) / m2


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
        assert average_error(cb, outs) == pytest.approx(0.0, abs=1e-10)

    def test_single_message_zero_error(self, identity_qmac, basis_v):
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        cb = codesim.pgm_codebook([outs], [(0,)])
        assert average_error(cb, outs) == pytest.approx(0.0, abs=1e-10)

    def test_povm_completeness(self, rng):
        vectors = [np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])]
        w = CqChannel.from_vectors(vectors)
        cb = codesim.sample_cq_codebook([w.vectors[:, :, None]], [0.5, 0.5], 4, 2, seed=11)
        total = sum(cb.povm)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-8

    def test_phase_state_mean_error_matches_oracle(self):
        vectors = [np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])]
        w = CqChannel.from_vectors(vectors)
        impl_means = []
        oracle_means = []
        for seed in range(200):
            cb = codesim.sample_cq_codebook([w.vectors[:, :, None]], [0.5, 0.5], 4, 2, seed=seed)
            impl = average_error(cb, w.vectors[:, :, None])
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
        assert average_error(cb, outs) == pytest.approx(1 - 1 / m, abs=1e-10)

    def test_sqrt_povm_is_each_elements_root_read_only(self, identity_qmac, mild_dephasing_qmac):
        v = CqChannel.from_vectors([np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])])
        fams = [codesim.effective_a_outputs(m, v, maximally_mixed(2))
                for m in (identity_qmac, mild_dephasing_qmac)]
        direct = codesim.CqCodebook(((0,), (1,)), tuple(np.eye(4) / 2 for _ in range(2)))
        for cb in (codesim.sample_cq_codebook(fams, [0.5, 0.5], 3, 3, seed=4), direct):
            roots = cb.sqrt_povm
            assert roots.shape == (cb.size, *cb.povm[0].shape)
            for root, d in zip(roots, cb.povm):
                assert np.array_equal(root, sqrt_psd(d))
            assert not roots.flags.writeable
            assert cb.sqrt_povm is roots  # taken once

    @pytest.mark.parametrize("kind", ["pair", "random"])
    def test_pgm_matches_per_word_oracle(self, identity_qmac, mild_dephasing_qmac, kind):
        if kind == "pair":
            v = CqChannel.from_vectors([np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])])
            fams = [codesim.effective_a_outputs(m, v, maximally_mixed(2))
                    for m in (identity_qmac, mild_dephasing_qmac)]
            words = [(0, 1, 1), (1, 0, 1), (0, 1, 1)]
        else:
            rng = np.random.default_rng(9)
            fams = [complex_gaussian(rng, (3, 2, 1)), complex_gaussian(rng, (3, 2, 2)) / 2]
            words = [(2, 0), (1, 1), (0, 2)]
        got = codesim.pgm_codebook(fams, words)
        want = oracles.pgm_codebook(fams, words)
        assert got.codewords == want.codewords
        assert np.max(np.abs(np.array(got.povm) - np.array(want.povm))) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_povm_refused(self, bad):
        """Every comparison with NaN is false, so the defect test must fail closed."""
        povm = tuple(np.full((2, 2), bad) for _ in range(2))
        with pytest.raises(ValueError, match="resolve the identity"):
            codesim.CqCodebook(((0,), (1,)), povm)

    def test_empty_codebook_refused(self, identity_qmac, basis_v, uniform_p):
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        with pytest.raises(ValueError, match="at least one codeword"):
            codesim.CqCodebook((), ())
        with pytest.raises(DimensionMismatchError):  # one element for two codewords
            codesim.CqCodebook(((0,), (1,)), (np.eye(4),))
        with pytest.raises(ValueError, match="at least one codeword"):
            codesim.pgm_codebook([outs], [])
        with pytest.raises(ValueError, match="at least one codeword"):
            codesim.sample_cq_codebook([outs], uniform_p, 2, 0, seed=0)

    @pytest.mark.parametrize("call", ["sample_cq_codebook", "pgm_codebook", "sample_et_code"])
    def test_blocklength_zero_refused(self, identity_qmac, basis_v, uniform_p, call):
        """Blocklength 0 is refused with ValueError, not an indexing error."""
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        args = {"sample_cq_codebook": ([outs], uniform_p, 0, 2, 0),  # n = 0, seed 0
                "pgm_codebook": ([outs], [(), ()]),
                "sample_et_code": ([identity_channel(2)], 2, 0, 1, 0)}
        with pytest.raises(ValueError, match="blocklength n"):
            getattr(codesim, call)(*args[call])

    def test_seed_reproducible(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        w = CqChannel.from_vectors(vectors)
        a = codesim.sample_cq_codebook([w.vectors[:, :, None]], [0.3, 0.7], 3, 2, seed=21)
        b = codesim.sample_cq_codebook([w.vectors[:, :, None]], [0.3, 0.7], 3, 2, seed=21)
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
            full = compose(et.decoder, compose(tensor_power(deph, 2), _encoder(et, 2)))
            oracle = entanglement_fidelity(maximally_mixed(2), full)
            assert fe == pytest.approx(oracle, abs=1e-9)

    def test_dephasing_mean_fidelity_vs_oracle(self):
        deph = dephasing_channel(0.1)
        powered = tensor_power(deph, 3)
        impl = []
        oracle = []
        for seed in range(100):
            et = codesim.sample_et_code([deph], 2, 3, 2, seed=seed)
            impl.append(codesim.et_entanglement_fidelity(et, deph))
            full = compose(et.decoder, compose(powered, _encoder(et, 2)))
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
            state = _encoded_phi(et, 2)
            dims = (et.m2,) + (2,) * n
            for _ in range(n):
                state, dims = apply_channel_mat(ch, state, dims, [1])
            oracle = _dense_overlap(state, et.decoder.stacked, et.m2)
            assert codesim.et_entanglement_fidelity(et, ch) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("n, kind", [(1, "random"), (2, "random"), (3, "random"),
                                         (1, "narrow"), (3, "narrow"),
                                         (1, "tagged"), (2, "tagged")])
    def test_recovery_matches_dense_inverse_root(self, rng, eigh_shapes, identity_b_channel,
                                                 n, kind):
        """The per-word recovery against M^(-1/2) formed from one dense eigh of the tagged M.

        Random complex channels give a full-rank M, and their ops span all of C,
        so the letter range is C itself (r = dc = 3). One random op per channel
        spans 2 of C's 3 dimensions (r = 2). The tagged identity channel of the
        hybrid codes spans 2 of C's 4 dimensions per letter and gives a kernel,
        hence completion ops. Any orthonormal basis of M's kernel completes the
        channel, so the decoders are compared by their Choi matrices.
        """
        if kind == "tagged":
            chans, shapes = [identity_b_channel], [(2, 4, 4), (2**n, 2**n, 2**n)]
        else:
            # two random planes of C span all of it, so the narrow case takes one channel
            count, members, rank = (2, 2, 3) if kind == "random" else (1, 1, 2)
            chans = [KrausChannel(random_kraus_ops(rng, 2, 3, count), (2,), (3,))
                     for _ in range(members)]
            shapes = [(1, 3, 3), (1, rank**n, rank**n)]
        del eigh_shapes[:]
        et = codesim.sample_et_code(chans, 2, n, 2, seed=int(rng.integers(1 << 30)))
        assert eigh_shapes == shapes
        recov, kernel = _dense_recovery(_tagged_ops(chans), n, et.isometry)
        assert (kind == "random") == (kernel.shape[1] == 0)
        got = et.decoder
        assert got.stacked.shape == (len(recov) + kernel.shape[1],) + recov.shape[1:]
        want = _dense_decoder(chans, n, et.isometry)
        np.testing.assert_allclose(choi_matrix(got), choi_matrix(want), rtol=0, atol=1e-12)

    def test_budget_refused_before_any_allocation(self, monkeypatch, identity_b_channel):
        """n = 5 on the tagged identity needs word blocks of (2^5, 1 + 4^5, 2, 4^5),
        67174400 entries, above 2^25; n = 4 needs (16, 257, 2, 256) and fits."""

        def refuse(*args, **kwargs):
            raise AssertionError("encoder isometry allocated")

        monkeypatch.setattr(codesim, "haar_isometries", refuse)
        with pytest.raises(BudgetExceededError, match=r"word blocks of shape \(32, 1025, 2, 1024\)"):
            codesim.sample_et_code([identity_b_channel], 2, 5, 2, seed=0)
        with pytest.raises(AssertionError, match="isometry allocated"):
            codesim.sample_et_code([identity_b_channel], 2, 4, 2, seed=0)

    def test_fidelity_rejects_mismatched_channel(self):
        et = codesim.sample_et_code([dephasing_channel(0.1)], 2, 2, 2, seed=1)
        with pytest.raises(DimensionMismatchError):
            codesim.et_entanglement_fidelity(et, identity_channel(3))

    def test_m2_too_large(self, identity_b_channel):
        with pytest.raises(ValueError):
            codesim.sample_et_code([identity_b_channel], 2, 1, 3, seed=0)

    @pytest.mark.parametrize("dims", [(2, 1, 2, 3, 8), (2, 3, 2, 0, 16), (3, 2, 4, 5, 64)])
    def test_expected_encoding_deviation_is_its_per_draw_loop(self, dims):
        assert codesim.expected_encoding_deviation(*dims) == oracles.expected_encoding_deviation(*dims)

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


@pytest.fixture
def eigh_shapes(monkeypatch) -> list:
    """The shape of every np.linalg.eigh argument from here on."""
    seen, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return seen


class TestBlockRecovery:
    """The recovery per tag word against one dense eigh of the tagged M."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decoder_matches_dense_channel(self, rng, identity_b_channel, id_deph_set,
                                           basis_v, uniform_p, n):
        """The tagged identity, the pair set's averaged channel as simulate forms it, and a
        tag letter of probability 1e-14, whose words fall under the cutoff of all words."""
        pair = [codesim.effective_b_channel(m, uniform_p, basis_v) for m in id_deph_set.members]
        skewed = codesim.effective_b_channel(id_deph_set.members[0], [1 - 1e-14, 1e-14], basis_v)
        for chans in ([identity_b_channel], pair, [skewed]):
            et = codesim.sample_et_code(chans, 2, n, 2, seed=int(rng.integers(1 << 30)))
            got = choi_matrix(et.decoder)
            want = choi_matrix(_dense_decoder(chans, n, et.isometry))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_letter_ranges_of_unequal_rank(self, rng, eigh_shapes, n):
        """Letter 0 sends B to one random line of C, letter 1 to a random 3-dimensional
        subspace: the rank-1 letter is padded to r = 3 with directions its ops miss."""
        line = haar_isometry(rng, 4, 1)
        narrow = np.array([line @ np.eye(2)[i : i + 1] for i in range(2)])  # |u><i|
        wide = haar_isometry(rng, 4, 3) @ np.array(random_kraus_ops(rng, 2, 3, 2))
        family = np.array([np.sqrt(0.3) * narrow, np.sqrt(0.7) * wide])
        del eigh_shapes[:]
        et = codesim.sample_et_code([family], 2, n, 2, seed=int(rng.integers(1 << 30)))
        assert eigh_shapes == [(2, 4, 4), (2**n, 3**n, 3**n)]
        for block in et.blocks:
            np.testing.assert_allclose(kraus_gram(block), np.eye(4**n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            choi_matrix(et.decoder),
            choi_matrix(_dense_decoder([family], n, et.isometry)),
            rtol=0,
            atol=1e-12,
        )

    def test_cutoff_is_relative_to_all_words(self):
        """Letter 0 replaces the input by |0>, so M_0 = 2 p0 |0><0| holds the largest
        eigenvalue, 2 - 3e-12; letter 1 is the identity with p1 = 1.5e-12, above the 1e-12
        floor but below 1e-12 times that largest eigenvalue, so its word is all kernel."""
        p1 = 1.5e-12
        replace_ops = np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], dtype=complex)
        identity_ops = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
        family = np.array([np.sqrt(1 - p1) * replace_ops, np.sqrt(p1) * identity_ops])
        et = codesim.sample_et_code([family], 2, 1, 2, seed=0)
        assert not np.any(et.blocks[1, :2])
        np.testing.assert_allclose(
            choi_matrix(et.decoder),
            choi_matrix(_dense_decoder([family], 1, et.isometry)),
            rtol=0,
            atol=1e-12,
        )

    def test_pair_set_layout_at_n3(self, eigh_shapes, id_deph_set, basis_v, uniform_p):
        """One eigh over the 2 letters' 4x4 G_x, whose ranges are 2-dimensional, and one
        over the 8 words' 8x8 M'_w; each word holds 27 recovery and 64 completion ops,
        and the dense form keeps the 216 + 8 * 56 nonzero ones."""
        pair = [codesim.effective_b_channel(m, uniform_p, basis_v) for m in id_deph_set.members]
        et = codesim.sample_et_code(pair, 2, 3, 2, seed=0)
        assert eigh_shapes == [(2, 4, 4), (8, 8, 8)]
        assert et.blocks.shape == (8, 91, 2, 64)
        assert not et.blocks.flags.writeable
        assert et.decoder.stacked.shape == (664, 2, 512)

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_rows_go_to_the_kernel(self, eigh_shapes, identity_qmac, dephasing_qmac, n):
        """A letter of probability 0 gives a zero family, so every word holding it is all kernel."""
        v = CqChannel.from_vectors([[1, 0], [0, 1], [1, 1]])
        p = np.array([0.5, 0.5, 0.0])
        chans = [codesim.effective_b_channel(q, p, v) for q in (identity_qmac, dephasing_qmac)]
        assert not np.any(chans[0][2])
        et = codesim.sample_et_code(chans[:1], 2, n, 2, seed=0)
        assert eigh_shapes == [(3, 4, 4), (3**n, 2**n, 2**n)]
        count = len(et.blocks[0]) - 4**n  # recovery ops per word
        for w, word in enumerate(itertools.product(range(3), repeat=n)):
            np.testing.assert_allclose(kraus_gram(et.blocks[w]), np.eye(4**n), rtol=0, atol=1e-12)
            if 2 in word:
                assert not np.any(et.blocks[w, :count])
        dense = _dense_decoder(chans[:1], n, et.isometry)
        np.testing.assert_allclose(choi_matrix(et.decoder), choi_matrix(dense), rtol=0, atol=1e-12)
        for ch in chans:
            state, dims = _encoded_phi(et, 2), (et.m2,) + (2,) * n
            tagged = KrausChannel(_tagged_ops([ch]), (2,), (12,))
            for _ in range(n):
                state, dims = apply_channel_mat(tagged, state, dims, [1])
            assert codesim.et_entanglement_fidelity(et, ch) == pytest.approx(
                _dense_overlap(state, dense.stacked, et.m2), abs=1e-12
            )


class TestCombineHybrid:
    def test_identity_exact(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        assert abs(codesim.performance(code, identity_qmac) - 1.0) < 1e-12

    def test_factors_match_dense_states(self, rng, identity_qmac, uniform_p):
        """Stored factors against (id (x) V)(Phi) and the codeword states formed densely.

        Complex letters and a complex Haar isometry, so a missing or extra
        conjugate shows.
        """
        v = CqChannel.from_vectors(complex_gaussian(rng, (2, 2)))
        n = 2
        outs = codesim.effective_a_outputs(identity_qmac, v, maximally_mixed(2))
        cb = codesim.sample_cq_codebook([outs], uniform_p, n, 3, seed=3)
        tb = codesim.effective_b_channel(identity_qmac, uniform_p, v)
        et = codesim.sample_et_code([tb], 2, n, 2, seed=4)
        assert np.max(np.abs(et.isometry.imag)) > 0.1
        code = codesim.combine_hybrid(cb, et, v, identity_qmac)
        assert code.input_factor.shape == (code.m2 * code.db**n, 1)
        np.testing.assert_allclose(_outer(code.input_factor), _encoded_phi(et, 2), rtol=0, atol=1e-12)
        letters = [np.outer(x, x.conj()) for x in v.vectors]
        for w, word in zip(code.classical_factors, cb.codewords):
            dense = tensor_all([letters[x] for x in word])
            np.testing.assert_allclose(_outer(w), dense, rtol=0, atol=1e-12)

    def test_single_message_equals_fidelity_term(
        self, identity_qmac, basis_v, uniform_p
    ):
        outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
        cb = codesim.pgm_codebook([outs], [(0,)])
        tb = codesim.effective_b_channel(identity_qmac, uniform_p, basis_v)
        et = codesim.sample_et_code([tb], 2, 1, 2, seed=9)
        code = codesim.combine_hybrid(cb, et, basis_v, identity_qmac)
        rep = codesim.hybrid_chain_report(cb, et, basis_v, identity_qmac, uniform_p, code=code)
        row = rep["per_message"][0]
        # identity POVM leaves the state untouched: decoded fidelity equals
        # the ideal-tag fidelity and the performance itself
        assert row["one_word_error"] == pytest.approx(0.0, abs=1e-10)
        assert row["performance"] == pytest.approx(row["fidelity_decoded"], abs=1e-10)
        assert row["fidelity_decoded"] == pytest.approx(row["fidelity_ideal_tag"], abs=1e-10)

    def test_branch_holds_its_word_block_only(self, id_deph_set, basis_v, uniform_p):
        """On the pair set at n = 3 each branch carries its word's K^n + dc^n = 27 + 64 ops,
        and performs as the dense decoder's ops on that word's tag columns."""
        members, n = id_deph_set.members, 3
        a_fams = [codesim.effective_a_outputs(m, basis_v, maximally_mixed(2)) for m in members]
        b_chans = [codesim.effective_b_channel(m, uniform_p, basis_v) for m in members]
        cb = codesim.sample_cq_codebook(a_fams, uniform_p, n, 3, seed=21)
        et = codesim.sample_et_code(b_chans, 2, n, 2, seed=22)
        code = codesim.combine_hybrid(cb, et, basis_v, members[0])
        dense_ops = et.decoder.stacked
        dense_branches = []
        for branch, word, d in zip(code.branches, cb.codewords, cb.povm):
            assert branch.stacked.shape == (27 + 64, 2, 64)
            ops = dense_ops @ _tag_embedding(word, 4, 2) @ sqrt_psd(d)
            dense_branches.append(KrausChannel(ops, (4,) * n, (2,), trace_nonincreasing=True))
        dense = replace(code, branches=tuple(dense_branches))  # the public, checked constructor
        for member in members:
            assert codesim.performance(code, member) == pytest.approx(
                codesim.performance(dense, member), abs=1e-12
            )

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
            code = codesim.combine_hybrid(cb, et, basis_v, identity_qmac)
            for member in cset.members:
                rep = codesim.hybrid_chain_report(cb, et, basis_v, member, uniform_p, code=code)
                assert rep["violations"] == 0


class TestLetterFamilies:
    """Per-letter Kraus families are checked where they enter: p in
    ``effective_b_channel``, the family arrays in ``sample_et_code`` and
    ``et_entanglement_fidelity``."""

    def test_family_holds_each_letter_block(self, identity_qmac, dephasing_qmac):
        """family[x] is sqrt(p(x)) times the QMAC's ops fed with V(x) on A, read-only."""
        v = CqChannel.from_vectors([[1, 0], [0.6, 0.8j], [1, 1]])
        p = np.array([0.2, 0.8, 0.0])
        for qmac in (identity_qmac, dephasing_qmac):
            family = codesim.effective_b_channel(qmac, p, v)
            assert family.shape == (3, len(qmac.kraus_ops), 4, 2) and not family.flags.writeable
            for x, letter in enumerate(v.vectors):
                feed = np.kron(letter.reshape(-1, 1), np.eye(2))
                np.testing.assert_allclose(
                    family[x], np.sqrt(p[x]) * (qmac.stacked @ feed), rtol=0, atol=1e-15
                )

    @pytest.mark.parametrize(
        "p, error", [([1.0], DimensionMismatchError), ([0.5, 0.6], ValueError)], ids=["short", "sum"]
    )
    def test_effective_channel_checks_p(self, identity_qmac, basis_v, p, error):
        with pytest.raises(error):
            codesim.effective_b_channel(identity_qmac, p, basis_v)

    @pytest.mark.parametrize("entry", ["sample", "fidelity"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (lambda f: f[0], DimensionMismatchError),
            (lambda f: f[:, :, :, :, None], DimensionMismatchError),
            (lambda f: f[:, :0], DimensionMismatchError),
            (lambda f: np.where(np.arange(f.size).reshape(f.shape) == 0, np.nan, f), CptpError),
            (lambda f: 1.01 * f, CptpError),
            (lambda f: f[:1], CptpError),
        ],
        ids=["3-d", "5-d", "empty", "nan", "overcomplete", "one-letter-missing"],
    )
    def test_family_refused(self, identity_b_channel, entry, bad, error):
        family = bad(identity_b_channel)
        with pytest.raises(error):
            if entry == "sample":
                codesim.sample_et_code([family], 2, 1, 2, seed=0)
            else:
                et = codesim.sample_et_code([identity_b_channel], 2, 1, 2, seed=0)
                codesim.et_entanglement_fidelity(et, family)

    def test_simulate_item_checks_each_family_once(self, kraus_validations, id_deph_set):
        """A simulate item checks its families where ``effective_b_channel`` builds them,
        not again on each of its 4 ``sample_et_code`` calls and 2 chain reports."""
        del kraus_validations[:]
        _simulate_one(id_deph_set, 3, 2, 2, 4, 7)
        assert 1 <= len(kraus_validations) <= 4

    def test_simulate_item_builds_no_n_fold_power(self, monkeypatch, id_deph_set):
        """The post-channel factors go through the per-use contraction that
        feeds the recovery, so an n = 3 item forms no n-fold Kraus power."""

        def refuse(*args, **kwargs):
            raise AssertionError("n-fold Kraus power built")

        monkeypatch.setattr("cqmac.channels._power_stack", refuse)
        _simulate_one(id_deph_set, 3, 2, 2, 4, 0)

    def test_one_povm_root_per_codebook(self, monkeypatch, identity_qmac, mild_dephasing_qmac):
        """A simulate item at n = 3 takes each codebook's roots once, in one
        stacked call, and its chain reports take none."""
        calls = []  # (inside a chain report, argument shape)
        inside = [False]
        real_sqrt, real_chain = codesim.sqrt_psd, codesim.hybrid_chain_report

        def counted(mat):
            calls.append((inside[0], np.shape(mat)))
            return real_sqrt(mat)

        def chain(*args, **kwargs):
            inside[0] = True
            try:
                return real_chain(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(codesim, "sqrt_psd", counted)
        monkeypatch.setattr(codesim, "hybrid_chain_report", chain)
        _simulate_one(CompoundSet((identity_qmac, mild_dephasing_qmac)), 3, 2, 2, 4, 0)
        # the other calls are effective_a_outputs' 2x2 roots of the B state
        assert [shape for _, shape in calls if len(shape) == 3] == [(2, 64, 64)] * 4
        assert [shape for _, shape in calls if len(shape) == 2] == [(2, 2)] * 2
        assert not any(flag for flag, _ in calls)

    def test_members_must_agree(self, identity_qmac, basis_v, uniform_p):
        three = CqChannel.from_vectors([[1, 0], [0, 1], [1, 1]])
        fams = [codesim.effective_b_channel(identity_qmac, p, v)
                for p, v in ((uniform_p, basis_v), ([0.5, 0.5, 0.0], three))]
        with pytest.raises(DimensionMismatchError, match="mismatched spaces"):
            codesim.sample_et_code(fams, 2, 1, 2, seed=0)


class TestBlocklengthFour:
    def test_pair_set_seed_at_n4(self, eigh_shapes, identity_qmac, mild_dephasing_qmac, basis_v,
                                 uniform_p):
        """One n = 4 seed on the pair set: complete word blocks, no chain or converse violation.

        The recovery takes its 16 words' M'_w at the range width 2^4, never at 4^4."""
        cset = CompoundSet((identity_qmac, mild_dephasing_qmac), ("id", "deph"))
        a_fams = [codesim.effective_a_outputs(m, basis_v, maximally_mixed(2)) for m in cset.members]
        b_chans = [codesim.effective_b_channel(m, uniform_p, basis_v) for m in cset.members]
        del eigh_shapes[:]
        et = codesim.sample_et_code(b_chans, 2, 4, 2, seed=4)
        assert eigh_shapes == [(2, 4, 4), (16, 16, 16)]
        assert et.blocks.shape == (16, 81 + 256, 2, 256)
        for block in et.blocks:
            np.testing.assert_allclose(kraus_gram(block), np.eye(256), rtol=0, atol=1e-12)
        cb = codesim.sample_cq_codebook(a_fams, uniform_p, 4, 2, seed=3)
        code = codesim.combine_hybrid(cb, et, basis_v, identity_qmac)
        assert codesim.converse_check(code, cset)["violations"] == 0
        for member in cset.members:
            rep = codesim.hybrid_chain_report(cb, et, basis_v, member, uniform_p, code=code)
            assert rep["violations"] == 0
        assert (16, 256, 256) not in eigh_shapes


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
            classical_factors=code.classical_factors,
            input_factor=code.input_factor,
            branches=tuple(dump),
        )
        val = codesim.performance(lazy, identity_qmac)
        assert val <= 1 / m2 + 1e-9

    def test_matches_direct_formula(self, identity_qmac, rng):
        code = oracles.random_et_code(rng)
        impl = codesim.performance(code, identity_qmac)
        # direct route: build the tagged decoder output and take the
        # fidelity with the target projector per message
        phi = maximally_entangled(code.m2)
        target_vecs = []
        for m in range(code.m1):
            tag = np.zeros(code.m1)
            tag[m] = 1.0
            target_vecs.append(np.kron(tag, phi.vec))
        sigmas = _dense_post_channel_states(code, identity_qmac)
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
            code = oracles.random_et_code(rng)
            p_et = codesim.performance(code, identity_qmac)
            eg = codesim.et_to_eg(code, identity_qmac)
            assert codesim.performance(eg, identity_qmac) >= p_et - 1e-12

    def test_convex_combination_identity(self, rng, identity_qmac):
        code = oracles.random_et_code(rng)
        vals, vecs = np.linalg.eigh(_outer(code.input_factor))
        total = 0.0
        for i in range(vals.size):
            if vals[i] <= 1e-12:
                continue
            eg = codesim.EtCode(
                n=code.n, m1=code.m1, m2=code.m2, da=code.da, db=code.db, dc=code.dc,
                classical_factors=code.classical_factors,
                input_factor=vecs[:, i : i + 1],
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
        other = oracles.random_et_code(rng)
        p_other = codesim.performance(other, identity_qmac)
        joint = codesim.concatenate([perfect, other])
        assert codesim.performance(joint, identity_qmac) == pytest.approx(
            1.0 * p_other, abs=1e-10
        )

    def test_bernoulli_bound(self, rng, identity_qmac):
        codes = [oracles.random_et_code(rng) for _ in range(3)]
        ps = [codesim.performance(c, identity_qmac) for c in codes]
        joint = codesim.concatenate(codes)
        assert codesim.performance(joint, identity_qmac) >= 1 - sum(1 - p for p in ps) - 1e-9

    def test_each_product_branch_validated_once(self, rng, kraus_validations):
        """The factor codes' branches are validated when built; the product
        branches form no Gram (TestTrustedProducts checks completeness)."""
        codes = [oracles.random_et_code(rng, m1=2), oracles.random_et_code(rng, m1=3)]
        del kraus_validations[:]
        joint = codesim.concatenate(codes)
        assert kraus_validations == []
        for m, branch in enumerate(joint.branches):
            a, b = codes[0].branches[m // 3], codes[1].branches[m % 3]
            expect = [np.kron(ka, kb) for ka in a.kraus_ops for kb in b.kraus_ops]
            assert np.array_equal(branch.stacked, np.array(expect))

    def test_pad_branches_validated_once(self, rng, kraus_validations):
        """As for concatenate: the padded branches form no Gram."""
        code = oracles.random_et_code(rng, m1=3)
        del kraus_validations[:]
        padded = codesim.pad(code, 1)
        assert kraus_validations == []
        rows = np.eye(code.dc)
        for br, pbr in zip(code.branches, padded.branches):
            expect = [np.kron(k, rows[i : i + 1]) for k in br.kraus_ops for i in range(code.dc)]
            assert np.array_equal(pbr.stacked, np.array(expect))

    def test_pad_zero(self, rng, identity_qmac):
        code = oracles.random_et_code(rng)
        assert codesim.pad(code, 0) is code

    def test_pad_perfect(self, identity_qmac, basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        padded = codesim.pad(code, 2)
        assert padded.n == 3
        assert codesim.performance(padded, identity_qmac) == pytest.approx(1.0, abs=1e-10)

    def test_pad_preserves_performance(self, rng, identity_qmac):
        code = oracles.random_et_code(rng)
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
        code = oracles.random_et_code(rng)
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


    def test_one_rate_kernel_call_per_set(self, monkeypatch, identity_qmac, dephasing_qmac,
                                          basis_v, uniform_p):
        code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        calls = []
        kernel = entropic.grouped_rates

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(codesim, "grouped_rates", counted)
        codesim.converse_check(code, CompoundSet((identity_qmac, dephasing_qmac)))
        assert len(calls) == 1
        assert len(calls[0][1]) == 2  # one group per member, each at its own rank


class TestEtCodeValidation:
    """Factors are checked by shape, finiteness and norm, and stored read-only."""

    @staticmethod
    def _with(code, field, bad):
        if field == "input":
            return replace(code, input_factor=bad(code.input_factor))
        return replace(code, classical_factors=(bad(code.classical_factors[0]),)
                       + code.classical_factors[1:])

    @pytest.mark.parametrize("field", ["input", "classical"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (lambda w: np.vstack([w, w]) / np.sqrt(2), DimensionMismatchError),
            (lambda w: w.reshape(-1), DimensionMismatchError),
            (lambda w: w[None], DimensionMismatchError),
            (lambda w: np.where(np.arange(w.size).reshape(w.shape) == 0, np.nan, w), ValueError),
            (lambda w: 2.0 * w, ValueError),
        ],
        ids=["rows", "1-d", "3-d", "nan", "trace-4"],
    )
    def test_rejects_bad_factor(self, rng, field, bad, error):
        code = oracles.random_et_code(rng)
        with pytest.raises(error):
            self._with(code, field, bad)

    def test_stores_read_only_copies(self, rng):
        code = oracles.random_et_code(rng)
        w = np.array(code.input_factor)
        built = replace(code, input_factor=w)
        w[0, 0] = 5.0
        assert built.input_factor[0, 0] != 5.0
        for stored in (built.input_factor,) + built.classical_factors:
            assert not stored.flags.writeable

    def test_validation_computes_no_spectrum(self, rng, monkeypatch):
        code = oracles.random_et_code(rng)

        def refuse(*args, **kwargs):
            raise AssertionError("spectrum computed during validation")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert replace(code, input_factor=code.input_factor).m1 == code.m1


class TestRandomEtCode:
    def test_structurally_valid(self, rng):
        code = oracles.random_et_code(rng)
        assert codesim._completeness_defect(code.branches) < 1e-7

    def test_performance_in_range(self, rng, identity_qmac):
        code = oracles.random_et_code(rng)
        val = codesim.performance(code, identity_qmac)
        assert -1e-9 <= val <= 1.0 + 1e-9


def _oracle_codes(rng):
    """Random complex codes, one with mixed classical states, and what the code
    surgery makes of them, plus two random channels that fit them."""
    chans = [KrausChannel(random_kraus_ops(rng, 4, 3, 3), (2, 2), (3,)) for _ in range(2)]
    base = oracles.random_et_code(rng, dc=3)
    mixed = replace(base, classical_factors=tuple(random_factor(rng, (2,)) for _ in range(2)))
    codes = {
        "random": base,
        "mixed": mixed,
        "pad": codesim.pad(mixed, 1),
        "concatenate": codesim.concatenate([mixed, oracles.random_et_code(rng, dc=3)]),
        "et_to_eg": codesim.et_to_eg(base, chans[0]),
        # classical factors of rank 1 and 2: the joint columns are cut per message
        "ragged": replace(base, classical_factors=(random_factor(rng, (2,), rank=1),
                                                   random_factor(rng, (2,)))),
        "pad-n3": codesim.pad(mixed, 2),
    }
    return chans, codes


def _assert_complete_family(branches, tol=1e-12):
    """Branch Grams that sum to the identity, each of them at most the identity."""
    grams = np.array([kraus_gram(br.stacked) for br in branches])
    assert np.max(np.abs(grams.sum(axis=0) - np.eye(grams.shape[-1]))) <= tol
    assert np.linalg.eigvalsh(grams)[:, -1].max() <= 1 + tol


def _random_qmac_pair(rng, dc):
    return tuple(KrausChannel(random_kraus_ops(rng, 4, dc, 2), (2, 2), (dc,)) for _ in range(2))


class TestTrustedProducts:
    """The recovery, the hybrid branches, concatenate and pad skip the
    completeness Grams of KrausChannel and EtCode, so they are checked here
    on random valid inputs, at 1e-12."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recovery_and_hybrid_branches_complete(self, rng, id_deph_set, basis_v,
                                                   uniform_p, n):
        # the pair set, then random QMAC pairs (at n = 3 with dc = 2, so d1^n = 64)
        dcs = (2, 2, 2) if n == 3 else (2, 3, 4) * 3
        pairs = [id_deph_set.members] + [_random_qmac_pair(rng, dc) for dc in dcs]
        for members in pairs:
            a_fams = [codesim.effective_a_outputs(m, basis_v, maximally_mixed(2)) for m in members]
            b_chans = [codesim.effective_b_channel(m, uniform_p, basis_v) for m in members]
            seeds = [int(s) for s in rng.integers(1 << 30, size=2)]
            et = codesim.sample_et_code(b_chans, 2, n, 2, seed=seeds[0])
            dec = et.decoder
            assert np.max(np.abs(kraus_gram(dec.stacked) - np.eye(dec.in_dim))) <= 1e-12
            cb = codesim.sample_cq_codebook(a_fams, uniform_p, n, 3, seed=seeds[1])
            _assert_complete_family(codesim.combine_hybrid(cb, et, basis_v, members[0]).branches)

    @pytest.mark.parametrize("n", [1, 2])
    def test_recovery_of_random_channels_complete(self, rng, n):
        """Full-rank recovery matrices: no kernel, no completion ops."""
        for _ in range(5):
            chans = [KrausChannel(random_kraus_ops(rng, 2, 3, 2), (2,), (3,)) for _ in range(2)]
            dec = codesim.sample_et_code(chans, 2, n, 2, seed=int(rng.integers(1 << 30))).decoder
            assert np.max(np.abs(kraus_gram(dec.stacked) - np.eye(dec.in_dim))) <= 1e-12

    def test_concatenate_and_pad_complete(self, rng, identity_qmac, basis_v, uniform_p):
        hybrid, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
        for _ in range(4):
            codes = [oracles.random_et_code(rng, m1=int(rng.integers(1, 4))) for _ in range(2)]
            for code in codes + [hybrid]:
                _assert_complete_family(codesim.pad(code, int(rng.integers(1, 3))).branches)
            _assert_complete_family(codesim.concatenate(codes).branches)
            _assert_complete_family(codesim.concatenate([hybrid, codes[0], codes[1]]).branches)

    def test_products_form_no_completeness_gram(self, rng, monkeypatch, identity_qmac,
                                                basis_v, uniform_p):
        code = oracles.random_et_code(rng)
        cb, _ = _orthogonal_codebook(identity_qmac, basis_v)
        tb = codesim.effective_b_channel(identity_qmac, uniform_p, basis_v)
        et = codesim.sample_et_code([tb], 2, 1, 2, seed=5)

        def refuse(branches):
            raise AssertionError("completeness Gram formed")

        monkeypatch.setattr(codesim, "_completeness_defect", refuse)
        codesim.combine_hybrid(cb, et, basis_v, identity_qmac)
        codesim.concatenate([code, code])
        codesim.pad(code, 1)
        with pytest.raises(AssertionError, match="completeness Gram"):  # the public constructor
            replace(code, input_factor=code.input_factor)

    def test_trusted_code_keeps_the_factor_checks(self, rng):
        code = oracles.random_et_code(rng)
        fields = {f: getattr(code, f) for f in code.__dataclass_fields__}
        built = codesim.EtCode._trusted(**fields)
        assert not built.input_factor.flags.writeable
        with pytest.raises(ValueError, match="trace differs"):
            codesim.EtCode._trusted(**{**fields, "input_factor": 2.0 * code.input_factor})
        with pytest.raises(DimensionMismatchError):
            codesim.EtCode._trusted(**{**fields, "branches": code.branches[:1]})


class TestFactorRouteOracle:
    """Post-channel factors W_m against the states evolved densely."""

    KINDS = ["random", "mixed", "pad", "concatenate", "et_to_eg", "ragged", "pad-n3"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_performance_matches_dense_route(self, rng, kind):
        chans, codes = _oracle_codes(rng)
        code = codes[kind]
        for ch in chans:
            sigmas = _dense_post_channel_states(code, ch)
            dense = np.mean(
                [_dense_overlap(s, br.stacked, code.m2) for s, br in zip(sigmas, code.branches)]
            )
            assert codesim.performance(code, ch) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("da, db, dc", [(2, 2, 3), (3, 2, 4), (2, 3, 2)])
    def test_letter_output_factors_match_dense_route(self, rng, da, db, dc):
        """f[x] f[x]† against qmac(V(x) (x) rho_B) evolved densely, for a random rho_B."""
        qmac = KrausChannel(random_kraus_ops(rng, da * db, dc, 3), (da, db), (dc,))
        v = CqChannel.from_vectors(complex_gaussian(rng, (4, da)))
        b_state = random_density(rng, (db,))
        assert np.linalg.norm(b_state.mat - np.eye(db) / db) > 0.1
        outs = codesim.effective_a_outputs(qmac, v, b_state)
        assert outs.shape[:2] == (v.alphabet_size, dc)
        for f, letter in zip(outs, v.vectors):
            dense, _ = apply_channel_mat(qmac, tensor(np.outer(letter, letter.conj()), b_state.mat),
                                         (da, db), [0, 1])
            np.testing.assert_allclose(_outer(f), dense, rtol=0, atol=1e-12)
        with pytest.raises(DimensionMismatchError):
            codesim.effective_a_outputs(qmac, CqChannel.basis(da + 1), b_state)
        with pytest.raises(DimensionMismatchError):
            codesim.effective_a_outputs(qmac, v, random_density(rng, (db + 1,)))

    @pytest.mark.parametrize("kind", KINDS + ["hybrid", "pair-n3"])
    def test_converse_check_matches_dense_route(self, rng, kind, identity_qmac, dephasing_qmac,
                                                 basis_v, uniform_p):
        if kind == "hybrid":  # high fidelity, so the caps are finite
            code, _, _ = _identity_hybrid(identity_qmac, basis_v, uniform_p)
            chans = [identity_qmac, dephasing_qmac]
        elif kind == "pair-n3":  # a simulated code; members of 1 and 8 Kraus ops at n = 3
            chans = [identity_qmac, dephasing_qmac]
            a_fams = [codesim.effective_a_outputs(m, basis_v, maximally_mixed(2)) for m in chans]
            b_chans = [codesim.effective_b_channel(m, uniform_p, basis_v) for m in chans]
            et = codesim.sample_et_code(b_chans, 2, 3, 2, seed=1)
            cb = codesim.sample_cq_codebook(a_fams, uniform_p, 3, 2, seed=2)
            code = codesim.combine_hybrid(cb, et, basis_v, identity_qmac)
        else:
            chans, codes = _oracle_codes(rng)
            code = codes[kind]
        report = codesim.converse_check(code, CompoundSet(tuple(chans)))
        n, dims = code.n, (code.m2, code.dc**code.n)
        for ch, row in zip(chans, report["members"]):
            sigmas = _dense_post_channel_states(code, ch)
            fid = np.mean([_dense_overlap(s, b.stacked, code.m2) for s, b in zip(sigmas, code.branches)])
            margs = [partial_trace_mat(s, dims, [1]) for s in sigmas]
            s_c = [von_neumann_entropy(c) for c in margs]
            i_xc = von_neumann_entropy(sum(margs) / len(margs)) - np.mean(s_c)
            ic = np.mean([sc - von_neumann_entropy(s) for sc, s in zip(s_c, sigmas)])
            eps = 1.0 - fid
            eps = 0.0 if eps < codesim.CONVERSE_DEFICIT_FLOOR else min(eps, 1.0)
            eps_tilde = 2.0 * np.sqrt(eps)
            cap1 = (i_xc + 1.0) / (1.0 - eps_tilde) / n if eps_tilde < 1 else float("inf")
            cap2 = float("inf")
            if eps_tilde < 0.25:
                cap2 = (ic + 2.0 * binary_entropy(eps_tilde)) / (1.0 - 4.0 * eps_tilde) / n
            assert row["fidelity"] == pytest.approx(fid, abs=1e-12)
            assert row["coherent_information_per_use"] == pytest.approx(ic / n, abs=1e-12)
            assert row["r1_cap"] == pytest.approx(cap1, abs=1e-12)
            assert row["r2_cap"] == pytest.approx(cap2, abs=1e-12)
        if kind == "hybrid":
            assert np.isfinite(report["members"][0]["r1_cap"])

    @pytest.mark.parametrize("letters", ["basis", "skewed"])
    def test_chain_report_matches_dense_blocks(self, identity_qmac, mild_dephasing_qmac,
                                               uniform_p, letters):
        """Row sums of the overlap matrix against the decoded blocks formed densely."""
        if letters == "basis":
            v = CqChannel.basis(2)
        else:
            v = CqChannel.from_vectors([np.array([1.0, 0.0]), np.array([np.cos(0.6), np.sin(0.6)])])
        members = (identity_qmac, mild_dephasing_qmac)
        a_fams = [codesim.effective_a_outputs(m, v, maximally_mixed(2)) for m in members]
        b_chans = [codesim.effective_b_channel(m, uniform_p, v) for m in members]
        n, m1 = 2, 3
        cb = codesim.sample_cq_codebook(a_fams, uniform_p, n, m1, seed=12)
        et = codesim.sample_et_code(b_chans, 2, n, 2, seed=13)
        code = codesim.combine_hybrid(cb, et, v, identity_qmac)
        m2, dc = code.m2, code.dc
        dressings = [np.kron(np.eye(m2), sqrt_psd(d)) for d in cb.povm]  # I_F (x) sqrt(D_m)
        for member in members:
            rep = codesim.hybrid_chain_report(cb, et, v, member, uniform_p, code=code)
            for m, sigma in enumerate(_dense_post_channel_states(code, member)):
                row = rep["per_message"][m]
                dressed = [big @ sigma @ big for big in dressings]
                blocks = {}
                for block, word in zip(dressed, cb.codewords):
                    blocks[word] = blocks.get(word, 0) + block
                tags = {w: et.decoder.stacked @ _tag_embedding(w, dc, 2) for w in blocks}
                f_hat = sum(_dense_overlap(b, tags[w], m2) for w, b in blocks.items())
                marginal = partial_trace_mat(sigma, (m2, dc**n), [1])
                gamma = 1.0 - np.trace(cb.povm[m] @ marginal).real
                word = cb.codewords[m]
                assert row["fidelity_decoded"] == pytest.approx(f_hat, abs=1e-12)
                assert row["fidelity_ideal_tag"] == pytest.approx(
                    _dense_overlap(sigma, tags[word], m2), abs=1e-12)
                assert row["performance"] == pytest.approx(
                    _dense_overlap(sigma, code.branches[m].stacked, m2), abs=1e-12)
                assert row["one_word_error"] == pytest.approx(max(gamma, 0.0), abs=1e-12)
                assert row["gentle_lhs"] == pytest.approx(_abs_eig_sum(dressed[m] - sigma), abs=1e-12)
                # the ideal tagged state is sigma in its own word's block and 0 elsewhere
                diff = sum(_abs_eig_sum(b - sigma if w == word else b) for w, b in blocks.items())
                assert row["tagged_diff"] == pytest.approx(diff, abs=1e-12)
                if letters == "basis" and cb.codewords.count(word) == 1:
                    # orthogonal outputs: no rounding residue for the square roots
                    assert row["one_word_error"] < 1e-20
                else:
                    assert row["one_word_error"] > 1e-3
