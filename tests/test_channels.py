import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqmac.channels import (
    BudgetExceededError,
    ChannelFormatError,
    CompoundSet,
    CptpError,
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    blocked_tensor_power,
    build_net,
    channel_tensor,
    choi_matrix,
    dephasing_channel,
    diamond_distance_bounds,
    dump_compound_json,
    identity_channel,
    kraus_gram,
    load_compound_json,
    tensor_power,
)
from cqmac.qmatrix import (
    DimensionMismatchError,
    partial_trace_mat,
    permute_mat,
    tensor,
    trace_norm,
)
from cqmac.randutil import random_density, random_kraus_ops, random_pure
from cqmac.suites import suite_diamond_bounds, suite_net_cover
from oracles import compose, depolarizing_channel

ROOT = Path(__file__).resolve().parents[1]


class TestApply:
    def test_identity(self, rng):
        rho = random_density(rng, (3,))
        out, dims = apply_channel_mat(identity_channel(3), rho.mat, rho.dims)
        assert dims == (3,) and np.allclose(out, rho.mat)

    def test_depolarizing(self, rng):
        rho = random_density(rng, (2,))
        out, _ = apply_channel_mat(depolarizing_channel(2), rho.mat, rho.dims)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-10)

    def test_choi_contraction_oracle(self, rng):
        ch = KrausChannel(random_kraus_ops(rng, 2, 3, 2), (2,), (3,))
        rho = random_density(rng, (2,))
        out, dims = apply_channel_mat(ch, rho.mat, rho.dims)
        j = choi_matrix(ch).matrix
        lifted = tensor(rho.mat.T, np.eye(3)) @ j
        expect = partial_trace_mat(lifted, (2, 3), [1])
        assert dims == (3,) and np.allclose(out, expect, atol=1e-10)

    def test_positioned_apply(self, rng):
        rho = random_density(rng, (2, 3))
        out, dims = apply_channel_mat(depolarizing_channel(3), rho.mat, rho.dims, positions=[1])
        marg = partial_trace_mat(rho.mat, (2, 3), [0])
        assert dims == (2, 3) and np.allclose(out, tensor(marg, np.eye(3) / 3), atol=1e-10)

    def test_untouched_subsystems_come_first(self, rng):
        """Channel on subsystem 0 of (2, 3): the result is ordered (3, out)."""
        rho = random_density(rng, (2, 3))
        ch = KrausChannel(random_kraus_ops(rng, 2, 4, 2), (2,), (4,))
        out, dims = apply_channel_mat(ch, rho.mat, rho.dims, positions=[0])
        assert dims == (3, 4)
        # the same map on the swapped state, with the channel input already last
        swapped = permute_mat(rho.mat, (2, 3), [1, 0])
        expect, _ = apply_channel_mat(channel_tensor(identity_channel(3), ch), swapped, (3, 2))
        assert np.allclose(out, expect, atol=1e-12)

    def test_positions_in_channel_input_order(self, rng):
        """positions [2, 0] feed subsystem 2 to the channel's first input."""
        rho = random_density(rng, (2, 3, 2))
        ch = KrausChannel(random_kraus_ops(rng, 4, 2, 3), (2, 2), (2,))
        out, dims = apply_channel_mat(ch, rho.mat, rho.dims, positions=[2, 0])
        assert dims == (3, 2)
        reordered = permute_mat(rho.mat, (2, 3, 2), [1, 2, 0])
        expect, _ = apply_channel_mat(ch, reordered, (3, 2, 2), positions=[1, 2])
        assert np.allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("positions", [[0, 0], [1]], ids=["duplicate", "wrong-dimension"])
    def test_bad_positions_raise(self, rng, positions):
        rho = random_density(rng, (2, 3))
        with pytest.raises(DimensionMismatchError):
            apply_channel_mat(identity_channel(4), rho.mat, rho.dims, positions)


class TestKrausStorage:
    def test_one_read_only_stack(self, rng):
        ops = np.array(random_kraus_ops(rng, 2, 3, 4))
        ch = KrausChannel(ops, (2,), (3,))
        assert "stacked" not in vars(KrausChannel)  # no lazily cached second copy
        assert ch.stacked.shape == (4, 3, 2) and ch.stacked.dtype == complex
        assert not ch.stacked.flags.writeable
        assert len(ch.kraus_ops) == 4
        for i, k in enumerate(ch.kraus_ops):
            assert np.shares_memory(k, ch.stacked)
            assert np.array_equal(k, ops[i])
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 1.0
        ops[0] *= 2.0  # the caller's array is not the channel's
        assert np.array_equal(ch.stacked[1:], ops[1:])
        assert np.array_equal(2.0 * ch.stacked[0], ops[0])

    @pytest.mark.parametrize(
        "ops",
        [
            (np.eye(3, dtype=complex),),
            (np.eye(2, dtype=complex), np.zeros((3, 2), dtype=complex)),
            np.eye(2, dtype=complex),
        ],
        ids=["wrong-shape", "ragged", "matrix-not-family"],
    )
    def test_wrong_shape_raises(self, ops):
        with pytest.raises(DimensionMismatchError):
            KrausChannel(ops, (2,), (2,))

    @pytest.mark.parametrize("ops", [(), np.zeros((0, 2, 2))], ids=["tuple", "stack"])
    def test_empty_family_raises(self, ops):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(ops, (2,), (2,))


class TestTensorPower:
    def test_k_one(self, identity_qmac):
        assert tensor_power(identity_qmac, 1) is identity_qmac

    def test_identity_squared(self):
        out = tensor_power(identity_channel(2), 2)
        assert len(out.kraus_ops) == 1
        assert np.allclose(out.kraus_ops[0], np.eye(4))

    def test_sequential_oracle(self, rng):
        deph = dephasing_channel(0.3)
        squared = tensor_power(deph, 2)
        rho = random_density(rng, (2, 2))
        joint, _ = apply_channel_mat(squared, rho.mat, rho.dims)
        # one copy at a time
        step, dims = apply_channel_mat(deph, rho.mat, rho.dims, positions=[0])  # (old 1, out)
        step, _ = apply_channel_mat(deph, step, dims, positions=[0])  # -> (out1, out2)
        assert np.allclose(joint, step, atol=1e-10)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            tensor_power(identity_channel(4), 4)
        with pytest.raises(BudgetExceededError):
            blocked_tensor_power(identity_channel((2, 2)), 4)

    @pytest.mark.parametrize("k", [2, 3])
    def test_power_validated_once(self, rng, kraus_validations, k):
        """The operands are validated when built; their powers form no Gram
        (TestTrustedProducts checks that the powers are channels)."""
        ch = KrausChannel(random_kraus_ops(rng, 2, 2, 2), (2,), (2,))
        qmac = KrausChannel(random_kraus_ops(rng, 4, 2, 2), (2, 2), (2,))
        assert kraus_validations == [ch, qmac]
        del kraus_validations[:]
        tensor_power(ch, k)
        blocked_tensor_power(qmac, k)
        assert kraus_validations == []

    def test_power_matches_kron_loop(self, rng):
        ch = KrausChannel(random_kraus_ops(rng, 2, 3, 3), (2,), (3,))
        cubed = tensor_power(ch, 3)
        expect = [tensor(tensor(a, b), c) for a in ch.kraus_ops for b in ch.kraus_ops
                  for c in ch.kraus_ops]
        assert np.array_equal(cubed.stacked, np.array(expect))
        assert cubed.in_dims == (2, 2, 2) and cubed.out_dims == (3, 3, 3)

    def test_blocked_matches_interleaved(self, rng, mild_dephasing_qmac):
        blocked = blocked_tensor_power(mild_dephasing_qmac, 2)
        plain = tensor_power(mild_dephasing_qmac, 2)
        rho = random_density(rng, (2, 2, 2, 2))  # A1 A2 B1 B2
        out_blocked, _ = apply_channel_mat(blocked, rho.mat, (4, 4), [0, 1])
        out_plain, _ = apply_channel_mat(plain, rho.mat, (2, 2, 2, 2), [0, 2, 1, 3])
        assert np.allclose(out_blocked, out_plain, atol=1e-10)


def _gram_defect(channel: KrausChannel) -> float:
    return float(np.max(np.abs(kraus_gram(channel.stacked) - np.eye(channel.in_dim))))


def _largest_gram_eigenvalue(channel: KrausChannel) -> float:
    return float(np.linalg.eigvalsh(kraus_gram(channel.stacked))[-1])


class TestTrustedProducts:
    """The library's products skip the constructor's Gram, so their
    completeness is checked here, on random valid operands."""

    def test_takes_ownership_read_only(self, rng, kraus_validations):
        ops = np.array(random_kraus_ops(rng, 2, 3, 4))
        ch = KrausChannel._trusted(ops, (np.int64(2),), [3])
        assert kraus_validations == []
        assert ch.stacked is ops and not ops.flags.writeable
        assert ch.in_dims == (2,) and ch.out_dims == (3,) and type(ch.in_dims[0]) is int
        assert not ch.trace_nonincreasing
        assert len(ch.kraus_ops) == 4
        for i, k in enumerate(ch.kraus_ops):
            assert k.base is ops and np.shares_memory(k, ops)
            assert np.array_equal(k, ops[i])
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.in_dims = (3,)

    def _random(self, rng, din, dout, count=2, dims=None):
        return KrausChannel(random_kraus_ops(rng, din, dout, count), dims or (din,), (dout,))

    def _branch(self, rng, din, dout):
        """One operator of a random channel: an instrument branch."""
        return KrausChannel(random_kraus_ops(rng, din, dout, 3)[:1], (din,), (dout,),
                            trace_nonincreasing=True)

    def test_tensor_and_compose_are_channels(self, rng):
        for din, dmid, dout in [(2, 3, 2), (3, 2, 4), (1, 4, 3)]:
            a, b = self._random(rng, din, dmid), self._random(rng, dmid, dout, 3)
            for out in (channel_tensor(a, b), compose(b, a)):
                assert not out.trace_nonincreasing
                assert _gram_defect(out) <= 1e-12

    def test_products_with_a_branch_stay_below_identity(self, rng):
        for din, dout in [(2, 3), (3, 2)]:
            br, ch = self._branch(rng, din, dout), self._random(rng, dout, din)
            for out in (channel_tensor(br, ch), channel_tensor(ch, br), compose(ch, br),
                        compose(br, ch), tensor_power(br, 2)):
                assert out.trace_nonincreasing
                assert _largest_gram_eigenvalue(out) <= 1 + 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_powers_are_channels(self, rng, k):
        for din, dout, count in [(2, 2, 2), (3, 2, 3), (2, 3, 1)]:
            powered = tensor_power(self._random(rng, din, dout, count), k)
            assert powered.in_dims == (din,) * k and _gram_defect(powered) <= 1e-12
        for da, db, dc in [(2, 2, 2), (2, 2, 4), (1, 3, 2)]:
            qmac = self._random(rng, da * db, dc, 2, dims=(da, db))
            blocked = blocked_tensor_power(qmac, k)
            assert blocked.in_dims == (da**k, db**k) and _gram_defect(blocked) <= 1e-12


class TestChoi:
    def test_cptp_conditions(self, rng):
        ch = KrausChannel(random_kraus_ops(rng, 3, 2, 2), (3,), (2,))
        j = choi_matrix(ch)
        assert abs(np.trace(j.matrix) - 3.0) < 1e-10
        assert np.linalg.eigvalsh(j.matrix)[0] > -1e-10
        assert j.trace_preserving_defect() < 1e-10


class TestDiamondBounds:
    def test_equal_channels(self):
        ch = identity_channel(2)
        lo, up = diamond_distance_bounds(ch, ch)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert up == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_depolarizing(self, rng):
        lo, up = diamond_distance_bounds(identity_channel(2), depolarizing_channel(2))
        assert lo <= 1.5 + 1e-9 <= up + 1e-9
        # sampled pure inputs lower-bound the true diamond distance
        best = 0.0
        for _ in range(30):
            psi = random_pure(rng, (2, 2)).density()
            a, _ = apply_channel_mat(identity_channel(2), psi.mat, psi.dims, positions=[1])
            b, _ = apply_channel_mat(depolarizing_channel(2), psi.mat, psi.dims, positions=[1])
            best = max(best, trace_norm(a - b))
        assert best <= up + 1e-9
        assert best <= 1.5 + 1e-9

    def test_ordering_suite(self):
        assert suite_diamond_bounds(seed=8, samples=15).violations == 0


def _dense_greedy_indices(cset: CompoundSet, theta: float) -> list[int]:
    """Oracle for build_net: the greedy farthest-point loop on dense Choi
    matrices, one SVD trace norm per member and step."""
    chois = np.array([choi_matrix(m).matrix for m in cset.members])

    def dist(j):
        return np.sum(np.linalg.svd(chois - chois[j], compute_uv=False), axis=-1)

    chosen = [0]
    min_dist = dist(0)
    while True:
        far = int(np.argmax(min_dist))
        if min_dist[far] <= theta:
            break
        chosen.append(far)
        min_dist = np.minimum(min_dist, dist(far))
    return sorted(chosen)


class TestBuildNet:
    # (in_dim, out_dim, Kraus counts): the padded factors of two members have
    # fewer, as many or more columns in all than in_dim * out_dim rows
    MIXED = [(4, 4, (1, 2, 3)), (3, 3, (2, 1)), (2, 3, (1, 2, 4)), (2, 2, (1, 3, 4)),
             (3, 2, (2, 5))]

    @pytest.mark.parametrize("din, dout, counts", MIXED, ids=str)
    def test_matches_dense_greedy_oracle(self, rng, din, dout, counts):
        for _ in range(3):
            members = tuple(
                KrausChannel(random_kraus_ops(rng, din, dout, counts[i % len(counts)]),
                             (din,), (dout,))
                for i in range(12)
            )
            cset = CompoundSet(members)
            chois = np.array([choi_matrix(m).matrix for m in members])
            pairwise = trace_norm(chois[:, None] - chois[None, :])
            # quantiles between two of the 66 distances, so theta ties none
            for q in (0.15, 0.45, 0.75):
                theta = float(np.quantile(pairwise[np.triu_indices(12, 1)], q))
                net = build_net(cset, theta)
                got = [int(label[1:]) for label in net.labels]
                assert got == _dense_greedy_indices(cset, theta)

    def test_tiny_theta_chooses_each_member_once(self, rng):
        """Repeated members are a rounding residue apart, not 0; the loop must
        still end, with no member chosen twice."""
        members = tuple(KrausChannel(random_kraus_ops(rng, 2, 2, 2), (2,), (2,)) for _ in range(4))
        cset = CompoundSet(members + members)
        net = build_net(cset, 1e-300)
        assert len(set(net.labels)) == len(net.labels) <= len(cset)

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_non_positive_theta_raises(self, identity_qmac, theta):
        with pytest.raises(ValueError, match="positive"):
            build_net(CompoundSet((identity_qmac,)), theta)

    def test_nan_theta_raises_promptly(self):
        # in a subprocess, so a cover loop that never ends fails the test
        program = (
            "from cqmac.channels import CompoundSet, build_net, identity_channel\n"
            "try:\n"
            "    build_net(CompoundSet((identity_channel(2),)), float('nan'))\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    def test_singleton(self, identity_qmac):
        cset = CompoundSet((identity_qmac,))
        assert len(build_net(cset, 0.5).members) == 1

    def test_duplicates(self, identity_qmac):
        cset = CompoundSet((identity_qmac, identity_qmac, identity_qmac))
        assert len(build_net(cset, 0.1).members) == 1

    def test_greedy_cover(self, rng):
        members = tuple(
            KrausChannel(random_kraus_ops(rng, 4, 4, 2), (2, 2), (4,)) for _ in range(50)
        )
        cset = CompoundSet(members)
        net = build_net(cset, 0.3)
        chois = {id(m): choi_matrix(m).matrix for m in members}
        net_chois = [choi_matrix(m).matrix for m in net.members]
        for m in members:
            d = min(trace_norm(chois[id(m)] - jn) for jn in net_chois)
            assert d <= 0.3 + 1e-9

    def test_theta_to_zero_keeps_all(self, rng):
        members = tuple(
            KrausChannel(random_kraus_ops(rng, 2, 2, 2), (2,), (2,)) for _ in range(8)
        )
        net = build_net(CompoundSet(members), 1e-12)
        assert len(net.members) == len(members)

    def test_cover_suite(self):
        assert suite_net_cover(seed=12, samples=1).violations == 0


class TestInstrumentFlag:
    def test_subnormalized_ok(self):
        half = np.sqrt(0.5) * np.eye(2, dtype=complex)
        KrausChannel((half,), (2,), (2,), trace_nonincreasing=True)

    def test_exceeding_raises(self):
        big = 1.1 * np.eye(2, dtype=complex)
        with pytest.raises(CptpError):
            KrausChannel((big,), (2,), (2,), trace_nonincreasing=True)

    def test_non_tp_channel_raises(self):
        half = np.sqrt(0.5) * np.eye(2, dtype=complex)
        with pytest.raises(CptpError):
            KrausChannel((half,), (2,), (2,))

    @pytest.mark.parametrize("instrument", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, instrument, bad):
        op = np.eye(2, dtype=complex)
        op[0, 0] = bad
        with pytest.raises(CptpError):
            KrausChannel((op,), (2,), (2,), trace_nonincreasing=instrument)
        with pytest.raises(CptpError):
            KrausChannel((np.array([[bad]]),), (1,), (1,), trace_nonincreasing=instrument)

    @pytest.mark.parametrize("instrument", [False, True])
    def test_overflowing_gram_raises_without_warning(self, instrument):
        op = np.array([[1e200, 1e200j], [0.0, 1.0]])  # finite, but K†K overflows
        with pytest.raises(CptpError):
            KrausChannel((op,), (2,), (2,), trace_nonincreasing=instrument)


class TestJson:
    def test_round_trip(self, id_deph_set, rng):
        text = dump_compound_json(id_deph_set)
        loaded = load_compound_json(text)
        assert loaded.labels == id_deph_set.labels
        rho = random_density(rng, (2, 2))
        for a, b in zip(loaded.members, id_deph_set.members):
            assert np.allclose(apply_channel_mat(a, rho.mat, rho.dims)[0],
                               apply_channel_mat(b, rho.mat, rho.dims)[0])

    def test_single_channel_object(self):
        ch = identity_channel(2)
        obj = dump_compound_json(CompoundSet((ch,)))
        import json as _json

        member = _json.loads(obj)["members"][0]
        loaded = load_compound_json(_json.dumps(member))
        assert len(loaded.members) == 1

    def test_malformed(self):
        with pytest.raises(ChannelFormatError):
            load_compound_json("{not json")
        with pytest.raises(ChannelFormatError):
            load_compound_json('{"members": [{"in_dims": [2]}]}')

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_rejected(self, token):
        text = (
            '{"in_dims": [2], "out_dims": [2], "kraus": '
            f'[[[1, 0], [0, 0], [0, 0], [{token}, 0]]]}}'
        )
        with pytest.raises(ChannelFormatError):
            load_compound_json(text)

    def test_renormalizes_within_load_tolerance(self, id_deph_set):
        exact = load_compound_json(dump_compound_json(id_deph_set))
        for a, b in zip(exact.members, id_deph_set.members):  # defect ~1e-16 keeps its bits
            assert np.array_equal(a.stacked, b.stacked)
        obj = json.loads(dump_compound_json(CompoundSet((identity_channel(2),))))
        obj["members"][0]["kraus"][0] = [[1.0 + 2.5e-7, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0 - 2e-7, 0.0]]
        (loaded,) = load_compound_json(json.dumps(obj)).members
        gram = loaded.stacked[0].conj().T @ loaded.stacked[0]
        assert np.max(np.abs(gram - np.eye(2))) < 1e-15
        # passes the public constructor's CPTP_TOL check
        KrausChannel(loaded.stacked, loaded.in_dims, loaded.out_dims)

    def test_load_validates_once(self, id_deph_set, kraus_validations):
        """The loader's own Gram check stands in for the constructor's."""
        loaded = load_compound_json(dump_compound_json(id_deph_set))
        assert kraus_validations == []
        for m in loaded.members:
            assert not m.stacked.flags.writeable
            KrausChannel(m.stacked, m.in_dims, m.out_dims)  # within CPTP_TOL
        assert len(kraus_validations) == len(loaded.members)

    def test_cptp_violation_reports_defect(self):
        bad = {
            "in_dims": [2],
            "out_dims": [2],
            "kraus": [[[1.2, 0.0], [0.0, 0.0], [0.0, 0.0], [1.2, 0.0]]],
        }
        import json as _json

        with pytest.raises(CptpError) as err:
            load_compound_json(_json.dumps(bad))
        assert err.value.defect > 0.1


class TestCqChannel:
    def test_rejects_non_unit_or_non_finite_letter(self):
        for bad in ([[1.0, 0.0], [0.6, 0.6]], [[1.0, 0.0], [np.nan, 0.0]], [[np.inf, 0.0]], [[]]):
            with pytest.raises(ValueError, match="not finite unit vectors"):
                CqChannel(np.array(bad, dtype=complex))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite unit"):
            CqChannel.from_vectors([np.zeros(2)])  # 0/0 normalizes to NaN

    @pytest.mark.parametrize(
        "letters",
        [np.ones(2), np.ones((1, 1, 2)), np.ones(()), [], np.zeros((0, 2))],
        ids=["vector", "rank-3", "scalar", "empty-list", "empty-alphabet"],
    )
    def test_wrong_shape_or_empty_raises(self, letters):
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            CqChannel(letters)

    def test_one_read_only_vector_array(self, rng):
        raw = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
        v = CqChannel.from_vectors(raw)
        assert [f.name for f in dataclasses.fields(CqChannel)] == ["vectors"]
        assert v.vectors.shape == (2, 3) and v.vectors.dtype == complex
        assert not v.vectors.flags.writeable
        for row, r in zip(v.vectors, raw):  # per-vector normalisation keeps its bits
            assert np.array_equal(row, r / np.linalg.norm(r))
        letters = np.array(v.vectors)
        w = CqChannel(letters)
        letters[0] = 0.0  # the caller's array is not the channel's
        assert np.array_equal(w.vectors, v.vectors)

    def test_basis(self):
        v = CqChannel.basis(3, 2)
        assert v.alphabet_size == 2 and v.dim == 3
        assert np.array_equal(v.vectors, np.eye(3)[:2])

    def test_tensor_pairing(self, basis_v):
        from cqmac.channels import cq_tensor

        prod = cq_tensor(basis_v, basis_v)
        assert prod.alphabet_size == 4
        expect = np.zeros(4)
        expect[1] = 1.0  # (x=0, y=1) row-major
        assert np.allclose(prod.vectors[1], expect)
