import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqmac.channels import BudgetExceededError, CompoundSet, CqChannel, blocked_tensor_power
from cqmac.entropic import cqq_rates, pure_output_factors
from cqmac.optimizer import (
    InputAnsatz,
    _materialize_flat,
    _param_count,
    _state_vectors,
    decompose_tensor_power,
    empirical_approximation,
    pareto_trace,
)
from cqmac.qmatrix import DensityMatrix, PureState, maximally_mixed, trace_norm
from cqmac.regions import compound_rect_powered


def test_package_resolves_optimizer_names_on_use():
    import cqmac
    from cqmac import optimizer
    from cqmac import pareto_trace as lazy_trace

    assert lazy_trace is pareto_trace
    for name in ("InputAnsatz", "SpectralDecomposition", "decompose_tensor_power",
                 "empirical_approximation", "pareto_trace"):
        assert getattr(cqmac, name) is getattr(optimizer, name)
        assert name in cqmac.__all__
    assert "optimizer" in cqmac.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        cqmac.no_such_name


def _objective_rates(stacks, p, v_vecs, psi_vec, db_l):
    """Rate pair per member as the objective computes it: the kernel on raw factors."""
    psi_grid = psi_vec.reshape(db_l, db_l)
    return [cqq_rates(p, pure_output_factors(ks, v_vecs, psi_grid)) for ks in stacks]


def test_state_vectors_normalise_rows_with_basis_fallback():
    """Rows become unit vectors; a row of norm below 1e-12 is basis vector x mod A."""
    raw = np.random.default_rng(2).standard_normal((5, 3, 2))
    raw[1] = 0.0
    raw[4] = 1e-14
    vecs = _state_vectors(raw.reshape(-1), 5, 3)
    assert vecs.shape == (5, 3)
    for x in (0, 2, 3):
        v = raw[x, :, 0] + 1j * raw[x, :, 1]
        assert np.allclose(vecs[x], v / np.linalg.norm(v), rtol=0, atol=1e-15)
    assert np.array_equal(vecs[1], np.eye(3)[1]) and np.array_equal(vecs[4], np.eye(3)[1])
    assert np.array_equal(InputAnsatz([1.0], np.zeros(2), np.zeros(8)).psi(2).vec, np.eye(4)[0])


def _depolarizing_qmac():
    from cqmac.channels import KrausChannel, depolarizing_channel

    return KrausChannel(depolarizing_channel(4).kraus_ops, (2, 2), (4,))


class TestParetoTrace:
    def test_identity_reaches_corner(self, identity_qmac):
        res = pareto_trace(CompoundSet((identity_qmac,)), 1, [(1.0, 1.0)], budget=4, seed=3)
        rect = res.optima[0].rect
        assert rect.r1_max >= 1.0 - 0.02
        assert rect.r2_max >= 1.0 - 0.02

    def test_depolarizing_flat(self):
        res = pareto_trace(CompoundSet((_depolarizing_qmac(),)), 1, [(1.0, 1.0)], budget=2, seed=3)
        rect = res.optima[0].rect
        assert rect.r1_max <= 0.02
        assert rect.r2_max <= 0.02

    def test_dephasing_pair_kills_r2(self, id_deph_set):
        res = pareto_trace(id_deph_set, 1, [(0.0, 1.0)], budget=3, seed=5)
        assert res.optima[0].rect.r2_max <= 0.02

    def test_deterministic(self, identity_qmac):
        a = pareto_trace(CompoundSet((identity_qmac,)), 1, [(1.0, 0.5)], budget=3, seed=9)
        b = pareto_trace(CompoundSet((identity_qmac,)), 1, [(1.0, 0.5)], budget=3, seed=9)
        assert a.region.corners() == b.region.corners()

    def test_budget_monotone(self, id_deph_set):
        small = pareto_trace(id_deph_set, 1, [(1.0, 1.0)], budget=2, seed=7)
        large = pareto_trace(id_deph_set, 1, [(1.0, 1.0)], budget=4, seed=7)
        assert large.optima[0].objective >= small.optima[0].objective - 1e-12

    def test_self_consistency(self, id_deph_set):
        from cqmac.regions import compound_rect

        res = pareto_trace(id_deph_set, 1, [(1.0, 1.0)], budget=2, seed=1)
        opt = res.optima[0]
        rect = compound_rect(
            id_deph_set, 1, opt.ansatz.p, opt.ansatz.cq_channel(2), opt.ansatz.psi(2)
        )
        assert rect.r1_max == pytest.approx(opt.rect.r1_max, abs=1e-9)
        assert rect.r2_max == pytest.approx(opt.rect.r2_max, abs=1e-9)

    def test_truncation_flag(self, identity_qmac):
        res = pareto_trace(
            CompoundSet((identity_qmac,)), 1, [(1.0, 1.0), (0.0, 1.0)],
            budget=4, seed=2, max_evaluations=40,
        )
        assert res.truncated
        assert res.evaluations >= 40

    def test_dim_budget(self, identity_qmac):
        with pytest.raises(BudgetExceededError):
            pareto_trace(CompoundSet((identity_qmac,)), 3, [(1.0, 1.0)], budget=1, seed=0,
                         dim_budget=100)

    def test_fast_route_matches_public(self, id_deph_set, rng):
        for l in (1, 2):
            powered = [blocked_tensor_power(m, l) for m in id_deph_set.members]
            stacks = [m.stacked for m in powered]
            da_l = db_l = 2**l
            nd = _param_count(da_l, da_l, db_l)
            for _ in range(3):
                theta = rng.standard_normal(nd)
                p, vv, pv = _materialize_flat(theta, da_l, da_l, db_l)
                fast = _objective_rates(stacks, p, vv, pv, db_l)
                r1 = max(0.0, min(r[0] for r in fast)) / l
                r2 = max(0.0, min(r[1] for r in fast)) / l
                rect = compound_rect_powered(
                    powered, l, p, CqChannel.from_vectors(vv), PureState(pv, (db_l, db_l))
                )
                assert rect.r1_max == pytest.approx(r1, abs=1e-9)
                assert rect.r2_max == pytest.approx(r2, abs=1e-9)

    def test_objective_spectra_per_evaluation(self, id_deph_set, monkeypatch):
        """One evaluation at l=2 takes three stacked spectrum calls, whatever |X|
        and the member count: S(C), S(BC) and the average C state."""
        from cqmac import optimizer

        objectives = []

        def first_objective(fun, x0, **kwargs):
            objectives.append((fun, x0))
            raise StopIteration

        monkeypatch.setattr(optimizer, "minimize", first_objective)
        with pytest.raises(StopIteration):
            pareto_trace(id_deph_set, 2, [(1.0, 1.0)], budget=1, seed=0)
        (fun, x0), = objectives
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        fun(np.random.default_rng(1).standard_normal(x0.size))
        x_size, members = 4, len(id_deph_set.members)
        # B = 2^2, C = 4^2, and the identity's one Kraus op padded to the dephasing's 4
        b, c, k = 4, 16, 4
        side_c, side_bc, side_avg = min(c, b * k), min(b * c, k), min(c, x_size * b * k)
        assert calls == [(members, x_size, side_c, side_c), (members, x_size, side_bc, side_bc),
                         (members, side_avg, side_avg)]

    @pytest.mark.parametrize("case", ["pair-l2", "random-3"])
    def test_stacked_objective_matches_member_loop(self, id_deph_set, rng, monkeypatch, case):
        """The objective against the per-member loop it replaced, at 1e-12 on 50 θ."""
        from cqmac import optimizer
        from cqmac.channels import KrausChannel
        from cqmac.randutil import random_kraus_ops

        if case == "pair-l2":
            cset, l = id_deph_set, 2
        else:
            cset, l = CompoundSet(tuple(
                KrausChannel(random_kraus_ops(rng, 4, 4, count), (2, 2), (4,))
                for count in (1, 3, 4))), 1
        objectives = []

        def first_objective(fun, x0, **kwargs):
            objectives.append((fun, x0))
            raise StopIteration

        monkeypatch.setattr(optimizer, "minimize", first_objective)
        w1, w2 = 0.3, 0.7
        with pytest.raises(StopIteration):
            pareto_trace(cset, l, [(w1, w2)], budget=1, seed=0)
        (fun, x0), = objectives
        stacks = [blocked_tensor_power(m, l).stacked for m in cset.members]
        da_l = db_l = 2**l
        for _ in range(50):
            theta = rng.standard_normal(x0.size)
            p, vv, pv = _materialize_flat(theta, da_l, da_l, db_l)
            rates = _objective_rates(stacks, p, vv, pv, db_l)
            r1 = max(0.0, min(r[0] for r in rates)) / l
            r2 = max(0.0, min(r[1] for r in rates)) / l
            assert fun(theta) == pytest.approx(-(w1 * r1 + w2 * r2), abs=1e-12)

    def test_objective_is_numerically_tame(self, identity_qmac, rng):
        """Directional slices show no NaN and no explosive jumps."""
        powered = [blocked_tensor_power(identity_qmac, 1)]
        stacks = [m.stacked for m in powered]
        nd = _param_count(2, 2, 2)
        theta = rng.standard_normal(nd)
        direction = rng.standard_normal(nd)
        direction /= np.linalg.norm(direction)
        ts = np.linspace(-0.05, 0.05, 21)
        vals = []
        for t in ts:
            p, vv, pv = _materialize_flat(theta + t * direction, 2, 2, 2)
            rates = _objective_rates(stacks, p, vv, pv, 2)
            vals.append(rates[0][0] + rates[0][1])
        vals = np.asarray(vals)
        assert np.all(np.isfinite(vals))
        quotients = np.diff(vals) / np.diff(ts)
        assert np.max(np.abs(quotients)) < 1e3


class TestInputAnsatz:
    def test_materialization(self):
        ans = InputAnsatz(np.array([0.5, 0.5]), np.ones(8), np.ones(8), seed=0)
        v = ans.cq_channel(2)
        assert v.alphabet_size == 2
        psi = ans.psi(2)
        assert abs(np.linalg.norm(psi.vec) - 1.0) < 1e-12

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            InputAnsatz(np.array([0.5, 0.6]), np.ones(8), np.ones(8))


class TestDecomposeTensorPower:
    def test_pure_state(self, rng):
        from cqmac.randutil import random_pure

        dec = decompose_tensor_power(random_pure(rng, (2,)).density(), 3)
        assert dec.count == 1
        assert dec.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        dec = decompose_tensor_power(maximally_mixed(2), 2)
        assert dec.count == 1
        assert dec.subspace_dims == (4,)

    def test_binomial_grouping(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]), (2,))
        dec = decompose_tensor_power(rho, 2)
        assert dec.count == 3
        assert sorted(np.round(dec.weights, 10)) == pytest.approx(
            sorted([1 / 16, 6 / 16, 9 / 16])
        )

    def test_reconstruction_and_count_bound(self, rng):
        for dim in (2, 3):
            for l in (2, 3):
                rho = DensityMatrix(np.diag(rng.dirichlet(np.ones(dim))), (dim,))
                dec = decompose_tensor_power(rho, l)
                target = rho.mat
                for _ in range(l - 1):
                    target = np.kron(target, rho.mat)
                assert trace_norm(dec.reconstruct() - target) <= 1e-8
                assert dec.count <= (l + 1) ** dim
                # subspaces mutually orthogonal
                for i in range(dec.count):
                    for j in range(i + 1, dec.count):
                        assert np.max(np.abs(dec.projectors[i] @ dec.projectors[j])) < 1e-9

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            decompose_tensor_power(maximally_mixed(4), 6)


class TestEmpiricalApproximation:
    def test_point_mass(self):
        assert list(empirical_approximation([1.0], 5)) == [5]

    def test_even_split(self):
        assert list(empirical_approximation([0.5, 0.5], 10)) == [5, 5]

    def test_floor_rule(self):
        assert list(empirical_approximation([0.3, 0.7], 100)) == [30, 70]

    def test_too_small(self):
        with pytest.raises(ValueError):
            empirical_approximation([0.9, 0.1], 15)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_postconditions(self, masses, scale):
        q = np.array(masses, dtype=float)
        q /= q.sum()
        min_p = q[q > 0].min()
        t = int(np.ceil(2.0 / min_p)) + scale
        n = empirical_approximation(q, t)
        assert n.sum() == t
        assert np.all((n == 0) == (q == 0))
        supp = q > 0
        assert np.all(np.abs(q - n / t) < np.sum(supp) / t)
        assert np.all(n[supp] >= min_p / 2 * t - 1e-9)
