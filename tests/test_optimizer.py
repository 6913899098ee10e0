import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqmac.channels import (
    BudgetExceededError,
    CompoundSet,
    CqChannel,
    KrausChannel,
    blocked_tensor_power,
)
from cqmac.entropic import RateKernel, grouped_rates, pure_output_factors
from cqmac.optimizer import _materialize_flat, _param_count, _state_vectors, pareto_trace
from cqmac.qmatrix import PureState
from cqmac.regions import compound_rect_powered, kraus_groups, per_use_minima
from oracles import eigvalsh_buckets, member_gram_sizes, random_kraus_ops


def test_package_resolves_optimizer_names_on_use():
    import cqmac
    from cqmac import optimizer
    from cqmac import pareto_trace as lazy_trace

    assert lazy_trace is pareto_trace
    assert cqmac.pareto_trace is optimizer.pareto_trace
    assert "pareto_trace" in cqmac.__all__
    assert "optimizer" in cqmac.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        cqmac.no_such_name


def test_every_exported_name_resolves():
    """In a fresh process every name in ``cqmac.__all__`` resolves, the lazily
    imported ``optimizer`` submodule first: a stale lazy name fails here."""
    probe = "import cqmac\nfor name in ('optimizer', *cqmac.__all__):\n    getattr(cqmac, name)\n"
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _objective_rates(stacks, p, v_vecs, psi_grid):
    """(r1, r2) arrays over the members, each Kraus stack its own group: the
    rates of the raw factors, which the objective minimizes over."""
    return grouped_rates(p, [pure_output_factors(ks, v_vecs, psi_grid) for ks in stacks])


def _first_objective(monkeypatch, cset, l, weights):
    """The objective (theta -> (value, gradient)) and start that ``pareto_trace``
    hands its first ``minimize`` call."""
    from cqmac import optimizer

    objectives = []

    def first_objective(fun, x0, **kwargs):
        objectives.append((fun, x0))
        raise StopIteration

    monkeypatch.setattr(optimizer, "minimize", first_objective)
    with pytest.raises(StopIteration):
        pareto_trace(cset, l, [weights], budget=1, seed=0)
    (found,) = objectives
    return found


def _random_set(rng) -> CompoundSet:
    """Three random QMACs (2, 2) -> 4 with Kraus counts 1, 3 and 4: the first's
    C-side Grams are K ref wide (m† m), the others' out wide (m m†)."""
    return CompoundSet(tuple(KrausChannel(random_kraus_ops(rng, 4, 4, count), (2, 2), (4,))
                             for count in (1, 3, 4)))


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
    # an all-zero θ materializes to p = (1), letter |0> and psi = |00>
    p, letters, psi = _materialize_flat(np.zeros(_param_count(1, 1, 2)), 1, 1, 2)
    assert np.array_equal(p, [1.0]) and np.array_equal(letters, [[1.0]])
    assert np.array_equal(psi.reshape(-1), np.eye(4)[0])


class TestParetoTrace:
    def test_identity_reaches_corner(self, identity_qmac):
        res = pareto_trace(CompoundSet((identity_qmac,)), 1, [(1.0, 1.0)], budget=4, seed=3)
        rect = res.optima[0].rect
        assert rect.r1_max >= 1.0 - 0.02
        assert rect.r2_max >= 1.0 - 0.02

    def test_depolarizing_flat(self, depolarizing_qmac):
        res = pareto_trace(CompoundSet((depolarizing_qmac,)), 1, [(1.0, 1.0)], budget=2, seed=3)
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
        psi = PureState(opt.psi, (2, 2))
        rect = compound_rect(id_deph_set, 1, opt.p, CqChannel(opt.letters), psi)
        assert rect.r1_max == pytest.approx(opt.rect.r1_max, abs=1e-9)
        assert rect.r2_max == pytest.approx(opt.rect.r2_max, abs=1e-9)

    def test_truncation_flag(self, identity_qmac):
        res = pareto_trace(
            CompoundSet((identity_qmac,)), 1, [(1.0, 1.0), (0.0, 1.0)],
            budget=4, seed=2, max_evaluations=40,
        )
        assert res.truncated
        assert res.evaluations == 40

    def test_dim_budget(self, identity_qmac, monkeypatch):
        """The identity's factor product u is (X ref, K out) = (4^l, 4^l). At
        l=6, (4096, 4096) is admitted and the power gets built; at l=7,
        (16384, 16384) holds more than 2^25 entries, so it is refused by name
        before any power is built."""
        from cqmac import optimizer

        def unbuilt(*args, **kwargs):
            raise AssertionError("a power was built")

        monkeypatch.setattr(optimizer, "blocked_tensor_power", unbuilt)
        with pytest.raises(AssertionError, match="a power was built"):
            pareto_trace(CompoundSet((identity_qmac,)), 6, [(1.0, 1.0)], budget=1, seed=0)
        refusal = (r"factor product u of shape \(16384, 16384\) has 268435456 entries, "
                   r"above the budget of 33554432")
        with pytest.raises(BudgetExceededError, match=refusal):
            pareto_trace(CompoundSet((identity_qmac,)), 7, [(1.0, 1.0)], budget=1, seed=0)

    def test_fast_route_matches_public(self, id_deph_set, rng):
        for l in (1, 2):
            powered = [blocked_tensor_power(m, l) for m in id_deph_set.members]
            stacks = [m.stacked for m in powered]
            da_l = db_l = 2**l
            nd = _param_count(da_l, da_l, db_l)
            for _ in range(3):
                theta = rng.standard_normal(nd)
                p, vv, pv = _materialize_flat(theta, da_l, da_l, db_l)
                fast_r1, fast_r2 = _objective_rates(stacks, p, vv, pv)
                r1 = max(0.0, fast_r1.min()) / l
                r2 = max(0.0, fast_r2.min()) / l
                rect = compound_rect_powered(
                    powered, l, p, CqChannel.from_vectors(vv), PureState(pv, (db_l, db_l))
                )
                assert rect.r1_max == pytest.approx(r1, abs=1e-9)
                assert rect.r2_max == pytest.approx(r2, abs=1e-9)

    def test_objective_spectra_per_evaluation(self, id_deph_set, monkeypatch):
        """One evaluation at l=2 takes one stacked ``eigvalsh`` per distinct Gram
        size over S(C), S(BC) and the average C state of every member, each
        member at its own Kraus count, for the value, then one ``eigh`` on each
        of the same stacks for the gradient."""
        fun, x0 = _first_objective(monkeypatch, id_deph_set, 2, (1.0, 1.0))
        calls = []

        def counted(name):
            original = getattr(np.linalg, name)

            def spectrum(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spectrum)

        counted("eigvalsh")
        counted("eigh")
        fun(np.random.default_rng(1).standard_normal(x0.size))
        # B = 2^2, C = 4^2; the identity keeps its one Kraus op, the dephasing member has 4
        sizes = [member_gram_sizes(4, 16, k, 4) for k in (1, 4)]
        expected = eigvalsh_buckets([(s[kind], 1 if kind == 2 else 4)
                                     for kind in range(3) for s in sizes])
        assert expected == [(8, 4, 4), (6, 16, 16), (4, 1, 1)]
        assert calls == [(name, s) for name in ("eigvalsh", "eigh") for s in expected]

    @pytest.mark.parametrize("l", [1, 2])
    def test_objective_and_rect_share_one_route(self, id_deph_set, l):
        """Each optimum's objective is the weighted raw per-use minima of its
        ansatz, exactly, and the reported rectangle clamps those same minima
        exactly: the trace rates its corners with the kernel it searched with."""
        weights = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        res = pareto_trace(id_deph_set, l, weights, budget=1, seed=4)
        assert len(res.optima) == 3
        d = 2**l
        powered = [blocked_tensor_power(m, l) for m in id_deph_set.members]
        kernel = RateKernel.inputs(kraus_groups(powered), (d, d), (d, d))
        for opt in res.optima:
            w1, w2 = opt.weights
            r1, r2 = per_use_minima(kernel, l, opt.p, opt.letters, opt.psi)
            assert opt.objective == w1 * r1 + w2 * r2
            assert opt.rect.r1_max == max(0.0, r1)
            assert opt.rect.r2_max == max(0.0, r2)

    def test_one_kernel_per_trace(self, id_deph_set, monkeypatch):
        """A trace over three weights builds one ``RateKernel`` for its
        objective and its corners, and never rates through ``compound_rect_powered``."""
        from cqmac import regions

        calls = []
        inputs, powered = RateKernel.inputs, regions.compound_rect_powered

        def counted_inputs(*args, **kwargs):
            calls.append("inputs")
            return inputs(*args, **kwargs)

        def counted_powered(*args, **kwargs):
            calls.append("compound_rect_powered")
            return powered(*args, **kwargs)

        monkeypatch.setattr(RateKernel, "inputs", staticmethod(counted_inputs))
        monkeypatch.setattr(regions, "compound_rect_powered", counted_powered)
        res = pareto_trace(id_deph_set, 1, [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], budget=1, seed=4)
        assert len(res.optima) == 3
        assert calls == ["inputs"]

    def test_objective_sees_negative_rates(self, dephrasure_set):
        """On the dephrasure QMAC the maximally entangled start has negative
        coherent information; the objective reads the unclamped minimum, so the
        search leaves that plateau and finds the positive rate."""
        res = pareto_trace(dephrasure_set, 1, [(0.0, 1.0)], budget=4, seed=0)
        assert res.optima[0].rect.r2_max >= 0.0036

    def test_restart_statuses(self, identity_qmac):
        """One L-BFGS-B status per restart run, in order; a capped trace ends on 1."""
        res = pareto_trace(CompoundSet((identity_qmac,)), 1, [(1.0, 1.0), (0.0, 1.0)],
                           budget=2, seed=2)
        assert len(res.statuses) == 4 and set(res.statuses) <= {0, 1, 2}
        capped = pareto_trace(CompoundSet((identity_qmac,)), 1, [(1.0, 1.0), (0.0, 1.0)],
                              budget=4, seed=2, max_evaluations=40)
        assert capped.statuses[-1] == 1 and 1 not in capped.statuses[:-1]

    @pytest.mark.parametrize("case", ["pair-l2", "random-3"])
    def test_stacked_objective_matches_member_loop(self, id_deph_set, rng, monkeypatch, case):
        """The objective against the per-member loop it replaced, at 1e-12 on 50 θ:
        the unclamped minima over the members, weighted."""
        cset, l = (id_deph_set, 2) if case == "pair-l2" else (_random_set(rng), 1)
        w1, w2 = 0.3, 0.7
        fun, x0 = _first_objective(monkeypatch, cset, l, (w1, w2))
        stacks = [blocked_tensor_power(m, l).stacked for m in cset.members]
        da_l = db_l = 2**l
        for _ in range(50):
            theta = rng.standard_normal(x0.size)
            p, vv, pv = _materialize_flat(theta, da_l, da_l, db_l)
            rates_1, rates_2 = _objective_rates(stacks, p, vv, pv)
            r1 = rates_1.min() / l
            r2 = rates_2.min() / l
            assert fun(theta)[0] == pytest.approx(-(w1 * r1 + w2 * r2), abs=1e-12)

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
            (r1,), (r2,) = _objective_rates(stacks, p, vv, pv)
            vals.append(r1 + r2)
        vals = np.asarray(vals)
        assert np.all(np.isfinite(vals))
        quotients = np.diff(vals) / np.diff(ts)
        assert np.max(np.abs(quotients)) < 1e3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, l", [("random", 1), ("pair", 1), ("pair", 2),
                                         ("dephrasure", 1), ("dephrasure", 2)])
    def test_gradient_matches_finite_differences(self, request, rng, monkeypatch, case, l):
        """The objective's gradient against central differences (h = 1e-6) of its
        value route, at a random θ and at one with a -800 logit, whose p has an
        exact zero, which the kernel weighs out. The value returned with
        the gradient is the value run's, bit for bit."""
        cset = {"random": lambda: _random_set(rng), "pair": lambda: request.getfixturevalue(
            "id_deph_set"), "dephrasure": lambda: request.getfixturevalue("dephrasure_set")}[case]()
        w1, w2 = 0.3, 0.7
        fun, x0 = _first_objective(monkeypatch, cset, l, (w1, w2))
        d = 2**l
        powered = [blocked_tensor_power(m, l) for m in cset.members]
        kernel = RateKernel.inputs(kraus_groups(powered), (d, d), (d, d))

        def value(theta):
            r1, r2 = per_use_minima(kernel, l, *_materialize_flat(theta, d, d, d))
            return -(w1 * r1 + w2 * r2)

        zero_p = rng.standard_normal(x0.size)
        zero_p[0] = -800.0
        for theta in (rng.standard_normal(x0.size), zero_p):
            f, grad = fun(theta)
            assert f == value(theta)
            steps = 1e-6 * np.eye(x0.size)
            fd = np.array([(value(theta + e) - value(theta - e)) / 2e-6 for e in steps])
            assert np.max(np.abs(grad - fd)) < 1e-7
        assert grad[0] == 0.0 == fd[0]

    @pytest.mark.parametrize("l, weights, corner", [(1, (1.0, 1.0), (1.0, 0.00364)),
                                                    (2, (0.0, 1.0), (0.0, 0.0065))])
    def test_dephrasure_corners(self, dephrasure_set, l, weights, corner):
        """The dephrasure corners (budget 4, seed 0): at l=1 and weight 1:1 the
        product corner (1, 0.003641), which one input reaches; at l=2 and weight
        0:1 the blocked gain, 0.0065 per use against 0.00364 at l=1."""
        rect = pareto_trace(dephrasure_set, l, [weights], budget=4, seed=0).optima[0].rect
        assert rect.r1_max >= corner[0] - 1e-9 and rect.r2_max >= corner[1]
