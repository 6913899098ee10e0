"""The one budget rule, route by route: no single array above
``channels.BUDGET_ENTRIES`` (2^25) entries, refused by name before it exists.

Each test patches the call that would allocate the route's largest array to
raise, so an admitted configuration reaches that call and a refused one
never does.
"""

import numpy as np
import pytest

from cqmac import channels, codesim, optimizer, regions
from cqmac.channels import BudgetExceededError, CompoundSet, CqChannel, KrausChannel
from cqmac.optimizer import pareto_trace
from cqmac.qmatrix import maximally_entangled, maximally_mixed
from cqmac.regions import compound_rect
from oracles import random_et_code


def _unbuilt(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} built")

    return refuse


def _outcome(refused, reached):
    """The error a call raises: the refusal naming its array, or the patched call."""
    if refused:
        return pytest.raises(BudgetExceededError, match=f"^{refused} of shape")
    return pytest.raises(AssertionError, match=f"{reached} built")


@pytest.fixture
def identity_set(identity_qmac):
    return CompoundSet((identity_qmac,))


@pytest.mark.parametrize(
    "name, l, alphabet, refused",
    [
        ("identity_set", 5, None, None),
        ("identity_set", 6, None, None),  # u (4096, 4096)
        ("identity_set", 7, None, "factor product u"),  # (16384, 16384)
        ("id_deph_set", 4, None, None),  # u (256, 4352), the largest: 1114112 entries
        ("id_deph_set", 5, None, "factor product u"),  # (1024, 33792)
        ("id_deph_set", 5, 1, "stacked Kraus powers"),  # u (32, 33792); powers (1024, 33792)
        ("dephrasure_set", 3, None, None),  # u (64, 13824)
    ],
)
def test_frontier_level(request, monkeypatch, name, l, alphabet, refused):
    """A refused level builds no power (and so no kernel buffer)."""
    monkeypatch.setattr(optimizer, "blocked_tensor_power", _unbuilt("power"))
    with _outcome(refused, "power"):
        pareto_trace(request.getfixturevalue(name), l, [(1.0, 1.0)], budget=1, seed=0,
                     alphabet_size=alphabet)


def test_dephrasure_frontier_runs_at_level_3(dephrasure_set):
    """Dephrasure at l=3, whose largest array is u (64, 13824), runs two evaluations:
    restart 0 stops at once (its canonical start is a stationary point at weight
    0:1), and restart 1 is cut at the cap."""
    res = pareto_trace(dephrasure_set, 3, [(0, 1)], budget=2, seed=0, max_evaluations=2)
    assert res.evaluations == 2 and res.truncated
    assert np.isfinite(res.optima[0].objective)


def test_compound_rect_at_level_4(identity_set):
    """The identity at l=4 (a 256-dimensional input) rates log2(16) per 4 uses on both sides."""
    rect = compound_rect(identity_set, 4, np.full(16, 1 / 16), CqChannel.basis(16),
                         maximally_entangled(16))
    assert rect.r1_max == pytest.approx(1.0, abs=1e-9)
    assert rect.r2_max == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("budget, refused", [(48, None), (47, "factor product u")])
def test_rate_kernel_product(monkeypatch, id_deph_set, basis_v, bell_psi, uniform_p,
                             budget, refused):
    """The pair's u at l=1 is (2·2, (1 + 2)·4) = 48 entries, refused in
    ``_OutputStep`` before its first buffer."""
    monkeypatch.setattr(channels, "BUDGET_ENTRIES", budget)
    monkeypatch.setattr(np, "empty", _unbuilt("kernel buffer"))
    with _outcome(refused, "kernel buffer"):
        compound_rect(id_deph_set, 1, uniform_p, basis_v, bell_psi)


def test_compound_rect_stacked_powers(monkeypatch, id_deph_set, bell_psi):
    """With one letter the pair's u at l=1 is (2, (1 + 2)·4) = 24 entries, but
    the members' stacked Kraus powers are (4, 12) = 48: at a budget of 40 they
    are refused before ``kraus_groups`` stacks them."""
    monkeypatch.setattr(channels, "BUDGET_ENTRIES", 40)
    monkeypatch.setattr(regions, "kraus_groups", _unbuilt("stack"))
    with pytest.raises(BudgetExceededError, match=r"^stacked Kraus powers of shape \(4, 12\)"):
        compound_rect(id_deph_set, 1, [1.0], CqChannel.basis(2, 1), bell_psi)


@pytest.mark.parametrize("n, m2, refused", [(4, 16, None), (5, 2, "word blocks")])
def test_simulator_blocklength(monkeypatch, id_deph_set, n, m2, refused):
    """The pair's word blocks: (16, 3^4 + 4^4, 16, 4^4) = 22085632 entries fit,
    (32, 3^5 + 4^5, 2, 4^5) = 83034112 do not."""
    families = [codesim.effective_b_channel(m, np.full(2, 0.5), CqChannel.basis(2))
                for m in id_deph_set.members]
    monkeypatch.setattr(codesim, "haar_isometries", _unbuilt("encoder"))
    with _outcome(refused, "encoder"):
        codesim.sample_et_code(families, 2, n, m2, seed=0)


@pytest.mark.parametrize("m1, refused", [(32, None), (33, "POVM stack")])
def test_codebook_povm(monkeypatch, identity_qmac, basis_v, m1, refused):
    """m1 POVM elements on C^5 = 4^5 dimensions: m1 · 4^10 fits up to m1 = 32."""
    outs = codesim.effective_a_outputs(identity_qmac, basis_v, maximally_mixed(2))
    monkeypatch.setattr(codesim, "_word_factors", _unbuilt("codeword factors"))
    with _outcome(refused, "codeword factors"):
        codesim.pgm_codebook([outs], [(0,) * 5] * m1)


class _Unmultiplied(np.ndarray):
    """Kraus operators whose first product raises: the fed stack's allocating call."""

    def __matmul__(self, other):
        raise AssertionError("fed stack built")

    __rmatmul__ = __matmul__


@pytest.mark.parametrize("budget, refused", [(32, None), (31, "fed stack")])
@pytest.mark.parametrize("route", ["performance", "converse_check"])
def test_code_evaluation(monkeypatch, identity_qmac, route, budget, refused):
    """A random n=1 code on the identity feeds 8 input columns through 4 rows:
    a 32-entry stack, refused by ``_fed_stack`` before it multiplies once the
    budget is below that."""
    code = random_et_code(np.random.default_rng(3))
    ops = identity_qmac.stacked.copy().view(_Unmultiplied)
    channel = KrausChannel._trusted(ops, identity_qmac.in_dims, identity_qmac.out_dims)
    monkeypatch.setattr(channels, "BUDGET_ENTRIES", budget)
    with _outcome(refused, "fed stack"):
        if route == "performance":
            codesim.performance(code, channel)
        else:
            codesim.converse_check(code, CompoundSet((channel,)))
