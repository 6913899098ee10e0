"""Search over input ansatz (p, V, psi) at a fixed blocking level.

The ansatz is parametrized by an unconstrained real vector: softmax for the
distribution, paired real coordinates normalized to complex unit vectors
for the pure states. Optimization is random restarts plus Nelder-Mead
refinement (200 iterations), deterministic for a given seed regardless of
how restarts are scheduled. The objective rates all compound members at
once, on their Kraus stacks zero-padded to one count when the powers are
built: one ``pure_output_factors`` product and one member-stacked
``cqq_rates`` call (``regions.stacked_rect``), three ``eigvalsh`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import (
    INTERNAL_DIM_BUDGET,
    BudgetExceededError,
    CompoundSet,
    CqChannel,
    blocked_tensor_power,
)
from .qmatrix import PureState, zero_padded
from .regions import Rect, RateRegion, compound_rect_powered, stacked_rect

NM_ITERATIONS = 200


@dataclass(frozen=True)
class InputAnsatz:
    """One candidate (p, V, psi) for a fixed blocking level."""

    p: np.ndarray
    v_params: np.ndarray
    psi_params: np.ndarray
    seed: int = 0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
            raise ValueError("p is not a probability distribution")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v_params", np.asarray(self.v_params, dtype=float))
        object.__setattr__(self, "psi_params", np.asarray(self.psi_params, dtype=float))

    def cq_channel(self, da_l: int) -> CqChannel:
        return CqChannel(_state_vectors(self.v_params, self.p.size, da_l))

    def psi(self, db_l: int) -> PureState:
        return PureState(_state_vectors(self.psi_params, 1, db_l * db_l)[0], (db_l, db_l))


def _state_vectors(v_params: np.ndarray, x_size: int, da_l: int) -> np.ndarray:
    """(X, A) unit vectors, psi as X = 1; a row of norm < 1e-12 becomes basis vector x mod A."""
    raw = v_params.reshape(x_size, da_l, 2)
    norms = np.sqrt((raw * raw).sum(axis=(1, 2)))
    vecs = raw[:, :, 0] + 1j * raw[:, :, 1]
    small = norms < 1e-12
    if small.any():
        vecs[small] = np.eye(da_l)[np.flatnonzero(small) % da_l]
        norms[small] = 1.0
    return vecs / norms[:, None]


def _param_count(x_size: int, da_l: int, db_l: int) -> int:
    return x_size + 2 * x_size * da_l + 2 * db_l * db_l


def _split_flat(theta: np.ndarray, x_size: int, da_l: int):
    """Softmax distribution plus the raw V and psi parameter blocks."""
    logits = theta[:x_size]
    shifted = logits - np.max(logits)
    p = np.exp(shifted)
    p = p / p.sum()
    v_end = x_size + 2 * x_size * da_l
    return p, theta[x_size:v_end], theta[v_end:]


def _materialize_flat(theta: np.ndarray, x_size: int, da_l: int, db_l: int):
    p, v_params, psi_params = _split_flat(theta, x_size, da_l)
    return p, _state_vectors(v_params, x_size, da_l), _state_vectors(psi_params, 1, db_l * db_l)[0]


def _canonical_theta(x_size: int, da_l: int, db_l: int) -> np.ndarray:
    """Uniform p, computational-basis V, maximally entangled psi."""
    v = np.zeros((x_size, da_l, 2))
    v[np.arange(x_size), np.arange(x_size) % da_l, 0] = 1.0
    psi = np.zeros((db_l, db_l, 2))
    psi[np.arange(db_l), np.arange(db_l), 0] = 1.0
    return np.concatenate([np.zeros(x_size), v.reshape(-1), psi.reshape(-1)])


@dataclass(frozen=True)
class WeightOptimum:
    weights: tuple[float, float]
    rect: Rect
    ansatz: InputAnsatz
    objective: float
    restart_index: int


@dataclass(frozen=True)
class TraceResult:
    region: RateRegion
    optima: tuple[WeightOptimum, ...]
    truncated: bool
    evaluations: int


def pareto_trace(
    cset: CompoundSet,
    l: int,
    weights,
    budget: int,
    seed: int,
    alphabet_size: int | None = None,
    dim_budget: int = INTERNAL_DIM_BUDGET,
    max_evaluations: int | None = None,
) -> TraceResult:
    """Trace the achievable-region frontier at blocking level l.

    For each weight pair the weighted rate objective is maximized over
    ``budget`` restarts (restart 0 starts from the canonical ansatz, the
    rest from seeded Gaussian parameter vectors). If ``max_evaluations``
    runs out mid-run the best rectangles so far are returned with the
    truncation flag set.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    member = cset.members[0]
    if len(member.in_dims) != 2:
        raise ValueError("compound members must have a two-part (A, B) input")
    da, db = member.in_dims
    dc = member.out_dim
    da_l, db_l, dc_l = da**l, db**l, dc**l
    x_size = alphabet_size if alphabet_size is not None else da_l
    if x_size * db_l * dc_l > dim_budget:
        raise BudgetExceededError(
            f"block dimension {x_size * db_l * dc_l} exceeds budget {dim_budget}"
        )
    powered = [blocked_tensor_power(m, l, budget=dim_budget) for m in cset.members]
    stack = zero_padded([m.stacked for m in powered], 0)
    ndim = _param_count(x_size, da_l, db_l)
    weights = [(float(w1), float(w2)) for w1, w2 in weights]

    def restart_init(wi: int, r: int) -> np.ndarray:
        # one stream per (weight, restart): growing the budget only appends
        # restarts and any parallel schedule sees identical starting points
        key = [seed & 0xFFFFFFFFFFFFFFFF, wi, r]
        rng = np.random.default_rng(np.random.SeedSequence(key))
        return rng.standard_normal(ndim)

    evals = 0
    truncated = False

    def make_objective(w1: float, w2: float):
        def negated(theta: np.ndarray) -> float:
            nonlocal evals
            evals += 1
            p, v_vecs, psi_vec = _materialize_flat(theta, x_size, da_l, db_l)
            rect = stacked_rect(stack, l, p, v_vecs, psi_vec.reshape(db_l, db_l))
            val = w1 * rect.r1_max + w2 * rect.r2_max
            return -val if np.isfinite(val) else 1e6

        return negated

    optima: list[WeightOptimum] = []
    canonical = _canonical_theta(x_size, da_l, db_l)
    for wi, (w1, w2) in enumerate(weights):
        objective = make_objective(w1, w2)
        best: tuple[float, int, np.ndarray] | None = None
        for r in range(budget):
            if max_evaluations is not None and evals >= max_evaluations:
                truncated = True
                break
            theta0 = canonical if r == 0 else restart_init(wi, r)
            res = minimize(
                objective,
                theta0,
                method="Nelder-Mead",
                options={"maxiter": NM_ITERATIONS, "xatol": 1e-7, "fatol": 1e-10},
            )
            value = -float(res.fun)
            if best is None or (value, -r) > (best[0], -best[1]):
                best = (value, r, res.x)
        if best is None:
            break
        ans = InputAnsatz(*_split_flat(best[2], x_size, da_l), seed)
        rect = compound_rect_powered(powered, l, ans.p, ans.cq_channel(da_l), ans.psi(db_l))
        optima.append(WeightOptimum((w1, w2), rect, ans, best[0], best[1]))
        if truncated:
            break
    region = RateRegion(tuple(opt.rect for opt in optima)) if optima else RateRegion((Rect(0, 0),))
    return TraceResult(region, tuple(optima), truncated, evals)

