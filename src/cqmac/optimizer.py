"""Search over input ansatz (p, V, psi) at a fixed blocking level.

The ansatz is parametrized by an unconstrained real vector: softmax for the
distribution, paired real coordinates normalized to complex unit vectors
for the pure states. Optimization is random restarts, each refined by
L-BFGS-B on the exact gradient, deterministic for a given seed regardless of
how restarts are scheduled. The objective rates all compound members at
once, each at its own Kraus count: the powers are grouped by count
(``regions.kraus_groups``) and a ``RateKernel`` is built for them once per
trace, so each evaluation is one factor product for all groups, the Gram
products, one ``eigh`` per distinct Gram size and one entropy step. It
maximizes w1 r1 + w2 r2 on the raw per-use minima over the members
(``regions.per_use_minima``), so a negative rate still shows which way is
up. Its gradient runs backwards through the same layers
(``regions.per_use_minima_vjp``, ``RateKernel.vjp``, then the normalizations
and the softmax), on that same ``eigh``'s eigenvectors. Each reported corner
is rated by the trace's kernel too, on the input the objective scored, and its
rectangle clamps those minima at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import CompoundSet, blocked_tensor_power, check_budget
from .entropic import RateKernel
from .regions import Rect, RateRegion, kraus_groups, per_use_minima, per_use_minima_vjp


class _EvaluationCap(Exception):
    """The trace's ``max_evaluations`` are spent."""


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


def _unit_pullback(v_params: np.ndarray, x_size: int, dim: int, cot: np.ndarray) -> np.ndarray:
    """The gradient in ``v_params`` of a real f whose cotangent (d/d conj) on the
    ``_state_vectors`` rows y = z/|z| is ``cot``: (cot - Re<y, cot> y)/|z|
    as 2 (Re, Im) pairs; a basis-vector fallback row passes back 0."""
    raw = v_params.reshape(x_size, dim, 2)
    norms = np.sqrt((raw * raw).sum(axis=(1, 2)))
    live = norms >= 1e-12
    norms = np.where(live, norms, 1.0)[:, None]
    y = (raw[:, :, 0] + 1j * raw[:, :, 1]) / norms
    dz = np.where(live[:, None], cot - (y.conj() * cot).real.sum(axis=1, keepdims=True) * y, 0.0)
    dz = dz / norms
    return 2.0 * np.stack([dz.real, dz.imag], axis=-1).reshape(-1)


def _param_count(x_size: int, da_l: int, db_l: int) -> int:
    return x_size + 2 * x_size * da_l + 2 * db_l * db_l


def _materialize_flat(theta: np.ndarray, x_size: int, da_l: int, db_l: int):
    """Softmax p, the (X, A) letters and psi as its (ref, in) grid, as the kernel takes them."""
    v_end = x_size + 2 * x_size * da_l
    psi_grid = _state_vectors(theta[v_end:], 1, db_l * db_l).reshape(db_l, db_l)
    return _softmax(theta[:x_size]), _state_vectors(theta[x_size:v_end], x_size, da_l), psi_grid


def _softmax(logits: np.ndarray) -> np.ndarray:
    p = np.exp(logits - np.max(logits))
    return p / p.sum()


def _flat_gradient(theta: np.ndarray, x_size: int, da_l: int, db_l: int, dp, dletters, dpsi):
    """The gradient in theta of a real f from its cotangents on
    ``_materialize_flat``'s p (d/dp), letters and psi grid (d/d conj)."""
    p = _softmax(theta[:x_size])
    v_end = x_size + 2 * x_size * da_l
    return np.concatenate([p * (dp - p @ dp),
                           _unit_pullback(theta[x_size:v_end], x_size, da_l, dletters),
                           _unit_pullback(theta[v_end:], 1, db_l * db_l, dpsi.reshape(1, -1))])


def _canonical_theta(x_size: int, da_l: int, db_l: int) -> np.ndarray:
    """Uniform p, computational-basis V, maximally entangled psi."""
    v = np.zeros((x_size, da_l, 2))
    v[np.arange(x_size), np.arange(x_size) % da_l, 0] = 1.0
    psi = np.zeros((db_l, db_l, 2))
    psi[np.arange(db_l), np.arange(db_l), 0] = 1.0
    return np.concatenate([np.zeros(x_size), v.reshape(-1), psi.reshape(-1)])


@dataclass(frozen=True)
class WeightOptimum:
    """The best input of one weight pair, as the objective scored it: ``p``,
    the (X, A) ``letters`` and the (ref, in) ``psi`` grid, with the rectangle
    the trace's kernel rates on them."""

    weights: tuple[float, float]
    rect: Rect
    p: np.ndarray
    letters: np.ndarray
    psi: np.ndarray
    objective: float
    restart_index: int


@dataclass(frozen=True)
class TraceResult:
    """``statuses`` holds each restart's L-BFGS-B exit status in run order:
    0 converged, 1 stopped on the evaluation cap (``max_evaluations``, or
    scipy's own iteration and evaluation limits), 2 stopped otherwise, such as
    on a line search that found no decrease."""

    region: RateRegion
    optima: tuple[WeightOptimum, ...]
    truncated: bool
    evaluations: int
    statuses: tuple[int, ...] = ()


def pareto_trace(
    cset: CompoundSet,
    l: int,
    weights,
    budget: int,
    seed: int,
    alphabet_size: int | None = None,
    max_evaluations: int | None = None,
) -> TraceResult:
    """Trace the achievable-region frontier at blocking level l.

    For each weight pair the weighted rate objective is maximized over
    ``budget`` restarts (restart 0 starts from the canonical ansatz, the
    rest from seeded Gaussian parameter vectors). ``max_evaluations`` caps
    the objective evaluations of the whole trace: each restart may spend what
    is left, and once it is spent the best rectangles so far are returned
    with the truncation flag set.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    member = cset.members[0]
    if len(member.in_dims) != 2:
        raise ValueError("compound members must have a two-part (A, B) input")
    da, db = member.in_dims
    da_l, db_l = da**l, db**l
    x_size = alphabet_size if alphabet_size is not None else da_l
    ndim = _param_count(x_size, da_l, db_l)
    # the kernel's product u (as ``RateKernel.inputs`` checks it; the gradient's
    # largest array, its cotangent, has u's shape) and the members' powers side
    # by side (as ``kraus_groups`` and the kernel stack them), refused before
    # any power or kernel buffer is built
    width = sum(len(m.stacked) ** l for m in cset.members) * member.out_dim**l
    check_budget("factor product u", (x_size * db_l, width))
    check_budget("stacked Kraus powers", (da_l * db_l, width))
    powered = [blocked_tensor_power(m, l) for m in cset.members]
    kernel = RateKernel.inputs(kraus_groups(powered), (x_size, da_l), (db_l, db_l))
    weights = [(float(w1), float(w2)) for w1, w2 in weights]

    def restart_init(wi: int, r: int) -> np.ndarray:
        # one stream per (weight, restart): growing the budget only appends
        # restarts and any parallel schedule sees identical starting points
        key = [seed & 0xFFFFFFFFFFFFFFFF, wi, r]
        rng = np.random.default_rng(np.random.SeedSequence(key))
        return rng.standard_normal(ndim)

    evals = 0
    truncated = False
    statuses: list[int] = []

    def make_objective(w1: float, w2: float, seen: list):
        """-(w1 r1 + w2 r2) and its gradient; ``seen`` keeps the restart's best
        (value, theta). scipy checks its own evaluation limit only between
        iterations, so the cap is kept here, exactly."""

        def negated(theta: np.ndarray):
            nonlocal evals
            if evals == max_evaluations:
                raise _EvaluationCap
            evals += 1
            (r1, r2), backward = per_use_minima_vjp(
                kernel, l, *_materialize_flat(theta, x_size, da_l, db_l))
            val = w1 * r1 + w2 * r2
            if not np.isfinite(val):
                return 1e6, np.zeros(ndim)
            if val > seen[0]:
                seen[:] = val, theta.copy()
            return -val, -_flat_gradient(theta, x_size, da_l, db_l, *backward(w1, w2))

        return negated

    optima: list[WeightOptimum] = []
    canonical = _canonical_theta(x_size, da_l, db_l)
    for wi, (w1, w2) in enumerate(weights):
        best: tuple[float, int, np.ndarray] | None = None
        for r in range(budget):
            if max_evaluations is not None and evals >= max_evaluations:
                truncated = True
                break
            theta0 = canonical if r == 0 else restart_init(wi, r)
            seen = [-np.inf, theta0]
            try:
                res = minimize(make_objective(w1, w2, seen), theta0, method="L-BFGS-B", jac=True)
                statuses.append(int(res.status))
            except _EvaluationCap:
                statuses.append(1)
                truncated = True
            if best is None or (seen[0], -r) > (best[0], -best[1]):
                best = (seen[0], r, seen[1])
        if best is None:
            break
        p, letters, psi = _materialize_flat(best[2], x_size, da_l, db_l)
        rect = Rect(*per_use_minima(kernel, l, p, letters, psi))
        optima.append(WeightOptimum((w1, w2), rect, p, letters, psi, best[0], best[1]))
        if truncated:
            break
    region = RateRegion(tuple(opt.rect for opt in optima)) if optima else RateRegion((Rect(0, 0),))
    return TraceResult(region, tuple(optima), truncated, evals, tuple(statuses))

