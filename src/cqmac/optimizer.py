"""Search over input ansatz (p, V, psi) at a fixed blocking level.

The ansatz is parametrized by an unconstrained real vector: softmax for the
distribution, paired real coordinates normalized to complex unit vectors
for the pure states. Optimization is random restarts, each refined by
L-BFGS-B on the exact gradient, deterministic for a given seed regardless of
how restarts are scheduled. The objective rates all compound members at
once, each at its own Kraus count: ``regions.level_kernel`` groups their
blocked powers by count and builds one ``RateKernel`` for them once per
trace, so each evaluation is one factor product for all groups, the Gram
products, one ``eigh`` per distinct Gram size and one entropy step. It
maximizes w1 r1 + w2 r2 on the raw per-use minima over the members
(``regions.per_use_minima_vjp``), so a negative rate still shows which way
is up. One step maps theta to the kernel's inputs with their pullback, so
the gradient runs backwards through the same layers (``RateKernel.vjp``,
then the normalizations and the softmax) on that same ``eigh``'s
eigenvectors. Each restart keeps the minima of its best evaluation, and the
reported corner clamps those at 0, so no input is rated twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import CompoundSet
from .regions import Rect, RateRegion, level_kernel, per_use_minima_vjp


class _EvaluationCap(Exception):
    """The trace's ``max_evaluations`` are spent."""


def _unit_rows(raw: np.ndarray, dim: int):
    """(Re, Im) pairs as unit rows of length ``dim`` (a row of norm < 1e-12
    becomes basis vector x mod ``dim``) and the pullback to ``raw`` of a real
    f's cotangent (d/d conj) on those rows y = z/|z|: (cot - Re<y, cot> y)/|z|
    as 2 (Re, Im) pairs; a basis-vector fallback row passes back 0."""
    raw = raw.reshape(-1, dim, 2)
    norms = np.sqrt((raw * raw).sum(axis=(1, 2)))
    rows = raw[:, :, 0] + 1j * raw[:, :, 1]
    small = norms < 1e-12
    if small.any():
        rows[small] = np.eye(dim)[np.flatnonzero(small) % dim]
        norms[small] = 1.0
    rows = rows / norms[:, None]

    def pullback(cot: np.ndarray) -> np.ndarray:
        dz = np.where(small[:, None], 0.0,
                      cot - (rows.conj() * cot).real.sum(axis=1, keepdims=True) * rows)
        dz = dz / norms[:, None]
        return 2.0 * np.stack([dz.real, dz.imag], axis=-1).reshape(-1)

    return rows, pullback


def _param_count(x_size: int, da_l: int, db_l: int) -> int:
    return x_size + 2 * x_size * da_l + 2 * db_l * db_l


def _inputs(theta: np.ndarray, x_size: int, da_l: int, db_l: int):
    """Softmax p, the (X, A) letters and psi as its (ref, in) grid, as the
    kernel takes them, and the pullback to theta of a real f's cotangents on
    them: ``pullback(dp, dletters, dpsi)``, d/dp and d/d conj."""
    v_end = x_size + 2 * x_size * da_l
    p = np.exp(theta[:x_size] - np.max(theta[:x_size]))
    p = p / p.sum()
    letters, letters_back = _unit_rows(theta[x_size:v_end], da_l)
    psi, psi_back = _unit_rows(theta[v_end:], db_l * db_l)

    def pullback(dp, dletters, dpsi) -> np.ndarray:
        return np.concatenate([p * (dp - p @ dp), letters_back(dletters),
                               psi_back(dpsi.reshape(1, -1))])

    return (p, letters, psi.reshape(db_l, db_l)), pullback


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
    that clamps the per-use minima of that same evaluation at 0."""

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
    kernel = level_kernel(cset.members, l, (x_size, da_l), (db_l, db_l))
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
        (value, theta, per-use minima). scipy checks its own evaluation limit
        only between iterations, so the cap is kept here, exactly."""

        def negated(theta: np.ndarray):
            nonlocal evals
            if evals == max_evaluations:
                raise _EvaluationCap
            evals += 1
            inputs, pullback = _inputs(theta, x_size, da_l, db_l)
            (r1, r2), backward = per_use_minima_vjp(kernel, l, *inputs)
            val = w1 * r1 + w2 * r2
            if not np.isfinite(val):
                return 1e6, np.zeros(ndim)
            if val > seen[0]:
                seen[:] = val, theta.copy(), (r1, r2)
            return -val, -pullback(*backward(w1, w2))

        return negated

    optima: list[WeightOptimum] = []
    canonical = _canonical_theta(x_size, da_l, db_l)
    for wi, (w1, w2) in enumerate(weights):
        best = None
        for r in range(budget):
            if max_evaluations is not None and evals >= max_evaluations:
                truncated = True
                break
            theta0 = canonical if r == 0 else restart_init(wi, r)
            seen = [-np.inf, theta0, (0.0, 0.0)]
            try:
                res = minimize(make_objective(w1, w2, seen), theta0, method="L-BFGS-B", jac=True)
                statuses.append(int(res.status))
            except _EvaluationCap:
                statuses.append(1)
                truncated = True
            if best is None or (seen[0], -r) > (best[0], -best[1]):
                best = (seen[0], r, *seen[1:])
        if best is None:
            break
        objective, restart, theta, minima = best
        (p, letters, psi), _ = _inputs(theta, x_size, da_l, db_l)
        optima.append(WeightOptimum((w1, w2), Rect(*minima), p, letters, psi, objective, restart))
        if truncated:
            break
    region = RateRegion(tuple(opt.rect for opt in optima))
    return TraceResult(region, tuple(optima), truncated, evals, tuple(statuses))

