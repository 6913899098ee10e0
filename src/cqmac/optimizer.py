"""Search over input ansatz (p, V, psi) at a fixed blocking level.

The ansatz is parametrized by an unconstrained real vector: softmax for the
distribution, paired real coordinates normalized to complex unit vectors
for the pure states. Optimization is random restarts plus Nelder-Mead
refinement (200 iterations), deterministic for a given seed regardless of
how restarts are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import BudgetExceededError, CompoundSet, CqChannel, blocked_tensor_power
from .entropic import entropy_of_spectrum, pure_output_factor
from .qmatrix import PureState, hermitian_eig, tensor_all
from .regions import Rect, RateRegion, compound_rect_powered

DEFAULT_DIM_BUDGET = 4096
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
        return CqChannel.from_vectors(_state_vectors(self.v_params, self.p.size, da_l))

    def psi(self, db_l: int) -> PureState:
        return PureState(_psi_vector(self.psi_params, db_l), (db_l, db_l))


def _state_vectors(v_params: np.ndarray, x_size: int, da_l: int) -> list[np.ndarray]:
    raw = v_params.reshape(x_size, da_l, 2)
    vecs = []
    for i in range(x_size):
        v = raw[i, :, 0] + 1j * raw[i, :, 1]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            v = np.zeros(da_l, dtype=complex)
            v[i % da_l] = 1.0
            norm = 1.0
        vecs.append(v / norm)
    return vecs


def _psi_vector(psi_params: np.ndarray, db_l: int) -> np.ndarray:
    raw = psi_params.reshape(db_l * db_l, 2)
    v = raw[:, 0] + 1j * raw[:, 1]
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        v = np.zeros(db_l * db_l, dtype=complex)
        v[0] = 1.0
        norm = 1.0
    return v / norm


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
    return p, _state_vectors(v_params, x_size, da_l), _psi_vector(psi_params, db_l)


def _canonical_theta(x_size: int, da_l: int, db_l: int) -> np.ndarray:
    """Uniform p, computational-basis V, maximally entangled psi."""
    theta = np.zeros(_param_count(x_size, da_l, db_l))
    v = np.zeros((x_size, da_l, 2))
    for i in range(x_size):
        v[i, i % da_l, 0] = 1.0
    psi = np.zeros((db_l * db_l, 2))
    for i in range(db_l):
        psi[i * db_l + i, 0] = 1.0
    theta[x_size : x_size + v.size] = v.reshape(-1)
    theta[x_size + v.size :] = psi.reshape(-1)
    return theta


def _gram_entropy(columns: np.ndarray) -> float:
    """Entropy of sum_k u_k u_k† from the small Gram matrix of the columns."""
    gram = columns.conj().T @ columns
    return entropy_of_spectrum(np.linalg.eigvalsh(gram))


def _fast_rates(kraus_stacks, p, v_vecs, psi_vec, da_l: int, db_l: int):
    """Rate pair per compound member, raw-array route for the search loop.

    Exploits purity of the ansatz: per label the channel output has rank at
    most the Kraus count, so the joint entropy comes from a small Gram
    matrix instead of the full output matrix.
    """
    psi_grid = psi_vec.reshape(db_l, db_l)
    rates = []
    for kstack in kraus_stacks:
        dc = kstack.shape[1]
        avg_c = np.zeros((dc, dc), dtype=complex)
        holevo_cond = 0.0
        coherent = 0.0
        for x in range(p.size):
            if p[x] <= 0:
                continue
            u = pure_output_factor(kstack, v_vecs[x], psi_grid)  # (ref, C, kraus)
            marg_c = np.einsum("rck,rdk->cd", u, u.conj())
            avg_c += p[x] * marg_c
            s_c = entropy_of_spectrum(np.linalg.eigvalsh(marg_c))
            holevo_cond += p[x] * s_c
            coherent += p[x] * (s_c - _gram_entropy(u.reshape(db_l * dc, -1)))
        rates.append((entropy_of_spectrum(np.linalg.eigvalsh(avg_c)) - holevo_cond, coherent))
    return rates


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
    dim_budget: int = DEFAULT_DIM_BUDGET,
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
    kraus_stacks = [m.stacked for m in powered]
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
            rates = _fast_rates(kraus_stacks, p, v_vecs, psi_vec, da_l, db_l)
            r1 = max(0.0, min(r[0] for r in rates)) / l
            r2 = max(0.0, min(r[1] for r in rates)) / l
            val = w1 * r1 + w2 * r2
            if not np.isfinite(val):
                return 1e6
            return -val

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


@dataclass(frozen=True)
class SpectralDecomposition:
    """rho^(x l) written as sum_i q(i) pi_i with pi_i maximally mixed on
    mutually orthogonal subspaces."""

    weights: np.ndarray
    projectors: tuple[np.ndarray, ...]
    subspace_dims: tuple[int, ...]

    @property
    def count(self) -> int:
        return self.weights.size

    def reconstruct(self) -> np.ndarray:
        return sum(
            q * proj / d
            for q, proj, d in zip(self.weights, self.projectors, self.subspace_dims)
        )


def decompose_tensor_power(rho, l: int, dim_budget: int = 1024) -> SpectralDecomposition:
    """Group the spectrum of rho^(x l) by base-eigenvalue type classes."""
    if l < 1:
        raise ValueError("l must be >= 1")
    dim = rho.dim
    if dim**l > dim_budget:
        raise BudgetExceededError(f"dimension {dim ** l} exceeds budget {dim_budget}")
    vals, vecs = hermitian_eig(rho.mat)
    # group equal base eigenvalues so type classes are exact
    groups: list[int] = []
    gid = 0
    for i, v in enumerate(vals):
        if i > 0 and abs(v - vals[i - 1]) > 1e-10:
            gid += 1
        groups.append(gid)
    index_tuples = np.indices((dim,) * l).reshape(l, -1).T
    buckets: dict[tuple[int, ...], list[int]] = {}
    for col, tup in enumerate(index_tuples):
        key = tuple(sorted(groups[i] for i in tup))
        buckets.setdefault(key, []).append(col)
    full_vecs = tensor_all([vecs] * l) if l > 1 else vecs
    weights = []
    projectors = []
    sub_dims = []
    for key in sorted(buckets):
        cols = buckets[key]
        value = float(np.prod([vals[index_tuples[cols[0]][j]] for j in range(l)]))
        if value * len(cols) <= 1e-12:  # zero-mass blocks carry nothing
            continue
        block = full_vecs[:, cols]
        weights.append(value * len(cols))
        projectors.append(block @ block.conj().T)
        sub_dims.append(len(cols))
    if len(weights) > (l + 1) ** dim:
        raise AssertionError("type-class count exceeded the (l+1)^dim bound")
    return SpectralDecomposition(
        np.asarray(weights, dtype=float), tuple(projectors), tuple(sub_dims)
    )


def empirical_approximation(q, t: int) -> np.ndarray:
    """Integer frequencies N_i with sum t approximating t * q.

    Floor rule with the remainder assigned to the first support point.
    Requires t > 2 / min support probability so every supported symbol
    keeps a share of at least (min support probability / 2) * t.
    """
    q = np.asarray(q, dtype=float)
    if abs(q.sum() - 1.0) > 1e-9 or np.any(q < 0):
        raise ValueError("q is not a probability distribution")
    supp = np.flatnonzero(q > 0)
    min_p = q[supp].min()
    if t <= 2.0 / min_p:
        raise ValueError(f"t = {t} too small; need t > {2.0 / min_p:.6g}")
    n = np.zeros(q.size, dtype=int)
    x0 = int(supp[0])
    for x in supp:
        if x != x0:
            n[x] = int(np.floor(t * q[x]))
    n[x0] = t - int(n.sum())
    return n
