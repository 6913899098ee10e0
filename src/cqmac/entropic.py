"""Entropic functionals on states and on classical-quantum-quantum blocks.

All entropies are base 2 (bits). A CqqState keeps, per classical label, a
factor u of its conditional state (rho = u u†) instead of one big
block-diagonal matrix, which is exact and keeps dimensions small. One kernel,
``cqq_rates``, computes I(X;C) and I_c(B>CX) from factors for the rate
functions, the regions and the optimizer, taking each spectrum from the
smaller of the Gram matrices m m† and m† m of a factor m (they share their
nonzero eigenvalues). With a leading member axis it rates every member of a
compound set at once, one ``eigvalsh`` per stack of Grams; dense blocks
serve only as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CqChannel, KrausChannel
from .qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    EIGENVALUE_CLAMP,
    PureState,
    checked_factor,
    dagger,
    partial_trace,
    partial_trace_mat,
    zero_padded,
)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] b[..., i], one dot per row: bit-equal to ``a_row @ b_row``."""
    out = a[..., None, :] @ b[..., :, None]
    return out[..., 0, 0] if out.ndim > 2 else out[0, 0]


def entropy_of_spectrum(eigenvalues: np.ndarray):
    """- sum lam log2 lam over the eigenvalues above the clamp threshold, along
    the last axis: a float for one spectrum, an array for a stack of them."""
    if eigenvalues.ndim == 1:
        lam = eigenvalues[eigenvalues > EIGENVALUE_CLAMP]
        return float(-lam @ np.log2(lam))
    lam = np.where(eigenvalues > EIGENVALUE_CLAMP, eigenvalues, 1.0)  # log2(1) = 0 drops them
    return -_row_dot(lam, np.log2(lam))


def von_neumann_entropy(rho):
    """S(rho) in bits; on a (..., d, d) stack, the array of each matrix's entropy."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return entropy_of_spectrum(np.linalg.eigvalsh((mat + dagger(mat)) / 2.0))


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def _check_partition(rho: DensityMatrix, part_a, part_b):
    a = sorted(set(int(i) for i in part_a))
    b = sorted(set(int(i) for i in part_b))
    if sorted(a + b) != list(range(len(rho.dims))):
        raise DimensionMismatchError(
            f"parts {a} and {b} do not partition {len(rho.dims)} subsystems"
        )
    return a, b


def coherent_information(rho: DensityMatrix, first_part, second_part) -> float:
    """S(rho restricted to second_part) - S(rho), for a full bipartition."""
    _, b = _check_partition(rho, first_part, second_part)
    return von_neumann_entropy(partial_trace(rho, b)) - von_neumann_entropy(rho)


def quantum_mutual_information(rho: DensityMatrix, part_a, part_b) -> float:
    """S(rho_A) + S(rho_B) - S(rho)."""
    a, b = _check_partition(rho, part_a, part_b)
    return (
        von_neumann_entropy(partial_trace(rho, a))
        + von_neumann_entropy(partial_trace(rho, b))
        - von_neumann_entropy(rho)
    )


def _checked_probs(p, size: int) -> np.ndarray:
    """A distribution over ``size`` labels, entries below -1e-12 and a sum off 1
    by more than 1e-10 refused, then clipped to >= 0 and renormalized."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size != size:
        raise DimensionMismatchError(f"{p.size} probabilities for {size} labels")
    if np.any(p < -1e-12):
        raise ValueError("negative probability")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


@dataclass(frozen=True)
class CqqState:
    """Classical label X with a conditional two-part (B, C) state per label.

    Label x carries a factor u[b, c, k] of its conditional state
    rho_x = sum_k u[:, :, k] u[:, :, k]† (the rank k may differ by label).
    Blocks between labels are zero, so (probs, factors) is the exact state.
    """

    probs: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = _checked_probs(self.probs, len(self.factors))
        # every factor shares the first one's (B, C) rows
        rows = np.shape(self.factors[0])[:2]
        factors = tuple(checked_factor(u, rows) for u in self.factors)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "factors", factors)

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @property
    def b_dim(self) -> int:
        return self.factors[0].shape[0]

    @property
    def c_dim(self) -> int:
        return self.factors[0].shape[1]

    def dense_blocks(self) -> list[np.ndarray]:
        """Conditional states u u† as matrices on (B, C); for oracles and small dimensions."""
        cols = [u.reshape(-1, u.shape[2]) for u in self.factors]
        return [c @ c.conj().T for c in cols]


def pure_output_factors(kraus_stack: np.ndarray, letters: np.ndarray, psi_grid: np.ndarray):
    """Factors u[..., x, ref, out, k] of a channel's outputs on the inputs V(x) (x) psi.

    ``kraus_stack`` is (K, out, A (x) in), or (M, K, out, A (x) in) for M
    channels with one Kraus count (``qmatrix.zero_padded``); ``letters``
    holds the V(x) as an (X, A) array and ``psi_grid`` holds psi as a (ref,
    in) matrix. Every channel and label comes from one product of the (X ref,
    A in) input grid with the stack; the output state of label x on (ref, out)
    is sum_k u[..., x, :, :, k] u[..., x, :, :, k]†.
    """
    *members, count, d_out, d_in = kraus_stack.shape
    grid = letters[:, None, :, None] * psi_grid[None, :, None, :]
    u = grid.reshape(-1, d_in) @ kraus_stack.reshape(-1, d_in).T
    u = u.reshape(len(letters), len(psi_grid), *members, count, d_out)
    return np.moveaxis(u, (0, 1), (-4, -3)).swapaxes(-1, -2)


def _gram_entropies(m: np.ndarray) -> np.ndarray:
    """S(m m†) for each matrix of the (..., r, c) stack m: one ``eigvalsh`` of
    the stack of the smaller Grams, m m† or m† m."""
    mh = m.conj().swapaxes(-1, -2)
    grams = m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m
    return entropy_of_spectrum(np.linalg.eigvalsh(grams))


def cqq_rates(probs, factors):
    """(I(X;C), I_c(B>CX)) of the cqq state with label factors u[x, b, c, k].

    ``factors`` is an (X, B, C, rank) array or a sequence of (B, C, rank_x)
    factors, padded with zero columns (zero eigenvalues) to one rank. An (M,
    X, B, C, rank) array holds one state per compound member, all with this
    p, and gives the rates as arrays over the members. Per label S(C) comes
    from a = u's C rows, shape (c, b k), and S(BC) from u as a (b c, k)
    matrix; the average C state from the sqrt(p_x) a_x side by side. Labels
    with p = 0 are skipped. Three ``eigvalsh`` calls, one per stack, whatever
    M and |X|; nothing is validated.
    """
    probs = np.asarray(probs)
    if not isinstance(factors, np.ndarray):
        factors = zero_padded(factors, -1)
    keep = probs > 0
    p, u = probs[keep], factors[..., keep, :, :, :]
    *members, n, b, c, k = u.shape
    a = u.swapaxes(-3, -2).reshape(*members, n, c, b * k)
    s_c = _gram_entropies(a)
    s_bc = _gram_entropies(u.reshape(*members, n, b * c, k))
    avg = (np.sqrt(p)[:, None, None] * a).swapaxes(-3, -2).reshape(*members, c, n * b * k)
    return _gram_entropies(avg) - _row_dot(s_c, p), _row_dot(s_c - s_bc, p)


def checked_ensemble(channels, p, v: CqChannel, psi: PureState) -> np.ndarray:
    """p as ``CqqState`` keeps it, once (p, V, psi) is checked as an input to each
    channel: one p per letter, psi on (reference, input), V (x) input fills it."""
    p = _checked_probs(p, v.alphabet_size)
    if len(psi.dims) != 2:
        raise DimensionMismatchError("psi must carry dims (reference, channel input)")
    for t in channels:
        if len(t.in_dims) < 1 or t.in_dim != v.dim * psi.dims[1]:
            raise DimensionMismatchError(f"channel input {t.in_dim} != {v.dim} x {psi.dims[1]}")
    return p


def effective_cqq_state(t: KrausChannel, p, v: CqChannel, psi: PureState) -> CqqState:
    """Classical-quantum-quantum state of an input ensemble through a channel.

    Per label x the channel acts on V(x) together with the second factor of
    the pure state psi = (reference, input); the first factor rides along
    untouched and becomes the B part of the result.
    """
    p = checked_ensemble([t], p, v, psi)
    return CqqState(p, tuple(pure_output_factors(t.stacked, v.vectors, psi.vec.reshape(psi.dims))))


def mutual_information_x_c(omega: CqqState) -> float:
    """I(X;C) = S(avg C) - avg S(C) on the block structure."""
    return float(cqq_rates(omega.probs, omega.factors)[0])


def holevo_information(omega: CqqState) -> float:
    """Holevo quantity from dense C marginals; oracle counterpart of I(X;C)."""
    p = omega.probs
    dims = (omega.b_dim, omega.c_dim)
    c_margs = [partial_trace_mat(block, dims, [1]) for block in omega.dense_blocks()]
    avg_c = sum(p[i] * c_margs[i] for i in range(p.size))
    return von_neumann_entropy(avg_c) - float(
        sum(p[i] * von_neumann_entropy(c_margs[i]) for i in range(p.size))
    )


def coherent_information_b_cx(omega: CqqState) -> float:
    """I_c(B>CX) = S(CX) - S(BCX) on the block structure."""
    return float(cqq_rates(omega.probs, omega.factors)[1])


def cqq_tensor(a: CqqState, b: CqqState) -> CqqState:
    """Product state with parts regrouped to (B_a B_b, C_a C_b)."""
    probs = np.outer(a.probs, b.probs).reshape(-1)
    factors = []
    for ua in a.factors:
        for ub in b.factors:
            u = np.einsum("ack,bdl->abcdkl", ua, ub)
            factors.append(u.reshape(len(ua) * len(ub), ua.shape[1] * ub.shape[1], -1))
    return CqqState(probs, tuple(factors))


def alicki_fannes_bound(epsilon: float, dim_a: int) -> float:
    """Continuity bound for coherent-type quantities at trace distance epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    h = binary_entropy(2.0 * epsilon / (1.0 + 2.0 * epsilon)) if epsilon > 0 else 0.0
    return 6.0 * epsilon * np.log2(dim_a) + (2.0 + 4.0 * epsilon) * h


def holevo_fano_rate_bound(information: float, error: float) -> float:
    """Cap on log2(m1) implied by I(X;C) = ``information`` and a performance deficit ``error``.

    The classical decoding error probability is bounded by 2*sqrt(error);
    solving the Fano/Holevo chain for log M1 gives (I(X;C) + 1)/(1 - e~)
    whenever e~ < 1, and the cap is vacuous (+inf) otherwise.
    """
    if not 0.0 <= error <= 1.0:
        raise ValueError(f"error {error} outside [0, 1]")
    err_tilde = 2.0 * np.sqrt(error)
    if err_tilde >= 1.0:
        return float("inf")
    return (information + 1.0) / (1.0 - err_tilde)
