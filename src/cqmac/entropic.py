"""Entropic functionals on states and on classical-quantum-quantum blocks.

All entropies are base 2 (bits). A CqqState keeps, per classical label, a
factor u of its conditional state (rho = u u†) instead of one big
block-diagonal matrix, which is exact and keeps dimensions small. One kernel,
``cqq_rates``, computes I(X;C) and I_c(B>CX) from the factors for the rate
functions, the regions and the optimizer; dense blocks serve only as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CqChannel, KrausChannel
from .qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    EIGENVALUE_CLAMP,
    HERMITICITY_TOL,
    PureState,
    partial_trace,
    partial_trace_mat,
)


def entropy_of_spectrum(eigenvalues) -> float:
    """- sum lam log2 lam over eigenvalues above the clamp threshold."""
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > EIGENVALUE_CLAMP]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))


def von_neumann_entropy(rho) -> float:
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    return entropy_of_spectrum(vals)


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
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size != len(self.factors):
            raise DimensionMismatchError("probability vector does not match label count")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        factors = tuple(np.array(u, dtype=complex) for u in self.factors)
        for u in factors:
            if u.ndim != 3 or u.shape[:2] != factors[0].shape[:2]:
                raise DimensionMismatchError("factors must share one (B, C, rank) layout")
            if not np.all(np.isfinite(u)):
                raise ValueError("factor entries must be finite")
            if abs(np.vdot(u, u).real - 1.0) > HERMITICITY_TOL:
                raise ValueError("conditional state trace differs from 1")
            u.flags.writeable = False
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
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

    def to_density_matrix(self) -> DensityMatrix:
        """Dense block-diagonal state on (X, B, C); for oracles and small dimensions."""
        d = self.b_dim * self.c_dim
        full = np.zeros((self.alphabet_size * d,) * 2, dtype=complex)
        for i, block in enumerate(self.dense_blocks()):
            full[i * d : (i + 1) * d, i * d : (i + 1) * d] = self.probs[i] * block
        return DensityMatrix(full, (self.alphabet_size, self.b_dim, self.c_dim))


def pure_output_factor(kraus_stack: np.ndarray, letter: np.ndarray, psi_grid: np.ndarray):
    """Factor u[ref, out, k] of a channel's output on the pure input V(x) (x) psi.

    ``kraus_stack`` is (K, out, A (x) in), ``letter`` is V(x) on A and
    ``psi_grid`` holds psi as a (ref, in) matrix; the output state on
    (ref, out) is sum_k u[:, :, k] u[:, :, k]†, of rank at most K.
    """
    w = np.einsum("rb,a->rab", psi_grid, letter).reshape(len(psi_grid), -1)
    return np.einsum("rj,koj->rok", w, kraus_stack)


def cqq_rates(probs, factors) -> tuple[float, float]:
    """(I(X;C), I_c(B>CX)) of the cqq state with label factors u[b, c, k].

    Per label the C marginal is one contraction of u and S(BC) comes from the
    small Gram matrix u† u (the nonzero spectrum of u u†); labels with p = 0
    are skipped: 2|X| + 1 spectra in all. Nothing is validated, so the
    optimizer's objective calls this on ``pure_output_factor`` outputs.
    """
    dc = factors[0].shape[1]
    avg_c = np.zeros((dc, dc), dtype=complex)
    holevo_cond = 0.0
    coherent = 0.0
    for px, u in zip(probs, factors):
        if px <= 0:
            continue
        marg_c = np.einsum("rck,rdk->cd", u, u.conj())
        avg_c += px * marg_c
        s_c = entropy_of_spectrum(np.linalg.eigvalsh(marg_c))
        holevo_cond += px * s_c
        cols = u.reshape(-1, u.shape[2])
        coherent += px * (s_c - entropy_of_spectrum(np.linalg.eigvalsh(cols.conj().T @ cols)))
    return entropy_of_spectrum(np.linalg.eigvalsh(avg_c)) - holevo_cond, coherent


def effective_cqq_state(
    t: KrausChannel, p, v: CqChannel, psi: PureState
) -> CqqState:
    """Classical-quantum-quantum state of an input ensemble through a channel.

    Per label x the channel acts on V(x) together with the second factor of
    the pure state psi = (reference, input); the first factor rides along
    untouched and becomes the B part of the result.
    """
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"input distribution sums to {p.sum()}, not 1")
    if p.size != v.alphabet_size:
        raise DimensionMismatchError("distribution length does not match the cq alphabet")
    if len(psi.dims) != 2:
        raise DimensionMismatchError("psi must carry dims (reference, channel input)")
    d_ref, d_in = psi.dims
    da = v.dim
    if len(t.in_dims) < 1 or t.in_dim != da * d_in:
        raise DimensionMismatchError(
            f"channel input {t.in_dim} != {da} x {d_in} from V and psi"
        )
    psi_grid = psi.vec.reshape(d_ref, d_in)
    return CqqState(p, tuple(pure_output_factor(t.stacked, x, psi_grid) for x in v.vectors))


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


def holevo_fano_rate_bound(omega: CqqState, error: float) -> float:
    """Cap on log2(m1) implied by a performance deficit ``error``.

    The classical decoding error probability is bounded by 2*sqrt(error);
    solving the Fano/Holevo chain for log M1 gives (I(X;C) + 1)/(1 - e~)
    whenever e~ < 1, and the cap is vacuous (+inf) otherwise.
    """
    if not 0.0 <= error <= 1.0:
        raise ValueError(f"error {error} outside [0, 1]")
    err_tilde = 2.0 * np.sqrt(error)
    if err_tilde >= 1.0:
        return float("inf")
    return (mutual_information_x_c(omega) + 1.0) / (1.0 - err_tilde)
