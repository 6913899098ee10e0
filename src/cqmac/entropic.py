"""Entropic functionals on states and on classical-quantum-quantum blocks.

All entropies are base 2 (bits). A CqqState keeps one conditional state per
classical label instead of one big block-diagonal matrix, which is exact
and keeps dimensions small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CqChannel, KrausChannel, apply_channel_mat
from .qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    EIGENVALUE_CLAMP,
    PureState,
    partial_trace,
    partial_trace_mat,
    permute_mat,
    tensor,
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

    Off-diagonal blocks between labels are zero by construction; the pair
    (probs, cond_states) is the exact block-diagonal representation.
    """

    probs: np.ndarray
    cond_states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size != len(self.cond_states):
            raise DimensionMismatchError("probability vector does not match label count")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        dims = self.cond_states[0].dims
        if len(dims) != 2:
            raise DimensionMismatchError("conditional states must have exactly parts (B, C)")
        for st in self.cond_states:
            if st.dims != dims:
                raise DimensionMismatchError("conditional states on mismatched spaces")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "cond_states", tuple(self.cond_states))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @property
    def b_dim(self) -> int:
        return self.cond_states[0].dims[0]

    @property
    def c_dim(self) -> int:
        return self.cond_states[0].dims[1]

    def c_marginals(self) -> list[np.ndarray]:
        return [partial_trace_mat(st.mat, st.dims, [1]) for st in self.cond_states]

    def to_density_matrix(self) -> DensityMatrix:
        """Dense block-diagonal state on (X, B, C); for small dimensions only."""
        x = self.alphabet_size
        d = self.b_dim * self.c_dim
        full = np.zeros((x * d, x * d), dtype=complex)
        for i, st in enumerate(self.cond_states):
            full[i * d : (i + 1) * d, i * d : (i + 1) * d] = self.probs[i] * st.mat
        return DensityMatrix(full, (x, self.b_dim, self.c_dim))


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
    psi_mat = psi.density().mat
    conds = []
    for x in range(v.alphabet_size):
        full = tensor(v.outputs[x].mat, psi_mat)  # order (A, ref, in)
        full = permute_mat(full, (da, d_ref, d_in), [1, 0, 2])  # (ref, A, in)
        out, _ = apply_channel_mat(t, full, (d_ref, da, d_in), [1, 2])
        conds.append(DensityMatrix(out, (d_ref, t.out_dim)))
    return CqqState(p, tuple(conds))


def mutual_information_x_c(omega: CqqState) -> float:
    """I(X;C) evaluated on the block structure: S(X) + S(C) - S(XC)."""
    p = omega.probs
    h_x = entropy_of_spectrum(p)
    c_margs = omega.c_marginals()
    avg_c = sum(p[i] * c_margs[i] for i in range(p.size))
    s_c = von_neumann_entropy(avg_c)
    s_xc = h_x + float(
        sum(p[i] * von_neumann_entropy(c_margs[i]) for i in range(p.size))
    )
    return h_x + s_c - s_xc


def holevo_information(omega: CqqState) -> float:
    """Holevo quantity S(avg C) - avg S(C); oracle counterpart of I(X;C)."""
    p = omega.probs
    c_margs = omega.c_marginals()
    avg_c = sum(p[i] * c_margs[i] for i in range(p.size))
    return von_neumann_entropy(avg_c) - float(
        sum(p[i] * von_neumann_entropy(c_margs[i]) for i in range(p.size))
    )


def coherent_information_b_cx(omega: CqqState) -> float:
    """I_c(B>CX) = S(CX) - S(BCX) on the block structure."""
    p = omega.probs
    total = 0.0
    for i, st in enumerate(omega.cond_states):
        if p[i] <= EIGENVALUE_CLAMP:
            continue
        s_c = von_neumann_entropy(partial_trace_mat(st.mat, st.dims, [1]))
        s_bc = von_neumann_entropy(st.mat)
        total += p[i] * (s_c - s_bc)
    return float(total)


def cqq_tensor(a: CqqState, b: CqqState) -> CqqState:
    """Product state with parts regrouped to (B_a B_b, C_a C_b)."""
    probs = np.outer(a.probs, b.probs).reshape(-1)
    conds = []
    for sa in a.cond_states:
        for sb in b.cond_states:
            dims = sa.dims + sb.dims  # (Ba, Ca, Bb, Cb)
            mat = tensor(sa.mat, sb.mat)
            mat = permute_mat(mat, dims, [0, 2, 1, 3])
            conds.append(
                DensityMatrix(mat, (sa.dims[0] * sb.dims[0], sa.dims[1] * sb.dims[1]))
            )
    return CqqState(probs, tuple(conds))


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
