"""Dense reference constructions that only the tests compare against.

No command needs them: the library keeps states as factors and channels as
Kraus stacks, and these build the plain matrices or channels that the fast
routes must agree with.
"""

import numpy as np

from cqmac.channels import KrausChannel
from cqmac.codesim import CqCodebook
from cqmac.entropic import CqqState
from cqmac.qmatrix import DensityMatrix, DimensionMismatchError, tensor_all


def depolarizing_channel(dim: int) -> KrausChannel:
    """Completely depolarizing map rho -> I/d."""
    # op (i, j) is |i><j| / sqrt(d): the rows of the d^2 identity, reshaped
    ops = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim) / np.sqrt(dim)
    return KrausChannel(ops, (dim,), (dim,))


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    if after.in_dim != before.out_dim:
        raise DimensionMismatchError("composition dimensions do not match")
    ops = after.stacked[:, None] @ before.stacked[None]
    return KrausChannel._trusted(
        ops.reshape(-1, after.out_dim, before.in_dim),
        before.in_dims,
        after.out_dims,
        trace_nonincreasing=after.trace_nonincreasing or before.trace_nonincreasing,
    )


def average_error(cb: CqCodebook, w) -> float:
    """Mean of tr[(I - D_m) W^n(u_m)] over the messages, for the (alphabet, d, r) factors w."""
    errs = []
    for word, d in zip(cb.codewords, cb.povm):
        f = tensor_all([w[x] for x in word])
        errs.append(1.0 - float(np.vdot(f, d @ f).real))
    return float(np.mean(errs))


def to_density_matrix(omega: CqqState) -> DensityMatrix:
    """Dense block-diagonal state on (X, B, C); for small dimensions."""
    d = omega.b_dim * omega.c_dim
    full = np.zeros((omega.alphabet_size * d,) * 2, dtype=complex)
    for i, block in enumerate(omega.dense_blocks()):
        full[i * d : (i + 1) * d, i * d : (i + 1) * d] = omega.probs[i] * block
    return DensityMatrix(full, (omega.alphabet_size, omega.b_dim, omega.c_dim))
