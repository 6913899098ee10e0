"""Dense complex matrix core and quantum-state primitives.

Everything here is plain dense numpy, complex128. One rule bounds the sizes
(``channels.check_budget``): no single array above 2^25 complex entries; an
oversized one is refused, by name, before it is allocated. Entropies and
rates elsewhere are in bits, so square roots, norms and spectra here feed
base-2 logarithms downstream.

Subsystem bookkeeping convention: a state carries an ordered tuple ``dims``
of subsystem dimensions whose product equals the matrix size; subsystem 0
is the leftmost tensor factor.

Stack convention: ``hermitian_eig``, ``sqrt_psd``, ``trace_norm``,
``factor_trace_norm``, ``fidelity``, ``partial_trace_mat`` and ``permute_mat``
act on the last two axes of a ``(..., d, d)`` array (``(..., d, r)`` factors
for ``factor_trace_norm``), so a stack of N matrices costs one LAPACK call
(or one transpose). On a 2-D input they return what a single-matrix routine
would (a Python float for the scalar ones); on a stack, an array over the
leading axes whose entries equal the 2-D calls on each matrix.

Every ``trace_norm`` in the program is of a Hermitian matrix (a difference
of states or of Choi matrices), so it is the sum of the absolute
eigenvalues: it reads only the lower triangle and requires Hermitian input.
``fidelity`` takes the trace norm of a non-Hermitian product from its
singular values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

HERMITICITY_TOL = 1e-8
EIGENVALUE_CLAMP = 1e-12


class DimensionMismatchError(ValueError):
    """Operands have incompatible sizes or subsystem dimensions."""


def _square(mat) -> np.ndarray:
    """Complex view of a square matrix or of a (..., d, d) stack of them."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def zero_padded(arrays, axis: int) -> np.ndarray:
    """The arrays stacked on a new first axis, each zero-padded at the end of
    ``axis`` to the largest length there; their other axes must agree."""
    shape = list(arrays[0].shape)
    shape[axis] = max(a.shape[axis] for a in arrays)
    out = np.zeros((len(arrays), *shape), dtype=complex)
    lead = (slice(None),) * (axis % len(shape))
    for o, a in zip(out, arrays):
        o[lead + (slice(a.shape[axis]),)] = a
    return out


def _finite(m: np.ndarray) -> np.ndarray:
    """m itself; raises on NaN or inf, which LAPACK's Hermitian solvers accept."""
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def hermitian_eig(mat):
    """Eigendecomposition of a Hermitian matrix (or of each in a stack).

    The input is symmetrized as (m + m†)/2 before solving. Returns
    (eigenvalues, eigenvectors) with eigenvalues sorted descending and the
    matching orthonormal eigenvectors as columns.
    """
    m = _finite(_square(mat))
    h = (m + dagger(m)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def tensor(a, b) -> np.ndarray:
    """Kronecker product; subsystem dimension lists concatenate."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_all(mats) -> np.ndarray:
    return reduce(tensor, mats)


def stacked_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the matching matrices of two (N, r, c) stacks."""
    n, ra, ca = a.shape
    _, rb, cb = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, ra * rb, ca * cb)


def _scalar(values):
    """A Python float for a 0-d result (a 2-D input), the array otherwise."""
    return float(values) if np.ndim(values) == 0 else values


def _abs_spectrum_sum(h: np.ndarray):
    return _scalar(np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1))


def trace_norm(mat):
    """Trace norm of a Hermitian matrix (or of each in a stack).

    The sum of |eigenvalues|, from the lower triangle only: the input must
    be Hermitian, and no symmetrized copy is made.
    """
    return _abs_spectrum_sum(_finite(_square(mat)))


def factor_trace_norm(x, y):
    """||x x† - y y†||_1 of factor stacks x (..., d, r1) and y (..., d, r2).

    With [x y] = q r (reduced QR), the difference is q r s r† q† where
    s = diag(1, ..., 1, -1, ..., -1), so its spectrum is that of r s r†,
    which is at most (r1 + r2)-square. Zero columns are allowed.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim < 2 or x.shape[:-1] != y.shape[:-1]:
        raise DimensionMismatchError(f"factor shapes {x.shape} and {y.shape} do not share rows")
    r = np.linalg.qr(_finite(np.concatenate([x, y], axis=-1)), mode="r")
    signs = np.concatenate([np.ones(x.shape[-1]), -np.ones(y.shape[-1])])
    return _abs_spectrum_sum((r * signs) @ dagger(r))


def sqrt_psd(mat) -> np.ndarray:
    """Matrix square root via eigendecomposition, negative eigenvalues clamped."""
    vals, vecs = hermitian_eig(mat)
    vals = np.where(np.abs(vals) < EIGENVALUE_CLAMP, 0.0, vals)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ dagger(vecs)


def pinv_sqrt_psd(mat) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix (zero block on the kernel), or
    of each in a stack; the cutoff is relative to each matrix's largest eigenvalue."""
    vals, vecs = hermitian_eig(mat)
    cutoff = np.maximum(EIGENVALUE_CLAMP, 1e-12 * np.maximum(vals[..., :1], 0.0))
    inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, cutoff, None)), 0.0)
    return (vecs * inv[..., None, :]) @ dagger(vecs)


def checked_factor(u, rows) -> np.ndarray:
    """Read-only complex copy of a factor u of the state u u†.

    u must have shape ``rows`` plus one trailing rank axis, finite entries
    and ||u||^2 = 1; no spectrum is computed.
    """
    u = np.array(u, dtype=complex)
    rows = tuple(rows)
    if u.ndim != len(rows) + 1 or u.shape[:-1] != rows:
        raise DimensionMismatchError(f"factor of shape {u.shape} does not have rows {rows}")
    if not np.all(np.isfinite(u)):
        raise ValueError("factor entries must be finite")
    if abs(np.vdot(u, u).real - 1.0) > HERMITICITY_TOL:
        raise ValueError("factor state trace differs from 1")
    u.flags.writeable = False
    return u


@dataclass(frozen=True)
class DensityMatrix:
    """PSD unit-trace matrix with an ordered list of subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = _square(self.mat)
        if m.ndim != 2:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        dims = tuple(int(d) for d in self.dims)
        if math.prod(dims) != m.shape[0]:
            raise DimensionMismatchError(
                f"dims {dims} inconsistent with matrix size {m.shape[0]}"
            )
        if not np.all(np.isfinite(m)):  # NaN passes every tolerance test below
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > HERMITICITY_TOL or abs(np.trace(m).imag) > HERMITICITY_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0] < -HERMITICITY_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class PureState:
    """Unit vector with subsystem dimensions."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if math.prod(dims) != v.shape[0]:
            raise DimensionMismatchError(
                f"dims {dims} inconsistent with vector length {v.shape[0]}"
            )
        if not abs(np.linalg.norm(v) - 1.0) <= HERMITICITY_TOL:  # NaN fails too
            raise ValueError("pure state vector is not normalized")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)
        object.__setattr__(self, "dims", dims)


def maximally_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_x |x>|x> on two d-dimensional factors."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(v, (d, d))


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d, dtype=complex) / d, (d,))


def partial_trace_mat(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace on a raw matrix or (..., d, d) stack; ``keep`` lists the
    subsystem indices retained."""
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(i) for i in keep))
    k = len(dims)
    if any(i < 0 or i >= k for i in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {k} subsystems")
    m = np.asarray(mat, dtype=complex)
    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    row = list(range(k))
    col = [i if i not in keep else k + i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    kept = math.prod(dims[i] for i in keep)
    return np.einsum(t, [...] + row + col, [...] + out).reshape(lead + (kept, kept))


def permute_mat(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder subsystems of a raw matrix (or of each in a (..., d, d) stack) so
    new factor i is old factor perm[i]."""
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(k)):
        raise DimensionMismatchError(f"perm {perm} is not a permutation of {k} subsystems")
    m = np.asarray(mat, dtype=complex)
    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    axes = [len(lead) + p for p in perm]
    t = t.transpose(list(range(len(lead))) + axes + [k + a for a in axes])
    n = math.prod(dims)
    return t.reshape(lead + (n, n))


def fidelity(a, b):
    """Quantum fidelity ||sqrt(a) sqrt(b)||_1^2 of two states (or of two
    equally shaped stacks, pairwise).

    The product is not Hermitian, so its trace norm is a sum of singular
    values, not ``trace_norm``.
    """
    ma = a.mat if isinstance(a, DensityMatrix) else _square(a)
    mb = b.mat if isinstance(b, DensityMatrix) else _square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"state shapes differ: {ma.shape} vs {mb.shape}")
    singular = np.linalg.svd(sqrt_psd(ma) @ sqrt_psd(mb), compute_uv=False)
    val = np.sum(singular, axis=-1) ** 2
    return _scalar(np.clip(val, 0.0, 1.0 + 1e-9))
