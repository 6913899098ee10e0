"""Seeded random quantum objects for simulations and property suites.

All samplers take a numpy Generator so that every downstream artifact is
bit-reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

from .qmatrix import DensityMatrix, PureState


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Isometry (rows x cols, rows >= cols) from QR of a Gaussian matrix."""
    if cols > rows:
        raise ValueError(f"isometry needs rows >= cols, got {rows} x {cols}")
    g = complex_gaussian(rng, (rows, cols))
    q, r = np.linalg.qr(g)
    # fix phases so the sample does not depend on the QR sign convention
    d = np.diagonal(r)
    phases = d / np.abs(np.where(np.abs(d) < 1e-300, 1.0, d))
    return q * phases.conj()


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return haar_isometry(rng, dim, dim)


def random_pure(rng: np.random.Generator, dims) -> PureState:
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    v = complex_gaussian(rng, int(np.prod(dims)))
    return PureState(v / np.linalg.norm(v), dims)


def random_factor(rng: np.random.Generator, dims, rank: int | None = None) -> np.ndarray:
    """Unit-norm Gaussian factor, shaped dims + (rank,), of a Wishart state."""
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    n = int(np.prod(dims))
    g = complex_gaussian(rng, (n, n if rank is None else int(rank)))
    return (g / np.linalg.norm(g)).reshape(dims + (-1,))


def random_density_mat(rng: np.random.Generator, dims, rank: int | None = None) -> np.ndarray:
    """The matrix of ``random_density``, from the same draws, without validation."""
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    g = random_factor(rng, dims, rank).reshape(int(np.prod(dims)), -1)
    return g @ g.conj().T


def random_density(rng: np.random.Generator, dims, rank: int | None = None) -> DensityMatrix:
    """State sampled as a normalized Wishart matrix of the given rank."""
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    return DensityMatrix(random_density_mat(rng, dims, rank), dims)


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random operator with 0 <= E <= I (uniform spectrum, Haar eigenbasis)."""
    u = haar_unitary(rng, dim)
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


def random_kraus_ops(
    rng: np.random.Generator, in_dim: int, out_dim: int, count: int
) -> tuple[np.ndarray, ...]:
    """Kraus operators of a random CPTP map (Gaussian ops, whitened)."""
    from .qmatrix import pinv_sqrt_psd

    raw = [complex_gaussian(rng, (out_dim, in_dim)) for _ in range(count)]
    s = sum(k.conj().T @ k for k in raw)
    w = pinv_sqrt_psd(s)
    return tuple(k @ w for k in raw)
