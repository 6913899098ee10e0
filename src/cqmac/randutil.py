"""Seeded random quantum objects for simulations and property suites.

All samplers take a numpy Generator so that every downstream artifact is
bit-reproducible from a single integer seed.

The draw contract: a complex Gaussian draw of shape s is one generator
call, ``rng.standard_normal((2,) + s)`` (real parts, then imaginary parts),
in the same order and with the same numbers as a real and then an imaginary
draw of shape s. The ``*_raw`` functions make one instance's generator
calls and return its raw real arrays; the stacked functions take N of them,
(N, 2, ...), and do the arithmetic for all N at once. One instance is a stack
of one. ``tests/oracles.py`` keeps the per-instance samplers, two generator
calls per complex draw, that N raw draws built stacked must match in their
numbers and in the generator state they leave.
"""

from __future__ import annotations

import numpy as np

from .qmatrix import dagger, pinv_sqrt_psd


def gaussian_raw(rng: np.random.Generator, shape) -> np.ndarray:
    """Raw numbers of one complex Gaussian draw of an int or tuple shape: a (2,) + shape real array."""
    return rng.standard_normal((2, *shape) if isinstance(shape, tuple) else (2, shape))


def kraus_raw(rng: np.random.Generator, in_dim: int, out_dim: int, count: int) -> np.ndarray:
    """Raw numbers of one Kraus family, (count, 2, out_dim, in_dim), op by op, as
    the per-instance Kraus sampler in ``tests/oracles.py`` draws them."""
    return rng.standard_normal((count, 2, out_dim, in_dim))


def effect_raw(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw numbers of one effect, as the per-instance effect sampler in
    ``tests/oracles.py`` draws them: the eigenbasis's Gaussians, then the spectrum."""
    return gaussian_raw(rng, (dim, dim)), rng.uniform(0.0, 1.0, dim)


def gaussians(raw: np.ndarray) -> np.ndarray:
    """The complex arrays of an (N, 2, ...) raw stack."""
    return raw[:, 0] + 1j * raw[:, 1]


def unit_factors(raw: np.ndarray) -> np.ndarray:
    """Each complex array of an (N, 2, ...) raw stack over its Frobenius norm."""
    g = gaussians(raw)
    flat = g.reshape(len(g), -1)
    re, im = flat.real, flat.imag
    # per-row dots of the strided parts: bit-equal to np.linalg.norm of each array
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    return g / norms.reshape((-1,) + (1,) * (g.ndim - 1))


def wishart_states(raw: np.ndarray) -> np.ndarray:
    """Normalised Wishart states g g† / ||g||^2 of an (N, 2, d, rank) raw stack;
    rank 1 gives the projectors of unit vectors."""
    f = unit_factors(raw)
    return f @ dagger(f)


def haar_isometries(raw: np.ndarray) -> np.ndarray:
    """Haar isometries (N, rows, cols) from the QR of an (N, 2, rows, cols) raw stack."""
    rows, cols = raw.shape[-2:]
    if cols > rows:
        raise ValueError(f"isometry needs rows >= cols, got {rows} x {cols}")
    q, r = np.linalg.qr(gaussians(raw))
    # fix phases so the sample does not depend on the QR sign convention
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = d / np.abs(np.where(np.abs(d) < 1e-300, 1.0, d))
    return q * phases.conj()[:, None, :]


def effects(raw: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Operators U diag(u) U†, 0 <= E <= I, of an (N, 2, d, d) raw stack and (N, d) spectra."""
    u = haar_isometries(raw)
    return (u * spectra[:, None, :]) @ dagger(u)


def whitened_kraus(raw: np.ndarray) -> np.ndarray:
    """Kraus stacks K_k S^(-1/2), S = sum_k K_k† K_k, of a (..., count, 2, out, in) raw stack."""
    ops = raw[..., 0, :, :] + 1j * raw[..., 1, :, :]
    s = (dagger(ops) @ ops).sum(axis=-3)
    return ops @ pinv_sqrt_psd(s)[..., None, :, :]
