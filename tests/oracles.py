"""Dense reference constructions that only the tests compare against.

No command needs them: the library keeps states as factors and channels as
Kraus stacks, and these build the plain matrices or channels that the fast
routes must agree with. The per-instance samplers draw each complex array
with two generator calls and build one instance at a time: the reference
for ``randutil``'s raw draws and stacked functions. The per-instance suites
at the end build every channel, set and state through its constructor and
evaluate it alone: the reference for the suites that evaluate on stacks.
"""

from functools import reduce

import numpy as np

from cqmac.channels import (
    CompoundSet,
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    choi_matrix,
)
from cqmac.codesim import CqCodebook, EtCode, et_code_raw, random_et_codes
from cqmac.entropic import CqqState, von_neumann_entropy
from cqmac.qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    hermitian_eig,
    partial_trace_mat,
    pinv_sqrt_psd,
    trace_norm,
)
from cqmac.randutil import gaussian_raw, kraus_raw, unit_factors, whitened_kraus, wishart_states
from cqmac.regions import RateRegion, Rect, as_region, compound_rect
from cqmac.suites import _by_shape, _coherent_information, _collect, _qmac


def b_dim(omega: CqqState) -> int:
    return omega.factors[0].shape[0]


def c_dim(omega: CqqState) -> int:
    return omega.factors[0].shape[1]


def dense_blocks(omega: CqqState) -> list[np.ndarray]:
    """Conditional states u u† as matrices on (B, C)."""
    cols = [u.reshape(-1, u.shape[2]) for u in omega.factors]
    return [c @ c.conj().T for c in cols]


def trace_preserving_defect(j: np.ndarray, in_dim: int, out_dim: int) -> float:
    """max |tr_out J - I|: 0 for the Choi matrix of a trace-preserving channel."""
    reduced = partial_trace_mat(j, (in_dim, out_dim), [0])
    return float(np.max(np.abs(reduced - np.eye(in_dim))))


def density(psi: PureState) -> DensityMatrix:
    """The state |psi><psi| as a matrix."""
    return DensityMatrix(np.outer(psi.vec, psi.vec.conj()), psi.dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """The reduced state on the subsystems listed in ``keep``."""
    keep = sorted(set(int(i) for i in keep))
    reduced = partial_trace_mat(rho.mat, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[i] for i in keep))


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
        f = reduce(np.kron, [w[x] for x in word])
        errs.append(1.0 - float(np.vdot(f, d @ f).real))
    return float(np.mean(errs))


def pgm_codebook(w_families, words) -> CqCodebook:
    """Square-root measurement built word by word: each word's averaged output
    from ``np.kron`` of its letters' factors, then one product per element."""
    words = [tuple(int(x) for x in w) for w in words]
    avg_states = []
    for w in words:
        cols = np.concatenate([reduce(np.kron, [fam[x] for x in w]) for fam in w_families], axis=1)
        avg_states.append(cols @ cols.conj().T / len(w_families))
    total = sum(avg_states)
    whitener = pinv_sqrt_psd(total)
    leftover = np.eye(total.shape[0]) - whitener @ total @ whitener
    povm = [whitener @ st @ whitener + leftover / len(words) for st in avg_states]
    return CqCodebook(tuple(words), tuple(povm))


def expected_encoding_deviation(subspace_dim: int, n: int, m2: int, seed: int, family_size: int = 64):
    """The encoding deviation from one per-instance ``haar_isometry`` draw per family member."""
    rng = np.random.default_rng(seed)
    d = subspace_dim**n
    avg = np.zeros((d, d), dtype=complex)
    for _ in range(family_size):
        v = haar_isometry(rng, d, m2)
        avg += v @ v.conj().T / m2
    avg /= family_size
    return trace_norm(avg - np.eye(d) / d)


def to_density_matrix(omega: CqqState) -> DensityMatrix:
    """Dense block-diagonal state on (X, B, C); for small dimensions."""
    d = b_dim(omega) * c_dim(omega)
    full = np.zeros((omega.probs.size * d,) * 2, dtype=complex)
    for i, block in enumerate(dense_blocks(omega)):
        full[i * d : (i + 1) * d, i * d : (i + 1) * d] = omega.probs[i] * block
    return DensityMatrix(full, (omega.probs.size, b_dim(omega), c_dim(omega)))


def purify(rho: DensityMatrix) -> PureState:
    """Purification with the reference system appended as the last factor."""
    vals, vecs = hermitian_eig(rho.mat)
    vals = np.clip(vals, 0.0, None)
    vec = (vecs * np.sqrt(vals / np.sum(vals))).reshape(-1)  # sum_i sqrt(p_i) |v_i>|i>
    return PureState(vec / np.linalg.norm(vec), (rho.mat.shape[0],) * 2)


def entanglement_fidelity(rho: DensityMatrix, channel) -> float:
    """Entanglement fidelity of ``rho`` under a channel acting on its full space.

    Evaluated through a purification: the channel is applied to the system
    half of |psi><psi| and the overlap with psi itself is returned. The
    channel must map the state space to itself.
    """
    ops = channel.kraus_ops if hasattr(channel, "kraus_ops") else tuple(channel)
    d = rho.mat.shape[0]
    for k in ops:
        if k.shape != (d, d):
            raise DimensionMismatchError(
                f"channel Kraus shape {k.shape} does not match state dimension {d}"
            )
    psi = purify(rho)
    v = psi.vec
    out = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for k in ops:
        w = np.kron(k, eye) @ v
        out += np.outer(w, w.conj())
    return float(min(max(np.real(v.conj() @ out @ v), 0.0), 1.0 + 1e-9))


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


def holevo_information(omega: CqqState) -> float:
    """Holevo quantity from dense C marginals; oracle counterpart of I(X;C)."""
    p = omega.probs
    dims = (b_dim(omega), c_dim(omega))
    c_margs = [partial_trace_mat(block, dims, [1]) for block in dense_blocks(omega)]
    avg_c = sum(p[i] * c_margs[i] for i in range(p.size))
    return von_neumann_entropy(avg_c) - float(
        sum(p[i] * von_neumann_entropy(c_margs[i]) for i in range(p.size))
    )


def permute_vec(vec: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder the subsystems of a raw vector so new factor i is old factor perm[i]."""
    dims = tuple(int(d) for d in dims)
    t = np.asarray(vec, dtype=complex).reshape(dims)
    return t.transpose(list(perm)).reshape(-1)


def cq_tensor(a: CqChannel, b: CqChannel) -> CqChannel:
    """Product alphabet, row-major pairing (x_a, x_b)."""
    prod = a.vectors[:, None, :, None] * b.vectors[None, :, None, :]
    return CqChannel(prod.reshape(a.alphabet_size * b.alphabet_size, -1))


def cqq_tensor(a: CqqState, b: CqqState) -> CqqState:
    """Product state with parts regrouped to (B_a B_b, C_a C_b)."""
    probs = np.outer(a.probs, b.probs).reshape(-1)
    factors = []
    for ua in a.factors:
        for ub in b.factors:
            u = np.einsum("ack,bdl->abcdkl", ua, ub)
            factors.append(u.reshape(len(ua) * len(ub), ua.shape[1] * ub.shape[1], -1))
    return CqqState(probs, tuple(factors))


def intersect(*regions) -> RateRegion:
    regs = [as_region(r) for r in regions]
    if not regs:
        raise ValueError("intersection of nothing")
    acc = regs[0]
    for reg in regs[1:]:
        rects = [
            Rect(min(a.r1_max, b.r1_max), min(a.r2_max, b.r2_max))
            for a in acc.rects
            for b in reg.rects
        ]
        acc = RateRegion(tuple(rects))
    return acc


# per-instance samplers: the reference for randutil's stacked functions


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
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    return DensityMatrix(random_density_mat(rng, dims, rank), dims)


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random operator with 0 <= E <= I (uniform spectrum, Haar eigenbasis)."""
    u = haar_isometry(rng, dim, dim)
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


def random_kraus_ops(
    rng: np.random.Generator, in_dim: int, out_dim: int, count: int
) -> tuple[np.ndarray, ...]:
    """Kraus operators of a random CPTP map (Gaussian ops, whitened)."""
    raw = [complex_gaussian(rng, (out_dim, in_dim)) for _ in range(count)]
    s = sum(k.conj().T @ k for k in raw)
    w = pinv_sqrt_psd(s)
    return tuple(k @ w for k in raw)


def random_et_code(rng: np.random.Generator, n=1, m1=2, m2=2, da=2, db=2, dc=4) -> EtCode:
    """Structurally valid code with random encoder, states and decoder: one
    ``et_code_raw`` draw built as a stack of one."""
    raw = et_code_raw(rng, n, m1, m2, da, db, dc)
    return random_et_codes(*(part[None] for part in raw), n=n, m1=m1, m2=m2, da=da, db=db, dc=dc)[0]


def gram_buckets(stacks) -> list[tuple[int, int, int]]:
    """The ``eigh`` calls of the rate kernel for Gram stacks given as (size,
    count) pairs in its order (every S(C), then every S(BC), then every average
    C state): one (count, size, size) call per distinct size, in first-seen order."""
    counts: dict[int, int] = {}
    for size, count in stacks:
        counts[size] = counts.get(size, 0) + count
    return [(count, size, size) for size, count in counts.items()]


def record_spectra(monkeypatch) -> list[tuple[str, tuple]]:
    """Every ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` call from here on, as
    (name, shape) in call order, until ``monkeypatch.undo()``."""
    calls = []

    def recorded(name):
        original = getattr(np.linalg, name)

        def spectrum(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spectrum)

    recorded("eigh")
    recorded("eigvalsh")
    return calls


def member_gram_sizes(b: int, c: int, kraus: int, labels: int) -> tuple[int, int, int]:
    """A member's own smaller Gram sides for S(C), S(BC) and the average C state."""
    return min(c, b * kraus), min(b * c, kraus), min(c, labels * b * kraus)


# per-instance suites: the reference for the suites that evaluate on stacks.
# Each draws as its ``cqmac.suites`` namesake and builds every instance alone.


def suite_data_processing(seed: int, samples: int = 100, tol: float | None = None):
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        draws.append(((da, db), (gaussian_raw(rng, (da * db,) * 2), kraus_raw(rng, db, db, 2))))
    margins = []
    for dims, (raw, kraus) in _by_shape(draws):
        rho = wishart_states(raw)
        channels = [KrausChannel(ops, dims[1:], dims[1:]) for ops in whitened_kraus(kraus)]
        out = np.stack([apply_channel_mat(ch, r, dims, [1])[0] for ch, r in zip(channels, rho)])
        margins.append(_coherent_information(rho, dims) - _coherent_information(out, dims) + tol)
    return _collect("data_processing", margins)


def suite_compound_monotonicity(seed: int, samples: int = 100, tol: float | None = None):
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        qmacs = np.stack([kraus_raw(rng, 4, 4, 2) for _ in range(int(rng.integers(1, 4)) + 1)])
        p = rng.dirichlet(np.ones(2))
        letters = np.stack([gaussian_raw(rng, 2) for _ in range(2)])
        draws.append((len(qmacs), (qmacs, p, letters, gaussian_raw(rng, 4))))
    margins = []
    for _, (qmacs, probs, letters, psis) in _by_shape(draws):
        letters = unit_factors(letters.reshape(-1, 2, 2)).reshape(len(letters), 2, 2)
        for ops, p, vecs, psi in zip(whitened_kraus(qmacs), probs, letters, unit_factors(psis)):
            members = tuple(_qmac(k) for k in ops)
            v, psi = CqChannel(vecs), PureState(psi, (2, 2))
            small = compound_rect(CompoundSet(members[:-1]), 1, p, v, psi)
            large = compound_rect(CompoundSet(members), 1, p, v, psi)
            margins.append(small.r1_max - large.r1_max + tol)
            margins.append(small.r2_max - large.r2_max + tol)
    return _collect("compound_monotonicity", margins)


def suite_diamond_bounds(seed: int, samples: int = 60, tol: float | None = None):
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = [(None, (np.stack([kraus_raw(rng, 3, 3, 2) for _ in range(3)]),)) for _ in range(samples)]
    margins = []
    for _, (raw,) in _by_shape(draws):
        channels = [KrausChannel(k, (3,), (3,)) for k in whitened_kraus(raw).reshape(-1, 2, 3, 3)]
        chois = np.array([choi_matrix(ch) for ch in channels]).reshape(-1, 3, 9, 9)
        ja, jb, jc = chois.swapaxes(0, 1)
        up_ab, up_bc, up_ac = trace_norm(np.stack([ja - jb, jb - jc, ja - jc]))
        lo_ab = up_ab / 3
        margins += [up_ab - lo_ab + tol, up_ab + up_bc - up_ac + tol]
    return _collect("diamond_bounds", margins)
