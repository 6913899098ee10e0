"""Desk-scale construction and evaluation of hybrid classical/quantum codes.

Wiring conventions used throughout:

* a QMAC acts per use on (A, B) -> C, Kraus channel with in_dims (da, db);
* classical encoder: one state on A^n per message;
* quantum input: one joint state on (F, B^n) with F the reference space
  (dim m2): the encoder isometry applied to half of Phi for a transmission
  code, a fixed pure state for a generation code;
* a code carries each of these states as a factor w with state w w†, and
  every later state stays a factor too: the classical sender's letter
  outputs, the post-channel states and the chain audit's measured blocks;
* tag words are block indices, not tensor factors: the quantum sender's
  channel is a per-letter Kraus family, and the quantum decoder holds one
  op stack per tag word, since the receiver decodes the word first;
* decoder branches: one trace-non-increasing map C^n -> F per message,
  with the branch Kraus grams summing to the identity (completeness);
* joint states are ordered [F, ...] with the reference factor first, and
  the target of a code is |m><m| (x) Phi with Phi maximally entangled
  between the decoded space and the reference.

The classical decoder surrogate is the square-root (pretty-good)
measurement of the averaged output ensemble, and the quantum decoder is a
pretty-good recovery map, per tag word, built from the averaged channel
restricted to the code subspace. Word w's M_w is taken in the product of its
letters' output ranges: M_w <= (x)_i G_{x_i}, with G_x the sum of letter x's
K K†, so nothing of M_w lies outside them (see ``_recovery_blocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import (
    CompoundSet,
    CqChannel,
    KrausChannel,
    batch_kron,
    check_budget,
    kraus_gram,
)
from .entropic import checked_probs
from .entropic import binary_entropy, grouped_rates, holevo_fano_rate_bound, pure_output_factors
from .qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    checked_factor,
    dagger,
    factor_trace_norm,
    pinv_sqrt_psd,
    sqrt_psd,
    stacked_kron,
    tensor_all,
    trace_norm,
)
from .randutil import gaussian_raw, haar_isometries, kraus_raw
from .randutil import unit_factors, whitened_kraus

DECODER_COMPLETENESS_TOL = 1e-7
CHAIN_SLACK = 1e-9
CONVERSE_SLACK = 1e-9
# fidelity deficits below this are rounding residues of fidelity 1 and count
# as 0: the caps take sqrt(1 - fidelity), which turns 1e-16 into 1e-8
CONVERSE_DEFICIT_FLOOR = 1e-12


def _completeness_defect(branches) -> float:
    gram = kraus_gram(np.concatenate([br.stacked for br in branches]))
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


@dataclass(frozen=True)
class EtCode:
    """Hybrid code: factors of its input states, plus one decoder branch per message.

    Message m's classical state on A^n is w w† for the (da^n, rank) factor
    ``classical_factors[m]``. The quantum input is w w† for the
    (m2 db^n, rank) factor ``input_factor``, whose rows are ordered (F, B^n).
    """

    n: int
    m1: int
    m2: int
    da: int
    db: int
    dc: int
    classical_factors: tuple[np.ndarray, ...]
    input_factor: np.ndarray
    branches: tuple[KrausChannel, ...]

    def __post_init__(self):
        self._check_parts()
        defect = _completeness_defect(self.branches)
        if not defect <= DECODER_COMPLETENESS_TOL:
            raise ValueError(f"decoder branches do not sum to a channel: defect {defect:.3e}")

    @classmethod
    def _trusted(cls, **fields) -> "EtCode":
        """A library product, complete by construction: every check but the completeness Gram."""
        code = object.__new__(cls)
        code.__dict__.update(fields)
        code._check_parts()
        return code

    def _check_parts(self):
        if len(self.classical_factors) != self.m1 or len(self.branches) != self.m1:
            raise DimensionMismatchError("message count does not match encoder/decoder lists")
        rows = (self.da**self.n,)
        object.__setattr__(
            self, "classical_factors", tuple(checked_factor(w, rows) for w in self.classical_factors)
        )
        object.__setattr__(
            self, "input_factor", checked_factor(self.input_factor, (self.m2 * self.db**self.n,))
        )
        for br in self.branches:
            if br.in_dim != self.dc**self.n or br.out_dim != self.m2:
                raise DimensionMismatchError("decoder branch does not map C^n to F")
            if not br.trace_nonincreasing:
                raise ValueError("decoder branches must be flagged trace-non-increasing")


# ---------------------------------------------------------------------------
# performance evaluation
# ---------------------------------------------------------------------------


def _message_factors(code: EtCode, channel: KrausChannel) -> list[np.ndarray]:
    """Factors W_m[f, c, k] of the post-channel states W_m W_m† on [F, C^n].

    Column (k, i, j) of W_m is the n-fold Kraus op N_k applied to the product
    of the classical factor's column i and the input factor's column j. One
    ``_fed_stack`` call, the contraction that feeds the recovery, applies the
    channel use by use to every message's columns, so no n-fold power is built.
    """
    if channel.in_dims != (code.da, code.db) or channel.out_dim != code.dc:
        raise DimensionMismatchError("channel spaces do not match the code")
    n, m2, da, db, dout = code.n, code.m2, code.da, code.db, code.dc**code.n
    tau = code.input_factor.reshape(m2, db**n, -1)
    cls = np.concatenate(code.classical_factors, axis=1)  # every message's columns i side by side
    joint = np.einsum("ai,fbj->abfij", cls, tau).reshape((da,) * n + (db,) * n + (-1,))
    # rows interleaved per use, (A_1, B_1, ..., A_n, B_n), as the channel reads them
    order = [i for pair in zip(range(n), range(n, 2 * n)) for i in pair] + [2 * n]
    fed = _fed_stack(channel.stacked[None], n, joint.transpose(order).reshape((da * db) ** n, -1))
    fed = fed[0].reshape(-1, dout, m2, cls.shape[1], tau.shape[2]).transpose(2, 1, 0, 3, 4)
    ends = np.cumsum([w.shape[1] for w in code.classical_factors])  # ranks may differ
    return [fed[:, :, :, e - w.shape[1] : e].reshape(m2, dout, -1)
            for w, e in zip(code.classical_factors, ends)]


def _branch_overlap(factor: np.ndarray, branch_ops, m2: int) -> float:
    """<Phi| (id_F (x) branch)(W W†) |Phi> for the factor W[f, c, k] on [F, C^n]."""
    ops = np.asarray(branch_ops)
    t = ops.reshape(len(ops), -1) @ factor.reshape(ops[0].size, -1)
    return float(np.vdot(t, t).real) / m2


def _message_overlaps(code: EtCode, factors) -> np.ndarray:
    """Per-message fidelity with |m><m| (x) Phi of the post-channel states."""
    pairs = zip(factors, code.branches)
    return np.array([_branch_overlap(w, br.stacked, code.m2) for w, br in pairs])


def performance(code: EtCode, channel: KrausChannel) -> float:
    """Average fidelity with |m><m| (x) Phi over the message set."""
    return float(np.mean(_message_overlaps(code, _message_factors(code, channel))))


# ---------------------------------------------------------------------------
# random classical codebooks and the pretty-good measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CqCodebook:
    """Codewords over a finite alphabet plus a complete POVM on the output.

    ``sqrt_povm`` holds the square roots sqrt(D_m) as one read-only
    (messages, d, d) stack, taken by one stacked ``sqrt_psd`` on first use and
    kept: ``combine_hybrid`` applies them in its branches and
    ``hybrid_chain_report`` dresses the post-channel factors with them.
    """

    codewords: tuple[tuple[int, ...], ...]
    povm: tuple[np.ndarray, ...]

    def __post_init__(self):
        povm = np.array(self.povm, dtype=complex)
        if povm.ndim != 3 or len(povm) != len(self.codewords) or not self.codewords:
            raise DimensionMismatchError("need at least one codeword and one POVM element each")
        defect = float(np.max(np.abs(povm.sum(axis=0) - np.eye(povm.shape[1]))))
        if not defect <= 1e-8:  # a NaN entry fails here too
            raise ValueError(f"POVM does not resolve the identity: defect {defect:.3e}")
        povm.flags.writeable = False
        object.__setattr__(self, "povm", tuple(povm))
        object.__setattr__(self, "codewords", tuple(tuple(int(x) for x in w) for w in self.codewords))

    @property
    def size(self) -> int:
        return len(self.codewords)

    @cached_property
    def sqrt_povm(self) -> np.ndarray:
        roots = sqrt_psd(np.stack(self.povm))
        roots.flags.writeable = False
        return roots


def _word_factors(family: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(M, d^n, r^n) output factors of the (M, n) words for an (alphabet, d, r) stack:
    row m is the kron of word m's letter factors, entries as ``tensor_all`` gives them."""
    out = family[words[:, 0]]
    for letters in words[:, 1:].T:
        out = stacked_kron(out, family[letters])
    return out


def pgm_codebook(w_families, words) -> CqCodebook:
    """Square-root measurement of the family-averaged codeword outputs.

    ``w_families`` is a sequence of (alphabet, d, r) letter-output factor
    stacks, as ``effective_a_outputs`` returns them: letter x of a family
    outputs f f† for f = family[x], and a word outputs F F† for F the kron of
    its letters' factors. Every word's factors are built at once, and the
    averaged outputs, their total, its whitener and the POVM are each one
    stacked product. Any part of the identity missed by the measurement is
    split evenly across the messages so the POVM is complete.
    """
    words = [tuple(int(x) for x in w) for w in words]
    if not words or not all(words):
        raise ValueError("a codebook needs at least one codeword, of blocklength n >= 1")
    index = np.array(words)
    families = [np.asarray(fam, dtype=complex) for fam in w_families]
    n, d_n = index.shape[1], families[0].shape[1] ** index.shape[1]
    check_budget("codeword factors", (len(words), d_n, sum(f.shape[2] ** n for f in families)))
    check_budget("POVM stack", (len(words), d_n, d_n))
    cols = np.concatenate([_word_factors(fam, index) for fam in families], axis=2)
    avg_states = cols @ dagger(cols) / len(w_families)
    total = avg_states.sum(axis=0)  # in message order, as sum() adds them
    whitener = pinv_sqrt_psd(total)
    leftover = (np.eye(total.shape[0]) - whitener @ total @ whitener) / len(words)
    povm = whitener @ avg_states @ whitener + leftover
    return CqCodebook(tuple(words), tuple(povm))


def sample_cq_codebook(w_families, p, n: int, m1: int, seed: int) -> CqCodebook:
    """Random codebook with i.i.d. codewords and a pretty-good measurement."""
    p = np.asarray(p, dtype=float)
    rng = np.random.default_rng(seed)
    words = [tuple(int(x) for x in rng.choice(p.size, size=n, p=p)) for _ in range(m1)]
    return pgm_codebook(w_families, words)


# ---------------------------------------------------------------------------
# random entanglement-transmission codes and the pretty-good recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtTransmissionCode:
    """Sampled subspace code: encoder isometry plus the recovery decoder per tag word.

    The receiver decodes the classical word (x_1, ..., x_n) first, so ``blocks[w]``,
    w its row-major index, holds that word's read-only (count, m2, dc^n) ops on C^n.
    """

    blocks: np.ndarray
    isometry: np.ndarray
    n: int
    m2: int

    @property
    def decoder(self) -> KrausChannel:
        """The dense decoder on (C (x) X)^n, its nonzero ops only: for oracles and small n.

        It stays here, not with the test oracles, because the benchmark's
        tracer reads it (``perfbench/tracer.py``, ``_after_sample_et_code``).
        """
        words, _, m2, dout = self.blocks.shape
        x_size, dc = round(words ** (1 / self.n)), round(dout ** (1 / self.n))
        # word w's ops act on the C^n basis vectors tagged with w: op (I_C (x) <x_1|) (x) ...
        ops = np.concatenate([
            self.blocks[w] @ tensor_all([np.kron(np.eye(dc), np.eye(x_size)[x]) for x in word])
            for w, word in enumerate(np.ndindex((x_size,) * self.n))
        ])
        return KrausChannel._trusted(ops[np.any(ops, axis=(1, 2))], (ops.shape[2],), (m2,))


class LetterFamily(np.ndarray):
    """A read-only (X, K, out, in) per-letter Kraus family, checked where it was built.

    ``effective_b_channel`` marks its families ``checked``, so later calls trust
    them. An array derived from one (a slice, a product, a copy) is a new
    object, so it reads the class's ``checked = False``.
    """

    checked = False


def _letter_family(channel) -> np.ndarray:
    """A checked (X, K, out, in) per-letter Kraus family; a KrausChannel is the one-letter case."""
    if isinstance(channel, KrausChannel):
        return channel.stacked[None]
    family = np.asarray(channel)
    if isinstance(channel, LetterFamily) and channel.checked:
        return family
    if family.ndim != 4 or family.size == 0:
        raise DimensionMismatchError(f"Kraus family shape {family.shape} is not (X, K, out, in)")
    # all letters' ops together must form a channel
    ops = KrausChannel(family.reshape(-1, *family.shape[2:]), family.shape[3:], family.shape[2:3])
    return ops.stacked.reshape(family.shape)


def _fed_stack(family: np.ndarray, n: int, inputs: np.ndarray) -> np.ndarray:
    """Every word's fed ops N_{w,k} V, (X^n, K^n, out^n, cols), for an (X, K, out, in) family.

    N_{w,k} is the kron of family[x_i, k_i] over the uses; w and k are row-major.
    V is the (in^n, cols) ``inputs``, fed one use at a time: no N_{w,k} is formed.
    Each use swaps one input factor for one (x, k, out) factor, so no step
    holds more than cols max(in, X K out)^n entries: that is held to the budget
    before the first product.
    """
    ops = family.reshape(-1, family.shape[3]).T  # (in, x k out)
    check_budget("fed stack", (inputs.shape[1], max(ops.shape) ** n))
    fed = inputs
    for _ in range(n):  # use i's input rows lead; its (x, k, out) columns go last
        fed = fed.reshape(len(ops), -1).T @ ops
    fed = fed.reshape((-1,) + family.shape[:3] * n)  # (cols, x_1, k_1, c_1, ..., x_n, k_n, c_n)
    order = [i for axis in (1, 2, 3) for i in range(axis, 3 * n + 1, 3)] + [0]
    return fed.transpose(order).reshape([dim**n for dim in family.shape[:3]] + [-1])


def _recovery_blocks(family: np.ndarray, n: int, isometry: np.ndarray) -> np.ndarray:
    """Pretty-good recovery of the n-fold family on the subspace, per tag word.

    Word w's ops are B_{w,k} = V† N_{w,k}† M_w^(-1/2) with M_w = sum_k N_{w,k} V V† N_{w,k}†
    (Barnum and Knill, J. Math. Phys. 43, 2097, 2002), then one op |0><v| per
    kernel vector v of M_w, so the grams sum to the identity on C^n.

    M_w is taken in the product of the letters' output ranges. With
    G_x = sum_k K_{x,k} K_{x,k}† and V V† <= I, M_w <= (x)_i G_{x_i}, so M_w's
    support lies in (x)_i range(G_{x_i}) whatever V is. Each letter keeps its r
    top eigenvectors Q_x, r the largest range rank over the letters (a letter of
    lower rank keeps directions its ops miss, which compress to zero). With
    Q_w = (x)_i Q_{x_i} and F'_{w,k} = Q_w† N_{w,k} V, M'_w = Q_w† M_w Q_w is
    r^n wide and B_{w,k} = F'_{w,k}† M'_w^(-1/2) Q_w†. The kernel vectors are
    the product eigenvectors of the G_x outside the Q_w block plus M'_w's
    kernel mapped by Q_w. The support cutoff is relative to the largest
    eigenvalue over all words, so the decoder is the channel that one dense
    eigh of the tagged M gives.
    """
    dc = family.shape[2]
    sides = family.transpose(0, 2, 1, 3).reshape(len(family), dc, -1)
    g_vals, g_vecs = np.linalg.eigh(sides @ dagger(sides))  # G_x, ascending
    rank = int(np.max(np.sum(g_vals > 1e-12 * g_vals.max(), axis=1)))
    u_dag = dagger(g_vecs[:, :, ::-1])  # rows: each letter's eigenvectors, top first
    fed = _fed_stack(u_dag[:, None, :rank] @ family, n, isometry)  # (W, K, r^n, m2)
    words, count, width, m2 = fed.shape
    dout = dc**n
    sides = fed.transpose(0, 2, 1, 3).reshape(words, width, -1)  # M'_w = sides_w sides_w†
    vals, vecs = np.linalg.eigh(sides @ dagger(sides))
    cutoff = max(1e-12, 1e-12 * max(float(vals.max()), 0.0))
    support = vals > cutoff
    # rows of the U_w† for every word; the rows of Q_w† sit where each use's index is < r
    inside = np.all(np.indices((dc,) * n) < rank, axis=0).ravel()
    blocks = np.zeros((words, count + dout, m2, dout), dtype=complex)
    complement = blocks[:, count:, 0]
    complement[:] = batch_kron(*[u_dag] * n)
    q_dag = complement[:, inside]
    # M'_w^(-1/2) = S diag(lam^-1/2) S† over the support eigenvectors S
    inv = np.where(support, 1.0 / np.sqrt(np.clip(vals, cutoff, None)), 0.0)
    root = (vecs * inv[:, None, :]) @ dagger(vecs) @ q_dag  # M'_w^(-1/2) Q_w†
    recovery = dagger(fed).reshape(words, -1, width) @ root
    blocks[:, :count] = recovery.reshape(words, count, m2, dout)
    # M'_w's eigenvectors mapped by Q_w, zero where they span the support
    complement[:, inside] = np.where(support[:, :, None], 0.0, dagger(vecs)) @ q_dag
    blocks.flags.writeable = False
    return blocks


def sample_et_code(
    channels,
    subspace_dim: int,
    n: int,
    m2: int,
    seed: int,
) -> EtTransmissionCode:
    """One member of the random-unitary code family.

    The encoder is an isometry onto a Haar-random m2-dimensional subspace
    of the n-fold power of a ``subspace_dim``-dimensional input subspace
    (canonically embedded if the channels accept a larger space). The
    decoder is the pretty-good recovery built, per tag word, from the action
    of the uniformly averaged channel on that subspace. ``channels`` is a
    sequence of per-letter Kraus families, as ``effective_b_channel`` gives
    them, or of KrausChannels with one input and one output space.
    """
    if n < 1:
        raise ValueError(f"blocklength n = {n} must be >= 1")
    families = [_letter_family(ch) for ch in channels]
    x_size, _, dout, g0 = families[0].shape
    for fam in families:
        if (fam.shape[0],) + fam.shape[2:] != (x_size, dout, g0):
            raise DimensionMismatchError("channel family members have mismatched spaces")
    if subspace_dim > g0:
        raise DimensionMismatchError("subspace dimension exceeds the channel input")
    if m2 > subspace_dim**n:
        raise ValueError(f"m2 = {m2} exceeds subspace capacity {subspace_dim ** n}")
    count = sum(fam.shape[1] for fam in families)
    # the recovery's largest array, checked before any allocation
    check_budget("word blocks", (x_size**n, count**n + dout**n, m2, dout**n))
    rng = np.random.default_rng(seed)
    v_sub = haar_isometries(gaussian_raw(rng, (subspace_dim**n, m2))[None])[0]
    isometry = tensor_all([np.eye(g0, subspace_dim)] * n) @ v_sub
    averaged = np.concatenate(families, axis=1) / np.sqrt(len(families))
    return EtTransmissionCode(_recovery_blocks(averaged, n, isometry), isometry, n, m2)


def et_entanglement_fidelity(et: EtTransmissionCode, channel) -> float:
    """F_e of the sampled code pair on an n-fold use of ``channel``.

    ``channel`` is a per-letter Kraus family or a KrausChannel, as in
    ``sample_et_code``. With word w's decoder ops R_{w,b}, its n-fold channel
    ops N_{w,k} and the encoder isometry V,
    F_e = sum_{w,b,k} |tr(R_{w,b} N_{w,k} V)|^2 / m2^2.
    """
    family = _letter_family(channel)
    x_size, _, dout, din = family.shape
    n, m2 = et.n, et.m2
    if (x_size**n, dout**n, din**n) != (len(et.blocks), et.blocks.shape[-1], len(et.isometry)):
        raise DimensionMismatchError("channel spaces do not match the code")
    fed = _fed_stack(family, n, et.isometry)  # (W, K, dout, m2)
    # tr(R_b N_k V) = sum_{f,c} R_b[f, c] (N_k V)[c, f]: the overlap of the factor (N_k V)^T
    pairs = zip(fed, et.blocks)
    return sum(_branch_overlap(f.transpose(2, 1, 0), ops, m2) for f, ops in pairs) / m2


def expected_encoding_deviation(
    subspace_dim: int, n: int, m2: int, seed: int, family_size: int = 64
) -> float:
    """Trace distance of the family-averaged encoding from the flat state.

    Diagnostic for the random-unitary family: the exact identity holds for
    the idealized family, a finite seeded sample only approximates it.
    """
    rng = np.random.default_rng(seed)
    d = subspace_dim**n
    # one stacked draw: the numbers of family_size isometry draws in tests/oracles.py
    v = haar_isometries(rng.standard_normal((family_size, 2, d, m2)))
    avg = np.sum(v @ dagger(v) / m2, axis=0)  # in draw order
    avg /= family_size
    return trace_norm(avg - np.eye(d) / d)


# ---------------------------------------------------------------------------
# the hybrid combination
# ---------------------------------------------------------------------------


def effective_b_channel(qmac: KrausChannel, p, v: CqChannel) -> np.ndarray:
    """Per-letter Kraus families of the single-use channel seen by the quantum sender.

    The read-only (X, K, C, B) array holds sqrt(p(x)) K_k (V(x) (x) I_B) for the QMAC's
    ops K_k: the receiver decodes the letter x first, so x's ops act alone, in x's block.
    A letter with p(x) = 0 gives a zero family. The family is checked here,
    once: ``sample_et_code`` and ``et_entanglement_fidelity`` trust it.
    """
    da, db = qmac.in_dims
    if v.dim != da:
        raise DimensionMismatchError("cq channel does not feed the A input")
    p = checked_probs(p, v.alphabet_size)
    ops = qmac.stacked.reshape(-1, qmac.out_dim, da, db)  # each op's input split as (A, B)
    family = np.sqrt(p)[:, None, None, None] * np.einsum("kcab,xa->xkcb", ops, v.vectors)
    family = _letter_family(family).view(LetterFamily)  # read-only, as KrausChannel stores it
    family.checked = True
    return family


def effective_a_outputs(qmac: KrausChannel, v: CqChannel, b_state: DensityMatrix) -> np.ndarray:
    """Letter-output factors of the classical sender with a fixed B input state.

    The (alphabet, C, r) stack f has f[x] f[x]† = qmac(V(x) (x) rho_B): the
    outputs of the purification of b_state by sqrt(rho_B), its reference traced out.
    """
    da, db = qmac.in_dims
    if v.dim != da or b_state.mat.shape != (db, db):
        raise DimensionMismatchError("cq channel or B state does not feed the QMAC inputs")
    u = pure_output_factors(qmac.stacked, v.vectors, sqrt_psd(b_state.mat).T)  # (X, ref, C, K)
    return u.transpose(0, 2, 1, 3).reshape(v.alphabet_size, qmac.out_dim, -1)


def combine_hybrid(
    cq: CqCodebook,
    et: EtTransmissionCode,
    v: CqChannel,
    qmac: KrausChannel,
) -> EtCode:
    """Hybrid code: measure the message gently, tag it, then recover.

    Branch m applies sqrt(D_m) from ``cq.sqrt_povm`` and finishes with the
    quantum recovery ops of its codeword's tag word alone. Codeword m's
    classical factor is the kron of its letter vectors; the input factor is the
    encoded half of Phi, V|f> / sqrt(m2) in column order, with rows (F, B^n).
    """
    da, db = qmac.in_dims
    dc = qmac.out_dim
    n = len(cq.codewords[0])
    tags = (v.alphabet_size,) * n
    if (len(et.blocks), et.blocks.shape[-1]) != (math.prod(tags), dc**n):
        raise DimensionMismatchError("quantum decoder does not act on tagged outputs")
    branches = []
    for word, root in zip(cq.codewords, cq.sqrt_povm):
        block = et.blocks[np.ravel_multi_index(word, tags)]
        ops = (block.reshape(-1, dc**n) @ root).reshape(block.shape)  # one flat GEMM
        branches.append(KrausChannel._trusted(ops, (dc,) * n, (et.m2,), True))
    classical_factors = tuple(
        tensor_all([v.vectors[x] for x in w]).reshape(-1, 1) for w in cq.codewords
    )
    return EtCode._trusted(
        n=n,
        m1=cq.size,
        m2=et.m2,
        da=da,
        db=db,
        dc=dc,
        classical_factors=classical_factors,
        input_factor=et.isometry.T.reshape(-1, 1) / np.sqrt(et.m2),
        branches=tuple(branches),
    )


# ---------------------------------------------------------------------------
# per-instance inequality chain for the hybrid construction
# ---------------------------------------------------------------------------


def hybrid_chain_report(
    cq: CqCodebook,
    et: EtTransmissionCode,
    v: CqChannel,
    qmac: KrausChannel,
    p,
    code: EtCode,
) -> dict:
    """Evaluate every verifiable step of the hybrid error estimate.

    Per message: the gentle-measurement bound, the tagged-state
    approximation, the fidelity transfer and the final per-message bound.
    The aggregate bound uses the empirical-codeword fidelity; the variant
    with the ensemble entanglement fidelity and a 4*sqrt(e) remainder is
    reported but not asserted because its intermediate identities mix
    expectations over the codeword draw into single realizations.
    ``code`` is combine_hybrid(cq, et, v, qmac) built earlier.

    Every state stays a factor: message m's post-channel state is
    sigma_m = W W†, and its block dressed by message m' is X X† with
    X = (I_F (x) sqrt(D_m')) W, sqrt(D_m') read from ``cq.sqrt_povm``.
    """
    m2, tags = code.m2, (v.alphabet_size,) * code.n
    factors = _message_factors(code, qmac)
    words = cq.codewords
    roots = cq.sqrt_povm[:, None]  # (m', 1, C^n, C^n): broadcast over F
    tag_ops = {w: et.blocks[np.ravel_multi_index(w, tags)] for w in set(words)}
    overlaps = []
    rows = []
    violations = 0
    for m, word in enumerate(words):
        w_cols = factors[m].reshape(-1, factors[m].shape[-1])
        dressed = np.matmul(roots, factors[m][None])  # X_m' for every m', one GEMM each
        dressed = dressed.reshape(len(words), *w_cols.shape)  # rows (F, C^n)
        # overlaps[m][m'] is branch m''s fidelity on message m's state: the
        # recovery on the tag word of m' applied to X_m'. By linearity row m
        # sums to the decoded tagged state's fidelity; the diagonal is performance.
        overlaps.append([_branch_overlap(x, tag_ops[wp], m2) for x, wp in zip(dressed, words)])
        weights = np.sum(np.abs(dressed) ** 2, axis=(1, 2))  # tr X X†
        own = np.array([wp == word for wp in words])
        # the one-word error tr[(I - D_m) sigma] as the other branches' weight:
        # exactly 0 where the codeword outputs are orthogonal, where
        # 1 - tr[D_m sigma] leaves a rounding residue under the square roots
        gamma = min(max(float(np.sum(np.delete(weights, m))), 0.0), 1.0)
        gentle_lhs = factor_trace_norm(dressed[m], w_cols)
        gentle_rhs = 3.0 * np.sqrt(gamma)
        # the ideal tagged state is sigma in its own word's block and 0 elsewhere;
        # each other word's block is positive, so its trace norm is its trace
        diff_norm = factor_trace_norm(np.hstack(dressed[own]), w_cols)
        diff_norm += float(np.sum(weights[~own]))
        approx_rhs = gamma + 3.0 * np.sqrt(gamma)
        f_hat = float(np.sum(overlaps[m]))
        f_ideal = _branch_overlap(factors[m], tag_ops[word], m2)
        transfer_rhs = f_ideal - 0.5 * diff_norm
        p_m = overlaps[m][m]
        final_rhs = 1.0 - 2.0 * gamma - 3.0 * (1.0 - f_hat)
        checks = {
            "gentle_measurement": gentle_rhs - gentle_lhs,
            "tagged_approximation": approx_rhs - diff_norm,
            "fidelity_transfer": f_hat - transfer_rhs,
            "final_per_message": p_m - final_rhs,
        }
        for margin in checks.values():
            if margin < -CHAIN_SLACK:
                violations += 1
        rows.append(
            {
                "message": m,
                "one_word_error": gamma,
                "gentle_lhs": gentle_lhs,
                "gentle_rhs": gentle_rhs,
                "tagged_diff": diff_norm,
                "tagged_bound": approx_rhs,
                "fidelity_decoded": f_hat,
                "fidelity_ideal_tag": f_ideal,
                "performance": p_m,
                "margins": {k: float(mv) for k, mv in checks.items()},
            }
        )
    e_bar = float(np.mean([r["one_word_error"] for r in rows]))
    f_emp = float(np.mean([r["fidelity_ideal_tag"] for r in rows]))
    p_avg = float(np.mean(np.diag(overlaps)))
    aggregate_bound = 1.0 - 2.0 * e_bar - 3.0 * (1.0 - f_emp) - 6.0 * np.sqrt(e_bar)
    if p_avg - aggregate_bound < -CHAIN_SLACK:
        violations += 1
    b_channel = effective_b_channel(qmac, p, v)
    f_ensemble = et_entanglement_fidelity(et, b_channel)
    reported_bound = 1.0 - 2.0 * e_bar - 3.0 * (1.0 - f_ensemble) - 4.0 * np.sqrt(e_bar)
    return {
        "per_message": rows,
        "aggregate": {
            "average_one_word_error": e_bar,
            "empirical_codeword_fidelity": f_emp,
            "performance": p_avg,
            "bound": aggregate_bound,
            "margin": p_avg - aggregate_bound,
        },
        "violations": violations,
        "reported_not_asserted": {
            "ensemble_entanglement_fidelity": f_ensemble,
            "four_sqrt_bound": reported_bound,
            "holds": bool(p_avg >= reported_bound - CHAIN_SLACK),
        },
        "ambiguous_identities": [
            "per-realization form of the expectation identity linking the tagged "
            "ensemble state to the effective quantum channel",
            "final aggregate remainder constant (4 vs 6 times sqrt of the average "
            "one-word error) when the ensemble fidelity replaces the empirical one",
        ],
    }


# ---------------------------------------------------------------------------
# code surgery: conversion, concatenation, padding
# ---------------------------------------------------------------------------


def et_to_eg(code: EtCode, channel: KrausChannel) -> EtCode:
    """Replace the input state by its best eigenvector on the given channel.

    Only the input factor changes, so each candidate keeps the code's checked
    branches: ``_trusted`` checks its parts, with no completeness Gram.
    """
    w = code.input_factor
    vals, vecs = np.linalg.eigh(w @ w.conj().T)
    candidates = []
    for i in range(vals.size - 1, -1, -1):
        if vals[i] <= 1e-12:
            continue
        eg = EtCode._trusted(**{**vars(code), "input_factor": vecs[:, i : i + 1]})
        candidates.append((performance(eg, channel), -i, eg))
    best = max(candidates, key=lambda t: (t[0], t[1]))
    return best[2]


def concatenate(codes) -> EtCode:
    """Tensor-product code over the blocks, message sets multiplying."""
    codes = list(codes)
    if not codes:
        raise ValueError("nothing to concatenate")
    first = codes[0]
    for c in codes:
        if (c.da, c.db, c.dc) != (first.da, first.db, first.dc):
            raise DimensionMismatchError("blocks use different per-use spaces")
    n = sum(c.n for c in codes)
    m1 = math.prod(c.m1 for c in codes)
    m2 = math.prod(c.m2 for c in codes)
    shape1 = tuple(c.m1 for c in codes)
    # the rows of the product of the input factors are ordered
    # (F_1, B_1, F_2, B_2, ...); gather the references in front
    k = len(codes)
    tau = tensor_all([c.input_factor for c in codes])
    tau = tau.reshape([d for c in codes for d in (c.m2, c.db**c.n)] + [-1])
    tau = tau.transpose(list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)) + [2 * k])
    classical_factors = []
    branches = []
    for m in range(m1):
        parts = np.unravel_index(m, shape1)
        classical_factors.append(tensor_all([c.classical_factors[i] for c, i in zip(codes, parts)]))
        ops = batch_kron(*[c.branches[i].stacked for c, i in zip(codes, parts)])
        branches.append(KrausChannel._trusted(ops, (first.dc,) * n, (m2,), True))
    return EtCode._trusted(
        n=n,
        m1=m1,
        m2=m2,
        da=first.da,
        db=first.db,
        dc=first.dc,
        classical_factors=tuple(classical_factors),
        input_factor=tau.reshape(m2 * first.db**n, -1),
        branches=tuple(branches),
    )


def pad(code: EtCode, b: int) -> EtCode:
    """Extend the blocklength by b idle uses; the decoder traces them out."""
    if b < 0:
        raise ValueError("padding length must be >= 0")
    if b == 0:
        return code
    da, db, dc, n = code.da, code.db, code.dc, code.n
    # w (x) I/sqrt(d) is a factor of w w† (x) I/d
    pad_a = np.eye(da**b) / np.sqrt(da**b)
    classical_factors = tuple(np.kron(w, pad_a) for w in code.classical_factors)
    input_factor = np.kron(code.input_factor, np.eye(db**b) / np.sqrt(db**b))
    rows = np.eye(dc**b, dtype=complex).reshape(dc**b, 1, dc**b)
    branches = tuple(
        KrausChannel._trusted(batch_kron(br.stacked, rows), (dc,) * (n + b), (code.m2,), True)
        for br in code.branches
    )
    return EtCode._trusted(**{**vars(code), "n": n + b, "classical_factors": classical_factors,
                              "input_factor": input_factor, "branches": branches})


# ---------------------------------------------------------------------------
# converse cross-check
# ---------------------------------------------------------------------------


def converse_check(code: EtCode, cset: CompoundSet) -> dict:
    """Compare achieved rates against the information-theoretic caps.

    Per member: the Fano/Holevo cap on the classical rate and the coherent
    information cap inflated by the continuity slack of the decoded state.
    Valid codes can never violate the caps; the report flags it if one does.
    r2_cap = (ic + 2 h(eps~)) / (1 - 4 eps~) / n amplifies fidelity rounding near
    eps~ = 0.25, so compare it across builds with a relative tolerance.
    """
    n = code.n
    r1 = np.log2(code.m1) / n
    r2 = np.log2(code.m2) / n
    factors = [_message_factors(code, member) for member in cset.members]
    # one rate call for the set: each member at its own Kraus count
    rates = zip(*grouped_rates(np.full(code.m1, 1.0 / code.m1), factors))
    members = []
    violations = 0
    for label, member_factors, (i_xc, ic) in zip(cset.labels, factors, rates):
        fid = float(np.mean(_message_overlaps(code, member_factors)))
        eps = 0.0 if 1.0 - fid < CONVERSE_DEFICIT_FLOOR else min(1.0 - fid, 1.0)
        i_xc, ic = float(i_xc), float(ic)
        cap1 = holevo_fano_rate_bound(i_xc, eps) / n
        eps_tilde = 2.0 * np.sqrt(eps)
        if eps_tilde < 0.25:
            cap2 = (ic + 2.0 * binary_entropy(min(eps_tilde, 1.0))) / (1.0 - 4.0 * eps_tilde) / n
        else:
            cap2 = float("inf")
        member_violation = bool(r1 > cap1 + CONVERSE_SLACK or r2 > cap2 + CONVERSE_SLACK)
        if member_violation:
            violations += 1
        members.append(
            {
                "label": label,
                "fidelity": fid,
                "low_fidelity": bool(fid < 0.5),
                "achieved_r1": r1,
                "achieved_r2": r2,
                "r1_cap": cap1,
                "r2_cap": cap2,
                "coherent_information_per_use": ic / n,
                "violation": member_violation,
            }
        )
    return {
        "blocklength": n,
        "m1": code.m1,
        "m2": code.m2,
        "members": members,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# random small codes (test and verification fodder)
# ---------------------------------------------------------------------------


def et_code_raw(rng: np.random.Generator, n=1, m1=2, m2=2, da=2, db=2, dc=4):
    """Raw numbers of one random code, for ``random_et_codes``, in draw order: the
    m1 classical vectors (m1, 2, da^n), then the encoder's and the decoder's Kraus draws."""
    states = np.stack([gaussian_raw(rng, da**n) for _ in range(m1)])
    return states, kraus_raw(rng, m2, db**n, 2), kraus_raw(rng, dc**n, m1 * m2, 2)


def random_et_codes(states, enc, dec, n=1, m1=2, m2=2, da=2, db=2, dc=4) -> list[EtCode]:
    """The codes of stacked ``et_code_raw`` draws, (N, ...) each part."""
    vectors = unit_factors(states.reshape(-1, *states.shape[2:])).reshape(len(states), m1, -1, 1)
    # column k is encoder op E_k applied to half of Phi: E_k^T in (F, B^n) rows
    inputs = whitened_kraus(enc).swapaxes(-1, -2).reshape(len(enc), 2, -1).swapaxes(1, 2)
    codes = []
    for w, f, ops in zip(vectors, inputs / np.sqrt(m2), whitened_kraus(dec)):
        branches = tuple(
            KrausChannel(ops[:, m * m2 : (m + 1) * m2], (dc,) * n, (m2,), trace_nonincreasing=True)
            for m in range(m1)
        )
        codes.append(EtCode(n=n, m1=m1, m2=m2, da=da, db=db, dc=dc, classical_factors=tuple(w),
                            input_factor=f, branches=branches))
    return codes
