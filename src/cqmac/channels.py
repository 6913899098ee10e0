"""CPTP maps, classical-quantum channels, compound sets and coverings.

A channel is a Kraus-operator list between labeled input/output subsystem
spaces; instruments (decoder branches) carry a trace-non-increasing flag.
Kraus families are validated where numbers enter: in the public constructor
and in the JSON loader. Library products of validated channels are complete
by construction and skip the Gram (``KrausChannel._trusted``); tests check them.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .qmatrix import (
    DimensionMismatchError,
    factor_trace_norm,
    partial_trace_mat,
    permute_mat,
    pinv_sqrt_psd,
    trace_norm,
    zero_padded,
)

CPTP_TOL = 1e-8
UNIT_NORM_TOL = 1e-7
DIM_BUDGET = 64
# dimension budget of the frontier search (`region --dim-budget`) and of the
# code simulator's n-fold channel powers
INTERNAL_DIM_BUDGET = 4096


class CptpError(ValueError):
    """Kraus family fails the (sub)normalization it claims."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class BudgetExceededError(RuntimeError):
    """Requested construction exceeds the dense matrix size budget."""


def kraus_gram(stacked: np.ndarray) -> np.ndarray:
    """sum_k K_k† K_k of a (count, out, in) Kraus stack.

    Entries beyond about 1e154 overflow to inf or NaN, with no warning: every
    caller's normalization test then fails closed.
    """
    flat = stacked.reshape(-1, stacked.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return flat.conj().T @ flat


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators (out_dim x in_dim).

    The operators are copied once, at construction, into one read-only
    complex array ``stacked`` of shape (count, out_dim, in_dim);
    ``kraus_ops`` is the tuple of its per-operator views. Any sequence of
    equally shaped matrices, or a (count, out, in) array, is accepted.

    ``trace_nonincreasing`` marks an instrument branch: sum K†K <= I instead
    of equality.
    """

    kraus_ops: tuple[np.ndarray, ...]
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    trace_nonincreasing: bool = False

    def __post_init__(self):
        din = int(np.prod(self.in_dims))
        dout = int(np.prod(self.out_dims))
        if len(self.kraus_ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        try:
            stacked = np.array(self.kraus_ops, dtype=complex)  # the one copy
        except ValueError as exc:  # ragged operator shapes
            raise DimensionMismatchError(
                f"Kraus operators do not share the shape ({dout}, {din})"
            ) from exc
        if stacked.shape[1:] != (dout, din):
            raise DimensionMismatchError(
                f"Kraus operator shape {stacked.shape[1:]} does not match ({dout}, {din})"
            )
        stacked.flags.writeable = False
        if not np.all(np.isfinite(stacked)):  # before the Gram, where inf meets 0
            raise CptpError("Kraus operators have non-finite entries")
        gram = kraus_gram(stacked)
        # comparisons with NaN are false, so each test below fails closed
        if self.trace_nonincreasing:
            defect = float(np.linalg.eigvalsh(gram)[-1]) - 1.0
            if not defect <= CPTP_TOL:
                raise CptpError(
                    f"instrument exceeds trace preservation by {defect:.3e}", defect
                )
        else:
            defect = float(np.max(np.abs(gram - np.eye(din))))
            if not defect <= CPTP_TOL:
                raise CptpError(
                    f"channel is not trace preserving, defect {defect:.3e}", defect
                )
        self._store(stacked, self.in_dims, self.out_dims, self.trace_nonincreasing)

    def _store(self, stacked, in_dims, out_dims, flag):
        # straight into the instance dict, past the frozen __setattr__
        self.__dict__.update(stacked=stacked, kraus_ops=tuple(stacked), trace_nonincreasing=flag,
                             in_dims=tuple(map(int, in_dims)), out_dims=tuple(map(int, out_dims)))

    @classmethod
    def _trusted(cls, stacked, in_dims, out_dims, trace_nonincreasing=False) -> "KrausChannel":
        """A library product, complete by construction: takes ownership of the
        fresh complex (count, out, in) array ``stacked``; no copy, no Gram."""
        stacked.flags.writeable = False
        channel = object.__new__(cls)
        channel._store(stacked, in_dims, out_dims, trace_nonincreasing)
        return channel

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.in_dims))

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_dims))


def identity_channel(dims) -> KrausChannel:
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    n = int(np.prod(dims))
    return KrausChannel((np.eye(n, dtype=complex),), dims, dims)


def dephasing_channel(flip_prob: float = 0.5, full: bool = False) -> KrausChannel:
    """Qubit phase noise; ``full`` kills all off-diagonal terms."""
    if full:
        ops = (
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
        )
    else:
        z = np.diag([1.0, -1.0]).astype(complex)
        ops = (
            np.sqrt(1.0 - flip_prob) * np.eye(2, dtype=complex),
            np.sqrt(flip_prob) * z,
        )
    return KrausChannel(ops, (2,), (2,))


def erasure_channel(dim: int, prob: float = 0.5) -> KrausChannel:
    """Erasure to a flag state: output dimension dim + 1."""
    ops = np.zeros((dim + 1, dim + 1, dim), dtype=complex)
    ops[0, :dim, :] = np.sqrt(1.0 - prob) * np.eye(dim)
    ops[1:, dim, :] = np.sqrt(prob) * np.eye(dim)  # op 1 + j sends |j> to the flag
    return KrausChannel(ops, (dim,), (dim + 1,))


def batch_kron(*stacks: np.ndarray) -> np.ndarray:
    """Kronecker product of every choice of one operator per (count, rows, cols)
    stack, the first stack's index running slowest (entries match ``np.kron``)."""
    out = stacks[0]
    for b in stacks[1:]:
        ka, ra, ca = out.shape
        kb, rb, cb = b.shape
        prod = out[:, None, :, None, :, None] * b[None, :, None, :, None, :]
        out = prod.reshape(ka * kb, ra * rb, ca * cb)
    return out


def channel_tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    return KrausChannel._trusted(
        batch_kron(a.stacked, b.stacked),
        a.in_dims + b.in_dims,
        a.out_dims + b.out_dims,
        trace_nonincreasing=a.trace_nonincreasing or b.trace_nonincreasing,
    )


def _power_stack(channel: KrausChannel, k: int, budget: int) -> np.ndarray:
    """Kraus stack of the k-fold power; refuses to grow past the dense budget."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    if channel.in_dim**k > budget or channel.out_dim**k > budget:
        raise BudgetExceededError(
            f"tensor power dimension {max(channel.in_dim, channel.out_dim) ** k} "
            f"exceeds budget {budget}"
        )
    return batch_kron(*[channel.stacked] * k)


def tensor_power(channel: KrausChannel, k: int, budget: int = DIM_BUDGET) -> KrausChannel:
    """k-fold memoryless extension. Refuses to grow past the dense budget."""
    ops = _power_stack(channel, k, budget)
    if k == 1:
        return channel
    flag = channel.trace_nonincreasing
    return KrausChannel._trusted(ops, channel.in_dims * k, channel.out_dims * k, flag)


def blocked_tensor_power(channel: KrausChannel, k: int, budget: int = DIM_BUDGET) -> KrausChannel:
    """Tensor power with the input regrouped into per-sender blocks.

    For a two-input channel on (A, B) the k-fold power naturally acts on
    A1 B1 A2 B2 ...; this variant accepts (A^k, B^k) so blocked encoders
    can feed it directly. Output ordering is unchanged (per use).
    """
    if len(channel.in_dims) != 2:
        raise DimensionMismatchError("blocked power needs a two-part input (A, B)")
    ops = _power_stack(channel, k, budget)
    if k == 1:
        return channel
    da, db = channel.in_dims
    shape = (len(ops), channel.out_dim**k)
    grouped = [0, 1] + [2 + 2 * i for i in range(k)] + [3 + 2 * i for i in range(k)]
    ops = ops.reshape(shape + (da, db) * k).transpose(grouped)
    return KrausChannel._trusted(
        ops.reshape(shape + ((da * db) ** k,)),
        (da**k, db**k),
        channel.out_dims * k,
        trace_nonincreasing=channel.trace_nonincreasing,
    )


def apply_channel_mat(channel: KrausChannel, mat: np.ndarray, dims, positions=None):
    """Apply a channel to the listed subsystems of a state matrix; returns (matrix, dims).

    ``mat`` is a state on subsystems of dimensions ``dims``. ``positions``
    gives the subsystem indices forming the channel input, in channel input
    order (all of them, in order, by default); the remaining subsystems are
    untouched. The result orders untouched subsystems first (original
    order), then the channel output subsystems.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    if positions is None:
        positions = list(range(k))
    positions = [int(p) for p in positions]
    if sorted(set(positions)) != sorted(positions):
        raise DimensionMismatchError("duplicate positions")
    rest = [i for i in range(k) if i not in positions]
    if int(np.prod([dims[p] for p in positions])) != channel.in_dim:
        raise DimensionMismatchError(
            f"subsystems {positions} of dims {dims} do not match channel input "
            f"dimension {channel.in_dim}"
        )
    perm = rest + positions
    work = permute_mat(mat, dims, perm)
    r = int(np.prod([dims[i] for i in rest])) if rest else 1
    din, dout = channel.in_dim, channel.out_dim
    t = work.reshape(r, din, r, din).transpose(0, 2, 1, 3).reshape(r * r, din, din)
    ops = channel.stacked
    j = ops.shape[0]
    # two flat GEMMs: a[k,o,rr,j'] then contract (k,j') away
    a = (ops.reshape(j * dout, din) @ t.transpose(1, 0, 2).reshape(din, -1)).reshape(
        j, dout, r * r, din
    )
    b = a.transpose(2, 1, 0, 3).reshape(r * r * dout, j * din)
    c = ops.conj().transpose(1, 0, 2).reshape(dout, j * din)
    out4 = (b @ c.T).reshape(r * r, dout, dout)
    out = (
        out4.reshape(r, r, dout, dout)
        .transpose(0, 2, 1, 3)
        .reshape(r * dout, r * dout)
    )
    new_dims = tuple(dims[i] for i in rest) + channel.out_dims
    return out, new_dims


@dataclass(frozen=True)
class ChoiMatrix:
    """Unnormalized Choi operator on in (x) out, trace = in_dim."""

    matrix: np.ndarray
    in_dim: int
    out_dim: int

    def trace_preserving_defect(self) -> float:
        reduced = partial_trace_mat(self.matrix, (self.in_dim, self.out_dim), [0])
        return float(np.max(np.abs(reduced - np.eye(self.in_dim))))


def choi_factor(channel: KrausChannel) -> np.ndarray:
    """The (in_dim * out_dim, k) factor f of the Choi matrix f f†: f[(i, o), k] = K_k[o, i]."""
    return channel.stacked.transpose(2, 1, 0).reshape(-1, len(channel.kraus_ops))


def choi_matrix(channel: KrausChannel) -> ChoiMatrix:
    f = choi_factor(channel)
    return ChoiMatrix(f @ f.conj().T, channel.in_dim, channel.out_dim)


def diamond_distance_bounds(a: KrausChannel, b: KrausChannel) -> tuple[float, float]:
    """Choi trace-norm sandwich around the diamond distance.

    lower = ||J_a - J_b||_1 / in_dim <= ||a - b||_diamond <= ||J_a - J_b||_1.
    """
    if a.in_dim != b.in_dim or a.out_dim != b.out_dim:
        raise DimensionMismatchError("channels act between different spaces")
    jd = trace_norm(choi_matrix(a).matrix - choi_matrix(b).matrix)
    return jd / a.in_dim, jd


@dataclass(frozen=True)
class CqChannel:
    """Finite alphabet to pure-state outputs.

    The letter states are stored once, as one read-only complex array
    ``vectors`` of shape (alphabet, dim) whose rows are unit vectors V(x).
    """

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=complex)  # the one copy
        if vecs.ndim != 2 or vecs.shape[0] == 0:
            raise DimensionMismatchError(
                f"cq letters must form a nonempty (alphabet, dim) array, not shape {vecs.shape}"
            )
        # NaN compares false, so a non-finite letter fails this test; so does dim 0
        defect = float(np.max(np.abs(np.sum(np.abs(vecs) ** 2, axis=1) - 1.0)))
        if not defect <= UNIT_NORM_TOL:
            raise ValueError(f"cq letters are not finite unit vectors: norm defect {defect:.3e}")
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)

    @classmethod
    def from_vectors(cls, vectors) -> "CqChannel":
        """Letters from arbitrary nonzero vectors, each scaled to unit norm."""
        vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        return cls([v / np.linalg.norm(v) for v in vecs])

    @classmethod
    def basis(cls, dim: int, alphabet_size: int | None = None) -> "CqChannel":
        """Orthogonal computational-basis inputs."""
        size = dim if alphabet_size is None else alphabet_size
        if size > dim:
            raise DimensionMismatchError("alphabet larger than the space dimension")
        return cls(np.eye(dim, dtype=complex)[:size])

    @property
    def alphabet_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def cq_tensor(a: CqChannel, b: CqChannel) -> CqChannel:
    """Product alphabet, row-major pairing (x_a, x_b)."""
    prod = a.vectors[:, None, :, None] * b.vectors[None, :, None, :]
    return CqChannel(prod.reshape(a.alphabet_size * b.alphabet_size, -1))


@dataclass(frozen=True)
class CompoundSet:
    """Finite family of channels sharing input and output spaces."""

    members: tuple[KrausChannel, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.members:
            raise ValueError("compound set must be nonempty")
        first = self.members[0]
        for m in self.members:
            if m.in_dims != first.in_dims or m.out_dims != first.out_dims:
                raise DimensionMismatchError("compound members have mismatched spaces")
        labels = self.labels or tuple(f"s{i}" for i in range(len(self.members)))
        if len(labels) != len(self.members):
            raise ValueError("label count does not match member count")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "labels", tuple(labels))

    def __len__(self) -> int:
        return len(self.members)


def build_net(cset: CompoundSet, theta: float) -> CompoundSet:
    """Greedy farthest-point cover of a compound set at radius theta.

    Distances use the upper Choi trace-norm bound on the diamond distance,
    so the returned subset is a valid covering for the true metric as well.
    Each step takes, in one ``factor_trace_norm`` call on the Choi factors
    (zero-padded to the largest Kraus count), the distances from the newly
    chosen member to the members still farther than theta from the net:
    only those can be chosen later.
    """
    if not theta > 0:  # NaN too: it would never stop the cover loop
        raise ValueError("theta must be positive")
    factors = zero_padded([choi_factor(m) for m in cset.members], -1)
    min_dist = np.full(len(factors), np.inf)
    live = np.arange(len(factors))
    chosen = []
    far_idx = 0
    while True:
        chosen.append(far_idx)
        near = factors[live]
        dist = factor_trace_norm(near, np.broadcast_to(factors[far_idx], near.shape))
        min_dist[live] = np.minimum(min_dist[live], dist)
        min_dist[far_idx] = 0.0  # a rounding residue above theta would choose it again
        live = live[min_dist[live] > theta]
        if not live.size:
            break
        far_idx = int(live[np.argmax(min_dist[live])])
    chosen.sort()
    net = CompoundSet(
        tuple(cset.members[i] for i in chosen),
        tuple(cset.labels[i] for i in chosen),
    )
    if theta < 6.0:
        din = cset.members[0].in_dim
        dout = cset.members[0].out_dim
        log_bound = 2.0 * (din * dout) ** 2 * np.log(6.0 / theta)
        if np.log(max(len(net), 1)) > log_bound:
            raise AssertionError("net cardinality exceeds the covering bound")
    return net


# ---------------------------------------------------------------------------
# JSON channel format
#
# {"in_dims": [...], "out_dims": [...], "kraus": [[[re, im], ...], ...]}
# with each Kraus operator flattened row-major. A compound set is either a
# single channel object or {"members": [...], "labels": [...]}.
# ---------------------------------------------------------------------------

LOAD_CPTP_TOL = 1e-6
RENORMALIZE_TOL = 1e-12  # smaller defects keep their bits


class ChannelFormatError(ValueError):
    """Malformed channel JSON."""


def _channel_to_obj(channel: KrausChannel) -> dict:
    ops = []
    for k in channel.kraus_ops:
        flat = k.reshape(-1)
        ops.append([[float(z.real), float(z.imag)] for z in flat])
    return {
        "in_dims": list(channel.in_dims),
        "out_dims": list(channel.out_dims),
        "kraus": ops,
    }


def _positive_dims(obj: dict, key: str) -> tuple[int, ...]:
    dims = obj.get(key)
    if (
        not isinstance(dims, list)
        or not dims
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise ChannelFormatError(f"'{key}' must be a nonempty list of positive integers")
    return tuple(dims)


def _finite_entry(pair) -> complex:
    """A JSON [re, im] pair as a finite complex number."""
    if (
        isinstance(pair, list)
        and len(pair) == 2
        and all(type(x) in (int, float) for x in pair)
    ):
        try:
            z = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the float range
            z = complex("nan")
        if cmath.isfinite(z):
            return z
    raise ChannelFormatError(f"kraus entry {pair!r} is not a finite [re, im] pair")


def _channel_from_obj(obj) -> KrausChannel:
    if not isinstance(obj, dict):
        raise ChannelFormatError("a channel must be a JSON object")
    in_dims = _positive_dims(obj, "in_dims")
    out_dims = _positive_dims(obj, "out_dims")
    raw_ops = obj.get("kraus")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ChannelFormatError("'kraus' must be a nonempty list of operators")
    din = math.prod(in_dims)
    dout = math.prod(out_dims)
    ops = []
    for idx, entries in enumerate(raw_ops):
        if not isinstance(entries, list) or len(entries) != din * dout:
            raise ChannelFormatError(
                f"kraus operator {idx} is not a list of {din * dout} entries"
            )
        flat = np.array([_finite_entry(pair) for pair in entries], dtype=complex)
        ops.append(flat.reshape(dout, din))
    stacked = np.array(ops)
    gram = kraus_gram(stacked)
    defect = float(np.max(np.abs(gram - np.eye(din))))
    if not defect <= LOAD_CPTP_TOL:  # NaN too: entries can overflow in the gram
        raise CptpError(
            f"channel in file is not CPTP within {LOAD_CPTP_TOL}: defect {defect:.3e}", defect
        )
    if defect > RENORMALIZE_TOL:
        # K G^(-1/2) is trace preserving to rounding, so later CPTP_TOL checks pass
        stacked = stacked @ pinv_sqrt_psd(gram)
    return KrausChannel._trusted(stacked, in_dims, out_dims)  # checked above


def dump_compound_json(cset: CompoundSet) -> str:
    obj = {
        "members": [_channel_to_obj(m) for m in cset.members],
        "labels": list(cset.labels),
    }
    return json.dumps(obj, indent=1, sort_keys=True)


def load_compound_json(text: str) -> CompoundSet:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ChannelFormatError("top-level JSON value must be an object")
    if "members" not in obj:
        return CompoundSet((_channel_from_obj(obj),))
    members, labels = obj["members"], obj.get("labels", [])
    if not isinstance(members, list):
        raise ChannelFormatError("'members' must be a list of channels")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ChannelFormatError("'labels' must be a list of strings")
    return CompoundSet(tuple(_channel_from_obj(m) for m in members), tuple(labels))
