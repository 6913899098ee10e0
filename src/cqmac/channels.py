"""CPTP maps, classical-quantum channels, compound sets and coverings.

A channel is a Kraus-operator list between labeled input/output subsystem
spaces; instruments (decoder branches) carry a trace-non-increasing flag.
Kraus families are validated where numbers enter: in the public constructor,
in the JSON loader and, once per stack, in the routes that take N channels of
one shape as a raw Kraus array (``checked_kraus``). Library products of
validated channels are complete by construction and skip the Gram
(``KrausChannel._trusted``); tests check them.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .qmatrix import (
    DimensionMismatchError,
    dagger,
    factor_trace_norm,
    permute_mat,
    pinv_sqrt_psd,
    tensor,
    trace_norm,
    zero_padded,
)

CPTP_TOL = 1e-8
UNIT_NORM_TOL = 1e-7
# The one memory rule: no single array above this many complex entries (a
# 512 MiB complex128 array). Each route computes the shape of its largest
# array and calls ``check_budget`` before it allocates, so an oversized one is
# refused, by name, before it exists.
BUDGET_ENTRIES = 2**25


class CptpError(ValueError):
    """Kraus family fails the (sub)normalization it claims."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class BudgetExceededError(RuntimeError):
    """An array would hold more than ``BUDGET_ENTRIES`` entries."""


def check_budget(what: str, shape) -> None:
    """Refuse the array ``what`` of ``shape`` if it has more than ``BUDGET_ENTRIES`` entries."""
    shape = tuple(int(d) for d in shape)
    entries = math.prod(shape)
    if entries > BUDGET_ENTRIES:
        raise BudgetExceededError(
            f"{what} of shape {shape} has {entries} entries, above the budget of "
            f"{BUDGET_ENTRIES} entries per array"
        )


def kraus_gram(stacked: np.ndarray) -> np.ndarray:
    """sum_k K_k† K_k of a (count, out, in) Kraus stack, or of each family in a
    (..., count, out, in) stack of them.

    Entries beyond about 1e154 overflow to inf or NaN, with no warning: every
    caller's normalization test then fails closed.
    """
    flat = stacked.reshape(*stacked.shape[:-3], -1, stacked.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return dagger(flat) @ flat


def checked_kraus(stacked, trace_nonincreasing: bool = False) -> np.ndarray:
    """A (count, out, in) Kraus family, or a (..., count, out, in) stack of them,
    as a complex array once each family is checked: finite entries, then
    sum_k K_k† K_k = I within ``CPTP_TOL`` (<= I for an instrument branch).
    ``KrausChannel`` checks its copy here, and the stacked routes their raw
    numbers; a ``CptpError`` carries the largest defect of the stack."""
    stacked = np.asarray(stacked, dtype=complex)
    if stacked.ndim < 3:
        raise DimensionMismatchError(f"a Kraus stack of shape {stacked.shape} has no operator axis")
    if not np.all(np.isfinite(stacked)):  # before the Gram, where inf meets 0
        raise CptpError("Kraus operators have non-finite entries")
    gram = kraus_gram(stacked)
    # comparisons with NaN are false, so each test below fails closed
    if trace_nonincreasing:
        defect = float(np.max(np.linalg.eigvalsh(gram)[..., -1], initial=0.0)) - 1.0
        if not defect <= CPTP_TOL:
            raise CptpError(f"instrument exceeds trace preservation by {defect:.3e}", defect)
    else:
        defect = float(np.max(np.abs(gram - np.eye(stacked.shape[-1])), initial=0.0))
        if not defect <= CPTP_TOL:
            raise CptpError(f"channel is not trace preserving, defect {defect:.3e}", defect)
    return stacked


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
        din = math.prod(map(int, self.in_dims))
        dout = math.prod(map(int, self.out_dims))
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
        checked_kraus(stacked, self.trace_nonincreasing)
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
        return math.prod(self.in_dims)

    @property
    def out_dim(self) -> int:
        return math.prod(self.out_dims)


def identity_channel(dims) -> KrausChannel:
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    n = math.prod(dims)
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
    """``tensor`` of every choice of one operator per (count, rows, cols) stack,
    the first stack's index running slowest."""
    out = stacks[0]
    for b in stacks[1:]:
        prod = tensor(out[:, None], b[None])
        out = prod.reshape(-1, *prod.shape[2:])
    return out


def channel_tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    return KrausChannel._trusted(
        batch_kron(a.stacked, b.stacked),
        a.in_dims + b.in_dims,
        a.out_dims + b.out_dims,
        trace_nonincreasing=a.trace_nonincreasing or b.trace_nonincreasing,
    )


def _power_stack(channel: KrausChannel, k: int) -> np.ndarray:
    """Kraus stack of the k-fold power, refused before it is built if over the budget."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    count, dout, din = channel.stacked.shape
    check_budget("k-fold Kraus power", (count**k, dout**k, din**k))
    return batch_kron(*[channel.stacked] * k)


def tensor_power(channel: KrausChannel, k: int) -> KrausChannel:
    """k-fold memoryless extension."""
    if k == 1:
        return channel
    ops = _power_stack(channel, k)
    flag = channel.trace_nonincreasing
    return KrausChannel._trusted(ops, channel.in_dims * k, channel.out_dims * k, flag)


def blocked_tensor_power(channel: KrausChannel, k: int) -> KrausChannel:
    """Tensor power with the input regrouped into per-sender blocks.

    For a two-input channel on (A, B) the k-fold power naturally acts on
    A1 B1 A2 B2 ...; this variant accepts (A^k, B^k) so blocked encoders
    can feed it directly. Output ordering is unchanged (per use).
    """
    if len(channel.in_dims) != 2:
        raise DimensionMismatchError("blocked power needs a two-part input (A, B)")
    if k == 1:
        return channel
    ops = _power_stack(channel, k)
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


def apply_channel_mat(channel, mat: np.ndarray, dims, positions=None):
    """Apply a channel to the listed subsystems of a state matrix; returns (matrix, dims).

    ``mat`` is a state on subsystems of dimensions ``dims``. ``positions``
    gives the subsystem indices forming the channel input, in channel input
    order (all of them, in order, by default); the remaining subsystems are
    untouched. The result orders untouched subsystems first (original
    order), then the channel output subsystems.

    ``channel`` is a ``KrausChannel``, or N channels of one shape at once: an
    (N, count, out, in) array of Kraus stacks, each checked as
    ``KrausChannel`` checks one (``checked_kraus``) and applied to its own
    matrix of the (N, d, d) stack ``mat``. Their output is one subsystem of
    dimension out, and the matrix returned is the (N, d', d') stack. One
    channel is the N = 1 case of the same two GEMMs.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    if positions is None:
        positions = list(range(k))
    positions = [int(p) for p in positions]
    if len(set(positions)) != len(positions) or not all(0 <= p < k for p in positions):
        raise DimensionMismatchError(f"positions {positions} are not distinct subsystems of {k}")
    rest = [i for i in range(k) if i not in positions]
    din = math.prod(dims[p] for p in positions)
    if isinstance(channel, KrausChannel):
        if din != channel.in_dim:
            raise DimensionMismatchError(
                f"subsystems {positions} of dims {dims} do not match channel input "
                f"dimension {channel.in_dim}"
            )
        ops, out_dims, mats = channel.stacked[None], channel.out_dims, np.asarray(mat)[None]
    else:
        ops, mats = checked_kraus(channel), np.asarray(mat)
        out_dims = ops.shape[-2:-1]
        if ops.ndim != 4 or ops.shape[-1] != din or mats.ndim != 3 or len(mats) != len(ops):
            raise DimensionMismatchError(
                f"Kraus stacks {ops.shape} on subsystems {positions} of a {mats.shape} state stack"
            )
    n = len(ops)
    work = permute_mat(mats, dims, rest + positions)
    r = math.prod(dims[i] for i in rest)
    j, dout = ops.shape[1:3]
    t = work.reshape(n, r, din, r, din).transpose(0, 1, 3, 2, 4).reshape(n, r * r, din, din)
    # two flat GEMMs per channel: a[k,o,rr,j'] then contract (k,j') away
    a = (ops.reshape(n, j * dout, din) @ t.transpose(0, 2, 1, 3).reshape(n, din, -1)).reshape(
        n, j, dout, r * r, din
    )
    b = a.transpose(0, 3, 2, 1, 4).reshape(n, r * r * dout, j * din)
    c = ops.conj().transpose(0, 2, 1, 3).reshape(n, dout, j * din)
    out4 = (b @ c.swapaxes(-1, -2)).reshape(n, r, r, dout, dout)
    out = out4.transpose(0, 1, 3, 2, 4).reshape(n, r * dout, r * dout)
    new_dims = tuple(dims[i] for i in rest) + out_dims
    return (out[0] if isinstance(channel, KrausChannel) else out), new_dims


def choi_factor(channel) -> np.ndarray:
    """The (in_dim * out_dim, k) factor f of the Choi matrix f f†: f[(i, o), k] = K_k[o, i].

    ``channel`` is a ``KrausChannel`` or, unchecked, a (..., k, out, in) array
    of Kraus stacks, which gives the (..., in * out, k) stack of factors.
    """
    ops = channel.stacked if isinstance(channel, KrausChannel) else channel
    return ops.swapaxes(-1, -3).reshape(*ops.shape[:-3], -1, ops.shape[-3])


def choi_matrix(channel) -> np.ndarray:
    """The unnormalized Choi matrix f f† on in (x) out, trace = in_dim, of a
    ``KrausChannel``, or the (..., in * out, in * out) stack of them for a
    (..., k, out, in) array of Kraus stacks, each checked as ``KrausChannel``
    checks one (``checked_kraus``)."""
    if not isinstance(channel, KrausChannel):
        channel = checked_kraus(channel)
    f = choi_factor(channel)
    return f @ dagger(f)


def diamond_distance_bounds(a, b):
    """Choi trace-norm sandwich around the diamond distance of two channels:
    lower = ||J_a - J_b||_1 / in_dim <= ||a - b||_diamond <= ||J_a - J_b||_1.

    ``a`` and ``b`` are what ``choi_matrix`` takes: two ``KrausChannel``s, or
    two (..., k, out, in) Kraus stacks of one shape, whose matching channels
    give (lower, upper) as two arrays over the leading axes.
    """
    d_in = [c.in_dim if isinstance(c, KrausChannel) else np.shape(c)[-1] for c in (a, b)]
    ja, jb = choi_matrix(a), choi_matrix(b)
    if d_in[0] != d_in[1] or ja.shape != jb.shape:
        raise DimensionMismatchError("channels act between different spaces")
    jd = trace_norm(ja - jb)
    return jd / d_in[0], jd


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
        if len(set(labels)) != len(labels):  # the reports key each member's results by label
            raise ValueError(f"compound set labels must be distinct, got {list(labels)}")
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
    # packing bound: members are more than theta apart and every Choi matrix is a
    # point of trace norm din in a real (din dout)^2-dimensional space, so the
    # theta/2 balls fit in radius din + theta/2; log(1 + 2 din / theta), as a
    # difference of logs, is finite for any theta > 0
    din, dout = cset.members[0].in_dim, cset.members[0].out_dim
    log_bound = (din * dout) ** 2 * (math.log(theta + 2 * din) - math.log(theta))
    if math.log(len(net)) > log_bound:
        raise AssertionError("net cardinality exceeds the packing bound")
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
