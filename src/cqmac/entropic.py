"""Entropic functionals on states and on classical-quantum-quantum blocks.

All entropies are base 2 (bits). A CqqState keeps, per classical label, a
factor u of its conditional state (rho = u u†) instead of one big
block-diagonal matrix, which is exact and keeps dimensions small. One kernel,
``RateKernel``, computes I(X;C) and I_c(B>CX) from factors for the rate
functions, the regions, the optimizer and the converse check, taking each
spectrum from the smaller of the Gram matrices m m† and m† m of a factor m
(they share their nonzero eigenvalues). It rates every member of a compound
set in one run, each at its own Kraus count: the Grams of all members are
bucketed by size, one ``eigh`` per distinct size, so a member with few
Kraus operators never pays for another's many. It is built once and a run
only does arithmetic: ``grouped_rates`` rates factor stacks with one, and
``RateKernel.inputs`` Kraus groups on inputs (p, V, psi), such as every
evaluation of a frontier trace. Every label of its layout is
rated, and a label with p_x = 0, a zero block of the cqq state, weighs its
terms out. With one p per instance it rates N compound sets in the same run
(the ``verify`` suite ``compound_monotonicity``); one p is weighed as an
instance stack of one. For one instance, ``RateKernel.vjp`` also runs
the rates backwards, for the frontier search's gradient: the eigenvectors of
the run's own ``eigh`` give each entropy's slope, dS = tr(F dG), with no
second decomposition. Dense blocks serve only as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CqChannel, KrausChannel, check_budget
from .qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    EIGENVALUE_CLAMP,
    PureState,
    checked_factor,
    dagger,
    zero_padded,
)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] b[..., i], one dot per row: bit-equal to ``a_row @ b_row``."""
    out = a[..., None, :] @ b[..., :, None]
    return out[..., 0, 0] if out.ndim > 2 else out[0, 0]


def entropy_of_spectrum(eigenvalues: np.ndarray):
    """- sum lam log2 lam over the eigenvalues above the clamp threshold, along
    the last axis: a float for one spectrum, an array for a stack of them."""
    lam = np.where(eigenvalues > EIGENVALUE_CLAMP, eigenvalues, 1.0)  # log2(1) = 0 weighs them out
    s = -_row_dot(lam, np.log2(lam))
    return float(s) if eigenvalues.ndim == 1 else s


def von_neumann_entropy(rho):
    """S(rho) in bits; on a (..., d, d) stack, the array of each matrix's entropy."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return entropy_of_spectrum(np.linalg.eigvalsh((mat + dagger(mat)) / 2.0))


def binary_entropy(x):
    """h(x) in bits, 0 outside (0, 1); an array of x gives the array of h."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where((x <= 0.0) | (x >= 1.0), 0.0, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))
    return float(h) if h.ndim == 0 else h


def checked_probs(p, size: int) -> np.ndarray:
    """A distribution over ``size`` labels, or each row of an (N, size) stack of
    them: entries below -1e-12 and a sum off 1 by more than 1e-10 refused
    (NaN too), then clipped to >= 0 and renormalized."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != size:
        raise DimensionMismatchError(f"probabilities of shape {p.shape} for {size} labels")
    if np.any(p < -1e-12):
        raise ValueError("negative probability")
    total = p.sum(axis=-1, keepdims=True)
    if not np.all(np.abs(total - 1.0) <= 1e-10):
        raise ValueError(f"probabilities sum to {total.squeeze()}, not 1")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


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
        p = checked_probs(self.probs, len(self.factors))
        # every factor shares the first one's (B, C) rows
        rows = np.shape(self.factors[0])[:2]
        factors = tuple(checked_factor(u, rows) for u in self.factors)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "factors", factors)


# the transposes of _OutputStep's factors without and with an instance axis:
# (..., X, ref, M, K, out) stored as (..., M, X, K, ref, out), then K viewed last
_FACTOR_AXES = [((*range(n), n + 2, n, n + 3, n + 1, n + 4), (*range(n + 2), n + 3, n + 4, n + 2))
                for n in (0, 1)]


class _OutputStep:
    """``pure_output_factors`` of every Kraus stack in ``groups`` (channels
    grouped by Kraus count, ``regions.kraus_groups``) for inputs of one shape,
    from one product of the input grid with all their operators: it owns the
    concatenated, transposed operators, the grid and product buffers and one
    factor buffer per group, stored (..., M, X, K, ref, out) so that the rate
    kernel's matrices are views. A call overwrites the buffers. Only ``u`` is
    held to the budget, before any is allocated: neither the grid nor any array
    of ``backward`` is larger (a channel's K out is at least its input
    dimension). The operators, (in, Σ K out), outgrow u when X ref < in: the
    callers that stack them check them first, as the stacked Kraus powers."""

    def __init__(self, groups, letter_shape: tuple, psi_shape: tuple):
        *lead, x, a = letter_shape
        lead, ref, d_in = tuple(lead), psi_shape[-2], groups[0].shape[-1]
        ops = [g.reshape(*lead, -1, d_in) for g in groups]
        check_budget("factor product u", (*lead, x * ref, sum(o.shape[-2] for o in ops)))
        self.ops_t = (ops[0] if len(ops) == 1 else np.concatenate(ops, axis=-2)).mT
        self.grid = np.empty((*lead, x, ref, a, d_in // a), dtype=complex)
        self.u = np.empty((*lead, x * ref, self.ops_t.shape[-1]), dtype=complex)
        self._layout = (lead, x, ref, [(o.shape[-2], *g.shape[-3:-1]) for g, o in zip(groups, ops)])
        self.copies, self.factors = [], []
        for g, part in zip(groups, self._parts(self.u)):
            buf = np.empty(part.shape, dtype=complex)
            self.copies.append((buf, part))
            f = buf.transpose(_FACTOR_AXES[len(lead)][1])
            self.factors.append(f.reshape(*g.shape[:-3], *f.shape[-4:]))

    def _parts(self, u) -> list:
        """Each group's columns of ``u``, or of an array laid out as it, viewed
        (..., M, X, K, ref, out) as the group's factor buffer is stored."""
        lead, x, ref, blocks = self._layout
        parts, start = [], 0
        for width, count, d_out in blocks:
            part = u[..., start:start + width].reshape(*lead, x, ref, -1, count, d_out)
            parts.append(part.transpose(_FACTOR_AXES[len(lead)][0]))
            start += width
        return parts

    def __call__(self, letters, psi_grid) -> list:
        np.multiply(letters[..., None, :, None], psi_grid[..., None, :, None, :], out=self.grid)
        np.matmul(self.grid.reshape(self.u.shape[:-1] + (-1,)), self.ops_t, out=self.u)
        for buf, part in self.copies:
            np.copyto(buf, part)
        return self.factors

    def backward(self, letters, psi_grid, cotangents) -> tuple:
        """The cotangents (d/d conj) of one input's (X, A) letters and (ref, in)
        psi grid, from those of its factor buffers, one (M, X, K, ref, out)
        array per group: back through the product u = grid ops_t and the grid
        letters (x) psi."""
        du = np.empty_like(self.u)
        for part, d in zip(self._parts(du), cotangents):
            part[...] = d
        d_grid = (du @ self.ops_t.conj().mT).reshape(self.grid.shape)
        return (np.einsum("xraj,rj->xa", d_grid, psi_grid.conj()),
                np.einsum("xraj,xa->rj", d_grid, letters.conj()))


def pure_output_factors(kraus_stack: np.ndarray, letters: np.ndarray, psi_grid: np.ndarray):
    """Factors u[..., x, ref, out, k] of a channel's outputs on the inputs V(x) (x) psi.

    ``kraus_stack`` is (K, out, A (x) in), or (M, K, out, A (x) in) for M
    channels with one Kraus count; ``letters`` holds the V(x) as an (X, A)
    array and ``psi_grid`` holds psi as a (ref, in) matrix. Every channel and
    label comes from one product of the (X ref, A in) input grid with the
    stack; the output state of label x on (ref, out) is
    sum_k u[..., x, :, :, k] u[..., x, :, :, k]†. With an instance axis the
    letters are (N, X, A), the grid (N, ref, in) and the stack (N, M, K, out,
    A in), instance i's input meeting only its own channels.
    """
    return _OutputStep([kraus_stack], letters.shape, psi_grid.shape)(letters, psi_grid)[0]


def _smaller_gram(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """m m† or m† m for each matrix of the (..., r, c) stack m, whichever is
    smaller, written to ``out``."""
    mh = m.conj().swapaxes(-1, -2)
    return np.matmul(m, mh, out=out) if m.shape[-2] <= m.shape[-1] else np.matmul(mh, m, out=out)


def _gram_cotangent(m: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """d/d conj(m) of tr(slope G) for G = ``_smaller_gram(m)`` and Hermitian
    ``slope``: slope m for G = m m†, m slope for G = m† m."""
    return slope @ m if m.shape[-2] <= m.shape[-1] else m @ slope


def _label_matrices(u: np.ndarray, n: int) -> tuple:
    """A factor stack of n labels as a (member, x, k, b, c) stack v, with its
    per-label matrices: the C rows (c, k b) for S(C) and the (k, b c) rows for
    S(BC). All are views of the memory ``_OutputStep`` lays out."""
    b, c, k = u.shape[-3:]
    v = u.reshape(-1, n, b, c, k).swapaxes(-1, -3).swapaxes(-1, -2)
    m = len(v)
    return v, v.reshape(m, n, k * b, c).swapaxes(-1, -2), v.reshape(m, n, k, b * c)


class RateKernel:
    """``grouped_rates`` prepared once for one layout, then run on each new
    input of that layout with arithmetic only.

    Built from each group's ``_label_matrices``, a (member, x, k, b, c) label
    stack with its row views, it owns the Gram slot layout (every S(C), then
    every S(BC), then every average C state, each Gram on its own member's
    smaller side), one Gram buffer per distinct size with each slot's view into
    it, and the spectrum matrix, whose zero padding is written once (zero
    eigenvalues add no entropy). A run
    writes the Gram products into the views, takes one ``eigh`` per Gram
    size and one entropy step, and returns new arrays. It rates every label of
    its layout, whatever p: a zero p_x weighs that label's terms out.

    ``RateKernel.inputs`` builds the kernel of fixed Kraus groups, which also
    owns their ``_OutputStep`` and is called on inputs (p, V, psi): the
    frontier search builds one per trace and runs it once per evaluation. Its
    ``vjp`` is such a call, and returns the backward map of its rates too: each
    entropy's slope from the eigenpairs the run kept, then back through the
    Gram products, the average-C sums, the factor copies and the factor
    product. Each array it builds has the shape of one the run holds (u, a
    factor or a Gram buffer), so the run's budget check covers it.
    """

    def __init__(self, matrices):
        self._matrices = matrices
        self.shapes = [v.shape for v, _, _ in matrices]
        self._labels = n = self.shapes[0][1]
        gram_stacks = ([(min(c, k * b), m * n) for m, _, k, b, c in self.shapes]
                       + [(min(k, b * c), m * n) for m, _, k, b, c in self.shapes]
                       + [(min(c, n * k * b), m) for m, _, k, b, c in self.shapes])
        # each slot: its size, its start in its size's buffer and its count
        slots, counts = [], {}
        for size, num in gram_stacks:
            start = counts.get(size, 0)
            counts[size] = start + num
            slots.append((size, start, num))
        self._grams = {size: np.empty((num, size, size), dtype=complex)
                       for size, num in counts.items()}
        self._lam = np.zeros((sum(counts.values()), max(counts)))
        self._slots, self._fills, row = slots, [], 0
        for size, start, num in slots:
            self._fills.append((self._lam[row:row + num, :size], size, slice(start, start + num)))
            row += num
        self._outs = self._group_views(self._grams)
        self._mn = n * sum(m for m, *_ in self.shapes)
        self._step = None

    def _group_views(self, buffers: dict) -> list:
        """Each group's S(C), S(BC) and average-C slots of per-size ``buffers``
        laid out as the Gram buffers, as (m, n, s, s), (m, n, s, s) and (m, s, s)."""
        views = [buffers[size][start:start + num] for size, start, num in self._slots]
        g, n = len(self.shapes), self._labels
        return [(views[i].reshape(m, n, *views[i].shape[1:]),
                 views[g + i].reshape(m, n, *views[g + i].shape[1:]), views[2 * g + i])
                for i, (m, *_) in enumerate(self.shapes)]

    @classmethod
    def inputs(cls, groups, letter_shape: tuple, psi_shape: tuple) -> "RateKernel":
        """The kernel of the Kraus ``groups`` on inputs whose letters have
        ``letter_shape`` and whose psi grid has ``psi_shape``, as
        ``_OutputStep`` takes them."""
        step = _OutputStep(groups, letter_shape, psi_shape)
        kernel = cls([_label_matrices(u, letter_shape[-2]) for u in step.factors])
        kernel._step = step
        return kernel

    def __call__(self, p, letters, psi_grid):
        """``grouped_rates`` of the factors of the kernel's Kraus groups on
        (letters, psi_grid), at p: the factor step, then a run on the kernel's
        own label matrices."""
        self._step(letters, psi_grid)
        return self._run(np.asarray(p))

    def vjp(self, p, letters, psi_grid):
        """A call on one input, and the backward map of its rates:
        ``backward(g1, g2)`` takes cotangents of the two rate arrays, one real
        entry per member, and returns those of p (d/dp, 0 at a zero label), the
        letters and the psi grid (d/d conj), with no spectrum of its own. Call
        it before the kernel's next run."""
        p = np.asarray(p)
        rates = self(p, letters, psi_grid)

        def backward(g1, g2):
            dp, dvs = self._backward(p, g1, g2)
            return dp, *self._step.backward(letters, psi_grid, dvs)

        return rates, backward

    def _run(self, p):
        """The rates at p, one entry per label or one row per instance, of the
        kernel's label matrices, as ``grouped_rates`` returns them. Every label
        is rated; a zero p_x weighs its terms out. One p is an instance stack
        of one, so each member is weighed by its instance's row. It keeps each
        Gram size's eigenpairs and the label entropies for ``_backward``."""
        rows = p.reshape(-1, self._labels)
        weights = [np.repeat(rows, len(v) // len(rows), axis=0) for v, _, _ in self._matrices]
        for (v, rows_c, rows_bc), w, (g_c, g_bc, g_avg) in zip(self._matrices, weights, self._outs):
            m, n, k, b, c = v.shape
            _smaller_gram(rows_c, g_c)
            _smaller_gram(rows_bc, g_bc)
            if c <= k * b:  # C side: the average C state is sum_x p_x of the label Grams
                np.matmul(w[:, None], g_c.reshape(m, n, c * c), out=g_avg.reshape(m, 1, c * c))
            else:
                avg = np.sqrt(w)[..., None, None, None] * v
                _smaller_gram(avg.reshape(m, n * k * b, c).swapaxes(-1, -2), g_avg)
        self._eigh = {size: np.linalg.eigh(g) for size, g in self._grams.items()}
        for lam, size, part in self._fills:
            lam[...] = self._eigh[size].eigenvalues[part]
        s = entropy_of_spectrum(self._lam)
        mn, n = self._mn, self._labels
        s_c, s_bc = self._label_entropies = s[:mn].reshape(-1, n), s[mn:2 * mn].reshape(-1, n)
        w = np.concatenate(weights)
        rates = s[2 * mn:] - _row_dot(s_c, w), _row_dot(s_c - s_bc, w)
        if p.ndim == 1:
            return rates
        ends = np.cumsum([m for m, *_ in self.shapes])[:-1]
        # group-major member rows to (N, M), instance i's members group after group
        return tuple(np.hstack([r.reshape(len(rows), -1) for r in np.split(group, ends)])
                     for group in rates)

    def _backward(self, p, g1, g2):
        """The cotangents of one p (d/dp, 0 at a zero label) and of each group's
        (m, n, k, b, c) label stack (d/d conj) from cotangents g1, g2 of the
        rates of the run just made, whose Grams, eigenpairs and entropies the
        kernel still holds. Each entropy's slope is F = V diag(-log2 lam - 1/ln 2)
        V†, so that dS = tr(F dG) (eigenvalues at or below the clamp weigh 0, as
        S drops them), and G = m m† (m† m) passes F m (m F) back to m."""
        s_c, s_bc = self._label_entropies
        slopes = {}
        for size, (lam, vec) in self._eigh.items():
            above = lam > EIGENVALUE_CLAMP
            weight = np.where(above, -np.log2(np.where(above, lam, 1.0)) - 1.0 / np.log(2.0), 0.0)
            slopes[size] = (vec * weight[..., None, :]) @ vec.conj().mT
        slopes = self._group_views(slopes)
        # r1 = S(avg C) - sum_x p_x S(C_x) and r2 = sum_x p_x (S(C_x) - S(BC_x)), per member
        dp, dvs, start, live = (g2 - g1) @ s_c - g2 @ s_bc, [], 0, p > 0
        for (v, rows_c, rows_bc), (f_c, f_bc, f_avg), (gram_c, _, _) in zip(
                self._matrices, slopes, self._outs):
            m, n, k, b, c = v.shape
            w1, w2 = g1[start:start + m], g2[start:start + m]
            start += m
            pw = p[:, None, None]
            slope_c = (w2 - w1)[:, None, None, None] * pw * f_c
            dv = _gram_cotangent(rows_bc, -w2[:, None, None, None] * pw * f_bc).reshape(v.shape)
            if c <= k * b:  # the average C state is sum_x p_x of the label Grams
                slope_c = slope_c + w1[:, None, None, None] * pw * f_avg[:, None]
                dp += w1 @ np.einsum("mij,mxji->mx", f_avg, gram_c).real
            else:  # its factor is sqrt(p_x) v_x, label after label
                root = np.sqrt(p)[:, None, None, None]
                avg = (root * v).reshape(m, n * k * b, c).swapaxes(-1, -2)
                d_avg = w1[:, None, None] * _gram_cotangent(avg, f_avg)
                d_avg = d_avg.swapaxes(-1, -2).reshape(v.shape)
                dp += np.divide((d_avg.conj() * v).real.sum(axis=(0, 2, 3, 4)), root[:, 0, 0, 0],
                                out=np.zeros(n), where=live)
                dv += root * d_avg
            dvs.append(dv + _gram_cotangent(rows_c, slope_c).swapaxes(-1, -2).reshape(v.shape))
        return np.where(live, dp, 0.0), dvs


def grouped_rates(probs, groups) -> tuple[np.ndarray, np.ndarray]:
    """(I(X;C), I_c(B>CX)) of every member of every factor stack in ``groups``,
    all with this p, as two arrays over the members, group after group: one
    run of a ``RateKernel`` built for their layout.

    Each group is an (X, B, C, rank) array of label factors u[x, b, c, k], an
    (M, X, B, C, rank) array of M members or a sequence of (B, C, rank_x)
    factors, zero-padded to one rank. The groups may differ in rank (a
    compound set grouped by Kraus count), so each Gram is on its own member's
    smaller side. The Grams of one size share one ``eigh``, and all
    spectra one entropy step. Every label is rated, and a zero p_x weighs its
    terms out; nothing is validated, so a zero-p label's factor must be
    finite too.

    With one p per instance, ``probs`` is (N, X), each group is an (N, M_K, X,
    B, C, K) stack (``pure_output_factors`` with an instance axis) and the
    rates come as (N, M) arrays, instance i's members group after group.
    """
    probs = np.asarray(probs)
    matrices = [_label_matrices(u if isinstance(u, np.ndarray) else zero_padded(u, -1),
                                probs.shape[-1]) for u in groups]
    return RateKernel(matrices)._run(probs)


def checked_ensemble(channels, p, v: CqChannel, psi: PureState) -> np.ndarray:
    """p as ``CqqState`` keeps it, once (p, V, psi) is checked as an input to each
    channel: one p per letter, psi on (reference, input), V (x) input fills it."""
    p = checked_probs(p, v.alphabet_size)
    if len(psi.dims) != 2:
        raise DimensionMismatchError("psi must carry dims (reference, channel input)")
    for t in channels:
        if len(t.in_dims) < 1 or t.in_dim != v.dim * psi.dims[1]:
            raise DimensionMismatchError(f"channel input {t.in_dim} != {v.dim} x {psi.dims[1]}")
    return p


def effective_cqq_state(t: KrausChannel, p, v: CqChannel, psi: PureState) -> CqqState:
    """Classical-quantum-quantum state of an input ensemble through a channel.

    Per label x the channel acts on V(x) together with the second factor of
    the pure state psi = (reference, input); the first factor rides along
    untouched and becomes the B part of the result.
    """
    p = checked_ensemble([t], p, v, psi)
    return CqqState(p, tuple(pure_output_factors(t.stacked, v.vectors, psi.vec.reshape(psi.dims))))


def mutual_information_x_c(omega: CqqState) -> float:
    """I(X;C) = S(avg C) - avg S(C) on the block structure."""
    return float(grouped_rates(omega.probs, [omega.factors])[0][0])


def coherent_information_b_cx(omega: CqqState) -> float:
    """I_c(B>CX) = S(CX) - S(BCX) on the block structure."""
    return float(grouped_rates(omega.probs, [omega.factors])[1][0])


def alicki_fannes_bound(epsilon, dim_a: int):
    """Continuity bound for coherent-type quantities at trace distance epsilon;
    an array of epsilons gives the array of bounds."""
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps >= 0.0) & (eps <= 1.0)):  # NaN fails closed
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    h = binary_entropy(2.0 * eps / (1.0 + 2.0 * eps))
    bound = 6.0 * eps * np.log2(dim_a) + (2.0 + 4.0 * eps) * h
    return float(bound) if bound.ndim == 0 else bound


def holevo_fano_rate_bound(information: float, error: float) -> float:
    """Cap on log2(m1) implied by I(X;C) = ``information`` and a performance deficit ``error``.

    The classical decoding error probability is bounded by 2*sqrt(error);
    solving the Fano/Holevo chain for log M1 gives (I(X;C) + 1)/(1 - e~)
    whenever e~ < 1, and the cap is vacuous (+inf) otherwise.
    """
    if not 0.0 <= error <= 1.0:
        raise ValueError(f"error {error} outside [0, 1]")
    err_tilde = 2.0 * np.sqrt(error)
    if err_tilde >= 1.0:
        return float("inf")
    return (information + 1.0) / (1.0 - err_tilde)
