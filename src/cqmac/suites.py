"""Seeded property suites behind the ``verify`` command.

Each suite draws its own instances from a seeded generator, checks one
inequality or identity family, and reports the sample count, the number of
violations and the worst margin (negative means violated). The ``tol``
argument replaces the suite's default tolerance, so forcing it to zero
makes every float-level identity fail on purpose.

Every suite but ``timeshare`` first draws each instance's raw numbers, in
the seed's order (the draw contract of ``randutil``), then groups the
instances by shape (``_by_shape``) and builds each group's states, effects
and whitened Kraus stacks with one stacked ``randutil`` call each. The
matrix-only suites evaluate each group with one stacked call of each dense
primitive. Three of the suites about channels also make one call per shape
of the library route they test, which takes the group's raw Kraus stacks and
checks them once per stack as ``KrausChannel`` checks one channel:
``data_processing`` applies N channels to N states in one
``apply_channel_mat``, ``compound_monotonicity`` rates N compound sets, each
with its own (p, V, psi), in one ``compound_rects`` call for the small sets
and one for the large, and ``diamond_bounds`` rates the three channel pairs
of every instance in one ``diamond_distance_bounds``. The other constructor
suites build their objects publicly and evaluate them one by one, with
stacked dense sides where they can:
``holevo_identity`` takes every label's C marginal in one
``partial_trace_mat`` and its entropies in one call per stack, and
``net_cover`` builds Choi matrices only for the members its net leaves out.
``timeshare`` evaluates each instance as it draws it. The result does not
depend on the evaluation order, since it is a count and a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import codesim
from .channels import (
    CompoundSet,
    KrausChannel,
    apply_channel_mat,
    build_net,
    choi_matrix,
    diamond_distance_bounds,
)
from .entropic import (
    CqqState,
    alicki_fannes_bound,
    mutual_information_x_c,
    von_neumann_entropy,
)
from .qmatrix import (
    dagger,
    fidelity,
    hermitian_eig,
    partial_trace_mat,
    sqrt_psd,
    tensor,
    trace_norm,
)
from .randutil import (
    effect_raw,
    effects,
    gaussian_raw,
    gaussians,
    kraus_raw,
    unit_factors,
    whitened_kraus,
    wishart_states,
)
from .regions import Rect, compound_rects, contains, timeshare_closure, union


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _collect(name: str, margins) -> SuiteResult:
    """Result of a list of margins: floats, or arrays of them, in any order."""
    margins = np.hstack([np.zeros(0), *margins])
    return SuiteResult(
        name=name,
        samples=margins.size,
        violations=int(np.sum(~(margins >= 0))),  # a NaN margin is a violation
        worst_margin=float(margins.min()) if margins.size else 0.0,
    )


def _by_shape(draws):
    """Group drawn instances for stacked evaluation.

    ``draws`` holds one (key, arrays) pair per sample, in draw order; the key
    names the shapes (and any other parameter the evaluation needs). Returns
    (key, stacks) per distinct key, first-seen first, where stacks[j] is the
    (N, ...) stack of the group's j-th arrays.
    """
    groups: dict = {}
    for key, arrays in draws:
        groups.setdefault(key, []).append(arrays)
    return [(key, [np.stack(column) for column in zip(*rows)]) for key, rows in groups.items()]


def _qmac(ops: np.ndarray) -> KrausChannel:
    return KrausChannel(ops, (2, 2), (ops.shape[1],))


def _coherent_information(rho: np.ndarray, dims) -> np.ndarray:
    """S(B) - S(AB) of each state of a stack on (A, B)."""
    return von_neumann_entropy(partial_trace_mat(rho, dims, [1])) - von_neumann_entropy(rho)


def suite_eig_reconstruction(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        d = int(rng.integers(2, 17))
        draws.append((d, (gaussian_raw(rng, (d, d)),)))
    margins = []
    for d, (raw,) in _by_shape(draws):
        g = gaussians(raw)
        h = g + dagger(g)
        vals, vecs = hermitian_eig(h)
        err = np.max(np.abs((vecs * vals[:, None, :]) @ dagger(vecs) - h), axis=(1, 2))
        ortho = np.max(np.abs(dagger(vecs) @ vecs - np.eye(d)), axis=(1, 2))
        scale = np.linalg.norm(h, 2, axis=(1, 2))
        margins += [tol * scale - err, 1e-9 - ortho]
    return _collect("eig_reconstruction", margins)


def suite_partial_trace(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        raw = gaussian_raw(rng, (dims[0] * dims[1],) * 2)
        keep = 0 if rng.uniform() < 0.5 else 1
        draws.append(((dims, keep), (raw,)))
    margins = []
    for (dims, keep), (raw,) in _by_shape(draws):
        red = partial_trace_mat(wishart_states(raw), dims, [keep])
        trace = np.trace(red, axis1=1, axis2=2).real
        margins += [tol - np.abs(trace - 1.0), np.linalg.eigvalsh(red)[:, 0] + 1e-10]
    return _collect("partial_trace", margins)


def suite_fidelity_monotone(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        dims = (2, int(rng.integers(2, 4)))
        n = 2 * dims[1]
        draws.append((dims, (gaussian_raw(rng, (n, n)), gaussian_raw(rng, (n, n)))))
    margins = []
    for dims, raws in _by_shape(draws):
        rho, sig = map(wishart_states, raws)
        full = fidelity(rho, sig)
        reduced = fidelity(partial_trace_mat(rho, dims, [0]), partial_trace_mat(sig, dims, [0]))
        margins.append(reduced - full + tol)
    return _collect("fidelity_monotone", margins)


def suite_gentle_measurement(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        d = int(rng.integers(2, 7))
        draws.append((d, (gaussian_raw(rng, (d, d)), *effect_raw(rng, d))))
    margins = []
    for _, (raw, eff_raw, spectra) in _by_shape(draws):
        rho = wishart_states(raw)
        eff = effects(eff_raw, spectra)
        se = sqrt_psd(eff)
        lhs = trace_norm(se @ rho @ se - rho)
        rhs = 3.0 * np.sqrt(np.maximum(0.0, 1.0 - np.trace(eff @ rho, axis1=1, axis2=2).real))
        margins.append(rhs - lhs + tol)
    return _collect("gentle_measurement", margins)


def suite_pure_fidelity_perturbation(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    """F(psi, rho) >= F(psi, sigma) - ||rho - sigma||_1 / 2."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        d = int(rng.integers(2, 7))
        # rank 1: the numbers of the pure-state sampler in tests/oracles.py, as a projector
        psi = gaussian_raw(rng, (d, 1))
        draws.append((d, (psi, gaussian_raw(rng, (d, d)), gaussian_raw(rng, (d, d)))))
    margins = []
    for _, raws in _by_shape(draws):
        psi, rho, sig = map(wishart_states, raws)
        lhs = fidelity(psi, rho)
        rhs = fidelity(psi, sig) - 0.5 * trace_norm(rho - sig)
        margins.append(lhs - rhs + tol)
    return _collect("pure_fidelity_perturbation", margins)


def suite_product_fidelity_bound(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    """F(psi (x) rho, sigma) >= 1 - ||rho - sigma_B||_1 - 3(1 - F(psi, sigma_A))."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        psi, rho = gaussian_raw(rng, (da, 1)), gaussian_raw(rng, (db, db))
        draws.append(((da, db), (psi, rho, gaussian_raw(rng, (da * db, da * db)))))
    margins = []
    for dims, raws in _by_shape(draws):
        psi, rho, sig = map(wishart_states, raws)
        lhs = fidelity(tensor(psi, rho), sig)
        rhs = (
            1.0
            - trace_norm(rho - partial_trace_mat(sig, dims, [1]))
            - 3.0 * (1.0 - fidelity(psi, partial_trace_mat(sig, dims, [0])))
        )
        margins.append(lhs - rhs + tol)
    return _collect("product_fidelity_bound", margins)


def suite_alicki_fannes(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        n = dims[0] * dims[1]
        rho, other = gaussian_raw(rng, (n, n)), gaussian_raw(rng, (n, n))
        # mix toward another state; lam <= 1/2 keeps the trace distance <= 1
        lam = rng.uniform(0.0, 0.5) ** 2
        draws.append((dims, (rho, other, np.array(lam))))
    margins = []
    for dims, (rho_raw, other_raw, lam) in _by_shape(draws):
        rho, other = wishart_states(rho_raw), wishart_states(other_raw)
        lam = lam[:, None, None]
        sig = (1 - lam) * rho + lam * other
        eps = np.minimum(1.0, trace_norm(rho - sig))
        gap = np.abs(_coherent_information(rho, dims) - _coherent_information(sig, dims))
        margins.append(alicki_fannes_bound(eps, dims[0]) - gap + tol)
    return _collect("alicki_fannes", margins)


def suite_entropy_additivity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-7 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        draws.append(((da, db), (gaussian_raw(rng, (da, da)), gaussian_raw(rng, (db, db)))))
    margins = []
    for _, raws in _by_shape(draws):
        rho, sig = map(wishart_states, raws)
        gap = np.abs(
            von_neumann_entropy(tensor(rho, sig))
            - von_neumann_entropy(rho)
            - von_neumann_entropy(sig)
        )
        margins.append(tol - gap)
    return _collect("entropy_additivity", margins)


def suite_holevo_identity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        x = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(x))
        draws.append((x, (p, np.stack([gaussian_raw(rng, (4, 4)) for _ in range(x)]))))
    margins = []
    for x, (probs, raw) in _by_shape(draws):
        flat = unit_factors(raw.reshape(-1, 2, 4, 4))  # one (B C, rank) factor per label
        omegas = [CqqState(p, tuple(u)) for p, u in zip(probs, flat.reshape(-1, x, 2, 2, 4))]
        tested = np.array([mutual_information_x_c(omega) for omega in omegas])
        # the dense side: the C marginals of every label's u u†, one stack,
        # weighted by the states' renormalised p, as the side under test is
        p = np.array([omega.probs for omega in omegas])
        c_margs = partial_trace_mat(flat @ dagger(flat), (2, 2), [1]).reshape(-1, x, 2, 2)
        avg_c = sum(p[:, i, None, None] * c_margs[:, i] for i in range(x))
        s_c = von_neumann_entropy(c_margs)
        holevo = von_neumann_entropy(avg_c) - sum(p[:, i] * s_c[:, i] for i in range(x))
        margins.append(tol - np.abs(tested - holevo))
    return _collect("holevo_identity", margins)


def suite_data_processing(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    """Coherent information never grows under a channel on the second part."""
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        draws.append(((da, db), (gaussian_raw(rng, (da * db,) * 2), kraus_raw(rng, db, db, 2))))
    margins = []
    for dims, (raw, kraus) in _by_shape(draws):
        rho = wishart_states(raw)
        out, _ = apply_channel_mat(whitened_kraus(kraus), rho, dims, [1])
        margins.append(_coherent_information(rho, dims) - _coherent_information(out, dims) + tol)
    return _collect("data_processing", margins)


def suite_compound_monotonicity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    """Adding a member never enlarges the compound rectangle."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        # the base members, then the extra one. One draw of m members' ops, op
        # by op, holds the numbers of m kraus_raw calls, as one (2, 2, 2) draw
        # holds those of the two letters' gaussian_raw calls
        m = int(rng.integers(1, 4)) + 1
        qmacs = kraus_raw(rng, 4, 4, 2 * m).reshape(m, 2, 2, 4, 4)
        p = rng.dirichlet(np.ones(2))
        letters = rng.standard_normal((2, 2, 2))
        draws.append((m, (qmacs, p, letters, gaussian_raw(rng, 4))))
    margins = []
    for _, (qmacs, probs, letters, psis) in _by_shape(draws):
        members = whitened_kraus(qmacs)
        letters = unit_factors(letters.reshape(-1, 2, 2)).reshape(len(letters), 2, 2)
        psi = unit_factors(psis).reshape(-1, 2, 2)
        # two calls, so the check is not one min taken twice
        small = compound_rects(members[:, :-1], probs, letters, psi)
        large = compound_rects(members, probs, letters, psi)
        gaps = [(a.r1_max - b.r1_max, a.r2_max - b.r2_max) for a, b in zip(small, large)]
        margins.append(np.ravel(gaps) + tol)
    return _collect("compound_monotonicity", margins)


def suite_diamond_bounds(seed: int, samples: int = 60, tol: float | None = None) -> SuiteResult:
    """Ordering and triangle inequality of the Choi trace-norm sandwich
    (``diamond_distance_bounds``) on the pairs ab, bc and ac of three channels."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = [(None, (kraus_raw(rng, 3, 3, 6).reshape(3, 2, 2, 3, 3),)) for _ in range(samples)]
    margins = []
    for _, (raw,) in _by_shape(draws):
        ops = whitened_kraus(raw)
        lower, upper = diamond_distance_bounds(ops[:, [0, 1, 0]], ops[:, [1, 2, 2]])
        up_ab, up_bc, up_ac = upper.T
        margins += [up_ab - lower[:, 0] + tol, up_ab + up_bc - up_ac + tol]
    return _collect("diamond_bounds", margins)


def _net_distances(cset: CompoundSet, net: CompoundSet) -> np.ndarray:
    """Each member's Choi trace-norm distance to its nearest net member.

    A member that is itself in the net (the same object) is at distance
    exactly 0, the trace norm of the zero matrix, so dense Choi matrices are
    built only for the members the net leaves out, and compared with every
    net member.
    """
    kept = {id(m) for m in net.members}
    off = [i for i, m in enumerate(cset.members) if id(m) not in kept]
    dist = np.zeros(len(cset.members))
    if off:
        chois = np.array([choi_matrix(cset.members[i]) for i in off])
        net_chois = np.array([choi_matrix(m) for m in net.members])
        dist[off] = trace_norm(chois[:, None] - net_chois[None, :]).min(axis=1)
    return dist


def suite_net_cover(seed: int, samples: int = 3, tol: float | None = None) -> SuiteResult:
    """Greedy nets cover at the requested radius: every member lies within
    theta of the net (``_net_distances``), and a tiny radius keeps them all."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        raw = np.stack([kraus_raw(rng, 4, 4, 2) for _ in range(25)])
        draws.append((None, (raw, np.array(0.3 * float(rng.uniform(1.0, 3.0))))))
    margins = []
    for _, (raw, thetas) in _by_shape(draws):
        for ops, theta in zip(whitened_kraus(raw), thetas):
            cset = CompoundSet(tuple(_qmac(k) for k in ops))
            margins.append(theta - _net_distances(cset, build_net(cset, theta)) + tol)
            tiny = build_net(cset, 1e-12)
            margins.append(float(len(tiny.members) == len(cset.members)) - 0.5)
    return _collect("net_cover", margins)


def suite_timeshare(seed: int, samples: int = 20, tol: float | None = None) -> SuiteResult:
    """Idempotency plus corner-combination membership on random regions."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        rects = [Rect(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(3)]
        region = union(*rects)
        grid = int(rng.integers(2, 5))
        once = timeshare_closure(region, grid)
        twice = timeshare_closure(once, grid)
        same = set(once.corners()) == set(twice.corners())
        margins.append(1.0 if same else -1.0)
        # membership of the half/half mix of two achievable corners
        two = union(Rect(rng.uniform(0, 2), rng.uniform(0, 2)),
                    Rect(rng.uniform(0, 2), rng.uniform(0, 2)))
        corners = two.corners()
        a, b = corners[0], corners[-1]
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        ok = contains(timeshare_closure(two, 2), mid, tol=1e-9 + tol)
        margins.append(1.0 if ok else -1.0)
    return _collect("timeshare", margins)


def suite_code_identities(seed: int, samples: int = 20, tol: float | None = None) -> SuiteResult:
    """Conversion, padding and concatenation identities on random codes."""
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        qmac = kraus_raw(rng, 4, 4, 2)
        draws.append((None, (qmac, *codesim.et_code_raw(rng), *codesim.et_code_raw(rng))))
    margins = []
    for _, (qmacs, *raws) in _by_shape(draws):
        codes = codesim.random_et_codes(*raws[:3])
        others = codesim.random_et_codes(*raws[3:])
        for ops, code, other in zip(whitened_kraus(qmacs), codes, others):
            qmac = _qmac(ops)
            p_et = codesim.performance(code, qmac)
            eg = codesim.et_to_eg(code, qmac)
            margins.append(codesim.performance(eg, qmac) - p_et + 1e-12)
            padded = codesim.pad(code, 1)
            margins.append(tol - abs(codesim.performance(padded, qmac) - p_et))
            joint = codesim.concatenate([code, other])
            prod = p_et * codesim.performance(other, qmac)
            margins.append(tol - abs(codesim.performance(joint, qmac) - prod))
    return _collect("code_identities", margins)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "eig_reconstruction": suite_eig_reconstruction,
    "partial_trace": suite_partial_trace,
    "fidelity_monotone": suite_fidelity_monotone,
    "gentle_measurement": suite_gentle_measurement,
    "pure_fidelity_perturbation": suite_pure_fidelity_perturbation,
    "product_fidelity_bound": suite_product_fidelity_bound,
    "alicki_fannes": suite_alicki_fannes,
    "entropy_additivity": suite_entropy_additivity,
    "holevo_identity": suite_holevo_identity,
    "data_processing": suite_data_processing,
    "compound_monotonicity": suite_compound_monotonicity,
    "diamond_bounds": suite_diamond_bounds,
    "net_cover": suite_net_cover,
    "timeshare": suite_timeshare,
    "code_identities": suite_code_identities,
}


def run_suites(seed: int, names=None, tol: float | None = None) -> list[SuiteResult]:
    chosen = list(SUITES) if names is None else list(names)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite '{name}'; available: {', '.join(SUITES)}")
    return [SUITES[name](seed=seed, tol=tol) for name in chosen]
