"""Seeded property suites behind the ``verify`` command.

Each suite draws its own instances from a seeded generator, checks one
inequality or identity family, and reports the sample count, the number of
violations and the worst margin (negative means violated). The ``tol``
argument replaces the suite's default tolerance, so forcing it to zero
makes every float-level identity fail on purpose.

The matrix-only suites draw all their instances first, in the seed's
order, so a seed always gives the same instances. They then group the
instances by shape (``_by_shape``) and evaluate each group with one stacked
call of each dense primitive; the result does not depend on that order,
since it is a count and a minimum. ``data_processing`` joins them: it
builds each instance's channel and output state as it draws, then takes
the entropies per shape. The suites whose subject is a channel or code
constructor (``holevo_identity``, ``compound_monotonicity``, ``timeshare``,
``code_identities``) evaluate each instance as it is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import codesim
from .channels import (
    CompoundSet,
    CqChannel,
    KrausChannel,
    apply_channel_mat,
    build_net,
    choi_matrix,
)
from .entropic import (
    CqqState,
    alicki_fannes_bound,
    holevo_information,
    mutual_information_x_c,
    von_neumann_entropy,
)
from .qmatrix import (
    dagger,
    fidelity,
    hermitian_eig,
    partial_trace_mat,
    sqrt_psd,
    trace_norm,
)
from .randutil import (
    complex_gaussian,
    random_density_mat,
    random_effect,
    random_factor,
    random_kraus_ops,
    random_pure,
)
from .regions import Rect, compound_rect, contains, timeshare_closure, union


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


def _pure_projector(rng: np.random.Generator, d: int) -> np.ndarray:
    """|psi><psi| of ``random_pure(rng, (d,))``."""
    v = random_pure(rng, (d,)).vec
    return np.outer(v, v.conj())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the matching matrices of two (N, r, c) stacks."""
    n, ra, ca = a.shape
    _, rb, cb = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, ra * rb, ca * cb)


def _coherent_information(rho: np.ndarray, dims) -> np.ndarray:
    """S(B) - S(AB) of each state of a stack on (A, B)."""
    return von_neumann_entropy(partial_trace_mat(rho, dims, [1])) - von_neumann_entropy(rho)


def suite_eig_reconstruction(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        d = int(rng.integers(2, 17))
        g = complex_gaussian(rng, (d, d))
        draws.append((d, (g + g.conj().T,)))
    margins = []
    for d, (h,) in _by_shape(draws):
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
        rho = random_density_mat(rng, dims)
        keep = 0 if rng.uniform() < 0.5 else 1
        draws.append(((dims, keep), (rho,)))
    margins = []
    for (dims, keep), (rho,) in _by_shape(draws):
        red = partial_trace_mat(rho, dims, [keep])
        trace = np.trace(red, axis1=1, axis2=2).real
        margins += [tol - np.abs(trace - 1.0), np.linalg.eigvalsh(red)[:, 0] + 1e-10]
    return _collect("partial_trace", margins)


def suite_fidelity_monotone(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        dims = (2, int(rng.integers(2, 4)))
        draws.append((dims, (random_density_mat(rng, dims), random_density_mat(rng, dims))))
    margins = []
    for dims, (rho, sig) in _by_shape(draws):
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
        draws.append((d, (random_density_mat(rng, (d,)), random_effect(rng, d))))
    margins = []
    for _, (rho, eff) in _by_shape(draws):
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
        psi = _pure_projector(rng, d)
        draws.append((d, (psi, random_density_mat(rng, (d,)), random_density_mat(rng, (d,)))))
    margins = []
    for _, (psi, rho, sig) in _by_shape(draws):
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
        psi = _pure_projector(rng, da)
        rho = random_density_mat(rng, (db,))
        draws.append(((da, db), (psi, rho, random_density_mat(rng, (da, db)))))
    margins = []
    for dims, (psi, rho, sig) in _by_shape(draws):
        lhs = fidelity(_kron(psi, rho), sig)
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
        rho = random_density_mat(rng, dims)
        # mix toward another state; lam <= 1/2 keeps the trace distance <= 1
        other = random_density_mat(rng, dims)
        lam = rng.uniform(0.0, 0.5) ** 2
        draws.append((dims, (rho, (1 - lam) * rho + lam * other)))
    margins = []
    for dims, (rho, sig) in _by_shape(draws):
        eps = np.minimum(1.0, trace_norm(rho - sig))
        gap = np.abs(_coherent_information(rho, dims) - _coherent_information(sig, dims))
        bound = np.array([alicki_fannes_bound(e, dims[0]) for e in eps])
        margins.append(bound - gap + tol)
    return _collect("alicki_fannes", margins)


def suite_entropy_additivity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-7 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        draws.append(((da, db), (random_density_mat(rng, (da,)), random_density_mat(rng, (db,)))))
    margins = []
    for _, (rho, sig) in _by_shape(draws):
        gap = np.abs(
            von_neumann_entropy(_kron(rho, sig))
            - von_neumann_entropy(rho)
            - von_neumann_entropy(sig)
        )
        margins.append(tol - gap)
    return _collect("entropy_additivity", margins)


def suite_holevo_identity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        x = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(x))
        omega = CqqState(p, tuple(random_factor(rng, (2, 2)) for _ in range(x)))
        gap = abs(mutual_information_x_c(omega) - holevo_information(omega))
        margins.append(tol - gap)
    return _collect("holevo_identity", margins)


def suite_data_processing(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    """Coherent information never grows under a channel on the second part."""
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rho = random_density_mat(rng, (da, db))
        ch = KrausChannel(random_kraus_ops(rng, db, db, 2), (db,), (db,))
        draws.append(((da, db), (rho, apply_channel_mat(ch, rho, (da, db), [1])[0])))
    margins = []
    for dims, (rho, out) in _by_shape(draws):
        margins.append(_coherent_information(rho, dims) - _coherent_information(out, dims) + tol)
    return _collect("data_processing", margins)


def _random_qmac(rng: np.random.Generator, dc: int = 4) -> KrausChannel:
    return KrausChannel(random_kraus_ops(rng, 4, dc, 2), (2, 2), (dc,))


def suite_compound_monotonicity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    """Adding a member never enlarges the compound rectangle."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        base = [_random_qmac(rng) for _ in range(int(rng.integers(1, 4)))]
        extra = _random_qmac(rng)
        p = rng.dirichlet(np.ones(2))
        v = CqChannel.from_vectors([complex_gaussian(rng, 2) for _ in range(2)])
        psi = random_pure(rng, (2, 2))
        small = compound_rect(CompoundSet(tuple(base)), 1, p, v, psi)
        large = compound_rect(CompoundSet(tuple(base + [extra])), 1, p, v, psi)
        margins.append(small.r1_max - large.r1_max + tol)
        margins.append(small.r2_max - large.r2_max + tol)
    return _collect("compound_monotonicity", margins)


def suite_diamond_bounds(seed: int, samples: int = 60, tol: float | None = None) -> SuiteResult:
    """Ordering and triangle inequality of the Choi trace-norm sandwich.

    The bounds are those of ``diamond_distance_bounds``: ||J_a - J_b||_1 over
    the input dimension 3, and ||J_a - J_b||_1.
    """
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        chans = [KrausChannel(random_kraus_ops(rng, 3, 3, 2), (3,), (3,)) for _ in range(3)]
        draws.append((None, [choi_matrix(ch).matrix for ch in chans]))
    margins = []
    for _, (ja, jb, jc) in _by_shape(draws):
        up_ab, up_bc, up_ac = trace_norm(np.stack([ja - jb, jb - jc, ja - jc]))
        lo_ab = up_ab / 3
        margins += [up_ab - lo_ab + tol, up_ab + up_bc - up_ac + tol]
    return _collect("diamond_bounds", margins)


def suite_net_cover(seed: int, samples: int = 3, tol: float | None = None) -> SuiteResult:
    """Greedy nets cover at the requested radius (exhaustive pairwise check)."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        members = tuple(
            KrausChannel(random_kraus_ops(rng, 4, 4, 2), (2, 2), (4,)) for _ in range(25)
        )
        cset = CompoundSet(members)
        theta = 0.3 * float(rng.uniform(1.0, 3.0))
        net = build_net(cset, theta)
        chois = np.array([choi_matrix(m).matrix for m in cset.members])
        net_chois = np.array([choi_matrix(m).matrix for m in net.members])
        dist = trace_norm(chois[:, None] - net_chois[None, :]).min(axis=1)
        margins.append(theta - dist + tol)
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
    margins = []
    for i in range(samples):
        qmac = _random_qmac(rng)
        code = codesim.random_et_code(rng)
        p_et = codesim.performance(code, qmac)
        eg = codesim.et_to_eg(code, qmac)
        margins.append(codesim.performance(eg, qmac) - p_et + 1e-12)
        padded = codesim.pad(code, 1)
        margins.append(tol - abs(codesim.performance(padded, qmac) - p_et))
        other = codesim.random_et_code(rng)
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
    results = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite '{name}'; available: {', '.join(SUITES)}")
        results.append(SUITES[name](seed=seed, tol=tol))
    return results
