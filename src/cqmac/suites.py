"""Seeded property suites behind the ``verify`` command.

Each suite draws its own instances from a seeded generator, checks one
inequality or identity family, and reports the sample count, the number of
violations and the worst margin (negative means violated). The ``tol``
argument replaces the suite's default tolerance, so forcing it to zero
makes every float-level identity fail on purpose.
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
    apply_channel,
    build_net,
    choi_matrix,
    diamond_distance_bounds,
)
from .entropic import (
    CqqState,
    alicki_fannes_bound,
    coherent_information,
    holevo_information,
    mutual_information_x_c,
    von_neumann_entropy,
)
from .qmatrix import (
    DensityMatrix,
    fidelity,
    hermitian_eig,
    partial_trace,
    sqrt_psd,
    tensor,
    trace_norm,
)
from .randutil import (
    complex_gaussian,
    random_density,
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
    margins = np.asarray(list(margins), dtype=float)
    return SuiteResult(
        name=name,
        samples=margins.size,
        violations=int(np.sum(~(margins >= 0))),  # a NaN margin is a violation
        worst_margin=float(margins.min()) if margins.size else 0.0,
    )


def suite_eig_reconstruction(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        d = int(rng.integers(2, 17))
        g = complex_gaussian(rng, (d, d))
        h = g + g.conj().T
        vals, vecs = hermitian_eig(h)
        err = np.max(np.abs((vecs * vals) @ vecs.conj().T - h))
        ortho = np.max(np.abs(vecs.conj().T @ vecs - np.eye(d)))
        scale = np.linalg.norm(h, 2)
        margins.append(tol * scale - err)
        margins.append(1e-9 - ortho)
    return _collect("eig_reconstruction", margins)


def suite_partial_trace(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        rho = random_density(rng, dims)
        keep = [0] if rng.uniform() < 0.5 else [1]
        red = partial_trace(rho, keep)
        margins.append(tol - abs(np.trace(red.mat).real - 1.0))
        margins.append(np.linalg.eigvalsh(red.mat)[0] + 1e-10)
    return _collect("partial_trace", margins)


def suite_fidelity_monotone(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        dims = (2, int(rng.integers(2, 4)))
        rho = random_density(rng, dims)
        sig = random_density(rng, dims)
        full = fidelity(rho, sig)
        reduced = fidelity(partial_trace(rho, [0]), partial_trace(sig, [0]))
        margins.append(reduced - full + tol)
    return _collect("fidelity_monotone", margins)


def suite_gentle_measurement(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, (d,))
        eff = random_effect(rng, d)
        se = sqrt_psd(eff)
        lhs = trace_norm(se @ rho.mat @ se - rho.mat)
        rhs = 3.0 * np.sqrt(max(0.0, 1.0 - np.trace(eff @ rho.mat).real))
        margins.append(rhs - lhs + tol)
    return _collect("gentle_measurement", margins)


def suite_pure_fidelity_perturbation(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    """F(psi, rho) >= F(psi, sigma) - ||rho - sigma||_1 / 2."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        d = int(rng.integers(2, 7))
        psi = random_pure(rng, (d,)).density()
        rho = random_density(rng, (d,))
        sig = random_density(rng, (d,))
        lhs = fidelity(psi, rho)
        rhs = fidelity(psi, sig) - 0.5 * trace_norm(rho.mat - sig.mat)
        margins.append(lhs - rhs + tol)
    return _collect("pure_fidelity_perturbation", margins)


def suite_product_fidelity_bound(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    """F(psi (x) rho, sigma) >= 1 - ||rho - sigma_B||_1 - 3(1 - F(psi, sigma_A))."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        psi = random_pure(rng, (da,)).density()
        rho = random_density(rng, (db,))
        sig = random_density(rng, (da, db))
        lhs = fidelity(DensityMatrix(tensor(psi.mat, rho.mat), (da, db)), sig)
        rhs = (
            1.0
            - trace_norm(rho.mat - partial_trace(sig, [1]).mat)
            - 3.0 * (1.0 - fidelity(psi, partial_trace(sig, [0])))
        )
        margins.append(lhs - rhs + tol)
    return _collect("product_fidelity_bound", margins)


def suite_alicki_fannes(seed: int, samples: int = 500, tol: float | None = None) -> SuiteResult:
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = random_density(rng, (da, db))
        # mix toward another state; lam <= 1/2 keeps the trace distance <= 1
        other = random_density(rng, (da, db))
        lam = rng.uniform(0.0, 0.5) ** 2
        sig = DensityMatrix((1 - lam) * rho.mat + lam * other.mat, (da, db))
        eps = min(1.0, trace_norm(rho.mat - sig.mat))
        gap = abs(
            coherent_information(rho, [0], [1]) - coherent_information(sig, [0], [1])
        )
        margins.append(alicki_fannes_bound(eps, da) - gap + tol)
    return _collect("alicki_fannes", margins)


def suite_entropy_additivity(seed: int, samples: int = 100, tol: float | None = None) -> SuiteResult:
    tol = 1e-7 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        rho = random_density(rng, (da,))
        sig = random_density(rng, (db,))
        joint = DensityMatrix(tensor(rho.mat, sig.mat), (da, db))
        gap = abs(
            von_neumann_entropy(joint)
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
    margins = []
    for _ in range(samples):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = random_density(rng, (da, db))
        ch = KrausChannel(random_kraus_ops(rng, db, db, 2), (db,), (db,))
        before = coherent_information(rho, [0], [1])
        after = coherent_information(apply_channel(ch, rho, [1]), [0], [1])
        margins.append(before - after + tol)
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
    """Ordering and triangle inequality of the Choi trace-norm sandwich."""
    tol = 1e-9 if tol is None else tol
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(samples):
        chans = [
            KrausChannel(random_kraus_ops(rng, 3, 3, 2), (3,), (3,)) for _ in range(3)
        ]
        lo_ab, up_ab = diamond_distance_bounds(chans[0], chans[1])
        lo_bc, up_bc = diamond_distance_bounds(chans[1], chans[2])
        lo_ac, up_ac = diamond_distance_bounds(chans[0], chans[2])
        margins.append(up_ab - lo_ab + tol)
        margins.append(up_ab + up_bc - up_ac + tol)
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
        net_chois = [choi_matrix(m).matrix for m in net.members]
        for m in cset.members:
            j = choi_matrix(m).matrix
            d = min(trace_norm(j - jn) for jn in net_chois)
            margins.append(theta - d + tol)
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
