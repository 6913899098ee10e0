"""Rate-region geometry as finite unions of axis-aligned boxes.

A Rect(r1_max, r2_max) stands for the box [0, r1_max] x [0, r2_max] of rate
pairs in bits per channel use. Regions are unions of such boxes kept in a
canonical Pareto-maximal form, which makes fattening, union and membership
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    UNIT_NORM_TOL,
    CompoundSet,
    CqChannel,
    blocked_tensor_power,
    check_budget,
    checked_kraus,
)
from .entropic import RateKernel, checked_ensemble, checked_probs
from .qmatrix import HERMITICITY_TOL, DimensionMismatchError, PureState

BOUNDARY_TOL = 1e-6
# a CSV rate below this is round-off of 0 and prints as 0
CSV_ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True)
class Rect:
    """The box [0, r1_max] x [0, r2_max]; negative inputs clamp to zero."""

    r1_max: float
    r2_max: float

    def __post_init__(self):
        object.__setattr__(self, "r1_max", max(0.0, float(self.r1_max)))
        object.__setattr__(self, "r2_max", max(0.0, float(self.r2_max)))


def _canonical(rects) -> tuple[Rect, ...]:
    """Keep Pareto-maximal rectangles, sorted by descending r1."""
    rects = sorted(rects, key=lambda r: (-r.r1_max, -r.r2_max))
    kept: list[Rect] = []
    best_r2 = -1.0
    for r in rects:
        if r.r2_max > best_r2 + 1e-15:
            kept.append(r)
            best_r2 = r.r2_max
    return tuple(kept) if kept else (Rect(0.0, 0.0),)


@dataclass(frozen=True)
class RateRegion:
    rects: tuple[Rect, ...]

    def __post_init__(self):
        object.__setattr__(self, "rects", _canonical(self.rects))

    def corners(self) -> list[tuple[float, float]]:
        return [(r.r1_max, r.r2_max) for r in self.rects]


def as_region(obj) -> RateRegion:
    if isinstance(obj, RateRegion):
        return obj
    if isinstance(obj, Rect):
        return RateRegion((obj,))
    return RateRegion(tuple(obj))


def kraus_groups(channels) -> list[np.ndarray]:
    """The channels' (K, out, in) Kraus stacks as one (M_K, K, out, in) array per
    Kraus count K, counts in first-seen order, so rates never see padded ops."""
    groups: dict[int, list[np.ndarray]] = {}
    for t in channels:
        groups.setdefault(len(t.stacked), []).append(t.stacked)
    return [np.stack(g) for g in groups.values()]


def per_use_minima(kernel, l: int, p, letters, psi_grid):
    """Componentwise minimum of the members' rate pairs, per use, unclamped:
    one run of a ``RateKernel`` of the members grouped by Kraus count
    (``kraus_groups``), so each Gram is on its own member's smaller side.
    Nothing is validated. The frontier objective reads these minima, and the
    rectangles clamp them; with one p per instance, p an (N, X) array, they
    come as two length-N arrays.
    """
    r1, r2 = kernel(p, letters, psi_grid)
    return r1.min(axis=-1) / l, r2.min(axis=-1) / l


def per_use_minima_vjp(kernel, l: int, p, letters, psi_grid):
    """``per_use_minima`` of one input, bit for bit, with its backward map:
    ``backward(c1, c2)`` sends the cotangents of the two minima to each rate's
    arg-min member, divided by l, and returns those of (p, letters, psi_grid)
    as ``RateKernel.vjp`` does."""
    (r1, r2), backward = kernel.vjp(p, letters, psi_grid)

    def minima_backward(c1: float, c2: float):
        g1, g2 = np.zeros(r1.shape), np.zeros(r2.shape)
        g1[np.argmin(r1)], g2[np.argmin(r2)] = c1 / l, c2 / l
        return backward(g1, g2)

    return (r1.min(axis=-1) / l, r2.min(axis=-1) / l), minima_backward


def level_kernel(members, l: int, letter_shape: tuple, psi_shape: tuple) -> RateKernel:
    """The level-l ``RateKernel`` of the single-use ``members`` on letters of
    ``letter_shape`` and psi grids of ``psi_shape``: their blocked powers grouped by
    Kraus count. Refused first, before any power is built: u, (X ref, Σ K^l out^l),
    and the stacked Kraus powers, (in^l, Σ K^l out^l)."""
    width = sum(len(m.stacked) ** l * m.out_dim**l for m in members)
    check_budget("factor product u", (letter_shape[-2] * psi_shape[-2], width))
    check_budget("stacked Kraus powers", (members[0].in_dim**l, width))
    powered = [blocked_tensor_power(m, l) for m in members]
    return RateKernel.inputs(kraus_groups(powered), letter_shape, psi_shape)


def compound_rect(cset: CompoundSet, l: int, p, v: CqChannel, psi: PureState) -> Rect:
    """Componentwise minimum of the blocked one-shot rectangles, per use, with
    (p, V, psi) checked against every member at level l."""
    p = checked_ensemble(cset.members, p, v, psi, l)
    kernel = level_kernel(cset.members, l, v.vectors.shape, psi.dims)
    return Rect(*per_use_minima(kernel, l, p, v.vectors, psi.vec.reshape(psi.dims)))


def compound_rect_powered(powered_members, l: int, p, v: CqChannel, psi: PureState) -> Rect:
    """``compound_rect`` at level 1 of members raised to the power l, per use."""
    rect = compound_rect(CompoundSet(tuple(powered_members)), 1, p, v, psi)
    return Rect(rect.r1_max / l, rect.r2_max / l)


def compound_rects(kraus, p, letters, psi) -> list[Rect]:
    """``compound_rect`` at l = 1 of N compound sets of one shape, each with its
    own (p, V, psi), in one run of one ``RateKernel``.

    ``kraus`` is the (N, M, K, out, A B) array of instance i's M members, K
    Kraus operators each; ``p`` is (N, X), ``letters`` (N, X, A) and ``psi``
    (N, ref, B), each psi laid out as its (reference, input) matrix. The raw
    numbers are checked once per stack as the constructors check one
    instance: every member as ``KrausChannel`` (``checked_kraus``), every p as
    a distribution, the letters as ``CqChannel`` and psi as ``PureState``.
    """
    kraus = checked_kraus(kraus)
    letters, psi = np.asarray(letters, dtype=complex), np.asarray(psi, dtype=complex)
    stacks = (kraus, letters, psi, p)
    if ([np.ndim(a) for a in stacks] != [5, 3, 3, 2] or len({len(a) for a in stacks}) != 1
            or letters.shape[-1] * psi.shape[-1] != kraus.shape[-1]):
        raise DimensionMismatchError(f"Kraus stack {kraus.shape} for p {np.shape(p)}, "
                                     f"letters {letters.shape} and psi {psi.shape}")
    p = checked_probs(p, letters.shape[-2])
    # NaN fails both unit tests
    letter_defect = np.abs(np.sum(np.abs(letters) ** 2, axis=-1) - 1.0)
    psi_defect = np.abs(np.linalg.norm(psi, axis=(-2, -1)) - 1.0)
    if not (np.all(letter_defect <= UNIT_NORM_TOL) and np.all(psi_defect <= HERMITICITY_TOL)):
        raise ValueError("letters and psi must be finite unit vectors")
    kernel = RateKernel.inputs([kraus], letters.shape, psi.shape)
    return [Rect(r1, r2) for r1, r2 in zip(*per_use_minima(kernel, 1, p, letters, psi))]


def fatten(region, delta: float) -> RateRegion:
    """A_delta restricted to box unions: both edges of each box grow by delta."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    reg = as_region(region)
    return RateRegion(tuple(Rect(r.r1_max + delta, r.r2_max + delta) for r in reg.rects))


def union(*regions) -> RateRegion:
    rects: list[Rect] = []
    for reg in regions:
        rects.extend(as_region(reg).rects)
    return RateRegion(tuple(rects))


def contains(region, point, tol: float = BOUNDARY_TOL) -> bool:
    """Membership in the closed box union, with a boundary tolerance."""
    x, y = float(point[0]), float(point[1])
    if x < -tol or y < -tol:
        return False
    reg = as_region(region)
    return any(x <= r.r1_max + tol and y <= r.r2_max + tol for r in reg.rects)


def _hull_vertices(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Strict vertices of the upper-right concave staircase hull.

    Points are Pareto corners sorted by descending r1; collinear interior
    points are dropped so repeated sampling of hull edges is stable.
    """
    pts = sorted(points, key=lambda q: (-q[0], q[1]))
    hull: list[tuple[float, float]] = []
    for q in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (q[1] - y1) - (y2 - y1) * (q[0] - x1)
            if cross <= 1e-12:  # hull[-1] not a strict left turn: drop
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


def timeshare_closure(region, grid: int) -> RateRegion:
    """Add convex combinations of achievable corner pairs on a lambda grid.

    Combinations are sampled along the edges of the strict convex hull of
    the Pareto corners at lambda = k/grid, which makes the operation
    idempotent at fixed grid.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    reg = as_region(region)
    corners = reg.corners()
    rects = list(reg.rects)
    hull = _hull_vertices(corners)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        for k in range(1, grid):
            lam = k / grid
            rects.append(Rect(lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2))
    return RateRegion(tuple(rects))


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------


def _printed_rate(r: float) -> str:
    return "0" if r < CSV_ROUNDOFF_FLOOR else f"{r:.12g}"


def corners_csv(rows) -> str:
    """CSV text 'r1,r2,tag' from (r1, r2, tag) rows, rates to 12 significant
    digits and below ``CSV_ROUNDOFF_FLOOR`` as 0, sorted on what is printed:
    r1, then r2, then the tag."""
    printed = [(_printed_rate(r1), _printed_rate(r2), tag) for r1, r2, tag in rows]
    printed.sort(key=lambda t: (float(t[0]), float(t[1]), t[2]))
    return "\n".join(["r1,r2,tag"] + [",".join(t) for t in printed]) + "\n"


def staircase_svg(region, title: str = "rate region") -> str:
    """Standalone SVG of the staircase boundary, 600 x 600 viewBox."""
    reg = as_region(region)
    corners = reg.corners()
    top = max([1.0] + [max(r1, r2) for r1, r2 in corners]) * 1.1
    margin, size = 60.0, 600.0
    span = size - 2 * margin

    def sx(v: float) -> float:
        return margin + span * v / top

    def sy(v: float) -> float:
        return size - margin - span * v / top

    path = [f"M {sx(corners[0][0]):.3f} {sy(0):.3f}"]
    prev_r2 = 0.0
    for r1, r2 in corners:  # descending r1, ascending r2
        path.append(f"L {sx(r1):.3f} {sy(prev_r2):.3f}")
        path.append(f"L {sx(r1):.3f} {sy(r2):.3f}")
        prev_r2 = r2
    path.append(f"L {sx(0):.3f} {sy(prev_r2):.3f}")
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        val = top * frac
        ticks.append(
            f'<text x="{sx(val):.3f}" y="{size - margin + 20:.3f}" '
            f'font-size="12" text-anchor="middle">{val:.2f}</text>'
        )
        ticks.append(
            f'<text x="{margin - 10:.3f}" y="{sy(val) + 4:.3f}" '
            f'font-size="12" text-anchor="end">{val:.2f}</text>'
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f'<title>{title}</title>\n'
        f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" '
        'stroke="black"/>\n'
        f'<line x1="{margin}" y1="{size - margin}" x2="{margin}" y2="{margin}" '
        'stroke="black"/>\n'
        f'<text x="{size / 2:.0f}" y="{size - 15:.0f}" font-size="14" '
        'text-anchor="middle">R1 (bits per use)</text>\n'
        f'<text x="18" y="{size / 2:.0f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {size / 2:.0f})">R2 (bits per use)</text>\n'
        + "\n".join(ticks)
        + "\n"
        f'<path d="{" ".join(path)}" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n'
        "</svg>\n"
    )
