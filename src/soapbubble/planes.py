"""Moving-planes machinery: slide a hyperplane orthogonal to a direction in
from the far side, reflect the cap beyond it, and find the critical level
where the reflected cap first touches the surface from inside.

As the level falls, the mirror of a sample p runs down the line p - t*omega,
the level being p . omega - t/2, so the critical level is the highest level
at which some sample's line first leaves the enclosed domain: a chord
midpoint (interior tangency) or the sample itself, when its line leaves at
once (boundary orthogonality). All of it happens on a fixed probe sample of
the surface, so the worst violation always carries a discretization caveat.
The tolerance `tol` and the exit threshold come from the surface's
`critical_tolerances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .geometry import record, reflect, row_dots, unit
from .intrinsic import GeodesicGraph
from .surfaces import _ROUNDING, Surface, SurfaceError, quadratic

INTERIOR_TANGENCY = "interior_tangency"
BOUNDARY_ORTHOGONALITY = "boundary_orthogonality"


class EmbeddednessError(SurfaceError):
    """Reflected cap is not contained even arbitrarily close to the extent;
    the input violates the orientation/embeddedness sanity assumptions."""


class CapExtractionError(SurfaceError):
    """Tangency point is not adjacent to any cap node at this resolution."""


def extent(
    surface: Surface, omega: np.ndarray, sample_budget: int = 2000, seed: int = 0
) -> float:
    """Farthest reach max p . omega of the surface in the direction omega.

    The best probe sample seeds the surface's `stationary` solve for the
    point where omega is the outer normal (alpha = 0, beta = -omega); the
    sample's height stands if the solve does not converge or lands lower,
    as always on a point cloud, whose seeds stand.
    """
    omega = unit(omega)
    pts = surface.probe_points(sample_budget, seed)
    heights = pts @ omega
    best = float(heights.max())
    x, ok = surface.stationary(quadratic(0.0, -omega[None]), pts[[int(np.argmax(heights))]])
    return max(best, float(x[0] @ omega)) if ok[0] else best


@dataclass(frozen=True)
class ContainmentCheck:
    """Verdict of `reflected_cap_inside` on one mirrored cap."""

    inside: bool
    worst_violation: float
    witness: np.ndarray | None            # cap-side sample whose mirror is worst
    witness_reflected: np.ndarray | None
    cap_count: int
    levels: np.ndarray                    # implicit of the mirrored cap, one per cap sample


def reflected_cap_inside(
    surface: Surface,
    omega: np.ndarray,
    lam: float,
    tol: float,
    samples: np.ndarray,
) -> ContainmentCheck:
    """Does the mirrored right-hand cap stay weakly inside the enclosed domain?

    Tests implicit(mirror(p)) >= -tol over the rows p of `samples` with
    p . omega > lam, the exit search's predicate (NaN is outside).
    worst_violation is the most negative of these levels, sign-flipped:
    positive means protrusion. It and `tol` are level-function values, the
    signed distance on a `Sphere` and a `PointCloud`.
    """
    omega = unit(omega)
    cap = samples[samples @ omega > lam]
    if cap.shape[0] == 0:
        return ContainmentCheck(True, -math.inf, None, None, 0, np.empty(0))
    mirrored = reflect(cap, omega, lam)
    levels = surface.implicit(mirrored)
    worst_idx = int(np.argmin(levels))  # the first NaN, if any
    worst = -float(levels[worst_idx])
    return ContainmentCheck(
        inside=bool(worst <= tol),
        worst_violation=worst,
        witness=cap[worst_idx].copy(),
        witness_reflected=mirrored[worst_idx].copy(),
        cap_count=int(cap.shape[0]),
        levels=levels,
    )


@dataclass(frozen=True)
class CriticalPlane:
    direction: np.ndarray
    level: float                     # critical offset m
    extent: float
    case: str
    tangency_point: np.ndarray | None  # cap-side pre-image of the contact
    contact_point: np.ndarray | None   # its mirror, on/near the surface
    contact_gap: float                 # protrusion at m, a level-function value
    normal_alignment: float | None     # |nu . omega| at the contact (boundary case)
    degenerate_contact: bool
    tol: float

    def to_dict(self) -> dict:
        return record(self, direction="omega", level="m", tangency_point="p0")


def critical_position(
    surface: Surface,
    omega: np.ndarray,
    tol: float | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> CriticalPlane:
    """Critical moving-planes level in the direction omega: the highest
    level at which the mirrored cap leaves the enclosed domain, or
    lo = -extent(-omega) if it never does. The mirror of a probe sample p
    about level lam is p - t*omega with lam = p . omega - t/2, so this is the
    highest level at which some sample's line first leaves; no monotonicity
    in the level is assumed. The search walks the lines' exit grid one
    column at a time and drops each line whose contained part lies below
    the best exit end so far: such a line cannot hold the maximum, so the
    level is that of the full grid, from fewer level-function rows.

    A point is outside where `implicit < -threshold` or NaN, in the exit
    search and in the contact analysis, with (tol, threshold) from
    `critical_tolerances`. An analytic surface's threshold is 0, and `tol`
    (a level-function value, as are `contact_gap` and the degenerate band)
    only sets the degenerate-contact band and the embeddedness margin.
    A point cloud's nearest-sample distance errs by up to about
    spacing**2 / (2 rho), so there the threshold is `tol` itself.
    """
    if sample_budget < 100:
        raise ValueError("sample_budget must be at least 100")
    tol, threshold = surface.critical_tolerances(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    omega = unit(omega)
    pts = surface.probe_points(sample_budget, seed)
    diam = 2.0 * surface.bounding_radius()

    hi = extent(surface, omega, sample_budget, seed)
    lo = -extent(surface, -omega, sample_budget, seed)
    m = max(lo, _highest_exit(surface, omega, pts, lo, threshold))
    if m >= float((pts @ omega).max()) - tol:
        raise EmbeddednessError(
            "reflected cap protrudes arbitrarily close to the extent; "
            "check orientation and embeddedness"
        )

    # contact analysis at the critical level, from one pass over the mirrored cap
    check = reflected_cap_inside(surface, omega, m, threshold, samples=pts)
    band = np.abs(check.levels) <= 10.0 * tol + 1e-9 * diam
    degenerate = band.size > 0 and bool(band.mean() > 0.25)
    spacing = diam / math.sqrt(max(sample_budget, 1))
    p0 = check.witness
    case = INTERIOR_TANGENCY  # also when the whole cap touches (label moot)
    alignment = None
    if p0 is not None and not degenerate:
        if float(p0 @ omega) - m <= 2.0 * spacing:
            case = BOUNDARY_ORTHOGONALITY
            nus, _ = surface.curvatures_batch(check.witness_reflected[None])
            alignment = abs(float(nus[0] @ omega))
    return CriticalPlane(
        direction=omega,
        level=float(m),
        extent=float(hi),
        case=case,
        tangency_point=p0,
        contact_point=check.witness_reflected,
        contact_gap=float(max(check.worst_violation, 0.0)) if check.cap_count else 0.0,
        normal_alignment=alignment,
        degenerate_contact=degenerate,
        tol=float(tol),
    )


# grid points per line in the exit search, the first one outside bracketing the
# line's first exit: a finer grid catches thinner excursions between them, at
# a cost; 16, 32 and 64 give the same levels on the test surfaces. The search
# walks the grid a column at a time, so a line that drops out early costs only
# the columns it reached
_EXIT_GRID = 16


def _highest_exit(
    surface: Surface, omega: np.ndarray, pts: np.ndarray, lo: float, threshold: float
) -> float:
    """Highest level p . omega - t/2 at which the line p - t*omega,
    t in (0, 2(p . omega - lo)], of a sample p first has `implicit <
    -threshold` (or NaN): -inf if no line does. A grid of _EXIT_GRID
    points per line brackets each first exit, one batched bisection narrows
    every bracket to rounding, and a line's level is taken at the contained
    end. (A coarser stop w would leave each level up to w/2 high, and the
    maximum over many near-equal lines, such as a sphere's chords, picks that
    up in full.)

    The grid is walked one column at a time (t = span * j / _EXIT_GRID on
    every live line), keeping `best`, the highest exit end h - t_out/2 so
    far. A line stops, in the grid as in the bisection, once its contained
    end h - t_in/2 lies below `best`: that end can only fall, while the line
    that set `best` ends above it. So a stopped line neither holds the
    maximum nor sets the highest exit end that steers the bisection, and the
    level is the same float as the full grid's, from fewer level-function
    rows."""
    h = pts @ omega
    p, h = pts[h > lo], h[h > lo]
    span = 2.0 * (h - lo)  # t of the mirror about lo

    def outside(q, t):
        return ~(surface.implicit(q - t[:, None] * omega) >= -threshold)

    frac = np.arange(1, _EXIT_GRID + 1) / _EXIT_GRID
    k = np.full(h.size, _EXIT_GRID)  # the first grid point outside, if any
    best = -math.inf
    live = np.arange(h.size)
    for j in range(_EXIT_GRID):
        if not live.size:
            break
        t = span[live] * frac[j]
        gone = outside(p[live], t)
        k[live[gone]] = j
        best = float(np.max(h[live[gone]] - 0.5 * t[gone], initial=best))
        live = live[~gone & (h[live] - 0.5 * t >= best)]
    t_in = span * (k / _EXIT_GRID)
    rows = (k < _EXIT_GRID) & (h - 0.5 * t_in >= best)
    p, h, span, t_in = p[rows], h[rows], span[rows], t_in[rows]
    t_out = span * frac[k[rows]]
    stop = _ROUNDING * (np.sqrt(row_dots(p, p)) + span)
    live = np.arange(h.size)
    while live.size:
        mid = 0.5 * (t_in[live] + t_out[live])
        gone = outside(p[live], mid)
        t_out[live[gone]], t_in[live[~gone]] = mid[gone], mid[~gone]
        live = np.flatnonzero((t_out - t_in > stop) & (h - 0.5 * t_in >= (h - 0.5 * t_out).max()))
    return float(np.max(h - 0.5 * t_in, initial=-math.inf))


def critical_caps(plane: CriticalPlane, graph: GeodesicGraph) -> np.ndarray:
    """Node indices of sigma, the connected component of the right-hand cap
    nodes (p . omega > m) through the cap-side pre-image of the contact (the
    highest node if the plane has none); the reflected cap is their mirror."""
    omega, m = plane.direction, plane.level
    heights = graph.points @ omega
    right = heights > m
    if not right.any() or not (heights < m).any():
        raise CapExtractionError("critical plane leaves an empty cap at this resolution")
    anchor = plane.tangency_point if plane.tangency_point is not None else graph.points[np.argmax(heights)]
    idx = np.nonzero(right)[0]
    _, labels = connected_components(graph.adjacency[np.ix_(right, right)], directed=False)
    d = np.linalg.norm(graph.points[idx] - anchor, axis=1)
    edge_scale = 3.0 * graph.mean_edge
    if d.min() > edge_scale:
        raise CapExtractionError(
            f"anchor lies {d.min():.3g} from the nearest cap node "
            f"(> {edge_scale:.3g}); re-run with a looser tolerance or finer graph"
        )
    return idx[labels == labels[np.argmin(d)]]


def plane_crossing_fn(omega: np.ndarray, m: float, surface: Surface):
    """Edge-crossing locator for interface_distances: intersects each
    straddling chord with the critical plane and settles the crossing on the
    surface."""
    omega = unit(omega)

    def fn(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        ha = pa @ omega - m
        hb = pb @ omega - m
        t = ha / np.where(np.abs(ha - hb) > 1e-300, ha - hb, 1.0)
        t = np.clip(t, 0.0, 1.0)
        return surface.settle(pa + t[:, None] * (pb - pa))

    return fn
