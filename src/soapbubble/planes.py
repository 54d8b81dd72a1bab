"""Moving-planes machinery: slide a hyperplane orthogonal to a direction in
from the far side, reflect the cap beyond it, and find the critical level
where the reflected cap first touches the surface from inside.

All containment testing happens on a fixed probe sample of the surface, so
the worst violation always carries a discretization caveat. The level
resolution `tol` and the containment threshold come from the surface's
`critical_tolerances`: the threshold is the error floor of its distance
model, not `tol`, wherever that floor lies below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import reflect, unit
from .intrinsic import GeodesicGraph, region_boundary
from .surfaces import Surface, SurfaceError, quadratic

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
    inside: bool
    worst_violation: float
    witness: np.ndarray | None            # cap-side sample whose mirror is worst
    witness_reflected: np.ndarray | None
    cap_count: int


def reflected_cap_inside(
    surface: Surface,
    omega: np.ndarray,
    lam: float,
    tol: float,
    samples: np.ndarray | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> ContainmentCheck:
    """Does the mirrored right-hand cap stay weakly inside the enclosed domain?

    Tests signed_distance(mirror(p)) >= -tol over all probe samples with
    p . omega > lam. worst_violation is the most negative signed distance,
    sign-flipped (positive numbers mean actual protrusion).
    """
    pts = samples if samples is not None else surface.probe_points(sample_budget, seed)
    return _mirrored_cap(surface, omega, lam, tol, pts)[0]


def _mirrored_cap(
    surface: Surface, omega: np.ndarray, lam: float, tol: float, pts: np.ndarray
) -> tuple[ContainmentCheck, np.ndarray]:
    """`reflected_cap_inside` on the samples pts, together with the signed
    distances of the mirrored cap it judged (empty for an empty cap)."""
    cap, mirrored = _mirror_cap(omega, lam, pts)
    if cap.shape[0] == 0:
        return ContainmentCheck(True, -math.inf, None, None, 0), np.empty(0)
    sd = surface.signed_distance(mirrored)
    worst_idx = int(np.argmin(sd))
    worst = -float(sd[worst_idx])
    check = ContainmentCheck(
        inside=bool(worst <= tol),
        worst_violation=worst,
        witness=cap[worst_idx].copy(),
        witness_reflected=mirrored[worst_idx].copy(),
        cap_count=int(cap.shape[0]),
    )
    return check, sd


def _mirror_cap(omega: np.ndarray, lam: float, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples beyond the plane {x . omega = lam} and their mirror images."""
    omega = unit(omega)
    cap = pts[pts @ omega > lam]
    return cap, reflect(cap, omega, lam)


def _caps_contained(
    surface: Surface, omega: np.ndarray, levels: np.ndarray, tol: float, pts: np.ndarray
) -> np.ndarray:
    """`reflected_cap_inside(...).inside` at each of the levels, without the
    signed distances: the largest `protrusion` of each mirrored cap against
    tol. The caps of all levels go through one stacked `protrusion` call,
    which projects only the mirrored points the level function puts outside."""
    mirrored = [_mirror_cap(omega, lam, pts)[1] for lam in levels]
    sizes = np.array([c.shape[0] for c in mirrored])
    ok = np.ones(sizes.size, dtype=bool)  # an empty cap is contained
    full = sizes > 0
    if full.any():
        worst = np.maximum.reduceat(
            surface.protrusion(np.concatenate(mirrored)), (np.cumsum(sizes) - sizes)[full]
        )
        ok[full] = worst <= tol
    return ok


@dataclass(frozen=True)
class CriticalPlane:
    direction: np.ndarray
    level: float                     # critical offset m
    extent: float
    case: str
    tangency_point: np.ndarray | None  # cap-side pre-image of the contact
    contact_point: np.ndarray | None   # its mirror, on/near the surface
    contact_gap: float                 # protrusion at m, at most the containment threshold
    normal_alignment: float | None     # |nu . omega| at the contact (boundary case)
    degenerate_contact: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "omega": self.direction.tolist(),
            "m": self.level,
            "extent": self.extent,
            "case": self.case,
            "p0": None if self.tangency_point is None else self.tangency_point.tolist(),
            "contact_point": None if self.contact_point is None else self.contact_point.tolist(),
            "contact_gap": self.contact_gap,
            "normal_alignment": self.normal_alignment,
            "degenerate_contact": self.degenerate_contact,
            "tol": self.tol,
        }


def critical_position(
    surface: Surface,
    omega: np.ndarray,
    tol: float | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> CriticalPlane:
    """Critical moving-planes level in the direction omega.

    The single-level containment predicate is monotone for ovaloid-like
    inputs, so a plain bisection finds the flip; a coarse verification sweep
    above the candidate then catches non-monotone inputs (deep necks), in
    which case the search restarts from the highest failing level. The
    critical level is the infimum below which containment first breaks while
    descending from the extent.

    `tol` is the resolution of the level: the bisection stops once its
    bracket is that narrow. Containment is judged against a separate
    threshold set by the surface's distance model; `critical_tolerances`
    gives both. Analytic surfaces (closed-form or Newton projection) use
    min(tol, 1e-11 * diam), so the level converges to zero protrusion. A
    point cloud's nearest-sample distance is no better than
    1.5 * spacing**2, so there the threshold is `tol` itself.

    The bisection and the sweep need only the containment boolean, so they
    ask the surface for the mirrored cap's `protrusion`, which projects only
    the mirrored points its level function puts outside (those are the only
    ones whose signed distance can be negative); the booleans equal
    `reflected_cap_inside(...).inside` bit for bit. The sweep stacks the
    mirrored caps of all its 64 levels into one `protrusion` call. The
    contact analysis at the final level keeps the full signed distances.
    """
    omega = unit(omega)
    pts = surface.probe_points(sample_budget, seed)
    diam = surface.diameter_hint()
    tol, contain_tol = surface.critical_tolerances(tol)

    hi = extent(surface, omega, sample_budget, seed)
    lo = -extent(surface, -omega, sample_budget, seed)

    def inside(lam: float) -> bool:
        return bool(_caps_contained(surface, omega, np.array([lam]), contain_tol, pts)[0])

    def bisect(a: float, b: float) -> float:
        # inside(b) holds and inside(a) fails; shrink to width tol
        for _ in range(90):
            if b - a <= tol:
                break
            mid = 0.5 * (a + b)
            if inside(mid):
                b = mid
            else:
                a = mid
        return b

    if not inside(hi - 1e-3 * tol - 1e-9 * diam):
        raise EmbeddednessError(
            "reflected cap protrudes arbitrarily close to the extent; "
            "check orientation and embeddedness"
        )
    if inside(lo):
        # symmetric about the lowest level already: critical level is lo
        m = lo
    else:
        m = bisect(lo, hi)
        # verification sweep: the predicate must hold on the whole tail above m
        sweep = np.linspace(m, hi, 65)[1:]
        fails = sweep[~_caps_contained(surface, omega, sweep, contain_tol, pts)]
        if fails.size:
            m = bisect(float(fails.max()), hi)

    # contact analysis at the critical level, from one pass over the mirrored cap
    check, sd = _mirrored_cap(surface, omega, m, contain_tol, pts)
    degenerate = sd.size > 0 and bool(np.mean(np.abs(sd) <= 10.0 * tol + 1e-9 * diam) > 0.25)
    spacing = diam / math.sqrt(max(sample_budget, 1))
    p0 = check.witness
    case = INTERIOR_TANGENCY  # also when the whole cap touches (label moot)
    alignment = None
    if p0 is not None and not degenerate:
        if float(p0 @ omega) - m <= 2.0 * spacing:
            case = BOUNDARY_ORTHOGONALITY
            nus, _ = surface.curvatures_batch(surface.project(check.witness_reflected)[None])
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


@dataclass
class CapRegion:
    direction: np.ndarray
    level: float
    sigma_nodes: np.ndarray       # cap-side pre-images of the reflected cap component
    sigma_hat_nodes: np.ndarray   # left-portion component
    boundary_nodes: np.ndarray    # sigma nodes with a neighbor outside sigma


def critical_caps(surface: Surface, plane: CriticalPlane, graph: GeodesicGraph) -> CapRegion:
    """Connected cap components through the tangency contact.

    sigma is the component of the right-hand cap nodes (the reflected cap is
    their mirror image); sigma_hat is the component of the left portion. Both
    are anchored at the contact: sigma at the cap-side pre-image, sigma_hat
    at the mirrored contact point.
    """
    from scipy.sparse.csgraph import connected_components

    omega, m = plane.direction, plane.level
    heights = graph.points @ omega
    right = heights > m
    left = heights < m
    if not right.any() or not left.any():
        raise CapExtractionError("critical plane leaves an empty cap at this resolution")

    edge_scale = 3.0 * graph.mean_edge

    def component_containing(mask: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        idx = np.nonzero(mask)[0]
        sub = graph.adjacency[np.ix_(mask, mask)]
        _, labels = connected_components(sub, directed=False)
        d = np.linalg.norm(graph.points[idx] - anchor, axis=1)
        best = int(np.argmin(d))
        if d[best] > edge_scale:
            raise CapExtractionError(
                f"anchor lies {d[best]:.3g} from the nearest cap node "
                f"(> {edge_scale:.3g}); re-run with a looser tolerance or finer graph"
            )
        return idx[labels == labels[best]]

    anchor_right = plane.tangency_point if plane.tangency_point is not None else graph.points[np.argmax(heights)]
    anchor_left = plane.contact_point if plane.contact_point is not None else reflect(anchor_right, omega, m)
    sigma = component_containing(right, anchor_right)
    sigma_hat = component_containing(left, anchor_left)

    sigma_mask = np.zeros(graph.node_count, dtype=bool)
    sigma_mask[sigma] = True
    return CapRegion(
        direction=omega,
        level=m,
        sigma_nodes=sigma,
        sigma_hat_nodes=sigma_hat,
        boundary_nodes=region_boundary(graph, sigma_mask),
    )


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
