"""Moving-planes machinery: slide a hyperplane orthogonal to a direction in
from the far side, reflect the cap beyond it, and find the critical level
where the reflected cap first touches the surface from inside.

All containment testing happens on a fixed probe sample of the surface, so
the worst violation always carries a discretization caveat. The level
resolution `tol` defaults to a small multiple of the surface diameter
(analytic surfaces) or of the squared sample spacing (point clouds); the
containment threshold is the error floor of the surface's distance model,
not `tol`, wherever that floor lies below it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import reflect, unit
from .intrinsic import GeodesicGraph
from .surfaces import Surface, SurfaceError, _refine_extremum

INTERIOR_TANGENCY = "interior_tangency"
BOUNDARY_ORTHOGONALITY = "boundary_orthogonality"


class EmbeddednessError(SurfaceError):
    """Reflected cap is not contained even arbitrarily close to the extent;
    the input violates the orientation/embeddedness sanity assumptions."""


class CapExtractionError(SurfaceError):
    """Tangency point is not adjacent to any cap node at this resolution."""


def reflect_point(xi: np.ndarray, omega: np.ndarray, lam: float) -> np.ndarray:
    """Mirror image of xi about the hyperplane {x . omega = lam}."""
    return reflect(xi, unit(omega), lam)


def extent(
    surface: Surface, omega: np.ndarray, sample_budget: int = 2000, seed: int = 0
) -> float:
    """Farthest reach of the surface in the direction omega, refined by
    projected ascent from the best sample."""
    omega = unit(omega)
    pts = surface.probe_points(sample_budget, seed)
    heights = pts @ omega
    best = pts[int(np.argmax(heights))]
    from .surfaces import PointCloud

    if isinstance(surface, PointCloud):
        return float(heights.max())
    _, val = _refine_extremum(surface, best, lambda p: float(p @ omega), sign=+1.0)
    return max(float(heights.max()), val)


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
    omega = unit(omega)
    pts = samples if samples is not None else surface.probe_points(sample_budget, seed)
    cap = pts[pts @ omega > lam]
    if cap.shape[0] == 0:
        return ContainmentCheck(True, -math.inf, None, None, 0)
    mirrored = reflect(cap, omega, lam)
    sd = surface.signed_distance(mirrored)
    worst_idx = int(np.argmin(sd))
    worst = -float(sd[worst_idx])
    return ContainmentCheck(
        inside=bool(worst <= tol),
        worst_violation=worst,
        witness=cap[worst_idx].copy(),
        witness_reflected=mirrored[worst_idx].copy(),
        cap_count=int(cap.shape[0]),
    )


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
    threshold set by the surface's distance model. Analytic surfaces
    (closed-form or Newton projection) use min(tol, 1e-11 * diam),
    so the level converges to zero protrusion. A point cloud's
    nearest-sample distance is no better than 1.5 * spacing**2, so there the
    threshold is `tol` itself, caller-supplied or by default
    max(1.5 * spacing**2, 1e-6 * diam).
    """
    from .surfaces import PointCloud

    omega = unit(omega)
    pts = surface.probe_points(sample_budget, seed)
    diam = surface.diameter_hint()
    if isinstance(surface, PointCloud):
        # containment noise sits at the scale of the nearest-sample distance
        # error, and the protrusion jumps with the level instead of crossing
        # zero cleanly, so the level resolution doubles as the threshold
        if tol is None:
            nn, _ = surface.tree.query(surface.points, k=2)
            spacing = float(np.median(nn[:, 1]))
            tol = max(1.5 * spacing**2, 1e-6 * diam)
        contain_tol = tol
    else:
        if tol is None:
            tol = 5e-10 * diam
        # analytic distances are accurate far below any level resolution; a
        # threshold of tol would make the bisection converge where the
        # protrusion equals tol, biasing the level low by tol / slope
        contain_tol = min(tol, 1e-11 * diam)

    hi = extent(surface, omega, sample_budget, seed)
    lo = -extent(surface, -omega, sample_budget, seed)

    def inside(lam: float) -> bool:
        return reflected_cap_inside(surface, omega, lam, contain_tol, samples=pts).inside

    if not inside(hi - 1e-3 * tol - 1e-9 * diam):
        raise EmbeddednessError(
            "reflected cap protrudes arbitrarily close to the extent; "
            "check orientation and embeddedness"
        )
    if inside(lo):
        # symmetric about the lowest level already: critical level is lo
        m = lo
    else:
        a, b = lo, hi  # inside(b)=True, inside(a)=False
        for _ in range(90):
            if b - a <= tol:
                break
            mid = 0.5 * (a + b)
            if inside(mid):
                b = mid
            else:
                a = mid
        m = b
        # verification sweep: the predicate must hold on the whole tail above m
        sweep = np.linspace(m, hi, 65)[1:]
        fails = [lam for lam in sweep if not inside(lam)]
        if fails:
            a = max(fails)
            b = hi
            for _ in range(90):
                if b - a <= tol:
                    break
                mid = 0.5 * (a + b)
                if inside(mid):
                    b = mid
                else:
                    a = mid
            m = b

    # contact analysis at the critical level
    check = reflected_cap_inside(surface, omega, m, contain_tol, samples=pts)
    cap = pts[pts @ omega > m]
    gap_band = 10.0 * tol + 1e-9 * diam
    degenerate = False
    if cap.shape[0]:
        sd = surface.signed_distance(reflect(cap, omega, m))
        near = np.abs(sd) <= gap_band
        degenerate = bool(near.mean() > 0.25)
    spacing = diam / math.sqrt(max(sample_budget, 1))
    p0 = check.witness
    case = INTERIOR_TANGENCY
    alignment = None
    if p0 is not None and not degenerate:
        if float(p0 @ omega) - m <= 2.0 * spacing:
            case = BOUNDARY_ORTHOGONALITY
            contact = surface.project(check.witness_reflected)
            if isinstance(surface, PointCloud):
                nu = surface.fit_sample(surface.nearest_index(contact)).inner_normal
            else:
                nu = unit(surface.implicit_grad(contact))
            alignment = abs(float(nu @ omega))
    elif degenerate:
        case = INTERIOR_TANGENCY  # whole cap touches; case label is moot
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


def axis_critical_planes(
    surface: Surface,
    tol: float | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> list[CriticalPlane]:
    """Critical planes for the canonical basis directions, optionally fanned
    out over a thread pool sized by SOAPBUBBLE_THREADS."""
    d = surface.dim
    axes = [np.eye(d)[i] for i in range(d)]
    workers = int(os.environ.get("SOAPBUBBLE_THREADS", "1") or "1")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(critical_position, surface, w, tol, sample_budget, seed)
                for w in axes
            ]
            return [f.result() for f in futures]
    return [critical_position(surface, w, tol, sample_budget, seed) for w in axes]


@dataclass
class CapRegion:
    direction: np.ndarray
    level: float
    sigma_nodes: np.ndarray       # cap-side pre-images of the reflected cap component
    sigma_hat_nodes: np.ndarray   # left-portion component
    boundary_nodes: np.ndarray    # sigma nodes with a neighbor outside sigma

    def sigma_reflected_points(self, graph: GeodesicGraph) -> np.ndarray:
        return reflect(graph.points[self.sigma_nodes], self.direction, self.level)


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
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    boundary = [i for i in sigma if np.any(~sigma_mask[indices[indptr[i] : indptr[i + 1]]])]
    return CapRegion(
        direction=omega,
        level=m,
        sigma_nodes=sigma,
        sigma_hat_nodes=sigma_hat,
        boundary_nodes=np.array(boundary, dtype=int),
    )


def plane_crossing_fn(omega: np.ndarray, m: float, surface: Surface):
    """Edge-crossing locator for interface_distances: intersects each
    straddling chord with the critical plane and projects onto the surface."""
    omega = unit(omega)

    def fn(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        ha = pa @ omega - m
        hb = pb @ omega - m
        t = ha / np.where(np.abs(ha - hb) > 1e-300, ha - hb, 1.0)
        t = np.clip(t, 0.0, 1.0)
        pts = pa + t[:, None] * (pb - pa)
        from .surfaces import PointCloud

        if isinstance(surface, PointCloud):
            return pts
        return surface.project(pts)

    return fn
