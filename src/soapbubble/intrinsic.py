"""Intrinsic (geodesic) machinery: k-NN graph distances, distances to a
region's interface, piecewise-geodesic chains and shrinking-radius chains.

Geodesics are approximated by shortest paths on a k-nearest-neighbor graph
with Euclidean chord weights. Chord chains lower-bound the straight-line
distance and track the true intrinsic distance up to a resolution slack of
order the edge length, which the callers carry explicitly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .constants import compute_constants, length_budget
from .geometry import record, resample_polyline, row_dots
from .surfaces import Surface, SurfaceError

logger = logging.getLogger(__name__)


class GraphConnectivityError(SurfaceError):
    """Sample graph split into more components than the surface has (raise k)."""


@dataclass
class GeodesicGraph:
    surface: Surface
    points: np.ndarray        # (m, d) node positions on the surface
    normals: np.ndarray       # (m, d) inner normals
    adjacency: csr_matrix     # symmetric chord-weighted k-NN graph
    k: int
    mean_edge: float
    n_components: int
    labels: np.ndarray

    @property
    def node_count(self) -> int:
        return self.points.shape[0]

    def distances_from(self, sources) -> np.ndarray:
        return dijkstra(self.adjacency, directed=False, indices=sources)

    def shortest_path(self, i: int, j: int) -> list[int]:
        d, pred = dijkstra(self.adjacency, directed=False, indices=i, return_predecessors=True)
        if not np.isfinite(d[j]):
            raise GraphConnectivityError(f"nodes {i} and {j} lie in different components")
        path = [j]
        while path[-1] != i:
            path.append(int(pred[path[-1]]))
        return path[::-1]


def build_geodesic_graph(
    surface: Surface, node_budget: int = 2000, k: int = 8, seed: int = 0
) -> GeodesicGraph:
    if node_budget < 100:
        raise ValueError("node_budget must be at least 100")
    if k < 6:
        raise ValueError("k must be at least 6")
    pts, normals, _ = surface.probe_geometry(node_budget, seed)
    m = pts.shape[0]
    tree = cKDTree(pts)
    dist, idx = tree.query(pts, k=min(k + 1, m))
    rows = np.repeat(np.arange(m), idx.shape[1] - 1)
    cols = idx[:, 1:].ravel()
    data = dist[:, 1:].ravel()
    adj = coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()
    adj = adj.maximum(adj.T)
    n_comp, labels = connected_components(adj, directed=False)
    if n_comp > surface.component_count:
        raise GraphConnectivityError(
            f"sample graph split into {n_comp} components on a surface with "
            f"{surface.component_count}; raise k"
        )
    mean_edge = float(dist[:, 1:].mean())
    return GeodesicGraph(
        surface=surface,
        points=pts,
        normals=normals,
        adjacency=adj,
        k=k,
        mean_edge=mean_edge,
        n_components=n_comp,
        labels=labels,
    )


def interface_distances(graph: GeodesicGraph, region: np.ndarray, crossing_fn=None) -> np.ndarray:
    """Shortest-path distance from every node to the region interface.

    The interface is discretized by one point per straddling edge (midpoint
    unless `crossing_fn(pa, pb)` supplies a better location), attached to the
    graph through a virtual source. Measuring from interface points rather
    than from boundary nodes removes the one-strip-depth bias of the node set.
    """
    region = np.asarray(region, dtype=bool)
    A = graph.adjacency.tocoo()
    straddle = region[A.row] != region[A.col]
    if not straddle.any():
        return np.full(graph.node_count, np.inf)
    rows = A.row[straddle]
    cols = A.col[straddle]
    if crossing_fn is None:
        crossings = 0.5 * (graph.points[rows] + graph.points[cols])
    else:
        crossings = crossing_fn(graph.points[rows], graph.points[cols])
    w = np.linalg.norm(graph.points[rows] - crossings, axis=1)
    m = graph.node_count
    wmin = np.full(m, np.inf)
    np.minimum.at(wmin, rows, w)
    srcs = np.nonzero(np.isfinite(wmin))[0]
    rr = np.concatenate([A.row, np.full(srcs.size, m), srcs])
    cc = np.concatenate([A.col, srcs, np.full(srcs.size, m)])
    dd = np.concatenate([A.data, wmin[srcs], wmin[srcs]])
    big = coo_matrix((dd, (rr, cc)), shape=(m + 1, m + 1)).tocsr()
    dist = dijkstra(big, directed=False, indices=m)
    return dist[:m]


@dataclass
class Chain:
    """A shortest path resampled into arcs of prescribed length.

    Waypoints are points on the surface: path nodes when the mesh is fine
    enough, otherwise chord interpolations put back by `Surface.settle`
    (k-NN graphs at practical budgets have edges longer than small arc
    budgets, so node-only waypoints cannot respect them). A point cloud
    keeps the interpolations where they are.
    """

    graph: GeodesicGraph
    path_nodes: list[int]
    path_points: np.ndarray       # polyline through the path nodes
    waypoints: np.ndarray         # resampled points, first=p last=q
    arc_lengths: np.ndarray
    delta: float
    total_length: float
    full_arcs: int                # arcs of length exactly delta
    length_budget: float          # admissible chain length for this delta
    bound_ok: bool

    def to_dict(self) -> dict:
        return record(self, skip=("graph", "path_nodes", "path_points"))


def piecewise_geodesic_chain(graph: GeodesicGraph, p: int, q: int, delta: float) -> Chain:
    if delta <= 0:
        raise ValueError("delta must be positive")
    area = graph.surface.area_estimate()[0]
    budget = length_budget(graph.surface.n, area, delta)

    if p == q:
        pt = graph.points[p][None, :].copy()
        return Chain(
            graph=graph, path_nodes=[p], path_points=pt, waypoints=pt,
            arc_lengths=np.zeros(0), delta=delta, total_length=0.0,
            full_arcs=0, length_budget=budget, bound_ok=True,
        )

    nodes = graph.shortest_path(p, q)
    poly = graph.points[nodes]
    # arc positions 0, delta, 2 delta, ..., end
    way, targets = resample_polyline(
        poly, lambda total: np.append(np.arange(0.0, total, delta), total)
    )
    way = graph.surface.settle(way)
    arcs = np.diff(targets)
    total = float(targets[-1])
    full = int(np.sum(arcs >= delta * (1.0 - 1e-12)))
    bound_ok = bool(full <= budget and total <= budget * (1.0 + 1e-9))
    if not bound_ok:
        logger.warning(
            "piecewise_geodesic_chain %d -> %d: chain bound violated: %d full arcs and "
            "length %.6g against budget %.6g (delta %.6g, area %.6g); "
            "suspect under-sampling or a wrong area",
            p, q, full, total, budget, delta, area,
            extra={"stage": "piecewise_geodesic_chain"},
        )
    return Chain(
        graph=graph, path_nodes=nodes, path_points=poly, waypoints=way,
        arc_lengths=arcs, delta=delta, total_length=total,
        full_arcs=full, length_budget=budget, bound_ok=bound_ok,
    )


@dataclass
class HarnackChain:
    waypoints: np.ndarray
    radii: np.ndarray
    steps_ok: bool
    count_ok: bool
    n0: int
    eps0: float
    resubdivided: bool
    worst_step_excess: float

    def to_dict(self) -> dict:
        return {"count": len(self.radii), **record(self, skip=("waypoints",))}


def harnack_chain(chain: Chain, eps: float, rho: float, delta: float) -> HarnackChain:
    """Waypoints with geometrically shrinking patch radii along a chain.

    Radii follow r_i = (1-eps)^i * rho * sin(delta/(2 rho)); consecutive
    waypoints advance a quarter of the current radius along the path, so each
    one stays inside the closed tangent patch of its predecessor.
    """
    surface = chain.graph.surface
    area = surface.area_estimate()[0]
    ledger = compute_constants(surface.n, rho, area, delta=delta)
    if eps < 0 or eps >= ledger.eps0:
        raise ValueError(f"eps must lie in [0, eps0) with eps0={ledger.eps0:.6g}")

    r0 = rho * np.sin(delta / (2.0 * rho))

    def positions(total):
        # advance slightly under r_i/4 so that reprojecting interpolated
        # waypoints cannot push the realized step past the patch radius
        step_margin = 0.99
        out = [0.0]
        s = 0.0
        i = 0
        while s < total and i <= ledger.n0 + 1:
            s = min(s + step_margin * ((1.0 - eps) ** i * r0) / 4.0, total)
            out.append(s)
            i += 1
        return out

    way, targets = resample_polyline(chain.path_points, positions)
    way = surface.settle(way)
    # one vectorized expression, so the shrink law holds to the ulp
    radii = (1.0 - eps) ** np.arange(targets.size) * r0

    # each step must stay inside the closed r_i/4 patch of its predecessor:
    # tangential offset in the predecessor frame is the binding quantity
    nus, _ = surface.curvatures_batch(way[:-1])
    d = np.diff(way, axis=0)
    t = d - row_dots(d, nus)[:, None] * nus
    tang = np.sqrt(row_dots(t, t))
    excess = float(np.max(tang - radii[: len(d)] / 4.0, initial=-np.inf))
    steps_ok = bool(excess <= 1e-7 * max(rho, 1.0))
    count_ok = bool(len(way) - 1 <= ledger.n0)
    seg = np.linalg.norm(np.diff(chain.path_points, axis=0), axis=1)
    return HarnackChain(
        waypoints=way,
        radii=radii[: len(way)],
        steps_ok=steps_ok,
        count_ok=count_ok,
        n0=ledger.n0,
        eps0=ledger.eps0,
        resubdivided=bool(np.max(seg, initial=0.0) > radii.min() / 4.0),
        worst_step_excess=float(excess),
    )
