"""Approximate center of symmetry, concentric-ball radii, and the defect
measures that quantify closeness to a round sphere.

The center comes from intersecting the critical hyperplanes of the canonical
basis directions; the stability ratio (r_e - r_i) / osc(H) is the measured
counterpart of the theoretical stability constant and is reported alongside
the constants ledger rather than asserted against it (the elliptic constants
K1..K3 are user-supplied placeholders by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ConstantsReport, compute_constants
from .geometry import unit
from .planes import CriticalPlane, critical_position
from .surfaces import OscReport, Surface, mean_curvature_oscillation, quadratic, touching_radius

H_CONVENTION = "inner normal; sphere of radius R has H = +1/R"

_RAY_GRID = 2048  # points of each ray's t-grid in `count_ray_hits`
# Grid points per block of rays in `count_ray_hits`: 16 rays of
# `_RAY_GRID` points. Each block's level table and its sign, deadband and diff
# temporaries are what the radial-map check holds at once, so this caps its
# memory (a few MB) whatever the number of rays. Speed does not set it: on
# the annulus grids of 1500-point sphere clouds at 100 rays, blocks of 2**13
# to 2**18 points and one block of all 100 rays ran within 10% of each other.
_RAY_BLOCK_POINTS = 2**15

# An osc at or below this is taken for rounding noise and leaves the ratio
# indeterminate: acceptance criterion 01 requires a round sphere to measure
# osc <= 1e-8. It is an absolute curvature (1/length), not yet relative to
# the surface's size.
_OSC_NOISE_FLOOR = 1e-8


def symmetry_center(
    surface: Surface,
    tol: float | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> tuple[np.ndarray, list[CriticalPlane]]:
    """Intersection of the critical hyperplanes for the canonical axes."""
    planes = [critical_position(surface, w, tol, sample_budget, seed) for w in np.eye(surface.dim)]
    center = np.array([p.level for p in planes])
    return center, planes


def radial_bounds(
    surface: Surface,
    center: np.ndarray,
    sample_budget: int = 2000,
    seed: int = 0,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(r_i, r_e, argmin, argmax) of |p - center| over the surface.

    The nearest and farthest probe samples seed one two-row `stationary`
    solve of the surface for the stationary points of |p - center|^2 / 2
    (alpha = 1, beta = -center); a row keeps its sample if it does not
    converge or does not improve on it, as always on a point cloud, whose
    seeds stand.
    """
    center = np.asarray(center, dtype=float)
    pts = surface.probe_points(sample_budget, seed)
    r = np.linalg.norm(pts - center, axis=1)
    p_i, p_e = pts[int(np.argmin(r))], pts[int(np.argmax(r))]
    r_i, r_e = float(r.min()), float(r.max())
    beta = np.broadcast_to(-center, (2, surface.dim))
    x, ok = surface.stationary(quadratic(1.0, beta), np.stack([p_i, p_e]))
    v = np.linalg.norm(x - center, axis=1)
    if ok[0] and v[0] < r_i:
        r_i, p_i = float(v[0]), x[0]
    if ok[1] and v[1] > r_e:
        r_e, p_e = float(v[1]), x[1]
    return r_i, r_e, p_i, p_e


def reflection_defect(
    surface: Surface, center: np.ndarray, sample_budget: int = 2000, seed: int = 0
) -> float:
    """Worst unsigned distance from the surface of the point reflection of a
    sample through the center; zero exactly for centrally symmetric input."""
    center = np.asarray(center, dtype=float)
    pts = surface.probe_points(sample_budget, seed)
    mirrored = 2.0 * center - pts
    return float(np.abs(surface.signed_distance(mirrored)).max())


@dataclass(frozen=True)
class RadialMapReport:
    ok: bool
    transversal_ok: bool
    annulus_normal_ok: bool
    rays_ok: bool
    max_radial_dot: float
    annulus_bound: float
    multi_hit_directions: list
    hit_counts: dict

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "transversal_ok": self.transversal_ok,
            "annulus_normal_ok": self.annulus_normal_ok,
            "rays_ok": self.rays_ok,
            "max_radial_dot": self.max_radial_dot,
            "annulus_bound": self.annulus_bound,
            "multi_hit_directions": self.multi_hit_directions,
            "hit_counts": {str(k): v for k, v in self.hit_counts.items()},
        }


def count_ray_hits(
    surface: Surface,
    origin: np.ndarray,
    directions: np.ndarray,
    t_max: float,
    *,
    t_min: float,
) -> np.ndarray:
    """Number of surface crossings of each ray origin + t*d, t in
    [t_min, t_max], from sign changes of `surface.implicit` on a dense
    t-grid: the points of linspace(t_max/_RAY_GRID, t_max, _RAY_GRID) at
    or beyond t_min.

    Starting at t_min > 0 assumes that no surface point lies nearer the
    origin than t_min, so each ray must read definitely inside (level
    above the deadband) at its first grid point; a `ValueError` says how
    many rays do not. On a point cloud each grid point is a kd-tree query,
    and those deep inside the cloud are the slowest, so counting from its
    centre (t_min = 0) costs far more than from the annulus.

    A positive `surface.ray_deadband` treats |level| below it as
    sign-preserving, which keeps the staircase noise of sampled surfaces
    from double-counting a single crossing.

    The rays go through in blocks of `_RAY_BLOCK_POINTS // _RAY_GRID`, so
    memory stays bounded however many rays are asked for.
    A ray's level values do not depend on the block it shares, so the
    counts equal those of one block holding every ray."""
    origin = np.asarray(origin, dtype=float)
    deadband = surface.ray_deadband
    ts = np.linspace(t_max / _RAY_GRID, t_max, _RAY_GRID)
    ts = ts[ts >= t_min]
    cols = np.arange(ts.size)
    counts = np.zeros(directions.shape[0], dtype=int)
    outside = 0
    chunk = _RAY_BLOCK_POINTS // _RAY_GRID  # bounds rays x grid points
    for i0 in range(0, directions.shape[0], chunk):
        block = directions[i0 : i0 + chunk]
        pts = origin[None, None, :] + ts[None, :, None] * block[:, None, :]
        phi = surface.implicit(pts.reshape(-1, surface.dim)).reshape(len(block), ts.size)
        if t_min > 0.0:
            outside += int(np.count_nonzero(~(phi[:, 0] > deadband)))
        signs = np.where(phi >= 0.0, 1.0, -1.0)
        if deadband > 0.0:
            # carry the last definite sign through the band (+1 before any)
            src = np.maximum.accumulate(np.where(np.abs(phi) > deadband, cols, -1), axis=1)
            signs = np.where(src >= 0, np.take_along_axis(signs, src, axis=1), 1.0)
        counts[i0 : i0 + chunk] = np.sum(np.diff(signs, axis=1) != 0, axis=1)
    if outside:
        raise ValueError(
            f"{outside} of {len(directions)} rays do not start inside the surface at "
            f"t_min = {t_min:.6g}"
        )
    return counts


def _radial_normal_dots(
    surface: Surface,
    center: np.ndarray,
    r_i: float,
    r_e: float,
    rho: float,
    sample_budget: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(probe points, their unit radial directions from the center dotted
    with the inner normals, the annulus-normal bound -1 + (r_e - r_i)/rho),
    from `Surface.probe_geometry`; the radial-map check and the
    annulus-normal lemma each judge the dots against the bound with their
    own tolerance."""
    pts, normals, _ = surface.probe_geometry(sample_budget, seed)
    rel = pts - center
    rad = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    return pts, np.einsum("md,md->m", rad, normals), -1.0 + (r_e - r_i) / rho


def radial_map_check(
    surface: Surface,
    center: np.ndarray,
    r_i: float,
    r_e: float,
    rho: float | None = None,
    n_rays: int = 1000,
    seed: int = 0,
    sample_budget: int = 2000,
) -> RadialMapReport:
    """Would collapsing the surface radially onto the inner sphere be a
    sensible change of coordinates?

    Checks (a) outward-ray transversality with the annulus-normal margin
    (radial direction dotted with the inner normal at most -1 + (r_e-r_i)/rho)
    and (b) that rays from the center meet the surface exactly once,
    counted from t_min = r_i - 0.05 (r_i + rho), inside the annulus that
    holds the surface, where every ray must start inside. Whether
    the center lies inside is the sign of `implicit`; it is not projected,
    since a near-sphere's center sits near the medial axis, where its
    nearest points form an almost degenerate ring.
    """
    center = np.asarray(center, dtype=float)
    if float(surface.implicit(center[None])[0]) <= 0.0:
        raise ValueError("center must lie strictly inside the enclosed domain")
    if rho is None:
        rho = touching_radius(surface, sample_budget, seed)

    _, dots, bound = _radial_normal_dots(surface, center, r_i, r_e, rho, sample_budget, seed)
    max_dot = float(dots.max())
    transversal_ok = bool(max_dot < 0.0)
    annulus_ok = bool(max_dot <= bound + 1e-9)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_rays, surface.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    counts = count_ray_hits(
        surface, center, dirs, t_max=1.05 * r_e + 0.05 * rho, t_min=r_i - 0.05 * (r_i + rho)
    )
    rays_ok = bool(np.all(counts == 1))
    multi = dirs[counts != 1][:8]
    uniq, freq = np.unique(counts, return_counts=True)
    return RadialMapReport(
        ok=transversal_ok and annulus_ok and rays_ok,
        transversal_ok=transversal_ok,
        annulus_normal_ok=annulus_ok,
        rays_ok=rays_ok,
        max_radial_dot=max_dot,
        annulus_bound=bound,
        multi_hit_directions=[d.tolist() for d in multi],
        hit_counts={int(u): int(f) for u, f in zip(uniq, freq)},
    )


@dataclass(frozen=True)
class StabilityReport:
    center: np.ndarray
    r_i: float
    r_e: float
    osc: float
    ratio: float | None
    ratio_indeterminate: bool
    verdict: str
    plane_distances: dict
    cross_check_lhs: float            # r_e - r_i
    cross_check_rhs: float            # 2 dist(center, extremal-direction plane)
    cross_check_slack: float
    reflection_defect: float
    radial_map: RadialMapReport | None
    osc_report: OscReport
    constants: ConstantsReport
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "r_i": self.r_i,
            "r_e": self.r_e,
            "r_e_minus_r_i": self.r_e - self.r_i,
            "osc": self.osc,
            "ratio": self.ratio,
            "ratio_indeterminate": self.ratio_indeterminate,
            "verdict": self.verdict,
            "plane_distances": self.plane_distances,
            "cross_check": {
                "lhs_re_minus_ri": self.cross_check_lhs,
                "rhs_twice_plane_distance": self.cross_check_rhs,
                "slack": self.cross_check_slack,
                "holds": self.cross_check_lhs <= self.cross_check_rhs + self.cross_check_slack,
            },
            "reflection_defect": self.reflection_defect,
            "radial_map": None if self.radial_map is None else self.radial_map.to_dict(),
            "osc_detail": self.osc_report.to_dict(),
            "constants": self.constants.to_dict(),
            "metadata": self.metadata,
        }


def stability_ratio(
    surface: Surface,
    sample_budget: int = 2000,
    seed: int = 0,
    tol: float | None = None,
    k1: float | None = None,
    k2: float | None = None,
    k3: float | None = None,
    n_rays: int = 1000,
) -> StabilityReport:
    """Full pipeline: oscillation, touching radius, axis critical planes,
    center, radii, defects, radial-map diagnosis, constants ledger."""
    osc_rep = mean_curvature_oscillation(surface, sample_budget, seed)
    rho = touching_radius(surface, sample_budget, seed)
    area, area_err = surface.area_estimate()
    center, planes = symmetry_center(surface, tol, sample_budget, seed)
    r_i, r_e, p_i, p_e = radial_bounds(surface, center, sample_budget, seed)

    plane_distances = {
        f"e{i + 1}": abs(float(center @ p.direction) - p.level)
        for i, p in enumerate(planes)
    }

    spread = r_e - r_i
    # cross check against the critical plane orthogonal to the extremal chord
    gap = p_e - p_i
    diam = 2.0 * surface.bounding_radius()
    slack = 2.0 * diam / math.sqrt(max(sample_budget, 1))
    if np.linalg.norm(gap) > 1e-9 * diam:
        w = unit(gap)
        extremal_plane = critical_position(surface, w, tol, sample_budget, seed)
        rhs = 2.0 * abs(float(center @ w) - extremal_plane.level)
        plane_distances["extremal"] = rhs / 2.0
    else:
        rhs = 0.0

    defect = reflection_defect(surface, center, sample_budget, seed)
    radial = None
    radial_err = None
    try:
        radial = radial_map_check(
            surface, center, r_i, r_e, rho, n_rays=n_rays, seed=seed, sample_budget=sample_budget
        )
    except ValueError as exc:
        radial_err = str(exc)

    indeterminate = osc_rep.osc <= _OSC_NOISE_FLOOR
    ratio = None if indeterminate else spread / osc_rep.osc
    if indeterminate:
        verdict = (
            "sphere within tolerance"
            if spread <= max(10.0 * _OSC_NOISE_FLOOR, 1e-6 * diam)
            else "oscillation below noise floor but radii spread is not"
        )
    else:
        verdict = "stability ratio measured"

    ledger = compute_constants(surface.n, rho, area, k1, k2, k3)
    metadata = {
        "rho_hat": rho,
        "area": area,
        "area_rel_err": area_err,
        "sample_budget": sample_budget,
        "seed": seed,
        "tol": tol,
        "h_convention": H_CONVENTION,
        "osc_noise_floor": _OSC_NOISE_FLOOR,
        "radial_map_error": radial_err,
        "degenerate_contacts": [p.degenerate_contact for p in planes],
    }
    return StabilityReport(
        center=center,
        r_i=r_i,
        r_e=r_e,
        osc=osc_rep.osc,
        ratio=ratio,
        ratio_indeterminate=indeterminate,
        verdict=verdict,
        plane_distances=plane_distances,
        cross_check_lhs=spread,
        cross_check_rhs=rhs,
        cross_check_slack=slack,
        reflection_defect=defect,
        radial_map=radial,
        osc_report=osc_rep,
        constants=ledger,
        metadata=metadata,
    )
