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

# Grid points per block of rays in `count_ray_hits`: 16 rays of the default
# 2048-point grid. Each block's level table and its sign, deadband and diff
# temporaries are what the radial-map check holds at once, so this caps its
# memory (a few MB) whatever the number of rays. On 1500-point sphere clouds
# at 100 rays it also ran as fast as any of 2**15 to 2**18 points, and about
# 18% faster than one block holding all 100 rays.
_RAY_BLOCK_POINTS = 2**15


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


def symmetry_center_robust(
    surface: Surface,
    n_directions: int = 16,
    tol: float | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Noise-resilient center diagnostic: average the critical-plane foot
    points m(omega)*omega over random directions and report their spread
    around the estimate (a sphere gives spread ~ 0)."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_directions, surface.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    levels = np.array(
        [critical_position(surface, w, tol, sample_budget, seed).level for w in dirs]
    )
    # least-squares point closest to all critical hyperplanes {x . w_i = m_i}
    normal_matrix = dirs.T @ dirs
    center = np.linalg.solve(normal_matrix, dirs.T @ levels)
    spread = float(np.abs(dirs @ center - levels).max())
    return center, spread


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


def critical_plane_distance(
    surface: Surface,
    center: np.ndarray,
    omega: np.ndarray,
    tol: float | None = None,
    sample_budget: int = 2000,
    seed: int = 0,
) -> float:
    """Distance from the center to the critical hyperplane in direction omega."""
    omega = unit(omega)
    plane = critical_position(surface, omega, tol, sample_budget, seed)
    return abs(float(np.asarray(center) @ omega) - plane.level)


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
    resolution: int = 2048,
) -> np.ndarray:
    """Number of surface crossings of each ray origin + t*d, t in (0, t_max],
    from sign changes of the level function on a dense t-grid.

    The level values come from `surface.implicit_on_rays`: a grid of
    `implicit` calls in general, and on a point cloud an exact walk to the
    nearest sample along each ray with no kd-tree query per grid point.

    A positive `surface.ray_deadband` treats |level| below it as
    sign-preserving, which keeps the staircase noise of sampled surfaces
    from double-counting a single crossing.

    The rays go through in blocks of `_RAY_BLOCK_POINTS // resolution` (at
    least one), so memory stays bounded however many rays are asked for.
    A ray's level values do not depend on the block it shares, so the
    counts equal those of one block holding every ray."""
    origin = np.asarray(origin, dtype=float)
    deadband = surface.ray_deadband
    ts = np.linspace(t_max / resolution, t_max, resolution)
    cols = np.arange(resolution)
    counts = np.zeros(directions.shape[0], dtype=int)
    chunk = max(1, _RAY_BLOCK_POINTS // resolution)  # bounds rays x grid points
    for i0 in range(0, directions.shape[0], chunk):
        phi = surface.implicit_on_rays(origin, directions[i0 : i0 + chunk], ts)
        signs = np.where(phi >= 0.0, 1.0, -1.0)
        if deadband > 0.0:
            # carry the last definite sign through the band (+1 before any)
            src = np.maximum.accumulate(np.where(np.abs(phi) > deadband, cols, -1), axis=1)
            signs = np.where(src >= 0, np.take_along_axis(signs, src, axis=1), 1.0)
        counts[i0 : i0 + chunk] = np.sum(np.diff(signs, axis=1) != 0, axis=1)
    return counts


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
    and (b) that rays from the center meet the surface exactly once.
    """
    center = np.asarray(center, dtype=float)
    if float(surface.signed_distance(center)) <= 0.0:
        raise ValueError("center must lie strictly inside the enclosed domain")
    if rho is None:
        rho = touching_radius(surface, sample_budget, seed)

    pts = surface.probe_points(sample_budget, seed)
    rel = pts - center
    rad = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    normals, _ = surface.curvatures_batch(pts)
    dots = np.einsum("md,md->m", rad, normals)
    max_dot = float(dots.max())
    bound = -1.0 + (r_e - r_i) / rho
    transversal_ok = bool(max_dot < 0.0)
    annulus_ok = bool(max_dot <= bound + 1e-9)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_rays, surface.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    counts = count_ray_hits(surface, center, dirs, t_max=1.05 * r_e + 0.05 * rho)
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
    osc_noise_floor: float = 1e-8,
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
    slack = 2.0 * surface.diameter_hint() / math.sqrt(max(sample_budget, 1))
    if np.linalg.norm(gap) > 1e-9:
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

    indeterminate = osc_rep.osc <= osc_noise_floor
    ratio = None if indeterminate else spread / osc_rep.osc
    if indeterminate:
        verdict = (
            "sphere within tolerance"
            if spread <= max(10.0 * osc_noise_floor, 1e-6 * surface.diameter_hint())
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
        "osc_noise_floor": osc_noise_floor,
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
