"""Numerical stress tests for the quantitative geometric estimates.

Each verifier runs randomized trials of one inequality on an analytic
surface and tallies violations beyond a stated tolerance, recording the
worst slack with its witness. On correctly-measured inputs these are
theorems, so any violation indicates an implementation bug or a wrong
touching-radius estimate; the negative-control paths (deliberately doubled
radius, tangential slices) must conversely produce failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import row_dots, tangent_frame, unit
from .intrinsic import GeodesicGraph, interface_distances
from .planes import CriticalPlane, critical_caps, plane_crossing_fn
from .surfaces import (
    Surface,
    _bisect_along,
    _graph_heights_batch,
    touching_radius,
)
from .tracing import (
    TangentialSliceError,
    TracingError,
    curve_curvatures,
    curve_normals_in_plane,
    project_to_plane,
    trace_plane_section,
)

ANALYTIC_TOL = 1e-7
FD_TOL = 1e-4
_TRANSVERSALITY_MARGIN = 0.05  # a slice with |nu . omega| > 1 - this is tangential
_NORMAL_CHANGE_PROBES = 12  # source-patch points per normal-change trial
_TILT_TRIALS_CAP = 10000  # band nodes a normal-tilt check takes at most
_TILT_MATCH_TOL = 1e-6  # excess of |nu_q - nu_hat| over alpha a tilt match allows


@dataclass
class LemmaVerdict:
    check: str
    trials: int
    violations: int
    worst_slack: float          # most negative margin seen (negative = violation)
    tolerance: float
    skipped: int = 0
    witness: dict | None = None
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "trials": self.trials,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "tolerance": self.tolerance,
            "skipped": self.skipped,
            "witness": self.witness,
            "notes": self.notes,
        }

    def table_row(self) -> str:
        return (
            f"{self.check:<22} {self.trials:>7} {self.violations:>6} "
            f"{self.worst_slack:>13.3e} {self.skipped:>6}"
        )


def _tally(check: str, margins: np.ndarray, tol: float, witnesses=None, skipped: int = 0,
           notes: list | None = None) -> LemmaVerdict:
    margins = np.asarray(margins, dtype=float)
    bad = margins < -tol
    worst_idx = int(np.argmin(margins)) if margins.size else -1
    witness = None
    if witnesses is not None and worst_idx >= 0:
        witness = witnesses(worst_idx)
    return LemmaVerdict(
        check=check,
        trials=int(margins.size),
        violations=int(bad.sum()),
        worst_slack=float(margins.min()) if margins.size else 0.0,
        tolerance=tol,
        skipped=skipped,
        witness=witness,
        notes=notes or [],
    )


# ---------------------------------------------------------------------------
# tangent-graph bounds


def verify_graph_bounds(
    surface: Surface,
    trials: int = 10000,
    seed: int = 0,
    rho: float | None = None,
    tol: float = ANALYTIC_TOL,
) -> LemmaVerdict:
    """Height, gradient and normal-alignment bounds of tangent graphs over
    the touching-ball scale: |u| <= rho - sqrt(rho^2-|x|^2),
    |grad u| <= |x|/sqrt(rho^2-|x|^2), nu_p.nu_q >= sqrt(rho^2-|x|^2)/rho
    and |nu_p - nu_q| <= sqrt(2)|x|/rho."""
    rng = np.random.default_rng(seed)
    true_rho = touching_radius(surface)
    if rho is None:
        rho = true_rho
    pts = surface.probe_points(trials, seed)
    trials = pts.shape[0]  # a point cloud has no more samples than its own
    normals, _ = surface.curvatures_batch(pts)
    frames = tangent_frame(normals)
    dirs = rng.standard_normal((trials, surface.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # offsets stay within the evaluable patch; the claimed rho enters only
    # the bounds under test, so a wrong claim yields violations, not skips
    radii = 0.9 * min(rho, true_rho) * rng.uniform(0.05, 1.0, size=trials) ** (1.0 / surface.n)
    offsets = np.einsum("m,mi,mid->md", radii, dirs, frames)
    u = _graph_heights_batch(surface, pts, normals, offsets, true_rho)
    okmask = np.isfinite(u)
    skipped = int((~okmask).sum())
    pts, normals, offsets, radii, u = (
        pts[okmask], normals[okmask], offsets[okmask], radii[okmask], u[okmask]
    )
    q = pts + offsets + u[:, None] * normals
    g = surface.implicit_grad(q)
    gn = np.linalg.norm(g, axis=1)
    nu_q = g / gn[:, None]
    # graph gradient from implicit differentiation: tangential part over normal part
    denom = np.einsum("md,md->m", normals, g)
    grad_t = -(g - denom[:, None] * normals) / denom[:, None]
    grad_norm = np.linalg.norm(grad_t, axis=1)

    cap = np.sqrt(np.maximum(rho**2 - radii**2, 0.0))
    height_margin = (rho - cap) - np.abs(u)
    grad_margin = np.where(cap > 0, radii / np.where(cap > 0, cap, 1.0), np.inf) - grad_norm
    dot_margin = np.einsum("md,md->m", normals, nu_q) - cap / rho
    diff_margin = math.sqrt(2.0) * radii / rho - np.linalg.norm(normals - nu_q, axis=1)

    margins = np.minimum.reduce([height_margin, grad_margin, dot_margin, diff_margin])

    def witness(i):
        return {
            "base": pts[i].tolist(),
            "offset_norm": float(radii[i]),
            "height": float(u[i]),
            "margins": [
                float(height_margin[i]), float(grad_margin[i]),
                float(dot_margin[i]), float(diff_margin[i]),
            ],
        }

    return _tally("graph-bounds", margins, tol, witness, skipped,
                  notes=[f"rho={rho:.6g}"])


# ---------------------------------------------------------------------------
# intrinsic distance envelope


def verify_distance_bounds(
    surface: Surface,
    graph: GeodesicGraph,
    trials: int = 10000,
    seed: int = 0,
    tol: float = ANALYTIC_TOL,
) -> LemmaVerdict:
    """Chord lower bound and arcsin upper envelope of intrinsic distances
    within a touching-ball patch, with graph-resolution slack on the upper
    side."""
    rng = np.random.default_rng(seed)
    rho = touching_radius(surface)
    n_sources = max(8, min(128, trials // 64))
    sources = rng.choice(graph.node_count, size=n_sources, replace=False)
    dmat = graph.distances_from(sources)
    slack = 2.0 * graph.mean_edge

    lows, highs = [], []
    pairs = 0
    for row, i in enumerate(sources):
        rel = graph.points - graph.points[i]
        chord = np.linalg.norm(rel, axis=1)
        nu = graph.normals[i]
        proj = np.linalg.norm(rel - np.outer(rel @ nu, nu), axis=1)
        near = (proj < 0.9 * rho) & (chord < 0.75 * rho) & (chord > 0)
        take = np.nonzero(near)[0]
        if pairs + take.size > trials:
            take = take[: trials - pairs]
        d = dmat[row, take]
        lows.append(d - chord[take])
        envelope = rho * np.arcsin(np.clip(proj[take] / rho, 0.0, 1.0))
        highs.append(envelope + slack - d)
        pairs += take.size
        if pairs >= trials:
            break
    lows = np.concatenate(lows) if lows else np.zeros(0)
    highs = np.concatenate(highs) if highs else np.zeros(0)
    margins = np.minimum(lows, highs)
    low_res = graph.mean_edge > rho / 8.0
    notes = [f"slack={slack:.4g}", f"rho={rho:.6g}"]
    if low_res:
        notes.append("low-resolution graph: slack dominates the envelope")
    return _tally("distance-bounds", margins, tol, skipped=0, notes=notes)


# ---------------------------------------------------------------------------
# sliced and projected curvature (surfaces in R^3)


def slice_curvature_bounds(
    surface: Surface,
    omega: np.ndarray,
    level: float,
    step: float = 0.01,
    tol: float = FD_TOL,
) -> LemmaVerdict:
    """Sliced-curve curvature bounds: with s = sqrt(1-(nu.omega)^2) the unit
    in-plane normal satisfies nu.nu' = s and the sliced curvature lies in
    [kappa_min/s, kappa_max/s]; the unnormalized in-plane normal satisfies
    nu.nu'_raw = 1-(nu.omega)^2 identically."""
    if surface.dim != 3:
        raise ValueError("slice curvature checks need a surface in R^3")
    omega = unit(omega)
    seed_pt = _slice_seed(surface, omega, level)
    trace = trace_plane_section(surface.implicit, surface.implicit_grad, omega, level, seed_pt, step)
    P = trace.points
    nus, kappas = surface.curvatures_batch(P)
    align = np.abs(nus @ omega)
    if align.max() > 1.0 - _TRANSVERSALITY_MARGIN:
        raise TangentialSliceError(
            f"slice is near-tangential: max |nu.omega| = {align.max():.4f} "
            f"at {P[int(np.argmax(align))]}"
        )
    nu_raw = nus - (nus @ omega)[:, None] * omega[None, :]
    s = np.linalg.norm(nu_raw, axis=1)
    nu_unit = nu_raw / s[:, None]

    # identity of the induced orientation: nu . nu_raw = 1 - (nu.omega)^2
    ident_err = np.abs(np.einsum("md,md->m", nus, nu_raw) - (1.0 - align**2))

    kap_unsigned = curve_curvatures(P)
    bend = curve_normals_in_plane(P, omega)
    sign = np.sign(np.einsum("md,md->m", bend, nu_unit))
    kap_signed = kap_unsigned * np.where(sign == 0, 1.0, sign)

    lower = kappas[:, 0] / s
    upper = kappas[:, -1] / s
    margins = np.minimum(kap_signed - lower, upper - kap_signed)
    margins = np.minimum(margins, tol - ident_err)  # identity must hold too

    def witness(i):
        return {"point": P[i].tolist(), "kappa_slice": float(kap_signed[i]),
                "bounds": [float(lower[i]), float(upper[i])], "s": float(s[i])}

    return _tally("slice-curvature", margins, tol, witness,
                  notes=[f"trace_points={len(P)}", f"march_steps={trace.march_steps}"])


def _slice_seed(surface: Surface, omega: np.ndarray, level: float) -> np.ndarray:
    pts = surface.probe_points(2000, 0)
    h = pts @ omega - level
    i = int(np.argmin(np.abs(h)))
    if abs(h[i]) > 0.45 * surface.diameter_hint():
        raise TracingError("plane appears to miss the surface")
    return pts[i]


def projected_curvature_bounds(
    surface: Surface,
    omega1: np.ndarray,
    level: float,
    omega2: np.ndarray,
    step: float = 0.01,
    tol: float = FD_TOL,
) -> LemmaVerdict:
    """Projected-curve curvature bound: projecting the sliced curve onto the
    plane orthogonal to omega2 multiplies curvature by at most
    |omega1.omega2| / ((omega1.omega2)^2 + (omega2.nu')^2)^(3/2)."""
    if surface.dim != 3:
        raise ValueError("projected curvature checks need a surface in R^3")
    omega1, omega2 = unit(omega1), unit(omega2)
    seed_pt = _slice_seed(surface, omega1, level)
    trace = trace_plane_section(surface.implicit, surface.implicit_grad, omega1, level, seed_pt, step)
    return _projected_bound_from_trace(trace, surface, omega1, omega2, tol)


def _projected_bound_from_trace(trace, surface, omega1, omega2, tol, nu_unit=None):
    P = trace.points
    # tangents of the source curve; omega2 must stay non-tangent
    tang = np.roll(P, -1, axis=0) - np.roll(P, 1, axis=0)
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    t_align = np.abs(tang @ omega2)
    if t_align.max() > 0.999:
        raise TangentialSliceError("projection direction is tangent to the sliced curve")

    if nu_unit is None:
        nus, _ = surface.curvatures_batch(P)
        nu_raw = nus - (nus @ omega1)[:, None] * omega1[None, :]
        nu_unit = nu_raw / np.linalg.norm(nu_raw, axis=1, keepdims=True)

    kap_src = curve_curvatures(P)
    proj = project_to_plane(P, omega2)
    kap_proj = curve_curvatures(proj)

    w12 = abs(float(omega1 @ omega2))
    denom = (w12**2 + (nu_unit @ omega2) ** 2) ** 1.5
    factor = w12 / denom
    margins = factor * kap_src - kap_proj

    def witness(i):
        return {
            "point": P[i].tolist(),
            "kappa_source": float(kap_src[i]),
            "kappa_projected": float(kap_proj[i]),
            "factor": float(factor[i]),
        }

    return _tally("projected-curvature", margins, tol, witness,
                  notes=[f"trace_points={len(P)}", f"march_steps={trace.march_steps}",
                         f"omega1.omega2={w12:.6g}"])


def figure_projection_check(step: float = 0.02) -> dict:
    """Ground-truth projection demo: the paraboloid height surface cut by a
    tilted plane projects to a perfect circle on the floor plane.

    Returns the traced circle statistics and the pointwise projected-bound
    verdict; the bound is tight (equality) at the extremes of the section.
    """

    def phi(p):
        p = np.asarray(p, dtype=float)
        return p[..., 2] - p[..., 0] ** 2 - p[..., 1] ** 2

    def grad(p):
        p = np.asarray(p, dtype=float)
        return np.stack([-2.0 * p[..., 0], -2.0 * p[..., 1], np.ones(p.shape[:-1])], axis=-1)

    omega1 = unit(np.array([0.0, -8.0, 1.0]))
    level = 2.0 / math.sqrt(65.0)
    omega2 = np.array([0.0, 0.0, 1.0])
    y0 = 4.0 + math.sqrt(18.0)
    seed = np.array([0.0, y0, 2.0 + 8.0 * y0])
    trace = trace_plane_section(phi, grad, omega1, level, seed, step=step)
    P = trace.points

    proj = project_to_plane(P, omega2)
    kap_proj = curve_curvatures(proj)
    from .tracing import fit_circle

    center, radius = fit_circle(proj)

    # in-plane unit normal of the section on the paraboloid
    g = grad(P)
    nus = g / np.linalg.norm(g, axis=1, keepdims=True)
    nu_raw = nus - (nus @ omega1)[:, None] * omega1[None, :]
    nu_unit = nu_raw / np.linalg.norm(nu_raw, axis=1, keepdims=True)
    verdict = _projected_bound_from_trace(trace, None, omega1, omega2, FD_TOL, nu_unit=nu_unit)

    expected_kappa = 1.0 / math.sqrt(18.0)
    return {
        "trace_points": len(P),
        "march_steps": trace.march_steps,
        "kappa_projected_max_dev": float(np.abs(kap_proj - expected_kappa).max()),
        "expected_kappa": expected_kappa,
        "center": center.tolist(),
        "center_dev": float(np.linalg.norm(center - np.array([0.0, 4.0, 0.0]))),
        "radius": radius,
        "radius_dev": abs(radius - math.sqrt(18.0)),
        "bound_verdict": verdict,
    }


# ---------------------------------------------------------------------------
# re-graphing over a tilted direction


def verify_normal_change(
    surface: Surface,
    trials: int = 10000,
    seed: int = 0,
    eps_range: tuple[float, float] = (0.02, 0.6),
    tol: float = ANALYTIC_TOL,
) -> LemmaVerdict:
    """Re-graphing bound: a tangent patch of radius r, re-expressed as
    heights along a tilted direction ell with |ell - nu_p| <= eps < 1 over
    the shrunken disk (radius r*sqrt(1-eps^2)), keeps the tilted heights
    within sup|u| + sqrt(2)*eps*r, and every re-expressed point still sees
    ell transversally (nu_q . ell > 0)."""
    rng = np.random.default_rng(seed)
    rho = touching_radius(surface)
    r = 0.8 * rho
    pts = surface.probe_points(trials, seed)
    trials = pts.shape[0]  # a point cloud has no more samples than its own
    normals, _ = surface.curvatures_batch(pts)
    frames_full = tangent_frame(normals)

    eps = rng.uniform(*eps_range, size=trials)
    # tilt ell away from nu by the chord angle matching |ell - nu| = eps
    tdirs = rng.standard_normal((trials, surface.n))
    tdirs /= np.linalg.norm(tdirs, axis=1, keepdims=True)
    tilt_ambient = np.einsum("mi,mid->md", tdirs, frames_full)
    theta = 2.0 * np.arcsin(np.clip(eps / 2.0, 0.0, 1.0))
    ell = np.cos(theta)[:, None] * normals + np.sin(theta)[:, None] * tilt_ambient

    height_cap = rho - math.sqrt(max(rho**2 - r**2, 0.0))
    bound = height_cap + math.sqrt(2.0) * eps * r

    margins = np.full(trials, np.inf)
    skipped = 0
    for _ in range(_NORMAL_CHANGE_PROBES):
        # sample the source patch on the shrunken disk and re-express the
        # same surface point in the tilted direction
        xdirs = rng.standard_normal((trials, surface.n))
        xdirs /= np.linalg.norm(xdirs, axis=1, keepdims=True)
        xr = r * np.sqrt(np.maximum(1.0 - eps**2, 0.0)) * rng.uniform(0, 1, trials) ** (
            1.0 / surface.n
        )
        offsets = np.einsum("m,mi,mid->md", xr, xdirs, frames_full)
        u = _graph_heights_batch(surface, pts, normals, offsets, rho)
        good = np.isfinite(u)
        skipped += int((~good).sum())
        dq = offsets + u[:, None] * normals  # q - p
        v = np.einsum("md,md->m", dq, ell)
        g = surface.implicit_grad(pts + dq)
        nu_q = g / np.linalg.norm(g, axis=1, keepdims=True)
        transversal = np.einsum("md,md->m", nu_q, ell)
        m = np.minimum(bound - np.abs(v), transversal)
        m[~good] = np.inf
        margins = np.minimum(margins, m)

    return _tally("normal-change", margins, tol, skipped=skipped,
                  notes=[f"r={r:.4g}", f"probes={_NORMAL_CHANGE_PROBES}"])


# ---------------------------------------------------------------------------
# normal difference from gradient difference


def normal_from_gradient(g: np.ndarray) -> np.ndarray:
    """Inward graph normal (-grad, 1)/sqrt(1+|grad|^2) for heights measured
    along the last coordinate."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    denom = np.sqrt(1.0 + np.einsum("mi,mi->m", g, g))
    out = np.concatenate([-g, np.ones((g.shape[0], 1))], axis=1) / denom[:, None]
    return out


def verify_normal_difference(
    grad1: np.ndarray | None = None,
    grad2: np.ndarray | None = None,
    trials: int = 10000,
    seed: int = 0,
    tol: float = ANALYTIC_TOL,
    k: int = 2,
) -> LemmaVerdict:
    """Graph-normal difference bound |nu_1 - nu_2| <= (sqrt(5)/2) |grad
    difference|; explicit gradients check one pair, otherwise random
    quadratic-graph gradient pairs."""
    if grad1 is not None and grad2 is not None:
        g1 = np.atleast_2d(np.asarray(grad1, dtype=float))
        g2 = np.atleast_2d(np.asarray(grad2, dtype=float))
    else:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, size=(trials, k))
        b = rng.uniform(-2, 2, size=(trials, 2, k))
        A = rng.uniform(-2, 2, size=(trials, 2, k, k))
        A = A + np.swapaxes(A, -1, -2)
        g1 = b[:, 0] + np.einsum("mij,mj->mi", A[:, 0], x0)
        g2 = b[:, 1] + np.einsum("mij,mj->mi", A[:, 1], x0)
    n1 = normal_from_gradient(g1)
    n2 = normal_from_gradient(g2)
    eps = np.linalg.norm(g2 - g1, axis=1)
    lhs = np.linalg.norm(n1 - n2, axis=1)
    margins = math.sqrt(5.0) / 2.0 * eps - lhs

    def witness(i):
        return {"grad1": g1[i].tolist(), "grad2": g2[i].tolist(),
                "lhs": float(lhs[i]), "rhs": float(math.sqrt(5.0) / 2.0 * eps[i])}

    return _tally("normal-difference", margins, tol, witness)


# ---------------------------------------------------------------------------
# boundary-band normal tilt under the critical plane configuration


def verify_normal_tilt(
    surface: Surface,
    plane: CriticalPlane,
    graph: GeodesicGraph,
    delta: float | None = None,
    tol: float = ANALYTIC_TOL,
) -> LemmaVerdict:
    """Reflected-cap normal tilt near the cap boundary: for band points q of
    the reflected cap with a surface match q_hat = q - alpha*nu_q whose
    normals differ by at most alpha, the alignment nu_q.omega lies in
    [0, sqrt(8 delta^2/rho^2 + alpha/2)], provided alpha + 2 delta < rho."""
    rho = touching_radius(surface)
    if delta is None:
        delta = rho / 8.0
    omega, m = plane.direction, plane.level
    caps = critical_caps(surface, plane, graph)
    sigma_mask = np.zeros(graph.node_count, dtype=bool)
    sigma_mask[caps.sigma_nodes] = True
    dist = interface_distances(graph, sigma_mask, crossing_fn=plane_crossing_fn(omega, m, surface))
    band = caps.sigma_nodes[dist[caps.sigma_nodes] <= delta]
    band = band[:_TILT_TRIALS_CAP]

    P, nu_p = graph.points[band], graph.normals[band]
    q = P - 2.0 * (row_dots(P, omega) - m)[:, None] * omega
    nu_q = nu_p - 2.0 * row_dots(nu_p, omega)[:, None] * omega
    alpha_cap = min(0.5 * rho, max(8.0 * plane.contact_gap, 0.05 * rho))
    if alpha_cap + 2.0 * delta >= rho:
        alpha = np.full(len(band), math.nan)
    else:
        alpha = _root_along(surface, q, -nu_q, alpha_cap)
    found = np.nonzero(np.isfinite(alpha))[0]
    g = surface.implicit_grad(q[found] - alpha[found, None] * nu_q[found])
    nu_hat = g / np.sqrt(row_dots(g, g))[:, None]
    diff = nu_q[found] - nu_hat
    keep = found[np.sqrt(row_dots(diff, diff)) <= alpha[found] + _TILT_MATCH_TOL]
    t = row_dots(nu_q[keep], omega)
    bound = np.sqrt(8.0 * delta**2 / rho**2 + alpha[keep] / 2.0)
    margins = np.minimum(t, bound - t)  # both 0 <= t and t <= bound

    def witness(idx):
        return {"cap_point": P[keep[idx]].tolist(), "alignment": float(t[idx]),
                "bound": float(bound[idx]), "alpha": float(alpha[keep[idx]])}

    return _tally(
        "normal-tilt",
        margins,
        tol,
        witness if keep.size else None,
        len(band) - keep.size,
        notes=[f"delta={delta:.4g}", f"band={len(band)}"],
    )


def _root_along(surface, starts, directions, cap):
    """First crossing of the surface along each row's start + t*direction,
    t in [0, cap]: a 64-point grid brackets it and 80 steps of
    `_bisect_along`, batched over the rows, narrow it. Rows that start
    inside and never cross give nan; rows that start outside and never cross
    give 0.0."""
    ts = np.linspace(0.0, cap, 64)
    m, d = starts.shape
    grid = starts[:, None, :] + ts[None, :, None] * directions[:, None, :]
    phis = surface.implicit(grid.reshape(-1, d)).reshape(m, ts.size)
    signs = np.sign(phis)
    signs[signs == 0] = 1
    flips = np.diff(signs, axis=1) != 0
    out = np.where(signs[:, 0] > 0, math.nan, 0.0)
    rows = np.nonzero(flips.any(axis=1))[0]
    if rows.size == 0:
        return out
    first = flips[rows].argmax(axis=1)
    out[rows] = _bisect_along(
        surface, starts[rows], directions[rows], ts[first], ts[first + 1], phis[rows, first], 80
    )
    return out


# ---------------------------------------------------------------------------
# annulus normal alignment


def verify_annulus_normal(
    surface: Surface,
    center: np.ndarray,
    r_i: float,
    r_e: float,
    rho: float | None = None,
    sample_budget: int = 10000,
    seed: int = 0,
    tol: float = ANALYTIC_TOL,
) -> LemmaVerdict:
    """Annulus normal bound: when the surface fits in a shell of width at
    most twice the touching radius, the radial direction and the inner
    normal satisfy (p/|p|).nu_p <= -1 + (r_e - r_i)/rho (coordinates
    recentered)."""
    center = np.asarray(center, dtype=float)
    if rho is None:
        rho = touching_radius(surface)
    if r_e - r_i > 2.0 * rho:
        raise ValueError(
            f"annulus hypothesis violated: r_e - r_i = {r_e - r_i:.4g} > 2 rho = {2 * rho:.4g}"
        )
    pts = surface.probe_points(sample_budget, seed)
    rel = pts - center
    rad = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    normals, _ = surface.curvatures_batch(pts)
    dots = np.einsum("md,md->m", rad, normals)
    bound = -1.0 + (r_e - r_i) / rho
    margins = bound - dots

    def witness(i):
        return {"point": pts[i].tolist(), "dot": float(dots[i]), "bound": bound}

    return _tally("annulus-normal", margins, tol, witness, notes=[f"bound={bound:.6g}"])
