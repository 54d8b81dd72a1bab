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

from .geometry import record, row_dots, tangent_frame, unit
from .intrinsic import GeodesicGraph, interface_distances
from .planes import CriticalPlane, critical_caps, plane_crossing_fn
from .surfaces import (
    Surface,
    _graph_heights_batch,
    _roots_along,
    touching_radius,
)
from .symmetry import _radial_normal_dots
from .tracing import (
    TangentialSliceError,
    TracingError,
    curve_curvatures,
    curve_normals_in_plane,
    fit_circle,
    project_to_plane,
    trace_plane_section,
)

ANALYTIC_TOL = 1e-7
FD_TOL = 1e-4
_TRANSVERSALITY_MARGIN = 0.05  # a slice with |nu . omega| > 1 - this is tangential
_NORMAL_CHANGE_PROBES = 12  # source-patch points per normal-change trial
_TILT_TRIALS_CAP = 10000  # band nodes a normal-tilt check takes at most
_TILT_MATCH_TOL = 1e-6  # excess of |nu_q - nu_hat| over alpha a tilt match allows
_EPS_RANGE = (0.02, 0.6)  # range of the tilt |ell - nu_p| a normal-change trial draws from


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
        return record(self)

    # the column heads of `table_row`, in its widths
    TABLE_HEADER = f"{'check':<22} {'trials':>7} {'viols':>6} {'worst_slack':>13} {'skips':>6}"

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
) -> LemmaVerdict:
    """Height, gradient and normal-alignment bounds of tangent graphs over
    the touching-ball scale: |u| <= rho - sqrt(rho^2-|x|^2),
    |grad u| <= |x|/sqrt(rho^2-|x|^2), nu_p.nu_q >= sqrt(rho^2-|x|^2)/rho
    and |nu_p - nu_q| <= sqrt(2)|x|/rho."""
    if rho is not None and not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    rng = np.random.default_rng(seed)
    true_rho = touching_radius(surface)
    if rho is None:
        rho = true_rho
    pts, normals, _ = surface.probe_geometry(trials, seed)
    trials = pts.shape[0]  # a point cloud has no more samples than its own
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
    g = surface.jet(q, 1)[1]
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

    return _tally("graph-bounds", margins, ANALYTIC_TOL, witness, skipped,
                  notes=[f"rho={rho:.6g}"])


# ---------------------------------------------------------------------------
# intrinsic distance envelope


def verify_distance_bounds(
    surface: Surface,
    graph: GeodesicGraph,
    trials: int = 10000,
    seed: int = 0,
) -> LemmaVerdict:
    """Chord lower bound and arcsin upper envelope of intrinsic distances
    within a touching-ball patch, with graph-resolution slack on the upper
    side."""
    rng = np.random.default_rng(seed)
    rho = touching_radius(surface)
    n_sources = min(max(8, min(128, trials // 64)), graph.node_count)
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
    return _tally("distance-bounds", margins, ANALYTIC_TOL, skipped=0, notes=notes)


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
    trace = trace_plane_section(surface.jet, omega, level, seed_pt, step)
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
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    pts = surface.probe_points(2000, 0)
    h = pts @ omega - level
    i = int(np.argmin(np.abs(h)))
    if abs(h[i]) > 0.9 * surface.bounding_radius():
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
    trace = trace_plane_section(surface.jet, omega1, level, seed_pt, step)
    return _projected_bound_from_trace(trace, surface.jet, omega1, omega2, tol)


def _projected_bound_from_trace(trace, jet, omega1, omega2, tol):
    P = trace.points
    # tangents of the source curve; omega2 must stay non-tangent
    tang = np.roll(P, -1, axis=0) - np.roll(P, 1, axis=0)
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    t_align = np.abs(tang @ omega2)
    if t_align.max() > 0.999:
        raise TangentialSliceError("projection direction is tangent to the sliced curve")

    # in-plane unit normals of the section, from the level function's gradient
    g = jet(P, 1)[1]
    nus = g / np.linalg.norm(g, axis=1, keepdims=True)
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

    def jet(P, order):
        x, y, z = P.T
        out = [z - x**2 - y**2]
        if order >= 1:
            out.append(np.stack([-2.0 * x, -2.0 * y, np.ones(len(P))], axis=1))
        return out

    omega1 = unit(np.array([0.0, -8.0, 1.0]))
    level = 2.0 / math.sqrt(65.0)
    omega2 = np.array([0.0, 0.0, 1.0])
    y0 = 4.0 + math.sqrt(18.0)
    seed = np.array([0.0, y0, 2.0 + 8.0 * y0])
    trace = trace_plane_section(jet, omega1, level, seed, step=step)
    P = trace.points

    proj = project_to_plane(P, omega2)
    kap_proj = curve_curvatures(proj)
    center, radius = fit_circle(proj)
    verdict = _projected_bound_from_trace(trace, jet, omega1, omega2, FD_TOL)

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
) -> LemmaVerdict:
    """Re-graphing bound: a tangent patch of radius r, re-expressed as
    heights along a tilted direction ell with |ell - nu_p| = eps in
    `_EPS_RANGE` over the shrunken disk (radius r*sqrt(1-eps^2)), keeps the
    tilted heights within sup|u| + sqrt(2)*eps*r, and every re-expressed
    point still sees ell transversally (nu_q . ell > 0). The 12 probe points
    of every trial go through one height solve and one gradient call."""
    rng = np.random.default_rng(seed)
    rho = touching_radius(surface)
    r = 0.8 * rho
    pts, normals, _ = surface.probe_geometry(trials, seed)
    trials = pts.shape[0]  # a point cloud has no more samples than its own
    frames_full = tangent_frame(normals)

    eps = rng.uniform(*_EPS_RANGE, size=trials)
    # tilt ell away from nu by the chord angle matching |ell - nu| = eps
    tdirs = rng.standard_normal((trials, surface.n))
    tdirs /= np.linalg.norm(tdirs, axis=1, keepdims=True)
    tilt_ambient = np.einsum("mi,mid->md", tdirs, frames_full)
    theta = 2.0 * np.arcsin(np.clip(eps / 2.0, 0.0, 1.0))
    ell = np.cos(theta)[:, None] * normals + np.sin(theta)[:, None] * tilt_ambient

    height_cap = rho - math.sqrt(max(rho**2 - r**2, 0.0))
    bound = height_cap + math.sqrt(2.0) * eps * r

    # sample the source patch on the shrunken disk, one probe after another,
    # and re-express the same surface points in the tilted direction
    shrunk = r * np.sqrt(np.maximum(1.0 - eps**2, 0.0))
    offsets = []
    for _ in range(_NORMAL_CHANGE_PROBES):
        xdirs = rng.standard_normal((trials, surface.n))
        xdirs /= np.linalg.norm(xdirs, axis=1, keepdims=True)
        xr = shrunk * rng.uniform(0, 1, trials) ** (1.0 / surface.n)
        offsets.append(np.einsum("m,mi,mid->md", xr, xdirs, frames_full))
    offsets = np.concatenate(offsets)
    pts, normals, ell = (np.tile(a, (_NORMAL_CHANGE_PROBES, 1)) for a in (pts, normals, ell))
    u = _graph_heights_batch(surface, pts, normals, offsets, rho)
    good = np.isfinite(u)
    dq = offsets + u[:, None] * normals  # q - p
    v = np.einsum("md,md->m", dq, ell)
    g = surface.jet(pts + dq, 1)[1]
    nu_q = g / np.linalg.norm(g, axis=1, keepdims=True)
    transversal = np.einsum("md,md->m", nu_q, ell)
    m = np.minimum(bound - np.abs(v).reshape(-1, trials), transversal.reshape(-1, trials))
    margins = np.where(good.reshape(-1, trials), m, np.inf).min(axis=0)
    return _tally("normal-change", margins, ANALYTIC_TOL, skipped=int((~good).sum()),
                  notes=[f"r={r:.4g}", f"probes={_NORMAL_CHANGE_PROBES}"])


# ---------------------------------------------------------------------------
# normal difference from gradient difference


def normal_from_gradient(g: np.ndarray) -> np.ndarray:
    """Inward graph normals (-grad, 1)/sqrt(1+|grad|^2) of the gradient rows
    g (m, k), for heights measured along the last coordinate."""
    denom = np.sqrt(1.0 + np.einsum("mi,mi->m", g, g))
    out = np.concatenate([-g, np.ones((g.shape[0], 1))], axis=1) / denom[:, None]
    return out


def verify_normal_difference(trials: int = 10000, seed: int = 0) -> LemmaVerdict:
    """Graph-normal difference bound |nu_1 - nu_2| <= (sqrt(5)/2) |grad
    difference| on random pairs of quadratic graphs over R^2, compared at a
    common point."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, size=(trials, 2))
    b = rng.uniform(-2, 2, size=(trials, 2, 2))
    A = rng.uniform(-2, 2, size=(trials, 2, 2, 2))
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

    return _tally("normal-difference", margins, ANALYTIC_TOL, witness)


# ---------------------------------------------------------------------------
# boundary-band normal tilt under the critical plane configuration


def verify_normal_tilt(
    surface: Surface,
    plane: CriticalPlane,
    graph: GeodesicGraph,
    delta: float | None = None,
) -> LemmaVerdict:
    """Reflected-cap normal tilt near the cap boundary: for band points q of
    the reflected cap with a surface match q_hat = q - alpha*nu_q whose
    normals differ by at most alpha, the alignment nu_q.omega lies in
    [0, sqrt(8 delta^2/rho^2 + alpha/2)], provided alpha + 2 delta < rho."""
    if delta is not None and not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    rho = touching_radius(surface)
    if delta is None:
        delta = rho / 8.0
    omega, m = plane.direction, plane.level
    sigma = critical_caps(plane, graph)
    sigma_mask = np.zeros(graph.node_count, dtype=bool)
    sigma_mask[sigma] = True
    dist = interface_distances(graph, sigma_mask, crossing_fn=plane_crossing_fn(omega, m, surface))
    band = sigma[dist[sigma] <= delta]
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
    g = surface.jet(q[found] - alpha[found, None] * nu_q[found], 1)[1]
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
        ANALYTIC_TOL,
        witness if keep.size else None,
        len(band) - keep.size,
        # why band points were skipped: no crossing within alpha_cap, or
        # a matched normal farther than alpha from the reflected one
        notes=[f"delta={delta:.4g}", f"band={len(band)}", f"no_crossing={len(band) - found.size}",
               f"normal_mismatch={found.size - keep.size}"],
    )


def _root_along(surface, starts, directions, cap):
    """First crossing of the surface along each row's start + t*direction,
    t in [0, cap]: a 64-point grid brackets it and `_roots_along`, batched
    over the rows, solves it. Rows that start inside and never cross give
    nan; rows that start outside and never cross give 0.0. A row that meets
    NaN on the grid before its first sign change gives nan."""
    ts = np.linspace(0.0, cap, 64)
    m, d = starts.shape
    grid = starts[:, None, :] + ts[None, :, None] * directions[:, None, :]
    signs = np.sign(surface.implicit(grid.reshape(-1, d)).reshape(m, ts.size))
    signs[signs == 0] = 1
    flips = np.diff(signs, axis=1) != 0  # NaN counts as a flip
    out = np.where(signs[:, 0] > 0, math.nan, 0.0)
    rows = np.nonzero(flips.any(axis=1))[0]
    first = flips[rows].argmax(axis=1)
    out[rows] = _roots_along(surface, starts[rows], directions[rows], ts[first], ts[first + 1])
    return out


# ---------------------------------------------------------------------------
# annulus normal alignment


def verify_annulus_normal(
    surface: Surface,
    center: np.ndarray,
    r_i: float,
    r_e: float,
    sample_budget: int = 10000,
    seed: int = 0,
) -> LemmaVerdict:
    """Annulus normal bound: when the surface fits in a shell of width at
    most twice the touching radius, the radial direction and the inner
    normal satisfy (p/|p|).nu_p <= -1 + (r_e - r_i)/rho (coordinates
    recentered)."""
    center = np.asarray(center, dtype=float)
    rho = touching_radius(surface)
    if r_e - r_i > 2.0 * rho:
        raise ValueError(
            f"annulus hypothesis violated: r_e - r_i = {r_e - r_i:.4g} > 2 rho = {2 * rho:.4g}"
        )
    pts, dots, bound = _radial_normal_dots(surface, center, r_i, r_e, rho, sample_budget, seed)
    margins = bound - dots

    def witness(i):
        return {"point": pts[i].tolist(), "dot": float(dots[i]), "bound": bound}

    return _tally("annulus-normal", margins, ANALYTIC_TOL, witness, notes=[f"bound={bound:.6g}"])
