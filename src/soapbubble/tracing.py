"""Plane-section tracing of implicit surfaces in R^3 and discrete curvature
of the traced curves.

A section {phi = 0, x . omega = level} is traced in two stages.

The march only finds the closed loop. It is a predictor-corrector
continuation on the two constraints: predict along the cross product of the
two constraint gradients, correct by Newton on the 2x3 system. Its step
follows the curve's turning, not the output spacing: it halves while a step
turns the tangent by more than 0.35 rad and doubles while it turns by less
than 0.08 rad, between step/64 and `_MARCH_GROWTH` * step. The march closes
on the step that runs past the seed, within 1.2 `step` of it and heading the
way the march left it, so the far side of a thin section cannot close it.

The output comes from two arclength resamples, each of which lands all its
points on the section in one corrector call. The first resamples the coarse
march polyline at spacing `step`, halved until its chords turn by at most
0.35 rad, as the march's do, at the march's sharpest bend. Its points lie
on the section, but the coarse chords are shorter than the arcs they cut,
so they are not evenly spaced along the curve. The second resamples that
fine loop at spacing `step`, so its arclength targets come from a polyline
whose chords follow the arcs as closely as a step-capped march's would.

The corrector `_correct` works on rows: each Newton step solves the 2x2
Gram system of the two gradients in closed form for every row still
moving. A row stops once both residuals, measured as lengths, are within a
bound relative to the section's scale (see `_LAND_RTOL`), so it lands where
it would alone and the rule holds at every scale; a row that does not land
raises `TracingError`. Curvature along a trace comes from the circumscribed
circle of consecutive point triples, which is exact on circles regardless of
step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import resample_polyline, row_dots, unit

# The march step may grow to this multiple of the output spacing. The
# turning-angle control keeps a step within 0.35 rad of turning anyway; the
# cap keeps the first resample's chords short enough for the corrector to
# land their points on the nearby arc.
_MARCH_GROWTH = 8
_MAX_STEPS = 200000  # accepted plus rejected march steps before giving up

# A row lands once |phi| / |grad phi| and |x . omega - level| (both lengths)
# are at most the larger of _LAND_RTOL * |x| and a length `tol` given per
# call. Evaluating either residual rounds at about 1e-16 times the size of the
# coordinates phi works with (1.1e-13 on a section of
# HarmonicRadial([(2,0,.15),(3,0,.05)], base_radius=1e3)), so a bound fixed in
# absolute units cannot be met on large surfaces; 1e-14 leaves a factor of
# about 100 above that floor. |x| alone vanishes where a section passes
# through the origin, so the output rows also take _LAND_RTOL times the
# march's farthest point from the origin, the section's own size.
_LAND_RTOL = 1e-14
# March points only shape the polyline that the first resample lands again,
# so they land within this fraction of the step that reached them.
_MARCH_RTOL = 1e-10


class TracingError(Exception):
    pass


class TangentialSliceError(TracingError):
    """The plane meets the surface non-transversally (grazing contact)."""


@dataclass
class Trace:
    points: np.ndarray   # (m, 3), closed loop (no repeated endpoint)
    march_steps: int     # accepted predictor steps of the march


def _correct(jet, omega, level, P, iters=30, tol=0.0):
    """Newton-correct each row of P (m, 3) onto {phi = 0, x . omega = level},
    with phi and its gradient from one `jet(X, 1)` call per pass. Returns
    the landed rows and the gradient at each.

    A step moves a row by J^T lam with J = [grad phi; omega], where lam
    solves the Gram system [[g.g, g.omega], [g.omega, omega.omega]] lam = -f
    by Cramer's rule. A row stops once both residuals, as lengths, are at
    most max(_LAND_RTOL * |x|, tol), so its result does not depend on the
    other rows. The phi residual is divided by the gradient of the pass
    before (on the first pass, its own). A row still off the section after
    `iters` steps raises TracingError.
    """
    P = np.array(P, dtype=float)
    G = np.empty_like(P)
    live = np.arange(P.shape[0])
    ww = float(omega @ omega)
    for it in range(iters + 1):
        X = P[live]
        f0, g = jet(X, 1)
        if it == 0:
            gg = row_dots(g, g)
        f1 = row_dots(X, omega) - level
        bound2 = np.maximum(_LAND_RTOL**2 * row_dots(X, X), tol * tol)
        moving = ~((f0 * f0 <= bound2 * gg) & (f1 * f1 <= bound2 * ww))
        G[live[~moving]] = g[~moving]
        if not moving.any():
            return P, G
        live, X, f0, f1, g = live[moving], X[moving], f0[moving], f1[moving], g[moving]
        if it == iters:
            i = int(live[0])
            raise TracingError(
                f"row {i} at {P[i]} did not land on the section within {iters} Newton "
                f"steps: |phi| = {abs(f0[0]):.3g}, |x.omega - level| = {abs(f1[0]):.3g}"
            )
        gg, gw = row_dots(g, g), row_dots(g, omega)
        det = gg * ww - gw * gw
        if np.any(det <= 0.0):
            raise TangentialSliceError(
                f"constraint gradients are parallel near {X[np.argmax(det <= 0.0)]}; "
                "slice is tangential"
            )
        lam_g = (gw * f1 - ww * f0) / det
        lam_w = (gw * f0 - gg * f1) / det
        P[live] = X + lam_g[:, None] * g + lam_w[:, None] * omega


def _cross(a, b):
    """Cross product of 3-vectors along the last axis, rounded as numpy's
    cross rounds it."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def trace_plane_section(
    jet,
    omega: np.ndarray,
    level: float,
    seed_point: np.ndarray,
    step: float = 0.02,
) -> Trace:
    """Trace the closed intersection curve of {phi = 0} with the hyperplane
    {x . omega = level}, starting near seed_point, as points evenly spaced
    `step` apart in arclength. `jet(X, order)` gives [phi, grad phi][: order
    + 1] at the rows of X, as `Surface.jet` does."""
    omega = unit(np.asarray(omega, dtype=float))

    def land(P, tol):
        return _correct(jet, omega, level, P, tol=tol)

    def land_one(p, tol):
        # the landed point and the unit tangent of the section there
        P, G = land(p[None], tol)
        t = _cross(G[0], omega)
        n = np.linalg.norm(t)
        if n < 1e-12 * max(np.linalg.norm(G[0]), 1.0):
            raise TangentialSliceError(f"tangential slice at {P[0]}")
        return P[0], t / n

    try:
        p0, t0 = land_one(np.asarray(seed_point, dtype=float), _MARCH_RTOL * step)
    except TangentialSliceError:
        raise
    except TracingError as exc:
        raise TracingError(f"could not land the seed on the section: {exc}") from exc

    pts, t_prev = [p0], t0
    h = step
    h_max = _MARCH_GROWTH * step
    travelled = 0.0
    bend = 0.0  # the largest turn per unit length of an accepted step
    for _ in range(_MAX_STEPS):
        p = pts[-1]
        cand, t_new = land_one(p + h * t_prev, _MARCH_RTOL * h)
        turn = math.acos(float(np.clip(t_prev @ t_new, -1.0, 1.0)))
        if turn > 0.35 and h > step / 64.0:
            h *= 0.5
            continue
        bend = max(bend, turn / h)
        if len(pts) > 8 and travelled > 6.0 * step and _passes(p0, t0, p, cand, step):
            # the step from p crosses the seed: p -> p0 closes the loop
            polyline = np.array(pts)
            tol = _LAND_RTOL * float(np.sqrt(row_dots(polyline, polyline).max()))
            # the fine loop's chords turn by at most 0.35 rad, as the march's do
            sub = step
            while bend * sub > 0.35 and sub > step / 64.0:
                sub *= 0.5
            fine = _resample_closed(polyline, lambda P: land(P, tol)[0], sub)
            points = _resample_closed(fine, lambda P: land(P, tol)[0], step)
            return Trace(points=points, march_steps=len(pts))
        pts.append(cand)
        travelled += float(np.linalg.norm(cand - p))
        t_prev = t_new
        if turn < 0.08 and h < h_max:
            h = min(h_max, 2.0 * h)
    raise TracingError("section did not close within the step budget")


def _passes(p0, t0, p, q, step):
    """Whether the march step p -> q runs past p0 the way the march left it:
    p0's foot on the chord lies inside it, within 1.2 `step` of p0, and the
    step heads along the seed's tangent t0. On the far side of a thin
    section the chord passes p0 at the section's width, and runs the other
    way, so however long the march's steps it does not close there."""
    d = q - p
    s = float((p0 - p) @ d) / float(d @ d)
    return 0.0 < s <= 1.0 and float(d @ t0) > 0.0 and (
        float(np.linalg.norm(p + s * d - p0)) < 1.2 * step
    )


def _resample_closed(pts, land, step):
    """Points at even arclength `step` along the closed polyline `pts`,
    starting at its first point, landed back on the section in one batch."""
    rough, _ = resample_polyline(
        np.vstack([pts, pts[:1]]),
        lambda total: np.linspace(0.0, total, max(8, int(round(total / step))), endpoint=False),
    )
    return land(rough)


def curve_curvatures(points: np.ndarray) -> np.ndarray:
    """Unsigned curvature at each point of a closed curve in R^3 from the
    circumscribed circle of (previous, here, next); exact on circles."""
    P = np.asarray(points, dtype=float)
    a = np.roll(P, 1, axis=0)
    c = np.roll(P, -1, axis=0)
    ab = P - a
    bc = c - P
    ac = c - a
    cross_norm = np.linalg.norm(_cross(ab, bc), axis=-1)
    denom = (
        np.linalg.norm(ab, axis=-1) * np.linalg.norm(bc, axis=-1) * np.linalg.norm(ac, axis=-1)
    )
    return 2.0 * cross_norm / np.where(denom > 1e-300, denom, 1.0)


def curve_normals_in_plane(points: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Unit normals of a closed plane curve within its plane, oriented toward
    the local center of curvature (the second-difference direction)."""
    P = np.asarray(points, dtype=float)
    omega = unit(np.asarray(omega, dtype=float))
    second = np.roll(P, -1, axis=0) + np.roll(P, 1, axis=0) - 2.0 * P
    second = second - np.outer(second @ omega, omega)
    n = np.linalg.norm(second, axis=1, keepdims=True)
    return second / np.where(n > 1e-300, n, 1.0)


def project_to_plane(points: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the hyperplane through the origin
    orthogonal to omega."""
    omega = unit(np.asarray(omega, dtype=float))
    P = np.asarray(points, dtype=float)
    return P - np.outer(P @ omega, omega)


def fit_circle(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares circle (center, radius) through points lying in some
    plane in R^3 (algebraic fit in a local 2D frame)."""
    P = np.asarray(points, dtype=float)
    c0 = P.mean(axis=0)
    Q = P - c0
    _, _, vt = np.linalg.svd(Q, full_matrices=False)
    e1, e2 = vt[0], vt[1]
    x, y = Q @ e1, Q @ e2
    A = np.stack([x, y, np.ones_like(x)], axis=1)
    b = x**2 + y**2
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy = sol[0] / 2.0, sol[1] / 2.0
    r = math.sqrt(sol[2] + cx**2 + cy**2)
    center = c0 + cx * e1 + cy * e2
    return center, float(r)
