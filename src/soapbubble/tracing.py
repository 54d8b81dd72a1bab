"""Plane-section tracing of implicit surfaces in R^3 and discrete curvature
of the traced curves.

The tracer is a predictor-corrector continuation on the two constraints
(on the surface, on the plane): predict along the cross product of the two
constraint gradients, correct by Newton on the 2x3 system, with the step
adapted to the local turning angle. The corrector `_correct` works on rows:
each Newton step solves the 2x2 Gram system of the two gradients in closed
form for every row still moving, and a row stops once both residuals are
below `ftol`, so a row lands where it would alone. The seed and each march
step correct one row; the arclength resample of a closed trace corrects all
its points in one call. Curvature along a trace comes from the
circumscribed circle of consecutive point triples, which is exact on
circles regardless of step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import row_dots, unit


class TracingError(Exception):
    pass


class TangentialSliceError(TracingError):
    """The plane meets the surface non-transversally (grazing contact)."""


@dataclass
class Trace:
    points: np.ndarray   # (m, 3), closed loop (no repeated endpoint)
    closed: bool
    step: float


def _correct(phi, grad, omega, level, P, iters=30, ftol=1e-13):
    """Newton-correct each row of P (m, 3) onto {phi = 0, x . omega = level}.

    A step moves a row by J^T lam with J = [grad phi; omega], where lam
    solves the Gram system [[g.g, g.omega], [g.omega, omega.omega]] lam = -f
    by Cramer's rule. A row stops once max(|phi|, |x . omega - level|) <
    ftol, so its result does not depend on the other rows.
    """
    P = np.array(P, dtype=float)
    live = np.arange(P.shape[0])
    ww = float(omega @ omega)
    for _ in range(iters):
        X = P[live]
        f0 = np.asarray(phi(X), dtype=float)
        f1 = row_dots(X, omega) - level
        moving = ~(np.maximum(np.abs(f0), np.abs(f1)) < ftol)
        if not moving.any():
            break
        live, X, f0, f1 = live[moving], X[moving], f0[moving], f1[moving]
        g = np.asarray(grad(X), dtype=float)
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
    return P


def _cross(a, b):
    """Cross product along the last axis, rounded as numpy's cross rounds it; for
    2-vectors, its one out-of-plane component."""
    if a.shape[-1] == 2:
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def trace_plane_section(
    phi,
    grad,
    omega: np.ndarray,
    level: float,
    seed_point: np.ndarray,
    step: float = 0.02,
    max_steps: int = 200000,
) -> Trace:
    """Trace the closed intersection curve of {phi = 0} with the hyperplane
    {x . omega = level}, starting near seed_point."""
    omega = unit(np.asarray(omega, dtype=float))
    p0 = _correct(phi, grad, omega, level, np.asarray(seed_point, dtype=float)[None])[0]
    if abs(float(phi(p0))) > 1e-9 or abs(float(p0 @ omega - level)) > 1e-9:
        raise TracingError("could not land the seed on the section")

    def tangent(p):
        g = np.asarray(grad(p), dtype=float)
        t = _cross(g, omega)
        n = np.linalg.norm(t)
        if n < 1e-12 * max(np.linalg.norm(g), 1.0):
            raise TangentialSliceError(f"tangential slice at {p}")
        return t / n

    pts = [p0]
    t_prev = tangent(p0)
    h = step
    travelled = 0.0
    for _ in range(max_steps):
        p = pts[-1]
        cand = _correct(phi, grad, omega, level, (p + h * t_prev)[None])[0]
        t_new = tangent(cand)
        turn = math.acos(float(np.clip(t_prev @ t_new, -1.0, 1.0)))
        if turn > 0.35 and h > step / 64.0:
            h *= 0.5
            continue
        pts.append(cand)
        travelled += float(np.linalg.norm(cand - p))
        t_prev = t_new
        if turn < 0.08 and h < step:
            h = min(step, 2.0 * h)
        if len(pts) > 8 and np.linalg.norm(cand - p0) < 1.2 * h and travelled > 6.0 * step:
            points = _resample_closed(np.array(pts), phi, grad, omega, level, step)
            return Trace(points=points, closed=True, step=step)
    raise TracingError("section did not close within the step budget")


def _resample_closed(pts, phi, grad, omega, level, step):
    """Even out the arclength spacing of a closed trace (the closing seam is
    irregular otherwise, which degrades discrete curvature there) and land
    every resampled point back on the section."""
    closed = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    count = max(8, int(round(total / step)))
    targets = np.linspace(0.0, total, count, endpoint=False)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    rough = closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])
    return _correct(phi, grad, omega, level, rough)


def curve_curvatures(points: np.ndarray, closed: bool = True) -> np.ndarray:
    """Unsigned curvature at each point from the circumscribed circle of
    (previous, here, next); exact on circles."""
    P = np.asarray(points, dtype=float)
    a = np.roll(P, 1, axis=0)
    c = np.roll(P, -1, axis=0)
    ab = P - a
    bc = c - P
    ac = c - a
    cross = _cross(ab, bc)
    cross_norm = np.linalg.norm(cross, axis=-1) if cross.ndim > 1 else np.abs(cross)
    denom = (
        np.linalg.norm(ab, axis=-1) * np.linalg.norm(bc, axis=-1) * np.linalg.norm(ac, axis=-1)
    )
    kappa = 2.0 * cross_norm / np.where(denom > 1e-300, denom, 1.0)
    if not closed:
        kappa[0] = kappa[1]
        kappa[-1] = kappa[-2]
    return kappa


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
