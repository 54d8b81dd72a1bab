"""Small vector and frame helpers shared across the package."""

from __future__ import annotations

import numpy as np


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector; raises on zero input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite vector")
    return v / n


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of `a` with `b` (one vector or matching rows).

    Each row is rounded exactly as the 1-D `a[i] @ b[i]` is, so batched code
    reproduces per-point code bit for bit (a plain `a @ b` does not).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # matmul broadcasts one vector itself, with far less call overhead
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def tangent_frame(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to `normal`.

    Returns an (d-1, d) array of row vectors where d = len(normal).
    Built from a Householder reflection, so the result is deterministic.
    Rows of normals (m, d) give (m, d-1, d) frames; one normal is the
    one-row case.
    """
    w = np.asarray(normal, dtype=float)
    if w.ndim == 1:
        return tangent_frame(w[None])[0]
    # row norms rounded as the one-vector `np.linalg.norm` rounds them
    norms = np.sqrt(row_dots(w, w))
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise ValueError("cannot normalize zero or non-finite vector")
    d = w.shape[1]
    v = w / norms[:, None]
    v[:, -1] += np.where(v[:, -1] >= 0.0, 1.0, -1.0)
    v /= np.sqrt(row_dots(v, v))[:, None]
    house = np.eye(d)[None, :, :] - 2.0 * v[:, :, None] * v[:, None, :]
    return np.swapaxes(house[:, :, : d - 1], 1, 2)


def resample_polyline(points: np.ndarray, targets_of) -> tuple[np.ndarray, np.ndarray]:
    """Points at arclength positions along the polyline `points` (m, d),
    and the positions: `targets_of(total)` picks them from the polyline's
    length. Each point interpolates the segment that holds its position; a
    polyline of length zero gives its first point at every position."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.asarray(targets_of(float(cum[-1])), dtype=float)
    if cum[-1] == 0.0:
        return np.repeat(points[:1], targets.size, axis=0), targets
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, seg.size - 1)
    frac = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return points[idx] + frac[:, None] * (points[idx + 1] - points[idx]), targets


def reflect(xi: np.ndarray, omega: np.ndarray, level: float) -> np.ndarray:
    """Mirror point(s) about the hyperplane {x . omega = level}.

    Accepts a single point (d,) or a batch (m, d); an involution that fixes
    the hyperplane pointwise.
    """
    xi = np.asarray(xi, dtype=float)
    omega = np.asarray(omega, dtype=float)
    h = xi @ omega - level
    return xi - 2.0 * np.multiply.outer(h, omega)
