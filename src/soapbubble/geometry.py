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


def tangent_frame(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to `normal`.

    Returns an (d-1, d) array of row vectors where d = len(normal).
    Built from a Householder reflection, so the result is deterministic.
    """
    w = unit(normal)
    d = w.shape[0]
    sign = 1.0 if w[-1] >= 0.0 else -1.0
    v = w.copy()
    v[-1] += sign
    v /= np.linalg.norm(v)
    house = np.eye(d) - 2.0 * np.outer(v, v)
    # column d-1 of `house` is -sign*w; the remaining columns span normal^perp
    return house[:, : d - 1].T


def tangent_frames(normals: np.ndarray) -> np.ndarray:
    """Batched tangent_frame: (m, d) unit normals -> (m, d-1, d) row frames."""
    w = np.asarray(normals, dtype=float)
    m, d = w.shape
    sign = np.where(w[:, -1] >= 0.0, 1.0, -1.0)
    v = w.copy()
    v[:, -1] += sign
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    house = np.eye(d)[None, :, :] - 2.0 * v[:, :, None] * v[:, None, :]
    return np.swapaxes(house[:, :, : d - 1], 1, 2)


def reflect(xi: np.ndarray, omega: np.ndarray, level: float) -> np.ndarray:
    """Mirror point(s) about the hyperplane {x . omega = level}.

    Accepts a single point (d,) or a batch (m, d); an involution that fixes
    the hyperplane pointwise.
    """
    xi = np.asarray(xi, dtype=float)
    omega = np.asarray(omega, dtype=float)
    h = xi @ omega - level
    return xi - 2.0 * np.multiply.outer(h, omega)
