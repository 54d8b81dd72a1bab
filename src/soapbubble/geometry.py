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
    one-row case (`tangent_frames` rounds differently).
    """
    w = np.asarray(normal, dtype=float)
    if w.ndim == 1:
        return tangent_frame(w[None])[0]
    norms = _dot_norms(w)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise ValueError("cannot normalize zero or non-finite vector")
    return _householder_frames(w / norms[:, None], _dot_norms)


def tangent_frames(normals: np.ndarray) -> np.ndarray:
    """Batched tangent_frame: (m, d) unit normals -> (m, d-1, d) row frames."""
    return _householder_frames(
        np.asarray(normals, dtype=float), lambda v: np.linalg.norm(v, axis=1)
    )


def _dot_norms(v: np.ndarray) -> np.ndarray:
    """Row norms rounded as the one-vector `np.linalg.norm` rounds them."""
    return np.sqrt(row_dots(v, v))


def _householder_frames(w: np.ndarray, row_norms) -> np.ndarray:
    """Tangent frames of rows of unit normals; `row_norms` takes the norms."""
    d = w.shape[1]
    sign = np.where(w[:, -1] >= 0.0, 1.0, -1.0)
    v = w.copy()
    v[:, -1] += sign
    v /= row_norms(v)[:, None]
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
