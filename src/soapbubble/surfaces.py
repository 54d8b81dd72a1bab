"""Closed-hypersurface representations and pointwise differential geometry.

Supported ambient spaces are R^2 (closed curves, n = 1) and R^3 (closed
surfaces, n = 2); most code is dimension generic. Every surface is oriented
by the inner normal, so a sphere of radius R has mean curvature H = +1/R,
and the graph height equation div(grad u / sqrt(1 + |grad u|^2)) = n*H holds
with this sign when u is measured along the inner normal. Signed distance
is positive strictly inside the enclosed domain, zero on the surface and
negative outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import tangent_frame, tangent_frames, unit


class SurfaceError(Exception):
    """Base class for surface evaluation failures."""


class ProjectionError(SurfaceError):
    """Nearest-point projection onto the surface did not converge."""


class PatchBracketError(SurfaceError):
    """Graph-height root left the touching-ball bracket.

    Signals that the requested patch radius is too large or that the
    touching radius estimate is optimistic.
    """


class OrientationError(SurfaceError):
    """Point cloud ships inconsistently oriented normals."""


class SparseNeighborhoodError(SurfaceError):
    """Point-cloud neighborhood too sparse for a quadric fit."""


@dataclass(frozen=True)
class SurfaceSample:
    """A surface point with inner normal and curvature data.

    principal_curvatures are sorted ascending; mean_curvature is their
    average (units 1/length).
    """

    point: np.ndarray
    inner_normal: np.ndarray
    principal_curvatures: np.ndarray
    mean_curvature: float


@dataclass(frozen=True)
class OscReport:
    min_h: float
    max_h: float
    osc: float
    argmin: np.ndarray
    argmax: np.ndarray
    sample_count: int
    refined: bool
    resolution_hint: float

    def to_dict(self) -> dict:
        return {
            "min_h": self.min_h,
            "max_h": self.max_h,
            "osc": self.osc,
            "argmin": self.argmin.tolist(),
            "argmax": self.argmax.tolist(),
            "sample_count": self.sample_count,
            "refined": self.refined,
            "resolution_hint": self.resolution_hint,
        }


class Surface:
    """Abstract closed embedded hypersurface in R^(n+1).

    Subclasses provide a smooth level function `implicit` that is positive
    inside, zero on the surface and negative outside, together with its
    first two derivatives, plus nearest-point projection and on-surface
    sampling. Everything is read-only after construction.
    """

    dim: int  # ambient dimension n+1

    @property
    def n(self) -> int:
        return self.dim - 1

    # --- level function interface (batched: accepts (m, d) or (d,)) ---

    def implicit(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def implicit_grad(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def implicit_hess(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # --- projection / distance ---

    def project(self, pts: np.ndarray) -> np.ndarray:
        """Nearest point(s) on the surface."""
        raise NotImplementedError

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        near = self.project(P)
        d = np.linalg.norm(P - near, axis=1)
        sd = np.where(self.implicit(P) >= 0.0, d, -d)
        return float(sd[0]) if single else sd

    # --- sampling ---

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def probe_points(self, budget: int, seed: int = 0) -> np.ndarray:
        """Deterministic cached sample set used by batch operations."""
        key = (int(budget), int(seed))
        cache = getattr(self, "_probe_cache", None)
        if cache is None:
            cache = {}
            self._probe_cache = cache
        if key not in cache:
            rng = np.random.default_rng(seed)
            cache[key] = self.sample_points(budget, rng)
        return cache[key]

    # --- area ---

    def area_estimate(self) -> tuple[float, float]:
        """(area, relative error estimate); cached."""
        raise NotImplementedError

    def bounding_radius(self) -> float:
        """Radius of a ball around the coordinate mean containing the surface."""
        pts = self.probe_points(512, seed=0)
        c = pts.mean(axis=0)
        return float(np.linalg.norm(pts - c, axis=1).max())

    def diameter_hint(self) -> float:
        return 2.0 * self.bounding_radius()

    # --- pointwise differential geometry from the level function ---

    def curvature_at(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inner normal, ascending principal curvatures) at a surface point."""
        g = self.implicit_grad(p)
        gn = float(np.linalg.norm(g))
        nu = g / gn
        frame = tangent_frame(nu)
        hess = self.implicit_hess(p)
        shape_op = -(frame @ hess @ frame.T) / gn
        kappas = np.sort(np.linalg.eigvalsh(shape_op))
        return nu, kappas

    def curvatures_batch(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched curvature_at: (m,d) points -> normals (m,d), kappas (m,n)."""
        P = np.atleast_2d(np.asarray(pts, dtype=float))
        g = self.implicit_grad(P)
        gn = np.linalg.norm(g, axis=1)
        nus = g / gn[:, None]
        frames = tangent_frames(nus)  # (m, n, d)
        hess = self.implicit_hess(P)  # (m, d, d)
        shape_ops = -np.einsum("mid,mde,mje->mij", frames, hess, frames) / gn[:, None, None]
        kappas = np.sort(np.linalg.eigvalsh(shape_ops), axis=1)
        return nus, kappas


# ---------------------------------------------------------------------------
# analytic variants


class Sphere(Surface):
    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.shape[0]

    # R - |xi - c| is the exact signed distance
    def implicit(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        v = self.radius - np.linalg.norm(P - self.center, axis=1)
        return float(v[0]) if single else v

    def implicit_grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        u = P - self.center
        g = -u / np.linalg.norm(u, axis=1, keepdims=True)
        return g[0] if single else g

    def implicit_hess(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        u = P - self.center
        r = np.linalg.norm(u, axis=1)
        uhat = u / r[:, None]
        eye = np.eye(self.dim)
        h = -(eye[None] - uhat[:, :, None] * uhat[:, None, :]) / r[:, None, None]
        return h[0] if single else h

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        u = P - self.center
        r = np.linalg.norm(u, axis=1, keepdims=True)
        bad = r[:, 0] < 1e-300
        if np.any(bad):
            u = u.copy()
            u[bad] = 0.0
            u[bad, 0] = 1.0
            r = np.linalg.norm(u, axis=1, keepdims=True)
        q = self.center + self.radius * u / r
        return q[0] if single else q

    def signed_distance(self, pts):
        return self.implicit(pts)

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return self.center + self.radius * u

    def area_estimate(self):
        if self.dim == 2:
            return 2.0 * math.pi * self.radius, 0.0
        if self.dim == 3:
            return 4.0 * math.pi * self.radius**2, 0.0
        # measure of the (d-1)-sphere of radius R
        d = self.dim
        a = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) * self.radius ** (d - 1)
        return a, 0.0

    def bounding_radius(self):
        return self.radius

    def curvature_at(self, p):
        nu = unit(self.center - np.asarray(p, dtype=float))
        k = np.full(self.n, 1.0 / self.radius)
        return nu, k

    def curvatures_batch(self, pts):
        P = np.atleast_2d(np.asarray(pts, dtype=float))
        nus = self.center - P
        nus /= np.linalg.norm(nus, axis=1, keepdims=True)
        k = np.full((P.shape[0], self.n), 1.0 / self.radius)
        return nus, k


class Ellipsoid(Surface):
    """Axis-aligned ellipsoid sum((x_i/a_i)^2) = 1 centered at the origin."""

    def __init__(self, semi_axes):
        self.semi_axes = np.asarray(semi_axes, dtype=float)
        if np.any(self.semi_axes <= 0):
            raise ValueError("semi-axes must be positive")
        self.dim = self.semi_axes.shape[0]
        self._a2 = self.semi_axes**2

    def implicit(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        v = 1.0 - np.sum(P**2 / self._a2, axis=1)
        return float(v[0]) if single else v

    def implicit_grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        g = -2.0 * P / self._a2
        return g[0] if single else g

    def implicit_hess(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        h = np.broadcast_to(np.diag(-2.0 / self._a2), (P.shape[0], self.dim, self.dim)).copy()
        return h[0] if single else h

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        out = _ellipsoid_nearest(P, self.semi_axes)
        return out[0] if single else out

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u * self.semi_axes

    def area_estimate(self):
        cached = getattr(self, "_area_cache", None)
        if cached is None:
            coarse = _ellipsoid_area_quadrature(self.semi_axes, 128)
            fine = _ellipsoid_area_quadrature(self.semi_axes, 256)
            rel = abs(fine - coarse) / fine if fine else 0.0
            cached = (fine, rel)
            self._area_cache = cached
        return cached

    def bounding_radius(self):
        return float(self.semi_axes.max())

    def support(self, omega: np.ndarray) -> float:
        """Support function h(omega) = max_{p in S} p . omega."""
        omega = np.asarray(omega, dtype=float)
        return float(np.sqrt(np.sum(self._a2 * omega**2)))


def _ellipsoid_nearest(P: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Nearest points on sum((x_i/a_i)^2)=1, batched over the rows of P.

    The nearest point is q_i = a_i^2 xi_i / (t + a_i^2) at the largest root
    of sum((a_i xi_i / (t + a_i^2))^2) = 1. Coordinates with |xi_i| < 1e-14
    are zeroed and drop out of the sum. The root is solved in the shifted
    variable s = t + min a_i^2 over the remaining (active) coordinates, so a
    tiny coordinate along the shortest active axis loses nothing to
    cancellation. With w_i = (a_i xi_i)^2 and c_i = a_i^2 - min a_i^2 the
    solve takes Newton steps on phi(s)^(-1/2) - 1, phi = sum(w_i/(s+c_i)^2),
    which is exact when one term dominates, and bisects whenever a step
    leaves the bracket [max(a_i|xi_i| - c_i), sqrt(sum w)]. A row stops once
    it has converged, so its result does not depend on the batch.

    A zeroed coordinate may come off its axis: the ring candidates of the
    standard case split compete on distance. Rows with no active coordinate
    (the centre) go to the shortest axis.
    """
    P = np.asarray(P, dtype=float)
    a2 = a**2
    act = np.abs(P) >= 1e-14
    live = act.any(axis=1)
    w = np.where(act, (a * P) ** 2, 0.0)
    c = np.where(act, a2 - np.where(act, a2, np.inf).min(axis=1, keepdims=True), np.inf)
    # phi >= 1 at the largest one-term root, phi <= 1 at sqrt(sum w)
    s = np.where(act, a * np.abs(P) - c, 0.0).max(axis=1)
    lo, hi = s.copy(), np.sqrt(w.sum(axis=1))
    todo = np.nonzero(live)[0]
    for _ in range(200):  # a few to a few dozen steps in practice
        if todo.size == 0:
            break
        st, d = s[todo], s[todo, None] + c[todo]
        r = w[todo] / (d * d)
        phi = r.sum(axis=1)
        sq = np.sqrt(phi)
        lt, ht = np.where(phi >= 1.0, st, lo[todo]), np.where(phi <= 1.0, st, hi[todo])
        lo[todo], hi[todo] = lt, ht
        new = st + phi * (sq - 1.0) / (r / d).sum(axis=1)
        ok = np.abs(sq - 1.0) <= 1e-15  # at the rounding floor of phi
        new = np.where((new >= lt) & (new <= ht), new, np.where(ok, st, 0.5 * (lt + ht)))
        s[todo] = new
        todo = todo[~(ok | (np.abs(new - st) <= 1e-15 * new))]
    out = np.where(act, a2 * P / (s[:, None] + c), 0.0)
    out[~live, np.argmin(a)] = a.min()
    best_d2 = ((out - P) ** 2).sum(axis=1)
    # ring candidates: a zeroed coordinate j comes off its axis
    for j in np.nonzero((~act).any(axis=0))[0]:
        rows = np.nonzero(~act[:, j] & live)[0]
        Pr, ar = P[rows], act[rows]
        tiny = np.abs(a2 - a2[j]) < 1e-30
        denom = np.where(ar & ~tiny, a2 - a2[j], 1.0)
        e2 = (np.where(ar, a * Pr / denom, 0.0) ** 2).sum(axis=1)
        cand = np.where(ar, a2 * Pr / denom, 0.0)
        cand[:, j] = a[j] * np.sqrt(np.maximum(1.0 - e2, 0.0))
        d2 = ((cand - Pr) ** 2).sum(axis=1)
        take = ~(ar & tiny).any(axis=1) & (e2 < 1.0) & (d2 < best_d2[rows])
        out[rows[take]], best_d2[rows[take]] = cand[take], d2[take]
    return out


def _ellipsoid_area_quadrature(a: np.ndarray, res: int) -> float:
    d = a.shape[0]
    if d == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 16 * res, endpoint=False)
        dx = -a[0] * np.sin(th)
        dy = a[1] * np.cos(th)
        speed = np.hypot(dx, dy)
        return float(speed.mean() * 2.0 * math.pi)
    if d == 3:
        # Gauss-Legendre in the polar angle, trapezoid in azimuth
        xg, wg = np.polynomial.legendre.leggauss(res)
        th = np.arccos(xg)  # nodes in cos(theta)
        ph = np.linspace(0.0, 2.0 * math.pi, 2 * res, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        st, ct = np.sin(TH), np.cos(TH)
        cp, sp = np.cos(PH), np.sin(PH)
        xu = np.stack([a[0] * ct * cp, a[1] * ct * sp, -a[2] * st], axis=-1)
        xv = np.stack([-a[0] * st * sp, a[1] * st * cp, np.zeros_like(st)], axis=-1)
        cross = np.cross(xu, xv)
        # d(cos th) substitution: element = |xu x xv| dth dph = (.../sin th) dcos dph
        integrand = np.linalg.norm(cross, axis=-1) / np.where(st > 1e-300, st, 1.0)
        return float((integrand * wg[:, None]).sum() * (2.0 * math.pi / ph.size))
    raise NotImplementedError("area quadrature implemented for R^2 and R^3")


class HarmonicRadial(Surface):
    """Star-shaped surface r(u)*u with r given by a finite harmonic table.

    Entries are (l, m, coeff). In R^3 the basis is the real orthonormal
    spherical harmonics (Condon-Shortley phase); in R^2 plain Fourier terms:
    m >= 0 means cos(l*theta), m < 0 means sin(l*theta). The radial function
    is r = base_radius + sum(coeff * basis) and must stay positive.
    The level function, gradient and Hessian are generated symbolically at
    construction, so curvatures are exact.
    """

    def __init__(self, coeffs, base_radius: float = 1.0, dim: int = 3):
        import sympy as sp

        if dim not in (2, 3):
            raise ValueError("radial surfaces supported in R^2 and R^3 only")
        self.dim = dim
        self.base_radius = float(base_radius)
        self.coeffs = [(int(l), int(m), float(v)) for (l, m, v) in coeffs]

        xs = sp.symbols(f"x0:{dim}", real=True)
        rho = sp.sqrt(sum(x**2 for x in xs))
        us = [x / rho for x in xs]
        r_expr = sp.Float(self.base_radius)
        for l, m, v in self.coeffs:
            r_expr += v * _harmonic_basis_expr(sp, us, l, m, dim)
        phi = r_expr - rho

        grad = [sp.diff(phi, x) for x in xs]
        hess = [[sp.diff(g, x) for x in xs] for g in grad]
        mods = ["numpy"]
        self._phi_fn = sp.lambdify(xs, phi, mods)
        self._grad_fns = [sp.lambdify(xs, g, mods) for g in grad]
        self._hess_fns = [[sp.lambdify(xs, h, mods) for h in row] for row in hess]
        self._r_fn = sp.lambdify(xs, r_expr, mods)

        self._r_min, self._r_max = self._radial_range()
        if self._r_min <= 1e-3:
            raise ValueError(f"radial function reaches {self._r_min:.4g}; must stay positive")

    def _radial_range(self) -> tuple[float, float]:
        rng = np.random.default_rng(12345)
        u = rng.standard_normal((4096, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = self.radial(u)
        return float(r.min()), float(r.max())

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        cols = [dirs[:, i] for i in range(self.dim)]
        return np.broadcast_to(np.asarray(self._r_fn(*cols), dtype=float), (dirs.shape[0],)).copy()

    def implicit(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        cols = [P[:, i] for i in range(self.dim)]
        v = np.broadcast_to(np.asarray(self._phi_fn(*cols), dtype=float), (P.shape[0],)).copy()
        return float(v[0]) if single else v

    def implicit_grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        cols = [P[:, i] for i in range(self.dim)]
        g = np.stack(
            [np.broadcast_to(np.asarray(f(*cols), dtype=float), (P.shape[0],)) for f in self._grad_fns],
            axis=1,
        )
        return g[0] if single else g

    def implicit_hess(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        cols = [P[:, i] for i in range(self.dim)]
        m = P.shape[0]
        h = np.empty((m, self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                h[:, i, j] = np.broadcast_to(np.asarray(self._hess_fns[i][j](*cols), dtype=float), (m,))
        return h[0] if single else h

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        out = _project_newton(self, P, seeds=self._projection_seeds(P))
        return out[0] if single else out

    def _projection_seeds(self, P: np.ndarray) -> np.ndarray:
        # seed from the nearest point of a cached dense sampling so Newton
        # refines the global nearest branch, not just a stationary one
        cache = getattr(self, "_seed_cache", None)
        if cache is None:
            rng = np.random.default_rng(99)
            count = 16384 if self.dim == 3 else 2048
            u = rng.standard_normal((count, self.dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            dense = u * self.radial(u)[:, None]
            cache = (dense, cKDTree(dense))
            self._seed_cache = cache
        dense, tree = cache
        _, idx = tree.query(P)
        return dense[idx]

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u * self.radial(u)[:, None]

    def area_estimate(self):
        cached = getattr(self, "_area_cache", None)
        if cached is None:
            coarse = self._area_quadrature(128)
            fine = self._area_quadrature(256)
            rel = abs(fine - coarse) / fine if fine else 0.0
            cached = (fine, rel)
            self._area_cache = cached
        return cached

    def _area_quadrature(self, res: int) -> float:
        # dA = r^(n-1) * sqrt(r^2 + |grad_S r|^2) dsigma over unit directions;
        # grad_S r equals the ambient gradient of the degree-0 extension at |u|=1
        if self.dim == 2:
            th = np.linspace(0.0, 2.0 * math.pi, 16 * res, endpoint=False)
            u = np.stack([np.cos(th), np.sin(th)], axis=1)
            r = self.radial(u)
            gs = self.implicit_grad(u) + u  # grad(rtilde) = grad(phi) + grad(rho)
            integrand = np.sqrt(r**2 + np.sum(gs**2, axis=1))
            return float(integrand.mean() * 2.0 * math.pi)
        xg, wg = np.polynomial.legendre.leggauss(res)
        th = np.arccos(xg)
        ph = np.linspace(0.0, 2.0 * math.pi, 2 * res, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        u = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
        flat = u.reshape(-1, 3)
        r = self.radial(flat)
        gs = self.implicit_grad(flat) + flat
        integrand = (r * np.sqrt(r**2 + np.sum(gs**2, axis=1))).reshape(TH.shape)
        return float((integrand * wg[:, None]).sum() * (2.0 * math.pi / ph.size))

    def bounding_radius(self):
        return self._r_max


def _harmonic_basis_expr(sp, us, l: int, m: int, dim: int):
    """Polynomial form of one basis function evaluated on unit directions."""
    if l < 0:
        raise ValueError("degree l must be non-negative")
    if dim == 2:
        ux, uy = us
        if l == 0:
            return sp.Integer(1)
        zpow = sp.expand((ux + sp.I * uy) ** l)
        re, im = zpow.as_real_imag()
        return re if m >= 0 else im
    ux, uy, uz = us
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    t = sp.Symbol("_t", real=True)
    if m == 0:
        norm = sp.sqrt((2 * l + 1) / (4 * sp.pi))
        return norm * sp.legendre(l, t).subs(t, uz)
    ma = abs(m)
    dleg = sp.diff(sp.legendre(l, t), t, ma).subs(t, uz)
    norm = sp.sqrt(2) * sp.sqrt(
        (2 * l + 1) / (4 * sp.pi) * sp.factorial(l - ma) / sp.factorial(l + ma)
    )
    zpow = sp.expand((ux + sp.I * uy) ** ma)
    re, im = zpow.as_real_imag()
    azim = re if m > 0 else im
    return (-1) ** ma * norm * dleg * azim


def _project_newton(
    surface: Surface,
    P: np.ndarray,
    seeds: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 80,
) -> np.ndarray:
    """Damped Newton on the nearest-point stationarity system, seeded from
    supplied on-surface guesses (or a radial cast), with multistart fallback."""
    P = np.asarray(P, dtype=float)
    m, d = P.shape

    def seed_for(Q, jitter=None):
        u = Q.copy()
        nrm = np.linalg.norm(u, axis=1, keepdims=True)
        tiny = nrm[:, 0] < 1e-12
        if tiny.any():
            u[tiny] = 0.0
            u[tiny, 0] = 1.0
            nrm = np.linalg.norm(u, axis=1, keepdims=True)
        u = u / nrm
        if jitter is not None:
            u = u + jitter
            u /= np.linalg.norm(u, axis=1, keepdims=True)
        if isinstance(surface, HarmonicRadial):
            return u * surface.radial(u)[:, None]
        return surface.project(u * surface.bounding_radius())  # pragma: no cover

    def run(x0, targets):
        k = targets.shape[0]
        x = x0.copy()
        g = surface.implicit_grad(x)
        lam = np.einsum("md,md->m", x - targets, g) / np.maximum(
            np.einsum("md,md->m", g, g), 1e-300
        )
        active = np.ones(k, dtype=bool)
        for _ in range(max_iter):
            g = surface.implicit_grad(x)
            h = surface.implicit_hess(x)
            phi = np.atleast_1d(surface.implicit(x))
            F1 = x - targets - lam[:, None] * g
            res = np.maximum(np.abs(F1).max(axis=1), np.abs(phi))
            active = res > tol
            if not active.any():
                break
            J = np.zeros((k, d + 1, d + 1))
            J[:, :d, :d] = np.eye(d)[None] - lam[:, None, None] * h
            J[:, :d, d] = -g
            J[:, d, :d] = g
            F = np.concatenate([F1, phi[:, None]], axis=1)
            try:
                step = np.linalg.solve(J[active], -F[active][:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                return x, np.zeros(k, dtype=bool) | ~active
            # backtracking on the residual norm
            t = np.ones(int(active.sum()))
            xa, la = x[active], lam[active]
            base = np.abs(F[active]).max(axis=1)
            for _ in range(10):
                xn = xa + t[:, None] * step[:, :d]
                ln = la + t * step[:, d]
                gn = surface.implicit_grad(xn)
                phin = np.atleast_1d(surface.implicit(xn))
                Fn = np.concatenate(
                    [xn - targets[active] - ln[:, None] * gn, phin[:, None]], axis=1
                )
                worse = np.abs(Fn).max(axis=1) > base
                if not worse.any():
                    break
                t = np.where(worse, 0.5 * t, t)
            x[active] = xa + t[:, None] * step[:, :d]
            lam[active] = la + t * step[:, d]
        g = surface.implicit_grad(x)
        phi = np.atleast_1d(surface.implicit(x))
        ok = (np.abs(x - targets - lam[:, None] * g).max(axis=1) <= 1e-8) & (
            np.abs(phi) <= 1e-10
        )
        return x, ok

    x, ok = run(seeds if seeds is not None else seed_for(P), P)
    if not ok.all():
        rng = np.random.default_rng(7)
        for _ in range(4):
            bad = ~ok
            jitter = 0.35 * rng.standard_normal((int(bad.sum()), d))
            xb, okb = run(seed_for(P[bad], jitter), P[bad])
            x[bad] = np.where(okb[:, None], xb, x[bad])
            ok[bad] |= okb
            if ok.all():
                break
    if not ok.all():
        raise ProjectionError(f"projection failed for {int((~ok).sum())} of {m} points")
    return x


# ---------------------------------------------------------------------------
# sampled variant


class PointCloud(Surface):
    """Surface known through samples with inward normals.

    Curvatures come from a local quadric fit over k nearest neighbors;
    signed distance is the distance to the nearest sample, signed by its
    normal. A consistency pass rejects clouds with mixed inner/outer
    orientation.
    """

    def __init__(self, points: np.ndarray, normals: np.ndarray, k: int = 20):
        self.points = np.asarray(points, dtype=float)
        normals = np.asarray(normals, dtype=float)
        if self.points.shape != normals.shape:
            raise ValueError("points and normals must have matching shapes")
        self.dim = self.points.shape[1]
        if self.dim not in (2, 3):
            raise ValueError("point clouds supported in R^2 and R^3 only")
        self.normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        self.k = int(k)
        if self.points.shape[0] < self.k + 1:
            raise SparseNeighborhoodError("cloud smaller than one quadric-fit neighborhood")
        self.tree = cKDTree(self.points)
        self._check_orientation()
        self._fit_cache: dict[int, SurfaceSample] = {}

    def _check_orientation(self):
        kk = min(self.k + 1, self.points.shape[0])
        _, idx = self.tree.query(self.points, k=kk)
        dots = np.einsum("md,mkd->mk", self.normals, self.normals[idx[:, 1:]])
        consensus = (dots > 0).mean(axis=1)
        if consensus.min() < 0.55:
            raise OrientationError(
                "inner/outer normals are mixed (worst local agreement "
                f"{consensus.min():.2f}); reorient the cloud"
            )

    def implicit(self, pts):
        return self.signed_distance(pts)

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        dist, idx = self.tree.query(P)
        side = np.einsum("md,md->m", P - self.points[idx], self.normals[idx])
        sd = np.where(side >= 0.0, dist, -dist)
        return float(sd[0]) if single else sd

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        _, idx = self.tree.query(P)
        out = self.points[idx]
        return out[0] if single else out

    def nearest_index(self, xi) -> int:
        _, idx = self.tree.query(np.asarray(xi, dtype=float))
        return int(idx)

    def sample_points(self, count, rng):
        count = min(count, self.points.shape[0])
        idx = rng.choice(self.points.shape[0], size=count, replace=False)
        return self.points[np.sort(idx)]

    def fit_sample(self, index: int) -> SurfaceSample:
        if index in self._fit_cache:
            return self._fit_cache[index]
        kk = min(self.k + 1, self.points.shape[0])
        _, idx = self.tree.query(self.points[index], k=kk)
        p = self.points[index]
        nu = self.normals[index]
        frame = tangent_frame(nu)
        offs = self.points[idx[1:]] - p
        x = offs @ frame.T  # (k, n)
        h = offs @ nu
        n = self.dim - 1
        # design matrix: [1, x_i, x_i*x_j upper triangle]
        cols = [np.ones(len(h))]
        cols += [x[:, i] for i in range(n)]
        quad_index = [(i, j) for i in range(n) for j in range(i, n)]
        cols += [x[:, i] * x[:, j] for (i, j) in quad_index]
        A = np.stack(cols, axis=1)
        if A.shape[0] < A.shape[1]:
            raise SparseNeighborhoodError(f"only {A.shape[0]} neighbors for {A.shape[1]} quadric terms")
        coef, *_ = np.linalg.lstsq(A, h, rcond=None)
        b = coef[1 : 1 + n]
        Q = np.zeros((n, n))
        for c, (i, j) in zip(coef[1 + n :], quad_index):
            if i == j:
                Q[i, i] = 2.0 * c
            else:
                Q[i, j] = Q[j, i] = c
        # Weingarten map of a height graph along the inner normal
        G = np.eye(n) + np.outer(b, b)
        evals, evecs = np.linalg.eigh(G)
        G_isqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
        W = G_isqrt @ (Q / math.sqrt(1.0 + float(b @ b))) @ G_isqrt
        kappas = np.sort(np.linalg.eigvalsh(W))
        sample = SurfaceSample(p.copy(), nu.copy(), kappas, float(kappas.mean()))
        self._fit_cache[index] = sample
        return sample

    def area_estimate(self):
        cached = getattr(self, "_area_cache", None)
        if cached is not None:
            return cached
        total = 0.0
        if self.dim == 2:
            kk = min(8, self.points.shape[0])
            _, idx = self.tree.query(self.points, k=kk)
            for i in range(self.points.shape[0]):
                nu = self.normals[i]
                frame = tangent_frame(nu)
                t = (self.points[idx[i, 1:]] - self.points[i]) @ frame[0]
                left = t[t < 0]
                right = t[t > 0]
                if len(left) and len(right):
                    total += 0.5 * (right.min() - left.max())
            cached = (total, 0.05)
        else:
            kk = min(self.k + 1, self.points.shape[0])
            _, idx = self.tree.query(self.points, k=kk)
            for i in range(self.points.shape[0]):
                frame = tangent_frame(self.normals[i])
                x = (self.points[idx[i, 1:]] - self.points[i]) @ frame.T
                total += _voronoi_cell_area(x)
            cached = (total, 0.05)
        self._area_cache = cached
        return cached

    def component_labels(self) -> np.ndarray:
        """Connected components of the k-NN adjacency of the raw points."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        kk = min(self.k + 1, self.points.shape[0])
        _, idx = self.tree.query(self.points, k=kk)
        rows = np.repeat(np.arange(self.points.shape[0]), kk - 1)
        cols = idx[:, 1:].ravel()
        data = np.ones(rows.size)
        adj = coo_matrix((data, (rows, cols)), shape=(self.points.shape[0],) * 2)
        _, labels = connected_components(adj, directed=False)
        return labels


def _voronoi_cell_area(neigh_xy: np.ndarray, box: float | None = None) -> float:
    """Area of the Voronoi cell of the origin among 2D neighbor offsets,
    clipped to a bounding box (Sutherland-Hodgman on bisector half-planes)."""
    r = np.linalg.norm(neigh_xy, axis=1)
    if box is None:
        box = 2.0 * float(np.median(r))
    poly = [
        np.array([-box, -box]),
        np.array([box, -box]),
        np.array([box, box]),
        np.array([-box, box]),
    ]
    for q in neigh_xy:
        nq = float(q @ q)
        if nq < 1e-30:
            continue
        # half-plane x . q <= |q|^2 / 2
        new_poly = []
        for i, a in enumerate(poly):
            b = poly[(i + 1) % len(poly)]
            fa = float(a @ q) - 0.5 * nq
            fb = float(b @ q) - 0.5 * nq
            if fa <= 0:
                new_poly.append(a)
            if (fa < 0 < fb) or (fb < 0 < fa):
                t = fa / (fa - fb)
                new_poly.append(a + t * (b - a))
        poly = new_poly
        if len(poly) < 3:
            return 0.0
    arr = np.array(poly)
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# ---------------------------------------------------------------------------
# operations


def evaluate_sample(surface: Surface, seed: np.ndarray) -> SurfaceSample:
    """Project a seed point onto the surface and report normal + curvatures."""
    seed = np.asarray(seed, dtype=float)
    if isinstance(surface, PointCloud):
        return surface.fit_sample(surface.nearest_index(seed))
    p = surface.project(seed)
    nu, kappas = surface.curvature_at(p)
    return SurfaceSample(p, nu, kappas, float(kappas.mean()))


def evaluate_samples(surface: Surface, seeds: np.ndarray) -> list[SurfaceSample]:
    if isinstance(surface, PointCloud):
        return [evaluate_sample(surface, s) for s in np.atleast_2d(seeds)]
    P = surface.project(np.atleast_2d(np.asarray(seeds, dtype=float)))
    nus, kappas = surface.curvatures_batch(P)
    return [
        SurfaceSample(P[i], nus[i], kappas[i], float(kappas[i].mean()))
        for i in range(P.shape[0])
    ]


def signed_distance(surface: Surface, xi: np.ndarray) -> float:
    v = surface.signed_distance(np.asarray(xi, dtype=float))
    return float(v)


def surface_area(surface: Surface) -> float:
    return surface.area_estimate()[0]


def _refine_extremum(
    surface: Surface,
    x0: np.ndarray,
    value_fn,
    sign: float,
    steps: int = 50,
    fd_step: float | None = None,
) -> tuple[np.ndarray, float]:
    """Projected-gradient ascent (sign=+1) or descent (sign=-1) of a scalar
    field on the surface, with backtracking. Returns (point, value)."""
    scale = surface.bounding_radius()
    h = fd_step if fd_step is not None else 1e-5 * scale
    p = surface.project(np.asarray(x0, dtype=float))
    val = value_fn(p)
    step = 0.05 * scale
    for _ in range(steps):
        g = surface.implicit_grad(p)
        frame = tangent_frame(g / np.linalg.norm(g))
        grad_t = np.zeros(frame.shape[0])
        for i in range(frame.shape[0]):
            fp = value_fn(surface.project(p + h * frame[i]))
            fm = value_fn(surface.project(p - h * frame[i]))
            grad_t[i] = (fp - fm) / (2.0 * h)
        gnorm = float(np.linalg.norm(grad_t))
        if gnorm * step < 1e-15 * max(1.0, abs(val)):
            break
        direction = sign * (frame.T @ grad_t) / gnorm
        improved = False
        t = step
        for _ in range(20):
            cand = surface.project(p + t * direction)
            cval = value_fn(cand)
            if sign * (cval - val) > 0:
                p, val = cand, cval
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        step = min(2.0 * t, 0.05 * scale)
    return p, val


def mean_curvature_oscillation(
    surface: Surface, sample_budget: int = 2000, seed: int = 0, refine: bool = True
) -> OscReport:
    """max H - min H over the surface, from samples plus local refinement."""
    if sample_budget < 100:
        raise ValueError("sample_budget must be at least 100")
    pts = surface.probe_points(sample_budget, seed)
    if isinstance(surface, PointCloud):
        hs = np.array([surface.fit_sample(surface.nearest_index(p)).mean_curvature for p in pts])
        refine = False
    else:
        _, kappas = surface.curvatures_batch(pts)
        hs = kappas.mean(axis=1)
    order = np.argsort(hs)
    min_h, max_h = float(hs[order[0]]), float(hs[order[-1]])
    argmin, argmax = pts[order[0]].copy(), pts[order[-1]].copy()

    refined = False
    if refine and not isinstance(surface, PointCloud):
        def hval(p):
            _, k = surface.curvature_at(p)
            return float(k.mean())

        for i in order[:5]:
            q, v = _refine_extremum(surface, pts[i], hval, sign=-1.0)
            if v < min_h:
                min_h, argmin = v, q
        for i in order[-5:]:
            q, v = _refine_extremum(surface, pts[i], hval, sign=+1.0)
            if v > max_h:
                max_h, argmax = v, q
        refined = True

    spacing = surface.diameter_hint() / math.sqrt(max(sample_budget, 1))
    return OscReport(
        min_h=min_h,
        max_h=max_h,
        osc=max_h - min_h,
        argmin=argmin,
        argmax=argmax,
        sample_count=len(pts),
        refined=refined,
        resolution_hint=spacing,
    )


def estimate_touching_radius(
    surface: Surface, sample_budget: int = 2000, seed: int = 0, pair_budget: int = 1500
) -> float:
    """Two-sided touching-ball radius estimate.

    Combines the pointwise curvature bound 1/max|kappa| with the pairwise
    bound |q-p|^2 / (2 |(q-p) . nu_p|); the pairwise term catches global
    bottlenecks (thin necks) that curvature alone misses.
    """
    if sample_budget < 100:
        raise ValueError("sample_budget must be at least 100")
    pts = surface.probe_points(sample_budget, seed)
    if isinstance(surface, PointCloud):
        samples = [surface.fit_sample(surface.nearest_index(p)) for p in pts]
        kmax = max(float(np.abs(s.principal_curvatures).max()) for s in samples)
        normals = np.stack([s.inner_normal for s in samples])
        pts = np.stack([s.point for s in samples])
    else:
        normals, kappas = surface.curvatures_batch(pts)
        kmax = float(np.abs(kappas).max())
    curv_bound = 1.0 / kmax if kmax > 0 else math.inf

    m = min(pair_budget, pts.shape[0])
    sel = np.linspace(0, pts.shape[0] - 1, m).astype(int)
    P, N = pts[sel], normals[sel]
    pair_bound = math.inf
    chunk = 256
    for i0 in range(0, m, chunk):
        diff = P[None, :, :] - P[i0 : i0 + chunk, None, :]  # q - p
        d2 = np.einsum("pqd,pqd->pq", diff, diff)
        perp = np.abs(np.einsum("pqd,pd->pq", diff, N[i0 : i0 + chunk]))
        valid = perp > 1e-12 * np.sqrt(np.maximum(d2, 1e-300))
        ratio = np.where(valid, d2 / np.maximum(2.0 * perp, 1e-300), math.inf)
        pair_bound = min(pair_bound, float(ratio.min()))
    rho = min(curv_bound, pair_bound)
    if not (rho > 0):
        raise SurfaceError("touching radius estimate is not positive")
    surface._rho_cache = rho
    return rho


def touching_radius(surface: Surface, sample_budget: int = 2000, seed: int = 0) -> float:
    """Cached estimate_touching_radius."""
    rho = getattr(surface, "_rho_cache", None)
    if rho is None:
        rho = estimate_touching_radius(surface, sample_budget, seed)
    return rho


@dataclass
class GraphPatch:
    """Local graph of the surface over the tangent hyperplane at `base`.

    Heights are measured along the inner normal; coordinates x live in the
    tangent frame (rows of `frame`). Valid for |x| < radius with
    radius below the touching radius `rho`.
    """

    surface: Surface
    base: np.ndarray
    frame: np.ndarray  # (n, d) tangent rows
    inner_normal: np.ndarray
    radius: float
    rho: float

    def point_on_plane(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base + x @ self.frame

    def height(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        t = _graph_heights_batch(
            self.surface, self.base[None, :], self.inner_normal[None, :],
            (x @ self.frame)[None, :], self.rho,
        )
        if not np.isfinite(t[0]):
            raise PatchBracketError(
                "graph height left the touching-ball bracket; radius too large "
                "or touching radius overestimated"
            )
        return float(t[0])

    def point(self, x: np.ndarray) -> np.ndarray:
        return self.point_on_plane(x) + self.height(x) * self.inner_normal

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Tangent-frame coordinates of grad u at x (exact via implicit
        differentiation for analytic surfaces)."""
        q = self.point(x)
        g = self.surface.implicit_grad(q)
        denom = float(self.inner_normal @ g)
        if abs(denom) < 1e-300:
            raise PatchBracketError("graph tangency: normal derivative vanished")
        return -(self.frame @ g) / denom

    def gradient_ambient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient(x) @ self.frame

    def normal_at(self, x: np.ndarray) -> np.ndarray:
        q = self.point(x)
        nu, _ = self.surface.curvature_at(q)
        return nu


def local_graph(surface: Surface, p: SurfaceSample, radius: float) -> GraphPatch:
    rho = touching_radius(surface)
    if not radius < rho:
        raise ValueError(f"patch radius {radius} must stay below the touching radius {rho:.6g}")
    return GraphPatch(
        surface=surface,
        base=p.point,
        frame=tangent_frame(p.inner_normal),
        inner_normal=p.inner_normal,
        radius=float(radius),
        rho=rho,
    )


def _graph_heights_batch(
    surface: Surface,
    bases: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    rho: float,
    expand: float = 1.05,
    iters: int = 100,
) -> np.ndarray:
    """Vectorized graph heights: solve surface crossing along each normal.

    offsets are ambient tangent offsets (already embedded). Returns NaN for
    trials whose bracket (the touching-ball height bound, slightly expanded)
    does not straddle the surface.
    """
    x2 = np.einsum("md,md->m", offsets, offsets)
    cap = rho**2 - x2
    hb = np.where(cap > 0.0, rho - np.sqrt(np.maximum(cap, 0.0)), rho)
    hb = expand * hb + 1e-12 * rho
    feet = bases + offsets
    lo, hi = -hb, hb
    phi_lo = np.atleast_1d(surface.implicit(feet + lo[:, None] * normals))
    phi_hi = np.atleast_1d(surface.implicit(feet + hi[:, None] * normals))
    ok = np.sign(phi_lo) != np.sign(phi_hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        phi_mid = np.atleast_1d(surface.implicit(feet + mid[:, None] * normals))
        same = np.sign(phi_mid) == np.sign(phi_lo)
        lo = np.where(same, mid, lo)
        phi_lo = np.where(same, phi_mid, phi_lo)
        hi = np.where(same, hi, mid)
    t = 0.5 * (lo + hi)
    return np.where(ok, t, np.nan)
