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
from functools import reduce
from typing import Callable

import numpy as np
from numpy.polynomial import legendre
from scipy.spatial import cKDTree
from scipy.special import elliprg

from .geometry import record, row_dots, tangent_frame


class SurfaceError(Exception):
    """Base class for surface evaluation failures."""


class ProjectionError(SurfaceError):
    """Nearest-point projection onto the surface did not converge."""


class OrientationError(SurfaceError):
    """Point cloud ships inconsistently oriented normals."""


class SparseNeighborhoodError(SurfaceError):
    """Point-cloud neighborhood too sparse for a quadric fit."""


class CapabilityError(SurfaceError, NotImplementedError):
    """The surface type does not provide a member an operation needs, such
    as the level-function gradient of a point cloud."""


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
        return record(self)


_NEWTON_TOL = 1e-12  # residual at which a row stops; phi's counts relative to the size
_NEWTON_MAX_ITER = 80


@dataclass(frozen=True)
class Objective:
    """f for `Surface.stationary`: `derivs(x, rows)` gives its gradient (k, d)
    and Hessian (k or 1, d, d) at points x (k, d) standing for rows `rows`.
    `tol` is the gradient's accuracy: a row stops within it and has converged
    within 1e4 * tol. `flat` is the Hessian's relative accuracy: a flatter
    Newton matrix is taken as degenerate."""

    derivs: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    tol: float = _NEWTON_TOL
    flat: float = 1e-10


def quadratic(alpha: float, beta: np.ndarray) -> Objective:
    """f(x) = alpha |x|^2 / 2 + beta . x, one row of beta (m, d) per row: the
    nearest points to P for alpha = 1, beta = -P; where omega is normal, as
    at the support point, for alpha = 0, beta = -omega."""
    hess = alpha * np.eye(beta.shape[1])[None]
    return Objective(lambda x, rows: (alpha * x + beta[rows], hess))


class Surface:
    """Abstract closed embedded hypersurface in R^(n+1).

    Subclasses provide `jet`, a smooth level function phi that is positive
    inside, zero on the surface and negative outside, together with its
    first two derivatives, plus on-surface sampling and, on analytic
    surfaces, nearest-point projection. Everything is read-only after
    construction; what `_memo` keeps depends only on its key.

    Every kernel (`jet`, `implicit`, `project`, `signed_distance`,
    `curvatures_batch`) takes (m, d) rows and returns one result per row.
    """

    dim: int  # ambient dimension n+1
    # whether points between the samples exist to refine extrema towards
    refines_extrema = True

    @property
    def n(self) -> int:
        return self.dim - 1

    def _lacks(self, member: str) -> CapabilityError:
        return CapabilityError(f"{type(self).__name__} does not provide {member}")

    # --- level function interface ---

    def jet(self, P: np.ndarray, order: int) -> list:
        """[phi, grad phi (m, d), hess phi (m, d, d)][: order + 1] at the
        rows of P (m, d), computing only the orders asked for."""
        raise self._lacks("jet")

    def implicit(self, P: np.ndarray) -> np.ndarray:
        return self.jet(P, 0)[0]

    @property
    def ray_deadband(self) -> float:
        """Level values within this of zero do not decide a side when
        counting ray crossings (zero for a smooth level function)."""
        return 0.0

    # --- projection / distance ---

    def project(self, pts: np.ndarray) -> np.ndarray:
        """Nearest points on the surface, one per row."""
        raise self._lacks("project")

    def signed_distance(self, P: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(P - self.project(P), axis=1)
        return np.where(self.implicit(P) >= 0.0, d, -d)

    def settle(self, P: np.ndarray) -> np.ndarray:
        """Points off the surface, such as chord interpolations, put back on
        it: their projections."""
        return self.project(P)

    def stationary(self, objective: Objective, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stationary points of `objective` f on the surface, one per row of
        the on-surface seeds x0 (m, d): damped Newton on the Lagrange system
        grad f - lam grad phi = 0, phi = 0 (Jacobian block hess f - lam hess
        phi), halving a row's step until its residual does not grow. The seed
        decides which stationary point (minimum, maximum or saddle) a row
        reaches. A row stops once its gradient residual is within
        `objective.tol` and phi, as a length |phi| / |grad phi|, within
        _NEWTON_TOL times the surface's size `bounding_radius()`, so the
        rule holds at every scale; it has converged within 1e4 *
        objective.tol and 100 * _NEWTON_TOL times that size. Where the
        Jacobian is flat to within `objective.flat` (a degenerate extremum,
        such as a ring of nearest points) the minimum-norm step leaves the
        flat direction alone instead of sliding along it. Returns (points,
        converged mask)."""
        k, d = x0.shape
        every = np.arange(k)
        size = self.bounding_radius()

        def off(phi, g):
            # distance to the surface to first order, relative to its size
            return np.abs(phi) / (np.maximum(np.sqrt(row_dots(g, g)), 1e-300) * size)

        def residual(F1, phi, g):
            # a gradient residual within the objective's accuracy is noise;
            # NaN stays NaN and stops its row
            f1 = np.abs(F1).max(axis=1)
            return np.maximum(np.where(f1 <= objective.tol, 0.0, f1), off(phi, g))

        x = x0.copy()
        for it in range(_NEWTON_MAX_ITER + 1):
            phi, g, h = self.jet(x, 2)
            grad, hess = objective.derivs(x, every)
            if it == 0:
                gg = np.maximum(np.einsum("md,md->m", g, g), 1e-300)
                lam = np.einsum("md,md->m", grad, g) / gg
            F1 = grad - lam[:, None] * g
            active = residual(F1, phi, g) > _NEWTON_TOL
            if not active.any() or it == _NEWTON_MAX_ITER:
                break
            J = np.zeros((k, d + 1, d + 1))
            J[:, :d, :d] = hess - lam[:, None, None] * h
            J[:, :d, d] = -g
            J[:, d, :d] = g
            F = np.concatenate([F1, phi[:, None]], axis=1)
            Ja, Fa = J[active], -F[active][:, :, None]
            # |det J| over the product of J's row norms is about 1e-14 at a
            # degenerate extremum and above 1e-3 elsewhere, when f's Hessian
            # is exact
            hadamard = np.linalg.slogdet(Ja)[1] - np.log(np.linalg.norm(Ja, axis=2)).sum(axis=1)
            flat = hadamard < math.log(objective.flat)
            step = np.empty(Fa.shape)
            try:
                step[~flat] = np.linalg.solve(Ja[~flat], Fa[~flat])
                if flat.any():
                    step[flat] = np.linalg.pinv(Ja[flat], rcond=objective.flat) @ Fa[flat]
            except np.linalg.LinAlgError:
                return x, np.zeros(k, dtype=bool) | ~active
            step = step[:, :, 0]
            # backtracking on the residual norm
            rows = np.flatnonzero(active)
            t = np.ones(rows.size)
            xa, la = x[rows], lam[rows]
            base = residual(F1[rows], phi[rows], g[rows])
            for _ in range(10):
                xn = xa + t[:, None] * step[:, :d]
                ln = la + t * step[:, d]
                phin, gn = self.jet(xn, 1)
                worse = residual(objective.derivs(xn, rows)[0] - ln[:, None] * gn, phin, gn) > base
                if not worse.any():
                    break
                t = np.where(worse, 0.5 * t, t)
            x[rows] = xa + t[:, None] * step[:, :d]
            lam[rows] = la + t * step[:, d]
        resid = np.abs(F1).max(axis=1)
        return x, (resid <= 1e4 * objective.tol) & (off(phi, g) <= 100.0 * _NEWTON_TOL)

    # --- sampling ---

    def sample_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise self._lacks("sample_points")

    def _memo(self, key: tuple, make: Callable[[], object]) -> object:
        """make(), computed once per surface and key. Every caller shares
        the result, so its arrays are made read-only."""
        memo = self.__dict__.setdefault("_memo_table", {})
        if key not in memo:
            value = make()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            memo[key] = value
        return memo[key]

    def probe_points(self, budget: int, seed: int = 0) -> np.ndarray:
        """The sample set of batch operations: `sample_points(budget)` from
        `default_rng(seed)`, memoised per (budget, seed) and read-only."""
        budget, seed = int(budget), int(seed)
        return self._memo(
            ("probe", budget, seed), lambda: self.sample_points(budget, np.random.default_rng(seed))
        )

    def probe_geometry(self, budget: int, seed: int = 0) -> tuple[np.ndarray, ...]:
        """(points, inner normals, principal curvatures) of
        `probe_points(budget, seed)`, from one `curvatures_batch` call,
        memoised per (budget, seed) and read-only."""
        budget, seed = int(budget), int(seed)

        def make():
            pts = self.probe_points(budget, seed)
            return (pts, *self.curvatures_batch(pts))

        return self._memo(("geometry", budget, seed), make)

    def dense_points(self) -> np.ndarray:
        """The surface's dense reference set: `sample_points` of 16384 in
        R^3 (2048 in R^2) from `default_rng(99)`, memoised and read-only."""
        return self._memo(
            ("dense",),
            lambda: self.sample_points(16384 if self.dim == 3 else 2048, np.random.default_rng(99)),
        )

    # --- area ---

    def area_estimate(self) -> tuple[float, float]:
        """(area, relative error estimate); memoised where it is not a closed form."""
        raise self._lacks("area_estimate")

    def bounding_radius(self) -> float:
        """Radius of a ball around the coordinate mean containing the surface."""
        pts = self.probe_points(512, seed=0)
        c = pts.mean(axis=0)
        return float(np.linalg.norm(pts - c, axis=1).max())

    def critical_tolerances(self, tol: float | None) -> tuple[float, float]:
        """(tolerance, exit threshold) of the moving-planes search for a
        caller's tolerance `tol`, by default 5e-10 * diam. An analytic level
        function changes sign on the surface itself, so a mirrored point
        leaves the domain where `implicit` turns negative: the threshold is 0
        and the exit level is found to rounding. `tol` then sets only the
        degenerate-contact band and the embeddedness margin."""
        if tol is None:
            tol = 1e-9 * self.bounding_radius()
        return tol, 0.0

    @property
    def component_count(self) -> int:
        """Connected components of the surface itself."""
        return 1

    # --- pointwise differential geometry from the level function ---

    def curvatures_batch(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m, d) surface points -> inner normals (m, d), ascending principal
        curvatures (m, n)."""
        P = np.asarray(pts, dtype=float)
        _, g, hess = self.jet(P, 2)
        gn = np.linalg.norm(g, axis=1)
        nus = g / gn[:, None]
        frames = tangent_frame(nus)  # (m, n, d)
        shape_ops = -np.einsum("mid,mde,mje->mij", frames, hess, frames) / gn[:, None, None]
        kappas = np.sort(np.linalg.eigvalsh(shape_ops), axis=1)
        return nus, kappas


# ---------------------------------------------------------------------------
# analytic variants


def _finite_vector(name: str, value) -> np.ndarray:
    """`value` as a finite 1-D vector of at least 2 entries, else a ValueError naming `name`."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or v.size < 2 or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a finite vector of at least 2 entries, got {value!r}")
    return v


class Sphere(Surface):
    def __init__(self, center, radius: float):
        self.center = _finite_vector("center", center)
        self.radius = float(radius)
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        self.dim = self.center.shape[0]

    # R - |xi - c| is the exact signed distance
    def jet(self, P, order):
        u = P - self.center
        r = np.linalg.norm(u, axis=1)
        out = [self.radius - r]
        if order >= 1:
            uhat = u / r[:, None]
            out.append(-uhat)
        if order >= 2:
            eye = np.eye(self.dim)
            out.append(-(eye[None] - uhat[:, :, None] * uhat[:, None, :]) / r[:, None, None])
        return out

    def project(self, P):
        u = P - self.center
        r = np.linalg.norm(u, axis=1, keepdims=True)
        bad = r[:, 0] < 1e-300
        if np.any(bad):
            u = u.copy()
            u[bad] = 0.0
            u[bad, 0] = 1.0
            r = np.linalg.norm(u, axis=1, keepdims=True)
        return self.center + self.radius * u / r

    def signed_distance(self, pts):
        return self.implicit(pts)

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return self.center + self.radius * u

    def area_estimate(self):
        # measure of the (d-1)-sphere of radius R
        d = self.dim
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) * self.radius ** (d - 1), 0.0

    def bounding_radius(self):
        return self.radius

    def curvatures_batch(self, pts):
        P = np.asarray(pts, dtype=float)
        nus = self.center - P
        nus /= np.linalg.norm(nus, axis=1, keepdims=True)
        k = np.full((P.shape[0], self.n), 1.0 / self.radius)
        return nus, k


class Ellipsoid(Surface):
    """Axis-aligned ellipsoid sum((x_i/a_i)^2) = 1 centered at the origin."""

    def __init__(self, semi_axes):
        self.semi_axes = _finite_vector("semi_axes", semi_axes)
        if np.any(self.semi_axes <= 0):
            raise ValueError(f"semi_axes must be positive, got {semi_axes!r}")
        self.dim = self.semi_axes.shape[0]
        self._a2 = self.semi_axes**2

    def jet(self, P, order):
        out = [1.0 - np.sum(P**2 / self._a2, axis=1)]
        if order >= 1:
            out.append(-2.0 * P / self._a2)
        if order >= 2:
            hess = np.diag(-2.0 / self._a2)
            out.append(np.broadcast_to(hess, (P.shape[0], self.dim, self.dim)).copy())
        return out

    def project(self, P):
        return _ellipsoid_nearest(P, self.semi_axes)

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u * self.semi_axes

    def area_estimate(self):
        """Closed form through Carlson's symmetric integral R_G: the surface
        area 4 pi abc R_G(a^-2, b^-2, c^-2) in R^3, the perimeter
        8 R_G(0, a^2, b^2) in R^2."""
        a = self.semi_axes
        if self.dim == 2:
            return 8.0 * float(elliprg(0.0, a[0] ** 2, a[1] ** 2)), 0.0
        if self.dim == 3:
            rg = float(elliprg(*(1.0 / self._a2)))
            return 4.0 * math.pi * float(np.prod(a)) * rg, 0.0
        raise self._lacks(f"an area in R^{self.dim} (R^2 and R^3 only)")

    def bounding_radius(self):
        return float(self.semi_axes.max())


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


class HarmonicRadial(Surface):
    """Star-shaped surface r(u)*u with r given by a finite harmonic table.

    Entries are (l, m, coeff) with integers l and m. In R^3 the basis is the
    real orthonormal spherical harmonics (Condon-Shortley phase); in R^2
    plain Fourier terms: m >= 0 means cos(l*theta), m < 0 means
    sin(l*theta). The radial function is r = base_radius + sum(coeff * basis)
    and must stay positive, above 1e-3 of its largest value whatever the
    scale. On unit vectors r = Re sum_k (u_0 + i*u_1)^k Q_k(u_2): in R^3
    Q_k gathers coeff * N_lm * (-1)^k * d^k P_l/dz^k over the terms with
    |m| = k, in R^2 it is the coeff with l = k, each times -i for m < 0
    (Im z = Re(-i*z)). Each Q_k is kept and evaluated as a Legendre series,
    which stays accurate at high l where its expansion in powers of z
    cancels. So phi = r(x/|x|) - |x| and its first two derivatives are
    exact, by the chain rule through u = x/|x|.
    """

    def __init__(self, coeffs, base_radius: float = 1.0, dim: int = 3):
        if dim not in (2, 3):
            raise ValueError("radial surfaces supported in R^2 and R^3 only")
        self.dim = dim
        self.base_radius = float(base_radius)
        if not math.isfinite(self.base_radius):
            raise ValueError(f"base_radius must be finite, got {self.base_radius}")
        self.coeffs = []
        terms = [(0, np.array([self.base_radius]))]  # (k, coefficients of Q_k)
        for l, m, v in coeffs:
            if not all(type(i) is int or isinstance(i, np.integer) for i in (l, m)) or l < 0:
                raise ValueError(f"(l, m) must be integers with l >= 0, got ({l!r}, {m!r})")
            l, m, v = int(l), int(m), float(v)
            if not math.isfinite(v):
                raise ValueError(f"the ({l}, {m}) coefficient must be finite, got {v}")
            self.coeffs.append((l, m, v))
            if dim == 2 and l == 0 and m < 0:
                raise ValueError("sin(0 theta) vanishes: a degree-0 Fourier term needs m >= 0")
            k, q = l, np.ones(1)
            if dim == 3:
                if abs(m) > l:
                    raise ValueError("|m| must not exceed l")
                k = abs(m)
                norm = (2 * l + 1) / ((2 if k else 4) * math.pi * math.perm(l + k, 2 * k))
                q = (-1) ** k * math.sqrt(norm) * legendre.legder([0] * l + [1], k)
            terms.append((k, (v if m >= 0 else -1j * v) * q))
        # table[k, j] is the coefficient of w^k P_j(z)
        table = np.zeros((max(k for k, _ in terms) + 1, max(q.size for _, q in terms)), complex)
        for k, q in terms:
            table[k, : q.size] += q
        # the tables of d^a/dw^a d^b/dz^b for a + b <= 2
        self._tables = {
            (a, b): legendre.legder(np.polynomial.polynomial.polyder(table, a, axis=0), b, axis=1)
            for a in range(3)
            for b in range(3 - a)
        }

        self._r_min, self._r_max = self._radial_range()
        if not self._r_min > 1e-3 * self._r_max:
            raise ValueError(f"radial function reaches {self._r_min:.4g}; must stay positive")

    def _radial_range(self) -> tuple[float, float]:
        rng = np.random.default_rng(12345)
        u = rng.standard_normal((4096, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = self.radial(u)
        return float(r.min()), float(r.max())

    def _series(self, u: np.ndarray):
        """Re sum table[k, j] w^k P_j(z) at the unit rows u as a function of
        the table, in real arithmetic with w^k built one power at a time."""
        z = u[:, 2] if self.dim == 3 else 0.0
        powers = [(1.0, 0.0), (u[:, 0], u[:, 1])]  # (Re w^k, Im w^k)
        while len(powers) < len(self._tables[0, 0]):
            (c, s), (x, y) = powers[-1], powers[1]
            powers.append((c * x - s * y, c * y + s * x))

        def real_part(table):
            out = np.zeros(len(u))
            for (c, s), q in zip(powers, table):
                if q.real.any():
                    out = out + c * legendre.legval(z, q.real)
                if q.imag.any():
                    out = out - s * legendre.legval(z, q.imag)
            return out

        return real_part

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        return self._series(np.asarray(dirs, dtype=float))(self._tables[0, 0])

    def jet(self, P, order):
        t, d = self._tables, self.dim
        with np.errstate(all="ignore"):
            # u is formed after scaling by max |x_i|, so |x|^2 cannot underflow.
            # At the origin phi is 0/0; along every ray it tends to r(u) > 0
            # there, so the origin gets the smallest sampled radius
            s = reduce(np.maximum, np.abs(P.T))
            v = P / s[:, None]
            norm = np.sqrt(sum(c * c for c in v.T))
            u, rho = v / norm[:, None], s * norm
            re = self._series(u)
            out = [np.where(s == 0.0, self._r_min, re(t[0, 0]) - rho)]
            if order >= 1:
                # r's gradient g in u, from d/du_0 = d/dw and d/du_1 = i d/dw
                g = np.stack([re(t[1, 0]), re(1j * t[1, 0]), re(t[0, 1])], axis=1)[:, :d]
                ug = (u * g).sum(axis=1)
                tang = g - ug[:, None] * u
                out.append(tang / rho[:, None] - u)
            if order >= 2:
                ww, iww, wz, iwz = (re(f * t[ab]) for ab in ((2, 0), (1, 1)) for f in (1, 1j))
                rows = [[ww, iww, wz], [iww, -ww, iwz], [wz, iwz, re(t[0, 2])]]
                h = np.stack([np.stack(row, axis=1) for row in rows], axis=1)[:, :d, :d]
                proj = np.eye(d) - u[:, :, None] * u[:, None, :]
                tu = tang[:, :, None] * u[:, None, :]
                # (P h P - (u.g) P - t u^T - u t^T) / |x|^2 - P / |x|, with
                # P = I - u u^T and t = P g
                curv = proj @ h @ proj - ug[:, None, None] * proj - tu - tu.transpose(0, 2, 1)
                out.append(curv / (rho**2)[:, None, None] - proj / rho[:, None, None])
        return out

    def project(self, P):
        """Nearest points: one `stationary` solve with alpha = 1, beta = -P
        from the nearest dense sample. A row that does not converge raises
        ProjectionError; near the medial axis (a near-sphere's centre) rows
        can fail, so inside tests read `implicit` instead."""
        x, ok = self.stationary(quadratic(1.0, -P), self._projection_seeds(P))
        if not ok.all():
            raise ProjectionError(f"projection failed for {int((~ok).sum())} of {len(P)} points")
        return x

    def _projection_seeds(self, P: np.ndarray) -> np.ndarray:
        # seed from the nearest point of a memoised dense sampling so Newton
        # refines the global nearest branch, not just a stationary one
        dense = self.dense_points()
        tree = self._memo(("seeds",), lambda: cKDTree(dense))
        return dense[tree.query(P)[1]]

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u * self.radial(u)[:, None]

    def area_estimate(self):
        def make():
            coarse, fine = self._area_quadrature(128), self._area_quadrature(256)
            return fine, abs(fine - coarse) / fine if fine else 0.0

        return self._memo(("area",), make)

    def _area_quadrature(self, res: int) -> float:
        # dA = r^(n-1) * sqrt(r^2 + |grad_S r|^2) dsigma over unit directions;
        # grad_S r equals the ambient gradient of the degree-0 extension at |u|=1
        if self.dim == 2:
            th = np.linspace(0.0, 2.0 * math.pi, 16 * res, endpoint=False)
            u = np.stack([np.cos(th), np.sin(th)], axis=1)
            r = self.radial(u)
            gs = self.jet(u, 1)[1] + u  # grad(rtilde) = grad(phi) + grad(rho)
            integrand = np.sqrt(r**2 + np.sum(gs**2, axis=1))
            return float(integrand.mean() * 2.0 * math.pi)
        xg, wg = legendre.leggauss(res)
        th = np.arccos(xg)
        ph = np.linspace(0.0, 2.0 * math.pi, 2 * res, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        u = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
        flat = u.reshape(-1, 3)
        r = self.radial(flat)
        gs = self.jet(flat, 1)[1] + flat
        integrand = (r * np.sqrt(r**2 + np.sum(gs**2, axis=1))).reshape(TH.shape)
        return float((integrand * wg[:, None]).sum() * (2.0 * math.pi / ph.size))

    def bounding_radius(self):
        return self._r_max


# ---------------------------------------------------------------------------
# sampled variant


class PointCloud(Surface):
    """Surface known through samples with inward normals.

    `curvatures_batch` answers with the nearest sample's inner normal and
    the principal curvatures of a quadric fitted over its k nearest
    neighbors; the fits of all asked-for samples form one stacked
    least-squares solve over the neighbor table that the constructor's one
    self k-NN query stores. Signed distance is the distance to the nearest
    sample, signed by its normal: one kd-tree query per point, also along
    the radial-map rays, which start at the annulus and not at the centre
    for that reason. Consistency passes reject clouds with
    mixed inner/outer normals and clouds whose normals all point outward.
    """

    # nothing is known between the samples
    refines_extrema = False

    def __init__(self, points: np.ndarray, normals: np.ndarray, k: int = 20):
        self.points = np.asarray(points, dtype=float)
        normals = np.asarray(normals, dtype=float)
        if self.points.shape != normals.shape:
            raise ValueError("points and normals must have matching shapes")
        self.dim = self.points.shape[1]
        if self.dim not in (2, 3):
            raise ValueError("point clouds supported in R^2 and R^3 only")
        # scale by a power of two (exact) so that the squares neither overflow nor underflow
        normals = np.ldexp(normals, -np.frexp(np.abs(normals).max(axis=1, keepdims=True))[1])
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        bad = ~(np.isfinite(self.points).all(axis=1) & np.isfinite(normals).all(axis=1))
        if bad.any():
            raise ValueError(f"cloud sample {np.argmax(bad)} has a non-finite point or normal")
        if not norms.all():
            raise ValueError(f"cloud sample {np.argmin(norms)} has a zero-length normal")
        self.normals = normals / norms
        self.k = int(k)
        if self.points.shape[0] < self.k + 1:
            raise SparseNeighborhoodError("cloud smaller than one quadric-fit neighborhood")
        self.tree = cKDTree(self.points)
        # one self k-NN table (column 0 is the sample itself) serves the
        # orientation check, the spacing, the area cells, the components and
        # the quadric fits
        width = min(self.points.shape[0], max(self.k + 1, 8))
        dist, self._knn = self.tree.query(self.points, k=width)
        self.spacing = float(np.median(dist[:, 1]))  # median nearest-neighbor distance
        self._check_orientation()

    def _check_orientation(self):
        dots = np.einsum("md,mkd->mk", self.normals, self.normals[self._knn[:, 1 : self.k + 1]])
        consensus = (dots > 0).mean(axis=1)
        if consensus.min() < 0.55:
            raise OrientationError(
                "inner/outer normals are mixed (worst local agreement "
                f"{consensus.min():.2f}); reorient the cloud"
            )
        # divergence theorem: (x - c) . nu integrates to -dim * volume over
        # the surface for inner normals nu, so its sum over the samples is negative
        if not np.einsum("md,md->", self.points - self.points.mean(axis=0), self.normals) < 0.0:
            raise OrientationError("the normals point outward; the cloud needs inner normals")

    def jet(self, P, order):
        if order >= 1:
            raise self._lacks("the level-function gradient (jet order >= 1)")
        return [self.signed_distance(P)]

    def signed_distance(self, P):
        _, idx = self.tree.query(P)
        diff = P - self.points[idx]
        dist = np.linalg.norm(diff, axis=1)
        side = np.einsum("md,md->m", diff, self.normals[idx])
        return np.where(side >= 0.0, dist, -dist)

    @property
    def ray_deadband(self) -> float:
        """Nearest-sample distance is a staircase that wobbles by about a
        sample spacing near the surface; inside 0.75 spacing it decides no side."""
        return 0.75 * self.spacing

    def settle(self, P):
        # a point between samples stays put: projecting would snap it to the
        # nearest sample, up to a spacing away
        return P

    def stationary(self, objective, x0):
        # nothing lies between the samples, so every seed stands
        return x0.copy(), np.zeros(x0.shape[0], dtype=bool)

    def critical_tolerances(self, tol):
        """The level function is the nearest-sample distance, which jumps
        along a line instead of crossing zero cleanly, so a mirrored point
        counts as outside only beyond `tol`, which doubles as the exit
        threshold. The default is a length, max(1.5 * spacing**2 / R, 2e-6 *
        R) with R = `bounding_radius()`: the side of a point at tangential
        offset s <= spacing from its nearest sample errs by at most about
        kappa s**2 / 2 <= spacing**2 / (2 rho), and R stands in for rho."""
        if tol is None:
            R = self.bounding_radius()
            tol = max(1.5 * self.spacing**2 / R, 2e-6 * R)
        return tol, tol

    def curvatures_batch(self, pts):
        """The nearest samples' inner normals and ascending principal
        curvatures, each from a quadric height graph h = c + b.x + x.Qx/2
        over the tangent plane, fitted by least squares to the sample's k
        nearest neighbors; all fits form one stacked solve."""
        _, idx = self.tree.query(np.asarray(pts, dtype=float))
        n = self.n
        I, J = np.triu_indices(n)
        terms = 1 + n + I.size
        if self.k < terms:
            raise SparseNeighborhoodError(f"only {self.k} neighbors for {terms} quadric terms")
        nu = self.normals[idx]
        offs = self.points[self._knn[idx, 1 : self.k + 1]] - self.points[idx, None, :]
        x = np.matmul(offs, np.swapaxes(tangent_frame(nu), 1, 2))  # (m, k, n)
        h = np.matmul(offs, nu[:, :, None])[..., 0]
        # design rows: [1, x_i, x_i*x_j upper triangle]
        A = np.concatenate([np.ones_like(h)[..., None], x, x[..., I] * x[..., J]], axis=2)
        coef = np.matmul(np.linalg.pinv(A), h[..., None])[..., 0]
        b = coef[:, 1 : 1 + n]
        Q = np.zeros((len(idx), n, n))
        Q[:, I, J] = Q[:, J, I] = coef[:, 1 + n :] * np.where(I == J, 2.0, 1.0)
        # Weingarten map of a height graph along the inner normal
        evals, evecs = np.linalg.eigh(np.eye(n) + b[:, :, None] * b[:, None, :])
        G_isqrt = np.matmul(evecs * evals[:, None, :] ** -0.5, np.swapaxes(evecs, 1, 2))
        W = G_isqrt @ (Q / np.sqrt(1.0 + (b * b).sum(axis=1))[:, None, None]) @ G_isqrt
        return nu, np.sort(np.linalg.eigvalsh(W), axis=1)

    def sample_points(self, count, rng):
        count = min(count, self.points.shape[0])
        idx = rng.choice(self.points.shape[0], size=count, replace=False)
        return self.points[np.sort(idx)]

    def dense_points(self):
        """The samples themselves."""
        return self.points

    def area_estimate(self):
        return self._memo(("area",), self._cell_area)

    def _cell_area(self) -> tuple[float, float]:
        idx = self._knn[:, 1 : 8 if self.dim == 2 else self.k + 1]
        frames = tangent_frame(self.normals)
        if self.dim == 2:
            # half the gap between the nearest neighbors on either side; a
            # sample whose 7 nearest lie on one side asks for 32
            def sides(rows, nbrs):
                offs = self.points[nbrs] - self.points[rows, None, :]
                t = np.matmul(offs, frames[rows, 0, :, None])[..., 0]
                return (
                    np.where(t < 0, t, -np.inf).max(axis=1),
                    np.where(t > 0, t, np.inf).min(axis=1),
                )

            left, right = sides(np.arange(self.points.shape[0]), idx)
            lone = np.nonzero(~(np.isfinite(left) & np.isfinite(right)))[0]
            if lone.size:
                _, wide = self.tree.query(self.points[lone], k=min(self.points.shape[0], 32))
                left[lone], right[lone] = sides(lone, wide[:, 1:])
            cells = np.where(np.isfinite(left) & np.isfinite(right), 0.5 * (right - left), 0.0)
        else:
            offs = self.points[idx] - self.points[:, None, :]
            cells = _voronoi_cell_areas(np.matmul(offs, np.swapaxes(frames, 1, 2)))
        # a running sum in sample order
        return float(np.cumsum(cells)[-1]), 0.05

    def component_labels(self) -> np.ndarray:
        """Connected components of the k-NN adjacency of the raw points."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        # the k-NN table is a CSR adjacency with k entries per row as it stands
        m, k = self.points.shape[0], self.k
        cols = self._knn[:, 1 : k + 1].ravel()
        adj = csr_matrix((np.ones(cols.size), cols, np.arange(0, m * k + 1, k)), shape=(m, m))
        _, labels = connected_components(adj, directed=False)
        return labels

    @property
    def component_count(self) -> int:
        return int(self.component_labels().max()) + 1


def _voronoi_cell_areas(neigh_xy: np.ndarray) -> np.ndarray:
    """Area of the Voronoi cell of the origin among each row's 2D neighbor
    offsets (m, k, 2), clipped to the box of half-width twice the median
    neighbor distance.

    Sutherland-Hodgman on the k bisector half-planes, run on all cells at
    once: the polygons are padded (m, width, 2) arrays with vertex counts,
    and a cell left with fewer than 3 vertices has area 0. Each pass
    rebuilds only the cells its bisector cuts (a vertex outside the
    half-plane), widening the padding when one of them needs it.
    """
    m = neigh_xy.shape[0]
    box = 2.0 * np.median(np.linalg.norm(neigh_xy, axis=2), axis=1)
    poly = box[:, None, None] * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    count = np.full(m, 4)
    for q in np.swapaxes(neigh_xy, 0, 1):
        nq = np.einsum("md,md->m", q, q)
        v = np.arange(poly.shape[1])
        inside = v < count[:, None]
        # half-plane x . q <= |q|^2 / 2
        fa = np.einsum("mvd,md->mv", poly, q) - 0.5 * nq[:, None]
        clip = ((nq >= 1e-30) & (count >= 3))[:, None]
        # the cells with a vertex that `keep` drops; the others stay as they are
        cells = np.flatnonzero((inside & clip & ~(fa <= 0)).any(axis=1))
        p, fa, inside = poly[cells], fa[cells], inside[cells]
        rows = np.arange(cells.size)[:, None]
        succ = np.where(v + 1 < count[cells, None], v + 1, 0)
        fb = fa[rows, succ]
        keep = inside & (fa <= 0)
        cut = inside & (((fa < 0) & (fb > 0)) | ((fb < 0) & (fa > 0)))
        with np.errstate(divide="ignore", invalid="ignore"):  # only cut edges are kept
            t = fa / (fa - fb)
            cuts = p + t[..., None] * (p[rows, succ] - p)
        emit = np.stack([keep, cut], axis=2).reshape(-1, 2 * v.size)
        cand = np.stack([p, cuts], axis=2).reshape(-1, 2 * v.size, 2)
        slot = np.cumsum(emit, axis=1) - 1
        count[cells] = emit.sum(axis=1)
        grow = int(count.max()) - poly.shape[1]
        if grow > 0:
            poly = np.pad(poly, ((0, 0), (0, grow), (0, 0)))
        poly[cells] = 0.0
        r, c = np.nonzero(emit)
        poly[cells[r], slot[r, c]] = cand[r, c]
    # shoelace; padding vertices sit at the origin and add nothing, but the
    # width sets how numpy's pairwise sums group the terms: the largest cell's
    poly = poly[:, : max(int(count.max()), 1)]
    rows = np.arange(m)[:, None]
    v = np.arange(poly.shape[1])
    succ = np.where(v + 1 < count[:, None], v + 1, 0)
    x, y = poly[..., 0], poly[..., 1]
    twice = (x * y[rows, succ]).sum(axis=1) - (y * x[rows, succ]).sum(axis=1)
    return np.where(count >= 3, 0.5 * np.abs(twice), 0.0)


# ---------------------------------------------------------------------------
# operations


def _refine_extremum(surface: Surface, seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stationary points of the mean curvature H near the on-surface seeds
    (m, d), all in one `Surface.stationary` solve: (points, H there,
    converged mask).

    The objective is the level-set mean curvature that `curvatures_batch`
    returns off the surface, a smooth extension of H, so no difference point
    is projected. Its gradient and Hessian are central differences over
    x + h (+-e_i +-e_j) for all i, j, with h = 5e-5 R, R the bounding radius:
    along the axes (i = j) they span 2h = 1e-4 R.
    """
    d = surface.dim
    R = surface.bounding_radius()
    h = 5e-5 * R
    E = h * np.eye(d)
    stencil = np.concatenate([E[:, None] + E, E[:, None] - E, -E[:, None] - E]).reshape(-1, d)

    def differences(x):
        H = surface.curvatures_batch((x[:, None] + stencil).reshape(-1, d))[1].mean(axis=1)
        pp, pm, mm = np.moveaxis(H.reshape(-1, 3, d, d), 1, 0)  # pm[:, i, i] = H(x)
        hess = (pp - pm - np.swapaxes(pm, 1, 2) + mm) / (4.0 * h * h)
        return pm[:, 0, 0], np.diagonal(pp - mm, axis1=1, axis2=2) / (4.0 * h), hess

    # Row r extremises f = c_r H, with c_r such that f's Hessian at the seed,
    # or the curvature scale max|H| / R^2 if that is larger, is the size of
    # grad phi there: Newton's matrix is then balanced at any scale of the
    # surface and however sharply H bends (a dumbbell's neck), as the
    # flatness test needs. A power of two, c_r adds no rounding.
    H0, _, hess0 = differences(seeds)
    G = np.linalg.norm(surface.jet(seeds, 1)[1], axis=1)
    bend = np.maximum(np.abs(hess0).max(axis=(1, 2)), np.abs(H0).max() / R**2)
    c = 2.0 ** np.round(np.log2(G / bend))

    def derivs(x, rows):
        _, grad, hess = differences(x)
        return c[rows, None] * grad, c[rows, None, None] * hess

    # The gradient is accurate to about (2h/R)^2 = 1e-8 of its size G R; in
    # the Hessian, rounding of H (about 1e-14) grows by (R/h)^2 to about
    # 4e-6. tol leaves a factor 100 on the first, flat a factor 25 on the
    # second.
    x, ok = surface.stationary(Objective(derivs, tol=1e-6 * G.max() * R, flat=1e-4), seeds)
    # the solve stops at |phi| <= 1e-12 and H moves with phi to first order:
    # one Newton step on phi alone puts the points on the surface to rounding
    phi, g = surface.jet(x, 1)
    x = x - (phi / np.einsum("md,md->m", g, g))[:, None] * g
    return x, surface.curvatures_batch(x)[1].mean(axis=1), ok


def mean_curvature_oscillation(
    surface: Surface, sample_budget: int = 2000, seed: int = 0
) -> OscReport:
    """max H - min H over the surface, from samples. On surfaces that have
    points between their samples (`Surface.refines_extrema`; not a point
    cloud) the five lowest and five highest seed one `Surface.stationary`
    solve with H as the objective (`_refine_extremum`); a row replaces its
    sample only if it converged and moved H outwards."""
    if sample_budget < 100:
        raise ValueError("sample_budget must be at least 100")
    pts, _, kappas = surface.probe_geometry(sample_budget, seed)
    hs = kappas.mean(axis=1)
    order = np.argsort(hs)
    min_h, max_h = float(hs[order[0]]), float(hs[order[-1]])
    argmin, argmax = pts[order[0]].copy(), pts[order[-1]].copy()

    refined = surface.refines_extrema
    if refined:
        rows = np.concatenate([order[:5], order[:-6:-1]])
        q, v, ok = _refine_extremum(surface, pts[rows])
        # a row keeps its sample unless it converged and moved H outwards
        better = ok & (np.repeat([-1.0, 1.0], 5) * (v - hs[rows]) > 0)
        v, q = np.where(better, v, hs[rows]), np.where(better[:, None], q, pts[rows])
        lo, hi = int(np.argmin(v[:5])), 5 + int(np.argmax(v[5:]))
        min_h, argmin, max_h, argmax = float(v[lo]), q[lo], float(v[hi]), q[hi]

    spacing = 2.0 * surface.bounding_radius() / math.sqrt(max(sample_budget, 1))
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


_PAIR_BUDGET = 1500  # samples whose every pair the touching-ball estimate bounds
_PAIR_ROWS = 32  # rows per block of the touching-ball pair scan


def estimate_touching_radius(surface: Surface, sample_budget: int = 2000, seed: int = 0) -> float:
    """Two-sided touching-ball radius estimate.

    Combines the pointwise curvature bound 1/max|kappa| with the pairwise
    bound |q-p|^2 / (2 |(q-p) . nu_p|) over every ordered pair of up to
    `_PAIR_BUDGET` samples; the pairwise term catches global bottlenecks
    (thin necks) that curvature alone misses. A pair whose normal component
    is zero to rounding (at most 1e-12 |q-p|) bounds nothing.

    The scan takes `_PAIR_ROWS` rows p at a time against every column q
    from the block's first row on, so it meets each pair, and sums |q-p|^2
    and both normal components one coordinate at a time. Both orders of a
    pair share |q-p|^2, so its smaller ratio is the one over the larger
    normal component.
    """
    if sample_budget < 100:
        raise ValueError("sample_budget must be at least 100")
    pts, normals, kappas = surface.probe_geometry(sample_budget, seed)
    kmax = float(np.abs(kappas).max())
    best = 1.0 / kmax if kmax > 0 else math.inf

    m = min(_PAIR_BUDGET, pts.shape[0])
    sel = np.linspace(0, pts.shape[0] - 1, m).astype(int)
    X, V = pts[sel].T.copy(), normals[sel].T.copy()
    for i0 in range(0, m, _PAIR_ROWS):
        rows = slice(i0, i0 + _PAIR_ROWS)
        diff = X[0, i0:] - X[0, rows, None]  # q - p
        d2 = diff * diff
        along_p = diff * V[0, rows, None]
        along_q = diff * V[0, i0:]
        term = np.empty_like(d2)
        for j in range(1, X.shape[0]):
            np.subtract(X[j, i0:], X[j, rows, None], out=diff)
            d2 += np.multiply(diff, diff, out=term)
            along_p += np.multiply(diff, V[j, rows, None], out=term)
            along_q += np.multiply(diff, V[j, i0:], out=term)
        perp = np.maximum(np.abs(along_p, out=along_p), np.abs(along_q, out=along_q), out=along_p)
        valid = perp > 1e-12 * np.sqrt(np.maximum(d2, 1e-300, out=term), out=term)
        ratio = np.divide(d2, 2.0 * perp, out=np.full_like(d2, math.inf), where=valid)
        best = min(best, float(ratio.min()))
    if not (best > 0):
        raise SurfaceError("touching radius estimate is not positive")
    return best


def touching_radius(surface: Surface, sample_budget: int = 2000, seed: int = 0) -> float:
    """estimate_touching_radius, memoised on the surface per
    (sample_budget, seed) like `Surface.probe_geometry`, whose normals and
    curvatures it reads."""
    key = (int(sample_budget), int(seed))
    return surface._memo(("rho",) + key, lambda: estimate_touching_radius(surface, *key))


# `_graph_heights_batch` brackets each height by the touching-ball bound
# widened by this factor
_GRAPH_BRACKET_EXPAND = 1.05
# `_roots_along` stops a row once its Newton step moves the point by less
# than this fraction of |start| + |t*direction|, t the bracket end farther from 0
_ROUNDING = 4.0 * np.finfo(float).eps


def _graph_heights_batch(surface: Surface, bases: np.ndarray, normals: np.ndarray,
                         offsets: np.ndarray, rho: float) -> np.ndarray:
    """Graph heights u: where the lines base + offset + u*normal cross the
    surface, by `_roots_along` on the touching-ball height bound, slightly
    expanded. offsets are ambient tangent offsets. A height is NaN where
    that bracket does not straddle the surface or meets NaN."""
    cap = rho**2 - np.einsum("md,md->m", offsets, offsets)
    hb = np.where(cap > 0.0, rho - np.sqrt(np.maximum(cap, 0.0)), rho)
    hb = _GRAPH_BRACKET_EXPAND * hb + 1e-12 * rho
    return _roots_along(surface, bases + offsets, normals, -hb, hb)


def _roots_along(surface, starts, directions, lo, hi) -> np.ndarray:
    """Roots t in [lo, hi] of g(t) = phi(start + t*direction), batched over
    the rows, by Newton with g' = grad phi . direction (one `jet` call per
    step) from where the chord between the ends crosses zero. The bracket's
    midpoint replaces a Newton step that leaves the bracket or is not at
    most half the row's previous step. A row stops once its Newton step is
    within rounding or its bracket cannot be halved, so it does not depend
    on the other rows. A zero at an end is that end; a row whose ends do
    not straddle, or that meets NaN, gives NaN."""
    starts, directions = np.broadcast_arrays(starts, directions)
    g_lo, g_hi = np.split(surface.jet(np.concatenate(
        [starts + lo[:, None] * directions, starts + hi[:, None] * directions]), 0)[0], 2)
    straddle = np.sign(g_lo) * np.sign(g_hi)  # NaN where an end is NaN
    t = np.where(straddle == 0, np.where(g_lo == 0, lo, hi), math.nan)
    rows = np.nonzero(straddle < 0)[0]
    x0, d, lo, hi, g_lo, g_hi = (a[rows] for a in (starts, directions, lo, hi, g_lo, g_hi))
    tiny = _ROUNDING * (np.sqrt(row_dots(x0, x0) / row_dots(d, d)) + np.maximum(-lo, hi))
    s_lo, prev = np.sign(g_lo), hi - lo
    tr = lo + (hi - lo) * (g_lo / (g_lo - g_hi))  # where the chord crosses zero
    while rows.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            g, grad = surface.jet(x0 + tr[:, None] * d, 1)
            step = -g / row_dots(grad, d)
        below = np.sign(g) == s_lo
        lo, hi = np.where(below, tr, lo), np.where(below, hi, tr)
        newton, mid = tr + step, 0.5 * (lo + hi)
        t[rows] = np.where(g == 0, tr, np.clip(newton, lo, hi))
        go = (np.abs(step) > tiny) & (lo < mid) & (mid < hi)  # a NaN step stops its row
        take = (lo < newton) & (newton < hi) & (np.abs(step) <= 0.5 * np.abs(prev))
        nxt = np.where(take, newton, mid)
        rows, x0, d, lo, hi, s_lo, tiny = (a[go] for a in (rows, x0, d, lo, hi, s_lo, tiny))
        prev, tr = (nxt - tr)[go], nxt[go]
    return t
