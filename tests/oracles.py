"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the library's own code paths: curvature
comes from symbolic first/second fundamental forms of explicit
parametrizations, harmonic radial functions and their level functions'
derivatives from sympy, lengths and areas from direct quadrature, and searches
from brute-force scans.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _harmonic_basis_expr(sp, us, l: int, m: int, dim: int):
    """Polynomial form of one basis function evaluated on unit directions."""
    if l < 0:
        raise ValueError("degree l must be non-negative")
    if dim == 2:
        ux, uy = us
        if l == 0:
            if m < 0:
                raise ValueError("sin(0 theta) vanishes: a degree-0 Fourier term needs m >= 0")
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


def harmonic_basis(l: int, m: int, dim: int):
    """One HarmonicRadial basis function of unit directions, from its sympy
    polynomial form lambdified without differentiation: u (k, dim) -> (k,)."""
    import sympy as sp

    us = sp.symbols(f"u0:{dim}", real=True)
    fn = sp.lambdify(us, _harmonic_basis_expr(sp, us, l, m, dim), "numpy")
    return lambda u: np.broadcast_to(np.asarray(fn(*u.T), dtype=float), u.shape[:1])


def harmonic_jet_sympy(coeffs, dim: int, base_radius: float = 1.0):
    """[phi, grad phi, hess phi] of a HarmonicRadial level function
    phi = r(x/|x|) - |x|, differentiated by sympy and lambdified:
    P (k, dim) -> [(k,), (k, dim), (k, dim, dim)]."""
    import sympy as sp

    xs = sp.symbols(f"x0:{dim}", real=True)
    rho = sp.sqrt(sum(x**2 for x in xs))
    us = [x / rho for x in xs]
    phi = sp.Float(base_radius) - rho
    for l, m, v in coeffs:
        phi += v * _harmonic_basis_expr(sp, us, l, m, dim)
    grad = [sp.diff(phi, x) for x in xs]
    tables = ([phi], grad, [sp.diff(g, x) for g in grad for x in xs])
    fns = [sp.lambdify(xs, table, "numpy", cse=True) for table in tables]

    def jet(P):
        k = P.shape[0]
        cols = [
            np.stack([np.broadcast_to(np.asarray(v, dtype=float), (k,)) for v in fn(*P.T)], axis=1)
            for fn in fns
        ]
        return [cols[0][:, 0], cols[1], cols[2].reshape(k, dim, dim)]

    return jet


@lru_cache(maxsize=None)
def _ellipsoid_h_lambdified(a: float, b: float, c: float):
    import sympy as sp

    th, ph = sp.symbols("th ph", real=True)
    X = sp.Matrix([a * sp.sin(th) * sp.cos(ph), b * sp.sin(th) * sp.sin(ph), c * sp.cos(th)])
    Xu, Xv = X.diff(th), X.diff(ph)
    E, F, G = Xu.dot(Xu), Xu.dot(Xv), Xv.dot(Xv)
    nvec = Xu.cross(Xv)
    nvec = nvec / sp.sqrt(nvec.dot(nvec))  # outward for this parametrization
    L = X.diff(th, 2).dot(nvec)
    M = X.diff(th, ph).dot(nvec)
    N = X.diff(ph, 2).dot(nvec)
    H_out = (E * N - 2 * F * M + G * L) / (2 * (E * G - F**2))
    return sp.lambdify((th, ph), sp.simplify(-H_out), "numpy")  # inner-normal sign


def ellipsoid_mean_curvature(a: float, b: float, c: float, theta: float, phi: float) -> float:
    """Mean curvature of the (a,b,c) ellipsoid at spherical parameters,
    oriented by the inner normal (sphere of radius R gives +1/R)."""
    return float(_ellipsoid_h_lambdified(a, b, c)(theta, phi))


def ellipsoid_osc(a: float, b: float, c: float, grid: int = 400) -> float:
    f = _ellipsoid_h_lambdified(a, b, c)
    th = np.linspace(1e-6, math.pi - 1e-6, grid)
    ph = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    h = np.asarray(f(TH, PH), dtype=float)
    return float(h.max() - h.min())


def ellipsoid_area_brute(a: float, b: float, c: float, res: int = 2500) -> float:
    """Plain 2D midpoint-rule area quadrature at high resolution."""
    th = (np.arange(res) + 0.5) * math.pi / res
    ph = (np.arange(2 * res) + 0.5) * 2 * math.pi / (2 * res)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    st, ct = np.sin(TH), np.cos(TH)
    cp, sp_ = np.cos(PH), np.sin(PH)
    xu = np.stack([a * ct * cp, b * ct * sp_, -c * st], axis=-1)
    xv = np.stack([-a * st * sp_, b * st * cp, np.zeros_like(st)], axis=-1)
    el = np.linalg.norm(np.cross(xu, xv), axis=-1)
    return float(el.sum() * (math.pi / res) * (2 * math.pi / (2 * res)))


def ellipsoid_area_elliprg(semi_axes, dps: int = 30) -> float:
    """Ellipsoid area 4 pi abc R_G(a^-2, b^-2, c^-2) in R^3, ellipse perimeter
    8 R_G(0, a^2, b^2) in R^2, with Carlson's R_G from mpmath at `dps`
    digits."""
    import mpmath as mp

    with mp.workdps(dps):
        a = [mp.mpf(float(v)) for v in semi_axes]
        if len(a) == 2:
            return float(8 * mp.elliprg(0, a[0] ** 2, a[1] ** 2))
        return float(4 * mp.pi * a[0] * a[1] * a[2] * mp.elliprg(*(1 / v**2 for v in a)))


def ellipse_perimeter_brute(a: float, b: float, res: int = 400000) -> float:
    th = (np.arange(res) + 0.5) * 2 * math.pi / res
    speed = np.hypot(-a * np.sin(th), b * np.cos(th))
    return float(speed.sum() * 2 * math.pi / res)


def ellipsoid_meridian_halflength(a: float, c: float) -> float:
    """Pole-to-pole arc length of the (a,a,c) ellipsoid meridian."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: math.hypot(a * math.cos(t), c * math.sin(t)), 0.0, math.pi)
    return float(val)


def ellipsoid_support(semi_axes, omega) -> float:
    semi_axes = np.asarray(semi_axes, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return float(np.sqrt(np.sum(semi_axes**2 * omega**2)))


def spherical_cap_area_fraction(polar_margin: float) -> float:
    """Area fraction of {polar angle < pi/2 - margin} on the unit sphere."""
    return (1.0 - math.sin(polar_margin)) / 2.0


def touching_radius_dense(
    surface, sample_budget: int = 2000, seed: int = 0, pair_budget: int = 1500
) -> float:
    """The touching-radius estimate with the pairwise bound taken by a dense
    scan of every ordered sample pair. It uses the library's probe samples
    and curvatures, so its value is what `estimate_touching_radius` must
    return bit for bit."""
    if sample_budget < 100:
        raise ValueError("sample_budget must be at least 100")
    pts = surface.probe_points(sample_budget, seed)
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
    return min(curv_bound, pair_bound)


def dense_projection_distance(param_points: np.ndarray, xi: np.ndarray) -> float:
    """Brute-force distance from xi to a dense sampling of the surface."""
    return float(np.linalg.norm(param_points - np.asarray(xi, dtype=float), axis=1).min())


def ellipsoid_dense_points(semi_axes, res: int = 700) -> np.ndarray:
    a = np.asarray(semi_axes, dtype=float)
    th = np.linspace(0, math.pi, res)
    ph = np.linspace(0, 2 * math.pi, 2 * res, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    pts = np.stack(
        [a[0] * np.sin(TH) * np.cos(PH), a[1] * np.sin(TH) * np.sin(PH), a[2] * np.cos(TH)],
        axis=-1,
    )
    return pts.reshape(-1, 3)


# ---------------------------------------------------------------------------
# explicit-constant evaluation in high precision (mpmath), kept separate from
# the library's float implementation


def constants_highprec(n: int, rho: float, area: float, k1: float = 1.0):
    import mpmath as mp

    mp.mp.dps = 60
    rho_m, area_m = mp.mpf(rho), mp.mpf(area)
    omega_n = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
    delta = min(rho_m / 2**6, rho_m / (8 * mp.sqrt(n)))
    L = area_m * 2**n / (omega_n * delta**n)
    r0 = rho_m * mp.sin(delta / (2 * rho_m))
    eps0 = min(mp.mpf(1) / 2, rho_m / (16 * L) * mp.sin(delta / (2 * rho_m)))
    N0 = 1 + int(mp.floor(mp.log(mp.mpf(1) / 2) / mp.log(1 - eps0)))
    log10_C1 = (N0 + 1) * mp.log10((1 + r0 * mp.sqrt(5)) * k1 + 1)
    diam_bound = area_m * 2 ** (2 * n) / (omega_n * rho_m**n)
    return {
        "omega_n": float(omega_n),
        "delta": float(delta),
        "L": float(L),
        "r0": float(r0),
        "eps0": float(eps0),
        "N0": N0,
        "log10_C1": float(log10_C1),
        "diam_bound": float(diam_bound),
    }


# ---------------------------------------------------------------------------
# per-point loops that the batched point-cloud code replaced, kept as its
# reference


def voronoi_cell_area(neigh_xy: np.ndarray, box: float | None = None) -> float:
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


def cloud_area_loop(cloud) -> float:
    """A point cloud's area (curve length in R^2) summed one sample at a time:
    half the tangent gap to the nearest neighbors on either side in R^2 (from
    32 neighbors where the 7 nearest lie on one side), the clipped Voronoi
    cell in the tangent plane in R^3."""
    from soapbubble.geometry import tangent_frame

    pts, normals = cloud.points, cloud.normals
    kk = min(8 if cloud.dim == 2 else cloud.k + 1, pts.shape[0])
    _, idx = cloud.tree.query(pts, k=kk)
    total = 0.0
    for i in range(pts.shape[0]):
        frame = tangent_frame(normals[i])
        if cloud.dim == 2:
            t = (pts[idx[i, 1:]] - pts[i]) @ frame[0]
            left, right = t[t < 0], t[t > 0]
            if not (len(left) and len(right)):
                _, wide = cloud.tree.query(pts[i], k=min(pts.shape[0], 32))
                t = (pts[wide[1:]] - pts[i]) @ frame[0]
                left, right = t[t < 0], t[t > 0]
            if len(left) and len(right):
                total += 0.5 * (right.min() - left.max())
        else:
            total += voronoi_cell_area((pts[idx[i, 1:]] - pts[i]) @ frame.T)
    return total


def quadric_fit_loop(cloud, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A point cloud's (inner normals, ascending principal curvatures) at the
    samples nearest to pts, one least-squares quadric fit at a time over the
    sample's own k-NN query."""
    from soapbubble.geometry import tangent_frame

    n = cloud.dim - 1
    quad_index = [(i, j) for i in range(n) for j in range(i, n)]
    _, nearest = cloud.tree.query(np.atleast_2d(np.asarray(pts, dtype=float)))
    normals, kappas = [], []
    for index in nearest:
        _, idx = cloud.tree.query(cloud.points[index], k=cloud.k + 1)
        nu = cloud.normals[index]
        frame = tangent_frame(nu)
        offs = cloud.points[idx[1:]] - cloud.points[index]
        x = offs @ frame.T  # (k, n)
        h = offs @ nu
        # design matrix: [1, x_i, x_i*x_j upper triangle]
        cols = [np.ones(len(h))]
        cols += [x[:, i] for i in range(n)]
        cols += [x[:, i] * x[:, j] for (i, j) in quad_index]
        coef, *_ = np.linalg.lstsq(np.stack(cols, axis=1), h, rcond=None)
        b = coef[1 : 1 + n]
        Q = np.zeros((n, n))
        for c, (i, j) in zip(coef[1 + n :], quad_index):
            if i == j:
                Q[i, i] = 2.0 * c
            else:
                Q[i, j] = Q[j, i] = c
        # Weingarten map of a height graph along the inner normal
        evals, evecs = np.linalg.eigh(np.eye(n) + np.outer(b, b))
        G_isqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
        W = G_isqrt @ (Q / math.sqrt(1.0 + float(b @ b))) @ G_isqrt
        normals.append(nu.copy())
        kappas.append(np.sort(np.linalg.eigvalsh(W)))
    return np.array(normals).reshape(-1, cloud.dim), np.array(kappas).reshape(-1, n)


def ray_hits_loop(surface, origin, directions, t_max, resolution=2048, deadband=0.0):
    """Ray crossings from `implicit` on the full t-grid, carrying the last
    definite sign through the deadband one grid column at a time."""
    ts = np.linspace(t_max / resolution, t_max, resolution)
    pts = origin[None, None, :] + ts[None, :, None] * directions[:, None, :]
    phi = surface.implicit(pts.reshape(-1, surface.dim)).reshape(len(directions), resolution)
    if deadband > 0.0:
        signs = np.zeros_like(phi)
        signs[phi > deadband] = 1.0
        signs[phi < -deadband] = -1.0
        for j in range(1, resolution):
            undecided = signs[:, j] == 0
            signs[undecided, j] = signs[undecided, j - 1]
    else:
        signs = np.sign(phi)
    signs[signs == 0] = 1.0
    return np.sum(np.diff(signs, axis=1) != 0, axis=1)


def ray_hits_one_block(surface, origin, directions, t_max, resolution=2048):
    """`count_ray_hits` with every ray in one block: all level values from
    one `implicit_on_rays` call."""
    ts = np.linspace(t_max / resolution, t_max, resolution)
    phi = surface.implicit_on_rays(np.asarray(origin, dtype=float), directions, ts)
    signs = np.where(phi >= 0.0, 1.0, -1.0)
    if surface.ray_deadband > 0.0:
        cols = np.arange(resolution)
        src = np.maximum.accumulate(np.where(np.abs(phi) > surface.ray_deadband, cols, -1), axis=1)
        signs = np.where(src >= 0, np.take_along_axis(signs, src, axis=1), 1.0)
    return np.sum(np.diff(signs, axis=1) != 0, axis=1)


def bisect_along_full(surface, starts, directions, lo, hi, phi_lo, steps):
    """Midpoints of the brackets [lo, hi] of the rows' lines start +
    t*direction after `steps` bisections of the sign of phi; phi_lo is phi
    at t = lo. The line searches ran this before
    `surfaces._roots_along`."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        phi_mid = surface.jet(starts + mid[:, None] * directions, 0)[0]
        same = np.sign(phi_mid) == np.sign(phi_lo)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        phi_lo = np.where(same, phi_mid, phi_lo)
    return 0.5 * (lo + hi)


def roots_along_bisection(surface, starts, directions, lo, hi):
    """`surfaces._roots_along` by 100 steps of `bisect_along_full`: NaN where
    the bracket's ends do not straddle the surface or one of them is NaN."""
    phi_lo = surface.jet(starts + lo[:, None] * directions, 0)[0]
    phi_hi = surface.jet(starts + hi[:, None] * directions, 0)[0]
    t = bisect_along_full(surface, starts, directions, lo, hi, phi_lo, 100)
    return np.where(np.sign(phi_lo) * np.sign(phi_hi) <= 0, t, math.nan)


# ---------------------------------------------------------------------------
# the Newton loop that projection ran on its own, kept as the reference for
# the shared Lagrange-Newton solver


def project_newton_loop(surface, P: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Nearest points on a HarmonicRadial surface by the damped Newton loop
    that projection ran before it shared one Lagrange-Newton solver with the
    constrained extrema: x - P - lam grad phi = 0, phi = 0, halving steps
    until the residual does not grow, with a multistart fallback from
    jittered radial casts. phi counts as a length relative to the surface's
    size: |phi| / (|grad phi| * bounding_radius())."""
    P = np.asarray(P, dtype=float)
    m, d = P.shape
    size = surface.bounding_radius()

    def off(phi, g):
        return np.abs(phi) / (np.maximum(np.linalg.norm(g, axis=-1), 1e-300) * size)

    def seed_for(Q, jitter):
        u = Q.copy()
        nrm = np.linalg.norm(u, axis=1, keepdims=True)
        tiny = nrm[:, 0] < 1e-12
        if tiny.any():
            u[tiny] = 0.0
            u[tiny, 0] = 1.0
            nrm = np.linalg.norm(u, axis=1, keepdims=True)
        u = u / nrm + jitter
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u * surface.radial(u)[:, None]

    def run(x0, targets):
        k = targets.shape[0]
        x = x0.copy()
        g = surface.jet(x, 1)[1]
        lam = np.einsum("md,md->m", x - targets, g) / np.maximum(
            np.einsum("md,md->m", g, g), 1e-300
        )
        active = np.ones(k, dtype=bool)
        for _ in range(80):
            phi, g, h = surface.jet(x, 2)
            F1 = x - targets - lam[:, None] * g
            res = np.maximum(np.abs(F1).max(axis=1), off(phi, g))
            active = res > 1e-12
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
            t = np.ones(int(active.sum()))
            xa, la = x[active], lam[active]
            base = np.maximum(np.abs(F1[active]).max(axis=1), off(phi[active], g[active]))
            for _ in range(10):
                xn = xa + t[:, None] * step[:, :d]
                ln = la + t * step[:, d]
                phin, gn = surface.jet(xn, 1)
                Fn = xn - targets[active] - ln[:, None] * gn
                worse = np.maximum(np.abs(Fn).max(axis=1), off(phin, gn)) > base
                if not worse.any():
                    break
                t = np.where(worse, 0.5 * t, t)
            x[active] = xa + t[:, None] * step[:, :d]
            lam[active] = la + t * step[:, d]
        phi, g = surface.jet(x, 1)
        ok = (np.abs(x - targets - lam[:, None] * g).max(axis=1) <= 1e-8) & (
            off(phi, g) <= 1e-10
        )
        return x, ok

    x, ok = run(seeds, P)
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
        raise RuntimeError(f"projection failed for {int((~ok).sum())} of {m} points")
    return x


# ---------------------------------------------------------------------------
# the plane-section march that produced one point per output point, kept as
# the reference for the coarse march and its two resamples


def _correct_fixed_tol(jet, omega, level, P, iters=30, ftol=1e-13):
    """Newton on {phi = 0, x . omega = level}, row by row, stopping a row once
    both residuals are below the absolute `ftol` (or after `iters` steps)."""
    P = np.array(P, dtype=float)
    for i in range(P.shape[0]):
        x = P[i]
        for _ in range(iters):
            f0 = float(jet(x[None], 0)[0][0])
            f1 = float(x @ omega) - level
            if max(abs(f0), abs(f1)) < ftol:
                break
            g = jet(x[None], 1)[1][0]
            gg, gw, ww = float(g @ g), float(g @ omega), float(omega @ omega)
            det = gg * ww - gw * gw
            if det <= 0.0:
                raise RuntimeError(f"parallel constraint gradients at {x}")
            x = x + ((gw * f1 - ww * f0) / det) * g + ((gw * f0 - gg * f1) / det) * omega
        P[i] = x
    return P


def trace_plane_section_fine(jet, omega, level, seed_point, step=0.02):
    """Points of the closed section {phi = 0, x . omega = level} through the
    seed's component: a predictor-corrector march whose step never exceeds
    the output spacing `step` (halved while a step turns the tangent by more
    than 0.35 rad, doubled back below 0.08 rad), closed once it returns
    within 1.2 steps of the seed, then resampled once at even arclength
    `step` and landed back on the section."""
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)

    def land(P):
        return _correct_fixed_tol(jet, omega, level, P)

    def tangent(p):
        t = np.cross(jet(p[None], 1)[1][0], omega)
        return t / np.linalg.norm(t)

    p0 = land(np.asarray(seed_point, dtype=float)[None])[0]
    pts = [p0]
    t_prev = tangent(p0)
    h = step
    travelled = 0.0
    for _ in range(200000):
        p = pts[-1]
        cand = land((p + h * t_prev)[None])[0]
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
            break
    else:
        raise RuntimeError("section did not close within the step budget")
    closed = np.vstack(pts + [p0])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    count = max(8, int(round(cum[-1] / step)))
    targets = np.linspace(0.0, cum[-1], count, endpoint=False)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return land(closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx]))


# ---------------------------------------------------------------------------
# a second tangent-frame build and one of three arclength interpolations the
# package used to carry, kept as references for the shared helpers


def tangent_frames_batch(normals: np.ndarray) -> np.ndarray:
    """Householder tangent frames of rows of unit normals (m, d) -> (m, d-1, d),
    with `np.linalg.norm` row norms and no renormalization of the input."""
    w = np.asarray(normals, dtype=float)
    d = w.shape[1]
    sign = np.where(w[:, -1] >= 0.0, 1.0, -1.0)
    v = w.copy()
    v[:, -1] += sign
    v /= np.linalg.norm(v, axis=1)[:, None]
    house = np.eye(d)[None, :, :] - 2.0 * v[:, :, None] * v[:, None, :]
    return np.swapaxes(house[:, :, : d - 1], 1, 2)


def resample_polyline_steps(points: np.ndarray, step: float):
    """(points, arc lengths, total) at arc positions 0, step, 2*step, ..., end
    along a polyline: the piecewise-geodesic chain's own interpolation."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    if total == 0.0:
        return points[:1].copy(), np.zeros(0), 0.0
    targets = np.arange(0.0, total, step)
    targets = np.concatenate([targets, [total]])
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    way = points[idx] + frac[:, None] * (points[idx + 1] - points[idx])
    return way, np.diff(targets), total
