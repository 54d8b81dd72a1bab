import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soapbubble as sb
from soapbubble.geometry import tangent_frame
from soapbubble.surfaces import _bisect_along, quadratic

from .oracles import (
    bisect_along_full,
    cloud_area_loop,
    dense_projection_distance,
    ellipsoid_area_brute,
    ellipsoid_area_elliprg,
    ellipsoid_dense_points,
    ellipsoid_mean_curvature,
    ellipsoid_osc,
    ellipse_perimeter_brute,
    project_newton_loop,
    quadric_fit_loop,
    tangent_frames_batch,
    touching_ball_gradient,
    touching_ball_height,
    touching_radius_dense,
    voronoi_cell_area,
)

# frozen oracle values (recomputed below where cheap)
ELL111_H_POLE = 1.1
ELL111_H_EQUATOR = 221.0 / 242.0  # 0.91322314...
ELL111_OSC = 0.18677685950413236


class TestEvaluateSample:
    def test_unit_sphere_seed_outside(self, unit_sphere):
        s = sb.evaluate_sample(unit_sphere, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(s.point, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(s.inner_normal, [-1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(s.principal_curvatures, [1.0, 1.0], atol=1e-12)
        assert s.mean_curvature == pytest.approx(1.0, abs=1e-12)

    def test_ellipsoid_pole_matches_symbolic(self, ell_111):
        s = sb.evaluate_sample(ell_111, [0.0, 0.0, 1.3])
        assert abs(ell_111.signed_distance(s.point)) < 1e-9
        assert s.mean_curvature == pytest.approx(ELL111_H_POLE, abs=1e-9)
        assert ellipsoid_mean_curvature(1, 1, 1.1, 1e-7, 0.0) == pytest.approx(1.1, abs=1e-5)

    def test_ellipsoid_equator_matches_symbolic(self, ell_111):
        s = sb.evaluate_sample(ell_111, [1.05, 0.0, 0.0])
        assert s.mean_curvature == pytest.approx(ELL111_H_EQUATOR, abs=1e-9)
        assert ellipsoid_mean_curvature(1, 1, 1.1, math.pi / 2, 0.0) == pytest.approx(
            ELL111_H_EQUATOR, abs=1e-12
        )

    def test_mean_is_average_of_principal(self, ell_111):
        rng = np.random.default_rng(1)
        for seed in rng.standard_normal((20, 3)) * 1.4:
            s = sb.evaluate_sample(ell_111, seed)
            assert s.mean_curvature == pytest.approx(float(s.principal_curvatures.mean()), abs=1e-12)
            assert np.all(np.diff(s.principal_curvatures) >= 0)

    @pytest.mark.parametrize("surface_name", ["unit_sphere", "ell_111", "radial_bumpy"])
    def test_h_matches_normal_divergence(self, surface_name, request):
        # H should agree with a finite-difference divergence of the normal field
        surface = request.getfixturevalue(surface_name)
        rng = np.random.default_rng(2)
        h = 1e-5
        for seed in rng.standard_normal((10, 3)):
            s = sb.evaluate_sample(surface, seed)
            frame = tangent_frame(s.inner_normal)
            trace = 0.0
            for e in frame:
                nup, _ = surface.curvature_at(surface.project(s.point + h * e))
                num, _ = surface.curvature_at(surface.project(s.point - h * e))
                trace += float((nup - num) @ e) / (2 * h)
            h_fd = -trace / surface.n
            assert h_fd == pytest.approx(s.mean_curvature, abs=1e-4)

    def test_symbolic_oracle_agreement_random_points(self, ell_111):
        rng = np.random.default_rng(3)
        for _ in range(15):
            th = rng.uniform(0.2, math.pi - 0.2)
            ph = rng.uniform(0, 2 * math.pi)
            p = np.array(
                [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), 1.1 * math.cos(th)]
            )
            s = sb.evaluate_sample(ell_111, p)
            assert s.mean_curvature == pytest.approx(
                ellipsoid_mean_curvature(1, 1, 1.1, th, ph), abs=1e-9
            )


class TestOscillation:
    def test_sphere_radius_two(self):
        s = sb.Sphere([0.0, 0.0, 0.0], 2.0)
        rep = sb.mean_curvature_oscillation(s, 500)
        assert rep.osc <= 1e-10
        assert rep.min_h == pytest.approx(0.5, abs=1e-12)

    def test_ellipsoid_matches_oracle(self, ell_111):
        rep = sb.mean_curvature_oscillation(ell_111, 2000)
        oracle = ellipsoid_osc(1, 1, 1.1)
        assert rep.osc == pytest.approx(ELL111_OSC, rel=0.01)
        assert oracle == pytest.approx(ELL111_OSC, rel=1e-4)
        assert rep.max_h == pytest.approx(1.1, rel=1e-6)
        assert rep.min_h == pytest.approx(ELL111_H_EQUATOR, rel=1e-6)

    @pytest.mark.parametrize(
        "axes", [(1.0, 1.0, 1.1), (1.0, 1.0, 2.0), (1.0, 1.5, 2.5), (1e-3, 1e-3, 1.1e-3)]
    )
    def test_refined_extrema_closed_form(self, axes):
        # H at the end of axis i is the mean of a_i / a_j^2 over j != i; the
        # spheroids' minima lie on a ring of extrema
        a = np.array(axes)
        ends = [np.mean([a[i] / a[j] ** 2 for j in range(3) if j != i]) for i in range(3)]
        s = sb.Ellipsoid(axes)
        rep = sb.mean_curvature_oscillation(s, 4000, 0)
        # a few ulp: H is read on the surface to rounding, not 1e-12 off it
        assert rep.min_h == pytest.approx(min(ends), rel=1e-14, abs=0.0)
        assert rep.max_h == pytest.approx(max(ends), rel=1e-14, abs=0.0)
        for p in (rep.argmin, rep.argmax):
            assert abs(s.implicit(p)) <= 1e-10 * s.bounding_radius()
        # every row, ring rows included, stops within the objective's accuracy
        pts = s.probe_points(4000, 0)
        order = np.argsort(s.curvatures_batch(pts)[1].mean(axis=1))
        _, _, ok = sb.surfaces._refine_extremum(s, pts[np.r_[order[:5], order[-5:]]])
        assert ok.all()

    @pytest.mark.parametrize(
        "coeffs, min_h, max_h",
        [
            ([(2, 0, 0.15), (3, 0, 0.05)], 0.8422096297769672, 1.2797335880834475),
            (
                [(2, 0, 0.1), (3, 1, 0.05), (4, -2, 0.03), (5, 3, 0.02)],
                0.6060966277787876,
                1.3261002943895708,
            ),
            # a dumbbell: H bends sharply around the ring of its neck
            ([(2, 0, 1.8)], -6.8002205747938405, 1.2152784564741714),
        ],
    )
    def test_refined_extrema_harmonic(self, coeffs, min_h, max_h):
        # no worse than the projected finite-difference ascent reached
        s = sb.HarmonicRadial(coeffs)
        rep = sb.mean_curvature_oscillation(s, 4000, 0)
        assert rep.min_h <= min_h + 1e-12 * abs(min_h)
        assert rep.max_h >= max_h - 1e-12 * abs(max_h)
        for p in (rep.argmin, rep.argmax):
            assert abs(s.implicit(p)) <= 1e-10 * s.bounding_radius()

    def test_row_keeps_sample_unless_converged_and_improved(self, ell_111, monkeypatch):
        pts = ell_111.probe_points(500, 0)
        hs = ell_111.curvatures_batch(pts)[1].mean(axis=1)

        def fake(surface, seeds):
            # rows 0 and 5 improve but did not converge; rows 1 and 6 converged
            # but moved H inwards; row 2 converged and improved
            v = surface.curvatures_batch(seeds)[1].mean(axis=1)
            v = v + np.array([-1.0, 0.5, -0.25, 0.0, 0.0, 1.0, -0.5, 0.0, 0.0, 0.0])
            ok = np.array([False, True, True, True, True, False, True, True, True, True])
            return seeds + 1.0, v, ok

        monkeypatch.setattr(sb.surfaces, "_refine_extremum", fake)
        rep = sb.mean_curvature_oscillation(ell_111, 500, 0)
        i = np.argsort(hs)[2]
        assert rep.min_h == hs[i] - 0.25
        np.testing.assert_array_equal(rep.argmin, pts[i] + 1.0)
        assert rep.max_h == hs.max()
        np.testing.assert_array_equal(rep.argmax, pts[np.argmax(hs)])

    def test_flat_radial_graph_is_sphere(self, radial_unit):
        rep = sb.mean_curvature_oscillation(radial_unit, 500)
        assert rep.osc <= 1e-9

    def test_budget_precondition(self, unit_sphere):
        with pytest.raises(ValueError):
            sb.mean_curvature_oscillation(unit_sphere, 50)


class TestSignedDistance:
    def test_sphere_trivial_values(self, unit_sphere):
        assert unit_sphere.signed_distance([0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)
        assert unit_sphere.signed_distance([3.0, 0.0, 0.0]) == pytest.approx(-2.0, abs=1e-14)

    def test_ellipsoid_above_pole(self, ell_111):
        assert ell_111.signed_distance([0.0, 0.0, 1.2]) == pytest.approx(-0.1, abs=1e-10)

    def test_ellipsoid_matches_dense_projection_search(self, ell_111):
        dense = ellipsoid_dense_points([1, 1, 1.1], res=900)
        rng = np.random.default_rng(4)
        for xi in rng.uniform(-1.6, 1.6, size=(6, 3)):
            brute = dense_projection_distance(dense, xi)
            assert abs(ell_111.signed_distance(xi)) == pytest.approx(brute, abs=5e-3)

    @pytest.mark.parametrize("surface_name", ["unit_sphere", "ell_111", "radial_bumpy"])
    def test_one_lipschitz(self, surface_name, request):
        surface = request.getfixturevalue(surface_name)
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.8, 1.8, size=(10000, 3))
        b = a + rng.normal(scale=0.3, size=a.shape)
        da = surface.signed_distance(a)
        db = surface.signed_distance(b)
        gap = np.linalg.norm(a - b, axis=1)
        assert np.all(np.abs(da - db) <= gap + 1e-9)

    @given(
        cx=st.floats(-2, 2), cy=st.floats(-2, 2),
        r=st.floats(0.2, 3.0), px=st.floats(-5, 5), py=st.floats(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_sphere_closed_form_anywhere(self, cx, cy, r, px, py):
        s = sb.Sphere([cx, cy, 0.1], r)
        xi = np.array([px, py, -0.4])
        expect = r - np.linalg.norm(xi - s.center)
        assert s.signed_distance(xi) == pytest.approx(expect, abs=1e-12)


class TestHarmonicRadial:
    def test_level_function_at_origin(self):
        surf = sb.HarmonicRadial([(2, 0, 0.15)], dim=3)
        P = np.array([[0.3, -0.1, 0.2], [0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [1.2, 0.4, -0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_origin = surf.implicit(np.zeros(3))
            rows = surf.implicit(P)
        assert np.isfinite(at_origin) and at_origin > 0.0
        assert rows[1] == at_origin
        keep = [0, 2, 3]
        np.testing.assert_array_equal(rows[keep], surf.implicit(P[keep]))
        assert surf.signed_distance(np.zeros(3)) > 0.0
        # on the x_0 axis so near the origin that |x|^2 underflows, the level
        # is r(e_0) - |x| = r(e_0) in floating point
        for dim, xs in ((3, [1e-300, 1e-160, 1e-120]), (2, [1e-160])):
            surf = sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)], dim=dim)
            P = np.zeros((len(xs), dim))
            P[:, 0] = xs
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = surf.implicit(P)
            np.testing.assert_array_equal(rows, surf.radial(np.eye(dim)[0])[0])

    def test_positivity_guard_is_scale_free(self):
        # a sphere of radius 1e-3 and a small bump on it are surfaces
        u = np.random.default_rng(3).standard_normal((50, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for coeffs, small in (([], []), ([(2, 0, 0.15)], [(2, 0, 1.5e-4)])):
            tiny = sb.HarmonicRadial(small, base_radius=1e-3)
            unit = sb.HarmonicRadial(coeffs)
            np.testing.assert_allclose(tiny.radial(u), 1e-3 * unit.radial(u), rtol=1e-14)
        rejected = (([(2, 0, -2.0)], 1.0), ([(2, 0, -1.6)], 1.0), ([(2, 0, -1.6e-3)], 1e-3))
        for coeffs, base in rejected:
            with pytest.raises(ValueError, match="must stay positive"):
                sb.HarmonicRadial(coeffs, base_radius=base)

    def test_projection_matches_newton_loop(self, radial_bumpy):
        # the shared Lagrange-Newton solver with alpha = 1, beta = -P rounds
        # exactly as the projection's own Newton loop did
        rng = np.random.default_rng(17)
        u = rng.standard_normal((2000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        scale = np.concatenate(
            [rng.uniform(0.2, 0.95, 700), rng.uniform(0.98, 1.02, 600), rng.uniform(1.05, 2.5, 700)]
        )
        P = scale[:, None] * u * radial_bumpy.radial(u)[:, None]
        expected = project_newton_loop(radial_bumpy, P, radial_bumpy._projection_seeds(P))
        np.testing.assert_array_equal(radial_bumpy.project(P), expected)

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e4, 1e6])
    def test_newton_stop_is_scale_free(self, s):
        # phi = r - |x| is a length, so the solver's stop rule must scale
        # with the surface: lands as close at every size, and neither the
        # extent nor any projection falls back or fails at large sizes
        surf = sb.HarmonicRadial([(2, 0, 0.15 * s), (3, 0, 0.05 * s)], base_radius=s)
        X = surf.project(1.3 * surf.probe_points(500, 0))
        assert np.abs(surf.implicit(X)).max() <= 2e-12 * s
        top = sb.extent(surf, np.array([0.0, 0.0, 1.0]))
        assert top == pytest.approx(1.1319351028347675 * s, rel=1e-15)


@st.composite
def ellipsoid_and_points(draw):
    """An ellipsoid in R^2..R^4 and points inside, near and far from it, some
    with coordinates zeroed or set just above the 1e-14 zero threshold."""
    d = draw(st.integers(2, 4))
    axes = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=d, max_size=d)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        if np.linalg.norm(u) < 0.1:
            u = np.ones(d)
        scale = draw(st.one_of(st.floats(0.0, 0.95), st.floats(0.99, 1.01), st.floats(1.5, 50.0)))
        x = scale * axes * u / np.linalg.norm(u)
        mods = draw(st.lists(st.sampled_from((None, None, None, 0.0, 1e-13, -1e-13)),
                             min_size=d, max_size=d))
        for i, v in enumerate(mods):
            if v is not None:
                x[i] = v
        rows.append(x)
    return sb.Ellipsoid(axes), np.array(rows)


class TestEllipsoidProjection:
    @pytest.mark.parametrize(
        "axes, xi",
        [
            ([1.0, 2.0, 3.0], [1e-12, 0.2, 0.3]),
            ([0.3, 1.0, 5.0], [1e-13, 0.5, 1.0]),
            ([0.3, 1.0, 5.0], [5e-14, 0.3, -0.4]),
        ],
    )
    def test_tiny_coordinate_on_shortest_axis(self, axes, xi):
        # a coordinate just above the zero threshold along the shortest axis:
        # the secular root sits within 1e-12 of -min a_i^2, where solving for
        # t itself loses it to cancellation and lands off the surface
        ell = sb.Ellipsoid(axes)
        xi = np.array(xi)
        q = ell.project(xi)
        assert abs(ell.implicit(q)) <= 1e-12
        zeroed = xi.copy()
        zeroed[0] = 0.0
        dist, dist0 = np.linalg.norm(xi - q), np.linalg.norm(zeroed - ell.project(zeroed))
        assert abs(dist - dist0) <= 1e-12

    @given(case=ellipsoid_and_points())
    @settings(max_examples=200, deadline=None)
    def test_projection_properties(self, case):
        ell, P = case
        Q = ell.project(P)
        assert np.all(np.abs(ell.implicit(Q)) <= 1e-12)
        # x - q is along the normal at q; the floor max(a) is the scale of
        # the rounding in q, which a near point's tiny offset cannot resolve
        v = P - Q
        g = ell.implicit_grad(Q)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        resid = np.linalg.norm(v - np.einsum("md,md->m", v, g)[:, None] * g, axis=1)
        scale = np.maximum(np.linalg.norm(v, axis=1), ell.semi_axes.max())
        assert np.all(resid <= 1e-9 * scale)
        # the stationary point found is the nearest one
        dense = ell.sample_points(2000, np.random.default_rng(0))
        brute = np.linalg.norm(P[:, None, :] - dense[None], axis=2).min(axis=1)
        assert np.all(np.linalg.norm(v, axis=1) <= brute + 1e-12)
        for i in range(P.shape[0]):
            np.testing.assert_array_equal(ell.project(P[i]), Q[i])


def _sphere_cloud_1500() -> sb.PointCloud:
    rng = np.random.default_rng(11)
    u = rng.standard_normal((1500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return sb.PointCloud(u, -u, k=20)


_RHO_SURFACES = {
    "unit_sphere": lambda: sb.Sphere([0.0, 0.0, 0.0], 1.0),
    "sphere_r3_off_centre": lambda: sb.Sphere([0.3, -0.2, 0.5], 3.0),
    "ellipsoid_112": lambda: sb.Ellipsoid([1.0, 1.0, 2.0]),
    "ellipsoid_111": lambda: sb.Ellipsoid([1.0, 1.0, 1.1]),
    "harmonic": lambda: sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)]),
    "dumbbell": lambda: sb.HarmonicRadial([(2, 0, 1.8)]),
    "sphere_cloud": _sphere_cloud_1500,
}


def _fixed_samples(points, normals, kappa: float) -> sb.Surface:
    """A surface known only through fixed probe samples, normals and one
    principal curvature value, for the touching-radius scan."""

    class Samples(sb.Surface):
        dim = points.shape[1]

        def probe_points(self, budget, seed=0):
            return points

        def curvatures_batch(self, pts):
            return normals, np.full((pts.shape[0], self.n), kappa)

    return Samples()


class TestTouchingRadius:
    def test_sphere(self):
        for r in (0.5, 1.0, 2.5):
            s = sb.Sphere([0.0, 0.0, 0.0], r)
            assert sb.estimate_touching_radius(s, 500) == pytest.approx(r, rel=0.02)

    def test_ellipsoid_111(self, ell_111):
        assert sb.estimate_touching_radius(ell_111, 1000) == pytest.approx(1 / 1.1, rel=0.02)

    def test_ellipsoid_112(self, ell_112):
        # smallest curvature radius a^2/c = 1/2 at the long poles
        assert sb.estimate_touching_radius(ell_112, 1000) == pytest.approx(0.5, rel=0.02)

    def test_curvatures_below_touching_bound(self, ell_111):
        rho = sb.estimate_touching_radius(ell_111, 1000)
        _, kappas = ell_111.curvatures_batch(ell_111.probe_points(500, 0))
        assert np.all(np.abs(kappas) <= 1.0 / rho + 1e-6)


    @pytest.mark.parametrize("name", sorted(_RHO_SURFACES))
    @pytest.mark.parametrize("budget, seed", [(2000, 0), (2000, 1), (2000, 5), (500, 3)])
    def test_equals_dense_scan(self, name, budget, seed):
        # the screened scan returns the every-pair minimum bit for bit
        surface = _RHO_SURFACES[name]()
        rho = sb.estimate_touching_radius(surface, budget, seed)
        assert rho == touching_radius_dense(surface, budget, seed)

    @pytest.mark.parametrize(
        "budget, pair_budget",
        [(500, 200), (2000, 5000), (300, 5)],  # the last keeps fewer than 9
    )
    def test_equals_dense_scan_pair_budgets(self, ell_111, budget, pair_budget):
        rho = sb.estimate_touching_radius(ell_111, budget, 0, pair_budget)
        assert rho == touching_radius_dense(ell_111, budget, 0, pair_budget)

    def test_equals_dense_scan_in_the_plane(self):
        ell = sb.Ellipsoid([1.0, 0.6])
        for budget, seed in ((2000, 0), (500, 3)):
            rho = sb.estimate_touching_radius(ell, budget, seed)
            assert rho == touching_radius_dense(ell, budget, seed)
            assert rho == pytest.approx(0.36, rel=0.02)

    def test_duplicated_sample_bounds_nothing(self):
        # the repeated row makes a pair at distance 0, which no ratio uses
        rng = np.random.default_rng(12)
        u = rng.standard_normal((300, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u = np.vstack([u, u[7]])
        cloud = sb.PointCloud(u, -u, k=20)
        rho = sb.estimate_touching_radius(cloud, 400, 0)
        assert rho == touching_radius_dense(cloud, 400, 0)
        assert rho == pytest.approx(1.0, rel=0.2)

    def test_bound_starts_unbounded(self):
        # collinear samples with normals across the line bound nothing, so
        # the running bound stays inf until a pair with the far sample
        line = np.zeros((200, 3))
        line[:, 0] = np.linspace(0.0, 2.0, 200)
        normals = np.tile([0.0, 0.0, 1.0], (201, 1))
        normals[-1] = [0.0, 1.0, 0.0]
        flat = _fixed_samples(np.vstack([line, [[9.0, 0.0, 1.0]]]), normals, 0.0)
        rho = sb.estimate_touching_radius(flat, 200)
        assert rho == touching_radius_dense(flat, 200)
        assert rho == pytest.approx(0.5 * (7.0**2 + 1.0))

    def test_screen_slack_keeps_rounding_ties(self):
        # q lies on the unit ball touching p, so the pair's ratio ties the
        # curvature bound 1 up to rounding; in full it rounds below 1, while
        # the screen's other summation order, without its slack, puts it above
        p = np.array([-0.8835235704250701, 0.2958531929802981, 0.7219709837164454])
        nu = np.array([0.8009913132319615, 0.5071082108400855, -0.31820461754271434])
        q = np.array([0.19956767842647583, -0.02330030036399744, 0.891322744987247])
        # ten near samples and normals that make every other pair bound nothing
        across = np.cross(nu, q - p)
        across /= np.linalg.norm(across)
        near = p + np.outer(np.linspace(0.01, 0.1, 10), np.cross(nu, across))
        normals = np.vstack([nu, np.tile(across, (11, 1))])
        tie = _fixed_samples(np.vstack([p, near, q]), normals, 1.0)
        assert sb.estimate_touching_radius(tie, 100) == touching_radius_dense(tie, 100)

    def test_memory_peak(self):
        tracemalloc.start()
        try:
            sb.estimate_touching_radius(sb.Ellipsoid([1.0, 1.0, 2.0]), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_cache_is_keyed_by_budget_and_seed(self):
        # the cached estimate must not depend on which (budget, seed) was
        # asked for first
        ell = sb.Ellipsoid([1.0, 1.0, 2.0])
        at_seed3 = sb.touching_radius(ell, seed=3)
        at_seed0 = sb.touching_radius(ell, seed=0)
        assert at_seed3 != at_seed0
        assert at_seed0 == sb.estimate_touching_radius(sb.Ellipsoid([1.0, 1.0, 2.0]), seed=0)
        assert at_seed3 == sb.estimate_touching_radius(sb.Ellipsoid([1.0, 1.0, 2.0]), seed=3)
        assert sb.touching_radius(ell, seed=3) == at_seed3


class TestArea:
    def test_unit_sphere(self, unit_sphere):
        assert unit_sphere.area_estimate()[0] == pytest.approx(4 * math.pi, rel=1e-3)

    def test_circle_radius_two(self, circle2):
        assert circle2.area_estimate()[0] == pytest.approx(4 * math.pi, rel=1e-3)

    def test_ellipsoid_vs_brute_quadrature(self, ell_111):
        brute = ellipsoid_area_brute(1, 1, 1.1)
        assert ell_111.area_estimate()[0] == pytest.approx(brute, rel=5e-3)

    def test_ellipse_vs_brute(self):
        e = sb.Ellipsoid([1.0, 1.1])
        assert e.area_estimate()[0] == pytest.approx(ellipse_perimeter_brute(1.0, 1.1), rel=5e-3)

    def test_radial_unit_is_sphere(self, radial_unit):
        assert radial_unit.area_estimate()[0] == pytest.approx(4 * math.pi, rel=1e-6)

    @pytest.mark.parametrize(
        "axes", [(1, 1, 1.1), (1, 1, 2), (0.3, 1, 5), (1, 2, 3), (1, 1.1), (1, 0.6)]
    )
    def test_ellipsoid_closed_form(self, axes):
        area, rel_err = sb.Ellipsoid(axes).area_estimate()
        assert area == pytest.approx(ellipsoid_area_elliprg(axes), rel=1e-14)
        assert rel_err == 0.0


class TestLocalGraph:
    def test_sphere_bottom_patch(self, unit_sphere):
        s = sb.evaluate_sample(unit_sphere, [0.0, 0.0, -2.0])
        np.testing.assert_allclose(s.inner_normal, [0, 0, 1.0], atol=1e-12)
        patch = sb.local_graph(unit_sphere, s, 0.8)
        # frame is some orthonormal basis of z=0; height only depends on |x|
        u = patch.height(np.array([0.6, 0.0]))
        assert u == pytest.approx(1.0 - 0.8, abs=1e-10)
        assert patch.height(np.zeros(2)) == pytest.approx(0.0, abs=1e-10)
        assert np.linalg.norm(patch.gradient(np.zeros(2))) < 1e-9

    def test_patch_point_lies_on_surface(self, ell_111):
        s = sb.evaluate_sample(ell_111, [0.5, -0.6, 0.9])
        patch = sb.local_graph(ell_111, s, 0.5)
        for x in (np.array([0.2, 0.1]), np.array([-0.3, 0.25])):
            q = patch.point(x)
            assert abs(ell_111.signed_distance(q)) < 1e-9

    def test_ellipsoid_pole_taylor(self, ell_111):
        s = sb.evaluate_sample(ell_111, [0.0, 0.0, 2.0])
        patch = sb.local_graph(ell_111, s, 0.5)
        for r in (0.01, 0.02, 0.04):
            x = np.array([r, 0.0])
            quad = 0.5 * 1.1 * r**2  # both pole curvatures are 1.1
            assert abs(patch.height(x) - quad) < 5.0 * r**3

    def test_normal_formula_consistency(self, ell_111):
        # graph normal (nu_p - grad u)/sqrt(1+|grad u|^2) equals the surface normal
        s = sb.evaluate_sample(ell_111, [0.8, 0.3, 0.4])
        patch = sb.local_graph(ell_111, s, 0.4)
        x = np.array([0.15, -0.1])
        gu = patch.gradient_ambient(x)
        formula = (s.inner_normal - gu) / math.sqrt(1.0 + float(gu @ gu))
        direct = patch.normal_at(x)
        np.testing.assert_allclose(formula, direct, atol=1e-9)

    def test_touching_ball_bounds_hold(self, ell_111):
        rho = sb.touching_radius(ell_111)
        rng = np.random.default_rng(7)
        s = sb.evaluate_sample(ell_111, [0.0, 1.2, 0.3])
        patch = sb.local_graph(ell_111, s, 0.9 * rho)
        for _ in range(40):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            r = rng.uniform(0.0, 0.9 * rho)
            x = r * d
            u = patch.height(x)
            g = np.linalg.norm(patch.gradient(x))
            assert abs(u) <= touching_ball_height(rho, r) + 1e-7
            assert g <= touching_ball_gradient(rho, r) + 1e-7
            nu_q = patch.normal_at(x)
            assert float(s.inner_normal @ nu_q) >= math.sqrt(rho**2 - r**2) / rho - 1e-7

    def test_radius_must_stay_below_touching_radius(self, unit_sphere):
        s = sb.evaluate_sample(unit_sphere, [0.0, 0.0, -2.0])
        with pytest.raises(ValueError):
            sb.local_graph(unit_sphere, s, 1.5)

    def test_bracket_failure_reported(self, unit_sphere):
        # lie about the touching radius: heights beyond the true bound cannot bracket
        s = sb.evaluate_sample(unit_sphere, [0.0, 0.0, -2.0])
        patch = sb.GraphPatch(
            surface=unit_sphere,
            base=s.point,
            frame=tangent_frame(s.inner_normal),
            inner_normal=s.inner_normal,
            radius=2.4,
            rho=2.5,
        )
        with pytest.raises(sb.PatchBracketError):
            patch.height(np.array([2.2, 0.0]))


class _CountingImplicit:
    """A surface whose `implicit` calls are counted."""

    def __init__(self, surface):
        self.surface, self.calls = surface, 0

    def implicit(self, pts):
        self.calls += 1
        return self.surface.implicit(pts)


class TestBisectAlong:
    # stopping once no bracket can shrink must return what all the steps return
    def _both(self, surface, starts, directions, lo, hi):
        phi_lo = surface.implicit(starts + lo[:, None] * directions)
        counted = _CountingImplicit(surface)
        got = _bisect_along(counted, starts, directions, lo, hi, phi_lo, 100)
        want = bisect_along_full(surface, starts, directions, lo, hi, phi_lo, 100)
        assert got.tobytes() == want.tobytes()
        return got, counted.calls

    def test_graph_heights_stop_early(self, ell_112):
        rng = np.random.default_rng(3)
        feet = ell_112.probe_points(400, 0)
        normals, _ = ell_112.curvatures_batch(feet)
        feet = feet + 0.2 * np.cross(normals, rng.standard_normal(feet.shape))
        h = np.full(feet.shape[0], 0.5)
        t, calls = self._both(ell_112, feet, normals, -h, h)
        assert np.isfinite(t).all()
        assert calls < 100

    def test_root_at_zero(self, unit_sphere):
        u = np.eye(3)
        t, _ = self._both(unit_sphere, u, -u, np.full(3, -0.5), np.full(3, 0.5))
        assert np.all(np.abs(t) < 1e-15)

    def test_nan_row_runs_every_step(self, unit_sphere):
        u = np.eye(3)
        lo = np.array([-0.5, math.nan, -0.5])
        t, calls = self._both(unit_sphere, 0.9 * u, -u, lo, np.full(3, 0.5))
        assert math.isnan(t[1]) and np.isfinite(t[[0, 2]]).all()
        assert calls == 100

    def test_bracket_without_crossing(self, unit_sphere):
        # the second row's bracket lies inside the sphere: it converges to an end
        u = np.eye(3)[:2]
        lo, hi = np.array([-0.5, 0.1]), np.array([0.5, 0.3])
        t, _ = self._both(unit_sphere, np.array([[0.9, 0, 0], [0, 0.1, 0]]), u, lo, hi)
        assert t[1] == pytest.approx(0.3)

    def test_one_row(self, radial_bumpy):
        x = radial_bumpy.probe_points(1, 2)
        nu, _ = radial_bumpy.curvatures_batch(x)
        self._both(radial_bumpy, x + 0.01 * nu, nu, np.array([-0.2]), np.array([0.2]))


class TestPointCloud:
    def test_sphere_cloud_curvature(self, sphere_cloud):
        s = sb.evaluate_sample(sphere_cloud, [2.0, 0.0, 0.0])
        assert s.mean_curvature == pytest.approx(1.0, rel=0.02)

    def test_sphere_cloud_signed_distance(self, sphere_cloud):
        assert sphere_cloud.signed_distance([0, 0, 0]) == pytest.approx(1.0, abs=0.01)
        assert sphere_cloud.signed_distance([1.5, 0, 0]) == pytest.approx(-0.5, abs=0.01)

    def test_sphere_cloud_area_and_rho(self, sphere_cloud):
        assert sphere_cloud.area_estimate()[0] == pytest.approx(4 * math.pi, rel=0.01)
        assert sb.estimate_touching_radius(sphere_cloud, 400) == pytest.approx(1.0, rel=0.05)

    def test_mixed_orientation_rejected(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((1500, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        normals = -u.copy()
        normals[rng.random(1500) < 0.5] *= -1.0
        with pytest.raises(sb.OrientationError):
            sb.PointCloud(u, normals)

    def test_two_disjoint_spheres_components(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((1200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = np.vstack([u, u + [5.0, 0, 0]])
        normals = np.vstack([-u, -u])
        pc = sb.PointCloud(pts, normals)
        assert len(np.unique(pc.component_labels())) == 2

    def test_sparse_cloud_rejected(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((8, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        with pytest.raises(sb.SparseNeighborhoodError):
            sb.PointCloud(u, -u, k=20)


class TestPointCloudCapabilities:
    """The members through which the pipeline asks a surface what a point
    cloud answers differently: nothing lies between its samples, and its
    distance error sets its tolerances."""

    def test_stationary_keeps_seeds(self, sphere_cloud):
        rng = np.random.default_rng(5)
        seeds = np.vstack([sphere_cloud.points[:4], rng.uniform(-1, 1, (3, 3))])
        beta = rng.standard_normal(seeds.shape)
        for alpha in (0.0, 1.0):
            x, ok = sphere_cloud.stationary(quadratic(alpha, beta), seeds)
            np.testing.assert_array_equal(x, seeds)
            assert x is not seeds
            assert ok.dtype == bool and ok.shape == (7,) and not ok.any()

    def test_settle_returns_input(self, sphere_cloud, ell_111):
        P = np.random.default_rng(6).uniform(-1, 1, (9, 3))
        assert sphere_cloud.settle(P) is P
        np.testing.assert_array_equal(ell_111.settle(P), ell_111.project(P))

    def test_critical_tolerances(self, sphere_cloud, ell_111):
        diam = sphere_cloud.diameter_hint()
        default = max(1.5 * sphere_cloud.spacing**2, 1e-6 * diam)
        assert sphere_cloud.critical_tolerances(None) == (default, default)
        assert sphere_cloud.critical_tolerances(3e-4) == (3e-4, 3e-4)
        diam = ell_111.diameter_hint()
        assert ell_111.critical_tolerances(None) == (5e-10 * diam, 1e-11 * diam)
        assert ell_111.critical_tolerances(1e-6) == (1e-6, 1e-11 * diam)
        assert ell_111.critical_tolerances(1e-13) == (1e-13, 1e-13)

    def test_missing_member_names_type_and_member(self, sphere_cloud):
        with pytest.raises(sb.CapabilityError, match="PointCloud does not provide implicit_grad"):
            sphere_cloud.implicit_grad(sphere_cloud.points[:3])
        assert issubclass(sb.CapabilityError, NotImplementedError)
        assert issubclass(sb.CapabilityError, sb.SurfaceError)

    def test_only_analytic_extrema_refined(self, sphere_cloud, ell_111):
        assert sb.mean_curvature_oscillation(sphere_cloud, 400).refined is False
        assert sb.mean_curvature_oscillation(ell_111, 400).refined is True


def _ellipsoid_cloud(count: int, seed: int) -> sb.PointCloud:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * np.array([1.0, 1.2, 0.8])
    g = -pts / np.array([1.0, 1.44, 0.64])
    return sb.PointCloud(pts, g / np.linalg.norm(g, axis=1, keepdims=True), k=20)


class TestPointCloudCurvatureInterface:
    def test_batch_equals_nearest_sample_fits(self):
        # the stacked solve rounds differently from one lstsq per sample, so
        # the curvatures agree to rounding, not bit for bit
        for cloud in (_ellipsoid_cloud(800, seed=12), _ellipse_cloud(600, seed=21)):
            on = cloud.probe_points(150, seed=3)
            off = on + 0.02 * np.random.default_rng(4).standard_normal(on.shape)
            for pts in (on, off):
                nus, kappas = cloud.curvatures_batch(pts)
                nus_loop, kappas_loop = quadric_fit_loop(cloud, pts)
                np.testing.assert_array_equal(nus, nus_loop)
                np.testing.assert_allclose(kappas, kappas_loop, rtol=1e-12, atol=0)
                for p, nu, k in zip(pts, nus, kappas):
                    nu1, k1 = cloud.curvature_at(p)
                    np.testing.assert_array_equal(nu1, nu)
                    np.testing.assert_array_equal(k1, k)

    def test_too_few_neighbors_for_a_quadric(self):
        # a 3-D quadric has 6 terms; k = 4 neighbors cannot fit it
        cloud = _ellipsoid_cloud(200, seed=16)
        sparse = sb.PointCloud(cloud.points, cloud.normals, k=4)
        with pytest.raises(sb.SparseNeighborhoodError):
            sparse.curvatures_batch(cloud.points[:5])

    def test_spacing_is_median_neighbor_distance(self):
        cloud = _ellipsoid_cloud(500, seed=13)
        d = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
        np.fill_diagonal(d, np.inf)
        assert cloud.spacing == pytest.approx(float(np.median(d.min(axis=1))), rel=1e-12)

    @given(perm_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_row_permutation_invariance(self, perm_seed):
        base = _ellipsoid_cloud(400, seed=14)
        perm = np.random.default_rng(perm_seed).permutation(400)
        shuffled = sb.PointCloud(base.points[perm], base.normals[perm], k=20)
        queries = 1.05 * np.random.default_rng(15).standard_normal((40, 3))
        nu_a, k_a = base.curvatures_batch(queries)
        nu_b, k_b = shuffled.curvatures_batch(queries)
        np.testing.assert_allclose(nu_b, nu_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(k_b, k_a, rtol=0, atol=1e-12)


def _unit_cloud(count: int, seed: int) -> sb.PointCloud:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return sb.PointCloud(u, -u, k=20)


def _noisy_ellipsoid_cloud(count: int, seed: int) -> sb.PointCloud:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * np.array([1.0, 1.2, 1.4]) + 0.01 * rng.standard_normal((count, 3))
    g = -pts / np.array([1.0, 1.44, 1.96])
    return sb.PointCloud(pts, g, k=20)


def _ellipse_cloud(count: int, seed: int) -> sb.PointCloud:
    th = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, count)
    pts = np.stack([np.cos(th), 0.6 * np.sin(th)], axis=1)
    return sb.PointCloud(pts, -pts / np.array([1.0, 0.36]), k=10)


def _ray_grid_values(surface, origin, directions, ts):
    pts = origin[None, None, :] + ts[None, :, None] * directions[:, None, :]
    return surface.implicit(pts.reshape(-1, surface.dim)).reshape(len(directions), len(ts))


def _unit_rows(rng, count: int, dim: int) -> np.ndarray:
    d = rng.standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class TestPointCloudRays:
    # the nearest-sample walk along each ray must reproduce the kd-tree
    # signed distance at every grid point, bit for bit
    @pytest.mark.parametrize(
        "cloud, origin, t_max",
        [
            (lambda: _unit_cloud(1500, 0), np.zeros(3), 1.1),
            (lambda: _noisy_ellipsoid_cloud(3000, 7), np.zeros(3), 1.6),
            (lambda: _noisy_ellipsoid_cloud(3000, 7), np.array([0.3, -0.25, 0.4]), 2.5),
            (lambda: _ellipse_cloud(800, 9), np.array([0.05, 0.02]), 1.2),
        ],
        ids=["sphere", "noisy-ellipsoid", "off-centre", "ellipse-2d"],
    )
    def test_equals_implicit_on_grid(self, cloud, origin, t_max):
        cloud = cloud()
        dirs = _unit_rows(np.random.default_rng(1), 200, cloud.dim)
        ts = np.linspace(t_max / 2048, t_max, 2048)
        np.testing.assert_array_equal(
            cloud.implicit_on_rays(origin, dirs, ts), _ray_grid_values(cloud, origin, dirs, ts)
        )

    @given(seed=st.integers(0, 2**32 - 1), depth=st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_equals_implicit_from_inside(self, seed, depth):
        cloud = _parity_surface("cloud")
        rng = np.random.default_rng(seed)
        origin = depth * cloud.points[rng.integers(cloud.points.shape[0])]
        dirs = _unit_rows(rng, 8, 3)
        ts = np.linspace(2.5 / 512, 2.5, 512)
        np.testing.assert_array_equal(
            cloud.implicit_on_rays(origin, dirs, ts), _ray_grid_values(cloud, origin, dirs, ts)
        )

    def test_deadband(self, unit_sphere, sphere_cloud):
        assert unit_sphere.ray_deadband == 0.0
        assert sphere_cloud.ray_deadband == 0.75 * sphere_cloud.spacing


class TestPointCloudArea:
    def test_cells_match_loop_oracle(self):
        cloud = _noisy_ellipsoid_cloud(600, 3)
        _, idx = cloud.tree.query(cloud.points, k=21)
        frames = tangent_frame(cloud.normals)
        xy = np.matmul(cloud.points[idx[:, 1:]] - cloud.points[:, None, :], np.swapaxes(frames, 1, 2))
        cells = sb.surfaces._voronoi_cell_areas(xy)
        expected = [voronoi_cell_area(x) for x in xy]
        np.testing.assert_allclose(cells, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "basis, cell",
        [
            (np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0),
            (np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]]), math.sqrt(3) / 2),
        ],
        ids=["square", "hexagonal"],
    )
    @pytest.mark.parametrize("s", [0.03, 1.0])
    def test_lattice_cells(self, basis, cell, s):
        ij = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4) if (i, j) != (0, 0)])
        offs = s * ij @ basis
        offs = offs[np.argsort(np.linalg.norm(offs, axis=1), kind="stable")[:20]]
        area = sb.surfaces._voronoi_cell_areas(offs[None])[0]
        assert area == pytest.approx(cell * s**2, rel=1e-12)

    def test_cell_collapsed_to_the_sample(self):
        # most neighbors coincide with the sample: the clip box shrinks to a point
        offs = np.zeros((20, 2))
        offs[:5] = np.random.default_rng(2).standard_normal((5, 2))
        assert sb.surfaces._voronoi_cell_areas(offs[None])[0] == 0.0
        assert voronoi_cell_area(offs) == 0.0

    def test_surface_area_matches_loop(self):
        cloud = _noisy_ellipsoid_cloud(1500, 5)
        assert cloud.area_estimate()[0] == pytest.approx(cloud_area_loop(cloud), rel=1e-14)

    def test_curve_length_bit_identical_to_loop(self):
        cloud = _ellipse_cloud(600, 21)
        assert cloud.area_estimate()[0] == cloud_area_loop(cloud)

    @pytest.mark.parametrize("count, seed", [(600, 21), (800, 9)])
    def test_curve_length_near_closed_form(self, count, seed):
        # a sample whose 7 nearest neighbors all lie on one side of its
        # tangent line still gets a cell, from a wider query
        length, _ = _ellipse_cloud(count, seed).area_estimate()
        assert length == pytest.approx(sb.Ellipsoid([1.0, 0.6]).area_estimate()[0], rel=5e-3)


@functools.cache
def _parity_surface(name: str) -> sb.Surface:
    return {
        "sphere": lambda: sb.Sphere([0.3, -0.2, 0.5], 1.2),
        "ellipsoid": lambda: sb.Ellipsoid([1.0, 1.0, 1.1]),
        "harmonic": lambda: sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)]),
        "cloud": lambda: _ellipsoid_cloud(800, seed=12),
    }[name]()


class TestOnePointParity:
    @pytest.mark.parametrize("name", ["sphere", "ellipsoid", "harmonic", "cloud"])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_one_point_equals_its_row(self, name, seed, m):
        # a single (d,) point gives exactly the matching row of the batch
        surface = _parity_surface(name)
        rng = np.random.default_rng(seed)
        centre = getattr(surface, "center", np.zeros(surface.dim))
        P = centre + rng.uniform(0.8, 1.25, (m, 1)) * (surface.sample_points(m, rng) - centre)
        kernels = ["implicit", "project", "signed_distance", "protrusion"]
        if name != "cloud":
            kernels += ["implicit_grad", "implicit_hess"]
        for kernel in kernels:
            rows = getattr(surface, kernel)(P)
            for p, row in zip(P, rows):
                np.testing.assert_array_equal(getattr(surface, kernel)(p), row)
        Q = surface.project(P)
        nus, kappas = surface.curvatures_batch(Q)
        for q, nu, k in zip(Q, nus, kappas):
            nu1, k1 = surface.curvature_at(q)
            np.testing.assert_array_equal(nu1, nu)
            np.testing.assert_array_equal(k1, k)

    @given(
        d=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        last=st.sampled_from([None, 0.0, -0.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tangent_frame_one_normal_equals_its_row(self, d, seed, scale, last):
        W = scale * np.random.default_rng(seed).standard_normal((5, d))
        if last is not None:
            W[:, -1] = last
        for w, frame in zip(W, tangent_frame(W)):
            one = tangent_frame(w)
            np.testing.assert_array_equal(one, frame)
            np.testing.assert_array_equal(np.signbit(one), np.signbit(frame))
        for bad in (np.zeros(d), np.full(d, np.nan)):
            with pytest.raises(ValueError):
                tangent_frame(bad)

    @given(
        d=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
        last=st.sampled_from([None, 0.0, -0.0, 1e-17]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tangent_frame_matches_the_batch_build(self, d, seed, scale, last):
        # normals of any scale: orthonormal rows orthogonal to the normal,
        # within a few ulps of the batch build on the unit normals
        W = scale * np.random.default_rng(seed).standard_normal((6, d))
        if last is not None:
            W[:, -1] = last * scale
        frames = tangent_frame(W)
        units = W / np.linalg.norm(W, axis=1, keepdims=True)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(frames, tangent_frames_batch(units), rtol=0, atol=4 * eps)
        gram = np.einsum("mid,mjd->mij", frames, frames)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(d - 1), gram.shape), atol=8 * eps)
        np.testing.assert_allclose(np.einsum("mid,md->mi", frames, units), 0.0, atol=8 * eps)


class TestDeterminism:
    def test_probe_points_reproducible(self, ell_111):
        a = ell_111.probe_points(300, seed=42)
        b = ell_111.probe_points(300, seed=42)
        assert a is b  # cached
        fresh = sb.Ellipsoid([1.0, 1.0, 1.1]).probe_points(300, seed=42)
        np.testing.assert_array_equal(a, fresh)

    @pytest.mark.parametrize("name", ["unit_sphere", "ell_111", "radial_bumpy", "sphere_cloud"])
    def test_probe_points_read_only(self, request, name):
        # every caller shares the cached array, so no caller may write into it
        surface = request.getfixturevalue(name)
        pts = surface.probe_points(200, seed=5)
        before = pts.copy()
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            pts += 1.0
        np.testing.assert_array_equal(surface.probe_points(200, seed=5), before)
