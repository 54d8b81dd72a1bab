import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soapbubble as sb
from soapbubble.geometry import tangent_frame

from .oracles import (
    dense_projection_distance,
    ellipsoid_area_brute,
    ellipsoid_dense_points,
    ellipsoid_mean_curvature,
    ellipsoid_osc,
    ellipse_perimeter_brute,
    touching_ball_gradient,
    touching_ball_height,
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
        assert abs(sb.signed_distance(ell_111, s.point)) < 1e-9
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

    def test_flat_radial_graph_is_sphere(self, radial_unit):
        rep = sb.mean_curvature_oscillation(radial_unit, 500)
        assert rep.osc <= 1e-9

    def test_budget_precondition(self, unit_sphere):
        with pytest.raises(ValueError):
            sb.mean_curvature_oscillation(unit_sphere, 50)


class TestSignedDistance:
    def test_sphere_trivial_values(self, unit_sphere):
        assert sb.signed_distance(unit_sphere, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)
        assert sb.signed_distance(unit_sphere, [3.0, 0.0, 0.0]) == pytest.approx(-2.0, abs=1e-14)

    def test_ellipsoid_above_pole(self, ell_111):
        assert sb.signed_distance(ell_111, [0.0, 0.0, 1.2]) == pytest.approx(-0.1, abs=1e-10)

    def test_ellipsoid_matches_dense_projection_search(self, ell_111):
        dense = ellipsoid_dense_points([1, 1, 1.1], res=900)
        rng = np.random.default_rng(4)
        for xi in rng.uniform(-1.6, 1.6, size=(6, 3)):
            brute = dense_projection_distance(dense, xi)
            assert abs(sb.signed_distance(ell_111, xi)) == pytest.approx(brute, abs=5e-3)

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
        assert sb.signed_distance(s, xi) == pytest.approx(expect, abs=1e-12)


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


class TestArea:
    def test_unit_sphere(self, unit_sphere):
        assert sb.surface_area(unit_sphere) == pytest.approx(4 * math.pi, rel=1e-3)

    def test_circle_radius_two(self, circle2):
        assert sb.surface_area(circle2) == pytest.approx(4 * math.pi, rel=1e-3)

    def test_ellipsoid_vs_brute_quadrature(self, ell_111):
        brute = ellipsoid_area_brute(1, 1, 1.1)
        assert sb.surface_area(ell_111) == pytest.approx(brute, rel=5e-3)

    def test_ellipse_vs_brute(self):
        e = sb.Ellipsoid([1.0, 1.1])
        assert sb.surface_area(e) == pytest.approx(ellipse_perimeter_brute(1.0, 1.1), rel=5e-3)

    def test_radial_unit_is_sphere(self, radial_unit):
        assert sb.surface_area(radial_unit) == pytest.approx(4 * math.pi, rel=1e-6)


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
            assert abs(sb.signed_distance(ell_111, q)) < 1e-9

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


class TestPointCloud:
    def test_sphere_cloud_curvature(self, sphere_cloud):
        s = sb.evaluate_sample(sphere_cloud, [2.0, 0.0, 0.0])
        assert s.mean_curvature == pytest.approx(1.0, rel=0.02)

    def test_sphere_cloud_signed_distance(self, sphere_cloud):
        assert sb.signed_distance(sphere_cloud, [0, 0, 0]) == pytest.approx(1.0, abs=0.01)
        assert sb.signed_distance(sphere_cloud, [1.5, 0, 0]) == pytest.approx(-0.5, abs=0.01)

    def test_sphere_cloud_area_and_rho(self, sphere_cloud):
        assert sb.surface_area(sphere_cloud) == pytest.approx(4 * math.pi, rel=0.02)
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


class TestDeterminism:
    def test_probe_points_reproducible(self, ell_111):
        a = ell_111.probe_points(300, seed=42)
        b = ell_111.probe_points(300, seed=42)
        assert a is b  # cached
        fresh = sb.Ellipsoid([1.0, 1.0, 1.1]).probe_points(300, seed=42)
        np.testing.assert_array_equal(a, fresh)
