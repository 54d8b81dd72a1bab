import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soapbubble as sb
from soapbubble import lemmas, surfaces
from soapbubble.geometry import row_dots
from soapbubble.intrinsic import build_geodesic_graph
from soapbubble.lemmas import (
    _root_along,
    figure_projection_check,
    normal_from_gradient,
    projected_curvature_bounds,
    slice_curvature_bounds,
    verify_annulus_normal,
    verify_distance_bounds,
    verify_graph_bounds,
    verify_normal_change,
    verify_normal_difference,
    verify_normal_tilt,
)
from soapbubble.planes import critical_position
from soapbubble.tracing import (
    TangentialSliceError,
    _correct,
    curve_curvatures,
    fit_circle,
    trace_plane_section,
)

from .oracles import roots_along_bisection


@pytest.fixture(scope="module")
def sphere_graph8(unit_sphere):
    return build_geodesic_graph(unit_sphere, 3000, k=8, seed=0)


@pytest.fixture(scope="module")
def sphere_graph16(unit_sphere):
    # routing stretch at k=8 exceeds the edge-length slack of the distance
    # envelope; distance checks need the denser connectivity
    return build_geodesic_graph(unit_sphere, 3000, k=16, seed=0)


class TestGraphBounds:
    @pytest.mark.parametrize("surface_name", ["unit_sphere", "ell_111", "ell_112"])
    def test_no_violations(self, surface_name, request):
        surface = request.getfixturevalue(surface_name)
        v = verify_graph_bounds(surface, trials=4000)
        assert v.violations == 0
        assert v.worst_slack > -1e-7

    def test_sphere_saturates_near_rim(self, unit_sphere):
        # equality is approached as the offset nears the patch radius
        v = verify_graph_bounds(unit_sphere, trials=4000)
        assert v.worst_slack < 1e-3

    def test_negative_control_rho_doubled(self, ell_111):
        rho = sb.touching_radius(ell_111)
        v = verify_graph_bounds(ell_111, trials=2000, rho=2 * rho)
        assert v.violations > 0


class TestDistanceBounds:
    def test_sphere(self, unit_sphere, sphere_graph16):
        v = verify_distance_bounds(unit_sphere, sphere_graph16, trials=4000)
        assert v.violations == 0

    def test_ellipsoid(self, ell_111):
        g = build_geodesic_graph(ell_111, 3000, k=16, seed=0)
        v = verify_distance_bounds(ell_111, g, trials=4000)
        assert v.violations == 0

    def test_coarse_graph_flagged(self, unit_sphere):
        g = build_geodesic_graph(unit_sphere, 100, k=8, seed=0)
        v = verify_distance_bounds(unit_sphere, g, trials=500)
        assert any("low-resolution" in n for n in v.notes)


class TestSliceCurvature:
    def test_sphere_slice_numbers(self, unit_sphere):
        # slice of the unit sphere at height 1/2: circle of radius sqrt(3)/2
        v = slice_curvature_bounds(unit_sphere, np.array([0.0, 0, 1.0]), 0.5, step=0.02)
        assert v.violations == 0
        tr = trace_plane_section(unit_sphere.jet, [0, 0, 1.0], 0.5, [1.0, 0, 0.5], step=0.02)
        k = curve_curvatures(tr.points)
        assert k.mean() == pytest.approx(1 / math.sqrt(0.75), abs=1e-9)
        assert k.max() - k.min() < 1e-6
        # induced orientation identity at a known point: nu.nu_raw = 0.75,
        # loose bound kappa_max/(nu.nu_raw) = 4/3 still clears the curvature
        assert 1 / 0.75 >= 1 / math.sqrt(0.75)

    def test_ellipsoid_tilted_slice(self, ell_111):
        w = np.array([0.3, 0.2, 0.93])
        v = slice_curvature_bounds(ell_111, w, 0.3, step=0.02, tol=1e-5)
        assert v.violations == 0

    def test_tangential_slice_rejected(self, unit_sphere):
        with pytest.raises(TangentialSliceError):
            slice_curvature_bounds(unit_sphere, np.array([0.0, 0, 1.0]), 0.999)

    def test_curvature_constant_along_sphere_slices(self, unit_sphere):
        for level in (0.0, 0.3, -0.6):
            tr = trace_plane_section(
                unit_sphere.jet, [0, 0, 1.0], level, [math.sqrt(1 - level**2), 0, level], step=0.01
            )
            k = curve_curvatures(tr.points)
            assert k.max() - k.min() < 1e-6


class TestBatchedCorrector:
    @pytest.mark.parametrize("name", ["unit_sphere", "ell_111", "radial_bumpy"])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_one_row_calls(self, request, name, seed, m):
        # each row lands on the section exactly where it would alone
        surface = request.getfixturevalue(name)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        pts = surface.probe_points(500, 0)
        h = pts @ w
        level = rng.uniform(*np.quantile(h, [0.2, 0.8]))
        near = pts[np.argsort(np.abs(h - level))[:m]]
        rough = near + (level - near @ w)[:, None] * w + 0.02 * rng.standard_normal((m, 3))
        landed, grads = _correct(surface.jet, w, level, rough)
        for i in range(m):
            alone, grad = _correct(surface.jet, w, level, rough[i : i + 1])
            np.testing.assert_array_equal(alone[0], landed[i])
            np.testing.assert_array_equal(grad[0], grads[i])
        np.testing.assert_array_equal(grads, surface.jet(landed, 1)[1])
        assert np.abs(surface.implicit(landed)).max() < 1e-13
        assert np.abs(row_dots(landed, w) - level).max() < 1e-13

    def test_parallel_gradients_rejected(self, unit_sphere):
        # at the pole the surface gradient is parallel to the plane normal
        rough = np.array([[0.6, 0.0, 0.1], [0.0, 0.0, 1.5]])
        w = np.array([0.0, 0.0, 1.0])
        with pytest.raises(TangentialSliceError):
            _correct(unit_sphere.jet, w, 1.0, rough)


class TestProjectedCurvature:
    def test_parallel_planes_identity(self, ell_111):
        # projecting within parallel planes is an isometry: kappa unchanged
        w = np.array([0.0, 0, 1.0])
        v = projected_curvature_bounds(ell_111, w, 0.25, w, step=0.02, tol=1e-6)
        assert v.violations == 0
        tr = trace_plane_section(ell_111.jet, w, 0.25, [0.9, 0, 0.25], step=0.02)
        from soapbubble.tracing import project_to_plane

        k_src = curve_curvatures(tr.points)
        k_proj = curve_curvatures(project_to_plane(tr.points, w))
        np.testing.assert_allclose(k_proj, k_src, atol=1e-9)

    def test_ellipsoid_tilted_30deg(self, ell_111):
        w1 = np.array([0.0, math.sin(math.pi / 6), math.cos(math.pi / 6)])
        v = projected_curvature_bounds(ell_111, w1, 0.2, np.array([0.0, 0, 1.0]), step=0.005, tol=1e-5)
        assert v.violations == 0

    def test_figure_ground_truth(self):
        result = figure_projection_check(step=0.02)
        assert result["kappa_projected_max_dev"] < 1e-6
        assert result["center_dev"] < 1e-6
        assert result["radius_dev"] < 1e-6
        assert result["bound_verdict"].violations == 0


class TestNormalChange:
    @pytest.mark.parametrize("surface_name", ["unit_sphere", "ell_111"])
    def test_no_violations(self, surface_name, request):
        surface = request.getfixturevalue(surface_name)
        v = verify_normal_change(surface, trials=2000)
        assert v.violations == 0

    def test_identity_direction(self, unit_sphere, monkeypatch):
        # ell = nu: heights coincide with the source patch, bound is slack
        monkeypatch.setattr(lemmas, "_EPS_RANGE", (1e-9, 1e-8))
        v = verify_normal_change(unit_sphere, trials=500)
        assert v.violations == 0

    def test_near_unit_eps(self, ell_111, monkeypatch):
        monkeypatch.setattr(lemmas, "_EPS_RANGE", (0.95, 0.99))
        v = verify_normal_change(ell_111, trials=500)
        assert v.violations == 0


class TestNormalDifference:
    def test_equal_gradients(self):
        n = normal_from_gradient(np.zeros((2, 2)))
        assert np.linalg.norm(n[0] - n[1]) == 0.0

    def test_explicit_slope_example(self):
        n = normal_from_gradient(np.array([[0.0, 0.0], [0.1, 0.0]]))
        lhs = np.linalg.norm(n[0] - n[1])
        assert lhs == pytest.approx(0.0996274, abs=1e-6)
        assert lhs <= math.sqrt(5) / 2 * 0.1

    def test_random_quadratics(self):
        v = verify_normal_difference(trials=10000)
        assert v.violations == 0

    def test_normal_formula(self):
        n = normal_from_gradient(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(n, [[0, 0, 1.0]])


class TestNormalTilt:
    def test_ellipsoid(self, ell_111):
        plane = critical_position(ell_111, np.array([1.0, 0, 0]))
        g = build_geodesic_graph(ell_111, 3000, k=8, seed=0)
        v = verify_normal_tilt(ell_111, plane, g)
        assert v.trials > 50
        assert v.violations == 0

    def test_sphere_band(self, unit_sphere, sphere_graph8):
        plane = critical_position(unit_sphere, np.array([0.0, 0, 1.0]))
        v = verify_normal_tilt(unit_sphere, plane, sphere_graph8)
        assert v.violations == 0

    def test_zero_band_vacuous(self, unit_sphere, sphere_graph8):
        plane = critical_position(unit_sphere, np.array([0.0, 0, 1.0]))
        v = verify_normal_tilt(unit_sphere, plane, sphere_graph8, delta=1e-12)
        assert v.trials == 0
        assert v.violations == 0

    def test_far_contact_point_changes_nothing(self, ell_112):
        # the check reads only the cap sigma, anchored at the tangency
        # point: where the mirrored contact lies does not matter
        from dataclasses import replace

        plane = critical_position(ell_112, np.array([1.0, 0, 0]), sample_budget=250)
        graph = build_geodesic_graph(ell_112, 2000, k=8, seed=0)
        far = replace(plane, contact_point=np.array([50.0, 50.0, 50.0]))
        delta = 0.25 * sb.touching_radius(ell_112)
        a, b = (verify_normal_tilt(ell_112, p, graph, delta=delta) for p in (plane, far))
        assert a.trials == 100 and a.violations == 0
        assert a.to_dict() == b.to_dict()


class TestRootAlong:
    def test_batch_rows_match_single_rows(self):
        sphere = sb.Sphere([0.0, 0.0, 0.0], 1.0)
        rng = np.random.default_rng(21)
        u = rng.standard_normal((12, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        # outward rays of length 0.6: crossing from inside, inside and
        # short of the surface, and starting outside
        radii = np.array([0.5, 0.8, 0.95, 0.6, 0.2, 0.1, 0.3, 0.25, 1.5, 1.2, 2.0, 1.01])
        starts, cap = radii[:, None] * u, 0.6
        alpha = _root_along(sphere, starts, u, cap)
        for i in range(12):
            alone = _root_along(sphere, starts[i : i + 1], u[i : i + 1], cap)
            np.testing.assert_array_equal(alpha[i : i + 1], alone)
        np.testing.assert_allclose(alpha[:4], 1.0 - radii[:4], atol=1e-12)
        assert np.isnan(alpha[4:8]).all()
        np.testing.assert_array_equal(alpha[8:], 0.0)

    def test_start_exactly_on_surface(self):
        # implicit is exactly 0 at t = 0: the crossing is there, not at the
        # next grid point cap / 63
        sphere = sb.Sphere([0.0, 0.0, 0.0], 1.0)
        starts = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert (sphere.implicit(starts) == 0.0).all()
        alpha = _root_along(sphere, starts, starts, 0.1)
        assert (alpha >= 0.0).all() and (alpha <= 1e-15).all()

    def test_nan_before_the_crossing(self):
        # a unit sphere whose level function is NaN for 0.95 < |x| < 0.97:
        # the ray from (0, 0, 0.9) meets NaN before it crosses at t = 0.1
        class NanShell(sb.Sphere):
            def implicit(self, P):
                r = np.linalg.norm(P, axis=1)
                return np.where((0.95 < r) & (r < 0.97), math.nan, super().implicit(P))

        start, up = np.array([[0.0, 0.0, 0.9]]), np.array([[0.0, 0.0, 1.0]])
        assert _root_along(sb.Sphere([0.0, 0, 0], 1.0), start, up, 0.2)[0] == pytest.approx(0.1)
        assert math.isnan(_root_along(NanShell([0.0, 0, 0], 1.0), start, up, 0.2)[0])


class TestLineSolverVerdicts:
    # the verdicts of the checks that find line crossings equal those of the
    # sign bisection that the line searches ran before `_roots_along`
    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_bisection(self, ell_112, seed, monkeypatch):
        rho = sb.touching_radius(ell_112)
        _, planes = sb.symmetry_center(ell_112, sample_budget=250, seed=seed)
        graph = build_geodesic_graph(ell_112, 2000, k=8, seed=seed)

        def verdicts():
            return [
                verify_graph_bounds(ell_112, trials=1000, seed=seed),
                verify_normal_change(ell_112, trials=1000, seed=seed),
                *(verify_normal_tilt(ell_112, p, graph, delta=0.25 * rho) for p in planes),
            ]

        new = verdicts()
        monkeypatch.setattr(surfaces, "_roots_along", roots_along_bisection)
        monkeypatch.setattr(lemmas, "_roots_along", roots_along_bisection)
        for a, b in zip(new, verdicts()):
            assert (a.trials, a.skipped, a.violations) == (b.trials, b.skipped, b.violations)
            assert a.worst_slack == pytest.approx(b.worst_slack, rel=0.0, abs=1e-12)


class TestAnnulusNormal:
    def test_sphere_equality(self, unit_sphere):
        v = verify_annulus_normal(unit_sphere, np.zeros(3), 1.0, 1.0, sample_budget=2000)
        assert v.violations == 0
        assert v.worst_slack == pytest.approx(0.0, abs=1e-9)

    def test_ellipsoid(self, ell_111):
        v = verify_annulus_normal(ell_111, np.zeros(3), 1.0, 1.1, sample_budget=4000)
        assert v.violations == 0

    def test_hypothesis_violation_rejected(self):
        dumbbell = sb.HarmonicRadial([(2, 0, 1.8)], dim=3)
        from soapbubble.symmetry import radial_bounds, symmetry_center

        O, _ = symmetry_center(dumbbell, sample_budget=2000)
        r_i, r_e, _, _ = radial_bounds(dumbbell, O, 2000)
        with pytest.raises(ValueError):
            verify_annulus_normal(dumbbell, O, r_i, r_e)


class TestCircleFit:
    def test_exact_circle(self):
        th = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        pts = np.stack([2 + 3 * np.cos(th), -1 + 3 * np.sin(th), np.full_like(th, 0.5)], axis=1)
        center, r = fit_circle(pts)
        np.testing.assert_allclose(center, [2, -1, 0.5], atol=1e-12)
        assert r == pytest.approx(3.0, abs=1e-12)
