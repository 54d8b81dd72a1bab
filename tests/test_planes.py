import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import soapbubble as sb
from soapbubble.geometry import reflect, unit
from soapbubble.intrinsic import build_geodesic_graph
from soapbubble.planes import (
    BOUNDARY_ORTHOGONALITY,
    INTERIOR_TANGENCY,
    CapExtractionError,
    _caps_contained,
    _mirror_cap,
    critical_caps,
    critical_position,
    extent,
    reflected_cap_inside,
)

from .oracles import ellipsoid_support


@pytest.fixture(scope="module")
def ell_graph(ell_111):
    return build_geodesic_graph(ell_111, 3000, k=8, seed=0)


def grid_scan_critical_level(surface, omega, lo, hi, step, tol):
    """Brute-force oracle: walk the level down from the extent and return the
    last level where the reflected cap is still contained."""
    samples = surface.probe_points(2000, 0)
    lam = hi - step
    last_inside = hi
    while lam > lo:
        if not reflected_cap_inside(surface, omega, lam, tol, samples=samples).inside:
            return last_inside
        last_inside = lam
        lam -= step
    return last_inside


class TestExtent:
    def test_unit_sphere(self, unit_sphere):
        assert extent(unit_sphere, [1, 0, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_offset_sphere(self):
        s = sb.Sphere([0, 0, 3.0], 1.0)
        assert extent(s, [0, 0, 1]) == pytest.approx(4.0, abs=1e-9)

    def test_ellipsoid_support_function(self, ell_111, ell_112):
        rng = np.random.default_rng(0)
        for ell in (ell_111, ell_112):
            for _ in range(6):
                w = rng.standard_normal(3)
                w /= np.linalg.norm(w)
                assert extent(ell, w) == pytest.approx(
                    ellipsoid_support(ell.semi_axes, w), abs=1e-7
                )


class TestReflect:
    def test_axis_example(self):
        np.testing.assert_allclose(
            reflect(np.array([2.0, 0, 0]), unit(np.array([1.0, 0, 0])), 0.0), [-2, 0, 0]
        )

    def test_formula_example(self):
        np.testing.assert_allclose(
            reflect(np.array([3.0, 1, 0]), unit(np.array([1.0, 0, 0])), 1.0), [-1, 1, 0]
        )

    @given(
        x=st.floats(-3, 3), y=st.floats(-3, 3), z=st.floats(-3, 3),
        lam=st.floats(-2, 2),
        wx=st.floats(-1, 1), wy=st.floats(-1, 1), wz=st.floats(0.1, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_involution_and_fixed_plane(self, x, y, z, lam, wx, wy, wz):
        xi = np.array([x, y, z])
        w = np.array([wx, wy, wz])
        w /= np.linalg.norm(w)
        twice = reflect(reflect(xi, unit(w), lam), unit(w), lam)
        np.testing.assert_allclose(twice, xi, atol=1e-12)
        on_plane = xi - (xi @ w - lam) * w
        np.testing.assert_allclose(reflect(on_plane, unit(w), lam), on_plane, atol=1e-12)


class TestContainment:
    def test_sphere_halfway_inside(self, unit_sphere):
        c = reflected_cap_inside(unit_sphere, np.array([1.0, 0, 0]), 0.5, 1e-9)
        assert c.inside

    def test_sphere_below_center_outside(self, unit_sphere):
        c = reflected_cap_inside(unit_sphere, np.array([1.0, 0, 0]), -0.2, 1e-9)
        assert not c.inside
        # witness mirror pokes out near the far pole
        assert c.witness_reflected[0] < -1.0
        assert c.worst_violation == pytest.approx(0.4, abs=0.05)

    def test_ellipsoid_above_symmetry_plane(self, ell_111):
        c = reflected_cap_inside(ell_111, np.array([0.0, 0, 1.0]), 0.05, 1e-9)
        assert c.inside

    def test_monotone_in_level(self, ell_111):
        # structural fact behind the critical-level definition on ovaloids
        w = np.array([0.3, -0.2, 0.93])
        w /= np.linalg.norm(w)
        levels = np.linspace(-0.4, 1.0, 29)
        states = [
            reflected_cap_inside(ell_111, w, lam, 1e-9, samples=ell_111.probe_points(2000, 0)).inside
            for lam in levels
        ]
        first_true = states.index(True)
        assert all(states[first_true:])


class TestContainmentScreen:
    # the critical search asks only for the mirrored cap's protrusion, which
    # projects just the points the level function puts outside; it must
    # answer exactly as the full signed-distance pass does
    @pytest.mark.parametrize("name", ["ell_111", "radial_bumpy", "offset_sphere", "sphere_cloud"])
    @given(
        direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        frac=st.floats(0.0, 1.0),
        coarse=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_reflected_cap_inside(self, request, name, direction, frac, coarse):
        surface = request.getfixturevalue(name)
        w = np.array(direction)
        assume(np.linalg.norm(w) > 0.1)
        pts = surface.probe_points(500, 0)
        lo, hi = -extent(surface, -w, 500, 0), extent(surface, w, 500, 0)
        lam = lo + frac * (hi - lo)
        tol = 1e-3 if coarse else 1e-11 * surface.diameter_hint()
        check = reflected_cap_inside(surface, w, lam, tol, samples=pts)
        assert _caps_contained(surface, w, np.array([lam]), tol, pts)[0] == check.inside
        _, mirrored = _mirror_cap(w, lam, pts)
        if mirrored.shape[0]:
            assert surface.protrusion(mirrored).max() == max(check.worst_violation, 0.0)

    @pytest.mark.parametrize("name", ["ell_111", "radial_bumpy", "offset_sphere", "sphere_cloud"])
    def test_stacked_levels_equal_one_at_a_time(self, request, name):
        # one protrusion call over many levels' caps, empty caps among them
        surface = request.getfixturevalue(name)
        w = unit(np.array([0.3, -0.5, 0.8]))
        pts = surface.probe_points(500, 0)
        lo, hi = -extent(surface, -w, 500, 0), extent(surface, w, 500, 0)
        levels = lo + (hi - lo) * np.array([0.5, 1.2, 0.1, 0.9, 1.5, 0.45, 0.0, 0.7, 1.01])
        tol = 1e-3 if name == "sphere_cloud" else 1e-11 * surface.diameter_hint()
        ok = _caps_contained(surface, w, levels, tol, pts)
        want = [reflected_cap_inside(surface, w, lam, tol, samples=pts).inside for lam in levels]
        assert ok.tolist() == want
        assert ok[[1, 4, 8]].all() and not ok[[2, 6]].any()

    @pytest.mark.parametrize("name", ["ell_111", "radial_bumpy", "offset_sphere", "sphere_cloud"])
    def test_protrusion_near_the_surface(self, request, name):
        # points within rounding of the surface, on both sides
        surface = request.getfixturevalue(name)
        on = surface.project(surface.probe_points(200, 3))
        centre = on.mean(axis=0)
        scale = np.array([-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3])
        P = (centre + (1.0 + scale[:, None, None]) * (on - centre)).reshape(-1, surface.dim)
        expected = np.maximum(-surface.signed_distance(P), 0.0)
        np.testing.assert_array_equal(surface.protrusion(P), expected)

    def test_projects_only_rows_the_level_function_puts_outside(self):
        class NanAtFirstRow(sb.Ellipsoid):
            def implicit(self, P):
                f = np.array(super().implicit(P), dtype=float)
                f[0] = np.nan
                return f

        surface = NanAtFirstRow([1.0, 1.0, 1.1])
        projected = []
        project = surface.project
        surface.project = lambda P: projected.append(np.array(P)) or project(P)
        w = np.array([0.3, -0.2, 0.93]) / np.linalg.norm([0.3, -0.2, 0.93])
        pts = surface.probe_points(2000, 0)
        _, mirrored = _mirror_cap(w, -0.05, pts)
        outside = ~(surface.implicit(mirrored) >= 0.0)
        assert outside[0] and 1 < outside.sum() < mirrored.shape[0]
        assert not _caps_contained(surface, w, np.array([-0.05]), 1e-9, pts)[0]
        assert len(projected) == 1
        np.testing.assert_array_equal(projected[0], mirrored[outside])
        # the full pass projects every row
        reflected_cap_inside(surface, w, -0.05, 1e-9, samples=pts)
        np.testing.assert_array_equal(projected[1], mirrored)


class TestCriticalPosition:
    def test_offset_sphere_every_axis(self):
        s = sb.Sphere([0.3, -0.2, 0.5], 1.0)
        for i, expect in enumerate([0.3, -0.2, 0.5]):
            cp = critical_position(s, np.eye(3)[i])
            assert cp.level == pytest.approx(expect, abs=1e-6)
            assert cp.degenerate_contact  # exact symmetry touches everywhere

    def test_ellipsoid_axis_symmetry(self, ell_111):
        cp = critical_position(ell_111, np.array([0.0, 0, 1.0]))
        assert cp.level == pytest.approx(0.0, abs=1e-6)

    def test_ellipsoid_diagonal_matches_grid_scan(self, ell_111):
        w = np.array([1.0, 0, 1.0]) / math.sqrt(2)
        cp = critical_position(ell_111, w, tol=1e-7)
        oracle = grid_scan_critical_level(
            ell_111, w, lo=-cp.extent, hi=cp.extent, step=5e-4, tol=1e-7
        )
        assert cp.level == pytest.approx(oracle, abs=1e-3)
        assert cp.level < cp.extent

    def test_contact_gap_and_margin(self, ell_111):
        w = np.array([1.0, 0, 1.0]) / math.sqrt(2)
        cp = critical_position(ell_111, w, tol=1e-8)
        assert cp.contact_gap <= 10 * cp.tol + 1e-9
        # a hair above the critical level the mirrored cap sits strictly inside
        above = reflected_cap_inside(
            ell_111, w, cp.level + 10 * cp.tol, 1e-12, samples=ell_111.probe_points(2000, 0)
        )
        assert above.worst_violation < 0.0

    def test_default_tol_leaves_no_protrusion_above_level(self, ell_111):
        # the level must sit where the protrusion crosses zero, not where it
        # falls to the level resolution tol
        rng = np.random.default_rng(0)
        samples = ell_111.probe_points(2000, 0)
        for _ in range(4):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            cp = critical_position(ell_111, w)
            above = reflected_cap_inside(
                ell_111, w, cp.level + 10 * cp.tol, 1e-12, samples=samples
            )
            assert above.worst_violation < 0.0

    def test_level_does_not_drift_with_tol(self, ell_111):
        # a finer resolution refines the same level instead of raising it
        w = np.array([1.0, 0, 1.0]) / math.sqrt(2)
        coarse = critical_position(ell_111, w, tol=1e-7)
        fine = critical_position(ell_111, w, tol=1e-9)
        assert abs(coarse.level - fine.level) <= 2e-7

    def test_rigid_motion_equivariance(self):
        # translating shifts the level by t . omega
        w = np.array([1.0, 0, 1.0]) / math.sqrt(2)
        base = critical_position(sb.Ellipsoid([1, 1, 1.1]), w, tol=1e-8)
        t = np.array([0.2, -0.1, 0.4])

        class Shifted(sb.Ellipsoid):
            def implicit(self, pts):
                return super().implicit(np.asarray(pts, dtype=float) - t)

            def implicit_grad(self, pts):
                return super().implicit_grad(np.asarray(pts, dtype=float) - t)

            def implicit_hess(self, pts):
                return super().implicit_hess(np.asarray(pts, dtype=float) - t)

            def project(self, pts):
                return super().project(np.asarray(pts, dtype=float) - t) + t

            def sample_points(self, count, rng):
                return super().sample_points(count, rng) + t

        shifted = Shifted([1, 1, 1.1])
        moved = critical_position(shifted, w, tol=1e-8)
        assert moved.level == pytest.approx(base.level + float(t @ w), abs=1e-6)

    def test_rotation_invariance(self):
        # rotating surface and direction together leaves the level invariant
        th = 0.7
        R = np.array(
            [[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1]]
        )
        w = np.array([1.0, 0, 1.0]) / math.sqrt(2)
        base = critical_position(sb.Ellipsoid([1, 1, 1.1]), w, tol=1e-8)

        class Rotated(sb.Ellipsoid):
            def implicit(self, pts):
                return super().implicit(np.asarray(pts, dtype=float) @ R)

            def implicit_grad(self, pts):
                return super().implicit_grad(np.asarray(pts, dtype=float) @ R) @ R.T

            def implicit_hess(self, pts):
                h = super().implicit_hess(np.asarray(pts, dtype=float) @ R)
                return np.einsum("ia,...ab,jb->...ij", R, h, R)

            def project(self, pts):
                return super().project(np.asarray(pts, dtype=float) @ R) @ R.T

            def sample_points(self, count, rng):
                return super().sample_points(count, rng) @ R.T

        rotated = Rotated([1, 1, 1.1])
        moved = critical_position(rotated, R @ w, tol=1e-8)
        assert moved.level == pytest.approx(base.level, abs=1e-6)

    def test_boundary_case_reports_alignment(self, ell_111):
        w = np.array([1.0, 0, 1.0]) / math.sqrt(2)
        cp = critical_position(ell_111, w)
        assert cp.case in (INTERIOR_TANGENCY, BOUNDARY_ORTHOGONALITY)
        if cp.case == BOUNDARY_ORTHOGONALITY:
            assert cp.normal_alignment is not None
            assert cp.normal_alignment < 0.3


class TestCriticalCaps:
    def test_sphere_hemispheres(self, unit_sphere):
        g = build_geodesic_graph(unit_sphere, 2000, k=8, seed=0)
        cp = critical_position(unit_sphere, np.array([1.0, 0, 0]))
        caps = critical_caps(unit_sphere, cp, g)
        frac = len(caps.sigma_nodes) / g.node_count
        frac_hat = len(caps.sigma_hat_nodes) / g.node_count
        assert frac == pytest.approx(0.5, abs=0.05)
        assert frac_hat == pytest.approx(0.5, abs=0.05)
        # mirrored cap overlays the left portion
        mirrored = caps.sigma_reflected_points(g)
        assert np.abs(unit_sphere.signed_distance(mirrored)).max() < 1e-9

    def test_ellipsoid_axis_area_split(self, ell_111, ell_graph):
        cp = critical_position(ell_111, np.array([0.0, 0, 1.0]))
        caps = critical_caps(ell_111, cp, ell_graph)
        assert len(caps.sigma_nodes) / ell_graph.node_count == pytest.approx(0.5, abs=0.02)

    def test_boundary_hugs_plane(self, ell_111, ell_graph):
        cp = critical_position(ell_111, np.array([1.0, 0, 0.0]))
        caps = critical_caps(ell_111, cp, ell_graph)
        gap = np.abs(
            ell_graph.points[caps.boundary_nodes] @ cp.direction - cp.level
        )
        assert gap.max() <= 2.5 * ell_graph.mean_edge

    def test_anchor_too_far_raises(self, ell_111, ell_graph):
        from dataclasses import replace

        cp = critical_position(ell_111, np.array([1.0, 0, 0.0]))
        broken = replace(cp, tangency_point=np.array([50.0, 50.0, 50.0]))
        with pytest.raises(CapExtractionError):
            critical_caps(ell_111, broken, ell_graph)
