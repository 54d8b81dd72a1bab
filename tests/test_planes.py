import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soapbubble as sb
from soapbubble.geometry import reflect, unit
from soapbubble.intrinsic import build_geodesic_graph
from soapbubble.planes import (
    BOUNDARY_ORTHOGONALITY,
    INTERIOR_TANGENCY,
    CapExtractionError,
    EmbeddednessError,
    _highest_exit,
    critical_caps,
    critical_position,
    extent,
    reflected_cap_inside,
)

from .oracles import ellipsoid_support, highest_exit_full_grid


@pytest.fixture(scope="module")
def ell_graph(ell_111):
    return build_geodesic_graph(ell_111, 3000, k=8, seed=0)


@pytest.fixture(scope="module")
def cloud_1500():
    # the analyze-cloud benchmark's input size
    u = np.random.default_rng(0).standard_normal((1500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return sb.PointCloud(u, -u, k=20)


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
        pts = unit_sphere.probe_points(2000, 0)
        c = reflected_cap_inside(unit_sphere, np.array([1.0, 0, 0]), 0.5, 1e-9, pts)
        assert c.inside

    def test_sphere_below_center_outside(self, unit_sphere):
        pts = unit_sphere.probe_points(2000, 0)
        c = reflected_cap_inside(unit_sphere, np.array([1.0, 0, 0]), -0.2, 1e-9, pts)
        assert not c.inside
        # witness mirror pokes out near the far pole
        assert c.witness_reflected[0] < -1.0
        assert c.worst_violation == pytest.approx(0.4, abs=0.05)

    def test_ellipsoid_above_symmetry_plane(self, ell_111):
        pts = ell_111.probe_points(2000, 0)
        c = reflected_cap_inside(ell_111, np.array([0.0, 0, 1.0]), 0.05, 1e-9, pts)
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

    @pytest.mark.parametrize("surface", ["ell_111", "radial_bumpy", "sphere_cloud"])
    def test_critical_position_makes_one_pass(self, surface, request, monkeypatch):
        # the contact analysis reads the containment oracle's own levels:
        # one call per direction, the mirrored cap's exact values
        from soapbubble import planes

        surface = request.getfixturevalue(surface)
        calls = []

        def spy(*args, **kwargs):
            calls.append(reflected_cap_inside(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(planes, "reflected_cap_inside", spy)
        pts = surface.probe_points(2000, 0)
        for omega in np.eye(3):
            n = len(calls)
            cp = critical_position(surface, omega)
            assert len(calls) == n + 1
            check = calls[-1]
            cap = pts[pts @ omega > cp.level]
            assert check.cap_count == cap.shape[0] > 0
            np.testing.assert_array_equal(
                check.levels, surface.implicit(reflect(cap, omega, cp.level))
            )
            np.testing.assert_array_equal(check.witness_reflected, cp.contact_point)

    @pytest.mark.parametrize("name", ["ell_111", "north_star"])
    def test_never_projects(self, name, request, monkeypatch):
        # containment is the level function's sign, in the exit search and
        # in the contact analysis alike, and the boundary normal is read at
        # the contact point itself: no call projects
        surface = (
            sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)])
            if name == "north_star"
            else request.getfixturevalue(name)
        )

        def refuse(P):
            raise AssertionError("the moving-planes layer projected a point")

        monkeypatch.setattr(surface, "project", refuse)
        monkeypatch.setattr(surface, "signed_distance", refuse)
        center, planes = sb.symmetry_center(surface, sample_budget=1000)
        assert len(planes) == 3 and np.isfinite(center).all()
        cp = critical_position(surface, np.array([1.0, 0.0, 1.0]), sample_budget=1000)
        assert cp.case == BOUNDARY_ORTHOGONALITY and cp.normal_alignment < 0.1


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
            def jet(self, P, order):
                return super().jet(P - t, order)

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
            def jet(self, P, order):
                out = super().jet(P @ R, order)
                if order >= 1:
                    out[1] = out[1] @ R.T
                if order >= 2:
                    out[2] = np.einsum("ia,...ab,jb->...ij", R, out[2], R)
                return out

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


class TestExitLevelOracle:
    # the level from the samples' exit levels against the one-level
    # containment oracle on the same samples: the mirrored cap is contained
    # tol above the level and protrudes tol below it (an analytic surface
    # judged at threshold 0, a point cloud at its tol)
    @staticmethod
    def check(surface, omega, budget=2000):
        omega = unit(np.asarray(omega, dtype=float))
        cp = critical_position(surface, omega, sample_budget=budget)
        tol, threshold = surface.critical_tolerances(None)
        pts = surface.probe_points(budget, 0)
        above = reflected_cap_inside(surface, omega, cp.level + tol, threshold, samples=pts)
        assert above.inside, above.worst_violation
        if cp.level - tol > -extent(surface, -omega, budget, 0):
            below = reflected_cap_inside(surface, omega, cp.level - tol, threshold, samples=pts)
            assert not below.inside, below.worst_violation

    @given(direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_ellipsoid_random_directions(self, ell_111, direction):
        w = np.array(direction)
        if np.linalg.norm(w) > 0.1:
            self.check(ell_111, w)

    @pytest.mark.parametrize("omega", [[0.0, 0.0, 1.0], [0.3, -0.5, 0.8], [1.0, 0.2, 0.1]])
    def test_radial_bumpy(self, radial_bumpy, omega):
        self.check(radial_bumpy, omega)

    def test_dumbbell_along_its_axis(self):
        self.check(sb.HarmonicRadial([(2, 0, 1.8)]), [0.0, 0.0, 1.0])

    def test_fourier_curve(self):
        self.check(sb.HarmonicRadial([(2, 0, 0.2), (3, -1, 0.1)], dim=2), [1.0, 1.0])

    @pytest.mark.parametrize("omega", [[1.0, 0.0, 0.0], [0.3, -0.5, 0.8]])
    def test_sphere_cloud(self, sphere_cloud, omega):
        self.check(sphere_cloud, omega)

    def test_sphere_cloud_levels_unbiased(self, sphere_cloud):
        # every chord of the sphere leaves near level 0: their maximum must not
        # pick up a bisection width or the tolerance tol
        tol = sphere_cloud.critical_tolerances(None)[0]
        for w in np.eye(3):
            assert abs(critical_position(sphere_cloud, w).level) < 0.05 * tol


class TestExitSearchPruning:
    # the column-wise exit search stops lines that can no longer hold the
    # maximum; its level must equal the full grid's bit for bit
    @staticmethod
    def both(surface, omega, budget=2000):
        omega = unit(np.asarray(omega, dtype=float))
        pts = surface.probe_points(budget, 0)
        lo = -extent(surface, -omega, budget, 0)
        threshold = surface.critical_tolerances(None)[1]
        return (
            _highest_exit(surface, omega, pts, lo, threshold),
            highest_exit_full_grid(surface, omega, pts, lo, threshold),
        )

    @pytest.mark.parametrize("omega", [*np.eye(3).tolist(), [1.0, 1.0, 1.0]])
    def test_ellipsoid(self, ell_111, omega):
        new, full = self.both(ell_111, omega)
        assert new == full

    @pytest.mark.parametrize(
        "surface, omega",
        [
            (sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)]), [0.3, -0.5, 0.8]),
            (sb.HarmonicRadial([(2, 0, 1.8)]), [0.0, 0.0, 1.0]),
            (sb.HarmonicRadial([(2, 0, 0.2), (3, -1, 0.1)], dim=2), [1.0, 1.0]),
        ],
        ids=["north-star", "dumbbell", "fourier"],
    )
    def test_harmonic(self, surface, omega):
        new, full = self.both(surface, omega)
        assert new == full

    @pytest.mark.parametrize("axis", range(3))
    def test_offset_sphere(self, offset_sphere, axis):
        new, full = self.both(offset_sphere, np.eye(3)[axis])
        assert new == full

    @pytest.mark.parametrize("omega", [[1.0, 0.0, 0.0], [0.3, -0.5, 0.8]])
    def test_sphere_cloud(self, cloud_1500, omega):
        new, full = self.both(cloud_1500, omega, budget=500)
        assert new == full

    @given(direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_ellipsoid_random_directions(self, ell_112, direction):
        w = np.array(direction)
        if np.linalg.norm(w) > 0.1:
            new, full = self.both(ell_112, w)
            assert new == full

    def test_cloud_rows_at_most_half(self, cloud_1500, monkeypatch):
        # the saving as a deterministic count: level-function rows over the
        # three axes, as `symmetry_center` asks for them
        pts = cloud_1500.probe_points(500, 0)
        threshold = cloud_1500.critical_tolerances(None)[1]
        axes = [(w, -extent(cloud_1500, -w, 500, 0)) for w in np.eye(3)]
        rows = []
        inner = cloud_1500.implicit

        def counting(P):
            rows[-1] += P.shape[0]
            return inner(P)

        monkeypatch.setattr(cloud_1500, "implicit", counting)
        for search in (_highest_exit, highest_exit_full_grid):
            rows.append(0)
            for w, lo in axes:
                search(cloud_1500, w, pts, lo, threshold)
        assert rows[0] <= rows[1] / 2, rows


class TestEmbeddedness:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_inside_out_sphere_raises(self, dim):
        # a level function positive outside: the top sample's mirror leaves
        # at once. Sphere.signed_distance is its implicit, so it flips too
        class InsideOut(sb.Sphere):
            def jet(self, P, order):
                return [-a for a in super().jet(P, order)]

        surface = InsideOut(np.zeros(dim), 1.0)
        assert surface.signed_distance(np.zeros((1, dim)))[0] == -1.0
        with pytest.raises(EmbeddednessError):
            critical_position(surface, np.eye(dim)[-1])


def test_too_few_samples_raise(unit_sphere):
    with pytest.raises(ValueError, match="sample_budget must be at least 100"):
        critical_position(unit_sphere, np.eye(3)[-1], sample_budget=99)
    assert critical_position(unit_sphere, np.eye(3)[-1], sample_budget=100).level == (
        pytest.approx(0.0, abs=1e-6)
    )


class TestCriticalCaps:
    def test_sphere_hemispheres(self, unit_sphere):
        g = build_geodesic_graph(unit_sphere, 2000, k=8, seed=0)
        cp = critical_position(unit_sphere, np.array([1.0, 0, 0]))
        sigma = critical_caps(cp, g)
        assert len(sigma) / g.node_count == pytest.approx(0.5, abs=0.05)
        # mirrored cap overlays the left portion
        mirrored = reflect(g.points[sigma], cp.direction, cp.level)
        assert np.abs(unit_sphere.signed_distance(mirrored)).max() < 1e-9

    def test_ellipsoid_axis_area_split(self, ell_111, ell_graph):
        cp = critical_position(ell_111, np.array([0.0, 0, 1.0]))
        sigma = critical_caps(cp, ell_graph)
        assert len(sigma) / ell_graph.node_count == pytest.approx(0.5, abs=0.02)

    def test_anchor_too_far_raises(self, ell_111, ell_graph):
        from dataclasses import replace

        cp = critical_position(ell_111, np.array([1.0, 0, 0.0]))
        broken = replace(cp, tangency_point=np.array([50.0, 50.0, 50.0]))
        with pytest.raises(CapExtractionError, match="anchor lies"):
            critical_caps(broken, ell_graph)
