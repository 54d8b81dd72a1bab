import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soapbubble as sb
from soapbubble import symmetry
from soapbubble.planes import critical_position
from soapbubble.symmetry import (
    count_ray_hits,
    radial_bounds,
    radial_map_check,
    reflection_defect,
    stability_ratio,
    symmetry_center,
)

from .oracles import ray_hits_loop, ray_hits_one_block

ELL111_OSC = 0.18677685950413236
ELL111_RATIO = 0.1 / ELL111_OSC  # 0.535398...


@pytest.fixture(scope="module")
def dumbbell():
    return sb.HarmonicRadial([(2, 0, 1.8)], dim=3)


@pytest.fixture(scope="module")
def dumbbell_frame(dumbbell):
    """(center, r_i, r_e) of the dumbbell."""
    O, _ = symmetry_center(dumbbell, sample_budget=3000)
    r_i, r_e, _, _ = radial_bounds(dumbbell, O, 3000)
    return O, r_i, r_e


class TestCenter:
    def test_offset_sphere(self):
        s = sb.Sphere([0.3, -0.2, 0.5], 1.0)
        O, planes = symmetry_center(s)
        np.testing.assert_allclose(O, [0.3, -0.2, 0.5], atol=1e-6)
        assert all(p.degenerate_contact for p in planes)

    def test_origin_ellipsoid(self, ell_111):
        O, _ = symmetry_center(ell_111)
        np.testing.assert_allclose(O, [0, 0, 0], atol=1e-6)

    def test_translation_equivariance(self):
        t = np.array([0.15, 0.3, -0.25])
        s = sb.Sphere(t, 0.8)
        O, _ = symmetry_center(s)
        np.testing.assert_allclose(O, t, atol=1e-6)


class TestRadialBounds:
    def test_unit_sphere(self, unit_sphere):
        r_i, r_e, _, _ = radial_bounds(unit_sphere, np.zeros(3))
        assert r_i == pytest.approx(1.0, abs=1e-9)
        assert r_e == pytest.approx(1.0, abs=1e-9)

    def test_too_few_samples_raise(self, unit_sphere):
        with pytest.raises(ValueError, match="sample_budget must be at least 100"):
            radial_bounds(unit_sphere, np.zeros(3), 99)

    def test_ellipsoid_semi_axes(self, ell_111):
        r_i, r_e, p_i, p_e = radial_bounds(ell_111, np.zeros(3))
        assert r_i == pytest.approx(1.0, abs=1e-6)
        assert r_e == pytest.approx(1.1, abs=1e-6)
        assert abs(p_e[2]) == pytest.approx(1.1, abs=1e-3)

    def test_offset_center_in_sphere(self, unit_sphere):
        r_i, r_e, _, _ = radial_bounds(unit_sphere, np.array([0.1, 0, 0]))
        assert r_i == pytest.approx(0.9, abs=1e-6)
        assert r_e == pytest.approx(1.1, abs=1e-6)

    def test_annulus_containment(self, ell_111):
        O = np.zeros(3)
        r_i, r_e, _, _ = radial_bounds(ell_111, O)
        r = np.linalg.norm(ell_111.probe_points(3000, 1) - O, axis=1)
        assert np.all(r >= r_i - 1e-9)
        assert np.all(r <= r_e + 1e-9)

    @pytest.mark.parametrize("surface_name", ["ell_112", "radial_bumpy"])
    def test_extrema_are_stationary_off_centre(self, surface_name, request):
        # at p_i and p_e the radial direction is normal to the surface, and on
        # the ellipsoid r_i is the distance to the projected centre
        surface = request.getfixturevalue(surface_name)
        c = np.array([0.01, -0.02, 0.03])
        r_i, r_e, p_i, p_e = radial_bounds(surface, c)
        for p in (p_i, p_e):
            u = (p - c) / np.linalg.norm(p - c)
            g = surface.jet(p[None], 1)[1][0]
            nu = g / np.linalg.norm(g)
            assert np.linalg.norm(u - (u @ nu) * nu) <= 1e-9
        if surface_name == "ell_112":
            assert r_i == pytest.approx(np.linalg.norm(c - surface.project(c[None])[0]), abs=1e-12)


class TestPlaneDistance:
    # distance from the center to the critical hyperplane in direction w,
    # |center . w - level|, as `stability_ratio` reports it
    def test_sphere_any_direction(self):
        s = sb.Sphere([0.2, 0.1, -0.3], 1.0)
        O, _ = symmetry_center(s)
        rng = np.random.default_rng(5)
        for _ in range(3):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            d = abs(float(O @ w) - critical_position(s, w).level)
            assert d == pytest.approx(0.0, abs=1e-6)

    def test_ellipsoid_axis(self, ell_111):
        assert abs(critical_position(ell_111, np.array([0.0, 0, 1])).level) == (
            pytest.approx(0.0, abs=1e-6)
        )


class TestReflectionDefect:
    def test_sphere_zero(self):
        s = sb.Sphere([0.3, -0.2, 0.5], 1.0)
        assert reflection_defect(s, np.array([0.3, -0.2, 0.5])) < 1e-9

    def test_ellipsoid_zero(self, ell_111):
        assert reflection_defect(ell_111, np.zeros(3)) < 1e-9

    def test_odd_harmonic_grows_monotonically(self):
        # an odd radial term breaks central symmetry; the defect must grow
        # with its amplitude and vanish with it
        amps = [0.0, 0.02, 0.05, 0.1, 0.15]
        defects = []
        for a in amps:
            surf = sb.HarmonicRadial([(3, 0, a)], dim=3)
            O, _ = symmetry_center(surf, sample_budget=1500)
            defects.append(reflection_defect(surf, O, 1500))
        assert defects[0] < 1e-8
        assert all(b > a - 1e-12 for a, b in zip(defects, defects[1:]))
        assert defects[-1] > 1e-3


class TestRadialMap:
    def test_unit_sphere_all_dots_minus_one(self, unit_sphere):
        rep = radial_map_check(unit_sphere, np.zeros(3), 1.0, 1.0, rho=1.0, n_rays=300)
        assert rep.ok
        assert rep.max_radial_dot == pytest.approx(-1.0, abs=1e-12)

    def test_harmonic_centre_at_origin(self):
        # the level function is finite and positive at the origin itself
        surf = sb.HarmonicRadial([(2, 0, 0.15)], dim=3)
        rep = radial_map_check(surf, np.zeros(3), 0.9, 1.1, n_rays=300, sample_budget=500)
        assert rep.rays_ok

    def test_ellipsoid_bound(self, ell_111):
        rho = sb.touching_radius(ell_111)
        rep = radial_map_check(ell_111, np.zeros(3), 1.0, 1.1, rho=rho, n_rays=500)
        assert rep.ok
        assert rep.max_radial_dot <= -1.0 + 0.1 / rho + 1e-6
        assert rep.max_radial_dot <= -0.89

    def test_dumbbell_multi_hit(self, dumbbell, dumbbell_frame):
        O, r_i, r_e = dumbbell_frame
        rep = radial_map_check(dumbbell, O, r_i, r_e, n_rays=2000, sample_budget=2000)
        assert not rep.ok
        assert not rep.rays_ok
        assert len(rep.multi_hit_directions) > 0
        assert max(rep.hit_counts) >= 3

    @pytest.mark.parametrize(
        "name, n_rays",
        [("ell_111", 1000), ("radial_bumpy", 1000), ("sphere_cloud", 50), ("dumbbell", 1000)],
    )
    def test_annulus_counts_equal_full_grid(self, name, n_rays, request):
        # a ray from the center crosses the surface only in the annulus, so
        # the grid that starts there, over radial_map_check's own range,
        # counts what the whole (0, t_max] grid does
        surface = request.getfixturevalue(name)
        if name == "dumbbell":
            center, r_i, r_e = request.getfixturevalue("dumbbell_frame")
        else:
            center = np.zeros(3)
            r_i, r_e, _, _ = radial_bounds(surface, center, 1000)
        rho = sb.touching_radius(surface, 1000)
        t_min, t_max = r_i - 0.05 * (r_i + rho), 1.05 * r_e + 0.05 * rho
        assert t_min > 0.0
        dirs = _ray_dirs(n_rays, 3, seed=0)
        counts = count_ray_hits(surface, center, dirs, t_max, t_min=t_min)
        full = ray_hits_loop(surface, center, dirs, t_max, deadband=surface.ray_deadband)
        np.testing.assert_array_equal(counts, full)
        if name == "dumbbell":
            assert counts.max() >= 3

    def test_grid_start_outside_raises(self, unit_sphere):
        # every ray must start definitely inside at t_min; the error counts
        # the rays that do not
        origin = np.array([0.5, 0.0, 0.0])
        dirs = _ray_dirs(300, 3)
        ts = np.linspace(2.0 / 2048, 2.0, 2048)
        first = ts[ts >= 0.8][0]
        outside = int(np.sum(unit_sphere.implicit(origin + first * dirs) <= 0.0))
        assert 0 < outside < 300
        with pytest.raises(ValueError, match=f"^{outside} of 300 rays do not start inside"):
            count_ray_hits(unit_sphere, origin, dirs, 2.0, t_min=0.8)

    def test_grid_start_outside_reported(self, unit_sphere, monkeypatch):
        # the same failure in the pipeline: a center 0.5 off and an r_i of
        # 0.9 start the rays at t_min = 0.805, beyond the near side
        real_center = symmetry.symmetry_center
        monkeypatch.setattr(
            symmetry,
            "symmetry_center",
            lambda *a: (np.array([0.5, 0.0, 0.0]), real_center(*a)[1]),
        )
        monkeypatch.setattr(
            symmetry, "radial_bounds", lambda *a: (0.9, 1.5, np.zeros(3), np.ones(3))
        )
        rep = stability_ratio(unit_sphere, sample_budget=300, n_rays=300)
        assert rep.radial_map is None
        assert rep.metadata["radial_map_error"].endswith(
            "rays do not start inside the surface at t_min = 0.805"
        )

    def test_point_cloud_dumbbell_multi_hit(self, dumbbell):
        # seen from inside one lobe, rays that leave it can cross the other
        pts = dumbbell.probe_points(4000, 0)
        normals, _ = dumbbell.curvatures_batch(pts)
        cloud = sb.PointCloud(pts, normals, k=20)
        origin = np.array([0.0, 0.0, 1.0])
        dirs = np.random.default_rng(0).standard_normal((300, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        counts = count_ray_hits(cloud, origin, dirs, 3.5, t_min=0.0)
        assert counts.max() >= 3
        np.testing.assert_array_equal(
            counts, ray_hits_loop(cloud, origin, dirs, 3.5, deadband=cloud.ray_deadband)
        )

    def test_deadband_from_a_surface_point(self, sphere_cloud):
        # rays that start inside the deadband count as starting inside
        origin = sphere_cloud.points[0]
        dirs = np.random.default_rng(1).standard_normal((100, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        band = sphere_cloud.ray_deadband
        counts = count_ray_hits(sphere_cloud, origin, dirs, 2.5, t_min=0.0)
        np.testing.assert_array_equal(
            counts, ray_hits_loop(sphere_cloud, origin, dirs, 2.5, deadband=band)
        )

    def test_center_outside_rejected(self, unit_sphere):
        with pytest.raises(ValueError):
            radial_map_check(unit_sphere, np.array([2.0, 0, 0]), 1.0, 1.0)

    @pytest.mark.parametrize("name", ["north_star", "ell_111", "sphere_cloud"])
    def test_center_is_never_projected(self, name, request, monkeypatch):
        # whether the center lies inside is read from the level function: a
        # near-sphere's center sits near the medial axis, where projection
        # has no well-posed answer
        surf = (
            sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)])
            if name == "north_star"
            else request.getfixturevalue(name)
        )
        center = np.array([1e-6, 0.0, 0.0373])
        args = dict(rho=0.5, n_rays=300, sample_budget=500)
        expected = radial_map_check(surf, center, 0.9, 1.1, **args)

        def refuse(P):
            raise AssertionError("radial_map_check projected a point")

        monkeypatch.setattr(surf, "project", refuse)
        assert radial_map_check(surf, center, 0.9, 1.1, **args) == expected
        with pytest.raises(ValueError, match="strictly inside"):
            radial_map_check(surf, np.array([3.0, 0.0, 0.0]), 0.9, 1.1, **args)


@st.composite
def _small_harmonics(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        l = draw(st.integers(0, 4))
        terms.append((l, draw(st.integers(-l, l)), draw(st.floats(-0.1, 0.1))))
    return terms


class TestRayCertificate:
    """Every ray from the center crosses once when a bound on the radial
    dot over the whole surface is negative; rays are counted only where it
    is not."""

    @pytest.mark.parametrize("name", ["ell_111", "radial_bumpy", "sphere_cloud"])
    def test_north_star_casts_no_ray(self, name, request, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count_ray_hits was called")

        monkeypatch.setattr(symmetry, "count_ray_hits", refuse)
        rep = stability_ratio(request.getfixturevalue(name), sample_budget=1000).radial_map
        assert rep.rays == "certified"
        assert rep.certificate_bound < 0.0 < rep.fill_distance
        assert rep.hit_counts == {1: 1000}
        assert rep.rays_ok and rep.multi_hit_directions == []

    def test_dumbbell_counted(self, dumbbell, dumbbell_frame):
        # its sampled dot is positive, so the bound does not apply
        O, r_i, r_e = dumbbell_frame
        rep = radial_map_check(dumbbell, O, r_i, r_e, n_rays=2000, sample_budget=2000)
        assert rep.max_radial_dot > 0.0
        assert rep.rays == "counted"
        assert rep.certificate_bound == math.inf and rep.fill_distance is None
        assert rep.hit_counts == {1: 1968, 3: 32}

    def test_mixed_harmonic_counted(self):
        # transversal at every probe, but the bound on the continuum is positive
        surf = sb.HarmonicRadial([(2, 1, 0.3), (3, -2, 0.25), (4, 3, 0.2)])
        rep = stability_ratio(surf, sample_budget=1000).radial_map
        assert rep.max_radial_dot < 0.0 < rep.certificate_bound
        assert rep.rays == "counted"
        assert rep.hit_counts == {1: 1000}

    def test_two_components_counted(self):
        # concentric spheres with normals -u: every dot is -1 and the bound
        # is negative, yet each ray crosses both spheres (and the level
        # function's jump halfway between them)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cloud = sb.PointCloud(np.vstack([u[:2000], 2.0 * u[2000:]]), -u, k=20)
        assert cloud.component_count == 2
        rep = radial_map_check(cloud, np.zeros(3), 1.0, 2.0, n_rays=200, sample_budget=4000)
        assert rep.max_radial_dot == pytest.approx(-1.0)
        assert rep.certificate_bound < 0.0
        assert rep.rays == "counted"
        assert not rep.rays_ok

    @given(coeffs=_small_harmonics())
    @settings(max_examples=20, deadline=None)
    def test_certified_rays_cross_once(self, coeffs):
        surf = sb.HarmonicRadial(coeffs)
        center = np.zeros(3)
        r_i, r_e, _, _ = radial_bounds(surf, center, 500)
        rep = radial_map_check(surf, center, r_i, r_e, n_rays=300, sample_budget=500)
        if rep.rays == "certified":
            rho = sb.touching_radius(surf, 500)
            counts = count_ray_hits(
                surf, center, _ray_dirs(300, 3, seed=0), 1.05 * r_e + 0.05 * rho,
                t_min=r_i - 0.05 * (r_i + rho),
            )
            np.testing.assert_array_equal(counts, 1)


def _circle_cloud(count: int, seed: int) -> sb.PointCloud:
    th = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, count))
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    return sb.PointCloud(1.5 * u, -u, k=10)


def _ray_dirs(count: int, dim: int, seed: int = 3) -> np.ndarray:
    d = np.random.default_rng(seed).standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


_RAY_CASES = ["sphere_cloud", "ell_111", "radial_bumpy", "circle_cloud"]


class TestRayBlocks:
    # rays go through count_ray_hits in blocks of a fixed number of grid
    # points (16 rays of the 2048-point grid); the counts must equal those of
    # one block holding every ray
    @pytest.fixture
    def ray_case(self, request):
        if request.param == "circle_cloud":
            return _circle_cloud(600, 5), np.array([0.1, -0.05]), 2.0
        surface = request.getfixturevalue(request.param)
        return surface, np.array([0.02, -0.03, 0.05]), 2.5

    # each kd-tree query from deep inside a cloud is slow, so the clouds take
    # 40 rays: still three blocks
    @pytest.mark.parametrize(
        "ray_case, n_rays",
        [(c, n) for c in _RAY_CASES for n in (1, 17, 40 if c.endswith("cloud") else 1000)],
        indirect=["ray_case"],
    )
    def test_equals_one_block(self, ray_case, n_rays):
        surface, origin, t_max = ray_case
        dirs = _ray_dirs(n_rays, surface.dim)
        counts = count_ray_hits(surface, origin, dirs, t_max, t_min=0.0)
        np.testing.assert_array_equal(counts, ray_hits_one_block(surface, origin, dirs, t_max))
        assert counts.min() >= 1

    def test_memory_peak(self, ell_111):
        # one block of all 1000 rays would take about 140 MB
        dirs = _ray_dirs(1000, 3)
        tracemalloc.start()
        try:
            count_ray_hits(ell_111, np.zeros(3), dirs, 2.5, t_min=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@pytest.fixture(scope="module")
def sphere_report():
    return stability_ratio(sb.Sphere([0.25, -0.1, 0.4], 1.0), sample_budget=2000)


@pytest.fixture(scope="module")
def ell_report(ell_111):
    return stability_ratio(ell_111, sample_budget=2000)


class TestStabilityReport:
    def test_sphere_verdict(self, sphere_report):
        rep = sphere_report
        assert rep.ratio_indeterminate
        assert rep.ratio is None
        assert rep.verdict == "sphere within tolerance"
        assert rep.r_e - rep.r_i <= 1e-6
        assert rep.osc <= 1e-8

    def test_ellipsoid_numbers(self, ell_report):
        rep = ell_report
        assert rep.r_e - rep.r_i == pytest.approx(0.1, abs=1e-4)
        assert rep.osc == pytest.approx(ELL111_OSC, rel=0.01)
        assert rep.ratio == pytest.approx(ELL111_RATIO, rel=0.02)
        np.testing.assert_allclose(rep.center, np.zeros(3), atol=1e-5)

    # Ellipsoid(1, 1, c), c = 1 + t over acceptance criterion 03's sweep: H
    # runs from (1 + c^-2)/2 on the equator to c at the poles, r_i = 1, r_e = c
    # and the centre is 0. Each bound is about 10x the worst error measured
    # over the sweep: osc 2.9e-15 and ratio 4.3e-13 relative, |centre| 1.8e-14.
    @pytest.mark.parametrize("t", np.linspace(0.02, 0.2, 10), ids=lambda t: f"t={t:.2f}")
    def test_ellipsoid_closed_forms(self, t):
        c = 1.0 + t
        rep = stability_ratio(sb.Ellipsoid([1.0, 1.0, c]), sample_budget=1500, seed=0)
        osc = c - (1.0 + c**-2) / 2.0
        assert rep.osc == pytest.approx(osc, rel=3e-14, abs=0.0)
        assert rep.ratio == pytest.approx((c - 1.0) / osc, rel=5e-12, abs=0.0)
        assert np.linalg.norm(rep.center) <= 2e-13

    # r = 1 + eps Y_l0 with even l: to first order H = 1 + eps (l-1)(l+2) Y/2
    # and r_e - r_i = eps (max Y - min Y), so the ratio tends to
    # 2/((l-1)(l+2)). The Richardson value 2 r(1e-3) - r(2e-3) measured
    # 1.1e-6, 1.4e-6 and 1.9e-6 relative off it for l = 2, 4, 6.
    @pytest.mark.parametrize("l", [2, 4, 6])
    def test_zonal_harmonic_ratio(self, l):
        r = [
            stability_ratio(sb.HarmonicRadial([(l, 0, eps)]), sample_budget=1000, seed=0,
                            n_rays=100).ratio
            for eps in (1e-3, 2e-3)
        ]
        assert 2.0 * r[0] - r[1] == pytest.approx(2.0 / ((l - 1) * (l + 2)), rel=1e-5, abs=0.0)

    # r = 1 + 0.01 Y_50,0: a mirrored cap sample can sit where projection onto
    # the rippled surface does not converge, but containment reads only the
    # level function's sign, so the report completes
    def test_high_degree_harmonic(self):
        rep = stability_ratio(sb.HarmonicRadial([(50, 0, 0.01)]), sample_budget=300)
        assert 0.0 < rep.ratio < 0.02
        assert rep.radial_map.rays_ok

    # the extremal chord is long enough for its plane when it is long against
    # the surface's size, whatever the scale
    @pytest.mark.parametrize("s", [1e-10, 1e-12])
    def test_extremal_plane_at_small_scale(self, s):
        rep = stability_ratio(sb.Ellipsoid(np.array([1.0, 1.0, 1.1]) * s), sample_budget=500)
        assert rep.plane_distances["extremal"] > 0.0
        assert rep.cross_check_rhs > 0.0

    def test_cross_check_inequality(self, ell_report):
        rep = ell_report
        assert rep.cross_check_lhs <= rep.cross_check_rhs + rep.cross_check_slack

    def test_report_metadata(self, ell_report):
        d = ell_report.to_dict()
        assert "inner normal" in d["metadata"]["h_convention"]
        assert d["constants"]["inputs"]["k_placeholder"]
        assert d["metadata"]["rho_hat"] == pytest.approx(1 / 1.1, rel=0.02)

    def test_scaling_covariance(self):
        # scaling by s: radii scale by s, osc by 1/s, ratio by s^2
        s = 2.0
        base = stability_ratio(sb.Ellipsoid([1, 1, 1.1]), sample_budget=1500)
        scaled = stability_ratio(sb.Ellipsoid([s, s, s * 1.1]), sample_budget=1500)
        assert scaled.r_i == pytest.approx(s * base.r_i, rel=1e-4)
        assert scaled.r_e == pytest.approx(s * base.r_e, rel=1e-4)
        assert scaled.osc == pytest.approx(base.osc / s, rel=1e-4)
        assert scaled.ratio == pytest.approx(s**2 * base.ratio, rel=1e-3)

    # a point cloud's exit threshold is a length, so its report scales with
    # it: at 1e3 the old area-valued default (1.5 spacing^2) exceeded the
    # cloud's size and the search raised EmbeddednessError
    @pytest.mark.parametrize("s", [2.0**-10, 2.0**10, 1e-3, 1e3])
    def test_point_cloud_scaling_covariance(self, s):
        def measures(scale):
            rng = np.random.default_rng(1)
            u = rng.standard_normal((1500, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            pts = u * np.array([1.0, 1.1, 1.2])
            g = -pts / np.array([1.0, 1.21, 1.44])
            cloud = sb.PointCloud(scale * pts, g / np.linalg.norm(g, axis=1, keepdims=True), k=20)
            rep = stability_ratio(cloud, sample_budget=500, seed=0, n_rays=100)
            assert rep.radial_map.hit_counts == {1: 100}
            return np.concatenate([rep.center / scale,
                                   [rep.r_i / scale, rep.r_e / scale, rep.ratio / scale**2, rep.osc * scale]])

        np.testing.assert_allclose(measures(s), measures(1.0), rtol=1e-8, atol=0.0)

    def test_rigid_motion_invariance_of_measures(self):
        t = np.array([0.2, -0.3, 0.1])
        base = stability_ratio(sb.Sphere([0, 0, 0], 1.0), sample_budget=1500)
        moved = stability_ratio(sb.Sphere(t, 1.0), sample_budget=1500)
        np.testing.assert_allclose(moved.center, t, atol=1e-6)
        assert moved.r_e - moved.r_i == pytest.approx(base.r_e - base.r_i, abs=1e-6)

    def test_point_cloud_end_to_end(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2500, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = u * np.array([1.0, 1.0, 1.1])
        g = -2.0 * pts / np.array([1.0, 1.0, 1.21])
        cloud = sb.PointCloud(pts, g / np.linalg.norm(g, axis=1, keepdims=True), k=20)
        rep = stability_ratio(cloud, sample_budget=1000)
        np.testing.assert_allclose(rep.center, np.zeros(3), atol=0.02)
        assert rep.r_e - rep.r_i == pytest.approx(0.1, abs=0.02)
        assert rep.osc == pytest.approx(0.1868, rel=0.25)
        assert rep.radial_map is not None and rep.radial_map.rays_ok


def _sphere_cloud_4000():
    # the `sphere_cloud` fixture's cloud, fresh: nothing memoised on it yet
    rng = np.random.default_rng(11)
    u = rng.standard_normal((4000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return sb.PointCloud(u, -u, k=20)


class TestProbeGeometryOnce:
    @pytest.mark.parametrize(
        "make, rows",
        [
            (lambda: sb.Ellipsoid([1.0, 1.0, 1.1]), 6036),
            (lambda: sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)]), 6360),
            (_sphere_cloud_4000, 4000),
        ],
        ids=["ellipsoid", "harmonic", "cloud"],
    )
    def test_curvature_rows(self, make, rows, monkeypatch):
        # osc, rho and the radial-normal dots read the 4000 probe samples'
        # normals and curvatures from one evaluation; the rest are the H
        # extremum refinement's stencils (none on a cloud)
        surface = make()
        cls, counted = type(surface), []
        original = cls.curvatures_batch

        def counting(self, pts):
            counted.append(np.atleast_2d(pts).shape[0])
            return original(self, pts)

        monkeypatch.setattr(cls, "curvatures_batch", counting)
        stability_ratio(surface, sample_budget=4000, seed=0)
        assert counted.count(4000) == 1
        assert sum(counted) == rows
