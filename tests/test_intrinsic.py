import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import soapbubble as sb
from soapbubble.constants import compute_constants
from soapbubble.geometry import resample_polyline
from soapbubble.intrinsic import (
    GraphConnectivityError,
    build_geodesic_graph,
    harnack_chain,
    interface_distances,
    piecewise_geodesic_chain,
)

from .oracles import (
    ellipsoid_meridian_halflength,
    resample_polyline_steps,
    spherical_cap_area_fraction,
)


@pytest.fixture(scope="module")
def sphere_graph(unit_sphere):
    return build_geodesic_graph(unit_sphere, 4000, k=16, seed=0)


@pytest.fixture(scope="module")
def sphere_graph_coarse(unit_sphere):
    return build_geodesic_graph(unit_sphere, 4000, k=8, seed=0)


def poles(graph):
    z = graph.points[:, 2]
    return int(np.argmax(z)), int(np.argmin(z))


class TestGraphBuild:
    def test_sphere_connected(self, unit_sphere):
        g = build_geodesic_graph(unit_sphere, 5000, k=8, seed=0)
        assert g.n_components == 1
        assert g.adjacency.nnz > 0

    def test_two_disjoint_spheres_report_components(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((900, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cloud = sb.PointCloud(np.vstack([u, u + [6, 0, 0]]), np.vstack([-u, -u]))
        g = build_geodesic_graph(cloud, 1500, k=8, seed=0)
        assert g.n_components == 2
        assert cloud.component_count == 2

    def test_cloud_graph_split_beyond_cloud_raises(self):
        # a tuft of 8 samples off the pole of a 200-sample sphere: the
        # cloud's own 20-neighbour table reaches the sphere from the tuft, a
        # 6-neighbour graph over all samples does not
        rng = np.random.default_rng(3)
        u = rng.standard_normal((200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        tuft = [0.0, 0.0, 1.6] + 0.01 * rng.standard_normal((8, 3))
        normals = np.vstack([-u, np.tile([0.0, 0.0, -1.0], (8, 1))])
        cloud = sb.PointCloud(np.vstack([u, tuft]), normals, k=20)
        assert cloud.component_count == 1
        with pytest.raises(GraphConnectivityError, match="2 components"):
            build_geodesic_graph(cloud, 300, k=6, seed=0)
        assert build_geodesic_graph(cloud, 300, k=12, seed=0).n_components == 1

    def test_preconditions(self, unit_sphere):
        with pytest.raises(ValueError):
            build_geodesic_graph(unit_sphere, 50, k=8)
        with pytest.raises(ValueError):
            build_geodesic_graph(unit_sphere, 500, k=4)

    def test_ellipsoid_pole_distance_matches_meridian(self, ell_111):
        g = build_geodesic_graph(ell_111, 5000, k=16, seed=0)
        i, j = poles(g)
        oracle = ellipsoid_meridian_halflength(1.0, 1.1)
        assert g.distances_from(i)[j] == pytest.approx(oracle, rel=0.03)

    def test_determinism(self, unit_sphere):
        g1 = build_geodesic_graph(unit_sphere, 800, k=8, seed=3)
        g2 = build_geodesic_graph(unit_sphere, 800, k=8, seed=3)
        np.testing.assert_array_equal(g1.points, g2.points)
        assert (g1.adjacency != g2.adjacency).nnz == 0


class TestIntrinsicDistance:
    def test_antipodal_great_circle(self, sphere_graph):
        i, j = poles(sphere_graph)
        assert sphere_graph.distances_from(i)[j] == pytest.approx(math.pi, rel=0.02)

    def test_identical_nodes(self, sphere_graph):
        assert sphere_graph.distances_from(5)[5] == 0.0

    def test_chord_lower_bound_and_arcsin_envelope(self, sphere_graph):
        # graph distance is a sum of chords, hence at least the straight chord;
        # within a touching-ball patch it obeys the arcsin envelope plus slack
        g = sphere_graph
        rng = np.random.default_rng(2)
        rho = sb.touching_radius(g.surface)
        sources = rng.choice(g.node_count, size=40, replace=False)
        dmat = g.distances_from(sources)
        slack = 2.0 * g.mean_edge
        checked = 0
        for row, i in enumerate(sources):
            chord = np.linalg.norm(g.points - g.points[i], axis=1)
            nu = g.normals[i]
            proj = np.linalg.norm(
                (g.points - g.points[i]) - np.outer((g.points - g.points[i]) @ nu, nu), axis=1
            )
            near = (proj < 0.9 * rho) & (chord < 0.8 * rho) & (np.arange(g.node_count) != i)
            d = dmat[row, near]
            assert np.all(d >= chord[near] - 1e-12)
            envelope = rho * np.arcsin(np.clip(proj[near] / rho, 0, 1))
            assert np.all(d <= envelope + slack)
            checked += int(near.sum())
        assert checked > 1000

    def test_chord_02_bracket(self, sphere_graph):
        # nodes at straight-line separation ~0.2: distance between the chord
        # and the arcsin envelope evaluated at the chord
        g = sphere_graph
        i = 17
        chord = np.linalg.norm(g.points - g.points[i], axis=1)
        j = int(np.argmin(np.abs(chord - 0.2)))
        c = chord[j]
        d = float(g.distances_from(i)[j])
        assert c >= 0.195  # sampling found a genuine ~0.2 chord
        assert d >= c - 1e-12
        assert d <= math.asin(min(c, 1.0)) + 2.0 * g.mean_edge
        # sphere saturates the envelope: great-circle distance equals
        # rho*arcsin(|x|) with x the tangent projection
        great = 2.0 * math.asin(c / 2.0)
        assert d == pytest.approx(great, abs=2.0 * g.mean_edge)

    def test_triangle_inequality(self, sphere_graph):
        g = sphere_graph
        rng = np.random.default_rng(3)
        trips = rng.choice(g.node_count, size=(60, 3), replace=True)
        uniq = np.unique(trips.ravel())
        dmat = g.distances_from(uniq)
        pos = {int(n): k for k, n in enumerate(uniq)}
        for a, b, c in trips:
            dab = dmat[pos[int(a)], b]
            dbc = dmat[pos[int(b)], c]
            dac = dmat[pos[int(a)], c]
            assert dac <= dab + dbc + 1e-9

    def test_different_components_flagged_infinite(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((700, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cloud = sb.PointCloud(np.vstack([u, u + [6, 0, 0]]), np.vstack([-u, -u]))
        g = build_geodesic_graph(cloud, 1400, k=8, seed=0)
        a = int(np.nonzero(g.labels == 0)[0][0])
        b = int(np.nonzero(g.labels == 1)[0][0])
        assert math.isinf(g.distances_from(a)[b])


class TestCapInterior:
    # the interior of a cap at margin delta: its nodes farther than delta
    # from the cap's interface
    def test_whole_surface_no_boundary(self, sphere_graph):
        region = np.ones(sphere_graph.node_count, dtype=bool)
        dist = interface_distances(sphere_graph, region)
        assert (region & (dist > 1.0)).all()

    def test_hemisphere_margin_area(self, unit_sphere):
        g = build_geodesic_graph(unit_sphere, 8000, k=10, seed=1)
        region = g.points[:, 2] > 0
        inner = region & (interface_distances(g, region) > 0.3)
        frac = inner.sum() / g.node_count
        assert frac == pytest.approx(spherical_cap_area_fraction(0.3), rel=0.05)
        assert connected_components(g.adjacency[np.ix_(inner, inner)], directed=False)[0] == 1

    def test_hemisphere_huge_delta_empty(self, sphere_graph):
        region = sphere_graph.points[:, 2] > 0
        assert not (region & (interface_distances(sphere_graph, region) > math.pi)).any()


class TestChains:
    def test_trivial_chain(self, sphere_graph):
        ch = piecewise_geodesic_chain(sphere_graph, 7, 7, 0.5)
        assert ch.full_arcs == 0
        assert ch.total_length == 0.0
        assert ch.bound_ok

    def test_antipodal_chain_arithmetic(self, sphere_graph):
        i, j = poles(sphere_graph)
        ch = piecewise_geodesic_chain(sphere_graph, i, j, 0.5)
        assert ch.total_length == pytest.approx(math.pi, rel=0.02)
        # ideal count floor(pi/0.5) = 6 full arcs plus a remainder
        assert ch.full_arcs in (6, 7)
        assert np.all(ch.arc_lengths <= 0.5 + 1e-12)
        assert ch.length_budget == pytest.approx(4 * math.pi * 4 / (math.pi * 0.25), rel=0.01)
        assert ch.full_arcs <= ch.length_budget
        assert ch.bound_ok

    def test_chain_invariants_random_pairs(self, sphere_graph):
        g = sphere_graph
        rng = np.random.default_rng(5)
        delta = 0.37
        for _ in range(40):
            p, q = rng.choice(g.node_count, size=2, replace=False)
            ch = piecewise_geodesic_chain(g, int(p), int(q), delta)
            assert np.all(ch.arc_lengths <= delta + 1e-12)
            assert ch.total_length <= ch.length_budget
            assert ch.full_arcs <= ch.length_budget
            # waypoints stay on the surface
            assert np.max(np.abs(g.surface.signed_distance(ch.waypoints))) < 1e-9
            np.testing.assert_allclose(ch.arc_lengths.sum(), ch.total_length, atol=1e-9)


    def test_budget_reads_no_touching_radius(self, monkeypatch):
        # the length budget depends on the area and delta alone, so a chain
        # on a fresh surface does not run the touching-radius pair screen
        def fail(*args, **kwargs):
            raise AssertionError("the chain estimated the touching radius")

        monkeypatch.setattr(sb.surfaces, "estimate_touching_radius", fail)
        monkeypatch.setattr(sb.surfaces, "touching_radius", fail)
        sphere = sb.Sphere(np.zeros(3), 1.0)
        graph = build_geodesic_graph(sphere, 500, k=16, seed=0)
        i, j = poles(graph)
        ch = piecewise_geodesic_chain(graph, i, j, 0.5)
        area = sphere.area_estimate()[0]
        assert ch.length_budget == compute_constants(2, 1.0, area, delta=0.5).big_l
        assert ch.bound_ok

    def test_bound_violation_logged(self, sphere_graph, monkeypatch, caplog):
        # an area far too small shrinks the length budget below any chain
        monkeypatch.setattr(sphere_graph.surface, "area_estimate", lambda: (1e-2, 0.0))
        i, j = poles(sphere_graph)
        with caplog.at_level(logging.WARNING, logger="soapbubble.intrinsic"):
            ch = piecewise_geodesic_chain(sphere_graph, i, j, 0.5)
        assert not ch.bound_ok
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.stage == "piecewise_geodesic_chain"
        message = record.getMessage()
        assert "chain bound violated" in message
        assert f"{ch.full_arcs} full arcs" in message
        assert f"budget {ch.length_budget:.6g}" in message


class TestHarnackChain:
    def test_radii_law_and_membership(self, sphere_graph_coarse):
        g = sphere_graph_coarse
        led = compute_constants(2, 1.0, 4 * math.pi)
        i, j = poles(g)
        ch = piecewise_geodesic_chain(g, i, j, led.delta)
        hc = harnack_chain(ch, led.eps0 / 2, 1.0, led.delta)
        assert hc.steps_ok and hc.count_ok
        expected = (1 - led.eps0 / 2) ** np.arange(len(hc.radii)) * math.sin(led.delta / 2.0)
        np.testing.assert_array_equal(hc.radii, expected)

    def test_zero_eps_constant_radii(self, sphere_graph_coarse):
        g = sphere_graph_coarse
        led = compute_constants(2, 1.0, 4 * math.pi)
        ch = piecewise_geodesic_chain(g, 0, 10, led.delta)
        hc = harnack_chain(ch, 0.0, 1.0, led.delta)
        assert np.all(hc.radii == hc.radii[0])

    def test_specific_radius_value(self):
        # rho=1, delta=1/64, i=2, eps=1e-9
        r2 = (1 - 1e-9) ** 2 * math.sin(1.0 / 128.0)
        assert r2 == pytest.approx(0.0078124205, abs=1e-9)

    def test_eps_domain(self, sphere_graph_coarse):
        led = compute_constants(2, 1.0, 4 * math.pi)
        ch = piecewise_geodesic_chain(sphere_graph_coarse, 0, 10, led.delta)
        with pytest.raises(ValueError):
            harnack_chain(ch, led.eps0, 1.0, led.delta)
        with pytest.raises(ValueError):
            harnack_chain(ch, -1e-12, 1.0, led.delta)

    def test_point_cloud_steps_in_nearest_sample_tangent_plane(self):
        # on a cloud each step offset is measured in the tangent plane of the
        # sample nearest its start, so it is shorter than the chord
        rng = np.random.default_rng(21)
        u = rng.standard_normal((1500, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cloud = sb.PointCloud(u, -u, k=20)
        g = build_geodesic_graph(cloud, 1500, k=8, seed=0)
        led = compute_constants(2, 1.0, 4 * math.pi)
        i, j = poles(g)
        assert g.labels[i] == g.labels[j]
        ch = piecewise_geodesic_chain(g, i, j, led.delta)
        hc = harnack_chain(ch, led.eps0 / 2, 1.0, led.delta)
        assert hc.steps_ok and hc.count_ok
        way = hc.waypoints
        steps = np.diff(way, axis=0)
        tang, chord = [], []
        for w, d in zip(way[:-1], steps):
            nu = cloud.curvatures_batch(w[None])[0][0]
            tang.append(np.linalg.norm(d - (d @ nu) * nu))
            chord.append(np.linalg.norm(d))
        quarter = hc.radii[: len(steps)] / 4.0
        assert hc.worst_step_excess == pytest.approx(np.max(tang - quarter), rel=1e-12, abs=1e-15)
        assert hc.worst_step_excess < np.max(chord - quarter)
        trivial = harnack_chain(piecewise_geodesic_chain(g, i, i, led.delta), 0.0, 1.0, led.delta)
        assert trivial.steps_ok and trivial.worst_step_excess == -np.inf

    def test_count_never_exceeds_n0(self, sphere_graph_coarse):
        g = sphere_graph_coarse
        led = compute_constants(2, 1.0, 4 * math.pi)
        rng = np.random.default_rng(6)
        for _ in range(5):
            p, q = rng.choice(g.node_count, size=2, replace=False)
            ch = piecewise_geodesic_chain(g, int(p), int(q), led.delta)
            hc = harnack_chain(ch, led.eps0 * 0.9, 1.0, led.delta)
            assert len(hc.waypoints) - 1 <= led.n0
            assert hc.count_ok


@st.composite
def polylines(draw):
    """Polylines of 1 to 8 points in R^2 or R^3, some with repeated points
    (zero-length segments), and an arclength step."""
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal((m, d))
    repeats = draw(st.lists(st.integers(0, m - 1), max_size=m))
    for i in repeats:
        if i + 1 < m:
            pts[i + 1] = pts[i]
    if draw(st.booleans()):
        pts[:] = pts[0]  # the whole polyline at one place
    total = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
    step = draw(st.sampled_from([0.07, 0.3, 1.0, 2.5])) * max(total, 1e-3)
    return pts, step


class TestResamplePolyline:
    @given(case=polylines())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_chain_interpolation_bit_for_bit(self, case):
        pts, step = case
        way, targets = resample_polyline(pts, lambda total: np.append(np.arange(0.0, total, step), total))
        want_way, want_arcs, want_total = resample_polyline_steps(pts, step)
        np.testing.assert_array_equal(way, want_way)
        np.testing.assert_array_equal(np.signbit(way), np.signbit(want_way))
        np.testing.assert_array_equal(np.diff(targets), want_arcs)
        assert float(targets[-1]) == want_total

    def test_one_point_and_the_very_end(self):
        one = np.array([[0.5, -1.0, 2.0]])
        way, targets = resample_polyline(one, lambda total: [total, total])
        np.testing.assert_array_equal(way, np.repeat(one, 2, axis=0))
        np.testing.assert_array_equal(targets, [0.0, 0.0])
        # a zero-length segment, and a target at the very end, which lands
        # on the last point exactly
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        way, targets = resample_polyline(pts, lambda total: [0.0, 1.0, 1.5, total])
        np.testing.assert_array_equal(targets, [0.0, 1.0, 1.5, 3.0])
        np.testing.assert_array_equal(way, [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 2.0]])

