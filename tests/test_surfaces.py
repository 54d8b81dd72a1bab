import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

import soapbubble as sb
from soapbubble.geometry import tangent_frame
from soapbubble.surfaces import _graph_heights_batch, _roots_along, quadratic

from .oracles import (
    cloud_area_loop,
    dense_projection_distance,
    ellipsoid_area_brute,
    ellipsoid_area_elliprg,
    ellipsoid_dense_points,
    ellipsoid_mean_curvature,
    ellipsoid_osc,
    ellipse_perimeter_brute,
    harmonic_basis,
    harmonic_jet_sympy,
    project_newton_loop,
    quadric_fit_loop,
    roots_along_bisection,
    tangent_frames_batch,
    touching_radius_dense,
    voronoi_cell_area,
    voronoi_cell_areas_all_rows,
)

# frozen oracle values (recomputed below where cheap)
ELL111_H_POLE = 1.1
ELL111_H_EQUATOR = 221.0 / 242.0  # 0.91322314...
ELL111_OSC = 0.18677685950413236


class TestEvaluateSample:
    # seeds projected onto the surface, then their inner normals and
    # principal curvatures from `curvatures_batch`
    def test_unit_sphere_seed_outside(self, unit_sphere):
        p = unit_sphere.project(np.array([[2.0, 0.0, 0.0]]))
        nus, kappas = unit_sphere.curvatures_batch(p)
        np.testing.assert_allclose(p[0], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(nus[0], [-1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(kappas[0], [1.0, 1.0], atol=1e-12)
        assert kappas[0].mean() == pytest.approx(1.0, abs=1e-12)

    def test_ellipsoid_pole_matches_symbolic(self, ell_111):
        p = ell_111.project(np.array([[0.0, 0.0, 1.3]]))
        _, kappas = ell_111.curvatures_batch(p)
        assert abs(ell_111.signed_distance(p)[0]) < 1e-9
        assert kappas[0].mean() == pytest.approx(ELL111_H_POLE, abs=1e-9)
        assert ellipsoid_mean_curvature(1, 1, 1.1, 1e-7, 0.0) == pytest.approx(1.1, abs=1e-5)

    def test_ellipsoid_equator_matches_symbolic(self, ell_111):
        _, kappas = ell_111.curvatures_batch(ell_111.project(np.array([[1.05, 0.0, 0.0]])))
        assert kappas[0].mean() == pytest.approx(ELL111_H_EQUATOR, abs=1e-9)
        assert ellipsoid_mean_curvature(1, 1, 1.1, math.pi / 2, 0.0) == pytest.approx(
            ELL111_H_EQUATOR, abs=1e-12
        )

    def test_principal_curvatures_ascend(self, ell_111):
        rng = np.random.default_rng(1)
        _, kappas = ell_111.curvatures_batch(ell_111.project(rng.standard_normal((20, 3)) * 1.4))
        assert np.all(np.diff(kappas, axis=1) >= 0)

    @pytest.mark.parametrize("surface_name", ["unit_sphere", "ell_111", "radial_bumpy"])
    def test_h_matches_normal_divergence(self, surface_name, request):
        # H should agree with a finite-difference divergence of the normal field
        surface = request.getfixturevalue(surface_name)
        rng = np.random.default_rng(2)
        h = 1e-5
        P = surface.project(rng.standard_normal((10, 3)))
        nus, kappas = surface.curvatures_batch(P)
        for p, nu, k in zip(P, nus, kappas):
            frame = tangent_frame(nu[None])[0]
            nup, _ = surface.curvatures_batch(surface.project(p + h * frame))
            num, _ = surface.curvatures_batch(surface.project(p - h * frame))
            trace = float(np.einsum("id,id->", nup - num, frame)) / (2 * h)
            h_fd = -trace / surface.n
            assert h_fd == pytest.approx(float(k.mean()), abs=1e-4)

    def test_symbolic_oracle_agreement_random_points(self, ell_111):
        rng = np.random.default_rng(3)
        th, ph = np.array(
            [(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0, 2 * math.pi)) for _ in range(15)]
        ).T
        P = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), 1.1 * np.cos(th)], axis=1)
        _, kappas = ell_111.curvatures_batch(ell_111.project(P))
        for k, t, f in zip(kappas, th, ph):
            assert k.mean() == pytest.approx(ellipsoid_mean_curvature(1, 1, 1.1, t, f), abs=1e-9)


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
            assert abs(s.implicit(p[None])[0]) <= 1e-10 * s.bounding_radius()
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
            assert abs(s.implicit(p[None])[0]) <= 1e-10 * s.bounding_radius()

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
        # phi at the centre computes no gradient, so it does not divide by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = unit_sphere.signed_distance(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        assert d[0] == pytest.approx(1.0, abs=1e-14)
        assert d[1] == pytest.approx(-2.0, abs=1e-14)

    def test_ellipsoid_above_pole(self, ell_111):
        d = ell_111.signed_distance(np.array([[0.0, 0.0, 1.2]]))
        assert d[0] == pytest.approx(-0.1, abs=1e-10)

    def test_ellipsoid_matches_dense_projection_search(self, ell_111):
        dense = ellipsoid_dense_points([1, 1, 1.1], res=900)
        rng = np.random.default_rng(4)
        for xi in rng.uniform(-1.6, 1.6, size=(6, 3)):
            brute = dense_projection_distance(dense, xi)
            assert abs(ell_111.signed_distance(xi[None])[0]) == pytest.approx(brute, abs=5e-3)

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
        assert s.signed_distance(xi[None])[0] == pytest.approx(expect, abs=1e-12)


class TestHarmonicRadial:
    def test_level_function_at_origin(self):
        surf = sb.HarmonicRadial([(2, 0, 0.15)], dim=3)
        P = np.array([[0.3, -0.1, 0.2], [0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [1.2, 0.4, -0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_origin = surf.implicit(np.zeros((1, 3)))[0]
            rows = surf.implicit(P)
        assert np.isfinite(at_origin) and at_origin > 0.0
        assert rows[1] == at_origin
        keep = [0, 2, 3]
        np.testing.assert_array_equal(rows[keep], surf.implicit(P[keep]))
        assert surf.signed_distance(np.zeros((1, 3)))[0] > 0.0
        # on the x_0 axis so near the origin that |x|^2 underflows, the level
        # is r(e_0) - |x| = r(e_0) in floating point
        for dim, xs in ((3, [1e-300, 1e-160, 1e-120]), (2, [1e-160])):
            surf = sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)], dim=dim)
            P = np.zeros((len(xs), dim))
            P[:, 0] = xs
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = surf.implicit(P)
            np.testing.assert_array_equal(rows, surf.radial(np.eye(dim)[:1])[0])

    def test_radial_matches_sympy_basis(self):
        # every basis function with l <= 8, each m in R^3 and both parities
        # in R^2, against its sympy polynomial; the oracle's monomial form of
        # P_8 has coefficients up to 50, so it rounds to a few 1e-14
        rng = np.random.default_rng(4)
        for dim, orders in ((3, lambda l: range(-l, l + 1)), (2, lambda l: (0, -1) if l else (0,))):
            u = rng.standard_normal((200, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            for l in range(9):
                for m in orders(l):
                    basis = harmonic_basis(l, m, dim)(u)
                    radial = sb.HarmonicRadial([(l, m, 1.0)], base_radius=3.0, dim=dim).radial(u)
                    assert np.abs(radial - (3.0 + basis)).max() <= 1e-13 * np.abs(basis).max()

    @pytest.mark.parametrize("l", [20, 40, 50, 80])
    def test_high_degree_zonal_matches_eval_legendre(self, l):
        # Q_0 is a Legendre series: in powers of z it cancels catastrophically,
        # 2e-4 off at l = 40, and at l = 50 it rejected this surface, whose
        # radius stays within 1 +- 0.04, as reaching -1.692
        u = np.random.default_rng(6).standard_normal((1000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        surf = sb.HarmonicRadial([(l, 0, 0.01)])
        exact = 1.0 + 0.01 * math.sqrt((2 * l + 1) / (4 * math.pi)) * eval_legendre(l, u[:, 2])
        assert np.abs(surf.radial(u) - exact).max() <= 1e-13

    def test_degree0_sine_term_rejected(self):
        # README: m < 0 means sin(l theta), and sin(0 theta) = 0
        with pytest.raises(ValueError, match="m >= 0"):
            sb.HarmonicRadial([(0, -1, 0.5)], dim=2)
        const = sb.HarmonicRadial([(0, 0, 0.5)], dim=2)
        assert const.radial(np.array([[0.6, 0.8]]))[0] == pytest.approx(1.5, abs=1e-15)

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

    def test_projection_near_medial_axis_raises(self):
        # near the North star's centre the nearest points form an almost
        # degenerate ring; an unconverged solve is an error, not whatever
        # stationary point of the distance another seed reaches (the
        # farthest point, 1.0946 away, where the nearest sample is 0.9404)
        surf = sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)])
        with pytest.raises(sb.ProjectionError, match="1 of 1 points"):
            surf.project(np.array([[1e-6, 0.0, 0.0373]]))

    @pytest.mark.parametrize(
        "coeffs, base, bad",
        [
            ([(2, 0, math.inf)], 1.0, "coefficient"),
            ([(2, 0, math.nan)], 1.0, "coefficient"),
            ([(2, 0, 0.1)], math.inf, "base_radius"),
        ],
    )
    def test_non_finite_input_rejected(self, coeffs, base, bad):
        # rejected before the table is built, so no RuntimeWarning comes first
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            sb.HarmonicRadial(coeffs, base_radius=base)

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


@functools.lru_cache(maxsize=None)
def _jet_surface(name: str) -> sb.Surface:
    return {
        "sphere2": lambda: sb.Sphere([0.3, -0.2], 1.2),
        "sphere3": lambda: sb.Sphere([0.3, -0.2, 0.5], 1.2),
        "ellipsoid2": lambda: sb.Ellipsoid([1.0, 0.6]),
        "ellipsoid3": lambda: sb.Ellipsoid([1.0, 1.0, 1.1]),
        "ellipsoid4": lambda: sb.Ellipsoid([1.0, 1.0, 1.1, 1.2]),
        "harmonic": lambda: sb.HarmonicRadial([(2, 0, 0.1), (3, 1, 0.05), (4, -2, 0.03)]),
        "fourier": lambda: sb.HarmonicRadial([(2, 0, 0.2), (3, -1, 0.1)], dim=2),
    }[name]()


class TestJet:
    # jet(P, order) gives [phi, grad phi, hess phi][: order + 1] at points
    # 0.8-1.25 times off the surface
    NAMES = ["sphere2", "sphere3", "ellipsoid2", "ellipsoid3", "ellipsoid4", "harmonic", "fourier"]

    @staticmethod
    def _points(surface, seed=5, m=40):
        rng = np.random.default_rng(seed)
        centre = getattr(surface, "center", np.zeros(surface.dim))
        return centre + rng.uniform(0.8, 1.25, (m, 1)) * (surface.sample_points(m, rng) - centre)

    @pytest.mark.parametrize("name", NAMES)
    def test_lower_orders_are_prefixes(self, name):
        surface = _jet_surface(name)
        P = self._points(surface)
        full, one, zero = surface.jet(P, 2), surface.jet(P, 1), surface.jet(P, 0)
        assert (len(full), len(one), len(zero)) == (3, 2, 1)
        for a, b in zip(full, one):
            assert a.tobytes() == b.tobytes()
        assert one[0].tobytes() == zero[0].tobytes() == surface.implicit(P).tobytes()
        assert full[1].shape == P.shape and full[2].shape == (len(P), surface.dim, surface.dim)

    @pytest.mark.parametrize("name", NAMES)
    def test_derivatives_match_central_differences(self, name):
        surface = _jet_surface(name)
        P = self._points(surface)
        _, grad, hess = surface.jet(P, 2)
        h = 1e-5 * surface.bounding_radius()
        steps = [(surface.jet(P + e, 1), surface.jet(P - e, 1)) for e in h * np.eye(surface.dim)]
        dphi = np.stack([(p[0] - m[0]) / (2 * h) for p, m in steps], axis=1)
        dgrad = np.stack([(p[1] - m[1]) / (2 * h) for p, m in steps], axis=1)
        assert np.abs(dphi - grad).max() <= 1e-7 * np.abs(grad).max()
        assert np.abs(dgrad - hess).max() <= 1e-7 * np.abs(hess).max()


    @pytest.mark.parametrize("name", ["harmonic", "fourier"])
    def test_harmonic_jet_matches_sympy(self, name):
        # the polynomial form's chain rule against sympy's derivatives of
        # phi = r(x/|x|) - |x|
        surface = _jet_surface(name)
        P = self._points(surface)
        oracle = harmonic_jet_sympy(surface.coeffs, surface.dim, surface.base_radius)
        for got, want in zip(surface.jet(P, 2), oracle(P)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
        q = ell.project(xi[None])[0]
        assert abs(ell.implicit(q[None])[0]) <= 1e-12
        zeroed = xi.copy()
        zeroed[0] = 0.0
        dist, dist0 = np.linalg.norm(xi - q), np.linalg.norm(zeroed - ell.project(zeroed[None])[0])
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
        g = ell.jet(Q, 1)[1]
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        resid = np.linalg.norm(v - np.einsum("md,md->m", v, g)[:, None] * g, axis=1)
        scale = np.maximum(np.linalg.norm(v, axis=1), ell.semi_axes.max())
        assert np.all(resid <= 1e-9 * scale)
        # the stationary point found is the nearest one
        dense = ell.sample_points(2000, np.random.default_rng(0))
        brute = np.linalg.norm(P[:, None, :] - dense[None], axis=2).min(axis=1)
        assert np.all(np.linalg.norm(v, axis=1) <= brute + 1e-12)
        for i in range(P.shape[0]):
            np.testing.assert_array_equal(ell.project(P[i : i + 1])[0], Q[i])


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
        # the blocked scan returns the every-ordered-pair minimum bit for bit
        surface = _RHO_SURFACES[name]()
        rho = sb.estimate_touching_radius(surface, budget, seed)
        assert rho == touching_radius_dense(surface, budget, seed)

    @pytest.mark.parametrize(
        "budget, pair_budget",
        [(500, 200), (2000, 5000), (300, 5)],  # the last keeps fewer rows than a block
    )
    def test_equals_dense_scan_pair_budgets(self, ell_111, budget, pair_budget, monkeypatch):
        monkeypatch.setattr(sb.surfaces, "_PAIR_BUDGET", pair_budget)
        rho = sb.estimate_touching_radius(ell_111, budget, 0)
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

    @pytest.mark.parametrize("rows", [1, 5, 32, 1000])
    @pytest.mark.parametrize("pair_budget", [7, 23, 1500])
    def test_blocks_keep_the_minimum(self, rows, pair_budget, monkeypatch):
        # neither the row blocks nor taking each pair once, by its larger
        # normal component, changes the every-ordered-pair minimum; one
        # cloud repeats a row, a pair at distance 0 that bounds nothing
        monkeypatch.setattr(sb.surfaces, "_PAIR_ROWS", rows)
        monkeypatch.setattr(sb.surfaces, "_PAIR_BUDGET", pair_budget)
        rng = np.random.default_rng(rows + pair_budget)
        for size, dim in ((40, 3), (61, 3), (50, 2)):
            pts = rng.standard_normal((size, dim))
            pts[size - 1] = pts[0]
            nu = rng.standard_normal((size, dim))
            nu /= np.linalg.norm(nu, axis=1, keepdims=True)
            cloud = _fixed_samples(pts, nu, 0.01)
            rho = sb.estimate_touching_radius(cloud, 100)
            assert rho == touching_radius_dense(cloud, 100, pair_budget=pair_budget)
            assert rho < 100.0

    def test_rounded_tie_below_curvature_bound(self):
        # q = p + nu + u with unit u lies on the unit ball touching p, so the
        # pair's ratio ties the curvature bound 1 up to rounding; summed in
        # coordinate order this pair's ratio rounds below 1, and the scan must
        # return that value, as the dense scan does
        p = np.array([0.9616706775524602, 0.3710839689613894, 0.3009185525356326])
        nu = np.array([-0.9677334093782249, -0.2004977678984984, -0.15261943991810775])
        u = np.array([0.7932348887725561, 0.3148312752969027, 0.5212098227479183])
        q = p + nu + u
        # ten near samples and normals that make every other pair bound nothing
        across = np.cross(nu, q - p)
        across /= np.linalg.norm(across)
        near = p + np.outer(np.linspace(0.01, 0.1, 10), np.cross(nu, across))
        normals = np.vstack([nu, np.tile(across, (11, 1))])
        tie = _fixed_samples(np.vstack([p, near, q]), normals, 1.0)
        rho = sb.estimate_touching_radius(tie, 100)
        assert rho < 1.0
        assert rho == touching_radius_dense(tie, 100)

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
        # so must the probe geometry that the estimate reads
        fresh = sb.Ellipsoid([1.0, 1.0, 2.0])
        for got, want in zip(ell.probe_geometry(2000, 0), fresh.probe_geometry(2000, 0)):
            np.testing.assert_array_equal(got, want)
        assert ell.probe_geometry(2000, 3)[0] is ell.probe_points(2000, 3)


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

    @pytest.mark.parametrize("radius", [1e-9, 0.3, 1.0, 2.5, 7.0, 1e9])
    def test_sphere_closed_form(self, radius):
        # the (d-1)-sphere measure is 2 pi R and 4 pi R^2 exactly
        assert sb.Sphere([0.0, 0.0], radius).area_estimate() == (2.0 * math.pi * radius, 0.0)
        assert sb.Sphere([0.0, 0.0, 0.0], radius).area_estimate() == (
            4.0 * math.pi * radius**2, 0.0
        )


class TestProbeGeometry:
    @pytest.mark.parametrize("name", ["unit_sphere", "ell_111", "radial_bumpy", "sphere_cloud"])
    def test_equals_curvatures_batch(self, request, name):
        surface = request.getfixturevalue(name)
        pts, normals, kappas = surface.probe_geometry(300, 7)
        assert pts is surface.probe_points(300, 7)
        want_normals, want_kappas = surface.curvatures_batch(surface.probe_points(300, 7))
        np.testing.assert_array_equal(normals, want_normals)
        np.testing.assert_array_equal(kappas, want_kappas)

    @pytest.mark.parametrize("name", ["unit_sphere", "ell_111", "radial_bumpy", "sphere_cloud"])
    def test_read_only_and_shared(self, request, name):
        # every caller shares the memoised arrays, so no caller may write into them
        surface = request.getfixturevalue(name)
        geometry = surface.probe_geometry(200, 5)
        assert all(a is b for a, b in zip(geometry, surface.probe_geometry(200, 5)))
        for a in geometry:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 7.0


class TestLocalGraph:
    # heights of the surface over its tangent plane at a base point, along
    # the inner normal, from `_graph_heights_batch`
    @staticmethod
    def _base(surface, seed):
        p = surface.project(np.array([seed], dtype=float))
        nus, _ = surface.curvatures_batch(p)
        return p, nus, tangent_frame(nus)[0]

    def test_sphere_bottom_patch(self, unit_sphere):
        p, nu, frame = self._base(unit_sphere, [0.0, 0.0, -2.0])
        np.testing.assert_allclose(nu[0], [0, 0, 1.0], atol=1e-12)
        # frame is some orthonormal basis of z=0; height only depends on |x|
        offsets = np.array([[0.6, 0.0], [0.0, 0.0]]) @ frame
        u = _graph_heights_batch(unit_sphere, p, nu, offsets, sb.touching_radius(unit_sphere))
        assert u[0] == pytest.approx(1.0 - 0.8, abs=1e-10)
        assert u[1] == pytest.approx(0.0, abs=1e-10)

    def test_patch_point_lies_on_surface(self, ell_111):
        p, nu, frame = self._base(ell_111, [0.5, -0.6, 0.9])
        offsets = np.array([[0.2, 0.1], [-0.3, 0.25]]) @ frame
        u = _graph_heights_batch(ell_111, p, nu, offsets, sb.touching_radius(ell_111))
        q = p + offsets + u[:, None] * nu
        assert np.abs(ell_111.signed_distance(q)).max() < 1e-9

    def test_ellipsoid_pole_taylor(self, ell_111):
        p, nu, frame = self._base(ell_111, [0.0, 0.0, 2.0])
        r = np.array([0.01, 0.02, 0.04])
        offsets = r[:, None] * frame[0]
        u = _graph_heights_batch(ell_111, p, nu, offsets, sb.touching_radius(ell_111))
        quad = 0.5 * 1.1 * r**2  # both pole curvatures are 1.1
        assert np.all(np.abs(u - quad) < 5.0 * r**3)

    def test_nan_bracket_end_gives_nan(self, unit_sphere):
        # a unit sphere whose level function is NaN below z = -1.045: the
        # bracket's lower end lies there, so the height is unknown
        class NanBelow(sb.Sphere):
            def jet(self, P, order):
                out = super().jet(P, order)
                out[0] = np.where(P[:, 2] < -1.045, math.nan, out[0])
                return out

        p, nu, off = np.array([[0.0, 0, -1]]), np.array([[0.0, 0, 1]]), np.array([[0.3, 0, 0]])
        u = _graph_heights_batch(unit_sphere, p, nu, off, 1.0)
        assert u[0] == pytest.approx(1.0 - math.sqrt(0.91), abs=1e-15)
        assert math.isnan(_graph_heights_batch(NanBelow([0.0, 0, 0], 1.0), p, nu, off, 1.0)[0])

    def test_bracket_failure_reported(self, unit_sphere):
        # lie about the touching radius: heights beyond the true bound cannot bracket
        p, nu, frame = self._base(unit_sphere, [0.0, 0.0, -2.0])
        u = _graph_heights_batch(unit_sphere, p, nu, np.array([[2.2, 0.0]]) @ frame, 2.5)
        assert np.isnan(u[0])


class _CountingJet:
    """A surface whose `jet` calls are counted."""

    def __init__(self, surface):
        self.surface, self.calls = surface, 0

    def jet(self, P, order):
        self.calls += 1
        return self.surface.jet(P, order)


class _SteepStep:
    """A level function -atan(20 (z - 0.3)), whose Newton steps overshoot
    from far off its root z = 0.3."""

    @staticmethod
    def jet(P, order):
        out = [-np.arctan(20.0 * (P[:, 2] - 0.3))]
        if order >= 1:
            g = np.zeros_like(P)
            g[:, 2] = -20.0 / (1.0 + (20.0 * (P[:, 2] - 0.3)) ** 2)
            out.append(g)
        return out


class TestRootsAlong:
    # against the sign bisection it replaced: each root within 1e-13 of the
    # bracket's half-width, NaN in the same rows, and each row equal to its
    # one-row run
    @pytest.mark.parametrize("name", ["unit_sphere", "ell_112", "radial_bumpy"])
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_bisection(self, unit_sphere, ell_112, radial_bumpy, name, seed, rows):
        surface = {"unit_sphere": unit_sphere, "ell_112": ell_112, "radial_bumpy": radial_bumpy}[name]
        rng = np.random.default_rng(seed)
        feet = surface.probe_points(200, 0)[rng.integers(0, 200, rows)]
        normals, _ = surface.curvatures_batch(feet)
        # lines within about 45 degrees of the normal cross the surface once
        directions = normals + rng.uniform(-0.4, 0.4, feet.shape)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        starts = feet + rng.uniform(-0.1, 0.1, (rows, 1)) * directions
        lo, hi = -rng.uniform(0.05, 0.3, rows), rng.uniform(0.05, 0.3, rows)
        t = _roots_along(surface, starts, directions, lo, hi)
        want = roots_along_bisection(surface, starts, directions, lo, hi)
        np.testing.assert_array_equal(np.isnan(t), np.isnan(want))
        ok = ~np.isnan(t)
        assert np.all(np.abs(t - want)[ok] <= 1e-13 * 0.5 * (hi - lo)[ok])
        alone = [_roots_along(surface, starts[i : i + 1], directions[i : i + 1], lo[i : i + 1],
                              hi[i : i + 1]) for i in range(rows)]
        assert t.tobytes() == np.concatenate(alone).tobytes()

    def test_zero_at_an_end_is_that_end(self, unit_sphere):
        # implicit is exactly 0 at t = 0 on the first row and t = 0.25 on the second
        starts = np.array([[1.0, 0.0, 0.0], [0.0, 0.75, 0.0]])
        directions = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        t = _roots_along(unit_sphere, starts, directions, np.array([0.0, -0.5]),
                         np.array([0.5, 0.25]))
        np.testing.assert_array_equal(t, [0.0, 0.25])

    def test_bracket_without_crossing(self, unit_sphere):
        # the second row's bracket lies inside the sphere
        starts = np.array([[0.9, 0.0, 0.0], [0.0, 0.1, 0.0]])
        t = _roots_along(unit_sphere, starts, np.eye(3)[:2], np.array([-0.5, 0.1]),
                         np.array([0.5, 0.3]))
        assert t[0] == pytest.approx(0.1, abs=1e-15)
        assert math.isnan(t[1])

    def test_newton_leaving_the_bracket(self):
        start, up = np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]])
        lo, hi = np.array([-1.0]), np.array([1.0])
        # the first Newton step, from where the chord crosses zero, leaves [-1, 1]
        g = _SteepStep.jet(np.array([[0, 0, -1.0], [0, 0, 1.0]]), 0)[0]
        t0 = -1.0 + 2.0 * g[0] / (g[0] - g[1])
        phi, grad = _SteepStep.jet(np.array([[0.0, 0.0, t0]]), 1)
        assert t0 - phi[0] / grad[0, 2] > hi[0]
        t = _roots_along(_SteepStep, start, up, lo, hi)
        assert t[0] == pytest.approx(0.3, abs=1e-15)
        want = roots_along_bisection(_SteepStep, start, up, lo, hi)
        assert abs(t[0] - want[0]) <= 1e-13

    def test_level_evaluations_per_row(self, ell_112):
        # graph-height brackets about tangent-plane offsets, one row at a time:
        # the median row takes at most 8 `jet` calls
        rng = np.random.default_rng(3)
        feet = ell_112.probe_points(400, 0)
        normals, _ = ell_112.curvatures_batch(feet)
        feet = feet + 0.2 * np.cross(normals, rng.standard_normal(feet.shape))
        h = np.full(1, 0.5)
        calls = []
        for i in range(feet.shape[0]):
            counted = _CountingJet(ell_112)
            t = _roots_along(counted, feet[i : i + 1], normals[i : i + 1], -h, h)
            assert np.isfinite(t).all()
            calls.append(counted.calls)
        assert np.median(calls) <= 8


class TestPointCloud:
    def test_sphere_cloud_curvature(self, sphere_cloud):
        _, kappas = sphere_cloud.curvatures_batch(np.array([[2.0, 0.0, 0.0]]))
        assert kappas[0].mean() == pytest.approx(1.0, rel=0.02)

    def test_normals_of_any_magnitude(self):
        # each normal is scaled by a power of two before its norm is taken:
        # no overflow or underflow in the squares, and the same bits where
        # the scaling is exact
        u = np.random.default_rng(0).standard_normal((300, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        unit_normals = sb.PointCloud(u, -u).normals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (2.0**700, 2.0**-600):
                np.testing.assert_array_equal(sb.PointCloud(u, -f * u).normals, unit_normals)
            for f in (1e200, 1e-170):
                np.testing.assert_allclose(sb.PointCloud(u, -f * u).normals, unit_normals,
                                           rtol=0.0, atol=1e-15)

    def test_sphere_cloud_signed_distance(self, sphere_cloud):
        d = sphere_cloud.signed_distance(np.array([[0.0, 0, 0], [1.5, 0, 0]]))
        assert d[0] == pytest.approx(1.0, abs=0.01)
        assert d[1] == pytest.approx(-0.5, abs=0.01)

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

    def test_outward_normals_rejected(self):
        # every sample agrees with its neighbours, but all normals point out
        rng = np.random.default_rng(8)
        u = rng.standard_normal((600, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sb.PointCloud(u, -u)
        with pytest.raises(sb.OrientationError, match="outward"):
            sb.PointCloud(u, u)
        th = rng.uniform(0.0, 2.0 * math.pi, 600)
        pts = np.stack([2.0 * np.cos(th), np.sin(th)], axis=1)
        inner = -pts / np.array([4.0, 1.0])
        sb.PointCloud(pts, inner)
        with pytest.raises(sb.OrientationError, match="outward"):
            sb.PointCloud(pts, -inner)

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
        R = sphere_cloud.bounding_radius()
        default = max(1.5 * sphere_cloud.spacing**2 / R, 2e-6 * R)
        assert sphere_cloud.critical_tolerances(None) == (default, default)
        assert sphere_cloud.critical_tolerances(3e-4) == (3e-4, 3e-4)
        diam = 2 * ell_111.bounding_radius()
        assert ell_111.critical_tolerances(None) == (5e-10 * diam, 0.0)
        assert ell_111.critical_tolerances(1e-6) == (1e-6, 0.0)
        assert ell_111.critical_tolerances(1e-13) == (1e-13, 0.0)

    def test_missing_member_names_type_and_member(self, sphere_cloud):
        missing = "PointCloud does not provide the level-function gradient"
        with pytest.raises(sb.CapabilityError, match=missing):
            sphere_cloud.jet(sphere_cloud.points[:3], 1)
        assert issubclass(sb.CapabilityError, NotImplementedError)
        assert issubclass(sb.CapabilityError, sb.SurfaceError)

    def test_cloud_has_no_projection(self, sphere_cloud):
        # nothing is known between the samples to project onto; the nearest
        # samples are points[tree.query(P)[1]]
        with pytest.raises(sb.CapabilityError, match="PointCloud does not provide project"):
            sphere_cloud.project(np.array([[2.0, 0.0, 0.0]]))

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
                    nu1, k1 = cloud.curvatures_batch(p[None])
                    np.testing.assert_array_equal(nu1[0], nu)
                    np.testing.assert_array_equal(k1[0], k)

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


def _tangent_offsets(cloud: sb.PointCloud) -> np.ndarray:
    """Each sample's k neighbor offsets in its tangent plane, as the area sums them."""
    offs = cloud.points[cloud._knn[:, 1 : cloud.k + 1]] - cloud.points[:, None, :]
    return np.matmul(offs, np.swapaxes(tangent_frame(cloud.normals), 1, 2))


def _unit_sphere_cloud(count: int, seed: int, repeat: int = 0) -> sb.PointCloud:
    """The analyze-cloud input for `seed`, with its first `repeat` samples twice."""
    u = np.random.default_rng(seed).standard_normal((count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u = np.concatenate([u, u[:repeat]])
    return sb.PointCloud(u, -u)


def _kernel_inputs(name: str) -> list[np.ndarray]:
    """Batches of neighbor offsets (m, k, 2) for the cell kernel."""
    if name.startswith("analyze-cloud"):
        return [_tangent_offsets(_unit_sphere_cloud(1500, int(name[-1])))]
    if name == "noisy-ellipsoid":
        return [_tangent_offsets(_noisy_ellipsoid_cloud(600, 3))]
    if name == "duplicates":
        return [_tangent_offsets(_unit_sphere_cloud(600, 4, repeat=60))]
    if name == "collapsed":
        offs = np.zeros((1, 20, 2))
        offs[0, :5] = np.random.default_rng(2).standard_normal((5, 2))
        return [offs]
    if name == "lattices":
        ij = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4) if (i, j) != (0, 0)])
        rows = []
        for basis in ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, math.sqrt(3) / 2]]):
            for s in (0.03, 1.0):
                offs = s * ij @ np.array(basis)
                rows.append(offs[np.argsort(np.linalg.norm(offs, axis=1), kind="stable")[:20]])
        return [np.array(rows)]
    # one cell per batch, cut to up to 10 vertices by a ring of 8 neighbors,
    # then to fewer by one close neighbor: the widest padding a batch reached
    # is wider than its largest final cell
    rng = np.random.default_rng(5)
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, (300, 8)), axis=1)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=2) * rng.uniform(0.9, 1.1, (300, 8, 1))
    a = rng.uniform(0.0, 2.0 * math.pi, 300)
    close = np.stack([np.cos(a), np.sin(a)], axis=1) * rng.uniform(0.2, 0.8, (300, 1))
    return list(np.concatenate([ring, close[:, None]], axis=1)[:, None])


class TestPointCloudRays:
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

    @pytest.mark.parametrize(
        "name",
        ["analyze-cloud-0", "analyze-cloud-1", "noisy-ellipsoid", "duplicates", "collapsed",
         "lattices", "shrinking-cells"],
    )
    def test_cells_bit_identical_to_all_rows_kernel(self, name):
        # rebuilding only the cut cells changes no float of any area
        for xy in _kernel_inputs(name):
            if name == "duplicates":
                assert (np.einsum("mkd,mkd->mk", xy, xy) < 1e-30).any()
            cells = sb.surfaces._voronoi_cell_areas(xy)
            np.testing.assert_array_equal(cells, voronoi_cell_areas_all_rows(xy))

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
        # a one-row batch P[i:i+1] gives exactly row i of the batch P
        surface = _parity_surface(name)
        rng = np.random.default_rng(seed)
        centre = getattr(surface, "center", np.zeros(surface.dim))
        P = centre + rng.uniform(0.8, 1.25, (m, 1)) * (surface.sample_points(m, rng) - centre)
        kernels = ["implicit", "signed_distance"]
        if name != "cloud":
            kernels.append("project")
        for kernel in kernels:
            rows = getattr(surface, kernel)(P)
            for i in range(m):
                np.testing.assert_array_equal(getattr(surface, kernel)(P[i : i + 1])[0], rows[i])
        # a cloud answers with the nearest sample's geometry
        Q = P if name == "cloud" else surface.project(P)
        nus, kappas = surface.curvatures_batch(Q)
        for i in range(m):
            nu1, k1 = surface.curvatures_batch(Q[i : i + 1])
            np.testing.assert_array_equal(nu1[0], nus[i])
            np.testing.assert_array_equal(k1[0], kappas[i])

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
        frames = tangent_frame(W)
        for i in range(len(W)):
            one = tangent_frame(W[i : i + 1])[0]
            np.testing.assert_array_equal(one, frames[i])
            np.testing.assert_array_equal(np.signbit(one), np.signbit(frames[i]))
        for bad in (np.zeros((1, d)), np.full((1, d), np.nan)):
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
