"""The plane-section tracer: the coarse march and its two resamples against
the march that stepped at the output spacing, scale covariance, the
corrector's landing rule, and the march counter."""

import math

import numpy as np
import pytest

import soapbubble as sb
from soapbubble.lemmas import _slice_seed, figure_projection_check, slice_curvature_bounds
from soapbubble.tracing import (
    TracingError,
    _correct,
    curve_curvatures,
    trace_plane_section,
)
from tests.oracles import trace_plane_section_fine

# the three slices of the verify battery, as (fraction of the bounding
# radius past the probe mean, plane normal), traced at step 0.015
BATTERY_SLICES = ((0.25, (0.0, 0.0, 1.0)), (-0.1, (0.3, 0.2, 0.93)), (0.4, (1.0, 0.0, 0.2)))
# name -> (surface fixture, plane normal, level, step)
SECTIONS = {
    "sphere0.0": ("unit_sphere", (0.0, 0.0, 1.0), 0.0, 0.01),
    "sphere0.3": ("unit_sphere", (0.0, 0.0, 1.0), 0.3, 0.01),
    "sphere-0.6": ("unit_sphere", (0.0, 0.0, 1.0), -0.6, 0.01),
    "bumpy-tilted": ("radial_bumpy", (0.3, 0.2, 0.93), 0.1, 0.02),
    "neck0.015": ("dumbbell", (1.0, 0.0, 0.0), 0.0, 0.015),
    "neck0.05": ("dumbbell", (1.0, 0.0, 0.0), 0.0, 0.05),
}


@pytest.fixture(scope="module")
def dumbbell():
    return sb.HarmonicRadial([(2, 0, 1.8)], dim=3)


def _battery_section(surface, i):
    frac, w = BATTERY_SLICES[i]
    w = np.asarray(w) / np.linalg.norm(w)
    level = frac * surface.bounding_radius() + float(np.mean(surface.probe_points(500, 0) @ w))
    return w, level, _slice_seed(surface, w, level)


def _section(request, name):
    """(surface, omega, level, seed, step) of a named section."""
    if name.startswith("battery"):
        surface = request.getfixturevalue("ell_112")
        return (surface, *_battery_section(surface, int(name[-1])), 0.015)
    fixture, w, level, step = SECTIONS[name]
    surface = request.getfixturevalue(fixture)
    w = np.asarray(w) / np.linalg.norm(w)
    return surface, w, level, _slice_seed(surface, w, level), step


def _length(P):
    return float(np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1).sum())


# the largest |kappa - kappa_fine| / max kappa_fine on the dumbbell's neck
# sections, where kappa * step reaches 0.23 and 0.63: the two tracers place
# their points along the tight neck a little differently
NECK_KAPPA_DEV = {"neck0.015": 2.5e-4, "neck0.05": 1e-3}
# relative length gap at kappa * step = 0.63 (1.4e-7 measured). Against a
# trace at step/64, the coarse march's points are the more evenly spaced in
# arclength (spread 1.2e-3 against 2.0e-3) and its polygon the nearer in
# length (3.454e-4 short against 3.455e-4).
NECK_LENGTH_RTOL = {"neck0.05": 2e-7}
@pytest.mark.parametrize(
    "name",
    ["sphere0.0", "sphere0.3", "sphere-0.6", "battery0", "battery1", "battery2",
     "bumpy-tilted", "neck0.015", "neck0.05"],
)
def test_coarse_march_matches_fine_march(request, name):
    surface, w, level, seed, step = _section(request, name)
    trace = trace_plane_section(surface.jet, w, level, seed, step)
    fine = trace_plane_section_fine(surface.jet, w, level, seed, step)
    P = trace.points
    assert len(P) == len(fine)
    # one loop through the seed's landing point, on the fine trace's component
    np.testing.assert_allclose(P[0], fine[0], rtol=0, atol=1e-12)
    gap = np.linalg.norm(P[:, None, :] - fine[None, :, :], axis=2).min(axis=1)
    assert gap.max() < step
    assert abs(_length(P) - _length(fine)) <= NECK_LENGTH_RTOL.get(name, 1e-7) * _length(fine)
    k, k_fine = curve_curvatures(P), curve_curvatures(fine)
    dev = np.abs(k - k_fine).max() / k_fine.max()
    assert dev <= NECK_KAPPA_DEV.get(name, 1e-6)
    # the march steps at the curve's turning, not at the output spacing
    assert trace.march_steps < len(P) / 2


def test_thin_section_traced_once_round():
    # the section is 0.069 wide, narrower than the march's longest step (0.08)
    # along its flat sides, so only the step running past the seed in the
    # seed's direction may close the loop
    surface = sb.Ellipsoid([1.0, 1.0, 0.04])
    w, step = np.array([1.0, 0, 0]), 0.01
    seed = _slice_seed(surface, w, 0.5)
    trace = trace_plane_section(surface.jet, w, 0.5, seed, step)
    fine = trace_plane_section_fine(surface.jet, w, 0.5, seed, step)
    P = trace.points
    assert len(P) == len(fine)
    # the ellipse's parameter angle runs once round, one way
    a = math.sqrt(0.75)
    angle = np.unwrap(np.arctan2(P[:, 2] / (0.04 * a), P[:, 1] / a))
    assert np.all(np.diff(angle) > 0) or np.all(np.diff(angle) < 0)
    assert abs(abs(angle[-1] - angle[0]) - 2 * math.pi) < 0.1
    gap = np.linalg.norm(fine[:, None, :] - P[None, :, :], axis=2).min(axis=1)
    assert gap.max() < 0.1 * step
    # the ends turn by 7 rad per step, so the two tracers' polygons cut them
    # a little differently (7e-6 measured)
    assert abs(_length(P) - _length(fine)) <= 1e-5 * _length(fine)


@pytest.mark.parametrize("seed", [(2.0, 0.0, 0.0), (1e-3, 2e-4, 0.0), (4e-4, -1e-3, 0.0)])
def test_section_through_origin_lands(seed):
    # |x| vanishes at the origin, where phi still rounds at 1e-16 of the
    # sphere's size; the section's own size bounds the landing there
    c = 1.0 / 3.0
    surface = sb.Sphere([c, 0.0, 0.0], c)
    w, step = np.array([0.0, 0, 1.0]), 0.01 * c
    trace = trace_plane_section(surface.jet, w, 0.0, np.array(seed), step)
    P = trace.points
    assert len(P) == round(2 * math.pi * c / step)
    np.testing.assert_allclose(np.linalg.norm(P - surface.center, axis=1), c, rtol=0, atol=1e-15)
    assert np.abs(P @ w).max() <= 1e-16


def test_trace_is_scale_covariant(ell_112):
    big = sb.Ellipsoid([1e3, 1e3, 2e3])
    w, level, seed = _battery_section(ell_112, 1)
    unit_trace = trace_plane_section(ell_112.jet, w, level, seed, 0.015)
    big_trace = trace_plane_section(big.jet, w, 1e3 * level, 1e3 * seed, 15.0)
    assert len(big_trace.points) == len(unit_trace.points)
    assert big_trace.march_steps == unit_trace.march_steps
    np.testing.assert_allclose(big_trace.points, 1e3 * unit_trace.points, rtol=0, atol=1e-12 * 2e3)


@pytest.mark.parametrize("base_radius", [1e3, 1e4])
def test_large_harmonic_section_lands(base_radius):
    # an absolute 1e-13 stop on |phi| cannot be met here: phi = r - |x| rounds
    # at about 1e-16 |x|
    surface = sb.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)], base_radius=base_radius)
    w = np.array([0.0, 0, 1.0])
    seed = _slice_seed(surface, w, 0.0)
    trace = trace_plane_section(surface.jet, w, 0.0, seed, 0.05 * base_radius)
    P = trace.points
    r = np.linalg.norm(P, axis=1)
    phi, grad = surface.jet(P, 1)
    assert np.all(np.abs(phi) <= 1e-14 * r * np.linalg.norm(grad, axis=1))
    assert np.all(np.abs(P @ w) <= 1e-14 * r)


def test_unlanded_row_raises_naming_it(unit_sphere):
    w = np.array([0.0, 0, 1.0])
    rough = np.array([[math.sqrt(0.75), 0.0, 0.5], [1.3, 0.2, 0.7]])
    landed, _ = _correct(unit_sphere.jet, w, 0.5, rough[:1], iters=1)
    np.testing.assert_array_equal(landed, rough[:1])
    with pytest.raises(TracingError, match="row 1 "):
        _correct(unit_sphere.jet, w, 0.5, rough, iters=1)


def test_march_steps_reported_and_repeatable(ell_112):
    w, level, _ = _battery_section(ell_112, 2)
    notes = [slice_curvature_bounds(ell_112, w, level, step=0.015, tol=1e-4).notes for _ in range(2)]
    assert notes[0] == notes[1]
    fields = dict(n.split("=", 1) for n in notes[0])
    assert 0 < int(fields["march_steps"]) < int(fields["trace_points"])
    runs = [figure_projection_check(step=0.02) for _ in range(2)]
    assert runs[0]["march_steps"] == runs[1]["march_steps"] > 0
