import os

import numpy as np
import pytest
from hypothesis import settings

from soapbubble import Ellipsoid, HarmonicRadial, PointCloud, Sphere

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that reproduces a failure; without it each run draws new examples
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def unit_sphere():
    return Sphere([0.0, 0.0, 0.0], 1.0)


@pytest.fixture(scope="session")
def offset_sphere():
    return Sphere([0.3, -0.2, 0.5], 1.0)


@pytest.fixture(scope="session")
def ell_111():
    return Ellipsoid([1.0, 1.0, 1.1])


@pytest.fixture(scope="session")
def ell_112():
    return Ellipsoid([1.0, 1.0, 2.0])


@pytest.fixture(scope="session")
def circle2():
    return Sphere([0.0, 0.0], 2.0)


@pytest.fixture(scope="session")
def radial_unit():
    return HarmonicRadial([], base_radius=1.0, dim=3)


@pytest.fixture(scope="session")
def radial_bumpy():
    return HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)], dim=3)


@pytest.fixture(scope="session")
def sphere_cloud():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((4000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return PointCloud(u, -u, k=20)
