"""soapbubble: numerical moving-planes analysis of closed hypersurfaces.

Measures mean-curvature oscillation, locates critical reflection
hyperplanes, fits concentric bounding balls around an approximate center
of symmetry, and stress-tests the quantitative geometric inequalities that
relate the two (touching-ball graph bounds, intrinsic distance envelopes,
chain constructions, normal-tilt and annulus-normal estimates).
"""

from .constants import ConstantsReport, check_smallness, compute_constants
from .intrinsic import (
    GeodesicGraph,
    build_geodesic_graph,
    harnack_chain,
    piecewise_geodesic_chain,
)
from .planes import (
    CriticalPlane,
    critical_caps,
    critical_position,
    extent,
    reflected_cap_inside,
)
from .specio import SpecError, load_surface, surface_from_dict
from .surfaces import (
    CapabilityError,
    Ellipsoid,
    HarmonicRadial,
    OrientationError,
    OscReport,
    PointCloud,
    ProjectionError,
    SparseNeighborhoodError,
    Sphere,
    Surface,
    SurfaceError,
    estimate_touching_radius,
    mean_curvature_oscillation,
    touching_radius,
)
from .symmetry import (
    StabilityReport,
    radial_bounds,
    radial_map_check,
    reflection_defect,
    stability_ratio,
    symmetry_center,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConstantsReport",
    "CriticalPlane",
    "Ellipsoid",
    "GeodesicGraph",
    "HarmonicRadial",
    "OrientationError",
    "OscReport",
    "PointCloud",
    "ProjectionError",
    "SparseNeighborhoodError",
    "SpecError",
    "Sphere",
    "StabilityReport",
    "Surface",
    "SurfaceError",
    "build_geodesic_graph",
    "check_smallness",
    "compute_constants",
    "critical_caps",
    "critical_position",
    "estimate_touching_radius",
    "extent",
    "harnack_chain",
    "load_surface",
    "mean_curvature_oscillation",
    "piecewise_geodesic_chain",
    "radial_bounds",
    "radial_map_check",
    "reflected_cap_inside",
    "reflection_defect",
    "stability_ratio",
    "surface_from_dict",
    "symmetry_center",
    "touching_radius",
    "__version__",
]
