"""Surface description files, point-cloud CSV loading, and report writing.

Surface files are single JSON documents:

    {"type": "sphere", "center": [0,0,0], "radius": 1.0}
    {"type": "ellipsoid", "semi_axes": [1.0, 1.0, 1.1]}
    {"type": "radial_graph", "basis": "real_spherical_harmonics",
     "coeffs": [[l, m, value], ...], "base_radius": 1.0}
    {"type": "radial_graph", "basis": "fourier", "coeffs": [[l, m, value], ...]}
    {"type": "point_cloud", "path": "cloud.csv"}

Point-cloud CSV carries a header 'x,y,z,nx,ny,nz' (surfaces in R^3) or
'x,y,nx,ny' (curves in R^2), one sample per row, decimal notation, with
inward normals. Reports are canonical JSON (sorted keys, fixed layout), so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from .surfaces import Ellipsoid, HarmonicRadial, PointCloud, Sphere, Surface


class SpecError(ValueError):
    """Malformed surface description or cloud file."""


def load_point_cloud_csv(path: str | os.PathLike) -> PointCloud:
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip().lower() for h in next(reader)]
            # rows by line number, so that an error can name the line
            lines = {reader.line_num: row for row in reader if row}
    except (OSError, StopIteration, ValueError) as exc:
        raise SpecError(f"cannot read point cloud {path}: {exc}") from exc
    d = {("x", "y", "z", "nx", "ny", "nz"): 3, ("x", "y", "nx", "ny"): 2}.get(tuple(header))
    if d is None:
        raise SpecError(f"unrecognized cloud header {header!r} in {path}")
    if not lines:
        raise SpecError(f"point cloud {path} has no rows")
    for line, row in lines.items():
        if len(row) != 2 * d:
            raise SpecError(f"line {line} of {path} has {len(row)} fields; the header has {2 * d}")
        try:
            lines[line] = [float(v) for v in row]
        except ValueError as exc:
            raise SpecError(f"line {line} of {path}: {exc}") from exc
    data = np.asarray(list(lines.values()), dtype=float)
    return PointCloud(data[:, :d], data[:, d:])


def surface_from_dict(doc: dict, base_dir: str | os.PathLike = ".") -> Surface:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SpecError("surface document must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "sphere":
            return Sphere(doc["center"], float(doc["radius"]))
        if kind == "ellipsoid":
            return Ellipsoid(doc["semi_axes"])
        if kind == "radial_graph":
            basis = doc.get("basis", "real_spherical_harmonics")
            if basis == "real_spherical_harmonics":
                dim = 3
            elif basis == "fourier":
                dim = 2
            else:
                raise SpecError(f"unknown radial basis {basis!r}")
            return HarmonicRadial(
                doc.get("coeffs", []), base_radius=float(doc.get("base_radius", 1.0)), dim=dim
            )
        if kind == "point_cloud":
            return load_point_cloud_csv(Path(base_dir) / doc["path"])
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad {kind!r} surface document: {exc}") from exc
    raise SpecError(f"unknown surface type {kind!r}")


def load_surface(path: str | os.PathLike) -> Surface:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot parse surface file {path}: {exc}") from exc
    return surface_from_dict(doc, base_dir=path.parent)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if obj != obj:
            return None
        if obj == float("inf"):
            return "inf"
        if obj == float("-inf"):
            return "-inf"
    return obj


def dump_report(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline;
    non-finite floats become the strings 'inf'/'-inf'/null."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(doc: dict, path: str | os.PathLike) -> None:
    Path(path).write_text(dump_report(doc))


def write_sweep_csv(rows: list[dict], path: str | os.PathLike, footer: dict | None = None) -> None:
    """One row per family parameter plus a commented footer block."""
    fields = ["t", "osc", "re_minus_ri", "ratio", "rho_hat", "defect", "status"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
        if footer:
            for key, val in footer.items():
                fh.write(f"# {key} = {val}\n")
