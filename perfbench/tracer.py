"""Span tracer that wraps soapbubble's public entry points from outside the
package.

`Tracer.install()` replaces each target function or method with a wrapper
that records a span (id, name, start, end, parent, op id) and folds it into
per-operation statistics: inclusive seconds (outermost call of a name only),
self seconds (minus child spans), calls, points, and for the lemma checks
trials and skipped. A function imported into several modules is replaced in
every module that holds it, so cross-module calls are traced too.

Spans are kept in flat arrays in memory and written out by `write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    """Points = rows of a surface method's point argument."""
    a = np.asarray(args[1] if len(args) > 1 else kwargs["pts"])
    return {"points": a.shape[0] if a.ndim == 2 else 1}


def _cap_points(args, kwargs, result):
    return {"points": result.cap_count}


def _ray_points(args, kwargs, result):
    directions = args[2] if len(args) > 2 else kwargs["directions"]
    resolution = args[4] if len(args) > 4 else kwargs.get("resolution", 2048)
    return {"points": len(directions) * resolution}


def _trace_points(args, kwargs, result):
    return {"points": len(result.points)}


def _verdict(args, kwargs, result):
    return {"trials": result.trials, "skipped": result.skipped}


SURFACE_METHODS = {
    "project": _rows,
    "signed_distance": _rows,
    "implicit": _rows,
    "implicit_grad": _rows,
    "implicit_hess": _rows,
    "curvatures_batch": _rows,
    "area_estimate": None,
}

# (module, attribute, span name, counter)
FUNCTIONS = [
    ("surfaces", "_refine_extremum", "surfaces.refine_extremum", None),
    ("surfaces", "mean_curvature_oscillation", "surfaces.mean_curvature_oscillation", None),
    ("surfaces", "touching_radius", "surfaces.touching_radius", None),
    ("planes", "reflected_cap_inside", "planes.reflected_cap_inside", _cap_points),
    ("planes", "critical_position", "planes.critical_position", None),
    ("planes", "extent", "planes.extent", None),
    ("symmetry", "stability_ratio", "symmetry.stability_ratio", None),
    ("symmetry", "symmetry_center", "symmetry.symmetry_center", None),
    ("symmetry", "radial_bounds", "symmetry.radial_bounds", None),
    ("symmetry", "reflection_defect", "symmetry.reflection_defect", None),
    ("symmetry", "radial_map_check", "symmetry.radial_map_check", None),
    ("symmetry", "count_ray_hits", "symmetry.count_ray_hits", _ray_points),
    ("intrinsic", "build_geodesic_graph", "intrinsic.build_geodesic_graph", None),
    ("intrinsic", "GeodesicGraph.distances_from", "intrinsic.distances_from", None),
    ("intrinsic", "piecewise_geodesic_chain", "intrinsic.piecewise_geodesic_chain", None),
    ("intrinsic", "harnack_chain", "intrinsic.harnack_chain", None),
    ("tracing", "trace_plane_section", "tracing.trace_plane_section", _trace_points),
    ("lemmas", "verify_graph_bounds", "lemmas.graph_bounds", _verdict),
    ("lemmas", "verify_distance_bounds", "lemmas.distance_bounds", _verdict),
    ("lemmas", "slice_curvature_bounds", "lemmas.slice_curvature", _verdict),
    ("lemmas", "verify_normal_change", "lemmas.normal_change", _verdict),
    ("lemmas", "verify_normal_difference", "lemmas.normal_difference", _verdict),
    ("lemmas", "verify_normal_tilt", "lemmas.normal_tilt", _verdict),
    ("lemmas", "verify_annulus_normal", "lemmas.annulus_normal", _verdict),
    ("specio", "load_surface", "specio.load_surface", None),
]

COUNT_FIELDS = ("calls", "points", "trials", "skipped")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.stats: dict[int, dict[str, dict]] = {}
        self._patched: list[tuple] = []

    # --- installation ---

    def install(self) -> None:
        targets = {mod for mod, _, _, _ in FUNCTIONS} | {"surfaces"}
        by_name = {mod: importlib.import_module(f"soapbubble.{mod}") for mod in targets}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "soapbubble"]
        surfaces = by_name["surfaces"]
        for cls in vars(surfaces).values():
            if isinstance(cls, type) and issubclass(cls, surfaces.Surface):
                for meth, counter in SURFACE_METHODS.items():
                    if meth in vars(cls):
                        self._patch(cls, meth, self.wrap(f"surfaces.{meth}", vars(cls)[meth], counter))
        for mod_name, attr, name, counter in FUNCTIONS:
            mod = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(name, vars(cls)[meth], counter))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back, so the next operation runs untraced."""
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, wrapped) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapped)

    def wrap(self, name: str, fn, counter):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer._record(sid, nid, t0, t1, parent)
                st = tracer._layer(name)
                if tracer._depth[name] == 0:
                    st["s"] += dur
                st["self_s"] += dur - frame[1]
                st["calls"] += 1
                if counter is not None and result is not None:
                    for key, value in counter(args, kwargs, result).items():
                        st[key] += int(value)

        return traced

    # --- recording ---

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stats[op_id] = {}

    def _layer(self, name: str) -> dict:
        ops = self.stats.setdefault(self.op_id, {})
        st = ops.get(name)
        if st is None:
            st = ops[name] = {"s": 0.0, "self_s": 0.0, **{k: 0 for k in COUNT_FIELDS}}
        return st

    def _record(self, sid, nid, t0, t1, parent) -> None:
        self.span_id.append(sid)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(self.op_id)

    def counts(self, op_id: int) -> dict:
        """The deterministic counters of one operation, by layer."""
        return {
            name: {k: st[k] for k in COUNT_FIELDS}
            for name, st in sorted(self.stats.get(op_id, {}).items())
        }

    def write(self, spans_path, stats_path) -> None:
        np.savez_compressed(
            spans_path,
            names=np.array(self.names),
            span_id=np.asarray(self.span_id, dtype=np.int64),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int32),
        )
        with open(stats_path, "w") as fh:
            json.dump({str(k): v for k, v in self.stats.items()}, fh, indent=1, sort_keys=True)
