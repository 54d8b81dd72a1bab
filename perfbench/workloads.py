"""The benchmark's workloads: inputs from a seed, one timed operation, and
the correctness gate for its output.

Each workload writes its surface as a spec file (plus a CSV for the point
cloud), so building a surface goes through `soapbubble.load_surface` exactly
as `soapbubble analyze --surface` does. `build` turns the spec files into a
fresh input; `run` is the timed operation and returns the report document;
`check` returns the list of ways that document is wrong (empty when right).

Nothing here imports soapbubble at module level: the caller times that
import as part of set-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes are set so that one operation takes a few seconds and a run holds
# several operations on each of its instances (see README "Sizes").
SAMPLE_BUDGET = 500
CLOUD_POINTS = 1500
CLOUD_RAYS = 100  # ray-hit directions for the cloud (the pipeline default is 1000)

# verify-battery sizes: acceptance criteria 05 and 09 on one ellipsoid and the
# unit sphere, scaled down so that a run holds several operations
BATTERY_TRIALS = 1000
BATTERY_CONTROL_TRIALS = 500
DISTANCE_GRAPH_NODES = 3000
TILT_GRAPH_NODES = 2000
CHAIN_GRAPH_NODES = 4000
PLANE_BUDGET = 250
CHAIN_SOURCES = 2
CHAIN_PICKS = 5
SLICES = ((0.25, (0.0, 0.0, 1.0)), (-0.1, (0.3, 0.2, 0.93)), (0.4, (1.0, 0.0, 0.2)))


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[Path, int], dict]  # (directory, seed) -> spec paths
    build: Callable[[dict], object]            # spec paths -> fresh input
    run: Callable[[object, int], dict]         # (input, seed) -> report document
    check: Callable[[dict], list]              # report document -> failures
    instances: int                             # inputs per run, each from its own seed


def _write_spec(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def _load(specs: dict, key: str = "surface"):
    import soapbubble

    return soapbubble.load_surface(specs[key])


# ---------------------------------------------------------------------------
# analyze-cloud: one stability_ratio call on a fresh point cloud


def _cloud_run(surface, seed: int) -> dict:
    import soapbubble

    return soapbubble.stability_ratio(
        surface, sample_budget=SAMPLE_BUDGET, seed=seed, n_rays=CLOUD_RAYS
    ).to_dict()


def _cloud_inputs(out: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((CLOUD_POINTS, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = np.concatenate([u, -u], axis=1)
    csv = out / "cloud.csv"
    with open(csv, "w") as fh:
        fh.write("x,y,z,nx,ny,nz\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    doc = {"type": "point_cloud", "path": csv.name}
    return {"surface": _write_spec(out / "cloud.json", doc)}


def _cloud_check(doc: dict) -> list:
    # truth: the unit sphere (centre 0, r_i = r_e = 1); the estimate is good
    # to the sample-spacing scale h = sqrt(4 pi / N)
    h = math.sqrt(4.0 * math.pi / CLOUD_POINTS)
    bad = []
    centre = math.sqrt(sum(c * c for c in doc["center"]))
    if centre > h * h:
        bad.append(f"centre off by {centre:.3g}")
    for key in ("r_i", "r_e"):
        if abs(doc[key] - 1.0) > h * h:
            bad.append(f"{key} = {doc[key]!r}")
    return bad


# ---------------------------------------------------------------------------
# verify-battery: the lemma checks and chain constructions


def _battery_inputs(out: Path, seed: int) -> dict:
    return {
        "surface": _write_spec(
            out / "battery-ellipsoid.json", {"type": "ellipsoid", "semi_axes": [1.0, 1.0, 2.0]}
        ),
        "sphere": _write_spec(
            out / "battery-sphere.json", {"type": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0}
        ),
    }


def _battery_build(specs: dict):
    return _load(specs, "surface"), _load(specs, "sphere")


def _battery_run(inputs, seed: int) -> dict:
    import soapbubble as sb
    from soapbubble import lemmas

    surf, sphere = inputs
    T = BATTERY_TRIALS
    checks = {}
    checks["graph-bounds"] = lemmas.verify_graph_bounds(surf, trials=T, seed=seed)
    graph16 = sb.build_geodesic_graph(surf, DISTANCE_GRAPH_NODES, k=16, seed=seed)
    checks["distance-bounds"] = lemmas.verify_distance_bounds(surf, graph16, trials=T, seed=seed)
    probe_mean = surf.probe_points(500, 0)
    for i, (frac, w) in enumerate(SLICES):
        w = np.asarray(w) / np.linalg.norm(w)
        level = frac * surf.bounding_radius() + float(np.mean(probe_mean @ w))
        checks[f"slice-curvature-{i}"] = lemmas.slice_curvature_bounds(
            surf, w, level, step=0.015, tol=1e-4
        )
    checks["normal-change"] = lemmas.verify_normal_change(surf, trials=T, seed=seed)
    checks["normal-difference"] = lemmas.verify_normal_difference(trials=T, seed=seed)

    rho = sb.touching_radius(surf)
    center, planes = sb.symmetry_center(surf, sample_budget=PLANE_BUDGET, seed=seed)
    graph8 = sb.build_geodesic_graph(surf, TILT_GRAPH_NODES, k=8, seed=seed)
    for i, plane in enumerate(planes):
        checks[f"normal-tilt-e{i + 1}"] = lemmas.verify_normal_tilt(
            surf, plane, graph8, delta=0.25 * rho
        )
    r_i, r_e, _, _ = sb.radial_bounds(surf, center, PLANE_BUDGET, seed)
    checks["annulus-normal"] = lemmas.verify_annulus_normal(
        surf, center, r_i, r_e, sample_budget=T, seed=seed
    )
    control = lemmas.verify_graph_bounds(
        surf, trials=BATTERY_CONTROL_TRIALS, seed=seed, rho=2.0 * rho
    )
    return {
        "checks": {k: v.to_dict() for k, v in checks.items()},
        "negative_control": control.to_dict(),
        "chains": _chains(sb, sphere, seed),
    }


def _chains(sb, sphere, seed: int) -> list:
    """Chain constructions on the unit sphere between nearly antipodal nodes
    (acceptance criterion 09's set-up, fewer pairs)."""
    graph = sb.build_geodesic_graph(sphere, CHAIN_GRAPH_NODES, k=8, seed=seed)
    led = sb.compute_constants(2, 1.0, 4.0 * math.pi)
    eps = led.eps0 / 2.0
    r0 = math.sin(led.delta / 2.0)
    rng = np.random.default_rng(seed)
    out = []
    for s in rng.choice(graph.node_count, size=CHAIN_SOURCES, replace=False):
        candidates = np.argsort(graph.points @ -graph.points[s])[-60:]
        for q in rng.choice(candidates, size=CHAIN_PICKS, replace=False):
            chain = sb.piecewise_geodesic_chain(graph, int(s), int(q), led.delta)
            hc = sb.harnack_chain(chain, eps, 1.0, led.delta)
            expected = (1.0 - eps) ** np.arange(len(hc.radii)) * r0
            out.append({
                "pair": [int(s), int(q)],
                "arcs_within_delta": bool(np.all(chain.arc_lengths <= led.delta + 1e-12)),
                "full_arcs_within_L": bool(chain.full_arcs <= led.big_l),
                "length_within_L": bool(chain.total_length <= led.big_l),
                "radii_exact": bool(np.array_equal(hc.radii, expected)),
                "harnack": hc.to_dict(),
            })
    return out


def _battery_check(doc: dict) -> list:
    bad = []
    for name, v in doc["checks"].items():
        if v["violations"]:
            bad.append(f"{name}: {v['violations']} violations")
    for name in ("graph-bounds", "normal-change", "normal-difference", "annulus-normal"):
        if doc["checks"][name]["trials"] != BATTERY_TRIALS:
            bad.append(f"{name}: {doc['checks'][name]['trials']} trials")
    # distance-bounds takes the pairs that qualify, up to the cap
    if doc["checks"]["distance-bounds"]["trials"] < BATTERY_TRIALS // 2:
        bad.append(f"distance-bounds: {doc['checks']['distance-bounds']['trials']} trials")
    tilt = sum(v["trials"] for k, v in doc["checks"].items() if k.startswith("normal-tilt"))
    if tilt < 100:
        bad.append(f"normal-tilt matched only {tilt} trials")
    if doc["negative_control"]["violations"] < 1:
        bad.append("negative control did not fire")
    if len(doc["chains"]) != CHAIN_SOURCES * CHAIN_PICKS:
        bad.append(f"{len(doc['chains'])} chains")
    for c in doc["chains"]:
        h = c["harnack"]
        flags = (c["arcs_within_delta"], c["full_arcs_within_L"], c["length_within_L"],
                 c["radii_exact"], h["steps_ok"], h["count_ok"])
        if not all(flags):
            bad.append(f"chain {c['pair']}: {flags}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-cloud",
            _cloud_inputs,
            _load,
            _cloud_run,
            _cloud_check,
            instances=4,
        ),
        Workload(
            "verify-battery",
            _battery_inputs,
            _battery_build,
            _battery_run,
            _battery_check,
            instances=2,
        ),
    )
}
