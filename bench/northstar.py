"""North-star timings: `stability_ratio(surface, sample_budget=4000, seed=0)`
on the three North-star workloads, stage by stage.

    python3 bench/northstar.py --label change --out BENCH_29.json

The script imports soapbubble from the `src/` of the checkout it sits in, so
running a copy of it from another checkout times that checkout's code. It
runs every workload 5 times, in turn, each time on a freshly built surface,
and gives one row per workload and stage, {workload, stage, seconds,
ref_ratio}, each the median of the 5 runs:

- the stages are those `stability_ratio` calls in turn (osc, rho, area, axis
  planes, extremal plane, radii, defect, radial map), each timed by wrapping
  the name it calls; a stage called inside another counts to the outer one,
  as `critical_position` does inside `symmetry_center`;
- "total" is the whole `stability_ratio` call;
- `ref_ratio` is seconds over one pass of `perfbench.reference.Reference`,
  the mean of the passes just before and just after the run, so rows from
  hosts or moments of different speed compare.

The rows, the md5 of each workload's `dump_report` text (which every run
must reproduce) and the host's Python, numpy and CPU count go under
`--label` in `--out`; labels already in that file stay, so one file holds a
parent's and a change's rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import soapbubble  # noqa: E402
from perfbench.reference import Reference  # noqa: E402
from soapbubble import symmetry  # noqa: E402
from soapbubble.specio import dump_report  # noqa: E402

SAMPLE_BUDGET = 4000
SEED = 0
REPEATS = 5


def _sphere_cloud() -> soapbubble.PointCloud:
    # the 4000-point unit-sphere cloud of tests/conftest.py
    u = np.random.default_rng(11).standard_normal((4000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return soapbubble.PointCloud(u, -u, k=20)


WORKLOADS = {
    "ellipsoid": lambda: soapbubble.Ellipsoid([1.0, 1.0, 1.1]),
    "harmonic": lambda: soapbubble.HarmonicRadial([(2, 0, 0.15), (3, 0, 0.05)]),
    "cloud": _sphere_cloud,
}

# stage names, by the `symmetry` global that `stability_ratio` calls; the
# area is the surface's own `area_estimate`
STAGES = {
    "mean_curvature_oscillation": "osc",
    "touching_radius": "rho",
    "symmetry_center": "axis planes",
    "critical_position": "extremal plane",
    "radial_bounds": "radii",
    "reflection_defect": "defect",
    "radial_map_check": "radial map",
}
ORDER = ["osc", "rho", "area", "axis planes", "extremal plane", "radii", "defect", "radial map"]


class StageClock:
    """Seconds per stage, counting only calls made outside every other stage."""

    def __init__(self):
        self.seconds = dict.fromkeys(ORDER, 0.0)
        self._inside = False

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - t0
                self._inside = False

        return timed


def time_workload(name: str, ref: Reference) -> tuple[dict, float, str]:
    """One run: seconds per stage, the reference seconds around it and the
    md5 of the report text."""
    surface = WORKLOADS[name]()
    clock = StageClock()
    originals = {attr: getattr(symmetry, attr) for attr in STAGES}
    for attr, stage in STAGES.items():
        setattr(symmetry, attr, clock.wrap(stage, originals[attr]))
    surface.area_estimate = clock.wrap("area", surface.area_estimate)
    try:
        ref_before = ref.run()
        t0 = time.perf_counter()
        report = soapbubble.stability_ratio(surface, sample_budget=SAMPLE_BUDGET, seed=SEED)
        total = time.perf_counter() - t0
        ref_s = 0.5 * (ref_before + ref.run())
    finally:
        for attr, fn in originals.items():
            setattr(symmetry, attr, fn)
    digest = hashlib.md5(dump_report(report.to_dict()).encode()).hexdigest()
    return {**clock.seconds, "total": total}, ref_s, digest


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key for this checkout's rows, e.g. parent or change")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to add the rows to")
    args = ap.parse_args(argv)
    ref = Reference()
    runs = {name: [] for name in WORKLOADS}
    reports = {}
    for _ in range(REPEATS):
        for name in WORKLOADS:
            seconds, ref_s, digest = time_workload(name, ref)
            if reports.setdefault(name, digest) != digest:
                raise SystemExit(f"{name}: two runs gave different reports")
            runs[name].append((seconds, ref_s))
    rows = []
    for name, timed in runs.items():
        for stage in timed[0][0]:
            s = [seconds[stage] for seconds, _ in timed]
            ratio = [seconds[stage] / ref_s for seconds, ref_s in timed]
            rows.append({"workload": name, "stage": stage, "seconds": float(np.median(s)),
                         "ref_ratio": float(np.median(ratio))})
        print(json.dumps(rows[-1]), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = {
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "report_md5": reports,
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
