"""Run every workload once and print its metrics as a table.

    python3 perfbench/report.py [--seed 0] [--seconds 45] [--trace]

Run from the root of a source checkout. Without --trace it prints the
end-to-end metrics (run_ref, setup_s, peak_rss_mb), the operation time in
plain seconds (run_s), and failed_frac, the share of operations that raised
or failed their correctness check. With --trace it
prints the per-layer metrics of the traced runs; each time metric also shows
its share of the traced operation time (trace.run_s).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload}: run failed\n{proc.stderr}")
    extra = {}
    for line in lines[:-1]:
        extra.update(json.loads(line))
    return extra, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: run(w, args.seed, args.seconds, int(args.trace)) for w in workloads}

    if not args.trace:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print("| workload | " + " | ".join(f"{n} ({units[n]})" for n in names)
              + " | run_s (s) | failed_frac | correct |")
        print("|---" * (len(names) + 4) + "|")
        for w, (extra, res) in results.items():
            cells = [f"{res['metrics'][n]['value']:.4g}" for n in names]
            print(f"| {w} | " + " | ".join(cells) + f" | {extra['run_s']:.4g}"
                  + f" | {extra['failed_frac']:.3g} | {res['correct']} |")
        return 0

    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---" * (len(workloads) + 2) + "|")
    for m in bench["per_layer"]:
        cells = []
        for w in workloads:
            metrics = results[w][1]["metrics"]
            value = metrics[m["name"]]["value"]
            if m["unit"] == "s" and not m["name"].startswith("trace."):
                share = value / metrics["trace.run_s"]["value"]
                cells.append(f"{value:.3g} ({share:.0%})")
            else:
                cells.append(f"{value:.4g}")
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    print("\ncorrect: " + ", ".join(f"{w}={results[w][1]['correct']}" for w in workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
