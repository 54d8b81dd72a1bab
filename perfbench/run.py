"""soapbubble benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze-cloud --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout (the directory holding `src/` and
`BENCHMARK.json`); the package is imported from `src/`. A run writes the
inputs of the workload's instances (the first from the seed itself, the
others from seeds derived from it), times set-up in fresh processes, runs
one untimed warm-up operation, then cycles the operation over the
instances, each time on a freshly built surface, until `--seconds` have
passed and every instance ran twice. A pass of the reference kernel
(reference.py) runs before the first operation and after each one. Every
operation's report is checked against the workload's truth and must be
byte-identical to the first report of the same instance.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates traced and untraced operations on the first instance and reports
the per-layer metrics plus the tracing overhead; the traced operations'
counters must repeat exactly. The last line of standard output is the JSON
result; spans and per-operation layer statistics are written under
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

# One BLAS thread: the workload process is single-threaded, and the thread
# pools must be sized before numpy loads. SOAPBUBBLE_THREADS stays unset so
# the pipeline takes its serial path whatever the caller's environment says.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("SOAPBUBBLE_THREADS", None)

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # fresh probe processes
MIN_ROUNDS = 2  # timed operations per instance, at least
OUT_DIR = ".perfbench_out"


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _use_checkout(root: Path) -> None:
    src = root / "src"
    if not (src / "soapbubble" / "__init__.py").is_file():
        _fail(f"no soapbubble sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _import_soapbubble(root: Path):
    import soapbubble
    import soapbubble.lemmas  # noqa: F401  (loaded by the CLI too; keeps lazy imports out of the timed operations)

    if not Path(soapbubble.__file__).resolve().is_relative_to((root / "src").resolve()):
        _fail(f"imported soapbubble from {soapbubble.__file__}, not from this checkout")
    return soapbubble


def probe_setup(root: Path, workload: str, specs: dict) -> None:
    """Child process: time `import soapbubble` plus building the surface."""
    t0 = time.perf_counter()
    _import_soapbubble(root)
    from workloads import WORKLOADS

    WORKLOADS[workload].build(specs)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(root: Path, workload: str, specs: dict) -> list[float]:
    """Set-up times of fresh probe processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--specs", json.dumps({k: str(v) for k, v in specs.items()})]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment() -> dict:
    # versions from package metadata: importing sympy here would move its
    # import out of the first operation's set-up
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
    }


def instance_seeds(seed: int, count: int) -> list[int]:
    """The run seed, then count - 1 seeds derived from it."""
    import numpy as np

    return [seed] + [int(x) for x in np.random.SeedSequence(seed).generate_state(count - 1)]


class OpRunner:
    """Runs one workload's operation on a fresh input of one of its
    instances, checks the report and compares it byte for byte with the
    first report of that instance."""

    def __init__(self, workload, instances: list[tuple[int, dict]], dump_report):
        self.w = workload
        self.instances = instances  # (seed, spec paths)
        self.dump_report = dump_report
        self.attempted = 0
        self.failed = 0
        self.first_report: dict[int, str] = {}

    def run_once(self, i: int) -> float | None:
        """Seconds the operation on instance i took, or None if it raised."""
        seed, specs = self.instances[i]
        self.attempted += 1
        try:
            inputs = self.w.build(specs)
            gc.collect()  # start each operation without the previous one's garbage
            t1 = time.perf_counter()
            doc = self.w.run(inputs, seed)
            elapsed = time.perf_counter() - t1
            text = self.dump_report(doc)
            problems = self.w.check(doc)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if self.first_report.setdefault(i, text) != text:
            problems.append("report differs from the instance's first one (hidden state)")
        if problems:
            print(f"perfbench: operation {self.attempted} (instance {i}) wrong: {problems}",
                  file=sys.stderr)
            self.failed += 1
        return elapsed


def timed_run(args, root: Path, runner: OpRunner, spec: list) -> dict:
    """End-to-end metrics: operations back to back, untraced, cycling over
    the instances, with a pass of the reference kernel before the first and
    after each one.

    run_ref is the median, over the run's operations, of one operation's
    time over the mean time of the two kernel passes around it. run_s, the
    median in plain seconds, is printed but is not a metric: it carries the
    host's drift (see reference.py)."""
    from reference import Reference

    n = len(runner.instances)
    setup = measure_setup(root, args.workload, runner.instances[0][1])
    runner.run_once(0)  # warm-up: checked, not timed
    reference = Reference()
    times, ratios, cycles = [], [], []
    done = 0
    t_start = time.perf_counter()
    gc.collect()
    ref_before = reference.run()
    refs = [ref_before]
    while True:
        # after the minimum, start an operation only if a typical one still fits
        left = args.seconds - (time.perf_counter() - t_start)
        if done >= MIN_ROUNDS * n and statistics.median(cycles) > left:
            break
        t0 = time.perf_counter()
        elapsed = runner.run_once(done % n)
        gc.collect()
        ref_after = reference.run()
        refs.append(ref_after)
        cycles.append(time.perf_counter() - t0)
        if elapsed is not None:
            times.append(elapsed)
            ratios.append(2.0 * elapsed / (ref_before + ref_after))
        ref_before = ref_after
        done += 1
    values = {
        "run_ref": statistics.median(ratios or [0.0]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps({"run_s": statistics.median(times or [0.0]),
                      "reference_s": statistics.median(refs), "run_s_samples": times,
                      "run_ref_samples": ratios, "setup_s_samples": setup}))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def traced_run(args, out: Path, runner: OpRunner, spec: list) -> tuple[dict, bool]:
    """Per-layer metrics on the first instance: traced and untraced
    operations alternate (T U T, then U T pairs while time remains), so
    drift and warm-up do not land on one side of the overhead figure.
    Counters must repeat exactly."""
    from tracer import COUNT_FIELDS, Tracer

    tracer = Tracer()
    times = {True: [], False: []}
    traced_ops = []
    order = [True, False, True]
    t_start = time.perf_counter()
    while order:
        traced = order.pop(0)
        if traced:
            traced_ops.append(len(traced_ops))
            tracer.begin_op(traced_ops[-1])
            tracer.install()
        elapsed = runner.run_once(0)
        if traced:
            tracer.uninstall()
        if elapsed is not None:
            times[traced].append(elapsed)
        # another U T pair only if two typical operations still fit
        spent = time.perf_counter() - t_start
        if not order and spent + 2 * spent / runner.attempted <= args.seconds:
            order = [False, True]
    tracer.write(out / "spans.npz", out / "layers.json")

    repeat = all(tracer.counts(op) == tracer.counts(traced_ops[0]) for op in traced_ops)
    if not repeat:
        print("perfbench: traced counters differ between operations", file=sys.stderr)
    traced_s = statistics.median(times[True] or [0.0])
    untraced_s = statistics.median(times[False] or [0.0])
    special = {
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in special:
            value = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            stats = [tracer.stats[op].get(layer, {}) for op in traced_ops]
            if field == "matched_ratio":
                t, s = stats[0].get("trials", 0), stats[0].get("skipped", 0)
                value = t / (t + s) if t + s else 0.0
            elif field in COUNT_FIELDS:
                value = stats[0].get(field, 0)
            else:
                value = statistics.fmean(st.get(field, 0.0) for st in stats)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"traced_s_samples": times[True], "untraced_s_samples": times[False]}))
    return metrics, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--specs", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    _use_checkout(root)
    if args.probe_setup:
        probe_setup(root, args.workload, {k: Path(v) for k, v in json.loads(args.specs).items()})
        return 0
    bench_file = root / "BENCHMARK.json"
    if not bench_file.is_file():
        _fail(f"no {bench_file}")
    bench = json.loads(bench_file.read_text())

    _import_soapbubble(root)
    from soapbubble.specio import dump_report
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    out = root / OUT_DIR / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    instances = []
    for i, seed in enumerate(instance_seeds(args.seed, workload.instances)):
        (out / f"i{i}").mkdir(exist_ok=True)
        instances.append((seed, workload.write_inputs(out / f"i{i}", seed)))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "instance_seeds": [seed for seed, _ in instances],
                      "environment": environment()}))

    runner = OpRunner(workload, instances, dump_report)
    if args.trace:
        metrics, repeat = traced_run(args, out, runner, bench["per_layer"])
    else:
        metrics, repeat = timed_run(args, root, runner, bench["end_to_end"]), True
    print(json.dumps({"failed_frac": runner.failed / runner.attempted}))
    print(json.dumps({"correct": runner.failed == 0 and repeat, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
