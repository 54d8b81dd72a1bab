"""Command-line interface.

Subcommands:
  analyze         full stability pipeline on one surface -> JSON report
  sweep-ellipsoid prolate family (1, 1, 1+t) -> CSV with a fitted slope
  constants       explicit-constant ledger -> table / JSON
  verify          one named inequality check -> verdict table
  moving-plane    single-direction critical plane (debug) -> JSON

Exit codes: 0 success, 2 input error, 3 numerical-stage failure,
4 inequality violations found.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import lemmas
from .constants import check_smallness, compute_constants
from .intrinsic import build_geodesic_graph
from .planes import critical_position
from .specio import SpecError, dump_report, load_surface, write_report, write_sweep_csv
from .surfaces import CapabilityError, Ellipsoid, OrientationError, SurfaceError
from .symmetry import stability_ratio
from .tracing import TracingError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATIONS = 4

# neighbours per node of the geodesic graphs `verify` builds: with 8, the
# graph on a plane curve's 2000 samples splits on about half the seeds
GRAPH_K = 16

VERIFY_CHECKS = {
    "graph-bounds": "tangent-graph height/gradient/normal bounds",
    "distance-bounds": "chord and arcsin intrinsic-distance envelope",
    "slice-curvature": "plane-section curvature bounds",
    "projected-curvature": "projected-section curvature bound",
    "normal-change": "tilted re-graphing sup bound",
    "normal-difference": "gradient-to-normal difference bound",
    "normal-tilt": "cap boundary-band normal tilt bound",
    "annulus-normal": "annulus radial-normal bound",
    "figure-projection": "paraboloid section/projection ground truth",
}
# terse aliases used in lab notes
VERIFY_ALIASES = {
    "2.1": "graph-bounds",
    "2.2": "distance-bounds",
    "2.8": "slice-curvature",
    "2.9": "projected-curvature",
    "3.4": "normal-change",
    "3.5": "normal-difference",
    "4.5": "normal-tilt",
    "5.1": "annulus-normal",
    "fig1": "figure-projection",
}


_FLAGS = {
    "--surface": {"help": "surface description file (JSON)"},
    "--samples": {"type": int, "default": 2000, "help": "probe sample budget"},
    "--seed": {"type": int, "default": 0, "help": "random seed"},
    "--tol": {
        "type": float,
        "default": None,
        "help": "critical-plane tolerance: the degenerate-contact band and the "
        "embeddedness margin (point clouds: also the exit threshold)",
    },
    "--k1": {"type": float, "default": None},
    "--k2": {"type": float, "default": None},
    "--k3": {"type": float, "default": None},
    "--out": {"help": "write the JSON report here"},
    "--csv": {"help": "write CSV output here (sweeps)"},
}
_SAMPLING = ("--samples", "--seed", "--tol")
_K = ("--k1", "--k2", "--k3")


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Give a subcommand the shared flags it reads, and only those."""
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soapbubble",
        description="moving-planes stability analysis of closed hypersurfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full stability pipeline")
    _add_flags(p, "--surface", *_SAMPLING, *_K, "--out")

    p = sub.add_parser("sweep-ellipsoid", help="prolate ellipsoid family sweep")
    _add_flags(p, *_SAMPLING, *_K, "--csv")
    p.add_argument("--t-min", type=float, default=0.02)
    p.add_argument("--t-max", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=10)

    p = sub.add_parser("constants", help="explicit-constant ledger")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--area", type=float, required=True)
    _add_flags(p, *_K)
    p.add_argument("--osc", type=float, default=None, help="also run the smallness check")
    _add_flags(p, "--out")

    p = sub.add_parser("verify", help="stress-test one inequality")
    p.add_argument("check", help="check name or alias (an unknown name lists them)")
    _add_flags(p, "--surface", *_SAMPLING, "--out")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--delta", type=float, default=None, help="band width for normal-tilt")
    p.add_argument("--direction", default=None, help="comma-separated direction (slices/tilt)")
    p.add_argument("--level", type=float, default=None, help="plane offset (slices)")
    p.add_argument(
        "--rho", type=float, default=None,
        help="claimed touching radius for graph-bounds (negative controls)",
    )

    p = sub.add_parser("moving-plane", help="single-direction critical plane (debug)")
    _add_flags(p, "--surface", *_SAMPLING, "--out")
    p.add_argument("--direction", required=True, help="comma-separated direction")
    return ap


def _parse_direction(text: str, dim: int) -> np.ndarray:
    try:
        v = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"bad direction {text!r}: {exc}") from exc
    if v.shape[0] != dim:
        raise SpecError(f"direction has {v.shape[0]} entries; surface lives in R^{dim}")
    return v


def _k_args(args) -> dict:
    return {"k1": args.k1, "k2": args.k2, "k3": args.k3}


def cmd_analyze(args) -> int:
    if not args.surface:
        raise SpecError("analyze requires --surface")
    surface = load_surface(args.surface)
    report = stability_ratio(
        surface, sample_budget=args.samples, seed=args.seed, tol=args.tol, **_k_args(args)
    )
    doc = report.to_dict()
    text = dump_report(doc)
    if args.out:
        write_report(doc, args.out)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep_ellipsoid(args) -> int:
    if not (0 < args.t_min <= args.t_max):
        raise SpecError("need 0 < t-min <= t-max")
    if args.steps < 1:
        raise SpecError("need at least one sweep step")
    if args.samples < 100:
        raise SpecError(f"--samples must be at least 100, got {args.samples}")
    ts = (
        np.array([args.t_min])
        if args.steps == 1 or args.t_min == args.t_max
        else np.linspace(args.t_min, args.t_max, args.steps)
    )
    rows = []
    for t in ts:
        surface = Ellipsoid([1.0, 1.0, 1.0 + float(t)])
        try:
            rep = stability_ratio(
                surface, sample_budget=args.samples, seed=args.seed, tol=args.tol, **_k_args(args)
            )
            rows.append(
                {
                    "t": float(t),
                    "osc": rep.osc,
                    "re_minus_ri": rep.r_e - rep.r_i,
                    "ratio": rep.ratio,
                    "rho_hat": rep.metadata["rho_hat"],
                    "defect": rep.reflection_defect,
                    "status": "ok",
                }
            )
        except (SurfaceError, ValueError) as exc:
            rows.append({"t": float(t), "status": f"failed: {exc}"})
    good = [r for r in rows if r["status"] == "ok"]
    footer = {}
    if len(good) >= 2:
        slope = np.polyfit(
            np.log([r["osc"] for r in good]), np.log([r["re_minus_ri"] for r in good]), 1
        )[0]
        ratios = np.array([r["ratio"] for r in good])
        footer["loglog_slope"] = f"{slope:.6f}"
        footer["ratio_spread"] = f"{(ratios.max() - ratios.min()) / ratios.min():.6f}"
    if args.csv:
        write_sweep_csv(rows, args.csv, footer)
    for r in rows:
        sys.stdout.write(f"{r}\n")
    for k, v in footer.items():
        sys.stdout.write(f"# {k} = {v}\n")
    return EXIT_OK


def cmd_constants(args) -> int:
    rep = compute_constants(args.n, args.rho, args.area, **_k_args(args))
    sys.stdout.write(rep.table() + "\n")
    doc = rep.to_dict()
    if args.osc is not None:
        verdict = check_smallness(args.osc, rep)
        doc["smallness"] = verdict.to_dict()
        sys.stdout.write(f"smallness: applicable={verdict.applicable} margin={verdict.margin:.6g}\n")
    if args.out:
        write_report(doc, args.out)
    return EXIT_OK


def _verify_surface(args):
    if args.surface:
        return load_surface(args.surface)
    return Ellipsoid([1.0, 1.0, 1.1])


def cmd_verify(args) -> int:
    name = VERIFY_ALIASES.get(args.check, args.check)
    if name not in VERIFY_CHECKS:
        known = ", ".join(sorted(VERIFY_CHECKS) + sorted(VERIFY_ALIASES))
        raise SpecError(f"unknown check {args.check!r}; known: {known}")
    if args.trials < 1:
        raise SpecError(f"--trials must be at least 1, got {args.trials}")

    verdicts: list[lemmas.LemmaVerdict] = []
    extra: dict = {}
    if name == "figure-projection":
        result = lemmas.figure_projection_check()
        verdicts.append(result.pop("bound_verdict"))
        extra = result
    else:
        surface = _verify_surface(args)
        if name == "graph-bounds":
            verdicts.append(
                lemmas.verify_graph_bounds(surface, args.trials, args.seed, rho=args.rho)
            )
        elif name == "distance-bounds":
            graph = build_geodesic_graph(surface, max(args.samples, 2000), k=GRAPH_K, seed=args.seed)
            verdicts.append(lemmas.verify_distance_bounds(surface, graph, args.trials, args.seed))
        elif name == "slice-curvature":
            omega = (
                _parse_direction(args.direction, surface.dim)
                if args.direction
                else np.eye(surface.dim)[-1]
            )
            level = args.level if args.level is not None else 0.3
            verdicts.append(lemmas.slice_curvature_bounds(surface, omega, level))
        elif name == "projected-curvature":
            omega1 = (
                _parse_direction(args.direction, surface.dim)
                if args.direction
                else np.array([0.3, 0.2, 0.93])
            )
            level = args.level if args.level is not None else 0.3
            omega2 = np.eye(surface.dim)[-1]
            verdicts.append(
                lemmas.projected_curvature_bounds(surface, omega1, level, omega2)
            )
        elif name == "normal-change":
            verdicts.append(lemmas.verify_normal_change(surface, args.trials, args.seed))
        elif name == "normal-difference":
            verdicts.append(lemmas.verify_normal_difference(trials=args.trials, seed=args.seed))
        elif name == "normal-tilt":
            omega = (
                _parse_direction(args.direction, surface.dim)
                if args.direction
                else np.eye(surface.dim)[0]
            )
            plane = critical_position(surface, omega, args.tol, args.samples, args.seed)
            graph = build_geodesic_graph(surface, max(args.samples, 2000), k=GRAPH_K, seed=args.seed)
            verdicts.append(
                lemmas.verify_normal_tilt(surface, plane, graph, delta=args.delta)
            )
        elif name == "annulus-normal":
            from .symmetry import radial_bounds, symmetry_center

            center, _ = symmetry_center(surface, args.tol, args.samples, args.seed)
            r_i, r_e, _, _ = radial_bounds(surface, center, args.samples, args.seed)
            verdicts.append(
                lemmas.verify_annulus_normal(
                    surface, center, r_i, r_e, sample_budget=args.trials, seed=args.seed
                )
            )

    header = f"{'check':<22} {'trials':>7} {'viols':>6} {'worst_slack':>13} {'skips':>6}"
    sys.stdout.write(header + "\n")
    for v in verdicts:
        sys.stdout.write(v.table_row() + "\n")
    for k, v in extra.items():
        sys.stdout.write(f"# {k} = {v}\n")
    doc = {"checks": [v.to_dict() for v in verdicts], "extra": extra}
    if args.out:
        write_report(doc, args.out)
    return EXIT_VIOLATIONS if any(v.violations for v in verdicts) else EXIT_OK


def cmd_moving_plane(args) -> int:
    if not args.surface:
        raise SpecError("moving-plane requires --surface")
    surface = load_surface(args.surface)
    omega = _parse_direction(args.direction, surface.dim)
    plane = critical_position(surface, omega, args.tol, args.samples, args.seed)
    doc = plane.to_dict()
    text = dump_report(doc)
    if args.out:
        write_report(doc, args.out)
    sys.stdout.write(text)
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "sweep-ellipsoid": cmd_sweep_ellipsoid,
    "constants": cmd_constants,
    "verify": cmd_verify,
    "moving-plane": cmd_moving_plane,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (SpecError, CapabilityError, OrientationError) as exc:
        # a missing capability or a badly oriented cloud is a wrong input, not a failure
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (SurfaceError, TracingError, np.linalg.LinAlgError) as exc:
        stage = args.command
        sys.stderr.write(f"numerical failure in {stage}: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
