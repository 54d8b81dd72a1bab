"""Command-line interface.

Subcommands:
  analyze         full stability pipeline on one surface -> JSON report
  sweep-ellipsoid prolate family (1, 1, 1+t) -> CSV with a fitted slope
  constants       explicit-constant ledger -> table / JSON
  verify CHECK    one named inequality check -> verdict table
  moving-plane    single-direction critical plane (debug) -> JSON

Each subcommand, and each `verify` check with its lab-note alias
(`VERIFY_TABLE`), is an argparse parser that carries its handler and takes
only the flags it reads: argparse rejects an unknown check or flag (exit 2).

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
from .symmetry import radial_bounds, stability_ratio, symmetry_center
from .tracing import TracingError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATIONS = 4

# neighbours per node of the geodesic graphs `verify` builds: with 8, the
# graph on a plane curve's 2000 samples splits on about half the seeds
GRAPH_K = 16

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
    "--trials": {"type": int, "default": 10000, "help": "trials, or probe samples, of the check"},
    "--delta": {"type": float, "default": None, "help": "boundary band width"},
    "--direction": {"default": None, "help": "comma-separated plane direction"},
    "--level": {"type": float, "default": 0.3, "help": "plane offset"},
    "--rho": {"type": float, "default": None, "help": "claimed touching radius (negative control)"},
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
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep-ellipsoid", help="prolate ellipsoid family sweep")
    _add_flags(p, *_SAMPLING, *_K, "--csv")
    p.add_argument("--t-min", type=float, default=0.02)
    p.add_argument("--t-max", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(handler=cmd_sweep_ellipsoid)

    p = sub.add_parser("constants", help="explicit-constant ledger")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--area", type=float, required=True)
    _add_flags(p, *_K)
    p.add_argument("--osc", type=float, default=None, help="also run the smallness check")
    _add_flags(p, "--out")
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("verify", help="stress-test one inequality")
    checks = p.add_subparsers(dest="check", metavar="CHECK", required=True)
    for name, alias, text, flags, runner in VERIFY_TABLE:
        c = checks.add_parser(name, aliases=[alias], help=text)
        _add_flags(c, *flags, "--out")
        c.set_defaults(handler=cmd_verify, runner=runner)

    p = sub.add_parser("moving-plane", help="single-direction critical plane (debug)")
    _add_flags(p, "--surface", *_SAMPLING, "--out")
    p.add_argument("--direction", required=True, help="comma-separated direction")
    p.set_defaults(handler=cmd_moving_plane)
    return ap


def _parse_direction(text: str | None, dim: int, default: np.ndarray | None = None) -> np.ndarray:
    if text is None:
        return default
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
        except (SurfaceError, np.linalg.LinAlgError) as exc:
            # a numerical failure fails its row; an input error (ValueError) ends the sweep
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
    verdict = None if args.osc is None else check_smallness(args.osc, rep)
    sys.stdout.write(rep.table() + "\n")
    doc = rep.to_dict()
    if verdict is not None:
        doc["smallness"] = verdict.to_dict()
        sys.stdout.write(f"smallness: applicable={verdict.applicable} margin={verdict.margin:.6g}\n")
    if args.out:
        write_report(doc, args.out)
    return EXIT_OK


def _graph_bounds(args, surface):
    return lemmas.verify_graph_bounds(surface, args.trials, args.seed, rho=args.rho), {}


def _distance_bounds(args, surface):
    graph = build_geodesic_graph(surface, max(args.samples, 2000), k=GRAPH_K, seed=args.seed)
    return lemmas.verify_distance_bounds(surface, graph, args.trials, args.seed), {}


def _slice_curvature(args, surface):
    omega = _parse_direction(args.direction, surface.dim, np.eye(surface.dim)[-1])
    return lemmas.slice_curvature_bounds(surface, omega, args.level), {}


def _projected_curvature(args, surface):
    omega1 = _parse_direction(args.direction, surface.dim, np.array([0.3, 0.2, 0.93]))
    omega2 = np.eye(surface.dim)[-1]
    return lemmas.projected_curvature_bounds(surface, omega1, args.level, omega2), {}


def _normal_change(args, surface):
    return lemmas.verify_normal_change(surface, args.trials, args.seed), {}


def _normal_difference(args, surface):
    return lemmas.verify_normal_difference(trials=args.trials, seed=args.seed), {}


def _normal_tilt(args, surface):
    omega = _parse_direction(args.direction, surface.dim, np.eye(surface.dim)[0])
    plane = critical_position(surface, omega, args.tol, args.samples, args.seed)
    graph = build_geodesic_graph(surface, max(args.samples, 2000), k=GRAPH_K, seed=args.seed)
    return lemmas.verify_normal_tilt(surface, plane, graph, delta=args.delta), {}


def _annulus_normal(args, surface):
    center, _ = symmetry_center(surface, args.tol, args.samples, args.seed)
    r_i, r_e, _, _ = radial_bounds(surface, center, args.samples, args.seed)
    return lemmas.verify_annulus_normal(surface, center, r_i, r_e, args.trials, args.seed), {}


def _figure_projection(args, surface):
    extra = lemmas.figure_projection_check()
    return extra.pop("bound_verdict"), extra


# One `verify` check per row: name, lab-note alias, help, the flags it reads
# besides --out, and its runner. A runner takes the parsed flags and the
# surface (None for a check that reads no --surface) and returns the verdict
# and the extra lines to report.
VERIFY_TABLE = (
    ("graph-bounds", "2.1", "tangent-graph height/gradient/normal bounds",
     ("--surface", "--seed", "--trials", "--rho"), _graph_bounds),
    ("distance-bounds", "2.2", "chord and arcsin intrinsic-distance envelope",
     ("--surface", "--samples", "--seed", "--trials"), _distance_bounds),
    ("slice-curvature", "2.8", "plane-section curvature bounds",
     ("--surface", "--direction", "--level"), _slice_curvature),
    ("projected-curvature", "2.9", "projected-section curvature bound",
     ("--surface", "--direction", "--level"), _projected_curvature),
    ("normal-change", "3.4", "tilted re-graphing sup bound",
     ("--surface", "--seed", "--trials"), _normal_change),
    ("normal-difference", "3.5", "gradient-to-normal difference bound",
     ("--seed", "--trials"), _normal_difference),
    ("normal-tilt", "4.5", "cap boundary-band normal tilt bound",
     ("--surface", *_SAMPLING, "--direction", "--delta"), _normal_tilt),
    ("annulus-normal", "5.1", "annulus radial-normal bound",
     ("--surface", *_SAMPLING, "--trials"), _annulus_normal),
    ("figure-projection", "fig1", "paraboloid section/projection ground truth",
     (), _figure_projection),
)


def cmd_verify(args) -> int:
    if "trials" in args and args.trials < 1:
        raise SpecError(f"--trials must be at least 1, got {args.trials}")
    surface = None
    if "surface" in args:
        surface = load_surface(args.surface) if args.surface else Ellipsoid([1.0, 1.0, 1.1])
    verdict, extra = args.runner(args, surface)

    sys.stdout.write(verdict.TABLE_HEADER + "\n" + verdict.table_row() + "\n")
    for k, v in extra.items():
        sys.stdout.write(f"# {k} = {v}\n")
    doc = {"checks": [verdict.to_dict()], "extra": extra}
    if args.out:
        write_report(doc, args.out)
    return EXIT_VIOLATIONS if verdict.violations else EXIT_OK


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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
