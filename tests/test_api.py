import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import soapbubble


def test_all_names_resolve():
    # a name dropped from the imports but left in __all__ breaks only
    # star-imports, so check both the attributes and the star-import
    missing = [name for name in soapbubble.__all__ if not hasattr(soapbubble, name)]
    assert missing == []
    namespace = {}
    exec("from soapbubble import *", namespace)
    for name in soapbubble.__all__:
        assert namespace[name] is getattr(soapbubble, name)


def test_no_path_loads_sympy(tmp_path):
    # sympy is a test-only dependency: importing it takes about a quarter of
    # a second, half of a fresh process's set-up, and harmonic surfaces
    # build their level function from a polynomial table without it
    u = np.random.default_rng(0).standard_normal((400, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = ["x,y,z,nx,ny,nz"] + [",".join(f"{v:.8f}" for v in (*p, *-p)) for p in u]
    (tmp_path / "cloud.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "cloud.json").write_text('{"type": "point_cloud", "path": "cloud.csv"}')
    (tmp_path / "ell.json").write_text('{"type": "ellipsoid", "semi_axes": [1.0, 1.0, 1.1]}')
    (tmp_path / "harmonic.json").write_text(
        '{"type": "radial_graph", "coeffs": [[2, 0, 0.15], [3, 1, 0.05], [4, -2, 0.03]]}'
    )
    (tmp_path / "fourier.json").write_text(
        '{"type": "radial_graph", "basis": "fourier", "coeffs": [[2, 0, 0.2], [3, -1, 0.1]]}'
    )
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import soapbubble, soapbubble.lemmas\n"
        "for spec in sys.argv[1:]:\n"
        "    s = soapbubble.load_surface(spec)\n"
        "    soapbubble.critical_position(s, np.eye(s.dim)[-1], sample_budget=300)\n"
        "sys.exit('sympy' in sys.modules)\n"
    )
    src = str(Path(soapbubble.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    specs = [str(tmp_path / f"{name}.json") for name in ("ell", "cloud", "harmonic", "fourier")]
    done = subprocess.run([sys.executable, "-c", script, *specs], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_readme_library_sketch_runs():
    # README's python block runs as written and prints the values its
    # comment states
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    ratio, gap, osc = (float(v) for v in out.getvalue().splitlines()[0].split())
    assert (round(ratio, 4), round(gap, 4), round(osc, 5)) == (0.5354, 0.1, 0.18678)


def test_report_key_sets():
    # each `to_dict` is built from its dataclass's fields, so renaming a field
    # would rename a report key: the keys of every report are fixed here
    from soapbubble import lemmas

    ell = soapbubble.Ellipsoid([1.0, 1.0, 1.1])
    doc = soapbubble.stability_ratio(ell, sample_budget=300).to_dict()
    assert set(doc) == {
        "center", "r_i", "r_e", "r_e_minus_r_i", "osc", "ratio", "ratio_indeterminate",
        "verdict", "plane_distances", "cross_check", "reflection_defect", "radial_map",
        "osc_detail", "constants", "metadata",
    }
    assert set(doc["osc_detail"]) == {
        "min_h", "max_h", "osc", "argmin", "argmax", "sample_count", "refined",
        "resolution_hint",
    }
    assert set(doc["radial_map"]) == {
        "ok", "transversal_ok", "annulus_normal_ok", "rays_ok", "max_radial_dot",
        "annulus_bound", "multi_hit_directions", "hit_counts", "rays", "certificate_bound",
        "fill_distance",
    }
    assert set(doc["constants"]) == {
        "inputs", "omega_n", "delta", "L", "r0", "eps0", "N0", "eps1", "eps2", "eps3", "eps",
        "C1", "C", "diam_bound", "eps_corollary", "log10_C1", "log10_C", "log10_eps2",
        "log10_eps3", "saturated", "gradient_bound_M", "notes",
    }
    assert set(doc["constants"]["inputs"]) == {
        "n", "rho", "area", "k1", "k2", "k3", "k_placeholder",
    }
    assert set(doc["cross_check"]) == {
        "lhs_re_minus_ri", "rhs_twice_plane_distance", "slack", "holds",
    }

    plane = soapbubble.critical_position(ell, np.array([0.0, 0.0, 1.0]), sample_budget=300)
    assert set(plane.to_dict()) == {
        "omega", "m", "extent", "case", "p0", "contact_point", "contact_gap",
        "normal_alignment", "degenerate_contact", "tol",
    }
    verdict = lemmas.verify_normal_difference(trials=20, seed=0)
    assert set(verdict.to_dict()) == {
        "check", "trials", "violations", "worst_slack", "tolerance", "skipped", "witness",
        "notes",
    }

    sphere = soapbubble.Sphere([0.0, 0.0, 0.0], 1.0)
    graph = soapbubble.build_geodesic_graph(sphere, 500, k=8, seed=0)
    ledger = soapbubble.compute_constants(2, 1.0, 4.0 * np.pi)
    far = int(np.argmin(graph.points @ graph.points[0]))
    chain = soapbubble.piecewise_geodesic_chain(graph, 0, far, ledger.delta)
    assert set(chain.to_dict()) == {
        "delta", "total_length", "full_arcs", "length_budget", "bound_ok", "waypoints",
        "arc_lengths",
    }
    harnack = soapbubble.harnack_chain(chain, ledger.eps0 / 2.0, 1.0, ledger.delta)
    assert set(harnack.to_dict()) == {
        "count", "n0", "eps0", "steps_ok", "count_ok", "resubdivided", "worst_step_excess",
        "radii",
    }
    assert set(soapbubble.check_smallness(0.0, ledger).to_dict()) == {"applicable", "margin"}
