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


def test_non_harmonic_path_never_loads_sympy(tmp_path):
    # importing sympy takes about a quarter of a second, half of a fresh
    # process's set-up; only a harmonic surface needs it
    u = np.random.default_rng(0).standard_normal((400, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = ["x,y,z,nx,ny,nz"] + [",".join(f"{v:.8f}" for v in (*p, *-p)) for p in u]
    (tmp_path / "cloud.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "cloud.json").write_text('{"type": "point_cloud", "path": "cloud.csv"}')
    (tmp_path / "ell.json").write_text('{"type": "ellipsoid", "semi_axes": [1.0, 1.0, 1.1]}')
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import soapbubble, soapbubble.lemmas\n"
        "for spec in sys.argv[1:]:\n"
        "    s = soapbubble.load_surface(spec)\n"
        "    soapbubble.critical_position(s, np.eye(3)[2], sample_budget=300)\n"
        "sys.exit('sympy' in sys.modules)\n"
    )
    src = str(Path(soapbubble.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    specs = [str(tmp_path / "ell.json"), str(tmp_path / "cloud.json")]
    done = subprocess.run([sys.executable, "-c", script, *specs], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
