import json
import math

import numpy as np
import pytest

from soapbubble.cli import main
from soapbubble.specio import (
    SpecError,
    dump_report,
    load_point_cloud_csv,
    load_surface,
    surface_from_dict,
)


@pytest.fixture()
def sphere_spec(tmp_path):
    p = tmp_path / "sphere.json"
    p.write_text(json.dumps({"type": "sphere", "center": [0.3, -0.2, 0.5], "radius": 1.0}))
    return p


@pytest.fixture()
def ell_spec(tmp_path):
    p = tmp_path / "ell.json"
    p.write_text(json.dumps({"type": "ellipsoid", "semi_axes": [1.0, 1.0, 1.1]}))
    return p


def _cloud_spec(tmp_path, normals_of):
    """Spec of a 400-sample unit-sphere cloud with normals_of(u, rng) as normals."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal((400, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = ["x,y,z,nx,ny,nz"] + [
        ",".join(f"{v:.8f}" for v in (*p, *n)) for p, n in zip(u, normals_of(u, rng))
    ]
    (tmp_path / "cloud.csv").write_text("\n".join(rows) + "\n")
    spec = tmp_path / "cloud.json"
    spec.write_text(json.dumps({"type": "point_cloud", "path": "cloud.csv"}))
    return spec


@pytest.fixture()
def cloud_spec(tmp_path):
    return _cloud_spec(tmp_path, lambda u, rng: -u)


class TestSpecIO:
    def test_surface_types(self, tmp_path):
        assert surface_from_dict({"type": "sphere", "center": [0, 0, 0], "radius": 2.0}).radius == 2.0
        assert surface_from_dict({"type": "ellipsoid", "semi_axes": [1, 1, 2]}).dim == 3
        r = surface_from_dict(
            {"type": "radial_graph", "basis": "real_spherical_harmonics", "coeffs": [[2, 0, 0.1]]}
        )
        assert r.dim == 3
        f = surface_from_dict({"type": "radial_graph", "basis": "fourier", "coeffs": [[2, 0, 0.1]]})
        assert f.dim == 2

    def test_cloud_roundtrip(self, tmp_path):
        rows = ["x,y,z,nx,ny,nz"]
        rng = np.random.default_rng(0)
        u = rng.standard_normal((400, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for p, n in zip(u, -u):
            rows.append(",".join(f"{v:.8f}" for v in (*p, *n)))
        path = tmp_path / "cloud.csv"
        path.write_text("\n".join(rows) + "\n")
        cloud = load_point_cloud_csv(path)
        assert cloud.points.shape == (400, 3)
        spec = tmp_path / "cloud.json"
        spec.write_text(json.dumps({"type": "point_cloud", "path": "cloud.csv"}))
        assert load_surface(spec).dim == 3

    def test_bad_documents(self, tmp_path):
        with pytest.raises(SpecError):
            surface_from_dict({"type": "nope"})
        with pytest.raises(SpecError):
            surface_from_dict({"type": "sphere", "center": [0, 0, 0]})
        with pytest.raises(SpecError):
            surface_from_dict([1, 2, 3])
        # sin(0 theta) is 0: a degree-0 sine term would add to the radius
        with pytest.raises(SpecError, match="m >= 0"):
            surface_from_dict(
                {"type": "radial_graph", "basis": "fourier", "coeffs": [[0, -1, 0.5]]}
            )
        # a degree or order is an integer: 2.5 is not read as 2, nor true as 1
        for coeffs in ([[2.5, 0, 0.1]], [[True, 0, 0.1]]):
            with pytest.raises(SpecError, match="must be integers"):
                surface_from_dict({"type": "radial_graph", "coeffs": coeffs})
        # a NaN coefficient fails the positivity guard when the surface is built
        with pytest.raises(SpecError, match="must stay positive"):
            surface_from_dict({"type": "radial_graph", "coeffs": [[2, 0, float("nan")]]})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError):
            load_surface(bad)

    def test_bad_cloud_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SpecError):
            load_point_cloud_csv(path)

    def test_dump_handles_nonfinite(self):
        text = dump_report({"a": float("inf"), "b": float("nan"), "c": 1.5})
        doc = json.loads(text)
        assert doc == {"a": "inf", "b": None, "c": 1.5}


class TestAnalyze:
    def test_sphere_verdict_and_exit(self, sphere_spec, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["analyze", "--surface", str(sphere_spec), "--samples", "1500",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "sphere within tolerance"
        np.testing.assert_allclose(doc["center"], [0.3, -0.2, 0.5], atol=1e-6)

    def test_ellipsoid_ratio(self, ell_spec, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["analyze", "--surface", str(ell_spec), "--samples", "1500",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ratio"] == pytest.approx(0.5353982, rel=0.02)

    def test_missing_surface_is_input_error(self, capsys):
        assert main(["analyze"]) == 2

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["analyze", "--surface", str(bad)]) == 2

    def test_ellipsoid_without_area_exit_2(self, tmp_path, capsys):
        # the ellipsoid's area has a closed form in R^2 and R^3 only
        spec = tmp_path / "ell4.json"
        spec.write_text(json.dumps({"type": "ellipsoid", "semi_axes": [1, 1, 1.1, 1.2]}))
        assert main(["analyze", "--surface", str(spec), "--samples", "300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Ellipsoid does not provide an area in R^4" in err

    def test_mixed_normal_cloud_exit_2(self, tmp_path, capsys):
        # a badly oriented cloud file is a wrong input, not a numerical failure
        spec = _cloud_spec(tmp_path, lambda u, rng: np.where(rng.random((400, 1)) < 0.5, u, -u))
        assert main(["analyze", "--surface", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "mixed" in err


class TestDeterminism:
    def test_byte_identical_reports(self, ell_spec, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "--surface", str(ell_spec), "--samples", "1200",
                     "--seed", "7", "--out", str(a)]) == 0
        assert main(["analyze", "--surface", str(ell_spec), "--samples", "1200",
                     "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_csv_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sweep-ellipsoid", "--t-min", "0.1", "--t-max", "0.2",
                         "--steps", "2", "--samples", "1200", "--seed", "3",
                         "--csv", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_single_step_matches_analyze(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        assert main(["sweep-ellipsoid", "--t-min", "0.1", "--t-max", "0.1", "--steps", "1",
                     "--samples", "1500", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["re_minus_ri"]) == pytest.approx(0.1, abs=1e-4)
        assert float(row["ratio"]) == pytest.approx(0.5353982, rel=0.02)

    def test_bad_range_exit_2(self):
        assert main(["sweep-ellipsoid", "--t-min", "-0.1", "--t-max", "0.2"]) == 2


class TestConstantsCmd:
    def test_reference_values(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["constants", "--n", "2", "--rho", "1",
                     "--area", str(4 * math.pi), "--osc", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["delta"] == 0.015625
        assert doc["L"] == pytest.approx(65536.0)
        assert doc["eps0"] == pytest.approx(7.45050e-9, rel=1e-4)
        assert doc["N0"] == 93033586
        assert doc["smallness"]["applicable"] is True

    def test_invalid_inputs_exit_2(self):
        assert main(["constants", "--n", "2", "--rho", "-1", "--area", "1"]) == 2

    def test_one_supplied_constant_clears_the_placeholder(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["constants", "--n", "2", "--rho", "1", "--area", "1",
                     "--k2", "3", "--out", str(out)]) == 0
        inputs = json.loads(out.read_text())["inputs"]
        assert [inputs["k1"], inputs["k2"], inputs["k3"]] == [1.0, 3.0, 1.0]
        assert inputs["k_placeholder"] is False
        assert "PLACEHOLDER" not in capsys.readouterr().out


class TestFlags:
    # each subcommand accepts only the flags it reads; any other is an
    # argparse error (exit 2), like an unknown flag
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--csv", "x.csv"],
            ["sweep-ellipsoid", "--surface", "s.json"],
            ["sweep-ellipsoid", "--out", "x.json"],
            ["verify", "fig1", "--k1", "2"],
            ["verify", "fig1", "--k2", "2"],
            ["verify", "fig1", "--k3", "2"],
            ["verify", "fig1", "--csv", "x.csv"],
            ["moving-plane", "--direction", "0,0,1", "--k1", "2"],
            ["moving-plane", "--direction", "0,0,1", "--k2", "2"],
            ["moving-plane", "--direction", "0,0,1", "--k3", "2"],
            ["moving-plane", "--direction", "0,0,1", "--csv", "x.csv"],
            ["verify", "fig1", "--no-such-flag"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestVerifyCmd:
    def test_normal_difference_ok(self, capsys):
        assert main(["verify", "normal-difference", "--trials", "2000"]) == 0

    def test_alias(self, capsys):
        assert main(["verify", "3.5", "--trials", "1000"]) == 0

    def test_figure_alias(self, capsys):
        assert main(["verify", "fig1"]) == 0
        text = capsys.readouterr().out
        assert "projected-curvature" in text

    def test_unknown_check_exit_2(self, capsys):
        assert main(["verify", "lemma-nope"]) == 2

    def test_graph_bounds_on_spec_surface(self, ell_spec, capsys):
        assert main(["verify", "graph-bounds", "--surface", str(ell_spec),
                     "--trials", "1500"]) == 0

    def test_violations_exit_4(self, ell_spec, capsys):
        # a deliberately doubled touching radius must be caught
        assert main(["verify", "graph-bounds", "--surface", str(ell_spec),
                     "--trials", "1000", "--rho", "1.9"]) == 4

    def test_numerical_failure_exit_3(self, sphere_spec, capsys):
        # grazing slice (sphere top sits at z = 1.5) cannot be traced transversally
        assert main(["verify", "slice-curvature", "--surface", str(sphere_spec),
                     "--direction", "0,0,1", "--level", "1.49"]) == 3


    @pytest.mark.parametrize("check", ["normal-tilt", "graph-bounds"])
    def test_cloud_without_gradient_exit_2(self, cloud_spec, check, capsys):
        # a point cloud has no level-function gradient: an input error, no traceback
        assert main(["verify", check, "--surface", str(cloud_spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "PointCloud does not provide the level-function gradient" in err


class TestMovingPlaneCmd:
    def test_axis_plane(self, ell_spec, tmp_path):
        out = tmp_path / "mp.json"
        assert main(["moving-plane", "--surface", str(ell_spec), "--direction", "0,0,1",
                     "--samples", "1500", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["m"]) < 1e-6
        assert doc["extent"] == pytest.approx(1.1, abs=1e-6)

    def test_bad_direction_exit_2(self, ell_spec):
        assert main(["moving-plane", "--surface", str(ell_spec), "--direction", "0,0"]) == 2
