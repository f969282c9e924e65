import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wadg
from wadg import analysis as an
from wadg import cli
from wadg import meshgen as mg
from wadg.solver import MassMode


def run_cli(*args, cwd):
    """Run `python -m wadg.cli` in `cwd` against the same source tree as
    this process: the directory holding the imported `wadg` package is
    prepended, as an absolute path, to any inherited PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(wadg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "wadg.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestExitCodes:
    def test_unknown_flag_exits_2(self, tmp_path):
        r = run_cli("--out-dir", "out", "--frobnicate", "mesh", "--family", "disk",
                    "--level", "0", "--out", "d.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "unrecognized arguments: --frobnicate" in r.stderr

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": 2, "mesh": "disk0", "bogus": 1}))
        r = run_cli("--out-dir", "out", "run", "--config", str(cfg), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "bogus" in r.stderr
        # a config that is not an object is named by its type, in process:
        # any other exception would escape main and fail the test
        for doc, kind in (([], "list"), (3, "int"), ("N", "str"), (["N"], "list")):
            cfg.write_text(json.dumps(doc))
            assert cli.main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)]) == 2
            assert f"got a {kind!r}" in capsys.readouterr().err

    def test_bad_mesh_spec_exits_2(self, tmp_path):
        for spec in ("nonsense99", "warped1", "uniformx", "disk1.5"):
            r = run_cli("--out-dir", "out", "spectrum", "--mesh", spec, cwd=tmp_path)
            assert r.returncode == 2, r.stderr
            assert repr(spec) in r.stderr and cli.MESH_SPECS in r.stderr

    def test_folded_mesh_file_exits_2(self, tmp_path):
        mesh = mg.uniform_quad_mesh(2, N_geo=2)
        mesh.elem_map_nodes[0, [0, 2]] = mesh.elem_map_nodes[0, [2, 0]]
        mg.save_mesh(mesh, tmp_path / "bad.json")
        (tmp_path / "c.json").write_text(json.dumps({"N": 2, "mesh": "bad.json", "T": 0.1}))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "Jacobian not positive" in r.stderr and "element 0" in r.stderr

    def test_triangle_mesh_file_exits_2(self, tmp_path):
        mg.save_mesh(mg.uniform_quad_mesh(2), tmp_path / "tri.json")
        doc = json.loads((tmp_path / "tri.json").read_text())
        doc["shape"] = "triangle"
        (tmp_path / "tri.json").write_text(json.dumps(doc))
        (tmp_path / "c.json").write_text(json.dumps({"N": 1, "mesh": "tri.json", "T": 0.1}))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "'triangle'" in r.stderr

    @pytest.mark.parametrize("edit, key", [
        ({"N_geo": 1.0}, "N_geo"), ({"N_geo": True}, "N_geo"), ({"N_geo": 0}, "N_geo"),
        ({"K": 4.0}, "K"), ({"K": "4"}, "K"), ({"h": None}, "h"),
        ({"face_connectivity": None}, "face_connectivity"),
        ({"h": -1.0}, "h"), ({"h": 0}, "h"), ({"h": "abc"}, "h"), ({"h": True}, "h"),
        ({"h": float("inf")}, "h"), ({"h": float("nan")}, "h"),
        # a list edit is the whole document
        ([1, 2], "list"),
    ])
    def test_malformed_mesh_file_exits_2(self, tmp_path, edit, key):
        # a None value deletes the key
        mg.save_mesh(mg.uniform_quad_mesh(2), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        if isinstance(edit, list):
            doc = edit
        else:
            doc.update(edit)
            doc = {k: v for k, v in doc.items() if v is not None}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        (tmp_path / "c.json").write_text(json.dumps({"N": 1, "mesh": "m.json", "T": 0.1}))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert repr(key) in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mapping_node_exits_2(self, tmp_path, value):
        # rejected before the Jacobian check, which would report J = nan
        mg.save_mesh(mg.uniform_quad_mesh(2, N_geo=2), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["elem_map_nodes"][3][5][1] = value
        (tmp_path / "m.json").write_text(json.dumps(doc))
        (tmp_path / "c.json").write_text(json.dumps({"N": 1, "mesh": "m.json", "T": 0.1}))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "mapping node 5 of element 3 is not finite" in r.stderr
        assert "Jacobian" not in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("run_length, needle", [
        ({"T": 0.1, "output_interval": 0}, "output_interval"),
        ({"T": 0.1, "output_interval": 0.5}, "output_interval"),
        ({"T": -0.1}, "T = -0.1"),
        # badly typed or unknown values name their key
        ({"cfl": "0.5"}, "'cfl'"),
        ({"tau_p": "1"}, "'tau_p'"),
        ({"volume_quad_degree": "9"}, "'volume_quad_degree'"),
        ({"N": 2.5}, "'N'"),
        ({"unsafe_quadrature": 1}, "'unsafe_quadrature'"),
        ({"T": True}, "'T'"),
        ({"medium": "foo"}, "'medium'"),
        ({"formulation": "weak"}, "'formulation'"),
        ({"cfl": 0}, "cfl"),
        ({"mesh": "disk-1"}, "disk mesh level"),
        ({"N": 0}, "N >= 1"),
        ({"N_geo": 0}, "N_geo must be >= 1"),
        ({"T": 1, "output_interval": 0.3}, "output_interval"),
        # JSON NaN and Infinity parse as floats; the penalty rejects them
        ({"tau_p": float("nan")}, "tau_p"),
        ({"tau_u": float("inf")}, "tau_u"),
        ({"cfl": float("inf")}, "cfl"),
        # a non-finite run length is named before the output interval uses it
        ({"T": float("inf")}, "T = inf"),
        ({"T": float("nan")}, "T = nan"),
        # stable_dt 1.2e-301: about 8e299 steps, refused before the first
        ({"tau_p": 1e300}, "MAX_STEPS"),
    ])
    def test_bad_run_length_exits_2(self, tmp_path, run_length, needle):
        (tmp_path / "c.json").write_text(json.dumps({"N": 1, "mesh": "disk0", **run_length}))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert needle in r.stderr

    def test_directory_as_config_or_mesh_exits_2(self, tmp_path):
        # each names the path; neither is the numerical-failure exit 1
        (tmp_path / "d").mkdir()
        (tmp_path / "c.json").write_text(json.dumps({"N": 1, "mesh": "d", "T": 0.1}))
        for config in ("d", "c.json"):
            r = run_cli("--out-dir", "out", "run", "--config", config, cwd=tmp_path)
            assert r.returncode == 2, r.stderr
            assert "Is a directory: 'd'" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("family", ["disk", "uniform", "random"])
    def test_negative_mesh_level_exits_2(self, tmp_path, family):
        r = run_cli("--out-dir", "out", "mesh", "--family", family, "--level", "-1",
                    cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "mesh level must be >= 0, got -1" in r.stderr
        assert not list((tmp_path / "out").glob("*.json"))

    def test_removed_quadrature_flag_exits_2(self, tmp_path):
        r = run_cli("--out-dir", "out", "spectrum", "--volume-quad-degree", "9",
                    cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "unrecognized arguments" in r.stderr

    @pytest.mark.parametrize("command", ["spectrum", "wave-convergence"])
    def test_removed_tau_flag_exits_2(self, tmp_path, command):
        r = run_cli("--out-dir", "out", command, "--tau", "0", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--tau could match --tau-p, --tau-u" in r.stderr

    @pytest.mark.parametrize("command", ["wave-convergence", "conservation-study"])
    def test_zero_levels_exits_2(self, tmp_path, command):
        r = run_cli("--out-dir", "out", command, "--levels", "0", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "need at least 1 refinement level, got 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("command", ["wave-convergence", "conservation-study"])
    def test_negative_levels_exit_2_before_any_mesh(self, tmp_path, monkeypatch, capsys,
                                                    command):
        built = []
        disk_mesh = mg.disk_mesh
        monkeypatch.setattr(mg, "disk_mesh", lambda *a: built.append(a) or disk_mesh(*a))
        code = cli.main(["--out-dir", str(tmp_path / "out"), command, "--levels", "-2"])
        assert code == 2
        assert "need at least 1 refinement level, got -2" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--mesh", "disk0", "--N", "1", "--N-geo", "0"],
         "--N-geo must be >= 1, got 0"),
        (["spectrum", "--N", "0"], "--N must be >= 1, got 0"),
        (["mesh", "--family", "disk", "--N-geo", "0"], "--N-geo must be >= 1, got 0"),
        (["wave-convergence", "--N-geo", "0", "--levels", "1"], "--N-geo must be >= 1, got 0"),
        (["wave-convergence", "--N", "0", "--levels", "1"], "--N must be >= 1, got 0"),
        (["project-convergence", "--N-geo", "0"], "--N-geo must be >= 1, got 0"),
        (["project-convergence", "--N", "-1", "--N-geo", "2"], "--N must be >= 1, got -1"),
        (["kappa-study", "--omega", "1", "--N", "0"], "--N must be >= 1, got 0"),
        (["conservation-study", "--N", "0"], "--N must be >= 1, got 0"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_order_below_one_exits_2_naming_its_flag(self, tmp_path, monkeypatch, capsys,
                                                     argv, message):
        # --N-geo defaults to --N only when not given; each is checked,
        # and named, before any mesh is built
        built = []
        for name in ("disk_mesh", "mesh_family"):
            build = getattr(mg, name)
            monkeypatch.setattr(mg, name, lambda *a, _b=build, **k: built.append(a) or _b(*a, **k))
        assert cli.main(["--out-dir", str(tmp_path / "out"), *argv]) == 2
        assert message in capsys.readouterr().err
        assert built == []

    def test_spectrum_cap_exits_1(self, tmp_path):
        r = run_cli("--out-dir", "out", "spectrum", "--mesh", "uniform1", "--N", "1",
                    "--cap", "1", cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert "exceed cap" in r.stderr


class TestCommands:
    def test_mesh_command_roundtrip(self, tmp_path):
        r = run_cli("--out-dir", "out", "mesh", "--family", "disk", "--level", "1",
                    "--N-geo", "2", "--out", "d.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        mesh = mg.load_mesh(tmp_path / "out" / "d.json")
        assert mesh.K == mg.disk_mesh(1, 2).K

    def test_project_convergence_artifacts(self, tmp_path):
        r = run_cli("--out-dir", "out", "project-convergence", "--family", "arnold",
                    "--N", "3", "--levels", "4", "--method", "wadg", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "slope" in r.stdout
        rows = list(csv.reader(open(tmp_path / "out" / "projection_arnold_wadg_N3.csv")))
        assert len(rows) == 5  # header + 4 levels
        assert (tmp_path / "out" / "config.echo").exists()
        assert (tmp_path / "out" / "log.txt").exists()

    def test_spectrum_command(self, tmp_path):
        r = run_cli("--out-dir", "out", "spectrum", "--mesh", "disk0", "--N", "2",
                    "--tau-p", "0", "--tau-u", "0", "--formulation", "strong-weak",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "max real part" in r.stdout
        # the spectral limit of the assembled spectrum leaves margin above stable_dt
        ratio = float(r.stdout.split("ratio")[-1].split()[0])
        assert ratio >= 1.25
        rows = list(csv.reader(open(tmp_path / "out" / "spectrum.csv")))
        m = mg.disk_mesh(0, 2)
        assert len(rows) == 1 + 3 * m.K * 9  # header + 3 K Np eigenvalues

    def test_run_matches_wave_study(self, tmp_path):
        cfg = {"N": 2, "mesh": "disk1", "T": 1.0,
               "tau_p": 1.0, "tau_u": 1.0, "output_interval": 1.0}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        r = run_cli("--out-dir", "out", "run", "--config", str(tmp_path / "c.json"),
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = list(csv.reader(open(tmp_path / "out" / "timeseries.csv")))
        assert rows[0] == ["t", "energy", "l2_error_p"]
        final_err = float(rows[-1][2])
        rec = an.wave_convergence_study([mg.disk_mesh(1, 2)], 2)
        assert final_err == pytest.approx(rec[MassMode.WADG].errors[0], rel=1e-12)

    def test_zero_run_length_records_the_projection(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"N": 1, "mesh": "disk0", "T": 0}))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = list(csv.reader(open(tmp_path / "out" / "timeseries.csv")))
        assert len(rows) == 2
        t, energy, err = map(float, rows[1])
        assert t == 0.0 and np.isfinite(energy) and np.isfinite(err)

    def test_samples_finer_than_dt_record_every_step(self, tmp_path):
        # 100 requested samples, far fewer steps: one row per step and t = 0
        cfg = {"N": 2, "mesh": "disk1", "T": 0.1, "output_interval": 0.001}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        r = run_cli("--out-dir", "out", "run", "--config", "c.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        steps = int(r.stdout.split(" after ")[1].split()[0])
        assert 0 < steps < 100
        rows = list(csv.reader(open(tmp_path / "out" / "timeseries.csv")))[1:]
        t = [float(row[0]) for row in rows]
        assert len(rows) == steps + 1
        assert all(a < b for a, b in zip(t, t[1:])) and t[-1] == 0.1

    def test_toml_config(self, tmp_path):
        (tmp_path / "c.toml").write_text(
            'N = 2\nmesh = "disk0"\nT = 0.2\ncfl = 0.5\n')
        r = run_cli("--out-dir", "out", "run", "--config", str(tmp_path / "c.toml"),
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr

    def test_radial_sine_medium_smooth_at_centre(self):
        # c^2 = 1 + 0.5 sin(pi r^2): no kink at r = 0, where sin(pi r) had one
        medium = cli.MEDIA["radial_sine"]()
        x = np.array([0.0, 1e-4, 0.3, 0.5, 1.0])
        y = np.array([0.0, 0.0, 0.4, -0.5, 0.0])
        r2 = x**2 + y**2
        assert medium.values(x, y) == pytest.approx(1 + 0.5 * np.sin(np.pi * r2), rel=1e-15)
        assert medium.values(x[1:2], y[1:2])[0] - 1.0 < 1e-7


class TestDeterminism:
    def test_idempotent_rerun_identical_artifacts(self, tmp_path):
        digests = []
        for out in ("a", "b"):
            r = run_cli("--out-dir", out, "project-convergence",
                        "--family", "random", "--N", "2", "--levels", "4",
                        "--seed", "3", cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            data = (tmp_path / out / "projection_random_wadg_N2.csv").read_bytes()
            digests.append(hashlib.sha256(data).hexdigest())
        assert digests[0] == digests[1]
