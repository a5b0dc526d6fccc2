"""Command-line driver: artifacts, exit codes, and run plumbing."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flexscat
from flexscat import cli, dtn, postproc
from flexscat.cli import main, observed_orders, run_convergence, run_solve, run_sweep
from flexscat.config import ConfigError, ScatterConfig
from flexscat.geometry import Circle, import_mesh
from flexscat.assembly import Method
from flexscat.postproc import ErrorReport


def run(args):
    return main(list(args))


def test_mesh_command_writes_artifacts(tmp_path):
    out = tmp_path / "m"
    assert run(["mesh", "--shape", "circle:0.3", "--h", "0.2",
                "--out", str(out)]) == 0
    mesh = import_mesh((out / "mesh.txt").read_text())
    assert mesh.h <= 0.2
    meta = json.loads((out / "mesh_metadata.json").read_text())
    assert meta["shape"] == {"kind": "circle", "radius": 0.3}
    assert meta["dofs"] == mesh.n_dofs


def test_solve_command_with_series_oracle(tmp_path):
    out = tmp_path / "s"
    assert run(["solve", "--h", "0.15", "--method", "ip:0.0031",
                "--out", str(out)]) == 0
    for name in ("mesh.txt", "field.csv", "field.vtk", "trace.csv",
                 "errors.csv", "metadata.json"):
        assert (out / name).exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["solver_residual"] <= 1e-10
    assert meta["config"]["method"] == {"kind": "ip", "gamma": 0.0031}
    rows = (out / "errors.csv").read_text().strip().splitlines()
    assert rows[0] == ErrorReport.CSV_HEADER
    assert len(rows) == 2


def test_solve_without_oracle_skips_errors(tmp_path):
    out = tmp_path / "n"
    assert run(["solve", "--h", "0.2", "--oracle", "none",
                "--shape", "ellipse:0.4,0.2", "--out", str(out)]) == 0
    assert not (out / "errors.csv").exists()


def test_reference_oracle_round_trip(tmp_path):
    ref = tmp_path / "ref"
    assert run(["solve", "--h", "0.12", "--oracle", "none",
                "--out", str(ref)]) == 0
    out = tmp_path / "coarse"
    assert run(["solve", "--h", "0.2", "--oracle", f"reference:{ref}",
                "--out", str(out)]) == 0
    rows = (out / "errors.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    errs = [float(x) for x in rows[1].split(",")[7:]]
    # unpenalized w is oscillatory on a coarse mesh, so only order-of-
    # magnitude sanity is expected here
    assert all(0 < e < 2.0 for e in errs)


def test_mesh_import_option(tmp_path):
    # a generated mesh passes the cavity check when imported under its own shape
    for k, shape in enumerate(("circle:0.3", "circle:0.4", "ellipse:0.4,0.2",
                               "kite:0.3,0.2,0.1")):
        src = tmp_path / f"src{k}"
        assert run(["mesh", "--h", "0.2", "--shape", shape, "--out", str(src)]) == 0
        out = tmp_path / f"imported{k}"
        oracle = "series" if shape == "circle:0.3" else "none"
        assert run(["solve", "--mesh", str(src / "mesh.txt"), "--shape", shape,
                    "--oracle", oracle, "--out", str(out)]) == 0, shape
        assert (out / "field.csv").exists()


def test_sweep_command(tmp_path):
    out = tmp_path / "sw"
    assert run(["sweep", "--param", "gamma", "--values", "0.001,0.003,0.01",
                "--h", "0.15", "--out", str(out)]) == 0
    rows = (out / "sweep_gamma.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    gammas = [float(r.split(",")[2]) for r in rows[1:]]
    assert gammas == [0.001, 0.003, 0.01]


def test_sweep_rejects_bad_values(tmp_path):
    assert run(["sweep", "--param", "gamma", "--values", "0.01,0.001",
                "--out", str(tmp_path / "x")]) == 1
    assert run(["sweep", "--param", "bogus", "--values", "1",
                "--out", str(tmp_path / "y")]) == 1


def test_converge_command(tmp_path):
    out = tmp_path / "cv"
    assert run(["converge", "--levels", "3", "--h", "0.2",
                "--method", "ip:0.0031", "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    orders = json.loads((out / "orders.json").read_text())
    assert set(orders) == {"e_l2_v", "e_h1_v", "e_l2_w", "e_h1_w"}
    assert orders["e_l2_v"] > 1.0
    dofs = [int(r.split(",")[6]) for r in rows[1:]]
    assert dofs == sorted(dofs) and len(set(dofs)) == 3


def test_analytic_command(tmp_path):
    out = tmp_path / "an"
    assert run(["analytic", "--nr", "5", "--ntheta", "16",
                "--out", str(out)]) == 0
    rows = (out / "analytic.csv").read_text().strip().splitlines()
    assert rows[0] == "r,theta,Re_v,Im_v,Re_w,Im_w"
    assert len(rows) == 5 * 16 + 1
    assert (out / "modes.csv").exists()


def test_config_file_and_flag_overrides(tmp_path):
    cfg = ScatterConfig(h_target=0.2, oracle="none")
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    out = tmp_path / "run"
    assert run(["solve", "--config", str(path), "--kappa", "2.0",
                "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["kappa"] == 2.0
    assert meta["config"]["h_target"] == 0.2


def test_usage_errors_exit_1(tmp_path, capsys):
    configs = []
    for k, bad in enumerate(({"kappa": "x"}, {"kappa": None}, {"N": 2.7},
                             {"oracle": None})):
        configs.append(tmp_path / f"bad{k}.json")
        configs[-1].write_text(json.dumps(bad))
    a_file = tmp_path / "file"
    a_file.write_text("")
    sweep = ["sweep", "--param", "gamma", "--h", "0.2", "--out", str(tmp_path / "s")]
    assert run(["mesh", "--h", "0.2", "--R", "0.5", "--out", str(tmp_path / "r05")]) == 0
    for radius in ("0.4", "0.25"):
        assert run(["mesh", "--h", "0.2", "--shape", f"circle:{radius}",
                    "--out", str(tmp_path / f"c{radius}")]) == 0
    usage_errors = [
        ["solve", "--shape", "triangle:1"],
        ["solve", "--method", "mystery:1"],
        ["solve", "--bogus", "1"],
        ["solve", "--config", str(tmp_path / "missing.json")],
        ["converge", "--levels", "2", "--out", str(tmp_path / "z")],
        ["analytic", "--shape", "ellipse:0.4,0.2", "--out", str(tmp_path / "w")],
        # a kite that is not star-shaped about the origin
        ["mesh", "--shape", "kite:0.3,0.5,0.1", "--out", str(tmp_path / "k")],
        # OS errors on the config, the mesh and the output paths
        ["solve", "--config", str(tmp_path)],
        ["solve", "--mesh", str(tmp_path), "--out", str(tmp_path / "m")],
        # an imported mesh that ends at R = 0.5, not at the configured 0.6
        ["solve", "--mesh", str(tmp_path / "r05" / "mesh.txt"), "--oracle", "none",
         "--out", str(tmp_path / "m")],
        ["mesh", "--h", "0.2", "--out", str(a_file / "x")],
        # imported cavities of radius 0.4 and 0.25, not the configured 0.3, for any oracle
        ["solve", "--mesh", str(tmp_path / "c0.4" / "mesh.txt"), "--out", str(tmp_path / "m")],
        ["solve", "--mesh", str(tmp_path / "c0.4" / "mesh.txt"), "--oracle", "none",
         "--out", str(tmp_path / "m")],
        ["sweep", "--param", "gamma", "--values", "1e-3",
         "--mesh", str(tmp_path / "c0.25" / "mesh.txt"), "--out", str(tmp_path / "m")],
        # verb options
        ["analytic", "--ntheta", "-1", "--out", str(tmp_path / "a")],
        ["analytic", "--nr", "0", "--out", str(tmp_path / "a")],
        [*sweep, "--logspace", "1e-3", "1e-1", "0"],
        [*sweep, "--logspace", "1e-3", "1e-1", "2.5"],
        [*sweep, "--values", "1e-3,abc"],
        [*sweep, "--values", ",,"],
    ] + [["solve", *bad, "--out", str(tmp_path / "v")]
         for bad in (["--N", "100"], ["--alpha", "nan"], ["--kappa", "inf"],
                     ["--oracle", "bogus"],
                     *(["--config", str(path)] for path in configs))]
    for argv in usage_errors:
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
    assert run(["solve", "--help"]) == 0
    assert not (tmp_path / "a").exists() and not (tmp_path / "s").exists()


def test_sweep_without_oracle_rejected_before_solving(tmp_path, monkeypatch, capsys):
    """Oracle errors surface before any mesh, solve or artifact."""
    ref = tmp_path / "ref"  # a kappa = pi run
    assert run(["solve", "--h", "0.2", "--oracle", "none", "--out", str(ref)]) == 0
    field = (ref / "field.csv").read_text()
    row = field.splitlines()[1]
    damaged = {  # a row missing a column, a value that is not a number, no content
        "field.csv": [field.replace(row, row[:row.rindex(",")]),
                      field.replace(row, row[:row.rindex(",")] + ",x"), ""],
        "mesh.txt": ["nodes 3\n"],
    }
    broken_refs = []
    for name, texts in damaged.items():
        for text in texts:
            broken_refs.append(tmp_path / f"broken{len(broken_refs)}")
            shutil.copytree(ref, broken_refs[-1])
            (broken_refs[-1] / name).write_text(text)
    solves = []
    original = cli.solve_system
    monkeypatch.setattr(cli, "solve_system",
                        lambda *args: solves.append(1) or original(*args))
    sweep = ["sweep", "--param", "gamma", "--values", "0.001,0.01", "--h", "0.2"]
    rejected = [
        [*sweep, "--oracle", "none"],
        [*sweep, "--shape", "ellipse:0.4,0.2"],
        ["solve", "--h", "0.2", "--shape", "ellipse:0.4,0.2"],
        ["solve", "--h", "0.2", "--oracle", f"reference:{tmp_path / 'missing'}"],
        ["solve", "--h", "0.2", "--oracle", "bogus"],
        # a reference run of another physical problem
        ["sweep", "--param", "kappa", "--values", "2,5", "--oracle", f"reference:{ref}"],
        ["solve", "--kappa", "8", "--oracle", f"reference:{ref}"],
        ["solve", "--alpha", "0.5", "--oracle", f"reference:{ref}"],
        ["solve", "--shape", "circle:0.25", "--oracle", f"reference:{ref}"],
        # its mesh ends at R = 0.6 and cannot cover an annulus out to 0.7
        ["solve", "--h", "0.2", "--R", "0.7", "--oracle", f"reference:{ref}"],
        # a reference whose field or mesh file is malformed
        *(["solve", "--h", "0.2", "--oracle", f"reference:{broken}"] for broken in broken_refs),
    ]
    for k, argv in enumerate(rejected):
        out = tmp_path / str(k)
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 1, argv
        assert not out.exists(), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
    assert solves == []


def test_converge_uses_reference_oracle(tmp_path, monkeypatch):
    args = ["converge", "--levels", "3", "--h", "0.3", "--method", "ip:0.0031"]
    assert run([*args, "--oracle", f"reference:{tmp_path / 'missing'}",
                "--out", str(tmp_path / "a")]) == 1
    ref = tmp_path / "ref"
    assert run(["solve", "--h", "0.1", "--oracle", "none", "--out", str(ref)]) == 0
    loaded = []
    original = cli.load_reference
    monkeypatch.setattr(cli, "load_reference",
                        lambda run_dir, cfg: loaded.append(run_dir) or original(run_dir, cfg))
    out = tmp_path / "b"
    assert run([*args, "--oracle", f"reference:{ref}", "--out", str(out)]) == 0
    assert loaded == [ref]
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    # a gamma sweep loads it once too, not once per value
    assert run(["sweep", "--param", "gamma", "--values", "0.001,0.01", "--h", "0.3",
                "--oracle", f"reference:{ref}", "--out", str(tmp_path / "c")]) == 0
    assert loaded == [ref, ref]


def test_sweep_samples_the_oracle_once(tmp_path, monkeypatch):
    """One oracle evaluation and one load per mesh; a kappa sweep needs one per value."""
    ref = tmp_path / "ref"
    assert run(["solve", "--h", "0.12", "--oracle", "none", "--out", str(ref)]) == 0
    calls = []
    for owner, name in ((cli.SeriesSolution, "eval_polar"), (postproc.PointLocator, "locate")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args, _name=name, _original=original:
                            calls.append(_name) or _original(self, *args))
    original_load = cli.incident_load
    monkeypatch.setattr(cli, "incident_load",
                        lambda *args: calls.append("incident_load") or original_load(*args))
    sweep = ["sweep", "--values", "0.001,0.01,0.1", "--h", "0.2"]
    cases = [
        ([*sweep, "--param", "gamma"], ["eval_polar", "incident_load"]),
        ([*sweep, "--param", "eta"], ["eval_polar", "incident_load"]),
        (["sweep", "--param", "kappa", "--values", "2,3,4", "--h", "0.2"],
         ["incident_load", "eval_polar"] * 3),
        ([*sweep, "--param", "gamma", "--oracle", f"reference:{ref}"],
         ["locate", "incident_load"]),
    ]
    for k, (argv, expected) in enumerate(cases):
        calls.clear()
        assert run([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
        assert calls == expected, argv


def test_imported_mesh_warnings_reach_stderr(tmp_path, capsys):
    src = tmp_path / "src"
    assert run(["mesh", "--h", "0.2", "--out", str(src)]) == 0
    lines = (src / "mesh.txt").read_text().splitlines()
    first = lines.index(next(ln for ln in lines if ln.startswith("triangles"))) + 1
    k, a, b, c = lines[first].split()
    lines[first] = f"{k} {a} {c} {b}"  # one clockwise triangle
    flipped = tmp_path / "flipped.txt"
    flipped.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["solve", "--mesh", str(flipped), "--oracle", "none",
                "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        f"warning: reoriented 1 clockwise triangle(s): {k}\n")


def test_runs_build_one_hat_fourier_matrix_per_tbc(tmp_path, monkeypatch):
    """One TBC per solve and per gamma sweep; a kappa sweep needs one per value."""
    calls = []
    original = dtn.hat_fourier
    monkeypatch.setattr(dtn, "hat_fourier",
                        lambda *args: calls.append(1) or original(*args))
    sweep = ["sweep", "--values", "0.001,0.01,0.1", "--h", "0.2"]
    cases = [
        (["solve", "--h", "0.2"], 1),
        ([*sweep, "--param", "gamma"], 1),
        (["sweep", "--param", "kappa", "--values", "2,3,4", "--h", "0.2"], 3),
    ]
    for k, (argv, expected) in enumerate(cases):
        calls.clear()
        assert run([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
        assert len(calls) == expected, argv


# pytest would collect numpy's overflow warnings instead of letting them reach stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failures_exit_2(tmp_path, capsys):
    # cavity touching the truncation circle cannot be meshed
    assert run(["solve", "--shape", "circle:0.6", "--oracle", "none",
                "--out", str(tmp_path / "f")]) == 2
    assert run(["mesh", "--R", "0.25", "--out", str(tmp_path / "g")]) == 2
    assert "cavity extends to radius" in capsys.readouterr().err
    # ring chords bound h below by 2 R sin(pi / n_angular): no n_angular <= 8192 fits
    for bad in (["--h", "1e-300"], ["--R", "1e300"], ["--h", "1e300", "--R", "1e300"]):
        assert run(["mesh", *bad, "--out", str(tmp_path / "u")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: cannot reach h <= "), err
        assert len(err.splitlines()) == 1
    # the coarse cavity polygon puts quadrature points inside the circle
    assert run(["solve", "--h", "0.5", "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "mesh too coarse for the series oracle" in err
    assert len(err.strip().splitlines()) == 1
    # a 0.4-cavity reference relabelled as 0.3 cannot cover the 0.3..0.4 ring
    ref = tmp_path / "ref"
    assert run(["solve", "--h", "0.2", "--shape", "circle:0.4", "--oracle", "none",
                "--out", str(ref)]) == 0
    meta = json.loads((ref / "metadata.json").read_text())
    meta["config"]["shape"]["radius"] = 0.3
    (ref / "metadata.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(["solve", "--h", "0.2", "--oracle", f"reference:{ref}",
                "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "points outside the mesh" in err
    assert len(err.strip().splitlines()) == 1
    # a mesh file with a coordinate that is not finite
    lines = (ref / "mesh.txt").read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split()[1], "nan")
    (tmp_path / "nan.txt").write_text("\n".join(lines) + "\n")
    assert run(["solve", "--mesh", str(tmp_path / "nan.txt"), "--oracle", "none",
                "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: line 2: node coordinates must be finite\n")


def test_runs_that_locate_no_point_skip_scipy_spatial(tmp_path):
    src = str(Path(flexscat.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from flexscat.cli import main; "
            f"status = main(['solve', '--h', '0.3', '--oracle', 'none', '--out', {str(tmp_path)!r}]); "
            "print(status, 'scipy.spatial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.stdout == "0 False\n", done.stderr


def test_observed_orders_on_synthetic_data():
    reports = [
        ErrorReport("IP", math.pi, 1e-3, 0.0, 15, h, 100,
                    2.0 * h ** 2, 3.0 * h, 1.5 * h ** 2, 0.8 * h)
        for h in (0.2, 0.1, 0.05)
    ]
    orders = observed_orders(reports)
    assert orders["e_l2_v"] == pytest.approx(2.0, abs=1e-12)
    assert orders["e_h1_v"] == pytest.approx(1.0, abs=1e-12)
    assert orders["e_l2_w"] == pytest.approx(2.0, abs=1e-12)
    assert orders["e_h1_w"] == pytest.approx(1.0, abs=1e-12)


def test_run_convergence_rejects_imported_meshes(tmp_path):
    cfg = ScatterConfig(mesh_path="whatever.txt", oracle="none")
    with pytest.raises(ConfigError):
        run_convergence(cfg, 3, tmp_path / "c")
