"""Command-line driver: artifacts, exit codes, and run plumbing."""

import contextlib
import ctypes
import dataclasses
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexscat
from flexscat import cli, dtn, postproc, solve
from flexscat.cli import main, observed_orders, run_convergence, run_solve, run_sweep
from flexscat.config import ConfigError, ScatterConfig
from flexscat.geometry import (Circle, Ellipse, Kite, MeshError, export_mesh, generate_mesh,
                               generate_mesh_for_h, import_mesh, refine)
from flexscat.assembly import Method, ScalarMatrices
from flexscat.postproc import ErrorReport
from flexscat.series import CavityPointError
from flexscat.solve import SolverError
from conftest import count_threads


#: bytes that are not UTF-8: an input file that is not text
BINARY = b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x00"


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
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    out = tmp_path / "run"
    assert run(["solve", "--config", str(path), "--kappa", "2.0",
                "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["kappa"] == 2.0
    assert meta["config"]["h_target"] == 0.2


def test_usage_errors_exit_1(tmp_path, capsys):
    configs = []
    for k, bad in enumerate(({"kappa": "x"}, {"kappa": None}, {"N": 2.7},
                             {"oracle": None},
                             {"kappa": True, "N": False, "h_target": 0.2},
                             {"shape": {"kind": "circle", "radius": True}},
                             {"method": {"kind": "bp", "eta": True}})):
        configs.append(tmp_path / f"bad{k}.json")
        configs[-1].write_text(json.dumps(bad))
    a_file = tmp_path / "file"
    a_file.write_text("")
    binary = tmp_path / "binary"
    binary.write_bytes(BINARY)
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
        # config and mesh files that are not UTF-8 text
        ["solve", "--config", str(binary), "--out", str(tmp_path / "m")],
        ["solve", "--mesh", str(binary), "--out", str(tmp_path / "m")],
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
        assert str(binary) in err or str(binary) not in argv, (argv, err)
    assert run(["solve", "--help"]) == 0
    assert not (tmp_path / "a").exists() and not (tmp_path / "s").exists()


def test_sweep_without_oracle_rejected_before_solving(tmp_path, monkeypatch, capsys):
    """Oracle errors surface before any mesh, solve or artifact."""
    ref = tmp_path / "ref"  # a kappa = pi run
    assert run(["solve", "--h", "0.2", "--oracle", "none", "--out", str(ref)]) == 0
    field = (ref / "field.csv").read_text()
    row = field.splitlines()[1]
    damaged = {  # a row missing a column, a value that is not a number, no content,
        # and bytes that are not UTF-8
        "field.csv": [field.replace(row, row[:row.rindex(",")]).encode(),
                      field.replace(row, row[:row.rindex(",")] + ",x").encode(), b"", BINARY],
        "mesh.txt": [b"nodes 3\n", BINARY],
        "metadata.json": [BINARY],
    }
    broken_refs = []
    named = {}  # the file that a reference's error must name, by its run dir
    for name, texts in damaged.items():
        for text in texts:
            broken_refs.append(tmp_path / f"broken{len(broken_refs)}")
            shutil.copytree(ref, broken_refs[-1])
            (broken_refs[-1] / name).write_bytes(text)
            if text == BINARY:
                named[f"reference:{broken_refs[-1]}"] = broken_refs[-1] / name
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
        assert str(named.get(argv[-1], "")) in err, (argv, err)
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


# Self-referenced studies (kite BP as in the benchmark, and series on an
# ellipse, which falls back to a reference); the levels run on a worker.
SELF_REFERENCED = {
    "kite-bp": ScatterConfig(shape=Kite(0.3, 0.2, 0.1), h_target=0.8, oracle="none",
                             method=Method.boundary_penalty(2.5e-3 * math.pi)),
    "ellipse-ip": ScatterConfig(shape=Ellipse(0.4, 0.2), h_target=0.4, oracle="series",
                                method=Method.interior_penalty(1e-3 * math.pi)),
}
KITE_STUDY = ["converge", "--shape", "kite:0.3,0.2,0.1", "--method", "bp:0.00785",
              "--oracle", "none", "--levels", "3", "--h", "0.8"]


def serial_study(cfg, levels):
    """The reports of a self-referenced study composed in turn on one thread."""
    meshes = [generate_mesh_for_h(cfg.shape, cfg.R, cfg.h_target)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))
    ref_mesh = refine(refine(meshes[-1]))
    ref_cfg = dataclasses.replace(cfg, method=Method.interior_penalty(cfg.kappa * 1e-3))
    ref_field = cli.solve_once(ref_cfg, ref_mesh, ScalarMatrices(ref_mesh),
                               *cli.tbc_and_load(ref_cfg, ref_mesh))
    exact = postproc.fe_evaluator(ref_field, ref_mesh)
    reports = []
    for mesh in meshes:
        field = cli.solve_once(cfg, mesh, ScalarMatrices(mesh), *cli.tbc_and_load(cfg, mesh))
        reports.append(postproc.compute_errors(field, mesh, postproc.exact_samples(mesh, exact),
                                               cfg.method, cfg.kappa, cfg.N))
    return reports


@pytest.mark.parametrize("study", SELF_REFERENCED)
def test_self_referenced_study_equals_the_serial_composition(tmp_path, monkeypatch, study):
    cfg = SELF_REFERENCED[study]
    solved = []
    original = cli.solve_system
    monkeypatch.setattr(cli, "solve_system", lambda system: solved.append(
        (len(system.F), threading.current_thread())) or original(system))
    reports, _ = run_convergence(cfg, 3, tmp_path)
    # the reference solves on this thread, every level on one other
    (*levels, (_, ref_thread)) = sorted(solved, key=lambda s: s[0])
    assert ref_thread is threading.main_thread()
    assert len(levels) == 3 and len({t for _, t in levels} - {ref_thread}) == 1
    monkeypatch.undo()
    assert reports == serial_study(cfg, 3)


@pytest.mark.parametrize("failure", ["solver", "warning"])
def test_a_level_failing_on_the_worker_exits_2_with_its_message(tmp_path, monkeypatch,
                                                                  capsys, failure):
    original = cli.solve_system
    dropped = []

    class Factor:  # stands in for a level's SuperLU factor, a local of solve_system
        def __del__(self):
            dropped.append(threading.current_thread())

    def solve_system(system):
        if threading.current_thread() is not threading.main_thread():
            factor = Factor()  # noqa: F841
            if failure == "solver":
                raise SolverError("relative residual 1.000e+00 exceeds 1e-10")
            np.exp(np.float64(1000.0))  # raises only under main's warnings filter
        return original(system)

    monkeypatch.setattr(cli, "solve_system", solve_system)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # not the test suite's filter
        assert main([*KITE_STUDY, "--out", str(tmp_path)]) == 2
    message = {"solver": "relative residual 1.000e+00 exceeds 1e-10",
               "warning": "overflow encountered in exp"}[failure]
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not (tmp_path / "convergence.csv").exists()
    # dropped on the worker, though the failure's traceback reached this thread
    assert len(dropped) == 1 and dropped[0] is not threading.main_thread()


def test_a_failing_reference_is_reported_before_a_failing_level(tmp_path, monkeypatch,
                                                                capsys):
    level_failed = threading.Event()

    def solve_system(system):
        if threading.current_thread() is threading.main_thread():
            assert level_failed.wait(timeout=60)
            raise SolverError("reference failed")
        level_failed.set()
        raise SolverError("level failed")

    monkeypatch.setattr(cli, "solve_system", solve_system)
    assert main([*KITE_STUDY, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "numerical failure: reference failed\n"


def test_repeated_self_referenced_studies_hold_no_more_memory(tmp_path):
    """scipy frees a SuperLU factor's memory only on the thread that made it.
    One level factor dropped on the main thread per study would hold about
    2 MB more after each one here, 12 MB over the six measured."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    statm = Path("/proc/self/statm")
    if trim is None or not statm.exists():
        pytest.skip("needs glibc's malloc_trim and /proc/self/statm")
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int

    def rss_mb():
        gc.collect()
        trim(0)  # free heap pages go back to the system: RSS counts what is held
        return int(statm.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    cfg = SELF_REFERENCED["kite-bp"]
    for k in range(2):  # warm-up: imports, caches and the worker's heap arena
        run_convergence(cfg, 3, tmp_path / f"w{k}")
    before = rss_mb()
    after = []
    for k in range(6):
        run_convergence(cfg, 3, tmp_path / str(k))
        after.append(rss_mb())
    assert after[-1] - before < 6.0, (before, after)


def test_sweep_samples_the_oracle_once(tmp_path, monkeypatch):
    """One oracle evaluation and one load per mesh; a kappa sweep needs one per
    value, its load first.  Its later values overlap on two lanes, so each
    call is logged with its kappa (None for the locator, which has none)."""
    ref = tmp_path / "ref"
    assert run(["solve", "--h", "0.12", "--oracle", "none", "--out", str(ref)]) == 0
    calls = []
    original_eval, original_locate = cli.SeriesSolution.eval_polar, postproc.PointLocator.locate
    monkeypatch.setattr(cli.SeriesSolution, "eval_polar", lambda self, *args: calls.append(
        ("eval_polar", self.kappa)) or original_eval(self, *args))
    monkeypatch.setattr(postproc.PointLocator, "locate", lambda self, *args: calls.append(
        ("locate", None)) or original_locate(self, *args))
    original_load = cli.incident_load
    monkeypatch.setattr(cli, "incident_load", lambda *args: calls.append(
        ("incident_load", args[1])) or original_load(*args))
    sweep = ["sweep", "--values", "0.001,0.01,0.1", "--h", "0.2"]
    cases = [
        ([*sweep, "--param", "gamma"], ["eval_polar", "incident_load"]),
        ([*sweep, "--param", "eta"], ["eval_polar", "incident_load"]),
        ([*sweep, "--param", "gamma", "--oracle", f"reference:{ref}"],
         ["locate", "incident_load"]),
    ]
    for k, (argv, expected) in enumerate(cases):
        calls.clear()
        assert run([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
        assert [name for name, _ in calls] == expected, argv
    calls.clear()
    assert run(["sweep", "--param", "kappa", "--values", "2,3,4", "--h", "0.2",
                "--out", str(tmp_path / "kappa")]) == 0
    assert len(calls) == 6
    for kappa in (2.0, 3.0, 4.0):
        assert [name for name, k in calls if k == kappa] == ["incident_load", "eval_polar"]


#: five values: the first is solved in turn, then two on each lane
LANE_VALUES = [0.001, 0.002, 0.005, 0.01, 0.02]


def serial_sweep(cfg, parameter, values):
    """The bytes of sweep_<parameter>.csv composed in turn on one thread."""
    mesh = generate_mesh_for_h(cfg.shape, cfg.R, cfg.h_target)
    scalars = ScalarMatrices(mesh)
    reports = []
    for value in values:
        c = dataclasses.replace(cfg, **{
            "gamma": {"method": Method.interior_penalty(value)},
            "eta": {"method": Method.boundary_penalty(value)},
            "kappa": {"kappa": value}}[parameter])
        field = cli.solve_once(c, mesh, scalars, *cli.tbc_and_load(c, mesh))
        samples = postproc.exact_samples(mesh, cli.oracle_evaluator(c))
        reports.append(postproc.compute_errors(field, mesh, samples, c.method, c.kappa, c.N))
    return postproc.error_csv(reports)


@pytest.mark.parametrize("parameter, oracle, values", [
    ("gamma", "series", LANE_VALUES),
    ("eta", "series", LANE_VALUES),
    ("kappa", "series", [2.0, 2.5, 3.0, 3.5, 4.0]),
    ("gamma", "reference", LANE_VALUES),
], ids=["gamma", "eta", "kappa", "reference"])
def test_a_sweep_on_two_lanes_writes_the_bytes_of_the_serial_loop(tmp_path, monkeypatch,
                                                                   parameter, oracle, values):
    if oracle == "reference":
        ref = tmp_path / "ref"
        assert run(["solve", "--h", "0.1", "--oracle", "none", "--out", str(ref)]) == 0
        oracle = f"reference:{ref}"
    cfg = ScatterConfig(h_target=0.2, oracle=oracle, method=Method.interior_penalty(0.003))
    solved, original = [], cli.solve_system
    monkeypatch.setattr(cli, "solve_system", lambda system: solved.append(
        threading.current_thread()) or original(system))
    run_sweep(cfg, parameter, values, tmp_path / "sweep")
    # the first value in turn, then the lanes: this thread and one worker
    assert len(solved) == 5 and solved[0] is threading.main_thread()
    assert len(set(solved)) == 2
    monkeypatch.undo()
    assert ((tmp_path / "sweep" / f"sweep_{parameter}.csv").read_text()
            == serial_sweep(cfg, parameter, values))
    assert not (tmp_path / "sweep" / f"sweep_{parameter}_failures.txt").exists()


def test_lanes_switching_often_write_the_bytes_of_the_serial_loop(tmp_path):
    # both lanes build the kept ordering's gather at their first value and
    # write their outcomes into one list: a thread switch every few
    # microseconds interleaves them, and nothing may be lost or mixed
    cfg = ScatterConfig(h_target=0.2, method=Method.interior_penalty(0.003))
    values = list(np.logspace(-4, -1, 9))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(3):
            run_sweep(cfg, "gamma", values, tmp_path / str(k))
    finally:
        sys.setswitchinterval(interval)
    expected = serial_sweep(cfg, "gamma", values)
    for k in range(3):
        assert (tmp_path / str(k) / "sweep_gamma.csv").read_text() == expected


@pytest.mark.parametrize("failure", ["solver", "warning"])
def test_a_value_failing_on_the_worker_lane_is_recorded_in_value_order(tmp_path, monkeypatch,
                                                                       failure):
    # 0.001 is solved in turn; this thread takes 0.002 and 0.01, the worker
    # 0.005 and 0.02.  0.005 fails on the worker, 0.01 later on this thread
    original, dropped, threads = cli.solve_once, [], {}

    class Factor:  # stands in for the value's SuperLU factor, a local of its solve
        def __del__(self):
            dropped.append(threading.current_thread())

    def solve_once(cfg, *args):
        threads[cfg.method.gamma] = threading.current_thread()
        if cfg.method.gamma == 0.005:
            factor = Factor()  # noqa: F841
            if failure == "solver":
                raise SolverError("relative residual 1.000e+00 exceeds 1e-10")
            np.exp(np.float64(1000.0))  # raises only under main's warnings filter
        if cfg.method.gamma == 0.01:
            raise SolverError("factorization failed: Factor is exactly singular")
        return original(cfg, *args)

    monkeypatch.setattr(cli, "solve_once", solve_once)
    values = ",".join(map(repr, LANE_VALUES))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # not the test suite's filter
        assert run(["sweep", "--param", "gamma", "--values", values, "--h", "0.2",
                    "--out", str(tmp_path)]) == 0
    assert threads[0.005] is not threading.main_thread()
    assert threads[0.01] is threading.main_thread()
    message = {"solver": "relative residual 1.000e+00 exceeds 1e-10",
               "warning": "overflow encountered in exp"}[failure]
    assert (tmp_path / "sweep_gamma_failures.txt").read_text() == (
        f"gamma=0.005: {message}\n"
        "gamma=0.01: factorization failed: Factor is exactly singular\n")
    rows = (tmp_path / "sweep_gamma.csv").read_text().strip().splitlines()
    assert [float(r.split(",")[2]) for r in rows[1:]] == [0.001, 0.002, 0.02]
    # dropped on the worker, with the exception that held it
    assert len(dropped) == 1 and dropped[0] is threads[0.005]


@pytest.mark.parametrize("lower", ["worker", "main"])
def test_the_lowest_aborting_failure_of_the_two_lanes_is_raised(tmp_path, monkeypatch,
                                                                capsys, lower):
    # each lane aborts; the one whose value comes later fails first in time
    later_failed = threading.Event()
    failing = {"worker": (0.005, 0.01), "main": (0.002, 0.005)}[lower]
    original = cli.solve_once

    def solve_once(cfg, *args):
        gamma = cfg.method.gamma
        if gamma == failing[0]:
            assert later_failed.wait(timeout=60)
            raise CavityPointError("evaluation point inside the cavity")
        if gamma == failing[1]:
            later_failed.set()
            raise MemoryError("")
        return original(cfg, *args)

    monkeypatch.setattr(cli, "solve_once", solve_once)
    values = ",".join(map(repr, LANE_VALUES))
    assert run(["sweep", "--param", "gamma", "--values", values, "--h", "0.2",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("numerical failure: mesh too coarse for the series "
                                       "oracle (evaluation point inside the cavity)\n")
    assert os.listdir(tmp_path) == []


def test_each_factor_is_made_inside_the_solve_of_its_lane(tmp_path, monkeypatch):
    # at h 0.04 (2,898 dofs) each value takes the real attempt, whose
    # solves use a thread of their own: none of them factors
    inside, factored = threading.local(), []
    solve_system, splu = cli.solve_system, solve.splu

    def solve_in_lane(system):
        inside.solving = True
        try:
            return solve_system(system)
        finally:
            inside.solving = False

    monkeypatch.setattr(cli, "solve_system", solve_in_lane)
    monkeypatch.setattr(solve, "splu", lambda *a, **k: factored.append(
        (threading.current_thread(), getattr(inside, "solving", False))) or splu(*a, **k))
    assert run(["sweep", "--param", "gamma", "--values", "0.001,0.002,0.005,0.01",
                "--h", "0.04", "--out", str(tmp_path)]) == 0
    assert len(factored) == 4 and all(solving for _, solving in factored)
    assert factored[0][0] is threading.main_thread()
    assert len({thread for thread, _ in factored}) == 2


def test_repeated_sweeps_hold_no_more_memory(tmp_path):
    """Every factor of a sweep is made and dropped on its lane's thread."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    statm = Path("/proc/self/statm")
    if trim is None or not statm.exists():
        pytest.skip("needs glibc's malloc_trim and /proc/self/statm")
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int

    def rss_mb():
        gc.collect()
        trim(0)  # free heap pages go back to the system: RSS counts what is held
        return int(statm.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    cfg = ScatterConfig(h_target=0.05, method=Method.interior_penalty(0.0031))
    for k in range(2):  # warm-up: imports, caches and the worker's heap arena
        run_sweep(cfg, "gamma", LANE_VALUES, tmp_path / f"w{k}")
    before = rss_mb()
    after = []
    for k in range(6):
        run_sweep(cfg, "gamma", LANE_VALUES, tmp_path / str(k))
        after.append(rss_mb())
    assert after[-1] - before < 4.0, (before, after)


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
    # an --out that cannot be created is reported alone, with no warning
    assert run(["solve", "--mesh", str(flipped), "--oracle", "none",
                "--out", str(flipped / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


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
    # (sampled on the worker) after the field artifacts are written
    assert run(["solve", "--h", "0.5", "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "mesh too coarse for the series oracle" in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(tmp_path / "c")) == ["field.csv", "field.vtk", "mesh.txt",
                                                  "trace.csv"]
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
    # a cavity outside or on the circle of radius R = 0.6: analytic builds no
    # mesh, but checks as solve does, before it creates --out
    for k, radius in enumerate(("0.7", "0.6")):
        assert run(["analytic", "--shape", f"circle:{radius}",
                    "--out", str(tmp_path / f"a{k}")]) == 2
        assert capsys.readouterr().err == (f"numerical failure: cavity extends to radius "
                                           f"{radius}, not strictly inside R = 0.6\n")
        assert not (tmp_path / f"a{k}").exists()
    # a mesh file with a coordinate that is not finite
    lines = (ref / "mesh.txt").read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split()[1], "nan")
    (tmp_path / "nan.txt").write_text("\n".join(lines) + "\n")
    assert run(["solve", "--mesh", str(tmp_path / "nan.txt"), "--oracle", "none",
                "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: line 2: node coordinates must be finite\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--shape", "circle:0.7", "--oracle", "none"],
    ["sweep", "--param", "gamma", "--values", "0.001", "--h", "1e-300"],
    ["mesh", "--shape", "circle:0.7"],
    ["solve", "--h", "1e-300", "--oracle", "none"],
], ids=["solve-cavity", "sweep-h", "mesh-cavity", "solve-h"])
def test_a_mesh_that_cannot_be_built_leaves_no_out(tmp_path, capsys, argv):
    # the mesh is built before --out is created
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def degenerate_mesh_text(case):
    """The 2 x 12 circle mesh as a mesh file with one sliver: a triangle of
    positive area pressed to 1e-15 L^2 (L its longest side, a T chord) by moving
    its I node towards its T side ("sliver"), or that mesh scaled by 1e-8
    ("tiny"), whose areas all lie below 1e-14.  The 2 x 12 mesh itself scaled
    by 1e-8 is "tiny-clean"."""
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    nodes = mesh.nodes.copy()
    if case != "tiny-clean":
        cls = mesh.node_class[mesh.triangles]
        k = np.flatnonzero((cls == "T").sum(axis=1) == 2)[0]
        (i,), (a, b) = mesh.triangles[k][cls[k] == "I"], mesh.triangles[k][cls[k] == "T"]
        side = nodes[b] - nodes[a]
        foot = nodes[a] + (nodes[i] - nodes[a]) @ side / (side @ side) * side
        nodes[i] = foot + (nodes[i] - foot) * (1e-15 * (side @ side) / mesh.areas[k])
    if case != "sliver":
        nodes *= 1e-8
    return "\n".join(
        [f"nodes {mesh.n_nodes}"]
        + [f"{k} {x!r} {y!r} {c}" for k, (x, y), c in
           zip(range(1, mesh.n_nodes + 1), nodes.tolist(), mesh.node_class)]
        + [f"triangles {mesh.n_triangles}"]
        + [f"{k} {a} {b} {c}" for k, (a, b, c) in enumerate((mesh.triangles + 1).tolist(), 1)])


#: a cavity so small that kappa Rhat = 9.42e-09
TINY = ["--R", "6e-9", "--shape", "circle:3e-9"]


@pytest.mark.parametrize("case, argv", [
    ("tiny", ["solve", *TINY, "--oracle", "none"]),
    ("tiny", ["mesh", *TINY]),
    ("sliver", ["solve", "--oracle", "none"]),
    ("sliver", ["sweep", "--param", "gamma", "--values", "0.001"]),
    ("sliver", ["mesh"]),
], ids=["solve-tiny", "mesh-tiny", "solve-sliver", "sweep-sliver", "mesh-sliver"])
def test_a_degenerate_mesh_file_is_rejected_on_import(tmp_path, capsys, case, argv):
    # a triangle of area at most AREA_EPS times its longest side squared fails
    # the mesh's construction, before --out is created, as any other invalid
    # mesh, at any scale
    path = tmp_path / "mesh.txt"
    path.write_text(degenerate_mesh_text(case))
    out = tmp_path / "out"
    assert run([*argv, "--mesh", str(path), "--out", str(out)]) == 2
    area, side = {"tiny": (r"\d\.\d{3}e-3[23]", "3.106e-09"),
                  "sliver": (r"\d\.\d{3}e-1[67]", "3.106e-01")}[case]
    assert re.fullmatch(rf"numerical failure: 1 degenerate triangle\(s\): area outside "
                        rf"\(1e-14 L\^2, inf\) for longest side L, the first {area} "
                        rf"with L = {re.escape(side)}\n", capsys.readouterr().err)
    assert not out.exists()


def test_tiny_well_shaped_meshes_pass(tmp_path, capsys):
    # well-shaped triangles pass however small: the 2 x 12 mesh scaled by 1e-8,
    # whose areas all lie below 1e-14, and a mesh generated at R = 6e-7
    path = tmp_path / "tiny.txt"
    path.write_text(degenerate_mesh_text("tiny-clean"))
    assert run(["mesh", *TINY, "--mesh", str(path), "--out", str(tmp_path / "a")]) == 0
    mesh = import_mesh((tmp_path / "a" / "mesh.txt").read_text())
    assert mesh.areas.max() < 1e-14
    for k, h in enumerate(("6e-8", "3e-7")):
        out = tmp_path / f"g{k}"
        assert run(["mesh", "--R", "6e-7", "--shape", "circle:3e-7", "--h", h,
                    "--out", str(out)]) == 0, capsys.readouterr().err
        assert import_mesh((out / "mesh.txt").read_text()).h <= float(h)


def ring_error_mesh_text(case):
    """A mesh file whose boundary rings are invalid.  "enclosing": the h 0.2
    circle mesh with its T and D classes swapped, so the cavity encloses
    Gamma_R; "hole": the 6 x 16 circle mesh less the triangles around node
    (3, 0), whose ring is classed D, a second cavity loop; "pinched": the same
    holes around nodes (3, 0) and (3, 2), whose rings share node (3, 1), which
    has two cavity sides leaving it."""
    if case == "enclosing":
        mesh = generate_mesh_for_h(Circle(0.3), 0.6, 0.2)
        triangles, cls = mesh.triangles, mesh.node_class.copy()
        cls[mesh.node_class == "T"], cls[mesh.node_class == "D"] = "D", "T"
    else:
        mesh = generate_mesh(Circle(0.3), 0.6, 6, 16)
        centres = [3 * 16] if case == "hole" else [3 * 16, 3 * 16 + 2]
        around = np.isin(mesh.triangles, centres).any(axis=1)
        triangles, cls = mesh.triangles[~around], mesh.node_class.copy()
        cls[np.setdiff1d(mesh.triangles[around], centres)] = "D"
    return "\n".join(
        [f"nodes {mesh.n_nodes}"]
        + [f"{k} {x!r} {y!r} {c}" for k, (x, y), c in
           zip(range(1, mesh.n_nodes + 1), mesh.nodes.tolist(), cls)]
        + [f"triangles {len(triangles)}"]
        + [f"{k} {a} {b} {c}" for k, (a, b, c) in enumerate((triangles + 1).tolist(), 1)])


@pytest.mark.parametrize("case, argv, message", [
    ("enclosing", ["--R", "0.3", "--shape", "circle:0.6"],
     r"node \d+ at \(\S+, \S+\) lies outside the truncation circle"),
    ("hole", [], "cavity boundary is not a single closed loop"),
    ("pinched", [], "cavity boundary is not a single closed loop"),
], ids=["enclosing", "hole", "pinched"])
def test_a_mesh_file_with_a_bad_ring_is_rejected_on_import(tmp_path, capsys, case, argv,
                                                            message):
    # each ring is read off its triangles' orientation: the enclosing cavity's
    # rings are single loops, but its D nodes lie outside Gamma_R
    text = ring_error_mesh_text(case)
    with pytest.raises(MeshError, match=f"^{message}$"):
        import_mesh(text)
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(["solve", "--mesh", str(path), *argv, "--oracle", "none", "--out", str(out)]) == 2
    assert re.fullmatch(f"numerical failure: {message}\n", capsys.readouterr().err)
    assert not out.exists()


def test_a_mesh_file_with_a_node_in_no_triangle_is_rejected_on_import(tmp_path, capsys):
    # the h 0.2 circle mesh plus one I node that no triangle uses: A would be
    # singular, so the mesh fails its construction, before --out is created
    mesh = generate_mesh_for_h(Circle(0.3), 0.6, 0.2)
    lines = export_mesh(mesh).splitlines()
    n = mesh.n_nodes
    path = tmp_path / "mesh.txt"
    path.write_text("\n".join([f"nodes {n + 1}", *lines[1:n + 1], f"{n + 1} 0.0 0.45 I",
                               *lines[n + 1:]]))
    out = tmp_path / "out"
    assert run(["solve", "--mesh", str(path), "--oracle", "none", "--out", str(out)]) == 2
    # named as the file numbers it, from 1
    assert n + 1 == 81
    assert capsys.readouterr().err == ("numerical failure: node 81 at (0, 0.45) "
                                       "is in no triangle\n")
    assert not out.exists()


def test_node_messages_name_nodes_as_the_mesh_file_numbers_them():
    # the enclosing mesh's first node on the circle of radius 0.6, and an
    # interior node classed T: the file's id (from 1) and the coordinates
    text = ring_error_mesh_text("enclosing")
    mesh = generate_mesh_for_h(Circle(0.3), 0.6, 0.2)
    k = int(np.argmax(np.linalg.norm(mesh.nodes, axis=1)))
    x, y = mesh.nodes[k]
    with pytest.raises(MeshError, match=re.escape(
            f"node {k + 1} at ({x:.6g}, {y:.6g}) lies outside the truncation circle")):
        import_mesh(text)
    mesh = generate_mesh(Circle(0.3), 0.6, 2, 12)
    lines = export_mesh(mesh).splitlines()
    k = int(mesh.interior_nodes[0])
    lines[k + 1] = lines[k + 1][:-1] + "T"
    assert lines[k + 1].startswith(f"{k + 1} ")
    with pytest.raises(MeshError, match=re.escape(
            f"node {k + 1} at (0.45, 0) classed as boundary but not on a boundary loop")):
        import_mesh("\n".join(lines))


@pytest.mark.parametrize("argv, stage", [
    (["solve", *TINY], "series oracle at kappa Rhat = 9.42e-09"),
    (["sweep", "--param", "gamma", "--values", "0.001", *TINY],
     "series oracle at kappa Rhat = 9.42e-09"),
    (["analytic", *TINY], "series oracle at kappa Rhat = 9.42e-09"),
    (["converge", "--levels", "3", *TINY], "series oracle at kappa Rhat = 9.42e-09"),
    (["solve", "--h", "0.2", "--kappa", "1e-6"], "series oracle at kappa Rhat = 3e-07"),
    (["solve", "--h", "0.2", "--kappa", "1e-9", "--oracle", "none"],
     "DtN symbols at kappa R = 6e-10"),
], ids=["solve", "sweep", "analytic", "converge", "solve-kappa", "solve-kappa-no-oracle"])
def test_an_overflow_names_its_stage(tmp_path, capsys, argv, stage):
    # the series oracle squares Y_n(kappa Rhat), the DtN symbols H_n(kappa R):
    # each overflows at a tiny argument, and the one line says which did
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {stage}: overflow encountered in multiply\n")


@pytest.mark.parametrize("argv, warns", [
    (["solve", "--oracle", "none", "--N", "15"], True),
    (["solve", "--oracle", "none", "--N", "20"], False),
    (["sweep", "--param", "kappa", "--values", "2,30"], True),
    (["sweep", "--param", "kappa", "--values", "2,3"], False),
    (["sweep", "--param", "gamma", "--values", "0.001,0.01"], True),
    (["converge", "--oracle", "series", "--levels", "3"], True),
], ids=["solve", "solve-n20", "sweep-kappa", "sweep-kappa-low", "sweep-gamma", "converge"])
def test_dtn_order_below_kappa_r_warns_once(tmp_path, capsys, argv, warns):
    # kappa R = 18 at kappa 30 and R 0.6 (a kappa sweep takes its largest
    # kappa): the default N = 15 drops propagating modes, N = 20 does not
    kappa = [] if "kappa" in argv else ["--kappa", "30"]
    assert run([*argv, *kappa, "--h", "0.2", "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    want = ("warning: DtN order N = 15 is below kappa R = 18; "
            "the boundary condition drops propagating modes\n")
    assert err == (want if warns else "")


def test_no_dtn_order_warning_at_the_defaults(tmp_path, capsys):
    assert run(["solve", "--h", "0.2", "--out", str(tmp_path / "s")]) == 0
    assert run(["sweep", "--param", "eta", "--values", "0.01", "--h", "0.2",
                "--out", str(tmp_path / "w")]) == 0
    assert run(["converge", "--levels", "3", "--h", "0.4", "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err == ""


class _Refined(Exception):
    pass


@pytest.mark.parametrize("oracle, levels, fits", [
    ("series", 9, True), ("series", 10, False),
    ("none", 7, True), ("none", 8, False), ("none", 14, False),
])
def test_converge_levels_are_bounded_before_refining(tmp_path, monkeypatch, capsys,
                                                     oracle, levels, fits):
    # h = 0.2 starts at an n_angular that 8 doublings keep within MAX_ANGULAR;
    # a self-referenced study's reference takes REFERENCE_EXTRA_REFINES more
    n_angular = generate_mesh_for_h(Circle(0.3), 0.6, 0.2).generator.n_angular
    assert n_angular * 2**8 <= cli.MAX_ANGULAR < n_angular * 2**9

    def refine(mesh):
        raise _Refined

    monkeypatch.setattr(cli, "refine", refine)
    argv = ["converge", "--h", "0.2", "--oracle", oracle, "--levels", str(levels),
            "--out", str(tmp_path / "c")]
    if fits:
        with pytest.raises(_Refined):
            run(argv)
        return
    assert run(argv) == 2
    refines = levels - 1 + cli.REFERENCE_EXTRA_REFINES * (oracle == "none")
    assert capsys.readouterr().err == (
        f"numerical failure: cannot refine {refines} times from n_angular = {n_angular} "
        f"with n_angular <= {cli.MAX_ANGULAR}\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv, allocates, text", [
    (["sweep", "--param", "gamma", "--logspace", "1e-4", "1e-1", "1e12"], "logspace",
     "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
     "and data type float64"),
    (["analytic", "--nr", "200000", "--ntheta", "200000"], "meshgrid", ""),
], ids=["sweep-values", "analytic-grid"])
def test_refused_allocation_is_a_numerical_failure(tmp_path, monkeypatch, capsys,
                                                   argv, allocates, text):
    # whether the allocator refuses these sizes at once depends on the host's
    # overcommit policy, so the allocating call refuses here; SuperLU's
    # MemoryError has no text
    def refuse(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(np, allocates, refuse)
    assert run([*argv, "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == f"numerical failure: {text or 'out of memory'}\n"


def test_out_of_range_inputs_fail_in_one_line(tmp_path, capsys):
    # found by the flag fuzz below: at kappa = 1e-6 the oracle's Hankel
    # symbols overflow, and the run used to write nan errors and exit 0
    # beside numpy warnings; kappa = 1e300 and infinite --logspace bounds
    # printed warnings ahead of their one line (a kappa sweep now records such
    # a value and goes on, below)
    cases = [
        (["solve", "--h", "0.2", "--kappa", "1e-6"], 2),
        (["solve", "--h", "0.8", "--kappa", "1e300"], 2),
        (["sweep", "--h", "0.7", "--param", "eta", "--logspace", "inf", "inf", "3"], 1),
    ]
    for k, (argv, status) in enumerate(cases):
        assert run([*argv, "--out", str(tmp_path / str(k))]) == status, argv
        err = capsys.readouterr().err
        assert err.startswith(("error: ", "numerical failure: ")[status - 1]), (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
    assert not (tmp_path / "0" / "errors.csv").exists()


@pytest.mark.parametrize("values, failed, warned", [
    ("1e-6,1", "kappa=1e-06: ", ""),
    ("1,1e9", "kappa=1000000000.0: ", "warning: DtN order N = 15 is below kappa R = 6e+08; "
                                      "the boundary condition drops propagating modes\n"),
], ids=["kappa-1e-6", "kappa-1e9"])
def test_sweep_records_numerical_failures_and_goes_on(tmp_path, capsys, values, failed, warned):
    # the oracle overflows at kappa = 1e-6 and divides inf by inf at 1e9: each
    # fails alone, as a failing solve does, and kappa = 1 still gets its row;
    # stderr holds no more than the DtN order warning of the largest kappa
    out = tmp_path / "k"
    assert run(["sweep", "--h", "0.2", "--param", "kappa", "--values", values,
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == warned
    rows = (out / "sweep_kappa.csv").read_text().strip().splitlines()
    assert [float(r.split(",")[1]) for r in rows[1:]] == [1.0]
    failures = (out / "sweep_kappa_failures.txt").read_text().splitlines()
    assert len(failures) == 1 and failures[0].startswith(failed), failures


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


# Flag values for the fuzz below: in range, at the edges and malformed.  Radii
# stay small enough that a mesh at h >= 0.2 has a few thousand nodes at most.
_ODD = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "x", ""])
_SIZE = st.floats(0.05, 2.0).map(repr) | _ODD
_PENALTY = st.floats(1e-6, 10.0).map(repr) | _ODD


@st.composite
def _cli_argv(draw):
    """A mesh, solve or sweep command line with drawn flags, each maybe absent."""
    command = draw(st.sampled_from(["mesh", "solve", "sweep"]))
    argv = [command, "--h", draw(st.floats(0.2, 1.0).map(repr)
                                 | st.sampled_from(["0.2", "inf", "1e300"]))]
    shape = draw(st.sampled_from(["circle", "ellipse", "kite", "triangle"]))
    n_params = {"circle": 1, "ellipse": 2, "kite": 3}.get(shape, 1)
    sizes = draw(st.lists(_SIZE, min_size=n_params - 1, max_size=n_params + 1))
    method = draw(st.sampled_from(["regular", "ip", "bp"]))
    optional = {
        "--shape": f"{shape}:" + ",".join(sizes),
        "--method": method if method == "regular" else f"{method}:{draw(_PENALTY)}",
        "--R": draw(_SIZE),
        "--kappa": draw(st.floats(0.1, 20.0).map(repr) | _ODD),
        "--N": str(draw(st.integers(-2, 40))),
        "--oracle": draw(st.sampled_from(["series", "none", "bogus", "reference:missing"])),
    }
    for flag, value in optional.items():
        if draw(st.booleans()):
            argv += [flag, value]
    if command == "sweep":
        argv += ["--param", draw(st.sampled_from(["gamma", "eta", "kappa"]))]
        if draw(st.booleans()):
            argv += ["--values", ",".join(draw(st.lists(_PENALTY, min_size=1, max_size=3)))]
        else:
            argv += ["--logspace", draw(_PENALTY), draw(_PENALTY),
                     draw(st.sampled_from(["1", "2", "3", "0", "2.5", "-1"]))]
    return argv


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cli_argv())
def test_fuzzed_flags_exit_cleanly(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        status = main([*argv, "--out", out])
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if status:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


#: the benchmark's circle IP solve options
CIRCLE_IP = ["--shape", "circle:0.3", "--method", "ip:0.0031", "--oracle", "series"]


def test_solves_below_the_real_attempt_build_no_woodbury(tmp_path, monkeypatch):
    """The benchmark's ladder (495 and 1,881 dofs), its gamma sweep (495) and its
    set-up probe (solve --h 0.2) stay on the complex path.  A series-oracle
    solve starts one thread, its oracle worker; a sweep one, the lane its
    values after the first share; the probe none."""
    woodbury, built = solve._Woodbury, []
    monkeypatch.setattr(solve, "_Woodbury", lambda *args: built.append(args) or woodbury(*args))
    started = count_threads(monkeypatch)
    for k, (argv, threads) in enumerate([
            (["solve", "--h", "0.2", "--oracle", "none"], 0),
            (["solve", *CIRCLE_IP, "--h", "0.1"], 1),
            (["solve", *CIRCLE_IP, "--h", "0.05"], 1),
            (["sweep", "--param", "gamma", "--logspace", "1e-4", "1e-1", "3",
              *CIRCLE_IP, "--h", "0.1"], 1)]):
        started.clear()
        assert run([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
        assert len(started) == threads, argv
    assert built == []
    # the same hooks see the real attempt above REAL_MIN_DOFS, with its threads
    started.clear()
    assert run(["solve", *CIRCLE_IP, "--h", "0.04", "--out", str(tmp_path / "real")]) == 0
    assert len(built) == 1 and len(started) > 1


def test_a_solve_writes_the_errors_of_the_serial_composition(tmp_path):
    # the oracle's samples come from a worker; the bytes are those of one thread
    assert run(["solve", *CIRCLE_IP, "--h", "0.1", "--out", str(tmp_path)]) == 0
    config = ScatterConfig(shape=Circle(0.3), method=Method.interior_penalty(0.0031),
                           h_target=0.1)
    mesh = generate_mesh_for_h(config.shape, config.R, config.h_target)
    field = cli.solve_once(config, mesh, ScalarMatrices(mesh), *cli.tbc_and_load(config, mesh))
    samples = postproc.exact_samples(mesh, cli.oracle_evaluator(config))
    report = postproc.compute_errors(field, mesh, samples, config.method, config.kappa, config.N)
    assert (tmp_path / "errors.csv").read_text() == postproc.error_csv([report])


@pytest.mark.parametrize("h", ["0.1", "0.04"])
def test_the_oracle_samples_on_a_worker_while_the_system_solves(tmp_path, monkeypatch, h):
    main_thread, seen = threading.main_thread(), {}
    solving, sampled = threading.Event(), threading.Event()
    exact_samples, solve_system, splu = postproc.exact_samples, cli.solve_system, solve.splu

    def sample(*args):
        seen["samples"] = threading.current_thread()
        try:
            assert solving.wait(timeout=60)
            return exact_samples(*args)
        finally:
            sampled.set()

    def solve_in_turn(system):
        seen["solve"] = threading.current_thread()
        solving.set()
        result = solve_system(system)
        # the samples are done before this solve returns: the two overlapped
        seen["overlapped"] = sampled.wait(timeout=60)
        return result

    factored = []
    monkeypatch.setattr(postproc, "exact_samples", sample)
    monkeypatch.setattr(cli, "solve_system", solve_in_turn)
    monkeypatch.setattr(solve, "splu", lambda *a, **k: factored.append(
        threading.current_thread()) or splu(*a, **k))
    assert run(["solve", *CIRCLE_IP, "--h", h, "--out", str(tmp_path)]) == 0
    assert seen["solve"] is main_thread and seen["samples"] is not main_thread
    assert seen["overlapped"]
    assert factored and all(t is main_thread for t in factored)


def test_a_failing_solve_is_reported_before_a_failing_oracle(tmp_path, monkeypatch, capsys):
    oracle_failed = threading.Event()

    def sample(*args):
        oracle_failed.set()
        raise CavityPointError("evaluation point inside the cavity")

    def solve_system(system):
        assert oracle_failed.wait(timeout=60)
        raise SolverError("factorization failed: Factor is exactly singular")

    monkeypatch.setattr(postproc, "exact_samples", sample)
    monkeypatch.setattr(cli, "solve_system", solve_system)
    assert run(["solve", *CIRCLE_IP, "--h", "0.1", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == ("numerical failure: factorization failed: "
                                       "Factor is exactly singular\n")
    assert os.listdir(tmp_path / "s") == []


def test_a_warning_on_the_oracle_worker_exits_2_in_one_line(tmp_path, monkeypatch, capsys):
    # main's process-wide filter turns the worker's warning into an error
    monkeypatch.setattr(postproc, "exact_samples",
                        lambda mesh, exact: np.exp(np.float64(1000.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # not the test suite's filter
        assert run(["solve", *CIRCLE_IP, "--h", "0.1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "numerical failure: overflow encountered in exp\n"
    assert sorted(os.listdir(tmp_path)) == ["field.csv", "field.vtk", "mesh.txt", "trace.csv"]
