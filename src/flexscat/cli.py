"""Batch driver: single solves, parameter sweeps, and convergence studies.

Command verbs: ``mesh``, ``solve``, ``sweep``, ``converge``, ``analytic``.
Each run writes CSV/VTK artifacts plus a metadata JSON into the output
directory; re-running with identical configuration yields byte-identical
files.  Exit statuses: 0 success, 1 usage/config error, 2 numerical
failure.

``solve`` with an oracle samples it on one worker thread while the main
thread assembles, factors and writes; a self-referenced ``converge`` solves
its levels on one while the reference factors; ``sweep`` alternates the
values after the first to keep an ordering between the main thread and one
worker.  A main-path failure is reported first (a sweep's in value order),
so outputs, messages and exit codes are those of running in turn.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import postproc
from .assembly import AssemblyError, Method, ScalarMatrices, build_system
from .config import (ConfigError, ScatterConfig, method_from_text,
                     shape_from_text, shape_to_dict)
from .dtn import IncidentField, assemble_tbc, incident_load
from .geometry import (MAX_ANGULAR, Circle, Mesh, MeshError, cavity_min_gap, cavity_point,
                       export_mesh, generate_mesh_for_h, import_mesh, refine)
from .postproc import (ErrorReport, PostprocError, boundary_trace, compute_errors,
                       fe_evaluator, fe_interpolant)
from .series import RADIAL_SLACK, CavityPointError, SeriesSolution
from .solve import SolverError, recover_fields, solve_system
from .table import format_rows

#: Analytic-oracle mode count; above the FEM DtN truncation so oracle
#: truncation error sits far below discretization error.
ORACLE_MODES = 25

#: Refinements of the finest study level that give an FE reference mesh.
REFERENCE_EXTRA_REFINES = 2

#: Curve samples tabulating the configured cavity's radius by polar angle.
CAVITY_SAMPLES = 4096


# ---------------------------------------------------------------------------
# Core runs
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    """A file's UTF-8 text; one that is not UTF-8 is a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not a UTF-8 text file") from None


def build_config_mesh(config: ScatterConfig, out_dir: Path) -> Mesh:
    """The generated mesh, or the --mesh file if it has the configured R and cavity.

    Cavities are star-shaped: each D node's radius must match the cavity's at
    its polar angle to within RADIAL_SLACK, relative.  ``out_dir`` is created
    once the mesh is built, before any import warning is printed: a mesh that
    fails leaves no directory, and a directory that fails is the one line.
    """
    if config.mesh_path is None:
        mesh = generate_mesh_for_h(config.shape, config.R, config.h_target)
        out_dir.mkdir(parents=True, exist_ok=True)
        return mesh
    mesh = import_mesh(_read_text(config.mesh_path))
    if abs(mesh.truncation_radius - config.R) > 1e-9 * config.R:
        raise ConfigError(f"mesh {config.mesh_path} ends at radius "
                          f"{mesh.truncation_radius!r}, not R = {config.R!r}")
    t = np.linspace(0.0, 2.0 * math.pi, CAVITY_SAMPLES, endpoint=False)
    cx, cy = cavity_point(config.shape, t).T
    x, y = mesh.nodes[mesh.d_nodes].T
    rho = np.interp(np.arctan2(y, x), np.arctan2(cy, cx), np.hypot(cx, cy), period=2.0 * math.pi)
    miss = np.abs(np.hypot(x, y) / rho - 1.0)
    k = int(np.argmax(miss))
    if miss[k] > RADIAL_SLACK:
        raise ConfigError(f"mesh {config.mesh_path} has a cavity node at ({x[k]:.6g}, {y[k]:.6g}), "
                          f"{miss[k]:.1%} off the radius of the configured cavity {config.shape}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for note in mesh.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return mesh


def warn_low_dtn_order(config: ScatterConfig, kappa: float) -> None:
    """One stderr warning when the DtN order N is below kappa R: the truncated
    map then drops propagating modes (Harari & Hughes 1992)."""
    if config.N < kappa * config.R:
        print(f"warning: DtN order N = {config.N} is below kappa R = {kappa * config.R:.4g}; "
              "the boundary condition drops propagating modes", file=sys.stderr)


def tbc_and_load(config: ScatterConfig, mesh: Mesh):
    """DtN blocks of a mesh and the incident load paired with them."""
    try:
        tbc = assemble_tbc(mesh, config.kappa, config.R, config.N)
        return tbc, incident_load(tbc, config.kappa, config.R, config.alpha)
    except (OverflowError, RuntimeWarning) as exc:  # a warning raises under main's filter
        raise OverflowError(f"DtN symbols at kappa R = {config.kappa * config.R:.3g}: "
                            f"{exc}") from exc


def solve_once(config: ScatterConfig, mesh: Mesh, scalars, tbc, load):
    """The field of one configuration on a mesh with its scalar matrices, TBC and load."""
    system = build_system(mesh, scalars, tbc, load, config.kappa, config.method)
    w_vec, residual = solve_system(system)
    incident = IncidentField(config.kappa, config.alpha)
    return recover_fields(w_vec, system, mesh, incident, residual)


def series_solution(config: ScatterConfig) -> SeriesSolution:
    """The series oracle of the configured circular cavity."""
    if not isinstance(config.shape, Circle):
        raise ConfigError("the series oracle applies only to circular cavities")
    try:
        return SeriesSolution.build(config.kappa, config.shape.radius, config.alpha, ORACLE_MODES)
    except (OverflowError, RuntimeWarning) as exc:  # a warning raises under main's filter
        raise OverflowError(f"series oracle at kappa Rhat = "
                            f"{config.kappa * config.shape.radius:.3g}: {exc}") from exc


def oracle_evaluator(config: ScatterConfig):
    """Exact-field evaluator per the configured oracle, or None."""
    if config.oracle == "none":
        return None
    if config.oracle == "series":
        return series_solution(config).evaluator()
    # the config admits only "reference:<run dir>" beyond these two
    return load_reference(Path(config.oracle.split(":", 1)[1]), config)


def load_reference(run_dir: Path, config: ScatterConfig):
    """Evaluator backed by a previous run of the same kappa, alpha, R and shape."""
    text = _read_text(run_dir / "metadata.json")
    try:
        ref = ScatterConfig.from_dict(json.loads(text)["config"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"no run config in {run_dir / 'metadata.json'}") from None
    for name in ("kappa", "alpha", "R", "shape"):
        if getattr(ref, name) != getattr(config, name):
            raise ConfigError(f"reference run {run_dir} has another {name}: {getattr(ref, name)}")
    path = run_dir / "mesh.txt"
    try:
        mesh = import_mesh(_read_text(path))
        path = run_dir / "field.csv"
        field = postproc.read_field_csv(_read_text(path), mesh)
    except (MeshError, PostprocError) as exc:
        raise ConfigError(f"reference {path}: {exc}") from None
    return fe_evaluator(field, mesh)


def run_solve(config: ScatterConfig, out_dir: Path) -> ErrorReport | None:
    """Single solve; writes mesh, field, trace, metadata, optional errors.

    The oracle's samples depend only on the mesh: a worker evaluates them
    while this thread assembles, factors (every factor stays here) and writes.
    Leaving the ``with`` joins it, so a failing solve is reported first.
    """
    exact = oracle_evaluator(config)
    mesh = build_config_mesh(config, out_dir)
    warn_low_dtn_order(config, config.kappa)
    with ThreadPoolExecutor(1) as pool:  # its thread starts at the first submit
        samples = None if exact is None else pool.submit(postproc.exact_samples, mesh, exact)
        field = solve_once(config, mesh, ScalarMatrices(mesh), *tbc_and_load(config, mesh))

        (out_dir / "mesh.txt").write_text(export_mesh(mesh))
        (out_dir / "field.csv").write_text(postproc.field_csv(field, mesh))
        (out_dir / "field.vtk").write_text(postproc.vtk_field(field, mesh))
        trace = boundary_trace(field, mesh)
        (out_dir / "trace.csv").write_text(postproc.trace_csv(trace))

    report = None
    if samples is not None:
        report = compute_errors(field, mesh, samples.result(),
                                config.method, config.kappa, config.N)
        (out_dir / "errors.csv").write_text(postproc.error_csv([report]))

    meta = {
        "config": config.to_dict(),
        "h": mesh.h,
        "dofs": mesh.n_dofs,
        "solver_residual": field.residual,
        "linear_system": "total-field (scattered quantities recovered algebraically)",
        "trace_total_variation": trace.total_variation,
    }
    (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return report


def run_sweep(config: ScatterConfig, parameter: str, values: list[float],
              out_dir: Path) -> list[ErrorReport | None]:
    """One error row per parameter value; mesh and all else held fixed.

    Values run in turn until the kind's SystemPattern keeps an ordering (a
    fresh and a kept ordering's factors may differ in roundoff), then on two
    lanes, each value's factors on its lane's thread, read in value order.
    """
    if parameter not in ("gamma", "eta", "kappa"):
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if not all(0 < v < math.inf for v in values) or list(values) != sorted(values):
        raise ConfigError("sweep values must be positive, finite and sorted")
    if config.oracle == "none":
        raise ConfigError("sweep requires an oracle to report errors")
    if parameter == "kappa" and config.oracle != "series":
        raise ConfigError("a kappa sweep needs the series oracle (a reference has one kappa)")
    exact = oracle_evaluator(config)
    mesh = build_config_mesh(config, out_dir)
    warn_low_dtn_order(config, max(values) if parameter == "kappa" else config.kappa)
    scalars = ScalarMatrices(mesh)
    # only the series oracle, the TBC and the load depend on a swept parameter (kappa)
    if parameter != "kappa":
        samples = postproc.exact_samples(mesh, exact)
        fixed = (*tbc_and_load(config, mesh), samples)

    def outcome(value: float) -> ErrorReport | str:
        """The value's error report, or its failure's line (on its lane's thread)."""
        if parameter == "gamma":
            cfg = dataclasses.replace(config, method=Method.interior_penalty(value))
        elif parameter == "eta":
            cfg = dataclasses.replace(config, method=Method.boundary_penalty(value))
        else:
            cfg = dataclasses.replace(config, kappa=value)
        try:
            tbc, load, samples = fixed if parameter != "kappa" else (
                *tbc_and_load(cfg, mesh), postproc.exact_samples(mesh, oracle_evaluator(cfg)))
            field = solve_once(cfg, mesh, scalars, tbc, load)
            return compute_errors(field, mesh, samples, cfg.method, cfg.kappa, cfg.N)
        except (SolverError, AssemblyError, MeshError, OverflowError,
                RuntimeWarning) as exc:  # a warning raises under main's filter
            return f"{parameter}={value!r}: {exc}"

    def lane(indices: range) -> None:
        """Outcomes in turn up to an aborting exception, kept with its frames cleared."""
        for i in indices:
            try:
                outcomes[i] = outcome(values[i])
            except Exception as exc:
                traceback.clear_frames(exc.__traceback__)
                outcomes[i] = exc
                return

    outcomes: list = [None] * len(values)
    first = 0
    while first < len(values) and not any(p.ordering for p in scalars.patterns.values()):
        outcomes[first] = outcome(values[first])
        first += 1
    rest = range(first, len(values))
    if len(rest) < 2:
        lane(rest)
    else:
        with ThreadPoolExecutor(1) as pool:
            later = pool.submit(lane, rest[1::2])
            lane(rest[::2])
            later.result()
    for done in outcomes:  # a lane stops at its abort: all outcomes before the first are set
        if isinstance(done, Exception):
            raise done

    reports = [None if isinstance(o, str) else o for o in outcomes]
    rows = [r for r in reports if r is not None]
    (out_dir / f"sweep_{parameter}.csv").write_text(postproc.error_csv(rows))
    failures = [o for o in outcomes if isinstance(o, str)]
    if failures:
        (out_dir / f"sweep_{parameter}_failures.txt").write_text("\n".join(failures) + "\n")
    return reports


def observed_orders(reports: list[ErrorReport]) -> dict[str, float]:
    """Least-squares slope of log(error) against log(h) per error column."""
    h = np.log([r.h for r in reports])
    out = {}
    for name in ("e_l2_v", "e_h1_v", "e_l2_w", "e_h1_w"):
        e = np.log([getattr(r, name) for r in reports])
        out[name] = float(np.polyfit(h, e, 1)[0])
    return out


def _levels_beside_reference(config: ScatterConfig, meshes: list[Mesh], ref_mesh: Mesh):
    """Per level, its field and the elements and barycentric coordinates of
    its quadrature points in the reference mesh: the part of a self-referenced
    study that never reads the reference field.

    Runs on a worker thread.  scipy frees a SuperLU factor's memory only on
    the thread that made it, so a level's factors must not outlive its
    solve_system here: a failure's frames are cleared before the exception
    reaches the main thread.
    """
    try:
        locate = postproc.PointLocator(ref_mesh).locate
        return [(solve_once(config, mesh, ScalarMatrices(mesh), *tbc_and_load(config, mesh)),
                 locate(postproc.quad_points(mesh)))
                for mesh in meshes]
    except Exception as exc:
        traceback.clear_frames(exc.__traceback__)
        raise


def run_convergence(config: ScatterConfig, levels: int, out_dir: Path):
    """Solve on successively refined meshes and report observed orders.

    Every level is regenerated at doubled resolution, so each mesh
    resolves the exact curved cavity.  Errors are measured against the
    configured oracle; with ``none``, or ``series`` on a non-circular
    cavity, the truth is an interior-penalty solve on a mesh
    ``REFERENCE_EXTRA_REFINES`` refinements beyond the finest level.
    While that reference factors, one worker thread solves the levels and
    locates their quadrature points in the reference mesh; the errors
    follow once both are done.  A failing reference is reported before a
    failing level.
    """
    if levels < 3:
        raise ConfigError("convergence study needs at least 3 levels")
    if config.mesh_path is not None:
        raise ConfigError("convergence study requires a generated mesh")
    self_reference = config.oracle == "none" or (
        config.oracle == "series" and not isinstance(config.shape, Circle))
    exact = None if self_reference else oracle_evaluator(config)
    meshes = [generate_mesh_for_h(config.shape, config.R, config.h_target)]
    # each refinement doubles n_angular: the finest mesh (and the reference
    # beyond it) must stay within the bound of the h-driven search
    n_angular = meshes[0].generator.n_angular
    refines = levels - 1 + REFERENCE_EXTRA_REFINES * self_reference
    if refines > (MAX_ANGULAR // n_angular).bit_length() - 1:
        raise MeshError(f"cannot refine {refines} times from n_angular = {n_angular} "
                        f"with n_angular <= {MAX_ANGULAR}")
    out_dir.mkdir(parents=True, exist_ok=True)
    warn_low_dtn_order(config, config.kappa)

    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))

    if self_reference:
        ref_mesh = meshes[-1]
        for _ in range(REFERENCE_EXTRA_REFINES):
            ref_mesh = refine(ref_mesh)
        ref_cfg = dataclasses.replace(
            config, method=Method.interior_penalty(config.kappa * 1e-3))
        ref_system = build_system(ref_mesh, ScalarMatrices(ref_mesh),
                                  *tbc_and_load(ref_cfg, ref_mesh), ref_cfg.kappa,
                                  ref_cfg.method)
        # the reference is factored, solved and dropped on this thread; leaving
        # the block joins the worker, whose result a failing reference leaves unread
        with ThreadPoolExecutor(1) as pool:
            beside = pool.submit(_levels_beside_reference, config, meshes, ref_mesh)
            w_vec, residual = solve_system(ref_system)
        ref_field = recover_fields(w_vec, ref_system, ref_mesh,
                                   IncidentField(ref_cfg.kappa, ref_cfg.alpha), residual)
        interpolate = fe_interpolant(ref_field, ref_mesh)
        solved = [(field, postproc.samples_from_values(mesh, interpolate(*sites)))
                  for mesh, (field, sites) in zip(meshes, beside.result())]
    else:
        solved = [(solve_once(config, mesh, ScalarMatrices(mesh), *tbc_and_load(config, mesh)),
                   postproc.exact_samples(mesh, exact))
                  for mesh in meshes]
    reports = [compute_errors(field, mesh, samples, config.method, config.kappa, config.N)
               for mesh, (field, samples) in zip(meshes, solved)]

    (out_dir / "convergence.csv").write_text(postproc.error_csv(reports))
    orders = observed_orders(reports)
    (out_dir / "orders.json").write_text(json.dumps(orders, indent=2, sort_keys=True) + "\n")
    return reports, orders


def run_analytic(config: ScatterConfig, n_radial: int, n_angular: int,
                 out_dir: Path) -> None:
    """Dump the series-oracle fields on a polar grid."""
    sol = series_solution(config)
    cavity_min_gap(config.shape, config.R)  # raises unless the cavity lies inside R
    out_dir.mkdir(parents=True, exist_ok=True)
    r = np.linspace(config.shape.radius, config.R, n_radial)
    th = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    v, w, _, _ = sol.eval_polar(rr.ravel(), tt.ravel())
    (out_dir / "analytic.csv").write_text("r,theta,Re_v,Im_v,Re_w,Im_w\n" + format_rows(
        rr.ravel().tolist(), tt.ravel().tolist(),
        v.real.tolist(), v.imag.tolist(), w.real.tolist(), w.imag.tolist()))
    (out_dir / "modes.csv").write_text(sol.coefficients_csv())


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _spec_type(from_text):
    """An argparse type of a spec's command-line form; a ConfigError is a usage error."""
    def parse(text: str):
        try:
            return from_text(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--kappa", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--R", type=float, dest="R")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--h", type=float, dest="h_target")
    p.add_argument("--shape", type=_spec_type(shape_from_text))
    p.add_argument("--method", type=_spec_type(method_from_text))
    p.add_argument("--mesh", dest="mesh_path", help="import mesh from file")
    p.add_argument("--oracle", help="series | none | reference:<run dir>")


def _config_from_args(args) -> ScatterConfig:
    base = (ScatterConfig.from_json(_read_text(args.config))
            if args.config else ScatterConfig())
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(ScatterConfig)
             if getattr(args, f.name) is not None}
    return dataclasses.replace(base, **flags)


def _parse_values(args) -> list[float]:
    if args.values is not None:
        try:
            return [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be comma-separated numbers, "
                              f"not {args.values!r}") from None
    lo, hi, count = args.logspace
    if not (0 < lo < math.inf and 0 < hi < math.inf and count >= 1 and count.is_integer()):
        raise ConfigError("--logspace needs finite LO > 0, HI > 0 and a positive integer COUNT")
    return list(np.logspace(math.log10(lo), math.log10(hi), int(count)))


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line and exits 1."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(prog="flexscat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a mesh and write it as ASCII")
    _add_common(p)

    p = sub.add_parser("solve", help="single solve with artifact export")
    _add_common(p)

    p = sub.add_parser("sweep", help="parameter sweep at fixed mesh")
    _add_common(p)
    p.add_argument("--param", required=True, choices=("gamma", "eta", "kappa"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated values")
    group.add_argument("--logspace", nargs=3, type=float,
                       metavar=("LO", "HI", "COUNT"))

    p = sub.add_parser("converge", help="refinement study with observed orders")
    _add_common(p)
    p.add_argument("--levels", type=int, default=4)

    p = sub.add_parser("analytic", help="dump the series oracle on a grid")
    _add_common(p)
    p.add_argument("--nr", type=_positive_int, default=32)
    p.add_argument("--ntheta", type=_positive_int, default=128)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0, a usage error 1
        return exc.code or 0
    try:
        cfg = _config_from_args(args)
        out_dir = Path(cfg.out_dir)
        # numpy's overflow or invalid-operation warning anywhere in a run is a
        # numerical failure, not a warning beside results that hold inf or nan
        # (a warnings filter costs nothing until a warning is issued)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if args.command == "mesh":
                mesh = build_config_mesh(cfg, out_dir)
                (out_dir / "mesh.txt").write_text(export_mesh(mesh))
                meta = {"h": mesh.h, "dofs": mesh.n_dofs,
                        "nodes": mesh.n_nodes, "triangles": mesh.n_triangles,
                        "shape": shape_to_dict(cfg.shape)}
                (out_dir / "mesh_metadata.json").write_text(
                    json.dumps(meta, indent=2, sort_keys=True) + "\n")
            elif args.command == "solve":
                run_solve(cfg, out_dir)
            elif args.command == "sweep":
                run_sweep(cfg, args.param, _parse_values(args), out_dir)
            elif args.command == "converge":
                run_convergence(cfg, args.levels, out_dir)
            elif args.command == "analytic":
                run_analytic(cfg, args.nr, args.ntheta, out_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # SuperLU's has no text
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except CavityPointError as exc:
        print(f"numerical failure: mesh too coarse for the series oracle ({exc})",
              file=sys.stderr)
        return 2
    except (MeshError, AssemblyError, SolverError, PostprocError,
            OverflowError, RuntimeWarning) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
