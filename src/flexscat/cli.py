"""Batch driver: single solves, parameter sweeps, and convergence studies.

Command verbs: ``mesh``, ``solve``, ``sweep``, ``converge``, ``analytic``.
Each run writes CSV/VTK artifacts plus a metadata JSON into the output
directory; re-running with identical configuration yields byte-identical
files.  Exit statuses: 0 success, 1 usage/config error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import postproc
from .assembly import AssemblyError, Method, assemble_all, build_system
from .config import (ConfigError, ScatterConfig, method_from_text,
                     shape_from_text, shape_to_dict)
from .dtn import IncidentField, assemble_tbc, incident_load
from .geometry import (Circle, Mesh, MeshError, export_mesh, generate_mesh_for_h,
                       import_mesh, refine)
from .postproc import ErrorReport, boundary_trace, compute_errors, fe_evaluator
from .series import CavityPointError, SeriesSolution
from .solve import SolutionField, SolverError, recover_fields, solve_system

#: Analytic-oracle mode count; above the FEM DtN truncation so oracle
#: truncation error sits far below discretization error.
ORACLE_MODES = 25

#: Refinements of the finest study level that give an FE reference mesh.
REFERENCE_EXTRA_REFINES = 2


class RunError(Exception):
    """Numerical failure while executing a run."""


# ---------------------------------------------------------------------------
# Core runs
# ---------------------------------------------------------------------------

def build_config_mesh(config: ScatterConfig) -> Mesh:
    if config.mesh_path is None:
        return generate_mesh_for_h(config.shape, config.R, config.h_target)
    mesh = import_mesh(Path(config.mesh_path).read_text())
    for note in mesh.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return mesh


def solve_once(config: ScatterConfig, mesh: Mesh, scalars):
    """Solve one configuration on a given mesh with its scalar matrices."""
    tbc = assemble_tbc(mesh, config.kappa, config.R, config.N)
    load = incident_load(tbc, config.kappa, config.R, config.alpha)
    system = build_system(mesh, scalars, tbc, load, config.kappa, config.method)
    w_vec, residual = solve_system(system)
    incident = IncidentField(config.kappa, config.alpha)
    return recover_fields(w_vec, system, mesh, incident, residual), system


def oracle_evaluator(config: ScatterConfig):
    """Exact-field evaluator per the configured oracle, or None."""
    if config.oracle == "none":
        return None
    if config.oracle == "series":
        if not isinstance(config.shape, Circle):
            raise ConfigError("the series oracle applies only to circular cavities")
        sol = SeriesSolution.build(config.kappa, config.shape.radius,
                                   config.alpha, ORACLE_MODES)
        return sol.evaluator()
    # the config admits only "reference:<run dir>" beyond these two
    return load_reference(Path(config.oracle.split(":", 1)[1]), config)


def load_reference(run_dir: Path, config: ScatterConfig):
    """Evaluator backed by a previous run of the same kappa, alpha and shape."""
    try:
        ref = ScatterConfig.from_dict(json.loads((run_dir / "metadata.json").read_text())["config"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"no run config in {run_dir / 'metadata.json'}") from None
    for name in ("kappa", "alpha", "shape"):
        if getattr(ref, name) != getattr(config, name):
            raise ConfigError(f"reference run {run_dir} has another {name}: {getattr(ref, name)}")
    mesh = import_mesh((run_dir / "mesh.txt").read_text())
    field = _read_field_csv((run_dir / "field.csv").read_text(), mesh)
    return fe_evaluator(field, mesh)


def _read_field_csv(text: str, mesh: Mesh) -> SolutionField:
    rows = text.strip().splitlines()
    if rows[0] != "node_id,x,y,class,Re_p,Im_p,Re_q,Im_q,Re_v,Im_v,Re_w,Im_w":
        raise RunError("unrecognized field CSV header")
    data = np.array([[float(v) for v in r.split(",")[4:]] for r in rows[1:]])
    if len(data) != mesh.n_nodes:
        raise RunError("field CSV does not match the mesh")
    p, q, v = (data[:, k] + 1j * data[:, k + 1] for k in (0, 2, 4))
    # v = q - p - u_inc; v and w are re-derived from it to within roundoff
    return SolutionField(p=p, q=q, u_inc=q - p - v, residual=0.0)


def run_solve(config: ScatterConfig, out_dir: Path) -> ErrorReport | None:
    """Single solve; writes mesh, field, trace, metadata, optional errors."""
    exact = oracle_evaluator(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    mesh = build_config_mesh(config)
    field, system = solve_once(config, mesh, assemble_all(mesh))

    (out_dir / "mesh.txt").write_text(export_mesh(mesh))
    (out_dir / "field.csv").write_text(postproc.field_csv(field, mesh))
    (out_dir / "field.vtk").write_text(postproc.vtk_field(field, mesh))
    trace = boundary_trace(field, mesh)
    (out_dir / "trace.csv").write_text(postproc.trace_csv(trace))

    report = None
    if exact is not None:
        report = compute_errors(field, mesh, postproc.exact_samples(mesh, exact),
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
    """One error row per parameter value; mesh and all else held fixed."""
    if parameter not in ("gamma", "eta", "kappa"):
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if not all(0 < v < math.inf for v in values) or list(values) != sorted(values):
        raise ConfigError("sweep values must be positive, finite and sorted")
    if config.oracle == "none":
        raise ConfigError("sweep requires an oracle to report errors")
    if parameter == "kappa" and config.oracle != "series":
        raise ConfigError("a kappa sweep needs the series oracle (a reference has one kappa)")
    exact = oracle_evaluator(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    mesh = build_config_mesh(config)
    scalars = assemble_all(mesh)
    # only the series oracle depends on a swept parameter (kappa)
    samples = None if parameter == "kappa" else postproc.exact_samples(mesh, exact)

    reports: list[ErrorReport | None] = []
    failures: list[str] = []
    for value in values:
        if parameter == "gamma":
            cfg = dataclasses.replace(config, method=Method.interior_penalty(value))
        elif parameter == "eta":
            cfg = dataclasses.replace(config, method=Method.boundary_penalty(value))
        else:
            cfg = dataclasses.replace(config, kappa=value)
        try:
            field, _ = solve_once(cfg, mesh, scalars)
            if parameter == "kappa":
                samples = postproc.exact_samples(mesh, oracle_evaluator(cfg))
            reports.append(compute_errors(field, mesh, samples, cfg.method,
                                          cfg.kappa, cfg.N))
        except (SolverError, AssemblyError, MeshError) as exc:
            reports.append(None)
            failures.append(f"{parameter}={value!r}: {exc}")

    rows = [r for r in reports if r is not None]
    (out_dir / f"sweep_{parameter}.csv").write_text(postproc.error_csv(rows))
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


def run_convergence(config: ScatterConfig, levels: int, out_dir: Path):
    """Solve on successively refined meshes and report observed orders.

    Every level is regenerated at doubled resolution, so each mesh
    resolves the exact curved cavity.  Errors are measured against the
    configured oracle; with ``none``, or ``series`` on a non-circular
    cavity, the truth is an interior-penalty solve on a mesh
    ``REFERENCE_EXTRA_REFINES`` refinements beyond the finest level.
    """
    if levels < 3:
        raise ConfigError("convergence study needs at least 3 levels")
    if config.mesh_path is not None:
        raise ConfigError("convergence study requires a generated mesh")
    self_reference = config.oracle == "none" or (
        config.oracle == "series" and not isinstance(config.shape, Circle))
    exact = None if self_reference else oracle_evaluator(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    meshes = [generate_mesh_for_h(config.shape, config.R, config.h_target)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))

    if self_reference:
        ref_mesh = meshes[-1]
        for _ in range(REFERENCE_EXTRA_REFINES):
            ref_mesh = refine(ref_mesh)
        ref_cfg = dataclasses.replace(
            config, method=Method.interior_penalty(config.kappa * 1e-3))
        ref_field, _ = solve_once(ref_cfg, ref_mesh, assemble_all(ref_mesh))
        exact = fe_evaluator(ref_field, ref_mesh)

    reports = []
    for mesh in meshes:
        field, _ = solve_once(config, mesh, assemble_all(mesh))
        reports.append(compute_errors(field, mesh, postproc.exact_samples(mesh, exact),
                                      config.method, config.kappa, config.N))

    (out_dir / "convergence.csv").write_text(postproc.error_csv(reports))
    orders = observed_orders(reports)
    (out_dir / "orders.json").write_text(json.dumps(orders, indent=2, sort_keys=True) + "\n")
    return reports, orders


def run_analytic(config: ScatterConfig, n_radial: int, n_angular: int,
                 out_dir: Path) -> None:
    """Dump the series-oracle fields on a polar grid."""
    if not isinstance(config.shape, Circle):
        raise ConfigError("analytic dump applies only to circular cavities")
    out_dir.mkdir(parents=True, exist_ok=True)
    sol = SeriesSolution.build(config.kappa, config.shape.radius, config.alpha,
                               ORACLE_MODES)
    r = np.linspace(config.shape.radius, config.R, n_radial)
    th = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    out = sol.eval_polar(rr.ravel(), tt.ravel())
    lines = ["r,theta,Re_v,Im_v,Re_w,Im_w"]
    for rv, tv, v, w in zip(rr.ravel(), tt.ravel(), out["v"], out["w"]):
        rv, tv, v, w = float(rv), float(tv), complex(v), complex(w)
        lines.append(f"{rv!r},{tv!r},{v.real!r},{v.imag!r},{w.real!r},{w.imag!r}")
    (out_dir / "analytic.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "modes.csv").write_text(sol.coefficients_csv())


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_shape(text: str):
    try:
        return shape_from_text(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_method(text: str):
    try:
        return method_from_text(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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
    p.add_argument("--shape", type=_parse_shape)
    p.add_argument("--method", type=_parse_method)
    p.add_argument("--mesh", dest="mesh_path", help="import mesh from file")
    p.add_argument("--oracle", help="series | none | reference:<run dir>")


def _config_from_args(args) -> ScatterConfig:
    base = (ScatterConfig.from_json(Path(args.config).read_text())
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
    if not (lo > 0 and hi > 0 and count >= 1 and count.is_integer()):
        raise ConfigError("--logspace needs LO > 0, HI > 0 and a positive integer COUNT")
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
        if args.command == "mesh":
            out_dir.mkdir(parents=True, exist_ok=True)
            mesh = build_config_mesh(cfg)
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
    except CavityPointError as exc:
        print(f"numerical failure: mesh too coarse for the series oracle ({exc})",
              file=sys.stderr)
        return 2
    except (MeshError, AssemblyError, SolverError, RunError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
