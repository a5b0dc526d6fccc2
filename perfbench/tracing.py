"""Span tracing of flexscat's layers from outside the package.

While a `Tracer` is installed (``with tracer:``), each target in `TARGETS`
-- a function or method that the CLI code looks up at call time through
a module global or a class attribute -- is replaced by a wrapper that
records a span (name, start, end, parent) plus a few work counts taken from
the call's arguments and result.  The program's own code is not modified,
so a traced iteration executes the same CLI code as an untraced one.
Leaving the ``with`` block restores every original object; spans stay in
memory until the caller writes them out.

`layer_metrics` turns the spans of one workload iteration into the
per-layer metrics listed in `LAYER_METRICS`.  A span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

# (span name, module, attribute path).  Functions are wrapped where the
# calling module looks them up: flexscat.cli imports most of them by name,
# while generate_mesh, the assembly parts and the export writers are
# reached through their own module's globals.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("geometry.generate_mesh_for_h", "flexscat.cli", "generate_mesh_for_h"),
    ("geometry.refine", "flexscat.cli", "refine"),
    ("geometry.generate_mesh", "flexscat.geometry", "generate_mesh"),
    ("geometry.topology", "flexscat.geometry", "Mesh.__post_init__"),
    ("assembly.scalar", "flexscat.assembly", "assemble_scalar"),
    ("assembly.interior_penalty", "flexscat.assembly", "assemble_interior_penalty"),
    ("assembly.boundary_penalty", "flexscat.assembly", "assemble_boundary_penalty"),
    ("assembly.build_system", "flexscat.cli", "build_system"),
    ("dtn.tbc", "flexscat.cli", "assemble_tbc"),
    ("dtn.load", "flexscat.cli", "incident_load"),
    ("solve.solve_system", "flexscat.cli", "solve_system"),
    ("solve.recover", "flexscat.cli", "recover_fields"),
    ("series.build", "flexscat.series", "SeriesSolution.build"),
    ("series.eval", "flexscat.series", "SeriesSolution.eval_polar"),
    ("postproc.errors", "flexscat.cli", "compute_errors"),
    ("postproc.locate", "flexscat.postproc", "PointLocator.locate"),
    ("export.field_csv", "flexscat.postproc", "field_csv"),
    ("export.vtk_field", "flexscat.postproc", "vtk_field"),
    ("export.trace_csv", "flexscat.postproc", "trace_csv"),
    ("export.mesh", "flexscat.cli", "export_mesh"),
)

# (metric, unit, better); the per_layer list of BENCHMARK.json mirrors it.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("geometry.mesh_s", "s", "lower"),
    ("geometry.topology_s", "s", "lower"),
    ("geometry.meshes_built", "count", "lower"),
    ("geometry.probes_failed", "count", "lower"),
    ("geometry.useful_ratio", "ratio", "higher"),
    ("assembly.scalar_s", "s", "lower"),
    ("assembly.interior_penalty_s", "s", "lower"),
    ("assembly.boundary_penalty_s", "s", "lower"),
    ("assembly.build_system_s", "s", "lower"),
    ("assembly.elements", "count", "lower"),
    ("assembly.interior_edges", "count", "lower"),
    ("assembly.dofs", "count", "lower"),
    ("assembly.nnz_A", "count", "lower"),
    ("assembly.kj_useful_ratio", "ratio", "higher"),
    ("dtn.tbc_s", "s", "lower"),
    ("dtn.load_s", "s", "lower"),
    ("dtn.t_nodes", "count", "lower"),
    ("dtn.dense_share", "ratio", "lower"),
    ("solve.solve_system_s", "s", "lower"),
    ("solve.recover_s", "s", "lower"),
    ("solve.calls", "count", "lower"),
    ("solve.dofs_total", "count", "lower"),
    ("solve.residual_max", "ratio", "lower"),
    ("series.build_s", "s", "lower"),
    ("series.eval_s", "s", "lower"),
    ("series.points", "count", "lower"),
    ("series.points_per_s", "1/s", "higher"),
    ("series.distinct_ratio", "ratio", "higher"),
    ("postproc.errors_s", "s", "lower"),
    ("postproc.locate_s", "s", "lower"),
    ("postproc.points_located", "count", "lower"),
    ("export.s", "s", "lower"),
    ("export.bytes", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class TraceError(Exception):
    """A trace target no longer resolves (renamed or removed)."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


def _resolve(module: str, attr: str):
    """(owner object, final attribute name, raw attribute) for a target."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # read from the class __dict__ so that a classmethod is seen as the
        # descriptor, and so that restoring it puts back exactly this entry
        if name not in owner.__dict__:
            raise AttributeError(name)
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def resolve_all(targets=TARGETS) -> list[tuple[str, object, str, object]]:
    """Resolve every target; raises TraceError naming all that are missing."""
    found, missing = [], []
    for span_name, module, attr in targets:
        try:
            owner, name, raw = _resolve(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
            continue
        found.append((span_name, owner, name, raw))
    if missing:
        raise TraceError("trace targets not found: " + ", ".join(missing))
    return found


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans of the wrapped targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        # KJ matrices by id, so build_system can tell which assemblies it used
        self._kj: dict[int, tuple[weakref.ref, int]] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and start a fresh span list."""
        self.spans, self._stack, self._kj = [], [], {}
        for span_name, owner, name, raw in resolve_all(self.targets):
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__, skip=1))
            else:
                wrapped = self._wrap(span_name, raw, skip=1 if isinstance(owner, type) else 0)
            self._originals.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, name, raw = self._originals.pop()
            setattr(owner, name, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _wrap(self, span_name: str, func, skip: int):
        observe = getattr(self, "_observe_" + span_name.replace(".", "_"), None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, time.perf_counter(), math.nan, parent)
            self.spans.append(span)
            self._stack.append(index)
            result, failed = None, None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                failed = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if observe is not None:
                    observe(span, args[skip:], kwargs, result, failed)

        return wrapper

    # -- per-target work counts ------------------------------------------

    def _observe_geometry_generate_mesh(self, span, args, kwargs, result, failed):
        span.counts["failed"] = int(failed is not None)

    def _observe_geometry_generate_mesh_for_h(self, span, args, kwargs, result, failed):
        span.counts["used"] = int(failed is None)

    _observe_geometry_refine = _observe_geometry_generate_mesh_for_h

    def _observe_assembly_scalar(self, span, args, kwargs, result, failed):
        span.counts["elements"] = _arg(args, kwargs, 0, "mesh").n_triangles

    def _observe_assembly_interior_penalty(self, span, args, kwargs, result, failed):
        span.counts["interior_edges"] = len(_arg(args, kwargs, 0, "mesh").interior_edges)
        if result is not None:
            self._kj[id(result)] = (weakref.ref(result), len(self._kj))

    def _observe_assembly_build_system(self, span, args, kwargs, result, failed):
        scalars = _arg(args, kwargs, 1, "scalars")
        method = _arg(args, kwargs, 5, "method")
        span.counts["t_dense"] = 2 * len(_arg(args, kwargs, 3, "load_t")) ** 2
        if result is not None:
            span.counts["dofs"] = result.A.shape[0]
            span.counts["nnz_A"] = result.A.nnz
        entry = self._kj.get(id(scalars.kbar_j))
        if method.kind == "ip" and entry is not None and entry[0]() is scalars.kbar_j:
            span.counts["kj_used"] = entry[1]

    def _observe_dtn_tbc(self, span, args, kwargs, result, failed):
        span.counts["t_nodes"] = len(_arg(args, kwargs, 0, "mesh").t_nodes)

    def _observe_solve_solve_system(self, span, args, kwargs, result, failed):
        span.counts["dofs"] = len(_arg(args, kwargs, 0, "system").F)
        if result is not None:
            span.counts["residual"] = float(result[1])

    def _observe_series_eval(self, span, args, kwargs, result, failed):
        r = np.ascontiguousarray(_arg(args, kwargs, 0, "r"), dtype=float)
        theta = np.ascontiguousarray(_arg(args, kwargs, 1, "theta"), dtype=float)
        span.counts["points"] = r.size
        span.counts["key"] = hashlib.blake2b(r.tobytes() + theta.tobytes(),
                                             digest_size=16).hexdigest()

    def _observe_postproc_locate(self, span, args, kwargs, result, failed):
        span.counts["points"] = np.asarray(_arg(args, kwargs, 0, "points")).size // 2

    def _observe_export(self, span, args, kwargs, result, failed):
        span.counts["bytes"] = len(result.encode()) if result is not None else 0

    _observe_export_field_csv = _observe_export
    _observe_export_vtk_field = _observe_export
    _observe_export_trace_csv = _observe_export
    _observe_export_mesh = _observe_export


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


# metric -> span names whose self time it sums
_TIME_METRICS = {
    "geometry.mesh_s": ("geometry.generate_mesh_for_h", "geometry.refine",
                        "geometry.generate_mesh"),
    "geometry.topology_s": ("geometry.topology",),
    "assembly.scalar_s": ("assembly.scalar",),
    "assembly.interior_penalty_s": ("assembly.interior_penalty",),
    "assembly.boundary_penalty_s": ("assembly.boundary_penalty",),
    "assembly.build_system_s": ("assembly.build_system",),
    "dtn.tbc_s": ("dtn.tbc",),
    "dtn.load_s": ("dtn.load",),
    "solve.solve_system_s": ("solve.solve_system",),
    "solve.recover_s": ("solve.recover",),
    "series.build_s": ("series.build",),
    "series.eval_s": ("series.eval",),
    "postproc.errors_s": ("postproc.errors",),
    "postproc.locate_s": ("postproc.locate",),
    "export.s": ("export.field_csv", "export.vtk_field", "export.trace_csv",
                 "export.mesh"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of one iteration that ran from `start` to `end`.

    `trace.overhead_s` needs an untraced iteration to compare with, so the
    caller adds it.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    m: dict[str, float] = {}
    for metric, names in _TIME_METRICS.items():
        m[metric] = sum(own[i] for n in names for i in by_name.get(n, ()))

    built = calls("geometry.generate_mesh")
    used = total("geometry.generate_mesh_for_h", "used") + total("geometry.refine", "used")
    m["geometry.meshes_built"] = built
    m["geometry.probes_failed"] = total("geometry.generate_mesh", "failed")
    m["geometry.useful_ratio"] = _ratio(used, built)

    m["assembly.elements"] = total("assembly.scalar", "elements")
    m["assembly.interior_edges"] = total("assembly.interior_penalty", "interior_edges")
    m["assembly.dofs"] = total("assembly.build_system", "dofs")
    m["assembly.nnz_A"] = total("assembly.build_system", "nnz_A")
    kj_used = {spans[i].counts["kj_used"] for i in by_name.get("assembly.build_system", ())
               if "kj_used" in spans[i].counts}
    m["assembly.kj_useful_ratio"] = _ratio(len(kj_used), calls("assembly.interior_penalty"))

    m["dtn.t_nodes"] = total("dtn.tbc", "t_nodes")
    m["dtn.dense_share"] = _ratio(total("assembly.build_system", "t_dense"),
                                  m["assembly.nnz_A"])

    m["solve.calls"] = calls("solve.solve_system")
    m["solve.dofs_total"] = total("solve.solve_system", "dofs")
    m["solve.residual_max"] = max((spans[i].counts.get("residual", 0.0)
                                   for i in by_name.get("solve.solve_system", ())),
                                  default=0.0)

    evals = by_name.get("series.eval", ())
    m["series.points"] = total("series.eval", "points")
    m["series.points_per_s"] = _ratio(m["series.points"], m["series.eval_s"])
    m["series.distinct_ratio"] = _ratio(len({spans[i].counts["key"] for i in evals}),
                                        len(evals))

    m["postproc.points_located"] = total("postproc.locate", "points")
    m["export.bytes"] = sum(total(n, "bytes") for n in _TIME_METRICS["export.s"])

    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["cli.self_s"] = (end - start) - covered_length(roots, start, end)
    return m


def spans_to_json(iteration: int, spans: list[Span]) -> list[dict]:
    return [{"iteration": iteration, "index": i, "name": s.name, "start": s.start,
             "end": s.end, "parent": s.parent, "counts": s.counts}
            for i, s in enumerate(spans)]
