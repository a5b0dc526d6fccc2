"""Tests of the benchmark's own code: span arithmetic, trace targets, checks."""

import json
from pathlib import Path

import pytest

import bench
import hostspeed
import tracing
import workloads
from tracing import Span

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("child", 1.0, 4.0, 0),
        Span("grandchild", 2.0, 3.0, 1),
        Span("child", 5.0, 6.0, 0),
        Span("other_root", 10.5, 11.0, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 0.5])
    # the iteration ran from 0 to 12: 1.5 s were outside every root span
    assert tracing.layer_metrics(spans, 0.0, 12.0)["cli.self_s"] == pytest.approx(1.5)


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert tracing.covered_length([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert tracing.covered_length([], 0, 10) == 0.0


def test_layer_metrics_sum_self_times_and_counts():
    spans = [
        Span("geometry.generate_mesh_for_h", 0.0, 3.0, None, {"used": 1}),
        Span("geometry.generate_mesh", 0.5, 1.0, 0, {"failed": 1}),
        Span("geometry.generate_mesh", 1.0, 2.5, 0, {"failed": 0}),
        Span("geometry.topology", 1.5, 2.5, 2),
        Span("series.eval", 3.0, 4.0, None, {"points": 10, "key": "a"}),
        Span("series.eval", 4.0, 5.0, None, {"points": 10, "key": "a"}),
    ]
    m = tracing.layer_metrics(spans, 0.0, 5.0)
    assert m["geometry.mesh_s"] == pytest.approx(1.0 + 0.5 + 0.5)
    assert m["geometry.topology_s"] == pytest.approx(1.0)
    assert (m["geometry.meshes_built"], m["geometry.probes_failed"]) == (2, 1)
    assert m["geometry.useful_ratio"] == pytest.approx(0.5)
    assert m["series.points"] == 20
    assert m["series.points_per_s"] == pytest.approx(10.0)
    assert m["series.distinct_ratio"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(0.0)
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in tracing.LAYER_METRICS}


def test_every_trace_target_resolves_and_is_restored():
    found = tracing.resolve_all()
    assert [f[0] for f in found] == [t[0] for t in tracing.TARGETS]
    before = [(owner, name, raw) for _, owner, name, raw in found]
    with tracing.Tracer():
        assert all(owner.__dict__[name] is not raw if isinstance(owner, type)
                   else getattr(owner, name) is not raw for owner, name, raw in before)
    for owner, name, raw in before:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is raw


def test_renamed_target_is_reported_not_dropped():
    import flexscat.cli

    renamed = tracing.TARGETS + (
        ("assembly.renamed", "flexscat.cli", "assemble_all_renamed"),
        ("series.renamed", "flexscat.series", "SeriesSolution.eval_cartesian"),
    )
    original = flexscat.cli.solve_system
    with pytest.raises(tracing.TraceError) as info:
        tracing.Tracer(renamed).install()
    assert "flexscat.cli.assemble_all_renamed" in str(info.value)
    assert "flexscat.series.SeriesSolution.eval_cartesian" in str(info.value)
    assert flexscat.cli.solve_system is original  # nothing was wrapped


def test_host_speed_scale_uses_the_mean_of_the_two_references():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(3.0, ref, ref) == pytest.approx(3.0)
    # the host ran at half the reference speed before and after the event
    assert hostspeed.scale(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)


def test_reference_kernel_is_fixed_work_outside_the_program():
    assert hostspeed.reference_kernel(4) == hostspeed.reference_kernel(4)
    assert hostspeed.reference_kernel(4)[0] == 3 * 4 * 4 + 2 * 4  # edges of the grid
    source = Path(hostspeed.__file__).read_text().splitlines()
    assert not any(line.startswith(("import flexscat", "from flexscat")) for line in source)


def test_checks_report_missing_artifacts_and_out_of_bound_errors(tmp_path):
    assert any("missing artifact" in p for p in workloads.check_solve(tmp_path, {}))
    want = workloads.SOLVE_ROWS[0.1]
    row = {"dofs": str(want["dofs"])}
    row.update({col: repr(want[col][1]) for col in workloads.ERROR_COLUMNS})
    assert workloads.check_rows([row], [want], "errors.csv") == []
    row["E_H1_v"] = repr(want["E_H1_v"][1] * (1.0 + 2 * workloads.MARGIN))
    assert len(workloads.check_rows([row], [want], "errors.csv")) == 1
    row["dofs"] = "1"
    assert len(workloads.check_rows([row], [want], "errors.csv")) == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)


def test_traced_converge_runs_no_series_oracle(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    assert bench.main(["--workload", "converge-kite-bp", "--seed", "0",
                       "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["series.eval_s"] == 0 and m["series.points"] == 0
    assert m["export.s"] == 0
    assert m["solve.calls"] == 4 and m["solve.residual_max"] <= 1e-10
    times = sorted((v["value"], k) for k, v in result["metrics"].items()
                   if v["unit"] == "s" and k != "trace.overhead_s")
    assert {k for _, k in times[-2:]} == {"solve.solve_system_s",
                                          "assembly.interior_penalty_s"}
    assert (tmp_path / "converge-kite-bp" / "spans.json").is_file()
