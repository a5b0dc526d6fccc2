"""Benchmark runner: runs one workload through `flexscat.cli.main` in-process.

The program is imported from the checkout's ``src`` directory.  The
workload is repeated for ``--seconds``, each iteration with its own incident
angle drawn from ``--seed``, and every CLI command's outputs are checked (see
workloads.py).  Before each iteration the host-speed reference kernel is
timed before and after each iteration (see hostspeed.py).  After each of the
first SETUP_SAMPLES iterations set-up is timed in a fresh interpreter
(start, ``import flexscat.cli``, one tiny warm-up solve), followed by one
more reference timing.

With ``--trace 0`` the end-to-end metrics are reported: the median wall
time of one iteration and the median set-up time, each timing scaled to
the reference host speed by the two reference timings around it, and the process's peak resident memory.  The raw
medians are printed on a ``raw`` line.  With ``--trace 1`` iterations
alternate between untraced and traced, and the per-layer metrics are the
medians over the traced iterations (see tracing.py), unscaled; their spans
are written to ``perfbench/_work/<workload>/spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
CLI command; it fails on a non-zero exit, an exception, a missing artifact
or a failed accuracy check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
from run import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 5
WARMUP_ARGV = ["solve", "--h", "0.2", "--oracle", "none", "--out"]
# a fresh interpreter: argv[1] is the source directory, argv[2] the output
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from flexscat.cli import main; "
               f"sys.exit(main({WARMUP_ARGV!r} + [sys.argv[2]]))")
END_TO_END = (("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_at_start": load_at_start,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(out: Path) -> float:
    """Wall time of one fresh interpreter doing the set-up."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def call_cli(cli_main, argv: list[str]):
    """Exit code of one CLI command; an escaping exception counts as failure."""
    try:
        return cli_main(argv)
    except Exception:  # the benchmark keeps running and reports the failure
        traceback.print_exc()
        return "exception"


def main(argv: list[str]) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "flexscat").is_dir():
        print(f"error: flexscat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from flexscat.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(load_at_start)

    for _ in range(2):  # first calls are slow (imports, heap growth): untimed
        hostspeed.reference_kernel()
    if cli_main(WARMUP_ARGV + [str(work / "warmup")]) != 0:
        print("error: in-process warm-up solve failed", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        try:
            tracing.resolve_all()
        except tracing.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rng = random.Random(args.seed)
    walls, traced_walls, layer_rows, spans = [], [], [], []
    # every timed event sits between two reference-kernel timings; `scaled`
    # holds each event's time at the reference host speed (hostspeed.scale)
    reference = [hostspeed.time_reference()]
    setup, scaled = [], {"wall": [], "setup": []}

    def time_setup() -> None:
        setup.append(measure_setup(work / "setup" / str(len(setup))))
        reference.append(hostspeed.time_reference())
        scaled["setup"].append(hostspeed.scale(setup[-1], *reference[-2:]))

    attempted = failed = 0
    min_iterations = 2 if tracer is not None else 1
    t_start = time.perf_counter()
    i = 0
    while i < min_iterations or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        it_dir = work / "iteration"
        shutil.rmtree(it_dir, ignore_errors=True)
        commands = workload.commands(alpha, it_dir)
        gc.collect()
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            codes = [call_cli(cli_main, c.argv) for c in commands]
            t1 = time.perf_counter()
        reference.append(hostspeed.time_reference())
        for command, code in zip(commands, codes):
            attempted += 1
            found = [f"exit status {code}"] if code != 0 else command.check(command.out)
            failed += bool(found)
            for problem in found:
                print(f"check failed: iteration {i} alpha={alpha!r} {command.argv[0]}: "
                      f"{problem}", file=sys.stderr)
        if traced:
            traced_walls.append(t1 - t0)
            layer_rows.append(tracing.layer_metrics(tracer.spans, t0, t1))
            spans += tracing.spans_to_json(i, tracer.spans)
        else:
            walls.append(t1 - t0)
            scaled["wall"].append(hostspeed.scale(t1 - t0, *reference[-2:]))
        if len(setup) < SETUP_SAMPLES:
            time_setup()
        i += 1
    while len(setup) < SETUP_SAMPLES:
        time_setup()

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"iterations {len(walls)} untraced, {len(traced_walls)} traced")
    print("iteration_walls_s " + " ".join(f"{w:.4f}" for w in walls + traced_walls))
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4g} (operations = CLI commands)")
    print("reference_s " + " ".join(f"{r:.4f}" for r in reference))
    print("raw " + json.dumps({"wall_s": statistics.median(walls),
                               "setup_s": statistics.median(setup),
                               "reference_s": statistics.median(reference)}))
    if tracer is None:
        values = {
            "wall_norm_s": statistics.median(scaled["wall"]),
            "setup_s": statistics.median(scaled["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        print(f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)} iterations)")
        print(f"wall_norm_s {values['wall_norm_s']:.4f} s at reference speed "
              f"(reference kernel {hostspeed.REFERENCE_S} s; here median "
              f"{statistics.median(reference):.4f} s of {len(reference)})")
        print(f"setup_s {values['setup_s']:.4f} s at reference speed "
              f"(raw median {statistics.median(setup):.4f} s of {len(setup)} set-ups)")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    else:
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        for name in units:
            print(f"{name} {values[name]:.6g} {units[name]}")
        (work / "spans.json").write_text(json.dumps({"env": env, "spans": spans}) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0
