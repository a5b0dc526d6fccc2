"""Run every workload once and print all its metrics; optionally save them.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--out FILE]

Each workload runs in its own process through perfbench/run.py, one after
another, first untraced (end-to-end metrics) and, with --trace, once more
traced (per-layer metrics).  Besides the end-to-end metrics it prints the
run's unscaled medians: wall_s, setup_s and reference_s.  --out writes
everything, with the environment of the first run, as JSON (perfbench/baseline_seed.json was made this way).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """(result JSON, environment, raw medians) of one benchmark run."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed ({proc.returncode})\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw "))
    return json.loads(lines[-1]), env, raw


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", action="store_true", help="also run traced")
    p.add_argument("--out", type=Path, help="write the results as JSON")
    args = p.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        result, env, raw = run(name, args.seed, args.seconds, 0)
        report.setdefault("env", env)
        entry = {"attempted": result["attempted"], "failed": result["failed"],
                 "correct": result["correct"], "end_to_end": result["metrics"], "raw": raw}
        print(f"{name}:")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<28} {v['value']:12.6g} {v['unit']}")
        for metric, v in raw.items():
            print(f"  {metric + ' (raw)':<28} {v:12.6g} s")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':<28} {ratio:12.6g} ratio "
              f"({result['failed']} of {result['attempted']} CLI commands)")
        if args.trace:
            traced, _, _ = run(name, args.seed, args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            for metric, v in traced["metrics"].items():
                print(f"  {metric:<28} {v['value']:12.6g} {v['unit']}")
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
