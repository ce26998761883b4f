"""Run every workload, untraced and then traced, check every op, and print
every metric by name with its unit, plus the tracing overhead.

    python3 bench/run_all.py [--seed 0] [--seconds 10]

Each run is its own `run.py` process, one after another. The last line of
standard output is one JSON object in the same form as `run.py`'s, with
metric names prefixed by the workload (`hsa_grid_sweep.op_p50_s`).
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def main(argv=None) -> int:
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.NAMES:
        try:
            plain, details = run.run_in_child(name, args.seed, args.seconds, trace=False)
            traced, _ = run.run_in_child(name, args.seed, args.seconds, trace=True)
        except wl.BenchSetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        overhead = traced["metrics"]["trace.op_p50_s"]["value"] / plain["metrics"]["op_p50_s"]["value"] - 1
        metrics = {**plain["metrics"], **traced["metrics"], "trace.overhead": {"value": overhead, "unit": "ratio"}}
        print(f"# {name}: {plain['attempted']} + {traced['attempted']} ops, "
              f"{plain['failed'] + traced['failed']} failed; env {json.dumps(details['env'])}")
        for metric, m in metrics.items():
            print(f"{name:20} {metric:46} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        for r in (plain, traced):
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
