"""Steadiness study: run each workload once per seed (1..N) and report, for every
end-to-end metric, the median and the spread (distance between the first and
third quartile, as a share of the median) over the runs.

    python3 bench/steadiness.py --seeds 10 [--workload NAME ...] [--seconds N]

Each metric's regression bound in BENCHMARK.json should be at least three
times the spread seen here. Runs are made one after another, each a fresh
`run.py` process; the per-run results are written to
`.bench_out/steadiness.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads as wl


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=wl.NAMES)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    ok = True
    for name in args.workload or wl.NAMES:
        runs[name] = []
        for seed in range(1, args.seeds + 1):
            result, _ = run.run_in_child(name, seed, args.seconds, trace=False)
            ok = ok and result["correct"]
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            s = spread(values)
            bound = bounds[metric]
            flag = "" if bound is None or 3 * s < bound else "  <-- above a third of its bound"
            print(f"{name:20} {metric:12} median {statistics.median(values):10.4g}  "
                  f"spread {s:7.2%}  bound {bound}{flag}")
    out = wl.ROOT / ".bench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"all outputs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
