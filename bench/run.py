"""Benchmark of darboux3: run one workload for a fixed time, check every op's
output, and print the metrics.

    python3 bench/run.py --workload hsa_grid_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program measured is the package under
`src/`. Each workload is a closed loop: one caller in this process, the next
op only after the previous one ends, at most one child process at a time.
Ops run in whole passes over the workload's op list until `--seconds` have
passed, so every run measures the same mix of inputs.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` the package's public functions are
wrapped with spans and it holds the per-layer metrics instead. The lines
before it give the environment stamp and the same metrics as a table.
Exit code 2, and no result, when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import spans
import workloads as wl

SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the reported tail has at least this many samples beyond it


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its being ready for the first op."""
    t0 = time.time()
    proc = wl.run_child([sys.executable, str(wl.BENCH_DIR / "setup_probe.py"), name, str(seed)])
    if proc.returncode != 0:
        raise wl.BenchSetupError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout.split()[-1]) - t0


def traced_cli_runner(samples: list[dict]):
    """A CLI runner that times the child's import and `main` and keeps `-X importtime`."""

    def run(argv: list[str]) -> tuple[int, bytes]:
        child = [sys.executable, "-X", "importtime", str(wl.BENCH_DIR / "cli_child.py"), *argv]
        t0 = time.perf_counter()
        proc = wl.run_child(child, env=wl.cli_env())
        samples.append(spans.cli_sample(proc.stderr.decode(errors="replace"), time.perf_counter() - t0))
        return proc.returncode, proc.stdout

    return run


def _passes(op: wl.Op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception as exc:  # a malformed golden entry fails the op, not the run
        print(f"bench: op {op.label}: check raised {exc!r}", file=sys.stderr)
        return False


def measure(ops: list[wl.Op], seconds: float, tracer: spans.Tracer | None = None):
    """Run whole passes over `ops` until `seconds` have passed; (latencies, failed, elapsed)."""
    latencies: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("op"):
                        out = op.run()
            except Exception as exc:  # count the failure and keep measuring
                latencies.append(time.perf_counter() - t0)
                failed += 1
                print(f"bench: op {op.label} raised {exc!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            if not _passes(op, out):
                failed += 1
                print(f"bench: op {op.label}: output differs from the golden output", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            return latencies, failed, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples beyond it; the maximum when that one would not lie above the
    median (at most 2 * TAIL_BEYOND + 2 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k <= n // 2:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # e.g. an exported checkout without .git


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def env_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def assert_load_shape() -> None:
    """One caller thread, and no child process left behind."""
    if threading.active_count() != 1:
        raise wl.LoadShapeError(f"{threading.active_count()} threads; the benchmark runs one")
    wl.assert_no_child()


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; (result, details)."""
    cli_samples: list[dict] = []
    runner = traced_cli_runner(cli_samples) if trace else wl.run_cli
    ops = wl.load(name, seed, cli_runner=runner)
    details: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        tracer = spans.Tracer()
        with tracer.installed():
            latencies, failed, elapsed = measure(ops, seconds, tracer)
        metrics = spans.layer_metrics(tracer, cli_samples)
        spans_path = wl.ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(wl.ROOT))
    else:
        setup = [probe_setup(name, seed) for _ in range(SETUP_SAMPLES)]
        latencies, failed, elapsed = measure(ops, seconds)
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / elapsed, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
        details.update(
            setup_samples_s=setup,
            op_tail_percentile=tail_pct,
        )
    assert_load_shape()
    details.update(
        ops=len(latencies),
        failed_frac=failed / len(latencies),
        elapsed_s=elapsed,
        load_shape="closed loop, 1 caller thread, at most 1 child process at a time",
        env=env_stamp(),
    )
    result = {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def run_in_child(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload as its own `run.py` process; (result, details)."""
    cmd = [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise wl.BenchSetupError(f"{name} run failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except wl.BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    for metric, m in result["metrics"].items():
        print(f"{args.workload:20} {metric:42} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
