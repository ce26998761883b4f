"""Record the golden outputs the benchmark checks every op against.

    python3 bench/record_golden.py

Writes `golden/<workload>.json` for the analyze workloads (one verdict digest
per HSA tuple) and for `cli_cold` (each command's report, printed with
--seed 0). Before writing, it checks that the outputs are the same for
seeds 1 and 7, since ops are checked against them under any seed. The drift
workload has no golden file: its ops are checked against the acceptance
tolerances in `workloads.py`. Re-record only when a verdict or report is
meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import random
import sys

import workloads as wl

CHECK_SEEDS = (1, 7)


def analyze_digests(pkg, tuples, bound: int, seed: int) -> dict:
    return {
        wl.tuple_key(p): wl.verdict_digest(
            pkg.analyze(pkg.build_hsa(pkg.HsaParams(*p)), bound, rng=random.Random(seed))
        )
        for p in tuples
    }


def cli_reports(seed: int) -> dict:
    out = {}
    for name, argv in wl.CLI_COMMANDS.items():
        code, stdout = wl.run_cli([*argv, "--seed", str(seed)])
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        out[name] = stdout.decode()
    return out


def main() -> int:
    pkg = wl.import_package()
    golden = {
        "hsa_analyze_d4": lambda s: analyze_digests(pkg, wl.D4_TUPLES, 4, s),
        "hsa_grid_sweep": lambda s: analyze_digests(pkg, wl.GRID_TUPLES, 2, s),
        "cli_cold": cli_reports,
    }
    for name, record in golden.items():
        data = record(0)
        for seed in CHECK_SEEDS:
            other = record(seed)
            if name == "cli_cold":
                same = all(wl.cli_stdout_matches(v.encode(), data[k], seed) for k, v in other.items())
            else:
                same = other == data
            if not same:
                print(f"{name}: outputs differ between seed 0 and seed {seed}", file=sys.stderr)
                return 1
        if name == "cli_cold":
            # the check rebuilds each report from its JSON; it must give back the bytes
            if any(wl.expected_cli_stdout(v, 0).decode() != v for v in data.values()):
                print("cli_cold: a report does not survive a JSON round trip", file=sys.stderr)
                return 1
        path = wl.GOLDEN_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(wl.ROOT)} ({len(data)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
