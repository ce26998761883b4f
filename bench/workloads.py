"""The benchmark's workloads: what one op runs, and how its output is checked.

Every workload is a closed loop with one caller. An op's `run` does the work
that is timed; its `check` compares the output with the golden outputs in
`golden/` (or, for the drift fixtures, with the acceptance tolerances) and is
not timed. The program is always the package under `src/` of the checkout the
benchmark lives in, never an installed copy.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
CHILD_TIMEOUT_S = 60  # a CLI op or set-up probe takes ~1 s

NAMES = ("hsa_analyze_d4", "hsa_grid_sweep", "drift_closed_forms", "cli_cold")

D4_TUPLES = ((1, 1, 1, 1), (1, 0, 0, 1))
GRID_TUPLES = tuple(
    (a, b, k, l) for a in (1, -1) for b, k, l in itertools.product((0, 1, -1), repeat=3)
)

# Acceptance criteria 5 and 6 of tests/test_acceptance.py: fixture, start
# point, step-halving step, and the tolerances every drift op is checked with.
DRIFT_FIXTURES = (
    ("F1", (1, 0, 0, 1), (0.5, 0.2, 0.1), 1e-2),
    ("F3", (-2, 0, 2, 1), (-0.01, 6.0, 0.0), 5e-2),
    ("F4", (-2, 0, 2, 0), (0.01, 6.0, 0.1), 5e-2),
)
F2_FIXTURE = ((1, 0, 0, 1), (0.5, 1.5, 0.1))
DRIFT_T_END, DRIFT_H, F2_T_END = 10.0, 1e-3, 5.0
MAX_REL_DRIFT = 1e-8
HALVING_RATIO = (8.0, 32.0)
ADAPTIVE_TOL = 1e-12
F2_CORRECTED_MAX, F2_PAPER_MIN = 1e-6, 1e-3

_HSA_1001 = ["hsa", "--alpha", "1", "--beta", "0", "--kappa", "0", "--lambda", "1"]
CLI_COMMANDS = {
    "verify": ["verify", *_HSA_1001, "--poly", "x", "--cofactor", "y-1"],
    "search-expfactors": [
        "search-expfactors", "hsa", "--alpha", "1", "--beta", "1", "--kappa", "0",
        "--lambda", "0", "--degree", "2",
    ],
    "analyze": ["analyze", *_HSA_1001, "--degree", "2"],
}


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, no golden outputs)."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def suite(label: str, parts: list[Op]) -> Op:
    """One op that runs `parts` in order and passes when every part does."""

    def run():
        return [part.run() for part in parts]

    def check(outs) -> bool:
        return all(part.check(out) for part, out in zip(parts, outs))

    return Op(label, run, check)


def rotated(items, seed: int) -> list:
    items = list(items)
    k = seed % len(items)
    return items[k:] + items[:k]


def import_package():
    """Import darboux3 from this checkout's `src/`, refusing any other copy."""
    init = SRC / "darboux3" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no package source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("darboux3")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchSetupError(f"darboux3 imported from {pkg.__file__}, not {init}")
    return pkg


def load_golden(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchSetupError(f"cannot read golden outputs {path}: {exc}") from exc


def tuple_key(p) -> str:
    return ",".join(str(v) for v in p)


# Minor sampling is randomized: a cell can stop sampling while a spurious
# factor is still in the minor gcd, and the verdict then gains a "nonconstant
# residual" audit note (analyzing each grid tuple with random.Random(s), seeds
# 12, 14, 31 and 32 of 0..39 did so). Everything else in the verdict was the
# same under every seed, so the check compares all of it and leaves those
# notes out; traced runs count them.
RESIDUAL_NOTE = "nonconstant residual"


def without_residual_notes(notes: list[str]) -> list[str]:
    return [n for n in notes if RESIDUAL_NOTE not in n]


def verdict_digest(v) -> dict:
    """Everything a verdict asserts, as JSON-comparable data, residual notes aside."""

    def certs(cs):
        return [[c.kind, str(c.body), str(c.cofactor), c.degree_bound_used, c.primitive] for c in cs]

    return {
        "conclusion": v.conclusion,
        "darboux_polys": certs(v.darboux_polys),
        "exp_factors": certs(v.exp_factors),
        "combinations": [
            {"weights": [str(w) for w in c.weights], "trivial": c.trivial} for c in v.combinations
        ],
        "notes": without_residual_notes(v.notes.split("\n")),
    }


def _analyze_op(pkg, p, bound: int, rng: random.Random, golden: dict) -> Op:
    key = tuple_key(p)

    def run():
        # attribute lookups at call time, so the traced run's wrappers are seen
        return pkg.analyze(pkg.build_hsa(pkg.HsaParams(*p)), bound, rng=rng)

    def check(verdict) -> bool:
        return verdict_digest(verdict) == golden[key]

    return Op(f"analyze{key}@{bound}", run, check)


def _drift_op(pkg, num, which: str, params, x0, study_h: float) -> Op:
    def run():
        p = pkg.HsaParams(*params)
        f = pkg.build_hsa(p)
        spec = num.IntegralSpec(which, p)
        rk4 = num.drift(num.integrate(f, x0, DRIFT_T_END, num.StepMode.fixed(DRIFT_H)), spec)
        study = num.step_halving_study(f, x0, spec, study_h, DRIFT_T_END)
        traj = num.integrate(f, x0, DRIFT_T_END, num.StepMode.adaptive(ADAPTIVE_TOL))
        return rk4, study, traj, num.drift(traj, spec)

    def check(out) -> bool:
        rk4, study, traj, rkf = out
        return (
            rk4.domain_violation is None
            and rk4.relative_drift <= MAX_REL_DRIFT
            and HALVING_RATIO[0] <= study.ratio <= HALVING_RATIO[1]
            and traj.truncated_at is None
            and rkf.domain_violation is None
            and rkf.relative_drift <= MAX_REL_DRIFT
        )

    return Op(which, run, check)


def _f2_op(pkg, num) -> Op:
    params, x0 = F2_FIXTURE

    def run():
        p = pkg.HsaParams(*params)
        traj = num.integrate(pkg.build_hsa(p), x0, F2_T_END, num.StepMode.fixed(DRIFT_H))
        return (
            num.drift(traj, num.IntegralSpec("F2_paper", p)),
            num.drift(traj, num.IntegralSpec("F2_corrected", p)),
        )

    def check(out) -> bool:
        paper, corrected = out
        return (
            corrected.relative_drift <= F2_CORRECTED_MAX and paper.relative_drift > F2_PAPER_MIN
        )

    return Op("F2", run, check)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _dump(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode()


def expected_cli_stdout(golden_text: str, seed: int) -> bytes:
    """The recorded report (made with --seed 0) as the CLI prints it for `seed`."""
    report = json.loads(golden_text)
    report["seed"] = seed
    report["config"]["seed"] = seed
    return _dump(report)


def cli_stdout_matches(stdout: bytes, golden_text: str, seed: int) -> bool:
    """Byte-identical to the recorded report for `seed`, residual notes aside."""
    report = json.loads(stdout)
    if _dump(report) != stdout:
        return False
    if "notes" in report:
        report["notes"] = without_residual_notes(report["notes"])
    return _dump(report) == expected_cli_stdout(golden_text, seed)


def _cli_op(name: str, seed: int, golden: dict, runner: Callable) -> Op:
    argv = [*CLI_COMMANDS[name], "--seed", str(seed)]

    def run():
        return runner(argv)

    def check(out) -> bool:
        returncode, stdout = out
        return returncode == 0 and cli_stdout_matches(stdout, golden[name], seed)

    return Op(name, run, check)


class LoadShapeError(AssertionError):
    """A second child process, or a thread, appeared beside the one caller."""


def assert_no_child() -> None:
    """Raise unless this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise LoadShapeError("the benchmark process has another child process")


def run_child(argv: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    """Run one child process to completion from the checkout root. Children
    run one at a time: none may exist before it starts or after it ends."""
    assert_no_child()
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    finally:
        assert_no_child()


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """One cold `python -m darboux3.cli` process; returns (exit code, stdout)."""
    proc = run_child([sys.executable, "-m", "darboux3.cli", *argv], env=cli_env())
    return proc.returncode, proc.stdout


def load(name: str, seed: int, cli_runner: Callable = run_cli) -> list[Op]:
    """Everything the benchmark does before its first op: import the package,
    read the golden outputs and build one pass of ops, in the order `seed` gives.

    `cli_runner(argv) -> (exit code, stdout)` runs one CLI process.
    """
    pkg = import_package()
    if name == "hsa_analyze_d4":
        golden = load_golden(name)
        rng = random.Random(seed)  # one stream per run, so passes sample fresh minors
        return [suite("d4 pair", [_analyze_op(pkg, p, 4, rng, golden) for p in D4_TUPLES])]
    if name == "hsa_grid_sweep":
        golden = load_golden(name)
        rng = random.Random(seed)
        return [_analyze_op(pkg, p, 2, rng, golden) for p in rotated(GRID_TUPLES, seed)]
    if name == "drift_closed_forms":
        num = importlib.import_module("darboux3.numerics")
        parts = [_drift_op(pkg, num, *fx) for fx in DRIFT_FIXTURES] + [_f2_op(pkg, num)]
        return [suite("drift suite", rotated(parts, seed))]
    if name == "cli_cold":
        golden = load_golden(name)
        return [_cli_op(c, seed, golden, cli_runner) for c in rotated(CLI_COMMANDS, seed)]
    raise BenchSetupError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
