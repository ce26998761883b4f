"""Tests of the benchmark itself (not of darboux3):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def _bindings(originals):
    """Every (owner, key) whose value is one of `originals`, over all modules
    and the classes the targets live in."""
    owners = [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
    owners.append(sys.modules["darboux3.polyring"].Poly)
    found = []
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if any(value is o for o in originals):
                found.append((owner, key, value))
    return found


def _originals():
    wl.import_package()
    out = []
    for module, qualname, _ in spans.TARGETS:
        owner = sys.modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append(vars(owner)[attr])
    return out


def _wrappers_left():
    owners = [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
    owners.append(sys.modules["darboux3.polyring"].Poly)
    originals = _originals()
    return [
        (owner, key)
        for owner in owners
        for key, value in list(vars(owner).items())
        if any(getattr(value, "__wrapped__", None) is o for o in originals)
    ]


def test_corrupted_golden_entry_is_a_failed_op(tmp_path, monkeypatch):
    golden = json.loads((wl.GOLDEN_DIR / "hsa_grid_sweep.json").read_text())
    golden["1,0,0,1"]["conclusion"] = "none_up_to_bound"  # wrong value
    golden["1,1,1,1"] = 5  # wrong type
    del golden["-1,0,0,0"]  # missing
    (tmp_path / "hsa_grid_sweep.json").write_text(json.dumps(golden))
    monkeypatch.setattr(wl, "GOLDEN_DIR", tmp_path)
    latencies, failed, _ = run.measure(wl.load("hsa_grid_sweep", 0), 0)
    assert len(latencies) == len(wl.GRID_TUPLES)
    assert failed == 3


def test_traced_run_restores_every_binding():
    originals = _originals()
    before = _bindings(originals)
    # re-exports and the by-name imports across modules are all bound
    assert len(before) > len(originals)
    assert any(key == "__rmul__" for _, key, _ in before)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for owner, key, value in before:
                assert getattr(owner, key) is not value
                assert getattr(owner, key).__wrapped__ is value
            raise RuntimeError("leave the context by an error")
    for owner, key, value in before:
        assert getattr(owner, key) is value
    assert not _wrappers_left()


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the untraced run touched the tracer")

    monkeypatch.setattr(spans.Tracer, "installed", refuse)
    monkeypatch.setattr(spans.Tracer, "begin", refuse)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result, details = run.run("drift_closed_forms", 0, 0, trace=False)
    assert result["correct"] and result["attempted"] == 1
    assert not _wrappers_left()
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(details["env"]) == {"nproc", "python", "numpy", "scipy", "cpu", "git_commit"}


def test_per_layer_metrics_match_benchmark_json():
    metrics = spans.layer_metrics(spans.Tracer(), [])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, m["unit"]) for name, m in metrics.items()
    ]


@pytest.mark.parametrize("name", ["hsa_analyze_d4", "hsa_grid_sweep"])
def test_seed_reaches_the_rng(monkeypatch, name):
    pkg = wl.import_package()
    states = []

    def fake_analyze(field, bound, rng):
        states.append(rng.getstate())

    monkeypatch.setattr(pkg, "analyze", fake_analyze)
    wl.load(name, 5)[0].run()
    assert states[0] == random.Random(5).getstate()


def test_seed_reaches_the_cli_flag():
    seen = []

    def runner(argv):
        seen.append(argv)
        return wl.run_cli(argv)

    op = wl.load("cli_cold", 5, cli_runner=runner)[0]
    out = op.run()
    assert seen[0][-2:] == ["--seed", "5"]
    assert json.loads(out[1])["seed"] == 5
    assert op.check(out)


def test_numeric_import_counts_outermost_numpy_and_scipy():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:        10 |         60 |   scipy",
            "import time:        40 |         40 |   scipy.integrate",
            "import time:       900 |       1300 | darboux3.numerics",
            "import time:         5 |          5 | json",
        ]
    )
    assert spans.numeric_import_s(stderr) == pytest.approx((300 + 60 + 40) / 1e6)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "drift_closed_forms",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_cli_check_is_byte_exact_apart_from_residual_notes():
    golden = wl.load_golden("cli_cold")["analyze"]
    expected = wl.expected_cli_stdout(golden, 3)
    assert wl.cli_stdout_matches(expected, golden, 3)
    assert not wl.cli_stdout_matches(expected, golden, 4)
    assert not wl.cli_stdout_matches(expected.replace(b"\n", b"\n ", 1), golden, 3)
    report = json.loads(expected)
    report["notes"].append("cell (b1=0, b2=2, b3=0): nonconstant residual t^2 - 2; possible ...")
    assert wl.cli_stdout_matches((json.dumps(report, indent=2) + "\n").encode(), golden, 3)
    report["notes"].append("another note")
    assert not wl.cli_stdout_matches((json.dumps(report, indent=2) + "\n").encode(), golden, 3)
