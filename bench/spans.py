"""Tracing for the benchmark's traced run, installed from outside the package.

`Tracer.installed()` wraps the package's public functions listed in
`TARGETS` with spans (name, start, end, parent) kept in memory. The package
binds functions by name across modules (`darboux` does
`from .exactmath import pencil_rank_drop`, and `__init__` re-exports), so
every module attribute that *is* the original function object is replaced,
not only the defining one; leaving the context puts every original back.

Spans are only recorded inside an open span, so work the benchmark does
between ops (checking outputs) never counts. A span's self time is its
duration minus the durations of its direct children, which on one thread
never overlap.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _matrix_entries(args, result) -> dict:
    return {"entries": args[0].rows * args[0].cols}


_STOP_KINDS = {"constant": "became constant", "stable": "unchanged for", "cap": "cap reached"}


def _pencil_counts(args, result) -> dict:
    counts = {
        "entries": args[0].rows * args[0].cols,
        "minors_sampled": result.minors_sampled,
        "candidates": len(result.candidates),
        "parametric": int(result.parametric),
        "residual": int(result.residual.degree > 0),
    }
    for kind, phrase in _STOP_KINDS.items():
        counts[f"stop_{kind}"] = int(phrase in result.stop_reason)
    return counts


def _accepted_certs(args, result) -> dict:
    certs, _notes = result
    return {"accepted": len(certs)}


def _integrate_steps(args, result) -> dict:
    return {"steps": len(result.times) - 1}


# (module, qualified name, counters taken from the arguments and the result)
TARGETS = (
    ("darboux3.exactmath", "pencil_rank_drop", _pencil_counts),
    ("darboux3.exactmath", "rref", _matrix_entries),
    ("darboux3.exactmath", "null_space", _matrix_entries),
    ("darboux3.darboux", "search_darboux_pencil", _accepted_certs),
    ("darboux3.darboux", "verify_cofactor", None),
    ("darboux3.darboux", "search_exp_factors", None),
    ("darboux3.darboux", "combine_cofactors", None),
    ("darboux3.darboux", "lie_derivative_log_combination", None),
    ("darboux3.fieldspec", "lie_derivative", None),
    ("darboux3.fieldspec", "build_hsa", None),
    ("darboux3.fieldspec", "parse_expression", None),
    ("darboux3.polyring", "Poly.__mul__", None),
    ("darboux3.numerics", "integrate", _integrate_steps),
    ("darboux3.numerics", "drift", None),
    ("darboux3.numerics", "step_halving_study", None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('darboux3.')}.{qualname}"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, counters]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int, counters: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counters
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, original, name: str, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._open:
                return original(*args, **kwargs)
            idx = self.begin(name)
            counters = None
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    counters = count(args, result)
                return result
            finally:
                self.end(idx, counters)

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding of each of TARGETS with a traced wrapper.

        Targets in modules not imported yet are skipped: tracing must not
        change what the program imports (the CLI's import time is measured).
        """
        wrappers = {}
        owners = []
        for module, qualname, count in TARGETS:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
                owners.append(owner)
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self._wrap(original, span_name(module, qualname), count))
        owners += [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
        try:
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(owner, key, hit[1])
                        self._bindings.append((owner, key, value))
            yield self
        finally:
            while self._bindings:
                owner, key, value = self._bindings.pop()
                setattr(owner, key, value)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines; `op` is the index of the enclosing op span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        op_of: list[int] = []
        with path.open("w") as out:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                op_of.append(i if parent is None else op_of[parent])
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op_of[i]}
                if counters:
                    rec["counters"] = counters
                out.write(json.dumps(rec) + "\n")


def span_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self_s, total_s and the summed counters."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, counters) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child_s[i]
        for key, value in (counters or {}).items():
            st[key] += value
        if name == "exactmath.pencil_rank_drop" and parent is not None:
            if spans[parent][0] == "darboux.search_darboux_pencil":
                stats["darboux.search_darboux_pencil"]["cells"] += 1
    return stats


_IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")
CHILD_MARKER = "bench-cli-child "


def numeric_import_s(importtime_stderr: str) -> float:
    """Seconds spent importing numpy and scipy, from `python -X importtime`:
    the cumulative time of every numpy/scipy import not nested in another."""
    entries = []
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME_RE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    total_us = 0
    ancestors: list[bool] = []
    # the output is post-order (a module after its imports); reversed, every
    # module comes after its ancestors, so `ancestors` holds exactly those
    for depth, name, cumulative_us in reversed(entries):
        del ancestors[depth:]
        numeric = name.split(".")[0] in ("numpy", "scipy")
        if numeric and not any(ancestors):
            total_us += cumulative_us
        ancestors.append(numeric)
    return total_us / 1e6


def cli_sample(stderr: str, process_s: float) -> dict:
    """The child's timings: whole process, package import, `main`, numeric import."""
    sample = {"process_s": process_s, "import_numeric_s": numeric_import_s(stderr)}
    for line in stderr.splitlines():
        if line.startswith(CHILD_MARKER):
            sample.update(json.loads(line[len(CHILD_MARKER):]))
    return sample


# (span name, keys reported for it); a key ending in _s is seconds, the rest counts
SPAN_METRICS = (
    (
        "exactmath.pencil_rank_drop",
        ("calls", "self_s", "entries", "minors_sampled", "candidates", "parametric",
         "residual", "stop_constant", "stop_stable", "stop_cap"),
    ),
    ("exactmath.rref", ("calls", "self_s", "entries")),
    ("exactmath.null_space", ("calls", "self_s", "entries")),
    ("darboux.search_darboux_pencil", ("self_s", "cells")),
    ("darboux.verify_cofactor", ("calls", "self_s")),
    ("darboux.search_exp_factors", ("self_s",)),
    ("darboux.combine_cofactors", ("self_s",)),
    ("darboux.lie_derivative_log_combination", ("self_s",)),
    ("fieldspec.lie_derivative", ("calls", "self_s")),
    ("fieldspec.build_hsa", ("calls", "self_s")),
    ("fieldspec.parse_expression", ("calls", "self_s")),
    ("polyring.Poly.__mul__", ("calls", "self_s")),
    ("numerics.integrate", ("calls", "self_s", "steps")),
    ("numerics.drift", ("self_s",)),
    ("numerics.step_halving_study", ("self_s",)),
)
CLI_KEYS = ("process_s", "main_s", "import_s", "import_numeric_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cli_samples: list[dict]) -> dict[str, dict]:
    """Every per-layer metric, 0 where the workload does not reach the layer.

    Times and counts are totals over the run, the spans of traced CLI
    processes included, except `cli.*`, which are medians over the CLI
    processes, and `trace.op_p50_s`, the median traced op.
    """
    stats = span_stats(tracer.spans)
    for sample in cli_samples:
        for name, child in sample.get("stats", {}).items():
            for key, value in child.items():
                stats[name][key] += value
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": float(value), "unit": unit}

    for span, keys in SPAN_METRICS:
        for key in keys:
            put(f"{span}.{key}", stats[span][key], "s" if key.endswith("_s") else "count")
    pencil, integ = stats["exactmath.pencil_rank_drop"], stats["numerics.integrate"]
    put("exactmath.pencil_rank_drop.op_share", _ratio(pencil["total_s"], stats["op"]["total_s"]), "ratio")
    put(
        "darboux.candidate_yield",
        _ratio(stats["darboux.search_darboux_pencil"]["accepted"], pencil["candidates"]),
        "ratio",
    )
    put("numerics.steps_per_s", _ratio(integ["steps"], integ["self_s"]), "1/s")
    for key in CLI_KEYS:
        values = [s[key] for s in cli_samples if key in s]
        put(f"cli.{key}", statistics.median(values) if values else 0.0, "s")
    op_s = [end - start for name, start, end, _, _ in tracer.spans if name == "op"]
    put("trace.op_p50_s", statistics.median(op_s) if op_s else 0.0, "s")
    return out
