"""One CLI process of the traced `cli_cold` run.

Does what `python -m darboux3.cli ARGS` does, with the package's public
functions traced as in the in-process workloads, and writes to stderr how
long the package import and `main` took, with the span statistics. The
benchmark starts it under `python -X importtime`, which adds the per-module
import times to stderr.
"""

import json
import sys
import time

from spans import CHILD_MARKER, Tracer, span_stats

t0 = time.perf_counter()
import darboux3.cli  # noqa: E402

t1 = time.perf_counter()
tracer = Tracer()
with tracer.installed():
    t2 = time.perf_counter()
    with tracer.span("main"):
        code = darboux3.cli.main(sys.argv[1:])
    t3 = time.perf_counter()
report = {"import_s": t1 - t0, "main_s": t3 - t2, "stats": span_stats(tracer.spans)}
print(CHILD_MARKER + json.dumps(report), file=sys.stderr)
sys.exit(code)
