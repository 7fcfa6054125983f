"""Workload process: runs request lines through cli.run_line in one fresh
interpreter, one request in flight, and checks each answer.

Usage:
  python3 perfbench/worker.py run   SRC LINES SPECS
  python3 perfbench/worker.py trace SRC LINES SPECS SPANS_FILE

`run` issues every line in order and reports per-request latencies
with the machine-speed scale of each (see speed.py), peak RSS and every
failed request.  `trace` issues every line twice: untraced,
then with the layer wrappers of tracer.py installed; it checks that each
traced --json output is byte-identical to its untraced one and reports
the per-layer metrics.

Lines that start with "--trace " run with trace=True, as
`cwbrauer --json --trace ...` would.  SPECS holds one JSON spec per
line for oracle.check.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time

TRACE_FLAG = "--trace "


def _issue(cli, line: str):
    """(seconds, exit code or None, output, exception or None, request)."""
    trace = line.startswith(TRACE_FLAG)
    text = line[len(TRACE_FLAG):] if trace else line
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        code, err = cli.run_line(text, as_json=True, trace=trace,
                                 out=buf), None
    except Exception as e:   # an escaped exception is a failed request
        code, err = None, e
    return time.perf_counter() - t0, code, buf.getvalue(), err, text


def _failure(oracle, i, spec, text, code, out, err) -> dict | None:
    """The failure record of a request, or None when its answer is right.
    `known` marks the one defect the workloads keep on purpose: the
    exception named by the spec's "defect" key.  Any other failure makes
    the run incorrect."""
    if err is not None:
        why = f"uncaught {type(err).__name__}: {str(err)[:120]}"
    else:
        why = oracle.check(spec, text, code, out)
        if why is None:
            return None
    return {"index": i, "line": _short(text), "why": why,
            "exception": err is not None,
            "known": err is not None
            and type(err).__name__ == spec.get("defect")}


def _short(text: str) -> str:
    return text if len(text) <= 160 else f"{text[:150]} ... ({len(text)} chars)"


def run(cli, oracle, lines, specs) -> dict:
    from speed import Calibration

    cal = Calibration()
    latencies, starts, failures = [], [], []
    spent = 0.0
    for i, line in enumerate(lines):
        cal.sample()
        spec = json.loads(specs.readline())
        starts.append(time.perf_counter())
        dt, code, out, err, text = _issue(cli, line)
        spent += dt
        latencies.append(dt)
        bad = _failure(oracle, i, spec, text, code, out, err)
        if bad:
            failures.append(bad)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal.sample(force=True)
    return {"latencies": latencies,
            "scales": [cal.scale(t) for t in starts],
            "kernel_s": cal.mean(), "failures": failures,
            "peak_rss_mb": rss_kb / 1024.0, "spent_s": spent}


def trace(cli, oracle, lines, specs, spans_file: str) -> dict:
    from tracer import Tracer

    failures, plain = [], []
    untraced = 0.0
    for i, line in enumerate(lines):
        spec = json.loads(specs.readline())
        dt, code, out, err, text = _issue(cli, line)
        untraced += dt
        plain.append((code, hashlib.sha256(out.encode()).hexdigest(),
                      type(err).__name__ if err else None))
        bad = _failure(oracle, i, spec, text, code, out, err)
        if bad:
            failures.append(bad)
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    for i, line in enumerate(lines):
        tracer.request = i
        dt, code, out, err, text = _issue(cli, line)
        tracer.reset_stack()
        traced += dt
        got = (code, hashlib.sha256(out.encode()).hexdigest(),
               type(err).__name__ if err else None)
        if got != plain[i]:
            failures.append({"index": i, "line": _short(text),
                             "why": "traced output differs from untraced",
                             "exception": False, "known": False})
    tracer.write(spans_file)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return {"attempted": len(lines), "failures": failures,
            "metrics": {k: list(v) for k, v in metrics.items()},
            "untraced_s": untraced, "traced_s": traced}


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import oracle
    from cwbrauer import cli

    with open(sys.argv[3], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(sys.argv[4], encoding="utf-8") as specs:
        if mode == "run":
            result = run(cli, oracle, lines, specs)
        else:
            result = trace(cli, oracle, lines, specs, sys.argv[5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
