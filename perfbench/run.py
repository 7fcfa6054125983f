"""cwbrauer benchmark: seeded request workloads through cli.run_line.

Usage (from the repository root):

  python3 perfbench/run.py --workload mixed_small --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1

--trace 0 measures the end-to-end metrics: set-up time over several fresh
interpreters, then one fresh workload interpreter that issues requests in
a closed loop (one client, one request in flight) and checks every answer
against oracle.py.  The run issues the whole blocks of the workload's
stream that take about --seconds at the workload's fixed rate
(SEED_RATE).  --trace 1 replays a fixed prefix of the same stream
untraced and then under the layer wrappers of tracer.py, and reports
per-layer metrics.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts every request that
failed its check, raised, or (traced run) printed other bytes than
untraced; `correct` is false when any of them did, except a request that
raised the exception its spec names as a known defect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("throughput_rps", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("setup.numpy_s", "s"), ("setup.cwbrauer_s", "s"),
    ("intlin.snf_calls", "count"), ("intlin.snf_s", "s"),
    ("intlin.snf_distinct_ratio", "ratio"), ("intlin.solve_calls", "count"),
    ("intlin.inverse_s", "s"), ("intlin.self_s", "s"),
    ("intlin.snf_entries", "count"), ("intlin.result_max_bits", "bits"),
    ("chaincx.self_s", "s"), ("chaincx.build_s", "s"),
    ("chaincx.complexes_built", "count"), ("chaincx.build_degrees", "count"),
    ("chaincx.presentations", "count"),
    ("spaces.self_s", "s"), ("spaces.unroll_calls", "count"),
    ("spaces.unrolled_degrees", "count"),
    ("grammar.self_s", "s"), ("grammar.bytes", "bytes"),
    ("cli.self_s", "s"), ("cli.render_s", "s"),
    ("cli.trace_snf_calls", "count"),
    ("abgroup.self_s", "s"), ("abgroup.calls", "count"),
    ("profiles.self_s", "s"), ("profiles.calls", "count"),
    ("limits.self_s", "s"), ("limits.calls", "count"),
    ("trace.overhead_ratio", "ratio"))

# Requests per second of --seconds.  A --trace 0 run issues the whole
# blocks that take about --seconds at this rate; a fixed amount of work
# per run keeps the mix the same whatever the machine's speed at the
# time.  The seed commit sustains 15-20% more than this in reference
# units (speed.py), and on the tuning machine a 20-second run takes
# 26-45 seconds of wall time in all, set-up probes and checks included.
SEED_RATE = {"mixed_small": 2300, "chain_heavy": 18, "periodic_deep": 12}
# Blocks of the stream replayed by --trace 1; a fixed prefix, so its
# counts repeat exactly for a seed.
TRACE_BLOCKS = {"mixed_small": 10, "chain_heavy": 2, "periodic_deep": 2}
SETUP_PROBES = 11
SPLIT_PROBES = 5
PROBE_TIMEOUT = 30
WORKER_TIMEOUT = 150


class BenchError(Exception):
    pass


def _child(args, timeout) -> dict:
    proc = subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe_setup(lines_file: Path) -> dict:
    """Set-up time: seconds from process start to cwbrauer.cli imported and
    the lines file read, in fresh interpreters.  Each probe is paired with
    speed.import_kernel() run right after it; the figure is the median of
    probe / reference over the pairs, in reference seconds.  One
    unrecorded pair first warms the bytecode cache."""
    pairs = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        r = _child([HERE / "probe.py", SRC, lines_file], PROBE_TIMEOUT)
        pair = (r["ready"] - start, speed.import_kernel())
        if i:
            pairs.append(pair)
    return {"setup_s": statistics.median(
                p / ref for p, ref in pairs) * speed.REFERENCE_IMPORT_S,
            "raw_setup_s": statistics.median(p for p, _ in pairs),
            "import_kernel_s": statistics.median(ref for _, ref in pairs),
            "probes": len(pairs)}


def _import_split(lines_file: Path, repeats: int = SPLIT_PROBES) -> dict:
    """Median import split (numpy_s, cwbrauer_s) of the set-up probe run
    under `python3 -X importtime`, raw seconds."""
    runs = []
    for i in range(repeats + 1):     # the first run warms the bytecode cache
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(HERE / "probe.py"),
             str(SRC), str(lines_file)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"probe.py exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        if i:
            runs.append(probe.import_split(proc.stderr))
    return {key: statistics.median(r[key] for r in runs)
            for key in ("numpy_s", "cwbrauer_s")}


def _write_inputs(entries, stem: str):
    lines_file, specs_file = OUT / f"{stem}.lines", OUT / f"{stem}.specs"
    with open(lines_file, "w", encoding="utf-8") as fl, \
            open(specs_file, "w", encoding="utf-8") as fs:
        for text, trace, spec in entries:
            fl.write(("--trace " if trace else "") + text + "\n")
            fs.write(json.dumps(spec) + "\n")
    return lines_file, specs_file


def _mix(entries) -> dict:
    seen, repeats = set(), 0
    for text, _, _ in entries:
        repeats += text in seen
        seen.add(text)
    n = max(len(entries), 1)
    return {"repeat_share": repeats / n,
            "bad_share": sum("code" in s for _, _, s in entries) / n,
            "traced_share": sum(t for _, t, _ in entries) / n}


def _percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, seed: int, seconds: int, trace: bool):
    """Returns (metrics {name: (value, unit, samples)}, attempted,
    failures, notes)."""
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-{seed}-{int(trace)}"
    block = workloads.BLOCK[name]
    count = block * (TRACE_BLOCKS[name] if trace else
                     max(1, round(seconds * SEED_RATE[name] / block)))
    entries = workloads.generate(name, seed, count)
    lines_file, specs_file = _write_inputs(entries, stem)
    try:
        metrics = {}
        if trace:
            spans = OUT / f"spans-{name}-{seed}.bin"
            r = _child([HERE / "worker.py", "trace", SRC, lines_file,
                        specs_file, spans], WORKER_TIMEOUT)
            split = _import_split(lines_file)
            for key in ("numpy_s", "cwbrauer_s"):
                metrics[f"setup.{key}"] = (split[key], "s", SPLIT_PROBES)
            for key, (value, unit) in r["metrics"].items():
                metrics[key] = (value, unit, r["attempted"])
            attempted = r["attempted"]
            notes = {"untraced_s": r["untraced_s"],
                     "traced_s": r["traced_s"], "spans_file": str(spans),
                     **_mix(entries)}
        else:
            setup = _probe_setup(lines_file)
            r = _child([HERE / "worker.py", "run", SRC, lines_file,
                        specs_file], WORKER_TIMEOUT)
            raw = r["latencies"]
            lat = [x * k for x, k in zip(raw, r["scales"])]
            attempted = len(lat)
            raised = sum(f["exception"] for f in r["failures"])
            metrics["setup_s"] = (setup["setup_s"], "s", setup["probes"])
            metrics["throughput_rps"] = ((attempted - raised) / sum(lat),
                                         "1/s", attempted)
            metrics["latency_p50_ms"] = (1e3 * statistics.median(lat), "ms",
                                         attempted)
            p90 = _percentile(lat, 90)
            metrics["latency_p90_ms"] = (1e3 * p90, "ms", attempted)
            metrics["peak_rss_mb"] = (r["peak_rss_mb"], "MB", 1)
            notes = {"request_time_s": r["spent_s"],
                     "beyond_p90": sum(1 for x in lat if x > p90),
                     "kernel_ms": 1e3 * r["kernel_s"],
                     "import_kernel_ms": 1e3 * setup["import_kernel_s"],
                     "raw_setup_s": setup["raw_setup_s"],
                     "raw_throughput_rps": (attempted - raised) / sum(raw),
                     "raw_latency_p50_ms": 1e3 * statistics.median(raw),
                     "raw_latency_p90_ms": 1e3 * _percentile(raw, 90),
                     **_mix(entries[:attempted])}
        return metrics, attempted, r["failures"], notes
    finally:
        lines_file.unlink(missing_ok=True)
        specs_file.unlink(missing_ok=True)


def _report(name, trace, metrics, attempted, failures, notes):
    p = print
    p(f"== {name} ({'traced' if trace else 'untraced'}): "
      f"{attempted} requests")
    failed = len(failures)
    p(f"  {'error_rate':28s} {failed / attempted:.6f} ratio"
      f"  (n={attempted}, failed={failed})")
    for key in sorted(metrics):
        value, unit, n = metrics[key]
        p(f"  {key:28s} {value:.6g} {unit}  (n={n})")
    if trace:
        total = sum(v[0] for k, v in metrics.items() if k.endswith(".self_s"))
        shares = sorted(((v[0] / total if total else 0.0, k[:-7])
                         for k, v in metrics.items()
                         if k.endswith(".self_s")), reverse=True)
        p("  self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for share, layer in shares))
    for key, value in notes.items():
        p(f"  note {key}: {value:.4g}" if isinstance(value, float)
          else f"  note {key}: {value}")
    for f in failures:
        p(f"  FAILED #{f['index']}: {f['line']}\n      {f['why']}")


def _result_json(metrics, keys, attempted, failures) -> dict:
    return {"correct": all(f["known"] for f in failures),
            "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": metrics[k][0], "unit": u}
                        for k, u in keys}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "cwbrauer" / "cli.py").is_file():
        print(f"error: no cwbrauer sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if ns.workload == "all" else (ns.workload,)
    modes = (False, True) if ns.workload == "all" else (bool(ns.trace),)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    result = None
    try:
        for name in names:
            for trace in modes:
                metrics, attempted, failures, notes = measure(
                    name, ns.seed, ns.seconds, trace)
                _report(name, trace, metrics, attempted, failures, notes)
                keys = PER_LAYER if trace else END_TO_END
                result = _result_json(metrics, keys, attempted, failures)
                combined["correct"] &= result["correct"]
                combined["attempted"] += attempted
                combined["failed"] += len(failures)
                for k, v in result["metrics"].items():
                    combined["metrics"][f"{name}.{k}"] = v
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    print(json.dumps(combined if ns.workload == "all" else result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
