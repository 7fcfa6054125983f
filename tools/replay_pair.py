"""Interleaved in-process replay of a parent commit and the working tree.

    python3 tools/replay_pair.py OUT.json [--parent REV]

Both copies of `src/cwbrauer` are imported into this one interpreter,
side by side, under two package names: the parent's from the `src/` of
`git archive REV` (default HEAD; unpacked by `tools/bench_pair.py`'s
`_prepare`), the change's from the working tree.
Every import in the package is relative, so each copy keeps its own
modules and caches.  The streams are
`perfbench.workloads.generate(stream, SEED, count)`, SEED = 1, for
each of the three workloads, used as they come; count is the length of the stream's
benchmark run, as `tools/cache_traffic.py` counts it.

A pass clears both sides' space caches, then runs each line on both
sides back to back through `cli.run_line` (json, with the line's trace
flag), alternating per line and per pass which side goes first, and
sums each side's `perf_counter` time.  Running the two sides line by
line, not stream by stream, keeps the CPU's changes of speed out of the
comparison.  A pass's gain is parent time / change time - 1, so a
positive gain means the change is faster.

Each stream first runs an A/A control, the parent's copy against a
second import of itself, and then the claim, the parent against the
change, PASSES = 10 passes each.  For both it prints the median
gain, the quartiles and the passes won (gain > 0), and for the claim
the median gain of each request kind (a line's first word).  The
control shows how far the arrangement itself leans; a claim is read
beside it.  Cold start, RSS and `setup_s` are not measured here: they
stay with perfbench.  In-process percentages skip process start and the
worker loop, so they run larger than end-to-end ones.

Every output of both sides, in every pass, is compared: exit code and
stdout, or the type and message of an escaped exception.  Any line that
differs is listed, and the script exits 1.  OUT.json gets the record
{command, parent_commit, seed, passes, note, streams, differing}, where
streams maps each stream to its line count and its control and claim
gains.  An existing OUT.json is never overwritten: the script exits 2
before any run.  A run stopped by SIGTERM exits 143 and removes its
temporary directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pair import _exit_on_sigterm, _git, _prepare, _quartiles
from cache_traffic import default_count

STREAMS = ("mixed_small", "chain_heavy", "periodic_deep")
SEED = 1
PASSES = 10
MAX_LISTED = 20   # differing outputs kept in the record


def _load(name: str, src: Path):
    """(cli, spaces) of the package in src/cwbrauer, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "cwbrauer" / "__init__.py",
        submodule_search_locations=[str(src / "cwbrauer")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return (importlib.import_module(f"{name}.cli"),
            importlib.import_module(f"{name}.spaces"))


def _issue(cli, text: str, trace: bool) -> tuple[float, tuple]:
    """(seconds, output) of one line; the output is the exit code and
    stdout, or the escaped exception."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.run_line(text, as_json=True, trace=trace, out=buf)
    except Exception as e:   # a defect is an output too
        code = f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, (code, buf.getvalue())


def _pass(sides, entries, flip: int, differing: dict, where: dict):
    """One pass over entries on both sides: each side's time per request
    kind.  Outputs that differ are counted in differing, and the first
    MAX_LISTED of them listed."""
    for _, spaces in sides:
        spaces._built_spaces.clear()
    gc.collect()
    kinds = ({}, {})
    for i, (text, trace, _) in enumerate(entries):
        kind = text.split(" ", 1)[0]
        out = [None, None]
        for s in ((0, 1) if (i + flip) % 2 else (1, 0)):
            dt, out[s] = _issue(sides[s][0], text, trace)
            kinds[s][kind] = kinds[s].get(kind, 0.0) + dt
        if out[0] != out[1]:
            differing["count"] += 1
            if len(differing["listed"]) < MAX_LISTED:
                differing["listed"].append(
                    {**where, "line": i, "text": text[:160],
                     "parent": out[0], "change": out[1]})
    return kinds


def _gain(parent: float, change: float) -> float:
    return parent / change - 1 if change else 0.0


def _summary(gains: list) -> dict:
    q1, med, q3 = _quartiles(gains)
    return {"gains": gains, "median": med, "q1": q1, "q3": q3,
            "won": sum(g > 0 for g in gains)}


def replay(parent_src: Path, change_src: Path, counts: dict,
           passes: int) -> tuple[dict, dict]:
    """(streams record, differing outputs) of a control and a claim for
    each stream of counts, which maps it to its line count.  src/ of the
    repo and the repo itself must be importable, for perfbench."""
    from perfbench.workloads import generate
    parent = _load("cwbrauer_parent", parent_src)
    control = _load("cwbrauer_control", parent_src)
    change = _load("cwbrauer_change", change_src)
    record, differing = {}, {"count": 0, "listed": []}
    for name, count in counts.items():
        entries = generate(name, SEED, count)
        record[name] = {"lines": len(entries)}
        for run, sides in (("control", (parent, control)),
                           ("claim", (parent, change))):
            gains, by_kind = [], {}
            for p in range(passes):
                where = {"stream": name, "run": run, "pass": p}
                kp, kc = _pass(sides, entries, p, differing, where)
                gains.append(_gain(sum(kp.values()), sum(kc.values())))
                for kind in kp:
                    by_kind.setdefault(kind, []).append(
                        _gain(kp[kind], kc[kind]))
            record[name][run] = _summary(gains)
            if run == "claim":
                record[name][run]["by_kind"] = {
                    k: statistics.median(g)
                    for k, g in sorted(by_kind.items())}
    return record, differing


def print_summary(record: dict) -> None:
    print(f"{'stream':14} {'run':8} {'median':>7} {'q1..q3':>17} won")
    for name, r in record.items():
        for run in ("control", "claim"):
            s = r[run]
            spread = f"{s['q1']:+.1%}..{s['q3']:+.1%}"
            print(f"{name:14} {run:8} {s['median']:+7.1%} {spread:>17} "
                  f"{s['won']}/{len(s['gains'])}")
        print(f"{'':14} by kind: " + ", ".join(
            f"{k} {g:+.1%}" for k, g in r["claim"]["by_kind"].items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="JSON file to write")
    ap.add_argument("--parent", default="HEAD", help="parent revision")
    ns = ap.parse_args(argv)
    if ns.out.exists():
        print(f"replay_pair: {ns.out} exists; it is not overwritten",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))   # for perfbench
    parent = _git("rev-parse", "--short", ns.parent).decode().strip()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)   # cleans up tmp
    with tempfile.TemporaryDirectory() as tmp:
        _prepare(Path(tmp), parent)
        streams, differing = replay(
            Path(tmp, "src"), ROOT / "src",
            {name: default_count(name) for name in STREAMS}, PASSES)
    record = {
        "command": "python3 tools/replay_pair.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "parent_commit": parent, "seed": SEED, "passes": PASSES,
        "note": ("In-process replay, both package copies in one "
                 "interpreter; each line ran on both sides back to back, "
                 "alternating which went first.  gain = parent time / "
                 "change time - 1 per pass; control is the parent against "
                 "a second import of itself.  Written by "
                 "tools/replay_pair.py."),
        "streams": streams,
        "differing": differing,
    }
    ns.out.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(streams)
    if differing["count"]:
        print(f"{differing['count']} outputs differ; the first "
              f"{len(differing['listed'])} are listed in {ns.out}",
              file=sys.stderr)
        return 1
    print(f"no output differs ({ns.out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
