"""Cache traffic of the benchmark's request streams: how often the space
cache hits and what it keeps.

    python3 tools/cache_traffic.py [--seed N] [--count N] [WORKLOAD ...]

Each workload's stream `perfbench.workloads.generate(name, seed, count)`
is replayed through `cli.run_line` in this process, from cold caches,
each line with its own trace flag.  The default count is the length of
the workload's benchmark run: the whole blocks that `perfbench/run.py
--trace 0` issues in BENCHMARK.json's `run_seconds`.  One line per
stream gives

  space lookups, how many of them found a complex{...} literal by its
  text, builds, hit rate, the weight kept at the end and its peak
  (`spaces.MAX_BUILT_CELLS` bounds both, save for one space kept alone).

Space lookups are counted by wrappers put around `spaces._built` and
`spaces.literal` from outside, as `perfbench/tracer.py` wraps
functions.  A literal whose text (its key) is kept when `literal` is
called is a text hit and never reaches `_built`; a missed one reaches
it once, so a lookup is a call of `_built` or a text hit.  Nothing
under src/ changes.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def default_count(name: str) -> int:
    """Lines of the workload's benchmark run (`perfbench/run.py`)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    block = run.workloads.BLOCK[name]
    return block * max(1, round(seconds * run.SEED_RATE[name] / block))


def traffic(entries) -> dict:
    """Replays (text, trace, spec) entries from a cold space cache and
    returns the counts of space lookups, builds and kept weight."""
    from cwbrauer import cli, spaces
    kept = spaces._built_spaces
    kept.clear()
    counts = {"lookups": 0, "text_hits": 0, "builds": 0, "peak": 0}
    real = spaces._built
    real_by_text = spaces.literal

    def counted(label, chains, key=None):
        counts["lookups"] += 1
        counts["builds"] += (label if key is None else key) not in kept
        try:
            return real(label, chains, key)
        finally:
            counts["peak"] = max(counts["peak"], kept.weight)

    def by_text(text, read):
        if text in kept:
            counts["lookups"] += 1
            counts["text_hits"] += 1
        return real_by_text(text, read)

    spaces._built = counted
    spaces.literal = by_text
    try:
        for text, trace, _ in entries:
            cli.run_line(text, True, trace, out=io.StringIO())
    finally:
        spaces._built = real
        spaces.literal = real_by_text
    return {**counts, "kept": kept.weight}


def _rate(hits: int, lookups: int) -> str:
    return f"{100 * hits / lookups:.1f}%" if lookups else "-"


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, generate
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(WORKLOADS)} (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int,
                    help="lines per stream (default: a benchmark run's)")
    args = ap.parse_args(argv)
    for name in set(args.workloads) - set(WORKLOADS):
        ap.error(f"unknown workload {name!r}")
    for name in args.workloads or WORKLOADS:
        count = args.count or default_count(name)
        t = traffic(generate(name, args.seed, count))
        print(f"{name} seed {args.seed}, {count} lines: spaces "
              f"{t['lookups']} lookups ({t['text_hits']} by text), "
              f"{t['builds']} builds, "
              f"{_rate(t['lookups'] - t['builds'], t['lookups'])} hit, "
              f"kept weight {t['kept']} (peak {t['peak']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
