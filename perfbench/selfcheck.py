"""Generator self-check: the same seed gives byte-identical lines, and two
seeds give different lines with the same mix.

Usage (from the repository root): python3 perfbench/selfcheck.py

The mix of a stream is: good requests per command, traced lines, bad
lines per expected exit code, verbatim repeats and, for periodic_deep, lines
per degree band.  chain_heavy and periodic_deep must match exactly.
mixed_small places its two rare lines (one `reproduce`, one deep
`wedge(`) in seeded slots of every 5000 lines, so its counts may differ
by two lines per 5000; and a repeat copies a seeded earlier line, and a
small family yields repeats of its own when it runs out of new
parameters, so its per-command and repeat counts may differ by 5% more.
Exits 1 and names the difference when a check fails.
"""

from __future__ import annotations

import math
from collections import Counter

import workloads

SEEDS = (1, 2)
LINES = {"mixed_small": 10000, "chain_heavy": 720, "periodic_deep": 640}
RARE_PER = 5000
DRAWN_SHARE = 0.05


def mix(name: str, entries) -> Counter:
    out, seen = Counter(), set()
    lo, hi = map(math.log, workloads.DEGREE_RANGE)
    for text, trace, spec in entries:
        if "code" in spec:     # a bad line: its first word is drawn
            out[f"code {spec['code']}"] += 1
        else:
            out[f"cmd {spec['cmd']}"] += 1
        out["traced"] += trace
        out["repeats"] += text in seen
        seen.add(text)
        if name == "periodic_deep" and "degree" in spec:
            bands = workloads._BANDS
            x = (math.log(spec["degree"]) - lo) / (hi - lo)
            out[f"band {min(int(x * bands), bands - 1)}"] += 1
    return out


def check(name: str) -> list[str]:
    n, bad = LINES[name], []
    streams = [workloads.generate(name, s, n) for s in SEEDS]
    if workloads.generate(name, SEEDS[0], n) != streams[0]:
        bad.append(f"seed {SEEDS[0]} gives different lines on a second call")
    if [t for t, _, _ in streams[0]] == [t for t, _, _ in streams[1]]:
        bad.append(f"seeds {SEEDS} give the same lines")
    allowed = 2 * math.ceil(n / RARE_PER) if name == "mixed_small" else 0
    a, b = (mix(name, s) for s in streams)
    for key in sorted(set(a) | set(b)):
        drawn = name == "mixed_small" and key.startswith(("cmd ", "repeats"))
        if abs(a[key] - b[key]) > (allowed + drawn * DRAWN_SHARE
                                   * max(a[key], b[key])):
            bad.append(f"{key}: {a[key]} lines with seed {SEEDS[0]}, "
                       f"{b[key]} with seed {SEEDS[1]}")
    return bad


def main() -> int:
    failed = False
    for name in workloads.WORKLOADS:
        bad = check(name)
        print(f"{name}: {'ok' if not bad else 'FAILED'}")
        for line in bad:
            print(f"  {line}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
