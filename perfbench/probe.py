"""Set-up probe: a fresh interpreter imports cwbrauer.cli and reads the
workload's lines file, and nothing else.

Usage: python3 perfbench/probe.py SRC_DIR LINES_FILE

Prints one JSON object with the clock readings (time.perf_counter, which
is system-wide on Linux) after each step, so the caller can measure from
the moment it started the process.  Run under `python3 -X importtime`,
the same probe gives the import split: see `import_split`.
"""

import time

_T_MAIN = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def import_split(importtime_log: str) -> dict:
    """Seconds spent importing numpy, and cwbrauer's own import time
    without numpy, from the stderr of `python3 -X importtime probe.py`.
    numpy_s is 0 when cwbrauer.cli does not import numpy."""
    numpy_us = cwbrauer_us = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name, cumulative = name.strip(), int(parts[1])
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        if depth == 0 and name.split(".")[0] == "cwbrauer":
            cwbrauer_us += cumulative
    return {"numpy_s": numpy_us / 1e6,
            "cwbrauer_s": (cwbrauer_us - numpy_us) / 1e6}


def main() -> None:
    src, lines_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import cwbrauer.cli  # noqa: F401
    t1 = time.perf_counter()
    with open(lines_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t2 = time.perf_counter()
    print(json.dumps({"main": _T_MAIN, "cwbrauer": t1, "ready": t2,
                      "lines": len(lines)}))


if __name__ == "__main__":
    main()
