"""Re-measure the fixed-input baseline figures listed in ROADMAP.md.

Usage (from the repository root): python3 perfbench/baseline.py

Each figure is the median of several repeats, timed the same way the
workloads time requests (cli.run_line with --json into a buffer), so the
numbers can be set beside the ones in perfbench/README.md.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
import time

from run import OUT, SRC, _import_split

REQUESTS = (
    ("reproduce, in process", "reproduce", 5),
    ("homology H_5 of lens(4,6) x lens(6,6) x lens(2,4)",
     "homology product(lens(4, 6), product(lens(6, 6), lens(2, 4))) 5", 7),
    ("homology lens_periodic(3) 8000", "homology lens_periodic(3) 8000", 5),
)


def _whole_process(repeats: int = 5) -> float:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "cwbrauer.cli", "brauer",
                        "moore3(6)"], check=True, capture_output=True,
                       env={"PYTHONPATH": str(SRC)})
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    empty = OUT / "baseline.lines"
    empty.write_text("")
    try:
        split = _import_split(empty, repeats=7)
    finally:
        empty.unlink()
    total = split["numpy_s"] + split["cwbrauer_s"]
    print(f"import cwbrauer.cli: {1e3 * total:.0f} ms, "
          f"of which numpy {1e3 * split['numpy_s']:.0f} ms")
    print(f"cwbrauer brauer 'moore3(6)', whole process: "
          f"{_whole_process():.3f} s")
    sys.path.insert(0, str(SRC))
    from cwbrauer import cli
    for label, line, repeats in REQUESTS:
        runs = []
        for _ in range(repeats + 1):     # the first run is a warm-up
            t0 = time.perf_counter()
            cli.run_line(line, as_json=True, trace=False, out=io.StringIO())
            runs.append(time.perf_counter() - t0)
        print(f"{label}: {1e3 * statistics.median(runs[1:]):.1f} ms")


if __name__ == "__main__":
    main()
