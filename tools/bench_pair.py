"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pair.py OUT.json [--parent REV]

Both sides run from fresh copies in one temporary directory: the parent
side is the `src/` of `git archive REV` (default HEAD), the change side
the `src/` of the working tree, and each gets a copy of the working
tree's `perfbench/`, so both sides run the same benchmark code.  For
each seed 1..10 both sides run

    python3 perfbench/run.py --workload all --seed SEED

once; odd seeds run the change first, even seeds the parent.  Every run
is written to OUT.json as soon as it ends, in the form
{command, parent_commit, note, runs: [{side, seed, result}]}, where
result is the JSON line the run printed.

At the end, for every end-to-end metric of BENCHMARK.json and every
workload, it prints each side's median and quartiles, the relative
change of the median, the parent's quartile distance relative to its
median, the metric's bound, a verdict, and how many pairs the change
won (ties count for neither).  The verdict is the first that holds of

    worse       the change's median is worse than the parent's by more
                than the bound;
    unresolved  the parent's quartile distance exceeds the bound, and
                some change run does not beat every parent run;
    gain        the change won at least 9/10 of the pairs, and its
                median is better than the parent's by more than the
                parent's quartile distance;
    ok          any other case.
Then, for every per-layer metric (from the traced run) and every
workload, each side's median and the relative change, which shows in
which layer a change of the end-to-end figures sits.

An existing OUT.json is never overwritten: the script exits 2 before
any run, naming the file.  To reprint the summary of an old record,
call `summarize(json.load(open("OUT.json")))` from this module.  A run
stopped by SIGTERM exits 143 and, as on any other exit, kills the
benchmark process it waits for and removes its temporary directory.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload all --seed {seed}"
SEEDS = range(1, 11)     # ten parent/change pairs


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def _prepare(side_dir: Path, parent: str | None) -> None:
    """side_dir/src from the parent commit (or the working tree when
    parent is None), beside a copy of the working tree's perfbench/."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "perfbench", side_dir / "perfbench", ignore=skip)
    if parent is None:
        shutil.copytree(ROOT / "src", side_dir / "src", ignore=skip)
        return
    archive = _git("archive", parent, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(side_dir, filter="data")


def _run(side_dir: Path, seed: int) -> dict:
    proc = subprocess.run(COMMAND.format(seed=seed).split(), cwd=side_dir,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {side_dir} (seed {seed}, exit "
                         f"{proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _relative(change: float, parent: float) -> str:
    return f"{change / parent - 1:+7.1%}" if parent else f"{'-':>7}"


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _won(parent: list, change: list, sign: int) -> int:
    """Pairs in which the change is better; sign is 1 when higher is
    better, -1 when lower is."""
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def _verdict(parent: list, change: list, sign: int, bound: float) -> str:
    """worse, unresolved, gain or ok for one metric on one workload, from
    runs paired by position (see the module docstring)."""
    q1, med_p, q3 = _quartiles(parent)
    gained = sign * (_quartiles(change)[1] - med_p)   # > 0: better
    if gained < -bound * abs(med_p):
        return "worse"
    every_run_beats = (min(sign * c for c in change)
                       > max(sign * p for p in parent))
    if q3 - q1 > bound * abs(med_p) and not every_run_beats:
        return "unresolved"
    if _won(parent, change, sign) >= 0.9 * len(parent) and gained > q3 - q1:
        return "gain"
    return "ok"


def summarize(record: dict) -> None:
    """Per workload and end-to-end metric: medians, quartiles, verdict,
    pairs won.  Per workload and per-layer metric: each side's median."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {(r["side"], r["seed"]): r["result"] for r in record["runs"]}
    seeds = sorted(s for side, s in runs if side == "change"
                   and ("parent", s) in runs)
    failed = {side: sum(r["failed"] for (sd, _), r in runs.items()
                        if sd == side) for side in ("parent", "change")}
    print(f"{len(seeds)} pairs; failed requests: parent {failed['parent']},"
          f" change {failed['change']}")
    print(f"{'metric':34} {'parent q1/med/q3':>26} {'change q1/med/q3':>26}"
          f" {'change':>7} {'spread':>6} {'bound':>5} {'verdict':10} won")
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = f"{workload['name']}.{metric['name']}"
            parent, change = ([runs[side, s]["metrics"][key]["value"]
                               for s in seeds] for side in ("parent", "change"))
            q_p, q_c = _quartiles(parent), _quartiles(change)
            sign = 1 if metric["better"] == "higher" else -1
            print(f"{key:34} "
                  + " ".join("{:8.4g}/{:8.4g}/{:8.4g}".format(*q)
                             for q in (q_p, q_c))
                  + f" {q_c[1] / q_p[1] - 1:+7.1%}"
                  f" {(q_p[2] - q_p[0]) / q_p[1]:6.1%}"
                  f" {metric['bound']:5.0%}"
                  f" {_verdict(parent, change, sign, metric['bound']):10}"
                  f" {_won(parent, change, sign)}/{len(seeds)}")
    print(f"{'per-layer metric (traced run)':44} {'parent med':>12}"
          f" {'change med':>12} {'change':>7}")
    for workload in spec["workloads"]:
        for metric in spec["per_layer"]:
            key = f"{workload['name']}.{metric['name']}"
            med = {side: statistics.median(runs[side, s]["metrics"][key]
                                           ["value"] for s in seeds)
                   for side in ("parent", "change")}
            print(f"{key:44} {med['parent']:12.4g} {med['change']:12.4g}"
                  f" {_relative(med['change'], med['parent'])}")


def _exit_on_sigterm(signum, frame):
    """Leave by SystemExit, so that the `with` blocks clean up."""
    raise SystemExit(143)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="JSON file to write")
    ap.add_argument("--parent", default="HEAD", help="parent revision")
    ns = ap.parse_args(argv)
    if ns.out.exists():
        print(f"bench_pair: {ns.out} exists; it is not overwritten (an old "
              "record is reprinted with summarize(json.load(...)))",
              file=sys.stderr)
        return 2
    parent = _git("rev-parse", "--short", ns.parent).decode().strip()
    record = {
        "command": COMMAND.format(seed="N"),
        "parent_commit": parent,
        "note": ("Seeds 1-10 each ran once on both sides, in the "
                 "order listed, alternating which side went first (odd "
                 "seeds: change first).  Both sides ran from fresh copies: "
                 f"the parent from the src/ of `git archive {parent}`, the "
                 "change from the src/ of the working tree, each beside a "
                 "copy of the working tree's perfbench/.  Time metrics are "
                 "in reference units (perfbench/README.md).  Written by "
                 "tools/bench_pair.py."),
        "runs": [],
    }
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        _prepare(dirs["parent"], parent)
        _prepare(dirs["change"], None)
        for seed in SEEDS:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            for side in order:
                result = _run(dirs[side], seed)
                record["runs"].append(
                    {"side": side, "seed": seed, "result": result})
                ns.out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"seed {seed} {side}: correct {result['correct']}, "
                      f"failed {result['failed']}", flush=True)
    summarize(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
