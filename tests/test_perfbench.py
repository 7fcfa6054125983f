"""Smoke test of the benchmark's traced replay.

One block of each workload (seed 3) goes through `perfbench/worker.py
trace` in a child process: every answer is checked by the benchmark's
own oracles, and the traced output must match the untraced output byte
for byte.  A renamed function the tracer looks up, or a wrong answer,
fails here before a benchmark run would.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwbrauer

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = Path(cwbrauer.__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["mixed_small", "chain_heavy",
                                  "periodic_deep"])
def test_traced_replay_of_one_block_is_correct(name, tmp_path):
    workloads = _workloads()
    entries = workloads.generate(name, 3, workloads.BLOCK[name])
    lines, specs = tmp_path / "lines", tmp_path / "specs"
    lines.write_text("".join(("--trace " if trace else "") + text + "\n"
                             for text, trace, _ in entries), encoding="utf-8")
    specs.write_text("".join(json.dumps(spec) + "\n"
                             for _, _, spec in entries), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "trace", str(SRC),
         str(lines), str(specs), str(tmp_path / "spans.bin")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] == len(entries)
    assert result["failures"] == []
    assert (tmp_path / "spans.bin").stat().st_size > 0
