"""`tools/bench_pair.py`'s summary on a synthetic record: medians of both
tables, pairs won, and ties counting for neither side; its refusal to
overwrite a record; and the pinned digest of `tools/output_digest.py`."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "tools" / "bench_pair.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _row(out: str, key: str) -> list[str]:
    """The fields after `key` on its line; q1/med/q3 stays one field."""
    rows = [re.sub(r"/\s+", "/", line).split() for line in out.splitlines()
            if line.split() and line.split()[0] == key]
    assert len(rows) == 1, key
    return rows[0][1:]


def test_summarize_prints_medians_pairs_won_and_per_layer_medians(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {  # key: ((parent seed 1, seed 2), (change seed 1, seed 2))
        "chain_heavy.latency_p50_ms": ((2.0, 3.0), (1.0, 3.0)),
        "chain_heavy.throughput_rps": ((100.0, 200.0), (150.0, 150.0)),
        "chain_heavy.peak_rss_mb": ((40.0, 40.0), (41.0, 39.0)),
        "chain_heavy.intlin.snf_calls": ((10, 20), (5, 7)),
        "chain_heavy.chaincx.presentations": ((0, 0), (0, 0)),
    }
    runs = []
    for i, side in enumerate(("parent", "change")):
        for seed in (1, 2):
            metrics = {}
            for workload in spec["workloads"]:
                for metric in spec["end_to_end"] + spec["per_layer"]:
                    key = f"{workload['name']}.{metric['name']}"
                    value = values.get(key, ((1.0, 1.0), (1.0, 1.0)))
                    metrics[key] = {"value": value[i][seed - 1],
                                    "unit": metric["unit"]}
            runs.append({"side": side, "seed": seed, "result": {
                "correct": True, "attempted": 10, "failed": side == "change",
                "metrics": metrics}})
    _bench_pair().summarize({"runs": runs})
    out = capsys.readouterr().out

    assert out.splitlines()[0] == ("2 pairs; failed requests: parent 0, "
                                   "change 2")
    # lower is better; seed 2 ties and counts for neither side
    p50 = _row(out, "chain_heavy.latency_p50_ms")
    assert p50[0].split("/")[1] == "2.5" and p50[1].split("/")[1] == "2"
    assert p50[2] == "-20.0%" and p50[-1] == "1/2"
    # higher is better: won at seed 1, lost at seed 2
    rps = _row(out, "chain_heavy.throughput_rps")
    assert rps[2] == "+0.0%" and rps[-1] == "1/2"
    assert _row(out, "chain_heavy.peak_rss_mb")[-1] == "1/2"
    assert _row(out, "mixed_small.latency_p90_ms")[-1] == "0/2"
    # per-layer medians and their relative change; a zero median has none
    assert _row(out, "chain_heavy.intlin.snf_calls") == ["15", "6", "-60.0%"]
    assert _row(out, "chain_heavy.chaincx.presentations") == ["0", "0", "-"]
    assert _row(out, "periodic_deep.grammar.bytes") == ["1", "1", "+0.0%"]


def test_an_existing_record_is_refused_before_any_run(tmp_path, monkeypatch,
                                                       capsys):
    mod = _bench_pair()

    def no_run(*args):
        raise AssertionError("a run or a checkout was started")

    for name in ("_git", "_prepare", "_run"):
        monkeypatch.setattr(mod, name, no_run)
    out = tmp_path / "BENCH_old.json"
    out.write_text('{"runs": []}\n')
    assert mod.main([str(out)]) == 2
    assert out.read_text() == '{"runs": []}\n'
    err = capsys.readouterr().err
    assert str(out) in err and "summarize(json.load" in err


OUTPUT_DIGEST = ("9366 outputs, sha256 58dfaf030e6660a0fe8d40a5516224fc"
                 "7e291739a65a0b741304102a1d3c72e3")


def test_output_digest_is_pinned():
    """Every byte, message and exit code the CLI gives on the digest's
    fixed corpus is unchanged.  A change that alters an output on purpose
    updates this pin and lists every changed output in CHANGES.md."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == OUTPUT_DIGEST
