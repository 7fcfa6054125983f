"""`tools/bench_pair.py`'s summary on a synthetic record: medians of both
tables, pairs won, ties counting for neither side, and one verdict per
end-to-end metric; its refusal to overwrite a record, and its cleanup
when stopped by SIGTERM; the pinned digest of `tools/output_digest.py`;
`tools/cache_traffic.py` on short streams; the line counts of
`tools/src_lines.py`; `tools/replay_pair.py` on short streams, with
the working tree on both sides, and on a side whose output differs; and
`tools/mutants.py` on one mutant it kills, one that survives and one
whose text is stale."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

from cwbrauer.spaces import MAX_BUILT_CELLS

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
        # one record per verdict, in both directions of "better"
        "periodic_deep.latency_p50_ms": ((1.0, 1.0), (1.5, 1.5)),
        "periodic_deep.latency_p90_ms": ((1.0, 1.0), (1.2, 1.2)),
        "mixed_small.throughput_rps": ((100.0, 100.0), (70.0, 70.0)),
        "periodic_deep.throughput_rps": ((100.0, 101.0), (150.0, 160.0)),
        "mixed_small.setup_s": ((0.10, 0.15), (0.05, 0.06)),
        "chain_heavy.setup_s": ((0.10, 0.15), (0.01, 0.02)),
        "periodic_deep.setup_s": ((0.10, 0.15), (0.12, 0.09)),
        "periodic_deep.peak_rss_mb": ((40.0, 42.0), (39.0, 41.0)),
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
    _bench_pair().summarize({
        "command": "python3 perfbench/run.py --workload all --seed N",
        "runs": runs})
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
    # verdicts: worse past the bound; unresolved when the parent's spread
    # exceeds the bound, unless every change run beats every parent run;
    # gain on 9/10 pairs won and a median moved by more than the spread
    verdicts = {
        "periodic_deep.latency_p50_ms": "worse",       # +50% > 24%
        "periodic_deep.latency_p90_ms": "ok",          # +20% < 24%
        "mixed_small.throughput_rps": "worse",         # -30% > 20%
        "chain_heavy.latency_p50_ms": "unresolved",    # spread 60% > 24%
        "chain_heavy.throughput_rps": "unresolved",
        "periodic_deep.setup_s": "unresolved",
        "mixed_small.setup_s": "ok",   # every run beats, 0.07 < spread 0.075
        "chain_heavy.setup_s": "gain",                 # 0.11 > 0.075
        "periodic_deep.throughput_rps": "gain",        # 54.5 > 1.5
        "periodic_deep.peak_rss_mb": "ok",             # 2/2 won, 1 < 3
        "chain_heavy.peak_rss_mb": "ok",
        "mixed_small.latency_p90_ms": "ok",
    }
    for key, want in verdicts.items():
        assert _row(out, key)[-2] == want, key
    assert out.splitlines()[1].split()[-2:] == ["verdict", "won"]
    # per-layer medians and their relative change; a zero median has none
    assert _row(out, "chain_heavy.intlin.snf_calls") == ["15", "6", "-60.0%"]
    assert _row(out, "chain_heavy.chaincx.presentations") == ["0", "0", "-"]
    assert _row(out, "periodic_deep.grammar.bytes") == ["1", "1", "+0.0%"]


def test_summarize_reads_a_record_of_one_workload(capsys):
    """A run of one workload prints its end-to-end metrics without the
    workload prefix and no per-layer metrics; summarize reads which
    workload from the command and prints the end-to-end table alone."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {"peak_rss_mb": ((22.0, 22.2), (21.0, 21.2)),
              "throughput_rps": ((100.0, 100.0), (70.0, 70.0))}
    runs = []
    for i, side in enumerate(("parent", "change")):
        for seed in (1, 2):
            metrics = {m["name"]: {"value": values.get(
                m["name"], ((1.0, 1.0), (1.0, 1.0)))[i][seed - 1],
                "unit": m["unit"]} for m in spec["end_to_end"]}
            runs.append({"side": side, "seed": seed, "result": {
                "correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics}})
    _bench_pair().summarize({
        "command": "python3 perfbench/run.py --workload periodic_deep "
                   "--seed N",
        "runs": runs})
    out = capsys.readouterr().out

    assert out.splitlines()[0] == ("2 pairs; failed requests: parent 0, "
                                   "change 0")
    rss = _row(out, "periodic_deep.peak_rss_mb")
    assert rss[2] == "-4.5%" and rss[-2:] == ["gain", "2/2"]
    assert _row(out, "periodic_deep.throughput_rps")[-2:] == ["worse", "0/2"]
    rows = [line.split()[0] for line in out.splitlines()[2:]]
    assert rows == [f"periodic_deep.{m['name']}" for m in spec["end_to_end"]]


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


_SIGTERM_CHILD = """
import os, signal, sys, tempfile, time
import importlib.util

spec = importlib.util.spec_from_file_location("bench_pair", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
tempfile.tempdir = sys.argv[2]


def prepare(side_dir, parent):
    side_dir.mkdir()
    (side_dir / "placeholder").write_text("a copy of src/")


def run(side_dir, seed):
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(30)
    raise AssertionError("SIGTERM did not stop the run")


mod._git = lambda *args: b"0000000"
mod._prepare, mod._run = prepare, run
sys.exit(mod.main([sys.argv[3]]))
"""


def test_a_run_stopped_by_sigterm_removes_its_temporary_directory(tmp_path):
    """In a child process, so pytest's own signal handlers stay as they
    are: the first run sends SIGTERM to its own process, which exits 143
    and leaves nothing in the temporary directory."""
    temp = tmp_path / "temp"
    temp.mkdir()
    out = tmp_path / "BENCH_stopped.json"
    run = subprocess.run(
        [sys.executable, "-c", _SIGTERM_CHILD,
         str(ROOT / "tools" / "bench_pair.py"), str(temp), str(out)],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 143, run.stderr
    assert list(temp.iterdir()) == []
    assert not out.exists()


# The mutant digest moved when "unknown space builder" came to be placed
# at the builder's name rather than at the token after its "(": 1652
# mutant outputs changed in that column alone, and no corpus output.
OUTPUT_DIGEST = ("9366 outputs, sha256 738c87f4b767666fc414f9eebbcba697"
                 "be9e2f07be77fd9ad73b068bd685ce60\n"
                 "mutants: 8000 outputs, sha256 6f555b05950c48d291da8f7adf0c"
                 "96b46f7dec19185d951750a6541d1b2b60ef")


def test_output_digest_is_pinned(tmp_path):
    """Every byte, message and exit code the CLI gives on the digest's
    fixed corpus, and on its seeded malformed mutants, is unchanged.  A
    change that alters an output on purpose updates this pin and lists
    every changed output in CHANGES.md.  The --records file holds the
    lines hashed: the corpus's, then the mutants'."""
    records = tmp_path / "records.jsonl"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"),
         "--records", str(records)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == OUTPUT_DIGEST
    lines = records.read_bytes().splitlines(keepends=True)
    assert len(lines) == 9366 + 8000
    corpus, mutants = lines[:9366], lines[9366:]
    assert [hashlib.sha256(b"".join(part)).hexdigest()
            for part in (corpus, mutants)] == re.findall(
                r"sha256 ([0-9a-f]{64})", run.stdout)


def test_cache_traffic_counts_lookups_builds_and_weight():
    """64 lines of each workload.  A periodic_deep line looks up one
    lens_periodic(n), which weighs 1 + 2 cells, and 64 lines' worth of
    them all fit the budget, so the kept weight is 3 per build.  A
    stream that repeats one literal builds it once and finds it by its
    text after that."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cache_traffic.py"),
         "--count", "64"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "mixed_small", "chain_heavy", "periodic_deep"]
    pattern = (r"(\w+) seed 1, 64 lines: spaces (\d+) lookups "
               r"\((\d+) by text\), (\d+) builds, "
               r"[\d.]+% hit, kept weight (\d+) \(peak (\d+)\)")
    for line in lines:
        m = re.fullmatch(pattern, line)
        assert m, line
        lookups, by_text, builds, kept, peak = map(int, m.groups()[1:6])
        assert 0 < builds <= lookups and kept <= peak <= MAX_BUILT_CELLS
        assert by_text <= lookups - builds
    by_text = [int(re.fullmatch(pattern, line).group(3)) for line in lines]
    assert by_text[0] == by_text[2] == 0 < by_text[1]
    m = re.fullmatch(pattern, lines[2])
    lookups, _, builds, kept = map(int, m.groups()[1:5])
    assert lookups == 64 and kept == 3 * builds

    literal = "complex{cells 0: 1; cells 1: 2; boundary 1: [[0, 0]]}"
    t = _cache_traffic().traffic(
        [(f"homology {literal} 1", False, None)] * 3
        + [(f"uct {literal} 1", True, None)])
    assert (t["lookups"], t["text_hits"], t["builds"]) == (4, 3, 1)
    assert t["kept"] == t["peak"] == 1 + 3


def _cache_traffic():
    spec = importlib.util.spec_from_file_location(
        "cache_traffic", ROOT / "tools" / "cache_traffic.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _src_lines():
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_src_lines_skips_blank_and_comment_only_lines(tmp_path, capsys):
    package = tmp_path / "src" / "cwbrauer"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Doc."""\n\n# a comment\n   # an indented comment\n'
        'x = 1  # code with a comment\n\t\n    \n')
    (package / "b.py").write_text("def f():\n    return 2\n")
    (package / "notes.txt").write_text("not a module\n")
    assert _src_lines().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2 a.py", "     2 b.py", "     4 total"]


def test_src_lines_total_is_the_sum_of_the_modules():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "cwbrauer").glob("*.py"))
    assert [name for _, name in rows[:-1]] == modules
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1]) > 0


def _replay_pair():
    spec = importlib.util.spec_from_file_location(
        "replay_pair", ROOT / "tools" / "replay_pair.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_replay_pair_of_the_working_tree_with_itself(monkeypatch):
    """50 lines of each stream, the working tree's src/ on both sides:
    every stream has its line count, a control and a claim of two
    passes each, and the claim its gains by request kind; no output
    differs."""
    monkeypatch.syspath_prepend(str(ROOT))
    mod = _replay_pair()
    counts = dict.fromkeys(mod.STREAMS, 50)
    record, differing = mod.replay(ROOT / "src", ROOT / "src", counts,
                                   passes=2)
    assert differing == {"count": 0, "listed": []}
    assert list(record) == list(mod.STREAMS)
    for r in record.values():
        assert r["lines"] == 50
        assert set(r) == {"lines", "control", "claim"}
        for run in ("control", "claim"):
            assert set(r[run]) >= {"gains", "median", "q1", "q3", "won"}
            assert len(r[run]["gains"]) == 2 and 0 <= r[run]["won"] <= 2
        assert r["claim"]["by_kind"]
    assert {"homology", "bockstein"} <= set(record["chain_heavy"]["claim"]
                                            ["by_kind"])


def test_replay_pair_lists_an_output_that_differs():
    """A side whose answer to one line differs is counted and listed
    with both outputs, the stream, the run, the pass and the line."""
    mod = _replay_pair()

    class Cli:
        def __init__(self, odd):
            self.odd = odd

        def run_line(self, text, as_json, trace, out):
            out.write("odd" if self.odd and text == "b 1" else text)
            return 0

    class Spaces:
        _built_spaces = {}

    sides = ((Cli(False), Spaces), (Cli(True), Spaces))
    entries = [("a 1", False, None), ("b 1", True, None)]
    differing = {"count": 0, "listed": []}
    kinds = mod._pass(sides, entries, 0, differing, {"stream": "s"})
    assert [set(k) for k in kinds] == [{"a", "b"}] * 2
    assert differing == {"count": 1, "listed": [
        {"stream": "s", "line": 1, "text": "b 1",
         "parent": (0, "b 1"), "change": (0, "odd")}]}


def test_replay_pair_refuses_an_existing_record(tmp_path, capsys):
    out = tmp_path / "BENCH_old_replay.json"
    out.write_text("{}\n")
    assert _replay_pair().main([str(out)]) == 2
    assert out.read_text() == "{}\n"
    assert str(out) in capsys.readouterr().err


def test_mutation_gate_kills_a_mutant_and_fails_on_a_survivor(capsys):
    """A real mutant with a narrow selector is KILLED; a no-op mutant
    SURVIVES and makes the gate fail; an old text that no longer occurs
    fails it before any run."""
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    real = next(m for m in mod.MUTANTS
                if m.name == "cohomology modulus checked at < 1")
    noop = real._replace(name="no-op", new=real.old)
    start = time.perf_counter()
    assert mod.run([real, noop]) == 1
    assert time.perf_counter() - start < 10
    lines = capsys.readouterr().out.splitlines()
    assert [(line.split()[0], line.split("  ")[-2].strip()) for line in lines] \
        == [("KILLED", real.name), ("SURVIVED", "no-op")]
    assert mod.run([real._replace(old="no such text")]) == 1
    assert capsys.readouterr().out.startswith("STALE")
