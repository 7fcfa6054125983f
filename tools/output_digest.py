"""Output-identity check: one sha256 over everything the CLI prints for a
fixed corpus of request lines.

The corpus is `perfbench.workloads.generate(name, 77, n)` for
mixed_small (n = 1200), chain_heavy (n = 240) and periodic_deep
(n = 900), plus `reproduce`.  Every line goes through `cli.run_line` in
four modes (json/text x traced/untraced), and the digest covers each
run's stdout, stderr and exit code.  One `--batch` run over 80 of the
lines, spread evenly, is added in json and in text.

A second digest covers malformed input: 2000 mutants of the workload
lines, made by a seeded Random, each with one to three characters
inserted, dropped or swapped with the next, and one in ten a repeat of
an earlier mutant.  Most are refused with exit 2, 3 or 4, so this one
pins error messages, positions and exit codes.  Each mutant runs in the
same four modes, after the corpus, in the same process.

    python3 tools/output_digest.py [ROOT] [--records FILE]

ROOT is the checkout whose `src/` and `perfbench/` are used (default:
the one holding this script), so the same script can digest an older
commit unpacked elsewhere.  It prints, for the corpus and then for the
mutants, the number of outputs and the digest; a refactor that keeps
every output prints the same four values as its parent.

With --records, FILE gets every record hashed, one per line, as the
exact bytes hashed: the corpus records, then the mutant records.  A
`diff` of the files written for two checkouts lists every output that
differs between them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

SEED = 77
SIZES = (("mixed_small", 1200), ("chain_heavy", 240), ("periodic_deep", 900))
BATCH_LINES = 80
MUTANTS = 2000
# Characters a mutant may gain: ones the grammar reads, and "$", "é",
# an Arabic-Indic digit, a no-break space and \x1c (a blank to \s).
INSERTED = "0123456789 xZk()[]{},;:^+/-<>=$\u00e9\u0661\u00a0\x1c"


def corpus_lines() -> list[str]:
    from perfbench.workloads import generate
    lines = [text for name, n in SIZES for text, _, _ in generate(name, SEED, n)]
    return lines + ["reproduce"]


def mutated_lines(lines: list[str]) -> list[str]:
    """MUTANTS seeded mutants of lines, as the module docstring says."""
    rng = random.Random(SEED)
    out: list[str] = []
    while len(out) < MUTANTS:
        if out and rng.random() < 0.1:
            out.append(rng.choice(out))
            continue
        line = rng.choice(lines)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(line))
            edit = rng.randrange(3)
            if edit == 0:
                line = line[:i] + rng.choice(INSERTED) + line[i:]
            elif edit == 1:
                line = line[:i] + line[i + 1:]
            else:
                line = line[:i] + line[i + 1:i + 2] + line[i] + line[i + 2:]
        out.append(line)
    return out


def _capture(call) -> tuple:
    """(exit code, stdout, stderr) of call(out); an escaped exception is
    recorded by its type and message in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(out)
        except Exception as e:  # a defect is an output too
            code = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def _runs(lines: list[str]):
    """(line number, json, traced, exit code, stdout, stderr) of every
    line in the four modes."""
    from cwbrauer import cli
    for i, line in enumerate(lines):
        for as_json in (True, False):
            for trace in (False, True):
                yield (i, as_json, trace, *_capture(
                    lambda out: cli.run_line(line, as_json, trace, out=out)))


def outputs():
    """(label, exit code, stdout, stderr) of every run, in a fixed order:
    the corpus, then its batch runs."""
    from cwbrauer import cli
    lines = corpus_lines()
    yield from _runs(lines)
    step = len(lines) // BATCH_LINES
    batch = lines[::step][:BATCH_LINES]
    for as_json in (True, False):
        yield ("batch", as_json, True, *_capture(
            lambda out: cli.run_batch(batch, as_json, True, out=out)))


def _digest(records, sink=None) -> str:
    """Count and sha256 of the records' JSON lines; each line is also
    written to sink, a binary file, when one is given."""
    digest = hashlib.sha256()
    count = 0
    for record in records:
        line = json.dumps(record).encode() + b"\n"
        digest.update(line)
        if sink is not None:
            sink.write(line)
        count += 1
    return f"{count} outputs, sha256 {digest.hexdigest()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Digest the CLI's outputs on a fixed corpus and on "
                    "its seeded mutants.")
    ap.add_argument("root", nargs="?",
                    default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and perfbench/ are used")
    ap.add_argument("--records", metavar="FILE",
                    help="also write every record hashed, one per line")
    ns = ap.parse_args(argv)
    root = Path(ns.root)
    sys.path[:0] = [str(root / "src"), str(root)]
    records = (open(ns.records, "wb") if ns.records
               else contextlib.nullcontext())
    with records as sink:
        print(_digest(outputs(), sink))
        print("mutants: "
              + _digest(_runs(mutated_lines(corpus_lines()[:-1])), sink))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
