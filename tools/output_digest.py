"""Output-identity check: one sha256 over everything the CLI prints for a
fixed corpus of request lines.

The corpus is `perfbench.workloads.generate(name, 77, n)` for
mixed_small (n = 1200), chain_heavy (n = 240) and periodic_deep
(n = 900), plus `reproduce`.  Every line goes through `cli.run_line` in
four modes (json/text x traced/untraced), and the digest covers each
run's stdout, stderr and exit code.  One `--batch` run over 80 of the
lines, spread evenly, is added in json and in text.

    python3 tools/output_digest.py [ROOT]

ROOT is the checkout whose `src/` and `perfbench/` are used (default:
the one holding this script), so the same script can digest an older
commit unpacked elsewhere.  It prints the number of outputs and the
digest; a refactor that keeps every output prints the same two values
as its parent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

SEED = 77
SIZES = (("mixed_small", 1200), ("chain_heavy", 240), ("periodic_deep", 900))
BATCH_LINES = 80


def corpus_lines() -> list[str]:
    from perfbench.workloads import generate
    lines = [text for name, n in SIZES for text, _, _ in generate(name, SEED, n)]
    return lines + ["reproduce"]


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


def outputs():
    """(label, exit code, stdout, stderr) of every run, in a fixed order."""
    from cwbrauer import cli
    lines = corpus_lines()
    for i, line in enumerate(lines):
        for as_json in (True, False):
            for trace in (False, True):
                yield (i, as_json, trace, *_capture(
                    lambda out: cli.run_line(line, as_json, trace, out=out)))
    step = len(lines) // BATCH_LINES
    batch = lines[::step][:BATCH_LINES]
    for as_json in (True, False):
        yield ("batch", as_json, True, *_capture(
            lambda out: cli.run_batch(batch, as_json, True, out=out)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root)]
    digest = hashlib.sha256()
    count = 0
    for record in outputs():
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    print(f"{count} outputs, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
