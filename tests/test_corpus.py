"""Output identity on a fixed request corpus.

`data/corpus.txt` holds about eighty request lines: all twelve commands,
a dense 6 x 6 `complex{...}` literal, a three-factor product,
`lens_periodic` at degree 10^6, zero-boundary traces, lines refused with
exit 2, 3 and 4, and lines that pin the order of the argument checks.
The `corpus.*.out` files next to it are the `run_batch` output of that
corpus, recorded once and kept as the reference, in json and text, with
and without `--trace`.  Any change to an answer, an
error message, a trace line or the batch exit code shows here as a
byte difference.  A replay of the same corpus also checks that no
request makes a transform elimination of a boundary.
"""

import io
from pathlib import Path

import pytest

import cwbrauer
from cwbrauer import chaincx, intlin
from cwbrauer.cli import EXIT_PARSE, run_batch

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
def test_corpus_output_is_byte_identical(as_json, trace):
    lines = (DATA / "corpus.txt").read_text(encoding="utf-8").splitlines()
    out = io.StringIO()
    code = run_batch(lines, as_json, trace, out=out)
    name = f"corpus.{'json' if as_json else 'text'}{'.trace' if trace else ''}.out"
    want = (DATA / name).read_text(encoding="utf-8")
    assert code == EXIT_PARSE
    assert out.getvalue() == want


def test_no_request_makes_a_transform_elimination_of_a_boundary(
        monkeypatch):
    """Every transform elimination of the corpus is a `smith_normal_form`
    of a diagonal matrix: the cyclic orders of a Bockstein's domain.
    Boundaries and their transposes are only ever reduced to their
    diagonals or their rank, and no line reaches `unimodular_inverse`,
    so a benchmark run's `intlin.snf_calls` counts the Bocksteins'
    diagonal eliminations alone and `intlin.inverse_s` reads 0."""
    transformed = []
    real = intlin.smith_form

    def record(a, **transforms):
        if any(transforms.values()):
            transformed.append(a)
        return real(a, **transforms)

    # recorded, not raised: run_batch would turn an exception into an
    # internal-error report and go on
    reached = []

    def entry_point(name, fn):
        def wrapper(*args, **kwargs):
            reached.append((name, args[0]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(intlin, "smith_form", record)
    monkeypatch.setattr(chaincx, "smith_form", record)
    for mod in vars(cwbrauer).values():
        for name in ("smith_normal_form", "unimodular_inverse"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    entry_point(name, getattr(mod, name)))
    lines = (DATA / "corpus.txt").read_text(encoding="utf-8").splitlines()
    for trace in (False, True):
        assert run_batch(lines, True, trace, out=io.StringIO()) == EXIT_PARSE
    assert {name for name, _ in reached} == {"smith_normal_form"}
    asked = [a for _, a in reached]   # the corpus has nonzero Bocksteins
    assert len(transformed) == len(asked)
    assert all(t is a for t, a in zip(transformed, asked))
    for a in asked:
        assert all(a[i, j] == 0 for i in range(a.rows)
                   for j in range(a.cols) if i != j), a
