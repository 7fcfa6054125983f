"""The two caches: built spaces (`spaces`, keyed by label) and cochain
presentations (`chaincx`, keyed by del_n, del_{n+1} and the modulus).

They must share work between requests on the same space and change no
answer, no error and no exit code: hits return the very objects an
earlier request built, both caches stay within their bounds and evict
the least recently used entry, refusals are never kept, and the output
corpus reads the same from cold and from warm caches."""

import io
import json
from pathlib import Path

import pytest

from cwbrauer import chaincx, intlin, spaces
from cwbrauer.chaincx import ChainComplex, bockstein, uct_decompose
from cwbrauer.cli import (EXIT_OK, EXIT_PARSE, EXIT_SEMANTIC,
                          EXIT_UNSUPPORTED, execute, parse_request, run_batch,
                          run_line)
from cwbrauer.errors import SemanticError
from cwbrauer.grammar import format_complex, parse_space

DATA = Path(__file__).parent / "data"

DENSE_LITERAL = ("complex{cells 0: 2; cells 1: 2; cells 2: 1; "
                 "boundary 1: [[2, -4], [3, -6]]; boundary 2: [[2], [1]]}")


def run_json(line, trace=False):
    out = io.StringIO()
    code = run_line(line, True, trace, out=out)
    return code, json.loads(out.getvalue())


def _counting(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def count(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, count)
    return calls


@pytest.mark.parametrize("line", [
    "uct product(lens(4, 3), moore3(6)) 3",
    "uct wedge(sphere(2), moore3(4)) 2",
    "uct lens_periodic(6) 1000",
    f"uct {DENSE_LITERAL} 1",
])
def test_same_space_text_shares_one_space_and_its_work(monkeypatch, line):
    """Below the top degree: above it a complex hands out a new
    zero-shaped boundary on each call, whose elimination is empty."""
    first = parse_request(line).args[0]
    want = execute(parse_request(line))
    built = _counting(monkeypatch, ChainComplex, "__init__")
    again = parse_request(line)
    assert again.args[0] is first and built == []
    eliminated = _counting(monkeypatch, intlin, "_smith_diagonal")
    presented = _counting(monkeypatch, chaincx.SubquotientPresentation,
                          "__init__")
    assert execute(again) == want
    assert eliminated == [] and presented == []


def test_spaces_are_evicted_least_recently_used_first():
    cap = spaces.MAX_BUILT_SPACES
    first = spaces.sphere(1)
    for n in range(2, cap + 2):  # cap + 1 distinct builds in all
        spaces.sphere(n)
    assert len(spaces._built_spaces) == cap
    assert spaces.sphere(cap + 1) is spaces.sphere(cap + 1)
    assert spaces.sphere(1) is not first
    assert spaces.sphere(1) == first  # rebuilt, equal by value

    spaces._built_spaces.clear()
    kept = [spaces.sphere(n) for n in range(1, cap + 1)]
    assert spaces.sphere(1) is kept[0]  # now the most recently used
    spaces.sphere(cap + 1)
    assert spaces.sphere(1) is kept[0]
    assert spaces.sphere(2) is not kept[1]


def test_presentation_cache_stays_within_its_bound():
    """Each Bockstein reads the presentations of H^1(; Z/m) and H^2."""
    per = spaces.lens_periodic(3).chains
    for m in range(2, 24):
        assert str(bockstein(per, 1, m).domain) == (
            "Z/3" if m % 3 == 0 else "0")
        info = chaincx._presented.cache_info()
        assert info.currsize <= chaincx.MAX_CACHED_PRESENTATIONS
    assert info.currsize == chaincx.MAX_CACHED_PRESENTATIONS == info.maxsize


def test_refusals_are_not_kept():
    not_a_complex = ("homology complex{cells 0: 1; cells 1: 1; cells 2: 1; "
                     "boundary 1: [[1]]; boundary 2: [[1]]} 1")
    for line in ("homology sphere(0) 0", not_a_complex):
        for _ in range(2):
            code, report = run_json(line)
            assert code == EXIT_SEMANTIC, report
    assert "del_1 del_2 != 0" in report["error"]["message"]
    assert spaces._built_spaces == {}
    over_cap = "homology product(lens(2, 30), lens(2, 30)) 1"
    assert run_json("homology lens(2, 30) 1")[0] == EXIT_OK
    for _ in range(2):
        code, report = run_json(over_cap)
        assert code == EXIT_UNSUPPORTED, report
        assert "at most 512 cells" in report["error"]["message"]
    assert list(spaces._built_spaces) == [("lens", (2, 30))]


def test_a_complex_and_its_literal_find_one_space_in_either_order(
        monkeypatch, cold_caches):
    """A finite space is keyed by the value of its chains, so
    from_complex and the literal text of the same chains share one
    entry: the second lookup, in either order, returns the space the
    first made and builds no ChainComplex."""
    c = ChainComplex([1, 2, 1], [[[0, 0]], [[3], [-3]]])
    first = spaces.from_complex(c)
    built = _counting(monkeypatch, ChainComplex, "__init__")
    assert parse_space(format_complex(c)) is first and built == []
    assert list(spaces._built_spaces) == [first.label]

    cold_caches()
    monkeypatch.undo()
    first = parse_space(format_complex(c))
    assert first.cells is not c   # built from the literal's text
    built = _counting(monkeypatch, ChainComplex, "__init__")
    assert spaces.from_complex(c) is first and built == []


def test_a_literal_with_nonzero_del_del_is_refused_every_time():
    """Refused while a space with the same ranks is kept, and never kept
    itself."""
    kept = parse_space("complex{cells 0: 1; cells 1: 1; cells 2: 1; "
                       "boundary 2: [[1]]}")
    for _ in range(3):
        with pytest.raises(SemanticError, match="del_1 del_2 != 0"):
            parse_space("complex{cells 0: 1; cells 1: 1; cells 2: 1; "
                        "boundary 1: [[1]]; boundary 2: [[1]]}")
    assert list(spaces._built_spaces.values()) == [kept]


def test_presentations_are_keyed_by_modulus():
    for order in ((2, 4), (4, 2)):
        for m in order:
            _, report = run_json(f"bockstein lens(4, 5) 2 mod {m}")
            assert report["result"]["domain"] == f"Z/{m}"


def test_periodic_degrees_a_period_apart_share_one_presentation():
    for n in (4, 6, 1000):
        _, report = run_json(f"uct lens_periodic(6) {n}")
        assert report["result"]["total"] == "Z/6"
    info = chaincx._presented.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 2, 1)


def test_equal_complexes_built_apart_share_one_presentation():
    def build():
        return ChainComplex([1, 2, 1], [[[0, 0]], [[3], [-3]]])
    assert build() is not build()
    assert (str(uct_decompose(build(), 2).total)
            == str(uct_decompose(build(), 2).total) == "Z/3")
    info = chaincx._presented.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_finite_complex_above_its_top_gives_the_trivial_group():
    """lens(4, 5) has top degree 5.  Above it the boundaries are
    zero-shaped, and each degree and modulus keeps its own entry.  uct
    reads H^n, and bockstein reads H^n(; Z/2) and H^{n+1}.  So uct finds
    the entries of H^6 and H^7 that bockstein made, and H^8 hits the
    entry of H^7: both read two 0 x 0 boundaries.  No other lookup
    hits."""
    want = {5: ("Z", "Z/2"), 6: ("0", "0"), 7: ("0", "0")}
    for n, (integral, mod2) in want.items():
        _, report = run_json(f"uct lens(4, 5) {n}")
        assert report["result"]["total"] == integral
        _, report = run_json(f"bockstein lens(4, 5) {n} mod 2")
        assert report["result"]["domain"] == mod2
    info = chaincx._presented.cache_info()
    assert (info.hits, info.misses) == (3, 6)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
def test_corpus_reads_the_same_from_cold_and_warm_caches(as_json, trace):
    lines = (DATA / "corpus.txt").read_text(encoding="utf-8").splitlines()
    name = f"corpus.{'json' if as_json else 'text'}{'.trace' if trace else ''}.out"
    want = (DATA / name).read_text(encoding="utf-8")
    for _ in ("cold", "warm"):
        out = io.StringIO()
        assert run_batch(lines, as_json, trace, out=out) == EXIT_PARSE
        assert out.getvalue() == want
