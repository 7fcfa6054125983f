"""The space cache (`spaces`, one key per space: its label, or a
complex{...} literal's text).

The space cache must share work between requests on the same space and
change no answer, no error and no exit code: hits return the very
objects an earlier request built, a literal repeated word for word is
found by its text before it is read, the cache stays within its bound
and evicts the least recently used entry, refusals are never kept, and
the output corpus reads the same from cold and from warm caches.  A
Bockstein reads Smith diagonals, which a boundary keeps, and a nonzero
one puts one diagonal matrix in Smith form each time."""

import importlib.util
import io
import json
import re
from pathlib import Path
from random import Random

import pytest

from cwbrauer import chaincx, grammar, intlin, spaces
from cwbrauer.chaincx import ChainComplex, bockstein
from cwbrauer.cli import (EXIT_OK, EXIT_PARSE, EXIT_SEMANTIC,
                          EXIT_UNSUPPORTED, execute, parse_request, run_batch,
                          run_line)
from cwbrauer.errors import SemanticError, UnsupportedComputation
from cwbrauer.grammar import format_complex, parse_space

from _oracles import cochain_presentation

ROOT = Path(__file__).resolve().parent.parent
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
    assert execute(again) == want
    assert eliminated == []


def test_spaces_are_evicted_least_recently_used_first():
    """A Moore space has three cells and weighs 4, so the budget keeps
    MAX_BUILT_CELLS // 4 of them."""
    cap = spaces.MAX_BUILT_CELLS // 4
    first = spaces.moore_3cell(1)
    for n in range(2, cap + 2):  # cap + 1 distinct builds in all
        spaces.moore_3cell(n)
    assert len(spaces._built_spaces) == cap
    assert spaces._built_spaces.weight == 4 * cap
    assert spaces.moore_3cell(cap + 1) is spaces.moore_3cell(cap + 1)
    assert spaces.moore_3cell(1) is not first
    assert spaces.moore_3cell(1) == first  # rebuilt, equal by value

    spaces._built_spaces.clear()
    assert spaces._built_spaces.weight == 0
    kept = [spaces.moore_3cell(n) for n in range(1, cap + 1)]
    assert spaces.moore_3cell(1) is kept[0]  # now the most recently used
    spaces.moore_3cell(cap + 1)
    assert spaces.moore_3cell(1) is kept[0]
    assert spaces.moore_3cell(2) is not kept[1]


def _literal(*ranks) -> str:
    """A complex{...} literal with these ranks and zero boundaries."""
    return ("complex{" + "; ".join(f"cells {n}: {r}"
                                   for n, r in enumerate(ranks)) + "}")


def test_kept_weight_stays_within_the_budget_over_seeded_builds():
    """Each space's weight is worked out here from what it was built
    of: 1 plus its cells, plus those of a literal factor that only its
    label holds.  A literal is kept under its text, every other space
    under its label.  After every build the kept weight is the sum of
    the kept spaces' weights, the newest space is kept, and the weight
    fits the budget unless that space is kept alone."""
    rng = Random(24)
    weight = {}
    kept = spaces._built_spaces
    for _ in range(400):
        kind = rng.randrange(5)
        key = None
        if kind == 0:
            n, top = rng.randint(2, 9), rng.randint(1, 60)
            x, w = spaces.lens_skeleton(n, top), 1 + top + 1
        elif kind == 1:
            x, w = spaces.lens_periodic(rng.randint(2, 99)), 1 + 2
        elif kind == 2:
            t1, t2 = rng.randint(1, 20), rng.randint(1, 20)
            a, b = spaces.lens_skeleton(2, t1), spaces.lens_skeleton(3, t2)
            weight[a.label], weight[b.label] = 1 + t1 + 1, 1 + t2 + 1
            x, w = spaces.product(a, b), 1 + (t1 + 1) * (t2 + 1)
        elif kind == 3:
            r = rng.randint(1, 300)
            key = _literal(1, r)
            x, w = parse_space(key), 1 + 1 + r
        else:
            r = rng.randint(1, 300)
            zero, lit = _literal(0), _literal(1, r)
            parse_space(zero)
            parse_space(lit)
            weight[zero], weight[lit] = 1, 1 + 1 + r
            x = parse_space(f"product({zero}, {lit})")
            w = 1 + 0 + (1 + r)   # no cells, but the literal's label
        key = x.label if key is None else key
        weight[key] = w
        assert next(reversed(kept)) == key and kept[key] is x
        assert kept.weight == sum(weight[k] for k in kept)
        assert kept.weight <= spaces.MAX_BUILT_CELLS or len(kept) == 1


def test_a_space_over_the_budget_is_kept_alone():
    over = spaces.MAX_BUILT_CELLS + 76
    spaces.sphere(2)
    big = spaces.from_complex(ChainComplex([over], []))
    assert list(spaces._built_spaces.values()) == [big]
    assert spaces._built_spaces.weight == 1 + over
    assert spaces.from_complex(ChainComplex([over], [])) is big
    small = spaces.sphere(2)
    assert list(spaces._built_spaces.values()) == [small]
    assert spaces._built_spaces.weight == 1 + 2


def test_a_near_cap_product_of_two_literals_is_built_once(monkeypatch):
    """22 x 23 = 506 cells, under the grammar's 512.  The product and
    both literals fit the budget together, so a repeat of the request
    finds all three and builds no ChainComplex."""
    text = f"product({_literal(1, 10, 11)}, {_literal(1, 11, 11)})"
    line = f"homology {text} 2"
    first = parse_request(line).args[0]
    assert sum(first.cells.ranks) == 506
    want = execute(parse_request(line))
    built = _counting(monkeypatch, ChainComplex, "__init__")
    for _ in range(3):
        again = parse_request(line)
        assert again.args[0] is first and execute(again) == want
    assert built == []
    assert len(spaces._built_spaces) == 3


def test_zero_cell_products_naming_distinct_literals_stay_in_budget():
    """product(complex{cells 0: 0}, L) has no cells, but its label keeps
    L's matrices alive, so it weighs L's cells.  The literal cells that
    the kept spaces name stay within the budget."""
    named = {}
    kept = spaces._built_spaces
    for r in range(40, 100):
        lit = _literal(1, r)
        x = parse_space(f"product({_literal(0)}, {lit})")
        assert sum(x.cells.ranks) == 0
        parse_space(lit)
        named[x.label] = named[lit] = 1 + r
        assert sum(named.get(key, 0) for key in kept) <= (
            spaces.MAX_BUILT_CELLS)
    assert len(kept) < 2 * spaces.MAX_BUILT_CELLS // 40


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _replay(monkeypatch, entries) -> list[list]:
    """Runs the benchmark entries through run_line and returns, per
    line, the labels of the spaces it built, read by a wrapper put
    around spaces._built."""
    built = []
    real = spaces._built

    def recorded(label, chains, key=None):
        def build():
            built[-1].append(label)
            return chains()
        return real(label, build, key)

    monkeypatch.setattr(spaces, "_built", recorded)
    for text, trace, _ in entries:
        built.append([])
        run_line(text, True, trace, out=io.StringIO())
    return built


def test_periodic_deep_builds_each_lens_space_once(monkeypatch):
    """A benchmark run of periodic_deep (seed 1, 256 lines) names 103
    distinct lens_periodic(n), and builds each of them once."""
    entries = _workloads().generate("periodic_deep", 1, 256)
    named = {("lens_periodic", (int(n),)) for text, _, _ in entries
             for n in re.findall(r"lens_periodic\((\d+)\)", text)}
    built = [label for line in _replay(monkeypatch, entries)
             for label in line]
    assert len(named) == 103
    assert sorted(built) == sorted(named)


def test_chain_heavy_sessions_build_their_spaces_once(monkeypatch):
    """The first block of chain_heavy (seed 1) is six sessions of six
    requests on one space each: the first request of a session builds
    its labels, the other five build nothing, and no label is built
    twice."""
    workloads = _workloads()
    per_session = len(workloads._SESSION_FORMS)
    entries = workloads.generate("chain_heavy", 1,
                                 workloads.BLOCK["chain_heavy"])
    built = _replay(monkeypatch, entries)
    assert len(built) == 6 * per_session
    for start in range(0, len(built), per_session):
        assert built[start]
        assert built[start + 1:start + per_session] == [[]] * (
            per_session - 1)
    labels = [label for line in built for label in line]
    assert len(labels) == len(set(labels))


def test_each_nonzero_bockstein_puts_one_diagonal_in_smith_form(
        monkeypatch):
    """A Bockstein H^1(; Z/m) -> H^2 = Z/3 has nonzero image exactly when
    3 divides m, and then it makes one transform elimination of the
    diagonal matrix of its domain's cyclic orders, the same modulus twice
    in a row included.  A zero one makes none."""
    per = spaces.lens_periodic(3).chains
    calls = []
    real = chaincx.smith_normal_form

    def record(a):
        calls.append(a.to_lists())
        return real(a)

    monkeypatch.setattr(chaincx, "smith_normal_form", record)
    for m in [*range(2, 24), 6]:
        calls.clear()
        assert str(bockstein(per, 1, m).domain) == (
            "Z/3" if m % 3 == 0 else "0")
        assert calls == ([[[3]]] if m % 3 == 0 else []), m


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


def test_a_repeated_literal_is_found_by_its_text_before_it_is_read(
        monkeypatch):
    """The second request on the same literal text returns the space
    kept under that text without scanning a token inside it, converting
    a matrix or building a complex, and makes it the most recently
    used."""
    line = f"homology {DENSE_LITERAL} 1"
    first = parse_request(line).args[0]
    kept = spaces._built_spaces
    assert list(kept.items()) == [(DENSE_LITERAL, first)]
    spaces.sphere(2)   # now the literal's space is the least recent
    scanned = []
    scan = grammar._scan

    def counted(src, i):
        for t in scan(src, i):
            scanned.append(t.at)
            yield t

    monkeypatch.setattr(grammar, "_scan", counted)
    built = (_counting(monkeypatch, intlin.IntMatrix, "__init__")
             + _counting(monkeypatch, ChainComplex, "__init__"))
    for _ in range(3):
        assert parse_request(line).args[0] is first
    assert next(reversed(kept)) == DENSE_LITERAL
    assert built == []
    # parse_request scans the text after "homology ": the literal's
    # offsets there are 0 to len(DENSE_LITERAL) - 1
    assert scanned and not [at for at in scanned
                            if 0 < at < len(DENSE_LITERAL)]


def test_a_second_spelling_gets_its_own_equal_space(monkeypatch):
    """A literal is kept under its exact text, and from_complex under
    the label, the value of the chains: a new spelling of the same
    chains, and the complex itself, each get a key and a space of their
    own, equal to the first and built from their own input.  So does a
    spelling with an Arabic-Indic digit, and a repeat of it finds it by
    its text."""
    c = ChainComplex([1, 2, 1], [[[0, 0]], [[3], [-3]]])
    text = format_complex(c)
    respelled = text.replace("; ", ";")
    first = parse_space(text)
    built = _counting(monkeypatch, ChainComplex, "__init__")
    second = parse_space(respelled)
    assert built == ["__init__"]
    assert spaces.from_complex(c).cells is c
    kept = spaces._built_spaces
    assert list(kept) == [text, respelled, first.label]
    assert first == second == kept[first.label] == spaces.from_complex(c)
    assert first is not second and first is not kept[first.label]
    assert parse_space(text) is first and parse_space(respelled) is second

    arabic = text.replace("cells 0: 1", "cells 0: \u0661")
    third = parse_space(arabic)
    assert list(kept) == [first.label, text, respelled, arabic]
    assert third == first and third is not kept[first.label]
    assert len(built) == 2
    assert parse_space(arabic) is third and len(built) == 2


@pytest.mark.parametrize("literal", [
    "complex{cells 0: 1; cells 1: 1; cells 2: 1; "
    "boundary 1: [[1]]; boundary 2: [[1]]}",
    "complex{cells 0: 1; cells 1: 600}",
], ids=["del-del-nonzero", "over-the-cell-cap"])
def test_a_refused_literal_leaves_no_index_entry(literal):
    """Refused on every request, and kept under no key."""
    for _ in range(2):
        with pytest.raises((SemanticError, UnsupportedComputation)):
            parse_space(literal)
    assert spaces._built_spaces == {}
    assert spaces._built_spaces.weight == 0


def test_eviction_and_a_cold_cache_empty_the_literal_index(cold_caches):
    """A literal with r cells in degree 1 weighs 2 + r.  Filling the
    budget with lens spaces evicts the literal and drops its text key; a
    cold cache drops every key."""
    text = _literal(1, 8)
    x = parse_space(text)
    kept = spaces._built_spaces
    assert list(kept.items()) == [(text, x)]
    top = 1
    while text in kept:
        spaces.lens_skeleton(2, top)
        top += 1
    assert not any(isinstance(key, str) for key in kept)
    assert parse_space(text) is not x and parse_space(text) == x

    parse_space(_literal(1, 9))
    assert {text, _literal(1, 9)} <= set(kept)
    cold_caches()
    assert kept == {} and kept.weight == 0


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


def test_periodic_degrees_a_period_apart_give_equal_bocksteins():
    """Degrees 3, 5 and 1001 read the same three boundaries, so they give
    the same matrix."""
    results = []
    for n in (3, 5, 1001):
        _, report = run_json(f"bockstein lens_periodic(6) {n} mod 2")
        result = report["result"]
        assert (result["domain"], result["codomain"]) == ("Z/2", "Z/6")
        assert not result["is_zero"]
        results.append(result["matrix"])
    assert results[0] == results[1] == results[2]


def test_equal_complexes_built_apart_give_equal_bocksteins():
    def build():
        return ChainComplex([1, 2, 1], [[[0, 0]], [[3], [-3]]])
    assert build() is not build()
    first, second = bockstein(build(), 1, 3), bockstein(build(), 1, 3)
    assert not first.is_zero()
    assert (first.domain, first.codomain, first.matrix) == (
        second.domain, second.codomain, second.matrix)


def test_finite_complex_above_its_top_gives_the_trivial_group(monkeypatch):
    """lens(4, 5) has top degree 5.  Above it the boundaries are
    zero-shaped.  uct reads the dual complex's diagonals and a Bockstein
    from degree 5 up has zero image (del_6 and above carry no invariant
    factor), so neither builds a presentation: the four built are those
    of H^5 to H^8 that the cochain-level oracle builds here, which give
    the groups uct gives."""
    want = {5: ("Z", "Z/2"), 6: ("0", "0"), 7: ("0", "0")}
    chains = spaces.lens_skeleton(4, 5).chains
    presented = _counting(monkeypatch, chaincx.SubquotientPresentation,
                          "__init__")
    for n, (integral, mod2) in want.items():
        _, report = run_json(f"uct lens(4, 5) {n}")
        assert report["result"]["total"] == integral
        _, report = run_json(f"bockstein lens(4, 5) {n} mod 2")
        assert report["result"]["domain"] == mod2
        assert report["result"]["is_zero"]
        group = cochain_presentation(chains, n, None).group
        assert str(group) == integral
    _, report = run_json("uct lens(4, 5) 8")
    assert report["result"]["total"] == "0"
    assert cochain_presentation(chains, 8, None).group.is_trivial
    assert len(presented) == 4


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
