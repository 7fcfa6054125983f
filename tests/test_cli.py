"""End-to-end tests for the command line: every command, the exit-code
contract, batch mode, JSON determinism, and the reproduce suite."""

import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from math import gcd, prod
from pathlib import Path

import pytest

import cwbrauer
from cwbrauer import chaincx, cli, intlin
from cwbrauer.cli import (
    EXIT_BROKEN_PIPE, EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_REPRODUCE_FAIL,
    EXIT_SEMANTIC, EXIT_UNSUPPORTED, execute, main, parse_request,
    render_json, run_batch, run_line,
)
from cwbrauer.errors import ParseError, SemanticError, UnsupportedComputation
from cwbrauer.facts import FACTS
from cwbrauer.grammar import (MAX_COMPLEX_CELLS, MAX_COMPLEX_DEGREE,
                              MAX_GROUP_GENERATORS, MAX_PROFILE_MULTIPLICITY,
                              parse_group)
from cwbrauer.intlin import IntMatrix

from _oracles import rank_mod_p


def run(line, as_json=False, trace=False):
    out = io.StringIO()
    code = run_line(line, as_json, trace, out=out)
    return code, out.getvalue()


def run_json(line, trace=False):
    code, text = run(line, as_json=True, trace=trace)
    return code, json.loads(text)


# -- one happy path per command --------------------------------------------------------


def test_homology_command():
    code, text = run("homology moore3(6) 2")
    assert code == EXIT_OK
    assert "H_2 = Z/6" in text
    assert "citations:" in text

    code, text = run("homology lens_periodic(5) 7")
    assert code == EXIT_OK and "H_7 = Z/5" in text

    code, text = run("homology telescope(Z, x6) 1")
    assert code == EXIT_OK and "Z[1/2,1/3]" in text


def test_cohomology_command():
    code, text = run("cohomology moore3(6) 3")
    assert code == EXIT_OK and "H^3 = Z/6" in text
    code, text = run("cohomology lens(4, 5) 3 mod 4")
    assert code == EXIT_OK and "H^3(; Z/4) = Z/4" in text


def test_a_literal_with_nonzero_del_del_exits_3_at_every_slot_edge():
    """Literals whose del_1 del_2 has a digit of exactly the packed zero
    test's bound, as in the two families of `test_intlin`, are refused
    with exit 3 and the same message, in json and in text."""
    for k in (0, 1, 7, 40, 100):
        for cells_1, d1, d2 in ((1, "[[1]]", f"[[{2 ** k}, -1]]"),
                                (2, "[[1, 1]]",
                                 f"[[{2 ** k}, 0], [{2 ** k}, -1]]")):
            line = (f"homology complex{{cells 0: 1; cells 1: {cells_1}; "
                    f"cells 2: 2; boundary 1: {d1}; boundary 2: {d2}}} 1")
            code, report = run_json(line)
            assert code == EXIT_SEMANTIC, report
            assert report["error"] == {"code": 3,
                                       "message": "del_1 del_2 != 0",
                                       "type": "SemanticError"}
            code, text = run(line)
            assert (code, text) == (EXIT_SEMANTIC, "")


def test_uct_command():
    code, text = run("uct moore3(6) 3")
    assert code == EXIT_OK
    assert "H^3 = Z/6" in text and "Ext part Z/6" in text \
        and "Hom part 0" in text


def test_bockstein_command():
    code, report = run_json("bockstein moore3(4) 2 mod 4")
    assert code == EXIT_OK
    r = report["result"]
    assert r["domain"] == "Z/4" and r["codomain"] == "Z/4"
    assert not r["is_zero"]


def test_brauer_command():
    code, text = run("brauer moore3(6)")
    assert code == EXIT_OK
    assert "Br' = Z/6" in text and "Br = Z/6" in text
    assert "EQUAL (CompactSerre)" in text

    code, report = run_json("brauer k(Z/5, 2)")
    assert code == EXIT_OK
    r = report["result"]
    assert r["br_prime"]["group"] == "Z/5"
    assert r["br"]["group"] == "0"
    assert r["equality"]["verdict"] == "STRICT"

    code, report = run_json("brauer bg((Z/2)^w)")
    assert code == EXIT_OK
    assert report["result"]["br_prime"]["kind"] == "descriptor"


def test_phantom_command():
    code, text = run("phantom telescope(Z, x6) 2")
    assert code == EXIT_OK
    assert "phantom subgroup of H^2" in text and "divisible" in text
    code, text = run("phantom moore3(6) 3")
    assert code == EXIT_OK and "= 0" in text


def test_certify_command():
    code, text = run("certify sphere(3)", trace=True)
    assert code == EXIT_OK
    assert "EQUAL (CompactSerre)" in text
    assert "applicable rules" in text and "WoodwardDimLe4" in text

    code, report = run_json("certify lens_periodic(3)")
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "UNKNOWN"
    assert report["result"]["reason"] is None


def test_lim1_command():
    code, text = run("lim1 tower block [Z/4 -(x2)-> Z/4]")
    assert code == EXIT_OK and "VANISHES (JensenFinite)" in text
    code, text = run("lim1 tower block [Z -(x2)-> Z]")
    assert code == EXIT_OK and "INCONCLUSIVE" in text


def test_profile_brauer_command():
    code, text = run("profile-brauer (Z/2)^1 + (Z/4)^1 + (Z/8)^1")
    assert code == EXIT_OK and "Br'(BG) = Z/2 + Z/2 + Z/4" in text


def test_non_brauer_check_command():
    code, text = run("non-brauer-check (Z/3)^w with rule i>=1: J=(i, 2i]")
    assert code == EXIT_OK and "CERTIFIED_NOT_IN_BR" in text
    code, text = run("non-brauer-check (Z/3)^w with rule 1<=i<=9: J=(i, 2i]")
    assert code == EXIT_OK and "CONDITION_FAILS" in text
    code, text = run("non-brauer-check 0 with rule i>=1: J=(i, 3i]")
    assert code == EXIT_OK and text.splitlines()[0] == (
        "NOT_APPLICABLE: profile has only finitely many summands")


def test_mixed_primes_are_refused_before_a_large_prime_order():
    """The orders 2 and 3 already mix primes, so the 19-digit prime order
    after them is never trial-divided."""
    profile = "(Z/2)^w + (Z/3)^w + (Z/1000000000000000003)^w"
    t0 = time.perf_counter()
    code, text = run(f"non-brauer-check {profile} with rule i>=1: J=(i, 2i]")
    assert code == EXIT_OK and "NOT_APPLICABLE" in text
    code, text = run(f"catalog bg({profile})")
    assert code == EXIT_OK and "UNKNOWN" in text
    assert time.perf_counter() - t0 < 1.0


def test_catalog_command():
    code, text = run("catalog bpgl(5)")
    assert code == EXIT_OK and "bpgl(5):" in text and "EQUAL" in text
    code, text = run("catalog plus_construction")
    assert code == EXIT_OK and "plus_construction" in text
    code, _ = run("catalog no_such_fact")
    assert code == EXIT_SEMANTIC


@pytest.mark.parametrize("subject", [
    "bpgl(5)", "k(Q/Z, 2)", "k(Z/6, 2)", "k(Z^2 + Z/3, 4)",
    "bg((Z/2)^3 + (Z/4)^1)", "bg((Z/3)^w)", "bg((Z/2)^1 + (Z/3)^w)",
    "plus_construction", "compact_realization"])
def test_catalog_names_its_subject_in_canonical_text(subject):
    """A catalog space is named as the grammar prints it, and a fact by
    its key; each subject here is already canonical."""
    code, rep = run_json(f"catalog {subject}")
    assert code == EXIT_OK and rep["result"]["name"] == subject
    code, text = run(f"catalog {subject.replace(', ', ',')}")
    assert code == EXIT_OK and text.startswith(f"{subject}: ")


def test_reproduce_command():
    code, report = run_json("reproduce")
    assert code == EXIT_OK
    r = report["result"]
    assert r["failed"] == 0
    assert r["passed"] == len(r["items"]) >= 100
    assert all(row["status"] == "PASS" for row in r["items"])


# -- exit codes ------------------------------------------------------------------------


def test_exit_code_parse_error():
    code, _ = run("homology moore3(6")
    assert code == EXIT_PARSE
    code, _ = run("frobnicate moore3(6)")
    assert code == EXIT_PARSE
    code, report = run_json("homology moore3(6")
    assert code == EXIT_PARSE
    assert report["error"]["code"] == EXIT_PARSE
    assert report["error"]["type"] == "ParseError"


def test_exit_code_semantic_error():
    code, _ = run("homology sphere(0) 1")
    assert code == EXIT_SEMANTIC
    code, report = run_json("homology moore3(6) -1")
    assert code == EXIT_SEMANTIC
    assert report["error"]["type"] == "SemanticError"
    code, _ = run("bockstein moore3(6) 2 mod 1")
    assert code == EXIT_SEMANTIC


def test_exit_code_unsupported():
    code, report = run_json("homology k(Z/2, 2) 3")
    assert code == EXIT_UNSUPPORTED
    assert report["error"]["code"] == EXIT_UNSUPPORTED
    code, _ = run("cohomology telescope(Z, x2) 2")
    assert code == EXIT_UNSUPPORTED


def test_error_classes_carry_the_exit_codes():
    assert (ParseError.code, SemanticError.code,
            UnsupportedComputation.code) == (2, 3, 4)
    assert (EXIT_PARSE, EXIT_SEMANTIC, EXIT_UNSUPPORTED) == (2, 3, 4)


def test_error_text_goes_to_stderr(capsys):
    code = run_line("homology moore3(6", as_json=False, trace=False,
                    out=io.StringIO())
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


# -- determinism -----------------------------------------------------------------------


SAMPLE_LINES = (
    "homology moore3(6) 2",
    "brauer wedge(moore3(4), sphere(3))",
    "certify telescope(Z, x5)",
    "uct lens(3, 4) 4",
    "profile-brauer (Z/2)^w + (Z/9)^2",
    "lim1 tower prefix [Z/2 <-(x1)- Z/8] block [Z/4 -(x2)-> Z/8, Z/8 -(x1)-> Z/4]",
    "reproduce",
)


def test_json_output_is_byte_identical_across_runs():
    for line in SAMPLE_LINES:
        a = io.StringIO()
        b = io.StringIO()
        assert run_line(line, True, True, out=a) == EXIT_OK
        assert run_line(line, True, True, out=b) == EXIT_OK
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().encode() == b.getvalue().encode()


def test_trace_contains_snf_diagonals():
    code, report = run_json("homology moore3(6) 2", trace=True)
    assert code == EXIT_OK
    assert any("SNF diagonal" in t and "[6]" in t for t in report["trace"])
    code, report = run_json("homology moore3(6) 2", trace=False)
    assert "trace" not in report


# Recorded from the unrolling implementation that the degree window
# replaced: the trace names boundaries by their degree in the space.
GOLDEN_TRACE_TEXT = {
    "homology lens_periodic(5) 7": """\
H_7 = Z/5
citations: smith-normal-form
trace: SNF diagonal of boundary_7: [0]
trace: SNF diagonal of boundary_8: [5]
""",
    "bockstein lens_periodic(4) 3 mod 2": """\
Bockstein H^3(; Z/2) -> H^4: Z/2 -> Z/4, matrix [[2]]
citations: bockstein-sequence
trace: SNF diagonal of boundary_3: [0]
trace: SNF diagonal of boundary_4: [4]
trace: SNF diagonal of boundary_5: [0]
""",
}

GOLDEN_TRACE_JSON = {
    "homology lens_periodic(5) 7": """\
{
  "citations": [
    "smith-normal-form"
  ],
  "command": "homology",
  "request": "homology lens_periodic(5) 7",
  "result": {
    "group": "Z/5",
    "kind": "group"
  },
  "result_text": "H_7 = Z/5",
  "trace": [
    "SNF diagonal of boundary_7: [0]",
    "SNF diagonal of boundary_8: [5]"
  ]
}
""",
    "bockstein lens_periodic(4) 3 mod 2": """\
{
  "citations": [
    "bockstein-sequence"
  ],
  "command": "bockstein",
  "request": "bockstein lens_periodic(4) 3 mod 2",
  "result": {
    "codomain": "Z/4",
    "domain": "Z/2",
    "is_zero": false,
    "kind": "hom",
    "matrix": [
      [
        2
      ]
    ]
  },
  "result_text": "Bockstein H^3(; Z/2) -> H^4: Z/2 -> Z/4, matrix [[2]]",
  "trace": [
    "SNF diagonal of boundary_3: [0]",
    "SNF diagonal of boundary_4: [4]",
    "SNF diagonal of boundary_5: [0]"
  ]
}
""",
}


def test_periodic_trace_matches_golden_text():
    for line, want in GOLDEN_TRACE_TEXT.items():
        assert run(line, trace=True) == (EXIT_OK, want)
    for line, want in GOLDEN_TRACE_JSON.items():
        assert run(line, as_json=True, trace=True) == (EXIT_OK, want)


def _recording(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records the first argument of
    each call and keeps it alive, so no two records share an id."""
    seen = []
    real = getattr(owner, name)

    def record(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return seen


def test_tracing_a_periodic_request_builds_no_extra_complex(monkeypatch,
                                                          cold_caches):
    """The trace reads the boundaries the answer read, so tracing builds
    no ChainComplex an untraced request does not (both runs start from
    cold caches, so the space is built afresh for each)."""
    built = _recording(monkeypatch, chaincx.ChainComplex, "__init__")
    for line in ("homology lens_periodic(5) 1000", "brauer lens_periodic(5)"):
        counts = []
        for trace in (False, True):
            cold_caches()
            built.clear()
            assert run_json(line, trace=trace)[0] == EXIT_OK
            counts.append(len(built))
        assert counts[0] == counts[1], (line, counts)


def test_periodic_requests_build_no_chain_complex(monkeypatch):
    """A parsed request on a periodic space reads the PeriodicComplex
    itself at degree 10^6: no ChainComplex is built, traced or not.  Only
    parsing builds one, when PeriodicComplex checks its own data."""
    lines = {
        "homology lens_periodic(5) 1000000": "H_1000000 = 0",
        "cohomology lens_periodic(5) 1000000": "H^1000000 = Z/5",
        "cohomology lens_periodic(5) 1000001 mod 10":
            "H^1000001(; Z/10) = Z/5",
        "uct lens_periodic(5) 1000000":
            "H^1000000 = Z/5 with Ext part Z/5 and Hom part 0",
        "bockstein lens_periodic(5) 999999 mod 5":
            "Bockstein H^999999(; Z/5) -> H^1000000: Z/5 -> Z/5, "
            "matrix [[1]]",
        "brauer lens_periodic(5)":
            "Br' = 0; Br = undetermined; equality: UNKNOWN"}
    requests = [parse_request(line) for line in lines]
    built = _recording(monkeypatch, chaincx.ChainComplex, "__init__")
    for req in requests:
        for trace in (False, True):
            report = execute(req, trace=trace)
            assert report["result_text"] == lines[req.text], req.text
            assert ("trace" in report) == trace
    assert built == []


@pytest.mark.parametrize("space", ["product(lens(4, 3), lens(6, 3))",
                                   "lens_periodic(6)"])
def test_traced_requests_eliminate_each_boundary_once(monkeypatch, space,
                                                     cold_caches):
    """Counted at the elimination, not at the lookup: the trace prints the
    Smith diagonals that homology, uct and brauer already read, so a traced
    request eliminates exactly the boundary objects an untraced one does,
    each once.  Both runs start from cold caches, so the traced run cannot
    reuse what the untraced one built."""
    eliminated = _recording(monkeypatch, intlin, "_smith_diagonal")
    for line in (f"homology {space} 2", f"homology {space} 3",
                 f"uct {space} 3", f"brauer {space}"):
        runs = []
        for trace in (False, True):
            cold_caches()
            eliminated.clear()
            code, report = run_json(line, trace=trace)
            assert code == EXIT_OK
            assert len({id(a) for a in eliminated}) == len(eliminated), line
            runs.append([a.to_lists() for a in eliminated])
        assert any("SNF diagonal" in t for t in report["trace"]), line
        assert runs[0] == runs[1], line


@pytest.mark.parametrize("space,degrees", [
    ("complex{cells 0: 2; cells 1: 2; cells 2: 1; boundary 1: [[2, -4], "
     "[3, -6]]; boundary 2: [[2], [1]]}", (1, 1)),
    ("product(lens(4, 3), lens(6, 3))", (2, 3)),
], ids=["literal", "product"])
def test_traced_cohomology_reads_only_two_diagonals(monkeypatch, space,
                                                    degrees, cold_caches):
    """cohomology prints a group, so it reads the Smith diagonals of del_n
    and del_{n+1}: no transform SNF, no cochain presentation, and the
    trace prints the two diagonals the answer computed, each eliminated
    once."""
    def refuse(*args, **kwargs):
        raise AssertionError("transform SNF or presentation built")

    for mod in (intlin, chaincx):
        monkeypatch.setattr(mod, "smith_normal_form", refuse)
        monkeypatch.setattr(mod, "smith_form", refuse)
    monkeypatch.setattr(chaincx.SubquotientPresentation, "__init__", refuse)
    eliminated = _recording(monkeypatch, intlin, "_smith_diagonal")
    for n, coefficients in zip(degrees, ("", " mod 4")):
        line = f"cohomology {space} {n}{coefficients}"
        runs = []
        for trace in (False, True):
            cold_caches()
            eliminated.clear()
            code, report = run_json(line, trace=trace)
            assert code == EXIT_OK, report
            chains = parse_request(line).args[0].chains  # the kept space
            assert [id(a) for a in eliminated] == [
                id(chains.boundary(n)), id(chains.boundary(n + 1))], line
            runs.append(report["result_text"])
        assert report["trace"] == [
            f"SNF diagonal of boundary_{d}: "
            f"{list(intlin.smith_invariants(chains.boundary(d)))}"
            for d in (n, n + 1)]
        assert runs[0] == runs[1], line


def test_traced_bockstein_eliminates_a_repeated_block_once(monkeypatch):
    """In lens_periodic(4), del_5 is the block matrix del_3, so the three
    trace lines of a degree-3 Bockstein take two eliminations, both made
    by the answer: del_3 (and so del_5), then del_4."""
    eliminated = _recording(monkeypatch, intlin, "_smith_diagonal")
    code, report = run_json("bockstein lens_periodic(4) 3 mod 2", trace=True)
    assert code == EXIT_OK
    assert report["trace"] == ["SNF diagonal of boundary_3: [0]",
                               "SNF diagonal of boundary_4: [4]",
                               "SNF diagonal of boundary_5: [0]"]
    assert [a.to_lists() for a in eliminated] == [[[0]], [[4]]]


def test_a_bockstein_with_zero_image_builds_no_presentation(monkeypatch,
                                                            cold_caches):
    """In lens_periodic(k), del_j is k for even j and 0 for odd j.  The
    image of beta: H^n(; Z/2) -> H^{n+1} is the 2-torsion of H^{n+1}, so
    it is zero for k = 9 (9 is odd) and for n = 2 (del_3 = 0), and the
    answer reads Smith diagonals only.  For k = 4 and n = 3 it is Z/2,
    and the answer also puts the 1 x 1 diagonal matrix of its domain's
    order in Smith form.  No Bockstein builds a cochain presentation."""
    def refuse(*args, **kwargs):
        raise AssertionError("cochain presentation built")

    monkeypatch.setattr(chaincx.SubquotientPresentation, "__init__", refuse)
    transformed = _recording(monkeypatch, chaincx, "smith_normal_form")
    for line, want, eliminations in [
            ("bockstein lens_periodic(9) 3 mod 2",
             "Bockstein H^3(; Z/2) -> H^4: 0 -> Z/9, matrix [[]]", []),
            ("bockstein lens_periodic(4) 2 mod 2",
             "Bockstein H^2(; Z/2) -> H^3: Z/2 -> 0, matrix []", []),
            ("bockstein lens_periodic(4) 3 mod 2",
             "Bockstein H^3(; Z/2) -> H^4: Z/2 -> Z/4, matrix [[2]]",
             [[[2]]])]:
        for trace in (False, True):
            transformed.clear()
            code, report = run_json(line, trace=trace)
            assert code == EXIT_OK, report
            assert report["result_text"] == want
            assert [a.to_lists() for a in transformed] == eliminations


def test_traced_bockstein_eliminates_what_an_untraced_one_does(
        monkeypatch, cold_caches):
    """A Bockstein's answer reads the Smith diagonals of del_n, del_{n+1}
    and del_{n+2}, which are its three trace lines: a traced request
    eliminates exactly the boundaries that an untraced one eliminates,
    each once, with zero image or not."""
    eliminated = _recording(monkeypatch, intlin, "_smith_diagonal")
    for line, is_zero in [
            ("bockstein product(lens(4, 3), lens(6, 3)) 2 mod 2", False),
            ("bockstein product(lens(4, 3), lens(6, 3)) 3 mod 3", True),
            ("bockstein lens_periodic(6) 1001 mod 4", False),
            ("bockstein lens_periodic(6) 1000 mod 4", True)]:
        runs = []
        for trace in (False, True):
            cold_caches()
            eliminated.clear()
            code, report = run_json(line, trace=trace)
            assert code == EXIT_OK
            assert report["result"]["is_zero"] == is_zero, line
            assert len({id(a) for a in eliminated}) == len(eliminated), line
            runs.append([a.to_lists() for a in eliminated])
        assert len(report["trace"]) == 3
        assert runs[0] == runs[1], line


def _cyclic(order):
    return "0" if order == 1 else f"Z/{order}"


@pytest.mark.parametrize("n", [10**6, 10**9 + 1])
def test_periodic_queries_at_huge_degree_match_closed_forms(n):
    # lens_periodic(m): C_k = Z, del_k = m for even k >= 2, 0 for odd k.
    # Closed forms for k >= 1: H_k = Z/m (k odd) or 0; H^k = Z/m (k even)
    # or 0; H^k(; Z/q) = Z/gcd(m, q); the Bockstein H^k(; Z/q) -> H^{k+1}
    # is injective, onto the subgroup of order gcd(m, q) when k is odd.
    odd = n % 2 == 1
    calls = []

    def ask(line):
        start = time.perf_counter()
        code, report = run_json(line)
        calls.append(time.perf_counter() - start)
        assert code == EXIT_OK, line
        return report["result"]

    for m in (4, 6):
        space = f"lens_periodic({m})"
        assert ask(f"homology {space} {n}")["group"] == (
            _cyclic(m) if odd else "0")
        assert ask(f"cohomology {space} {n}")["group"] == (
            "0" if odd else _cyclic(m))
        u = ask(f"uct {space} {n}")
        assert u["degree"] == n
        assert (u["total"], u["ext_part"], u["hom_part"]) == (
            ("0", "0", "0") if odd else (_cyclic(m),) * 2 + ("0",))
        for q in (2, 3, 4, 9):
            g = gcd(m, q)
            r = ask(f"cohomology {space} {n} mod {q}")
            assert (r["group"], r["degree"], r["modulus"]) == (
                _cyclic(g), n, q)
            b = ask(f"bockstein {space} {n} mod {q}")
            assert b["domain"] == _cyclic(g)
            assert b["codomain"] == (_cyclic(m) if odd else "0")
            assert b["is_zero"] == (g == 1 or not odd)
            if odd and g > 1:
                [[entry]] = b["matrix"]
                assert gcd(entry, m) == m // g   # an element of order g
    # unrolling the complex up to degree n needed minutes and gigabytes
    assert max(calls) < 1.0


# -- batch mode ------------------------------------------------------------------------


BATCH = """\
# a comment, then a blank line

homology moore3(6) 2
brauer sphere(4)
homology sphere(0) 1
certify moore3(9)
"""


def test_batch_keeps_order_and_reports_first_bad_code():
    out = io.StringIO()
    code = run_batch(BATCH.splitlines(), as_json=True, trace=False, out=out)
    assert code == EXIT_SEMANTIC
    reports = json.loads(out.getvalue())
    assert len(reports) == 4
    assert reports[0]["result_text"].startswith("H_2 = Z/6")
    assert "error" in reports[2]
    assert reports[3]["result"]["verdict"] == "EQUAL"


def test_batch_refuses_deep_nesting_and_answers_the_other_lines():
    deep = "sphere(2)"
    for _ in range(600):
        deep = f"wedge({deep}, sphere(2))"
    lines = ["homology moore3(6) 2", f"homology {deep} 2",
             "cohomology lens_periodic(3) 4"]
    out = io.StringIO()
    code = run_batch(lines, as_json=True, trace=False, out=out)
    assert code == EXIT_UNSUPPORTED
    reports = json.loads(out.getvalue())
    assert [r["request"] for r in reports] == lines
    assert reports[0]["result"]["group"] == "Z/6"
    assert reports[1]["error"]["code"] == EXIT_UNSUPPORTED
    assert reports[1]["error"]["type"] == "UnsupportedComputation"
    assert reports[2]["result"]["group"] == "Z/3"


def _circle_power(k):
    text = "sphere(1)"
    for _ in range(k - 1):
        text = f"product(sphere(1), {text})"
    return text


def test_complex_size_caps_refuse_at_once_and_answer_below():
    # at the cell cap: 32 * 16 cells, every degree at most 16 wide
    assert MAX_COMPLEX_CELLS == 32 * 16
    code, rep = run_json("homology product(lens(2, 31), lens(2, 15)) 31")
    assert code == EXIT_OK
    # Kuenneth: Z from H_31 (x) H_0, and Z/2 from Tor(H_p, H_q) for the
    # seven odd q = 1, 3, ..., 13 with p = 30 - q
    assert rep["result"]["group"] == "Z + " + " + ".join(["Z/2"] * 7)
    below = [f"homology complex{{cells 0: 1; cells 3: {MAX_COMPLEX_CELLS - 1}}} 0",
             f"homology sphere({MAX_COMPLEX_DEGREE}) {MAX_COMPLEX_DEGREE}",
             f"homology complex{{cells {MAX_COMPLEX_DEGREE}: 1}} 0",
             f"homology lens(3, {MAX_COMPLEX_CELLS - 1}) 5"]
    for line in below:
        code, rep = run_json(line)
        assert code == EXIT_OK, line
    over_cells = [
        "homology wedge(product(lens(2, 31), lens(2, 15)), sphere(1)) 1",
        f"homology complex{{cells 0: 1; cells 3: {MAX_COMPLEX_CELLS}}} 0",
        f"homology lens(3, {MAX_COMPLEX_CELLS}) 5",
        f"homology {_circle_power(12)} 1"]
    over_degree = [
        f"homology sphere({MAX_COMPLEX_DEGREE + 1}) 1",
        f"homology complex{{cells {MAX_COMPLEX_DEGREE + 1}: 1}} 0",
        f"homology product(sphere({MAX_COMPLEX_DEGREE}), sphere(1)) 1",
        "homology sphere(100000000) 2"]
    cap = f"at most {MAX_COMPLEX_CELLS} cells up to degree {MAX_COMPLEX_DEGREE}"
    for line in over_cells + over_degree:
        t0 = time.perf_counter()
        code, rep = run_json(line)
        assert time.perf_counter() - t0 < 1.0, line
        assert code == EXIT_UNSUPPORTED, line
        assert rep["error"]["type"] == "UnsupportedComputation"
        assert cap in rep["error"]["message"], line


_GROUPS = (f"group literal has more than {MAX_GROUP_GENERATORS} "
           "cyclic generators")
_PROFILES = (f"profile literal has more than {MAX_PROFILE_MULTIPLICITY} "
             "finite cyclic summands")
_LONG = "7" * 4400


@pytest.mark.parametrize("line, message, column", [
    # the column counts from the first character after the command
    ("homology k(Z^99999999999, 2) 2", _GROUPS, 3),
    (f"homology k(Z^{MAX_GROUP_GENERATORS + 1}, 2) 2", _GROUPS, 3),
    ("homology k(" + " + ".join(["Z/2"] * (MAX_GROUP_GENERATORS + 1))
     + ", 2) 2", _GROUPS, 3),
    (f"brauer k(Z/3 + Z^{MAX_GROUP_GENERATORS}, 2)", _GROUPS, 3),
    ("lim1 tower block [Z^2000000 -(id)-> Z^2000000]", _GROUPS, 14),
    (f"lim1 tower prefix [Z <-(x2)- Z^{MAX_GROUP_GENERATORS + 1}] "
     "block [Z -(id)-> Z]", _GROUPS, 25),
    ("catalog bg((Z/2)^3000000)", _PROFILES, 4),
    ("brauer bg((Z/4)^99999999999)", _PROFILES, 4),
    ("profile-brauer (Z/4)^99999999999", _PROFILES, 1),
    (f"profile-brauer (Z/4)^{MAX_PROFILE_MULTIPLICITY + 1}", _PROFILES, 1),
    (f"profile-brauer (Z/2)^{MAX_PROFILE_MULTIPLICITY} + (Z/4)^w + (Z/8)^1",
     _PROFILES, 1),
    (f"non-brauer-check (Z/3)^w + (Z/9)^{MAX_PROFILE_MULTIPLICITY + 1} "
     "with rule i>=1: J=(i, 2i]", _PROFILES, 1),
    # an entry too long for int() in a tower map: block, then prefix
    (f"lim1 tower block [Z -([[{_LONG}]])-> Z]",
     "integer literal of 4400 digits is too long", 20),
    (f"lim1 tower prefix [Z <-([[1, {_LONG}]])- Z^2] block [Z -(id)-> Z]",
     "integer literal of 4400 digits is too long", 25),
], ids=["k-free", "k-free-over", "k-torsion-over", "k-mixed-over",
        "tower-block", "tower-prefix", "bg-catalog", "bg-brauer",
        "profile-huge", "profile-over", "profile-mixed-over",
        "non-brauer-over", "tower-block-long-entry",
        "tower-prefix-long-entry"])
def test_group_and_profile_bounds_refuse_at_once(line, message, column):
    t0 = time.perf_counter()
    code, rep = run_json(line)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_UNSUPPORTED, rep
    assert rep["error"]["message"] == f"{message} (line 1, column {column})"


def test_group_and_profile_literals_at_the_bounds_answer():
    g, m = MAX_GROUP_GENERATORS, MAX_PROFILE_MULTIPLICITY
    code, rep = run_json(f"lim1 tower block [Z^{g} -(x2)-> Z^{g}]")
    assert code == EXIT_OK
    # x2 on a free group: the images 2^k Z^g shrink for ever
    assert rep["result"]["verdict"] == "INCONCLUSIVE"
    code, rep = run_json(f"homology k(Z^{g - 1} + Z/2, 2) 2")
    assert code == EXIT_OK
    assert rep["result"]["group"] == f"Z^{g - 1} + Z/2"
    code, rep = run_json(f"profile-brauer (Z/4)^{m}")
    assert code == EXIT_OK
    # Lambda^2 of (Z/4)^m is (Z/4)^(m choose 2)
    assert rep["result"]["lambda_square"] == f"(Z/4)^{m * (m - 1) // 2}"
    # w counts as no finite summand
    code, rep = run_json(f"catalog bg((Z/2)^{m} + (Z/4)^w)")
    assert code == EXIT_OK, rep


def test_brauer_of_bg_reads_the_catalog_once(monkeypatch):
    """brauer_prime, the equality certificate and the Br column of one
    `brauer bg(P)` request share the space's one catalog entry."""
    from cwbrauer import spaces
    built = _recording(monkeypatch, spaces, "brauer_of_bg")
    for line in ("brauer bg((Z/4)^3 + (Z/6)^2)", "brauer bg((Z/2)^w)",
                 "certify bg((Z/3)^5)"):
        built.clear()
        assert run_json(line)[0] == EXIT_OK, line
        assert len(built) == 1, line


@pytest.mark.parametrize("line", [
    "profile-brauer (Z/4)^64", "brauer bg((Z/4)^64)",
    "brauer bg((Z/4)^32 + (Z/6)^32)",
    "profile-brauer (Z/6)^21 + (Z/10)^21 + (Z/15)^22"])
def test_p_primary_profiles_at_the_bound_answer_quickly(line):
    """Profiles with 64 finite summands, the bound: Lambda^2 has 2016
    summands, of one order or of several with mixed primes, and their
    divisibility chain takes time near-linear in that count."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        code, rep = run_json(line)
        times.append(time.perf_counter() - t0)
        assert code == EXIT_OK, rep
    assert min(times) < 0.1, times


def test_batch_refuses_oversize_complexes_and_answers_the_other_lines():
    lines = ["homology moore3(6) 2", f"homology {_circle_power(12)} 1",
             f"homology sphere({MAX_COMPLEX_DEGREE}) {MAX_COMPLEX_DEGREE}",
             "homology sphere(100000000) 2", "cohomology lens_periodic(3) 4"]
    out = io.StringIO()
    code = run_batch(lines, as_json=True, trace=False, out=out)
    assert code == EXIT_UNSUPPORTED
    reports = json.loads(out.getvalue())
    assert [r["request"] for r in reports] == lines
    assert reports[0]["result"]["group"] == "Z/6"
    assert reports[1]["error"]["code"] == EXIT_UNSUPPORTED
    assert reports[2]["result"]["group"] == "Z"
    assert reports[3]["error"]["code"] == EXIT_UNSUPPORTED
    assert reports[4]["result"]["group"] == "Z/3"


def _dense_rows(n_rows, n_cols):
    return ", ".join("[" + ", ".join(str((7 * i + 3 * j) % 19 - 9)
                                     for j in range(n_cols)) + "]"
                     for i in range(n_rows))


_CELLS = "complex{cells 0: 40; cells 1: 90; boundary 1: "
_UNCLOSED = f"{_CELLS}[{_dense_rows(40, 90)}}}"
_NESTED = f"{_CELLS}{'[' * 5000}}}"
_ROW_COMMA = f"{_CELLS}[[{', '.join(['1'] * 20000)},]]}}"


@pytest.mark.parametrize("space, message", [
    (_UNCLOSED, f"expected ']', found '}}' (line 1, column {len(_UNCLOSED)})"),
    (_NESTED, f"expected 'matrix entry', found '[' "
              f"(line 1, column {len(_CELLS) + 3})"),
    (_ROW_COMMA, f"expected 'matrix entry', found ']' "
                 f"(line 1, column {len(_ROW_COMMA) - 2})"),
], ids=["unclosed-12kb", "nested-5000", "row-20000-trailing-comma"])
def test_long_malformed_matrices_fail_fast_with_their_position(space, message):
    """Each reads almost like a matrix to its end; none may make the
    tokenizer's matrix pattern backtrack for long."""
    assert len(_UNCLOSED) > 12_000
    t0 = time.perf_counter()
    code, rep = run_json(f"homology {space} 1")
    assert time.perf_counter() - t0 < 0.5
    assert code == EXIT_PARSE
    assert rep["error"]["message"] == message


_ONE = "complex{cells 0: 1}"


@pytest.mark.parametrize("line, code, message", [
    ("homology complex{cells 0: 1; cell 1: 2} 1", EXIT_PARSE,
     "expected 'cells' or 'boundary' (line 1, column 21)"),
    ("homology complex{cells 0: 1; cells 1: 2; boundary 1: [[1]]} 1",
     EXIT_SEMANTIC, "boundary 1 must be 1 x 2"),
    ("homology complex{cells 0: 1; cells 1: 1; boundary 1: [[1"
     + "7" * 5000 + "]]} 0", EXIT_UNSUPPORTED,
     "integer literal of 5001 digits is too long (line 1, column 47)"),
    (f"homology {_ONE} 0 {_ONE}", EXIT_PARSE,
     "unexpected trailing input 'complex' (line 1, column 23)"),
    (f"cohomology {_ONE} {_ONE}", EXIT_PARSE,
     "expected 'degree', found 'complex' (line 1, column 21)"),
], ids=["bad-statement", "boundary-shape", "long-entry", "trailing-input",
        "literal-for-degree"])
def test_malformed_literals_that_are_one_token_keep_their_errors(
        line, code, message):
    """Each literal here is one complex token, and each error reads as
    when every bracket, comma and digit run was a token: cold, again,
    and with complex{cells 0: 1} kept under its text."""
    for _ in range(2):
        assert run_json(line)[1]["error"] == {
            "code": code, "message": message,
            "type": {EXIT_PARSE: "ParseError", EXIT_SEMANTIC: "SemanticError",
                     EXIT_UNSUPPORTED: "UnsupportedComputation"}[code]}
    assert run_json(f"homology {_ONE} 0")[0] == EXIT_OK
    assert run_json(line)[1]["error"]["message"] == message


@pytest.mark.parametrize("line, code, message", [
    ("homology wedge(sphere(2) sphere(3)) 1", EXIT_PARSE,
     "expected ')', found 'sphere' (line 1, column 17)"),
    ("homology wedge(sphere(2), lens_periodic(3) x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 35)"),
    ("brauer wedge(moore3(5))", EXIT_SEMANTIC,
     "wedge needs at least two summands"),
    ("homology wedge(sphere(2), lens_periodic(3)) 1", EXIT_SEMANTIC,
     "wedge summands must be finite complexes"),
    ("homology moore3(0 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 10)"),
    ("homology moore3(0) 1", EXIT_SEMANTIC, "attachment degree must be >= 1"),
    ("homology sphere(600 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 12)"),
    ("homology sphere(600) 1", EXIT_UNSUPPORTED,
     "space expression builds 2 cells up to degree 600; at most 512 cells "
     "up to degree 512 are supported (line 1, column 1)"),
    ("homology product(sphere(2), lens_periodic(3) x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 37)"),
    ("homology lens(0, 3 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 11)"),
    ("homology lens(2, 600 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 13)"),
    ("homology lens_periodic(0 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 17)"),
    ("homology k(Z, 1 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 8)"),
    ("homology bpgl(0 x) 1", EXIT_PARSE,
     "expected ')', found 'x' (line 1, column 8)"),
    ("homology wedge(sphere(600), sphere(2) x) 1", EXIT_UNSUPPORTED,
     "space expression builds 2 cells up to degree 600; at most 512 cells "
     "up to degree 512 are supported (line 1, column 7)"),
], ids=["summand-for-comma", "trailing-input", "one-summand", "periodic",
        "moore3", "moore3-closed", "sphere", "sphere-closed", "product",
        "lens", "lens-cap", "lens_periodic", "k", "bpgl", "inner-summand"])
def test_a_wedge_reads_its_closing_parenthesis_before_its_checks(
        line, code, message):
    """Every builder reads its closing ")" before it checks its arguments
    or builds its space, so a syntax error after the last argument is a
    parse error (exit 2); only a builder read to its ")" is checked.  A
    summand read whole is checked before its wedge goes on."""
    assert run_json(line)[1]["error"]["message"] == message
    assert run(line)[0] == code


@pytest.mark.parametrize("line, name, column", [
    ("homology foo(1 x) 1", "foo", 1),
    ("homology wedge(sphere(2), fo(3)) 1", "fo", 18),
    ("brauer product(sphere(2), wedge(sphere(3), spher(4)))", "spher", 37),
], ids=["outermost", "wedge-summand", "nested-twice"])
def test_an_unknown_builder_is_refused_at_its_name(line, name, column):
    """"unknown space builder" points at the builder's name, not at the
    token after its "(", at any depth."""
    code, rep = run_json(line)
    assert code == EXIT_PARSE
    assert rep["error"]["message"] == (
        f"unknown space builder {name!r} (line 1, column {column})")
    assert line.split(" ", 1)[1][column - 1:].startswith(name + "(")


def test_a_bad_character_is_refused_before_any_check():
    """A character no token matches ends the line with exit 2 at that
    character, though what comes before it would fail a check; an
    Arabic-Indic digit and a no-break space are a digit and a blank."""
    line = "homology moore3(0) 1 $"
    assert run_json(line)[1]["error"]["message"] == \
        "unexpected character '$' (line 1, column 13)"
    assert run(line)[0] == EXIT_PARSE
    code, report = run_json("homology sphere(\u0662)\u00a0\u0662")
    assert code == EXIT_OK and report["result_text"] == "H_2 = Z"


_CELLS_ONLY = ("spaces support homology, brauer, phantom and certify only; "
               "cochain-level commands need a finite or periodic cell "
               "structure")


@pytest.mark.parametrize("line, code, text", [
    ("homology bg((Z/2)^3) 0", EXIT_OK, "H_0 = Z"),
    ("homology bg((Z/2)^3) 3", EXIT_UNSUPPORTED,
     "H_3 of BG is not recorded in the catalog"),
    ("homology bg((Z/2)^w) 2", EXIT_UNSUPPORTED,
     "H_2 of BG has infinitely many summands"),
    ("homology lens_periodic(0) 1", EXIT_SEMANTIC,
     "lens parameter must be >= 1"),
    ("homology bpgl(0) 1", EXIT_SEMANTIC, "bpgl parameter must be >= 1"),
    ("homology complex{cells 0: 1; boundary 0: []} 0", EXIT_SEMANTIC,
     "boundary degree must be >= 1"),
    ("homology complex{} 0", EXIT_SEMANTIC,
     "complex literal needs at least one cells entry"),
    ("homology wedge(sphere(2), complex{cells 0: 1; cells 1: 1; "
     "boundary 1: [[1]]}) 1", EXIT_SEMANTIC,
     "wedge summands must have zero del_1"),
    # an argument rule is checked by the library, after the whole line
    ("phantom moore3(6) 0 x", EXIT_PARSE,
     "unexpected trailing input 'x' (line 1, column 13)"),
    ("catalog sphere(2) x", EXIT_PARSE,
     "unexpected trailing input 'x' (line 1, column 11)"),
    ("cohomology moore3(6) 3 mod 1 x", EXIT_PARSE,
     "unexpected trailing input 'x' (line 1, column 19)"),
    # no modulus helps a space without cells
    ("cohomology bpgl(5) 2 mod 1", EXIT_UNSUPPORTED,
     "catalog " + _CELLS_ONLY),
    ("bockstein telescope(Z, x3) 1 mod 1", EXIT_UNSUPPORTED,
     "telescope " + _CELLS_ONLY),
], ids=["bg-h0", "bg-h3", "bg-infinite-h2", "lens_periodic-0", "bpgl-0",
        "boundary-0", "empty-literal", "wedge-del1", "phantom-trailing",
        "catalog-trailing", "modulus-trailing", "catalog-modulus",
        "telescope-modulus"])
def test_refusals_that_no_other_test_reaches(line, code, text):
    """Exit code and answer or message of lines that only this table
    reaches."""
    got, report = run_json(line)
    assert got == code
    assert (report["result_text"] if code == EXIT_OK
            else report["error"]["message"]) == text


def test_unit_pivots_answer_a_free_group_of_rank_511_quickly():
    # del_1 is the 1 x 511 zero matrix, so the cycles are a 511 x 511
    # identity: every pivot is 1 and no divisibility scan is needed
    t0 = time.perf_counter()
    code, rep = run_json("homology complex{cells 0: 1; cells 1: 511} 1")
    assert time.perf_counter() - t0 < 1.5
    assert code == EXIT_OK
    assert rep["result"]["group"] == "Z^511"


def test_cohomology_of_a_dense_80_by_80_literal_answers_quickly():
    """The cochain presentation of this boundary grows U and V entries of
    tens of thousands of bits; cohomology reads Smith diagonals instead.
    H^2 = Z^80 / im del_2^T is finite of order |det del_2| (Bareiss, an
    independent route), and H^2(; Z/4) has one cyclic summand for each
    invariant factor that 2 divides: 80 - rank of del_2 mod 2 of them."""
    rng = random.Random(84)
    rows = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(80)]
    space = ("complex{cells 0: 0; cells 1: 80; cells 2: 80; "
             f"boundary 2: {rows}}}")
    det = intlin.determinant(IntMatrix(rows))
    assert det != 0
    groups = []
    for line in (f"cohomology {space} 2", f"cohomology {space} 2 mod 4"):
        t0 = time.perf_counter()
        code, rep = run_json(line)
        assert time.perf_counter() - t0 < 2, line
        assert code == EXIT_OK, rep
        groups.append(parse_group(rep["result"]["group"]))
    integral, mod4 = groups
    assert integral.free_rank == 0
    assert prod(integral.invariant_factors) == abs(det)
    assert mod4.free_rank == 0 and all(
        d in (2, 4) for d in mod4.invariant_factors)
    assert len(mod4.invariant_factors) == 80 - rank_mod_p(rows, 2)


def test_uct_of_a_dense_80_by_80_literal_answers_quickly():
    """uct checks its split against the diagonals of the transposed
    boundaries, with no transform, so a cold request on a dense literal
    grows no U or V.  H^2 = Z^80 / im del_2^T is finite of order
    |det del_2| (Bareiss, an independent route)."""
    rng = random.Random(80)
    rows = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(80)]
    space = ("complex{cells 0: 0; cells 1: 80; cells 2: 80; "
             f"boundary 2: {rows}}}")
    det = intlin.determinant(IntMatrix(rows))
    assert det != 0
    t0 = time.perf_counter()
    code, rep = run_json(f"uct {space} 2")
    assert time.perf_counter() - t0 < 5
    assert code == EXIT_OK, rep
    total = parse_group(rep["result"]["total"])
    assert total.free_rank == 0
    assert prod(total.invariant_factors) == abs(det)


_HUGE = "9" * 5000


@pytest.mark.parametrize("line", [f"homology sphere({_HUGE}) 1",
                                  f"homology moore3(6) {_HUGE}",
                                  f"homology telescope(Z, x{_HUGE}) 1",
                                  f"homology telescope(Z, x -{_HUGE}) 1",
                                  "homology complex{cells 0: 1; cells 1: 2;"
                                  f" boundary 1: [[0, - {_HUGE}]]}} 1"],
                         ids=["dimension", "degree", "multiplier",
                              "signed-multiplier", "matrix-entry"])
def test_overlong_integer_literal_is_refused(line, capsys):
    code, rep = run_json(line)
    assert code == EXIT_UNSUPPORTED
    assert rep["error"]["type"] == "UnsupportedComputation"
    assert "5000 digits" in rep["error"]["message"]
    assert "(line 1, column " in rep["error"]["message"]
    code, text = run(line)
    assert code == EXIT_UNSUPPORTED and text == ""
    assert "5000 digits" in capsys.readouterr().err


def test_batch_refuses_overlong_literal_and_answers_the_other_lines():
    lines = ["homology moore3(6) 2", f"homology sphere({_HUGE}) 1",
             "cohomology lens_periodic(3) 4"]
    out = io.StringIO()
    code = run_batch(lines, as_json=True, trace=False, out=out)
    assert code == EXIT_UNSUPPORTED
    reports = json.loads(out.getvalue())
    assert [r["request"] for r in reports] == lines
    assert reports[0]["result"]["group"] == "Z/6"
    assert reports[1]["error"]["code"] == EXIT_UNSUPPORTED
    assert reports[2]["result"]["group"] == "Z/3"
    out = io.StringIO()
    assert run_batch(lines, as_json=False, trace=False,
                     out=out) == EXIT_UNSUPPORTED
    blocks = out.getvalue().strip().split("\n\n")
    assert "\nH_2 = Z/6\n" in blocks[0]
    assert "\nerror: integer literal of 5000 digits" in blocks[1]
    assert "\nH^4 = Z/3\n" in blocks[2]


def test_batch_reports_an_internal_error_and_answers_the_other_lines(
        monkeypatch):
    real = cli.execute

    def flaky(req, trace=False):
        if req.text == "brauer moore3(6)":
            raise RuntimeError("simulated defect")
        return real(req, trace)

    monkeypatch.setattr(cli, "execute", flaky)
    lines = ["homology moore3(6) 2", "brauer moore3(6)",
             "cohomology lens_periodic(3) 4"]
    out = io.StringIO()
    assert run_batch(lines, as_json=True, trace=False,
                     out=out) == EXIT_INTERNAL == 70
    reports = json.loads(out.getvalue())
    assert [r["request"] for r in reports] == lines
    assert reports[0]["result"]["group"] == "Z/6"
    assert reports[1]["error"] == {
        "code": 70, "type": "InternalError",
        "message": "internal error: RuntimeError: simulated defect"}
    assert reports[2]["result"]["group"] == "Z/3"
    out = io.StringIO()
    assert run_batch(lines, as_json=False, trace=False,
                     out=out) == EXIT_INTERNAL
    blocks = out.getvalue().strip().split("\n\n")
    assert len(blocks) == 3
    assert "\nH_2 = Z/6\n" in blocks[0]
    assert blocks[1] == ("request: brauer moore3(6)\n"
                         "error: internal error: RuntimeError: simulated defect")
    assert "\nH^4 = Z/3\n" in blocks[2]


def test_homology_and_brauer_requests_make_no_transform_snf(monkeypatch):
    """Untraced homology, brauer and lim1 requests read only Smith
    diagonals, and so does the trace of a homology request."""
    def refuse(a, **asked):
        raise AssertionError("transform SNF called")

    for mod in (intlin, chaincx):
        monkeypatch.setattr(mod, "smith_normal_form", refuse)
        monkeypatch.setattr(mod, "smith_form", refuse)
    for line in ("homology moore3(6) 2",
                 "homology product(lens(4, 5), moore3(6)) 3",
                 "homology lens_periodic(6) 1000001",
                 "brauer product(lens(4, 3), lens(6, 3))",
                 "brauer lens_periodic(6)",
                 "lim1 tower block [Z/4 -(x2)-> Z/8, Z/8 -(x1)-> Z/4]",
                 "lim1 tower block [Z -(x5)-> Z]",
                 "lim1 tower block [Z -(id)-> Z]"):
        code, report = run_json(line)
        assert code == EXIT_OK, report
    code, report = run_json("homology product(lens(4, 5), moore3(6)) 3",
                            trace=True)
    assert code == EXIT_OK and report["trace"]
    c = chaincx.ChainComplex([1, 1, 1], [[[0]], [[4]]])
    assert str(chaincx.homology(c, 1)) == "Z/4"


@pytest.mark.parametrize("line,code,part", [
    ("catalog bg((Z/1000000000000000003)^w)", EXIT_OK, "STRICT"),
    ("brauer bg((Z/1000000000000000003)^w)", EXIT_OK,
     "equality: STRICT (CatalogTheorem)"),
    ("certify bg((Z/1000000000000000003)^w)", EXIT_OK,
     "STRICT (CatalogTheorem)"),
    ("non-brauer-check (Z/1000000000000000003)^w with rule i>=1: J=(i, 2i]",
     EXIT_OK, "CERTIFIED_NOT_IN_BR: p = 1000000000000000003"),
    ("homology telescope(Z, x1000000000000000003) 1", EXIT_OK,
     "H_1 = Z[1/1000000000000000003]"),
    ("phantom telescope(Z, x1000000000000000003) 2", EXIT_OK,
     "Ext^1(Z[1/1000000000000000003], Z)"),
    # (10^9 + 7)(10^9 + 9): proved composite, so no prime power, but not
    # split, so its localization is refused
    ("catalog bg((Z/1000000016000000063)^w)", EXIT_OK, "UNKNOWN"),
    ("homology telescope(Z, x1000000016000000063) 1", EXIT_UNSUPPORTED, ""),
    ("phantom telescope(Z, x1000000016000000063) 2", EXIT_UNSUPPORTED, ""),
])
def test_large_prime_orders_answer_within_a_second(line, code, part):
    """Trial division stops at a fixed bound; a 19-digit cofactor is then
    proved prime or composite at once instead of being divided about
    5 * 10^8 times."""
    t0 = time.perf_counter()
    got, text = run(line)
    assert time.perf_counter() - t0 < 1.0
    assert got == code and part in text, text


def test_refusal_of_a_huge_cofactor_is_one_short_line(capsys):
    """A cofactor of thousands of digits is named by its digit count, not
    quoted: the message stays short in json and in text."""
    line = "homology telescope(Z, x" + "1" * 4299 + ") 1"
    code, report = run_json(line)
    assert code == EXIT_UNSUPPORTED
    message = report["error"]["message"]
    assert len(message) < 300 and "-digit number" in message, message
    capsys.readouterr()
    code, text = run(line)
    err = capsys.readouterr().err
    assert code == EXIT_UNSUPPORTED and text == ""
    assert err.startswith("error: cannot factor") and len(err) < 300, err


def test_batch_text_mode():
    out = io.StringIO()
    code = run_batch(["homology moore3(6) 2", "brauer moore3(6)"],
                     as_json=False, trace=False, out=out)
    assert code == EXIT_OK
    blocks = out.getvalue().strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("request: homology moore3(6) 2")


def test_batch_all_ok_exit_zero():
    out = io.StringIO()
    assert run_batch(["certify sphere(2)"], as_json=True, trace=False,
                     out=out) == EXIT_OK


# -- argparse entry point ----------------------------------------------------------------


def test_main_single_request(capsys):
    assert main(["brauer", "moore3(6)"]) == EXIT_OK
    assert "Br' = Z/6" in capsys.readouterr().out


def test_main_json_flag(capsys):
    assert main(["--json", "homology", "moore3(6)", "2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["group"] == "Z/6"


def test_main_batch_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("certify sphere(2)\n"))
    assert main(["--batch", "-"]) == EXIT_OK
    assert "EQUAL" in capsys.readouterr().out


def test_main_batch_file(tmp_path, capsys):
    p = tmp_path / "requests.txt"
    p.write_text("homology moore3(8) 2\n# comment\nbrauer sphere(2)\n")
    assert main(["--batch", str(p)]) == EXIT_OK
    assert "H_2 = Z/8" in capsys.readouterr().out


def test_main_batch_file_that_cannot_be_opened_is_a_usage_error(tmp_path,
                                                                 capsys):
    for path in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["--batch", str(path)])
        assert e.value.code == 2  # argparse's usage error
        assert f"cannot read {path}: " in capsys.readouterr().err


def test_main_batch_file_with_undecodable_bytes_loses_only_that_line(
        tmp_path, capsys):
    p = tmp_path / "requests.txt"
    p.write_bytes(b"homology moore3(8) 2\nhomology \xff 2\nbrauer sphere(2)\n")
    assert main(["--json", "--batch", str(p)]) == EXIT_PARSE
    first, bad, last = json.loads(capsys.readouterr().out)
    assert first["result_text"] == "H_2 = Z/8"
    assert bad["error"]["code"] == EXIT_PARSE
    assert bad["error"]["message"].startswith("unexpected character")
    assert last["result_text"].startswith("Br' = 0")


def test_main_usage_errors(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["--batch", "x", "homology", "sphere(1)", "0"])
    capsys.readouterr()


# -- request parsing odds and ends -------------------------------------------------------


def test_parse_request_rejects_trailing_tokens():
    from cwbrauer.errors import ParseError
    with pytest.raises(ParseError):
        parse_request("homology moore3(6) 2 junk")
    with pytest.raises(ParseError):
        parse_request("")


def _stdlib_json(x) -> str:
    """The independent oracle of cli's JSON writer."""
    return json.dumps(x, indent=2, sort_keys=True)


def test_execute_reports_are_json_safe():
    for line in SAMPLE_LINES:
        for trace in (False, True):
            report = execute(parse_request(line), trace=trace)
            assert render_json(report) == _stdlib_json(report)
            assert report["citations"] == sorted(set(report["citations"]))


def _cited_keys(lines) -> set:
    cited = set()
    for line in lines:
        for trace in (False, True):
            cited |= set(execute(parse_request(line), trace)["citations"])
    return cited


def test_every_cited_key_is_a_recorded_fact():
    """Each citation key a report names, over the sample lines and every
    request `reproduce` checks (and reproduce's own report), has a
    statement in facts.FACTS."""
    cited = _cited_keys(SAMPLE_LINES + tuple(
        line for _, line, _, _ in cli._reproduce_items()))
    assert len(cited) > 15
    assert cited <= set(FACTS), sorted(cited - set(FACTS))


def test_every_recorded_fact_is_cited():
    """The converse: each key of facts.FACTS is cited by some request,
    among the sample lines, the `reproduce` items and the two catalog
    entries that name a fact of their own."""
    cited = _cited_keys(SAMPLE_LINES + tuple(
        line for _, line, _, _ in cli._reproduce_items()) + (
        "catalog plus_construction", "catalog compact_realization"))
    assert set(FACTS) <= cited, sorted(set(FACTS) - cited)


# characters the writer must escape as the stdlib does: quote, backslash,
# control characters, non-ASCII text, U+2028 and lone surrogates
_JSON_CHARS = ('ab Z/"\\\x00\x01\x1f\x7f\t\n\r'
               '\u00e9\u03a9\u2028\u2029\ud800\udfff\U0001f600')


def _random_text(rng: random.Random, longest: int) -> str:
    return "".join(rng.choice(_JSON_CHARS)
                   for _ in range(rng.randrange(longest + 1)))


def _random_value(rng: random.Random, depth: int):
    """A nested value of the report vocabulary: dicts with str keys,
    lists, str, int, bool and None."""
    roll = rng.randrange(10 if depth < 4 else 6)
    if roll == 0:
        return _random_text(rng, 5)
    if roll == 1:
        return rng.choice([0, 1, -1, 10 ** 40, -(10 ** 40) - 7, 2 ** 63,
                           rng.randrange(-10 ** 6, 10 ** 6)])
    if roll == 2:   # bool and None beside the values they equal or resemble
        return rng.choice([True, False, None, 1, 0, ""])
    if roll in (3, 4, 5):
        return rng.choice([[], {}, "", 0, None])
    if roll in (6, 7):
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_random_text(rng, 3): _random_value(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def test_json_writer_matches_the_stdlib_encoder():
    rng = random.Random(18)
    for _ in range(2000):
        value = _random_value(rng, 0)
        assert render_json(value) == _stdlib_json(value), value


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, (1, 2), {1: "a"}, {"a": 1, 2: "b"}, [b"bytes"],
    {"nested": [0, {"x": 0.0}]}, [type("Code", (int,), {})(2)]])
def test_json_writer_refuses_values_outside_the_report_vocabulary(value):
    with pytest.raises(TypeError):
        render_json(value)


def test_batch_json_with_a_bad_line_matches_the_stdlib_encoder():
    out = io.StringIO()
    code = run_batch(BATCH.splitlines() + ["homology moore3(6"],
                     as_json=True, trace=True, out=out)
    assert code == EXIT_SEMANTIC
    reports = json.loads(out.getvalue())
    assert [("error" in r) for r in reports] == [False, False, True, False,
                                                  True]
    assert out.getvalue() == _stdlib_json(reports) + "\n"


def test_rendering_a_report_leaves_no_cyclic_garbage():
    report = execute(parse_request("bockstein lens(6, 9) 4 mod 6"), trace=True)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            render_json(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the installed program, in a child process -----------------------------------------


def _child_env():
    src = str(Path(cwbrauer.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_cli_import_leaves_numpy_unloaded():
    probe = "import sys, cwbrauer.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_batch_under_strict_stdio_loses_only_the_undecodable_line(tmp_path,
                                                                  source):
    """With a strict UTF-8 stdin and stdout, a line holding a byte that is
    not UTF-8 is refused alone and echoed with its byte escaped."""
    data = b"homology moore3(8) 2\nhomology \xff 2\nbrauer sphere(2)\n"
    path = tmp_path / "requests.txt"
    path.write_bytes(data)
    arg = str(path) if source == "file" else "-"
    proc = subprocess.run(
        [sys.executable, "-m", "cwbrauer.cli", "--batch", arg],
        input=data if source == "stdin" else b"", capture_output=True,
        env=dict(_child_env(), PYTHONIOENCODING="utf-8:strict"), timeout=120)
    assert proc.returncode == EXIT_PARSE, proc.stderr
    out = proc.stdout.decode("utf-8")
    assert "H_2 = Z/8" in out
    assert "Br' = 0" in out
    assert "request: homology \\udcff 2\nerror: unexpected character" in out


@pytest.mark.parametrize("args", [["reproduce"],
                                  ["--json", "homology", "moore3(6)", "2"]])
def test_closed_stdout_pipe_exits_without_traceback(args):
    """`cwbrauer reproduce | head -1`: the reader is gone before the
    output is written (a long report fails inside print, a short one only
    at the final flush); either way stderr stays empty."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cwbrauer.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_BROKEN_PIPE


@pytest.mark.parametrize("command, stream", [
    ("--batch - <&-", "standard input"),
    ("brauer 'moore3(6)' >&-", "standard output"),
])
def test_closed_stdio_descriptor_is_a_usage_error(command, stream):
    """A closed stdin under `--batch -`, or a closed stdout, leaves the
    stream None; it is refused before any request, like a FILE that
    cannot be opened: exit 2, a message on stderr, no traceback."""
    proc = subprocess.run(
        ["sh", "-c", f'"$0" -m cwbrauer.cli {command}', sys.executable],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"{stream} is closed" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("request_line, code", [
    ("brauer 'moore3('", EXIT_PARSE),
    ("homology 'sphere(0)' 0", EXIT_SEMANTIC),
])
def test_closed_stderr_keeps_the_exit_code(request_line, code):
    """With stderr closed the error message is lost, but the exit code is
    the refusal's own (an unhandled write error would exit 1), and the
    message does not move to stdout."""
    proc = subprocess.run(
        ["sh", "-c", f'"$0" -m cwbrauer.cli {request_line} 2>&-',
         sys.executable],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == code
    assert proc.stdout == ""
