"""End-to-end tests for the command line: every command, the exit-code
contract, batch mode, JSON determinism, and the reproduce suite."""

import io
import json
import os
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest

import cwbrauer
from cwbrauer.cli import (
    EXIT_BROKEN_PIPE, EXIT_OK, EXIT_PARSE, EXIT_REPRODUCE_FAIL, EXIT_SEMANTIC,
    EXIT_UNSUPPORTED, execute, main, parse_request, run_batch, run_line,
)
from cwbrauer.grammar import MAX_COMPLEX_CELLS, MAX_COMPLEX_DEGREE


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


def test_catalog_command():
    code, text = run("catalog bpgl(5)")
    assert code == EXIT_OK and "bpgl(5):" in text and "EQUAL" in text
    code, text = run("catalog plus_construction")
    assert code == EXIT_OK and "plus_construction" in text
    code, _ = run("catalog no_such_fact")
    assert code == EXIT_SEMANTIC


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


def test_execute_reports_are_json_safe():
    for line in SAMPLE_LINES:
        report = execute(parse_request(line), trace=True)
        json.dumps(report)   # must not raise
        assert report["citations"] == sorted(set(report["citations"]))


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
