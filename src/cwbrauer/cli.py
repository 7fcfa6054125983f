"""Command-line front end.

Commands (subjects use the shared text grammars of grammar.py)::

  homology SPACE N              cellular H_N
  cohomology SPACE N [mod M]    H^N with Z or Z/M coefficients
  uct SPACE N                   H^N split into Ext and Hom parts
  bockstein SPACE N mod M       Bockstein H^N(;Z/M) -> H^{N+1}(;Z)
  brauer SPACE                  Br' (and Br when a rule decides it)
  phantom SPACE N               phantom subgroup of H^N
  certify SPACE                 Br = Br' certificate with rule trail
  lim1 TOWER                    lim^1 vanishing certificate
  profile-brauer PROFILE        Br' of BG for a cyclic-profile G
  non-brauer-check PROFILE with RULES
                                theorem conditions for a descriptor class
  catalog SUBJECT               recorded facts (bpgl/k/bg space or a name)
  reproduce                     run the built-in worked-example table

Each command is declared once, in the COMMANDS table: its argument
parser, its evaluator and the summary that `reproduce` compares.

Flags: --json (structured, deterministic output), --trace (diagnostic
witnesses, among them the Smith diagonals of the boundaries around the
degree: a boundary matrix keeps its diagonal, so one that homology,
cohomology or uct already read is not eliminated again; bockstein reads
none of its three, so its trace eliminates them), --batch FILE (one
request per line, '-' for stdin).

JSON output, of one report or of a --batch list, is written by one
writer, _dump, whose bytes equal json.dumps(x, indent=2, sort_keys=True)
for the report vocabulary; the tests keep the stdlib encoder as its
oracle.  It builds no encoder object, so a report leaves no garbage for
the cyclic collector.

Exit codes: 0 success; 1 reproduce found failing items; 2 parse error;
3 semantic error; 4 computation unsupported (outside the symbolic
tables, or over a cap of grammar.py: MAX_SPACE_NESTING, MAX_COMPLEX_CELLS,
MAX_COMPLEX_DEGREE); 70 (EX_SOFTWARE) in --batch for a line whose
evaluation raised an unexpected exception, reported as that line's
"InternalError" while the other lines are still answered; 141
(128 + SIGPIPE) if stdout's reader went away.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd
from typing import Callable, NamedTuple

from .abgroup import FgAbGroup
from .chaincx import bockstein, cohomology, uct_decompose
from .errors import ParseError, SemanticError, UnsupportedComputation
from .grammar import _Parser, format_descriptor, format_group, format_profile
from .intlin import smith_invariants
from .limits import SymbolicGroup, lim1_certificate
from .profiles import (StructuralDescriptor, brauer_of_bg,
                       lambda_square_profile, non_brauer_certificate)
from .spaces import (EQUAL, SpaceDescription, brauer_prime, catalog_lookup,
                     equality_certificate, phantom_subgroup, space_homology)

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_UNSUPPORTED = 4
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141

_RULE_CITATIONS = {
    "CompactSerre": ("compact-equality",),
    "WoodwardDimLe4": ("woodward-dim4",),
    "EvenCells": ("even-cells",),
    "CatalogTheorem": (),  # the catalog entry carries its own citations
    "NonBrauerCondition": ("bg-strict",),
}


@dataclass(frozen=True)
class Request:
    command: str
    text: str
    args: tuple  # what COMMANDS[command].parse read


def parse_request(line: str) -> Request:
    line = line.strip()
    head, _, rest = line.partition(" ")
    command = head.strip()
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}; commands are "
                         + ", ".join(COMMANDS))
    p = _Parser(rest)
    args = COMMANDS[command].parse(p)
    p.expect_end()
    return Request(command, line, args)


def execute(req: Request, trace: bool = False) -> dict:
    """Run one request; returns the report dictionary."""
    result, text, citations, tr = COMMANDS[req.command].run(*req.args)
    report = {"request": req.text, "command": req.command,
              "result": result, "result_text": text,
              "citations": sorted(set(citations))}
    if trace:
        report["trace"] = list(tr)
    return report


# ---------------------------------------------------------------------------
# argument parsers
# ---------------------------------------------------------------------------

def _space_degree(p: _Parser) -> tuple:
    space = p.space()
    degree = p.integer("degree")
    if degree < 0:
        raise SemanticError("degree must be >= 0")
    return space, degree


def _modulus(p: _Parser, required: bool) -> int | None:
    """The `mod M` clause after the degree; None when it is optional and
    absent."""
    if required:
        p.expect("ident", "mod", what="mod")
    elif not p.accept("ident", "mod"):
        return None
    modulus = p.integer("modulus")
    if modulus < 2:
        raise SemanticError("modulus must be >= 2")
    return modulus


def _phantom_args(p: _Parser) -> tuple:
    space, degree = _space_degree(p)
    if degree < 1:
        raise SemanticError("phantom degree must be >= 1")
    return space, degree


def _non_brauer_args(p: _Parser) -> tuple:
    profile = p.profile()
    p.expect("ident", "with", what="with")
    return profile, p.descriptor()


def _catalog_args(p: _Parser) -> tuple:
    if p.at("ident") and p.at("sym", "(", 1):
        space = p.space()
        if space.kind != "catalog":
            raise SemanticError(
                "catalog takes a catalog space (bpgl/k/bg) or a fact name")
        return (space,)
    return (p.expect("ident", what="catalog entry name").text,)


# ---------------------------------------------------------------------------
# evaluators: *args -> (result, text, citations, trace lines)
# ---------------------------------------------------------------------------

def _group_payload(g) -> dict:
    if isinstance(g, FgAbGroup):
        return {"kind": "group", "group": format_group(g)}
    if isinstance(g, SymbolicGroup):
        return {"kind": "symbolic_group", "description": g.describe(),
                "flags": {"zero": g.is_zero, "nonzero": g.nonzero,
                          "divisible": g.divisible, "torsion": g.torsion,
                          "torsion_free": g.torsion_free}}
    if isinstance(g, StructuralDescriptor):
        return {"kind": "descriptor", "expression": g.expression,
                "exponent": g.exponent,
                "restricted_sum": format_profile(g.restricted_sum),
                "notes": list(g.notes)}
    raise UnsupportedComputation(f"cannot serialize {type(g).__name__}")


def _payload_or_none(g) -> dict | None:
    """Payload of a recorded group, None where the catalog records none."""
    return None if g is None else _group_payload(g)


def _group_text(payload: dict) -> str:
    if payload["kind"] == "group":
        return payload["group"]
    if payload["kind"] == "symbolic_group":
        flags = payload["flags"]
        names = [k for k in ("nonzero", "divisible", "torsion",
                             "torsion_free") if flags.get(k)]
        tail = f" ({', '.join(names)})" if names else ""
        return payload["description"] + tail
    return f"{payload['expression']} (exponent {payload['exponent']})"


def _boundary_trace(space: SpaceDescription, n: int, count: int = 2):
    """For a space with cells, the Smith diagonals of del_n ..
    del_{n+count-1}, read off the space's own boundary matrices: a
    diagonal the answer computed is printed, not computed again, and
    any other one (all three of bockstein's, whose answer comes from
    cochain presentations) is computed here.  A generator, so an
    untraced request computes none of them."""
    if space.cells is None:
        return
    for d in range(n, n + count):
        b = space.cells.boundary(d)
        yield (f"SNF diagonal of boundary_{d}: {list(smith_invariants(b))}"
               if b.rows and b.cols
               else f"boundary_{d} is zero ({b.rows} x {b.cols})")


def _verdict(cert) -> str:
    return cert.verdict + (f" ({cert.reason})" if cert.reason else "")


def _certificate(space: SpaceDescription):
    """Equality certificate of a space, its payload and its citations."""
    cert = equality_certificate(space)
    citations = ["brauer-cw-formula"]
    for rule in cert.applicable_rules:
        citations += _RULE_CITATIONS.get(rule, ())
        if rule == "CatalogTheorem":
            citations += catalog_lookup(space).citations
    payload = {"verdict": cert.verdict, "reason": cert.reason,
               "witness": cert.witness,
               "also_applicable": list(cert.also_applicable)}
    return cert, payload, citations


def _homology(space, n):
    result = _group_payload(space_homology(space, n))
    return (result, f"H_{n} = {_group_text(result)}", ["smith-normal-form"],
            _boundary_trace(space, n))


def _cohomology(space, n, modulus):
    result = _group_payload(cohomology(space.chains, n, modulus=modulus))
    result["degree"] = n
    if modulus is None:
        text = f"H^{n} = {result['group']}"
    else:
        result["modulus"] = modulus
        text = f"H^{n}(; Z/{modulus}) = {result['group']}"
    return (result, text, ["universal-coefficients", "smith-normal-form"],
            _boundary_trace(space, n))


def _uct(space, n):
    u = uct_decompose(space.chains, n)
    result = {"kind": "uct", "degree": n,
              "ext_part": format_group(u.ext_part),
              "hom_part": format_group(u.hom_part),
              "total": format_group(u.total)}
    text = (f"H^{n} = {result['total']} with Ext part "
            f"{result['ext_part']} and Hom part {result['hom_part']}")
    return (result, text, ["universal-coefficients"],
            _boundary_trace(space, n))


def _bockstein(space, n, modulus):
    beta = bockstein(space.chains, n, modulus)
    result = {"kind": "hom",
              "domain": format_group(beta.domain),
              "codomain": format_group(beta.codomain),
              "matrix": beta.matrix.to_lists(),
              "is_zero": beta.is_zero()}
    text = (f"Bockstein H^{n}(; Z/{modulus}) -> H^{n + 1}: "
            f"{result['domain']} -> {result['codomain']}, "
            f"matrix {result['matrix']}")
    return (result, text, ["bockstein-sequence"],
            _boundary_trace(space, n, 3))


def _brauer(space):
    bp = brauer_prime(space)
    cert, equality, citations = _certificate(space)
    bp_payload = _group_payload(bp)
    if space.kind == "catalog":
        br = _payload_or_none(catalog_lookup(space).br)
    elif cert.verdict == EQUAL and isinstance(bp, FgAbGroup):
        br = bp_payload
    else:
        br = None
    result = {"kind": "brauer", "br_prime": bp_payload, "br": br,
              "equality": equality}
    text = (f"Br' = {_group_text(bp_payload)}; Br = "
            f"{_group_text(br) if br is not None else 'undetermined'}; "
            f"equality: {_verdict(cert)}")
    return result, text, citations, _boundary_trace(space, 2)


def _phantom(space, n):
    result = _group_payload(phantom_subgroup(space, n))
    result["degree"] = n
    citations = ["phantom-formula"]
    if result["kind"] == "symbolic_group":
        citations += ["ext-divisible", "pext-ulm"]
    return (result, f"phantom subgroup of H^{n} = {_group_text(result)}",
            citations, [])


def _certify(space):
    cert, payload, citations = _certificate(space)
    tr = [f"applicable rules, in priority order: "
          f"{list(cert.applicable_rules) or 'none'}"]
    return ({"kind": "certificate", **payload},
            f"{_verdict(cert)}: {cert.witness}", citations, tr)


def _lim1(tower):
    cert = lim1_certificate(tower)
    result = {"kind": "lim1", "verdict": cert.verdict,
              "reason": cert.reason, "witness": cert.witness}
    citations = {"JensenFinite": ["jensen-finite"],
                 "MittagLeffler": ["mittag-leffler"]}.get(
                     cert.reason, ["mittag-leffler", "jensen-finite"])
    return (result, f"lim^1 {_verdict(cert)}: {cert.witness}", citations,
            [cert.witness])


def _profile_brauer(profile):
    lam = format_profile(lambda_square_profile(profile))
    result = {"kind": "profile_brauer", "profile": format_profile(profile),
              "lambda_square": lam,
              "br_prime": _group_payload(brauer_of_bg(profile))}
    citations = ["h2-exterior-square", "bg-brauer-formula", "basic-subgroup"]
    return (result, f"Br'(BG) = {_group_text(result['br_prime'])}",
            citations, [f"Lambda^2 profile: {lam}"])


def _non_brauer(profile, descriptor):
    rep = non_brauer_certificate(profile, descriptor)
    result = {"kind": "non_brauer", "verdict": rep.verdict,
              "profile": format_profile(profile),
              "rules": format_descriptor(descriptor),
              "conditions": [[t, ok, why] for t, ok, why in rep.conditions],
              "witness": rep.witness}
    tr = [f"condition {'holds' if ok else 'fails'}: {t} ({why})"
          for t, ok, why in rep.conditions]
    return (result, f"{rep.verdict}: {rep.witness}",
            ["bg-strict", "bg-brauer-formula"], tr)


def _catalog(subject):
    entry = catalog_lookup(subject)
    result = {"kind": "catalog", "name": entry.name,
              "br_prime": _payload_or_none(entry.br_prime),
              "br": _payload_or_none(entry.br),
              "verdict": entry.verdict,
              "equality_note": entry.equality_note,
              "notes": list(entry.notes)}
    bits = [entry.name + ":"]
    for label, key in (("Br'", "br_prime"), ("Br", "br")):
        if result[key] is not None:
            bits.append(f"{label} = {_group_text(result[key])},")
    bits.append(entry.verdict)
    return result, " ".join(bits), list(entry.citations), []


# ---------------------------------------------------------------------------
# reproduce: the built-in worked-example table
# ---------------------------------------------------------------------------

def _reproduce_items():
    """(name, request line, expected summary, test) tuples.  The test is
    None when the result's summary must equal the expected one, else a
    predicate on the result."""
    items = []

    def add(name, line, want, test=None):
        items.append((name, line, want, test))

    # --- worked example family: 3-cell spaces (exact small table) ---
    for n in range(2, 13):
        add(f"moore3({n}) brauer", f"brauer moore3({n})",
            f"Br'=Z/{n} EQUAL")
        add(f"moore3({n}) H^3", f"cohomology moore3({n}) 3", f"Z/{n}")
        add(f"bpgl({n}) catalog", f"catalog bpgl({n})",
            f"Br'=Z/{n} Br=Z/{n} EQUAL")
        add(f"k(Z/{n},2) catalog", f"catalog k(Z/{n}, 2)",
            f"Br'=Z/{n} Br=0 STRICT")
    add("k(Q/Z,2) catalog", "catalog k(Q/Z, 2)", "Br'=0 Br=0 EQUAL")
    add("k(Z/5,3) catalog", "catalog k(Z/5, 3)", "Br'=0 Br=0 EQUAL")
    add("k(Z^2+Z/3,4) catalog", "catalog k(Z^2 + Z/3, 4)",
        "Br'=0 Br=0 EQUAL")

    # --- exterior-square vs Kunneth agreement ---
    for m in range(2, 9):
        for n in range(2, 9):
            g = gcd(m, n)
            want = "0" if g == 1 else f"Z/{g}"
            add(f"kunneth lens({m})xlens({n})",
                f"brauer product(lens({m}, 3), lens({n}, 3))",
                f"Br'={want} EQUAL")
            if m == n:
                lit = f"(Z/{m})^2"
            else:
                a, b = sorted((m, n))
                lit = f"(Z/{a})^1 + (Z/{b})^1"
            add(f"profile lambda {m},{n}", f"profile-brauer {lit}", want)

    # --- Bockstein family ---
    for m in range(2, 11):
        def unit_entry(res, m=m):
            return (res["domain"] == f"Z/{m}" and res["codomain"] == f"Z/{m}"
                    and len(res["matrix"]) == 1 and len(res["matrix"][0]) == 1
                    and gcd(res["matrix"][0][0], m) == 1)
        add(f"bockstein moore3({m})", f"bockstein moore3({m}) 2 mod {m}",
            f"Z/{m}->Z/{m} unit matrix entry", unit_entry)

    # --- phantom subgroups ---
    add("phantom telescope x5", "phantom telescope(Z, x5) 2",
        "symbolic nonzero,divisible")
    for d in range(1, 6):
        add(f"phantom lens_periodic deg {d}", f"phantom lens_periodic(4) {d}",
            "0")
    add("phantom moore3(6)", "phantom moore3(6) 3", "0")
    add("phantom product", "phantom product(lens(4, 3), lens(6, 3)) 3", "0")

    # --- lim^1 certificates ---
    add("lim1 finite block",
        "lim1 tower block [Z/4 -(x2)-> Z/8, Z/8 -(x1)-> Z/4]",
        "VANISHES(JensenFinite)")
    add("lim1 constant Z", "lim1 tower block [Z -(id)-> Z]",
        "VANISHES(MittagLeffler)")
    add("lim1 times 5", "lim1 tower block [Z -(x5)-> Z]", "INCONCLUSIVE")

    # --- equality certificates and descriptor checks ---
    add("certify moore3(7)", "certify moore3(7)",
        "EQUAL [CompactSerre,EvenCells,WoodwardDimLe4]")
    add("certify even 6-complex",
        "certify wedge(sphere(2), sphere(4), sphere(6))",
        "EQUAL [CompactSerre,EvenCells]")
    add("certify k(Z/5,2)", "certify k(Z/5, 2)", "STRICT [CatalogTheorem]")
    add("certify telescope", "certify telescope(Z, x5)",
        "EQUAL [EvenCells,WoodwardDimLe4]")
    add("non-brauer certified",
        "non-brauer-check (Z/3)^w with rule i>=1: J=(i, 2i]",
        "CERTIFIED_NOT_IN_BR")
    add("non-brauer bounded rules",
        "non-brauer-check (Z/3)^w with rule 1<=i<=9: J=(i, 2i]",
        "CONDITION_FAILS")
    add("non-brauer singleton intervals",
        "non-brauer-check (Z/3)^w with rule i>=1: J=(i, i+1]",
        "CONDITION_FAILS")
    return items


def _run_reproduce():
    rows = []
    for name, line, want, test in _reproduce_items():
        try:
            req = parse_request(line)
            result = execute(req)["result"]
            got = COMMANDS[req.command].summary(result)
            ok = test(result) if test else got == want
        except (ParseError, SemanticError, UnsupportedComputation) as e:
            ok, want, got = False, "successful evaluation", f"error: {e}"
        rows.append({"name": name, "request": line,
                     "status": "PASS" if ok else "FAIL",
                     "expected": want, "actual": got})
    passed = sum(r["status"] == "PASS" for r in rows)
    failed = len(rows) - passed
    result = {"kind": "reproduce", "items": rows,
              "passed": passed, "failed": failed}
    lines = [f"{r['status']}  {r['name']}: {r['request']}"
             + ("" if r["status"] == "PASS"
                else f"\n      expected: {r['expected']}"
                     f"\n      actual:   {r['actual']}")
             for r in rows]
    lines.append(f"reproduce: {passed} passed, {failed} failed")
    citations = ["brauer-cw-formula", "bpgl-brauer", "kg2-trivial-brauer",
                 "kunneth-formula", "h2-exterior-square",
                 "bockstein-sequence", "phantom-formula", "jensen-finite",
                 "mittag-leffler", "compact-equality", "woodward-dim4",
                 "even-cells", "bg-strict"]
    return result, "\n".join(lines), citations, []


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

def _group_summary(res: dict) -> str:
    if res["kind"] == "group":
        return res["group"]
    flags = res["flags"]
    return "symbolic " + ",".join(
        k for k in ("nonzero", "divisible") if flags[k])


def _head(payload: dict | None) -> str:
    if payload is None:
        return "-"
    return payload["group"] if payload["kind"] == "group" else "descriptor"


def _certificate_summary(res: dict) -> str:
    rules = sorted([res["reason"], *res["also_applicable"]]
                   if res["reason"] else [])
    return f"{res['verdict']} [{','.join(rules)}]"


class _Command(NamedTuple):
    parse: Callable    # _Parser -> argument tuple
    run: Callable      # *arguments -> (result, text, citations,
                       # trace lines, read only under --trace)
    summary: Callable | None  # result -> the short text `reproduce` compares


# In the order the unknown-command message lists them.
COMMANDS = {
    "homology": _Command(_space_degree, _homology, _group_summary),
    "cohomology": _Command(
        lambda p: (*_space_degree(p), _modulus(p, required=False)),
        _cohomology, _group_summary),
    "uct": _Command(
        _space_degree, _uct,
        lambda r: f"{r['total']} = Ext {r['ext_part']} + Hom {r['hom_part']}"),
    "bockstein": _Command(
        lambda p: (*_space_degree(p), _modulus(p, required=True)),
        _bockstein,
        lambda r: f"{r['domain']}->{r['codomain']} matrix {r['matrix']}"),
    "brauer": _Command(
        lambda p: (p.space(),), _brauer,
        lambda r: f"Br'={_head(r['br_prime'])} {r['equality']['verdict']}"),
    "phantom": _Command(_phantom_args, _phantom, _group_summary),
    "certify": _Command(lambda p: (p.space(),), _certify,
                        _certificate_summary),
    "lim1": _Command(
        lambda p: (p.tower(),), _lim1,
        lambda r: r["verdict"] + (f"({r['reason']})" if r["reason"] else "")),
    "profile-brauer": _Command(lambda p: (p.profile(),), _profile_brauer,
                               lambda r: _head(r["br_prime"])),
    "non-brauer-check": _Command(_non_brauer_args, _non_brauer,
                                 lambda r: r["verdict"]),
    "catalog": _Command(
        _catalog_args, _catalog,
        lambda r: f"Br'={_head(r['br_prime'])} Br={_head(r['br'])} "
                  f"{r['verdict']}"),
    # reproduce is never an item of its own table, so it has no summary
    "reproduce": _Command(lambda p: (), _run_reproduce, None),
}


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def render_text(report: dict) -> str:
    lines = [report["result_text"]]
    lines.append("citations: " + ", ".join(report["citations"]))
    for t in report.get("trace", ()):
        lines.append("trace: " + t)
    return "\n".join(lines)


def _dump(x, pad: str) -> str:
    """x as JSON text whose nested lines start with pad plus two blanks:
    the bytes of json.dumps(x, indent=2, sort_keys=True) for the report
    vocabulary (dicts with str keys, lists, str, int, bool, None).  Any
    other value, a float or tuple or a non-str key among them, raises
    TypeError.  Reports are not cyclic, so none is checked for."""
    if isinstance(x, str):
        return _json_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ",\n".join(f"{inner}{_json_str(k)}: {_dump(v, inner)}"
                          for k, v in sorted(x.items()))
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(x, list):
        if not x:
            return "[]"
        body = ",\n".join(inner + _dump(v, inner) for v in x)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(x).__name__} "
                    "is not JSON serializable")


def render_json(report: dict) -> str:
    # The recursion stays in _dump: perfbench's tracer wraps render_json
    # by name, and a recursive render_json would be timed once per node.
    return _dump(report, "")


def _error_payload(code: int, line: str, message: str, kind: str) -> dict:
    return {"request": line,
            "error": {"code": code, "message": message, "type": kind}}


def _classify(err: Exception) -> int:
    if isinstance(err, ParseError):
        return EXIT_PARSE
    if isinstance(err, SemanticError):
        return EXIT_SEMANTIC
    if isinstance(err, UnsupportedComputation):
        return EXIT_UNSUPPORTED
    raise err


def _evaluate(line: str, trace: bool) -> tuple[int, dict]:
    """Exit code and report of one request line; a refused request's
    report is its error payload."""
    try:
        report = execute(parse_request(line), trace=trace)
    except (ParseError, SemanticError, UnsupportedComputation) as e:
        code = _classify(e)
        return code, _error_payload(code, line, str(e), type(e).__name__)
    if report["command"] == "reproduce" and report["result"]["failed"] > 0:
        return EXIT_REPRODUCE_FAIL, report
    return EXIT_OK, report


def run_line(line: str, as_json: bool, trace: bool,
             out=None) -> int:
    """Evaluate one request line; print its report; return the exit code."""
    out = out if out is not None else sys.stdout
    code, report = _evaluate(line, trace)
    if as_json:
        print(render_json(report), file=out)
    elif "error" in report:
        print(f"error: {report['error']['message']}", file=sys.stderr)
    else:
        print(render_text(report), file=out)
    return code


def run_batch(source, as_json: bool, trace: bool, out=None) -> int:
    """One request per line; blank lines and #-comments skipped; output
    order follows input order; exit code is the first nonzero code.  A
    line whose evaluation raises an unexpected exception gets an
    InternalError payload with code EXIT_INTERNAL, and the batch goes on."""
    out = out if out is not None else sys.stdout
    worst = EXIT_OK
    reports = []
    for raw in source:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            code, report = _evaluate(line, trace)
        except Exception as e:  # one line's defect must not lose the rest
            code = EXIT_INTERNAL
            report = _error_payload(
                code, line, f"internal error: {type(e).__name__}: {e}",
                "InternalError")
        if worst == EXIT_OK:
            worst = code
        reports.append(report)
    if as_json:
        print(_dump(reports, ""), file=out)
    else:
        blocks = []
        for r in reports:
            if "error" in r:
                blocks.append(f"request: {r['request']}\n"
                              f"error: {r['error']['message']}")
            else:
                blocks.append(f"request: {r['request']}\n" + render_text(r))
        print("\n\n".join(blocks), file=out)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cwbrauer",
        description="Exact Brauer-group computations on CW-complex models.")
    ap.add_argument("--json", action="store_true",
                    help="structured deterministic output")
    ap.add_argument("--trace", action="store_true",
                    help="include diagnostic witnesses")
    ap.add_argument("--batch", metavar="FILE",
                    help="read one request per line from FILE ('-' = stdin)")
    ap.add_argument("request", nargs=argparse.REMAINDER,
                    help="a command followed by its subject, e.g. "
                         "brauer 'moore3(6)'")
    ns = ap.parse_args(argv)
    if ns.batch is not None and ns.request:
        ap.error("--batch and a direct request are mutually exclusive")
    if ns.batch is None and not ns.request:
        ap.error("no request given (try: cwbrauer brauer 'moore3(6)')")
    try:
        if ns.batch == "-":
            code = run_batch(sys.stdin, ns.json, ns.trace)
        elif ns.batch is not None:
            with open(ns.batch, "r", encoding="utf-8") as fh:
                code = run_batch(fh, ns.json, ns.trace)
        else:
            code = run_line(" ".join(ns.request), ns.json, ns.trace)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Stop without a traceback, and point
        # stdout at devnull so the interpreter's final flush of what is
        # still buffered cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
