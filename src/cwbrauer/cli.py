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

Flags: --json (structured, deterministic output), --trace (diagnostic
witnesses), --batch FILE (one request per line, '-' for stdin).

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
import json
import os
import sys
from dataclasses import dataclass
from math import gcd

from .abgroup import FgAbGroup
from .chaincx import bockstein, cohomology, homology, uct_decompose
from .errors import ParseError, SemanticError, UnsupportedComputation
from .grammar import (_Parser, format_descriptor, format_group,
                      format_profile, format_space, format_tower)
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

COMMANDS = ("homology", "cohomology", "uct", "bockstein", "brauer",
            "phantom", "certify", "lim1", "profile-brauer",
            "non-brauer-check", "catalog", "reproduce")

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
    space: SpaceDescription | None = None
    degree: int | None = None
    modulus: int | None = None
    tower: object = None
    profile: object = None
    descriptor: object = None
    catalog_name: str | None = None


def parse_request(line: str) -> Request:
    line = line.strip()
    head, _, rest = line.partition(" ")
    command = head.strip()
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}; commands are "
                         + ", ".join(COMMANDS))
    p = _Parser(rest)
    req = _parse_args(command, line, p)
    p.expect_end()
    return req


def _parse_args(command: str, line: str, p: _Parser) -> Request:
    if command == "reproduce":
        return Request(command, line)
    if command in ("homology", "cohomology", "uct", "bockstein", "phantom"):
        space = p.space()
        degree = p.integer("degree")
        if degree < 0:
            raise SemanticError("degree must be >= 0")
        modulus = None
        if command == "bockstein":
            p.expect("ident", "mod", what="mod")
            modulus = p.integer("modulus")
        elif command == "cohomology" and p.accept("ident", "mod"):
            modulus = p.integer("modulus")
        if modulus is not None and modulus < 2:
            raise SemanticError("modulus must be >= 2")
        if command == "phantom" and degree < 1:
            raise SemanticError("phantom degree must be >= 1")
        return Request(command, line, space=space, degree=degree,
                       modulus=modulus)
    if command in ("brauer", "certify"):
        return Request(command, line, space=p.space())
    if command == "lim1":
        return Request(command, line, tower=p.tower())
    if command == "profile-brauer":
        return Request(command, line, profile=p.profile())
    if command == "non-brauer-check":
        profile = p.profile()
        p.expect("ident", "with", what="with")
        return Request(command, line, profile=profile,
                       descriptor=p.descriptor())
    if command == "catalog":
        if p.at("ident") and p.at("sym", "(", 1):
            space = p.space()
            if space.kind != "catalog":
                raise SemanticError(
                    "catalog takes a catalog space (bpgl/k/bg) or a fact name")
            return Request(command, line, space=space)
        name = p.expect("ident", what="catalog entry name").text
        return Request(command, line, catalog_name=name)
    raise ParseError(f"unknown command {command!r}")  # unreachable


# ---------------------------------------------------------------------------
# execution
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


def _boundary_trace(c, offset: int, degrees) -> list[str]:
    """Smith diagonals of the boundaries in the given space degrees,
    read from a window c whose degree 0 is the space's degree offset."""
    out = []
    for n in degrees:
        b = c.boundary(n - offset)
        if b.rows and b.cols:
            diag = smith_invariants(b)
            out.append(f"SNF diagonal of boundary_{n}: {list(diag)}")
        else:
            out.append(f"boundary_{n} is zero ({b.rows} x {b.cols})")
    return out


def execute(req: Request, trace: bool = False) -> dict:
    """Run one request; returns the report dictionary."""
    result: dict
    text: str
    citations: list[str]
    tr: list[str] = []

    if req.command == "homology":
        h = space_homology(req.space, req.degree)
        result = _group_payload(h)
        text = f"H_{req.degree} = {_group_text(result)}"
        citations = ["smith-normal-form"]
        if trace and req.space.kind in ("finite", "periodic"):
            c, off = req.space.window(req.degree)
            tr = _boundary_trace(c, off, (req.degree, req.degree + 1))

    elif req.command == "cohomology":
        c, off = req.space.window(req.degree)
        h = cohomology(c, req.degree - off, modulus=req.modulus)
        result = _group_payload(h)
        result["degree"] = req.degree
        if req.modulus is not None:
            result["modulus"] = req.modulus
            text = f"H^{req.degree}(; Z/{req.modulus}) = {result['group']}"
        else:
            text = f"H^{req.degree} = {result['group']}"
        citations = ["universal-coefficients", "smith-normal-form"]
        if trace:
            tr = _boundary_trace(c, off, (req.degree, req.degree + 1))

    elif req.command == "uct":
        c, off = req.space.window(req.degree)
        u = uct_decompose(c, req.degree - off)
        result = {"kind": "uct", "degree": req.degree,
                  "ext_part": format_group(u.ext_part),
                  "hom_part": format_group(u.hom_part),
                  "total": format_group(u.total)}
        text = (f"H^{req.degree} = {result['total']} with Ext part "
                f"{result['ext_part']} and Hom part {result['hom_part']}")
        citations = ["universal-coefficients"]
        if trace:
            tr = _boundary_trace(c, off, (req.degree, req.degree + 1))

    elif req.command == "bockstein":
        c, off = req.space.window(req.degree)
        beta = bockstein(c, req.degree - off, req.modulus)
        result = {"kind": "hom",
                  "domain": format_group(beta.domain),
                  "codomain": format_group(beta.codomain),
                  "matrix": beta.matrix.to_lists(),
                  "is_zero": beta.is_zero()}
        text = (f"Bockstein H^{req.degree}(; Z/{req.modulus}) -> "
                f"H^{req.degree + 1}: {result['domain']} -> "
                f"{result['codomain']}, matrix {result['matrix']}")
        citations = ["bockstein-sequence"]
        if trace:
            tr = _boundary_trace(c, off, (req.degree, req.degree + 1,
                                          req.degree + 2))

    elif req.command == "brauer":
        bp = brauer_prime(req.space)
        cert = equality_certificate(req.space)
        bp_payload = _group_payload(bp)
        if req.space.kind == "catalog":
            entry = catalog_lookup(req.space)
            br_payload = (_group_payload(entry.br)
                          if entry.br is not None else None)
        elif cert.verdict == EQUAL and isinstance(bp, FgAbGroup):
            br_payload = _group_payload(bp)
        else:
            br_payload = None
        result = {"kind": "brauer", "br_prime": bp_payload,
                  "br": br_payload,
                  "equality": {"verdict": cert.verdict,
                               "reason": cert.reason,
                               "witness": cert.witness,
                               "also_applicable": list(cert.also_applicable)}}
        br_text = (_group_text(br_payload) if br_payload is not None
                   else "undetermined")
        text = (f"Br' = {_group_text(bp_payload)}; Br = {br_text}; "
                f"equality: {cert.verdict}"
                + (f" ({cert.reason})" if cert.reason else ""))
        citations = ["brauer-cw-formula"]
        citations += _certificate_citations(req.space, cert)
        if trace and req.space.kind in ("finite", "periodic"):
            c, off = req.space.window(2)
            tr = _boundary_trace(c, off, (2, 3))

    elif req.command == "phantom":
        ph = phantom_subgroup(req.space, req.degree)
        result = _group_payload(ph)
        result["degree"] = req.degree
        text = f"phantom subgroup of H^{req.degree} = {_group_text(result)}"
        citations = ["phantom-formula"]
        if result["kind"] == "symbolic_group":
            citations += ["ext-divisible", "pext-ulm"]

    elif req.command == "certify":
        cert = equality_certificate(req.space)
        result = {"kind": "certificate", "verdict": cert.verdict,
                  "reason": cert.reason, "witness": cert.witness,
                  "also_applicable": list(cert.also_applicable)}
        text = (f"{cert.verdict}"
                + (f" ({cert.reason})" if cert.reason else "")
                + f": {cert.witness}")
        citations = ["brauer-cw-formula"]
        citations += _certificate_citations(req.space, cert)
        tr = [f"applicable rules, in priority order: "
              f"{list(cert.applicable_rules) or 'none'}"]

    elif req.command == "lim1":
        cert = lim1_certificate(req.tower)
        result = {"kind": "lim1", "verdict": cert.verdict,
                  "reason": cert.reason, "witness": cert.witness}
        text = (f"lim^1 {cert.verdict}"
                + (f" ({cert.reason})" if cert.reason else "")
                + f": {cert.witness}")
        citations = {"JensenFinite": ["jensen-finite"],
                     "MittagLeffler": ["mittag-leffler"]}.get(
                         cert.reason, ["mittag-leffler", "jensen-finite"])
        tr = [cert.witness]

    elif req.command == "profile-brauer":
        lam = lambda_square_profile(req.profile)
        bb = brauer_of_bg(req.profile)
        result = {"kind": "profile_brauer",
                  "profile": format_profile(req.profile),
                  "lambda_square": format_profile(lam),
                  "br_prime": _group_payload(bb)}
        text = f"Br'(BG) = {_group_text(result['br_prime'])}"
        citations = ["h2-exterior-square", "bg-brauer-formula",
                     "basic-subgroup"]
        tr = [f"Lambda^2 profile: {format_profile(lam)}"]

    elif req.command == "non-brauer-check":
        rep = non_brauer_certificate(req.profile, req.descriptor)
        result = {"kind": "non_brauer", "verdict": rep.verdict,
                  "profile": format_profile(req.profile),
                  "rules": format_descriptor(req.descriptor)
                  if req.descriptor.rules else "",
                  "conditions": [[t, ok, why] for t, ok, why in rep.conditions],
                  "witness": rep.witness}
        text = f"{rep.verdict}: {rep.witness}"
        citations = ["bg-strict", "bg-brauer-formula"]
        tr = [f"condition {'holds' if ok else 'fails'}: {t} ({why})"
              for t, ok, why in rep.conditions]

    elif req.command == "catalog":
        entry = catalog_lookup(req.space if req.space is not None
                               else req.catalog_name)
        result = {"kind": "catalog", "name": entry.name,
                  "br_prime": (_group_payload(entry.br_prime)
                               if entry.br_prime is not None else None),
                  "br": (_group_payload(entry.br)
                         if entry.br is not None else None),
                  "verdict": entry.verdict,
                  "equality_note": entry.equality_note,
                  "notes": list(entry.notes)}
        bits = [entry.name + ":"]
        if result["br_prime"] is not None:
            bits.append(f"Br' = {_group_text(result['br_prime'])},")
        if result["br"] is not None:
            bits.append(f"Br = {_group_text(result['br'])},")
        bits.append(entry.verdict)
        text = " ".join(bits)
        citations = list(entry.citations)

    elif req.command == "reproduce":
        result, text, citations = _run_reproduce(trace)

    else:  # pragma: no cover - parse_request filters commands
        raise SemanticError(f"unknown command {req.command!r}")

    report = {"request": req.text, "command": req.command,
              "result": result, "result_text": text,
              "citations": sorted(set(citations))}
    if trace:
        report["trace"] = tr
    return report


def _certificate_citations(x: SpaceDescription, cert) -> list[str]:
    out: list[str] = []
    for rule in cert.applicable_rules:
        out += list(_RULE_CITATIONS.get(rule, ()))
        if rule == "CatalogTheorem":
            out += list(catalog_lookup(x).citations)
    return out


# ---------------------------------------------------------------------------
# reproduce: the built-in worked-example table
# ---------------------------------------------------------------------------

def _reproduce_items():
    """Yield (name, request line, check) triples.

    Each check inspects the result dictionary and returns
    (ok, expected text, actual text).
    """
    items = []

    def expect_eq(what):
        def check(res, want=what):
            actual = _summarize(res)
            return actual == want, want, actual
        return check

    def _summarize(res: dict) -> str:
        kind = res.get("kind")
        if kind == "group":
            return res["group"]
        if kind == "symbolic_group":
            flags = res["flags"]
            names = [k for k in ("nonzero", "divisible") if flags.get(k)]
            return "symbolic " + ",".join(names)
        if kind == "brauer":
            bp = res["br_prime"]
            head = (bp["group"] if bp["kind"] == "group"
                    else "descriptor")
            eq = res["equality"]
            return f"Br'={head} {eq['verdict']}"
        if kind == "certificate":
            rules = ",".join(sorted([res["reason"], *res["also_applicable"]])
                             if res["reason"] else [])
            return f"{res['verdict']} [{rules}]"
        if kind == "lim1":
            return (f"{res['verdict']}"
                    + (f"({res['reason']})" if res["reason"] else ""))
        if kind == "non_brauer":
            return res["verdict"]
        if kind == "profile_brauer":
            bp = res["br_prime"]
            return bp["group"] if bp["kind"] == "group" else "descriptor"
        if kind == "catalog":
            bp = res["br_prime"]
            head = (bp["group"] if bp and bp["kind"] == "group"
                    else "descriptor" if bp else "-")
            br = res["br"]
            bhead = (br["group"] if br and br["kind"] == "group"
                     else "descriptor" if br else "-")
            return f"Br'={head} Br={bhead} {res['verdict']}"
        if kind == "hom":
            return (f"{res['domain']}->{res['codomain']} "
                    f"matrix {res['matrix']}")
        if kind == "uct":
            return (f"{res['total']} = Ext {res['ext_part']} + "
                    f"Hom {res['hom_part']}")
        return json.dumps(res, sort_keys=True)

    # --- worked example family: 3-cell spaces (exact small table) ---
    for n in range(2, 13):
        items.append((f"moore3({n}) brauer", f"brauer moore3({n})",
                      expect_eq(f"Br'=Z/{n} EQUAL")))
        items.append((f"moore3({n}) H^3", f"cohomology moore3({n}) 3",
                      expect_eq(f"Z/{n}")))
        items.append((f"bpgl({n}) catalog", f"catalog bpgl({n})",
                      expect_eq(f"Br'=Z/{n} Br=Z/{n} EQUAL")))
        items.append((f"k(Z/{n},2) catalog", f"catalog k(Z/{n}, 2)",
                      expect_eq(f"Br'=Z/{n} Br=0 STRICT")))
    items.append(("k(Q/Z,2) catalog", "catalog k(Q/Z, 2)",
                  expect_eq("Br'=0 Br=0 EQUAL")))
    items.append(("k(Z/5,3) catalog", "catalog k(Z/5, 3)",
                  expect_eq("Br'=0 Br=0 EQUAL")))
    items.append(("k(Z^2+Z/3,4) catalog", "catalog k(Z^2 + Z/3, 4)",
                  expect_eq("Br'=0 Br=0 EQUAL")))

    # --- exterior-square vs Kunneth agreement ---
    for m in range(2, 9):
        for n in range(2, 9):
            g = gcd(m, n)
            want = "0" if g == 1 else f"Z/{g}"
            items.append((
                f"kunneth lens({m})xlens({n})",
                f"brauer product(lens({m}, 3), lens({n}, 3))",
                expect_eq(f"Br'={want} EQUAL")))
            if m == n:
                lit = f"(Z/{m})^2"
            else:
                a, b = sorted((m, n))
                lit = f"(Z/{a})^1 + (Z/{b})^1"
            items.append((f"profile lambda {m},{n}",
                          f"profile-brauer {lit}",
                          expect_eq(want)))

    # --- Bockstein family ---
    for m in range(2, 11):
        def check_bock(res, m=m):
            want = f"Z/{m}->Z/{m} unit matrix entry"
            if res.get("kind") != "hom":
                return False, want, _summarize(res)
            ok = (res["domain"] == f"Z/{m}" and res["codomain"] == f"Z/{m}"
                  and len(res["matrix"]) == 1 and len(res["matrix"][0]) == 1
                  and gcd(res["matrix"][0][0], m) == 1)
            actual = (f"{res['domain']}->{res['codomain']} "
                      f"matrix {res['matrix']}")
            return ok, want, actual
        items.append((f"bockstein moore3({m})",
                      f"bockstein moore3({m}) 2 mod {m}", check_bock))

    # --- phantom subgroups ---
    def check_phantom_nonzero(res):
        want = "symbolic nonzero,divisible"
        return _summarize(res) == want, want, _summarize(res)
    items.append(("phantom telescope x5", "phantom telescope(Z, x5) 2",
                  check_phantom_nonzero))
    for d in range(1, 6):
        items.append((f"phantom lens_periodic deg {d}",
                      f"phantom lens_periodic(4) {d}", expect_eq("0")))
    items.append(("phantom moore3(6)", "phantom moore3(6) 3",
                  expect_eq("0")))
    items.append(("phantom product", "phantom product(lens(4, 3), lens(6, 3)) 3",
                  expect_eq("0")))

    # --- lim^1 certificates ---
    items.append(("lim1 finite block",
                  "lim1 tower block [Z/4 -(x2)-> Z/8, Z/8 -(x1)-> Z/4]",
                  expect_eq("VANISHES(JensenFinite)")))
    items.append(("lim1 constant Z",
                  "lim1 tower block [Z -(id)-> Z]",
                  expect_eq("VANISHES(MittagLeffler)")))
    items.append(("lim1 times 5",
                  "lim1 tower block [Z -(x5)-> Z]",
                  expect_eq("INCONCLUSIVE")))

    # --- equality certificates and descriptor checks ---
    items.append(("certify moore3(7)", "certify moore3(7)",
                  expect_eq("EQUAL [CompactSerre,EvenCells,WoodwardDimLe4]")))
    items.append(("certify even 6-complex",
                  "certify wedge(sphere(2), sphere(4), sphere(6))",
                  expect_eq("EQUAL [CompactSerre,EvenCells]")))
    items.append(("certify k(Z/5,2)", "certify k(Z/5, 2)",
                  expect_eq("STRICT [CatalogTheorem]")))
    items.append(("certify telescope", "certify telescope(Z, x5)",
                  expect_eq("EQUAL [EvenCells,WoodwardDimLe4]")))
    items.append(("non-brauer certified",
                  "non-brauer-check (Z/3)^w with rule i>=1: J=(i, 2i]",
                  expect_eq("CERTIFIED_NOT_IN_BR")))
    items.append(("non-brauer bounded rules",
                  "non-brauer-check (Z/3)^w with rule 1<=i<=9: J=(i, 2i]",
                  expect_eq("CONDITION_FAILS")))
    items.append(("non-brauer singleton intervals",
                  "non-brauer-check (Z/3)^w with rule i>=1: J=(i, i+1]",
                  expect_eq("CONDITION_FAILS")))
    return items


def _run_reproduce(trace: bool):
    rows = []
    passed = failed = 0
    for name, line, check in _reproduce_items():
        try:
            report = execute(parse_request(line), trace=False)
            ok, want, got = check(report["result"])
        except (ParseError, SemanticError, UnsupportedComputation) as e:
            ok, want, got = False, "successful evaluation", f"error: {e}"
        status = "PASS" if ok else "FAIL"
        if ok:
            passed += 1
        else:
            failed += 1
        rows.append({"name": name, "request": line, "status": status,
                     "expected": want, "actual": got})
    result = {"kind": "reproduce", "items": rows,
              "passed": passed, "failed": failed}
    lines = [f"{r['status']}  {r['name']}: {r['request']}"
             + ("" if r["status"] == "PASS"
                else f"\n      expected: {r['expected']}"
                     f"\n      actual:   {r['actual']}")
             for r in rows]
    lines.append(f"reproduce: {passed} passed, {failed} failed")
    text = "\n".join(lines)
    citations = ["brauer-cw-formula", "bpgl-brauer", "kg2-trivial-brauer",
                 "kunneth-formula", "h2-exterior-square",
                 "bockstein-sequence", "phantom-formula", "jensen-finite",
                 "mittag-leffler", "compact-equality", "woodward-dim4",
                 "even-cells", "bg-strict"]
    return result, text, citations


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def render_text(report: dict) -> str:
    lines = [report["result_text"]]
    lines.append("citations: " + ", ".join(report["citations"]))
    for t in report.get("trace", ()):
        lines.append("trace: " + t)
    return "\n".join(lines)


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


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
        print(json.dumps(reports, indent=2, sort_keys=True), file=out)
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
