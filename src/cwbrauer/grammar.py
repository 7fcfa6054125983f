"""Shared text grammars: groups, profiles, complexes, spaces, towers,
obstruction descriptors.

Every parse_* function has a matching format_* function and the pair
satisfies parse(format(x)) == x on canonical values.  Parsers are
whitespace-insensitive and report positions (line, column) on failure.

Grammar summary::

  GROUP      ::= "0" | gterm ("+" gterm)*          gterm ::= "Z" | "Z^" INT | "Z/" INT
  PROFILE    ::= "0" | pterm ("+" pterm)*          pterm ::= "(Z/" INT ")^" (INT | "w")
  COMPLEX    ::= "complex" "{" stmt (";" stmt)* ";"? "}"
                 stmt ::= "cells" INT ":" INT | "boundary" INT ":" MATRIX
  MATRIX     ::= "[" [ ROW ("," ROW)* ] "]"        ROW ::= "[" [ int ("," int)* ] "]"
  SPACE      ::= sphere(n) | moore3(n) | lens(n, top) | lens_periodic(n)
               | wedge(SPACE, SPACE, ...) | product(SPACE, SPACE)
               | k(GROUP | Q/Z, j) | bpgl(n) | bg(PROFILE)
               | telescope(Z, xK) | COMPLEX
  TOWER      ::= "tower" ["prefix" "[" CHAIN "]"] "block" "[" LINKS "]"
                 CHAIN ::= GROUP ("<-(" MAP ")-" GROUP)*     (map: right to left)
                 LINKS ::= LINK ("," LINK)*
                 LINK  ::= GROUP "-(" MAP ")->" GROUP        (map: left to right)
                 MAP   ::= "id" | "x" int | MATRIX
  DESCRIPTOR ::= RULE (";" RULE)*
                 RULE ::= "rule" ("i" ">=" INT | INT "<=" "i" "<=" INT)
                          ":" "J" "=" "(" AFFINE "," AFFINE "]"
                 AFFINE ::= [int] "i" [("+"|"-") INT] | int

Space expressions nest at most MAX_SPACE_NESTING builders deep; a
deeper one is refused with UnsupportedComputation (CLI exit code 4)
rather than left to exhaust the interpreter's recursion limit.  A
finite complex built by a space expression has at most
MAX_COMPLEX_CELLS cells and no cells above degree MAX_COMPLEX_DEGREE;
both are checked before the complex is built, and a larger one is
refused the same way.  So is a group literal with more than
MAX_GROUP_GENERATORS cyclic generators (Z^n counts n), a profile
literal with more than MAX_PROFILE_MULTIPLICITY finite cyclic summands
(w counts none), and an integer literal with more digits than the
interpreter converts (sys.get_int_max_str_digits).

A well-formed numeric MATRIX with at least one row is one token, and
its entries are read by splitting its text, so a dense complex literal
costs a few tokens, not one per bracket, comma, sign and digit run.
Anything else that starts with "[" is read token by token.  Where a
message needs it, a matrix token is first turned back into those plain
tokens, so every error, its line and its column read as if matrices
were always read token by token.

A tower is read front to back, once: each map is kept as written and
becomes a GroupHom when the groups on both sides of its arrow are read.
The block links are listed as B_0, B_1, ..., each with its map to the
previous stage (B_i maps to B_{(i-1) mod m}); `Tower` checks the
printed target group against that convention.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .abgroup import FgAbGroup, GroupHom
from .chaincx import ChainComplex
from .errors import ParseError, SemanticError, UnsupportedComputation
from .intlin import IntMatrix
from .limits import Tower
from .profiles import (OMEGA, AffineExpr, CyclicProfile, ObstructionDescriptor,
                       Rule, format_profile)
from . import spaces as _sp

# Deepest space expression the parser accepts: far above any real
# description (wedge(product(...)) trees nest a handful of levels), far
# below the recursion limit (each level costs two parser frames).
MAX_SPACE_NESTING = 64

# Largest finite complex a space expression may build: cells in all
# degrees, and top degree.  `product` multiplies cell counts, and Smith
# normal form is cubic in the widest boundary: homology of the 9-fold
# product of circles (512 cells) takes seconds, one more factor over a
# minute.  The tests and benchmark stay below 202 cells and degree 18.
MAX_COMPLEX_CELLS = 512
MAX_COMPLEX_DEGREE = 512

# Largest group and profile literals.  A tower map on Z^n is an n x n
# matrix that lim1 eliminates: lim1 of Z^128 -(x2)-> Z^128 takes 0.12 s
# and of Z^512 4 s.  A profile with k finite cyclic summands has
# k(k-1)/2 in Lambda^2: at k = 64, brauer bg((Z/4)^64) takes 2.7 ms and
# brauer bg((Z/4)^32 + (Z/6)^32) 3.6 ms through cli.run_line, best of 3
# (Python 3.11, 2 cores).  The tests read at most 7 generators and 64
# finite summands, the benchmark 4 and 6.
MAX_GROUP_GENERATORS = 128
MAX_PROFILE_MULTIPLICITY = 64

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# Matrix entries are (-\s*)?\d+: with -?\s*\d+ the two \s* that meet
# after a comma could share a run of blanks in many ways, and a long
# literal missing its last "]" would backtrack for minutes.
_ENTRY = r"(?:-\s*)?\d+"
_ROW = rf"\[\s*(?:{_ENTRY}(?:\s*,\s*{_ENTRY})*\s*)?\]"
_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<matrix>\[\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\])
  | (?P<sym><=|>=|[\^+/()\[\]{{}},;:=<>-])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str   # "int" | "ident" | "matrix" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(src: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of src, whose first character sits at (line, col)."""
    out: list[Token] = []
    line_start = 1 - col   # offset of column 1 of the current line
    pos = 0
    for m in _TOKEN_RE.finditer(src):
        start = m.start()
        if start != pos:   # finditer skipped a character no token matches
            break
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            out.append(Token(kind, text, line, start - line_start + 1))
        if "\n" in text:   # only blanks and matrices span lines
            line += text.count("\n")
            line_start = start + text.rfind("\n") + 1
        pos = m.end()
    if pos < len(src):
        raise ParseError(f"unexpected character {src[pos]!r}",
                         line=line, column=pos - line_start + 1)
    out.append(Token("eof", "", line, pos - line_start + 1))
    return out


def _refusal(message: str, t: Token) -> UnsupportedComputation:
    """The refusal of a well-formed literal too large to compute, placed
    at token t."""
    return UnsupportedComputation(f"{message} (line {t.line}, column {t.col})")


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.space_depth = 0

    # -- token plumbing ----------------------------------------------------
    # self.pos never passes the final "eof" token: next() stays on it, and
    # no caller accepts or expects kind "eof".  So the cursor reads
    # self.tokens[self.pos] directly; only a lookahead past it is clamped.
    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.tokens[min(self.pos + ahead, len(self.tokens) - 1)
                        if ahead else self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.tokens[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None,
               what: str | None = None) -> Token:
        t = self.accept(kind, text)
        if t is not None:
            return t
        t = self.tokens[self.pos]
        if t.kind == "matrix":   # a matrix where none belongs, or a "["
            self._unfold_matrix()
            return self.expect(kind, text, what)
        want = what or (text if text is not None else kind)
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"expected {want!r}, found {got!r}",
                         line=t.line, column=t.col)

    def fail(self, message: str):
        t = self.tokens[self.pos]
        raise ParseError(message, line=t.line, column=t.col)

    def expect_end(self):
        if self.at("matrix"):
            self._unfold_matrix()
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.fail(f"unexpected trailing input {t.text!r}")

    def _unfold_matrix(self):
        """Replace the matrix token at the cursor by the plain tokens of
        its text, so a message names and places the "[" it starts with.
        Only a row follows that first "[", so the rest of the text
        tokenizes into plain tokens."""
        t = self.tokens[self.pos]
        self.tokens[self.pos:self.pos + 1] = (
            [Token("sym", "[", t.line, t.col)]
            + _tokenize(t.text[1:], t.line, t.col + 1)[:-1])

    # -- shared small pieces -------------------------------------------
    def integer(self, what: str = "integer") -> int:
        sign = -1 if self.accept("sym", "-") else 1
        return sign * self.unsigned(what)

    def unsigned(self, what: str = "number") -> int:
        t = self.expect("int", what=what)
        return self._digits(t.text, t)

    @staticmethod
    def _digits(text: str, t: Token) -> int:
        """The value of a digit string; one longer than the interpreter
        converts (sys.get_int_max_str_digits) is refused, not raised."""
        try:
            return int(text)
        except ValueError:
            raise _refusal(f"integer literal of {len(text)} digits is too "
                           "long", t) from None

    # -- group literals ----------------------------------------------------
    def group(self) -> FgAbGroup:
        if self.at("int", "0"):
            self.next()
            return FgAbGroup.trivial()
        start = self.tokens[self.pos]
        free = 0
        torsion: list[int] = []
        while True:
            self.expect("ident", "Z", what="Z")
            if self.accept("sym", "^"):
                free += self.unsigned("free rank")
            elif self.accept("sym", "/"):
                d = self.unsigned("cyclic order")
                if d == 1:
                    raise SemanticError(
                        "Z/1 is forbidden; write 0 for the trivial group")
                if d == 0:
                    raise SemanticError("Z/0 is forbidden; write Z")
                torsion.append(d)
            else:
                free += 1
            if free + len(torsion) > MAX_GROUP_GENERATORS:
                raise _refusal("group literal has more than "
                               f"{MAX_GROUP_GENERATORS} cyclic generators",
                               start)
            if not self.accept("sym", "+"):
                break
        return FgAbGroup.from_cyclic_orders([0] * free + torsion)

    # -- profile literals ----------------------------------------------
    def profile(self) -> CyclicProfile:
        if self.at("int", "0"):
            self.next()
            return CyclicProfile()
        start = self.tokens[self.pos]
        finite = 0
        pairs: list[tuple[int, object]] = []
        while True:
            self.expect("sym", "(")
            self.expect("ident", "Z", what="Z")
            self.expect("sym", "/")
            order = self.unsigned("cyclic order")
            if order < 2:
                raise SemanticError("profile orders must be >= 2")
            self.expect("sym", ")")
            self.expect("sym", "^")
            if self.accept("ident", "w"):
                mult: object = OMEGA
            else:
                mult = self.unsigned("multiplicity")
                if mult < 1:
                    raise SemanticError("multiplicities must be >= 1 (or w)")
                finite += mult
                if finite > MAX_PROFILE_MULTIPLICITY:
                    raise _refusal(
                        f"profile literal has more than "
                        f"{MAX_PROFILE_MULTIPLICITY} finite cyclic summands",
                        start)
            pairs.append((order, mult))
            if not self.accept("sym", "+"):
                break
        return CyclicProfile.from_pairs(pairs)

    # -- matrices ------------------------------------------------------
    def matrix_rows(self) -> list[list[int]]:
        rows = self._matrix_token_rows() if self.at("matrix") else None
        if rows is None:   # no matrix token: read it token by token
            self.expect("sym", "[")
            rows = []
            if not self.at("sym", "]"):
                while True:
                    self.expect("sym", "[")
                    row = []
                    if not self.at("sym", "]"):
                        row.append(self.integer("matrix entry"))
                        while self.accept("sym", ","):
                            row.append(self.integer("matrix entry"))
                    rows.append(row)
                    self.expect("sym", "]")
                    if not self.accept("sym", ","):
                        break
            self.expect("sym", "]")
        if len({len(r) for r in rows}) > 1:
            raise SemanticError("matrix rows have differing lengths")
        return rows

    def _matrix_token_rows(self) -> list[list[int]] | None:
        """The rows of the matrix token at the cursor, read by splitting
        its text.  An entry too long for int() unfolds the token and
        gives None, so the token path reports it with its position."""
        text = self.tokens[self.pos].text
        body = "".join(text.split())[2:-2]   # "1,-2],[],[3,4"
        try:
            rows = [[int(x) for x in r.split(",")] if r else []
                    for r in body.split("],[")]
        except ValueError:
            self._unfold_matrix()
            return None
        self.pos += 1
        return rows

    # -- complex literals ------------------------------------------------
    def complex(self) -> ChainComplex:
        return ChainComplex(*self._complex_chains())

    def _complex_chains(self) -> tuple[tuple, tuple]:
        """The ranks and boundary matrices of a complex literal, checked
        against the size caps; del del = 0 is left to ChainComplex."""
        t = self.expect("ident", "complex", what="complex")
        self.expect("sym", "{")
        cells: dict[int, int] = {}
        bnds: dict[int, list[list[int]]] = {}
        while not self.at("sym", "}"):
            if self.accept("ident", "cells"):
                n = self.unsigned("degree")
                self.expect("sym", ":")
                k = self.unsigned("cell count")
                if n in cells:
                    raise SemanticError(f"cells {n} given twice")
                cells[n] = k
            elif self.accept("ident", "boundary"):
                n = self.unsigned("degree")
                if n < 1:
                    raise SemanticError("boundary degree must be >= 1")
                self.expect("sym", ":")
                if n in bnds:
                    raise SemanticError(f"boundary {n} given twice")
                bnds[n] = self.matrix_rows()
            else:
                self.fail("expected 'cells' or 'boundary'")
            if not self.accept("sym", ";"):
                break
        self.expect("sym", "}")
        if not cells:
            raise SemanticError("complex literal needs at least one cells entry")
        top = max(max(cells), max(bnds, default=0))
        self._check_size(sum(cells.values()), top, t)
        ranks = [cells.get(n, 0) for n in range(top + 1)]
        mats = []
        for n in range(1, top + 1):
            rows, cols = ranks[n - 1], ranks[n]
            if n in bnds:
                given = bnds[n]
                grows = len(given)
                gcols = len(given[0]) if given else 0
                if grows != rows or (grows and gcols != cols):
                    raise SemanticError(
                        f"boundary {n} must be {rows} x {cols}")
                mats.append(IntMatrix(given, cols=cols))
            else:
                mats.append(IntMatrix.zeros(rows, cols))
        return tuple(ranks), tuple(mats)

    # -- space literals ----------------------------------------------------
    def space(self) -> _sp.SpaceDescription:
        if self.at("ident", "complex"):
            return _sp.from_literal(*self._complex_chains())
        t = self.expect("ident", what="space builder")
        name = t.text
        self.expect("sym", "(")
        if self.space_depth == MAX_SPACE_NESTING:
            raise _refusal(f"space expression nested more than "
                           f"{MAX_SPACE_NESTING} levels deep", t)
        self.space_depth += 1
        try:
            out = self._space_args(name, t)
        finally:
            self.space_depth -= 1
        self.expect("sym", ")")
        return out

    def _check_size(self, cells: int, top: int, t: Token):
        """Refuse a finite complex over MAX_COMPLEX_CELLS cells or with
        cells above degree MAX_COMPLEX_DEGREE, before it is built."""
        if cells > MAX_COMPLEX_CELLS or top > MAX_COMPLEX_DEGREE:
            raise _refusal(
                f"space expression builds {cells} cells up to degree {top}; "
                f"at most {MAX_COMPLEX_CELLS} cells up to degree "
                f"{MAX_COMPLEX_DEGREE} are supported", t)

    def _space_args(self, name: str, t: Token) -> _sp.SpaceDescription:
        if name == "sphere":
            n = self.unsigned("dimension")
            self._check_size(2, n, t)
            return _sp.sphere(n)
        if name == "moore3":
            return _sp.moore_3cell(self.unsigned("attachment degree"))
        if name == "lens":
            n = self.unsigned("lens parameter")
            self.expect("sym", ",")
            top = self.unsigned("top degree")
            self._check_size(top + 1, top, t)
            return _sp.lens_skeleton(n, top)
        if name == "lens_periodic":
            return _sp.lens_periodic(self.unsigned("lens parameter"))
        if name == "wedge":
            parts = [self.space()]
            while self.accept("sym", ","):
                parts.append(self.space())
            if all(x.kind == "finite" for x in parts):
                # the summands share their one 0-cell
                self._check_size(
                    1 + sum(sum(x.cells.ranks) - x.cells.rank(0)
                            for x in parts),
                    max(x.cells.top_degree for x in parts), t)
            return _sp.wedge(parts)
        if name == "product":
            a = self.space()
            self.expect("sym", ",")
            b = self.space()
            if a.kind == b.kind == "finite":
                self._check_size(
                    sum(a.cells.ranks) * sum(b.cells.ranks),
                    a.cells.top_degree + b.cells.top_degree, t)
            return _sp.product(a, b)
        if name == "bpgl":
            return _sp.bpgl(self.unsigned("bundle rank"))
        if name == "k":
            if (self.at("ident", "Q") and self.at("sym", "/", 1)
                    and self.at("ident", "Z", 2)):
                self.next()
                self.next()
                self.next()
                g: object = _sp.QZ_TOKEN
            else:
                g = self.group()
            self.expect("sym", ",")
            j = self.unsigned("degree")
            return _sp.k_space(g, j)
        if name == "bg":
            return _sp.bg_profile(self.profile())
        if name == "telescope":
            self.expect("ident", "Z", what="Z")
            self.expect("sym", ",")
            k = self._scalar_map("telescope multiplier")
            return _sp.telescope_z(k)
        self.fail(f"unknown space builder {name!r}")

    def _scalar_map(self, what: str) -> int:
        t = self.expect("ident", what=what)
        if re.fullmatch(r"x\d+", t.text):
            return self._digits(t.text[1:], t)
        if t.text == "x":
            return self.integer(what)
        raise ParseError(f"expected {what} like 'x5', found {t.text!r}",
                         line=t.line, column=t.col)

    # -- tower literals ------------------------------------------------
    def _map(self):
        """The map of an arrow's shaft "-(" MAP ")-", as written: "id",
        the k of x<k>, or the matrix rows.  _hom makes it a GroupHom
        once the groups on both sides are read."""
        self.expect("sym", "-")
        self.expect("sym", "(")
        if self.accept("ident", "id"):
            spec = "id"
        elif self.at("ident"):
            spec = self._scalar_map("scalar map")
        elif self.at("matrix") or self.at("sym", "["):
            spec = self.matrix_rows()
        else:
            self.fail("expected a map: id, x<k>, or a matrix")
        self.expect("sym", ")")
        self.expect("sym", "-")
        return spec

    @staticmethod
    def _hom(spec, domain: FgAbGroup, codomain: FgAbGroup) -> GroupHom:
        if spec == "id":
            if domain != codomain:
                raise SemanticError("id needs equal domain and codomain")
            return GroupHom.identity(domain)
        if isinstance(spec, int):
            return GroupHom.scalar(domain, codomain, spec)
        nc = len(codomain.cyclic_orders())
        nd = len(domain.cyclic_orders())
        if len(spec) != nc or (spec and len(spec[0]) != nd):
            raise SemanticError(f"map matrix must be {nc} x {nd}")
        return GroupHom(domain, codomain, IntMatrix(spec, cols=nd))

    def tower(self) -> Tower:
        self.expect("ident", "tower", what="tower")
        prefix_groups: list[FgAbGroup] = []
        prefix_maps: list[GroupHom] = []
        if self.accept("ident", "prefix"):
            self.expect("sym", "[")
            if not self.at("sym", "]"):
                prefix_groups.append(self.group())
                while self.accept("sym", "<"):
                    # "<-(" MAP ")-" GROUP: the map's source is on the right
                    spec = self._map()
                    src = self.group()
                    prefix_maps.append(self._hom(spec, src, prefix_groups[-1]))
                    prefix_groups.append(src)
            self.expect("sym", "]")
        self.expect("ident", "block", what="block")
        self.expect("sym", "[")
        block_groups: list[FgAbGroup] = []
        block_maps: list[GroupHom] = []
        while True:
            src = self.group()
            spec = self._map()
            self.expect("sym", ">")
            block_groups.append(src)
            block_maps.append(self._hom(spec, src, self.group()))
            if not self.accept("sym", ","):
                break
        self.expect("sym", "]")
        return Tower(prefix_groups=tuple(prefix_groups),
                     prefix_maps=tuple(prefix_maps),
                     block_groups=tuple(block_groups),
                     block_maps=tuple(block_maps))

    # -- descriptor literals ---------------------------------------------
    def affine(self) -> AffineExpr:
        sign = -1 if self.accept("sym", "-") else 1
        if self.at("int"):
            n = self.unsigned()
            if self.accept("ident", "i"):
                a = sign * n
                b = self._affine_tail()
                return AffineExpr(a, b)
            return AffineExpr(0, sign * n)
        if self.accept("ident", "i"):
            return AffineExpr(sign, self._affine_tail())
        self.fail("expected an affine expression in i")

    def _affine_tail(self) -> int:
        if self.accept("sym", "+"):
            return self.unsigned("constant")
        if self.accept("sym", "-"):
            return -self.unsigned("constant")
        return 0

    def rule(self) -> Rule:
        self.expect("ident", "rule", what="rule")
        if self.at("ident", "i"):
            self.next()
            self.expect("sym", ">=")
            lo = self.integer("lower index bound")
            hi: int | None = None
        else:
            lo = self.integer("lower index bound")
            self.expect("sym", "<=")
            self.expect("ident", "i", what="i")
            self.expect("sym", "<=")
            hi = self.integer("upper index bound")
        self.expect("sym", ":")
        self.expect("ident", "J", what="J")
        self.expect("sym", "=")
        self.expect("sym", "(")
        lower = self.affine()
        self.expect("sym", ",")
        upper = self.affine()
        self.expect("sym", "]")
        return Rule(lo, hi, lower, upper)

    def descriptor(self) -> ObstructionDescriptor:
        rules = [self.rule()]
        while self.accept("sym", ";"):
            rules.append(self.rule())
        return ObstructionDescriptor(tuple(rules))


# ---------------------------------------------------------------------------
# public parse entry points
# ---------------------------------------------------------------------------

def _parse_with(src: str, method: str):
    p = _Parser(src)
    out = getattr(p, method)()
    p.expect_end()
    return out


def parse_group(src: str) -> FgAbGroup:
    return _parse_with(src, "group")


def parse_profile(src: str) -> CyclicProfile:
    return _parse_with(src, "profile")


def parse_complex(src: str) -> ChainComplex:
    return _parse_with(src, "complex")


def parse_space(src: str) -> _sp.SpaceDescription:
    return _parse_with(src, "space")


def parse_tower(src: str) -> Tower:
    return _parse_with(src, "tower")


def parse_descriptor(src: str) -> ObstructionDescriptor:
    return _parse_with(src, "descriptor")


# ---------------------------------------------------------------------------
# formatters (inverses of the parsers on canonical values)
# ---------------------------------------------------------------------------

def format_group(g: FgAbGroup) -> str:
    return str(g)




def format_matrix(m: IntMatrix) -> str:
    rows = ", ".join(
        "[" + ", ".join(str(m[i, j]) for j in range(m.cols)) + "]"
        for i in range(m.rows))
    return f"[{rows}]"


def _format_chains(ranks: tuple, boundaries: tuple) -> str:
    stmts = [f"cells {n}: {r}" for n, r in enumerate(ranks)]
    stmts += [f"boundary {n}: {format_matrix(b)}"
              for n, b in enumerate(boundaries, start=1) if b.rows and b.cols]
    return "complex { " + "; ".join(stmts) + " }"


def format_complex(c: ChainComplex) -> str:
    return _format_chains(c.ranks, c.boundaries)


def _format_space_label(label: tuple) -> str:
    head, args = label
    if head == "complex":
        return _format_chains(*args)
    if head == "wedge":
        return "wedge(" + ", ".join(_format_space_label(a) for a in args) + ")"
    if head == "product":
        return ("product(" + _format_space_label(args[0]) + ", "
                + _format_space_label(args[1]) + ")")
    if head == "k":
        g, j = args
        inner = g if g == _sp.QZ_TOKEN else format_group(g)
        return f"k({inner}, {j})"
    if head == "bg":
        return f"bg({format_profile(args[0])})"
    if head == "telescope":
        return f"telescope(Z, x{args[0]})"
    if head == "lens":
        return f"lens({args[0]}, {args[1]})"
    return f"{head}({', '.join(str(a) for a in args)})"


def format_space(x: _sp.SpaceDescription) -> str:
    return _format_space_label(x.label)


def _format_hom(h: GroupHom) -> str:
    n = h.matrix.rows
    if n == h.matrix.cols:
        if h == GroupHom.identity(h.domain) and h.domain == h.codomain:
            return "id"
        if n:
            k = h.matrix[0, 0]
            try:
                is_scalar = h == GroupHom.scalar(h.domain, h.codomain, k)
            except SemanticError:
                is_scalar = False   # k is not a legal scalar on these groups
            if is_scalar:
                return f"x{k}" if k >= 0 else f"x {k}"
    return format_matrix(h.matrix)


def format_tower(t: Tower) -> str:
    out = ["tower"]
    if t.prefix_groups:
        chain = format_group(t.prefix_groups[0])
        for i in range(1, len(t.prefix_groups)):
            chain += (f" <-({_format_hom(t.prefix_maps[i - 1])})- "
                      f"{format_group(t.prefix_groups[i])}")
        out.append(f"prefix [{chain}]")
    links = []
    m = t.block_length
    for i in range(m):
        links.append(
            f"{format_group(t.block_groups[i])} "
            f"-({_format_hom(t.block_maps[i])})-> "
            f"{format_group(t.block_groups[(i - 1) % m])}")
    out.append("block [" + ", ".join(links) + "]")
    return " ".join(out)


def format_descriptor(d: ObstructionDescriptor) -> str:
    return "; ".join(map(str, d.rules))
