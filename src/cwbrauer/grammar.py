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
refused the same way.

In towers the block links are listed as B_0, B_1, ..., each with its
map to the previous stage (B_i maps to B_{(i-1) mod m}); the printed
target group is validated against that convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym><=|>=|[\^+/()\[\]{},;:=<>-])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # "int" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             line=line, column=col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            out.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.space_depth = 0

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None,
               what: str | None = None) -> Token:
        t = self.peek()
        if self.at(kind, text):
            return self.next()
        want = what or (text if text is not None else kind)
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"expected {want!r}, found {got!r}",
                         line=t.line, column=t.col)

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, line=t.line, column=t.col)

    def expect_end(self):
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {self.peek().text!r}")

    # -- shared small pieces -------------------------------------------
    def integer(self, what: str = "integer") -> int:
        sign = -1 if self.accept("sym", "-") else 1
        t = self.expect("int", what=what)
        return sign * int(t.text)

    def unsigned(self, what: str = "number") -> int:
        t = self.expect("int", what=what)
        return int(t.text)

    # -- group literals ----------------------------------------------------
    def group(self) -> FgAbGroup:
        if self.at("int", "0"):
            self.next()
            return FgAbGroup.trivial()
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
            if not self.accept("sym", "+"):
                break
        return FgAbGroup.free(free).direct_sum(
            FgAbGroup.from_cyclic_orders(torsion))

    # -- profile literals ----------------------------------------------
    def profile(self) -> CyclicProfile:
        if self.at("int", "0"):
            self.next()
            return CyclicProfile()
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
            pairs.append((order, mult))
            if not self.accept("sym", "+"):
                break
        return CyclicProfile.from_pairs(pairs)

    # -- matrices ------------------------------------------------------
    def matrix_rows(self) -> list[list[int]]:
        self.expect("sym", "[")
        rows: list[list[int]] = []
        if not self.at("sym", "]"):
            while True:
                self.expect("sym", "[")
                row: list[int] = []
                if not self.at("sym", "]"):
                    while True:
                        row.append(self.integer("matrix entry"))
                        if not self.accept("sym", ","):
                            break
                self.expect("sym", "]")
                rows.append(row)
                if not self.accept("sym", ","):
                    break
        self.expect("sym", "]")
        if len({len(r) for r in rows}) > 1:
            raise SemanticError("matrix rows have differing lengths")
        return rows

    # -- complex literals ------------------------------------------------
    def complex(self) -> ChainComplex:
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
        return ChainComplex(ranks, mats)

    # -- space literals ----------------------------------------------------
    def space(self) -> _sp.SpaceDescription:
        if self.at("ident", "complex"):
            return _sp.from_complex(self.complex())
        t = self.expect("ident", what="space builder")
        name = t.text
        self.expect("sym", "(")
        if self.space_depth == MAX_SPACE_NESTING:
            raise UnsupportedComputation(
                f"space expression nested more than {MAX_SPACE_NESTING} "
                f"levels deep (line {t.line}, column {t.col})")
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
            raise UnsupportedComputation(
                f"space expression builds {cells} cells up to degree {top}; "
                f"at most {MAX_COMPLEX_CELLS} cells up to degree "
                f"{MAX_COMPLEX_DEGREE} are supported "
                f"(line {t.line}, column {t.col})")

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
                    1 + sum(sum(x.complex.ranks) - x.complex.rank(0)
                            for x in parts),
                    max(x.complex.top_degree for x in parts), t)
            return _sp.wedge(parts)
        if name == "product":
            a = self.space()
            self.expect("sym", ",")
            b = self.space()
            if a.kind == b.kind == "finite":
                self._check_size(
                    sum(a.complex.ranks) * sum(b.complex.ranks),
                    a.complex.top_degree + b.complex.top_degree, t)
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
            return int(t.text[1:])
        if t.text == "x":
            return self.integer(what)
        raise ParseError(f"expected {what} like 'x5', found {t.text!r}",
                         line=t.line, column=t.col)

    # -- tower literals ------------------------------------------------
    def _hom(self, domain: FgAbGroup, codomain: FgAbGroup) -> GroupHom:
        if self.at("ident", "id"):
            self.next()
            if domain != codomain:
                raise SemanticError("id needs equal domain and codomain")
            return GroupHom.identity(domain)
        if self.at("ident"):
            k = self._scalar_map("scalar map")
            return GroupHom.scalar(domain, codomain, k)
        if self.at("sym", "["):
            rows = self.matrix_rows()
            nc = len(codomain.cyclic_orders())
            nd = len(domain.cyclic_orders())
            if len(rows) != nc or (rows and len(rows[0]) != nd):
                raise SemanticError(f"map matrix must be {nc} x {nd}")
            return GroupHom(domain, codomain, IntMatrix(rows, cols=nd))
        self.fail("expected a map: id, x<k>, or a matrix")

    def tower(self) -> Tower:
        self.expect("ident", "tower", what="tower")
        prefix_groups: list[FgAbGroup] = []
        prefix_maps: list[GroupHom] = []
        if self.accept("ident", "prefix"):
            self.expect("sym", "[")
            if not self.at("sym", "]"):
                prefix_groups.append(self.group())
                while self.at("sym", "<"):
                    # "<-(" MAP ")-" GROUP : the map's source is the group
                    # on the right, so scan past the map, read the source,
                    # then come back and interpret the map tokens
                    self.expect("sym", "<")
                    self.expect("sym", "-")
                    self.expect("sym", "(")
                    snapshot = self.pos
                    self._skip_map_tokens()
                    self.expect("sym", ")")
                    self.expect("sym", "-")
                    src = self.group()
                    end = self.pos
                    self.pos = snapshot
                    hom = self._hom(src, prefix_groups[-1])
                    self.pos = end
                    prefix_groups.append(src)
                    prefix_maps.append(hom)
            self.expect("sym", "]")
        self.expect("ident", "block", what="block")
        self.expect("sym", "[")
        links: list[tuple[FgAbGroup, GroupHom, FgAbGroup]] = []
        while True:
            src = self.group()
            self.expect("sym", "-")
            self.expect("sym", "(")
            snapshot = self.pos
            self._skip_map_tokens()
            self.expect("sym", ")")
            self.expect("sym", "-")
            self.expect("sym", ">")
            dst = self.group()
            end = self.pos
            self.pos = snapshot
            hom = self._hom(src, dst)
            self.pos = end
            links.append((src, hom, dst))
            if not self.accept("sym", ","):
                break
        self.expect("sym", "]")
        block_groups = tuple(src for src, _, _ in links)
        m = len(links)
        for i, (_, _, dst) in enumerate(links):
            want = block_groups[(i - 1) % m]
            if dst != want:
                raise SemanticError(
                    f"block link {i} must map to {want} (the previous stage), "
                    f"not {dst}")
        return Tower(prefix_groups=tuple(prefix_groups),
                     prefix_maps=tuple(prefix_maps),
                     block_groups=block_groups,
                     block_maps=tuple(h for _, h, _ in links))

    def _skip_map_tokens(self):
        """Advance past one map (id / x<k> / matrix) without interpreting."""
        if self.at("ident"):
            t = self.next()
            if t.text == "x":
                self.accept("sym", "-")
                self.expect("int", what="scalar")
            return
        if self.at("sym", "["):
            depth = 0
            while True:
                t = self.next()
                if t.kind == "eof":
                    self.fail("unterminated matrix")
                if t.kind == "sym" and t.text == "[":
                    depth += 1
                elif t.kind == "sym" and t.text == "]":
                    depth -= 1
                    if depth == 0:
                        return
        self.fail("expected a map: id, x<k>, or a matrix")

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


def format_complex(c: ChainComplex) -> str:
    stmts = [f"cells {n}: {c.rank(n)}" for n in range(c.top_degree + 1)]
    for n in range(1, c.top_degree + 1):
        b = c.boundary(n)
        if b.rows and b.cols:
            stmts.append(f"boundary {n}: {format_matrix(b)}")
    return "complex { " + "; ".join(stmts) + " }"


def _format_space_label(label: tuple) -> str:
    head, args = label
    if head == "complex":
        return format_complex(args[0])
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


def format_rule(r: Rule) -> str:
    if r.hi is None:
        head = f"rule i>={r.lo}"
    else:
        head = f"rule {r.lo}<=i<={r.hi}"
    return f"{head}: J=({r.lower}, {r.upper}]"


def format_descriptor(d: ObstructionDescriptor) -> str:
    return "; ".join(format_rule(r) for r in d.rules)
