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

The parser scans plain tokens (integers, identifiers, symbols) one at a
time as it moves, straight from the source text, and keeps each
token's offset: a line and column are worked out only for an error.
Two readers take whole text at the cursor instead.  `matrix_rows()`
reads a well-formed numeric MATRIX with at least one row by one
regular-expression match and a split of its text, so a dense literal
costs a few tokens, not one per bracket, comma, sign and digit run.
`space()` at "complex" takes the text up to the first "}" and looks it
up among the kept spaces (`spaces.kept_literal`), so a literal repeated
in a session is neither scanned nor converted again; a literal is kept
under that text only once it has been read whole.  Anything else is
read token by token, so every error, its line and its column read the
same either way.  A line holding a character no token accepts is
refused before it is parsed.

A tower is read front to back, once: each map is kept as written and
becomes a GroupHom when the groups on both sides of its arrow are read.
The block links are listed as B_0, B_1, ..., each with its map to the
previous stage (B_i maps to B_{(i-1) mod m}, and B_0 into the last
prefix group first); `Tower` checks the printed target group against
that convention, and `format_tower` prints each map's own groups.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterator, NamedTuple

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
_MATRIX_RE = re.compile(rf"\[\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\]")
_SYMS = r"\^+/()\[\]{},;:=<>-"
_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym><=|>=|[{_SYMS}])
""", re.VERBOSE)
# A character no token accepts, and the ASCII bytes that some token
# accepts (\s matches \x1c-\x1f too).
_BAD_CHAR = re.compile(rf"[^\s\dA-Za-z_{_SYMS}]")
_TOKEN_BYTES = bytes(c for c in range(128) if not _BAD_CHAR.match(chr(c)))


class Token(NamedTuple):
    kind: str   # "int" | "ident" | "sym" | "eof"
    text: str
    at: int     # offset of its first character in the source


_token = Token._make   # a Token from a tuple, cheaper than Token(...)


def _scan(src: str, i: int) -> Iterator[Token]:
    """The tokens of src from offset i on, then "eof" for ever.  src
    holds no character that no token matches (_Parser checks)."""
    for m in _TOKEN_RE.finditer(src, i):
        kind = m.lastgroup
        if kind != "ws":
            yield _token((kind, m.group(), m.start()))
    yield from repeat(Token("eof", "", len(src)))


class _Parser:
    def __init__(self, src: str):
        self.src = src
        # An ASCII line is cleared by deleting the bytes the tokens
        # accept, five times as fast as by a regular expression.
        if not src.isascii() or src.encode().translate(None, _TOKEN_BYTES):
            bad = _BAD_CHAR.search(src)
            if bad is not None:
                raise ParseError(f"unexpected character {bad.group()!r}",
                                 *self._place(bad.start()))
        self.space_depth = 0
        self._seek(0)

    # -- token plumbing ----------------------------------------------------
    # self.tok is the token at the cursor, and self._tokens scans the ones
    # after it; past the end both stay on "eof", and no caller accepts or
    # expects kind "eof".  matrix_rows() and space() may move the cursor
    # past a whole text they read (_seek).
    def _seek(self, i: int):
        self._tokens = _scan(self.src, i)
        self.tok = next(self._tokens)

    def _place(self, i: int) -> tuple[int, int]:
        """(line, column) of offset i of the source."""
        return (self.src.count("\n", 0, i) + 1,
                i - self.src.rfind("\n", 0, i))

    def _refusal(self, message: str, t: Token) -> UnsupportedComputation:
        """The refusal of a well-formed literal too large to compute,
        placed at token t."""
        line, col = self._place(t.at)
        return UnsupportedComputation(f"{message} (line {line}, column {col})")

    def next(self) -> Token:
        t = self.tok
        self.tok = next(self._tokens)
        return t

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.tok
        if ahead:
            t = next(islice(_scan(self.src, t.at + len(t.text)),
                            ahead - 1, None))
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.tok
        if t.kind == kind and (text is None or t.text == text):
            self.tok = next(self._tokens)
            return t
        return None

    def expect(self, kind: str, text: str | None = None,
               what: str | None = None) -> Token:
        t = self.accept(kind, text)
        if t is not None:
            return t
        t = self.tok
        want = what or (text if text is not None else kind)
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"expected {want!r}, found {got!r}",
                         *self._place(t.at))

    def fail(self, message: str):
        raise ParseError(message, *self._place(self.tok.at))

    def expect_end(self):
        if self.tok.kind != "eof":
            self.fail(f"unexpected trailing input {self.tok.text!r}")

    # -- shared small pieces -------------------------------------------
    def integer(self, what: str = "integer") -> int:
        sign = -1 if self.accept("sym", "-") else 1
        return sign * self.unsigned(what)

    def unsigned(self, what: str = "number") -> int:
        t = self.expect("int", what=what)
        return self._digits(t.text, t)

    def _digits(self, text: str, t: Token) -> int:
        """The value of a digit string; one longer than the interpreter
        converts (sys.get_int_max_str_digits) is refused, not raised."""
        try:
            return int(text)
        except ValueError:
            raise self._refusal(f"integer literal of {len(text)} digits "
                                "is too long", t) from None

    # -- group literals ----------------------------------------------------
    def group(self) -> FgAbGroup:
        if self.at("int", "0"):
            self.next()
            return FgAbGroup.trivial()
        start = self.tok
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
                raise self._refusal(
                    f"group literal has more than {MAX_GROUP_GENERATORS} "
                    "cyclic generators", start)
            if not self.accept("sym", "+"):
                break
        return FgAbGroup.from_cyclic_orders([0] * free + torsion)

    # -- profile literals ----------------------------------------------
    def profile(self) -> CyclicProfile:
        if self.at("int", "0"):
            self.next()
            return CyclicProfile()
        start = self.tok
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
                    raise self._refusal(
                        f"profile literal has more than "
                        f"{MAX_PROFILE_MULTIPLICITY} finite cyclic summands",
                        start)
            pairs.append((order, mult))
            if not self.accept("sym", "+"):
                break
        return CyclicProfile.from_pairs(pairs)

    # -- matrices ------------------------------------------------------
    def matrix_rows(self) -> list[list[int]]:
        rows = None
        m = _MATRIX_RE.match(self.src, self.tok.at)
        if m is not None:   # a well-formed numeric matrix: split its text
            body = "".join(m.group().split())[2:-2]   # "1,-2],[],[3,4"
            try:
                rows = [[int(x) for x in r.split(",")] if r else []
                        for r in body.split("],[")]
            except ValueError:   # an entry too long for int()
                pass
            else:
                self._seek(m.end())
        if rows is None:   # token by token, so an error keeps its position
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
            # A literal ends at its first "}", and is kept only once read
            # whole, so a kept text found here is exactly this literal.
            at = self.tok.at
            text = self.src[at:self.src.find("}", at) + 1] or None  # no "}"
            x = text and _sp.kept_literal(text)
            if x is not None:
                self._seek(at + len(text))
                return x
            return _sp.from_literal(*self._complex_chains(), text=text)
        t = self.expect("ident", what="space builder")
        self.expect("sym", "(")
        if self.space_depth == MAX_SPACE_NESTING:
            raise self._refusal(f"space expression nested more than "
                                f"{MAX_SPACE_NESTING} levels deep", t)
        self.space_depth += 1
        try:
            build, size = self._space_args(t)
        finally:
            self.space_depth -= 1
        self.expect("sym", ")")   # a syntax error comes before any check
        if size is not None:
            self._check_size(*size, t)
        return build()

    def _check_size(self, cells: int, top: int, t: Token):
        """Refuse a finite complex over MAX_COMPLEX_CELLS cells or with
        cells above degree MAX_COMPLEX_DEGREE, before it is built."""
        if cells > MAX_COMPLEX_CELLS or top > MAX_COMPLEX_DEGREE:
            raise self._refusal(
                f"space expression builds {cells} cells up to degree {top}; "
                f"at most {MAX_COMPLEX_CELLS} cells up to degree "
                f"{MAX_COMPLEX_DEGREE} are supported", t)

    def _space_args(self, t: Token) -> tuple[
            Callable[[], _sp.SpaceDescription], tuple[int, int] | None]:
        """Read the arguments of the builder that token t names.  Return
        the call that builds its space and, when the size caps apply, the
        cells and top degree of the complex it builds; space() checks and
        builds only once it has read the closing ")".  An unknown name is
        refused at t."""
        name = t.text
        if name == "sphere":
            n = self.unsigned("dimension")
            return partial(_sp.sphere, n), (2, n)
        if name == "moore3":
            return partial(_sp.moore_3cell,
                           self.unsigned("attachment degree")), None
        if name == "lens":
            n = self.unsigned("lens parameter")
            self.expect("sym", ",")
            top = self.unsigned("top degree")
            return partial(_sp.lens_skeleton, n, top), (top + 1, top)
        if name == "lens_periodic":
            return partial(_sp.lens_periodic,
                           self.unsigned("lens parameter")), None
        if name == "wedge":
            parts = [self.space()]
            while self.accept("sym", ","):
                parts.append(self.space())
            size = None
            if all(x.kind == "finite" for x in parts):
                # the summands share their one 0-cell
                size = (1 + sum(sum(x.cells.ranks) - x.cells.rank(0)
                                for x in parts),
                        max(x.cells.top_degree for x in parts))
            return partial(_sp.wedge, parts), size
        if name == "product":
            a = self.space()
            self.expect("sym", ",")
            b = self.space()
            size = None
            if a.kind == b.kind == "finite":
                size = (sum(a.cells.ranks) * sum(b.cells.ranks),
                        a.cells.top_degree + b.cells.top_degree)
            return partial(_sp.product, a, b), size
        if name == "bpgl":
            return partial(_sp.bpgl, self.unsigned("bundle rank")), None
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
            return partial(_sp.k_space, g, self.unsigned("degree")), None
        if name == "bg":
            return partial(_sp.bg_profile, self.profile()), None
        if name == "telescope":
            self.expect("ident", "Z", what="Z")
            self.expect("sym", ",")
            k = self._scalar_map("telescope multiplier")
            return partial(_sp.telescope_z, k), None
        raise ParseError(f"unknown space builder {name!r}",
                         *self._place(t.at))

    def _scalar_map(self, what: str) -> int:
        t = self.expect("ident", what=what)
        if re.fullmatch(r"x\d+", t.text):
            return self._digits(t.text[1:], t)
        if t.text == "x":
            return self.integer(what)
        raise ParseError(f"expected {what} like 'x5', found {t.text!r}",
                         *self._place(t.at))

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
        elif self.at("sym", "["):
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
        prefix: list[FgAbGroup] = []
        prefix_links: list[GroupHom] = []
        if self.accept("ident", "prefix"):
            self.expect("sym", "[")
            if not self.at("sym", "]"):
                prefix.append(self.group())
                while self.accept("sym", "<"):
                    # "<-(" MAP ")-" GROUP: the map's source is on the right
                    spec = self._map()
                    src = self.group()
                    prefix_links.append(self._hom(spec, src, prefix[-1]))
                    prefix.append(src)
            self.expect("sym", "]")
        self.expect("ident", "block", what="block")
        self.expect("sym", "[")
        block: list[FgAbGroup] = []
        block_links: list[GroupHom] = []
        while True:
            src = self.group()
            spec = self._map()
            self.expect("sym", ">")
            block.append(src)
            block_links.append(self._hom(spec, src, self.group()))
            if not self.accept("sym", ","):
                break
        self.expect("sym", "]")
        return Tower(prefix=tuple(prefix), prefix_links=tuple(prefix_links),
                     block=tuple(block), block_links=tuple(block_links))

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
    if t.prefix:
        out.append("prefix [" + format_group(t.prefix[0]) + "".join(
            f" <-({_format_hom(f)})- {format_group(f.domain)}"
            for f in t.prefix_links) + "]")
    out.append("block [" + ", ".join(
        f"{format_group(f.domain)} -({_format_hom(f)})-> "
        f"{format_group(f.codomain)}" for f in t.block_links) + "]")
    return " ".join(out)


def format_descriptor(d: ObstructionDescriptor) -> str:
    return "; ".join(map(str, d.rules))
