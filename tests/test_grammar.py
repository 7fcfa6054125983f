"""Round-trip and failure-position tests for the shared text grammars.

Each grammar gets 500 seeded random values x with parse(format(x)) == x,
plus hand-written checks that parse errors carry useful positions and
that well-formed but meaningless input raises SemanticError instead.
"""

import random
import re
import time
from math import gcd

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cwbrauer.abgroup import FgAbGroup, GroupHom
from cwbrauer.cli import parse_request
from cwbrauer.errors import ParseError, SemanticError, UnsupportedComputation
from cwbrauer import grammar
from cwbrauer.grammar import (
    MAX_SPACE_NESTING, _Parser, format_complex, format_descriptor,
    format_group, format_matrix, format_profile, format_space, format_tower,
    parse_complex, parse_descriptor, parse_group, parse_profile, parse_space,
    parse_tower,
)
from cwbrauer.intlin import IntMatrix
from cwbrauer.limits import Tower
from cwbrauer.profiles import (OMEGA, AffineExpr, CyclicProfile,
                               ObstructionDescriptor, Rule)
from cwbrauer import spaces as sp
from _oracles import random_complex

N_TRIPS = 500


# -- random generators ---------------------------------------------------------------


def random_group(rng) -> FgAbGroup:
    free = rng.randint(0, 3)
    torsion = [rng.randint(2, 60) for _ in range(rng.randint(0, 4))]
    return FgAbGroup.free(free).direct_sum(
        FgAbGroup.from_cyclic_orders(torsion))


def random_profile(rng) -> CyclicProfile:
    orders = rng.sample(range(2, 40), rng.randint(0, 5))
    return CyclicProfile.from_pairs(
        [(o, OMEGA if rng.random() < 0.25 else rng.randint(1, 9))
         for o in orders])


def random_space(rng, depth: int = 0) -> sp.SpaceDescription:
    finite = ["sphere", "moore3", "lens", "complex"]
    heads = finite + ["lens_periodic", "bpgl", "k", "bg", "telescope"]
    if depth < 2:
        heads += ["wedge", "product", "wedge"]
    head = rng.choice(heads)
    if head == "sphere":
        return sp.sphere(rng.randint(1, 8))
    if head == "moore3":
        return sp.moore_3cell(rng.randint(1, 12))
    if head == "lens":
        return sp.lens_skeleton(rng.randint(1, 9), rng.randint(1, 6))
    if head == "complex":
        return sp.from_complex(random_complex(rng, max_top=3, max_rank=3))
    if head == "lens_periodic":
        return sp.lens_periodic(rng.randint(1, 9))
    if head == "bpgl":
        return sp.bpgl(rng.randint(1, 12))
    if head == "k":
        if rng.random() < 0.25:
            return sp.k_space(sp.QZ_TOKEN, 2)
        return sp.k_space(random_group(rng), rng.randint(2, 6))
    if head == "bg":
        return sp.bg_profile(random_profile(rng))
    if head == "telescope":
        return sp.telescope_z(rng.randint(2, 30))
    if head == "wedge":
        def wedgeable(r):
            kind = r.choice(["sphere", "moore3", "lens"])
            if kind == "sphere":
                return sp.sphere(r.randint(1, 6))
            if kind == "moore3":
                return sp.moore_3cell(r.randint(1, 9))
            return sp.lens_skeleton(r.randint(2, 7), r.randint(1, 5))
        return sp.wedge([wedgeable(rng)
                         for _ in range(rng.randint(2, 3))])
    a = random_space(rng, depth + 1)
    while a.kind != "finite":
        a = random_space(rng, depth + 1)
    b = random_space(rng, depth + 1)
    while b.kind != "finite":
        b = random_space(rng, depth + 1)
    return sp.product(a, b)


def random_hom(rng, domain: FgAbGroup, codomain: FgAbGroup) -> GroupHom:
    dom = domain.cyclic_orders()
    cod = codomain.cyclic_orders()
    rows = []
    for e in cod:
        row = []
        for d in dom:
            if e == 0:
                row.append(rng.randint(-3, 3) if d == 0 else 0)
            else:
                step = e // gcd(d, e) if d else 1
                row.append(step * rng.randint(0, 3))
        rows.append(row)
    from cwbrauer.intlin import IntMatrix
    m = (IntMatrix(rows) if rows and rows[0]
         else IntMatrix.zeros(len(cod), len(dom)))
    return GroupHom(domain, codomain, m)


def small_group(rng) -> FgAbGroup:
    free = rng.randint(0, 2)
    torsion = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(0, 2))]
    return FgAbGroup.free(free).direct_sum(
        FgAbGroup.from_cyclic_orders(torsion))


def random_tower(rng) -> Tower:
    m = rng.randint(1, 3)
    blocks = [small_group(rng) for _ in range(m)]
    block_links = tuple(random_hom(rng, blocks[i], blocks[(i - 1) % m])
                        for i in range(m))
    prefix: tuple = ()
    prefix_links: tuple = ()
    if rng.random() < 0.5:
        chain = [small_group(rng) for _ in range(rng.randint(0, 2))]
        chain.append(blocks[-1])          # seam
        prefix = tuple(chain)
        prefix_links = tuple(random_hom(rng, chain[i + 1], chain[i])
                             for i in range(len(chain) - 1))
    return Tower(prefix=prefix, prefix_links=prefix_links,
                 block=tuple(blocks), block_links=block_links)


def random_descriptor(rng) -> ObstructionDescriptor:
    rules = []
    lo = rng.randint(0, 3)
    for k in range(rng.randint(1, 3)):
        lower = AffineExpr(rng.randint(1, 3), rng.randint(0, 5))
        upper = AffineExpr(lower.a + rng.randint(0, 2),
                           lower.b + rng.randint(0, 6))
        last = rng.random() < 0.4
        hi = None if last else lo + rng.randint(0, 5)
        rules.append(Rule(lo, hi, lower, upper))
        if last or hi is None:
            break
        lo = hi + 1 + rng.randint(0, 3)
    return ObstructionDescriptor(tuple(rules))


# -- round trips ---------------------------------------------------------------------


def roundtrip(rng_seed, gen, fmt, parse):
    rng = random.Random(rng_seed)
    for k in range(N_TRIPS):
        x = gen(rng)
        text = fmt(x)
        assert parse(text) == x, f"case {k}: {text!r}"


def test_group_roundtrip():
    roundtrip(101, random_group, format_group, parse_group)
    assert parse_group("0") == FgAbGroup.trivial()
    assert parse_group("Z + Z + Z/3") \
        == FgAbGroup.from_cyclic_orders((0, 0, 3))
    assert parse_group("Z/4 + Z/6") == parse_group("Z/2 + Z/12")


def test_profile_roundtrip():
    roundtrip(102, random_profile, format_profile, parse_profile)
    assert parse_profile("0") == CyclicProfile()
    assert parse_profile("(Z/2)^w") \
        == CyclicProfile.from_pairs([(2, OMEGA)])


def test_complex_roundtrip():
    roundtrip(103, lambda rng: random_complex(rng, max_top=4, max_rank=4),
              format_complex, parse_complex)


def test_space_roundtrip():
    roundtrip(104, random_space, format_space, parse_space)


def test_tower_roundtrip():
    roundtrip(105, random_tower, format_tower, parse_tower)


def test_descriptor_roundtrip():
    roundtrip(106, random_descriptor, format_descriptor, parse_descriptor)


def test_whitespace_insensitive():
    assert parse_group("  Z^2+ Z/ 4 ") == parse_group("Z^2 + Z/4")
    assert parse_space("wedge( sphere(2),moore3( 5) )") \
        == parse_space("wedge(sphere(2), moore3(5))")
    assert parse_descriptor("rule i >= 1 : J = ( i , 2i ]") \
        == parse_descriptor("rule i>=1: J=(i, 2i]")


def test_a_trailing_blank_run_is_scanned_in_linear_time():
    """The parse_* wrappers do not strip their input, and a scanner that
    folds blanks into each token's pattern tries every suffix of a
    trailing blank run: quadratic, seconds for some thousand blanks."""
    t0 = time.perf_counter()
    assert parse_space("sphere(2)" + " " * 200_000) == parse_space("sphere(2)")
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    assert parse_group("Z/2" + "\t" * 200_000) == parse_group("Z/2")
    assert time.perf_counter() - t0 < 1.0


# -- parse errors carry positions ------------------------------------------------------


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_group("Z@2")
    assert (e.value.line, e.value.column) == (1, 2)

    with pytest.raises(ParseError) as e:
        parse_group("Z +\nQ + Z")
    assert (e.value.line, e.value.column) == (2, 1)

    with pytest.raises(ParseError) as e:
        parse_descriptor("rule i>=1: J=(i, 2i)")
    assert (e.value.line, e.value.column) == (1, 20)

    with pytest.raises(ParseError) as e:
        parse_complex("complex {\n  cells 0: 1;\n  boundary 1 [[2]]\n}")
    assert (e.value.line, e.value.column) == (3, 14)

    with pytest.raises(ParseError) as e:
        parse_group("Z/")
    assert "end of input" in str(e.value)
    assert (e.value.line, e.value.column) == (1, 3)

    # at the end of input, and under the lookahead of k(Q/Z, ...) and of
    # catalog (a builder name followed by "(" or a bare fact name)
    for line, message, column in [
            ("homology sphere(",
             "expected 'dimension', found 'end of input'", 8),
            ("homology k(Q/", "expected 'Z', found 'Q'", 3),
            ("homology k(Q/Z,", "expected 'degree', found 'end of input'", 7),
            ("catalog k(", "expected 'Z', found 'end of input'", 3),
            # stops right after the matrix token [[0]]
            ("homology complex{cells 0: 1; cells 1: 1; boundary 1: [[0]]",
             "expected '}', found 'end of input'", 50)]:
        with pytest.raises(ParseError) as e:
            parse_request(line)
        assert str(e.value) == f"{message} (line 1, column {column})"
        assert (e.value.line, e.value.column) == (1, column)
    assert parse_request("catalog k").args == ("k",)   # a fact name

    with pytest.raises(ParseError):
        parse_group("Z/4 Z")       # trailing input
    with pytest.raises(ParseError):
        parse_space("blancmange(3)")
    with pytest.raises(ParseError):
        parse_tower("tower block [Z -(q3)-> Z]")


_LONG = "7" * 4400    # more digits than int() converts
_BLOCK = " block [Z -(id)-> Z]"

# id: (text, error type, message, line, column); line and column are
# None for an error that carries no position
_MALFORMED_TOWERS = {
    # block links
    "block-x-no-int": ("tower block [Z -(x)-> Z]", ParseError,
                       "expected 'scalar map', found ')'", 1, 19),
    "block-x-minus-no-int": ("tower block [Z -(x -)-> Z]", ParseError,
                             "expected 'scalar map', found ')'", 1, 21),
    "block-not-x": ("tower block [Z -(q3)-> Z]", ParseError,
                    "expected scalar map like 'x5', found 'q3'", 1, 18),
    "block-no-map": ("tower block [Z -(+)-> Z]", ParseError,
                     "expected a map: id, x<k>, or a matrix", 1, 18),
    "block-unclosed": ("tower block [Z -([[1]-> Z]", ParseError,
                       "expected ']', found '-'", 1, 22),
    "block-unclosed-rows": ("tower block [Z -([[1], [2]-> Z]", ParseError,
                            "expected ']', found '-'", 1, 27),
    "block-ragged": ("tower block [Z^2 -([[1, 0], [0]])-> Z^2]",
                     SemanticError, "matrix rows have differing lengths",
                     None, None),
    "block-stray-bracket": ("tower block [Z -([[1]]])-> Z]", ParseError,
                            "expected ')', found ']'", 1, 23),
    # a ragged matrix before a stray bracket: the first defect wins
    "block-ragged-then-stray": (
        "tower block [Z^2 -([[3, 2], [-3]]0], [2, 0]])-> Z^2]",
        SemanticError, "matrix rows have differing lengths", None, None),
    "block-long-entry": (f"tower block [Z -([[{_LONG}]])-> Z]",
                         UnsupportedComputation,
                         "integer literal of 4400 digits is too long", 1, 20),
    "block-long-entry-line-3": (
        f"tower block [\n  Z -([[1],\n  [{_LONG}]])-> Z]",
        UnsupportedComputation,
        "integer literal of 4400 digits is too long", 3, 4),
    "block-shape": ("tower block [Z -([[1, 2]])-> Z]", SemanticError,
                    "map matrix must be 1 x 1", None, None),
    "block-id-unequal": ("tower block [Z/2 -(id)-> Z/4, Z/4 -(x1)-> Z/2]",
                         SemanticError, "id needs equal domain and codomain",
                         None, None),
    # prefix links: the map's source is the group on its right
    "prefix-x-no-int": ("tower prefix [Z <-(x)- Z]" + _BLOCK, ParseError,
                        "expected 'scalar map', found ')'", 1, 21),
    "prefix-unclosed": ("tower prefix [Z <-([[1]- Z]" + _BLOCK, ParseError,
                        "expected ']', found '-'", 1, 24),
    "prefix-ragged": ("tower prefix [Z^2 <-([[1, 0], [0]])- Z^2]" + _BLOCK,
                      SemanticError, "matrix rows have differing lengths",
                      None, None),
    "prefix-stray-bracket": ("tower prefix [Z <-([[1]]])- Z]" + _BLOCK,
                             ParseError, "expected ')', found ']'", 1, 25),
    "prefix-long-entry": (f"tower prefix [Z <-([[{_LONG}]])- Z]" + _BLOCK,
                          UnsupportedComputation,
                          "integer literal of 4400 digits is too long",
                          1, 22),
    "prefix-long-second-entry": (
        f"tower prefix [Z <-([[1, {_LONG}]])- Z^2]" + _BLOCK,
        UnsupportedComputation,
        "integer literal of 4400 digits is too long", 1, 25),
    "prefix-shape": ("tower prefix [Z <-([[1], [2]])- Z^2]" + _BLOCK,
                     SemanticError, "map matrix must be 1 x 2", None, None),
    "prefix-id-unequal": ("tower prefix [Z <-(id)- Z/2]" + _BLOCK,
                          SemanticError,
                          "id needs equal domain and codomain", None, None),
    "prefix-open-shaft": ("tower prefix [Z <-(x2) Z]" + _BLOCK, ParseError,
                          "expected '-', found 'Z'", 1, 24),
}


@pytest.mark.parametrize("text, kind, message, line, column",
                         _MALFORMED_TOWERS.values(), ids=_MALFORMED_TOWERS)
def test_malformed_towers_fail_with_pinned_errors(text, kind, message, line,
                                                   column):
    with pytest.raises((ParseError, SemanticError,
                        UnsupportedComputation)) as e:
        parse_tower(text)
    assert type(e.value) is kind
    where = f" (line {line}, column {column})" if line is not None else ""
    assert str(e.value) == message + where
    if kind is ParseError:
        assert (e.value.line, e.value.column) == (line, column)


def test_semantic_rejections():
    with pytest.raises(SemanticError):
        parse_group("Z/1")
    with pytest.raises(SemanticError):
        parse_group("Z/0")
    with pytest.raises(SemanticError):
        parse_profile("(Z/1)^2")
    with pytest.raises(SemanticError):
        parse_profile("(Z/2)^0")
    with pytest.raises(SemanticError):
        parse_complex("complex { cells 0: 1; cells 0: 2 }")
    with pytest.raises(SemanticError):
        parse_complex("complex { cells 0: 1; cells 1: 2; "
                      "boundary 1: [[1, 2], [3]] }")
    with pytest.raises(SemanticError):
        parse_complex("complex { cells 0: 1; cells 1: 2; "
                      "boundary 1: [[1]] }")    # should be 1 x 2
    with pytest.raises(SemanticError):
        parse_space("sphere(0)")
    with pytest.raises(SemanticError):
        parse_space("k(Q/Z, 3)")
    with pytest.raises(SemanticError):
        parse_tower("tower block [Z/2 -(id)-> Z/4, Z/4 -(x1)-> Z/2]")
    with pytest.raises(SemanticError):
        # both links must target the previous stage
        parse_tower("tower block [Z/2 -(x1)-> Z/2, Z/4 -(x1)-> Z/4]")
    with pytest.raises(SemanticError):
        parse_descriptor("rule i>=1: J=(i, 2i]; rule i>=1: J=(i, 3i]")
    with pytest.raises(SemanticError):
        parse_descriptor("rule i>=1: J=(i-1, 2i]")   # dips to the diagonal


def test_space_nesting_cap_refuses_instead_of_recursing():
    def nested(depth):
        text = "sphere(2)"
        for _ in range(depth - 1):
            text = f"wedge({text}, sphere(2))"
        return text

    x = parse_space(nested(MAX_SPACE_NESTING))
    # H_2 of a wedge of spheres is free on the 2-spheres (oracle: count)
    assert sp.space_homology(x, 2) == FgAbGroup.free(MAX_SPACE_NESTING)
    for depth in (MAX_SPACE_NESTING + 1, 600):
        with pytest.raises(UnsupportedComputation) as e:
            parse_space(nested(depth))
        assert f"more than {MAX_SPACE_NESTING} levels" in str(e.value)
    # the cap counts depth, not the number of builders in a line
    flat = "wedge(" + ", ".join(["sphere(2)"] * 200) + ")"
    assert sp.space_homology(parse_space(flat), 2) == FgAbGroup.free(200)


# -- tokenizer against a per-token reference ----------------------------------------

_REF_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym><=|>=|[\^+/()\[\]{},;:=<>-])")


def ref_tokenize(src):
    """One re.match per token, the column advanced by each token's text:
    ([(kind, text, line, col), ...], error position or None)."""
    out = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _REF_TOKEN.match(src, pos)
        if m is None:
            return out, (src[pos], line, col)
        text = m.group()
        if m.lastgroup != "ws":
            out.append((m.lastgroup, text, line, col))
        if "\n" in text:
            line += text.count("\n")
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out, None


# Well-formed matrices, each read by one match in matrix_rows: across
# lines and tabs, with empty rows and with "-" apart from its digits.
_MATRICES = ["[[1, -2], [30, 4]]", "[[]]", "[[ - 3 ]]", "[\n[1],\t[2]\n]",
             "[[0],[-12] ,[ 7 ]]", "[ [], [5 ,6]\n,\n[] ]"]

# complex{...} literals, each matched whole by space() whether or not it
# parses: well-formed ones (one across lines), an empty one, a bad
# statement, a matrix of the wrong shape and one "[" short.
_LITERALS = ["complex{cells 0: 1}", "complex {\n cells 0: 2;\tcells 1: 1 ;\n"
             " boundary 1: [[1], [-1]] }", "complex{}",
             "complex{cells 0: 1 cell x^2 <= 3}",
             "complex { boundary 2: [[1, 2], [3]]; }", "complex{[[1],[2]}"]

_PIECES = st.sampled_from(
    list("Zxi09 ") + ["12", "ab_c", "\n", "\t", "\r\n", "  ", "<=", ">=",
                      "^", "+", "/", "(", ")", "[", "]", "{", "}", ",", ";",
                      ":", "=", "<", ">", "-", "complex", "complex{"]
    + _MATRICES + _LITERALS)


@st.composite
def _token_text(draw):
    """Token-like text with newlines and tabs; half the time one
    character no token matches is put in somewhere."""
    src = "".join(draw(st.lists(_PIECES, max_size=60)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(["$", "\u00e9", "@"])) + src[at:]
    return src


def _scanned(monkeypatch) -> list:
    """The tokens the parser scans from now on, in order."""
    seen = []
    scan = grammar._scan

    def counted(src, i):
        for t in scan(src, i):
            seen.append(t)
            yield t

    monkeypatch.setattr(grammar, "_scan", counted)
    return seen


@seed(20261020)
@settings(max_examples=500, deadline=None, database=None)
@given(_token_text())
@example("boundary 1: [[1, -2],\n [ - 3, 4]]; x [[]]\t[ [5] ] ]")
def test_tokenizer_matches_per_token_reference(src):
    """The tokens next() reads to the end, each placed at the line and
    column of its offset, equal the reference's; a line with a character
    no token matches is refused when the parser is made, at that
    character."""
    want, bad = ref_tokenize(src)
    if bad is None:
        p = _Parser(src)
        got = []
        while not got or got[-1][0] != "eof":
            t = p.next()
            got.append((t.kind, t.text, *p._place(t.at)))
        assert got == want
        return
    with pytest.raises(ParseError) as e:
        _Parser(src)
    ch, line, col = bad
    assert (e.value.line, e.value.column) == (line, col)
    assert str(e.value) == (f"unexpected character {ch!r} "
                            f"(line {line}, column {col})")


def test_a_dense_complex_literal_is_a_few_tokens(monkeypatch):
    """A literal the size of the benchmark's dense ones: over 12 KB and
    4000 tokens when every bracket, comma, sign and digit run is one.
    Read cold, each of its matrices is one match, not one token per
    piece; the whole literal is read before del del = 0 is checked."""
    rng = random.Random(10)

    def dense():
        return format_matrix(IntMatrix(
            [[rng.randint(-999, 999) for _ in range(28)] for _ in range(28)]))
    text = ("complex { " + "; ".join(
        [f"cells {n}: 28" for n in range(4)]
        + [f"boundary {n}: {dense()}" for n in (1, 2, 3)]) + " }")
    assert len(text) > 12_000 and len(ref_tokenize(text)[0]) > 4000
    seen = _scanned(monkeypatch)
    with pytest.raises(SemanticError, match="del_1 del_2 != 0"):
        parse_space(text)
    assert len(seen) < 100


def test_the_parser_refuses_exactly_the_ascii_characters_no_token_matches():
    """_Parser(c) refuses an ASCII character c exactly when the per-token
    reference meets it as a bad character; \\x1c-\\x1f, which \\s
    matches, are blanks."""
    ascii_chars = [chr(c) for c in range(128)]
    refused = set()
    for c in ascii_chars:
        try:
            _Parser(c)
        except ParseError as e:
            assert str(e) == f"unexpected character {c!r} (line 1, column 1)"
            refused.add(c)
    assert refused == {c for c in ascii_chars if ref_tokenize(c)[1]}
    assert not refused & set("\x1c\x1d\x1e\x1f")


def ref_matrix_rows(src):
    """_Parser.matrix_rows read one reference token at a time, raising
    what the parser raises, with the same message and position."""
    toks, bad = ref_tokenize(src)
    if bad is not None:
        ch, line, col = bad
        raise ParseError(f"unexpected character {ch!r}", line=line, column=col)
    i = 0

    def at(text):
        return toks[i][:2] == ("sym", text)

    def expect(kind, text, what):
        nonlocal i
        k, t, line, col = toks[i]
        if k == kind and (text is None or t == text):
            i += 1
            return toks[i - 1]
        got = t if k != "eof" else "end of input"
        raise ParseError(f"expected {what!r}, found {got!r}",
                         line=line, column=col)

    def entry():
        nonlocal i
        neg = at("-")
        i += neg
        _, digits, line, col = expect("int", None, "matrix entry")
        try:
            x = int(digits)
        except ValueError:
            raise UnsupportedComputation(
                f"integer literal of {len(digits)} digits is too long "
                f"(line {line}, column {col})") from None
        return -x if neg else x

    expect("sym", "[", "[")
    rows = []
    if not at("]"):
        while True:
            expect("sym", "[", "[")
            row = []
            if not at("]"):
                row.append(entry())
                while at(","):
                    i += 1
                    row.append(entry())
            rows.append(row)
            expect("sym", "]", "]")
            if not at(","):
                break
            i += 1
    expect("sym", "]", "]")
    if len({len(r) for r in rows}) > 1:
        raise SemanticError("matrix rows have differing lengths")
    return rows


def _outcome(read, src):
    try:
        return read(src)
    except (ParseError, SemanticError, UnsupportedComputation) as e:
        return (type(e).__name__, str(e), getattr(e, "line", None),
                getattr(e, "column", None))


_BLANKS = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n\t "])


@st.composite
def _matrix_text(draw):
    """Matrix text with blanks, tabs and newlines between its pieces,
    "- 3" for -3, empty and ragged rows, now and then an entry too long
    for int(); half the time one character is replaced, put in or cut."""
    width = draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        n = width if draw(st.integers(0, 5)) else draw(st.integers(0, 4))
        row = []
        for _ in range(n):
            x = draw(st.sampled_from(["0", "7", "42", "4" * 4400])) \
                if draw(st.integers(0, 40)) == 0 \
                else str(draw(st.integers(0, 99)))
            if draw(st.booleans()):
                x = "-" + draw(_BLANKS) + x
            row.append(x)
        rows.append("[" + draw(_BLANKS) + ("," + draw(_BLANKS)).join(
            x + draw(_BLANKS) for x in row) + "]")
    src = ("[" + draw(_BLANKS)
           + ("," + draw(_BLANKS)).join(r + draw(_BLANKS) for r in rows)
           + "]" + draw(st.sampled_from(["", " x", "\n]"])))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(src) - 1))
        ch = draw(st.sampled_from(list("[],- x1\n$")))
        cut = draw(st.integers(0, 2))
        src = src[:at] + (ch if cut < 2 else "") + src[at + (cut > 0):]
    return src


@seed(20261018)
@settings(max_examples=800, deadline=None, database=None)
@given(_matrix_text())
@example("[[1, -2],\n [ - 3, 4]]")
@example("[\t[1, - 2], [3]\n]")
@example("[[1], [-" + "4" * 4400 + "]]")
@example("[[[1], [2]], [3]]")
def test_matrix_rows_match_a_token_by_token_reference(src):
    assert _outcome(lambda s: _Parser(s).matrix_rows(), src) \
        == _outcome(ref_matrix_rows, src)


def test_matrix_rows_reads_entries_and_keeps_error_positions():
    assert _Parser("[[1, -2], [-0, 30]]").matrix_rows() == [[1, -2], [0, 30]]
    assert _Parser("[[], []]").matrix_rows() == [[], []]
    assert _Parser("[]").matrix_rows() == []
    for src, message, col in (
            ("[[1, 2,]]", "expected 'matrix entry', found ']'", 8),
            ("[[1 2]]", "expected ']', found '2'", 5),
            ("[[-]]", "expected 'matrix entry', found ']'", 4),
            ("[[1, -", "expected 'matrix entry', found 'end of input'", 7),
            ("[[1, x]]", "expected 'matrix entry', found 'x'", 6)):
        with pytest.raises(ParseError) as e:
            _Parser(src).matrix_rows()
        assert str(e.value) == f"{message} (line 1, column {col})", src
    with pytest.raises(UnsupportedComputation, match="5000 digits"):
        _Parser(f"[[1, -{'7' * 5000}]]").matrix_rows()


def test_a_tower_map_that_is_one_matrix_token_is_read_whole(monkeypatch):
    """matrix_rows reads a well-formed matrix in a tower map by one
    _MATRIX_RE match at its "[", and scans no token inside it."""
    matrix = "[[2, 1], [0, 1]]"
    text = f"tower block [Z^2 -({matrix})-> Z^2]"
    start = text.index(matrix)
    matched = []

    class Counted:
        def match(self, src, i):
            m = pattern.match(src, i)
            matched.append((i, m and m.group()))
            return m

    pattern = grammar._MATRIX_RE
    monkeypatch.setattr(grammar, "_MATRIX_RE", Counted())
    seen = _scanned(monkeypatch)
    tower = parse_tower(text)
    assert matched == [(start, matrix)]
    assert [t for t in seen if start < t.at < start + len(matrix)] == []
    assert tower.block_links[0].matrix == IntMatrix([[2, 1], [0, 1]])
