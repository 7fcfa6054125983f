"""Seeded request generators for the three benchmark workloads.

`generate(name, seed, count)` returns `count` entries (text, trace, spec):
`text` is one request line as a user would type it, `trace` says whether
it runs with --trace, and `spec` is what the oracle needs to check the
answer.  The same (name, seed, count) always gives the same entries.

Every stream is built from blocks with a fixed make-up (commands, sizes,
repeats, bad lines), shuffled inside the block by the seed, so two seeds
differ in their parameters but not in their mix.

Space specs are nested lists, read by `oracle.build`:
["sphere", k], ["moore3", n], ["lens", n, top], ["lens_periodic", n],
["wedge", [spec, ...]], ["product", a, b], ["literal", ranks, boundaries],
["telescope", k], ["bpgl", n], ["k", [free, [factors]] | "Q/Z", j],
["fact", name].
"""

from __future__ import annotations

import math
from random import Random

WORKLOADS = ("mixed_small", "chain_heavy", "periodic_deep")

# Depth of the nested wedge( line kept in mixed_small: deep enough to hit
# the recursion defect that bad input can trigger today.
DEEP_WEDGE = 600


# ---------------------------------------------------------------------------
# space text
# ---------------------------------------------------------------------------

def space_text(spec) -> str:
    head = spec[0]
    if head == "lens":
        return f"lens({spec[1]}, {spec[2]})"
    if head == "wedge":
        return "wedge(" + ", ".join(space_text(p) for p in spec[1]) + ")"
    if head == "product":
        return f"product({space_text(spec[1])}, {space_text(spec[2])})"
    if head == "literal":
        return literal_text(spec[1], spec[2])
    if head == "telescope":
        return f"telescope(Z, x{spec[1]})"
    if head == "k":
        g = spec[1]
        if g == "Q/Z":
            return f"k(Q/Z, {spec[2]})"
        parts = ([] if g[0] == 0 else ["Z"] if g[0] == 1 else [f"Z^{g[0]}"])
        parts += [f"Z/{d}" for d in g[1]]
        return f"k({' + '.join(parts)}, {spec[2]})"
    return f"{head}({spec[1]})"


def literal_text(ranks, boundaries) -> str:
    stmts = [f"cells {n}: {r}" for n, r in enumerate(ranks)]
    for n, b in enumerate(boundaries, start=1):
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in b)
        stmts.append(f"boundary {n}: [{rows}]")
    return "complex { " + "; ".join(stmts) + " }"


def _request(cmd, sp, degree=None, modulus=None, trace=False):
    text = f"{cmd} {space_text(sp)}"
    if degree is not None:
        text += f" {degree}"
    if modulus is not None:
        text += f" mod {modulus}"
    spec = {"cmd": cmd, "space": sp}
    if degree is not None:
        spec["degree"] = degree
    if modulus is not None:
        spec["modulus"] = modulus
    if trace:
        spec["trace"] = True
    return text, trace, spec


# ---------------------------------------------------------------------------
# mixed_small: all twelve request forms, repeats and bad lines
# ---------------------------------------------------------------------------

def _lens(r: Random, tmin=1, tmax=6):
    return ["lens", r.randint(2, 999), r.randint(tmin, tmax)]


def _lens_pair(r: Random):
    return ["product", _lens(r, 2, 4), _lens(r, 2, 4)]


def _moore(r: Random):
    return ["moore3", r.randint(2, 9999)]


def _top(sp) -> int:
    head = sp[0]
    if head == "moore3":
        return 3
    if head in ("lens", "sphere"):
        return sp[-1]
    return _top(sp[1]) + _top(sp[2])


def _finite(r: Random, kind: str):
    return {"moore3": _moore, "lens": _lens, "pair": _lens_pair,
            "sphere": lambda r: ["sphere", r.randint(1, 9)]}[kind](r)


def _catalog_space(r: Random):
    if r.random() < 0.5:
        return ["bpgl", r.randint(2, 9999)]
    return ["k", [0, [r.randint(2, 9999)]], 2]


def _homology(r, kind):
    if kind == "catalog":
        sp = _catalog_space(r)
        return _request("homology", sp, r.randint(0, 2))
    sp = _finite(r, kind)
    return _request("homology", sp, r.randint(0, _top(sp) + 1))


def _cohomology(r, kind):
    sp = _finite(r, kind)
    mod = r.randint(2, 12) if r.random() < 0.5 else None
    return _request("cohomology", sp, r.randint(0, _top(sp) + 1), mod)


def _uct(r, kind):
    sp = _finite(r, kind)
    return _request("uct", sp, r.randint(0, _top(sp) + 1))


def _bockstein(r, kind):
    sp = _finite(r, kind)
    d = 2 if kind == "moore3" else r.randint(0, _top(sp))
    return _request("bockstein", sp, d, r.randint(2, 12))


def _brauer(r, kind):
    sp = _catalog_space(r) if kind == "catalog" else _finite(r, kind)
    return _request("brauer", sp)


def _phantom(r, kind):
    if kind == "telescope":
        return _request("phantom", ["telescope", r.randint(2, 9999)], 2)
    if kind == "periodic":
        return _request("phantom", ["lens_periodic", r.randint(2, 999)],
                        r.randint(1, 5))
    sp = _finite(r, kind)
    return _request("phantom", sp, r.randint(1, _top(sp) + 1))


def _certify(r, kind):
    if kind == "wedge":
        sp = ["wedge", [["sphere", r.randint(1, 9)] for _ in range(3)]]
    elif kind == "telescope":
        sp = ["telescope", r.randint(2, 9999)]
    elif kind == "catalog":
        sp = ["k", [0, [r.randint(2, 9999)]], 2]
    else:
        sp = _moore(r)
    return _request("certify", sp)


def _lim1(r, kind):
    if kind == "finite":
        a, c = r.randint(2, 99), r.randint(1, 3)
        k, l = c * r.randint(1, 3), r.randint(1, 5)
        text = (f"lim1 tower block [Z/{a} -(x{k})-> Z/{a * c}, "
                f"Z/{a * c} -(x{l})-> Z/{a}]")
        verdict, reason = "VANISHES", "JensenFinite"
    elif kind == "identity":
        n = r.randint(1, 3)
        g = "Z" if n == 1 else f"Z^{n}"
        text = f"lim1 tower block [{g} -(id)-> {g}]"
        verdict, reason = "VANISHES", "MittagLeffler"
    else:
        text = f"lim1 tower block [Z -(x{r.randint(2, 999)})-> Z]"
        verdict, reason = "INCONCLUSIVE", None
    return text, False, {"cmd": "lim1", "verdict": verdict,
                         "reason": reason}


def _profile_brauer(r, kind):
    a, b = sorted(r.sample(range(2, 100), 2))
    pairs = [[a, r.randint(1, 3)], [b, r.randint(1, 3)]]
    text = "profile-brauer " + " + ".join(f"(Z/{o})^{k}" for o, k in pairs)
    return text, False, {"cmd": "profile-brauer", "profile": pairs}


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _non_brauer(r, kind):
    p = r.choice(_PRIMES) ** r.randint(1, 3)
    lo = r.randint(1, 50)
    if kind == "certified":
        rule = f"rule i>={lo}: J=(i, {r.randint(2, 9)}i]"
        verdict = "CERTIFIED_NOT_IN_BR"
    elif kind == "bounded":
        rule = f"rule {lo}<=i<={lo + r.randint(0, 99)}: J=(i, 2i]"
        verdict = "CONDITION_FAILS"
    else:
        rule = f"rule i>={lo}: J=(i, i+{r.randint(1, 9)}]"
        verdict = "CONDITION_FAILS"
    text = f"non-brauer-check (Z/{p})^w with {rule}"
    return text, False, {"cmd": "non-brauer-check", "verdict": verdict}


def _catalog(r, kind):
    if kind == "fact":
        sp = ["fact", r.choice(("plus_construction", "compact_realization"))]
        return (f"catalog {sp[1]}", False, {"cmd": "catalog", "space": sp})
    if kind == "bpgl":
        sp = ["bpgl", r.randint(2, 9999)]
    elif kind == "k2":
        sp = ["k", [0, [r.randint(2, 9999)]], 2]
    elif kind == "qz":
        sp = ["k", "Q/Z", 2]
    else:
        sp = ["k", [r.randint(0, 3), [r.randint(2, 99)]], r.randint(3, 9)]
    return _request("catalog", sp)


# (generator, kind, lines per block of 100)
_MIXED_FRESH = (
    (_homology, "moore3", 3), (_homology, "lens", 3), (_homology, "sphere", 1),
    (_homology, "pair", 2), (_homology, "catalog", 1),
    (_cohomology, "moore3", 4), (_cohomology, "lens", 4),
    (_uct, "moore3", 2), (_uct, "lens", 2), (_uct, "pair", 2),
    (_bockstein, "moore3", 4), (_bockstein, "lens", 2),
    (_brauer, "moore3", 3), (_brauer, "pair", 2), (_brauer, "catalog", 2),
    (_brauer, "lens", 1),
    (_phantom, "telescope", 1), (_phantom, "periodic", 2),
    (_phantom, "moore3", 2), (_phantom, "pair", 1),
    (_certify, "moore3", 2), (_certify, "wedge", 2), (_certify, "catalog", 1),
    (_certify, "telescope", 1),
    (_lim1, "finite", 3), (_lim1, "identity", 1), (_lim1, "scalar", 2),
    (_profile_brauer, "", 6),
    (_non_brauer, "certified", 2), (_non_brauer, "bounded", 2),
    (_non_brauer, "singleton", 1),
    (_catalog, "bpgl", 1), (_catalog, "k2", 1), (_catalog, "kj", 1),
    (_catalog, "qz", 1), (_catalog, "fact", 1),
)
_MIXED_REPEATS = 20   # of every 100 lines
_MIXED_RARE = 5000    # one reproduce and one deep wedge per this many lines


def _bad_line(r: Random, code: int):
    n = r.randint(2, 9999)
    d = r.randint(0, 5)
    if code == 2:
        text = r.choice((f"homolgy moore3({n}) {d}",
                         f"homology moore3({n} {d}",
                         f"brauer moore3({n}) {d}",
                         f"homology moore3({n})",
                         f"cohomology lens({n}, 4) {d} mod",
                         f"homology moore3({n}) {d} @"))
    elif code == 3:
        text = r.choice((f"homology moore3({n}) -{d + 1}",
                         f"cohomology moore3({n}) {d} mod 1",
                         f"homology sphere(0) {d}",
                         f"brauer wedge(moore3({n}))",
                         f"catalog fact_{n}",
                         f"phantom moore3({n}) 0"))
    else:
        text = r.choice((f"homology bpgl({n}) {d + 3}",
                         f"cohomology bpgl({n}) {d}",
                         f"uct k(Z/{n}, 2) {d}",
                         f"homology k(Z/{n}, 2) {d + 3}",
                         f"bockstein telescope(Z, x{n}) {d} mod 2"))
    return text, False, {"cmd": text.split(" ", 1)[0], "code": code}


def _deep_wedge():
    text = "sphere(2)"
    for _ in range(DEEP_WEDGE):
        text = f"wedge({text}, sphere(2))"
    sp = ["wedge", [["sphere", 2]] * (DEEP_WEDGE + 1)]
    return f"homology {text} 2", False, {"cmd": "homology", "space": sp,
                                         "degree": 2,
                                         "defect": "RecursionError",
                                         "refusal": 4}


def _mixed_small(r: Random, count: int):
    out, fresh, seen = [], [], set()
    slots = ([("fresh", g, k) for g, k, n in _MIXED_FRESH for _ in range(n)]
             + [("repeat", None, None)] * _MIXED_REPEATS
             + [("bad", None, c) for c in (2, 2, 2, 3, 3, 3, 4, 4)])
    assert len(slots) == 100
    rare = {}
    while len(out) < count:
        if len(out) % _MIXED_RARE == 0:
            base = len(out)
            a, b = r.sample(range(base + 1, base + _MIXED_RARE), 2)
            rare = {a: ("reproduce", False, {"cmd": "reproduce"}),
                    b: _deep_wedge()}
        block = slots[:]
        r.shuffle(block)
        for kind, gen, arg in block:
            pos = len(out)
            if pos in rare:
                out.append(rare[pos])
            elif kind == "repeat" and fresh:
                out.append(r.choice(fresh))
            elif kind == "bad":
                out.append(_bad_line(r, arg))
            else:
                if gen is None:      # a repeat before any fresh line exists
                    gen, arg = _homology, "moore3"
                for _ in range(50):
                    line = gen(r, arg)
                    if line[0] not in seen:
                        break
                seen.add(line[0])
                fresh.append(line)
                out.append(line)
    return out[:count]


# ---------------------------------------------------------------------------
# chain_heavy: sessions of requests on products and dense literals
# ---------------------------------------------------------------------------

def _unimodular(r: Random, n: int, steps: int):
    """A random unimodular n x n matrix and its inverse, both built from
    the same `steps` elementary row operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    ops = []
    for _ in range(steps):
        i, j = r.sample(range(n), 2)
        ops.append((i, j, r.choice((-2, -1, 1, 2))))
    for i, j, c in ops:                     # p = E_k ... E_1
        p[j] = [x + c * y for x, y in zip(p[j], p[i])]
    for i, j, c in ops:                     # q = E_1^-1 ... E_k^-1
        for row in q:
            row[i] -= c * row[j]
    return p, q


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _dense_literal(r: Random, lo: int, hi: int):
    """A complex of top degree 4 with dense, kernel-built boundaries.

    In a split basis, boundary_n sends the last b_n cells of degree n to
    t_i times the first b_n cells of degree n-1 (t_i mostly 1, some 2..6,
    which become torsion).  Random unimodular changes of basis P_n then
    give boundary_n = P_{n-1} D_n P_n^-1.  The columns of P_n for the
    first r_n - b_n cells are a kernel basis K_n of boundary_n, and
    boundary_{n+1} = K_n x (a dense block), so every boundary is built on
    the kernel of the one below it and boundary boundary = 0 holds.
    """
    ranks = [r.randint(lo, hi) for _ in range(5)]
    b = [0] * 6
    for n in range(1, 5):
        b[n] = min(ranks[n - 1] - b[n - 1], ranks[n]) // 2
    basis = [_unimodular(r, k, 8 * k) for k in ranks]
    bnds = []
    for n in range(1, 5):
        rows, cols = ranks[n - 1], ranks[n]
        d = [[0] * cols for _ in range(rows)]
        for i in range(b[n]):
            d[i][cols - b[n] + i] = r.choice((1, 1, 1, 2, 3, 4, 6))
        bnds.append(_matmul(_matmul(basis[n - 1][0], d), basis[n][1]))
    return ["literal", ranks, bnds]


def _factor(r: Random, shape):
    """A factor of the given shape ("L", top), ("M",) or ("S", dim), with a
    seeded parameter (entries stay within 7 bits)."""
    if shape[0] == "L":
        return ["lens", r.randint(2, 127), shape[1]]
    if shape[0] == "M":
        return ["moore3", r.randint(2, 127)]
    return ["sphere", shape[1]]


def _product_of(factors):
    sp = factors[-1]
    for f in reversed(factors[:-1]):
        sp = ["product", f, sp]
    return sp


# One block of sessions.  Each product session has a fixed multiset of
# factor shapes (cell counts fix the boundary sizes, hence the cost), in
# seeded order with seeded parameters; literals have seeded ranks.
_CHAIN_SESSIONS = (
    ("product", (("L", 9), ("L", 8))),
    ("product", (("L", 5), ("L", 4), ("M",))),
    ("product", (("L", 5), ("S", 2), ("L", 5))),
    ("product", (("L", 3), ("L", 3), ("M",), ("L", 2))),
    ("literal", (11, 12)),
    ("literal", (19, 20)),
)
# Commands of one session; the degrees and moduli are seeded.
_SESSION_FORMS = (("homology", False), ("cohomology", False),
                  ("cohomology", True), ("uct", False), ("bockstein", True),
                  ("bockstein", True))


def _session(r: Random, kind, arg, seen):
    if kind == "literal":
        sp, top = _dense_literal(r, *arg), 4
    else:
        shapes = list(arg)
        r.shuffle(shapes)
        sp = _product_of([_factor(r, shape) for shape in shapes])
        top = _top(sp)
    middle = (top // 2, (top + 1) // 2 + (top % 2 == 0))
    traced = [i % 2 == 0 for i in range(len(_SESSION_FORMS))]
    r.shuffle(traced)
    out = []
    for (cmd, with_mod), tr in zip(_SESSION_FORMS, traced):
        for _ in range(20):      # requests of a session are all different
            line = _request(cmd, sp, r.choice(middle),
                            r.choice((2, 3, 4, 6)) if with_mod else None, tr)
            if line[0] not in seen:
                break
        seen.add(line[0])
        out.append(line)
    return out


def _chain_heavy(r: Random, count: int):
    out, seen = [], set()
    while len(out) < count:
        block = list(_CHAIN_SESSIONS)
        r.shuffle(block)
        for kind, arg in block:
            out += _session(r, kind, arg, seen)
    return out[:count]


# ---------------------------------------------------------------------------
# periodic_deep: the infinite lens space at degrees 10^3 .. 3*10^4
# ---------------------------------------------------------------------------

# One block: every (command, degree band) pair once, plus two brauer
# lines (brauer takes no degree).  DEGREE_RANGE is cut into log-spaced
# bands, so all blocks cost about the same and every command meets every
# band in every block.  Within its band, a pair's degree follows a
# golden-ratio sequence from a seeded start, so the degrees of a run fill
# each band evenly: costs form a continuum (no gaps for a percentile to
# jump across) that hardly depends on the seed.
_PERIODIC_COMMANDS = ("homology", "cohomology", "uct", "bockstein",
                      "phantom")
DEGREE_RANGE = (1000, 30000)
_BANDS = 6
_PERIODIC_BLOCK = len(_PERIODIC_COMMANDS) * _BANDS + 2
_GOLDEN = (math.sqrt(5) - 1) / 2


def _periodic_deep(r: Random, count: int):
    out, used = [], set()
    lo, hi = map(math.log, DEGREE_RANGE)
    start = [r.random() for _ in range(len(_PERIODIC_COMMANDS) * _BANDS)]
    block = 0
    while len(out) < count:
        lines = []
        for c, cmd in enumerate(_PERIODIC_COMMANDS):
            for band in range(_BANDS):
                x = (start[c * _BANDS + band] + block * _GOLDEN) % 1.0
                d = int(math.exp(lo + (band + x) / _BANDS * (hi - lo)))
                with_mod = cmd == "bockstein" or (
                    cmd == "cohomology" and band % 2)
                # half the lines of a block are traced; a pair's flag
                # alternates from block to block
                tr = (c + band + block) % 2 == 0
                lines.append(_request(
                    cmd, ["lens_periodic", r.randint(2, 99)], d,
                    r.randint(2, 12) if with_mod else None, tr))
        for tr in (True, False):
            n = r.randint(2, 99999)
            while n in used:           # brauer lines must not repeat
                n = r.randint(2, 99999)
            used.add(n)
            lines.append(_request("brauer", ["lens_periodic", n], trace=tr))
        r.shuffle(lines)
        out += lines
        block += 1
    return out[:count]


_GENERATORS = {"mixed_small": _mixed_small, "chain_heavy": _chain_heavy,
               "periodic_deep": _periodic_deep}
# Lines per block: each block of a stream has the workload's full mix.
BLOCK = {"mixed_small": 100,
         "chain_heavy": len(_CHAIN_SESSIONS) * len(_SESSION_FORMS),
         "periodic_deep": _PERIODIC_BLOCK}


def generate(name: str, seed: int, count: int):
    """`count` entries (text, trace, spec) of workload `name`."""
    return _GENERATORS[name](Random(f"{name}:{seed}"), count)
