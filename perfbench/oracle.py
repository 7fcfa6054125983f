"""Independent answers for the benchmark's requests.

Plain Python integers and lists throughout.  Nothing here imports
cwbrauer, so every answer the benchmark accepts has been compared with
a second route: closed forms for spheres, Moore spaces, lens skeleta,
the infinite lens space and the catalog; the Kunneth formula over the
factors' closed forms for products (never the program's tensor
complex); and, for generated complex literals, a diagonal-only Smith
routine with the universal coefficient theorem.

A group is a pair (free_rank, invariant_factors) in canonical form.

`check(spec, line, code, text)` returns None when the report is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import gcd

TRIVIAL = (0, ())
ZZ = (1, ())


# ---------------------------------------------------------------------------
# integer algebra
# ---------------------------------------------------------------------------

def _egcd(x: int, y: int):
    """(g, s, u) with s*x + u*y = g = gcd(x, y) > 0; u = 0 when x | y."""
    if y % x == 0:
        return abs(x), (1 if x > 0 else -1), 0
    r0, r1, s0, s1, u0, u1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    if r0 < 0:
        r0, s0, u0 = -r0, -s0, -u0
    return r0, s0, u0


def _chain(values) -> list[int]:
    """Diagonal entries turned into a divisibility chain (gcd/lcm swaps)."""
    d = sorted(abs(v) for v in values if v)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def smith_diagonal(rows) -> list[int]:
    """The Smith diagonal (min(rows, cols) entries, zeros last).

    Unimodular 2x2 Bezout steps on rows and columns reduce the matrix to
    a diagonal; no transforms are kept.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    for t in range(min(m, n)):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    g, s, u = _egcd(a[t][t], a[i][t])
                    p, q = a[t][t] // g, a[i][t] // g
                    rt, ri = a[t], a[i]
                    a[t] = [s * e + u * f for e, f in zip(rt, ri)]
                    a[i] = [p * f - q * e for e, f in zip(rt, ri)]
            for j in range(t + 1, n):
                if a[t][j]:
                    g, s, u = _egcd(a[t][t], a[t][j])
                    p, q = a[t][t] // g, a[t][j] // g
                    for row in a:
                        e, f = row[t], row[j]
                        row[t], row[j] = s * e + u * f, p * f - q * e
            if all(a[i][t] == 0 for i in range(t + 1, m)):
                break
        diag.append(abs(a[t][t]))
    chain = _chain(diag)
    return chain + [0] * (min(m, n) - len(chain))


def group(orders) -> tuple:
    """Canonical group of a direct sum of cyclic groups (0 means Z)."""
    orders = list(orders)
    return (sum(1 for o in orders if o == 0),
            tuple(d for d in _chain(o for o in orders if o) if d >= 2))


def orders(g) -> list[int]:
    return [0] * g[0] + list(g[1])


def gsum(*gs) -> tuple:
    return group(o for g in gs for o in orders(g))


def fmt(g) -> str:
    free, tors = g
    parts = ([] if free == 0 else ["Z"] if free == 1 else [f"Z^{free}"])
    parts += [f"Z/{d}" for d in tors]
    return " + ".join(parts) or "0"


def torsion(g) -> tuple:
    return (0, g[1])


def free_part(g) -> tuple:
    return (g[0], ())


def _pair(a: int, b: int, z_z: int) -> int:
    """Cyclic tensor (z_z = 0) or Tor (z_z = 1) of Z/a and Z/b, 0 = Z."""
    if a == 0 and b == 0:
        return 0 if z_z == 0 else 1
    if a == 0 or b == 0:
        return (a or b) if z_z == 0 else 1
    return gcd(a, b)


def tensor(g, h) -> tuple:
    return group(_pair(a, b, 0) for a in orders(g) for b in orders(h))


def tor(g, h) -> tuple:
    return group(_pair(a, b, 1) for a in orders(g) for b in orders(h))


def hom_mod(g, m: int) -> tuple:
    """Hom(g, Z/m)."""
    return group(m if a == 0 else gcd(a, m) for a in orders(g))


def ext_mod(g, m: int) -> tuple:
    """Ext(g, Z/m)."""
    return group(gcd(a, m) for a in g[1])


def m_torsion_order(g, m: int) -> int:
    n = 1
    for d in g[1]:
        n *= gcd(d, m)
    return n


# ---------------------------------------------------------------------------
# spaces: cell counts and homology by closed form or Kunneth
# ---------------------------------------------------------------------------

class FiniteSpace:
    """Cell counts r_0..r_top and homology H_0..H_top of a finite complex."""

    kind = "finite"

    def __init__(self, ranks, homology, diagonals=None):
        self.ranks = list(ranks)
        self.hom = list(homology)
        self._diagonals = diagonals   # literal complexes: exact Smith data

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def dim(self) -> int:
        return max(n for n, r in enumerate(self.ranks) if r) if any(
            self.ranks) else -1

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top else 0

    def homology(self, n: int) -> tuple:
        return self.hom[n] if 0 <= n <= self.top else TRIVIAL

    def diagonal(self, n: int) -> list[int]:
        """Smith diagonal of boundary_n (both sides nonempty)."""
        if self._diagonals is not None:
            return self._diagonals[n]
        # rank of boundary_{k+1} = r_k - rank(boundary_k) - free(H_k)
        b = 0
        for k in range(n):
            b = self.rank(k) - b - self.homology(k)[0]
        tors = list(self.homology(n - 1)[1])
        size = min(self.rank(n - 1), self.rank(n))
        return [1] * (b - len(tors)) + tors + [0] * (size - b)

    def cohomology(self, n: int, m: int | None = None) -> tuple:
        if m is None:
            return gsum(free_part(self.homology(n)),
                        torsion(self.homology(n - 1)))
        return gsum(hom_mod(self.homology(n), m),
                    ext_mod(self.homology(n - 1), m))

    def odd_cells_high(self) -> bool:
        return any(r and d >= 5 and d % 2 for d, r in enumerate(self.ranks))


def sphere(k: int) -> FiniteSpace:
    ranks = [1] + [0] * (k - 1) + [1]
    hom = [TRIVIAL] * (k + 1)
    hom[0] = hom[k] = ZZ
    return FiniteSpace(ranks, hom)


def moore3(n: int) -> FiniteSpace:
    return FiniteSpace([1, 0, 1, 1], [ZZ, TRIVIAL, group([n]), TRIVIAL])


def lens(n: int, top: int) -> FiniteSpace:
    hom = [ZZ]
    for k in range(1, top + 1):
        if k % 2 == 0:
            hom.append(TRIVIAL)
        else:
            hom.append(ZZ if k == top else group([n]))
    return FiniteSpace([1] * (top + 1), hom)


def wedge(parts) -> FiniteSpace:
    top = max(p.top for p in parts)
    ranks = [1] + [sum(p.rank(k) for p in parts) for k in range(1, top + 1)]
    hom = [ZZ] + [gsum(*(p.homology(k) for p in parts))
                  for k in range(1, top + 1)]
    return FiniteSpace(ranks, hom)


def product(x: FiniteSpace, y: FiniteSpace) -> FiniteSpace:
    """Kunneth: H_n = sum H_p (x) H_q (p+q=n) + sum Tor(H_p, H_q) (p+q=n-1)."""
    top = x.top + y.top
    ranks = [sum(x.rank(p) * y.rank(n - p) for p in range(n + 1))
             for n in range(top + 1)]
    hom = []
    for n in range(top + 1):
        parts = [tensor(x.homology(p), y.homology(n - p))
                 for p in range(n + 1)]
        parts += [tor(x.homology(p), y.homology(n - 1 - p))
                  for p in range(n)]
        hom.append(gsum(*parts))
    return FiniteSpace(ranks, hom)


def literal(ranks, boundaries) -> FiniteSpace:
    """A complex literal: homology from Smith diagonals of its boundaries."""
    top = len(ranks) - 1
    diags = {n: smith_diagonal(boundaries[n - 1])
             for n in range(1, top + 1) if ranks[n - 1] and ranks[n]}
    rank_of = {n: sum(1 for d in diags.get(n, ()) if d)
               for n in range(top + 2)}
    hom = []
    for n in range(top + 1):
        free = ranks[n] - rank_of[n] - rank_of[n + 1]
        tors = tuple(d for d in diags.get(n + 1, ()) if d >= 2)
        hom.append((free, tors))
    return FiniteSpace(ranks, hom, diags)


class LensPeriodic:
    """The infinite lens space: one cell per degree, boundaries 0, x n."""

    kind = "periodic"

    def __init__(self, n: int):
        self.n = n

    def rank(self, k: int) -> int:
        return 1 if k >= 0 else 0

    def homology(self, k: int) -> tuple:
        if k == 0:
            return ZZ
        return group([self.n]) if k > 0 and k % 2 else TRIVIAL

    def diagonal(self, k: int) -> list[int]:
        return [0] if k % 2 else [self.n]

    cohomology = FiniteSpace.cohomology


def build(spec):
    """Oracle space for a space spec (nested lists, see workloads.py)."""
    head = spec[0]
    if head == "sphere":
        return sphere(spec[1])
    if head == "moore3":
        return moore3(spec[1])
    if head == "lens":
        return lens(spec[1], spec[2])
    if head == "wedge":
        return wedge([build(p) for p in spec[1]])
    if head == "product":
        return product(build(spec[1]), build(spec[2]))
    if head == "literal":
        return literal(spec[1], spec[2])
    if head == "lens_periodic":
        return LensPeriodic(spec[1])
    raise ValueError(f"no oracle for space {head!r}")


def trace_lines(x, degrees) -> list[str]:
    out = []
    for n in degrees:
        rows, cols = x.rank(n - 1), x.rank(n)
        if rows and cols:
            out.append(f"SNF diagonal of boundary_{n}: {x.diagonal(n)}")
        else:
            out.append(f"boundary_{n} is zero ({rows} x {cols})")
    return out


def certificate(x) -> tuple:
    """(verdict, reason, also_applicable) of the Br = Br' rule engine."""
    if x.kind != "finite":
        return "UNKNOWN", None, []
    rules = ["CompactSerre"]
    if x.dim() <= 4:
        rules.append("WoodwardDimLe4")
    if not x.odd_cells_high():
        rules.append("EvenCells")
    return "EQUAL", rules[0], rules[1:]


# ---------------------------------------------------------------------------
# catalog facts
# ---------------------------------------------------------------------------

def catalog_entry(spec) -> dict:
    """name, br_prime, br (group strings or None) and verdict."""
    head = spec[0]
    if head == "bpgl":
        g = fmt(group([spec[1]]))
        return {"name": f"bpgl({spec[1]})", "br_prime": g, "br": g,
                "verdict": "EQUAL"}
    if head == "k":
        g, j = spec[1], spec[2]
        text = "Q/Z" if g == "Q/Z" else fmt(tuple((g[0], tuple(g[1]))))
        if j >= 3 or g == "Q/Z":
            return {"name": f"k({text}, {j})", "br_prime": "0", "br": "0",
                    "verdict": "EQUAL"}
        tors = fmt((0, tuple(g[1])))
        return {"name": f"k({text}, 2)", "br_prime": tors, "br": "0",
                "verdict": "STRICT" if g[1] else "EQUAL"}
    if head == "fact":
        return {"name": spec[1], "br_prime": None, "br": None,
                "verdict": "UNKNOWN"}
    raise ValueError(f"no catalog entry for {head!r}")


def catalog_homology(spec, n: int):
    """H_n of a catalog space, or None where the catalog records none."""
    if n == 0:
        return ZZ
    if spec[0] == "bpgl":
        return {1: TRIVIAL, 2: group([spec[1]])}.get(n)
    g, j = spec[1], spec[2]
    if n < j:
        return TRIVIAL
    return (g[0], tuple(g[1])) if n == j else None


# ---------------------------------------------------------------------------
# the frozen reproduce table
# ---------------------------------------------------------------------------

def reproduce_table() -> list[tuple[str, str, str]]:
    """(name, request, expected) for the 172 published worked examples."""
    items = []
    for n in range(2, 13):
        items += [(f"moore3({n}) brauer", f"brauer moore3({n})",
                   f"Br'=Z/{n} EQUAL"),
                  (f"moore3({n}) H^3", f"cohomology moore3({n}) 3", f"Z/{n}"),
                  (f"bpgl({n}) catalog", f"catalog bpgl({n})",
                   f"Br'=Z/{n} Br=Z/{n} EQUAL"),
                  (f"k(Z/{n},2) catalog", f"catalog k(Z/{n}, 2)",
                   f"Br'=Z/{n} Br=0 STRICT")]
    items += [("k(Q/Z,2) catalog", "catalog k(Q/Z, 2)", "Br'=0 Br=0 EQUAL"),
              ("k(Z/5,3) catalog", "catalog k(Z/5, 3)", "Br'=0 Br=0 EQUAL"),
              ("k(Z^2+Z/3,4) catalog", "catalog k(Z^2 + Z/3, 4)",
               "Br'=0 Br=0 EQUAL")]
    for m in range(2, 9):
        for n in range(2, 9):
            g = gcd(m, n)
            want = "0" if g == 1 else f"Z/{g}"
            items.append((f"kunneth lens({m})xlens({n})",
                          f"brauer product(lens({m}, 3), lens({n}, 3))",
                          f"Br'={want} EQUAL"))
            a, b = sorted((m, n))
            lit = f"(Z/{m})^2" if m == n else f"(Z/{a})^1 + (Z/{b})^1"
            items.append((f"profile lambda {m},{n}",
                          f"profile-brauer {lit}", want))
    for m in range(2, 11):
        items.append((f"bockstein moore3({m})",
                      f"bockstein moore3({m}) 2 mod {m}",
                      f"Z/{m}->Z/{m} unit matrix entry"))
    items.append(("phantom telescope x5", "phantom telescope(Z, x5) 2",
                  "symbolic nonzero,divisible"))
    items += [(f"phantom lens_periodic deg {d}",
               f"phantom lens_periodic(4) {d}", "0") for d in range(1, 6)]
    items += [("phantom moore3(6)", "phantom moore3(6) 3", "0"),
              ("phantom product",
               "phantom product(lens(4, 3), lens(6, 3)) 3", "0"),
              ("lim1 finite block",
               "lim1 tower block [Z/4 -(x2)-> Z/8, Z/8 -(x1)-> Z/4]",
               "VANISHES(JensenFinite)"),
              ("lim1 constant Z", "lim1 tower block [Z -(id)-> Z]",
               "VANISHES(MittagLeffler)"),
              ("lim1 times 5", "lim1 tower block [Z -(x5)-> Z]",
               "INCONCLUSIVE"),
              ("certify moore3(7)", "certify moore3(7)",
               "EQUAL [CompactSerre,EvenCells,WoodwardDimLe4]"),
              ("certify even 6-complex",
               "certify wedge(sphere(2), sphere(4), sphere(6))",
               "EQUAL [CompactSerre,EvenCells]"),
              ("certify k(Z/5,2)", "certify k(Z/5, 2)",
               "STRICT [CatalogTheorem]"),
              ("certify telescope", "certify telescope(Z, x5)",
               "EQUAL [EvenCells,WoodwardDimLe4]"),
              ("non-brauer certified",
               "non-brauer-check (Z/3)^w with rule i>=1: J=(i, 2i]",
               "CERTIFIED_NOT_IN_BR"),
              ("non-brauer bounded rules",
               "non-brauer-check (Z/3)^w with rule 1<=i<=9: J=(i, 2i]",
               "CONDITION_FAILS"),
              ("non-brauer singleton intervals",
               "non-brauer-check (Z/3)^w with rule i>=1: J=(i, i+1]",
               "CONDITION_FAILS")]
    return items


_BOCKSTEIN_ROW = re.compile(r"Z/(\d+)->Z/(\d+) matrix \[\[(-?\d+)\]\]")


def _check_reproduce(res: dict) -> str | None:
    table = reproduce_table()
    rows = res.get("items", [])
    if (res.get("passed"), res.get("failed"), len(rows)) != (
            len(table), 0, len(table)):
        return (f"reproduce: passed={res.get('passed')} "
                f"failed={res.get('failed')} items={len(rows)}")
    for row, (name, request, want) in zip(rows, table):
        if (row["name"], row["request"], row["expected"]) != (
                name, request, want) or row["status"] != "PASS":
            return f"reproduce item {name!r} differs: {row}"
        if want.endswith("unit matrix entry"):
            m = _BOCKSTEIN_ROW.fullmatch(row["actual"])
            n = int(want.split("->")[0][2:])
            if not m or int(m[1]) != n or int(m[2]) != n or gcd(
                    int(m[3]), n) != 1:
                return f"reproduce item {name!r}: {row['actual']!r}"
        elif row["actual"] != want:
            return f"reproduce item {name!r}: {row['actual']!r} != {want!r}"
    return None


# ---------------------------------------------------------------------------
# request checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _built(key: str):
    return build(json.loads(key))


def _space(spec):
    """Oracle space for a spec; a session's requests share one build."""
    return _built(json.dumps(spec))


def _payload(g) -> dict:
    return {"kind": "group", "group": fmt(g)}


def _image_order(matrix, cod) -> int:
    """Order of the subgroup of cod spanned by the matrix columns."""
    free, tors = cod
    k = len(tors)
    wide = [list(matrix[free + i]) + [tors[i] if j == i else 0
                                      for j in range(k)] for i in range(k)]
    total = coker = 1
    for d in tors:
        total *= d
    for d in smith_diagonal(wide):
        coker *= d
    return total // coker


def _check_bockstein(x, n: int, m: int, res: dict) -> str | None:
    dom, cod = x.cohomology(n, m), x.cohomology(n + 1)
    if (res.get("kind"), res.get("domain"), res.get("codomain")) != (
            "hom", fmt(dom), fmt(cod)):
        return f"bockstein groups {res.get('domain')} -> {res.get('codomain')}"
    mat = res["matrix"]
    dom_orders, cod_orders = orders(dom), orders(cod)
    if len(mat) != len(cod_orders) or any(
            len(r) != len(dom_orders) for r in mat):
        return "bockstein matrix has the wrong shape"
    for i, e in enumerate(cod_orders):
        for j, o in enumerate(dom_orders):
            v = mat[i][j]
            # im(beta) = ker(x m): m-torsion, and generator orders respected
            if (e == 0 and v) or (e and ((m * v) % e or (o * v) % e)):
                return f"bockstein entry ({i}, {j}) = {v} is not allowed"
    want = m_torsion_order(cod, m)
    if _image_order(mat, cod) != want:
        return f"bockstein image is not the {m}-torsion of {fmt(cod)}"
    if res["is_zero"] != (want == 1):
        return "bockstein is_zero flag is wrong"
    return None


def _expected(spec) -> tuple[dict, list | None]:
    """Expected result fields (a subset of the report) and trace lines."""
    cmd = spec["cmd"]
    sp = spec.get("space")
    n = spec.get("degree")
    m = spec.get("modulus")
    catalog = sp is not None and sp[0] in ("bpgl", "k", "fact")
    if cmd == "homology":
        if catalog:
            return _payload(catalog_homology(sp, n)), []
        x = _space(sp)
        return _payload(x.homology(n)), trace_lines(x, (n, n + 1))
    if cmd in ("cohomology", "uct"):
        x = _space(sp)
        lines = trace_lines(x, (n, n + 1))
        if cmd == "uct":
            ext = torsion(x.homology(n - 1)) if n >= 1 else TRIVIAL
            hom = free_part(x.homology(n))
            return {"kind": "uct", "degree": n, "ext_part": fmt(ext),
                    "hom_part": fmt(hom), "total": fmt(gsum(ext, hom))}, lines
        res = _payload(x.cohomology(n, m))
        res["degree"] = n
        if m is not None:
            res["modulus"] = m
        return res, lines
    if cmd == "brauer":
        if catalog:
            e = catalog_entry(sp)
            return {"kind": "brauer",
                    "br_prime": _payload_text(e["br_prime"]),
                    "br": _payload_text(e["br"]),
                    "equality": {"verdict": e["verdict"],
                                 "reason": "CatalogTheorem",
                                 "also_applicable": []}}, []
        x = _space(sp)
        verdict, reason, also = certificate(x)
        bp = _payload(torsion(x.homology(2)))
        return {"kind": "brauer", "br_prime": bp,
                "br": bp if verdict == "EQUAL" else None,
                "equality": {"verdict": verdict, "reason": reason,
                             "also_applicable": also}}, trace_lines(x, (2, 3))
    if cmd == "phantom":
        if sp[0] == "telescope" and n == 2:
            return {"kind": "symbolic_group", "degree": n,
                    "flags": {"nonzero": True, "divisible": True}}, []
        return {"kind": "group", "group": "0", "degree": n}, []
    if cmd == "certify":
        if sp[0] == "telescope":
            verdict, reason, also = "EQUAL", "WoodwardDimLe4", ["EvenCells"]
        elif catalog:
            verdict = catalog_entry(sp)["verdict"]
            reason, also = "CatalogTheorem", []
        else:
            verdict, reason, also = certificate(_space(sp))
        rules = [reason] + also
        return {"kind": "certificate", "verdict": verdict, "reason": reason,
                "also_applicable": also}, [
            f"applicable rules, in priority order: {rules}"]
    if cmd == "catalog":
        e = catalog_entry(sp)
        return {"kind": "catalog", "name": e["name"],
                "br_prime": _payload_text(e["br_prime"]),
                "br": _payload_text(e["br"]), "verdict": e["verdict"]}, []
    if cmd == "lim1":
        return {"kind": "lim1", "verdict": spec["verdict"],
                "reason": spec["reason"]}, None
    if cmd == "profile-brauer":
        cyc = [o for o, k in spec["profile"] for _ in range(k)]
        lam = group(gcd(cyc[i], cyc[j]) for i in range(len(cyc))
                    for j in range(i + 1, len(cyc)))
        return {"kind": "profile_brauer", "br_prime": _payload(lam)}, None
    if cmd == "non-brauer-check":
        return {"kind": "non_brauer", "verdict": spec["verdict"]}, None
    raise ValueError(f"no oracle for command {cmd!r}")


def _payload_text(text):
    return None if text is None else {"kind": "group", "group": text}


def _subset_mismatch(want, got, path="result") -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path} is {got!r}, expected an object"
        for k, v in want.items():
            bad = _subset_mismatch(v, got.get(k), f"{path}.{k}")
            if bad:
                return bad
        return None
    if want != got:
        return f"{path} = {got!r}, expected {want!r}"
    return None


def check(spec: dict, line: str, code, text: str) -> str | None:
    """None when (exit code, --json text) is right for the request.  A
    spec with a "refusal" code also accepts a refusal with that code
    (input deeper than the program handles)."""
    want_code = spec.get("code", 0)
    if code and code == spec.get("refusal"):
        want_code = code
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "output is not one JSON document"
    if report.get("request") != line:
        return "report names another request"
    if want_code:
        err = report.get("error") or {}
        return (None if err.get("code") == want_code
                else f"error payload code {err.get('code')}")
    if spec["cmd"] == "reproduce":
        return _check_reproduce(report.get("result", {}))
    if report.get("command") != spec["cmd"]:
        return f"command {report.get('command')!r}"
    res = report.get("result")
    if spec["cmd"] == "bockstein":
        x = _space(spec["space"])
        bad = _check_bockstein(x, spec["degree"], spec["modulus"], res)
        lines = trace_lines(x, [spec["degree"] + k for k in range(3)])
    else:
        want, lines = _expected(spec)
        bad = _subset_mismatch(want, res)
    if bad:
        return bad
    if spec.get("trace"):
        if lines is not None and report.get("trace") != lines:
            return f"trace {report.get('trace')!r}, expected {lines!r}"
    elif "trace" in report:
        return "untraced request printed a trace"
    return None
