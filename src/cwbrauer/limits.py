"""Towers and lim^1 certificates.

Towers (inverse systems indexed by the naturals) are finite data: an
`EventuallyPeriodic` sequence of groups, a prefix and a repeating block
of (group, map to predecessor) pairs; `spaces.PeriodicComplex` is the
same sequence of ranks and boundary matrices.
lim^1 is never computed; we only certify that it vanishes, either
because every group in the tower is finite or because the images
provably stabilize (Mittag-Leffler), and say INCONCLUSIVE otherwise.

A mapping telescope's directed system is not kept as data: the
telescope is its label, ("telescope", (k,)), and `spaces` reads its H_1
and that group's Ext^1 off k (its `multiplier`) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .abgroup import FgAbGroup, GroupHom
from .errors import SemanticError
from .intlin import IntMatrix, smith_invariants


# ---------------------------------------------------------------------------
# towers (inverse systems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventuallyPeriodic:
    """x_0, x_1, ...: p prefix items, then m block items repeated for
    ever, with link(i): x_i -> x_{i-1} for i >= 1.  block_links[0] leads
    into the last prefix item at i = p (the seam) and into the last block
    item on every later round (the wrap).  Only counts are checked here;
    positions 1 .. p + m meet every link, seam and wrap included.
    """

    prefix: tuple = ()
    prefix_links: tuple = ()
    block: tuple = ()
    block_links: tuple = ()

    def __post_init__(self):
        if not self.block:
            raise SemanticError("the repeating block must not be empty")
        if len(self.block_links) != len(self.block):
            raise SemanticError("one link per block item")
        if len(self.prefix_links) != max(len(self.prefix) - 1, 0):
            raise SemanticError("a prefix of p items needs max(p-1, 0) links")

    @property
    def period(self) -> int:
        return len(self.block)

    def item(self, i: int):
        p = len(self.prefix)
        if i < p:
            return self.prefix[i]
        return self.block[(i - p) % len(self.block)]

    def link(self, i: int):
        """The link x_i -> x_{i-1} (i >= 1)."""
        if i < 1:
            raise SemanticError("links start at i = 1")
        p = len(self.prefix)
        if i < p:
            return self.prefix_links[i - 1]
        return self.block_links[(i - p) % len(self.block)]


class Tower(EventuallyPeriodic):
    """A_0 <- A_1 <- A_2 <- ...: the items are groups and link(i) is the
    bonding map A_i -> A_{i-1}."""

    def __post_init__(self):
        super().__post_init__()
        p, m = len(self.prefix), self.period
        for i in range(1, p + m + 1):
            f, want, j = self.link(i), self.item(i - 1), (i - p) % m
            if i < p:
                if f.domain != self.item(i) or f.codomain != want:
                    raise SemanticError(f"prefix map {i - 1} does not chain")
            elif f.domain != self.item(i):
                raise SemanticError(f"block map {j} does not chain")
            elif f.codomain != want:
                raise SemanticError(f"block link {j} must map to {want} "
                                    f"(the previous stage), not {f.codomain}")

    def composite(self, j: int, i: int) -> GroupHom:
        """A_j -> A_i for j >= i, composing the bonding maps."""
        if j < i:
            raise SemanticError("composite needs j >= i")
        f = GroupHom.identity(self.item(i))
        for k in range(i + 1, j + 1):
            f = f.compose(self.link(k))
        return f


def _relation_matrix(g: FgAbGroup) -> IntMatrix:
    """Columns spanning the relations of g inside Z^(number of generators)."""
    orders = g.cyclic_orders()
    return IntMatrix.diagonal(orders).submatrix(
        range(len(orders)), [i for i, d in enumerate(orders) if d])


def _images_equal(g: FgAbGroup, a: IntMatrix, b: IntMatrix) -> bool:
    """Do span(a) and span(b) agree in g, given span(b) inside span(a)
    plus g's relations?

    Then L_b = span(b, relations) lies in L_a = span(a, relations).  At
    equal rank both have one saturation, and L_b = L_a exactly when both
    have the same index in it, the product of the nonzero Smith invariants.
    """
    rel = _relation_matrix(g)
    return _rank_and_index(a.hstack(rel)) == _rank_and_index(b.hstack(rel))


def _rank_and_index(m: IntMatrix) -> tuple[int, int]:
    """Rank of span(m) and its index in its saturation."""
    d = [x for x in smith_invariants(m) if x]
    return len(d), prod(d)


@dataclass(frozen=True)
class Lim1Certificate:
    verdict: str                 # "VANISHES" | "INCONCLUSIVE"
    reason: str | None           # "JensenFinite" | "MittagLeffler" | None
    witness: str
    citations: tuple[str, ...] = ()  # fact keys of the rule, or of both

    def __post_init__(self):
        if self.verdict not in ("VANISHES", "INCONCLUSIVE"):
            raise SemanticError(f"bad verdict {self.verdict!r}")
        if (self.verdict == "VANISHES") != (self.reason is not None):
            raise SemanticError("VANISHES and only VANISHES carries a reason")


def lim1_certificate(t: Tower) -> Lim1Certificate:
    """Certify lim^1 = 0 when we can, otherwise stay inconclusive.

    Rule order: all groups finite (lim^1 of a tower of finite groups
    always vanishes); then Mittag-Leffler: for each stage j in one block
    period, f = A_{j+m} -> A_j and f o f, which is A_{j+2m} -> A_j as the
    tail is m-periodic, must have one image.  That makes the descending
    image chain constant from k = m on; stages before the block inherit
    it.  The matrix of f o f is f's squared, torsion rows reduced, so its
    span lies in span(f) plus the relations, as _images_equal needs.  If
    the images still shrink after two periods we refuse to conclude.
    """
    if all(g.is_finite for g in t.prefix + t.block):
        return Lim1Certificate(
            "VANISHES", "JensenFinite",
            "every group in the tower is finite", ("jensen-finite",))
    p, m = len(t.prefix), t.period
    periods = (t.composite(j + m, j) for j in range(p, p + m))
    if all(_images_equal(f.codomain, f.matrix, f.compose(f).matrix)
           for f in periods):
        return Lim1Certificate(
            "VANISHES", "MittagLeffler",
            f"images of A_(j+k) -> A_j agree at k = {m} and k = {2 * m} "
            f"for every stage j in one block period", ("mittag-leffler",))
    return Lim1Certificate(
        "INCONCLUSIVE", None,
        "images keep shrinking within two block periods; this tool does "
        "not assert nonvanishing of lim^1",
        ("mittag-leffler", "jensen-finite"))

