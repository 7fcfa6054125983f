"""Element-level oracles for finite abelian groups.

Everything here works by enumerating actual group elements, so it is
independent of the invariant-factor bookkeeping inside the package:

* A finite abelian group is given as a tuple of cyclic orders
  ``(b_1, ..., b_k)``; its elements are the tuples in
  ``range(b_1) x ... x range(b_k)`` with componentwise addition.

* The *census* of a group G records, for every divisor d of
  N = lcm(1..12) = 27720, the number of elements killed by d, plus the
  total order of G.  Two finite abelian groups whose exponents divide N
  are isomorphic iff their censuses agree (the counts determine every
  p-rank layer), and the census of a direct sum is the entrywise product
  because solutions of d*(x, y) = 0 factor through the two coordinates.

* For a cyclic group Z/a, a homomorphism out of it is exactly a choice of
  image y with a*y = 0, so Hom(Z/a, B) is literally the subgroup B[a],
  and the free resolution 0 -> Z -a-> Z -> Z/a -> 0 computes
  Ext^1(Z/a, B) = B/aB, Tor_1(Z/a, B) = B[a], and Z/a (x) B = B/aB.
  Both B[a] (kernel of multiplication by a) and B/aB (cosets of the
  image) are computed below by honest enumeration of B.  Direct sums in
  the first argument split all four functors, so the oracle census of
  F(A, B) is the entrywise product of the piece censuses.

The census of the *library's* answer is computed from its cyclic factors
by counting solutions of d*x = 0 mod m over range(m) -- again honest
counting, not the gcd shortcut used inside the package.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd, lcm

import numpy as np

N = lcm(*range(1, 13))  # 27720, kills every group built from orders <= 12
DIVISORS = tuple(d for d in range(1, N + 1) if N % d == 0)
_DIV_INDEX = {d: i for i, d in enumerate(DIVISORS)}

assert N == 27720 and len(DIVISORS) == 96


def all_multisets(max_factors: int = 3, max_order: int = 12):
    """Every multiset of cyclic orders in [2, max_order] of size <= max_factors."""
    out = []
    for k in range(max_factors + 1):
        out.extend(itertools.combinations_with_replacement(
            range(2, max_order + 1), k))
    return out


def element_table(orders) -> np.ndarray:
    """All elements of + Z/b_i as an (|G|, k) int64 array."""
    k = len(orders)
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.indices(orders, dtype=np.int64)
    return grids.reshape(k, -1).T


def brute_census(orders) -> np.ndarray:
    """Census of + Z/b_i by joint enumeration: no product structure used
    beyond the definition of the direct sum itself."""
    table = element_table(orders)
    b = np.asarray(orders, dtype=np.int64)
    counts = np.empty(len(DIVISORS) + 1, dtype=np.int64)
    for i, d in enumerate(DIVISORS):
        if len(orders) == 0:
            counts[i] = 1
        else:
            counts[i] = int(((d * table) % b == 0).all(axis=1).sum())
    counts[-1] = table.shape[0]
    return counts


@cache
def _cyclic_census(m: int) -> tuple[int, ...]:
    """Census of Z/m (m >= 1) by counting solutions of d*x = 0 mod m."""
    xs = np.arange(m, dtype=np.int64)
    counts = [int(((d * xs) % m == 0).sum()) for d in DIVISORS]
    counts.append(m)
    return tuple(counts)


@cache
def _census_from_invariants_cached(factors: tuple) -> np.ndarray:
    out = np.ones(len(DIVISORS) + 1, dtype=np.int64)
    for m in factors:
        out *= np.asarray(_cyclic_census(int(m)), dtype=np.int64)
    out.setflags(write=False)
    return out


def census_from_invariants(factors) -> np.ndarray:
    """Census of + Z/d_i computed factor by factor (for library answers)."""
    return _census_from_invariants_cached(tuple(int(m) for m in factors))


@cache
def _census_bytes_cached(factors: tuple) -> bytes:
    return _census_from_invariants_cached(factors).tobytes()


def census_bytes(factors) -> bytes:
    """Census as raw bytes: cheap exact comparison for the big pair loop."""
    return _census_bytes_cached(tuple(int(m) for m in factors))


def order_multiset(orders) -> dict[int, int]:
    """How many elements of + Z/b_i have each exact order."""
    table = element_table(orders)
    b = list(orders)
    counts: dict[int, int] = {}
    for row in table:
        o = 1
        for x, m in zip(row, b):
            o = lcm(o, m // gcd(int(x), m))
        counts[o] = counts.get(o, 0) + 1
    return counts


class BruteTable:
    """Per-group machinery for the four functor pieces on a fixed B.

    Precomputes, for every divisor d of N, the flattened element ids of
    d*x over all x in B.  ``subgroup_census(a)`` is the census of
    B[a] = {x : a*x = 0}; ``quotient_census(a)`` is the census of B/aB
    computed from its cosets: an element of B/aB is killed by d iff d*x
    lands in the subgroup S = aB, and each coset contains |S| elements.
    """

    def __init__(self, orders):
        self.orders = tuple(int(b) for b in orders)
        table = element_table(self.orders)
        self.size = table.shape[0]
        if self.orders:
            b = np.asarray(self.orders, dtype=np.int64)
            self._mul_ids = np.empty((len(DIVISORS), self.size), dtype=np.int64)
            for i, d in enumerate(DIVISORS):
                pts = (d * table) % b
                self._mul_ids[i] = np.ravel_multi_index(pts.T, self.orders)
        else:
            self._mul_ids = np.zeros((len(DIVISORS), 1), dtype=np.int64)
        self._kill = self._mul_ids == 0   # kill[i, x] <=> DIVISORS[i]*x = 0
        self._cache: dict[tuple[str, int], np.ndarray] = {}
        self._prod_cache: dict[tuple[str, tuple], bytes] = {}

    def _row(self, a: int) -> np.ndarray:
        # Multiplication by a and by gcd(a, N) have the same kernel and
        # image on any group of exponent dividing N (gcd(0, N) = N).
        return self._mul_ids[_DIV_INDEX[gcd(a, N)]]

    def subgroup_census(self, a: int) -> np.ndarray:
        """Census of B[a] (element id 0 is the zero element)."""
        key = ("sub", a)
        if key not in self._cache:
            in_sub = self._kill[_DIV_INDEX[gcd(a, N)]]
            counts = np.empty(len(DIVISORS) + 1, dtype=np.int64)
            counts[:-1] = (self._kill & in_sub).sum(axis=1)
            counts[-1] = int(in_sub.sum())
            self._cache[key] = counts
        return self._cache[key]

    def quotient_census(self, a: int) -> np.ndarray:
        key = ("quo", a)
        if key not in self._cache:
            s_bool = np.zeros(self.size, dtype=bool)
            s_bool[self._row(a)] = True
            s_size = int(s_bool.sum())
            hits = s_bool[self._mul_ids].sum(axis=1)
            assert (hits % s_size == 0).all()
            counts = np.empty(len(DIVISORS) + 1, dtype=np.int64)
            counts[:-1] = hits // s_size
            counts[-1] = self.size // s_size
            self._cache[key] = counts
        return self._cache[key]


# Which piece of B each functor uses for each cyclic factor Z/a of A.
FUNCTOR_PIECE = {
    "hom": "sub",      # Hom(Z/a, B)   = B[a]
    "tor": "sub",      # Tor_1(Z/a, B) = B[a]
    "ext": "quo",      # Ext^1(Z/a, B) = B/aB
    "tensor": "quo",   # Z/a (x) B     = B/aB
}


def oracle_functor_census(kind: str, a_factors, b_table: BruteTable) -> np.ndarray:
    """Census of F(A, B) for A = + Z/a_i, from enumerated pieces of B."""
    piece = FUNCTOR_PIECE[kind]
    out = np.ones(len(DIVISORS) + 1, dtype=np.int64)
    for a in a_factors:
        if piece == "sub":
            out *= b_table.subgroup_census(int(a))
        else:
            out *= b_table.quotient_census(int(a))
    return out


def oracle_census_bytes(piece: str, a_factors, b_table: BruteTable) -> bytes:
    """oracle_functor_census as bytes, memoized per (piece, factors):
    hom/tor share the subgroup piece and ext/tensor the quotient piece,
    so each product is assembled once per B table."""
    key = (piece, tuple(a_factors))
    out = b_table._prod_cache.get(key)
    if out is None:
        kind = "hom" if piece == "sub" else "ext"
        out = oracle_functor_census(kind, a_factors, b_table).tobytes()
        b_table._prod_cache[key] = out
    return out


@cache
def _fg(factors: tuple):
    from cwbrauer.abgroup import FgAbGroup
    return FgAbGroup(0, factors)


def check_functor_pair(funcs, a_factors, b_table: BruteTable) -> list[str]:
    """Compare the library's four functor answers on (A, B) against the
    element-level oracle.  Returns a list of mismatch descriptions."""
    a_group = _fg(tuple(a_factors))
    b_group = _fg(b_table.orders)
    errors = []
    for kind, func in funcs.items():
        got = func(a_group, b_group)
        if got.free_rank != 0:
            errors.append(f"{kind}({a_group}, {b_group}) is not finite: {got}")
            continue
        want = oracle_census_bytes(FUNCTOR_PIECE[kind], a_factors, b_table)
        if want != census_bytes(got.invariant_factors):
            errors.append(f"{kind}({a_group}, {b_group}) = {got} "
                          f"disagrees with the element count")
    return errors
