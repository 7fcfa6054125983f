"""Acceptance gate: the ten advertised guarantees, each exercised end to
end through public APIs inside a wall-clock budget, reusing the
independent oracles and shared suite engines from the per-module tests.
Each criterion prints one PASS line with its measured time."""

import io
import json
import random
import time
from math import gcd

import test_abgroup as _ab
import test_chaincx as _cx
import test_grammar as _gr
import test_intlin as _il
import test_limits as _lm
import test_spaces as _sx
from _oracles import cokernel_order_oracle, random_complex

from cwbrauer.abgroup import FgAbGroup, GroupHom, exterior_square
from cwbrauer.chaincx import cohomology
from cwbrauer.cli import EXIT_OK, EXIT_REPRODUCE_FAIL, run_line
from cwbrauer.grammar import (
    format_complex, format_descriptor, format_group, format_profile,
    format_space, format_tower, parse_complex, parse_descriptor, parse_group,
    parse_profile, parse_space, parse_tower,
)
from cwbrauer.intlin import IntMatrix
from cwbrauer.limits import Tower, lim1_certificate
from cwbrauer.profiles import (
    OMEGA, AffineExpr, CyclicProfile, ObstructionDescriptor, Rule,
    non_brauer_certificate,
)
from cwbrauer import spaces as sp
from cwbrauer.spaces import (
    EQUAL, STRICT, brauer_prime, catalog_lookup, equality_certificate,
    min_bundle_rank,
)

Z = FgAbGroup.cyclic(0)


class budget:
    """Assert the body finishes inside its time budget; print a PASS line."""

    def __init__(self, number: int, seconds: float, what: str):
        self.number = number
        self.seconds = seconds
        self.what = what

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"criterion {self.number} took {elapsed:.2f}s "
            f"(budget {self.seconds:.0f}s)")
        print(f"ACCEPTANCE {self.number:02d} PASS "
              f"({elapsed:.2f}s < {self.seconds:.0f}s): {self.what}")
        return False


def test_criterion_01_worked_example_table():
    with budget(1, 5.0, "moore3 / bpgl / Eilenberg-MacLane Brauer table"):
        for n in range(2, 13):
            zn = FgAbGroup.cyclic(n)
            m3 = sp.moore_3cell(n)
            assert brauer_prime(m3) == zn
            assert cohomology(m3.chains, 3) == zn
            entry = catalog_lookup(sp.bpgl(n))
            assert entry.br_prime == zn and entry.br == zn
            assert entry.verdict == EQUAL
            k2 = catalog_lookup(sp.k_space(zn, 2))
            assert k2.br_prime == zn
            assert k2.br == FgAbGroup.trivial()
            assert k2.verdict == STRICT
            for j in (3, 4, 5):
                kj = catalog_lookup(sp.k_space(zn, j))
                assert kj.br_prime == FgAbGroup.trivial()
        for g in (FgAbGroup.from_cyclic_orders((2, 4)),
                  FgAbGroup.free(1),
                  FgAbGroup.free(2).direct_sum(FgAbGroup.cyclic(6))):
            for j in (3, 4):
                assert catalog_lookup(sp.k_space(g, j)).br_prime \
                    == FgAbGroup.trivial()
        qz = catalog_lookup(sp.k_space(sp.QZ_TOKEN, 2))
        assert qz.br_prime == FgAbGroup.trivial()


def test_criterion_02_smith_property_suite():
    with budget(2, 30.0, "1000-matrix SNF suite + brute-force cokernels"):
        assert _il.run_smith_property_suite(count=1000, seed=20260814) == 1000
        rng = random.Random(514)
        enumerated = 0
        while enumerated < 120:
            rows = _il.random_matrix(rng)
            order = cokernel_order_oracle(rows)
            if order is None or order > 2000:
                continue
            assert _il.coset_count(rows) == order
            coker = FgAbGroup.from_presentation(IntMatrix(rows))
            assert coker.order() == order
            enumerated += 1


def test_criterion_03_functor_oracle_suite():
    with budget(3, 30.0, "Hom/Ext/Tensor/Tor vs element-level censuses"):
        _ab.test_functors_on_all_small_pairs()
        _ab.test_ext_into_z_is_torsion()


def test_criterion_04_exterior_square_three_ways():
    with budget(4, 10.0, "closed formula = presentation = Kunneth H_2"):
        for m in range(2, 9):
            for n in range(2, 9):
                g = FgAbGroup.from_cyclic_orders((m, n))
                want = FgAbGroup.cyclic(gcd(m, n))
                assert exterior_square(g) == want, (m, n)
                assert _ab._exterior_square_presentation(g) == want, (m, n)
        assert _cx.run_kunneth_lens_suite(2, 8) == 49


def test_criterion_05_uct_suite():
    with budget(5, 60.0, "500 complexes: UCT split + Euler identity"):
        assert _cx.run_uct_suite(count=500, seed=20260814) == 500


def test_criterion_06_bockstein_on_moore():
    with budget(6, 5.0, "Bockstein iso onto m-torsion, m * beta = 0"):
        assert _cx.run_bockstein_moore_suite(moduli=range(2, 11)) == 9


def test_criterion_07_phantom_suite():
    with budget(7, 5.0, "phantoms: 0 on finite corpus, telescope flags"):
        assert _sx.run_phantom_suite() > 100


def test_criterion_08_lim1_certificates():
    with budget(8, 5.0, "JensenFinite / MittagLeffler / INCONCLUSIVE"):
        assert lim1_certificate(_lm.finite_tower()).reason == "JensenFinite"
        z2, z4, z8 = (FgAbGroup.cyclic(k) for k in (2, 4, 8))
        with_prefix = Tower(
            prefix=(z2, z8),
            prefix_links=(GroupHom.scalar(z8, z2, 1),),
            block=(z4, z8),
            block_links=(GroupHom.scalar(z4, z8, 2),
                         GroupHom.scalar(z8, z4, 1)))
        assert lim1_certificate(with_prefix).reason == "JensenFinite"

        ident = Tower(block=(Z,), block_links=(GroupHom.identity(Z),))
        assert lim1_certificate(ident).reason == "MittagLeffler"
        zz = FgAbGroup.from_cyclic_orders((0, 0))
        shear = Tower(block=(zz,),
                      block_links=(GroupHom(zz, zz, [[1, 1], [0, 1]]),))
        assert lim1_certificate(shear).reason == "MittagLeffler"
        incl = GroupHom(Z, zz, [[1], [0]])
        proj = GroupHom(zz, Z, [[1, 0]])
        period = Tower(block=(Z, zz), block_links=(incl, proj))
        assert lim1_certificate(period).reason == "MittagLeffler"

        for p in (2, 3, 5):
            t = Tower(block=(Z,),
                      block_links=(GroupHom.scalar(Z, Z, p),))
            cert = lim1_certificate(t)
            assert cert.verdict == "INCONCLUSIVE" and cert.reason is None


def test_criterion_09_equality_certificates():
    with budget(9, 5.0, "certificate rules + minimal bundle ranks"):
        rng = random.Random(99)
        corpus = ([sp.sphere(n) for n in range(1, 7)]
                  + [sp.moore_3cell(n) for n in range(2, 13)]
                  + [sp.lens_skeleton(m, t)
                     for m in (2, 3, 5) for t in (1, 2, 3, 4)]
                  + [sp.wedge([sp.moore_3cell(4), sp.sphere(2)]),
                     sp.product(sp.sphere(2), sp.sphere(3))]
                  + [sp.from_complex(random_complex(rng, max_top=4,
                                                    max_rank=4))
                     for _ in range(40)])
        for x in corpus:
            cert = equality_certificate(x)
            assert cert.verdict == EQUAL, x.label
            assert cert.reason == "CompactSerre", x.label

        for n in range(2, 13):       # dimension 3
            m3 = sp.moore_3cell(n)
            cert = equality_certificate(m3)
            assert "WoodwardDimLe4" in cert.applicable_rules
            assert min_bundle_rank(m3, 1) == 1
            for d in range(2, n + 1):
                if n % d == 0:
                    assert min_bundle_rank(m3, d) == d

        dim4 = sp.wedge([sp.moore_3cell(6), sp.sphere(4)])
        assert dim4.dimension() == 4
        cert = equality_certificate(dim4)
        assert "WoodwardDimLe4" in cert.applicable_rules
        for d in (2, 3, 6):
            assert min_bundle_rank(dim4, d) == d

        even6 = sp.wedge([sp.sphere(2), sp.sphere(4), sp.sphere(6)])
        assert even6.dimension() == 6
        cert = equality_certificate(even6)
        assert cert.verdict == EQUAL
        assert "EvenCells" in cert.applicable_rules

        growth = ObstructionDescriptor((
            Rule(lo=1, hi=None, lower=AffineExpr(1, 0),
                 upper=AffineExpr(2, 0)),))
        bounded = ObstructionDescriptor((
            Rule(lo=1, hi=9, lower=AffineExpr(1, 0),
                 upper=AffineExpr(2, 0)),))
        for p in (2, 3, 5):
            prof = CyclicProfile.from_pairs([(p, OMEGA)])
            assert non_brauer_certificate(prof, growth).verdict \
                == "CERTIFIED_NOT_IN_BR"
            assert non_brauer_certificate(prof, bounded).verdict \
                == "CONDITION_FAILS"


def test_criterion_10_cli_round_trips_and_reproduce():
    with budget(10, 60.0, "500 round-trips per grammar + reproduce twice"):
        _gr.roundtrip(201, _gr.random_group, format_group, parse_group)
        _gr.roundtrip(202, _gr.random_profile, format_profile, parse_profile)
        _gr.roundtrip(203,
                      lambda rng: random_complex(rng, max_top=4, max_rank=4),
                      format_complex, parse_complex)
        _gr.roundtrip(204, _gr.random_space, format_space, parse_space)
        _gr.roundtrip(205, _gr.random_tower, format_tower, parse_tower)
        _gr.roundtrip(206, _gr.random_descriptor, format_descriptor,
                      parse_descriptor)

        runs = []
        for _ in range(2):
            out = io.StringIO()
            assert run_line("reproduce", True, True, out=out) == EXIT_OK
            runs.append(out.getvalue())
        assert runs[0] == runs[1]            # byte-identical structured output
        report = json.loads(runs[0])
        r = report["result"]
        assert r["failed"] == 0
        assert r["passed"] == len(r["items"]) >= 100


def test_reproduce_is_sensitive_to_injected_faults(monkeypatch):
    """Not one of the numbered criteria: prove the reproduce table would
    actually catch a wrong answer by sabotaging a shared arithmetic
    helper and watching expected/actual diverge."""
    import cwbrauer.profiles as prof
    monkeypatch.setattr(prof, "gcd", lambda a, b: 1)
    out = io.StringIO()
    assert run_line("reproduce", True, False, out=out) == EXIT_REPRODUCE_FAIL
    r = json.loads(out.getvalue())["result"]
    assert r["failed"] > 0
    bad = [row for row in r["items"] if row["status"] == "FAIL"]
    assert bad
    assert all(row["expected"] != row["actual"] for row in bad)
