"""Mutation gate: every check that a test pins is broken on purpose, one
at a time, and the test that should notice must fail.

    python3 tools/mutants.py

MUTANTS is a table of (name, module, old text, new text, selector).
Each mutant is applied to a fresh temporary copy of `src/`, `tests/`
and `pyproject.toml`: the exact old text, which must occur exactly once
in `src/cwbrauer/<module>.py`, is replaced by the new text, and

    python -m pytest -x -q -p no:cacheprovider SELECTOR

runs in the copy against its own `src/`.  A failing run (pytest's exit
code 1) prints KILLED, a passing one SURVIVED, any other exit code
(a selector that names no test, a collection error) ERROR, each with
its time.  An old text that occurs other than once prints STALE before
any run, so the table follows refactors.  Before the mutants, the
selectors run once together on the unmutated copy; if they fail, the
table proves nothing and the gate stops there.

The exit code is 0 when every mutant is KILLED and 1 otherwise.  A run
stopped by SIGTERM exits 143 and removes its temporary directory.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pair import _exit_on_sigterm


class Mutant(NamedTuple):
    name: str
    module: str     # a module of src/cwbrauer, without .py
    old: str        # exact text, found exactly once in the module
    new: str
    selector: str   # pytest node id, relative to the repository


MUTANTS = (
    # argument rules, each checked once, in the library
    Mutant("phantom degree checked at n < 0", "spaces",
           '    if n < 1:\n        raise SemanticError("phantom degree',
           '    if n < 0:\n        raise SemanticError("phantom degree',
           "tests/test_limits.py::test_telescope_group_flags_and_refusals"),
    Mutant("catalog_lookup without its kind test", "spaces",
           '    if x.kind != "catalog":\n        raise SemanticError(\n'
           '            "catalog takes',
           '    if False:\n        raise SemanticError(\n'
           '            "catalog takes',
           "tests/test_spaces.py::test_catalog_named_facts"),
    Mutant("cohomology modulus checked at < 1", "chaincx",
           "if modulus is not None and modulus < 2:",
           "if modulus is not None and modulus < 1:",
           "tests/test_chaincx.py::test_cohomology_rejects_bad_modulus"),
    Mutant("bockstein modulus checked at < 1", "chaincx",
           "    if m < 2:\n", "    if m < 1:\n",
           "tests/test_cli.py::test_exit_code_semantic_error"),
    # each fact about a space stored once
    Mutant("kind reads every space without cells as catalog", "spaces",
           'return "telescope" if self.label[0] == "telescope" '
           'else "catalog"',
           'return "catalog"',
           "tests/test_spaces.py::test_telescope_homology"),
    Mutant("literal without move_to_end", "spaces",
           "    _built_spaces.move_to_end(text)\n", "",
           "tests/test_caches.py::"
           "test_kept_weight_stays_within_the_budget_over_seeded_builds"),
    Mutant("zero Bockstein's domain from orders[free:]", "chaincx",
           "GroupHom.zero(FgAbGroup.from_cyclic_orders(orders), codomain)",
           "GroupHom.zero(FgAbGroup.from_cyclic_orders(orders[free:]), "
           "codomain)",
           "tests/test_caches.py::"
           "test_finite_complex_above_its_top_gives_the_trivial_group"),
    Mutant("even-cell range stopping at dim", "spaces",
           "for d in range(5, dim + 1, 2)", "for d in range(5, dim, 2)",
           "tests/test_spaces.py::test_certificate_rule_order_and_witness"),
    Mutant("homology answering Z below degree 0", "chaincx",
           "    _, d_out, free = _diagonals(c, n)\n",
           "    _, d_out, free = _diagonals(c, n)\n"
           "    free = 1 if n < 0 else free\n",
           "tests/test_chaincx.py::test_homology_out_of_range_is_trivial"),
    # the checks of the mathematics
    Mutant("homology's torsion read from del_n", "chaincx",
           "    return FgAbGroup(free, tuple(d for d in d_out if d >= 2))",
           "    return FgAbGroup(free, tuple(d for d in d_in if d >= 2))",
           "tests/test_chaincx.py::test_moore_complex_homology"),
    Mutant("zero-Bockstein exit taken when gcd <= 2", "chaincx",
           "if all(gcd(d, m) == 1 for d in torsion):",
           "if all(gcd(d, m) <= 2 for d in torsion):",
           "tests/test_chaincx.py::test_bockstein_moore_isomorphism"),
    Mutant("telescope H_1 is Z for k = 1 only", "spaces",
           "    if abs(k) == 1:\n        name = \"Z\"",
           "    if k == 1:\n        name = \"Z\"",
           "tests/test_limits.py::test_telescope_group_descriptions"),
    Mutant("phantom zero for k = 0 only", "spaces",
           "    if abs(x.multiplier) <= 1:\n        return SymbolicGroup()",
           "    if x.multiplier == 0:\n        return SymbolicGroup()",
           "tests/test_limits.py::"
           "test_milnor_sequence_agrees_with_the_phantom_formula_on_telescopes"),
    Mutant("even-cell range from degree 7", "spaces",
           "for d in range(5, dim + 1, 2)", "for d in range(7, dim + 1, 2)",
           "tests/test_spaces.py::"
           "test_even_cell_rule_on_finite_dimensional_periodic_spaces"),
    Mutant("Woodward bound at dimension 5", "spaces",
           "    if dim is not None and dim <= 4:\n        fired.append(",
           "    if dim is not None and dim <= 5:\n        fired.append(",
           "tests/test_spaces.py::"
           "test_certificate_every_finite_complex_is_compact"),
    Mutant("divisibility chain sorted backwards", "intlin",
           "for i, e in enumerate(sorted(exponents)):",
           "for i, e in enumerate(sorted(exponents, reverse=True)):",
           "tests/test_intlin.py::"
           "test_divisibility_chain_matches_prime_power_oracle"),
    Mutant("mod-m cohomology without its Ext part", "chaincx",
           "for d in d_out + d_in if d >= 2]", "for d in d_out if d >= 2]",
           "tests/test_chaincx.py::"
           "test_mod_m_cohomology_against_coefficient_splitting"),
    Mutant("Jensen rule ignoring the prefix", "limits",
           "if all(g.is_finite for g in t.prefix + t.block):",
           "if all(g.is_finite for g in t.block):",
           "tests/test_limits.py::"
           "test_lim1_verdicts_match_a_two_period_solve_reference"),
    Mutant("Lambda^2 of a profile dropping gcd 2", "profiles",
           "            if g >= 2:\n", "            if g > 2:\n",
           "tests/test_profiles.py::test_lambda_square_frozen_examples"),
    Mutant("periodic validation one degree short", "spaces",
           "self.unroll(len(self.prefix) + self.period + 1)",
           "self.unroll(len(self.prefix) + self.period)",
           "tests/test_spaces.py::"
           "test_periodic_validation_sees_every_block_pair"),
    Mutant("Ext of cyclic groups: Ext^1(Z/a, Z) = 0", "abgroup",
           "    if b == 0:\n        return a\n    return gcd(a, b)\n\n\n"
           "def _tensor_cyclic",
           "    if b == 0:\n        return 1\n    return gcd(a, b)\n\n\n"
           "def _tensor_cyclic",
           "tests/test_abgroup.py::test_brauer_of_k_g_2"),
    Mutant("uct check's dual rank without d^n", "chaincx",
           "    free = (c.rank(n) - sum(1 for d in a if d)\n"
           "            - rank(c.boundary(n + 1).transpose()))",
           "    free = c.rank(n) - sum(1 for d in a if d)",
           "tests/test_chaincx.py::test_uct_suite"),
    Mutant("_rank_and_index dropping a factor", "limits",
           "    return len(d), prod(d)", "    return len(d), prod(d[1:])",
           "tests/test_limits.py::"
           "test_images_equal_matches_a_solve_based_reference"),
    # the shape rules of smith_invariants, the chain, the JSON writer
    Mutant("one-row gcd dropping its last entry", "intlin",
           "return (gcd(*rows[0]) if len(rows) == 1 else",
           "return (gcd(*rows[0][:-1]) if len(rows) == 1 else",
           "tests/test_abgroup.py::test_exterior_square_against_presentation"),
    Mutant("zero-size rule returning (0,)", "intlin",
           "    if limit == 0:\n        return ()",
           "    if limit == 0:\n        return (0,)",
           "tests/test_intlin.py::"
           "test_smith_invariants_match_transform_snf_and_oracle"),
    Mutant("short divisibility_chain returning []", "intlin",
           "    if len(orders) < 2:\n        return orders",
           "    if len(orders) < 2:\n        return []",
           "tests/test_abgroup.py::test_canonical_form_census"),
    Mutant("_dump writing True as 1", "cli",
           'bool: lambda b: "true" if b else "false"', "bool: int.__repr__",
           "tests/test_cli.py::test_json_writer_matches_the_stdlib_encoder"),
    # the Bockstein read off Smith diagonals
    Mutant("Bockstein image b_i for b_i / gcd(b_i, m)", "chaincx",
           "images = [[d // orders[i] * (", "images = [[d * (",
           "tests/test_chaincx.py::"
           "test_bockstein_equals_the_cochain_level_route"),
    Mutant("U^-1 without orders[i]", "chaincx",
           "(orders[i] * sf.v[i, j] // s[j])", "(sf.v[i, j] // s[j])",
           "tests/test_acceptance.py::test_criterion_06_bockstein_on_moore"),
    Mutant("U^-1 divided by S_ii for S_jj", "chaincx",
           "(orders[i] * sf.v[i, j] // s[j])", "(orders[i] * sf.v[i, j] // s[i])",
           "tests/test_chaincx.py::"
           "test_bockstein_equals_the_cochain_level_route"),
    # the built-in checks: rank and the packed del del = 0 test
    Mutant("rank one too high", "intlin",
           "    return steps\n", "    return steps + 1\n",
           "tests/test_chaincx.py::test_uct_suite"),
    Mutant("rank one too low", "intlin",
           "    return steps\n", "    return steps - 1\n",
           "tests/test_chaincx.py::test_uct_suite"),
    Mutant("packed slot one bit narrower", "intlin",
           "    s = bound.bit_length()\n",
           "    s = max(1, bound.bit_length() - 1)\n",
           "tests/test_intlin.py::"
           "test_product_is_zero_sees_a_digit_at_the_edge_of_its_slot"),
    Mutant("packed bound without the row-sum factor", "intlin",
           "             * max([sum(map(abs, r)) for r in a._rows]))",
           "             * 1)",
           "tests/test_intlin.py::"
           "test_product_is_zero_sees_a_digit_at_the_edge_of_its_slot"),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tree: Path, selectors) -> tuple[int, float]:
    """pytest's exit code on the selectors in tree, and its seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *selectors], cwd=tree, env=env, capture_output=True)
    return proc.returncode, time.perf_counter() - start


def _path(tree: Path, m: Mutant) -> Path:
    return tree / "src" / "cwbrauer" / f"{m.module}.py"


def run(mutants) -> int:
    """Runs the mutants; prints one line each; 0 when all are KILLED."""
    stale = [(m, _path(ROOT, m).read_text().count(m.old)) for m in mutants]
    stale = [(m, n) for m, n in stale if n != 1]
    for m, n in stale:
        print(f"STALE     {m.name}: the old text occurs {n} times in "
              f"{m.module}.py")
    if stale:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        _copy(base)
        code, seconds = _pytest(base, sorted({m.selector for m in mutants}))
        if code != 0:
            print(f"BASELINE FAILS ({seconds:.1f} s): the selectors do not "
                  f"pass on the unmutated tree (pytest exit {code})")
            return 1
        worst = 0
        for i, m in enumerate(mutants):
            tree = Path(tmp, str(i))
            _copy(tree)
            path = _path(tree, m)
            path.write_text(path.read_text().replace(m.old, m.new))
            code, seconds = _pytest(tree, [m.selector])
            verdict = {0: "SURVIVED", 1: "KILLED"}.get(code, "ERROR")
            worst = worst or int(verdict != "KILLED")
            print(f"{verdict:9} {seconds:5.1f} s  {m.name}  ({m.selector})",
                  flush=True)
            shutil.rmtree(tree)
    return worst


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    return run(MUTANTS)


if __name__ == "__main__":
    raise SystemExit(main())
