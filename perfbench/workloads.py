"""Benchmark workloads, their inputs, and the exact reference table.

Every operation the benchmark sends to ``cachegame`` is one ``Instance``: a
game to solve, a built-in strategy family to verify, or an accumulation game
to optimize.  Each carries the exact answer it must produce and where that
answer comes from, so that a failed operation means a wrong (or missing)
certified value, never a timing artefact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

SOLVE = "solve"
VERIFY = "verify"
ACCUMULATION = "accumulation"

# Size counts the determinism check compares across passes and across runs.
# Untraced runs see the ones ``SolveResult.stats`` exposes; traced runs add
# the rest from the spans.
STATS_COUNTS = {
    "nodes": "build_tree.nodes",
    "lp_rows": "solve_lp.rows",
    "lp_cols": "solve_lp.cols",
    "pivots": "solve_lp.pivots",
}


@dataclass(frozen=True)
class Instance:
    """One operation.

    ``params`` is ``(n, d, k, variant)`` for games (with the family name
    first for ``verify``) and ``(n, k, d)`` for the accumulation game, in the
    argument order of the matching spec class.
    """

    kind: str
    params: tuple
    expected: object  # Fraction game value, or int losing-subset count
    provenance: str

    @property
    def name(self) -> str:
        return f"{self.kind}{self.params}".replace(" ", "").replace("'", "")


def make_input(mods, inst: Instance):
    """The spec object the program receives for ``inst``."""
    if inst.kind == ACCUMULATION:
        n, k, d = inst.params
        return mods.accumulation.AccumulationSpec(n, k, Fraction(d))
    n, d, k, variant = inst.params[-4:]
    return mods.core.GameSpec(n, d, k, mods.core.Variant(variant))


def run_op(mods, inst: Instance, spec) -> tuple[list[str], dict]:
    """Run one operation; return (reference mismatches, size counts).

    Exceptions from the program propagate: the caller counts them as failed
    operations.
    """
    if inst.kind == SOLVE:
        result = mods.solver.solve(spec)
        counts = {
            name: result.stats[key] for key, name in STATS_COUNTS.items() if key in result.stats
        }
        return _check_game_value(mods, inst, spec, result.value), counts
    if inst.kind == VERIFY:
        family = inst.params[0]
        tree = mods.strategies.builtin_family(family, n=spec.n, d=spec.d, k=spec.k)
        value = mods.strategies.verify(spec, tree)
        problems = _check_game_value(mods, inst, spec, value)
        if family == "infinite-d" and value < mods.core.lower_bound_infinite_d(spec.n, spec.k):
            problems.append(f"{value} is below the follow-the-last-reveal floor")
        return problems, {}
    losing, witness = mods.accumulation.max_losing_subsets_exact(spec)
    return _check_accumulation(mods, inst, spec, losing, witness), {}


def _check_game_value(mods, inst, spec, value) -> list[str]:
    problems = []
    if not isinstance(value, Fraction) or value != inst.expected:
        problems.append(f"value {value}, expected {inst.expected}")
    if value > mods.core.upper_bound_combinatorial(spec.n, spec.d, spec.k):
        problems.append(f"value {value} exceeds k^d/C(n+d-1,d)")
    if value > Fraction(spec.k, spec.n):
        problems.append(f"value {value} exceeds k/n")
    return problems


def _check_accumulation(mods, inst, spec, losing, witness) -> list[str]:
    problems = []
    if losing != inst.expected:
        problems.append(f"{losing} losing subsets, expected {inst.expected}")
    amounts = tuple(witness.amounts)
    if len(amounts) != spec.n or any(a < 0 for a in amounts):
        problems.append(f"witness {amounts} is not a distribution over {spec.n} boxes")
    elif sum(amounts) != spec.d:
        problems.append(f"witness totals {sum(amounts)}, not d={spec.d}")
    elif mods.accumulation.count_winning_subsets(witness, spec.k) != comb(spec.n, spec.k) - losing:
        problems.append("witness does not lose the claimed number of subsets")
    return problems


# ---------------------------------------------------------------------------
# The reference table.
# ---------------------------------------------------------------------------

_CLOSED_FORM = "equals the closed form k^d/C(n+d-1,d), which no searcher beats"
_SOLVED = (
    "exact solve of the symmetry-reduced tree at the commit that added this "
    "benchmark, strong-duality certificate checked; below the closed form"
)
_FTLR = (
    "exact best-response evaluation at the commit that added this benchmark; "
    "at least the follow-the-last-reveal floor of core.lower_bound_infinite_d"
)
_KN_BOUND = (
    "exact optimizer at the commit that added this benchmark; equals the k|n "
    "bound (1-k/n)*C(n,k) checked by verify_divisibility_bound"
)


def _solve(n, d, k, variant, value, provenance):
    return Instance(SOLVE, (n, d, k, variant), value, provenance)


def _verify(family, n, d, k, variant, value, provenance):
    return Instance(VERIFY, (family, n, d, k, variant), value, provenance)


def _accumulation(n, k, d, losing, provenance):
    return Instance(ACCUMULATION, (n, k, d), losing, provenance)


# Each list ends with its workload's largest instance, the one ``largest_s``
# times.
WORKLOADS = {
    "solve": (
        _solve(5, 3, 3, "adversary", Fraction(8, 15), _SOLVED),
        _solve(4, 4, 2, "random", Fraction(3, 8), _SOLVED),
        _solve(5, 4, 2, "adversary", Fraction(8, 35),
               _CLOSED_FORM + "; tests/test_solver.py::test_542_accurate"),
    ),
    "wide": (
        _solve(12, 2, 6, "random", Fraction(6, 13), _CLOSED_FORM),
        _solve(9, 3, 3, "random", Fraction(9, 55), _CLOSED_FORM),
        _solve(10, 3, 4, "random", Fraction(16, 55), _CLOSED_FORM),
    ),
    "verify": (
        _verify("fig542", 5, 4, 2, "adversary", Fraction(8, 35),
                _CLOSED_FORM + "; tests/test_strategies.py"),
        _verify("infinite-d", 3, 10, 2, "adversary", Fraction(1, 2), _FTLR),
        _verify("infinite-d", 5, 8, 2, "adversary", Fraction(3, 32), _FTLR),
        _verify("infinite-d", 5, 8, 2, "random", Fraction(3, 32), _FTLR),
        _verify("infinite-d", 6, 8, 2, "adversary", Fraction(24, 625), _FTLR),
    ),
    "accumulation": (
        _accumulation(6, 3, 2, 10, _KN_BOUND),
        _accumulation(6, 3, 3, 10, _KN_BOUND),
        _accumulation(7, 3, 2, 35, "all C(7,3)=35 triples lose under 2/7 per box "
                      "(6/7 < 1), so 35 is the most possible"),
    ),
}
