"""Shared test utilities: cached solves, independent oracles, random LPs."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
import random

from cachegame import GameSpec, Variant, accumulation, build_tree, solve
from cachegame import strategies as st
from cachegame.core import enumerate_allocations, patterns
from cachegame.rational import ONE, ZERO
from cachegame.solver import _rule_choice, _solve_sequence_lp
from cachegame import lp as lpmod
from cachegame.lp import (
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    CertificateError,
    LPError,
)

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def solve_cached(n, d, k, variant=Variant.ADVERSARY, symmetry=True, relaxed=False):
    return solve(GameSpec(n, d, k, variant), symmetry=symmetry, relaxed=relaxed)


def fig432_ending_early() -> st.StrategyTree:
    """A plan like ``fig432`` whose 1/5 entry ends after its reveal
    (a ``None`` branch, "end" on the wire); worst-case value 4/15."""
    return st.StrategyTree(4, 3, 2, st.ask((0, 1), {0: st.node(
        st.entry(Fraction(4, 5), (0, 2), {0: st.ask((0, 3)), 2: st.ask((2, 3))}),
        st.entry(Fraction(1, 5), (2, 3), {2: None}),
    )}))


@lru_cache(maxsize=None)
def sequence_lp_cached(n, d, k, variant=Variant.ADVERSARY, symmetry=True, relaxed=False):
    """The game solved as one sequence-form LP, whatever its variant."""
    tree = build_tree(GameSpec(n, d, k, variant), symmetry=symmetry, relaxed=relaxed)
    return _solve_sequence_lp(tree)


def oracle_p_lambda(lam, n, d):
    """Brute-force repeat probability of the exhaust-one-box plan.

    Enumerates every (placement, visit order) pair directly: visit orders
    are the box orderings with weakly decreasing counts, weighted uniformly
    per placement (the tie-break randomness).  Independent of the orbit
    counting used by the implementation.
    """
    num = den = Fraction(0)
    m = len(lam)
    for counts in enumerate_allocations(n, d):
        orders = [
            p
            for p in permutations(range(n))
            if all(counts[p[i]] >= counts[p[i + 1]] for i in range(n - 1))
        ]
        w = Fraction(1, len(orders))
        for order in orders:
            s = [counts[b] for b in order]
            if any(s[i] != lam[i] for i in range(m - 1)):
                continue
            if s[m - 1] < lam[m - 1]:
                continue
            den += w
            if s[m - 1] > lam[m - 1]:
                num += w
    if den == 0:
        raise ValueError("unreachable record")
    return num / den


def random_bounded_lp(rng: random.Random):
    """A random feasible bounded program: <= rows with nonnegative rhs plus
    a box cap, so the origin is feasible and the optimum finite."""
    nvars = rng.randint(1, 4)
    nrows = rng.randint(1, 4)
    lp = lpmod.LinearProgram(nvars, [Fraction(rng.randint(-5, 5)) for _ in range(nvars)])
    for _ in range(nrows):
        row = {j: Fraction(rng.randint(-4, 4)) for j in range(nvars)}
        lp.add_constraint(row, lpmod.LESS_EQUAL, Fraction(rng.randint(0, 6)))
    lp.add_constraint({j: Fraction(1) for j in range(nvars)}, lpmod.LESS_EQUAL, Fraction(rng.randint(1, 9)))
    return lp


def fraction_rows(lp):
    """``lp``'s stored rows read as Fractions: one ``(row, rhs)`` per row,
    with ``row[j] = Fraction(rows[i][j], dens[i])`` and ``rhs =
    Fraction(rhs[i], dens[i])``."""
    return [({j: Fraction(v, den) for j, v in row.items()}, Fraction(b, den))
            for row, b, den in zip(lp.rows, lp.rhs, lp.dens)]


def complementary_slackness_holds(lp, sol):
    """Exact complementary slackness of an optimal primal/dual pair."""
    x, y = sol.primal, sol.dual
    rows = fraction_rows(lp)
    for i, (row, b) in enumerate(rows):
        slack = b - sum(v * x[j] for j, v in row.items())
        if y[i] * slack != 0:
            return False
    rho = [-lp.objective[j] for j in range(lp.num_vars)]
    for i, (row, _) in enumerate(rows):
        if y[i]:
            for j, v in row.items():
                rho[j] += y[i] * v
    for j in range(lp.num_vars):
        if rho[j] * x[j] != 0:
            return False
    return True


def reference_check_certificate(lp, sol) -> bool:
    """Reference oracle for ``lp.check_certificate``: the same rules,
    checked with Fraction arithmetic throughout.

    Verify ``sol`` from scratch in the original program's space.

    Row multipliers (``dual``) must have the signs their senses allow, in an
    optimum and in a Farkas certificate alike: >= 0 on ``<=`` rows and <= 0
    on ``>=`` rows.  They combine the rows into ``g.x <= value`` for every
    feasible ``x``.

    * OPTIMAL: ``primal`` is feasible; the reduced cost ``g - c`` is exactly
      0 on a free variable and >= 0 on any other; the primal objective,
      ``value`` and ``objective_value`` are equal.
    * INFEASIBLE: ``g`` is 0 on free variables and >= 0 on the others, and
      ``value < 0``, so no point satisfies it.

    Raises LPError on an unknown status, and CertificateError on any
    violation.
    """
    if sol.status == OPTIMAL:
        _reference_check_point(lp, sol.primal)
        cost = lp.objective
    elif sol.status == INFEASIBLE:
        cost = [_ZERO] * lp.num_vars
    else:
        raise LPError(f"unknown status {sol.status!r}")
    y = sol.dual
    if len(y) != len(lp.rows):
        raise CertificateError(f"{len(y)} row multipliers for {len(lp.rows)} rows")
    g = [_ZERO] * lp.num_vars
    value = _ZERO
    for i, (row, b) in enumerate(fraction_rows(lp)):
        if not y[i]:
            continue
        s = lp.senses[i]
        if (s == LESS_EQUAL and y[i] < 0) or (s == GREATER_EQUAL and y[i] > 0):
            raise CertificateError(f"dual sign on row {i}")
        value += y[i] * b
        for j, v in row.items():
            g[j] += y[i] * v
    for j in range(lp.num_vars):
        reduced = g[j] - cost[j]
        if reduced if j in lp.free else reduced < 0:
            raise CertificateError(f"dual infeasibility at variable {j}")
    if sol.status == INFEASIBLE:
        if value >= 0:
            raise CertificateError("Farkas certificate has nonnegative value")
    elif not sum(c * x for c, x in zip(lp.objective, sol.primal)) == value == sol.objective_value:
        raise CertificateError("objective mismatch in certificate")
    return True


def _reference_check_point(lp, x) -> None:
    """Raise unless ``x`` meets every row and is nonnegative outside the
    free variables."""
    if len(x) != lp.num_vars:
        raise CertificateError(f"point has {len(x)} entries for {lp.num_vars} variables")
    for i, (row, b) in enumerate(fraction_rows(lp)):
        gap = sum(v * x[j] for j, v in row.items()) - b
        if (gap > 0) if lp.senses[i] == LESS_EQUAL else (gap < 0) if lp.senses[i] == GREATER_EQUAL else gap:
            raise CertificateError(f"point violates row {i}")
    for j in range(lp.num_vars):
        if x[j] < 0 and j not in lp.free:
            raise CertificateError(f"point is negative at variable {j}")


def reference_run_simplex(self, cost, barred):
    """Reference oracle for ``lp._Tableau.run_simplex``: the same Devex
    pricing with a full scan of the reduced-cost row before every pivot, in
    place of the incremental scores and their heap.

    Maximize, returning the optimal reduced-cost row; raise LPError
    if the objective is unbounded.

    A column outside ``barred`` is eligible if its reduced cost ``d_j`` is
    positive, or nonzero for a free column, which enters increasing or
    decreasing as the sign of ``d_j`` says.  Devex pricing (Harris 1973):
    the eligible column with the largest ``d_j² / w_j`` enters, lowest
    column first on ties, where ``w_j`` is a float reference weight, 1 for
    every column at each call.  After a pivot on ``(r, q)`` each column ``j``
    of the pivot row takes ``max(w_j, x_j²·w_q)`` with
    ``x_j = α_rj / α_rq``, and the leaving column ``max(w_q / α_rq², 1)``.
    A ratio of 2**1024 or more has no float; Bland's rule then finishes
    the phase, as it does once zero-step pivots persist.  A nan score
    (inf / inf) is not ordered here, so which column enters then depends
    on the scan's order; the engine switches to Bland's rule instead, and
    the programs this oracle is compared on price no nan."""
    red = self.reduced_costs(cost)
    rows = self.rows

    def eligible(c, v):
        return (v > 0 or (v < 0 and c in self.free)) and c not in barred

    weights = [1.0] * self.num_cols
    bland = False
    stall = -1  # the first pivot has no earlier objective value to repeat
    while True:
        entering = None
        if not bland:
            den = red.den
            try:
                for c, v in red.nums.items():
                    if not eligible(c, v):
                        continue
                    d = v / den
                    score = d * d / weights[c]
                    # Some eligible column enters even if a score is nan (inf / inf).
                    if entering is None or score > best or (score == best and c < entering):
                        best = score
                        entering = c
            except OverflowError:
                entering = None
                bland = self.bland_fallback = True
        if bland:
            for c, v in red.nums.items():
                if not eligible(c, v):
                    continue
                if entering is None or c < entering:
                    entering = c
        if entering is None:
            return red
        # Ratio rhs/|a| per row whose entry has the sign of the direction
        # (the row denominator cancels), compared by cross-multiplication,
        # over the rows whose basic column is not free.  Ties go to the
        # lowest basic column, so the rows' order does not matter.
        column = self.column(entering)
        sign = 1 if red.nums[entering] > 0 else -1
        leave = None
        for i, a in column.items():
            a *= sign
            if a <= 0 or self.basis[i] in self.free:
                continue
            row_rhs = rows[i].rhs
            if leave is None:
                leave, lead_rhs, lead_a = i, row_rhs, a
                continue
            lhs, rhs = row_rhs * lead_a, lead_rhs * a
            if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                leave, lead_rhs, lead_a = i, row_rhs, a
        if leave is None:
            raise lpmod.LPError("objective is unbounded")
        leaving = self.basis[leave]
        self.pivot(leave, entering, column)
        prow = self.expand(rows[leave])
        red.eliminate(red.nums[entering], prow)
        if not bland:
            # The pivot row now holds x_j = α_rj / α_rq, and 1 / α_rq in
            # the leaving column.
            den, wq = prow.den, weights[entering]
            try:
                for c, v in prow.nums.items():
                    x = v / den
                    w = x * x * wq
                    if w > weights[c]:
                        weights[c] = w
                x = prow.nums[leaving] / den
                weights[leaving] = max(1.0, x * x * wq)
            except OverflowError:
                bland = self.bland_fallback = True
            # Degeneracy guard: persistent zero-progress pivots switch
            # to Bland's rule, restoring the termination guarantee.  The
            # objective moves by red[entering] * ratio with red > 0, so a
            # pivot makes no progress exactly when its ratio is zero.
            stall = 0 if lead_rhs else stall + 1
            if stall > lpmod._STALL_FACTOR * (self.num_cols + len(self.rows)):
                bland = self.bland_fallback = True



def max_losing_reference(spec):
    """Reference oracle for ``accumulation.max_losing_subsets_exact``: the
    exhaustive search, with no best-first order and no certificate reuse.

    Every up-closed winning family that could still tie the best losing
    count gets its own feasibility program; among the maximizers the
    lexicographically least LP witness is kept.  Returns (count, witness).
    """
    n, k, d = spec.n, spec.k, spec.d
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}

    def shifted(s, step):
        """Neighbors of ``s`` with one index moved by ``step``."""
        return [
            tuple(sorted(set(s) - {idx} | {idx + step}))
            for idx in s
            if 0 <= idx + step < n and idx + step not in s
        ]

    # Topological order: a subset comes after everything dominating it.
    order = sorted(subsets, key=lambda s: (sum(s), s))
    best_count, best_witness = -1, None
    flags = [False] * len(subsets)

    def candidate():
        nonlocal best_count, best_witness
        losing = [s for s in subsets if not flags[index[s]]]
        if len(losing) < best_count:
            return
        winning = [s for s in subsets if flags[index[s]]]
        min_win = [s for s in winning if not any(flags[index[t]] for t in shifted(s, 1))]
        max_lose = [s for s in losing if all(flags[index[t]] for t in shifted(s, -1))]
        result = accumulation._feasible_family(n, d, min_win, max_lose)
        if result.feasible:
            witness = tuple(result.witness)
            if len(losing) > best_count or witness < best_witness:
                best_count, best_witness = len(losing), witness

    def rec(pos):
        if pos == len(order):
            candidate()
            return
        s = order[pos]
        if all(flags[index[t]] for t in shifted(s, -1)):
            flags[index[s]] = True
            rec(pos + 1)
        flags[index[s]] = False
        rec(pos + 1)

    rec(0)
    return best_count, accumulation.GoldDistribution(best_witness)


def reference_pattern_values(spec: GameSpec, root, reveal_rule=None) -> dict:
    """Reference oracle for ``solver._pattern_values``: the same walk,
    with every probability a Fraction.

    Win probability of a checked strategy tree against each count
    pattern, played through a uniform relabeling of the boxes.

    Without ``reveal_rule`` the reveal is chance's under ``RANDOM`` and the
    hider's (worst case) otherwise; with it, the rule picks the reveal.
    """
    memo: dict = {}
    d, variant = spec.d, spec.variant

    def value(node, touched, untouched, found, history):
        if found == d:
            return ONE
        if node is None:
            return ZERO
        key = (id(node), touched, untouched, history)
        if key in memo:
            return memo[key]
        t0 = len(touched)
        total = ZERO
        for entry in node.mix:
            if not entry.prob:
                continue
            q = entry.query
            branches = dict(entry.branches)
            entry_value = ZERO
            for draw, prob, rest in _reference_fresh_draws(untouched, sum(1 for l in q if l >= t0)):
                counts = touched + draw
                outs = _reference_reveals(counts, q, variant)
                if not outs:
                    continue
                if reveal_rule is not None:
                    outs = [(_rule_choice(reveal_rule, counts, q, outs, history)[0], ONE)]
                weighted = []
                for b, w in outs:
                    after, l = _reference_take(counts, b, t0)
                    observed = history if reveal_rule is None else history + ((q, l),)
                    # A missing branch and an explicit end both mean the searcher stops here.
                    weighted.append((w, value(branches.get(l), after, rest, found + 1, observed)))
                entry_value += prob * _reference_reveal_value(variant, weighted)
            total += entry.prob * entry_value
        memo[key] = total
        return total

    return {pat: value(root, (), pat, 0, ()) for pat in patterns(d, spec.n)}


def _reference_reveals(counts, q, variant: Variant) -> list[tuple[int, Fraction]]:
    """Possible reveals for query ``q``: ``(box, weight)`` pairs.

    Under ``RANDOM`` the weights are the exact reveal probabilities,
    proportional to the treasures each box contributes to the query (they
    sum to one).  Under ``ADVERSARY``/``COOPERATIVE`` the choosing agent is a
    player, so every treasure-holding box is listed with marker weight 1.
    An empty list means the query found nothing: terminal loss.
    """
    positive = [b for b in q if counts[b] > 0]
    if variant == Variant.RANDOM and len(positive) > 1:
        total = sum(counts[b] for b in positive)
        return [(b, Fraction(counts[b], total)) for b in positive]
    return [(b, ONE) for b in positive]


def _reference_take(counts: tuple[int, ...], label: int, t0: int) -> tuple[tuple[int, ...], int]:
    """Counts after ``label`` surrenders one treasure, and the label it keeps.

    Labels from ``t0`` on are fresh, and a reveal from one takes the lowest
    fresh label ``t0``, so the two swap counts first.  Callers over concrete
    boxes pass ``t0 = len(counts)``.  Taking from an empty box raises.
    """
    lst = list(counts)
    if label >= t0:
        lst[t0], lst[label] = lst[label], lst[t0]
        label = t0
    if lst[label] <= 0:
        raise ValueError(f"label {label} holds no treasure in {counts}")
    lst[label] -= 1
    return tuple(lst), label


def _reference_reveal_value(variant: Variant, weighted) -> Fraction:
    """Value of a query from the ``(weight, value)`` pair of each reveal:
    the expectation under ``RANDOM``, otherwise the minimum (the hider's
    choice; a cooperative caller passes only the agreed reveal)."""
    if variant == Variant.RANDOM:
        return sum((w * v for w, v in weighted), ZERO)
    return min(v for _, v in weighted)


def _reference_fresh_draws(untouched: tuple[int, ...], f: int):
    """Distinct ordered draws of ``f`` counts from the pool ``untouched``,
    with exact without-replacement probabilities, as ``(draw, probability,
    rest)``; ``rest`` is the pool left over, still weakly decreasing.  Lazy:
    callers may abort after a bounded number of outcomes."""
    if f == 0:
        yield (), ONE, untouched
        return
    counter = Counter(untouched)
    values = sorted(counter, reverse=True)

    def rec(prefix, prob, left):
        if len(prefix) == f:
            yield prefix, prob, tuple(v for v in values for _ in range(counter[v]))
            return
        for v in values:
            c = counter[v]
            if c == 0:
                continue
            counter[v] -= 1
            yield from rec(prefix + (v,), prob * Fraction(c, left), left - 1)
            counter[v] += 1

    yield from rec((), ONE, len(untouched))
