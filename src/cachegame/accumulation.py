"""The one-turn accumulation game with real-valued gold.

The hider spreads ``d`` units of gold (a positive rational here) over ``n``
boxes; the searcher draws one uniformly random k-subset and wins if it holds
at least 1 unit in total (ties win; a losing subset holds strictly less).
The hider's problem is to minimize the number of winning k-subsets, i.e. to
maximize the losing count.

``max_losing_subsets_exact`` computes the hider's optimum exactly.  By
symmetry the gold vector can be taken weakly decreasing, and then the
winning family is closed upward under coordinatewise index decrease, so the
search runs over up-closed subset families, each decided by an exact
feasibility program with strict inequalities handled through a maximized
margin.  Losing counts are visited best-first, and the checked certificate
of each infeasible program is reused to refute later families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import lp as lpmod
from .rational import ZERO, format_rational

MAX_EXACT_BOXES = 8  # the family enumeration is exponential in C(n, k)


@dataclass(frozen=True)
class GoldDistribution:
    amounts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        amounts = tuple(Fraction(a) for a in self.amounts)
        object.__setattr__(self, "amounts", amounts)
        if any(a < 0 for a in amounts):
            raise ValueError(f"negative gold amount in {amounts}")

    @property
    def total(self) -> Fraction:
        return sum(self.amounts, ZERO)

    def to_json(self) -> list[str]:
        return [format_rational(a) for a in self.amounts]


@dataclass(frozen=True)
class AccumulationSpec:
    n: int
    k: int
    d: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", Fraction(self.d))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.d <= 0:
            raise ValueError(f"gold total must be positive, got {self.d}")


def count_winning_subsets(g: GoldDistribution, k: int) -> int:
    """Number of k-subsets holding at least one unit (exact comparison)."""
    n = len(g.amounts)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return sum(1 for s in combinations(range(n), k) if sum(g.amounts[i] for i in s) >= 1)


def _flat_distribution(n: int, d: Fraction, r: int) -> GoldDistribution:
    share = Fraction(d, r)
    return GoldDistribution((share,) * r + (ZERO,) * (n - r))


def best_ruckle_distribution(spec: AccumulationSpec) -> tuple[int, int, GoldDistribution]:
    """Best equal-split placement: d/r units in each of r boxes.

    Minimizes the winning count over r in 1..n; ties go to the smallest r.
    Returns (r, winning count, distribution).
    """
    best = None
    for r in range(1, spec.n + 1):
        g = _flat_distribution(spec.n, spec.d, r)
        wins = count_winning_subsets(g, spec.k)
        if best is None or wins < best[1]:
            best = (r, wins, g)
    return best


# ---------------------------------------------------------------------------
# Exact maximum losing count over all distributions.
# ---------------------------------------------------------------------------


def _up_closed_families(n, k):
    """The k-subsets in lexicographic order, the bitmasks (bit i for
    ``subsets[i]``) of each one's immediate richer and poorer neighbors (a
    richer one shifts one index down by one), and every up-closed winning
    family as such a bitmask, depth-first with winning tried first."""
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    richer, poorer = [0] * len(subsets), [0] * len(subsets)
    for i, s in enumerate(subsets):
        for p, idx in enumerate(s):
            if idx and idx - 1 not in s:
                j = index[s[:p] + (idx - 1,) + s[p + 1:]]
                richer[i] |= 1 << j
                poorer[j] |= 1 << i
    families = [0]  # walk richest-first: a subset wins only after its richer neighbors
    for i in sorted(range(len(subsets)), key=lambda i: (sum(subsets[i]), subsets[i])):
        bit = 1 << i
        families = [g for f in families for g in ((f | bit, f) if not richer[i] & ~f else (f,))]
    return subsets, richer, poorer, families


def _frontier(win, richer, poorer):
    """Poorest winners and richest losers of ``win``, the rows its program needs."""
    min_win = [i for i, p in enumerate(poorer) if win >> i & 1 and not p & win]
    max_lose = [i for i, r in enumerate(richer) if not win >> i & 1 and not r & ~win]
    return min_win, max_lose


def max_losing_subsets_exact(spec: AccumulationSpec) -> tuple[int, GoldDistribution]:
    """Exact maximum, over all gold distributions, of the losing-subset
    count, with a distribution attaining it.

    Guarded to n <= 8: the candidate winning families are the up-closed
    families in the domination order on k-subsets, and their number grows
    quickly.  Losing counts are visited best-first, most losing first, and
    the search stops at the first count with a realizable family.  The
    returned witness is the lexicographically least of the LP witnesses of
    the realizable families at that count.

    An infeasible family's checked certificate refutes every later family
    that keeps the rows it uses (``_refutes``): there each recorded winner
    dominates one of the family's poorest winners and each recorded loser
    is dominated by one of its richest losers, so, gold being sorted, every
    recorded row follows from the family's own rows.
    """
    n, k, d = spec.n, spec.k, spec.d
    if n > MAX_EXACT_BOXES:
        raise ValueError(f"exact search is guarded to n <= {MAX_EXACT_BOXES}, got n={n}")
    subsets, richer, poorer, families = _up_closed_families(n, k)
    by_count = {}
    for win in families:
        by_count.setdefault(len(subsets) - win.bit_count(), []).append(win)
    cuts = []
    for count in sorted(by_count, reverse=True):
        witnesses = []
        for win in by_count[count]:
            if any(_refutes(cut, win) for cut in cuts):
                continue
            min_win, max_lose = _frontier(win, richer, poorer)
            result = _feasible_family(n, d, [subsets[i] for i in min_win], [subsets[i] for i in max_lose])
            if result.feasible:
                witnesses.append(tuple(result.witness))
            else:
                cuts.append(_cut(n, result.certificate, min_win, max_lose))
        if witnesses:
            return count, GoldDistribution(min(witnesses))
    raise RuntimeError("no realizable family found; this cannot happen")


def _feasible_family(n, d, min_win, max_lose) -> lpmod.FeasibilityResult:
    constraints = []
    for j in range(n - 1):
        constraints.append(({j: 1, j + 1: -1}, lpmod.GREATER_EQUAL, 0))
    constraints.append((dict.fromkeys(range(n), 1), lpmod.EQUAL, d))
    for s in min_win:
        constraints.append((dict.fromkeys(s, 1), lpmod.GREATER_EQUAL, 1))
    for s in max_lose:
        constraints.append((dict.fromkeys(s, 1), lpmod.STRICT_LESS, 1))
    return lpmod.check_feasible(n, constraints)


def _cut(n, certificate, min_win, max_lose):
    """Bitmasks of the winners and of the losers whose rows carry a nonzero
    multiplier in ``certificate``, read in ``_feasible_family``'s row order:
    n - 1 ordering rows, the total, ``min_win``, then ``max_lose``."""
    used = [y != 0 for y in certificate[n:]]
    w = sum(1 << i for i, u in zip(min_win, used) if u)
    l = sum(1 << i for i, u in zip(max_lose, used[len(min_win):]) if u)
    return w, l


def _refutes(cut, win) -> bool:
    """Whether the certificate behind ``cut`` refutes family ``win``: every
    recorded winner wins in it and every recorded loser loses."""
    w, l = cut
    return not w & ~win and not l & win


def verify_divisibility_bound(n: int, k: int, d) -> tuple[bool, int, Fraction]:
    """For k | n and d >= n/k the losing fraction stays at most 1 - k/n.

    Verified by exact optimization, not by a partition construction.
    Returns (holds, losing count, allowed maximum).
    """
    d = Fraction(d)
    if n % k != 0:
        raise ValueError(f"divisibility check needs k | n, got n={n}, k={k}")
    if d < Fraction(n, k):
        raise ValueError(f"needs d >= n/k, got d={d} < {Fraction(n, k)}")
    losing, _ = max_losing_subsets_exact(AccumulationSpec(n, k, d))
    allowed = (1 - Fraction(k, n)) * comb(n, k)
    return losing <= allowed, losing, allowed


def mms_probability(amounts, k: int) -> Fraction:
    """Fraction of k-subsets whose sum falls strictly below the
    proportional share (k/n) of the total."""
    amounts = [Fraction(a) for a in amounts]
    n = len(amounts)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    threshold = Fraction(k, n) * sum(amounts, ZERO)
    below = sum(1 for s in combinations(range(n), k) if sum(amounts[i] for i in s) < threshold)
    return Fraction(below, comb(n, k))


def evaluate_distribution(spec: AccumulationSpec, g: GoldDistribution) -> dict:
    """CLI-facing summary of one distribution."""
    if len(g.amounts) != spec.n:
        raise ValueError(f"distribution has {len(g.amounts)} boxes, spec has {spec.n}")
    if g.total != spec.d:
        raise ValueError(f"distribution totals {g.total}, spec declares {spec.d}")
    winning = count_winning_subsets(g, spec.k)
    total = comb(spec.n, spec.k)
    return {
        "winning": winning,
        "total": total,
        "probability": format_rational(Fraction(winning, total)),
        "witness": g.to_json(),
    }
