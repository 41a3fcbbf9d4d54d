"""Game objects, rules of play, strategy trees, and closed-form bounds.

The multiple caching game: a hider distributes ``d`` indistinguishable
treasures among ``n`` boxes, then a searcher repeatedly names a set of ``k``
boxes.  If the named set holds at least one treasure, one treasure inside it
is revealed and removed; otherwise the searcher loses on the spot.  The
searcher wins once all ``d`` treasures have been extracted.

Variants differ only in who picks the surrendered treasure when the query
covers several:

* ``ADVERSARY`` -- the hider picks, trying to make the searcher lose.
* ``RANDOM`` -- one of the covered treasures is revealed uniformly at random
  (uniform over treasures, not boxes: a box holding two of the three covered
  treasures surrenders with probability 2/3).
* ``COOPERATIVE`` -- the revealer follows a rule agreed with the searcher in
  advance.

A placement, like every state of play, is a plain tuple of counts:
``counts[i]`` treasures sit in box ``i``.  The searcher's strategy trees
(``StrategyTree``) are defined here too, in the labels of the rules of play.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations


class Variant(str, Enum):
    ADVERSARY = "adversary"
    RANDOM = "random"
    COOPERATIVE = "cooperative"


@dataclass(frozen=True)
class GameSpec:
    """One game: box count ``n``, treasure count ``d``, query size ``k``."""

    n: int
    d: int
    k: int
    variant: Variant = Variant.ADVERSARY

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one box, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"need at least one treasure, got d={self.d}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"query size must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))


def enumerate_allocations(n: int, d: int) -> list[tuple[int, ...]]:
    """All placements of ``d`` treasures into ``n`` boxes, lexicographic.

    There are C(n+d-1, d) of them; ``d = 0`` yields the single empty
    placement.  The fixed order matters: downstream linear programs index
    their columns by it.
    """
    if n < 1:
        raise ValueError(f"need at least one box, got n={n}")
    if d < 0:
        raise ValueError(f"negative treasure count d={d}")
    # Stars and bars: the n - 1 bars among n + d - 1 slots, in lexicographic
    # order, give the counts between them in lexicographic order.
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n + d - 1,)))
            for bars in combinations(range(n + d - 1), n - 1)]


# ---------------------------------------------------------------------------
# Rules of play: the tree builder and every strategy evaluator apply them
# through ``outcomes``, which lists a query's reveals and the state after
# each, and ``fresh_draws``.  A state is a count vector.  Over concrete boxes
# it holds the treasures left per box.  In first-touch canonical labels the
# touched labels 0..t0-1 keep their counts in touch order, and the counts of
# the other boxes wait in a weakly decreasing ``untouched`` pool: a query
# naming fresh labels draws their counts from the pool.
# ---------------------------------------------------------------------------


def outcomes(counts: tuple[int, ...], q, t0: int) -> list:
    """What query ``q`` can reveal: each treasure-holding box of ``q`` as
    ``(box, treasures, label, after)``, ints but for ``after``, the count
    vector once the box has surrendered one treasure.  Under ``RANDOM`` a
    box surrenders with probability ``treasures / total``, ``total`` being
    the treasures the query covers; otherwise a player picks among the
    listed boxes.  An empty list means the query found nothing: terminal
    loss.

    Labels from ``t0`` on are fresh, and a reveal from one takes the lowest
    fresh label ``t0``: the two swap counts in ``after``, and ``label`` is
    ``t0``.  A known label keeps its place.  Callers over concrete boxes
    pass ``t0 = len(counts)``.
    """
    out = []
    for b in q:
        c = counts[b]
        if c:
            label, after = b if b < t0 else t0, list(counts)  # a fresh box pays into label t0
            after[b], after[label] = after[label], c - 1
            out.append((b, c, label, tuple(after)))
    return out


@cache
def fresh_draws(untouched: tuple[int, ...], f: int) -> tuple:
    """Distinct ordered draws of ``f`` counts from the weakly decreasing
    pool ``untouched``, as a tuple of ``(draw, ways, rest)`` in lexicographic
    order, larger counts first: ``ways`` ordered picks give ``draw``, so its
    probability is ``ways / math.perm(len(untouched), f)``.  ``rest`` is the
    pool left over, still weakly decreasing.  Cached: the tree builder and
    the strategy evaluator share one listing per pool."""
    listing = [((), 1, untouched)]
    for _ in range(f):  # one fresh label at a time
        longer = []
        for draw, ways, pool in listing:
            for i, v in enumerate(pool):
                if not i or pool[i - 1] != v:  # the first of each run of equal counts
                    longer.append((draw + (v,), ways * pool.count(v), pool[:i] + pool[i + 1:]))
        listing = longer
    return tuple(listing)


# ---------------------------------------------------------------------------
# Searcher strategy trees, in first-touch canonical labels: box 0 is the
# first box the searcher ever touches, and a reveal from a box no earlier
# query touched gives it the lowest unused label.  A node mixes over
# queries; each query branches on the label that surrendered a treasure.  A
# missing branch ends the plan on that line (the searcher resigns), which
# can only lower the verified value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixEntry:
    prob: Fraction
    query: tuple[int, ...]
    branches: tuple  # ((box, StrategyNode | None), ...) sorted by box; None = end


@dataclass(frozen=True)
class StrategyNode:
    mix: tuple[MixEntry, ...]


@dataclass(frozen=True)
class StrategyTree:
    n: int
    d: int
    k: int
    root: StrategyNode


# ---------------------------------------------------------------------------
# Closed-form bounds on the searcher's winning probability.
# ---------------------------------------------------------------------------


def upper_bound_combinatorial(n: int, d: int, k: int) -> Fraction:
    """k^d / C(n+d-1, d): no searcher beats this against a uniform hider."""
    GameSpec(n, d, k)  # rejects an invalid game
    return Fraction(k**d, math.comb(n + d - 1, d))


def upper_bound_first_query(n: int, k: int) -> Fraction:
    """k/n: hiding everything in one box caps the very first query."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Fraction(k, n)


def lower_bound_infinite_d(n: int, k: int) -> Fraction:
    """A positive winning probability independent of the treasure count.

    The follow-the-last-reveal strategy (re-query the box that just paid,
    plus k-1 uniformly random other boxes) guarantees at least

        (k/n) * prod_{i=k}^{n-1} (1 - C(i-1, k-1) / C(n-1, k-1))

    for every d, provided k >= 2.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    value = Fraction(k, n)
    denom = math.comb(n - 1, k - 1)
    for i in range(k, n):
        value *= 1 - Fraction(math.comb(i - 1, k - 1), denom)
    return value


# ---------------------------------------------------------------------------
# Shared combinatorial helpers.
# ---------------------------------------------------------------------------


def partitions(d: int, max_parts: int) -> list[tuple[int, ...]]:
    """Weakly decreasing positive tuples summing to ``d`` with at most
    ``max_parts`` entries; these index the box-permutation orbits of
    allocations.  ``d = 0`` yields the empty tuple."""
    if d == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], left: int, cap: int) -> None:
        if left == 0:
            out.append(prefix)
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(cap, left), 0, -1):
            rec(prefix + (part,), left - part, part)

    rec((), d, d)
    del rec  # it refers to itself, so only the cycle collector would free it and ``out``
    return out



def patterns(d: int, n: int) -> list[tuple[int, ...]]:
    """The partitions of ``d`` into at most ``n`` parts, zero-padded to
    length ``n``: one weakly decreasing count vector per orbit of
    placements under box relabeling."""
    return [pat + (0,) * (n - len(pat)) for pat in partitions(d, n)]

def pattern_multiplicity(pattern: tuple[int, ...], n: int) -> int:
    """Number of distinct length-``n`` count vectors whose sorted form is
    ``pattern`` (padded with zeros): the orbit size under box relabeling."""
    if len(pattern) > n:
        raise ValueError(f"pattern {pattern} needs more than {n} boxes")
    mult = Counter(pattern)
    mult[0] += n - len(pattern)
    out = math.factorial(n)
    for m in mult.values():
        out //= math.factorial(m)
    return out
