"""Fractional query sizes via the exhaust-one-box strategy.

With single-box queries the searcher guesses a placement uniformly at
random and empties its boxes one at a time, largest count first (equal
counts broken uniformly at random).  Watching only her discoveries, the
treasures found per box form a weakly decreasing record ``lambda``; the
chance that her next query stays on the current box given that record is
the posterior ``p_lambda``, computed here by exact enumeration over all
placements consistent with the record.

A non-integral query size k mixes floor(k) and ceil(k) sized queries so
the expected size is k.  The per-step identities checked here say each box
is covered exactly k times as often as in the single-box game, which is
what drives the k^d / C(n+d-1, d) value for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import pattern_multiplicity, patterns
from .rational import ONE


@dataclass(frozen=True)
class YoungState:
    """Discovery record: treasures found per box, in discovery order."""

    lam: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self) -> None:
        lam = tuple(self.lam)
        if any(not isinstance(x, int) or isinstance(x, bool) for x in lam):
            raise ValueError(f"record entries must be integers, got {lam}")
        object.__setattr__(self, "lam", lam)
        if any(x < 1 for x in lam):
            raise ValueError(f"record entries must be positive, got {lam}")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"record must be weakly decreasing, got {lam}")
        if sum(lam) > self.d:
            raise ValueError(f"record {lam} exceeds d={self.d} treasures")
        if len(lam) > self.n:
            raise ValueError(f"record {lam} uses more than n={self.n} boxes")


class PreconditionError(ValueError):
    """A stated validity condition of the construction fails; the message
    names the inequality that broke."""


def p_lambda(state: YoungState) -> Fraction:
    """Probability the next single-box query repeats the current box.

    Exact posterior under the uniform prior over all C(n+d-1, d)
    placements: equal-count tie-breaks cancel, so orbits of placements are
    enumerated with their multiplicities.  A completed record (sum = d)
    yields 0.  Raises if no placement is consistent with the record.
    """
    lam = state.lam
    if not lam:
        raise ValueError("empty record: no current box")
    m = len(lam)
    num = 0
    den = 0
    for pattern in patterns(state.d, state.n):
        if any(pattern[i] != lam[i] for i in range(m - 1)):
            continue
        if pattern[m - 1] < lam[m - 1]:
            continue
        weight = pattern_multiplicity(pattern, state.n)
        den += weight
        if pattern[m - 1] > lam[m - 1]:
            num += weight
    if den == 0:
        raise ValueError(f"record {lam} is not reachable with n={state.n}, d={state.d}")
    return Fraction(num, den)


def scaled_repeat_probability(state: YoungState, s: int) -> Fraction:
    """s times the single-box repeat probability, valid only while <= 1."""
    if s < 1:
        raise PreconditionError(f"scale must be a positive integer, got {s}")
    base = p_lambda(state)
    scaled = s * base
    if scaled > 1:
        raise PreconditionError(
            f"s * p_lambda = {scaled} > 1: n={state.n} is too small for scale s={s}"
        )
    return scaled


@dataclass(frozen=True)
class FractionalSpec:
    """Game parameters with a rational query size 1 <= k <= n.

    ``p`` is the unique weight on floor(k) queries making the expected
    query size exactly k (p = 1 when k is integral).
    """

    n: int
    d: int
    k: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", Fraction(self.k))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got d={self.d}")

    @property
    def floor_k(self) -> int:
        return math.floor(self.k)

    @property
    def ceil_k(self) -> int:
        return math.ceil(self.k)

    @property
    def p(self) -> Fraction:
        if self.floor_k == self.ceil_k:
            return ONE
        return Fraction(self.ceil_k) - self.k


def _check_step_preconditions(spec: FractionalSpec, state: YoungState) -> Fraction:
    if state.n != spec.n or state.d != spec.d:
        raise ValueError("record and spec disagree on n or d")
    if spec.n < spec.d * spec.ceil_k:
        raise PreconditionError(
            f"n >= d*ceil(k) fails: {spec.n} < {spec.d}*{spec.ceil_k}"
        )
    base = p_lambda(state)
    if spec.ceil_k * base > 1:
        raise PreconditionError(
            f"ceil(k)*p_lambda <= 1 fails: {spec.ceil_k}*{base} > 1"
        )
    return base


def fractional_step_distribution(spec: FractionalSpec, state: YoungState) -> list:
    """One step of the mixed plan: ((repeat current box?, fresh boxes), prob).

    Four branches in general, two when k is integral; the weights sum to 1
    and the expected query size is exactly k.
    """
    base = _check_step_preconditions(spec, state)
    p = spec.p
    fl, ce = spec.floor_k, spec.ceil_k
    branches = [
        ((True, fl - 1), p * (fl * base)),
        ((False, fl), p * (1 - fl * base)),
    ]
    if p != ONE:
        branches += [
            ((True, ce - 1), (1 - p) * (ce * base)),
            ((False, ce), (1 - p) * (1 - ce * base)),
        ]
    return branches


def per_step_discovery_check(
    spec: FractionalSpec, state: YoungState, target: str
) -> tuple[Fraction, Fraction]:
    """Both sides of the key coverage identity for one step, the left read
    off the branches ``fractional_step_distribution`` returns.

    ``target="current"``: probability the next query contains the box that
    just paid (the mass of the repeat branches), versus k times the
    single-box repeat probability.
    ``target="fresh"``: expected coverage of new boxes (each branch's fresh
    box count times its probability), versus k times the single-box switch
    probability.  Equality of the two sides is exactly what makes the mixed
    plan a k-fold speedup of the single-box plan.
    """
    branches = fractional_step_distribution(spec, state)
    base = p_lambda(state)
    if target == "current":
        lhs = sum(prob for (repeat, _), prob in branches if repeat)
        rhs = spec.k * base
    elif target == "fresh":
        lhs = sum(fresh * prob for (_, fresh), prob in branches)
        rhs = spec.k * (1 - base)
    else:
        raise ValueError(f"target must be 'current' or 'fresh', got {target!r}")
    return lhs, rhs


def reachable_records(n: int, d: int) -> list[YoungState]:
    """Every nonempty discovery record consistent with some placement."""
    out = []

    def rec(prefix: tuple[int, ...], cap: int, left: int) -> None:
        for last in range(min(cap, left), 0, -1):
            lam = prefix + (last,)
            if len(lam) > n:
                return
            state = YoungState(lam, n, d)
            try:
                p_lambda(state)
            except ValueError:
                continue
            out.append(state)
            rec(lam, last, left - last)

    rec((), d, d)
    del rec  # it refers to itself, so only the cycle collector would free it and ``out``
    return out
