"""Acceptance suite: every exit criterion checked at exact rational equality.

Each criterion is a standalone function; the pytest wrappers print one
PASS/FAIL line per criterion (visible with ``pytest -s`` or in the
standalone run ``python tests/test_acceptance.py``).
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from cachegame import (
    GameSpec,
    Variant,
    check_accuracy,
    family_332,
    family_d2,
    family_d3,
    family_infinite_d,
    fig432,
    fig542,
    hider_strategy_value,
    joint_verify_cooperative,
    least_treasures_rule,
    lower_bound_infinite_d,
    solve,
    upper_bound_combinatorial,
    upper_bound_first_query,
    verify,
)
from cachegame import accumulation as ac
from cachegame import fractional as fr
from cachegame import lp as lpmod
from cachegame.solver import optimal_hider_332
from helpers import complementary_slackness_holds, random_bounded_lp, solve_cached

F = Fraction
ADV, RAN, COOP = Variant.ADVERSARY, Variant.RANDOM, Variant.COOPERATIVE

CRITERIA = []


def criterion(label):
    def register(fn):
        CRITERIA.append((label, fn))
        return fn

    return register


@criterion("1: exact values of the 3-box, 3-treasure, pair-query game")
def criterion_1():
    start = time.perf_counter()
    assert solve(GameSpec(3, 3, 2, ADV)).value == F(3, 5)
    assert time.perf_counter() - start < 60
    start = time.perf_counter()
    assert solve(GameSpec(3, 3, 2, RAN)).value == F(12, 19)
    assert time.perf_counter() - start < 60


@criterion("2: committed hiding tables certify the same values")
def criterion_2():
    weights, _ = optimal_hider_332(RAN)
    value, _ = hider_strategy_value(GameSpec(3, 3, 2, RAN), weights)
    assert value == F(12, 19)
    values = set()
    for q3 in (F(0), F(1, 2), F(1)):
        for q4 in (F(0), F(1, 2), F(1)):
            weights, policy = optimal_hider_332(ADV, q3=q3, q4=q4)
            v, _ = hider_strategy_value(GameSpec(3, 3, 2, ADV), weights, policy)
            values.add(v)
    assert values == {F(3, 5)}  # independent of the free reveal parameters


@criterion("3: every built-in plan verifies at its claimed value")
def criterion_3():
    assert verify(GameSpec(4, 3, 2, ADV), fig432()) == F(2, 5)
    for k in (2, 3, 4):
        assert verify(GameSpec(2 * k - 1, 2, k, ADV), family_d2(k)) == F(k * k, math.comb(2 * k, 2))
    for k in (2, 3):
        assert verify(GameSpec(3 * k - 2, 3, k, ADV), family_d3(k)) == F(k**3, math.comb(3 * k, 3))
    assert verify(GameSpec(5, 4, 2, ADV), fig542()) == F(8, 35)
    assert verify(GameSpec(3, 3, 2, ADV), family_332(ADV)) == F(3, 5)
    assert verify(GameSpec(3, 3, 2, RAN), family_332(RAN)) == F(12, 19)
    coop = joint_verify_cooperative(
        GameSpec(3, 3, 2, COOP), family_332(COOP), least_treasures_rule
    )
    assert coop == F(2, 3)


@criterion("4: bound-matching checks and the small accuracy sweep")
def criterion_4():
    assert check_accuracy(4, 3, 2).accurate
    result = check_accuracy(3, 3, 2)
    assert not result.accurate and result.value == F(3, 5)

    values = {}
    for n in range(1, 6):
        for d in range(1, 4):
            for k in range(1, min(2, n) + 1):
                values[(n, d, k)] = solve_cached(n, d, k, ADV).value
    for (n, d, k), v in values.items():
        accurate = v == upper_bound_combinatorial(n, d, k)
        if n >= d * (k - 1) + 1:
            assert accurate, f"threshold conjecture fails at ({n},{d},{k})"
        if (n, d + 1, k) in values:
            assert values[(n, d + 1, k)] <= v, f"d-monotonicity fails at ({n},{d},{k})"


@criterion("5: query size exactly k is as good as at most k")
def criterion_5():
    for n in range(1, 5):
        for d in range(1, 4):
            for k in range(1, min(n, 3) + 1):
                exact = solve_cached(n, d, k, ADV).value
                relaxed = solve_cached(n, d, k, ADV, relaxed=True).value
                assert exact == relaxed, f"relaxed queries changed ({n},{d},{k}): {exact} vs {relaxed}"


@criterion("6: solved values respect both bounds and the variant order")
def criterion_6():
    specs = [
        (n, d, k)
        for n in range(1, 5)
        for d in range(1, 4)
        for k in range(1, min(n, 3) + 1)
    ] + [(5, 3, 2)]
    for n, d, k in specs:
        adv = solve_cached(n, d, k, ADV).value
        ran = solve_cached(n, d, k, RAN).value
        cap = min(upper_bound_combinatorial(n, d, k), upper_bound_first_query(n, k))
        assert adv <= cap and ran <= cap
        assert adv <= ran


@criterion("7: the follow-the-last-reveal floor")
def criterion_7():
    floor = lower_bound_infinite_d(3, 2)
    assert floor == F(1, 3)
    for d in range(1, 6):
        assert verify(GameSpec(3, d, 2, ADV), family_infinite_d(3, d, 2)) >= floor
    for n in range(2, 13):
        for k in range(2, n + 1):
            value = lower_bound_infinite_d(n, k)
            expected = F(k, n)
            for i in range(k, n):
                expected *= 1 - F(math.comb(i - 1, k - 1), math.comb(n - 1, k - 1))
            assert value == expected
            assert 0 < value <= 1


@criterion("8: per-step coverage identities, exhaustively at desk scale")
def criterion_8():
    checked = 0
    for k in (F(1), F(3, 2), F(2)):
        for n in range(1, 9):
            for d in range(1, 5):
                if n < d * math.ceil(k):
                    continue
                spec = fr.FractionalSpec(n, d, k)
                for state in fr.reachable_records(n, d):
                    if spec.ceil_k * fr.p_lambda(state) > 1:
                        continue
                    for target in ("current", "fresh"):
                        lhs, rhs = fr.per_step_discovery_check(spec, state, target)
                        assert lhs == rhs
                    checked += 1
    assert checked >= 100


@criterion("9a: scarce-gold optimum of the five-box accumulation game")
def criterion_9a():
    # Originally posed: a maximum of 7 losing triples at n=5, k=3, d=2,
    # attained by an equal three-way split (2/3, 2/3, 2/3, 0, 0).  Both
    # numbers are wrong; the optimum is 4.  Proof: ties win (see the
    # accumulation module docstring), so a triple loses exactly when it
    # holds less than 1, i.e. when its complementary pair holds more than
    # d - 1 = 1.  Two disjoint such "heavy" pairs would hold more than
    # 2 = d, so the heavy pairs pairwise intersect, and on 5 boxes a
    # pairwise-intersecting family of pairs is a star (at most 4 pairs) or
    # a triangle (3).  One loaded box, (2, 0, 0, 0, 0), reaches 4.  The
    # three-way split puts 4/3 on every pair of loaded boxes and loses only
    # 3 triples, under either tie rule, since no triple holds exactly 1.
    # Seven losing triples at d=2 would need the opposite rule ("ties
    # lose") and a 1 + 1 split; under the documented rule the 7-losing
    # regime is d in [5/3, 2), covered by TestExactMaximum in
    # test_accumulation.py.  The bound is certified here without the LP,
    # and the optimizer is then held to it.
    d = F(2)
    boxes = range(5)
    pairs = list(combinations(boxes, 2))
    complements = sorted(tuple(sorted(set(boxes) - set(t))) for t in combinations(boxes, 3))
    assert complements == pairs  # losing triples <-> heavy complementary pairs
    assert 2 * (d - 1) >= d  # two disjoint heavy pairs would exceed d
    largest_intersecting = max(
        size
        for size in range(len(pairs) + 1)
        for family in combinations(pairs, size)
        if all(set(p) & set(q) for p, q in combinations(family, 2))
    )
    assert largest_intersecting == 4  # upper bound over all 2^10 families

    witness = ac.GoldDistribution((d, 0, 0, 0, 0))
    assert ac.count_winning_subsets(witness, 3) == 6  # lower bound: 10 - 6 = 4 lose

    losing, optimum = ac.max_losing_subsets_exact(ac.AccumulationSpec(5, 3, d))
    assert losing == largest_intersecting, f"exact optimum at d=2 is {losing} losing triples, not 4"
    assert optimum.amounts == witness.amounts, f"optimal witness is {optimum.amounts}"

    third = F(2, 3)
    claimed = ac.GoldDistribution((third, third, third, 0, 0))
    assert ac.count_winning_subsets(claimed, 3) == 7, (
        "refuted claim: the equal three-way split was said to lose 7 triples at d=2"
    )


@criterion("9b: thinly spread gold never pays the searcher")
def criterion_9b():
    g = ac.GoldDistribution((F(3, 2) / 5,) * 5)  # d < n/k spread evenly
    assert ac.count_winning_subsets(g, 3) == 0


@criterion("9c: the divisibility bound holds where applicable")
def criterion_9c():
    holds, losing, allowed = ac.verify_divisibility_bound(4, 2, F(2))
    assert holds and losing <= allowed
    holds, losing, allowed = ac.verify_divisibility_bound(6, 2, F(3))
    assert holds and losing <= allowed


@criterion("10: the rational simplex certifies every answer")
def criterion_10():
    rng = random.Random(20240814)
    for _ in range(100):
        program = random_bounded_lp(rng)
        sol = lpmod.solve_lp(program)
        assert sol.status == lpmod.OPTIMAL
        lpmod.check_certificate(program, sol)
        assert complementary_slackness_holds(program, sol)

    rows = []
    for j in range(4):
        rows.append(({j: 1, j + 1: -1}, lpmod.GREATER_EQUAL, 0))
    rows.append(({j: 1 for j in range(5)}, lpmod.EQUAL, F(5, 3)))
    for t in combinations(range(5), 3):
        if t not in ((0, 1, 2), (0, 1, 3)):
            rows.append(({j: 1 for j in t}, lpmod.STRICT_LESS, 1))
    result = lpmod.check_feasible(5, rows)
    assert not result.feasible
    assert result.certificate is not None


def _run(label, fn):
    try:
        fn()
    except BaseException:
        print(f"acceptance {label}: FAIL")
        raise
    print(f"acceptance {label}: PASS")


@pytest.mark.parametrize("label,fn", CRITERIA, ids=[c[0].split(":")[0] for c in CRITERIA])
def test_criterion(label, fn):
    _run(label, fn)


def main() -> int:
    failures = 0
    for label, fn in CRITERIA:
        try:
            _run(label, fn)
        except BaseException as exc:
            failures += 1
            print(f"  reason: {exc}")
    print(f"{len(CRITERIA) - failures} of {len(CRITERIA)} acceptance criteria hold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
