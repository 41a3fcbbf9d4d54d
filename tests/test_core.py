import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from cachegame import (
    GameSpec,
    Variant,
    enumerate_allocations,
    lower_bound_infinite_d,
    upper_bound_combinatorial,
    upper_bound_first_query,
)
from cachegame.core import (
    fresh_draws,
    partitions,
    pattern_multiplicity,
    outcomes,
    patterns,
)
from cachegame.strategies import joint_verify_cooperative, least_treasures_rule, single_query, verify
from helpers import _reference_fresh_draws, _reference_reveals, _reference_take


class TestEnumerateAllocations:
    def test_count_3_3(self):
        assert len(enumerate_allocations(3, 3)) == 10

    def test_single_box(self):
        assert enumerate_allocations(1, 5) == [(5,)]

    def test_4_3_contains(self):
        allocs = enumerate_allocations(4, 3)
        assert len(allocs) == 20
        assert (2, 0, 1, 0) in allocs

    def test_zero_treasures(self):
        assert enumerate_allocations(3, 0) == [(0, 0, 0)]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(0, 6))
    def test_lexicographic_and_unique(self, n, d):
        # The order numbers the full game's hider root sequences.
        assert enumerate_allocations(n, d) == [c for c in product(range(d + 1), repeat=n) if sum(c) == d]

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", range(0, 6))
    def test_count_formula(self, n, d):
        assert len(enumerate_allocations(n, d)) == math.comb(n + d - 1, d)


class TestLegalReveals:
    """``outcomes``: each treasure-holding box a query may take a treasure
    from, with its treasure count as a plain int."""

    def test_two_one(self):
        got = outcomes((2, 1, 0), (0, 1), 3)
        assert [(b, c) for b, c, _, _ in got] == [(0, 2), (1, 1)]
        assert all(type(b) is int and type(c) is int and type(l) is int for b, c, l, _ in got)

    def test_even(self):
        assert [(b, c) for b, c, _, _ in outcomes((1, 0, 1), (0, 2), 3)] == [(0, 1), (2, 1)]

    def test_empty_query_loses(self):
        assert outcomes((0, 0, 3), (0, 1), 3) == []
        assert outcomes((0, 0, 3), (), 3) == []
        assert outcomes((0, 0, 3), (), 0) == []
        # Every variant reads this one listing: one query of a box drawn
        # uniformly finds the single treasure with probability 1/3 and
        # otherwise lists nothing, a loss.
        tree = single_query(3, 1, 1)
        for variant in (Variant.ADVERSARY, Variant.RANDOM):
            assert verify(GameSpec(3, 1, 1, variant), tree) == Fraction(1, 3)
        cooperative = GameSpec(3, 1, 1, Variant.COOPERATIVE)
        assert joint_verify_cooperative(cooperative, tree, least_treasures_rule) == Fraction(1, 3)

    @pytest.mark.parametrize("counts", [(2, 1, 0), (1, 1, 1), (3, 0, 0), (0, 2, 2)])
    def test_random_probabilities_sum_to_one(self, counts):
        for q in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]:
            got = outcomes(counts, q, 3)
            assert all(type(c) is int and c > 0 for _, c, _, _ in got)
            if got:
                total = sum(c for _, c, _, _ in got)
                assert sum(Fraction(c, total) for _, c, _, _ in got) == 1
                # ``c / total`` is the Fraction reveal weight of the random revealer.
                assert [(b, Fraction(c, total)) for b, c, _, _ in got] == [
                    (b, Fraction(w)) for b, w in _reference_reveals(counts, q, Variant.RANDOM)
                ]

    @pytest.mark.parametrize("t0", range(5))
    def test_no_empty_box_is_listed(self, t0):
        counts = (0, 2, 0, 1)
        got = outcomes(counts, (0, 1, 2, 3), t0)
        assert [b for b, *_ in got] == [1, 3]
        assert all(counts[b] == c > 0 for b, c, _, _ in got)

    def test_matches_the_reference_take(self):
        # Every count vector with n <= 4 boxes and d <= 3 treasures, every
        # query over its boxes and every count of touched labels t0: the
        # listing is the reference reveals, each followed by the reference
        # take.
        cases = 0
        for n in range(1, 5):
            queries = [q for size in range(n + 1) for q in combinations(range(n), size)]
            for d in range(4):
                for counts in enumerate_allocations(n, d):
                    for q in queries:
                        for t0 in range(n + 1):
                            want = []
                            for b, _ in _reference_reveals(counts, q, Variant.ADVERSARY):
                                after, label = _reference_take(counts, b, t0)
                                want.append((b, counts[b], label, after))
                            assert outcomes(counts, q, t0) == want
                            cases += 1
        assert cases == 3576  # sum over n of 2^n queries, n + 1 values of t0, C(n+3, 3) vectors


class TestApplyMove:
    """``outcomes``: one treasure leaves the revealed box."""

    @staticmethod
    def after(counts, box, t0):
        (label, state), = [(l, after) for b, _, l, after in outcomes(counts, (box,), t0)]
        return state, label

    def test_decrement(self):
        assert self.after((2, 0, 1), 0, 3) == ((1, 0, 1), 0)

    def test_terminal_win(self):
        assert self.after((1, 0, 0), 0, 3) == ((0, 0, 0), 0)

    def test_third_box(self):
        assert self.after((0, 1, 1), 2, 3) == ((0, 1, 0), 2)

    def test_pure(self):
        counts = (2, 0, 1)
        assert outcomes(counts, (0, 2), 3) == outcomes(counts, (0, 2), 3)
        assert counts == (2, 0, 1)

    def test_concrete_boxes_keep_their_labels(self):
        # Over concrete boxes t0 = len(counts): every label is known.
        got = outcomes((1, 2, 0, 3), (0, 1, 2, 3), 4)
        assert got == [(0, 1, 0, (0, 2, 0, 3)), (1, 2, 1, (1, 1, 0, 3)), (3, 3, 3, (1, 2, 0, 2))]

    def test_known_label_keeps_its_place(self):
        # Labels below t0 were touched before: no relabeling.
        assert self.after((2, 1, 3, 1), 1, 2) == ((2, 0, 3, 1), 1)

    def test_fresh_reveal_takes_the_lowest_fresh_label(self):
        # Label 3 is fresh (t0 = 2): it swaps with label 2, then pays.
        assert self.after((2, 0, 1, 3), 3, 2) == ((2, 0, 2, 1), 2)
        # Both fresh labels of one query pay into label t0.
        assert [l for _, _, l, _ in outcomes((2, 0, 1, 3), (2, 3), 2)] == [2, 2]

    def test_reveal_at_label_t0(self):
        # The lowest fresh label itself pays without a swap.
        assert self.after((2, 0, 1, 3), 2, 2) == ((2, 0, 0, 3), 2)
        assert self.after((2, 0, 1, 3), 0, 0) == ((1, 0, 1, 3), 0)

    def test_conservation(self):
        counts, d = (1, 0, 2), 3
        for found, (label, t0) in enumerate([(2, 1), (1, 2), (0, 3)], start=1):
            before = sorted(counts)
            counts, _ = self.after(counts, label, t0)
            assert sum(counts) + found == d
            changed = [a - b for a, b in zip(before, sorted(counts)) if a != b]
            assert changed == [1]  # as a multiset, exactly one count fell by one


class TestFreshDraws:
    """``fresh_draws`` counts ordered picks: a draw's probability is its
    integer ``ways`` over ``perm(len(pool), f)``."""

    def test_single_draw(self):
        got = list(fresh_draws((2, 1, 0), 1))
        assert got == [((2,), 1, (1, 0)), ((1,), 1, (2, 0)), ((0,), 1, (2, 1))]
        third = Fraction(1, 3)
        assert [Fraction(ways, math.perm(3, 1)) for _, ways, _ in got] == [third] * 3

    def test_no_draw_keeps_the_pool(self):
        assert list(fresh_draws((1, 1, 0), 0)) == [((), 1, (1, 1, 0))]
        assert math.perm(3, 0) == 1

    def test_repeated_counts_add_their_ways(self):
        # Two of the four entries are 1s: the draw (1, 1) has 2 * 1 ordered
        # picks of 4 * 3, and (2, 1) has 1 * 2.
        got = {draw: ways for draw, ways, _ in fresh_draws((2, 1, 1, 0), 2)}
        assert got[1, 1] == 2 and got[2, 1] == 2 and got[0, 2] == 1
        assert Fraction(got[1, 1], math.perm(4, 2)) == Fraction(1, 6)

    @pytest.mark.parametrize("pool", [(3, 1, 1, 0), (2, 2, 0, 0), (1, 1, 1, 1), (4, 0, 0, 0)])
    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_draws_partition_the_pool(self, pool, f):
        draws = list(fresh_draws(pool, f))
        assert all(type(ways) is int and ways > 0 for _, ways, _ in draws)
        assert sum(ways for _, ways, _ in draws) == math.perm(len(pool), f)
        assert sum(Fraction(ways, math.perm(len(pool), f)) for _, ways, _ in draws) == 1
        assert len({draw for draw, _, _ in draws}) == len(draws)
        for draw, _, rest in draws:
            assert sorted(draw + rest) == sorted(pool)
            assert list(rest) == sorted(rest, reverse=True)

    def test_listing_is_shared(self):
        # The builder and the strategy evaluator read one cached tuple.
        assert fresh_draws((2, 1, 1, 0), 2) is fresh_draws((2, 1, 1, 0), 2)
        assert type(fresh_draws((2, 1, 1, 0), 2)) is tuple

    def test_matches_the_reference_enumeration(self):
        # Same draws in the same order, the same probabilities and rests as
        # the Fraction reference, over every padded pattern with d, n <= 6.
        cases = 0
        for n in range(1, 7):
            for d in range(1, 7):
                for pool in patterns(d, n):
                    for f in range(n + 1):
                        got = [(draw, Fraction(ways, math.perm(n, f)), rest)
                               for draw, ways, rest in fresh_draws(pool, f)]
                        assert got == list(_reference_fresh_draws(pool, f))
                        cases += 1
        assert cases == 646


class TestBounds:
    def test_combinatorial_432(self):
        assert upper_bound_combinatorial(4, 3, 2) == Fraction(2, 5)

    @pytest.mark.parametrize("n,d", [(3, 2), (5, 3), (2, 4)])
    def test_combinatorial_k1(self, n, d):
        assert upper_bound_combinatorial(n, d, 1) == Fraction(1, math.comb(n + d - 1, d))

    def test_combinatorial_542(self):
        assert upper_bound_combinatorial(5, 4, 2) == Fraction(8, 35)

    def test_first_query(self):
        assert upper_bound_first_query(3, 2) == Fraction(2, 3)
        assert upper_bound_first_query(7, 7) == 1
        assert upper_bound_first_query(5, 3) == Fraction(3, 5)

    def test_infinite_d_values(self):
        assert lower_bound_infinite_d(3, 2) == Fraction(1, 3)
        assert lower_bound_infinite_d(4, 2) == Fraction(1, 9)
        assert lower_bound_infinite_d(5, 5) == 1

    def test_infinite_d_positive(self):
        for n in range(2, 13):
            for k in range(2, n + 1):
                assert 0 < lower_bound_infinite_d(n, k) <= 1

    def test_bound_comparison_in_conjectured_range(self):
        # k^d / C(n+d-1, d) <= k/n whenever n >= d(k-1)+1.
        for n in range(1, 9):
            for d in range(1, 9):
                for k in range(1, n + 1):
                    if n >= d * (k - 1) + 1:
                        assert upper_bound_combinatorial(n, d, k) <= upper_bound_first_query(n, k)


class TestTypes:
    def test_gamespec_validation(self):
        with pytest.raises(ValueError):
            GameSpec(3, 3, 4)
        with pytest.raises(ValueError):
            GameSpec(3, 0, 2)
        with pytest.raises(ValueError):
            GameSpec(0, 1, 1)

    def test_gamespec_variant_coercion(self):
        assert GameSpec(3, 3, 2, "random").variant is Variant.RANDOM


@pytest.mark.parametrize("call,message", [
    (lambda: enumerate_allocations(0, 1), "need at least one box, got n=0"),
    (lambda: enumerate_allocations(2, -1), "negative treasure count d=-1"),
    (lambda: upper_bound_first_query(3, 4), "need 1 <= k <= n, got k=4, n=3"),
    (lambda: lower_bound_infinite_d(3, 1), "need 2 <= k <= n, got k=1, n=3"),
    (lambda: pattern_multiplicity((1, 1, 1), 2), "needs more than 2 boxes"),
    (lambda: upper_bound_combinatorial(3, 0, 2), "need at least one treasure, got d=0"),
    (lambda: upper_bound_combinatorial(3, 2, 4), "query size must satisfy 1 <= k <= n"),
])
def test_invalid_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestPatterns:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", range(0, 6))
    def test_orbits_cover_all_allocations(self, n, d):
        total = sum(pattern_multiplicity(p, n) for p in partitions(d, n))
        assert total == math.comb(n + d - 1, d)

    def test_partitions_shape(self):
        pats = partitions(4, 2)
        assert pats == [(4,), (3, 1), (2, 2)]

    def test_patterns_are_padded_partitions(self):
        assert patterns(4, 3) == [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
        assert patterns(2, 1) == [(2,)]
