import gc
import hashlib
import json
import re
import tracemalloc
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from cachegame import (
    GameSpec,
    Variant,
    BudgetExceededError,
    best_response_value,
    build_tree,
    check_accuracy,
    enumerate_allocations,
    fig432,
    hider_strategy_value,
    solve,
    upper_bound_combinatorial,
    upper_bound_first_query,
)
from cachegame import lp as lpmod
from cachegame import solver
from cachegame.fractional import reachable_records
from cachegame.solver import (
    HIDER,
    SEARCHER,
    SolverError,
    StrategyError,
    _SequenceForm,
    _behavior,
    _best_response,
    _check_strategy,
    _pattern_values,
    _solve_sequence_lp,
    optimal_hider_332,
    searcher_plan_value,
    solve_tree,
)
from cachegame.strategies import (
    StrategyTree,
    ask,
    builtin_family,
    entry,
    family_infinite_d,
    least_treasures_rule,
    node,
)
from helpers import fraction_rows, reference_pattern_values, sequence_lp_cached, solve_cached

ADV, RAN = Variant.ADVERSARY, Variant.RANDOM


def _cyclic_garbage(run) -> list:
    """What ``run()`` leaves that only the cycle collector would free: with
    the collector off, DEBUG_SAVEALL keeps it in ``gc.garbage``."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _sequence(sf, player, infoset, label):
    """Id of the sequence that plays ``label`` at ``infoset``."""
    info = sf.infosets[player][infoset]
    return info.sids[info.labels.index(label)]


class TestBuildTree:
    def test_full_root_has_all_placements(self):
        sf = build_tree(GameSpec(3, 3, 2, ADV), symmetry=False).sf
        assert len(sf.infosets[HIDER][("root",)].labels) == 10

    def test_full_random_chance_weights(self):
        # Query (0, 1) on placement (2, 1, 0): box 0 pays with 2/3, box 1
        # with 1/3.  Every later reveal on the two lines below is forced.
        sf = build_tree(GameSpec(3, 3, 2, RAN), symmetry=False).sf
        hider = _sequence(sf, HIDER, ("root",), (2, 1, 0))
        first = ((0, 1), 0), ((0, 2), 0)
        second = ((0, 1), 1), ((0, 2), 0)
        payoff = sf.payoff[hider]
        assert Fraction(payoff[_sequence(sf, SEARCHER, first, (1, 2))], sf.denominator) == Fraction(2, 3)
        assert Fraction(payoff[_sequence(sf, SEARCHER, second, (0, 2))], sf.denominator) == Fraction(1, 3)

    @pytest.mark.parametrize("variant", [ADV, RAN])
    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("n,d,k,relaxed", [(3, 3, 2, False), (4, 3, 2, False), (3, 2, 2, True)])
    def test_payoffs_are_integers_over_the_game_denominator(self, n, d, k, relaxed, symmetry, variant):
        # D = n! lcm(1..d)^d under the random revealer, n! under the adversary.
        sf = build_tree(GameSpec(n, d, k, variant), symmetry, relaxed).sf
        reveal_lcm = lcm(*range(1, d + 1)) if variant == RAN else 1
        assert sf.denominator == factorial(n) * reveal_lcm**d
        entries = [w for row in sf.payoff.values() for w in row.values()]
        assert entries and all(type(w) is int and w > 0 for w in entries)

    @pytest.mark.parametrize("variant", [ADV, RAN])
    def test_first_infoset_reduction(self, variant):
        for symmetry, first_moves in ((False, 6), (True, 1)):
            sf = build_tree(GameSpec(4, 3, 2, variant), symmetry=symmetry).sf
            assert len(sf.infosets[SEARCHER][()].labels) == first_moves

    def test_infoset_with_differing_action_sets_rejected(self):
        sf = _SequenceForm(1)
        list(sf.decide(SEARCHER, "same", 0, ["p", "q"]))
        with pytest.raises(SolverError, match="differing action sets"):
            list(sf.decide(SEARCHER, "same", 0, ["p"]))

    def test_infoset_reached_from_two_sequences_rejected(self):
        sf = _SequenceForm(1)
        (_, p), (_, q) = sf.decide(SEARCHER, "first", 0, ["p", "q"])
        list(sf.decide(SEARCHER, "next", p, ["r"]))
        with pytest.raises(SolverError, match="perfect recall violated"):
            list(sf.decide(SEARCHER, "next", q, ["r"]))

    def test_built_game_holds_only_the_sequence_form(self):
        # A node object per extensive-form node would hold several MB here.
        tracemalloc.start()
        try:
            tree = build_tree(GameSpec(6, 3, 3, "random"))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.num_nodes > 10_000
        assert held < 1_000_000

    @pytest.mark.parametrize("variant", [ADV, RAN])
    def test_walk_is_freed_on_return(self, variant):
        # The walk and its listing memo are self-recursive closures over the
        # sequence form.  Left to the cycle collector, each dropped build of
        # the full (4,3,2) game (about 0.7 MB) outlives its call.
        spec = GameSpec(4, 3, 2, variant)
        build_tree(spec, symmetry=False)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(3):
                build_tree(spec, symmetry=False)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000

    @pytest.mark.parametrize("variant", [ADV, RAN])
    @pytest.mark.parametrize("symmetry", [True, False])
    def test_build_leaves_no_cyclic_garbage(self, symmetry, variant):
        # Nothing a build leaves, such as the walk's listing memo, needs the cycle collector.
        assert _cyclic_garbage(lambda: build_tree(GameSpec(3, 3, 2, variant), symmetry=symmetry)) == []

    def test_random_build_peak_memory(self):
        # One merged listing per state keeps this build's peak near 8 MB.
        tracemalloc.start()
        try:
            build_tree(GameSpec(5, 5, 2, RAN))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15_000_000

    def test_cooperative_rejected(self):
        with pytest.raises(ValueError):
            build_tree(GameSpec(3, 3, 2, Variant.COOPERATIVE))

    def test_budget_rejection_reports_estimate(self):
        with pytest.raises(BudgetExceededError) as err:
            build_tree(GameSpec(6, 4, 3, ADV), budget=50)
        assert err.value.estimate > 50

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_random_budget_rejection_reports_estimate(self, symmetry):
        with pytest.raises(BudgetExceededError) as err:
            build_tree(GameSpec(6, 4, 3, RAN), symmetry=symmetry, budget=50)
        assert err.value.estimate > 50

    @pytest.mark.parametrize("variant", [ADV, RAN])
    @pytest.mark.parametrize("symmetry", [True, False])
    def test_budget_bounds_a_state_with_many_actions(self, symmetry, variant):
        # After the first reveal of the reduced (36,2,18) the searcher has
        # 2^18 canonical actions, and in the full game C(36, 18) at the
        # root; listing them all would take seconds to hours and hundreds
        # of MB before a node below that state is counted.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                build_tree(GameSpec(36, 2, 18, variant), symmetry=symmetry, budget=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.estimate > 1000
        assert peak < 5_000_000

    def test_budget_bounds_the_placements_before_they_are_listed(self, monkeypatch):
        # (30,10,2) has C(39, 10), about 6.4e8, placements: the hider's
        # root labels, which the walk cannot bound as it reads them.
        def listed(n, d):
            raise AssertionError("placements listed")

        monkeypatch.setattr(solver, "enumerate_allocations", listed)
        with pytest.raises(BudgetExceededError) as err:
            build_tree(GameSpec(30, 10, 2, ADV), symmetry=False, budget=1000)
        assert err.value.estimate == comb(39, 10)

    @pytest.mark.parametrize("variant", [ADV, RAN])
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("n,d,k", [(2, 1, 1), (3, 2, 2), (3, 3, 2), (4, 2, 3), (4, 3, 2)])
    def test_budget_equal_to_the_node_count_suffices(self, n, d, k, symmetry, relaxed, variant):
        spec = GameSpec(n, d, k, variant)
        nodes = build_tree(spec, symmetry, relaxed).num_nodes
        assert build_tree(spec, symmetry, relaxed, budget=nodes).num_nodes == nodes
        with pytest.raises(BudgetExceededError):
            build_tree(spec, symmetry, relaxed, budget=nodes - 1)


class TestBuildChecks:
    """Small games, some on a deliberately wrong denominator or a stand-in
    listing, that reach the builder's own checks, budget counts, merges and
    keys."""

    def test_forced_win_off_the_denominator_rejected(self):
        # The query finds the treasure in 1 of 2 draws and wins: 1/2, not a multiple of 1/1.
        with pytest.raises(SolverError, match="not a multiple of 1/1"):
            solver._build(GameSpec(2, 1, 1, RAN), True, False, 100, _SequenceForm(1))

    def test_merged_reveal_off_the_denominator_rejected(self):
        # Pattern (2, 0): the first query's only reveal, at 1/2, leads on to a second find.
        with pytest.raises(SolverError, match="not a multiple of 1/1"):
            solver._build(GameSpec(2, 2, 1, RAN), True, False, 100, _SequenceForm(1))

    def test_each_forced_win_stays_on_the_denominator(self, monkeypatch):
        # A stand-in draw listing: two draws, of 1 and 2 ordered picks out of
        # 3, each win into its own state.  Together they make 1, but each is
        # off the denominator 1.
        def draws(untouched, f):
            return [((1,), 1, (0, 0)), ((1,), 2, (1, 0))]

        monkeypatch.setattr(solver, "fresh_draws", draws)
        with pytest.raises(SolverError, match="not a multiple of 1/1"):
            solver._build(GameSpec(3, 1, 1, ADV), True, False, 100, _SequenceForm(1))

    def test_hider_decision_between_two_boxes(self):
        # Pattern (1, 1): the first query finds both treasures, and the hider
        # picks which box pays, keyed (root state, observations, query,
        # serial).  Every line then wins at the second query.
        sf = _SequenceForm(2)
        assert solver._build(GameSpec(2, 2, 2, ADV), True, False, 100, sf) == 14
        reveal = (((), (1, 1), 0), (), (0, 1), 1)
        assert list(sf.infosets[HIDER]) == [("root",), reveal]
        win = _sequence(sf, SEARCHER, (((0, 1), 0),), (0, 1))
        together = _sequence(sf, HIDER, ("root",), (2, 0))
        assert sf.payoff == {together: {win: 2}, **{_sequence(sf, HIDER, reveal, box): {win: 2} for box in (0, 1)}}

    def test_forced_reveals_into_one_state_walk_it_once(self):
        # Pattern (2, 1, 0), first query (0, 1): the draws (2, 0) and (0, 2)
        # each reveal only their box of two treasures, into label 0 and the
        # state ((1, 0), (1,), 1).  The two merge, so the hider's decision
        # there, at query (0, 2), is one information set, not one per draw;
        # its serial 3 puts it after the decision of draw (2, 1) and the one
        # below that, and before the decision of draw (1, 2).
        sf = build_tree(GameSpec(3, 3, 2, ADV), symmetry=True).sf
        root = ((), (2, 1, 0), 0)
        below = [key for key in sf.infosets[HIDER] if key[0] == root and key[2] == (0, 2)]
        assert below == [(root, (((0, 1), 0),), (0, 2), 3)]

    def test_budget_checked_inside_a_state(self, monkeypatch):
        # A stand-in listing of 200 draws that find nothing: the searcher's
        # node, the query's chance node and a node per draw overflow the
        # budget within the start state, before its count is added to the
        # hider's root.
        monkeypatch.setattr(solver, "fresh_draws", lambda untouched, f: [((0,), 1, (1,))] * 200)
        with pytest.raises(BudgetExceededError) as err:
            solver._build(GameSpec(2, 1, 1, RAN), True, False, 100, _SequenceForm(2))
        assert err.value.estimate == 202

    def test_budget_stops_an_endless_listing_of_queries(self, monkeypatch):
        # A stand-in query listing far longer than the budget: each query
        # needs a node, so no more than budget + 1 of them are read.
        read = []

        def actions(t0, fresh, k, relaxed):
            for _ in range(10**6):
                read.append(t0)
                yield (0,)

        monkeypatch.setattr(solver, "_canonical_actions", actions)
        with pytest.raises(BudgetExceededError) as err:
            solver._build(GameSpec(2, 1, 1, RAN), True, False, 100, _SequenceForm(2))
        assert err.value.estimate > 100
        assert len(read) <= 101


# The sequence forms of the ``solve`` and ``wide`` games and of two full
# games: nodes, (searcher, hider) sequences, (searcher, hider) information
# sets, payoff entries and, in id order, each hider sequence's payoff total
# over ``sf.denominator``.  A walk that drops or double-counts a forced win
# moves the totals.
SEQUENCE_FORMS = [
    # n, d, k, variant, symmetry
    ((5, 3, 3, ADV, True), 4711, (180, 123), (20, 60), 1219, (
        0, 1584, 1890, 144, 36, 36, 24, 24, 132, 144, 36, 36, 24, 24, 132, 108, 108, 108, 108, 108, 108, 108,
        108, 132, 144, 36, 36, 24, 24, 132, 144, 36, 36, 24, 24, 144, 36, 36, 24, 24, 132, 132, 144, 36, 36,
        24, 24, 648, 288, 72, 72, 48, 48, 288, 72, 72, 48, 48, 288, 72, 72, 48, 48, 612, 72, 72, 72, 72, 72,
        72, 72, 72, 612, 72, 72, 72, 72, 72, 72, 72, 72, 612, 72, 72, 72, 72, 72, 72, 72, 72, 612, 72, 72, 72,
        72, 72, 72, 72, 72, 216, 216, 216, 216, 216, 216, 612, 72, 72, 72, 72, 72, 72, 72, 72, 612, 72, 72,
        72, 72, 72, 72, 72, 72
    )),
    ((5, 4, 2, ADV, True), 15764, (792, 224), (95, 110), 2362, (
        0, 720, 1728, 144, 18, 18, 36, 12, 12, 30, 90, 168, 36, 36, 120, 48, 48, 36, 36, 90, 144, 18, 18, 36,
        12, 12, 30, 2304, 288, 36, 36, 60, 72, 24, 24, 288, 36, 36, 60, 72, 24, 24, 192, 192, 240, 336, 72,
        72, 72, 72, 2304, 432, 32, 32, 56, 12, 12, 56, 12, 12, 16, 16, 56, 12, 12, 56, 12, 12, 16, 16, 80, 12,
        12, 80, 12, 12, 368, 56, 12, 12, 40, 16, 16, 12, 12, 192, 32, 32, 192, 32, 32, 64, 64, 240, 32, 32,
        240, 32, 32, 32, 32, 32, 32, 32, 32, 368, 56, 12, 12, 40, 16, 16, 12, 12, 432, 32, 32, 56, 12, 12, 56,
        12, 12, 16, 16, 56, 12, 12, 56, 12, 12, 16, 16, 80, 12, 12, 80, 12, 12, 384, 32, 32, 12, 12, 40, 56,
        12, 12, 384, 32, 32, 12, 12, 40, 56, 12, 12, 192, 32, 32, 128, 64, 64, 128, 192, 32, 32, 32, 32, 32,
        32, 1152, 2592, 576, 96, 96, 576, 96, 96, 192, 192, 96, 96, 720, 96, 96, 720, 96, 96, 96, 96, 96, 96,
        2592, 576, 96, 96, 576, 96, 96, 192, 192, 96, 96, 720, 96, 96, 720, 96, 96, 96, 96, 96, 96, 1152, 192,
        192, 1152, 192, 192, 192, 192, 192, 192
    )),
    ((4, 4, 2, RAN, True), 9391, (480, 6), (83, 1), 735, (
        0, 3483648, 11342592, 15676416, 21966336, 26873856
    )),
    ((10, 3, 4, RAN, True), 295776, (2542, 4), (49, 1), 4227, (0, 54240399360, 121439969280, 168142625280)),
    ((3, 3, 2, ADV, False), 527, (130, 65), (43, 28), 216, (
        0, 48, 48, 12, 12, 24, 24, 12, 12, 48, 12, 12, 24, 12, 12, 24, 48, 48, 24, 24, 12, 12, 12, 12, 0, 24,
        12, 12, 24, 12, 12, 24, 12, 12, 24, 12, 12, 24, 12, 12, 24, 12, 12, 48, 24, 24, 12, 12, 12, 12, 48,
        12, 12, 24, 12, 12, 24, 48, 24, 12, 12, 24, 12, 12, 48
    )),
    ((3, 3, 2, RAN, False), 833, (130, 11), (43, 1), 216, (
        0, 10368, 19872, 19872, 10368, 19872, 23328, 19872, 19872, 19872, 10368
    )),
]


class TestSequenceForm:
    @pytest.mark.parametrize("case,nodes,sequences,infosets,entries,totals", SEQUENCE_FORMS)
    def test_pinned_sequence_form(self, case, nodes, sequences, infosets, entries, totals):
        *game, symmetry = case
        tree = build_tree(GameSpec(*game), symmetry=symmetry)
        sf = tree.sf
        assert tree.num_nodes == nodes
        assert (len(sf.seq_list[SEARCHER]), len(sf.seq_list[HIDER])) == sequences
        assert (len(sf.infosets[SEARCHER]), len(sf.infosets[HIDER])) == infosets
        assert sum(map(len, sf.payoff.values())) == entries
        assert tuple(sum(sf.payoff.get(h, {}).values()) for h in range(sequences[1])) == totals


# Sizes of the solved trees and programs: (nodes, lp_rows, lp_cols, pivots,
# searcher_sequences, hider_sequences, searcher_infosets, hider_infosets).
# The sizes change only if a builder changes the shape of a tree; the pivots
# also change with the pricing rule and with the fold, which a reduced game
# with k >= 3 gets.
STATS_KEYS = (
    "nodes",
    "lp_rows",
    "lp_cols",
    "pivots",
    "searcher_sequences",
    "hider_sequences",
    "searcher_infosets",
    "hider_infosets",
)
SOLVE_STATS = [
    # n, d, k, variant, symmetry, relaxed
    ((3, 3, 2, ADV, True, False), (227, 29, 33, 29, 23, 20, 8, 9)),
    ((3, 3, 2, ADV, False, False), (527, 109, 159, 184, 130, 65, 43, 28)),
    ((3, 3, 2, RAN, True, False), (329, 13, 25, 16, 23, 4, 8, 1)),
    ((3, 3, 2, RAN, False, False), (833, 55, 132, 100, 130, 11, 43, 1)),
    ((4, 3, 2, ADV, True, False), (638, 32, 55, 29, 44, 22, 9, 10)),
    ((4, 3, 2, RAN, True, False), (866, 14, 46, 19, 44, 4, 9, 1)),
    ((3, 2, 2, ADV, True, True), (90, 9, 16, 11, 13, 5, 3, 2)),
    ((3, 2, 2, ADV, False, True), (211, 24, 66, 45, 61, 13, 10, 4)),
    ((3, 2, 2, RAN, True, True), (120, 7, 15, 10, 13, 3, 3, 1)),
    ((3, 2, 2, RAN, False, True), (313, 18, 63, 35, 61, 7, 10, 1)),
    ((5, 3, 2, RAN, True, False), (1217, 14, 54, 21, 52, 4, 9, 1)),
    ((6, 3, 3, RAN, True, False), (14711, 26, 302, 27, 300, 4, 21, 1)),  # folded: 19 x 126
    ((4, 3, 3, RAN, True, True), (14522, 62, 742, 132, 740, 4, 57, 1)),  # folded: 51 x 478
    ((5, 2, 2, RAN, False, False), (1666, 38, 213, 67, 211, 16, 21, 1)),
]


# The benchmark's ``wide`` ladder, solved as one sequence-form LP: counts
# that also pin its pivot sequences.  Each of these reduced games has
# ``k >= 3``, so the solver folds its program, and the pivots and
# ``max_denominator_bits`` are the quotient's (``folded_rows`` x
# ``folded_cols``: 6 x 16, 19 x 154 and 24 x 362).  ``max_denominator_bits``
# measures the rows of the form ``lp._form`` picks, whole tableau rows for
# all three quotients.
LADDER_KEYS = ("nodes", "lp_rows", "lp_cols", "pivots", "degenerate_pivots", "max_denominator_bits")
LADDER_STATS = [
    ((12, 2, 6, RAN), (8860, 6, 68, 6, 4, 5)),
    ((9, 3, 3, RAN), (22160, 26, 369, 22, 20, 12)),
    ((10, 3, 4, RAN), (295776, 54, 2544, 30, 25, 14)),
]

# The benchmark's ``solve`` workload's adversary programs, in the same keys:
# their pivot counts are Devex pricing's after the hider's values enter.
# ``(5,3,3)`` is folded to 40 x 106 and its pivots are the quotient's;
# ``(5,4,2)``, with ``k = 2``, is solved as it is.
SOLVE_WORKLOAD_STATS = [
    ((5, 3, 3, ADV), (4711, 144, 241, 51, 43, 14)),
    ((5, 4, 2, ADV), (15764, 320, 903, 295, 283, 10)),
]


def _program_stats(n, d, k, variant, *flags):
    """Stats of the one sequence-form LP of a game.  ``solve`` runs it for
    the adversary; a random game is solved by column generation, so its
    monolithic program is solved here directly."""
    solved = solve_cached if variant == ADV else sequence_lp_cached
    return solved(n, d, k, variant, *flags).stats


# Column generation on the ladder and on the ``solve`` workload's random
# game: master solves and their pivots in total.
COLUMN_GENERATION_STATS = [
    ((12, 2, 6, RAN), (2, 5)),
    ((9, 3, 3, RAN), (3, 9)),
    ((10, 3, 4, RAN), (5, 19)),
    ((4, 4, 2, RAN), (11, 71)),
]


class TestSolveStats:
    @pytest.mark.parametrize("case,expected", SOLVE_STATS)
    def test_tree_and_program_sizes(self, case, expected):
        stats = _program_stats(*case)
        assert tuple(stats[key] for key in STATS_KEYS) == expected

    @pytest.mark.parametrize("case,expected", LADDER_STATS)
    def test_wide_ladder_counts(self, case, expected):
        stats = _program_stats(*case)
        assert tuple(stats[key] for key in LADDER_KEYS) == expected

    @pytest.mark.parametrize("case,expected", SOLVE_WORKLOAD_STATS)
    def test_solve_workload_counts(self, case, expected):
        stats = _program_stats(*case)
        assert tuple(stats[key] for key in LADDER_KEYS) == expected

    @pytest.mark.parametrize("case,folded", [((5, 3, 3, ADV), (40, 106)), ((4, 4, 2, RAN), None),
                                             ((5, 4, 2, ADV), None), ((3, 3, 3, ADV, False), None)])
    def test_fold_stats_name_the_quotient(self, case, folded):
        # Only a reduced game with k >= 3 folds; its lp_rows and lp_cols stay
        # its own program's.  A k = 2, random-revealer or full game's stats
        # have no fold keys, so their payloads are as before.
        stats = solve_cached(*case).stats
        if folded:
            assert (stats["folded_rows"], stats["folded_cols"]) == folded
            assert stats["fold_seconds"] > 0
        else:
            assert not {"folded_rows", "folded_cols", "fold_seconds"} & stats.keys()

    @pytest.mark.parametrize("case,expected", COLUMN_GENERATION_STATS)
    def test_column_generation_counts(self, case, expected):
        stats = solve_cached(*case).stats
        assert (stats["iterations"], stats["pivots"]) == expected


def _captured_programs(monkeypatch) -> list:
    """The programs ``solver`` hands to ``solve_lp`` from now on, each with
    its solution, in call order."""
    calls = []
    real = lpmod.solve_lp

    def captured(program, **options):
        sol = real(program, **options)
        calls.append((program, sol))
        return sol

    monkeypatch.setattr(solver.lpmod, "solve_lp", captured)
    return calls


class TestProgramRows:
    """The integer rows the solver writes read as the Fraction rows
    ``{q: 1, q': -1, s: -w/D}`` and ``{v: 1, i: -col[h]/den}``, and sums to
    one, that an assembly in Fractions writes."""

    def test_sequence_form_rows(self, monkeypatch):
        calls = _captured_programs(monkeypatch)
        tree = build_tree(GameSpec(5, 3, 3, ADV))
        solve_tree(tree)
        ((program, _),) = calls
        sf = tree.sf
        n_sseq = len(sf.seq_list[SEARCHER])
        q_col = {info.id: col for col, info in enumerate(sf.infosets[HIDER].values(), n_sseq + 1)}
        expected = [({0: Fraction(1)}, lpmod.EQUAL, Fraction(1))]
        for info in sf.infosets[SEARCHER].values():
            expected.append(({**dict.fromkeys(info.sids, Fraction(1)), info.parent: Fraction(-1)},
                             lpmod.EQUAL, Fraction(0)))
        for h_seq, seq in enumerate(sf.seq_list[HIDER]):
            row = {q_col[seq[-1][0]] if seq else n_sseq: Fraction(1)}
            for info in sf.after[HIDER].get(h_seq, ()):
                row[q_col[info.id]] = Fraction(-1)
            for s_seq, w in sf.payoff.get(h_seq, {}).items():
                if w:
                    row[s_seq] = Fraction(-w, sf.denominator)
            expected.append((row, lpmod.LESS_EQUAL, Fraction(0)))
        assert [(row, sense, b) for (row, b), sense in zip(fraction_rows(program), program.senses)] == expected

    def test_master_rows(self, monkeypatch):
        calls = _captured_programs(monkeypatch)
        plans = []
        real = solver._best_response

        def recorded(sf, y):
            value, plan = real(sf, y)
            plans.append(plan)
            return value, plan

        monkeypatch.setattr(solver, "_best_response", recorded)
        tree = build_tree(GameSpec(4, 4, 2, RAN))
        solve_tree(tree)
        sf = tree.sf
        den = sf.denominator
        hider = range(1, len(sf.seq_list[HIDER]))
        columns = [{h: sum(sf.payoff.get(h, {}).get(s, 0) for s in plan) for h in hider} for plan in plans]
        assert len(calls) == 11
        for v, (program, _) in enumerate(calls, 1):
            expected = [({v: Fraction(1), **{i: Fraction(-col[h], den) for i, col in enumerate(columns[:v])
                                               if col[h]}}, lpmod.LESS_EQUAL, Fraction(0)) for h in hider]
            expected.append((dict.fromkeys(range(v), Fraction(1)), lpmod.EQUAL, Fraction(1)))
            assert [(row, sense, b) for (row, b), sense in zip(fraction_rows(program), program.senses)] == expected

    def test_only_the_objective_goes_over_an_lcm(self, monkeypatch):
        # Integer rows are stored without a Fraction, and the form and the
        # certificate read them as stored: one lcm per solve, the objective's.
        objectives = []
        real = lpmod._Row.over_lcm

        def counted(row, rhs):
            objectives.append(row)
            return real(row, rhs)

        monkeypatch.setattr(lpmod._Row, "over_lcm", staticmethod(counted))
        solve(GameSpec(5, 3, 3, ADV))
        assert len(objectives) == 1
        assert solve(GameSpec(4, 4, 2, RAN)).stats["iterations"] == len(objectives) - 1 == 11


class TestSolveKnownValues:
    def test_332_adversary(self):
        assert solve_cached(3, 3, 2, ADV).value == Fraction(3, 5)

    def test_332_random(self):
        assert solve_cached(3, 3, 2, RAN).value == Fraction(12, 19)

    def test_432_adversary(self):
        assert solve_cached(4, 3, 2, ADV).value == Fraction(2, 5)

    def test_query_everything(self):
        assert solve_cached(2, 1, 2, ADV).value == 1

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
    def test_single_box_queries_hit_the_combinatorial_floor(self, n, d):
        # With k = 1 no adaptive information exists: pure placement guessing.
        assert solve_cached(n, d, 1, ADV).value == upper_bound_combinatorial(n, d, 1)

    def test_532_meets_bound(self):
        assert solve_cached(5, 3, 2, ADV).value == Fraction(8, 35)

    def test_denominator_past_the_digits_str_allows(self):
        # The denominator 1! lcm(1..120)^120 has more than 4,300 digits, the
        # most ``str`` of an int gives, so a build that formats it cannot start.
        assert len(str(lcm(*range(1, 121)))) * 120 > 4300
        assert solve(GameSpec(1, 120, 1, RAN)).value == 1


class TestCheckAccuracy:
    def test_432_accurate(self):
        result = check_accuracy(4, 3, 2)
        assert result.accurate and result.value == Fraction(2, 5)

    def test_332_not_accurate(self):
        result = check_accuracy(3, 3, 2)
        assert not result.accurate
        assert result.value == Fraction(3, 5)

    def test_322_accurate(self):
        result = check_accuracy(3, 2, 2)
        assert result.accurate and result.value == Fraction(2, 3)

    def test_542_accurate(self):
        # Independent confirmation that the five-box four-treasure game
        # meets its combinatorial bound of 8/35.
        result = check_accuracy(5, 4, 2)
        assert result.accurate and result.value == Fraction(8, 35)


SMALL_SPECS = [
    (n, d, k)
    for n in range(1, 5)
    for d in range(1, 4)
    for k in range(1, min(n, 3) + 1)
]


# The k = 3 games of the 264-combination ladder (n 2-5, d 1-3, both
# revealers, relaxed queries or not) whose full game solves in well under a
# second: all but (4,3,3) (relaxed, over the ladder's budget, or not, about
# 10 s under the adversary) and (5,3,3) (over the ladder's budget).
FOLD_LADDER = [
    (n, d, variant, relaxed)
    for n in (3, 4, 5)
    for d in (1, 2, 3)
    for variant in (ADV, RAN)
    for relaxed in (False, True)
    if (n, d) not in ((4, 3), (5, 3))
]


class TestSolverInvariants:
    @pytest.mark.parametrize("n,d,k", SMALL_SPECS)
    def test_values_below_both_bounds(self, n, d, k):
        for variant in (ADV, RAN):
            v = solve_cached(n, d, k, variant).value
            assert v <= upper_bound_combinatorial(n, d, k)
            assert v <= upper_bound_first_query(n, k)

    @pytest.mark.parametrize("n,d,k", SMALL_SPECS)
    def test_adversary_at_most_random(self, n, d, k):
        assert solve_cached(n, d, k, ADV).value <= solve_cached(n, d, k, RAN).value

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2)])
    def test_monotone_in_treasure_count(self, n, k):
        for variant in (ADV, RAN):
            values = [solve_cached(n, d, k, variant).value for d in (1, 2, 3)]
            assert values[0] >= values[1] >= values[2]

    @pytest.mark.parametrize(
        "n,d,k,variant",
        [
            (2, 2, 2, ADV),
            (3, 2, 2, ADV),
            (3, 2, 2, RAN),
            (3, 3, 2, ADV),
            (3, 3, 2, RAN),
            (4, 2, 2, ADV),
            (4, 2, 2, RAN),
            (5, 3, 2, ADV),  # its reduced game merges forced reveals
        ],
    )
    def test_symmetry_reduction_preserves_value(self, n, d, k, variant):
        reduced = solve_cached(n, d, k, variant, symmetry=True).value
        full = solve_cached(n, d, k, variant, symmetry=False).value
        assert reduced == full

    @pytest.mark.parametrize("n,d,variant,relaxed", FOLD_LADDER)
    def test_folded_reduced_game_keeps_the_full_game_value(self, n, d, variant, relaxed):
        # The reduced game's one program, folded (under the random revealer
        # only tests solve it whole), against the full game, never folded.
        reduced = sequence_lp_cached(n, d, 3, variant, True, relaxed)
        full = solve_cached(n, d, 3, variant, symmetry=False, relaxed=relaxed)
        assert "folded_rows" in reduced.stats and "folded_rows" not in full.stats
        assert reduced.value == full.value

    def test_folded_433_adversary_keeps_the_full_game_value(self):
        # The full (4,3,3) A game takes about 10 s; CI solves it from the
        # console and pins its value, 18/25.
        assert solve_cached(4, 3, 3, ADV).value == Fraction(18, 25)

    @pytest.mark.parametrize("n,d,k", [(2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 2)])
    def test_relaxed_queries_do_not_help(self, n, d, k):
        for variant in (ADV, RAN):
            assert (
                solve_cached(n, d, k, variant, relaxed=True).value
                == solve_cached(n, d, k, variant).value
            )

    @pytest.mark.parametrize("variant", [ADV, RAN])
    def test_relaxed_builders_agree(self, variant):
        reduced = solve_cached(3, 2, 2, variant, symmetry=True, relaxed=True).value
        full = solve_cached(3, 2, 2, variant, symmetry=False, relaxed=True).value
        assert reduced == full

    def test_deterministic_output(self):
        a = solve(GameSpec(3, 3, 2, ADV))
        b = solve(GameSpec(3, 3, 2, ADV))
        assert a.value == b.value
        assert a.searcher_plan == b.searcher_plan
        assert a.hider_plan == b.hider_plan


class TestSelfDuality:
    @pytest.mark.parametrize("n,d,variant", [(3, 3, ADV), (3, 3, RAN), (3, 2, ADV), (3, 2, RAN)])
    def test_plans_certify_the_value_from_both_sides(self, n, d, variant):
        self._check(n, d, variant, relaxed=False)

    # Random games are solved by column generation; these check its plans
    # with relaxed queries and at one more size.
    @pytest.mark.parametrize("n,d,relaxed", [(3, 2, True), (3, 3, True), (4, 2, False)])
    def test_column_generation_plans_certify_the_value(self, n, d, relaxed):
        self._check(n, d, RAN, relaxed)

    @staticmethod
    def _check(n, d, variant, relaxed):
        spec = GameSpec(n, d, 2, variant)
        result = solve_cached(n, d, 2, variant, symmetry=False, relaxed=relaxed)

        reply_to_searcher = searcher_plan_value(spec, result.searcher_behavior)
        assert reply_to_searcher == result.value

        root_dist = result.hider_behavior[("root",)]
        weights = dict(root_dist)
        table = {  # a reveal's key is (root state, observations, query, serial)
            (key[0][0], key[1], key[2]): dist for key, dist in result.hider_behavior.items() if key != ("root",)
        }

        def policy(remaining, history, query):
            counts = list(remaining)
            for _, b in history:
                counts[b] += 1
            dist = table.get((tuple(counts), tuple(history), tuple(query)))
            if dist is None:  # unreachable under the optimal plan
                positive = [b for b in query if remaining[b] > 0]
                return [(positive[0], Fraction(1))]
            return dist

        value, _ = hider_strategy_value(
            spec, weights, policy if variant == ADV else None
        )
        assert value == result.value


class TestRealizationPlanCheck:
    @staticmethod
    def _solved():
        """A solved (3,3,2) adversary game and its hider plan by sequence id."""
        tree = build_tree(GameSpec(3, 3, 2, ADV))
        ids = {seq: h for h, seq in enumerate(tree.sf.seq_list[HIDER])}
        return tree.sf, {ids[seq]: w for seq, w in solve_tree(tree).hider_plan.items()}

    def test_solved_plan_passes(self):
        sf, plan = self._solved()
        _behavior(sf, HIDER, plan)

    def test_root_weight_must_be_one(self):
        sf, plan = self._solved()
        with pytest.raises(SolverError, match="root weight is not 1"):
            _behavior(sf, HIDER, {**plan, 0: Fraction(1, 2)})

    def test_negative_weight(self):
        sf, plan = self._solved()
        h = next(h for h in plan if h)
        with pytest.raises(SolverError, match="negative realization weight"):
            _behavior(sf, HIDER, {**plan, h: -plan[h]})

    def test_weight_moved_to_another_set_breaks_flow(self):
        # Move the heaviest root choice's weight onto a reveal decision.
        sf, plan = self._solved()
        root = sf.infosets[HIDER][("root",)]
        reveal = next(info for info in sf.infosets[HIDER].values() if info is not root)
        h = max(root.sids, key=lambda sid: plan.get(sid, 0))
        moved = {**plan, h: Fraction(0), reveal.sids[0]: plan.get(reveal.sids[0], 0) + plan[h]}
        with pytest.raises(SolverError, match="flow conservation"):
            _behavior(sf, HIDER, moved)

    def test_a_corrupted_searcher_weight_fails_the_result(self):
        # Halve the weight of a searcher sequence past the root: the flow
        # into or out of it no longer balances.
        tree = build_tree(GameSpec(3, 3, 2, ADV))
        result = solve_tree(tree)
        plans = []
        for player, plan in ((SEARCHER, result.searcher_plan), (HIDER, result.hider_plan)):
            ids = {seq: i for i, seq in enumerate(tree.sf.seq_list[player])}
            plans.append({ids[seq]: w for seq, w in plan.items()})
        searcher_plan, hider_plan = plans
        s = next(s for s, w in searcher_plan.items() if s and w)
        corrupted = {**searcher_plan, s: searcher_plan[s] / 2}
        with pytest.raises(SolverError, match="searcher plan violates flow conservation"):
            solver._result(tree, 0.0, result.value, corrupted, hider_plan, {})


# Random games small enough for the monolithic LP, on both builders,
# relaxed and exact (the full builder's (4,3,k) games take too long).
RANDOM_GRID = [
    (n, d, k, symmetry, relaxed)
    for n, d, k in SMALL_SPECS
    for symmetry in (True, False)
    for relaxed in (False, True)
    if symmetry or (n, d) != (4, 3)
]


class TestColumnGeneration:
    @pytest.mark.parametrize(
        "n,d,k,symmetry,relaxed",
        RANDOM_GRID + [(4, 4, 2, True, False)] + [(*case[:3], True, False) for case, _ in LADDER_STATS],
    )
    def test_value_equals_the_sequence_lp(self, n, d, k, symmetry, relaxed):
        generated = solve_cached(n, d, k, RAN, symmetry, relaxed)
        assert "iterations" in generated.stats
        assert generated.value == sequence_lp_cached(n, d, k, RAN, symmetry, relaxed).value

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_best_response_to_the_hider_plan_is_the_value(self, symmetry):
        # The upper half of the certificate, recomputed from the result.
        tree = build_tree(GameSpec(4, 2, 2, RAN), symmetry=symmetry)
        result = solve_tree(tree)
        ids = {seq: h for h, seq in enumerate(tree.sf.seq_list[HIDER])}
        y = {ids[seq]: w for seq, w in result.hider_plan.items() if seq}
        value, plan = _best_response(tree.sf, y)
        assert value == result.value
        assert 0 in plan

    def test_stats_total_the_master_solves(self, monkeypatch):
        calls = _captured_programs(monkeypatch)
        stats = solve(GameSpec(4, 4, 2, RAN)).stats
        sols = [sol for _, sol in calls]
        assert stats["iterations"] == len(calls) > 1
        assert stats["lp_rows"] == sum(len(program.rows) for program, _ in calls)
        assert stats["lp_cols"] == sum(program.num_vars for program, _ in calls)
        for key in ("pivots", "phase1_pivots", "phase2_pivots", "degenerate_pivots",
                    "phase1_seconds", "phase2_seconds", "certificate_seconds"):
            assert stats[key] == sum(getattr(sol, key) for sol in sols)
        assert stats["bland_fallback"] == any(sol.bland_fallback for sol in sols)
        assert stats["max_denominator_bits"] == max(sol.max_denominator_bits for sol in sols)

    def test_oracle_below_the_master_value_is_an_error(self, monkeypatch):
        real = solver._best_response
        calls = []

        def short(sf, y):
            value, plan = real(sf, y)
            calls.append(plan)
            return (value if len(calls) == 1 else Fraction(-1)), plan

        monkeypatch.setattr(solver, "_best_response", short)
        with pytest.raises(SolverError, match="below the master value"):
            solve(GameSpec(3, 3, 2, RAN))

    def test_oracle_plan_that_misses_its_value_is_an_error(self, monkeypatch):
        # Re-adding a plan the master already holds would never end the loop.
        real = solver._best_response
        plans = []

        def stale(sf, y):
            value, plan = real(sf, y)
            plans.append(plan)
            return value, plans[0]

        monkeypatch.setattr(solver, "_best_response", stale)
        with pytest.raises(SolverError, match="does not earn its value"):
            solve(GameSpec(4, 4, 2, RAN))

    def test_adversary_games_keep_the_sequence_lp(self):
        assert "iterations" not in solve_cached(3, 3, 2, ADV).stats


class TestBestResponse:
    def test_fig432_held_by_every_placement(self):
        response = best_response_value(GameSpec(4, 3, 2, ADV), fig432())
        assert response.value == Fraction(2, 5)
        assert set(response.allocation_values.values()) == {Fraction(2, 5)}

    def test_stubborn_repeat_is_worthless(self):
        tree = StrategyTree(4, 3, 2, ask((0, 1), {0: ask((0, 1), {0: ask((0, 1)), 1: ask((0, 1))})}))
        response = best_response_value(GameSpec(4, 3, 2, ADV), tree)
        assert response.value == 0

    def test_spec_mismatch_reported(self):
        with pytest.raises(ValueError, match=r"\(4,3,2\)"):
            best_response_value(GameSpec(3, 3, 2, ADV), fig432())

    def test_evaluator_memo_is_freed_on_return(self):
        # The memo hangs off a self-recursive closure.  Left to the cycle
        # collector, each call's memo (about 0.75 MB here) outlives it, and
        # three calls hold 2 MB.
        spec, tree = GameSpec(5, 8, 2, ADV), family_infinite_d(5, 8, 2)
        best_response_value(spec, tree)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(3):
                best_response_value(spec, tree)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000

    def test_evaluator_makes_only_the_factorials_a_win_reaches(self):
        # A one-query plan at d = k = 1 wins only with n - 1 labels untouched.
        # A table of u! for every u <= n would peak near 17 MB here, and grow
        # as n^2.
        spec, tree = GameSpec(5000, 1, 1, ADV), StrategyTree(5000, 1, 1, ask([0]))
        tracemalloc.start()
        try:
            value = best_response_value(spec, tree).value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == Fraction(1, 5000)
        assert peak < 1_000_000

    def test_evaluation_leaves_no_cyclic_garbage(self):
        spec, tree = GameSpec(5, 8, 2, ADV), family_infinite_d(5, 8, 2)
        assert _cyclic_garbage(lambda: best_response_value(spec, tree)) == []

    @pytest.mark.parametrize(
        "run",
        [
            lambda: family_infinite_d(6, 8, 2),
            lambda: reachable_records(4, 3),
            lambda: hider_strategy_value(GameSpec(3, 3, 2, RAN), optimal_hider_332(RAN)[0]),
            lambda: searcher_plan_value(GameSpec(3, 3, 2, ADV),
                                        solve_cached(3, 3, 2, ADV, symmetry=False).searcher_behavior),
        ],
        ids=["family_infinite_d", "reachable_records", "hider_strategy_value", "searcher_plan_value"],
    )
    def test_recursive_builders_leave_no_cyclic_garbage(self, run):
        # Each recursive helper refers to itself, and to its memo or output.
        assert _cyclic_garbage(run) == []

    def test_worst_allocation_is_a_witness(self):
        # A deliberately weak 3-box plan: open {0,1}, then wander off.
        tree = StrategyTree(3, 3, 2, ask((0, 1), {0: ask((0, 2), {0: ask((0, 1))})}))
        response = best_response_value(GameSpec(3, 3, 2, ADV), tree)
        assert response.allocation_values[response.worst_allocation] == response.value
        assert all(v >= response.value for v in response.allocation_values.values())


def _most_treasures_rule(counts_in_query, history):
    """Surrender from the fullest queried box; ties go to the highest label
    after an odd number of reveals and to the lowest after an even one."""
    labels = sorted(counts_in_query, reverse=len(history) % 2 == 1)
    return max(labels, key=lambda label: counts_in_query[label])


_REVEAL_CASES = {
    "adversary": (ADV, None),
    "random": (RAN, None),
    "cooperative-least": (Variant.COOPERATIVE, least_treasures_rule),
    "cooperative-most": (Variant.COOPERATIVE, _most_treasures_rule),
}


@hs.composite
def _canonical_trees(draw):
    """A small canonical strategy tree with its game: mixes over up to
    three queries with probabilities over assorted denominators (zero ones
    included), and each reachable branch missing, an explicit end, or a
    subtree."""
    n = draw(hs.integers(1, 4))
    d = draw(hs.integers(1, 3))
    k = draw(hs.integers(1, n))

    def mix(width):
        probs, left = [], Fraction(1)
        for _ in range(draw(hs.integers(1, width)) - 1):
            den = draw(hs.sampled_from((1, 2, 3, 5, 7, 9)))
            p = Fraction(draw(hs.integers(0, den)), den)
            p = p if p <= left else Fraction(0)
            probs.append(p)
            left -= p
        return probs + [left]

    def make(depth, t0):
        entries = []
        for p in mix(3 if depth == 0 else 2):
            size = draw(hs.integers(1, k))
            f = draw(hs.integers(max(0, size - t0), min(size, n - t0)))
            known = tuple(draw(hs.permutations(range(t0)))[: size - f])
            branches = {}
            for box in known + ((t0,) if f else ()):
                kind = draw(hs.sampled_from(("missing", "end", "subtree", "subtree")))
                if kind == "end":
                    branches[box] = None
                elif kind == "subtree" and depth + 1 < d:
                    branches[box] = make(depth + 1, t0 + f)
            entries.append(entry(p, known + tuple(range(t0, t0 + f)), branches))
        return node(*entries)

    return StrategyTree(n, d, k, make(0, 0))


class TestPatternValuesAgainstReference:
    """The integer evaluator against the Fraction walk it replaced: every
    pattern's value must be the identical Fraction."""

    @staticmethod
    def _assert_matches(tree, case):
        variant, rule = _REVEAL_CASES[case]
        spec = GameSpec(tree.n, tree.d, tree.k, variant)
        mix_lcm = _check_strategy(spec, tree)
        got = _pattern_values(spec, tree.root, mix_lcm, rule)
        assert got == reference_pattern_values(spec, tree.root, rule)
        assert all(type(v) is Fraction for v in got.values())

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_canonical_trees(), hs.sampled_from(sorted(_REVEAL_CASES)))
    def test_random_trees(self, tree, case):
        self._assert_matches(tree, case)

    @pytest.mark.parametrize("case", sorted(_REVEAL_CASES))
    @pytest.mark.parametrize(
        "name,params",
        [
            ("fig432", {}),
            ("fig542", {}),
            ("332-adversary", {}),
            ("332-random", {}),
            ("332-cooperative", {}),
            *[("d2", {"k": k}) for k in (1, 2, 3)],
            *[("d3", {"k": k}) for k in (1, 2, 3)],
            *[("infinite-d", dict(n=n, d=d, k=k)) for n, d, k in [(2, 3, 2), (3, 5, 2), (4, 4, 3), (5, 4, 2)]],
        ],
        ids=lambda v: ",".join(f"{a}={b}" for a, b in v.items()) or "fixed" if isinstance(v, dict) else v,
    )
    def test_builtin_families(self, name, params, case):
        self._assert_matches(builtin_family(name, **params), case)

    @pytest.mark.parametrize("case", sorted(_REVEAL_CASES))
    def test_node_reached_at_two_touched_counts(self, case):
        # ``shared`` is one object, reached with labels 0..2 touched after
        # ``(0, 2)`` and with 0..1 touched after ``(0, 1)``: its query label
        # 2 is known in the first place and fresh in the second.  A plan
        # cached per node alone would count the fresh labels of one place
        # in the other.
        shared = ask((0, 2), {0: ask((0, 1)), 2: ask((1, 2))})
        middle = node(entry(Fraction(1, 2), (0, 2), {0: shared}), entry(Fraction(1, 2), (0, 1), {0: shared}))
        tree = StrategyTree(4, 4, 2, ask((0, 1), {0: middle}))
        self._assert_matches(tree, case)


class TestHiderStrategyValue:
    def test_random_table(self):
        weights, _ = optimal_hider_332(RAN)
        value, plan = hider_strategy_value(GameSpec(3, 3, 2, RAN), weights)
        assert value == Fraction(12, 19)
        assert plan["query"] in ([0, 1], [0, 2], [1, 2])

    @pytest.mark.parametrize("q3", [Fraction(0), Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("q4", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_adversary_table_independent_of_free_parameters(self, q3, q4):
        weights, policy = optimal_hider_332(ADV, q3=q3, q4=q4)
        value, _ = hider_strategy_value(GameSpec(3, 3, 2, ADV), weights, policy)
        assert value == Fraction(3, 5)

    @pytest.mark.parametrize("n,d,k", [(3, 3, 2), (4, 3, 2), (3, 2, 2)])
    def test_uniform_hider_caps_at_combinatorial_bound(self, n, d, k):
        allocs = enumerate_allocations(n, d)
        u = Fraction(1, len(allocs))
        value, _ = hider_strategy_value(GameSpec(n, d, k, RAN), {a: u for a in allocs})
        bound = upper_bound_combinatorial(n, d, k)
        assert value <= bound
        if (n, d, k) != (3, 3, 2):
            assert value == bound  # these two triplets meet the bound exactly

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            hider_strategy_value(GameSpec(3, 3, 2, RAN), {(3, 0, 0): Fraction(1, 2)})
        with pytest.raises(ValueError):
            hider_strategy_value(GameSpec(3, 3, 2, RAN), {(2, 0, 0): Fraction(1)})

    @pytest.mark.parametrize("placement", [(4, -1, 0), (1, 1.0, 1), (1, True, 1), (1, "1", 1),
                                           5, frozenset({0, 1, 2}), "111"])
    def test_rejects_a_count_that_is_not_a_nonnegative_int(self, placement):
        # (4, -1, 0) has n = 3 counts summing to d = 3, so only the count
        # check stops it from certifying a value of 1.  A placement is a
        # tuple: a set's counts come in no fixed box order.
        with pytest.raises(ValueError, match=rf"allocation {re.escape(repr(placement))} is not a tuple of "):
            hider_strategy_value(GameSpec(3, 3, 2, RAN), {placement: Fraction(1)})

    @pytest.mark.parametrize(
        "n,k,placement,dist,message",
        [
            (3, 2, (1, 1, 1), [(0, Fraction(1, 2)), (1, Fraction(1, 4))], "invalid distribution"),
            (3, 2, (1, 1, 1), [(0, Fraction(3, 2)), (1, Fraction(-1, 2))], "invalid distribution"),
            (3, 2, (1, 1, 1), [(0, Fraction(1, 2)), (2, Fraction(1, 2))], "empty or unqueried"),
            (3, 3, (1, 1, 0), [(0, Fraction(1, 2)), (2, Fraction(1, 2))], "empty or unqueried"),
            # Naming box 0 twice once kept only the second half, certifying 1/2 where the value is 1.
            (3, 3, (1, 1, 0), [(0, Fraction(1, 2)), (0, Fraction(1, 2))], "invalid distribution .*box 0 is named twice"),
        ],
    )
    def test_rejects_bad_reveal_policy(self, n, k, placement, dist, message):
        spec = GameSpec(n, sum(placement), k, ADV)
        with pytest.raises(ValueError, match=message):
            hider_strategy_value(spec, {placement: Fraction(1)}, lambda counts, history, q: dist)

    @pytest.mark.parametrize("cast", [lambda b: 1.0 if b == 1 else b, lambda b: True if b == 1 else b],
                             ids=["float", "bool"])
    def test_rejects_a_policy_box_that_is_not_an_int(self, cast):
        # 1.0 and True both equal box 1, but a box is named by an int.
        weights, policy = optimal_hider_332(ADV)

        def cast_policy(remaining, history, query):
            return [(cast(b), p) for b, p in policy(remaining, history, query)]

        with pytest.raises(ValueError, match=r"reveal policy returned an invalid distribution \[\("):
            hider_strategy_value(GameSpec(3, 3, 2, ADV), weights, cast_policy)

    def test_adversary_needs_policy_only_when_choices_arise(self):
        # All treasures in one box never offer a choice.
        value, _ = hider_strategy_value(GameSpec(3, 3, 2, ADV), {(3, 0, 0): Fraction(1)})
        assert value == 1  # the searcher simply drills the known box
        # One treasure per box does, at the first query.
        with pytest.raises(ValueError, match="reached a reveal choice but no reveal policy was given"):
            hider_strategy_value(GameSpec(3, 3, 2, ADV), {(1, 1, 1): Fraction(1)})


@pytest.mark.parametrize("call,error,message", [
    (lambda: build_tree(GameSpec(3, 3, 2), budget=0), ValueError, "node budget must be positive"),
    (lambda: best_response_value(GameSpec(4, 3, 2, Variant.COOPERATIVE), fig432()), ValueError,
     "use joint_verify_cooperative"),
    (lambda: best_response_value(GameSpec(4, 3, 2), object()), StrategyError, "expected a StrategyTree"),
    (lambda: hider_strategy_value(GameSpec(3, 3, 2, Variant.COOPERATIVE), {(3, 0, 0): Fraction(1)}), ValueError,
     "driven by the searcher"),
    (lambda: hider_strategy_value(GameSpec(3, 3, 2, RAN), {(3, 0, 0): Fraction(3, 2), (0, 3, 0): Fraction(-1, 2)}),
     ValueError, "negative allocation weight"),
    (lambda: searcher_plan_value(GameSpec(3, 3, 2, Variant.COOPERATIVE), {}), ValueError,
     "no adversarial best response"),
    (lambda: optimal_hider_332("cooperative"), ValueError, "no committed hiding table"),
])
def test_invalid_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestResultSerialization:
    def test_json_round_trip(self):
        result = solve_cached(3, 3, 2, RAN)
        payload = result.to_json_dict()
        again = json.loads(json.dumps(payload))
        assert again == payload
        assert payload["value"] == "12/19"
        root_weights = [
            Fraction(entry["weight"]) for entry in payload["hider_plan"] if not entry["sequence"]
        ]
        assert root_weights == [Fraction(1)]  # the empty hider sequence has weight one

    def test_searcher_labels_are_queries(self):
        # A reduced game's searcher label is its query in first-touch labels.
        payload = solve_cached(5, 3, 3, ADV).to_json_dict()
        labels = [label for entry in payload["searcher_plan"] for _, label in entry["sequence"]]
        assert labels
        for label in labels:
            assert type(label) is list and len(label) == 3 and all(type(box) is int for box in label)
            assert label == sorted(set(label))
        hider_labels = [label for entry in payload["hider_plan"] for _, label in entry["sequence"]]
        assert not any(isinstance(label, dict) for label in labels + hider_labels)

    @staticmethod
    def _digest(result):
        """sha256 of a result's payload, wall times aside."""
        payload = result.to_json_dict()
        payload["stats"] = {key: v for key, v in payload["stats"].items() if not key.endswith("_seconds")}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("variant,digest", [
        (ADV, "744dbb6c7406af45c8ef8dddaeb516f46cc52a3b2c47eafaf1858fd01b838259"),
        (RAN, "c8e3f2734d7c2ef583a0e266be00ba32c41bd32850b0b9decbb9747b65b6539c"),
    ])
    def test_full_game_payload_is_pinned(self, variant, digest):
        # The full game's payload, wall times aside, is pinned: its labels
        # are boxes, queries of boxes and placements, however the builder
        # states its positions.
        assert self._digest(solve_cached(3, 3, 2, variant, symmetry=False)) == digest

    @pytest.mark.parametrize("n,d,k,variant,digest", [
        # folded, in the revised form
        (5, 3, 3, ADV, "177e40f9d6bb2959f10085ca8ca161ccb7a9c886094a4aa6ddb0d4d118c75f32"),
        # not folded, in the revised form
        (5, 4, 2, ADV, "72c450d886b66e8a200506442a54062e0ff33b5254b6c63fb7c99708c14a3eb2"),
        # column-generation masters, in the tableau
        (4, 4, 2, RAN, "71c0d5c7142d6fd26505b132100426752c721a42be0f13e2a5e43e71357999ae"),
        # folded by a partition of singletons: the program is its own quotient
        (4, 1, 3, ADV, "9825ebc091d522c48e08aac45a103e6f2d34d6cfcec990b634e93c66cce02d57"),
    ])
    def test_reduced_game_payload_is_pinned(self, n, d, k, variant, digest):
        # The exact LP's counters, value and plans on each of its paths show
        # in these payloads, wall times aside.
        assert self._digest(solve_cached(n, d, k, variant)) == digest

    def test_rationals_always_slashed(self):
        payload = solve_cached(2, 1, 2, ADV).to_json_dict()
        assert payload["value"] == "1/1"
        for plan in (payload["searcher_plan"], payload["hider_plan"]):
            for entry in plan:
                assert "/" in entry["weight"]
