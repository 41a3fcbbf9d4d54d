import warnings
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cachegame import accumulation as ac
from helpers import max_losing_reference

F = Fraction

GOLD = [F(1, 2), F(1), F(3, 2), F(5, 3), F(11, 6), F(2), F(3)]


def spec(n, k, d):
    return ac.AccumulationSpec(n, k, F(d))


def small_instances(n):
    """Every k for n boxes, each with the GOLD totals and d = n/k."""
    return [(n, k, d) for k in range(1, n + 1) for d in sorted(set(GOLD) | {F(n, k)})]


class TestCountWinning:
    def test_all_in_one_box(self):
        g = ac.GoldDistribution((F(2), 0, 0, 0, 0))
        assert ac.count_winning_subsets(g, 3) == 6  # triples through box 0

    def test_thin_uniform_never_wins(self):
        g = ac.GoldDistribution((F(1, 5),) * 5)
        assert ac.count_winning_subsets(g, 3) == 0

    def test_three_loaded_boxes(self):
        g = ac.GoldDistribution((F(5, 9), F(5, 9), F(5, 9), 0, 0))
        # Any two loaded boxes clear one unit; one alone does not.
        assert ac.count_winning_subsets(g, 3) == 7

    def test_tie_wins(self):
        g = ac.GoldDistribution((F(1, 2), F(1, 2), 0))
        assert ac.count_winning_subsets(g, 2) == 1

    @pytest.mark.parametrize("d", [F(3, 2), F(2), F(7, 3)])
    def test_winning_plus_losing_is_everything(self, d):
        total = comb(5, 3)
        for r in range(1, 6):
            g = ac.GoldDistribution((d / r,) * r + (F(0),) * (5 - r))
            wins = ac.count_winning_subsets(g, 3)
            losing = sum(
                1
                for s in __import__("itertools").combinations(range(5), 3)
                if sum(g.amounts[i] for i in s) < 1
            )
            assert wins + losing == total


class TestRuckleForms:
    def test_pair_form_when_gold_is_scarce(self):
        r, wins, g = ac.best_ruckle_distribution(spec(5, 3, F(11, 6)))
        assert (r, wins) == (2, 3)
        assert g.amounts[0] == F(11, 12)

    def test_single_box_once_gold_is_plentiful(self):
        for d in (F(2), F(3), F(5), F(9)):
            r, wins, _ = ac.best_ruckle_distribution(ac.AccumulationSpec(5, 3, d))
            assert (r, wins) == (1, 6)

    def test_even_split_ties_resolve_to_smallest_r(self):
        r, wins, _ = ac.best_ruckle_distribution(spec(4, 2, F(2)))
        assert (r, wins) == (1, 3)  # r=1 and r=4 tie at half the pairs

    def test_thin_uniform_is_best(self):
        r, wins, _ = ac.best_ruckle_distribution(spec(5, 3, F(1)))
        assert wins == 0
        assert r == 4  # r=3 loses to the tie rule: the loaded triple sums to 1


class TestExactMaximum:
    def test_scarce_regime(self):
        losing, witness = ac.max_losing_subsets_exact(spec(5, 3, F(11, 6)))
        assert losing == 7
        assert witness.amounts == (F(11, 12), F(11, 12), 0, 0, 0)

    def test_boundary_of_the_impossibility(self):
        losing, _ = ac.max_losing_subsets_exact(spec(5, 3, F(5, 3)))
        assert losing == 7  # and never 8: the ordered system refutes it

    def test_unit_singles_flip_the_regime(self):
        losing, witness = ac.max_losing_subsets_exact(spec(5, 3, F(2)))
        assert losing == 4
        assert witness.amounts == (F(2), 0, 0, 0, 0)

    def test_below_the_thin_threshold(self):
        losing, _ = ac.max_losing_subsets_exact(spec(5, 3, F(3, 2)))
        assert losing == comb(5, 3)

    def test_four_boxes_pair_queries(self):
        losing, _ = ac.max_losing_subsets_exact(spec(4, 2, F(2)))
        assert losing == 3

    def test_monotone_in_gold(self):
        grid = [F(1), F(4, 3), F(5, 3), F(11, 6), F(2), F(7, 3), F(3), F(4)]
        values = [ac.max_losing_subsets_exact(spec(5, 3, d))[0] for d in grid]
        assert values == sorted(values, reverse=True)

    def test_witness_attains_the_count(self):
        losing, witness = ac.max_losing_subsets_exact(spec(5, 3, F(11, 6)))
        wins = ac.count_winning_subsets(witness, 3)
        assert comb(5, 3) - wins == losing

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            ac.max_losing_subsets_exact(spec(9, 2, F(2)))


class TestSearchAgainstReference:
    @pytest.mark.parametrize("n,k,d", [i for n in range(1, 7) for i in small_instances(n)])
    def test_count_and_witness(self, n, k, d):
        s = spec(n, k, d)
        assert ac.max_losing_subsets_exact(s) == max_losing_reference(s)

    @settings(max_examples=40, deadline=None)
    @given(
        hs.integers(1, 6).flatmap(lambda n: hs.tuples(hs.just(n), hs.integers(1, n))),
        hs.fractions(min_value=F(1, 6), max_value=4, max_denominator=6),
    )
    def test_random_instances(self, nk, d):
        s = spec(*nk, d)
        assert ac.max_losing_subsets_exact(s) == max_losing_reference(s)

    @pytest.mark.parametrize("n,k,d,programs", [(6, 3, 2, 28), (6, 3, 3, 28), (7, 3, 2, 1)])
    def test_programs_solved(self, monkeypatch, n, k, d, programs):
        # The reference solves 58, 62 and 222 programs here.
        calls = []
        check_feasible = ac.lpmod.check_feasible
        monkeypatch.setattr(ac.lpmod, "check_feasible", lambda *a: calls.append(a) or check_feasible(*a))
        ac.max_losing_subsets_exact(spec(n, k, d))
        assert len(calls) == programs


class TestCertificateReuse:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_refuted_family_is_infeasible(self, n):
        # Solve every family, then hold each certificate's cut against
        # every family: each one it refutes must be infeasible.
        refuted = 0
        for _, k, d in small_instances(n):
            subsets, richer, poorer, families = ac._up_closed_families(n, k)
            feasible, cuts = {}, []
            for win in families:
                min_win, max_lose = ac._frontier(win, richer, poorer)
                result = ac._feasible_family(
                    n, d, [subsets[i] for i in min_win], [subsets[i] for i in max_lose]
                )
                feasible[win] = result.feasible
                if not result.feasible:
                    cuts.append((win, ac._cut(n, result.certificate, min_win, max_lose)))
            for source, cut in cuts:
                assert ac._refutes(cut, source)
                for win in families:
                    if win != source and ac._refutes(cut, win):
                        assert not feasible[win], (k, d, source, win)
                        refuted += 1
        assert refuted or n == 1


class TestDivisibilityBound:
    def test_four_boxes(self):
        holds, losing, allowed = ac.verify_divisibility_bound(4, 2, F(2))
        assert holds and losing == 3 and allowed == 3

    def test_six_boxes_pairs(self):
        holds, losing, allowed = ac.verify_divisibility_bound(6, 2, F(3))
        assert holds and losing <= allowed == 10

    def test_six_boxes_triples(self):
        holds, losing, allowed = ac.verify_divisibility_bound(6, 3, F(2))
        assert holds and losing <= allowed == 10

    def test_whole_board_query(self):
        losing, _ = ac.max_losing_subsets_exact(spec(4, 4, F(1)))
        assert losing == 0  # the single full query holds all the gold

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ac.verify_divisibility_bound(5, 3, F(2))
        with pytest.raises(ValueError):
            ac.verify_divisibility_bound(4, 2, F(1))


class TestRuckleConsistency:
    @pytest.mark.parametrize(
        "n,k,d",
        [(5, 3, F(11, 6)), (5, 3, F(2)), (5, 3, F(3, 2)), (4, 2, F(2)), (4, 2, F(5, 4))],
    )
    def test_some_equal_split_attains_the_optimum(self, n, k, d):
        # A shortfall here would be a finding about the equal-split
        # conjecture, not a code bug, so it is reported rather than failed.
        losing, _ = ac.max_losing_subsets_exact(ac.AccumulationSpec(n, k, d))
        flat_losing = max(
            comb(n, k)
            - ac.count_winning_subsets(
                ac.GoldDistribution((d / r,) * r + (F(0),) * (n - r)), k
            )
            for r in range(1, n + 1)
        )
        assert flat_losing <= losing
        if flat_losing != losing:
            warnings.warn(
                f"equal-split placements reach only {flat_losing} of {losing} "
                f"losing subsets at (n={n}, k={k}, d={d})"
            )


class TestMmsProbe:
    def test_single_loaded_box(self):
        assert ac.mms_probability([1, 0, 0, 0, 0], 3) == F(2, 5)

    def test_constant_vector(self):
        assert ac.mms_probability([F(1, 3)] * 6, 2) == 0

    def test_single_box_singleton_queries(self):
        assert ac.mms_probability([1] + [0] * 6, 1) == F(6, 7)

    @pytest.mark.parametrize(
        "amounts",
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [3, 1, 1, 1, 0, 0, 0, 0],
            [F(1, 2)] * 4 + [F(-1, 2)] * 4,
            [5, -1, -1, -1, 0, 0, 0, 0],
            [2, 1, 0, 0, -1, -1, 0, 0],
        ],
    )
    def test_fraction_below_mean_capped(self, amounts):
        # Probe of the proportional-share conjecture on 4k <= n instances;
        # a violation would be a reportable finding.
        value = ac.mms_probability(amounts, 2)
        if value > 1 - F(2, len(amounts)):
            warnings.warn(f"below-mean fraction {value} exceeds 1 - k/n for {amounts}")
        assert value <= 1


class TestEvaluate:
    def test_summary_round_trip(self):
        s = spec(5, 3, F(1))
        g = ac.GoldDistribution((F(1, 5),) * 5)
        out = ac.evaluate_distribution(s, g)
        assert out == {
            "winning": 0,
            "total": 10,
            "probability": "0/1",
            "witness": ["1/5", "1/5", "1/5", "1/5", "1/5"],
        }

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError, match="totals"):
            ac.evaluate_distribution(spec(3, 2, F(2)), ac.GoldDistribution((F(1), 0, 0)))


@pytest.mark.parametrize("call,message", [
    (lambda: ac.GoldDistribution((F(1), F(-1, 2))), "negative gold amount"),
    (lambda: spec(3, 4, 1), "need 1 <= k <= n, got k=4, n=3"),
    (lambda: spec(3, 2, 0), "gold total must be positive"),
    (lambda: ac.count_winning_subsets(ac.GoldDistribution((F(1), F(1))), 0), "need 1 <= k <= n, got k=0, n=2"),
    (lambda: ac.mms_probability([F(1)], 2), "need 1 <= k <= n, got k=2, n=1"),
    (lambda: ac.evaluate_distribution(spec(3, 2, 2), ac.GoldDistribution((F(1), F(1)))),
     "distribution has 2 boxes, spec has 3"),
])
def test_invalid_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
