from fractions import Fraction

import pytest

from cachegame import fractional as fr
from helpers import oracle_p_lambda

F = Fraction


class TestPLambda:
    def test_completed_record_never_repeats(self):
        assert fr.p_lambda(fr.YoungState((2,), 5, 2)) == 0
        assert fr.p_lambda(fr.YoungState((2, 1), 4, 3)) == 0

    def test_two_boxes_two_treasures(self):
        # Placements (2,0),(1,1),(0,2): two of the three keep paying.
        assert fr.p_lambda(fr.YoungState((1,), 2, 2)) == F(2, 3)

    @pytest.mark.parametrize(
        "lam,n,d",
        [
            ((1,), 2, 2),
            ((1,), 3, 3),
            ((2,), 3, 3),
            ((1, 1), 3, 2),
            ((2, 1), 3, 4),
            ((2, 2), 4, 5),
            ((1, 1), 4, 3),
            ((3, 1, 1), 4, 5),
            ((2,), 5, 4),
        ],
    )
    def test_matches_bruteforce_oracle(self, lam, n, d):
        assert fr.p_lambda(fr.YoungState(lam, n, d)) == oracle_p_lambda(lam, n, d)

    def test_rejects_empty_record(self):
        with pytest.raises(ValueError):
            fr.p_lambda(fr.YoungState((), 3, 2))

    def test_rejects_unreachable_record(self):
        # A first box of 1 forces every later box to hold exactly 1.
        with pytest.raises(ValueError, match="reachable"):
            fr.p_lambda(fr.YoungState((1, 1), 2, 3))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            fr.YoungState((1, 2), 4, 4)  # increasing
        with pytest.raises(ValueError):
            fr.YoungState((0,), 4, 4)  # nonpositive entry
        with pytest.raises(ValueError):
            fr.YoungState((3, 2), 4, 4)  # exceeds d
        with pytest.raises(ValueError):
            fr.YoungState((1, 1, 1), 2, 3)  # more boxes than n

    @pytest.mark.parametrize("lam", [(1.5,), (2, 1.0), (True,), (2, "1"), (Fraction(3, 2),)])
    def test_rejects_a_record_entry_that_is_not_an_integer(self, lam):
        # An entry is never truncated into another record: (1.5,) is not (1,).
        with pytest.raises(ValueError, match="integers"):
            fr.YoungState(lam, 3, 3)

    def test_probability_range_exhaustive(self):
        for n in range(1, 9):
            for d in range(1, 6):
                for state in fr.reachable_records(n, d):
                    p = fr.p_lambda(state)
                    assert 0 <= p <= 1


class TestScaledRepeat:
    def test_scale_one_is_identity(self):
        state = fr.YoungState((1,), 4, 2)
        assert fr.scaled_repeat_probability(state, 1) == fr.p_lambda(state)

    def test_zero_stays_zero(self):
        state = fr.YoungState((2,), 6, 2)
        assert fr.scaled_repeat_probability(state, 7) == 0

    def test_large_board_triple_scale(self):
        state = fr.YoungState((1,), 20, 2)
        assert fr.scaled_repeat_probability(state, 3) == 3 * fr.p_lambda(state)

    def test_reports_broken_inequality(self):
        state = fr.YoungState((1,), 2, 2)  # p = 2/3, twice that exceeds 1
        with pytest.raises(fr.PreconditionError, match="> 1"):
            fr.scaled_repeat_probability(state, 2)


class TestFractionalSpec:
    def test_mixing_weight_identity(self):
        for k in (F(3, 2), F(5, 3), F(7, 3), F(5, 2), F(2)):
            spec = fr.FractionalSpec(12, 2, k)
            p = spec.p
            assert p * spec.floor_k + (1 - p) * spec.ceil_k == k
            assert 0 <= p <= 1

    def test_integral_k_is_pure(self):
        assert fr.FractionalSpec(6, 2, F(2)).p == 1

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            fr.FractionalSpec(3, 2, F(7, 2))
        with pytest.raises(ValueError):
            fr.FractionalSpec(3, 2, F(1, 2))


class TestStepDistribution:
    def test_integral_k_has_two_branches(self):
        spec = fr.FractionalSpec(10, 2, F(2))
        state = fr.YoungState((1,), 10, 2)
        dist = fr.fractional_step_distribution(spec, state)
        assert len(dist) == 2
        assert sum(p for _, p in dist) == 1

    @pytest.mark.parametrize("k", [F(3, 2), F(5, 3), F(7, 3), F(5, 2)])
    def test_weights_sum_to_one_and_mean_size_is_k(self, k):
        spec = fr.FractionalSpec(14, 2, k)
        state = fr.YoungState((1,), 14, 2)
        dist = fr.fractional_step_distribution(spec, state)
        assert sum(p for _, p in dist) == 1
        mean = sum(p * (int(repeat) + fresh) for (repeat, fresh), p in dist)
        assert mean == k

    def test_named_precondition_failures(self):
        small = fr.FractionalSpec(3, 2, F(2))
        state = fr.YoungState((1,), 3, 2)
        with pytest.raises(fr.PreconditionError, match="ceil"):
            fr.fractional_step_distribution(small, state)


class TestDiscoveryIdentities:
    def test_current_box_side(self):
        spec = fr.FractionalSpec(12, 2, F(3, 2))
        state = fr.YoungState((1,), 12, 2)
        lhs, rhs = fr.per_step_discovery_check(spec, state, "current")
        assert lhs == rhs == spec.k * fr.p_lambda(state)

    def test_fresh_box_side(self):
        spec = fr.FractionalSpec(12, 2, F(3, 2))
        state = fr.YoungState((1,), 12, 2)
        lhs, rhs = fr.per_step_discovery_check(spec, state, "fresh")
        assert lhs == rhs == spec.k * (1 - fr.p_lambda(state))

    def test_zero_posterior_gives_zero_current_side(self):
        spec = fr.FractionalSpec(12, 2, F(3, 2))
        state = fr.YoungState((2,), 12, 2)
        lhs, rhs = fr.per_step_discovery_check(spec, state, "current")
        assert lhs == rhs == 0

    def test_unknown_target_rejected(self):
        spec = fr.FractionalSpec(12, 2, F(3, 2))
        state = fr.YoungState((1,), 12, 2)
        with pytest.raises(ValueError):
            fr.per_step_discovery_check(spec, state, "sideways")

    @pytest.mark.parametrize("k", [F(1), F(3, 2), F(2)])
    def test_exhaustive_at_desk_scale(self, k):
        import math

        checked = 0
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
        assert checked > 30  # the sweep genuinely covers states


@pytest.mark.parametrize("call,error,message", [
    (lambda: fr.scaled_repeat_probability(fr.YoungState((1,), 4, 2), 0), fr.PreconditionError,
     "scale must be a positive integer, got 0"),
    (lambda: fr.FractionalSpec(3, 0, 1), ValueError, "need d >= 1, got d=0"),
    (lambda: fr.fractional_step_distribution(fr.FractionalSpec(10, 2, F(2)), fr.YoungState((1,), 12, 2)),
     ValueError, "record and spec disagree on n or d"),
    # n = 6 >= d * ceil(k) = 6, but 2 * p_lambda = 2 * 9/14 > 1.
    (lambda: fr.fractional_step_distribution(fr.FractionalSpec(6, 3, F(2)), fr.YoungState((1,), 6, 3)),
     fr.PreconditionError, r"ceil\(k\)\*p_lambda <= 1 fails: 2\*9/14 > 1"),
])
def test_invalid_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
