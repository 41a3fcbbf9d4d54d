import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachegame import lp as lpmod
from helpers import complementary_slackness_holds, random_bounded_lp, reference_check_certificate


def test_single_cap():
    p = lpmod.LinearProgram(1, [1])
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, Fraction(3, 7))
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.OPTIMAL
    assert sol.objective_value == Fraction(3, 7)
    assert sol.primal == (Fraction(3, 7),)
    lpmod.check_certificate(p, "max", sol)


def test_shared_cap():
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == 1
    lpmod.check_certificate(p, "max", sol)


def test_infeasible_with_farkas():
    p = lpmod.LinearProgram(1, [1])
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, -1)
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.INFEASIBLE
    # Farkas: nonnegative multiplier on the <= row, combination refutes.
    (y,) = sol.dual
    assert y >= 0 and y * Fraction(-1) < 0


def test_unbounded_with_ray():
    p = lpmod.LinearProgram(2, [1, 0])
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 5)
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.UNBOUNDED
    ray = sol.dual
    assert sum(p.objective[j] * ray[j] for j in range(2)) > 0
    assert ray[0] >= 0 and ray[1] >= 0


def test_minimize_with_free_variable():
    p = lpmod.LinearProgram(2, [1, 3])
    p.set_bounds(0, None, None)
    p.add_constraint({0: 1, 1: 1}, lpmod.EQUAL, 4)
    p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, -2)
    sol = lpmod.solve_lp(p, "min")
    assert sol.status == lpmod.OPTIMAL
    # x1 is the expensive coordinate: optimum sits at (4, 0).
    assert sol.objective_value == Fraction(4)
    assert sol.primal == (Fraction(4), Fraction(0))
    lpmod.check_certificate(p, "min", sol)


def test_bounded_variables():
    p = lpmod.LinearProgram(2, [2, 1])
    p.set_bounds(0, Fraction(1, 2), Fraction(3, 2))
    p.set_bounds(1, None, Fraction(2))
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.OPTIMAL
    assert sol.primal == (Fraction(3, 2), Fraction(2))
    assert sol.objective_value == Fraction(5)
    lpmod.check_certificate(p, "max", sol)


def test_negative_rhs_sign_handling():
    # max -x subject to -x <= -2, i.e. x >= 2.
    p = lpmod.LinearProgram(1, [-1])
    p.add_constraint({0: -1}, lpmod.LESS_EQUAL, -2)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == Fraction(-2)
    lpmod.check_certificate(p, "max", sol)

    p = lpmod.LinearProgram(2, [1, -1])
    p.set_bounds(0, None, None)
    p.add_constraint({0: 1, 1: -1}, lpmod.EQUAL, -3)
    p.add_constraint({0: -1}, lpmod.GREATER_EQUAL, -4)
    sol = lpmod.solve_lp(p, "max")
    assert sol.objective_value == Fraction(-3)
    lpmod.check_certificate(p, "max", sol)


def test_textbook_corner():
    p = lpmod.LinearProgram(2, [5, 4])
    p.add_constraint({0: 6, 1: 4}, lpmod.LESS_EQUAL, 24)
    p.add_constraint({0: 1, 1: 2}, lpmod.LESS_EQUAL, 6)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == Fraction(21)
    assert sol.primal == (Fraction(3), Fraction(3, 2))
    lpmod.check_certificate(p, "max", sol)


def test_negative_bound_interval():
    p = lpmod.LinearProgram(1, [1])
    p.set_bounds(0, Fraction(-7, 2), Fraction(-1, 3))
    sol = lpmod.solve_lp(p, "min")
    assert sol.primal == (Fraction(-7, 2),)
    lpmod.check_certificate(p, "min", sol)


def test_dimension_validation():
    p = lpmod.LinearProgram(2)
    with pytest.raises(lpmod.LPError):
        p.add_constraint({5: 1}, lpmod.LESS_EQUAL, 0)
    with pytest.raises(lpmod.LPError):
        p.add_constraint({0: 1}, "<<", 0)
    with pytest.raises(lpmod.LPError):
        lpmod.solve_lp(p, "maximize")


def test_add_constraint_coerces_and_drops_zeros():
    p = lpmod.LinearProgram(3)
    assert p.add_constraint({0: 0, 1: 2, 2: Fraction(1, 3)}, lpmod.EQUAL, 1) == 0
    assert p.rows == [{1: Fraction(2), 2: Fraction(1, 3)}]
    assert all(type(v) is Fraction for v in p.rows[0].values())


def test_row_scaling_keeps_objective():
    rng = random.Random(7)
    for _ in range(20):
        p = random_bounded_lp(rng)
        base = lpmod.solve_lp(p)
        scaled = lpmod.LinearProgram(p.num_vars, p.objective)
        for i, row in enumerate(p.rows):
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled.add_constraint({j: c * v for j, v in row.items()}, p.senses[i], c * p.rhs[i])
        again = lpmod.solve_lp(scaled)
        assert again.status == base.status == lpmod.OPTIMAL
        assert again.objective_value == base.objective_value


def test_hundred_random_lps_certified():
    rng = random.Random(20240814)
    for _ in range(100):
        p = random_bounded_lp(rng)
        sol = lpmod.solve_lp(p)
        assert sol.status == lpmod.OPTIMAL
        lpmod.check_certificate(p, "max", sol)
        assert complementary_slackness_holds(p, sol)


def test_random_programs_pass_the_reference_check():
    # The Fraction reference check, written apart from the integer one,
    # accepts every answer.
    rng = random.Random(3)
    for _ in range(25):
        p = random_bounded_lp(rng)
        sol = lpmod.solve_lp(p)
        assert sol.status == lpmod.OPTIMAL
        assert reference_check_certificate(p, "max", sol)


def test_beale_cycling_program_falls_back_to_bland():
    # Beale's example cycles under plain largest-coefficient pricing; the
    # stall guard must switch to Bland's rule and still reach the optimum.
    p = lpmod.LinearProgram(4, [Fraction(3, 4), -20, Fraction(1, 2), -6])
    p.add_constraint({0: Fraction(1, 4), 1: -8, 2: -1, 3: 9}, lpmod.LESS_EQUAL, 0)
    p.add_constraint({0: Fraction(1, 2), 1: -12, 2: Fraction(-1, 2), 3: 3}, lpmod.LESS_EQUAL, 0)
    p.add_constraint({2: 1}, lpmod.LESS_EQUAL, 1)
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.OPTIMAL
    assert sol.objective_value == Fraction(5, 4)
    assert sol.primal == (1, 0, 1, 0)
    lpmod.check_certificate(p, "max", sol)
    assert sol.bland_fallback is True
    assert sol.phase1_pivots == 0 and sol.phase2_pivots == sol.pivots
    assert 0 < sol.degenerate_pivots < sol.pivots


class TestCheckCertificateRejectsForgeries:
    def test_interior_point_of_a_box(self):
        # max x on [0, 10]: at x = 5, lower and upper multipliers of 1/2
        # cancel the cost and match both objectives, but a lower bound of a
        # maximization takes a multiplier <= 0.
        p = lpmod.LinearProgram(1, [1])
        p.set_bounds(0, 0, 10)
        half = Fraction(1, 2)
        forged = lpmod.LPSolution(lpmod.OPTIMAL, Fraction(5), (Fraction(5),), (),
                                  bound_dual={("lower", 0): half, ("upper", 0): half})
        with pytest.raises(lpmod.CertificateError, match="dual sign on the lower bound of variable 0"):
            lpmod.check_certificate(p, "max", forged)
        assert lpmod.solve_lp(p).objective_value == 10

    def test_unpriced_point_of_a_shifted_variable(self):
        # max -x with x >= -5: at x = 0 without multipliers the reduced cost
        # is 1, which only a default [0, inf) variable may keep.
        p = lpmod.LinearProgram(1, [-1])
        p.set_bounds(0, -5, None)
        forged = lpmod.LPSolution(lpmod.OPTIMAL, Fraction(0), (Fraction(0),), ())
        with pytest.raises(lpmod.CertificateError, match="dual infeasibility at variable 0"):
            lpmod.check_certificate(p, "max", forged)
        assert lpmod.solve_lp(p).objective_value == 5

    def test_altered_objective_value(self):
        p = lpmod.LinearProgram(2, [5, 4])
        p.add_constraint({0: 6, 1: 4}, lpmod.LESS_EQUAL, 24)
        p.add_constraint({0: 1, 1: 2}, lpmod.LESS_EQUAL, 6)
        sol = lpmod.solve_lp(p)
        lpmod.check_certificate(p, "max", sol)
        with pytest.raises(lpmod.CertificateError, match="objective mismatch"):
            lpmod.check_certificate(p, "max", replace(sol, objective_value=sol.objective_value + 1))

    def test_unbounded_point_violating_a_row(self):
        p = lpmod.LinearProgram(2, [1, 0])
        p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 5)
        sol = lpmod.solve_lp(p)
        assert sol.status == lpmod.UNBOUNDED
        lpmod.check_certificate(p, "max", sol)
        forged = replace(sol, primal=(sol.primal[0], Fraction(6)))
        with pytest.raises(lpmod.CertificateError, match="point violates row 0"):
            lpmod.check_certificate(p, "max", forged)

    @pytest.mark.parametrize("change,message", [
        ({"bound_dual": {("lower", 5): Fraction(1)}}, r"unknown bound \('lower', 5\)"),
        ({"bound_dual": {("foo", 0): Fraction(1)}}, r"unknown bound \('foo', 0\)"),
        ({"bound_dual": {"upper": Fraction(1)}}, "unknown bound 'upper'"),
        ({"bound_dual": {("upper", 0): 1.0}}, "upper bound of variable 0 is not rational"),
        ({"primal": None}, "point is missing"),
        ({"dual": None}, "row multipliers are missing"),
        ({"primal": ()}, "point has 0 entries for 1 variables"),
        ({"dual": (Fraction(1),)}, "1 row multipliers for 0 rows"),
        ({"primal": (1.0,)}, "point has an entry that is not rational"),
    ])
    def test_malformed_solution(self, change, message):
        # max x on [0, 1]: a solution with a missing vector, a vector of the
        # wrong length or a multiplier on a bound that does not exist is
        # rejected by name, not by the first lookup that fails on it.
        p = lpmod.LinearProgram(1, [1])
        p.set_bounds(0, 0, 1)
        sol = lpmod.solve_lp(p)
        with pytest.raises(lpmod.CertificateError, match=message):
            lpmod.check_certificate(p, "max", replace(sol, **change))


def test_solve_lp_checks_the_mapping_back(monkeypatch):
    # Dropping the row flips from the mapping back to the caller's rows
    # gives the x >= 2 row of max -x a multiplier of the wrong sign.
    real = lpmod._original_duals

    def unflipped(std, tab, y_internal, orient):
        tab.flip = [1] * len(tab.flip)
        return real(std, tab, y_internal, orient)

    p = lpmod.LinearProgram(1, [-1])
    p.add_constraint({0: -1}, lpmod.LESS_EQUAL, -2)
    monkeypatch.setattr(lpmod, "_original_duals", unflipped)
    with pytest.raises(lpmod.CertificateError, match="dual sign on row 0"):
        lpmod.solve_lp(p)


def _farkas_holds(p, sol):
    """The row and bound multipliers refute the program in its own space:
    their combination is a valid inequality g.x <= value with g.x >= 0 on
    every point the bounds allow, yet value < 0."""
    y = sol.dual
    for i, sense in enumerate(p.senses):
        if (sense == lpmod.LESS_EQUAL and y[i] < 0) or (sense == lpmod.GREATER_EQUAL and y[i] > 0):
            return False
    g = [Fraction(0)] * p.num_vars
    value = sum(y[i] * p.rhs[i] for i in range(len(p.rows)))
    for i, row in enumerate(p.rows):
        for j, v in row.items():
            g[j] += y[i] * v
    for (kind, j), mult in sol.bound_dual.items():
        if (kind == "lower" and mult > 0) or (kind == "upper" and mult < 0):
            return False
        g[j] += mult
        value += mult * (p.lower[j] if kind == "lower" else p.upper[j])
    for j in range(p.num_vars):
        nonneg = p.lower[j] == 0 and p.upper[j] is None
        if (g[j] < 0) if nonneg else (g[j] != 0):
            return False
    return value < 0


def _ray_holds(p, sense, sol):
    """``primal`` is feasible and ``dual`` an improving recession direction."""
    x, r = sol.primal, sol.dual
    gain = sum(p.objective[j] * r[j] for j in range(p.num_vars))
    if (gain <= 0) if sense == "max" else (gain >= 0):
        return False
    for i, row in enumerate(p.rows):
        at = sum(v * x[j] for j, v in row.items()) - p.rhs[i]
        step = sum(v * r[j] for j, v in row.items())
        for delta in (at, step):
            if p.senses[i] == lpmod.LESS_EQUAL and delta > 0:
                return False
            if p.senses[i] == lpmod.GREATER_EQUAL and delta < 0:
                return False
            if p.senses[i] == lpmod.EQUAL and delta != 0:
                return False
    for j in range(p.num_vars):
        if p.lower[j] is not None and (x[j] < p.lower[j] or r[j] < 0):
            return False
        if p.upper[j] is not None and (x[j] > p.upper[j] or r[j] > 0):
            return False
    return True


_coef = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _small_programs(draw):
    """Programs with Fraction data, every sense, right-hand sides of either
    sign, and default, free, one-sided and boxed variables."""
    num_vars = draw(st.integers(1, 3))
    p = lpmod.LinearProgram(num_vars, draw(st.lists(_coef, min_size=num_vars, max_size=num_vars)))
    for j in range(num_vars):
        kind = draw(st.sampled_from(["default", "free", "lower", "upper", "boxed"]))
        if kind == "free":
            p.set_bounds(j, None, None)
        elif kind == "lower":
            p.set_bounds(j, draw(_coef), None)
        elif kind == "upper":
            p.set_bounds(j, None, draw(_coef))
        elif kind == "boxed":
            lo = draw(_coef)
            p.set_bounds(j, lo, lo + draw(st.fractions(min_value=0, max_value=3, max_denominator=3)))
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.dictionaries(st.integers(0, num_vars - 1), _coef, max_size=num_vars))
        p.add_constraint(row, draw(st.sampled_from(lpmod._SENSES)), draw(_coef))
    return p, draw(st.sampled_from(["max", "min"]))


@settings(max_examples=300, deadline=None)
@given(_small_programs())
def test_random_programs_certified(case):
    p, sense = case
    sol = lpmod.solve_lp(p, sense)
    assert sol.pivots == sol.phase1_pivots + sol.phase2_pivots
    assert lpmod.check_certificate(p, sense, sol)
    if sol.status == lpmod.INFEASIBLE:
        assert _farkas_holds(p, sol)
    elif sol.status == lpmod.UNBOUNDED:
        assert _ray_holds(p, sense, sol)


@settings(max_examples=300, deadline=None)
@given(_small_programs())
def test_negated_multiplier_is_rejected(case):
    p, sense = case
    sol = lpmod.solve_lp(p, sense)
    if sol.status != lpmod.OPTIMAL:
        return
    for i, y in enumerate(sol.dual):
        if y and p.senses[i] != lpmod.EQUAL:
            dual = sol.dual[:i] + (-y,) + sol.dual[i + 1:]
            with pytest.raises(lpmod.CertificateError):
                lpmod.check_certificate(p, sense, replace(sol, dual=dual))
    for key, mult in sol.bound_dual.items():
        if mult:
            with pytest.raises(lpmod.CertificateError):
                lpmod.check_certificate(p, sense, replace(sol, bound_dual={**sol.bound_dual, key: -mult}))


_NUDGES = (
    lambda v: v + Fraction(1, 1009),
    lambda v: v - Fraction(1, 1009),
    lambda v: v * Fraction(1010, 1009),
    lambda v: v * Fraction(1008, 1009),
)


def _nudged(sol):
    """``sol`` with one primal entry, row multiplier (or ray entry), bound
    multiplier or the objective value shifted or scaled slightly."""
    for name in ("primal", "dual"):
        vector = getattr(sol, name)
        for i in range(len(vector or ())):
            for nudge in _NUDGES:
                yield replace(sol, **{name: vector[:i] + (nudge(vector[i]),) + vector[i + 1:]})
    for key, mult in sol.bound_dual.items():
        for nudge in _NUDGES:
            yield replace(sol, bound_dual={**sol.bound_dual, key: nudge(mult)})
    if sol.objective_value is not None:
        for nudge in _NUDGES:
            yield replace(sol, objective_value=nudge(sol.objective_value))


def _verdict(check, p, sense, sol):
    try:
        return check(p, sense, sol)
    except lpmod.CertificateError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_small_programs())
def test_integer_check_agrees_with_the_fraction_oracle(case):
    # The integer check and the Fraction reference accept the same
    # certificates and reject the rest for the same first reason.
    p, sense = case
    sol = lpmod.solve_lp(p, sense)
    for forged in (sol, *_nudged(sol)):
        expected = _verdict(reference_check_certificate, p, sense, forged)
        assert _verdict(lpmod.check_certificate, p, sense, forged) == expected


class TestCheckFeasible:
    def test_empty_system(self):
        r = lpmod.check_feasible(2, [])
        assert r.feasible

    def test_strict_window(self):
        r = lpmod.check_feasible(
            1, [({0: 1}, lpmod.STRICT_LESS, 1), ({0: 1}, lpmod.STRICT_GREATER, Fraction(1, 2))]
        )
        assert r.feasible
        assert Fraction(1, 2) < r.witness[0] < 1
        assert r.margin > 0

    def test_strict_empty_window(self):
        r = lpmod.check_feasible(
            1, [({0: 1}, lpmod.STRICT_LESS, 1), ({0: 1}, lpmod.STRICT_GREATER, 1)]
        )
        assert not r.feasible
        assert r.margin is not None and r.margin <= 0

    def test_weak_boundary_is_feasible(self):
        r = lpmod.check_feasible(
            1, [({0: 1}, lpmod.LESS_EQUAL, 1), ({0: 1}, lpmod.GREATER_EQUAL, 1)]
        )
        assert r.feasible
        assert r.witness == (1,)
        assert r.margin == 1

    def test_weak_infeasible_has_certificate(self):
        r = lpmod.check_feasible(
            1, [({0: 1}, lpmod.LESS_EQUAL, 0), ({0: 1}, lpmod.GREATER_EQUAL, 1)]
        )
        assert not r.feasible
        assert r.certificate is not None


def _ordered_nonneg_sum(n, total):
    """Rows for a1 >= ... >= an >= 0 with fixed sum."""
    rows = []
    for j in range(n - 1):
        rows.append(({j: 1, j + 1: -1}, lpmod.GREATER_EQUAL, 0))
    rows.append(({j: 1 for j in range(n)}, lpmod.EQUAL, total))
    return rows


def _gold_triples_strict(exclude):
    return [
        ({j: 1 for j in t}, lpmod.STRICT_LESS, 1)
        for t in combinations(range(5), 3)
        if t not in exclude
    ]


def test_eight_triple_system_infeasible():
    # Ordered five-box gold summing to 5/3 cannot keep eight triples
    # strictly under one unit.
    rows = _ordered_nonneg_sum(5, Fraction(5, 3)) + _gold_triples_strict({(0, 1, 2), (0, 1, 3)})
    r = lpmod.check_feasible(5, rows)
    assert not r.feasible
    assert r.certificate is not None


def test_seven_triple_system_feasible():
    rows = _ordered_nonneg_sum(5, Fraction(5, 3)) + _gold_triples_strict(
        {(0, 1, 2), (0, 1, 3), (0, 1, 4)}
    )
    r = lpmod.check_feasible(5, rows)
    assert r.feasible
    w = r.witness
    assert sum(w) == Fraction(5, 3)
    for t in combinations(range(5), 3):
        if t not in ((0, 1, 2), (0, 1, 3), (0, 1, 4)):
            assert sum(w[i] for i in t) < 1
