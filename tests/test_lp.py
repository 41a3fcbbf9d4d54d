import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachegame import GameSpec, Variant, accumulation, build_tree, solver
from cachegame import lp as lpmod
from helpers import (
    complementary_slackness_holds,
    fraction_rows,
    random_bounded_lp,
    reference_check_certificate,
    reference_run_simplex,
)


def test_single_cap():
    p = lpmod.LinearProgram(1, [1])
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, Fraction(3, 7))
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.OPTIMAL
    assert sol.objective_value == Fraction(3, 7)
    assert sol.primal == (Fraction(3, 7),)
    lpmod.check_certificate(p, sol)


def test_shared_cap():
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == 1
    lpmod.check_certificate(p, sol)


def test_infeasible_with_farkas():
    p = lpmod.LinearProgram(1, [1])
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, -1)
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.INFEASIBLE
    # Farkas: nonnegative multiplier on the <= row, combination refutes.
    (y,) = sol.dual
    assert y >= 0 and y * Fraction(-1) < 0
    assert _same_in_both_forms(p) == sol


def test_unbounded_objective_raises():
    p = lpmod.LinearProgram(2, [1, 0])
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 5)
    with pytest.raises(lpmod.LPError, match="objective is unbounded"):
        lpmod.solve_lp(p)
    assert _improving_ray_exists(p)


def test_minimize_with_free_variable():
    # Minimize x0 + 3 x1 by maximizing its negation.
    p = lpmod.LinearProgram(2, [-1, -3])
    p.set_free(0)
    p.add_constraint({0: 1, 1: 1}, lpmod.EQUAL, 4)
    p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, -2)
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.OPTIMAL
    # x1 is the expensive coordinate: optimum sits at (4, 0).
    assert sol.objective_value == Fraction(-4)
    assert sol.primal == (Fraction(4), Fraction(0))
    lpmod.check_certificate(p, sol)


def test_bounded_variables():
    # Finite bounds are rows: 1/2 <= x0 <= 3/2 and a free x1 <= 2.
    p = lpmod.LinearProgram(2, [2, 1])
    p.set_free(0)
    p.set_free(1)
    p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, Fraction(1, 2))
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, Fraction(3, 2))
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, Fraction(2))
    sol = lpmod.solve_lp(p)
    assert sol.status == lpmod.OPTIMAL
    assert sol.primal == (Fraction(3, 2), Fraction(2))
    assert sol.objective_value == Fraction(5)
    lpmod.check_certificate(p, sol)


def test_negative_rhs_sign_handling():
    # max -x subject to -x <= -2, i.e. x >= 2.
    p = lpmod.LinearProgram(1, [-1])
    p.add_constraint({0: -1}, lpmod.LESS_EQUAL, -2)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == Fraction(-2)
    lpmod.check_certificate(p, sol)

    p = lpmod.LinearProgram(2, [1, -1])
    p.set_free(0)
    p.add_constraint({0: 1, 1: -1}, lpmod.EQUAL, -3)
    p.add_constraint({0: -1}, lpmod.GREATER_EQUAL, -4)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == Fraction(-3)
    lpmod.check_certificate(p, sol)


def test_standard_form_column_layout():
    # After the caller's two columns, each row gains its columns in row
    # order: a surplus then an artificial for a ">=" row and for a "<=" row
    # whose negative right-hand side flips it, an artificial alone for an
    # "=" row, and a slack for any other "<=" row.  The numbering sets the
    # pricing's tie-breaks, and no pivot count of the accumulation programs
    # tells a surplus from its artificial.
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, 1)
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, -1)
    p.add_constraint({0: 1, 1: 1}, lpmod.EQUAL, 1)
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 1)
    form = lpmod._Tableau(p)
    assert form.unit_col == [2, 4, 6, 7]
    assert form.basis == [3, 5, 6, 7]
    assert form.artificial == {3, 5, 6}


def test_textbook_corner():
    p = lpmod.LinearProgram(2, [5, 4])
    p.add_constraint({0: 6, 1: 4}, lpmod.LESS_EQUAL, 24)
    p.add_constraint({0: 1, 1: 2}, lpmod.LESS_EQUAL, 6)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == Fraction(21)
    assert sol.primal == (Fraction(3), Fraction(3, 2))
    lpmod.check_certificate(p, sol)


def test_negative_bound_interval():
    # Minimize x, that is maximize -x, over -7/2 <= x <= -1/3.
    p = lpmod.LinearProgram(1, [-1])
    p.set_free(0)
    p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, Fraction(-7, 2))
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, Fraction(-1, 3))
    sol = lpmod.solve_lp(p)
    assert sol.primal == (Fraction(-7, 2),)
    assert sol.objective_value == Fraction(7, 2)
    lpmod.check_certificate(p, sol)


def test_dimension_validation():
    p = lpmod.LinearProgram(2)
    with pytest.raises(lpmod.LPError):
        p.add_constraint({5: 1}, lpmod.LESS_EQUAL, 0)
    with pytest.raises(lpmod.LPError):
        p.add_constraint({0: 1}, "<<", 0)


@pytest.mark.parametrize("j", [-1, 2])
@pytest.mark.parametrize("edit", [
    lambda p, j: p.set_objective(j, 5),
    lambda p, j: p.set_free(j),
    lambda p, j: p.add_constraint({j: 0}, lpmod.LESS_EQUAL, 0),
], ids=["set_objective", "set_free", "add_constraint"])
def test_out_of_range_column_is_rejected(edit, j):
    # -1 would otherwise edit the last column, and num_vars would not be
    # named as a column error.
    p = lpmod.LinearProgram(2, [1, 2])
    with pytest.raises(lpmod.LPError, match=f"column {j} out of range"):
        edit(p, j)
    assert p.objective == [1, 2] and p.free == set() and p.rows == []


def _edited(edit) -> lpmod.LinearProgram:
    """A small program whose lists or free set ``edit`` puts out of step."""
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
    edit(p)
    return p


@pytest.mark.parametrize("call,message", [
    (lambda: lpmod.LinearProgram(-1), "negative variable count"),
    (lambda: lpmod.LinearProgram(2, [1]), "objective length does not match variable count"),
    (lambda: lpmod.solve_lp(_edited(lambda p: p.rows.append({0: Fraction(1)}))), "row bookkeeping out of sync"),
    (lambda: lpmod.solve_lp(_edited(lambda p: p.senses.append(lpmod.EQUAL))), "row bookkeeping out of sync"),
    (lambda: lpmod.solve_lp(_edited(lambda p: p.rhs.pop())), "row bookkeeping out of sync"),
    (lambda: lpmod.solve_lp(_edited(lambda p: p.dens.pop())), "row bookkeeping out of sync"),
    (lambda: lpmod.solve_lp(_edited(lambda p: p.free.add(2))), "column bookkeeping out of sync"),
], ids=["negative_count", "short_objective", "extra_row", "extra_sense", "missing_rhs", "missing_den",
        "free_out_of_range"])
def test_malformed_program_is_rejected(call, message):
    with pytest.raises(lpmod.LPError, match=message):
        call()


def test_add_constraint_coerces_and_drops_zeros():
    p = lpmod.LinearProgram(3)
    assert p.add_constraint({0: 0, 1: 2, 2: Fraction(1, 3)}, lpmod.EQUAL, 1) == 0
    assert (p.rows, p.rhs, p.dens) == ([{1: 6, 2: 1}], [3], [3])
    assert all(type(v) is int for v in [*p.rows[0].values(), *p.rhs, *p.dens])


def test_zero_entry_out_of_range_is_rejected():
    p = lpmod.LinearProgram(2)
    with pytest.raises(lpmod.LPError, match="column 5 out of range"):
        p.add_constraint({5: 0}, lpmod.LESS_EQUAL, 0)


@pytest.mark.parametrize("den", [0, -2, Fraction(1, 2)])
def test_row_denominator_must_be_a_positive_int(den):
    p = lpmod.LinearProgram(2)
    with pytest.raises(lpmod.LPError, match="row denominator"):
        p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 1, den)
    assert p.rows == p.rhs == p.dens == p.senses == []


_ints = st.integers(-30, 30)
_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(data=st.data())
def test_rows_are_stored_fraction_free_in_lowest_terms(data):
    entries = data.draw(st.sampled_from([_ints, _fractions, st.one_of(_ints, _fractions)]))
    coeffs = data.draw(st.dictionaries(st.integers(0, 3), entries, max_size=4))
    rhs = data.draw(entries)
    den = data.draw(st.one_of(st.none(), st.integers(1, 60)))
    p = lpmod.LinearProgram(4)
    if den is None:
        p.add_constraint(coeffs, lpmod.LESS_EQUAL, rhs)
        den = 1
    else:
        p.add_constraint(coeffs, lpmod.LESS_EQUAL, rhs, den)
    (row,), (b,), (stored,) = p.rows, p.rhs, p.dens
    assert {j: Fraction(v, stored) for j, v in row.items()} == {j: Fraction(c) / den for j, c in coeffs.items() if c}
    assert Fraction(b, stored) == Fraction(rhs) / den
    assert all(row.values())
    assert stored > 0
    assert gcd(stored, b, *row.values()) == 1


@pytest.mark.parametrize("num_rows", [4, 45])
def test_solve_leaves_the_stored_program_as_it_was(num_rows):
    # A negative right-hand side, which the form flips, then a >= row, an
    # = row, and caps; 45 rows run in the revised form, 4 in the tableau.
    p = lpmod.LinearProgram(3, [1, 1, 1])
    p.add_constraint({0: -1, 2: 2}, lpmod.LESS_EQUAL, -1)
    p.add_constraint({0: 1, 1: 1}, lpmod.GREATER_EQUAL, 1)
    p.add_constraint({1: 1, 2: -1}, lpmod.EQUAL, 0)
    for i in range(num_rows - 3):
        p.add_constraint({0: 1, 1: 1 + i % 3, 2: Fraction(1, 2)}, lpmod.LESS_EQUAL, 10 + i)
    before = deepcopy((p.rows, p.rhs, p.dens, p.senses))
    assert lpmod.solve_lp(p).status == lpmod.OPTIMAL
    assert (p.rows, p.rhs, p.dens, p.senses) == before


def test_row_scaling_keeps_objective():
    rng = random.Random(7)
    for _ in range(20):
        p = random_bounded_lp(rng)
        base = lpmod.solve_lp(p)
        scaled = lpmod.LinearProgram(p.num_vars, p.objective)
        for (row, b), sense in zip(fraction_rows(p), p.senses):
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled.add_constraint({j: c * v for j, v in row.items()}, sense, c * b)
        again = lpmod.solve_lp(scaled)
        assert again.status == base.status == lpmod.OPTIMAL
        assert again.objective_value == base.objective_value


def test_hundred_random_lps_certified():
    rng = random.Random(20240814)
    for _ in range(100):
        p = random_bounded_lp(rng)
        sol = lpmod.solve_lp(p)
        assert sol.status == lpmod.OPTIMAL
        lpmod.check_certificate(p, sol)
        assert complementary_slackness_holds(p, sol)


def test_random_programs_pass_the_reference_check():
    # The Fraction reference check, written apart from the integer one,
    # accepts every answer.
    rng = random.Random(3)
    for _ in range(25):
        p = random_bounded_lp(rng)
        sol = lpmod.solve_lp(p)
        assert sol.status == lpmod.OPTIMAL
        assert reference_check_certificate(p, sol)


def _beale():
    """Beale's example, which cycles under largest-coefficient pricing."""
    p = lpmod.LinearProgram(4, [Fraction(3, 4), -20, Fraction(1, 2), -6])
    p.add_constraint({0: Fraction(1, 4), 1: -8, 2: -1, 3: 9}, lpmod.LESS_EQUAL, 0)
    p.add_constraint({0: Fraction(1, 2), 1: -12, 2: Fraction(-1, 2), 3: 3}, lpmod.LESS_EQUAL, 0)
    p.add_constraint({2: 1}, lpmod.LESS_EQUAL, 1)
    return p


def _assert_beale_optimum(p, sol):
    assert sol.status == lpmod.OPTIMAL
    assert sol.objective_value == Fraction(5, 4)
    assert sol.primal == (1, 0, 1, 0)
    lpmod.check_certificate(p, sol)
    assert sol.phase1_pivots == 0 and sol.phase2_pivots == sol.pivots
    assert _same_in_both_forms(p) == sol


def test_beale_cycling_program_does_not_cycle_under_devex():
    p = _beale()
    sol = lpmod.solve_lp(p)
    _assert_beale_optimum(p, sol)
    assert sol.bland_fallback is False
    assert (sol.pivots, sol.degenerate_pivots) == (3, 2)


def test_solutions_report_phase_and_certificate_times():
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1, 1: 1}, lpmod.GREATER_EQUAL, 1)  # an artificial for phase 1
    p.add_constraint({0: 1, 1: 2}, lpmod.LESS_EQUAL, 4)
    sol = lpmod.solve_lp(p)
    assert sol.objective_value == 4 and sol.phase1_pivots > 0
    times = (sol.phase1_seconds, sol.phase2_seconds, sol.certificate_seconds)
    assert all(t >= 0 for t in times)
    # Wall times take no part in comparing two answers.
    assert replace(sol, phase1_seconds=1.0, phase2_seconds=2.0, certificate_seconds=3.0) == sol


def test_pricing_outside_the_float_range():
    # Reduced costs far below the float range price as 0 and still solve.
    p = lpmod.LinearProgram(2, [Fraction(1, 10**200), Fraction(1, 3**400)])
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
    p.add_constraint({0: 1, 1: Fraction(1, 7**300)}, lpmod.LESS_EQUAL, 1)
    sol = _same_in_both_forms(p)
    assert sol.objective_value == Fraction(1, 3**400) and sol.bland_fallback is False
    # A reduced cost of 10**400 has no float: Bland's rule finishes the phase.
    p = lpmod.LinearProgram(2, [10**400, 1])
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
    p.add_constraint({0: 10**500, 1: 1}, lpmod.LESS_EQUAL, 3)
    sol = _same_in_both_forms(p)
    assert sol.objective_value == 1 + Fraction(2 * (10**400 - 1), 10**500 - 1)
    assert sol.bland_fallback is True
    # Nor does a pivot-row ratio of 10**400, met while updating the weights.
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1, 1: 10**400}, lpmod.LESS_EQUAL, 1)
    sol = _same_in_both_forms(p)
    assert sol.objective_value == 1 and sol.bland_fallback is True
    # After the first pivot column 1 has reduced cost 10**200 and weight
    # 10**400: both square to inf, and a nan score has no order.
    p = lpmod.LinearProgram(2, [1, 0])
    p.add_constraint({0: 1, 1: -10**200}, lpmod.LESS_EQUAL, 1)
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 1)
    sol = _same_in_both_forms(p)
    assert sol.objective_value == 1 + 10**200 and sol.bland_fallback is True
    assert lpmod.check_certificate(p, sol)


def test_stall_guard_falls_back_to_bland(monkeypatch):
    # With no stall allowed, the second zero-step pivot in a row switches
    # to Bland's rule, which still reaches the optimum.
    monkeypatch.setattr(lpmod, "_STALL_FACTOR", 0)
    p = _beale()
    sol = lpmod.solve_lp(p)
    _assert_beale_optimum(p, sol)
    assert sol.bland_fallback is True
    assert (sol.pivots, sol.degenerate_pivots) == (4, 2)


class TestCheckCertificateRejectsForgeries:
    def test_interior_point_of_a_box(self):
        # max x over a free x with rows x >= 0 and x <= 10: at x = 5,
        # multipliers of 1/2 on both rows cancel the cost and match both
        # objectives, but a >= row of a maximization takes a multiplier <= 0.
        p = lpmod.LinearProgram(1, [1])
        p.set_free(0)
        p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, 0)
        p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 10)
        half = Fraction(1, 2)
        forged = lpmod.LPSolution(lpmod.OPTIMAL, Fraction(5), (Fraction(5),), (half, half))
        with pytest.raises(lpmod.CertificateError, match="dual sign on row 0"):
            lpmod.check_certificate(p, forged)
        assert lpmod.solve_lp(p).objective_value == 10

    def test_unpriced_point_of_a_shifted_variable(self):
        # max -x over a free x with x >= -5: at x = 0 with a zero multiplier
        # the reduced cost is 1, which only a nonnegative variable may keep.
        p = lpmod.LinearProgram(1, [-1])
        p.set_free(0)
        p.add_constraint({0: 1}, lpmod.GREATER_EQUAL, -5)
        forged = lpmod.LPSolution(lpmod.OPTIMAL, Fraction(0), (Fraction(0),), (Fraction(0),))
        with pytest.raises(lpmod.CertificateError, match="dual infeasibility at variable 0"):
            lpmod.check_certificate(p, forged)
        assert lpmod.solve_lp(p).objective_value == 5

    def test_altered_objective_value(self):
        p = lpmod.LinearProgram(2, [5, 4])
        p.add_constraint({0: 6, 1: 4}, lpmod.LESS_EQUAL, 24)
        p.add_constraint({0: 1, 1: 2}, lpmod.LESS_EQUAL, 6)
        sol = lpmod.solve_lp(p)
        lpmod.check_certificate(p, sol)
        with pytest.raises(lpmod.CertificateError, match="objective mismatch"):
            lpmod.check_certificate(p, replace(sol, objective_value=sol.objective_value + 1))

    def test_negative_point_of_a_nonnegative_variable(self):
        # max x + y with x + y <= 1: (-1, 2) meets the row and both
        # objectives, but x is not free.
        p = lpmod.LinearProgram(2, [1, 1])
        p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
        sol = lpmod.solve_lp(p)
        forged = replace(sol, primal=(Fraction(-1), Fraction(2)))
        with pytest.raises(lpmod.CertificateError, match="point is negative at variable 0"):
            lpmod.check_certificate(p, forged)

    @pytest.mark.parametrize("change,message", [
        ({"primal": None}, "point is missing"),
        ({"dual": None}, "row multipliers are missing"),
        ({"primal": ()}, "point has 0 entries for 1 variables"),
        ({"dual": (Fraction(1), Fraction(1))}, "2 row multipliers for 1 rows"),
        ({"primal": (1.0,)}, "point has an entry that is not rational"),
    ])
    def test_malformed_solution(self, change, message):
        # max x with x <= 1: a solution with a missing vector or a vector of
        # the wrong length is rejected by name, not by the first lookup that
        # fails on it.
        p = lpmod.LinearProgram(1, [1])
        p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 1)
        sol = lpmod.solve_lp(p)
        with pytest.raises(lpmod.CertificateError, match=message):
            lpmod.check_certificate(p, replace(sol, **change))

    def test_unknown_status(self):
        p = lpmod.LinearProgram(1, [1])
        p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 1)
        sol = lpmod.solve_lp(p)
        with pytest.raises(lpmod.LPError, match="unknown status 'FEASIBLE'"):
            lpmod.check_certificate(p, replace(sol, status="FEASIBLE"))

    def test_zero_farkas_multipliers(self):
        # x <= -1 over a nonnegative x is infeasible, and the multiplier 1
        # refutes it; 0 meets every sign rule but combines to 0 <= 0.
        p = lpmod.LinearProgram(1, [1])
        p.add_constraint({0: 1}, lpmod.LESS_EQUAL, -1)
        sol = lpmod.solve_lp(p)
        assert sol.status == lpmod.INFEASIBLE and sol.dual == (Fraction(1),)
        with pytest.raises(lpmod.CertificateError, match="Farkas certificate has nonnegative value"):
            lpmod.check_certificate(p, replace(sol, dual=(Fraction(0),)))


def test_solve_lp_checks_the_mapping_back(monkeypatch):
    # Dropping the row flips from the mapping back to the caller's rows
    # gives the x >= 2 row of max -x a multiplier of the wrong sign.
    real = lpmod._Tableau.duals

    def unflipped(self, red, cost):
        return tuple(f * y for f, y in zip(self.flip, real(self, red, cost)))

    p = lpmod.LinearProgram(1, [-1])
    p.add_constraint({0: -1}, lpmod.LESS_EQUAL, -2)
    monkeypatch.setattr(lpmod._Tableau, "duals", unflipped)
    with pytest.raises(lpmod.CertificateError, match="dual sign on row 0"):
        lpmod.solve_lp(p)


def _farkas_holds(p, sol):
    """The row multipliers refute the program in its own space: their
    combination is a valid inequality g.x <= value with g.x >= 0 on every
    point whose nonnegative variables are nonnegative, yet value < 0."""
    y = sol.dual
    for i, sense in enumerate(p.senses):
        if (sense == lpmod.LESS_EQUAL and y[i] < 0) or (sense == lpmod.GREATER_EQUAL and y[i] > 0):
            return False
    g = [Fraction(0)] * p.num_vars
    rows = fraction_rows(p)
    value = sum(y[i] * b for i, (_, b) in enumerate(rows))
    for i, (row, _) in enumerate(rows):
        for j, v in row.items():
            g[j] += y[i] * v
    for j in range(p.num_vars):
        if (g[j] != 0) if j in p.free else (g[j] < 0):
            return False
    return value < 0


def _with_rows(p, objective, rhs):
    """``p``'s rows and free variables under a new objective and right-hand
    sides, each read over its row's stored denominator."""
    q = lpmod.LinearProgram(p.num_vars, objective)
    for j in p.free:
        q.set_free(j)
    for row, sense, b, den in zip(p.rows, p.senses, rhs, p.dens):
        q.add_constraint(row, sense, b, den)
    return q


def _improving_ray_exists(p):
    """``p`` is feasible and its objective unbounded, as two certified
    solves show: ``p`` with no objective is optimal, and some direction r
    of its recession cone has ``c.r > 0``, which the cap ``c.r <= 1`` then
    holds at 1."""
    if lpmod.solve_lp(_with_rows(p, None, p.rhs)).status != lpmod.OPTIMAL:
        return False
    cone = _with_rows(p, p.objective, [0] * len(p.rows))
    cone.add_constraint(dict(enumerate(p.objective)), lpmod.LESS_EQUAL, 1)
    return lpmod.solve_lp(cone).objective_value == 1


def _solved(p):
    """``solve_lp``'s answer, or None for an objective that is unbounded,
    checked so by ``_improving_ray_exists``."""
    try:
        return lpmod.solve_lp(p)
    except lpmod.LPError as exc:
        assert str(exc) == "objective is unbounded"
        assert _improving_ray_exists(p)
        return None


_coef = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _small_programs(draw):
    """Programs with Fraction data, every row sense, right-hand sides of either
    sign, and default, free, one-sided and boxed variables.  A variable
    with a finite bound other than ``x >= 0`` is free, and its bounds are
    rows after the drawn ones (lower before upper, by variable)."""
    num_vars = draw(st.integers(1, 3))
    p = lpmod.LinearProgram(num_vars, draw(st.lists(_coef, min_size=num_vars, max_size=num_vars)))
    bounds = []
    for j in range(num_vars):
        kind = draw(st.sampled_from(["default", "free", "lower", "upper", "boxed"]))
        lo, hi = (0, None) if kind == "default" else (None, None)
        if kind == "lower":
            lo = draw(_coef)
        elif kind == "upper":
            hi = draw(_coef)
        elif kind == "boxed":
            lo = draw(_coef)
            hi = lo + draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
        if (lo, hi) != (0, None):
            p.set_free(j)
            bounds += [(j, sense, b) for sense, b in ((lpmod.GREATER_EQUAL, lo), (lpmod.LESS_EQUAL, hi))
                       if b is not None]
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.dictionaries(st.integers(0, num_vars - 1), _coef, max_size=num_vars))
        p.add_constraint(row, draw(st.sampled_from(lpmod._SENSES)), draw(_coef))
    for j, sense, b in bounds:
        p.add_constraint({j: 1}, sense, b)
    return p


@settings(max_examples=300, deadline=None)
@given(_small_programs())
def test_random_programs_certified(p):
    sol = _solved(p)
    if sol is None:
        return
    assert sol.pivots == sol.phase1_pivots + sol.phase2_pivots
    assert lpmod.check_certificate(p, sol)
    if sol.status == lpmod.INFEASIBLE:
        assert _farkas_holds(p, sol)


@settings(max_examples=300, deadline=None)
@given(_small_programs())
def test_negated_multiplier_is_rejected(p):
    sol = _solved(p)
    if sol is None or sol.status != lpmod.OPTIMAL:
        return
    for i, y in enumerate(sol.dual):
        if y and p.senses[i] != lpmod.EQUAL:
            dual = sol.dual[:i] + (-y,) + sol.dual[i + 1:]
            with pytest.raises(lpmod.CertificateError):
                lpmod.check_certificate(p, replace(sol, dual=dual))


_NUDGES = (
    lambda v: v + Fraction(1, 1009),
    lambda v: v - Fraction(1, 1009),
    lambda v: v * Fraction(1010, 1009),
    lambda v: v * Fraction(1008, 1009),
)


def _nudged(sol):
    """``sol`` with one primal entry, row multiplier or the objective value
    shifted or scaled slightly."""
    for name in ("primal", "dual"):
        vector = getattr(sol, name)
        for i in range(len(vector or ())):
            for nudge in _NUDGES:
                yield replace(sol, **{name: vector[:i] + (nudge(vector[i]),) + vector[i + 1:]})
    if sol.objective_value is not None:
        for nudge in _NUDGES:
            yield replace(sol, objective_value=nudge(sol.objective_value))


def _verdict(check, p, sol):
    try:
        return check(p, sol)
    except lpmod.CertificateError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_small_programs())
def test_integer_check_agrees_with_the_fraction_oracle(p):
    # The integer check and the Fraction reference accept the same
    # certificates and reject the rest for the same first reason.
    sol = _solved(p)
    if sol is None:
        return
    for forged in (sol, *_nudged(sol)):
        expected = _verdict(reference_check_certificate, p, forged)
        assert _verdict(lpmod.check_certificate, p, forged) == expected


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

    def test_margin_column_is_not_a_caller_column(self):
        # Column 1 of a one-variable system would otherwise constrain the
        # margin and turn the feasible x <= 5 into a verdict of infeasible.
        with pytest.raises(lpmod.LPError, match="column 1 out of range"):
            lpmod.check_feasible(1, [({0: 1}, lpmod.LESS_EQUAL, 5), ({1: 1}, lpmod.LESS_EQUAL, -5)])

    @pytest.mark.parametrize("constraints,margin", [
        # Infeasible even without strict rows: a Farkas certificate.
        ([({0: 1}, lpmod.STRICT_LESS, 0), ({0: 1}, lpmod.LESS_EQUAL, -1), ({0: 1}, lpmod.GREATER_EQUAL, 1)], None),
        # Feasible, but only with margin 0: the optimal row multipliers.
        ([({0: 1}, lpmod.STRICT_LESS, 1), ({0: 1}, lpmod.STRICT_GREATER, 1), ({0: 1}, lpmod.EQUAL, 1)], 0),
    ])
    def test_one_multiplier_per_constraint(self, constraints, margin):
        # The cap on the margin is a row of its own; its multiplier is 0 on
        # both paths and is not part of the certificate.
        r = lpmod.check_feasible(1, constraints)
        assert not r.feasible and r.margin == margin
        assert len(r.certificate) == len(constraints)
        assert any(r.certificate)


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


# ---------------------------------------------------------------------------
# The tableau and the revised form make the same pivots.
# ---------------------------------------------------------------------------


def _solved_in(form, p):
    """``solve_lp``'s answer with ``form`` forced, or the LPError text."""
    with mock.patch.object(lpmod, "_form", lambda lp: form):
        try:
            return lpmod.solve_lp(p)
        except lpmod.LPError as exc:
            return str(exc)


def _same_in_both_forms(p):
    """Solve ``p`` in both forms and require the same answer, every work
    counter included; only ``max_denominator_bits`` measures each form's own
    rows.  Returns the tableau's answer."""
    tableau = _solved_in(lpmod._Tableau, p)
    revised = _solved_in(lpmod._Revised, p)
    if isinstance(tableau, str):
        assert revised == tableau
    else:
        assert replace(revised, max_denominator_bits=0) == replace(tableau, max_denominator_bits=0)
    return tableau


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_forms_agree_on_random_bounded_programs(seed):
    sol = _same_in_both_forms(random_bounded_lp(random.Random(seed)))
    assert sol.status == lpmod.OPTIMAL


@settings(max_examples=200, deadline=None)
@given(_small_programs())
def test_forms_agree_on_programs_of_every_shape(p):
    _same_in_both_forms(p)


def _sequence_form_program(n, d, k, variant=Variant.ADVERSARY):
    """The game's sequence-form program."""
    programs = []
    real = lpmod.solve_lp

    def recording(p, **options):
        programs.append(p)
        return real(p, **options)

    with mock.patch.object(lpmod, "solve_lp", recording):
        solver._solve_sequence_lp(build_tree(GameSpec(n, d, k, variant)))
    (p,) = programs
    return p


@pytest.mark.parametrize("n,d,k,variant", [(3, 3, 2, Variant.ADVERSARY), (4, 3, 2, Variant.ADVERSARY),
                                           (5, 3, 3, Variant.ADVERSARY), (4, 4, 2, Variant.RANDOM)])
def test_forms_agree_on_sequence_form_programs(n, d, k, variant):
    assert _same_in_both_forms(_sequence_form_program(n, d, k, variant)).status == lpmod.OPTIMAL


def _forms_picked(run):
    """Row counts and forms ``_form`` picks for the programs ``run`` solves."""
    picked = []
    real = lpmod._form

    def recording(lp):
        picked.append((len(lp.rows), real(lp)))
        return picked[-1][1]

    with mock.patch.object(lpmod, "_form", recording):
        run()
    return picked


def test_size_rule_keeps_the_tiny_programs_on_the_tableau():
    # The accumulation workload's feasibility programs and the masters of
    # the random-revealer games the benchmark solves by column generation.
    def run():
        for n, k, d in [(6, 3, 2), (6, 3, 3), (7, 3, 2)]:
            accumulation.max_losing_subsets_exact(accumulation.AccumulationSpec(n, k, Fraction(d)))
        for n, d, k in [(4, 4, 2), (12, 2, 6), (9, 3, 3), (10, 3, 4)]:
            solver.solve(GameSpec(n, d, k, Variant.RANDOM))

    picked = _forms_picked(run)
    assert len(picked) == 57 + 11 + 2 + 3 + 5  # feasibility programs, then masters per game
    assert {form for _, form in picked} == {lpmod._Tableau}


# ``(5,3,3)``'s program of 144 rows folds to 40, the rows the simplex runs.
@pytest.mark.parametrize("n,d,k,rows", [(5, 3, 3, 40), (5, 4, 2, 320)])
def test_size_rule_sends_the_large_game_programs_to_the_revised_form(n, d, k, rows):
    picked = _forms_picked(lambda: solver.solve(GameSpec(n, d, k, Variant.ADVERSARY)))
    assert picked == [(rows, lpmod._Revised)]


# ---------------------------------------------------------------------------
# Incremental pricing and the column index.
# ---------------------------------------------------------------------------


def _same_as_the_full_scan(p):
    """Solve ``p`` in each form with the incremental Devex pricing and with
    the full scan of ``reference_run_simplex``, and require the same answer,
    every counter and ``max_denominator_bits`` included."""
    for form in (lpmod._Tableau, lpmod._Revised):
        with mock.patch.object(lpmod._Tableau, "run_simplex", reference_run_simplex):
            reference = _solved_in(form, p)
        assert _solved_in(form, p) == reference


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_incremental_pricing_matches_the_full_scan_on_random_bounded_programs(seed):
    _same_as_the_full_scan(random_bounded_lp(random.Random(seed)))


@settings(max_examples=150, deadline=None)
@given(_small_programs())
def test_incremental_pricing_matches_the_full_scan_on_programs_of_every_shape(p):
    _same_as_the_full_scan(p)


@pytest.mark.parametrize("n,d,k", [(3, 3, 2), (4, 3, 2), (5, 3, 3)])
def test_incremental_pricing_matches_the_full_scan_on_sequence_form_programs(n, d, k):
    _same_as_the_full_scan(_sequence_form_program(n, d, k))


def _holders_checked(p):
    """Solve ``p`` in the revised form, checking after every pivot that
    ``holders[u]`` lists, each once, the live rows whose basis-inverse part
    holds ``u``, and no dropped row; returns the number of pivots checked."""
    real = lpmod._Revised.pivot
    checked = []

    def pivot(self, r, col, column):
        real(self, r, col, column)
        expected = {}
        for i, row in enumerate(self.rows):
            if i not in self.dropped:
                for u in row.nums:
                    expected.setdefault(u, []).append(i)
        assert set(expected) <= set(self.holders)
        assert {u: sorted(rows) for u, rows in self.holders.items()} == {u: expected.get(u, []) for u in self.holders}
        assert not set(self.dropped) & {i for rows in self.holders.values() for i in rows}
        checked.append(r)

    with mock.patch.object(lpmod._Revised, "pivot", pivot):
        _solved_in(lpmod._Revised, p)
    return len(checked)


def test_column_index_stays_exact_on_a_game_program():
    assert _holders_checked(_sequence_form_program(5, 3, 3)) == 135


@settings(max_examples=100, deadline=None)
@given(_small_programs())
def test_column_index_stays_exact_on_programs_of_every_shape(p):
    _holders_checked(p)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_column_index_stays_exact_on_random_bounded_programs(seed):
    _holders_checked(random_bounded_lp(random.Random(seed)))


# ---------------------------------------------------------------------------
# Rows of basic unpriced free columns drop out.
# ---------------------------------------------------------------------------


def _row_values(tab, i):
    """Row ``i`` of ``tab`` over every column, and its right-hand side, as
    exact rationals."""
    full = tab.expand(tab.rows[i])
    return {c: Fraction(v, full.den) for c, v in full.nums.items()}, Fraction(full.rhs, full.den)


def _drops_kept(form, p):
    """Solve ``p`` in ``form``, checking after every pivot that each
    unpriced free column that became basic is still basic in its row, that
    the row is dropped, in drop order, and that it holds the values it held
    after its own pivot; returns the number of rows dropped."""
    real = lpmod._Tableau.pivot
    held = {}  # row -> (its free basic column, its values, its right-hand side)

    def pivot(self, r, col, column):
        assert r not in held  # a dropped row is never a pivot row again
        real(self, r, col, column)
        if col in self.unpriced_free:
            held[r] = (col, *_row_values(self, r))
        assert self.dropped == list(held)
        for i, (c, values, rhs) in held.items():
            assert (self.basis[i], *_row_values(self, i)) == (c, values, rhs)

    with mock.patch.object(lpmod._Tableau, "pivot", pivot):
        sol = _solved_in(form, p)
    if not isinstance(sol, str):
        assert sol.dropped_rows == len(held)
    return len(held)


@pytest.mark.parametrize("form", [lpmod._Tableau, lpmod._Revised])
@pytest.mark.parametrize("n,d,k", [(4, 3, 2), (5, 3, 3)])
def test_a_basic_unpriced_free_column_keeps_its_row_on_game_programs(form, n, d, k):
    assert _drops_kept(form, _sequence_form_program(n, d, k)) > 0


@settings(max_examples=150, deadline=None)
@given(_small_programs())
def test_a_basic_unpriced_free_column_keeps_its_row_on_programs_of_every_shape(p):
    for form in (lpmod._Tableau, lpmod._Revised):
        _drops_kept(form, p)


def _restarts_checked(p):
    """Solve ``p`` in the revised form, checking after every restart that
    each initial row is a primitive integer vector and each row's
    basis-inverse part is its basic column alone at a positive weight; and
    at each restart after the constructor's that every row's values and
    right-hand side, and every column the driver reads, are the same
    rationals after it as before, the column index listing the live rows
    only.  Returns the answer and, for each of those restarts, the number of
    rows dropped by then."""
    real = lpmod._Revised.restart
    restarts = []

    def column_values(tab, c):
        return {i: Fraction(a, tab.rows[i].den) for i, a in tab.column(c).items()}

    def integer_rows(tab):
        for nums in tab.initial.values():
            assert all(type(v) is int for v in nums.values()) and gcd(*nums.values()) == 1
        for u, row in zip(tab.basis, tab.rows):
            ((key, w),) = row.nums.items()
            assert key == u and w > 0

    def restart(self, rows):
        if not hasattr(self, "initial"):  # the constructor's start
            real(self, rows)
            integer_rows(self)
            return
        before = [_row_values(self, i) for i in range(len(self.rows))]
        columns = [column_values(self, c) for c in range(self.num_cols)]
        real(self, rows)
        assert [_row_values(self, i) for i in range(len(self.rows))] == before
        assert [column_values(self, c) for c in range(self.num_cols)] == columns
        assert [set(row.nums) for row in self.rows] == [{u} for u in self.basis]
        integer_rows(self)
        live = [i for i in range(len(self.rows)) if i not in self.dropped]
        assert self.holders == {self.basis[i]: [i] for i in live}
        restarts.append(len(self.dropped))

    with mock.patch.object(lpmod._Revised, "restart", restart):
        sol = _solved_in(lpmod._Revised, p)
    return sol, restarts


@pytest.mark.parametrize("n,d,k,variant", [(4, 3, 2, Variant.ADVERSARY), (5, 3, 3, Variant.ADVERSARY),
                                           (4, 4, 2, Variant.RANDOM)])
def test_the_restart_changes_no_value_on_game_programs(n, d, k, variant):
    sol, restarts = _restarts_checked(_sequence_form_program(n, d, k, variant))
    assert sol.status == lpmod.OPTIMAL and restarts == [sol.dropped_rows] and sol.dropped_rows > 0


@settings(max_examples=150, deadline=None)
@given(_small_programs())
def test_the_revised_form_restarts_once_exactly_when_rows_dropped(p):
    sol, restarts = _restarts_checked(p)
    if isinstance(sol, str):  # unbounded in phase 2, after any restart
        assert len(restarts) <= 1
    else:  # an infeasible program stops before phase 2
        assert restarts == ([sol.dropped_rows] if sol.status == lpmod.OPTIMAL and sol.dropped_rows else [])


def test_a_revised_program_with_no_dropped_row_never_restarts():
    # The margin t of a feasibility program is free and priced, so its
    # row stays live; and a program with no free column drops no row.
    p = lpmod.LinearProgram(2, [0, 1])
    p.set_free(1)
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 2)
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 1)
    for program in [p] + [random_bounded_lp(random.Random(seed)) for seed in range(20)]:
        sol, restarts = _restarts_checked(program)
        assert (sol.status, sol.dropped_rows, restarts) == (lpmod.OPTIMAL, 0, [])


def _no_free_column_leaves(form, p):
    """Solve ``p`` in ``form``, checking that no pivot's leaving column is
    free; returns the answer and the ``(row, column)`` of each pivot."""
    real = lpmod._Tableau.pivot
    pivots = []

    def pivot(self, r, col, column):
        assert self.basis[r] not in self.free
        pivots.append((r, col))
        real(self, r, col, column)

    with mock.patch.object(lpmod._Tableau, "pivot", pivot):
        return _solved_in(form, p), pivots


@settings(max_examples=150, deadline=None)
@given(_small_programs())
def test_no_free_column_leaves_on_programs_of_every_shape(p):
    for form in (lpmod._Tableau, lpmod._Revised):
        _no_free_column_leaves(form, p)


@pytest.mark.parametrize("form", [lpmod._Tableau, lpmod._Revised])
@pytest.mark.parametrize("n,d,k", [(3, 3, 2), (4, 3, 2), (5, 3, 3)])
def test_no_free_column_leaves_on_game_programs(form, n, d, k):
    sol, pivots = _no_free_column_leaves(form, _sequence_form_program(n, d, k))
    assert sol.status == lpmod.OPTIMAL and pivots


def test_no_free_column_leaves_on_accumulation_programs():
    # The margin t of each feasibility program is free and priced.
    programs = []
    real = lpmod.solve_lp

    def recording(p, **options):
        programs.append(p)
        return real(p, **options)

    with mock.patch.object(lpmod, "solve_lp", recording):
        for n, k, d in [(5, 3, 2), (6, 3, 2)]:
            accumulation.max_losing_subsets_exact(accumulation.AccumulationSpec(n, k, Fraction(d)))
    assert len(programs) == 11 + 28
    for p in programs:
        for form in (lpmod._Tableau, lpmod._Revised):
            _no_free_column_leaves(form, p)


def test_a_priced_free_column_stays_basic_at_a_negative_value():
    # max t  s.t.  t <= -1,  t free.  The row flips to -t >= 1, and phase 1
    # brings t in decreasing, basic at -1, where it stays.
    p = lpmod.LinearProgram(1, [1])
    p.set_free(0)
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, -1)
    for form in (lpmod._Tableau, lpmod._Revised):
        sol, pivots = _no_free_column_leaves(form, p)
        assert pivots == [(0, 0)]
        assert (sol.status, sol.objective_value, sol.primal, sol.dual) == (lpmod.OPTIMAL, -1, (-1,), (1,))
        assert lpmod.check_certificate(p, sol)


def test_priced_free_columns_keep_their_rows_live():
    # The margin t of a feasibility program is free and priced.
    p = lpmod.LinearProgram(2, [0, 1])
    p.set_free(1)
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 2)
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 1)
    sol = _same_in_both_forms(p)
    assert (sol.objective_value, sol.dropped_rows) == (1, 0)


def test_a_dropped_row_is_read_after_the_rows_dropped_later():
    # max z  s.t.  2x + y = 4,  y - z = 1,  z <= 5,  x and y free.  Phase 1
    # brings x in at row 0 first, a row that still holds y, and then y at
    # row 1, so reading row 0 needs the y that row 1, dropped later, gives.
    p = lpmod.LinearProgram(3, [0, 0, 1])
    p.set_free(0)
    p.set_free(1)
    p.add_constraint({0: 2, 1: 1}, lpmod.EQUAL, 4)
    p.add_constraint({1: 1, 2: -1}, lpmod.EQUAL, 1)
    p.add_constraint({2: 1}, lpmod.LESS_EQUAL, 5)
    real = lpmod._Tableau.pivot
    for form in (lpmod._Tableau, lpmod._Revised):
        drops = []

        def pivot(self, r, col, column):
            real(self, r, col, column)
            if self.dropped[-1:] == [r]:
                drops.append((r, col, sorted(self.expand(self.rows[r]).nums)))

        with mock.patch.object(lpmod._Tableau, "pivot", pivot):
            sol = _solved_in(form, p)
        assert [(r, col) for r, col, _ in drops] == [(0, 0), (1, 1)]  # x, then y
        assert 1 in drops[0][2]
        assert sol.status == lpmod.OPTIMAL
        assert (sol.objective_value, sol.primal, sol.dropped_rows) == (5, (-1, 6, 5), 2)


def _phase2_start(form, p):
    """Solve ``p`` in ``form`` and return, as Devex phase 2 starts, each
    unpriced free column as ``(column, row where it is basic or None, its
    entries in the live rows)``, and the dropped rows."""
    real = lpmod._Tableau.run_simplex
    seen = []

    def run_simplex(self, cost, barred):
        if cost is self.cost:
            columns = [
                (col, self.basis.index(col) if col in self.basis else None, self.column(col))
                for col in sorted(self.unpriced_free)
            ]
            seen.append((columns, list(self.dropped)))
        return real(self, cost, barred)

    with mock.patch.object(lpmod._Tableau, "run_simplex", run_simplex):
        sol = _solved_in(form, p)
    assert lpmod.check_certificate(p, sol)
    (start,) = seen
    return start


@pytest.mark.parametrize("form", [lpmod._Tableau, lpmod._Revised])
def test_phase2_starts_with_every_enterable_unpriced_free_variable_basic(form):
    columns, dropped = _phase2_start(form, _sequence_form_program(5, 3, 3))
    for _, r, entries in columns:
        if r is not None:
            assert r in dropped
        else:
            # No live entry of either sign, so it could enter in neither
            # direction.
            assert not entries
    assert sum(r is not None for _, r, _ in columns) == len(dropped) > 0


@pytest.mark.parametrize("form", [lpmod._Tableau, lpmod._Revised])
def test_an_unpriced_free_variable_enters_decreasing(form):
    # max y  s.t.  y + z = 2,  -x - y <= 1,  x free.  Phase 1 brings y in
    # at row 0, which leaves row 1 as -x + z <= 3: x's column has only
    # that -1, so no row bounds x increasing, and it enters decreasing at
    # row 1.
    p = lpmod.LinearProgram(3, [0, 1, 0])
    p.set_free(0)
    p.add_constraint({1: 1, 2: 1}, lpmod.EQUAL, 2)
    p.add_constraint({0: -1, 1: -1}, lpmod.LESS_EQUAL, 1)
    real = lpmod._enter_unpriced_free
    after_phase1 = []

    def enter(tab):
        after_phase1.append(tab.column(0))
        real(tab)

    with mock.patch.object(lpmod, "_enter_unpriced_free", enter):
        ((col, r, _),), dropped = _phase2_start(form, p)
    (entries,) = after_phase1
    assert list(entries) == [1] and entries[1] < 0
    assert (col, r, dropped) == (0, 1, [1])
    sol = _same_in_both_forms(p)
    assert (sol.objective_value, sol.primal, sol.dropped_rows) == (2, (-3, 2, 0), 1)


def _solved_without_drops(form, p):
    """``_solved_in`` with no column counted as unpriced free, so no row
    drops and no column enters before Devex phase 2."""
    real = lpmod._Tableau.__init__

    def init(self, lp):
        real(self, lp)
        self.unpriced_free = set()

    with mock.patch.object(lpmod._Tableau, "__init__", init):
        return _solved_in(form, p)


def _pivots_of(solve, form, p):
    """``solve(form, p)`` and the ``(row, column)`` of each of its pivots."""
    real = lpmod._Tableau.pivot
    pivots = []

    def pivot(self, r, col, column):
        pivots.append((r, col))
        real(self, r, col, column)

    with mock.patch.object(lpmod._Tableau, "pivot", pivot):
        return solve(form, p), pivots


@settings(max_examples=200, deadline=None)
@given(_small_programs())
def test_drops_change_no_answer(p):
    # The same status and value as with no drops, a certified answer, and
    # the whole answer but the dropped count and the denominators wherever
    # the pivots are the same.
    for form in (lpmod._Tableau, lpmod._Revised):
        sol, pivots = _pivots_of(_solved_in, form, p)
        plain, plain_pivots = _pivots_of(_solved_without_drops, form, p)
        if isinstance(sol, str) or isinstance(plain, str):
            assert sol == plain
            continue
        assert plain.dropped_rows == 0
        assert (sol.status, sol.objective_value) == (plain.status, plain.objective_value)
        assert lpmod.check_certificate(p, sol)
        if pivots == plain_pivots:
            assert replace(sol, dropped_rows=0, max_denominator_bits=0) == replace(plain, max_denominator_bits=0)


# ---------------------------------------------------------------------------
# The fold: solve the quotient by the coarsest equitable partition, lift it.
# ---------------------------------------------------------------------------


@st.composite
def _planted_programs(draw):
    """A program that a column permutation ``sigma`` maps onto itself, with
    ``sigma``: each drawn row comes with all its images under ``sigma``, the
    objective and the free columns are constant on ``sigma``'s cycles, and
    every column is boxed (free ones from below too), so the objective is
    bounded.  Right-hand sides of either sign, so some are infeasible."""
    n = draw(st.integers(2, 6))
    sigma = draw(st.permutations(range(n)))
    cycle = list(range(n))  # each column's cycle, named by its least column
    for j in range(n):
        k = sigma[j]
        while k != j:
            cycle[k] = min(cycle[k], j)
            k = sigma[k]
    costs = draw(st.lists(_coef, min_size=n, max_size=n))
    p = lpmod.LinearProgram(n, [costs[cycle[j]] for j in range(n)])
    free = draw(st.sets(st.integers(0, n - 1)))
    for j in range(n):
        if cycle[j] in free:
            p.set_free(j)
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.dictionaries(st.integers(0, n - 1), _coef, min_size=1, max_size=n))
        sense, b = draw(st.sampled_from(lpmod._SENSES)), draw(_coef)
        image = row
        while True:
            p.add_constraint(image, sense, b)
            image = {sigma[j]: v for j, v in image.items()}
            if image == row:
                break
    for j in range(n):
        p.add_constraint({j: 1}, lpmod.LESS_EQUAL, 4)
    for j in sorted(p.free):
        p.add_constraint({j: 1}, lpmod.GREATER_EQUAL, -4)
    return p, sigma


@settings(max_examples=200, deadline=None)
@given(_planted_programs())
def test_fold_agrees_on_programs_with_a_planted_symmetry(planted):
    p, sigma = planted
    plain, folded = lpmod.solve_lp(p), lpmod.solve_lp(p, fold=True)
    assert (folded.status, folded.objective_value) == (plain.status, plain.objective_value)
    assert lpmod.check_certificate(p, plain) and lpmod.check_certificate(p, folded)
    assert reference_check_certificate(p, folded)
    row_ids, col_ids = lpmod._refine(p)
    # sigma's cycles partition the columns equitably, so the coarsest
    # equitable partition puts each cycle in one class.
    assert all(col_ids[j] == col_ids[sigma[j]] for j in range(len(sigma)))
    assert (folded.folded_rows, folded.folded_cols) == (len(set(row_ids)), len(set(col_ids)))
    for ids, values in ((col_ids, folded.primal), (row_ids, folded.dual)):
        for i, c in enumerate(ids if values else ()):
            assert values[i] == values[ids.index(c)]  # constant on each class


def test_fold_lifts_a_farkas_certificate():
    # x0 <= 1 and x1 <= 1, a mirror pair, leave no room for x0 + x1 >= 3.
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 1)
    p.add_constraint({1: 1}, lpmod.LESS_EQUAL, 1)
    p.add_constraint({0: 1, 1: 1}, lpmod.GREATER_EQUAL, 3)
    sol = lpmod.solve_lp(p, fold=True)
    assert (sol.status, sol.folded_rows, sol.folded_cols) == (lpmod.INFEASIBLE, 2, 1)
    assert sol.dual[0] == sol.dual[1] > 0 > sol.dual[2]
    assert lpmod.check_certificate(p, sol) and _farkas_holds(p, sol)


def test_fold_of_a_program_with_no_symmetry_changes_nothing():
    p = lpmod.LinearProgram(3, [3, 2, 1])
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 4)
    p.add_constraint({1: 2, 2: 1}, lpmod.LESS_EQUAL, 5)
    p.add_constraint({0: 1, 2: 3}, lpmod.LESS_EQUAL, 6)
    assert lpmod._refine(p) == ([0, 1, 2], [0, 1, 2])
    sol = lpmod.solve_lp(p, fold=True)
    assert sol == lpmod.solve_lp(p)
    assert (sol.folded_rows, sol.folded_cols) == (3, 3)


def test_a_partition_that_is_not_equitable_fails_the_certificate(monkeypatch):
    # One class of rows and one of columns, though x0 <= 1 and x0 + x1 <= 1
    # sum to 1 and 2 over it: the quotient's optimum 2 lifts to a point that
    # breaks the second row, so the check refuses it, where the optimum is 1.
    p = lpmod.LinearProgram(2, [1, 1])
    p.add_constraint({0: 1}, lpmod.LESS_EQUAL, 1)
    p.add_constraint({0: 1, 1: 1}, lpmod.LESS_EQUAL, 1)
    assert lpmod.solve_lp(p, fold=True).objective_value == 1
    monkeypatch.setattr(lpmod, "_refine", lambda lp: ([0, 0], [0, 0]))
    with pytest.raises(lpmod.CertificateError, match="violates row 1"):
        lpmod.solve_lp(p, fold=True)


@pytest.mark.parametrize("n,d,k,rows,cols", [(5, 3, 3, 40, 106), (4, 3, 3, 30, 42), (4, 1, 3, 4, 4)])
def test_fold_of_a_game_program(n, d, k, rows, cols):
    # The same value as the program itself, on fewer rows and columns; a
    # program with no symmetry, (4,1,3)'s, is its own quotient and gives
    # the same solution, counters included.
    p = _sequence_form_program(n, d, k)
    sol, plain = lpmod.solve_lp(p, fold=True), lpmod.solve_lp(p)
    assert sol.objective_value == plain.objective_value
    assert (sol.folded_rows, sol.folded_cols) == (rows, cols)
    if (rows, cols) == (len(p.rows), p.num_vars):
        assert sol == plain
