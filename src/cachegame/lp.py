"""Exact linear programming over rationals.

A two-phase primal simplex that maximizes (a caller that wants a minimum
negates its objective) over fraction-free rows: each row is integer
numerators over one positive integer denominator, put in lowest terms
whenever that denominator changes, so a pivot is plain integer arithmetic
and values become Fractions only at the edges (duals and primal point).
There is one pricing rule, Devex: the column with the largest squared
reduced cost over a float reference weight enters, and once zero-step
pivots persist a stall guard switches to Bland's rule, which guarantees
termination.  The weights only pick the entering column; no float reaches
a row, a value or a certificate.  The program stores each row in that
form, in lowest terms, as the caller adds it; the form's constructor and
the certificate read it as stored, so everything up to the answer runs in
integers.  Variables are nonnegative or free; a finite bound is a row.

One driver runs the simplex in either of two forms.  They make the same
pivots and return the same solution, but for ``max_denominator_bits``,
which each form measures on the rows it keeps:

* the tableau (``_Tableau``) keeps every row over every column, and a pivot
  updates each row that has an entry in the entering column;
* the revised form (``_Revised``) keeps each row's basis-inverse part
  only, the entries the tableau keeps in the initial basis's slack and
  artificial columns, over the row's own denominator.  Its initial rows
  are primitive integer vectors with no denominator, so the entering
  column ``B⁻¹A_q`` and the pivot row ``B⁻¹_r A``, computed from them when
  the driver reads them, are over each row's own denominator too, and a
  pivot updates no structural entry.

A pivot costs what it changes.  It changes only the pivot row's columns of
the rows it touches, so an update that keeps a row's denominator reduces
nothing, the revised form's column index learns the columns a row gains and
loses from the update itself (and a row that shrank is copied, to shed the
slots its dict keeps for deleted entries), and Devex pricing scores anew
only the columns of the expanded pivot row.

Each of the caller's variables is one column.  A free column enters in
the direction its reduced cost gives and, since no sign bounds it, never
leaves once basic: the ratio test skips its row.  Where a free column the
objective does not price (a game's information-set values) becomes basic,
its row drops out of the working rows: no later pivot reads or updates
it, and once the simplex ends the column's value is read back off the row
as it stood after its own pivot.

So phase 2 starts by bringing each such column in, in column order, at
the row the ratio test picks (decreasing if no live row bounds it
increasing), before Devex prices anything: a crash basis (Bixby 1992).
Their rows drop while the basis-inverse rows are still sparse, where Devex
would bring the columns in one at a time between its costly pivots, so
later pivots update fewer and sparser rows.  The pivots may rise (124 to
135 at the ``(5,3,3)`` adversary program) as the time falls.

Once those columns are in, if any row has dropped, the revised form
restarts from its own rows: a reinversion of its explicit inverse at the
crash basis (the refactorization of Forrest and Tomlin 1972, done once).
Each row's expansion over every column, divided by its numerators' gcd
``g``, becomes that row's initial row, keyed by its basic column, and each
basis-inverse part becomes that column alone at ``g``.  Before it, every
live part still carries entries in the dropped rows' initial basic
columns, so each later pivot would update rows longer than the expanded
rows themselves.  Every value the driver reads is the same rational after
the restart, so the pivots are the same.  Restarting again every few
dozen or hundred pivots measured slower, so it restarts once.

The game programs are large and sparse, and most tableau updates touch
structural entries that no later pivot reads; on tiny dense programs the
on-demand reads cost more than they save.  So ``_form`` picks the form from
the number of rows alone.

``solve_lp(lp, fold=True)`` first folds the program by its symmetry
(Grohe, Kersting, Mladenov and Selman, ESA 2014; the orbit case is Bödi,
Herr and Joswig, Math. Prog. 2013).  Colour refinement (``_refine``) finds
the coarsest equitable partition of the rows and columns: every row of a
class has the same sum over each column class, every column of a class the
same sum over each row class, and the senses, right-hand sides, costs and
free flags are constant on classes.  The quotient has one column per column
class, its mass ``w_P``, and one row per row class, that class's first row
read at ``x_j = w_P / |P|``.  Averaging over the classes maps feasible
points to feasible points and keeps the objective, so the quotient has the
program's optimum; and a quotient solution lifts to ``x_j = w_P / |P|``,
``y_i = y_Q / |Q|``, where ``y·A_j`` is the quotient's ``y·A_P`` because
``|Q|`` times a row sum over ``P`` is ``|P|`` times a column sum over ``Q``.
The lifted pair is checked like any other, on the caller's rows, so a
partition that was not equitable fails the check instead of reporting a
value.

Before ``solve_lp`` returns, ``check_certificate`` verifies the answer
against the caller's own rows as the program stores them, so the mapping
back from the form's flipped rows and dropped rows is checked too:

* ``OPTIMAL``  -- a feasible point, row multipliers of the signs their
  senses allow, dual-feasible reduced costs, and equal primal objective,
  dual objective and ``objective_value`` (strong duality).
* ``INFEASIBLE`` -- Farkas multipliers of the same signs combining the
  rows into an impossible inequality.

An unbounded objective has no certificate here: ``solve_lp`` raises
``LPError`` for it and reports no value.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rational import ONE, ZERO

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
# The sign a row's slack ``b - a.x`` and its multiplier must have: 0 means
# the slack is 0 and the multiplier free.
_SLACK_SIGN = {LESS_EQUAL: 1, EQUAL: 0, GREATER_EQUAL: -1}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# The stall guard switches to Bland's rule once more than this many times
# (columns + rows) pivots in a row make no progress.
_STALL_FACTOR = 2


class LPError(ValueError):
    """Malformed program (bad dimensions, columns or senses) or an unbounded objective."""


class CertificateError(RuntimeError):
    """A certificate failed its check; raised inside ``solve_lp``, a solver bug."""


def _rational(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class LinearProgram:
    """max  c.x  subject to rows ``a.x (<=|=|>=) b``.

    Every variable is nonnegative unless ``set_free`` puts it in ``free``; a
    finite bound is written as a row.  Row ``i`` is stored in lowest terms:
    integer numerators ``rows[i]`` (zeros left out) and ``rhs[i]`` over a
    positive ``dens[i]``.  To minimize ``c.x``, maximize ``-c.x``.
    """

    def __init__(self, num_vars: int, objective=None):
        if num_vars < 0:
            raise LPError("negative variable count")
        self.num_vars = num_vars
        if objective is None:
            objective = [ZERO] * num_vars
        self.objective = [_rational(c) for c in objective]
        if len(self.objective) != num_vars:
            raise LPError("objective length does not match variable count")
        self.rows: list[dict[int, int]] = []
        self.senses: list[str] = []
        self.rhs: list[int] = []
        self.dens: list[int] = []
        self.free: set[int] = set()

    def _column(self, j: int) -> int:
        if not 0 <= j < self.num_vars:
            raise LPError(f"column {j} out of range")
        return j

    def set_objective(self, j: int, coeff) -> None:
        self.objective[self._column(j)] = _rational(coeff)

    def set_free(self, j: int) -> None:
        """Let variable ``j`` take any sign."""
        self.free.add(self._column(j))

    def add_constraint(self, coeffs: dict, sense: str, rhs, den: int = 1) -> int:
        """Add one row; ``coeffs`` is a dict from column to coefficient, each
        read over ``den`` as ``rhs`` is.  Ints need one gcd to be in lowest
        terms; any other row goes over its Fractions' lcm first."""
        if sense not in _SENSES:
            raise LPError(f"unknown sense {sense!r}")
        if type(den) is not int or den < 1:
            raise LPError(f"row denominator {den!r} is not a positive int")
        if coeffs:  # a column out of range is the least or the greatest
            self._column(min(coeffs))
            self._column(max(coeffs))
        if type(rhs) is not int or any(type(v) is not int for v in coeffs.values()):
            row = _Row.over_lcm({j: _rational(v) for j, v in coeffs.items()}, _rational(rhs))
            coeffs, rhs, den = row.nums, row.rhs, row.den * den
        nums = {j: v for j, v in coeffs.items() if v}
        g = gcd(den, rhs, *nums.values())
        if g != 1:
            nums = {j: v // g for j, v in nums.items()}
            rhs, den = rhs // g, den // g
        self.rows.append(nums)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.dens.append(den)
        return len(self.rows) - 1


@dataclass
class LPSolution:
    """Outcome of one solve.

    ``dual`` is indexed by the original constraints.  For ``INFEASIBLE`` it
    holds the Farkas multipliers, and ``objective_value`` and ``primal`` are
    None.

    ``pivots`` is the total of ``phase1_pivots`` (driving artificials out
    included) and ``phase2_pivots`` (the entry of the unpriced free columns
    before Devex pricing included).  ``degenerate_pivots`` counts pivots
    with a zero step, ``bland_fallback`` tells whether Devex pricing
    stalled and switched to Bland's rule, and
    ``max_denominator_bits`` is the bit length of the largest row
    denominator the engine held: the whole rows of the tableau, or the
    basis-inverse rows of the revised form (its initial rows have no
    denominator), so the same program reads a different figure under
    each form.  ``dropped_rows`` counts the rows
    that left the working rows once an unpriced free column became basic
    there; both forms drop the same rows.

    ``phase1_seconds`` (driving artificials out included),
    ``phase2_seconds`` (the entry of the unpriced free columns, and reading
    the point and the duals, included) and
    ``certificate_seconds`` are the wall times of the two phases and of
    ``check_certificate``.  They are left out of equality: two solutions
    with the same answer and counters are equal.

    ``folded_rows`` and ``folded_cols`` are the size of the program the
    simplex ran: the quotient when ``solve_lp`` folded, else the caller's;
    every other counter is that program's too.  ``fold_seconds`` is the wall
    time of the colour refinement, the quotient's rows and the lift.
    """

    status: str
    objective_value: Fraction | None
    primal: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    pivots: int = 0
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    degenerate_pivots: int = 0
    bland_fallback: bool = False
    max_denominator_bits: int = 0
    dropped_rows: int = 0
    folded_rows: int = 0
    folded_cols: int = 0
    fold_seconds: float = field(default=0.0, compare=False)
    phase1_seconds: float = field(default=0.0, compare=False)
    phase2_seconds: float = field(default=0.0, compare=False)
    certificate_seconds: float = field(default=0.0, compare=False)


# ---------------------------------------------------------------------------
# The forms:  max c.x,  A x = b,  x >= 0 outside the free columns,  b >= 0
# in the rows whose basic column is not free.
# ---------------------------------------------------------------------------


class _Row:
    """One row in fraction-free form.

    Column ``c`` holds ``nums[c] / den`` and the right-hand side is
    ``rhs / den``: integer numerators over one positive denominator, put in
    lowest terms whenever the denominator changes.  An update that keeps
    the denominator changes only the pivot row's columns and skips the
    reduction, so between two updates that change it a row may carry a
    common factor; the values, and so every pivot, are the same.
    """

    __slots__ = ("nums", "rhs", "den")

    def __init__(self, nums: dict[int, int], rhs: int, den: int):
        self.nums, self.rhs, self.den = nums, rhs, den

    @classmethod
    def over_lcm(cls, row: dict[int, Fraction], rhs: Fraction) -> _Row:
        """A row of Fractions and its ``rhs``, put over the lcm of their
        denominators (which leaves them in lowest terms)."""
        den = lcm(rhs.denominator, *(v.denominator for v in row.values()))
        nums = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        return cls(nums, rhs.numerator * (den // rhs.denominator), den)

    def make_unit(self, p: int) -> None:
        """Divide the row by its pivot-column entry ``p / den``, which
        becomes 1."""
        nums, rhs = self.nums, self.rhs
        g = gcd(p, rhs, *nums.values())
        g = g if p > 0 else -g
        if g != 1:
            nums = {c: v // g for c, v in nums.items()}
            rhs //= g
        self.nums, self.rhs, self.den = nums, rhs, p // g

    def eliminate(self, f: int, prow: _Row) -> tuple[list[int], list[int]]:
        """Subtract the multiple of ``prow`` (a unit in the pivot column)
        that clears this row's pivot-column entry ``f / den``:
        ``(row·P − (f/g)·prow) / (den·P)`` with ``g = gcd(f, prow.den)``
        and ``P = prow.den / g``, in plain integers.  Only ``prow``'s
        columns change, so with ``P = 1`` the row keeps its denominator and
        is not reduced; otherwise it is rescaled anyway and put in lowest
        terms.  Returns the columns the row gained (it had no entry there)
        and lost (its entry cancelled)."""
        g = gcd(f, prow.den)
        f, p = f // g, prow.den // g
        nums = {c: v * p for c, v in self.nums.items()} if p != 1 else self.nums
        gained, lost = [], []
        for c, v in prow.nums.items():
            old = nums.get(c)
            if old is None:
                nums[c] = -f * v
                gained.append(c)
            elif nv := old - f * v:
                nums[c] = nv
            else:
                del nums[c]
                lost.append(c)
        rhs = self.rhs * p - f * prow.rhs
        if p == 1:
            self.rhs = rhs
            return gained, lost
        den = self.den * p
        g = gcd(den, rhs, *nums.values())
        if g != 1:
            nums = {c: v // g for c, v in nums.items()}
            rhs //= g
            den //= g
        self.nums, self.rhs, self.den = nums, rhs, den
        return gained, lost


class _Tableau:
    """Sparse tableau of fraction-free integer rows with explicit
    slack/artificial bookkeeping, and the simplex driver both forms run.

    The constructor reads the caller's program.  Column ``j`` is the
    caller's variable ``j``, free if it is in ``free``; ``unpriced_free``
    holds the free columns the objective does not price.  Each row is a
    copy of the caller's stored row, already in lowest terms, negated
    (``flip``) if its right-hand side is negative, and gains its slack,
    surplus or artificial column after the caller's columns.  The cost is
    the objective put over the lcm of its denominators, a ``_Row`` too.

    The driver reads the rows through ``column`` and ``expand`` only; the
    revised form overrides those two, and ``reindex``, which ``pivot``
    calls to keep its column index.  The live rows are those not in
    ``dropped``: ``column`` reports only them, so a dropped row is never
    again a ratio-test candidate or an elimination target."""

    def __init__(self, lp: LinearProgram):
        self.num_vars = self.num_cols = lp.num_vars
        self.free = set(lp.free)
        self.cost = _Row.over_lcm({j: c for j, c in enumerate(lp.objective) if c}, ZERO)
        self.unpriced_free = {j for j in lp.free if j not in self.cost.nums}

        m = len(lp.rows)
        self.rows: list[_Row] = []
        self.flip: list[int] = []
        self.basis: list[int] = [-1] * m
        self.unit_col: list[int] = [-1] * m  # initial +/-1 column of each row
        self.unit_sign: list[int] = [0] * m
        self.artificial: set[int] = set()
        self.pivots = 0
        self.phase1_pivots = 0
        self.degenerate_pivots = 0
        self.bland_fallback = False
        self.dropped: list[int] = []  # rows of basic unpriced free columns, in drop order

        for i, (row, b, den, sense) in enumerate(zip(lp.rows, lp.rhs, lp.dens, lp.senses)):
            flip = -1 if b < 0 else 1
            self.flip.append(flip)
            nums = {j: -v for j, v in row.items()} if b < 0 else dict(row)  # copied: pivots update rows in place
            self.rows.append(_Row(nums, flip * b, den))
            # The flipped row's slack sign picks a slack (1), a surplus then
            # an artificial (-1), or an artificial alone (0); an entry of ±1
            # is ``±den`` over ``den``, and the last column is basic.
            sign = flip * _SLACK_SIGN[sense]
            col = self.unit_col[i] = self._new_col()
            self.unit_sign[i] = sign or 1
            nums[col] = self.unit_sign[i] * den
            if sign < 0:
                col = self._new_col()
                nums[col] = den
            if sign < 1:
                self.artificial.add(col)
            self.basis[i] = col
        self.max_den_bits = max((row.den.bit_length() for row in self.rows), default=0)
        self.restart(self.rows)

    def _new_col(self) -> int:
        col = self.num_cols
        self.num_cols += 1
        return col

    def counters(self) -> dict:
        """The work counters an LPSolution reports."""
        return {
            "pivots": self.pivots,
            "phase1_pivots": self.phase1_pivots,
            "phase2_pivots": self.pivots - self.phase1_pivots,
            "degenerate_pivots": self.degenerate_pivots,
            "bland_fallback": self.bland_fallback,
            "max_denominator_bits": self.max_den_bits,
            "dropped_rows": len(self.dropped),
            "folded_rows": len(self.rows),
            "folded_cols": self.num_vars,
        }

    # -- the two reads the driver makes of a form --------------------------

    def column(self, col: int) -> dict[int, int]:
        """The nonzero entries of column ``col`` in the live rows: row ``i``
        holds ``entries[i] / rows[i].den``."""
        entries = {i: a for i, row in enumerate(self.rows) if (a := row.nums.get(col))}
        for r in self.dropped:
            entries.pop(r, None)
        return entries

    def expand(self, row: _Row) -> _Row:
        """The whole tableau row of a row this form keeps: the row itself."""
        return row

    # -- the driver ----------------------------------------------------------

    def reduced_costs(self, cost: _Row) -> _Row:
        """c_j - y.A_j for all columns, as a row whose right-hand side is
        minus the basis objective value (so pivots update it like any row).
        It need not be in lowest terms; like any row, an update that changes
        its denominator puts it there."""
        priced = [(cost.nums[b], row) for b, row in zip(self.basis, self.rows) if b in cost.nums]
        den = lcm(*(row.den for _, row in priced))
        minus: dict[int, int] = {}  # minus the priced rows' cost-weighted sum
        value = 0
        for cb, row in priced:
            f = cb * (den // row.den)
            value -= f * row.rhs
            for c, v in row.nums.items():
                minus[c] = minus.get(c, 0) - f * v
        minus = self.expand(_Row(minus, value, den))
        red = minus.nums
        for c, v in cost.nums.items():
            red[c] = red.get(c, 0) + v * minus.den
        return _Row({c: v for c, v in red.items() if v}, minus.rhs, cost.den * minus.den)

    def pivot(self, r: int, col: int, column: dict[int, int]) -> None:
        """Bring ``col``, read as ``column``, into the basis at row ``r``."""
        self.pivots += 1
        prow = self.rows[r]
        if not prow.rhs:
            self.degenerate_pivots += 1
        prow.make_unit(column[r])
        bits = prow.den.bit_length()
        rows = self.rows
        for i, f in column.items():
            if i != r:
                row = rows[i]
                gained, lost = row.eliminate(f, prow)
                if gained or lost:
                    self.reindex(i, gained, lost)
                    if len(lost) > len(gained):
                        # A dict keeps the slots of its deleted entries
                        # until it grows again; a copy of a shrunk row sheds them.
                        row.nums = dict(row.nums)
                bits = max(bits, row.den.bit_length())
        self.max_den_bits = max(self.max_den_bits, bits)
        self.basis[r] = col
        if col in self.unpriced_free:
            # The row drops out of the live rows, keeping the entries it
            # has now, and out of the column index.
            self.dropped.append(r)
            self.reindex(r, [], list(self.rows[r].nums))

    def ratio_test(self, column: dict[int, int], sign: int = 1) -> int | None:
        """The row where a column read as ``column`` enters, increasing if
        ``sign`` is 1 and decreasing if it is -1: among the live rows whose
        basic column is not free and whose entry has the sign of ``sign``,
        the least ratio rhs/|a| (the row denominator cancels), compared by
        cross-multiplication.  Ties go to the lowest basic column, so the
        rows' order does not matter.  None if there is no such row."""
        rows, basis, free = self.rows, self.basis, self.free
        entries = column if sign > 0 else {i: -a for i, a in column.items()}
        leave = None
        for i, a in entries.items():
            if a <= 0 or basis[i] in free:
                continue
            row_rhs = rows[i].rhs
            if leave is None:
                leave, lead_rhs, lead_a = i, row_rhs, a
                continue
            lhs, rhs = row_rhs * lead_a, lead_rhs * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave, lead_rhs, lead_a = i, row_rhs, a
        return leave

    def reindex(self, i: int, gained: list[int], lost: list[int]) -> None:
        """Note the columns row ``i`` gained and lost in a pivot (all of
        them, as it drops out); the tableau keeps no column index."""

    def restart(self, rows: list[_Row]) -> None:
        """Start every row afresh from ``rows``, row ``i`` over every column,
        as the constructor does last; the tableau keeps them already."""

    def run_simplex(self, cost: _Row, barred: set[int]) -> _Row:
        """Maximize, returning the optimal reduced-cost row; raise LPError
        if the objective is unbounded.

        A column outside ``barred`` is eligible if its reduced cost ``d_j``
        is positive, or nonzero for a free column, which enters increasing
        or decreasing as the sign of ``d_j`` says.  Devex pricing (Harris
        1973): the eligible column with the largest ``d_j² / w_j`` enters,
        lowest column first on ties, where ``w_j`` is a float reference
        weight, 1 for every column at each call.  After a pivot on
        ``(r, q)`` each column ``j`` of the pivot row takes
        ``max(w_j, x_j²·w_q)`` with ``x_j = α_rj / α_rq``, and the leaving
        column ``max(w_q / α_rq², 1)``.  Each ``d_j`` and ``x_j`` is one
        correctly rounded division of two integers, so it depends on the
        rational value alone and both forms price alike.  Floats only pick the entering column: the ratio test,
        the stall guard, the pivot and the answer are exact.  A ratio of
        2**1024 or more has no float, and a nan score (inf / inf) has no
        order; Bland's rule then finishes the phase, as it does once
        zero-step pivots persist.

        A pivot changes the reduced cost and the weight of the expanded
        pivot row's columns only (rescaling ``red`` keeps its values), so
        each eligible column keeps its score, those columns are scored
        anew after each pivot, and a heap of ``(-score, column)`` finds the
        largest, lowest column first.  Its stale entries are dropped when
        they reach the top, and the heap is rebuilt from the live scores
        once they outnumber them."""
        red = self.reduced_costs(cost)
        free = self.free
        weights = [1.0] * self.num_cols
        scores: dict[int, float] = {}  # eligible column -> d_j² / w_j
        heap: list[tuple[float, int]] = []  # (-score, column), stale entries too

        def rescore(cols) -> None:
            """Score the eligible columns of ``cols`` anew."""
            nums, den = red.nums, red.den
            for c in cols:
                v = nums.get(c, 0)
                if (v <= 0 and (not v or c not in free)) or c in barred:
                    scores.pop(c, None)
                    continue
                d = v / den
                score = d * d / weights[c]
                if score != scores.get(c):
                    if score != score:  # inf / inf: both overflowed
                        raise OverflowError("a nan score has no order")
                    scores[c] = score
                    heappush(heap, (-score, c))
            if len(heap) > 2 * len(scores):
                heap[:] = [(-score, c) for c, score in scores.items()]
                heapify(heap)

        bland = False
        try:
            rescore(red.nums)
        except OverflowError:
            bland = self.bland_fallback = True
        stall = -1  # the first pivot has no earlier objective value to repeat
        while True:
            entering = None
            if not bland:
                while heap and scores.get(heap[0][1]) != -heap[0][0]:
                    heappop(heap)
                if heap:
                    entering = heap[0][1]
            else:
                for c, v in red.nums.items():
                    if (v <= 0 and (not v or c not in free)) or c in barred:
                        continue
                    if entering is None or c < entering:
                        entering = c
            if entering is None:
                return red
            column = self.column(entering)
            leave = self.ratio_test(column, 1 if red.nums[entering] > 0 else -1)
            if leave is None:
                raise LPError("objective is unbounded")
            leaving = self.basis[leave]
            self.pivot(leave, entering, column)
            prow = self.expand(self.rows[leave])
            red.eliminate(red.nums[entering], prow)
            if not bland:
                # The pivot row now holds x_j = α_rj / α_rq, and 1 / α_rq in
                # the leaving column.
                den, wq = prow.den, weights[entering]
                try:
                    for c, v in prow.nums.items():
                        x = v / den
                        w = x * x * wq
                        if w > weights[c]:
                            weights[c] = w
                    x = prow.nums[leaving] / den
                    weights[leaving] = max(1.0, x * x * wq)
                    rescore(prow.nums)
                except OverflowError:
                    bland = self.bland_fallback = True
                # Degeneracy guard: persistent zero-progress pivots switch
                # to Bland's rule, restoring the termination guarantee.  The
                # objective moves by |red[entering]| times the step, so a
                # pivot makes no progress exactly when its step is zero.
                stall = 0 if prow.rhs else stall + 1
                if stall > _STALL_FACTOR * (self.num_cols + len(self.rows)):
                    bland = self.bland_fallback = True

    def duals(self, red: _Row, cost: _Row) -> tuple[Fraction, ...]:
        """Multipliers of the caller's rows, read off the unit columns: each
        row's price undoes its row's sign ``flip``."""
        out = []
        for col, sign, flip in zip(self.unit_col, self.unit_sign, self.flip):
            # r = c - y_i * sign  =>  y_i = (c - r) / sign
            c_minus_r = cost.nums.get(col, 0) * red.den - red.nums.get(col, 0) * cost.den
            out.append(Fraction(flip * sign * c_minus_r, cost.den * red.den))
        return tuple(out)

    def structural_point(self) -> tuple[Fraction, ...]:
        """The caller's variables at the basic solution.  A dropped row's
        basic value is read off the row as it stood after its own pivot, in
        reverse drop order: each other column of that row was nonbasic then,
        so it is now 0, basic in a live row, or basic in a row dropped later
        and already read."""
        dropped = set(self.dropped)
        values = {self.basis[i]: Fraction(row.rhs, row.den)
                  for i, row in enumerate(self.rows) if row.rhs and i not in dropped}
        for r in reversed(self.dropped):
            row, b = self.expand(self.rows[r]), self.basis[r]
            rest = sum((v * values[c] for c, v in row.nums.items() if c in values), ZERO)
            if value := (row.rhs - rest) / row.den:
                values[b] = value
        return tuple(values.get(j, ZERO) for j in range(self.num_vars))


class _Revised(_Tableau):
    """The revised form: each row keeps only its basis-inverse part and its
    right-hand side.  The part holds the row's multipliers of the initial
    rows, each named by its initial row's basic column, over the row's own
    denominator; an initial row is a primitive integer vector (its entries'
    gcd is 1) with no denominator.  A column ``B⁻¹A_q`` and a whole row
    ``B⁻¹_r A`` are computed on demand from the initial rows, so a pivot
    updates no entry of a structural column.  A dropped row leaves the
    column index, so no column reads it again.

    ``restart`` builds the form from given rows: the constructor starts it
    from the program's own, and once the hider's values are in and rows
    have dropped, the driver restarts it from the expanded rows, so each
    row's part is again its basic column alone."""

    def restart(self, rows: list[_Row]) -> None:
        """Start every row afresh from ``rows``, where ``rows[i]`` is row
        ``i`` over every column.  Its numerators divided by their gcd ``g``
        become the initial row keyed by its basic column ``u = basis[i]``,
        and row ``i``'s basis-inverse part becomes ``{u: g}`` over the row's
        denominator, so every value stays the same rational.  The column
        index is built from the live rows only; a dropped row is still read
        through ``expand``."""
        self.cols = self.holders = None  # release the old index first
        self.initial, self.rows = {}, []
        for u, row in zip(self.basis, rows):
            g = gcd(*row.nums.values())
            self.initial[u] = {c: v // g for c, v in row.nums.items()} if g != 1 else row.nums
            h = gcd(g, row.rhs, row.den)
            self.rows.append(_Row({u: g // h}, row.rhs // h, row.den // h))
        self.max_den_bits = max([self.max_den_bits, *(row.den.bit_length() for row in self.rows)])
        # Each column as [(u, entry)]: its entries in the live initial rows,
        # each named by its row's key; and the live rows that hold an entry
        # in column u, kept exact by ``pivot`` (a dropped row leaves every list).
        dropped = set(self.dropped)
        live = [(i, u) for i, u in enumerate(self.basis) if i not in dropped]
        self.cols = [[] for _ in range(self.num_cols)]
        for _, u in live:
            for c, v in self.initial[u].items():
                self.cols[c].append((u, v))
        self.holders = {u: [i] for i, u in live}

    def column(self, col: int) -> dict[int, int]:
        """``B⁻¹A_col`` over each row's own denominator: each row's
        basis-inverse part times the column, read from the rows that hold an
        entry where the column has one."""
        rows = self.rows
        entries: dict[int, int] = {}
        for u, a in self.cols[col]:
            for i in self.holders[u]:
                entries[i] = entries.get(i, 0) + rows[i].nums[u] * a
        return {i: a for i, a in entries.items() if a}

    def reindex(self, i: int, gained: list[int], lost: list[int]) -> None:
        """Keep ``holders`` exact as the driver's pivot updates row ``i``,
        from the columns the update itself reports: a pivot changes only
        the pivot row's columns of the rows it touches, and the pivot row
        keeps its own until it drops out."""
        holders = self.holders
        for u in gained:
            holders[u].append(i)
        for u in lost:
            holders[u].remove(i)

    def expand(self, row: _Row) -> _Row:
        """``row`` over every column, ``B⁻¹_r A``: its basis-inverse part
        times the initial rows, over the row's own denominator."""
        initial = self.initial
        full: dict[int, int] = {}
        for u, v in row.nums.items():
            for c, a in initial[u].items():
                full[c] = full.get(c, 0) + v * a
        return _Row({c: v for c, v in full.items() if v}, row.rhs, row.den)


def solve_lp(lp: LinearProgram, fold: bool = False) -> LPSolution:
    """Maximize exactly; every returned solution has passed ``check_certificate``
    on ``lp`` itself.

    Both phases price by Devex and switch to Bland's rule if zero-step
    pivots persist (``bland_fallback``): the game programs are heavily
    degenerate, and Devex leaves fewer of those pivots than the largest
    reduced cost, which makes far fewer than pure Bland pricing.  Phase 2
    first brings each free variable the objective does not price into the
    basis by the ratio test, and counts those pivots and their time as its
    own.  Raises LPError if the objective is unbounded.

    With ``fold`` the simplex runs on the quotient of ``lp`` by the coarsest
    equitable partition of its rows and columns, and the answer is lifted
    back (``_fold``).  Refinement costs a few passes over the rows, and a
    quotient that keeps most of them can cost more than it saves, so fold
    where the caller has measured a gain.  A program whose partition is all
    singletons is its own quotient and makes the same pivots unfolded.
    """
    _validate(lp)
    sol = _fold(lp) if fold else _simplex(lp)
    start = time.perf_counter()
    check_certificate(lp, sol)
    sol.certificate_seconds = time.perf_counter() - start
    return sol


# Programs with at least this many rows run in the revised form.  Measured
# crossover, best of five interleaved in-process solves per program: the
# tableau is 1.01-1.34x faster on every program of 3 to 13 rows (accumulation
# programs, column-generation masters, small adversary games), the forms
# trade places from 26 to 36 rows (revised over tableau time 0.80-1.12), and
# the revised form is 1.08-2.6x faster on every program from 54 rows up.
_REVISED_MIN_ROWS = 40


def _form(lp: LinearProgram) -> type[_Tableau]:
    """The form that solves ``lp``, picked from its size alone."""
    return _Revised if len(lp.rows) >= _REVISED_MIN_ROWS else _Tableau


def _simplex(lp: LinearProgram) -> LPSolution:
    tab = _form(lp)(lp)

    # Phase 1: drive artificials to zero (bounded: the objective is <= 0).
    start = time.perf_counter()
    if tab.artificial:
        cost1 = _Row({c: -1 for c in tab.artificial}, 0, 1)
        red = tab.run_simplex(cost1, barred=set())
        tab.phase1_pivots = tab.pivots
        # An artificial column is not free, so its row's right-hand side
        # stays >= 0, and the artificials sum to a positive value exactly
        # when one of them is basic at a positive level.
        if any(row.rhs for row, b in zip(tab.rows, tab.basis) if b in tab.artificial):
            dual = tab.duals(red, cost1)
            return LPSolution(INFEASIBLE, None, None, dual, **tab.counters(),
                              phase1_seconds=time.perf_counter() - start)
        _pivot_out_artificials(tab)
        tab.phase1_pivots = tab.pivots

    phase2 = time.perf_counter()
    _enter_unpriced_free(tab)
    if tab.dropped:
        # The live rows' basis-inverse parts still hold entries under the
        # dropped rows' keys; each row starts again from its expansion.
        tab.restart([tab.expand(row) for row in tab.rows])
    red = tab.run_simplex(tab.cost, barred=tab.artificial)
    return LPSolution(
        status=OPTIMAL,
        # The reduced-cost row's right-hand side is minus the objective c.x;
        # check_certificate compares this value with c.x at the returned
        # point and with the dual objective.
        objective_value=Fraction(-red.rhs, red.den),
        primal=tab.structural_point(),
        dual=tab.duals(red, tab.cost),
        **tab.counters(),
        phase1_seconds=phase2 - start,
        phase2_seconds=time.perf_counter() - phase2,
    )


def _fold(lp: LinearProgram) -> LPSolution:
    """Solve the quotient of ``lp`` by ``_refine``'s partition and lift its
    answer.  Column class ``P`` becomes one column, the class's mass ``w_P``,
    so ``x_j = w_P / |P|``; row class ``Q`` becomes its first row, reading
    ``sum_{j in P} a_ij / |P|`` in column ``P``; and a quotient multiplier
    lifts as ``y_i = y_Q / |Q|``, Farkas multipliers alike.  A partition of
    singletons gives the program itself, its rows and columns in order, and
    a lift that divides by 1."""
    start = time.perf_counter()
    row_ids, col_ids = _refine(lp)
    row_size, col_size = Counter(row_ids), Counter(col_ids)
    first_col: dict[int, int] = {}
    for j, c in enumerate(col_ids):
        first_col.setdefault(c, j)
    quotient = LinearProgram(len(col_size), [lp.objective[j] for j in first_col.values()])
    quotient.free = {col_ids[j] for j in lp.free}
    for i, r in enumerate(row_ids):
        if r < len(quotient.rows):
            continue  # classes are numbered in order, so row i is not its class's first
        sums: dict[int, int] = {}
        for j, v in lp.rows[i].items():
            sums[col_ids[j]] = sums.get(col_ids[j], 0) + v
        m = lcm(*(col_size[c] for c in sums))
        quotient.add_constraint({c: v * (m // col_size[c]) for c, v in sums.items()},
                                lp.senses[i], lp.rhs[i] * m, lp.dens[i] * m)
    fold_seconds = time.perf_counter() - start
    sol = _simplex(quotient)
    start = time.perf_counter()
    primal = None if sol.primal is None else _lifted(sol.primal, col_size, col_ids)
    dual = _lifted(sol.dual, row_size, row_ids)
    return replace(sol, primal=primal, dual=dual, fold_seconds=fold_seconds + time.perf_counter() - start)


def _lifted(values, size: Counter, ids: list[int]) -> tuple[Fraction, ...]:
    """Each class's value spread evenly over its members."""
    each = [v / size[c] if v else ZERO for c, v in enumerate(values)]
    return tuple(each[c] for c in ids)


def _refine(lp: LinearProgram) -> tuple[list[int], list[int]]:
    """The coarsest equitable partition of ``lp``'s rows and columns (colour
    refinement), as a class id per row and per column, each numbered in
    first-occurrence order.  Rows start split by ``(sense, rhs)`` and columns
    by ``(objective, free)``.  Then the sides take turns, columns first: a
    turn splits each class of one side by its members' sums over each class
    of the other.  Once a turn after the first splits nothing, both sides
    are stable.  The rows are read scaled to the lcm of their denominators,
    so every sum is an exact int."""
    scale = lcm(*lp.dens)
    rows = [[(j, v * (scale // den)) for j, v in row.items()] for row, den in zip(lp.rows, lp.dens)]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(lp.num_vars)]
    for i, row in enumerate(rows):
        for j, v in row:
            cols[j].append((i, v))
    ids = [_numbered(zip(lp.senses, (b * (scale // den) for b, den in zip(lp.rhs, lp.dens)))),
           _numbered((c, j in lp.free) for j, c in enumerate(lp.objective))]
    side, classes = 1, None  # columns first; no count before the first turn
    while True:
        ids[side] = _split(ids[side], (rows, cols)[side], ids[1 - side])
        # A split never merges, so a turn that splits nothing keeps the count.
        before, classes = classes, max(ids[0], default=0) + max(ids[1], default=0)
        if classes == before:
            return ids[0], ids[1]
        side = 1 - side


def _numbered(keys) -> list[int]:
    """Each key's class id, classes numbered by their first key."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def _split(ids: list[int], entries: list, other: list[int]) -> list[int]:
    """``ids`` split by each member's nonzero sums over the classes ``other``
    numbers; ``entries[m]`` lists member ``m``'s ``(index, value)`` pairs."""
    keys = []
    for own, pairs in zip(ids, entries):
        sums: dict[int, int] = {}
        for k, v in pairs:
            c = other[k]
            sums[c] = sums[c] + v if c in sums else v
        if 0 in sums.values():
            sums = {c: v for c, v in sums.items() if v}
        keys.append((own, frozenset(sums.items())))
    return _numbered(keys)


def _validate(lp: LinearProgram) -> None:
    if not (len(lp.rows) == len(lp.senses) == len(lp.rhs) == len(lp.dens)):
        raise LPError("row bookkeeping out of sync")
    if len(lp.objective) != lp.num_vars or any(not 0 <= j < lp.num_vars for j in lp.free):
        raise LPError("column bookkeeping out of sync")


def _pivot_out_artificials(tab: _Tableau) -> None:
    for i in range(len(tab.rows)):
        if tab.basis[i] not in tab.artificial:
            continue
        pivot_col = next((c for c in sorted(tab.expand(tab.rows[i]).nums) if c not in tab.artificial), None)
        if pivot_col is not None:
            tab.pivot(i, pivot_col, tab.column(pivot_col))
        # Otherwise the row is redundant; the artificial stays basic at 0.


def _enter_unpriced_free(tab: _Tableau) -> None:
    """Bring each unpriced free column into the basis, in column order:
    increasing at the row the ratio test picks, or else decreasing, and a
    column that no live row bounds either way (one already basic, for one)
    stays out.  Each entry drops its row."""
    for col in sorted(tab.unpriced_free):
        column = tab.column(col)
        r = tab.ratio_test(column)
        if r is None:
            r = tab.ratio_test(column, -1)
        if r is not None:
            tab.pivot(r, col, column)


# ---------------------------------------------------------------------------
# The certificate check, in the caller's program.
# ---------------------------------------------------------------------------


def check_certificate(lp: LinearProgram, sol: LPSolution) -> bool:
    """Verify ``sol`` from scratch in the original program's space.

    Row multipliers (``dual``) must have the signs their senses allow, in an
    optimum and in a Farkas certificate alike, the slack signs of
    ``_SLACK_SIGN``: >= 0 on ``<=`` rows and <= 0 on ``>=`` rows.  They
    combine the rows into ``g.x <= value`` for every feasible ``x``.

    * OPTIMAL: ``primal`` is feasible; the reduced cost ``g - c`` is exactly
      0 on a free variable and >= 0 on any other; the primal objective,
      ``value`` and ``objective_value`` are equal.
    * INFEASIBLE: ``g`` is 0 on free variables and >= 0 on the others, and
      ``value < 0``, so no point satisfies it.

    The check runs in integers: it reads ``lp``'s own stored rows, not the
    form's flipped ones, each wrapped as a ``_Row`` without a copy; a point
    goes over one common denominator, and so do the row multipliers.
    Fractions appear only where a cost does.

    Raises LPError on an unknown status, and CertificateError on any
    violation, a malformed ``sol`` included.
    """
    rows = [_Row(row, b, den) for row, b, den in zip(lp.rows, lp.rhs, lp.dens)]
    if sol.status == OPTIMAL:
        _check_point(lp, rows, sol.primal)
        cost = lp.objective
    elif sol.status == INFEASIBLE:
        cost = [ZERO] * lp.num_vars
    else:
        raise LPError(f"unknown status {sol.status!r}")
    y = sol.dual
    if y is None:
        raise CertificateError("row multipliers are missing")
    if len(y) != len(lp.rows):
        raise CertificateError(f"{len(y)} row multipliers for {len(lp.rows)} rows")
    # g and value over one denominator z: row i enters as z_i = z * y_i / den_i.
    z = _common_denominator(
        (yi.denominator * row.den for yi, row in zip(y, rows) if yi), "row multipliers"
    )
    g = [0] * lp.num_vars
    value = 0
    for i, row in enumerate(rows):
        num = y[i].numerator
        if not num:
            continue
        if num * _SLACK_SIGN[lp.senses[i]] < 0:
            raise CertificateError(f"dual sign on row {i}")
        zi = num * (z // (y[i].denominator * row.den))
        value += zi * row.rhs
        for j, v in row.nums.items():
            g[j] += zi * v
    for j, c in enumerate(cost):
        reduced = g[j] * c.denominator - c.numerator * z if c else g[j]  # sign of (g_j - c_j)
        if reduced if j in lp.free else reduced < 0:
            raise CertificateError(f"dual infeasibility at variable {j}")
    value = Fraction(value, z)
    if sol.status == INFEASIBLE:
        if value >= 0:
            raise CertificateError("Farkas certificate has nonnegative value")
    elif not sum(c * x for c, x in zip(lp.objective, sol.primal) if c) == value == sol.objective_value:
        raise CertificateError("objective mismatch in certificate")
    return True


def _check_point(lp: LinearProgram, rows, x) -> None:
    """Raise unless ``x`` meets every row and is nonnegative outside the
    free variables.  ``rows`` are ``lp``'s rows as ``check_certificate``
    reads them, ``_Row``s; ``x`` goes over one denominator."""
    if x is None:
        raise CertificateError("point is missing")
    if len(x) != lp.num_vars:
        raise CertificateError(f"point has {len(x)} entries for {lp.num_vars} variables")
    d = _common_denominator((v.denominator for v in x), "point")
    xs = [v.numerator * (d // v.denominator) for v in x]
    for i, row in enumerate(rows):
        sign = _SLACK_SIGN[lp.senses[i]]
        slack = row.rhs * d - sum(v * xs[j] for j, v in row.nums.items())
        if (slack * sign < 0) if sign else slack:
            raise CertificateError(f"point violates row {i}")
    for j, v in enumerate(xs):
        if v < 0 and j not in lp.free:
            raise CertificateError(f"point is negative at variable {j}")


def _common_denominator(denominators, what: str) -> int:
    try:
        return lcm(*denominators)
    except (AttributeError, TypeError):
        raise CertificateError(f"{what} has an entry that is not rational") from None


# ---------------------------------------------------------------------------
# Feasibility of mixed weak/strict systems.
# ---------------------------------------------------------------------------

STRICT_LESS = "<"
STRICT_GREATER = ">"


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None
    margin: Fraction | None


def check_feasible(num_vars: int, constraints) -> FeasibilityResult:
    """Decide a system of weak and strict linear constraints exactly.

    ``constraints`` is an iterable of ``(coeffs, sense, rhs)``, ``coeffs`` a
    dict from column to coefficient and sense in ``{<=, =, >=, <, >}``.
    Strict rows are decided without epsilons: a free margin variable t is
    pushed into every strict row and maximized; the strict system is
    feasible iff the best margin is positive.  The witness then satisfies
    every strict row with room to spare.  The margin is capped at 1 by a
    last row ``t <= 1``, so a feasible system with no strict row has
    margin 1.

    When the system is not feasible, ``certificate`` holds the checked row
    multipliers, one per constraint in the caller's order; the cap's
    multiplier is left out because it is always 0.  In a Farkas
    certificate the reduced cost on the free column t is 0, and it sums
    nonnegative terms, one from each strict row and one from the cap, so
    each is 0.  At a margin <= 0 the cap is slack, and strong duality forces
    complementary slackness, so its multiplier is 0.
    """
    t_col = num_vars
    lp = LinearProgram(num_vars + 1)
    lp.set_free(t_col)
    lp.set_objective(t_col, ONE)
    for coeffs, sense, rhs in constraints:
        if t_col in coeffs:  # the margin's column is not the caller's
            raise LPError(f"column {t_col} out of range")
        if sense == STRICT_LESS:
            lp.add_constraint({**coeffs, t_col: 1}, LESS_EQUAL, rhs)
        elif sense == STRICT_GREATER:
            lp.add_constraint({**coeffs, t_col: -1}, GREATER_EQUAL, rhs)
        else:
            lp.add_constraint(coeffs, sense, rhs)
    cap = lp.add_constraint({t_col: 1}, LESS_EQUAL, 1)  # keeps the margin objective bounded

    sol = solve_lp(lp)
    if sol.status == INFEASIBLE:
        return FeasibilityResult(False, None, sol.dual[:cap], None)
    margin = sol.objective_value
    if margin > 0:
        return FeasibilityResult(True, sol.primal[:num_vars], None, margin)
    return FeasibilityResult(False, None, sol.dual[:cap], margin)
