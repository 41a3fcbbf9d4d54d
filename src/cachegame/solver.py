"""Exact game solving: sequence-form construction, realization-plan linear
programs, and best-response evaluation.

One builder writes the sequence form (Koller, Megiddo and von Stengel) of
either game with no node tree, in first-touch canonical labels: boxes are
numbered in the order the searcher's queries first touch them, a reveal
from a never-touched box takes the lowest fresh label, and a searcher's
action label is her query.  The reduced game exploits the box symmetry: the
hider picks a count *pattern* instead of a labeled placement, every box
starts untouched, and chance assigns pattern entries to freshly touched
labels by uniform draws without replacement.  The full game starts each
labeled placement with every box touched, so its labels are the boxes and
chance never draws.  Both games have the same value; the reduced one is
exponentially smaller.

The builder hands its rules to one walk (``_walk``), which lists each
state's moves once and follows every path but a forced reveal into a won
state, registering sequences and wins as it goes; the listing adds up an
action's forced wins, and the walk pays them in one sum.  A reveal is forced
when chance picks it or when it is the only one of its draw, and an action's
forced reveals merge into one per (observed label, next state), walked once;
the hider decides only at a draw with several reveals.  ``GameTree.num_nodes``
is the extensive form's node count, summed once per state in the listing
rather than counted node by node.  Payoffs are integers over one game
denominator, and the LP rows are written in those integers.

The sequence form holds one ``_Infoset`` record per information set (its
parent sequence, its labels and the ids of the sequences playing them),
and per player the records after each sequence.  Both solve paths read
sequence ids; a sequence becomes a tuple of ``(infoset id, label)`` pairs
only as a key of the result's plans.

Under the adversary revealer one sequence-form LP solves the game.  In the
reduced game with ``k >= 3`` the LP is folded by colour refinement
(``lp.solve_lp(fold=True)``): a query can open two boxes that do not pay,
which keep distinct labels the searcher cannot tell apart, so mirror-image
sequences repeat each other's rows and columns.  At ``k = 2`` no such pair
exists, and folding measured slower on ``(5,4,2)``; the full game, the
reduced game's cross-check, is never folded.  Under
the random revealer the hider moves only at the root, and column
generation solves it: a master LP over the searcher's pure plans found so
far, grown by an exact integer best response to the hider's mixture until
the two values meet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count, islice, repeat
from math import comb, factorial, gcd, lcm, perm
from typing import NamedTuple

from . import lp as lpmod
from .core import (
    GameSpec,
    StrategyTree,
    Variant,
    enumerate_allocations,
    fresh_draws,
    outcomes,
    patterns,
    upper_bound_combinatorial,
)
from .rational import ONE, ZERO, format_rational

SEARCHER = "searcher"
HIDER = "hider"

DEFAULT_NODE_BUDGET = 10**7


class SolverError(RuntimeError):
    pass


class BudgetExceededError(SolverError):
    """Game construction aborted: the node count passed the budget."""

    def __init__(self, budget: int, estimate: int):
        super().__init__(f"game tree exceeds node budget {budget} (counted at least {estimate} nodes)")
        self.budget = budget
        self.estimate = estimate


@dataclass
class GameTree:
    """The sequence form of one game and the number of nodes in its
    extensive form."""

    spec: GameSpec
    symmetry: bool
    relaxed: bool
    num_nodes: int
    sf: _SequenceForm


def build_tree(
    spec: GameSpec,
    symmetry: bool = True,
    relaxed: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> GameTree:
    """Sequence form of the game for ``spec``, over first-touch canonical
    labels if ``symmetry``, with queries of 1 to ``k`` boxes if ``relaxed``.

    Raises ``BudgetExceededError`` once the nodes counted pass ``budget``.
    Cooperative play is a joint searcher/revealer problem, not a zero-sum
    game, and is rejected here; use the strategy verifier for it.
    """
    if spec.variant == Variant.COOPERATIVE:
        raise ValueError("cooperative games are verified, not solved; build adversary or random trees")
    if budget < 1:
        raise ValueError("node budget must be positive")
    sf = _SequenceForm(factorial(spec.n) * _reveal_lcm(spec) ** spec.d)
    nodes = _build(spec, symmetry, relaxed, budget, sf)
    return GameTree(spec, symmetry, relaxed, nodes, sf)


# ---------------------------------------------------------------------------
# Sequence form.
# ---------------------------------------------------------------------------


class _Infoset(NamedTuple):
    """One information set: its id, the player's sequence that reaches it,
    its action labels and, in label order, the ids of the sequences that
    play them."""

    id: int
    parent: int
    labels: list
    sids: list


class _SequenceForm:
    """Realization-plan bookkeeping for both players, filled in by the
    builder.

    A walk passes ``at = (searcher sequence id, hider sequence id, chance
    probability)`` down its recursion in place of tree nodes.

    ``infosets[player][key]`` is the ``_Infoset`` record of each of the
    player's information sets, in the order of first visit; ids count the
    sets of both players in that order.  ``after[player][s]`` lists the
    records of the player's sets reached by sequence ``s``.
    ``seq_list[player][s]`` is sequence ``s`` as a tuple of ``(infoset id,
    label)`` pairs, made once per sequence for the solve's output.
    ``payoff[h][s]`` is the win probability of the sequence pair ``(s, h)``
    times ``denominator``, an integer: ``D = n! L^d`` (``L`` of
    ``_reveal_lcm``), as a path draws at most ``n`` labels without
    replacement and makes at most ``d`` reveals.
    """

    def __init__(self, denominator: int):
        self.seq_list = {SEARCHER: [()], HIDER: [()]}
        self.infosets: dict[str, dict[object, _Infoset]] = {SEARCHER: {}, HIDER: {}}
        self.after: dict[str, dict[int, list[_Infoset]]] = {SEARCHER: {}, HIDER: {}}
        self.denominator = denominator
        self.payoff: dict[int, dict[int, int]] = {}

    def decide(self, player, key, parent: int, labels: list):
        """``(label, sequence id)`` for each action of ``player`` at
        information set ``key``, reached by the player's sequence
        ``parent``.

        Ids are handed out one action at a time, so a builder that walks
        each action's subgame before taking the next numbers the sequences
        depth-first; column order drives the simplex's tie-breaks.  A set
        that has all its ids returns them at once.
        """
        sets = self.infosets[player]
        info = sets.get(key)
        if info is None:
            info = sets[key] = _Infoset(sum(map(len, self.infosets.values())), parent, labels, [])
            self.after[player].setdefault(parent, []).append(info)
        elif info.parent != parent:
            raise SolverError(f"perfect recall violated at information set {(player, key)}")
        elif labels != info.labels:
            raise SolverError(f"information set {(player, key)} reached with differing action sets")
        if len(info.sids) == len(labels):
            return zip(labels, info.sids)
        return self._hand_out(self.seq_list[player], info)

    @staticmethod
    def _hand_out(seqs: list, info: _Infoset):
        """Yield ``info``'s actions, giving each its id as it is reached."""
        sids = info.sids
        for i, label in enumerate(info.labels):
            if i == len(sids):
                sids.append(len(seqs))
                seqs.append(seqs[info.parent] + ((info.id, label),))
            yield label, sids[i]


def _reveal_lcm(spec: GameSpec) -> int:
    """``L``, with every reveal weight a multiple of ``1 / L``: a weight
    under ``RANDOM`` is over a treasure total of at most ``d``."""
    return lcm(*range(1, spec.d + 1)) if spec.variant == Variant.RANDOM else 1


def _walk(spec: GameSpec, moves, roots, sf: _SequenceForm, budget: int) -> int:
    """Write the game below the hider's root choice into ``sf`` and return
    its extensive-form node count, the hider's root node included.

    ``roots`` yields ``(state, hider sequence)`` per root choice.
    ``moves(state)`` is None where the searcher has won.  Otherwise it is
    ``(labels, options)``: the searcher's action labels at ``state`` and an
    iterable, read one action at a time, of ``(chance_nodes, total, draws)``
    per label in the same order.
    ``chance_nodes`` is 1 if chance draws before the reveal, else 0.  Each
    draw is ``(ways, reveals)``, the draw's probability being the integer
    ``ways`` over the integer ``total``, and each reveal ``(treasures, box,
    label, next state)``: the box that surrenders and its treasure count
    from ``core.outcomes``, the label the searcher observes, and the state
    after.  A draw with no reveals is a loss.

    A state is listed once, as ``(nodes, labels, options)``.  ``nodes``
    counts its subgame: the state's node and, per action, its chance node,
    its reveal nodes (every draw under ``RANDOM``, else each draw whose
    reveal count is not 1) and the subgame after every reveal of every draw;
    the budget is checked as it grows, and as every option adds a node, no
    more than ``budget`` are read.  A reveal is forced when chance picks it
    or when it is the only one of its draw; an action's forced reveals merge
    into one per (label, next state) of weight ``sum(ways c L // t)`` over
    ``total L`` (``c`` of the draw's ``t`` treasures in the box, ``L`` from
    ``_reveal_lcm``).  Any other draw with reveals is the hider's decision,
    keyed ``(root state, observations, action, serial)``, of weight ``ways
    L``, in its draw's place; a merged reveal takes its first draw's.
    An option is listed as ``(total L, won, won_gcd, walked)``:
    ``walked`` holds ``(weight, reveals)`` per decision or merged reveal,
    save one into a won state, whose weight adds to ``won`` and ``won_gcd``.

    The walk then follows every path that does not end in a forced win,
    registering in ``sf`` as it goes; a path's probability is an integer
    over ``sf.denominator``.  An action's forced wins add to its payoff in
    one sum, each still on the denominator: ``total`` divides every
    ``prob weight`` exactly when it divides ``prob won_gcd``.
    """
    chance = spec.variant == Variant.RANDOM
    L = _reveal_lcm(spec)
    memo: dict = {}
    serial = count(1)
    off_denominator = f"path probability is not a multiple of 1/{sf.denominator}"

    def listing(state):
        listed = memo.get(state)
        if listed is not None:
            return listed
        game = moves(state)
        if game is None:
            listed = memo[state] = (1, None, None)
            return listed
        labels, options = game
        nodes, kept = 1, []
        for chance_nodes, total, draws in options:
            nodes += chance_nodes
            won, walked = {}, {}  # (label, next state) of a forced reveal, or a decision's draw -> weight
            for i, (ways, outs) in enumerate(draws):
                nodes += chance or len(outs) != 1
                for _, _, _, after in outs:
                    if nodes > budget:
                        raise BudgetExceededError(budget, nodes)
                    nodes += listing(after)[0]
                if not chance and len(outs) > 1:
                    walked[i] = ways * L
                elif outs:
                    share, t = ways * L, sum(c for c, *_ in outs)
                    for c, _, label, after in outs:
                        into = won if memo[after][1] is None else walked
                        into[label, after] = into.get((label, after), 0) + share * c // t
            if nodes > budget:
                raise BudgetExceededError(budget, nodes)
            won = list(won.values())
            walked = [(w, draws[key][1] if type(key) is int else [(None, None, *key)]) for key, w in walked.items()]
            kept.append((total * L, sum(won), gcd(*won), walked))
        listed = memo[state] = (nodes, labels, kept)
        return listed

    def credit(h_seq, s_seq, p):
        row = sf.payoff.setdefault(h_seq, {})
        row[s_seq] = row.get(s_seq, 0) + p

    def node(root, state, obs, at):
        _, labels, options = memo[state]
        s_seq, h_seq, prob = at
        if labels is None:
            credit(h_seq, s_seq, prob)
            return
        for (total, won, won_gcd, draws), (action, sid) in zip(options, sf.decide(SEARCHER, obs, s_seq, labels)):
            if won:
                if prob * won_gcd % total:
                    raise SolverError(off_denominator)
                credit(h_seq, sid, prob * won // total)
            for weight, outs in draws:
                p, rest = divmod(prob * weight, total)
                if rest:
                    raise SolverError(off_denominator)
                # Every reveal decision is its own information set: the hider knows his
                # placement and sees every query.  The serial keeps apart draws whose
                # states differ only by the searcher's private relabeling.
                picks = [(None, h_seq)] if len(outs) == 1 else sf.decide(
                    HIDER, (root, obs, action, next(serial)), h_seq, [box for _, box, _, _ in outs])
                for (_, _, label, after), (_, h) in zip(outs, picks):
                    node(root, after, obs + ((action, label),), (sid, h, p))

    nodes = 1
    for root, h_seq in roots:
        nodes += listing(root)[0]
        if nodes > budget:
            raise BudgetExceededError(budget, nodes)
        node(root, root, (), (0, h_seq, sf.denominator))
    del listing, node  # each refers to itself, so only the cycle collector would free them and ``sf``
    return nodes


# ---------------------------------------------------------------------------
# The game in first-touch canonical labels.
# ---------------------------------------------------------------------------


def _canonical_actions(touched: int, untouched: int, k: int, relaxed: bool):
    """Searcher queries in canonical labels: known labels below ``touched``,
    then the fresh labels from ``touched`` on.  Lazy: the action space can
    be enormous for out-of-budget games."""
    for size in range(1 if relaxed else k, k + 1):
        for j in range(max(0, size - untouched), min(size, touched) + 1):
            fresh = tuple(range(touched, touched + size - j))
            for known in combinations(range(touched), j):
                yield known + fresh


def _build(spec: GameSpec, symmetry: bool, relaxed: bool, budget: int, sf: _SequenceForm) -> int:
    """States are ``(touched counts, untouched pool, treasures found)``.  The
    reduced game starts each count pattern untouched; the full game starts
    each placement with every box touched, so that chance never draws and a
    label is a box.  Returns the node count."""
    n, d, k = spec.n, spec.d, spec.k
    if symmetry:
        choices = patterns(d, n)
        starts = [((), pat, 0) for pat in choices]
    else:
        # The walk bounds what it reads, but not the hider's root labels.
        if comb(n + d - 1, d) > budget:
            raise BudgetExceededError(budget, comb(n + d - 1, d))
        choices = enumerate_allocations(n, d)
        starts = [(counts, (), 0) for counts in choices]
    actions_at: dict = {}

    def moves(state):
        touched, untouched, found = state
        if found == d:
            return None
        t0 = len(touched)
        if t0 not in actions_at:
            # Each action needs a node, so budget + 1 of them overflow it.
            actions_at[t0] = list(islice(_canonical_actions(t0, n - t0, k, relaxed), budget + 1))
        return actions_at[t0], options(touched, untouched, found, actions_at[t0])

    def options(touched, untouched, found, queries):
        t0 = len(touched)
        for q in queries:
            f = max(0, q[-1] + 1 - t0)  # the fresh labels end the query
            draws = []
            for draw, ways, rest in fresh_draws(untouched, f):
                outs = outcomes(touched + draw, q, t0)
                if outs:  # most draws of a wide game find nothing, and need no rewrite
                    outs = [(c, b, l, (after, rest, found + 1)) for b, c, l, after in outs]
                draws.append((ways, outs))
            yield int(f > 0), perm(len(untouched), f), draws

    # The hider's root ids are handed out as each start is walked: depth first.
    roots = zip(starts, (h_seq for _, h_seq in sf.decide(HIDER, ("root",), 0, choices)))
    return _walk(spec, moves, roots, sf, budget)


@dataclass
class SolveResult:
    """Exact value and optimal realization plans for one specification."""

    spec: GameSpec
    symmetry: bool
    relaxed: bool
    value: Fraction
    searcher_plan: dict
    hider_plan: dict
    stats: dict
    searcher_behavior: dict = field(default_factory=dict, repr=False)
    hider_behavior: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        def plan_json(plan):
            return [
                {"sequence": _seq_json(seq), "weight": format_rational(w)}
                for seq, w in plan.items()
            ]

        return {
            "n": self.spec.n,
            "d": self.spec.d,
            "k": self.spec.k,
            "variant": self.spec.variant.value,
            "symmetry": self.symmetry,
            "relaxed": self.relaxed,
            "value": format_rational(self.value),
            "searcher_plan": plan_json(self.searcher_plan),
            "hider_plan": plan_json(self.hider_plan),
            "stats": self.stats,
        }


def _seq_json(seq) -> list:
    """A sequence as ``[infoset id, label]`` pairs, a tuple label (a query or
    a placement) as a list."""
    return [[infoset_id, list(label) if isinstance(label, tuple) else label] for infoset_id, label in seq]


def solve_tree(tree: GameTree) -> SolveResult:
    """Exact value and optimal realization plans of a built game.

    A random-revealer game, whose hider moves only at the root, is solved by
    column generation and certified by a best-response sandwich; any other
    by the sequence-form LP, certified by strong duality.  Either way both
    plans must pass as exact realization plans.
    """
    if tree.spec.variant == Variant.RANDOM:
        return _solve_column_generation(tree)
    return _solve_sequence_lp(tree)


def _solve_sequence_lp(tree: GameTree) -> SolveResult:
    """The whole game as one sequence-form LP: the searcher's realization
    plan against one value variable per hider information set."""
    start = time.perf_counter()
    sf = tree.sf
    n_sseq = len(sf.seq_list[SEARCHER])
    # q_0 is column n_sseq, then one column per hider information set.
    q_col = {info.id: col for col, info in enumerate(sf.infosets[HIDER].values(), n_sseq + 1)}
    program = lpmod.LinearProgram(n_sseq + 1 + len(q_col))
    for col in range(n_sseq, program.num_vars):
        program.set_free(col)
    program.set_objective(n_sseq, ONE)

    program.add_constraint({0: 1}, lpmod.EQUAL, 1)
    for info in sf.infosets[SEARCHER].values():
        program.add_constraint({**dict.fromkeys(info.sids, 1), info.parent: -1}, lpmod.EQUAL, 0)

    den = sf.denominator  # each hider row is written in integers over it
    rows = []
    for h_seq, seq in enumerate(sf.seq_list[HIDER]):
        row = {q_col[seq[-1][0]] if seq else n_sseq: den}  # the value of the set h_seq extends, or q_0
        for info in sf.after[HIDER].get(h_seq, ()):
            row[q_col[info.id]] = -den
        for s_seq, w in sf.payoff.get(h_seq, {}).items():
            row[s_seq] = -w  # each searcher sequence once per row
        rows.append(program.add_constraint(row, lpmod.LESS_EQUAL, 0, den))

    assembly_seconds = time.perf_counter() - start
    fold = tree.symmetry and tree.spec.k >= 3
    sol = lpmod.solve_lp(program, fold=fold)
    if sol.status != lpmod.OPTIMAL:
        raise SolverError(f"sequence-form program came back {sol.status}")

    searcher_plan = {s: sol.primal[s] for s in range(n_sseq) if sol.primal[s]}
    hider_plan = {h: sol.dual[row] for h, row in enumerate(rows) if sol.dual[row]}
    stats = _lp_stats([(program, sol)], assembly_seconds)
    if fold:
        stats.update(folded_rows=sol.folded_rows, folded_cols=sol.folded_cols, fold_seconds=sol.fold_seconds)
    return _result(tree, start, sol.objective_value, searcher_plan, hider_plan, stats)


def _solve_column_generation(tree: GameTree) -> SolveResult:
    """Column generation over the searcher's pure plans (a one-sided double
    oracle).  The master LP, ``max v`` s.t. ``v <= sum_i lambda_i U(plan_i,
    h)`` for every hider root sequence ``h`` and ``sum lambda = 1``, has row
    duals ``y``, the hider's mixture.  The best response to ``y`` joins the
    master until it earns the master value, the upper bound; the master's
    certificate and an exact check of its mixture give the lower bound."""
    start = time.perf_counter()
    sf = tree.sf
    den = sf.denominator
    hider = range(1, len(sf.seq_list[HIDER]))  # the hider's root choices
    y = {h: Fraction(1, len(hider)) for h in hider}
    plans, columns, solved = [], [], []
    assembly_seconds = 0.0
    while True:
        best, plan = _best_response(sf, y)
        if solved and best < value:
            raise SolverError(f"best response {best} is below the master value {value}")
        column = {h: sum(map(sf.payoff.get(h, {}).get, plan, repeat(0))) for h in hider}
        # A plan earning ``best > value`` is new: ``y`` holds every master column to ``value``.
        if sum(y[h] * column[h] for h in hider) != best * den:
            raise SolverError(f"the best response's plan does not earn its value {best}")
        if solved and best == value:
            break
        plans.append(plan)
        columns.append(column)
        assembly = time.perf_counter()
        v = len(plans)  # lambda per plan, then v
        program = lpmod.LinearProgram(v + 1)
        program.set_free(v)
        program.set_objective(v, ONE)
        for h in hider:
            program.add_constraint({v: den, **{i: -col[h] for i, col in enumerate(columns)}},
                                   lpmod.LESS_EQUAL, 0, den)
        program.add_constraint(dict.fromkeys(range(v), 1), lpmod.EQUAL, 1)
        assembly_seconds += time.perf_counter() - assembly
        sol = lpmod.solve_lp(program)
        solved.append((program, sol))
        if sol.status != lpmod.OPTIMAL:
            raise SolverError(f"master program came back {sol.status}")
        value, y = sol.objective_value, dict(zip(hider, sol.dual))
    mix = [(w, plan, col) for w, plan, col in zip(sol.primal, plans, columns) if w]
    if any(sum(w * col[h] for w, _, col in mix) < value * den for h in hider):
        raise SolverError(f"the master's mixture earns less than {value} against a hider choice")
    weights: dict[int, Fraction] = {}
    for w, plan, _ in mix:
        for s in plan:
            weights[s] = weights.get(s, ZERO) + w
    searcher_plan = {s: weights[s] for s in sorted(weights)}
    hider_plan = {0: ONE, **{h: w for h, w in y.items() if w}}
    return _result(tree, start, value, searcher_plan, hider_plan,
                   {**_lp_stats(solved, assembly_seconds), "iterations": len(solved)})


def _best_response(sf: _SequenceForm, y: dict) -> tuple[Fraction, frozenset]:
    """The searcher's exact best reply to the hider mixture ``y`` (root
    sequence id -> probability) and its pure plan, the ids of the sequences
    it plays.  One pass in reverse id order (an action's id
    exceeds its parent's) computes ``val(s) = sum_h y_h payoff(s, h) + sum
    over information sets I after s of max over a in I of val(a)`` in
    integers; ties go to the lowest id."""
    scale = lcm(*(w.denominator for w in y.values()))
    val = [0] * len(sf.seq_list[SEARCHER])
    for h, w in y.items():
        yh = w.numerator * (scale // w.denominator)
        for s, num in sf.payoff.get(h, {}).items() if yh else ():
            val[s] += num * yh
    get, after = val.__getitem__, sf.after[SEARCHER]
    for s in sorted(after, reverse=True):
        val[s] += sum(max(map(get, info.sids)) for info in after[s])
    plan, stack = [], [0]
    while stack:
        plan.append(stack.pop())
        stack.extend(max(info.sids, key=get) for info in after.get(plan[-1], ()))
    return Fraction(val[0], sf.denominator * scale), frozenset(plan)


def _lp_stats(solved, assembly_seconds: float) -> dict:
    """Sizes, work counters and LP wall times summed over ``(program,
    solution)`` pairs; the Bland fallback if any used it, the largest
    denominator, and ``assembly_seconds``, the time spent writing the
    programs' rows."""
    stats = {"lp_rows": sum(len(p.rows) for p, _ in solved), "lp_cols": sum(p.num_vars for p, _ in solved),
             "assembly_seconds": assembly_seconds}
    for key in ("pivots", "phase1_pivots", "phase2_pivots", "degenerate_pivots", "dropped_rows",
                "phase1_seconds", "phase2_seconds", "certificate_seconds"):
        stats[key] = sum(getattr(sol, key) for _, sol in solved)
    stats["bland_fallback"] = any(sol.bland_fallback for _, sol in solved)
    stats["max_denominator_bits"] = max(sol.max_denominator_bits for _, sol in solved)
    return stats


def _result(tree: GameTree, start: float, value, searcher_plan, hider_plan, lp_stats: dict) -> SolveResult:
    """The result of a solve begun at ``start``, once its value lies in
    [0, 1] and both plans pass as realization plans (``_behavior``).  The
    plans map sequence ids to weights; the result keys them by sequence
    tuple."""
    sf = tree.sf
    if not ZERO <= value <= ONE:
        raise SolverError(f"game value {value} outside [0, 1]")
    stats = {
        "nodes": tree.num_nodes,
        "searcher_sequences": len(sf.seq_list[SEARCHER]),
        "hider_sequences": len(sf.seq_list[HIDER]),
        "searcher_infosets": len(sf.infosets[SEARCHER]),
        "hider_infosets": len(sf.infosets[HIDER]),
        **lp_stats,
    }
    behavior = time.perf_counter()
    searcher_behavior, hider_behavior = _behavior(sf, SEARCHER, searcher_plan), _behavior(sf, HIDER, hider_plan)
    end = time.perf_counter()
    stats["behavior_seconds"] = end - behavior
    stats["solve_seconds"] = end - start
    searcher_seqs, hider_seqs = sf.seq_list[SEARCHER], sf.seq_list[HIDER]
    return SolveResult(tree.spec, tree.symmetry, tree.relaxed, value,
                       {searcher_seqs[s]: w for s, w in searcher_plan.items()},
                       {hider_seqs[h]: w for h, w in hider_plan.items()}, stats,
                       searcher_behavior, hider_behavior)


def _behavior(sf, player, plan) -> dict:
    """Per-infoset action distributions from ``player``'s realization plan,
    sequence id -> weight, which must be exact: root weight 1, no negative
    weight, and each information set's weights summing to its parent's."""
    if plan.get(0, ZERO) != ONE:
        raise SolverError(f"{player} plan root weight is not 1")
    out = {}
    for key, info in sf.infosets[player].items():
        played = [(label, w) for label, sid in zip(info.labels, info.sids) if (w := plan.get(sid))]
        if any(w < 0 for _, w in played):
            raise SolverError("negative realization weight")
        parent_weight = plan.get(info.parent, ZERO)
        if sum(w for _, w in played) != parent_weight:
            raise SolverError(f"{player} plan violates flow conservation")
        # Under a parent of weight 0 nothing is played, so no division.
        out[key] = [(label, w / parent_weight) for label, w in played]
    return out


def solve(
    spec: GameSpec,
    symmetry: bool = True,
    relaxed: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Exact value of the game, max over searcher plans of the min over
    hider plans.  Deterministic for fixed spec and flags.  ``stats`` gains
    the wall time of ``build_tree`` as ``build_seconds``; ``solve_seconds``
    is the time of ``solve_tree``."""
    start = time.perf_counter()
    tree = build_tree(spec, symmetry=symmetry, relaxed=relaxed, budget=budget)
    build_seconds = time.perf_counter() - start
    result = solve_tree(tree)
    result.stats["build_seconds"] = build_seconds
    return result


# ---------------------------------------------------------------------------
# Accuracy checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyResult:
    accurate: bool
    value: Fraction
    bound: Fraction


def check_accuracy(n: int, d: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> AccuracyResult:
    """Does the adversary-revealer value meet k^d / C(n+d-1, d) exactly?"""
    spec = GameSpec(n, d, k, Variant.ADVERSARY)
    bound = upper_bound_combinatorial(n, d, k)
    value = solve(spec, budget=budget).value
    return AccuracyResult(accurate=value == bound, value=value, bound=bound)


# ---------------------------------------------------------------------------
# Best response against a fixed (canonical) searcher strategy.
# ---------------------------------------------------------------------------


@dataclass
class BestResponse:
    value: Fraction
    worst_allocation: tuple[int, ...]
    allocation_values: dict


class StrategyError(ValueError):
    def __init__(self, message: str, path=()):
        super().__init__(f"{message} (at {'/'.join(map(str, path)) or 'root'})")
        self.path = tuple(path)


def best_response_value(spec: GameSpec, strategy) -> BestResponse:
    """Hider's best reply to a canonical strategy tree, exactly.

    The strategy is played through a uniform random relabeling of boxes, so
    the hider minimizes over count patterns; under the adversary variant he
    additionally picks reveals knowing the full state.  A missing branch
    means the searcher resigns on that line (contributes 0, never an error).
    """
    mix_lcm = _check_strategy(spec, strategy)
    if spec.variant == Variant.COOPERATIVE:
        raise ValueError("use joint_verify_cooperative for cooperative play")
    values = _pattern_values(spec, strategy.root, mix_lcm)
    worst = min(values, key=lambda p: (values[p], p))
    return BestResponse(value=values[worst], worst_allocation=worst, allocation_values=values)


def joint_cooperative_value(spec: GameSpec, strategy, reveal_rule) -> Fraction:
    """Worst-case win probability when the revealer follows ``reveal_rule``.

    ``reveal_rule(counts_in_query, history)`` must return the label of a
    treasure-holding queried box; ``counts_in_query`` maps canonical labels
    to remaining counts and ``history`` is the canonical observation list.
    """
    mix_lcm = _check_strategy(spec, strategy)
    return min(_pattern_values(spec, strategy.root, mix_lcm, reveal_rule).values())


def _check_strategy(spec: GameSpec, strategy) -> int:
    """Reject a strategy tree that is not a canonical plan for ``spec``,
    and return the lcm of its mix-probability denominators.

    Each distinct (node, depth, touched-label count) is checked once: the
    count after a query is the count before it plus the query's fresh
    labels, whatever chance draws, so it is fixed along each path.
    """
    if not isinstance(strategy, StrategyTree):
        raise StrategyError("expected a StrategyTree")
    if (strategy.n, strategy.d, strategy.k) != (spec.n, spec.d, spec.k):
        raise StrategyError(
            f"strategy is for (n,d,k)=({strategy.n},{strategy.d},{strategy.k}), "
            f"spec is ({spec.n},{spec.d},{spec.k})"
        )
    seen = set()
    denominators = set()

    def check(node, depth, t0, path):
        if node is None or (id(node), depth, t0) in seen:
            return
        seen.add((id(node), depth, t0))
        if depth >= spec.d:
            raise StrategyError(f"strategy deeper than d={spec.d} moves", path)
        total = ZERO
        for idx, entry in enumerate(node.mix):
            here = path + (idx,)
            q = entry.query
            total += entry.prob
            denominators.add(entry.prob.denominator)
            if entry.prob < 0:
                raise StrategyError("negative mix probability", here)
            if len(q) > spec.k:
                raise StrategyError(f"query {q} larger than k={spec.k}", here)
            if any(b < 0 or b >= spec.n for b in q):
                raise StrategyError(f"query {q} outside 0..n-1", here)
            if len(set(q)) < len(q):
                raise StrategyError(f"query {q} repeats a box", here)
            fresh = tuple(l for l in q if l >= t0)
            f = len(fresh)
            if fresh != tuple(range(t0, t0 + f)):
                raise StrategyError(f"query {q} does not use consecutive fresh labels from {t0}", here)
            for box, child in entry.branches:
                if box not in q:
                    raise StrategyError(f"branch key {box} outside query {q}", here)
                if box > t0:
                    raise StrategyError(f"branch key {box} is unreachable: fresh reveals here take label {t0}", here)
                check(child, depth + 1, t0 + f, here + (box,))
        if total != ONE:
            raise StrategyError(f"mix probabilities sum to {total}, not 1", path)

    check(strategy.root, 0, 0, ())
    del check  # it refers to itself, so only the cycle collector would free it and ``seen``
    return lcm(*denominators)


def _pattern_values(spec: GameSpec, root, mix_lcm: int, reveal_rule=None) -> dict:
    """Win probability of a checked strategy tree against each count
    pattern, played through a uniform relabeling of the boxes.

    Without ``reveal_rule`` the reveal is chance's under ``RANDOM`` and the
    hider's (worst case) otherwise; with it, the rule picks the reveal and
    states carry their observation history.

    As in ``_SequenceForm``, values are integers: a state with ``found``
    treasures found and ``u`` untouched labels is worth its integer over
    ``D(found, u) = (L M)^(d - found) u!``, with ``L`` from ``_reveal_lcm``
    and ``M = mix_lcm``, the lcm of the mix denominators.  A win is ``u!``,
    a missing branch 0.  A query drawing ``f`` fresh labels has ``ways``
    over ``perm(u, f)``, and ``D(found, u) = L M perm(u, f) D(found + 1,
    u - f)``: a query's reveals from ``core.outcomes`` combine in place,
    into ``sum(c v) (L // total)`` under ``RANDOM`` and a running minimum
    otherwise, mix probabilities enter as ``p M``, and one Fraction is made
    per pattern.
    A query that makes the ``d``-th find is worth ``u! L`` per draw without
    visiting its reveals.  A node's plan (``p M``, query, branches and
    fresh-label count per entry) is made once per touched count ``t0`` at
    which it is reached; ends and memo hits are settled at the call site,
    with no call.
    """
    memo: dict = {}
    plans: dict = {}
    d, chance = spec.d, spec.variant == Variant.RANDOM
    L = _reveal_lcm(spec)
    wins = [factorial(u) * L for u in range(spec.n + 1)]

    def value(node, touched, untouched, found, history):
        t0 = len(touched)
        plan = plans.get((id(node), t0))
        if plan is None:
            plan = plans[id(node), t0] = [(e.prob.numerator * (mix_lcm // e.prob.denominator), e.query,
                                           dict(e.branches), sum(l >= t0 for l in e.query)) for e in node.mix if e.prob]
        total, found = 0, found + 1  # treasures found after this node's query
        for p, q, branches, f in plan:
            entry_value = 0
            for draw, ways, rest in fresh_draws(untouched, f):
                counts = touched + draw
                outs = outcomes(counts, q, t0)
                if not outs:
                    continue
                if reveal_rule is not None:
                    outs = [_rule_choice(reveal_rule, counts, q, outs, history)]
                if found == d:
                    entry_value += ways * wins[len(rest)]
                    continue
                num, weight, low = 0, 0, None
                for _, c, l, after in outs:
                    child = branches.get(l)
                    if child is None:  # a missing branch or an explicit end: the searcher stops
                        v = 0
                    else:
                        observed = history if reveal_rule is None else history + ((q, l),)
                        v = memo.get((id(child), after, rest, observed))
                        if v is None:
                            v = value(child, after, rest, found, observed)
                    if chance:
                        num, weight = num + c * v, weight + c
                    elif low is None or v < low:
                        low = v
                entry_value += ways * (num * (L // weight) if chance else low)
            total += p * entry_value
        memo[id(node), touched, untouched, history] = total
        return total

    scale = (L * mix_lcm) ** d * factorial(spec.n)
    values = {pat: Fraction(value(root, (), pat, 0, ()) if root else 0, scale) for pat in patterns(d, spec.n)}
    del value  # it refers to itself, so only the cycle collector would free it and ``memo``
    return values


def _rule_choice(reveal_rule, counts, q, outs, history):
    """The entry of ``outs`` (led by its box) that ``reveal_rule`` picks."""
    choice = reveal_rule({l: counts[l] for l in q}, list(history))
    for out in outs if type(choice) is int else ():
        if out[0] == choice:
            return out
    raise ValueError(f"reveal rule returned {choice!r}, not a treasure-holding queried box")


# ---------------------------------------------------------------------------
# Value of a committed hider strategy (labeled boxes, no symmetrization).
# ---------------------------------------------------------------------------


def hider_strategy_value(
    spec: GameSpec,
    allocation_weights: dict,
    reveal_policy=None,
) -> tuple[Fraction, dict]:
    """Strongest searcher reply to a fully committed hider.

    ``allocation_weights`` maps placements, tuples of nonnegative int
    counts per box, to exact probabilities summing to one; any other key
    raises ValueError naming it.  Under the random variant
    reveals are chance moves; under the adversary variant
    ``reveal_policy(remaining, history, query)`` must return the reveal
    distribution, ``(int box, probability)`` pairs with no box twice,
    whenever the query covers several treasure-holding boxes; with no
    policy, such a choice raises ValueError.
    Returns the exact value (an upper-bound certificate for the game value)
    and the maximizing deterministic searcher strategy.
    """
    if spec.variant == Variant.COOPERATIVE:
        raise ValueError("the cooperative revealer is driven by the searcher, not the hider")
    weights: dict[tuple, Fraction] = {}
    for counts, w in allocation_weights.items():
        if type(counts) is not tuple or not all(type(c) is int and c >= 0 for c in counts):
            raise ValueError(f"allocation {counts!r} is not a tuple of nonnegative int counts")
        if len(counts) != spec.n or sum(counts) != spec.d:
            raise ValueError(f"allocation {counts} does not fit n={spec.n}, d={spec.d}")
        w = Fraction(w)
        if w < 0:
            raise ValueError("negative allocation weight")
        if w:
            weights[counts] = weights.get(counts, ZERO) + w
    if sum(weights.values()) != ONE:
        raise ValueError("allocation weights must sum to 1")

    queries = list(combinations(range(spec.n), spec.k))

    def reveal_dist(counts, history, q):
        """``(box, probability, counts after)`` per reveal of ``q``."""
        outs = outcomes(counts, q, spec.n)
        total = sum(c for _, c, _, _ in outs)
        if spec.variant == Variant.RANDOM or len(outs) < 2:
            return [(b, Fraction(c, total), after) for b, c, _, after in outs]
        if reveal_policy is None:
            raise ValueError("the committed hider reached a reveal choice but no reveal policy was given")
        dist = [(b, Fraction(p)) for b, p in reveal_policy(counts, history, q)]
        if sum(p for _, p in dist) != ONE or any(p < 0 or type(b) is not int for b, p in dist):
            raise ValueError(f"reveal policy returned an invalid distribution {dist}")
        if twice := [b for i, (b, _) in enumerate(dist) if b in dict(dist[:i])]:  # branch mass is kept per box
            raise ValueError(f"reveal policy returned an invalid distribution {dist}: box {twice[0]} is named twice")
        afters = {b: after for b, _, _, after in outs}
        if any(b not in afters for b, p in dist if p):
            raise ValueError("reveal policy placed weight on an empty or unqueried box")
        return [(b, p, afters[b]) for b, p in dist if p]

    def value(mass: dict, found: int, history) -> tuple[Fraction, dict]:
        """``mass`` maps each placement still in play to its remaining
        counts and its probability mass."""
        if found == spec.d:
            return sum(w for _, w in mass.values()), {}
        best = None
        best_plan = None
        for q in queries:
            branch_mass: dict[int, dict] = {}
            for alloc, (counts, w) in mass.items():
                for b, p, after in reveal_dist(counts, history, q):
                    branch_mass.setdefault(b, {})[alloc] = (after, w * p)
            total = ZERO
            plans = {}
            for b, sub in sorted(branch_mass.items()):
                v, sub_plan = value(sub, found + 1, history + ((q, b),))
                total += v
                plans[b] = sub_plan
            if best is None or total > best:
                best = total
                best_plan = {"query": list(q), "branches": plans}
        return best, best_plan

    result = value({alloc: (alloc, w) for alloc, w in weights.items()}, 0, ())
    del value  # it refers to itself, so only the cycle collector would free it
    return result


def optimal_hider_332(
    variant: Variant | str,
    q3: Fraction = Fraction(1, 2),
    q4: Fraction = Fraction(1, 2),
) -> tuple[dict, object]:
    """Equilibrium hiding strategies for n=3, d=3, k=2.

    Returns ``(allocation_weights, reveal_policy)``.  The placement mixes
    the three symmetry classes: all treasures together, all separate, and a
    2+1 split, with class weights (5/19, 2/19, 12/19) under the random
    revealer and (3/10, 1/10, 6/10) under the adversary, spread uniformly
    inside each class.  Against the random revealer no policy is needed
    (reveals are chance) and the value cap is exactly 12/19.  Against the
    adversary the policy makes the first reveal by a fair coin between the
    two queried boxes, re-surrenders from the box that just paid
    with probability q3 (if its partner was queried before) or 1/2 (if
    not), and in the all-separate class favors the previously queried box
    with probability q4; the cap is 3/5 for any q3, q4 in [0, 1].
    """
    variant = Variant(variant)
    if variant == Variant.RANDOM:
        l1, l2, l3 = Fraction(5, 19), Fraction(2, 19), Fraction(12, 19)
    elif variant == Variant.ADVERSARY:
        l1, l2, l3 = Fraction(3, 10), Fraction(1, 10), Fraction(6, 10)
    else:
        raise ValueError("no committed hiding table for the cooperative revealer")
    weights: dict[tuple, Fraction] = {}
    together = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    split = [(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)]
    for a in together:
        weights[a] = l1 / 3
    weights[(1, 1, 1)] = l2
    for a in split:
        weights[a] = l3 / 6
    if variant == Variant.RANDOM:
        return weights, None

    def policy(remaining, history, query):
        positive = [b for b in query if remaining[b] > 0]
        if len(positive) != 2:
            raise ValueError(f"unexpected reveal choice among {positive}")
        a, b = positive
        if not history:  # a fair coin, whether the two boxes hold equal counts or not
            return [(a, Fraction(1, 2)), (b, Fraction(1, 2))]
        # One treasure already surrendered; a two-way choice here means
        # both queried boxes hold exactly one treasure.
        initial = list(remaining)
        for _, revealed in history:
            initial[revealed] += 1
        prev = history[-1][1]
        queried_before = {box for q, _ in history for box in q}
        if sorted(initial) == [1, 1, 1]:
            seen = [x for x in (a, b) if x in queried_before]
            if len(seen) != 1:
                raise ValueError("unexpected query pattern in the all-separate class")
            other = b if seen[0] == a else a
            return [(seen[0], q4), (other, 1 - q4)]
        if prev not in (a, b):
            raise ValueError("unexpected reveal choice away from the paying box")
        other = b if prev == a else a
        if other in queried_before:
            return [(prev, q3), (other, 1 - q3)]
        return [(prev, Fraction(1, 2)), (other, Fraction(1, 2))]

    return weights, policy


# ---------------------------------------------------------------------------
# Best response to a committed searcher plan (labeled boxes).  Used to
# certify solver output from the other side.
# ---------------------------------------------------------------------------


def searcher_plan_value(spec: GameSpec, behavior: dict) -> Fraction:
    """Hider's best reply to a labeled-box behavioral searcher strategy.

    ``behavior`` maps observation histories (as the full game's walk
    writes them) to lists of (query, probability).  Unreachable or missing
    information sets count as resignation.
    """
    if spec.variant == Variant.COOPERATIVE:
        raise ValueError("cooperative play has no adversarial best response")
    chance = spec.variant == Variant.RANDOM

    def evaluate(remaining, found, obs):
        if found == spec.d:
            return ONE
        total = ZERO
        for q, p in behavior.get(obs) or ():
            outs = outcomes(remaining, q, spec.n) if p else ()
            values = [evaluate(after, found + 1, obs + ((q, b),)) for b, _, _, after in outs]
            if chance and outs:
                total += p * sum(c * v for (_, c, _, _), v in zip(outs, values)) / sum(c for _, c, _, _ in outs)
            elif outs:
                total += p * min(values)
        return total

    value = min(evaluate(counts, 0, ()) for counts in enumerate_allocations(spec.n, spec.d))
    del evaluate  # it refers to itself, so only the cycle collector would free it
    return value
