import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import cachegame
from cachegame import core, solver
from cachegame import (
    GameSpec,
    Variant,
    best_response_value,
    family_332,
    family_d2,
    family_d3,
    family_infinite_d,
    fig432,
    fig542,
    joint_verify_cooperative,
    least_treasures_rule,
    lower_bound_infinite_d,
    single_query,
    solve,
    verify,
)
from cachegame import strategies as st
from cachegame.solver import StrategyError, joint_cooperative_value
from helpers import fig432_ending_early, solve_cached

ADV, RAN, COOP = Variant.ADVERSARY, Variant.RANDOM, Variant.COOPERATIVE


class TestVerifyKnownValues:
    def test_fig432(self):
        assert verify(GameSpec(4, 3, 2, ADV), fig432()) == Fraction(2, 5)

    def test_fig542(self):
        assert verify(GameSpec(5, 4, 2, ADV), fig542()) == Fraction(8, 35)

    def test_single_query_with_one_treasure(self):
        assert verify(GameSpec(5, 1, 3, ADV), single_query(5, 1, 3)) == Fraction(3, 5)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_two_treasure_family(self, k):
        n = 2 * k - 1
        assert verify(GameSpec(n, 2, k, ADV), family_d2(k)) == Fraction(k * k, comb(2 * k, 2))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_three_treasure_family(self, k):
        n = 3 * k - 2
        assert verify(GameSpec(n, 3, k, ADV), family_d3(k)) == Fraction(k**3, comb(3 * k, 3))

    def test_degenerate_one_box_families(self):
        assert verify(GameSpec(1, 2, 1, ADV), family_d2(1)) == 1
        assert verify(GameSpec(1, 3, 1, ADV), family_d3(1)) == 1

    def test_332_trio(self):
        assert verify(GameSpec(3, 3, 2, ADV), family_332(ADV)) == Fraction(3, 5)
        assert verify(GameSpec(3, 3, 2, RAN), family_332(RAN)) == Fraction(12, 19)
        coop = family_332(COOP)
        assert (
            joint_verify_cooperative(GameSpec(3, 3, 2, COOP), coop, least_treasures_rule)
            == Fraction(2, 3)
        )


class TestVerifyAgainstSolver:
    @pytest.mark.parametrize(
        "spec,tree",
        [
            (GameSpec(4, 3, 2, ADV), fig432()),
            (GameSpec(3, 3, 2, ADV), family_332(ADV)),
            (GameSpec(3, 3, 2, RAN), family_332(RAN)),
            (GameSpec(3, 2, 2, ADV), family_d2(2)),
        ],
    )
    def test_claimed_optimal_plans_reach_the_game_value(self, spec, tree):
        assert verify(spec, tree) == solve_cached(spec.n, spec.d, spec.k, spec.variant).value

    def test_verification_never_beats_the_solver(self):
        spec = GameSpec(4, 3, 2, ADV)
        weak = st.StrategyTree(4, 3, 2, st.ask((0, 1), {0: st.ask((0, 2), {0: st.ask((0, 3))})}))
        assert verify(spec, weak) <= solve_cached(4, 3, 2, ADV).value


def _walk_queries(node, queried, revealed, ok):
    """Check no query touches a queried-but-never-paying box again."""
    if node is None:
        return ok
    for entry in node.mix:
        stale = set(entry.query) & (queried - revealed)
        if stale:
            return False
        q2 = queried | set(entry.query)
        for box, child in entry.branches:
            if not _walk_queries(child, q2, revealed | {box}, ok):
                return False
    return ok


class TestNoAskBack:
    @pytest.mark.parametrize(
        "tree", [fig432(), family_d2(2), family_d2(3), family_d3(2), family_d3(3)]
    )
    def test_structurally_never_requeries_silent_boxes(self, tree):
        assert _walk_queries(tree.root, set(), set(), True)

    @pytest.mark.parametrize(
        "n,d,k,tree",
        [
            (4, 3, 2, fig432()),
            (3, 2, 2, family_d2(2)),
            (5, 2, 3, family_d2(3)),
            (4, 3, 2, family_d3(2)),
        ],
    )
    def test_adversary_and_random_values_coincide(self, n, d, k, tree):
        assert verify(GameSpec(n, d, k, ADV), tree) == verify(GameSpec(n, d, k, RAN), tree)


def _drop_one_branch(tree):
    """Yield copies of ``tree`` with exactly one branch removed."""

    def variants(node):
        if node is None:
            return
        for i, entry in enumerate(node.mix):
            for j, (box, child) in enumerate(entry.branches):
                pruned = st.MixEntry(
                    entry.prob,
                    entry.query,
                    entry.branches[:j] + entry.branches[j + 1 :],
                )
                yield st.StrategyNode(
                    node.mix[:i] + (pruned,) + node.mix[i + 1 :]
                )
                for sub in variants(child):
                    patched = st.MixEntry(
                        entry.prob,
                        entry.query,
                        entry.branches[:j] + ((box, sub),) + entry.branches[j + 1 :],
                    )
                    yield st.StrategyNode(node.mix[:i] + (patched,) + node.mix[i + 1 :])

    for root in variants(tree.root):
        yield st.StrategyTree(tree.n, tree.d, tree.k, root)


class TestMissingBranchSemantics:
    @pytest.mark.parametrize("variant", [ADV, RAN])
    def test_deleting_branches_never_helps(self, variant):
        base = fig432()
        full = verify(GameSpec(4, 3, 2, variant), base)
        for pruned in _drop_one_branch(base):
            assert verify(GameSpec(4, 3, 2, variant), pruned) <= full


class TestFollowTheReveal:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_floor_on_three_boxes(self, d):
        value = verify(GameSpec(3, d, 2, ADV), family_infinite_d(3, d, 2))
        assert value >= lower_bound_infinite_d(3, 2)

    def test_floor_on_four_boxes(self):
        value = verify(GameSpec(4, 3, 2, ADV), family_infinite_d(4, 3, 2))
        assert value >= lower_bound_infinite_d(4, 2)

    def test_single_treasure_is_the_first_query(self):
        assert verify(GameSpec(4, 1, 2, ADV), family_infinite_d(4, 1, 2)) == Fraction(2, 4)

    def test_needs_multi_box_queries(self):
        with pytest.raises(ValueError):
            family_infinite_d(3, 2, 1)


class TestCooperative:
    def test_reveals_never_matter_with_one_treasure(self):
        tree = single_query(3, 1, 2)
        spec = GameSpec(3, 1, 2, COOP)
        assert joint_verify_cooperative(spec, tree, least_treasures_rule) == Fraction(2, 3)

    def test_worst_rule_degenerates_to_adversary(self):
        tree = st.StrategyTree(3, 2, 2, st.ask((0, 1), {0: st.ask((0, 2))}))
        adversary = best_response_value(GameSpec(3, 2, 2, ADV), tree).value
        # Deterministic reveal rules on this tree only ever choose between
        # two queried boxes; enumerate them all via a choice bit.
        values = []
        for bit in (0, 1):
            def rule(counts, history, _bit=bit):
                positive = sorted(b for b, c in counts.items() if c > 0)
                return positive[min(_bit, len(positive) - 1)]

            values.append(
                joint_verify_cooperative(GameSpec(3, 2, 2, COOP), tree, rule)
            )
        assert min(values) == adversary

    def test_rule_must_pick_a_paying_box(self):
        tree = family_332(COOP)

        def broken(counts, history):
            return min(counts)  # may point at an empty box

        with pytest.raises(ValueError):
            joint_cooperative_value(GameSpec(3, 3, 2, COOP), tree, broken)

    @pytest.mark.parametrize("cast", [lambda b: 1.0 if b == 1 else b, lambda b: True if b == 1 else b],
                             ids=["float", "bool"])
    def test_rule_must_return_an_int_label(self, cast):
        # 1.0 and True both equal label 1, but a label is an int.
        def rule(counts, history):
            return cast(least_treasures_rule(counts, history))

        with pytest.raises(ValueError, match=r"reveal rule returned (1\.0|True), not a treasure-holding queried box"):
            joint_verify_cooperative(GameSpec(3, 3, 2, COOP), family_332(COOP), rule)

    def test_cooperative_between_random_and_first_query_cap(self):
        coop_value = joint_verify_cooperative(
            GameSpec(3, 3, 2, COOP), family_332(COOP), least_treasures_rule
        )
        assert solve_cached(3, 3, 2, RAN).value <= coop_value <= Fraction(2, 3)


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        bad = st.StrategyTree(
            3, 1, 2, st.node(st.entry(Fraction(1, 2), (0, 1)))
        )
        with pytest.raises(StrategyError, match="sum"):
            verify(GameSpec(3, 1, 2, ADV), bad)

    def test_branch_keys_inside_query(self):
        bad = st.StrategyTree(3, 2, 2, st.ask((0, 1), {2: st.ask((0, 2))}))
        with pytest.raises(StrategyError, match="branch"):
            verify(GameSpec(3, 2, 2, ADV), bad)

    def test_unreachable_branch_key_rejected(self):
        # A fresh reveal always takes the lowest fresh label, so a line keyed
        # on label 2 could never be played and was silently lost (value 0).
        bad = st.StrategyTree(3, 2, 3, st.ask((0, 1, 2), {2: st.ask((0, 1, 2))}))
        with pytest.raises(StrategyError, match=r"branch key 2 is unreachable: .* take label 0 \(at 0\)"):
            verify(GameSpec(3, 2, 3, ADV), bad)
        good = st.StrategyTree(3, 2, 3, st.ask((0, 1, 2), {0: st.ask((0, 1, 2))}))
        assert verify(GameSpec(3, 2, 3, ADV), good) == 1

    def test_depth_capped_by_treasure_count(self):
        bad = st.StrategyTree(3, 1, 2, st.ask((0, 1), {0: st.ask((0, 1))}))
        with pytest.raises(StrategyError, match="deeper"):
            verify(GameSpec(3, 1, 2, ADV), bad)

    def test_fresh_labels_must_be_consecutive(self):
        bad = st.StrategyTree(4, 2, 2, st.ask((0, 3), {0: st.ask((0, 1))}))
        with pytest.raises(StrategyError, match="fresh"):
            verify(GameSpec(4, 2, 2, ADV), bad)

    def test_repeated_box_rejected(self):
        # Naming box 0 twice would count its reveal weight twice: placement
        # (2, 1, 0) came out at 13/27 instead of the 4/9 of query [0, 1].
        def plan(second):
            return {
                "n": 3, "d": 3, "k": 3,
                "root": {"mix": [{"p": "1", "query": [0, 1], "branches": {
                    "0": {"mix": [{"p": "1", "query": second, "branches": {
                        "0": {"mix": [{"p": "1", "query": [0, 1, 2]}]},
                    }}]},
                }}]},
            }

        spec = GameSpec(3, 3, 3, RAN)
        with pytest.raises(StrategyError, match=r"repeats a box \(at 0/0/0\)"):
            verify(spec, st.from_json_dict(plan([0, 0, 1])))
        response = best_response_value(spec, st.from_json_dict(plan([0, 1])))
        assert response.allocation_values[(2, 1, 0)] == Fraction(4, 9)

    def test_cooperative_query_must_be_canonical(self):
        bad = st.StrategyTree(4, 2, 2, st.ask((0, 3), {0: st.ask((0, 1))}))
        with pytest.raises(StrategyError, match="fresh"):
            joint_verify_cooperative(GameSpec(4, 2, 2, COOP), bad, least_treasures_rule)

    def test_negative_mix_probability_rejected(self):
        # -1/2 and 3/2 sum to 1, so only the sign check stops this mix.
        bad = st.StrategyTree(3, 1, 2, st.node(st.entry(Fraction(-1, 2), (0, 1)), st.entry(Fraction(3, 2), (0, 1))))
        with pytest.raises(StrategyError, match=r"negative mix probability \(at 0\)"):
            verify(GameSpec(3, 1, 2, ADV), bad)

    @pytest.mark.parametrize("query", [(0, 3), (-1, 0)])
    def test_query_outside_the_boxes_rejected(self, query):
        bad = st.StrategyTree(3, 1, 2, st.ask(query))
        with pytest.raises(StrategyError, match=r"query .* outside 0..n-1 \(at 0\)"):
            verify(GameSpec(3, 1, 2, ADV), bad)

    def test_oversized_query_rejected(self):
        bad = st.StrategyTree(4, 2, 2, st.ask((0, 1, 2)))
        with pytest.raises(StrategyError, match="larger"):
            verify(GameSpec(4, 2, 2, ADV), bad)


@pytest.mark.parametrize("call,message", [
    (lambda: joint_verify_cooperative(GameSpec(4, 3, 2, ADV), fig432(), least_treasures_rule),
     "joint verification is for the cooperative variant"),
    (lambda: least_treasures_rule({0: 0}, []), "no queried box holds a treasure"),
    (lambda: family_d2(0), "k must be positive"),
    (lambda: family_d3(0), "k must be positive"),
    (lambda: family_infinite_d(3, 2, 4), "k cannot exceed n"),
    (lambda: family_infinite_d(3, 0, 2), "d must be positive"),
])
def test_invalid_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestTreeTypesLiveInCore:
    def test_one_class_under_every_import_path(self):
        for name in ("StrategyTree", "StrategyNode", "MixEntry"):
            assert getattr(st, name) is getattr(core, name)
        assert cachegame.StrategyTree is core.StrategyTree

    def test_strategies_imports_first_in_a_fresh_interpreter(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(st.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        code = ("import cachegame.strategies as s, cachegame.core as c; "
                "assert s.StrategyTree is c.StrategyTree and s.MixEntry is c.MixEntry; print(s.verify("
                "c.GameSpec(4, 3, 2), s.fig432()))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "2/5\n", "")

    @pytest.mark.parametrize("attr,call,value", [
        ("best_response_value", lambda: verify(GameSpec(4, 3, 2, ADV), fig432()), Fraction(2, 5)),
        ("joint_cooperative_value",
         lambda: joint_verify_cooperative(GameSpec(3, 3, 2, COOP), family_332(COOP), least_treasures_rule),
         Fraction(2, 3)),
    ])
    def test_verifiers_reach_the_solvers_current_evaluator(self, monkeypatch, attr, call, value):
        # perfbench's traced run wraps solver.best_response_value in place,
        # so verify must look it up on the module at each call.
        original, calls = getattr(solver, attr), []

        def wrapped(spec, *args):
            calls.append(spec)
            return original(spec, *args)

        monkeypatch.setattr(solver, attr, wrapped)
        assert call() == value
        assert len(calls) == 1


class TestJsonFormat:
    @pytest.mark.parametrize(
        "tree", [fig432(), fig542(), family_332(RAN), family_d3(3), single_query(4, 1, 2),
                 fig432_ending_early()]
    )
    def test_round_trip(self, tree):
        data = st.to_json_dict(tree)
        again = st.from_json_dict(json.loads(json.dumps(data)))
        assert again == tree
        assert st.to_json_dict(again) == data

    def test_wire_shape(self):
        data = st.to_json_dict(fig432())
        assert set(data) == {"n", "d", "k", "root"}
        entry = data["root"]["mix"][0]
        assert entry["p"] == "1/1"
        assert entry["query"] == [0, 1]
        assert set(entry["branches"]) == {"0"}

    @pytest.mark.parametrize("data,message", [
        ({"n": 3, "d": 1, "k": 2}, "missing field 'root'"),
        ({"n": 3, "d": 1, "k": 2, "root": {"nope": []}}, "node at root must be"),
        ([], "strategy JSON must be an object"),
        ({"n": None, "d": 1, "k": 2, "root": "end"}, "field 'n' is not an integer"),
        ({"n": 3, "d": 1, "k": float("inf"), "root": "end"}, "field 'k' is not an integer"),
        ({"n": 3.9, "d": 3, "k": 2, "root": {"mix": [{"p": "1", "query": [0.7, 1]}]}},
         "field 'n' is not an integer: 3.9"),
        ({"n": True, "d": 1, "k": 1, "root": "end"}, "field 'n' is not an integer: True"),
        ({"n": 3, "d": "1", "k": 2, "root": "end"}, "field 'd' is not an integer: '1'"),
        ({"n": 3, "d": 3, "k": 2, "root": {"mix": [{"p": "1", "query": [0.7, 1]}]}},
         r"entry at root/mix\[0\]: query \[0.7, 1\] has a label that is not an integer"),
        ({"n": 3, "d": 3, "k": 2, "root": {"mix": [{"p": "1", "query": [False, 1]}]}},
         r"entry at root/mix\[0\]: query \[False, 1\] has a label that is not an integer"),
        ({"n": 3, "d": 3, "k": 2, "root": {"mix": [{"p": "1", "query": ["0", 1]}]}},
         r"entry at root/mix\[0\]: query \['0', 1\] has a label that is not an integer"),
        ({"n": 3, "d": 1, "k": 2, "root": {"mix": 5}}, "node at root must be"),
        ({"n": 3, "d": 1, "k": 2, "root": {"mix": [5]}}, r"entry at root/mix\[0\]: not an object"),
        ({"n": 3, "d": 1, "k": 2, "root": {"mix": [{"p": "1", "query": 5}]}},
         r"entry at root/mix\[0\]: query is not a list"),
        ({"n": 3, "d": 1, "k": 2, "root": {"mix": [{"p": "1", "query": [0, 1], "branches": [1]}]}},
         r"entry at root/mix\[0\]: branches is not an object"),
        ({"n": 3, "d": 1, "k": 2, "root": {"mix": [{"p": "1", "query": [0, 1], "branches": {"x": "end"}}]}},
         r"entry at root/mix\[0\]: invalid literal"),
        ({"n": 3, "d": 2, "k": 2, "root": {"mix": [{"p": "1", "query": [0, 1], "branches": {"0": {"mix": [5]}}}]}},
         r"entry at root/mix\[0\]/0/mix\[0\]: not an object"),
    ] + [
        # Each of these keys would name box 0, and the later of two keys for
        # one box would win silently.
        ({"n": 3, "d": 2, "k": 2, "root": {"mix": [{"p": "1", "query": [0, 1], "branches": {
            "0": {"mix": [{"p": "1", "query": [0, 2]}]}, key: "end"}}]}},
         rf"entry at root/mix\[0\]: branch key {re.escape(repr(key))} is not a label in canonical decimal")
        for key in ("00", " 0", "+0", "0_0", "0 ")
    ])
    def test_malformed_rejected_with_path(self, data, message):
        with pytest.raises(ValueError, match=message):
            st.from_json_dict(data)

    def test_builtin_lookup(self):
        assert st.builtin_family("fig432") == fig432()
        assert st.builtin_family("d3", k=3) == family_d3(3)
        with pytest.raises(ValueError, match="unknown"):
            st.builtin_family("fig999")
        with pytest.raises(ValueError, match="parameter"):
            st.builtin_family("d2")
