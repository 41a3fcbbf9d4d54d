import json
import os
import shutil
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cachegame import GameSpec, Variant, cli
from cachegame import lp as lpmod
from cachegame import strategies as st
from cachegame.rational import format_rational
from helpers import fig432_ending_early


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def entries(cache):
    """The entries of a cache directory by file name."""
    return {path.name: json.loads(path.read_text()) for path in sorted(cache.glob("*.json"))}


class TestSolveCommand:
    def test_adversary_value(self, capsys):
        data = run_json(capsys, "solve", "--n", "3", "--d", "3", "--k", "2", "--variant", "adversary")
        assert data["value"] == "3/5"

    def test_random_value(self, capsys):
        data = run_json(capsys, "solve", "--n", "3", "--d", "3", "--k", "2", "--variant", "random")
        assert data["value"] == "12/19"

    def test_query_everything(self, capsys):
        data = run_json(capsys, "solve", "--n", "2", "--d", "1", "--k", "2")
        assert data["value"] == "1/1"

    def test_table_format_with_approx(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "3", "--d", "3", "--k", "2",
                           "--format", "table", "--approx")
        assert code == 0
        assert "3/5" in out and "approximate" in out

    def test_invalid_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "3", "--d", "0", "--k", "2")
        assert code == 2
        assert "treasure" in err

    def test_certificate_failure_exits_4(self, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise lpmod.CertificateError("dual sign on row 0")

        monkeypatch.setattr(cli.solver, "solve", solve)
        code, out, err = run(capsys, "solve", "--n", "2", "--d", "1", "--k", "1")
        assert (code, out) == (4, "")
        assert "internal error: dual sign on row 0" in err

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "30", "--d", "6", "--k", "5",
                           "--budget", "100")
        assert code == 3
        assert "budget" in err

    def test_output_round_trips(self, capsys):
        data = run_json(capsys, "solve", "--n", "3", "--d", "2", "--k", "2")
        assert json.loads(json.dumps(data)) == data
        total = sum(Fraction(e["weight"]) for e in data["searcher_plan"] if not e["sequence"])
        assert total == 1


    def test_stats_report_lp_work(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        data = run_json(capsys, "solve", "--n", "3", "--d", "3", "--k", "2", "--cache", str(cache))
        stats = data["stats"]
        assert stats["pivots"] == stats["phase1_pivots"] + stats["phase2_pivots"] > 0
        assert 0 <= stats["degenerate_pivots"] <= stats["pivots"]
        assert stats["bland_fallback"] is False
        assert stats["max_denominator_bits"] > 0
        assert 0 < stats["dropped_rows"] <= stats["lp_rows"]  # the unpriced free rows that dropped out
        wall_times = ("build_seconds", "solve_seconds", "assembly_seconds", "phase1_seconds", "phase2_seconds",
                      "certificate_seconds", "behavior_seconds")
        assert all(stats[k] >= 0 for k in wall_times)
        (entry,) = entries(cache).values()
        assert entry == {"payload": data, "tool_version": cli.__version__}  # wall times included


class TestVerifyCommand:
    def test_builtin_fig432(self, capsys):
        data = run_json(capsys, "verify", "--family", "fig432")
        assert data["value"] == "2/5"

    def test_builtin_d3(self, capsys):
        data = run_json(capsys, "verify", "--family", "d3", "--k", "3")
        assert data["value"] == "9/28"

    def test_cooperative_family(self, capsys):
        data = run_json(capsys, "verify", "--family", "332-cooperative",
                        "--variant", "cooperative")
        assert data["value"] == "2/3"

    def test_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(st.to_json_dict(st.fig542())))
        data = run_json(capsys, "verify", "--file", str(path))
        assert data["value"] == "8/35"

    @pytest.mark.parametrize("variant", ["adversary", "random"])
    def test_strategy_file_with_an_explicit_end(self, capsys, tmp_path, variant):
        tree = fig432_ending_early()
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(st.to_json_dict(tree)))
        assert '"end"' in path.read_text()
        data = run_json(capsys, "verify", "--file", str(path), "--variant", variant)
        spec = GameSpec(4, 3, 2, Variant(variant))
        assert data["value"] == format_rational(st.verify(spec, tree)) == "4/15"

    @pytest.mark.parametrize("content,where", [
        ('{"n": 3, "d": 1, "k": 2, "root": {"mix": [{"p": "1/1"}]}}', "root/mix[0]"),
        ("[]", "strategy JSON must be an object"),
        ('{"n": null, "d": 1, "k": 2, "root": "end"}', "field 'n'"),
        ('{"n": 3, "d": 1, "k": 2, "root": {"mix": 5}}', "node at root"),
        ('{"n": 3, "d": 1, "k": 2, "root": {"mix": [5]}}', "root/mix[0]"),
        ('{"n": 3, "d": 1, "k": 2, "root": {"mix": [{"p": "1", "query": 5}]}}', "root/mix[0]"),
        ('{"n": 3, "d": 1, "k": 2, "root": {"mix": [{"p": "1", "query": [0, 1], "branches": [1]}]}}',
         "root/mix[0]"),
        ('{"n": 3.9, "d": 3, "k": 2, "root": {"mix": [{"p": "1", "query": [0.7, 1]}]}}', "field 'n'"),
        ('{"n": true, "d": 1, "k": 1, "root": "end"}', "field 'n'"),
        ('{"n": 3, "d": 3, "k": 2, "root": {"mix": [{"p": "1", "query": [0.7, 1]}]}}', "root/mix[0]"),
        # Both name box 0; read in either order, one branch silently replaced the other.
        ('{"n":3,"d":2,"k":2,"root":{"mix":[{"p":"1","query":[0,1],"branches":'
         '{"0":{"mix":[{"p":"1","query":[0,2]}]},"00":"end"}}]}}', "root/mix[0]: branch key '00'"),
        ('{"n":3,"d":2,"k":2,"root":{"mix":[{"p":"1","query":[0,1],"branches":'
         '{"00":"end","0":{"mix":[{"p":"1","query":[0,2]}]}}}]}}', "root/mix[0]: branch key '00'"),
    ])
    def test_malformed_file_exit_2(self, capsys, tmp_path, content, where):
        path = tmp_path / "broken.json"
        path.write_text(content)
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert where in err

    def test_deeply_nested_file_exit_2(self, capsys, tmp_path):
        depth = 3000
        path = tmp_path / "deep.json"
        path.write_text('{"n": 3, "d": 1, "k": 2, "root": '
                        + '{"mix": [{"p": "1", "query": [0], "branches": {"0": ' * depth
                        + '"end"' + "}}]}" * depth + "}")
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert "nested too deeply" in err

    @pytest.mark.parametrize("source,sizes,message", [
        (("--family", "d2"), ("--n", "5", "--d", "7", "--k", "2"), "--n 5 does not match the strategy's n=3"),
        (("--family", "fig432"), ("--n", "9"), "--n 9 does not match the strategy's n=4"),
        (("--family", "fig432"), ("--d", "4"), "--d 4 does not match the strategy's d=3"),
        (("--file",), ("--n", "5", "--d", "4", "--k", "3"), "--k 3 does not match the strategy's k=2"),
    ])
    def test_sizes_must_match_the_strategy(self, capsys, tmp_path, source, sizes, message):
        # A value printed for these flags would be that of the strategy's
        # own game, not of the game they name.
        if source == ("--file",):
            path = tmp_path / "strategy.json"
            path.write_text(json.dumps(st.to_json_dict(st.fig542())))
            source = ("--file", str(path))
        code, out, err = run(capsys, "verify", *source, *sizes)
        assert (code, out) == (2, "")
        assert message in err
        data = run_json(capsys, "verify", "--family", "fig432", "--n", "4", "--d", "3", "--k", "2")
        assert data["value"] == "2/5"

    @pytest.mark.parametrize("source,message", [
        ((), "one of the arguments --family --file is required"),
        (("--family", "fig432", "--file", "x.json"), "argument --file: not allowed with argument --family"),
    ])
    def test_needs_exactly_one_source(self, capsys, source, message):
        code, out, err = run(capsys, "verify", *source)
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err


class TestSweepCommand:
    def test_small_sweep_flags_nothing(self, capsys):
        data = run_json(capsys, "sweep-accuracy", "--max-n", "5", "--max-d", "3", "--max-k", "2")
        assert data["findings"] == []
        rows = {(r["n"], r["d"], r["k"]): r for r in data["rows"]}
        assert rows[(4, 3, 2)]["accurate"] is True
        assert rows[(3, 3, 2)]["accurate"] is False
        assert rows[(3, 3, 2)]["value"] == "3/5"

    def test_two_treasure_threshold(self, capsys):
        data = run_json(capsys, "sweep-accuracy", "--max-n", "5", "--max-d", "2", "--max-k", "2")
        for r in data["rows"]:
            if r["d"] == 2 and r["k"] == 2:
                assert r["accurate"] == (r["n"] >= 3)

    def test_single_cell_sweep(self, capsys):
        data = run_json(capsys, "sweep-accuracy", "--max-n", "1", "--max-d", "1", "--max-k", "1")
        assert len(data["rows"]) == 1  # only (1,1,1) fits

    def test_budget_skips_cells(self, capsys):
        data = run_json(capsys, "sweep-accuracy", "--max-n", "3", "--max-d", "3", "--max-k", "2",
                        "--budget", "20")
        skipped = [(r["n"], r["d"], r["k"]) for r in data["rows"] if "skipped" in r]
        assert skipped == [(2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1), (3, 3, 2)]
        assert all(r["skipped"] == "budget" for r in data["rows"] if "skipped" in r)
        assert len(data["rows"]) == 15
        assert all("value" in r for r in data["rows"] if "skipped" not in r)

    def test_progress_lines_leave_stdout_alone(self, capsys):
        sweep = ("sweep-accuracy", "--max-n", "2", "--max-d", "3", "--max-k", "2", "--budget", "20")
        code, out, err = run(capsys, *sweep, "--format", "table")
        assert code == 0
        assert out == (
            "(1,1,1)  value=1/1 bound=1/1 accurate=True\n"
            "(1,2,1)  value=1/1 bound=1/1 accurate=True\n"
            "(1,3,1)  value=1/1 bound=1/1 accurate=True\n"
            "(2,1,1)  value=1/2 bound=1/2 accurate=True\n"
            "(2,1,2)  value=1/1 bound=1/1 accurate=True\n"
            "(2,2,1)  value=1/3 bound=1/3 accurate=True\n"
            "(2,2,2)  value=1/1 bound=4/3 accurate=False\n"
            "(2,3,1)  budget\n"
            "(2,3,2)  budget\n"
        )
        progress = [json.loads(line) for line in err.splitlines()]
        assert all(type(line.pop("seconds")) is float for line in progress)
        assert progress == [
            {"n": 1, "d": 1, "k": 1, "value": "1/1"},
            {"n": 1, "d": 2, "k": 1, "value": "1/1"},
            {"n": 1, "d": 3, "k": 1, "value": "1/1"},
            {"n": 2, "d": 1, "k": 1, "value": "1/2"},
            {"n": 2, "d": 1, "k": 2, "value": "1/1"},
            {"n": 2, "d": 2, "k": 1, "value": "1/3"},
            {"n": 2, "d": 2, "k": 2, "value": "1/1"},
            {"n": 2, "d": 3, "k": 1, "skipped": "budget"},
            {"n": 2, "d": 3, "k": 2, "skipped": "budget"},
        ]
        code, out, err = run(capsys, *sweep)
        assert code == 0 and len(err.splitlines()) == 9
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_empty_sweep_exits_cleanly(self, capsys):
        data = run_json(capsys, "sweep-accuracy", "--max-n", "0", "--max-d", "3", "--max-k", "2")
        assert data == {"rows": [], "findings": []}

    @pytest.mark.parametrize("max_n,max_d,values,finding", [
        (1, 1, {(1, 1, 1): "1/2"}, "threshold-conjecture violated at (1,1,1)"),
        (1, 2, {(1, 1, 1): "1/2", (1, 2, 1): "1/1"},
         "d-monotonicity violated between (1,1,1) and (1,2,1)"),
        (2, 1, {(1, 1, 1): "1/1", (2, 1, 1): "1/3"},
         "accuracy-monotonicity violated: (1,1,1) accurate but (2,1,1) is not"),
    ])
    def test_inconsistent_values_are_findings(self, capsys, monkeypatch, max_n, max_d, values, finding):
        # Exact values never raise these findings, so the sweep is fed
        # inconsistent ones through its cache lookup.
        monkeypatch.setattr(cli, "_solve_cached", lambda args, n, d, k, variant: {"value": values[(n, d, k)]})
        data = run_json(capsys, "sweep-accuracy", "--max-n", str(max_n), "--max-d", str(max_d),
                        "--max-k", "1")
        assert finding in data["findings"]


class TestAccumulationCommand:
    def test_exact_mode(self, capsys):
        data = run_json(capsys, "accumulation", "--n", "5", "--k", "3", "--d", "11/6",
                        "--mode", "exact")
        assert data["losing"] == 7
        assert data["probability"] == "3/10"

    def test_evaluate_mode(self, capsys):
        data = run_json(capsys, "accumulation", "--n", "5", "--k", "3", "--d", "1",
                        "--mode", "evaluate", "--dist", "1/5,1/5,1/5,1/5,1/5")
        assert data["winning"] == 0
        assert data["probability"] == "0/1"

    def test_ruckle_mode(self, capsys):
        data = run_json(capsys, "accumulation", "--n", "5", "--k", "3", "--d", "1",
                        "--mode", "ruckle")
        assert data["winning"] == 0

    MODES = [["--mode", "exact"], ["--mode", "ruckle"],
             ["--mode", "evaluate", "--dist", "11/12,11/12,0,0,0"]]

    @pytest.mark.parametrize("mode", MODES)
    def test_table_witness_is_a_dist_argument(self, capsys, mode):
        code, out, _ = run(capsys, "accumulation", "--n", "5", "--k", "3", "--d", "11/6",
                           *mode, "--format", "table")
        assert code == 0
        witness = next(line for line in out.splitlines() if line.startswith("witness"))
        assert witness.split() == ["witness", "11/12,11/12,0/1,0/1,0/1"]

    @pytest.mark.parametrize("mode", MODES)
    def test_table_approx_marks_the_probability(self, capsys, mode):
        code, out, _ = run(capsys, "accumulation", "--n", "5", "--k", "3", "--d", "11/6",
                           *mode, "--format", "table", "--approx")
        assert code == 0
        lines = [line for line in out.splitlines() if "approximate" in line]
        assert lines == ["probability  3/10   (~0.300000, approximate)"]

    def test_evaluate_requires_dist(self, capsys):
        code, _, _ = run(capsys, "accumulation", "--n", "5", "--k", "3", "--d", "1",
                         "--mode", "evaluate")
        assert code == 2


class TestFractionalCommands:
    def test_plambda(self, capsys):
        data = run_json(capsys, "plambda", "--n", "2", "--d", "2", "--lam", "1")
        assert data["p_lambda"] == "2/3"

    def test_plambda_terminal(self, capsys):
        data = run_json(capsys, "plambda", "--n", "4", "--d", "3", "--lam", "2,1")
        assert data["p_lambda"] == "0/1"

    def test_fractional_check(self, capsys):
        data = run_json(capsys, "fractional-check", "--n", "12", "--d", "2",
                        "--k", "3/2", "--lam", "1")
        assert data["identities"]["current"]["equal"]
        assert data["identities"]["fresh"]["equal"]
        total = sum(Fraction(b["prob"]) for b in data["step_distribution"])
        assert total == 1

    def test_unreachable_record_exit_2(self, capsys):
        code, _, _ = run(capsys, "plambda", "--n", "2", "--d", "3", "--lam", "1,1")
        assert code == 2


def _entry_211(**change):
    """A cache entry for ``solve --n 2 --d 1 --k 1`` with payload fields changed."""
    payload = {"n": 2, "d": 1, "k": 1, "variant": "adversary", "symmetry": True, "relaxed": False,
               "value": "1/2", "stats": {"nodes": 3, "lp_rows": 2, "lp_cols": 3, "pivots": 1}}
    return {"payload": {**payload, **change}, "tool_version": cli.__version__}


NOT_AN_ENTRY = "is not a JSON object with a 'payload' object"
MALFORMED_ENTRIES = [
    (content, NOT_AN_ENTRY) for content in ("not json", "5", "[]", "{}", '{"payload": 5}', '{"payload": [1]}')
] + [
    (json.dumps(_entry_211(**change)), f"has a malformed field {field!r}") for field, change in (
        ("payload.n", {"n": "x"}),
        ("payload.d", {"d": 1.0}),
        ("payload.k", {"k": True}),
        ("payload.variant", {"variant": "cooperative"}),
        ("payload.symmetry", {"symmetry": 1}),
        ("payload.relaxed", {"relaxed": None}),
        ("payload.value", {"value": 0.5}),
        ("payload.value", {"value": "one half"}),
        ("payload.value", {"value": "1/0"}),
        ("payload.stats", {"stats": None}),
        ("payload.stats.nodes", {"stats": {}}),
        ("payload.stats.lp_rows", {"stats": {"nodes": 3, "lp_rows": "2", "lp_cols": 3, "pivots": 1}}),
        ("payload.stats.lp_cols", {"stats": {"nodes": 3, "lp_rows": 2, "lp_cols": 3.0, "pivots": 1}}),
        ("payload.stats.pivots", {"stats": {"nodes": 3, "lp_rows": 2, "lp_cols": 3, "pivots": False}}),
    )
] + [
    (json.dumps(_entry_211(**change)), f"holds no valid game: {message}") for change, message in (
        ({"n": 0}, "need at least one box, got n=0"),
        ({"k": 3}, "query size must satisfy 1 <= k <= n, got k=3, n=2"),
    )
]

SOLVE_332 = ("solve", "--n", "3", "--d", "3", "--k", "2")
SOLVE_322 = ("solve", "--n", "3", "--d", "2", "--k", "2")


class TestCache:
    def test_solve_populates_and_recheck_passes(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run_json(capsys, *SOLVE_332, "--variant", "random", "--cache", str(cache))
        run_json(capsys, *SOLVE_322, "--cache", str(cache))
        stored = entries(cache)
        assert len(stored) == 2
        assert all(set(entry) == {"payload", "tool_version"} for entry in stored.values())
        code, out, _ = run(capsys, "recheck", "--cache", str(cache))
        assert code == 0
        assert [line.split()[0] + ".json" for line in out.splitlines()] == sorted(stored)
        assert out.count("ok") == 2

    def _corrupt(self, cache, edit):
        """Apply ``edit`` to the cache's only entry."""
        (path,) = cache.glob("*.json")
        entry = json.loads(path.read_text())
        edit(entry)
        path.write_text(json.dumps(entry))

    def test_recheck_detects_corruption(self, capsys, tmp_path):
        # The value and plans are intact, but a hit would serve wrong stats.
        cache = tmp_path / "cache"
        run_json(capsys, *SOLVE_322, "--cache", str(cache))
        self._corrupt(cache, lambda entry: entry["payload"]["stats"].update(pivots=-1))
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 4
        assert out.rstrip().endswith("  MISMATCH (stats)")

    def test_recheck_detects_corrupted_payload(self, capsys, tmp_path):
        # A cache hit serves the payload, so its value must be rechecked too.
        cache = tmp_path / "cache"
        argv = (*SOLVE_322, "--cache", str(cache))
        fresh = run_json(capsys, *argv)["value"]
        self._corrupt(cache, lambda entry: entry["payload"].update(value="1/2"))
        assert run_json(capsys, *argv)["value"] == "1/2"  # what a hit would serve
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 4
        assert out.rstrip().endswith(f"  served=1/2  fresh={fresh}  MISMATCH (value)")
        assert "1 cache entries failed recheck" in err

    def test_recheck_detects_corrupted_plan(self, capsys, tmp_path):
        # The value is intact, but a hit would serve a wrong plan.
        cache = tmp_path / "cache"
        argv = (*SOLVE_322, "--cache", str(cache))
        run_json(capsys, *argv)
        self._corrupt(cache, lambda entry: entry["payload"]["searcher_plan"][1].update(weight="7/3"))
        assert run_json(capsys, *argv)["searcher_plan"][1]["weight"] == "7/3"
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 4
        assert "MISMATCH (searcher_plan)" in out
        assert "1 cache entries failed recheck" in err

    def test_hit_is_the_entry_for_the_request(self, capsys, tmp_path):
        # (3,3,2)'s entry under (4,3,2)'s file name was served as (4,3,2)'s
        # answer, and recheck passed it.
        cache = tmp_path / "cache"
        run_json(capsys, *SOLVE_332, "--cache", str(cache))
        solve_432 = ("solve", "--n", "4", "--d", "3", "--k", "2", "--cache", str(cache))
        run_json(capsys, *solve_432)
        key_332 = cli._cache_key(3, 3, 2, "adversary", True, False)
        key_432 = cli._cache_key(4, 3, 2, "adversary", True, False)
        shutil.copy(cache / f"{key_332}.json", cache / f"{key_432}.json")
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 4
        line = next(line for line in out.splitlines() if line.startswith(key_432))
        assert line.endswith(f"MISMATCH (file key, payload gives {key_332})")
        assert "1 cache entries failed recheck" in err
        data = run_json(capsys, *solve_432)
        assert (data["n"], data["value"]) == (4, "2/5")
        assert entries(cache)[f"{key_432}.json"]["payload"]["n"] == 4  # replaced
        assert run(capsys, "recheck", "--cache", str(cache))[0] == 0

    def test_payload_of_another_game_is_not_served(self, capsys, tmp_path):
        # (4,3,2)'s payload in (3,3,2)'s entry, under (3,3,2)'s file name:
        # a hit checked a copy of the game fields but served the payload, so
        # solve printed (4,3,2)'s 2/5 as (3,3,2)'s value.
        cache = tmp_path / "cache"
        run_json(capsys, *SOLVE_332, "--cache", str(cache))
        run_json(capsys, "solve", "--n", "4", "--d", "3", "--k", "2", "--cache", str(cache))
        key_332 = cli._cache_key(3, 3, 2, "adversary", True, False)
        key_432 = cli._cache_key(4, 3, 2, "adversary", True, False)
        path_332 = cache / f"{key_332}.json"
        entry = json.loads(path_332.read_text())
        entry["payload"] = entries(cache)[f"{key_432}.json"]["payload"]
        path_332.write_text(json.dumps(entry))
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 4
        line = next(line for line in out.splitlines() if line.startswith(key_332))
        assert line.endswith(f"served=2/5  fresh=2/5  MISMATCH (file key, payload gives {key_432})")
        data = run_json(capsys, *SOLVE_332, "--cache", str(cache))
        assert (data["n"], data["value"]) == (3, "3/5")
        assert entries(cache)[f"{key_332}.json"]["payload"] == data  # replaced
        assert run(capsys, "recheck", "--cache", str(cache))[0] == 0

    def test_entry_with_the_older_fields_is_read(self, capsys, tmp_path):
        # Entries of this version once also held copies of the game fields,
        # the value and the stats, and a timestamp.  A hit still serves the
        # payload, and recheck still passes it.
        cache = tmp_path / "cache"
        argv = (*SOLVE_332, "--cache", str(cache))
        _, first, _ = run(capsys, *argv)
        (path,) = cache.glob("*.json")
        entry = json.loads(path.read_text())
        payload = entry["payload"]
        entry.update(params={f: payload[f] for f in cli.GAME_FIELDS}, value=payload["value"],
                     stats={k: v for k, v in payload["stats"].items() if not k.endswith("_seconds")},
                     timestamp=1)
        path.write_text(json.dumps(entry))
        assert run(capsys, *argv) == (0, first, "")
        assert json.loads(path.read_text()) == entry  # a hit, not a rewrite
        code, out, _ = run(capsys, "recheck", "--cache", str(cache))
        assert code == 0 and out.rstrip().endswith("  served=3/5  fresh=3/5  ok")

    def test_entry_mode_follows_the_umask(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        old = os.umask(0o022)
        try:
            run_json(capsys, *SOLVE_322, "--cache", str(cache))
        finally:
            os.umask(old)
        (path,) = cache.glob("*.json")
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_flags_key_separately(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run_json(capsys, *SOLVE_322, "--cache", str(cache))
        run_json(capsys, *SOLVE_322, "--cache", str(cache), "--no-symmetry")
        assert len(entries(cache)) == 2

    def test_hits_skip_recomputation_and_match(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        first = run_json(capsys, *SOLVE_332, "--cache", str(cache))
        (path,) = cache.glob("*.json")
        before = (path.read_text(), path.stat().st_mtime_ns)
        again = run_json(capsys, *SOLVE_332, "--cache", str(cache))
        assert again == first
        assert (path.read_text(), path.stat().st_mtime_ns) == before  # untouched on a hit
        assert [p.name for p in cache.iterdir()] == [path.name]

    # 0.4.0: before dropped_rows; 0.5.0: before the adversary's forced reveals
    # merged; 0.6.0: before phase 2 brought the unpriced free columns in first;
    # 0.7.0: before the revised form restarted from its own rows; 0.8.0:
    # before the revised form's initial rows became integer vectors
    @pytest.mark.parametrize("version", ["0.0.0", "0.4.0", "0.5.0", "0.6.0", "0.7.0", "0.8.0"])
    def test_entry_from_another_version_is_solved_again(self, capsys, tmp_path, version):
        cache = tmp_path / "cache"
        argv = (*SOLVE_332, "--cache", str(cache))
        run_json(capsys, *argv)

        self._corrupt(cache, lambda entry: entry["payload"].update(value="1/2"))
        assert run_json(capsys, *argv)["value"] == "1/2"  # same version: a hit
        self._corrupt(cache, lambda entry: entry.update(tool_version=version))
        assert run_json(capsys, *argv)["value"] == "3/5"
        (entry,) = entries(cache).values()
        assert entry["tool_version"] == cli.__version__
        assert entry["payload"]["value"] == "3/5"

    def test_recheck_reports_an_entry_of_another_version_as_stale(self, capsys, tmp_path, monkeypatch):
        # solve never serves such an entry, so recheck does not fail on it,
        # and it does not solve it either.
        cache = tmp_path / "cache"
        run_json(capsys, *SOLVE_322, "--cache", str(cache))
        run_json(capsys, *SOLVE_332, "--cache", str(cache))
        stale = cache / f"{cli._cache_key(3, 3, 2, 'adversary', True, False)}.json"
        entry = json.loads(stale.read_text())
        entry["tool_version"] = "0.4.0"
        del entry["payload"]["stats"]["dropped_rows"]
        stale.write_text(json.dumps(entry))
        solved = []
        real = cli.solver.solve
        monkeypatch.setattr(cli.solver, "solve", lambda spec, **kw: solved.append(spec) or real(spec, **kw))
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 0, err
        lines = dict(line.split("  ", 1) for line in out.splitlines())
        assert lines.pop(stale.stem) == "3,3,2,adversary  stale (tool_version 0.4.0)"
        (current,) = lines.values()
        assert current.startswith("3,2,2,adversary") and current.endswith("  ok")
        assert [(s.n, s.d, s.k) for s in solved] == [(3, 2, 2)]

    def test_an_entry_of_an_older_layout_is_stale_not_malformed(self, capsys, tmp_path):
        # Only the game fields of an entry another version wrote are read:
        # recheck reports it stale, and solve solves it again.
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / f"{cli._cache_key(2, 1, 1, 'adversary', True, False)}.json"
        entry = _entry_211()
        entry["tool_version"] = "0.1.0"
        del entry["payload"]["stats"]["pivots"]
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert (code, err) == (0, "")
        assert out == f"{path.stem}  2,1,1,adversary  stale (tool_version 0.1.0)\n"
        assert run_json(capsys, "solve", "--n", "2", "--d", "1", "--k", "1",
                        "--cache", str(cache))["value"] == "1/2"
        assert json.loads(path.read_text())["tool_version"] == cli.__version__
        # A game field that does not read still stops both commands.
        entry["payload"]["n"] = "x"
        path.write_text(json.dumps(entry))
        for argv in (("recheck",), ("solve", "--n", "2", "--d", "1", "--k", "1")):
            code, _, err = run(capsys, *argv, "--cache", str(cache))
            assert code == 2
            assert f"error: cache entry {path} has a malformed field 'payload.n'" in err

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", dump)
        cache = tmp_path / "cache"
        with pytest.raises(OSError, match="disk full"):
            cli._write_entry(str(cache / "entry.json"), _entry_211())
        assert list(cache.iterdir()) == []

    def test_cache_keys_keep_their_values(self):
        # Existing cache files are found under these names.
        assert cli._cache_key(3, 3, 2, "adversary", True, False) == "a41aaad1725a48d6"
        assert cli._cache_key(5, 5, 2, "random", True, False) == "0648db3d3e1a3637"

    def test_cached_solve_leaves_the_umask_alone(self, capsys, tmp_path, monkeypatch):
        # Setting the umask, even to read it, changes it for every thread.
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        cache = tmp_path / "cache"
        assert run_json(capsys, *SOLVE_322, "--cache", str(cache))["value"] == "2/3"
        assert [p.name for p in cache.iterdir() if not p.name.endswith(".json")] == []

    def test_sweep_resumes_from_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        sweep = ("sweep-accuracy", "--max-d", "2", "--max-k", "2", "--cache", str(cache))
        run_json(capsys, *sweep, "--max-n", "3")
        filled = entries(cache)
        assert filled
        data = run_json(capsys, *sweep, "--max-n", "4")
        stored = entries(cache)
        assert len(stored) > len(filled)  # only the new cells were solved
        assert all(stored[name] == entry for name, entry in filled.items())
        assert data["findings"] == []

    def test_recheck_requires_cache(self, capsys):
        code, _, err = run(capsys, "recheck")
        assert code == 2
        assert "--cache" in err

    def test_single_file_cache_exits_2(self, capsys, tmp_path):
        # A cache file of the 0.4.0 layout is not a directory, so it is not read.
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"schema": 1, "entries": {}}))
        code, _, err = run(capsys, "solve", "--n", "2", "--d", "1", "--k", "1", "--cache", str(cache))
        assert code == 2
        assert str(cache) in err

    @pytest.mark.parametrize("content,message", MALFORMED_ENTRIES)
    @pytest.mark.parametrize("recheck", [False, True])
    def test_malformed_entry_exits_2(self, capsys, tmp_path, content, message, recheck):
        # The key is the one ``solve --n 2 --d 1 --k 1`` looks up.
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / f"{cli._cache_key(2, 1, 1, 'adversary', True, False)}.json"
        path.write_text(content)
        argv = ("recheck",) if recheck else ("solve", "--n", "2", "--d", "1", "--k", "1")
        code, _, err = run(capsys, *argv, "--cache", str(cache))
        assert code == 2
        assert f"error: cache entry {path} {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [content for content, _ in MALFORMED_ENTRIES])
    def test_malformed_entry_under_another_key(self, capsys, tmp_path, content):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / f"{cli._cache_key(3, 1, 1, 'adversary', True, False)}.json"
        path.write_text(content)
        assert run_json(capsys, "solve", "--n", "2", "--d", "1", "--k", "1",
                        "--cache", str(cache))["value"] == "1/2"
        assert len(list(cache.glob("*.json"))) == 2
        code, out, err = run(capsys, "recheck", "--cache", str(cache))
        assert code == 2
        assert out == ""
        assert str(path) in err

    def test_concurrent_solves_keep_every_entry(self, tmp_path):
        # Processes writing into one cache directory, more than there are
        # cores, lose none of each other's entries.
        cache = tmp_path / "cache"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        instances = {(3, 2): "2/3", (4, 2): "2/5", (3, 3): "3/5"}
        procs = [
            subprocess.Popen([sys.executable, "-m", "cachegame.cli", "solve", "--n", str(n),
                              "--d", str(d), "--k", "2", "--cache", str(cache)],
                             env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            for n, d in instances
        ]
        try:
            for proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        stored = entries(cache).values()
        assert {(e["payload"]["n"], e["payload"]["d"]): e["payload"]["value"] for e in stored} == instances
        assert [p.name for p in cache.iterdir() if not p.name.endswith(".json")] == []


class TestFlagsBelongToTheirCommands:
    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "fig432", "--budget", "5"),
        ("plambda", "--n", "2", "--d", "2", "--lam", "1", "--cache", "d"),
        ("accumulation", "--n", "5", "--k", "3", "--d", "1", "--mode", "ruckle", "--no-symmetry"),
        ("fractional-check", "--n", "12", "--d", "2", "--k", "3/2", "--lam", "1", "--relaxed-queries"),
        ("--no-symmetry", "solve", "--n", "3", "--d", "3", "--k", "2"),
        ("recheck", "--cache", "d", "--format", "table"),
        ("solve", "--n", "3", "--d", "3", "--k", "2", "--recheck"),
    ])
    def test_unread_flag_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_flag_before_the_command_exits_2(self, capsys):
        code, out, err = run(capsys, "--format", "table", "plambda", "--n", "2", "--d", "2", "--lam", "1")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'table'" in err
