"""Tests for the benchmark's own code, on instances small enough for the suite."""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import ACCUMULATION, SOLVE, VERIFY, WORKLOADS, Instance  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# One tiny stand-in per workload, same operation kinds, largest last.
TINY = {
    "solve": (
        Instance(SOLVE, (3, 3, 2, "random"), Fraction(12, 19), "README"),
        Instance(SOLVE, (3, 3, 2, "adversary"), Fraction(3, 5), "README"),
    ),
    "verify": (
        Instance(VERIFY, ("infinite-d", 4, 3, 2, "random"), Fraction(2, 9), "exact evaluation"),
        Instance(VERIFY, ("fig432", 4, 3, 2, "adversary"), Fraction(2, 5), "README"),
    ),
    "accumulation": (
        Instance(ACCUMULATION, (4, 2, 2), 3, "tests/test_accumulation.py"),
        Instance(ACCUMULATION, (5, 3, 2), 4, "tests/test_accumulation.py"),
    ),
    "wide": (
        Instance(SOLVE, (4, 2, 2, "random"), Fraction(2, 5), "closed form k^d/C(n+d-1,d)"),
        Instance(SOLVE, (6, 2, 3, "random"), Fraction(3, 7), "closed form k^d/C(n+d-1,d)"),
    ),
}


@pytest.fixture
def isolated_modules():
    """The benchmark re-imports cachegame; give other tests theirs back."""
    saved = {k: v for k, v in sys.modules.items() if k == "cachegame" or k.startswith("cachegame.")}
    yield
    for name in [k for k in sys.modules if k == "cachegame" or k.startswith("cachegame.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _run(instances, trace, out_dir=None):
    return run.run_workload(instances, seed=3, seconds=0, trace=trace, out_dir=out_dir)


def _names_units(section):
    return [(m["name"], m["unit"]) for m in SPEC[section]]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(run.END_TO_END) == _names_units("end_to_end")
    assert list(spans.PER_LAYER) == _names_units("per_layer")


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric(workload, trace, isolated_modules, tmp_path):
    result = _run(TINY[workload], trace, tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == _names_units(section)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert (tmp_path / "spans-bench-seed3.jsonl").exists()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_is_an_error_not_a_crash(isolated_modules):
    wrong = (Instance(SOLVE, (3, 3, 2, "adversary"), Fraction(1, 2), "deliberately wrong"),)
    result = _run(wrong, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "expected 1/2" in result["problems"][0]


def test_raising_operation_is_an_error(isolated_modules):
    bad = (Instance(VERIFY, ("no-such-family", 4, 3, 2, "adversary"), Fraction(2, 5), "none"),)
    result = _run(bad, trace=True)
    assert result["failed"] == result["attempted"] == 2
    assert "ValueError" in result["problems"][0]


def test_count_drift_across_runs_is_an_error(isolated_modules, tmp_path):
    inst = TINY["solve"][1]
    assert _run((inst,), trace=True, out_dir=tmp_path)["correct"]
    (record_path,) = tmp_path.glob("counts-*.json")
    record = json.loads(record_path.read_text())
    assert record[inst.name]["build_tree.nodes"] == 227
    record[inst.name]["solve_lp.pivots"] += 1
    record_path.write_text(json.dumps(record))
    result = _run((inst,), trace=False, out_dir=tmp_path)
    assert result["failed"] == result["attempted"] == 1
    assert "count drift: solve_lp.pivots" in result["problems"][0]


def test_self_time_subtracts_child_spans():
    s = [
        spans.Span(0, "max_losing", None, 1, 0.0, 10.0),
        spans.Span(1, "check_feasible", 0, 1, 1.0, 4.0, {"feasible": 1}),
        spans.Span(2, "solve_lp", 1, 1, 1.5, 3.5, {"rows": 2, "cols": 3, "nnz": 4, "pivots": 5}),
        spans.Span(3, "check_feasible", 0, 1, 5.0, 6.0, {"feasible": 0}),
    ]
    m = spans.layer_metrics(s)
    assert m["max_losing.s"] == 10.0 and m["max_losing.self_s"] == 6.0
    assert m["check_feasible.calls"] == 2 and m["check_feasible.feasible_ratio"] == 0.5
    assert m["solve_lp.s_per_pivot"] == 2.0 / 5
    assert spans.op_counts(s) == {1: {"solve_lp.rows": 2, "solve_lp.cols": 3, "solve_lp.nnz": 4,
                                      "solve_lp.pivots": 5, "check_feasible.calls": 2}}


def test_work_s_removes_sampler_time_and_scales_by_speed():
    sampler = speed.Sampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0]
    sampler.kernels = [speed.REF_KERNEL_S * 2] * 2 + [speed.REF_KERNEL_S / 2] * 2
    # [0.9, 1.9) holds the sample taken at 1.0, and the samples within
    # MARGIN_S of it are those at 1.0 (half speed) and 2.0 (double speed).
    work = 1.0 - speed.REF_KERNEL_S * 2
    assert sampler.work_s(0.9, 1.9) == pytest.approx(work * (0.5 + 2.0) / 2)


def test_sampler_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        deadline = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.kernels) > 5
    assert signal.getsignal(signal.SIGALRM) is before


def test_count_partitions_matches_the_program():
    from cachegame.core import partitions

    for d in range(1, 9):
        for n in range(1, 7):
            assert spans.count_partitions(d, n) == len(partitions(d, n))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / ".runs").exists()
