"""Benchmark for cachegame: time to certified answers, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One process is one closed-loop client with no threads: it imports
``cachegame`` from ``src/`` next to this directory, then runs passes over the
workload's instance list (in an order drawn from ``--seed``) until
``--seconds`` have gone by, checking every answer against the exact reference
table in ``workloads.py``.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
passes alternate between untraced and traced and the JSON carries the
per-layer metrics from the traced ones.  A human-readable report goes to
standard error.  ``--workload all`` runs every workload in its own process
and prints a table.

The end-to-end times are seconds of program work at a fixed reference
machine speed: ``speed.py`` samples the machine's speed all through the run
and each interval is scaled by it, because the shared host's own swings are
larger than the changes the benchmark must resolve.  The report on standard
error gives the plain wall seconds next to them.

Size counts (tree nodes, LP rows, pivots, ...) must repeat exactly for an
instance.  They are compared across the passes of a run and, through a record
kept in ``perfbench/.runs/`` per version of the source, across runs; a count
that drifts fails its operation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
from speed import REF_KERNEL_S, Sampler
from workloads import WORKLOADS, make_input, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / ".runs"
SETUPS_PER_PASS = 3  # spread over the run, so setup_s sees the same machine as pass_s
MODULES = ("core", "lp", "solver", "strategies", "accumulation")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("largest_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ProgramMissing(RuntimeError):
    pass


def load_program(src: Path) -> SimpleNamespace:
    """Import ``cachegame`` afresh from ``src``, and nowhere else."""
    package = src / "cachegame"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no cachegame package under {src}")
    for name in [m for m in sys.modules if m == "cachegame" or m.startswith("cachegame.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cachegame = importlib.import_module("cachegame")
    if Path(cachegame.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"cachegame was imported from {cachegame.__file__}, not {package}")
    return SimpleNamespace(**{m: importlib.import_module(f"cachegame.{m}") for m in MODULES})


def source_digest(src: Path) -> str:
    """Hash of the program and benchmark sources: runs of the same code share it."""
    h = hashlib.sha256()
    for path in sorted([*src.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class CountRecord:
    """Size counts per instance, shared by every run of one source version."""

    def __init__(self, path: Path | None):
        self.path = path
        self.counts: dict = {}
        if path is not None and path.exists():
            self.counts = json.loads(path.read_text())

    def check(self, instance: str, counts: dict) -> list[str]:
        known = self.counts.setdefault(instance, {})
        drift = [
            f"count drift: {name} {value} != {known[name]} seen before"
            for name, value in counts.items()
            if name in known and known[name] != value
        ]
        for name, value in counts.items():
            known.setdefault(name, value)
        return drift

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.counts, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(instances, seed: int, seconds: float, trace: bool,
                 out_dir: Path | None = RUNS_DIR, label: str = "bench") -> dict:
    """Run passes over ``instances`` for ``seconds``; return the result object.

    ``instances`` ends with the largest one.  ``out_dir`` holds the count
    record and the written spans; ``None`` keeps nothing between runs.
    """
    with Sampler() as sampler:
        run = _Run(instances, seed, trace, out_dir)
        deadline = time.perf_counter() + seconds
        while True:
            run.one_pass()
            if time.perf_counter() >= deadline and (run.layers or not trace):
                break
    run.finish(label, seed)
    return run.result(sampler)


class _Run:
    def __init__(self, instances, seed, trace, out_dir):
        self.instances = instances
        self.rng = random.Random(seed)
        self.trace = trace
        self.out_dir = out_dir
        self.tracer = spans.Tracer() if trace else None
        digest = source_digest(SRC)
        self.record = CountRecord(None if out_dir is None else out_dir / f"counts-{digest}.json")
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        # Each timing sample is the list of (start, end) intervals it covers.
        self.intervals: dict = {"setup_s": [], "pass_s": [], "largest_s": [], "trace.pass_s": []}
        self.layers: list[dict] = []

    def _fail(self, op: int, inst, wrong) -> None:
        if wrong:
            self.failed_ops.add(op)
            self.problems.extend(f"{inst.name}: {w}" for w in wrong)

    def one_pass(self) -> None:
        instances = self.instances
        for _ in range(SETUPS_PER_PASS):
            start = time.perf_counter()
            mods = load_program(SRC)
            inputs = [make_input(mods, inst) for inst in instances]
            self.intervals["setup_s"].append([(start, time.perf_counter())])
        tracing = self.trace and len(self.intervals["pass_s"]) > len(self.intervals["trace.pass_s"])
        first_span = len(self.tracer.spans) if self.trace else 0
        op_of = {}
        ops = []
        gc.collect()
        if tracing:
            self.tracer.install(mods)
        try:
            for i in self.rng.sample(range(len(instances)), len(instances)):
                inst = instances[i]
                self.attempted += 1
                if tracing:
                    self.tracer.op = self.attempted
                    op_of[self.attempted] = inst
                start = time.perf_counter()
                try:
                    wrong, counts = run_op(mods, inst, inputs[i])
                except Exception as exc:  # any raise is a failed operation
                    wrong, counts = [f"{type(exc).__name__}: {exc}"], {}
                ops.append((start, time.perf_counter()))
                if not tracing and i == len(instances) - 1:
                    self.intervals["largest_s"].append(ops[-1:])
                self._fail(self.attempted, inst, wrong + self.record.check(inst.name, counts))
        finally:
            if tracing:
                self.tracer.uninstall()
        self.intervals["trace.pass_s" if tracing else "pass_s"].append(ops)
        if tracing:
            pass_spans = self.tracer.spans[first_span:]
            self.layers.append(spans.layer_metrics(pass_spans))
            for op, counts in spans.op_counts(pass_spans).items():
                self._fail(op, op_of[op], self.record.check(op_of[op].name, counts))

    def finish(self, label, seed) -> None:
        self.record.save()
        if self.trace and self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.tracer.write(self.out_dir / f"spans-{label}-seed{seed}.jsonl")

    def result(self, sampler: Sampler) -> dict:
        wall = {name: [sum(end - start for start, end in sample) for sample in samples]
                for name, samples in self.intervals.items()}
        scaled = {name: [sum(sampler.work_s(start, end) for start, end in sample) for sample in samples]
                  for name, samples in self.intervals.items()}
        if self.trace:
            layers = self.layers
            metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
            # Span times are wall seconds, so the traced pass is too; the
            # overhead compares scaled passes, which the host's swings move less.
            metrics["trace.pass_s"] = statistics.median(wall["trace.pass_s"])
            metrics["trace.overhead"] = (
                statistics.median(scaled["trace.pass_s"]) / statistics.median(scaled["pass_s"]) - 1
            )
            units = dict(spans.PER_LAYER)
        else:
            metrics = {name: statistics.median(scaled[name]) for name in ("setup_s", "pass_s", "largest_s")}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
        return {
            "correct": not self.failed_ops,
            "attempted": self.attempted,
            "failed": len(self.failed_ops),
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            "samples": {"scaled": scaled, "wall": wall, "kernel_s": sampler.kernels},
            "problems": self.problems,
        }


def report(label: str, result: dict, out) -> None:
    """Human-readable summary: medians with quartiles and counts, and errors."""
    print(f"== {label}: {result['attempted']} operations, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f}", file=out)
    samples = result["samples"]
    kernel = statistics.median(samples["kernel_s"])
    print(f"   machine: calibration kernel median {kernel * 1e3:.3f} ms "
          f"(reference {REF_KERNEL_S * 1e3:g} ms), n={len(samples['kernel_s'])}", file=out)
    for kind in ("scaled", "wall"):
        for name, values in samples[kind].items():
            if values:
                q1, q2, q3 = _quartiles(values)
                print(f"   {kind:<6} {name:<13} median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
                      f"n={len(values)}", file=out)
    for name, m in result["metrics"].items():
        print(f"   {name:<30} {m['value']:.6g} {m['unit']}", file=out)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    if "trace.pass_s" in m and m["trace.pass_s"]:
        lp = m["solve_lp.s"] / m["trace.pass_s"]
        tree = (m["build_tree.s"] + m["solve_tree.self_s"]) / m["trace.pass_s"]
        print(f"   share of traced pass_s: solve_lp.s {lp:.1%}, "
              f"build_tree.s + solve_tree.self_s {tree:.1%}", file=out)
    for line in result["problems"][:20]:
        print(f"   FAILED {line}", file=out)


def run_all(args) -> int:
    """Each workload in a fresh process; a table of end-to-end metrics."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in rows.items():
        cells = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:<13} correct={result['correct']} error_rate="
              f"{result['failed'] / result['attempted']:.4f}  {cells}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), label=args.workload)
    except ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result, sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
