"""End-to-end benchmark of the two-phase optimiser, with an optional traced run.

    python3 perfbench/run.py --workload anneal-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`. The load is a closed loop with one client: one process runs one
optimisation at a time, each start waiting for the previous run to finish.
A seed expands into a fixed suite of run configs (see workloads.py); the
benchmark runs whole passes over the suite until the next pass would end
after --seconds, and checks every run. Set-up (importing dca, building
the config and the oracle) is timed in fresh interpreters before the loop,
and the paper replay is verified as a pre-flight check. Both count against
--seconds, as do the checks and the reference kernel: a pass starts only if
a pass as long as the longest so far still ends within --seconds of start.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with passes whose layer calls are wrapped in spans (spans.py) and
prints the per-layer metrics; it runs at least one pass of each kind, even
when they take longer than --seconds. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_run
from reference import time_kernel
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Workload, suite, target_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PINS = BENCH_DIR / "pins.json"
SETUP_REPEATS = 7

# Fresh interpreter: time importing dca, building the config and the oracle.
SETUP_CODE = """
import json, sys, time
doc = json.loads(sys.stdin.read())
started = time.perf_counter()
from dca.harness import RunConfig, build_oracle
cfg = RunConfig.from_dict(doc)
build_oracle(cfg.oracle, cfg.seed).close()
print(time.perf_counter() - started)
"""


def import_dca():
    """Import dca from this checkout's src/, refusing any other copy."""
    if not (SRC / "dca" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dca sources under {SRC}; run from a dca checkout")
    sys.path.insert(0, str(SRC))
    import dca
    import dca.harness

    if SRC.resolve() not in Path(dca.__file__).resolve().parents:
        sys.exit(f"perfbench: imported dca from {dca.__file__}, not from {SRC}")
    return dca.harness


def measure_setup(doc: dict) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], input=json.dumps(doc), capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    traced: bool
    walls: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    layers: list = field(default_factory=list)


@dataclass
class Bench:
    harness: object
    workload: Workload
    pinned: list | None
    attempted: int = 0
    failed: int = 0
    outcomes: dict = field(default_factory=dict)
    spans_kept: bool = False

    def run_pass(self, configs, traced: bool, out_root: Path) -> Pass:
        result = Pass(traced)
        tracer = Tracer()
        spans_file = OUT / f"spans-{self.workload.name}.jsonl"
        if traced and not self.spans_kept:
            spans_file.unlink(missing_ok=True)
        for i, (doc, cfg) in enumerate(configs):
            out_dir = out_root / str(i) if self.workload.writes else None
            self.attempted += 1
            tracer.reset()
            ref = time_kernel()
            try:
                with tracer.installed() if traced else contextlib.nullcontext():
                    started = time.perf_counter()
                    summary = self.harness.run_experiment(cfg, out_dir)
                    wall = time.perf_counter() - started
                check = check_run(summary, target_of(doc), self.workload.oracle == "exact", out_dir)
            except Exception as err:  # a failed run is counted, and the loop goes on
                print(f"run {i} raised {type(err).__name__}: {err}", file=sys.stderr)
                self.failed += 1
                continue
            finally:
                if out_dir is not None:
                    shutil.rmtree(out_dir, ignore_errors=True)
            expected = self.outcomes.setdefault(i, check.outcome)
            if check.outcome != expected:
                check.errors.append(f"outcome {check.outcome[:12]} differs from this seed's first run")
            if self.pinned is not None and self.pinned[i:i + 1] != [check.outcome]:
                check.errors.append(f"outcome {check.outcome[:12]} differs from the pinned hash")
            if check.errors:
                print(f"run {i} failed: {'; '.join(check.errors)}", file=sys.stderr)
                self.failed += 1
            result.walls.append(wall)
            result.refs.append(ref)
            result.checks.append(check)
            if traced:
                result.layers.append(layer_metrics(tracer, wall))
                if not self.spans_kept:
                    tracer.dump(spans_file, i)
        self.spans_kept |= traced
        return result


def timing(passes: list[Pass]) -> dict:
    """Run times of untraced passes, raw and in units of the reference kernel.

    Medians over every run: the reference kernel is short, so single
    readings of it are noisy, but its median tracks the machine's speed.
    """
    walls = [w for p in passes for w in p.walls]
    ref = statistics.median(r for p in passes for r in p.refs)
    q1, run_s, q3 = statistics.quantiles(walls, n=4)
    print(f"run time median {run_s:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, {len(walls)} runs; "
          f"reference kernel median {ref * 1000:.3f} ms")
    tests = statistics.fmean(c.fresh_tests for p in passes for c in p.checks)
    return {
        "run_s": run_s, "run_ref": run_s / ref, "ref_s": ref, "tests_per_s": tests / run_s,
    }


def end_to_end(bench: Bench, passes: list[Pass], setup_s: float, replay_ok: bool) -> dict:
    first = passes[0].checks
    return {
        **timing(passes),
        "setup_s": setup_s,
        "regret": statistics.fmean(c.regret for c in first),
        "phase1_regret": statistics.fmean(c.phase1_regret for c in first),
        "fresh_tests": statistics.fmean(c.fresh_tests for c in first),
        "games": statistics.fmean(c.games for c in first),
        "constraints_induced": statistics.fmean(c.constraints_induced for c in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replay_ok": 1 if replay_ok else 0,
    }


def per_layer(bench: Bench, passes: list[Pass]) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    metrics = {
        key: statistics.median(statistics.fmean(run[key] for run in p.layers) for p in traced)
        for key in traced[0].layers[0]
    }
    metrics.update(timing(plain))
    checks = [c for p in passes for c in p.checks]
    metrics["annealer.accept_ratio"] = sum(c.accepted_steps for c in checks) / sum(c.steps for c in checks)
    metrics["annealer.fresh_step_ratio"] = sum(c.fresh_steps for c in checks) / sum(c.steps for c in checks)
    metrics["trace.bytes"] = statistics.fmean(c.trace_bytes for c in checks)
    metrics["trace.overhead_frac"] = (
        statistics.median(w for p in traced for w in p.walls)
        / statistics.median(w for p in plain for w in p.walls) - 1.0
    )
    metrics["predicted_share"] = (
        sum(metrics[key] for key in bench.workload.predicted) / metrics["traced_run_s"]
    )
    metrics["winner_violations"] = statistics.fmean(c.winner_violations for c in checks)
    metrics["failed_frac"] = bench.failed / bench.attempted
    return metrics


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    harness = import_dca()
    docs = suite(workload, seed)
    configs = [(doc, harness.RunConfig.from_dict(doc)) for doc in docs]
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    bench = Bench(harness, workload, pins.get(workload.name, {}).get(str(seed)))

    setup_s = 0.0 if trace else measure_setup(docs[0])
    replay = harness.replay_verify()
    if not replay.ok:
        print(f"replay pre-flight failed: {replay.discrepancies}", file=sys.stderr)

    out_root = OUT / f"out-{os.getpid()}"
    passes: list[Pass] = []
    longest = 0.0
    try:
        while True:
            pass_started = time.perf_counter()
            passes.append(bench.run_pass(configs, trace and len(passes) % 2 == 1, out_root))
            if not passes[-1].checks:
                break
            now = time.perf_counter()
            longest = max(longest, now - pass_started)
            enough = not trace or len(passes) >= 2
            if enough and now - started + longest > seconds:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    complete = [p for p in passes if len(p.checks) == workload.instances]
    if {p.traced for p in complete} != ({False, True} if trace else {False}):
        return {"correct": False, "attempted": bench.attempted, "failed": max(bench.failed, 1),
                "metrics": {}}
    raw = sorted({c.raw_sha256[:16] for p in complete for c in p.checks if c.raw_sha256})
    if raw:
        print(f"trace.jsonl sha256 prefixes (information only): {' '.join(raw)}")
    if trace:
        values = per_layer(bench, complete)
    else:
        values = end_to_end(bench, [p for p in complete if not p.traced], setup_s, replay.ok)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    return {
        "correct": replay.ok and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
