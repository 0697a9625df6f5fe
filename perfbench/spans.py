"""Span tracing of dca's layers from outside the package.

`Tracer.installed()` replaces public callables with timing wrappers, each
patched in the namespace its caller looks it up in (a module global or a
class attribute), and restores the originals on exit. A span is
(name, start, end, parent); the layer is the part of the name before the
first dot. A span's self time is its duration minus its direct children's.
Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("perm", "constraints", "evaluation", "climber", "annealer", "trace", "harness")


def _patch_points():
    """(owner, attribute, span name, result hook) for every traced callable."""
    import dca.annealer
    import dca.climber
    import dca.constraints
    import dca.evaluation
    import dca.harness
    import dca.trace

    def on_estimate(counts, result):
        counts["evaluation.cache_hits"] += not result[1]

    def on_oracle(counts, result):
        counts["evaluation.oracle_games"] += result.n_games

    def on_sweep(counts, result):
        counts["climber.probes"] += len(result.probes)

    def on_induce(counts, result):
        counts["climber.decisions"] += len(result)
        counts["climber.induced"] += sum(1 for d in result if d.induced)

    points = [
        (dca.harness, "run_experiment", "harness.run", None),
        (dca.harness, "build_oracle", "harness.build_oracle", None),
        (dca.harness, "persist_summary", "harness.persist", None),
        (dca.harness, "run_phase1", "climber.phase1", None),
        (dca.harness, "run_phase2", "annealer.phase2", None),
        (dca.climber, "run_sweep", "climber.sweep", on_sweep),
        (dca.climber, "induce_from_sweep", "climber.induce", on_induce),
        (dca.climber, "insertion_move", "perm.insertion_move", None),
        (dca.annealer, "enumerate_insertion_neighbors", "perm.neighborhood", None),
        (dca.annealer.InsertionProposer, "propose", "annealer.propose", None),
        (dca.constraints.ConstraintGraph, "violations", "constraints.violations", None),
        (dca.constraints.ConstraintGraph, "try_add", "constraints.try_add", None),
        (dca.evaluation.CachingEvaluator, "estimate", "evaluation.cache", on_estimate),
        (dca.trace.RunContext, "add", "trace.add", None),
        (dca.trace.RunContext, "record_by_id", "trace.record_by_id", None),
        (dca.trace.RunContext, "checkpoint", "trace.checkpoint", None),
        (dca.trace.TraceSink, "flush_to", "trace.flush_to", None),
    ]
    oracles = [dca.evaluation.Oracle]
    while oracles:
        cls = oracles.pop()
        oracles.extend(cls.__subclasses__())
        if cls is not dca.evaluation.Oracle and "evaluate" in vars(cls):
            points.append((cls, "evaluate", "evaluation.oracle", on_oracle))
    return points


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, on_result=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self.ends[i] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name, hook in _patch_points():
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def dump(self, path: Path, run: int) -> None:
        """Append the spans as JSON lines: run index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as out:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                out.write(json.dumps([run, *span]) + "\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures for one traced optimiser run that took `wall_s`."""
    names, parents, counts = tracer.names, tracer.parents, tracer.counts
    selfs = tracer.self_times()
    total: Counter = Counter()
    self_by: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    top_oracle_s = 0.0
    violations_in_propose = 0
    for i, name in enumerate(names):
        duration = tracer.ends[i] - tracer.starts[i]
        total[name] += duration
        self_by[name] += selfs[i]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += selfs[i]
        parent = names[parents[i]] if parents[i] >= 0 else None
        if name == "evaluation.oracle" and parent != "evaluation.oracle":
            top_oracle_s += duration
        if name == "constraints.violations" and parent == "annealer.propose":
            violations_in_propose += 1

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "perm.neighborhood_calls": calls["perm.neighborhood"],
        "perm.neighborhood_s": total["perm.neighborhood"],
        "constraints.violations_calls": calls["constraints.violations"],
        "constraints.violations_s": total["constraints.violations"],
        "annealer.propose_self_s": self_by["annealer.propose"],
        "annealer.violations_per_propose": ratio(violations_in_propose, calls["annealer.propose"]),
        "climber.sweep_self_s": self_by["climber.sweep"],
        "climber.probes_per_sweep": ratio(counts["climber.probes"], calls["climber.sweep"]),
        "climber.induce_s": total["climber.induce"],
        "climber.induced_ratio": ratio(counts["climber.induced"], counts["climber.decisions"]),
        "trace.add_s": total["trace.add"],
        "trace.record_by_id_s": total["trace.record_by_id"],
        "trace.flush_s": total["trace.checkpoint"],
        "evaluation.cache_self_s": self_by["evaluation.cache"],
        "evaluation.cache_hit_ratio": ratio(counts["evaluation.cache_hits"], calls["evaluation.cache"]),
        "evaluation.oracle_calls": calls["evaluation.oracle"],
        "evaluation.oracle_busy_s": top_oracle_s,
        "evaluation.oracle_games": counts["evaluation.oracle_games"],
        "evaluation.oracle_failures": counts["evaluation.oracle.errors"],
        "unattributed_s": wall_s - sum(selfs),
        "traced_run_s": wall_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
