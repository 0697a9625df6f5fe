"""The benchmark's workloads: each is a fixed-size suite of run configs per seed.

A seed expands into `instances` independent problems (target, initial
permutation and master seed). Quality counts are averaged over the suite,
because a single hill-climb's regret varies by 10-20% from one
random problem to the next; the suite keeps the per-seed figures steady
while staying exact for a given seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

EVALUATOR = Path(__file__).resolve().parent / "evaluator.py"
SIGMA = 1.9
PAPER_GAMES = 1000
PAPER_BASELINE_GAMES = 2000
PAPER_GAMES_HI = 16000
T0 = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: str
    n: int
    steps: int
    instances: int
    writes: bool
    # Per-layer times of the layers the workload is built to stress; the
    # traced run reports the share of wall time they cover.
    predicted: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # InsertionProposer.propose enumerates all (n-1)^2 neighbours per
        # step; phase 1 and the synthetic oracle are a small share.
        Workload("anneal-wide", "synthetic", n=40, steps=100, instances=10, writes=False,
                 predicted=("perm.self_s", "constraints.self_s", "annealer.self_s")),
        # Thousands of fresh phase-1 tests on an exact landscape, with the
        # trace streamed and persisted: climber and trace bookkeeping dominate.
        Workload("climb-exact", "exact", n=75, steps=1, instances=8, writes=True,
                 predicted=("climber.self_s", "trace.self_s")),
        # Paper budgets against an external evaluator: oracle games dominate.
        Workload("oracle-subprocess", "subprocess", n=40, steps=30, instances=10, writes=False,
                 predicted=("evaluation.oracle_busy_s",)),
    )
}


def oracle_spec(kind: str, target: list[int]) -> dict:
    if kind == "exact":
        return {"kind": "exact", "target": target, "weights": 1.0}
    if kind == "synthetic":
        return {"kind": "synthetic", "target": target, "weights": 1.0, "sigma": SIGMA}
    if kind == "subprocess":
        cmd = [sys.executable, str(EVALUATOR), "--target", " ".join(map(str, target)),
               "--sigma", repr(SIGMA)]
        return {"kind": "subprocess", "cmd": cmd, "timeout": 60.0}
    raise ValueError(f"unknown oracle kind {kind!r}")


def suite(workload: Workload, seed: int) -> list[dict]:
    """The run-config documents (for RunConfig.from_dict) of one seed's suite."""
    docs = []
    for i in range(workload.instances):
        rng = random.Random(f"{workload.name}:{seed}:{i}")
        elements = list(range(1, workload.n + 1))
        target = rng.sample(elements, len(elements))
        initial = rng.sample(elements, len(elements))
        docs.append({
            "initial": initial,
            "seed": rng.randrange(1 << 32),
            "oracle": oracle_spec(workload.oracle, target),
            "phase1": {"games": PAPER_GAMES, "baseline_games": PAPER_BASELINE_GAMES},
            "phase2": {"games": PAPER_GAMES_HI, "steps": workload.steps,
                       "t0": T0, "dt": T0 / workload.steps},
        })
    return docs


def target_of(doc: dict) -> list[int]:
    """The hidden target of a suite config, whatever its oracle kind."""
    spec = doc["oracle"]
    if spec["kind"] == "subprocess":
        return [int(e) for e in spec["cmd"][spec["cmd"].index("--target") + 1].split()]
    return list(spec["target"])
