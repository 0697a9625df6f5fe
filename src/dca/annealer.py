"""Constraint satisfaction via annealing.

Starting from the climbing phase's incumbent, candidates are drawn from the
insertion neighbourhood, steered so the number of violated ranking
constraints never increases, and accepted by the Metropolis rule: better
candidates always, worse ones with probability exp(-delta / T) under a
linearly cooling temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .constraints import ConstraintGraph
from .errors import ConfigError, InvalidTemperatureError
from .evaluation import CachingEvaluator, FitnessEstimate
from .perm import (
    Assignment,
    Move,
    enumerate_insertion_neighbors,
    move_between,
    parse_assignment,
)
from .trace import (
    DECISION_ACCEPTED_WORSE,
    DECISION_IMPROVED,
    DECISION_REJECTED_WORSE,
    MARKER_ACCEPTED_WORSE,
    MARKER_NONE,
    MARKER_REJECTED_WORSE,
    MARKER_STAR,
    RunContext,
    TraceRecord,
)


@dataclass(frozen=True)
class TemperatureSchedule:
    """Linear cooling: temperature t0 - k*dt at step k, kept positive throughout."""

    t0: float = 0.10
    dt: float = 0.01
    steps: int = 10

    def validate(self) -> None:
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ConfigError(f"initial temperature must be finite and positive, got {self.t0}")
        if not (math.isfinite(self.dt) and self.dt >= 0):
            raise ConfigError(f"temperature decrement must be finite and >= 0, got {self.dt}")
        if self.steps < 1:
            raise ConfigError(f"step count must be >= 1, got {self.steps}")
        final = self.t0 - (self.steps - 1) * self.dt
        if final <= 0:
            raise ConfigError(
                f"schedule reaches non-positive temperature {final:.6g} at its last step"
            )

    def at(self, k: int) -> float:
        if not 0 <= k < self.steps:
            raise InvalidTemperatureError(f"step index {k} outside 0..{self.steps - 1}")
        return self.t0 - k * self.dt


def acceptance_probability(f_current: float, f_candidate: float, temperature: float) -> float:
    """Metropolis acceptance for a maximised mean: 1 when not worse, else exp(-delta/T)."""
    if temperature <= 0:
        raise InvalidTemperatureError(f"temperature must be positive, got {temperature}")
    delta = f_current - f_candidate
    if delta <= 0:
        return 1.0
    return math.exp(-delta / temperature)


# Pools an InsertionProposer draws before it scans the whole neighbourhood.
POOL_ROUNDS = 8


class Proposer:
    def propose(self, current: Assignment, graph: ConstraintGraph) -> tuple[Move, Assignment]:
        raise NotImplementedError


class InsertionProposer(Proposer):
    """Tournament over random insertion neighbours, filtered by violations.

    Draws `pool_size` neighbours uniformly (with replacement) from the
    distinct insertion neighbourhood, discards any that violate more
    constraints than the current assignment, and returns a minimal-violation
    survivor with ties broken uniformly. The neighbourhood is a lazy sequence
    (`InsertionNeighborhood`), so building it costs O(n log n) and each draw
    O(n) plus one violation count. If a whole pool is discarded it redraws;
    after `POOL_ROUNDS` exhausted pools it scans all (n-1)**2 neighbours and
    returns a minimal-violation admissible one, so random bad luck cannot
    push the walk out of the constrained region. Only when no neighbour at
    all stays within the current violation count (the region is a single
    point) does the least-violating draw come back, so a proposal is always
    produced.
    """

    def __init__(self, rng: np.random.Generator, pool_size: int = 8):
        if pool_size < 1:
            raise ConfigError(f"pool size must be >= 1, got {pool_size}")
        self.rng = rng
        self.pool_size = pool_size

    def _pick(
        self, scored: list[tuple[int, Move, Assignment]], limit: int
    ) -> Optional[tuple[Move, Assignment]]:
        """A uniform draw among the least-violating scored neighbours within `limit`, if any."""
        admissible = [(v, move, x) for v, move, x in scored if v <= limit]
        if not admissible:
            return None
        best_v = min(v for v, _, _ in admissible)
        finalists = [(move, x) for v, move, x in admissible if v == best_v]
        return finalists[int(self.rng.integers(len(finalists)))]

    def propose(self, current: Assignment, graph: ConstraintGraph) -> tuple[Move, Assignment]:
        neighbors = enumerate_insertion_neighbors(current)
        limit = graph.violations(current)
        drawn: list[tuple[int, Move, Assignment]] = []
        for _ in range(POOL_ROUNDS):
            draws = [
                neighbors[int(i)] for i in self.rng.integers(len(neighbors), size=self.pool_size)
            ]
            scored = [(graph.violations(x), move, x) for move, x in draws]
            pick = self._pick(scored, limit)
            if pick is not None:
                return pick
            drawn += scored
        pick = self._pick([(graph.violations(x), move, x) for move, x in neighbors], limit)
        if pick is not None:
            return pick
        _, move, x = min(drawn, key=lambda s: s[0])  # the first least-violating draw
        return move, x


class ScriptedProposer(Proposer):
    """Replay an explicit move list: one serialized assignment per line.

    Each scripted assignment must be exactly one insertion move away from the
    current state, so scripts stay within the neighbourhood the sampling
    proposer explores.
    """

    def __init__(self, assignments: Sequence[Assignment]):
        self.assignments = list(assignments)
        self._cursor = 0

    def propose(self, current: Assignment, graph: ConstraintGraph) -> tuple[Move, Assignment]:
        if self._cursor >= len(self.assignments):
            raise ConfigError("scripted move list exhausted")
        candidate = self.assignments[self._cursor]
        self._cursor += 1
        move = move_between(current, candidate)
        return move, candidate


@dataclass
class Phase2Config:
    n_games_hi: int = 16000
    pool_size: int = 8

    def validate(self) -> None:
        if self.n_games_hi < 1:
            raise ConfigError("high-precision game budget must be >= 1")
        if self.pool_size < 1:
            raise ConfigError("pool size must be >= 1")


@dataclass
class Phase2Result:
    best: Assignment
    best_estimate: FitnessEstimate
    trace: list[TraceRecord]
    accepted_worse: int = 0
    rejected_worse: int = 0
    improved: int = 0

    def step_records(self) -> list[TraceRecord]:
        return [r for r in self.trace if r.phase == 2 and not r.reeval]


def run_phase2(
    start: Assignment,
    evaluator: CachingEvaluator,
    graph: ConstraintGraph,
    schedule: TemperatureSchedule,
    config: Phase2Config,
    proposer: Proposer,
    acceptance_rng: np.random.Generator,
    run: Optional[RunContext] = None,
) -> Phase2Result:
    """Anneal from `start` after re-estimating it at the high-precision budget.

    One uniform acceptance draw is consumed per worse candidate, in step
    order, from a stream independent of the proposer's, so a scripted replay
    leaves the acceptance draws unchanged. Worse-but-accepted candidates
    replace the current state but never the best.
    """
    config.validate()
    schedule.validate()
    run = run if run is not None else RunContext()

    phase2_records: list[TraceRecord] = []

    def emit(record: TraceRecord) -> TraceRecord:
        phase2_records.append(record)
        return run.add(record)

    # Mandatory high-precision re-evaluation of the incumbent at phase entry.
    # When the start was already traced (a continued run), the re-test keeps
    # its original test id, matching the printed tables.
    current_est, _ = evaluator.estimate(start, config.n_games_hi)
    prior_id = run.id_of(start)
    reeval_id = prior_id if prior_id is not None else run.fresh_id()
    emit(
        TraceRecord(
            test_id=reeval_id,
            phase=2,
            assignment=start,
            mean=current_est.mean,
            se=current_est.se,
            n_games=current_est.n_games,
            marker=MARKER_STAR,
            reeval=True,
        )
    )
    run.checkpoint()

    current = start
    best, best_est = current, current_est
    accepted_worse = rejected_worse = improved = 0

    for k in range(schedule.steps):
        temperature = schedule.at(k)
        _, candidate = proposer.propose(current, graph)
        cand_est, fresh = evaluator.estimate(candidate, config.n_games_hi)
        delta = current_est.mean - cand_est.mean
        probability = acceptance_probability(current_est.mean, cand_est.mean, temperature)
        if delta <= 0:
            decision = DECISION_IMPROVED
            improved += 1
        elif acceptance_rng.random() < probability:
            decision = DECISION_ACCEPTED_WORSE
            accepted_worse += 1
        else:
            decision = DECISION_REJECTED_WORSE
            rejected_worse += 1
        accept = decision != DECISION_REJECTED_WORSE

        if cand_est.mean > best_est.mean:
            marker = MARKER_STAR
            best, best_est = candidate, cand_est
        elif decision == DECISION_ACCEPTED_WORSE:
            marker = MARKER_ACCEPTED_WORSE
        elif decision == DECISION_REJECTED_WORSE:
            marker = MARKER_REJECTED_WORSE
        else:
            marker = MARKER_NONE

        emit(
            TraceRecord(
                test_id=run.fresh_id(),
                phase=2,
                assignment=candidate,
                mean=cand_est.mean,
                se=cand_est.se,
                n_games=cand_est.n_games,
                marker=marker,
                temperature=temperature,
                delta=delta,
                probability=probability,
                decision=decision,
                cached=not fresh,
            )
        )
        run.checkpoint()

        if accept:
            current, current_est = candidate, cand_est

    return Phase2Result(
        best=best,
        best_estimate=best_est,
        trace=phase2_records,
        accepted_worse=accepted_worse,
        rejected_worse=rejected_worse,
        improved=improved,
    )


def load_scripted_moves(path: str | Path) -> list[Assignment]:
    lines = Path(path).read_text().splitlines()
    moves = [parse_assignment(line) for line in lines if line.strip()]
    if not moves:
        raise ConfigError(f"{path}: scripted move file holds no assignments")
    return moves
