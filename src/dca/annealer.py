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

from .config import read_text
from .constraints import ConstraintGraph
from .errors import ConfigError, DcaError, InvalidTemperatureError
from .evaluation import CachingEvaluator, FitnessEstimate
from .perm import (
    Assignment,
    Move,
    enumerate_insertion_neighbors,
    insertion_move,
    move_between,
    parse_assignment,
)
from .trace import (
    DECISION_ACCEPTED_WORSE,
    DECISION_IMPROVED,
    DECISION_REJECTED_WORSE,
    MARKER_NONE,
    MARKER_STAR,
    RunContext,
    TraceRecord,
)


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


class InsertionProposer:
    """Tournament over random insertion neighbours, filtered by violations.

    Draws `pool_size` neighbours uniformly (with replacement) from the
    distinct insertion neighbourhood, discards any that violate more
    constraints than the current assignment, and returns a minimal-violation
    survivor with ties broken uniformly. Each proposal counts the current
    assignment's violations once and builds one rank map of it; a drawn
    neighbour is then only a move (`InsertionNeighborhood.move_at`, O(log n))
    scored as that count plus `ConstraintGraph.move_delta`, O(deg), and only
    the returned neighbour's assignment is built. If a whole pool is
    discarded it redraws; after `POOL_ROUNDS` exhausted pools it scores all
    (n-1)**2 neighbours the same way, O(n**2 * deg), and returns a
    minimal-violation admissible one, so random bad luck cannot push the
    walk out of the constrained region. Only when no neighbour at all stays
    within the current violation count (the region is a single point) does
    the least-violating draw come back, so a proposal is always produced.
    """

    def __init__(self, rng: np.random.Generator, pool_size: int = 8):
        if pool_size < 1:
            raise ConfigError(f"pool size must be >= 1, got {pool_size}")
        self.rng = rng
        self.pool_size = pool_size

    def _pick(self, scored: list[tuple[int, Move]], limit: int) -> Optional[Move]:
        """A uniform draw among the least-violating scored moves within `limit`, if any."""
        admissible = [(v, move) for v, move in scored if v <= limit]
        if not admissible:
            return None
        best_v = min(v for v, _ in admissible)
        finalists = [move for v, move in admissible if v == best_v]
        return finalists[int(self.rng.integers(len(finalists)))]

    def propose(self, current: Assignment, graph: ConstraintGraph) -> tuple[Move, Assignment]:
        neighbors = enumerate_insertion_neighbors(current)
        limit = graph.violations(current)
        rank = dict(zip(current, range(1, len(current) + 1)))

        def score(indices) -> list[tuple[int, Move]]:
            moves = [neighbors.move_at(i) for i in indices]
            return [(limit + graph.move_delta(rank, move), move) for move in moves]

        drawn: list[tuple[int, Move]] = []
        for _ in range(POOL_ROUNDS):
            pool = score(self.rng.integers(len(neighbors), size=self.pool_size).tolist())
            move = self._pick(pool, limit)
            if move is not None:
                break
            drawn += pool
        else:
            move = self._pick(score(range(len(neighbors))), limit)
            if move is None:
                _, move = min(drawn, key=lambda s: s[0])  # the first least-violating draw
        return move, insertion_move(current, move.element, move.to_rank)


class ScriptedProposer:
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
    """The annealing phase: its game budget, its linear cooling and its candidate source.

    The temperature at step k is t0 - k*dt, kept positive throughout. With
    `script_moves` the candidates are that file's assignments in order;
    otherwise an InsertionProposer draws pools of `pool_size`.
    """

    n_games_hi: int = 16000
    t0: float = 0.10
    dt: float = 0.01
    steps: int = 10
    pool_size: int = 8
    script_moves: Optional[Path] = None

    def validate(self) -> None:
        if self.n_games_hi < 1:
            raise ConfigError(f"phase2 games must be >= 1, got {self.n_games_hi}")
        if self.pool_size < 1:
            raise ConfigError(f"phase2 pool_size must be >= 1, got {self.pool_size}")
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

    def temperature(self, k: int) -> float:
        if not 0 <= k < self.steps:
            raise InvalidTemperatureError(f"step index {k} outside 0..{self.steps - 1}")
        return self.t0 - k * self.dt


@dataclass
class Phase2Result:
    best: Assignment
    best_estimate: FitnessEstimate
    trace: list[TraceRecord]

    def step_records(self) -> list[TraceRecord]:
        return [r for r in self.trace if r.phase == 2 and not r.reeval]

    def _count(self, decision: str) -> int:
        return sum(1 for r in self.step_records() if r.decision == decision)

    @property
    def improved(self) -> int:
        return self._count(DECISION_IMPROVED)

    @property
    def accepted_worse(self) -> int:
        return self._count(DECISION_ACCEPTED_WORSE)

    @property
    def rejected_worse(self) -> int:
        return self._count(DECISION_REJECTED_WORSE)


def run_phase2(
    start: Assignment,
    evaluator: CachingEvaluator,
    graph: ConstraintGraph,
    config: Phase2Config,
    proposer: InsertionProposer | ScriptedProposer,
    acceptance_rng: np.random.Generator,
    run: Optional[RunContext] = None,
) -> Phase2Result:
    """Anneal from `start` after re-estimating it at the high-precision budget.

    One uniform acceptance draw is consumed per worse candidate, in step
    order, from a stream independent of the proposer's, so a scripted replay
    leaves the acceptance draws unchanged. Worse-but-accepted candidates
    replace the current state but never the best.

    With an oracle of more than one lane and an InsertionProposer, the
    first candidate is sent alongside the re-evaluation, and each fresh
    candidate alongside the next step's candidate should it be rejected:
    the proposer's draws do not depend on the decision, so that candidate
    is the one the next step proposes. On an acceptance the proposer's
    state is restored and the next candidate drawn from the new state, so
    the run is the sequential one, test for test.

    A graph element missing from `start` raises, naming it, before any test.
    """
    config.validate()
    graph.violations(start)
    run = run if run is not None else RunContext()
    first_row = len(run.records)
    n_games = config.n_games_hi
    ahead = evaluator.oracle.lanes > 1 and isinstance(proposer, InsertionProposer)
    candidate = None
    if ahead:
        evaluator.prefetch(start, n_games)
        _, candidate = proposer.propose(start, graph)
        evaluator.prefetch(candidate, n_games)

    # Mandatory high-precision re-evaluation of the incumbent at phase entry.
    # When the start was already traced (a continued run), the re-test keeps
    # its original test id, matching the printed tables.
    current_est, fresh = evaluator.estimate(start, n_games)
    run.add(2, start, current_est, run.ids.get(start), marker=MARKER_STAR, cached=not fresh, reeval=True)
    run.checkpoint()

    current = start
    best, best_est = current, current_est

    for k in range(config.steps):
        temperature = config.temperature(k)
        if candidate is None:
            _, candidate = proposer.propose(current, graph)
        spare = None
        if ahead and k + 1 < config.steps and evaluator.prefetch(candidate, n_games):
            saved = proposer.rng.bit_generator.state
            _, spare = proposer.propose(current, graph)
            evaluator.prefetch(spare, n_games)
        cand_est, fresh = evaluator.estimate(candidate, n_games)
        delta = current_est.mean - cand_est.mean
        probability = acceptance_probability(current_est.mean, cand_est.mean, temperature)
        if delta <= 0:
            decision = DECISION_IMPROVED
        elif acceptance_rng.random() < probability:
            decision = DECISION_ACCEPTED_WORSE
        else:
            decision = DECISION_REJECTED_WORSE
        accept = decision != DECISION_REJECTED_WORSE

        if cand_est.mean > best_est.mean:
            marker = MARKER_STAR
            best, best_est = candidate, cand_est
        else:
            marker = MARKER_NONE if decision == DECISION_IMPROVED else decision
        run.add(
            2, candidate, cand_est, marker=marker, temperature=temperature, delta=delta,
            probability=probability, decision=decision, cached=not fresh,
        )
        run.checkpoint()

        if accept:
            current, current_est = candidate, cand_est
            if spare is not None:
                proposer.rng.bit_generator.state = saved
                spare = None
        candidate = spare

    return Phase2Result(best=best, best_estimate=best_est, trace=run.records[first_row:])


def load_scripted_moves(path: str | Path) -> list[Assignment]:
    """The assignments of the scripted move file at `path`; a bad line is a ConfigError naming it."""
    moves = []
    for number, line in enumerate(read_text(path, "scripted move file").split("\n"), start=1):
        if line.strip():
            try:
                moves.append(parse_assignment(line))
            except DcaError as err:
                raise ConfigError(f"{path}:{number}: {err}") from err
    if not moves:
        raise ConfigError(f"{path}: scripted move file holds no assignments")
    return moves
