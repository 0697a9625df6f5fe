"""Insertion-sweep hill climbing with statistically gated constraint induction.

Each sweep pulls one element out of the incumbent assignment and re-tests it
at ranks 1, 2, ... in order, stopping at the first interior fitness peak.
Around the best newly measured location, adjacent-rank comparisons whose gap
clears the noise gate become ranking constraints; comparisons below the gate
are reported but induce nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .constraints import AddOutcome, ConstraintGraph, Evidence, RankConstraint
from .errors import ConfigError
from .evaluation import CachingEvaluator, FitnessEstimate, significant_difference
from .perm import Assignment, adjacent_transposition_diff, insertion_move, rank_of
from .trace import (
    MARKER_NONE,
    MARKER_STAR,
    ConstraintNote,
    RunContext,
    TraceRecord,
)

SCOPE_FLANKING = "flanking"
SCOPE_ALL_PAIRS = "all-pairs"

NOT_INDUCED = "not-induced"


@dataclass
class Phase1Config:
    n_games: int = 1000
    n_games_baseline: int = 2000
    tau: float = 1.0
    element_order: Optional[Sequence[int]] = None
    induction_scope: str = SCOPE_FLANKING

    def validate(self) -> None:
        if self.n_games < 1 or self.n_games_baseline < 1:
            raise ConfigError("game budgets must be >= 1")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
        if self.induction_scope not in (SCOPE_FLANKING, SCOPE_ALL_PAIRS):
            raise ConfigError(f"unknown induction scope {self.induction_scope!r}")


@dataclass
class SweepProbe:
    """One tested rank within a sweep."""

    assignment: Assignment
    estimate: FitnessEstimate
    test_id: int
    fresh: bool


@dataclass
class SweepState:
    element: int
    probes: dict[int, SweepProbe]  # by rank, in ascending rank order
    stop_rank: Optional[int]

    @property
    def best_rank(self) -> int:
        """The rank of the best tested mean; the lowest such rank on a tie."""
        return max(self.probes, key=lambda r: self.probes[r].estimate.mean)

    @property
    def best_new_rank(self) -> Optional[int]:
        """The rank of the best freshly tested mean, if any; the lowest such rank on a tie."""
        return max(self.fresh_ranks(), key=lambda r: self.probes[r].estimate.mean, default=None)

    @property
    def best_probe(self) -> SweepProbe:
        return self.probes[self.best_rank]

    def fresh_ranks(self) -> list[int]:
        return [r for r in sorted(self.probes) if self.probes[r].fresh]

    def reused_ranks(self) -> list[int]:
        return [r for r in sorted(self.probes) if not self.probes[r].fresh]


@dataclass
class InductionDecision:
    """Outcome of one adjacent-pair comparison submitted by a sweep."""

    constraint: RankConstraint
    outcome: str  # AddOutcome value or "not-induced"
    ranks: tuple[int, int]

    @property
    def induced(self) -> bool:
        return self.outcome == AddOutcome.ADDED.value


@dataclass
class Phase1Result:
    best: Assignment
    best_estimate: FitnessEstimate
    graph: ConstraintGraph
    sweeps: list[SweepState]
    decisions: list[InductionDecision]
    evaluations_used: int

    def induced_pairs(self) -> set[tuple[int, int]]:
        return {d.constraint.pair() for d in self.decisions if d.induced}

    def bracketed_pairs(self) -> set[frozenset[int]]:
        """Below-gate pairs, unordered (the printed direction is display-only)."""
        return {
            frozenset(d.constraint.pair())
            for d in self.decisions
            if d.outcome == NOT_INDUCED
        }


def run_sweep(
    element: int,
    baseline: Assignment,
    baseline_estimate: FitnessEstimate,
    evaluator: CachingEvaluator,
    config: Phase1Config,
    run: RunContext,
) -> SweepState:
    """Test `element` at ranks 1, 2, ... until the first peak is passed.

    The element's own rank in the baseline reuses the incumbent estimate;
    any other previously evaluated assignment is reused from the cache. The
    stop rule treats the element's current position as anchored left context:
    a dip right after it ends the sweep, while a dip at a rank with no
    established rise to its left does not.
    """
    n = len(baseline)
    current_rank = rank_of(baseline, element)
    probes: dict[int, SweepProbe] = {}
    stop_rank: Optional[int] = None

    for rank in range(1, n + 1):
        if rank == current_rank:
            x = baseline
            est, fresh = baseline_estimate, False
        else:
            x = insertion_move(baseline, element, rank)
            est, fresh = evaluator.estimate(x, config.n_games)
        if fresh:
            test_id = run.fresh_id()
            improves = run.best_mean is not None and est.mean > run.best_mean
            marker = MARKER_STAR if improves else MARKER_NONE
            run.add(
                TraceRecord(
                    test_id=test_id,
                    phase=1,
                    assignment=x,
                    mean=est.mean,
                    se=est.se,
                    n_games=est.n_games,
                    marker=marker,
                )
            )
        else:
            known = run.id_of(x)
            test_id = known if known is not None else -1
        probes[rank] = SweepProbe(assignment=x, estimate=est, test_id=test_id, fresh=fresh)

        if rank >= 2 and probes[rank].estimate.mean < probes[rank - 1].estimate.mean:
            prev = rank - 1
            anchored = prev == current_rank
            rising = prev >= 2 and probes[prev - 1].estimate.mean < probes[prev].estimate.mean
            if anchored or rising:
                stop_rank = rank
                break

    return SweepState(element=element, probes=probes, stop_rank=stop_rank)


def _candidate_pairs(sweep: SweepState, scope: str) -> list[tuple[int, int]]:
    ranks = sorted(sweep.probes)
    consecutive = [(r, r + 1) for r in ranks if r + 1 in sweep.probes]
    if scope == SCOPE_ALL_PAIRS:
        return consecutive
    # Flanking scope: the two pairs around the best newly measured rank. The
    # sweep's new evidence lives there; pairs around reused estimates only
    # re-derive constraints already extracted when those tests were fresh.
    center = sweep.best_new_rank
    if center is None:
        return []
    return [(a, b) for (a, b) in consecutive if a == center or b == center]


def induce_from_sweep(
    sweep: SweepState,
    graph: ConstraintGraph,
    tau: float,
    scope: str,
    run: RunContext,
) -> list[InductionDecision]:
    """Turn the sweep's neighbouring-rank comparisons into ranking constraints.

    Each candidate pair differs by one adjacent transposition of the swept
    element and the element it displaced. When the fitness gap clears the
    noise gate, the ordering of the fitter side is submitted to the graph;
    otherwise the pair is reported as not-induced. Annotations land on the
    trace row of the later test of each pair.
    """
    decisions: list[InductionDecision] = []
    for lo_rank, hi_rank in _candidate_pairs(sweep, scope):
        lo, hi = sweep.probes[lo_rank], sweep.probes[hi_rank]
        # Consecutive sweep ranks differ by one adjacent transposition at
        # lo_rank: the swept element and whichever element it displaced.
        diff = adjacent_transposition_diff(lo.assignment, hi.assignment)
        if diff is None or diff[1] != lo_rank or sweep.element not in diff[0]:
            raise ConfigError(
                f"sweep probes at ranks {lo_rank},{hi_rank} are not an adjacent swap"
            )
        gap = abs(lo.estimate.mean - hi.estimate.mean)
        threshold = tau * max(lo.estimate.se, hi.estimate.se)
        if lo.estimate.mean >= hi.estimate.mean:
            before, after = lo.assignment[lo_rank - 1], lo.assignment[lo_rank]
        else:
            before, after = hi.assignment[lo_rank - 1], hi.assignment[lo_rank]
        constraint = RankConstraint(
            before=before,
            after=after,
            evidence=Evidence(tests=(lo.test_id, hi.test_id), gap=gap, threshold=threshold),
        )
        if significant_difference(lo.estimate, hi.estimate, tau):
            outcome = graph.try_add(constraint).value
        else:
            outcome = NOT_INDUCED
        decision = InductionDecision(constraint=constraint, outcome=outcome, ranks=(lo_rank, hi_rank))
        decisions.append(decision)
        if outcome in (AddOutcome.ADDED.value, NOT_INDUCED):
            run.annotate(
                max(lo.test_id, hi.test_id),
                ConstraintNote(
                    induced=outcome == AddOutcome.ADDED.value,
                    before=before,
                    after=after,
                    tests=(lo.test_id, hi.test_id),
                    gap=gap,
                    threshold=threshold,
                ),
            )
    return decisions


def run_phase1(
    x0: Assignment,
    evaluator: CachingEvaluator,
    config: Optional[Phase1Config] = None,
    run: Optional[RunContext] = None,
) -> Phase1Result:
    """Process each element once, sweeping and inducing; return the incumbent.

    The incumbent only moves when a sweep's best tested mean strictly exceeds
    it; a sweep that peaks below the incumbent leaves the element where it
    was, but its comparisons still feed the constraint graph.
    """
    config = config or Phase1Config()
    config.validate()
    graph = ConstraintGraph()
    run = run if run is not None else RunContext()
    evaluations_before = evaluator.fresh_evaluations

    baseline_estimate, fresh = evaluator.estimate(x0, config.n_games_baseline)
    if fresh:
        run.add(
            TraceRecord(
                test_id=run.fresh_id(),
                phase=1,
                assignment=x0,
                mean=baseline_estimate.mean,
                se=baseline_estimate.se,
                n_games=baseline_estimate.n_games,
            )
        )

    order = list(config.element_order) if config.element_order is not None else list(x0)
    if sorted(order) != sorted(set(order)) or set(order) - set(x0):
        raise ConfigError(f"element order {order} is not a subset of the assignment without repeats")

    best, best_estimate = x0, baseline_estimate
    sweeps: list[SweepState] = []
    decisions: list[InductionDecision] = []

    run.checkpoint()
    for element in order:
        sweep = run_sweep(element, best, best_estimate, evaluator, config, run)
        sweeps.append(sweep)
        decisions.extend(
            induce_from_sweep(sweep, graph, config.tau, config.induction_scope, run)
        )
        winner = sweep.best_probe
        if winner.estimate.mean > best_estimate.mean:
            best, best_estimate = winner.assignment, winner.estimate
        run.checkpoint()

    return Phase1Result(
        best=best,
        best_estimate=best_estimate,
        graph=graph,
        sweeps=sweeps,
        decisions=decisions,
        evaluations_used=evaluator.fresh_evaluations - evaluations_before,
    )
