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
from itertools import accumulate
from typing import Optional, Sequence

from .constraints import NOT_INDUCED, ConstraintGraph, RankConstraint
from .errors import ConfigError
from .evaluation import CachingEvaluator, FitnessEstimate
from .perm import Assignment, format_assignment, insertion_move, rank_of
from .trace import MARKER_NONE, MARKER_STAR, RunContext

SCOPE_FLANKING = "flanking"
SCOPE_ALL_PAIRS = "all-pairs"


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


@dataclass
class Phase1Result:
    best: Assignment
    best_estimate: FitnessEstimate
    graph: ConstraintGraph
    sweeps: list[SweepState]
    decisions: list[RankConstraint]

    def induced_pairs(self) -> set[tuple[int, int]]:
        return {d.pair() for d in self.decisions if d.induced}

    def bracketed_pairs(self) -> set[frozenset[int]]:
        """Below-gate pairs, unordered (the printed direction is display-only)."""
        return {frozenset(d.pair()) for d in self.decisions if d.outcome == NOT_INDUCED}


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
    established rise to its left does not. Whether a stop is possible at a
    rank is known before that rank is tested, so an oracle with more than
    one lane gets the next rank sent alongside whenever no stop is possible.
    A streamed run's probe text is spliced from the baseline's without the
    element: the element goes in at `cut[rank - 1]`, where the rank-th token
    starts, or last at rank n. An exact oracle scores the whole sweep in one
    `sweep` call, and a fresh probe takes its mean from that table.
    """
    n = len(baseline)
    current_rank = rank_of(baseline, element)
    probes: dict[int, SweepProbe] = {}
    stop_rank: Optional[int] = None
    # The incumbent's mean is the best traced so far; a fresh probe above
    # every earlier one is starred.
    best_mean = baseline_estimate.mean
    text = None
    if run.sink is not None:
        rest = format_assignment(baseline[: current_rank - 1] + baseline[current_rank:])
        cut = list(accumulate((len(token) + 1 for token in rest.split(" ")), initial=0))
        name = format_assignment((element,))

    table = evaluator.oracle.sweep(baseline, element)
    ahead = evaluator.oracle.lanes > 1
    for rank in range(1, n + 1):
        prev = rank - 1
        stoppable = prev == current_rank or (
            prev >= 2 and probes[prev - 1].estimate.mean < probes[prev].estimate.mean
        )
        if ahead and not stoppable:  # rank + 1 is tested whatever rank's mean: send both
            for r in (rank, rank + 1):
                if r != current_rank and r <= n:
                    evaluator.prefetch(insertion_move(baseline, element, r), config.n_games)
        if rank == current_rank:
            x = baseline
            est, fresh = baseline_estimate, False
        else:
            x = insertion_move(baseline, element, rank)
            exact = None if table is None else table[rank - 1]
            est, fresh = evaluator.estimate(x, config.n_games, exact)
        if fresh:
            if run.sink is not None:
                at = cut[rank - 1]
                text = f"{rest} {name}" if rank == n else f"{rest[:at]}{name} {rest[at:]}"
            marker = MARKER_STAR if est.mean > best_mean else MARKER_NONE
            test_id = run.add(1, x, est, marker=marker, text=text)
            best_mean = max(best_mean, est.mean)
        else:
            test_id = run.ids.get(x, -1)
        probes[rank] = SweepProbe(assignment=x, estimate=est, test_id=test_id, fresh=fresh)

        if stoppable and est.mean < probes[prev].estimate.mean:
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
) -> list[RankConstraint]:
    """Turn the sweep's neighbouring-rank comparisons into ranking constraints.

    Each candidate pair differs by one adjacent transposition of the swept
    element and the element it displaced. When the fitness gap clears the
    noise gate, `gap > tau * max(se)` over the pair's two estimates, the
    ordering of the fitter side is submitted to the graph; otherwise the pair
    is reported as not-induced. One record per comparison holds its outcome;
    an added or not-induced one also lands on the trace row of the later test
    of the pair.
    """
    decisions: list[RankConstraint] = []
    for lo_rank, hi_rank in _candidate_pairs(sweep, scope):
        lo, hi = sweep.probes[lo_rank], sweep.probes[hi_rank]
        gap = abs(lo.estimate.mean - hi.estimate.mean)
        threshold = tau * max(lo.estimate.se, hi.estimate.se)
        if lo.estimate.mean >= hi.estimate.mean:
            before, after = lo.assignment[lo_rank - 1], lo.assignment[lo_rank]
        else:
            before, after = hi.assignment[lo_rank - 1], hi.assignment[lo_rank]
        c = RankConstraint(before, after, (lo.test_id, hi.test_id), gap, threshold)
        if gap > threshold:
            c.outcome = graph.try_add(c).value
        else:
            c.outcome = NOT_INDUCED
        decisions.append(c)
        if c.induced or c.outcome == NOT_INDUCED:
            run.annotate(max(lo.test_id, hi.test_id), c)
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
    order = list(config.element_order) if config.element_order is not None else list(x0)
    if sorted(order) != sorted(set(order)) or set(order) - set(x0):
        raise ConfigError(f"element order {order} is not a subset of the assignment without repeats")

    graph = ConstraintGraph()
    run = run if run is not None else RunContext()

    if evaluator.oracle.lanes > 1 and order and len(x0) > 1:
        # The first sweep tests its first rank whatever the baseline's mean: send the two together.
        first = order[0]
        evaluator.prefetch(x0, config.n_games_baseline)
        evaluator.prefetch(insertion_move(x0, first, 2 if x0[0] == first else 1), config.n_games)
    baseline_estimate, fresh = evaluator.estimate(x0, config.n_games_baseline)
    if fresh:
        run.add(1, x0, baseline_estimate)

    best, best_estimate = x0, baseline_estimate
    sweeps: list[SweepState] = []
    decisions: list[RankConstraint] = []

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
    )
