"""Plain references the package's faster or streamed paths are checked against."""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Optional, Sequence

from dca.climber import SweepState
from dca.constraints import ConstraintGraph
from dca.errors import ConfigError, ElementNotFoundError, IncompatibleAssignmentsError
from dca.evaluation import FitnessEstimate, HiddenTargetLandscape
from dca.perm import Assignment, Move, format_assignment, insertion_move, rank_of
from dca.trace import CSV_HEADER, TraceRecord, csv_row, trace_line


def fold(terms) -> float:
    """The left-to-right sum from 0.0; the builtin `sum` of floats is compensated from Python 3.12."""
    return reduce(operator.add, terms, 0.0)


def dump_trace(records: list[TraceRecord]) -> str:
    """trace.jsonl of `records`, each assignment formatted afresh."""
    return "".join(trace_line(r) for r in records)


def trace_to_csv(records: list[TraceRecord]) -> str:
    """trace.csv of `records`: the header, then one row each, each assignment formatted afresh."""
    return CSV_HEADER + "".join(csv_row(r) for r in records)


def satisfies(graph: ConstraintGraph, x) -> bool:
    """Whether `x` ranks the first element of every core edge of `graph` before the second."""
    rank = {e: i for i, e in enumerate(x)}
    return all(rank[c.before] < rank[c.after] for c in graph.edges())


def reference_fitness(landscape: HiddenTargetLandscape, x) -> float:
    """The scorer `scores` replaces: the fold of a list of products over (element, rank, weight) terms."""
    rank = dict(zip(x, range(1, len(x) + 1)))
    terms = [(e, i, landscape.weights[e]) for i, e in enumerate(landscape.target, start=1)]
    try:
        return -fold([w * abs(rank[e] - i) for e, i, w in terms])
    except KeyError:
        missing = next(e for e in landscape.target if e not in rank)
        raise ElementNotFoundError(f"element {missing} not in assignment {format_assignment(x)}") from None


def aggregate(samples: Sequence[float]) -> FitnessEstimate:
    """Mean and standard error (n-1 divisor, over sqrt(n)) of per-game scores; se 0 at one game."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot aggregate an empty sample batch")
    mean = math.fsum(samples) / n
    if n == 1:
        return FitnessEstimate(mean=mean, se=0.0, n_games=1)
    var = math.fsum((s - mean) ** 2 for s in samples) / (n - 1)
    return FitnessEstimate(mean=mean, se=math.sqrt(var / n), n_games=n)


def significant_difference(a: FitnessEstimate, b: FitnessEstimate, tau: float = 1.0) -> bool:
    """The noise gate: the means differ by more than tau times the larger se."""
    if tau <= 0:
        raise ConfigError(f"threshold multiplier must be positive, got {tau}")
    return abs(a.mean - b.mean) > tau * max(a.se, b.se)


def adjacent_transposition_diff(
    a: Assignment, b: Assignment
) -> Optional[tuple[tuple[int, int], int]]:
    """If `a` and `b` differ by one swap of neighbouring positions, report it.

    Returns ((a_element, b_element), rank) where `rank` is the left position
    of the swapped pair (so the swap touches ranks `rank` and `rank+1`), or
    None when the assignments are equal or differ by more than one adjacent
    swap.
    """
    if sorted(a) != sorted(b):
        raise IncompatibleAssignmentsError(
            f"assignments cover different elements: {format_assignment(a)} vs {format_assignment(b)}"
        )
    diffs = [i for i, (p, q) in enumerate(zip(a, b)) if p != q]
    if len(diffs) != 2:
        return None
    i, j = diffs
    if j != i + 1 or a[i] != b[j] or a[j] != b[i]:
        return None
    return (a[i], a[j]), i + 1


def materialised_insertion_neighbors(x: Assignment) -> list[tuple[Move, Assignment]]:
    """Every distinct insertion neighbour of `x` with its move, eagerly: every move, dedupe, sort.

    An assignment reached by several moves keeps the smallest; entries are
    sorted by move descriptor, the order `InsertionNeighborhood.move_at` indexes.
    """
    best = {}
    for element in x:
        from_rank = rank_of(x, element)
        for to_rank in range(1, len(x) + 1):
            if to_rank == from_rank:
                continue
            move = Move(element, from_rank, to_rank)
            neighbor = insertion_move(x, element, to_rank)
            if neighbor not in best or move < best[neighbor]:
                best[neighbor] = move
    return sorted(((m, a) for a, m in best.items()), key=lambda pair: pair[0])


def reused_ranks(sweep: SweepState) -> list[int]:
    """The sweep's ranks that reused an earlier estimate, ascending."""
    return [r for r in sorted(sweep.probes) if r not in sweep.fresh_ranks]
