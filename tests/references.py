"""Plain references the package's faster or streamed paths are checked against."""

from __future__ import annotations

import operator
from functools import reduce

from dca.constraints import ConstraintGraph
from dca.errors import ElementNotFoundError
from dca.evaluation import HiddenTargetLandscape
from dca.perm import format_assignment
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
