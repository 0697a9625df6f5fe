"""Trace records and their line-delimited persistence.

One record per evaluated test, mirroring the optimizer's printed tables:
test id, assignment, mean, standard error, and either constraint annotations
(phase 1) or annealing fields (phase 2). Records serialize one JSON object
per line, streamed to trace.jsonl at checkpoints so long runs leave a valid
prefix, and parse back losslessly; a flattened CSV row per record, written
to trace.csv once when the run closes, serves spreadsheets. Both are written
by format strings, byte for byte what json.JSONEncoder and csv.writer would
write, and are plain ASCII.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Optional

from .config import read_text
from .constraints import NOT_INDUCED, AddOutcome, RankConstraint
from .errors import ConfigError, DcaError
from .evaluation import FitnessEstimate
from .perm import Assignment, format_assignment, parse_assignment

MARKER_NONE = "none"
MARKER_STAR = "star"

DECISION_IMPROVED = "improved"
DECISION_ACCEPTED_WORSE = "accepted-worse"
DECISION_REJECTED_WORSE = "rejected-worse"

# The words a row may hold; the writers copy them verbatim, so read_trace
# rejects any other. A phase-2 row that is not a new best is marked with its
# worse decision, if it has one.
MARKERS = frozenset({MARKER_NONE, MARKER_STAR, DECISION_ACCEPTED_WORSE, DECISION_REJECTED_WORSE})
DECISIONS = frozenset({None, DECISION_IMPROVED, DECISION_ACCEPTED_WORSE, DECISION_REJECTED_WORSE})
# A note's "kind" word for each outcome a trace row is annotated with.
NOTE_KINDS = {"induced": AddOutcome.ADDED.value, "not-induced": NOT_INDUCED}
# The JSON types a row's fields may hold; a bool is not an int here.
_BOOL = (bool,)
_INT = (int,)
_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))


def _typed(value, types: tuple):
    """`value` if its type is one of `types`; else a ValueError, so read_trace names the line."""
    if type(value) not in types:
        raise ValueError(f"{value!r} is not one of {[t.__name__ for t in types]}")
    return value


def parse_note(doc: dict) -> RankConstraint:
    """The comparison of a trace row's note; "induced" reads as outcome "added"."""
    if doc["kind"] not in NOTE_KINDS:
        raise ValueError(f"unknown note kind {doc['kind']!r}")
    first, second = (_typed(t, _INT) for t in doc["tests"])
    return RankConstraint(
        _typed(doc["before"], _INT),
        _typed(doc["after"], _INT),
        (first, second),
        _typed(doc["gap"], _NUMBER),
        _typed(doc["threshold"], _NUMBER),
        NOTE_KINDS[doc["kind"]],
    )


@dataclass
class TraceRecord:
    test_id: int
    phase: int
    assignment: Assignment
    mean: float
    se: float
    n_games: int
    marker: str = MARKER_NONE
    annotations: list[RankConstraint] = field(default_factory=list)
    temperature: Optional[float] = None
    delta: Optional[float] = None
    probability: Optional[float] = None
    decision: Optional[str] = None
    cached: bool = False
    reeval: bool = False
    # The formatted assignment, when the row's maker already has it.
    text: Optional[str] = field(default=None, compare=False, repr=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceRecord":
        phase = _typed(doc["phase"], _INT)
        marker, decision = doc.get("marker", MARKER_NONE), doc.get("decision")
        if phase not in (1, 2) or marker not in MARKERS or decision not in DECISIONS:
            raise ValueError(f"unknown phase {phase!r}, marker {marker!r} or decision {decision!r}")
        return cls(
            test_id=_typed(doc["test_id"], _INT),
            phase=phase,
            assignment=parse_assignment(doc["assignment"]),
            mean=_typed(doc["mean"], _NUMBER),
            se=_typed(doc["se"], _NUMBER),
            n_games=_typed(doc["n_games"], _INT),
            marker=marker,
            annotations=[parse_note(n) for n in doc.get("annotations", [])],
            temperature=_typed(doc.get("temperature"), _NUMBER_OR_NULL),
            delta=_typed(doc.get("delta"), _NUMBER_OR_NULL),
            probability=_typed(doc.get("probability"), _NUMBER_OR_NULL),
            decision=decision,
            cached=_typed(doc.get("cached", False), _BOOL),
            reeval=_typed(doc.get("reeval", False), _BOOL),
        )


def _number(value: Optional[float]) -> str:
    """A JSON number as json.JSONEncoder writes it: null, NaN, Infinity, -Infinity or the repr."""
    if value is None:
        return "null"
    if value - value == 0:
        return repr(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _note_json(n: RankConstraint) -> str:
    return (
        f'{{"after": {n.after}, "before": {n.before}, "gap": {_number(n.gap)}, '
        f'"kind": "{"induced" if n.induced else "not-induced"}", '
        f'"tests": [{n.tests[0]}, {n.tests[1]}], "threshold": {_number(n.threshold)}}}'
    )


def trace_line(record: TraceRecord) -> str:
    """One trace.jsonl line: the record's JSON object, keys sorted, as json.JSONEncoder writes it.

    The assignment is the row's `text`, or formatted when it has none.
    One format string per phase: a phase-1 row has no phase-2 fields, and
    `cached`/`reeval` appear only when set. The marker, decision and note
    kind words and the assignment go in verbatim, since none can hold a
    quote, a backslash or a non-ASCII character. Over the rows of an n=75
    run that carry their text this takes about 1.0 us a row, against 7.7 us
    to build the row's dict and encode it (timeit on a shared 2-vCPU Xeon VM).
    """
    r = record
    notes = f'"annotations": [{", ".join(map(_note_json, r.annotations))}], ' if r.annotations else ""
    assignment = r.text or format_assignment(r.assignment)
    if r.phase != 2:
        return (
            f'{{{notes}"assignment": "{assignment}", "marker": "{r.marker}", "mean": {_number(r.mean)}, '
            f'"n_games": {r.n_games}, "phase": {r.phase}, "se": {_number(r.se)}, "test_id": {r.test_id}}}\n'
        )
    cached = '"cached": true, ' if r.cached else ""
    decision = "null" if r.decision is None else f'"{r.decision}"'
    reeval = '"reeval": true, ' if r.reeval else ""
    return (
        f'{{{notes}"assignment": "{assignment}", {cached}"decision": {decision}, "delta": {_number(r.delta)}, '
        f'"marker": "{r.marker}", "mean": {_number(r.mean)}, "n_games": {r.n_games}, "phase": {r.phase}, '
        f'"probability": {_number(r.probability)}, {reeval}"se": {_number(r.se)}, '
        f'"temperature": {_number(r.temperature)}, "test_id": {r.test_id}}}\n'
    )


def read_trace(path: str | Path) -> list[TraceRecord]:
    """The records of a trace.jsonl; a line that is not a trace row is a ConfigError naming it."""
    records = []
    for number, line in enumerate(read_text(path, "trace").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            records.append(TraceRecord.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError, DcaError) as err:
            raise ConfigError(f"{path}:{number}: unparseable trace line") from err
    return records


CSV_HEADER = (
    "test_id,phase,assignment,mean,se,n_games,marker,temperature,delta,probability,decision,annotations\n"
)


def _optional(value) -> str:
    """A csv.writer field: None is empty, a float is its repr."""
    return "" if value is None else repr(value)


def csv_row(record: TraceRecord) -> str:
    """One trace.csv row; annotations collapse to one column, below-gate ones bracketed.

    The assignment is the row's `text`, or formatted when it has none.
    The row is what csv.writer writes, by one format string, and the notes
    column is built only for a row that has notes. Over the rows of an n=75
    run that carry their text this takes about 0.9 us a row, against 8.2 us
    for csv.writer (timeit on a shared 2-vCPU Xeon VM). No field ever needs
    quoting: the fields are ints, floats, the fixed marker and decision
    words, the space-separated assignment and the notes, none of which can
    hold a comma, a quote or a line break.
    """
    r = record
    notes = "; ".join(
        ("" if n.induced else "[") + f"{n.before}<{n.after}" + ("" if n.induced else "]")
        for n in r.annotations
    ) if r.annotations else ""
    assignment = r.text or format_assignment(r.assignment)
    return (
        f"{r.test_id},{r.phase},{assignment},{r.mean!r},{r.se!r},{r.n_games},{r.marker},"
        f"{_optional(r.temperature)},{_optional(r.delta)},{_optional(r.probability)},"
        f"{r.decision or ''},{notes}\n"
    )


def trace_rows(record: TraceRecord) -> tuple[str, str]:
    """`(trace_line(record), csv_row(record))`, formatted in one pass for a run's phase-1 row.

    A phase-1 row with no notes, no phase-2 field and a finite mean and se
    (x - x is 0 only for a finite x) takes one format string per file, and
    the two share the assignment text and one repr each of the mean and the
    se; any other row goes through trace_line and csv_row. Over the rows of
    an n=75 run that carry their text this takes about 1.2 us a row, against
    1.8 us apart (timeit on a shared 2-vCPU Xeon VM).
    """
    r = record
    if (r.phase != 1 or r.annotations or r.mean - r.mean != 0 or r.se - r.se != 0
            or not r.temperature is r.delta is r.probability is r.decision is None):
        return trace_line(r), csv_row(r)
    assignment = r.text or format_assignment(r.assignment)
    mean, se = repr(r.mean), repr(r.se)
    return (
        f'{{"assignment": "{assignment}", "marker": "{r.marker}", "mean": {mean}, '
        f'"n_games": {r.n_games}, "phase": 1, "se": {se}, "test_id": {r.test_id}}}\n',
        f"{r.test_id},1,{assignment},{mean},{se},{r.n_games},{r.marker},,,,,\n",
    )


class TraceSink:
    """The one writer of a run's trace.jsonl, fed through checkpoints, and of its trace.csv at close.

    Each flush formats each new row once, by trace_rows, into its
    trace.jsonl line and its trace.csv row: it encodes the new lines in one
    call and keeps the CSV rows in a list. The sink keeps every row's byte
    offset in trace.jsonl. Rows are ASCII by construction (digits, spaces,
    fixed words and float reprs), so a row's string length is its byte
    length; a non-ASCII character would make the flush raise before it
    writes, not write rows at wrong offsets. A flush rewinds to the first
    row changed since the last one (a late annotation) or else the first
    unwritten row, truncates trace.jsonl and the CSV rows there and
    formats from that row on. After every flush trace.jsonl holds every
    record's trace_line, so an interrupted run leaves a valid prefix of it.
    trace.csv is opened with trace.jsonl, so a directory that cannot take
    it fails the run before its first test, and close() writes it whole,
    the header and the last flush's csv_row of each record, in one write.
    """

    def __init__(self, out_dir: str | Path):
        out = Path(out_dir)
        self._jsonl = (out / "trace.jsonl").open("wb")
        try:
            self._csv = (out / "trace.csv").open("w", encoding="ascii", newline="")
        except OSError:
            self._jsonl.close()
            raise
        self._csv_rows: list[str] = []
        # Start offset of row i at index i; the last entry is where the next
        # unwritten row goes.
        self._offsets: list[int] = [0]

    def flush_to(self, records: list[TraceRecord], changed: Optional[int] = None) -> None:
        start = len(self._offsets) - 1
        if changed is not None and changed < start:
            start = changed
            del self._offsets[start + 1:], self._csv_rows[start:]
            self._jsonl.seek(self._offsets[start])
            self._jsonl.truncate()
        rows = list(map(trace_rows, records[start:]))
        lines = [line for line, _ in rows]
        self._csv_rows += [row for _, row in rows]
        self._offsets.extend(accumulate(map(len, lines), initial=self._offsets.pop()))
        self._jsonl.write("".join(lines).encode("ascii"))
        self._jsonl.flush()

    def close(self) -> None:
        self._jsonl.close()
        with self._csv:
            self._csv.write(CSV_HEADER + "".join(self._csv_rows))


@dataclass
class RunContext:
    """Shared test-id counter and trace across the phases of one run.

    Trace writing is funnelled through this single object: phases call
    checkpoint() at their natural boundaries and the attached sink (if any)
    writes every row added or changed since the previous one. Rows are made
    only by add(), which numbers each test and keeps the lookups by
    assignment and by test id; annotations go through annotate(), which
    remembers the lowest row it changed so the sink can rewrite from there.
    """

    next_id: int = 0
    records: list[TraceRecord] = field(default_factory=list)
    ids: dict[Assignment, int] = field(default_factory=dict)
    sink: Optional[TraceSink] = None
    # test id -> row index in `records`
    by_id: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    # lowest row annotated since the last checkpoint
    changed: Optional[int] = field(default=None, init=False, repr=False)

    def add(
        self, phase: int, x: Assignment, est: FitnessEstimate, test_id: Optional[int] = None, *,
        marker: str = MARKER_NONE, text: Optional[str] = None, temperature: Optional[float] = None,
        delta: Optional[float] = None, probability: Optional[float] = None, decision: Optional[str] = None,
        cached: bool = False, reeval: bool = False,
    ) -> int:
        """Add the `phase` row of `x`'s test with the given fields; its id is `test_id` or the next.

        A given `test_id` is one the counter already issued. The row is
        built positionally, with a list of its own for annotations: about
        1.1 us a row over an n=75 run's phase-1 rows, against 1.5 us built by
        keyword with the default list (timeit on a shared 2-vCPU Xeon VM).
        """
        if test_id is None:
            test_id, self.next_id = self.next_id, self.next_id + 1
            self.by_id[test_id] = len(self.records)
        else:
            # The phase-2 re-evaluation reuses a phase-1 test id; the first row
            # stored under an id is the one its annotations belong to.
            self.by_id.setdefault(test_id, len(self.records))
        self.records.append(TraceRecord(test_id, phase, x, est.mean, est.se, est.n_games, marker, [],
                                        temperature, delta, probability, decision, cached, reeval, text))
        self.ids[x] = test_id
        return test_id

    def annotate(self, test_id: int, note: RankConstraint) -> None:
        """Attach `note` to the row of `test_id`, if the trace has one."""
        row = self.by_id.get(test_id)
        if row is None:
            return
        self.records[row].annotations.append(note)
        if self.changed is None or row < self.changed:
            self.changed = row

    def checkpoint(self) -> None:
        if self.sink is not None:
            self.sink.flush_to(self.records, self.changed)
        self.changed = None

    def record_by_id(self, test_id: int) -> Optional[TraceRecord]:
        row = self.by_id.get(test_id)
        return None if row is None else self.records[row]
