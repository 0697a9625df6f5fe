"""Trace records and their line-delimited persistence.

One record per evaluated test, mirroring the optimizer's printed tables:
test id, assignment, mean, standard error, and either constraint annotations
(phase 1) or annealing fields (phase 2). Records serialize one JSON object
per line so long runs stream safely, and parse back losslessly.
"""

from __future__ import annotations

import csv
import io
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
        return {
            "kind": "induced" if self.induced else "not-induced",
            "before": self.before,
            "after": self.after,
            "tests": list(self.tests),
            "gap": self.gap,
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

    def to_dict(self) -> dict:
        doc = {
            "test_id": self.test_id,
            "phase": self.phase,
            "assignment": format_assignment(self.assignment),
            "mean": self.mean,
            "se": self.se,
            "n_games": self.n_games,
            "marker": self.marker,
        }
        if self.annotations:
            doc["annotations"] = [note.to_dict() for note in self.annotations]
        if self.phase == 2:
            doc["temperature"] = self.temperature
            doc["delta"] = self.delta
            doc["probability"] = self.probability
            doc["decision"] = self.decision
            if self.cached:
                doc["cached"] = True
            if self.reeval:
                doc["reeval"] = True
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


def dump_trace(records: list[TraceRecord]) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)


def write_trace(records: list[TraceRecord], path: str | Path) -> None:
    Path(path).write_text(dump_trace(records))


def read_trace(path: str | Path) -> list[TraceRecord]:
    records = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            records.append(TraceRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as err:
            raise ConfigError(f"{path}:{i + 1}: unparseable trace line") from err
    return records


def trace_to_csv(records: list[TraceRecord]) -> str:
    """Flatten records for spreadsheets; annotations collapse to one column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["test_id", "phase", "assignment", "mean", "se", "n_games", "marker",
         "temperature", "delta", "probability", "decision", "annotations"]
    )
    for r in records:
        notes = "; ".join(
            ("" if n.induced else "[") + f"{n.before}<{n.after}" + ("" if n.induced else "]")
            for n in r.annotations
        )
        writer.writerow(
            [r.test_id, r.phase, format_assignment(r.assignment), r.mean, r.se,
             r.n_games, r.marker, r.temperature, r.delta, r.probability,
             r.decision, notes]
        )
    return buf.getvalue()


class TraceSink:
    """Append-only JSONL writer fed through run checkpoints.

    Records are flushed in batches at sweep and step boundaries, after any
    annotations have been attached, so an interrupted run leaves a valid
    prefix of complete rows on disk.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = self.path.open("w")
        self._written = 0

    def flush_to(self, records: list[TraceRecord]) -> None:
        for record in records[self._written:]:
            self._handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self._written = len(records)
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


@dataclass
class RunContext:
    """Shared test-id counter and trace across the phases of one run.

    Trace writing is funnelled through this single object: phases call
    checkpoint() at their natural boundaries and the attached sink (if any)
    appends everything new. Records enter through add(), which also keeps the
    lookups by assignment and by test id and the best mean seen so far.
    """

    next_id: int = 0
    records: list[TraceRecord] = field(default_factory=list)
    ids: dict[Assignment, int] = field(default_factory=dict)
    sink: Optional[TraceSink] = None
    best_mean: Optional[float] = field(default=None, init=False)
    by_id: dict[int, TraceRecord] = field(default_factory=dict, init=False, repr=False)

    def add(self, record: TraceRecord) -> TraceRecord:
        self.records.append(record)
        self.ids[record.assignment] = record.test_id
        # The phase-2 re-evaluation reuses a phase-1 test id; the first row
        # stored under an id is the one its annotations belong to.
        self.by_id.setdefault(record.test_id, record)
        if self.best_mean is None or record.mean > self.best_mean:
            self.best_mean = record.mean
        return record

    def checkpoint(self) -> None:
        if self.sink is not None:
            self.sink.flush_to(self.records)

    def fresh_id(self) -> int:
        i = self.next_id
        self.next_id += 1
        return i

    def id_of(self, x: Assignment) -> Optional[int]:
        return self.ids.get(x)

    def record_by_id(self, test_id: int) -> Optional[TraceRecord]:
        return self.by_id.get(test_id)
