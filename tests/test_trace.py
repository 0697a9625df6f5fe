from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import tempfile
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dca.climber import SCOPE_ALL_PAIRS, SCOPE_FLANKING, Phase1Config, run_phase1
from dca.constraints import NOT_INDUCED, AddOutcome, RankConstraint
from dca.errors import OracleIOError
from dca.evaluation import CachingEvaluator, ExactOracle, FitnessEstimate, HiddenTargetLandscape, SyntheticOracle
from dca.harness import RunConfig, assemble, run_experiment
from dca.perm import format_assignment
from dca.trace import (
    CSV_HEADER,
    DECISION_ACCEPTED_WORSE,
    DECISION_IMPROVED,
    DECISION_REJECTED_WORSE,
    MARKERS,
    MARKER_NONE,
    MARKER_STAR,
    RunContext,
    TraceRecord,
    TraceSink,
    csv_row,
    parse_note,
    read_trace,
    trace_line,
    trace_rows,
)

from references import dump_trace, trace_to_csv


def estimate(mean):
    return FitnessEstimate(mean, 0.1, 1000)


class TestRunContext:
    def test_first_record_under_an_id_wins(self):
        # The phase-2 re-evaluation reuses the phase-1 test id of its start.
        run = RunContext()
        assert run.add(1, (1, 2, 3), estimate(-2.0)) == 0
        assert run.add(2, (1, 2, 3), estimate(-1.5), 0, marker=MARKER_STAR, reeval=True) == 0
        first, reeval = run.records
        assert run.record_by_id(0) is first
        assert reeval == TraceRecord(0, 2, (1, 2, 3), -1.5, 0.1, 1000, marker=MARKER_STAR, reeval=True)
        assert run.record_by_id(1) is None
        # A given id takes no number from the counter.
        assert run.add(1, (2, 1, 3), estimate(-1.0)) == 1
        assert run.records[-1] == TraceRecord(1, 1, (2, 1, 3), -1.0, 0.1, 1000)

    def test_ids_are_keyed_by_assignment(self):
        run = RunContext()
        run.add(1, (2, 1, 3), estimate(-1.0), 4)
        assert run.ids.get((2, 1, 3)) == 4
        assert run.ids.get((1, 2, 3)) is None

    @pytest.mark.parametrize("cached, reeval", [(True, False), (False, True)])
    def test_add_puts_each_field_in_its_place(self, cached, reeval):
        run = RunContext()
        fields = dict(marker=DECISION_ACCEPTED_WORSE, temperature=0.5, delta=0.25, probability=0.125,
                      decision=DECISION_REJECTED_WORSE, cached=cached, reeval=reeval)
        run.add(2, (3, 1, 2), FitnessEstimate(-1.5, 0.2, 16000), text="3 1 2", **fields)
        row, = run.records
        assert row == TraceRecord(test_id=0, phase=2, assignment=(3, 1, 2), mean=-1.5, se=0.2,
                                  n_games=16000, **fields)
        assert row.text == "3 1 2"

    def test_each_row_has_its_own_annotations(self):
        run = RunContext()
        run.add(1, (1, 2, 3), estimate(-2.0))
        run.add(1, (2, 1, 3), estimate(-1.0))
        run.annotate(0, RankConstraint(1, 2, (0, 1), 1.0, 0.1))
        assert [len(r.annotations) for r in run.records] == [1, 0]
        with pytest.raises(TypeError):
            run.add(1, (1, 3, 2), estimate(-1.0), annotations=[])

    def test_annotate_marks_the_lowest_changed_row(self):
        run = RunContext()
        for i in range(3):
            run.add(1, (1, 2, 3), estimate(-1.0 - i))
        note = RankConstraint(1, 2, (0, 1), 1.0, 0.1)
        run.annotate(2, note)
        run.annotate(1, note)
        run.annotate(7, note)
        assert run.changed == 1
        assert [len(r.annotations) for r in run.records] == [0, 1, 1]
        run.checkpoint()
        assert run.changed is None


class TestNotes:
    def test_note_kinds_read_as_outcomes(self):
        doc = {"kind": "induced", "before": 3, "after": 1, "tests": [4, 5], "gap": 0.5, "threshold": 0.25}
        assert parse_note(doc) == RankConstraint(3, 1, (4, 5), 0.5, 0.25, AddOutcome.ADDED.value)
        assert parse_note({**doc, "kind": "not-induced"}).outcome == NOT_INDUCED
        with pytest.raises(ValueError, match="unknown note kind"):
            parse_note({**doc, "kind": AddOutcome.ADDED.value})


def assert_jsonl_matches(out, records):
    assert (out / "trace.jsonl").read_text() == dump_trace(records)


def assert_files_match(out, records):
    assert_jsonl_matches(out, records)
    assert (out / "trace.csv").read_text() == trace_to_csv(records)


class TestTraceSink:
    def test_a_late_annotation_rewrites_from_its_row(self, tmp_path):
        run = RunContext(sink=TraceSink(tmp_path))
        assert_jsonl_matches(tmp_path, [])
        for i in range(3):
            run.add(1, (1, 2, 3), estimate(-1.0 - i))
        run.checkpoint()
        assert_jsonl_matches(tmp_path, run.records)
        run.add(1, (1, 3, 2), estimate(-0.5))
        run.annotate(1, RankConstraint(3, 2, (0, 1), 0.1, 0.2, NOT_INDUCED))
        run.checkpoint()
        assert_jsonl_matches(tmp_path, run.records)
        # trace.csv is written only when the sink closes.
        assert (tmp_path / "trace.csv").read_text() == ""
        run.checkpoint()
        run.sink.close()
        assert_files_match(tmp_path, run.records)
        assert "[3<2]" in (tmp_path / "trace.csv").read_text().splitlines()[2]

    def test_a_rewind_keeps_trace_csv_in_step(self, tmp_path):
        run = RunContext(sink=TraceSink(tmp_path))
        for i in range(6):
            run.add(1, (1, 2, 3), estimate(-1.0 - i))
            if i % 2:
                run.checkpoint()
        # Row 1 was flushed at the first of three checkpoints; the next flush rewinds to it.
        run.annotate(1, RankConstraint(3, 2, (0, 1), 0.5, 0.2))
        run.add(1, (1, 3, 2), estimate(-0.5))
        run.checkpoint()
        run.add(1, (2, 1, 3), estimate(-0.25))
        run.checkpoint()
        run.sink.close()
        rows = (tmp_path / "trace.csv").read_text().splitlines(keepends=True)
        assert rows == [CSV_HEADER, *map(csv_row, run.records)]
        assert rows[2].endswith(",3<2\n")

    @pytest.mark.parametrize("scope", ["flanking", "all-pairs"])
    def test_files_equal_the_records_after_every_checkpoint(self, scope, tmp_path, monkeypatch):
        # All-pairs induction can annotate a row flushed at an earlier
        # checkpoint (both probes of a pair reused); flanking never does.
        original = RunContext.checkpoint
        written = [0]
        late = []

        def checkpoint(run):
            late.append(run.changed is not None and run.changed < written[-1])
            original(run)
            assert_jsonl_matches(tmp_path, run.records)
            written.append(len(run.records))

        monkeypatch.setattr(RunContext, "checkpoint", checkpoint)
        n = 12
        cfg = RunConfig.from_dict({
            "initial": list(range(n, 0, -1)),
            "seed": 0,
            "oracle": {"kind": "synthetic", "target": list(range(1, n + 1)), "sigma": 1.9},
            "phase1": {"induction_scope": scope},
            "phase2": {"steps": 5},
        })
        summary = run_experiment(cfg, tmp_path)
        assert len(late) > n
        assert any(late) == (scope == "all-pairs")
        assert_files_match(tmp_path, summary.trace)

    def test_a_run_that_raises_leaves_both_files_equal_to_its_records(self, tmp_path, monkeypatch):
        evaluate, calls = SyntheticOracle.evaluate, []

        def failing(oracle, x, n_games):
            calls.append(x)
            if len(calls) > 20:
                raise OracleIOError("evaluator gone")
            return evaluate(oracle, x, n_games)

        monkeypatch.setattr(SyntheticOracle, "evaluate", failing)
        n = 12
        cfg = RunConfig.from_dict({
            "initial": list(range(n, 0, -1)),
            "seed": 0,
            "oracle": {"kind": "synthetic", "target": list(range(1, n + 1)), "sigma": 1.9},
        })
        with pytest.raises(OracleIOError, match="evaluator gone"):
            with assemble(cfg, tmp_path) as parts:
                run_phase1(cfg.initial, parts.evaluator, cfg.phase1, run=parts.run)
        records = parts.run.records
        # The baseline and 19 probes, over more than one sweep, and no phase-2 row.
        assert len(records) == 20 and {r.phase for r in records} == {1}
        assert any(r.annotations for r in records)
        assert_files_match(tmp_path, records)


def shuffled(n, tag):
    return random.Random(tag).sample(range(1, n + 1), n)


# sha256 of (trace.jsonl, trace.csv) for seeded runs. The first two were
# recorded before the phase-1 probe functions (insertion_move, true_fitness,
# format_assignment) were rewritten for speed. Fractional weights make the landscape sum's
# addition order visible in the means.
GOLDEN_TRACES = {
    "exact-40": (
        {
            "initial": shuffled(40, "golden:exact:initial"),
            "seed": 11,
            "oracle": {"kind": "exact", "target": shuffled(40, "golden:exact:target"),
                       "weights": [0.1 * k + 0.3 for k in range(40)]},
            "phase2": {"steps": 1},
        },
        "85b6f1727ddea59b6d0a5250ee95fa11162af00a4d6c9270ad42e63b409eb850",
        "67a721ae5100c8ab218e63415026dc2dc8c2db3f4cfde0619d495933a2ef9072",
    ),
    "synthetic-12": (
        {
            "initial": shuffled(12, "golden:synthetic:initial"),
            "seed": 5,
            "oracle": {"kind": "synthetic", "target": shuffled(12, "golden:synthetic:target"),
                       "sigma": 1.9},
            "phase2": {"steps": 5},
        },
        "d604a665ee4fe37917615f8858bc9129b87ed4e770dfc02b49f349cb0d1e412b",
        "b04149c2e3b0843c43801f61396c957234050eb035a099ced5fc73403af26fca",
    ),
    # Recorded before the run config and landscape specs were read through
    # one set of helpers: they must read these configs as before.
    "pool-9": (
        {
            "initial": shuffled(9, "golden:pool:initial"),
            "seed": 7,
            "oracle": {"kind": "pool", "members": [
                {"weight": 2.0, "oracle": {"kind": "synthetic", "sigma": 0.8,
                                           "target": shuffled(9, "golden:pool:synthetic")}},
                {"weight": 1.0, "oracle": {"kind": "exact", "weights": 1.5,
                                           "target": shuffled(9, "golden:pool:exact")}},
            ]},
            "phase2": {"games": 4000, "steps": 4},
        },
        "09d7896f380942d6e7374a53795f8a1d84a664e1060f0116fb385c76be60c3d6",
        "117a80b058ccbfb2f4740eba1310616dfeff9278e13233e64071b12204613557",
    ),
    "all-pairs-10": (
        {
            "initial": shuffled(10, "golden:all-pairs:initial"),
            "seed": 4,
            "oracle": {"kind": "synthetic", "target": shuffled(10, "golden:all-pairs:target"),
                       "weights": {str(k): 0.2 * k + 0.5 for k in range(1, 11)}, "sigma": 1.0},
            "phase1": {"games": 300, "tau": 1.5, "induction_scope": "all-pairs"},
            "phase2": {"t0": 0.2, "dt": 0.03, "steps": 5, "pool_size": 3},
        },
        "7e4227acc45835356aa7328ca08ba3ae64cd207d664a6d91f9249173eb84194f",
        "75eb0f9330c555792845dd8e168a50331fbc29e3921b0f24c0129e9604dda542",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_seeded_trace_bytes_are_pinned(name, tmp_path):
    doc, jsonl_sha, csv_sha = GOLDEN_TRACES[name]
    run_experiment(RunConfig.from_dict(doc), tmp_path)
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert (digest("trace.jsonl"), digest("trace.csv")) == (jsonl_sha, csv_sha)


# The serialisers that trace_line and csv_row replace: the record's fields
# encoded with sorted keys, and the flat row written by csv.writer.
class _Echo:
    def write(self, line):
        return line


REFERENCE_CSV = csv.writer(_Echo(), lineterminator="\n")
REFERENCE_JSON = json.JSONEncoder(sort_keys=True)


def reference_dict(record: TraceRecord) -> dict:
    doc = {
        "test_id": record.test_id,
        "phase": record.phase,
        "assignment": format_assignment(record.assignment),
        "mean": record.mean,
        "se": record.se,
        "n_games": record.n_games,
        "marker": record.marker,
    }
    if record.annotations:
        doc["annotations"] = [
            {"kind": "induced" if n.induced else "not-induced", "before": n.before, "after": n.after,
             "tests": list(n.tests), "gap": n.gap, "threshold": n.threshold}
            for n in record.annotations
        ]
    if record.phase == 2:
        doc["temperature"] = record.temperature
        doc["delta"] = record.delta
        doc["probability"] = record.probability
        doc["decision"] = record.decision
        if record.cached:
            doc["cached"] = True
        if record.reeval:
            doc["reeval"] = True
    return doc


def reference_csv_row(record: TraceRecord) -> str:
    notes = "; ".join(
        ("" if n.induced else "[") + f"{n.before}<{n.after}" + ("" if n.induced else "]")
        for n in record.annotations
    )
    return REFERENCE_CSV.writerow(
        [record.test_id, record.phase, format_assignment(record.assignment), record.mean, record.se,
         record.n_games, record.marker, record.temperature, record.delta, record.probability,
         record.decision, notes]
    )


reals = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324]), st.floats())
ids = st.integers(min_value=1, max_value=10**9)
outcomes = st.sampled_from([AddOutcome.ADDED.value, NOT_INDUCED])
notes = st.builds(
    RankConstraint,
    outcome=outcomes,
    before=ids,
    after=ids,
    tests=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    gap=reals,
    threshold=reals,
)
records = st.builds(
    TraceRecord,
    test_id=st.integers(0, 10**6),
    phase=st.sampled_from([1, 2]),
    assignment=st.lists(ids, min_size=2, max_size=80, unique=True).map(tuple),
    mean=reals,
    se=reals,
    n_games=st.integers(1, 10**6),
    marker=st.sampled_from(sorted(MARKERS)),
    annotations=st.lists(notes, max_size=4),
    temperature=st.none() | reals,
    delta=st.none() | reals,
    probability=st.none() | reals,
    decision=st.sampled_from([None, DECISION_IMPROVED, DECISION_ACCEPTED_WORSE, DECISION_REJECTED_WORSE]),
    cached=st.booleans(),
    reeval=st.booleans(),
)


class TestRowSerialisation:
    @given(records)
    def test_trace_line_equals_the_sorted_key_encoding(self, record):
        expected = REFERENCE_JSON.encode(reference_dict(record)) + "\n"
        assert trace_line(record) == expected
        assert trace_line(replace(record, text=format_assignment(record.assignment))) == expected

    @given(records)
    # A phase-1 row takes a shorter format only when every phase-2 field is
    # None; these rows each keep one of those fields, or notes, in play.
    @example(TraceRecord(3, 1, (2, 1, 3), -1.5, 0.25, 1000, temperature=0.5, decision=DECISION_IMPROVED))
    @example(TraceRecord(3, 1, (2, 1, 3), -1.5, 0.25, 1000, probability=0.0))
    @example(TraceRecord(3, 1, (2, 1, 3), -1.5, 0.25, 1000, delta=-0.0, decision=DECISION_REJECTED_WORSE))
    @example(
        TraceRecord(4, 1, (1, 3, 2), -1.0, 0.1, 1000, marker=MARKER_STAR, annotations=[
            RankConstraint(3, 2, (3, 4), 0.5, 0.1, AddOutcome.ADDED.value),
            RankConstraint(1, 2, (2, 4), 0.05, 0.1, NOT_INDUCED),
        ])
    )
    def test_csv_row_equals_csv_writer(self, record):
        expected = reference_csv_row(record)
        assert csv_row(record) == expected
        assert csv_row(replace(record, text=format_assignment(record.assignment))) == expected

    @given(records | records.map(lambda r: replace(
        r, phase=1, temperature=None, delta=None, probability=None, decision=None)))
    # A run's phase-1 row has no notes, no phase-2 field and a finite mean and se; the first two
    # rows take the one-pass format, and each of the others breaks one of those conditions.
    @example(TraceRecord(5, 1, (2, 1, 3), -1.5, 0.25, 1000, marker=MARKER_STAR))
    @example(TraceRecord(5, 1, (2, 1, 3), -0.0, 5e-324, 1000))
    @example(TraceRecord(5, 1, (2, 1, 3), math.nan, 0.25, 1000))
    @example(TraceRecord(5, 1, (2, 1, 3), -1.5, -math.inf, 1000))
    @example(TraceRecord(5, 1, (2, 1, 3), -1.5, 0.25, 1000, delta=-0.0))
    @example(TraceRecord(5, 1, (2, 1, 3), -1.5, 0.25, 1000, annotations=[
        RankConstraint(1, 2, (2, 4), 0.05, 0.1, NOT_INDUCED)]))
    def test_trace_rows_equal_trace_line_and_csv_row(self, record):
        for r in (record, replace(record, text=format_assignment(record.assignment))):
            assert trace_rows(r) == (trace_line(r), csv_row(r))

    @given(records)
    def test_every_key_list_is_sorted(self, record):
        key_lists = []

        def keep_keys(pairs):
            key_lists.append([key for key, _ in pairs])
            return dict(pairs)

        doc = json.loads(trace_line(record), object_pairs_hook=keep_keys)
        assert len(key_lists) == 1 + len(doc.get("annotations", []))
        for keys in key_lists:
            assert keys == sorted(keys)

    def test_csv_header_equals_csv_writer(self):
        assert CSV_HEADER == REFERENCE_CSV.writerow(
            ["test_id", "phase", "assignment", "mean", "se", "n_games", "marker",
             "temperature", "delta", "probability", "decision", "annotations"]
        )


# Rows as runs write them: an assignment is a permutation of 1..n; a phase-1
# row may carry notes and has no phase-2 fields; a phase-2 row has all of
# them, set or None, and may be cached or a re-evaluation.
edge_reals = st.sampled_from([-0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan])
run_reals = edge_reals | st.floats(-50.0, 0.0) | st.floats(0.0, 5.0)


@st.composite
def run_rows(draw, test_id):
    n = draw(st.integers(2, 40))
    common = dict(
        test_id=test_id,
        assignment=tuple(draw(st.permutations(range(1, n + 1)))),
        mean=draw(run_reals),
        se=draw(run_reals),
        n_games=draw(st.sampled_from([1, 1000, 2000, 16000])),
    )
    if draw(st.booleans()):
        elements = st.integers(1, n)
        return TraceRecord(
            phase=1,
            marker=draw(st.sampled_from([MARKER_NONE, MARKER_STAR])),
            annotations=draw(st.lists(st.builds(
                RankConstraint, outcome=outcomes, before=elements, after=elements,
                tests=st.tuples(st.integers(0, test_id), st.integers(0, test_id)),
                gap=run_reals, threshold=run_reals,
            ), max_size=3)),
            **common,
        )
    return TraceRecord(
        phase=2,
        marker=draw(st.sampled_from(sorted(MARKERS))),
        temperature=draw(st.none() | run_reals),
        delta=draw(st.none() | run_reals),
        probability=draw(st.none() | run_reals),
        decision=draw(st.sampled_from(
            [None, DECISION_IMPROVED, DECISION_ACCEPTED_WORSE, DECISION_REJECTED_WORSE])),
        cached=draw(st.booleans()),
        reeval=draw(st.booleans()),
        **common,
    )


@st.composite
def run_traces(draw):
    count = draw(st.integers(1, 8))
    return [draw(run_rows(i)) for i in range(count)]


class TestLosslessRoundTrip:
    @given(run_traces(), st.data())
    def test_sink_files_read_back_to_the_same_rows(self, rows, data):
        split = data.draw(st.integers(0, len(rows)))
        with tempfile.TemporaryDirectory() as out:
            sink = TraceSink(out)
            sink.flush_to(rows[:split])
            sink.flush_to(rows)
            jsonl_at_flush = (Path(out) / "trace.jsonl").read_bytes()
            sink.close()
            offsets = sink._offsets
            jsonl = (Path(out) / "trace.jsonl").read_bytes()
            csv_bytes = (Path(out) / "trace.csv").read_bytes()
            parsed = read_trace(Path(out) / "trace.jsonl")
        assert jsonl.isascii() and csv_bytes.isascii()
        assert jsonl.decode() == dump_trace(rows) and csv_bytes.decode() == trace_to_csv(rows)
        assert [trace_line(r) for r in parsed] == [trace_line(r) for r in rows]
        assert [csv_row(r) for r in parsed] == [csv_row(r) for r in rows]
        # Closing writes trace.csv and leaves trace.jsonl as the last flush wrote it.
        assert jsonl_at_flush == jsonl
        # Row i starts after the bytes of rows 0..i-1.
        assert offsets == list(accumulate(map(len, jsonl.splitlines(keepends=True)), initial=0))


@st.composite
def sweep_problems(draw):
    """An exact landscape over n ids up to 10**9, a start, and a phase-1 config whose first swept
    element starts at rank 1 or rank n."""
    n = draw(st.integers(2, 80))
    x0 = tuple(draw(st.lists(ids, min_size=n, max_size=n, unique=True)))
    target = tuple(draw(st.permutations(x0)))
    weights = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]), min_size=n, max_size=n))
    first = draw(st.sampled_from([x0[0], x0[-1]]))
    others = draw(st.lists(st.sampled_from(x0).filter(lambda e: e != first), max_size=2, unique=True))
    config = Phase1Config(
        n_games=1,
        n_games_baseline=1,
        element_order=[first, *others],
        induction_scope=draw(st.sampled_from([SCOPE_FLANKING, SCOPE_ALL_PAIRS])),
    )
    return HiddenTargetLandscape(target=target, weights=dict(zip(target, weights))), x0, config


def phase1_rows(problem, out=None):
    """The records of `problem`'s phase 1, streamed to `out` if given."""
    landscape, x0, config = problem
    run = RunContext(sink=None if out is None else TraceSink(out))
    try:
        run_phase1(x0, CachingEvaluator(ExactOracle(landscape)), config, run)
    finally:
        if run.sink is not None:
            run.sink.close()
    return run.records


def unit_problem(x0, target, element):
    landscape = HiddenTargetLandscape(target=target, weights=dict.fromkeys(target, 1.0))
    return landscape, x0, Phase1Config(n_games=1, n_games_baseline=1, element_order=[element])


class TestSplicedProbeText:
    @settings(max_examples=60, deadline=None)
    @given(sweep_problems())
    # Element 7 climbs from rank 1 to rank n; element 10**9 drops from rank n to rank 1.
    @example(unit_problem((7, 12, 305, 4000, 10**9), (12, 305, 4000, 10**9, 7), 7))
    @example(unit_problem((7, 12, 305, 4000, 10**9), (10**9, 7, 12, 305, 4000), 10**9))
    def test_probe_rows_carry_their_assignment_text(self, problem):
        with tempfile.TemporaryDirectory() as out:
            rows = phase1_rows(problem, out)
            jsonl = (Path(out) / "trace.jsonl").read_text()
            csv_text = (Path(out) / "trace.csv").read_text()
        # The baseline row has no text; every probe row has its assignment's.
        assert rows[0].text is None
        assert [r.text for r in rows[1:]] == [format_assignment(r.assignment) for r in rows[1:]]
        assert jsonl == dump_trace(rows) and csv_text == trace_to_csv(rows)
        # An untraced run builds no text and the same rows.
        untraced = phase1_rows(problem)
        assert untraced == rows
        assert all(r.text is None for r in untraced)
