from __future__ import annotations

import pytest

from dca.harness import RunConfig, run_experiment
from dca.trace import ConstraintNote, RunContext, TraceRecord, TraceSink, dump_trace, trace_to_csv


def record(test_id, assignment, mean, phase=1):
    return TraceRecord(
        test_id=test_id, phase=phase, assignment=assignment, mean=mean, se=0.1, n_games=1000
    )


class TestRunContext:
    def test_first_record_under_an_id_wins(self):
        # The phase-2 re-evaluation reuses the phase-1 test id of its start.
        run = RunContext()
        first = run.add(record(0, (1, 2, 3), -2.0))
        reeval = run.add(record(0, (1, 2, 3), -1.5, phase=2))
        assert run.record_by_id(0) is first
        assert run.records == [first, reeval]
        assert run.record_by_id(1) is None

    def test_ids_are_keyed_by_assignment(self):
        run = RunContext()
        run.add(record(4, (2, 1, 3), -1.0))
        assert run.id_of((2, 1, 3)) == 4
        assert run.id_of((1, 2, 3)) is None

    def test_running_best_is_the_maximum_mean_so_far(self):
        run = RunContext()
        assert run.best_mean is None
        means = [-3.0, -1.0, -2.0, -0.5, -0.7]
        for i, mean in enumerate(means):
            run.add(record(i, (1, 2, 3), mean))
            assert run.best_mean == max(means[: i + 1])

    def test_annotate_marks_the_lowest_changed_row(self):
        run = RunContext()
        for i in range(3):
            run.add(record(i, (1, 2, 3), -1.0 - i))
        note = ConstraintNote(induced=True, before=1, after=2, tests=(0, 1), gap=1.0, threshold=0.1)
        run.annotate(2, note)
        run.annotate(1, note)
        run.annotate(7, note)
        assert run.changed == 1
        assert [len(r.annotations) for r in run.records] == [0, 1, 1]
        run.checkpoint()
        assert run.changed is None


def assert_files_match(out, records):
    assert (out / "trace.jsonl").read_text() == dump_trace(records)
    assert (out / "trace.csv").read_text() == trace_to_csv(records)


class TestTraceSink:
    def test_a_late_annotation_rewrites_from_its_row(self, tmp_path):
        run = RunContext(sink=TraceSink(tmp_path))
        assert_files_match(tmp_path, [])
        for i in range(3):
            run.add(record(i, (1, 2, 3), -1.0 - i))
        run.checkpoint()
        assert_files_match(tmp_path, run.records)
        run.add(record(3, (1, 3, 2), -0.5))
        run.annotate(1, ConstraintNote(induced=False, before=3, after=2, tests=(0, 1), gap=0.1, threshold=0.2))
        run.checkpoint()
        assert_files_match(tmp_path, run.records)
        run.checkpoint()
        run.sink.close()
        assert_files_match(tmp_path, run.records)
        assert "[3<2]" in (tmp_path / "trace.csv").read_text().splitlines()[2]

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
            assert_files_match(tmp_path, run.records)
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
