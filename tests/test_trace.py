from __future__ import annotations

import hashlib
import random

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
