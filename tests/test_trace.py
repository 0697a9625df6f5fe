from __future__ import annotations

from dca.trace import RunContext, TraceRecord


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
