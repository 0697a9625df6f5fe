"""An exact oracle's sweep table runs the per-probe program: the same trace bytes, the same tests.

`ExactOracle.sweep` scores a whole phase-1 sweep in one call, and each fresh
probe takes its mean from that table instead of calling `evaluate`. Every
entry equals the probe's own `true_fitness` bit for bit, so a run must be
byte-identical to one whose sweep hook answers None; only the calls to
`evaluate` differ, which drop to the baseline and phase 2.
"""

from __future__ import annotations

import re
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca.climber import Phase1Config, run_sweep
from dca.errors import ElementNotFoundError
from dca.evaluation import CachingEvaluator, ExactOracle, FitnessEstimate, HiddenTargetLandscape
from dca.harness import RunConfig, run_experiment
from dca.perm import insertion_move
from dca.trace import RunContext


@contextmanager
def counted_evaluate(table: bool):
    """Count `ExactOracle.evaluate` calls; without `table`, the sweep hook answers None."""
    calls = []
    evaluate = ExactOracle.evaluate

    def counted(self, x, n_games=1):
        calls.append(x)
        return evaluate(self, x, n_games)

    with mock.patch.object(ExactOracle, "evaluate", counted):
        if table:
            yield calls
        else:
            with mock.patch.object(ExactOracle, "sweep", lambda self, baseline, element: None):
                yield calls


def outputs(doc, out: Path, table: bool):
    """The bytes of the trace files and summary.json (less wall_time_s), the summary, the evaluate calls."""
    with counted_evaluate(table) as calls:
        summary = run_experiment(RunConfig.from_dict(doc), out)
    files = [(out / name).read_bytes() for name in ("trace.jsonl", "trace.csv", "summary.json")]
    files[2] = re.sub(rb'\n *"wall_time_s": [^\n]*', b"", files[2])
    return files, summary, len(calls)


weights_st = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5]), st.floats(0.0, 50.0))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_table_writes_the_per_probe_trace(data):
    n = data.draw(st.integers(2, 40), label="n")
    target = data.draw(st.permutations(range(1, n + 1)), label="target")
    form = data.draw(st.sampled_from(["scalar", "list", "map"]), label="weights as")
    weights = data.draw(weights_st if form == "scalar" else st.lists(weights_st, min_size=n, max_size=n))
    if form == "map":
        weights = {str(e): w for e, w in zip(target, weights)}
    phase1 = {"induction_scope": data.draw(st.sampled_from(["flanking", "all-pairs"]), label="scope")}
    if data.draw(st.booleans(), label="element order"):
        phase1["element_order"] = data.draw(st.lists(st.sampled_from(target), unique=True))
    doc = {
        "initial": data.draw(st.permutations(range(1, n + 1)), label="initial"),
        "seed": data.draw(st.integers(0, 2**32 - 1), label="seed"),
        "oracle": {"kind": "exact", "target": target, "weights": weights},
        "phase1": phase1,
        "phase2": {"steps": data.draw(st.integers(1, 6), label="steps")},
    }
    with tempfile.TemporaryDirectory() as tmp:
        per_probe, _, probe_calls = outputs(doc, Path(tmp) / "per-probe", table=False)
        swept, summary, sweep_calls = outputs(doc, Path(tmp) / "swept", table=True)
    assert swept == per_probe
    assert probe_calls == summary.phase1_tests + summary.phase2_tests
    assert sweep_calls == 1 + summary.phase2_tests  # the baseline, then phase 2 alone


def test_the_table_scores_phase_1_on_a_pinned_run(tmp_path):
    doc = {
        "initial": list(range(12, 0, -1)),
        "seed": 5,
        "oracle": {"kind": "exact", "target": [3, 1, 4, 12, 5, 9, 2, 6, 11, 8, 7, 10],
                   "weights": [0.1 * k + 0.3 for k in range(12)]},
        "phase2": {"steps": 3},
    }
    per_probe, _, _ = outputs(doc, tmp_path / "per-probe", table=False)
    swept, summary, calls = outputs(doc, tmp_path / "swept", table=True)
    assert swept == per_probe
    assert summary.phase1_tests > 1 and calls == 1 + summary.phase2_tests


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_missing_target_element_fails_at_the_same_probe(data):
    n = data.draw(st.integers(2, 20), label="n")
    target = tuple(data.draw(st.permutations(range(1, n + 1)), label="target"))
    landscape = HiddenTargetLandscape(target, {e: 0.5 for e in target})
    drop = data.draw(st.sampled_from(target), label="dropped")
    baseline = tuple(data.draw(st.permutations([n + 1 if e == drop else e for e in target])))
    element = data.draw(st.sampled_from(baseline), label="element")

    def attempt(table):
        run = RunContext()
        evaluator = CachingEvaluator(ExactOracle(landscape))
        with counted_evaluate(table) as calls, pytest.raises(ElementNotFoundError) as err:
            run_sweep(element, baseline, FitnessEstimate(-1.0, 0.0, 1), evaluator, Phase1Config(), run)
        return str(err.value), calls, run.records

    message, calls, records = attempt(table=False)
    assert attempt(table=True) == (message, calls, records)
    # The first fresh probe: rank 1, or rank 2 when the element already stands first.
    assert records == [] and calls == [insertion_move(baseline, element, 2 if baseline[0] == element else 1)]
