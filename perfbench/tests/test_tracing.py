"""Tracing observes the optimiser without changing it, and the checks bite."""

import dataclasses

import pytest

import dca.constraints
import dca.harness
from checks import check_run, outcome_hash
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, suite, target_of


def small_suite(name, n=9, steps=12):
    workload = dataclasses.replace(WORKLOADS[name], n=n, steps=steps, instances=1)
    doc = suite(workload, seed=3)[0]
    return workload, doc


def run(doc, out_dir=None, tracer=None):
    cfg = dca.harness.RunConfig.from_dict(doc)
    if tracer is None:
        return dca.harness.run_experiment(cfg, out_dir)
    with tracer.installed():
        return dca.harness.run_experiment(cfg, out_dir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_has_the_untraced_outcome(name, tmp_path):
    workload, doc = small_suite(name)
    out_dir = tmp_path if workload.writes else None
    plain = check_run(run(doc, out_dir), target_of(doc), workload.oracle == "exact", out_dir)
    tracer = Tracer()
    traced = check_run(run(doc, out_dir, tracer), target_of(doc), workload.oracle == "exact", out_dir)
    assert plain.errors == traced.errors == []
    assert plain.outcome == traced.outcome
    assert plain.raw_sha256 == traced.raw_sha256
    assert "evaluation.oracle" in tracer.names and "climber.sweep" in tracer.names


def test_tracer_restores_the_originals_and_accounts_for_all_time():
    _, doc = small_suite("anneal-wide")
    before = (dca.harness.run_experiment, dca.constraints.ConstraintGraph.violations)
    tracer = Tracer()
    summary = run(doc, tracer=tracer)
    assert (dca.harness.run_experiment, dca.constraints.ConstraintGraph.violations) == before
    root = tracer.names.index("harness.run")
    assert tracer.parents[root] == -1
    wall = tracer.ends[root] - tracer.starts[root]
    assert sum(tracer.self_times()) == pytest.approx(wall)
    metrics = layer_metrics(tracer, wall)
    assert metrics["perm.neighborhood_calls"] == len(summary.phase2.step_records())
    assert metrics["evaluation.oracle_calls"] == summary.phase1_tests + summary.phase2_tests


def test_checks_catch_a_tampered_trace():
    workload, doc = small_suite("climb-exact")
    summary = run(doc)
    clean = check_run(summary, target_of(doc), True, None)
    assert clean.errors == []
    summary.trace[2].mean += 1.0
    tampered = check_run(summary, target_of(doc), True, None)
    assert tampered.errors and tampered.outcome != clean.outcome


def replace_once(old, new):
    def tamper(path):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return tamper


TAMPERINGS = {
    "trace.jsonl": replace_once('"mean": -', '"mean": -1'),
    "trace.csv": replace_once(",0.0,1,", ",0.5,1,"),
    "constraints.txt": lambda path: path.write_text(path.read_text().split("\n", 1)[1]),
    "ranking.dot": replace_once(" -> ", " -> 1"),
    "summary.json": replace_once('"constraints": [\n      [\n        ', '"constraints": [\n      [\n        1'),
    "missing": lambda path: path.with_name("ranking.dot").unlink(),
    "extra": lambda path: path.with_name("notes.txt").write_text("x"),
}


@pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
def test_checks_catch_a_tampered_output_file(tampering, tmp_path):
    _, doc = small_suite("climb-exact")
    summary = run(doc, tmp_path)
    assert check_run(summary, target_of(doc), True, tmp_path).errors == []
    name = tampering if (tmp_path / tampering).exists() else "trace.jsonl"
    TAMPERINGS[tampering](tmp_path / name)
    assert check_run(summary, target_of(doc), True, tmp_path).errors


def test_outcome_hash_ignores_fields_outside_the_projection():
    _, doc = small_suite("anneal-wide")
    records = run(doc).trace
    before = outcome_hash(records)
    records[-1].marker = "something-else"
    records[-1].temperature = 123.0
    assert outcome_hash(records) == before
    records[-1].decision = "rejected-worse" if records[-1].decision != "rejected-worse" else "improved"
    assert outcome_hash(records) != before
