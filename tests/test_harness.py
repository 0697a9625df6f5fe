from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import re
import shutil
import sys
from dataclasses import fields
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dca.harness

from dca.cli import main
import numpy as np

from dca.annealer import InsertionProposer
from dca.constraints import ConstraintGraph, RankConstraint, count_linear_extensions
from dca.errors import ConfigError, DcaError, IncompatibleAssignmentsError, ReplayMissError
from dca.evaluation import HiddenTargetLandscape, ReplayOracle, SyntheticOracle, format_mean
from dca.harness import (
    FIXTURE_MOVES,
    FIXTURE_TABLE1_2,
    FIXTURE_TABLE3,
    REPLAY_MASTER_SEED,
    TABLE_PHASE2_BEST,
    TABLE_PHASE2_MEAN,
    TABLE_X0,
    RunConfig,
    assemble,
    brute_force_optimum,
    derive_seed,
    graph_from_trace,
    packaged_fixtures_dir,
    paper_replay_config,
    replay_verify,
    run_experiment,
)
from dca.trace import TraceSink, read_trace, trace_line

from references import dump_trace, reference_fitness, satisfies
from test_evaluation import ECHO_EVALUATOR


def unit_landscape(target, sigma=0.0):
    return HiddenTargetLandscape(target=tuple(target), weights={e: 1.0 for e in target}, sigma=sigma)


def synthetic_config(seed=3, sigma=0.8, steps=10):
    return RunConfig(
        initial=(4, 3, 2, 1),
        seed=seed,
        oracle={"kind": "synthetic", "target": "2 4 1 3", "weights": 1.0, "sigma": sigma},
    )


class TestRunConfig:
    def test_parses_a_full_document(self, tmp_path):
        doc = {
            "initial": "11 2 3 10 9 6 4 5 7 8",
            "seed": 12,
            "oracle": {"kind": "exact", "target": "2 3 4 5 6 7 8 9 10 11"},
            "phase1": {"games": 500, "tau": 1.5, "induction_scope": "all-pairs"},
            "phase2": {"games": 8000, "t0": 0.2, "dt": 0.02, "steps": 10, "pool_size": 4},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = RunConfig.from_json_file(path)
        assert cfg.phase1.n_games == 500
        assert cfg.phase1.tau == 1.5
        assert cfg.phase2.steps == 10
        assert cfg.phase2.n_games_hi == 8000
        cfg.validate()

    def test_absent_keys_keep_the_dataclass_defaults(self):
        cfg = RunConfig.from_dict(
            {"initial": "1 2", "seed": 1, "oracle": {"kind": "exact", "target": "1 2"}}
        )
        for part in (cfg.phase1, cfg.phase2):
            for f in fields(part):
                assert getattr(part, f.name) == f.default, f"{type(part).__name__}.{f.name}"

    def test_unknown_top_level_key_is_an_error(self):
        # Both phases run on the one `oracle`; a second oracle slot is refused like any stray key.
        for key in ("phases", "oracle_phase2"):
            with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
                RunConfig.from_dict(
                    {"initial": "1 2", "seed": 1, "oracle": {"kind": "exact", "target": "1 2"},
                     key: {}}
                )

    def test_unknown_section_key_is_an_error(self):
        with pytest.raises(ConfigError, match="phase2"):
            RunConfig.from_dict(
                {"initial": "1 2", "seed": 1, "oracle": {"kind": "exact", "target": "1 2"},
                 "phase2": {"temperature": 1.0}}
            )

    def test_missing_seed_is_an_error(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict(
                {"initial": "1 2", "oracle": {"kind": "exact", "target": "1 2"}}
            )

    def test_schedule_hitting_zero_rejected_before_any_evaluation(self):
        cfg = synthetic_config()
        cfg.phase2.t0, cfg.phase2.dt, cfg.phase2.steps = 0.1, 0.02, 10
        # The oracle spec is also broken; validation must trip first.
        cfg.oracle = {"kind": "replay", "path": "/nonexistent.replay"}
        with pytest.raises(ConfigError, match="temperature"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "path", [5, None, [], ["table.replay", 5], {"table": "table.replay"}],
        ids=["number", "null", "empty-list", "list-with-a-number", "object"],
    )
    def test_a_replay_path_that_is_not_a_path_or_a_list_of_paths_is_refused(self, path):
        cfg = synthetic_config()
        cfg.oracle = {"kind": "replay", "path": path}
        message = f"replay path must be a path or a non-empty list of paths, got {path!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(cfg)

    def test_unknown_oracle_kind(self):
        cfg = synthetic_config()
        cfg.oracle = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="oracle kind"):
            run_experiment(cfg)


# Settings refused before a run's first oracle request: (section, key, value, message).
REFUSED_SETTINGS = {
    "phase2-games-zero": ("phase2", "games", 0, "phase2 games must be >= 1, got 0"),
    "pool-size-zero": ("phase2", "pool_size", 0, "phase2 pool_size must be >= 1, got 0"),
    "steps-zero": ("phase2", "steps", 0, "step count must be >= 1, got 0"),
    "phase1-games-zero": ("phase1", "games", 0, "phase1 games must be >= 1, got 0"),
    "baseline-games-zero": ("phase1", "baseline_games", 0, "phase1 baseline_games must be >= 1, got 0"),
    "scope-both": ("phase1", "induction_scope", "both", "unknown induction scope 'both'"),
    "phase1-number": (None, "phase1", 3, "phase1 section must be an object, got 3"),
    "games-list": ("phase1", "games", [1000], "phase1 games [1000] is not a number"),
    "initial-one": (None, "initial", [1], "assignment needs at least 2 elements, got 1"),
    "initial-zero": (None, "initial", [0, 1, 2], "element identifiers must be positive: (0, 1, 2)"),
    "script-blank": ("phase2", "script_moves", "blank.moves", "scripted move file holds no assignments"),
}


@pytest.mark.parametrize("section, key, value, message", REFUSED_SETTINGS.values(), ids=REFUSED_SETTINGS)
def test_a_refused_setting_fails_before_any_oracle_request(section, key, value, message, tmp_path, monkeypatch):
    # The evaluator leaves a file behind if it is ever started, which the first request would do.
    started = tmp_path / "started"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blank.moves").write_text("\n  \n\n")
    doc = {
        "initial": "4 3 2 1",
        "seed": 1,
        "oracle": {"kind": "subprocess", "cmd": [sys.executable, "-c", f"open({str(started)!r}, 'w')"]},
        "phase1": {"games": 10},
        "phase2": {"games": 10, "steps": 2},
    }
    (doc[section] if section else doc)[key] = value
    with pytest.raises(DcaError, match=re.escape(message)):
        with assemble(RunConfig.from_dict(doc)) as parts:
            parts.phase1()
    assert not started.exists()


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: InsertionProposer(np.random.default_rng(0), 0), ConfigError,
            "pool size must be >= 1, got 0", id="proposer-pool",
        ),
        pytest.param(
            lambda: SyntheticOracle(HiddenTargetLandscape((1, 2), {1: 1.0, 2: 1.0}), 0).evaluate((1, 2), 0),
            ConfigError, "n_games must be >= 1, got 0", id="synthetic-games",
        ),
        pytest.param(
            lambda: count_linear_extensions(ConstraintGraph(), range(1, 22)), IncompatibleAssignmentsError,
            "extension counting capped at 20 elements, got 21", id="extensions-21",
        ),
    ],
)
def test_an_out_of_range_argument_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestSeedDerivation:
    def test_labelled_streams_differ(self):
        seeds = {derive_seed(5, label) for label in ("oracle", "proposer", "acceptance")}
        assert len(seeds) == 3

    def test_documented_scheme_is_stable(self):
        # First 8 bytes, big-endian, of sha256(b"5:acceptance") etc.
        import hashlib

        for label in ("oracle", "proposer", "acceptance"):
            expected = int.from_bytes(
                hashlib.sha256(f"5:{label}".encode()).digest()[:8], "big"
            )
            assert derive_seed(5, label) == expected


class TestBruteForce:
    def test_target_is_the_optimum(self):
        best, mean = brute_force_optimum(unit_landscape((3, 1, 2)))
        assert best == (3, 1, 2)
        assert mean == 0.0

    def test_refuses_ten_elements(self):
        with pytest.raises(ConfigError, match="refuses"):
            brute_force_optimum(unit_landscape(tuple(range(1, 11))))

    def test_chain_constrained_search_space_size(self):
        # A 4-element chain inside an 8-element landscape cuts the candidate
        # count to 8!/4! = 1680.
        g = ConstraintGraph()
        for a, b in ((1, 2), (2, 3), (3, 4)):
            g.try_add(RankConstraint(a, b))
        elements = list(range(1, 9))
        candidates = [p for p in permutations(elements) if satisfies(g, p)]
        assert len(candidates) == 1680
        assert count_linear_extensions(g, elements) == 1680
        best, _ = brute_force_optimum(unit_landscape((8, 7, 6, 5, 1, 2, 3, 4)), g)
        assert satisfies(g, best)

    def test_empty_graph_equals_unconstrained(self):
        landscape = unit_landscape((2, 1, 4, 3))
        assert brute_force_optimum(landscape) == brute_force_optimum(landscape, ConstraintGraph())

    def test_constrained_optimum_is_best_linear_extension(self):
        landscape = unit_landscape((4, 3, 2, 1))
        g = ConstraintGraph()
        g.try_add(RankConstraint(1, 2))
        best, mean = brute_force_optimum(landscape, g)
        assert satisfies(g, best)
        for p in permutations((1, 2, 3, 4)):
            if satisfies(g, p):
                assert landscape.true_fitness(p) <= mean


def reference_optimum(landscape, graph=None):
    """The loop brute_force_optimum replaces: one score per permutation, kept on a strict gain."""
    best, best_mean = None, -math.inf
    for perm in permutations(sorted(landscape.target)):
        if graph is not None and not satisfies(graph, perm):
            continue
        mean = reference_fitness(landscape, perm)
        if mean > best_mean:
            best, best_mean = perm, mean
    return best, best_mean


@st.composite
def small_problems(draw):
    """A landscape of at most 7 elements, with few distinct weights so ties are common, and maybe a graph."""
    target = tuple(draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=7, unique=True)))
    weight = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, 0.1]) | st.floats(-10, 10)
    weights = {e: draw(weight) for e in target}
    graph = None
    if draw(st.booleans()):
        graph = ConstraintGraph()
        pair = st.tuples(st.sampled_from(target), st.sampled_from(target)).filter(lambda p: p[0] != p[1])
        for a, b in draw(st.lists(pair, max_size=len(target))):
            graph.try_add(RankConstraint(a, b))
    return HiddenTargetLandscape(target=target, weights=weights), graph


class TestBruteForceEqualsTheExhaustiveLoop:
    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_same_optimum_and_ties_to_the_smallest(self, problem):
        landscape, graph = problem
        best, mean = brute_force_optimum(landscape, graph)
        ref_best, ref_mean = reference_optimum(landscape, graph)
        assert (best, repr(mean)) == (ref_best, repr(ref_mean))
        ties = [
            p for p in permutations(landscape.target)
            if (graph is None or satisfies(graph, p)) and reference_fitness(landscape, p) == mean
        ]
        assert best == min(ties)

    def test_graph_errors_and_an_empty_graph(self):
        landscape = unit_landscape((3, 1, 2))
        g = ConstraintGraph()
        assert brute_force_optimum(landscape, g) == brute_force_optimum(landscape)
        for a, b in ((2, 3), (5, 1)):
            g.try_add(RankConstraint(a, b))
        with pytest.raises(IncompatibleAssignmentsError, match=r"graph elements \[5\] missing from assignment 1 2 3$"):
            brute_force_optimum(landscape, g)

    def test_chunk_boundaries_do_not_matter(self, monkeypatch):
        target = (5, 3, 6, 1, 4, 2)
        landscape = HiddenTargetLandscape(target=target, weights={e: 1.0 / (e + 0.3) for e in target})
        g = ConstraintGraph()
        for a, b in ((2, 5), (6, 3)):
            g.try_add(RankConstraint(a, b))
        expected = [reference_optimum(landscape), reference_optimum(landscape, g)]
        for chunk in (1, 7, 720, 10**6):
            monkeypatch.setattr(dca.harness, "BRUTE_FORCE_CHUNK", chunk)
            assert [brute_force_optimum(landscape), brute_force_optimum(landscape, g)] == expected


def truncated_replay_config(tmp_path, write_replay):
    """The paper replay on a fixture cut after its first eight rows: phase 1's ninth test misses."""
    fixture = ReplayOracle.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2)
    write_replay(dict(list(fixture.records.items())[:8]), tmp_path / "short.replay")
    cfg = paper_replay_config()
    cfg.oracle = {"kind": "replay", "path": str(tmp_path / "short.replay")}
    return cfg


class TestRunExperiment:
    def test_exact_small_run_matches_brute_force(self):
        landscape = unit_landscape((2, 4, 1, 3))
        cfg = RunConfig(
            initial=(1, 2, 3, 4),
            seed=7,
            oracle={"kind": "exact", "target": "2 4 1 3", "weights": 1.0},
        )
        summary = run_experiment(cfg)
        best, mean = brute_force_optimum(landscape)
        assert summary.best == best
        assert summary.best_mean == mean
        assert summary.best_mean >= summary.phase1.best_estimate.mean

    def test_trace_ids_are_contiguous_and_reeval_reuses_one(self):
        cfg = synthetic_config()
        summary = run_experiment(cfg)
        phase1_ids = [r.test_id for r in summary.trace if r.phase == 1]
        assert phase1_ids == list(range(len(phase1_ids)))
        reevals = [r for r in summary.trace if r.reeval]
        assert len(reevals) == 1
        assert reevals[0].test_id in phase1_ids
        step_ids = [r.test_id for r in summary.trace if r.phase == 2 and not r.reeval]
        assert step_ids == list(range(len(phase1_ids), len(phase1_ids) + len(step_ids)))

    def test_summary_accounting_for_the_paper_replay(self):
        summary = run_experiment(paper_replay_config())
        assert summary.phase1_tests == 36
        assert summary.phase1_games == 37000
        assert summary.phase2_tests == 11
        assert summary.phase2_games == 176000

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_evaluator_splits_games_and_tests_by_phase(self, seed):
        # Phase 2 re-reads some phase-1 estimates from the shared cache;
        # those cached rows cost no games and count as no tests.
        cfg = RunConfig.from_dict({
            "initial": "10 9 8 7 6 5 4 3 2 1",
            "seed": seed,
            "oracle": {"kind": "synthetic", "target": "3 1 4 10 5 9 2 6 8 7", "sigma": 1.9},
            "phase1": {"games": 100, "baseline_games": 200},
            "phase2": {"games": 400, "steps": 60, "t0": 1.0, "dt": 0.015},
        })
        summary = run_experiment(cfg)
        phase1 = [r for r in summary.trace if r.phase == 1]
        fresh2 = [r for r in summary.trace if r.phase == 2 and not r.cached]
        assert any(r.cached for r in summary.trace)
        assert summary.phase1_games == sum(r.n_games for r in phase1)
        assert summary.phase2_games == sum(r.n_games for r in fresh2)
        assert summary.phase2_tests == len(fresh2)

    @pytest.mark.parametrize("seed", range(3))
    def test_reevaluation_on_a_cache_hit_is_marked_cached(self, seed):
        # With equal budgets the phase-2 re-evaluation of the phase-1 winner
        # is a cache hit: it costs no games and counts as no test.
        cfg = RunConfig.from_dict({
            "initial": "8 7 6 5 4 3 2 1",
            "seed": seed,
            "oracle": {"kind": "synthetic", "target": "3 1 4 5 8 2 6 7", "sigma": 1.9},
            "phase1": {"games": 1000, "baseline_games": 1000},
            "phase2": {"games": 1000, "steps": 5},
        })
        summary = run_experiment(cfg)
        fresh2 = [r for r in summary.trace if r.phase == 2 and not r.cached]
        assert [r.cached for r in summary.trace if r.reeval] == [True]
        assert summary.phase2_tests == len(fresh2)
        assert summary.phase2_games == sum(r.n_games for r in fresh2)

    def test_persistence_writes_the_full_set(self, tmp_path):
        cfg = synthetic_config()
        summary = run_experiment(cfg, out_dir=tmp_path / "out")
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"trace.jsonl", "trace.csv", "constraints.txt", "ranking.dot", "summary.json"}
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["phase1"]["tests"] == summary.phase1_tests
        parsed = read_trace(tmp_path / "out" / "trace.jsonl")
        assert len(parsed) == len(summary.trace)

    def test_identical_configs_give_byte_identical_trace_files(self, tmp_path):
        for name in ("a", "b"):
            run_experiment(synthetic_config(), out_dir=tmp_path / name)
        assert (tmp_path / "a" / "trace.jsonl").read_bytes() == (tmp_path / "b" / "trace.jsonl").read_bytes()
        assert (tmp_path / "a" / "ranking.dot").read_bytes() == (tmp_path / "b" / "ranking.dot").read_bytes()

    def test_trace_round_trip_is_lossless(self, tmp_path):
        summary = run_experiment(synthetic_config())
        path = tmp_path / "trace.jsonl"
        path.write_text(dump_trace(summary.trace))
        parsed = read_trace(path)
        assert [trace_line(r) for r in parsed] == [trace_line(r) for r in summary.trace]

    def test_csv_export_parses_back(self, tmp_path):
        summary = run_experiment(synthetic_config(), out_dir=tmp_path / "out")
        with open(tmp_path / "out" / "trace.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(summary.trace)
        assert rows[0]["test_id"] == "0"
        assert {row["phase"] for row in rows} == {"1", "2"}

    def test_interrupted_run_leaves_a_parseable_trace_prefix(self, tmp_path, write_replay):
        # An oracle failure mid-run must still leave complete, annotated
        # rows on disk in both trace files.
        out = tmp_path / "out"
        with pytest.raises(ReplayMissError):
            run_experiment(truncated_replay_config(tmp_path, write_replay), out_dir=out)
        prefix = read_trace(out / "trace.jsonl")
        assert [r.test_id for r in prefix] == list(range(8))
        assert any(r.annotations for r in prefix)
        with open(out / "trace.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(row["test_id"]) for row in rows] == list(range(8))
        assert [row["annotations"] for row in rows] == [
            "; ".join(f"{n.before}<{n.after}" if n.induced else f"[{n.before}<{n.after}]" for n in r.annotations)
            for r in prefix
        ]


class TestCollectorPause:
    """`assemble` pauses the cyclic collector for a run and restores the caller's setting after it."""

    @pytest.fixture
    def caller_collects(self, request):
        """The collector as the caller leaves it before `assemble`; enabled again after the test."""
        assert gc.isenabled()
        if not request.param:
            gc.disable()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("caller_collects", [True, False], indirect=True, ids=["enabled", "disabled"])
    def test_paused_inside_the_run_and_restored_after_it(self, caller_collects):
        with assemble(synthetic_config()) as parts:
            assert not gc.isenabled()
            parts.phase1()
        assert gc.isenabled() is caller_collects

    @pytest.mark.parametrize("caller_collects", [True, False], indirect=True, ids=["enabled", "disabled"])
    def test_restored_after_an_error_inside_the_run(self, caller_collects, tmp_path, write_replay):
        with pytest.raises(ReplayMissError), assemble(truncated_replay_config(tmp_path, write_replay)) as parts:
            parts.phase1()
        assert gc.isenabled() is caller_collects

    def test_restored_after_the_trace_fails_to_close(self, tmp_path, monkeypatch):
        close = TraceSink.close

        def refuse(sink):
            close(sink)
            raise OSError("no space left on device")

        monkeypatch.setattr(TraceSink, "close", refuse)
        assert gc.isenabled()
        with pytest.raises(OSError, match="no space"), assemble(synthetic_config(), tmp_path / "out") as parts:
            parts.phase1()
        assert gc.isenabled()

    def test_what_the_run_keeps_joins_the_oldest_generation(self):
        # Enabling the collector with the run's objects still young would
        # scan them all at the next allocation, which is what the pause saves.
        with assemble(synthetic_config()) as parts:
            parts.phase1()
        records = parts.run.records
        assert any(o is records for o in gc.get_objects(generation=2))

    def test_a_callers_frozen_objects_stay_frozen(self):
        kept = []
        gc.freeze()
        try:
            with assemble(synthetic_config()) as parts:
                parts.phase1()
            assert not any(o is kept for o in gc.get_objects())
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize(
        "oracle, to_disk",
        [
            ({"kind": "exact", "target": "3 1 4 10 5 9 2 6 8 7", "weights": 1.0}, True),
            ({"kind": "synthetic", "target": "3 1 4 10 5 9 2 6 8 7", "sigma": 1.9}, False),
            ({"kind": "subprocess", "cmd": [sys.executable, "-c", ECHO_EVALUATOR], "timeout": 10, "workers": 2}, False),
        ],
        ids=["exact-out-dir", "synthetic", "subprocess-2-workers"],
    )
    def test_a_run_makes_no_reference_cycles(self, oracle, to_disk, tmp_path):
        # The pause is safe only while a run leaves nothing for the collector
        # to find: a cycle that a run drops, such as a caught exception kept in
        # a local, would pile up unseen until the run ends.
        cfg = RunConfig.from_dict({
            "initial": "10 9 8 7 6 5 4 3 2 1",
            "seed": 3,
            "oracle": oracle,
            "phase1": {"games": 100, "baseline_games": 200},
            "phase2": {"games": 400, "steps": 30, "t0": 1.0, "dt": 0.015},
        })
        gc.collect()
        with assemble(cfg, tmp_path / "out" if to_disk else None) as parts:
            p1 = parts.phase1()
            parts.phase2(p1.best, p1.graph)
            assert parts.run.records
            assert gc.collect() == 0


def edge_records(graph):
    return [(c.pair(), c.tests, c.gap, c.threshold) for c in graph.edges()]


class TestExportDag:
    def test_graph_rebuilt_from_trace(self, tmp_path):
        summary = run_experiment(paper_replay_config())
        rebuilt = graph_from_trace(summary.trace)
        assert len(rebuilt.edges()) == 12
        assert edge_records(rebuilt) == edge_records(summary.phase1.graph)
        # A synthetic run in each scope, read back from its trace.jsonl.
        for scope in ("flanking", "all-pairs"):
            cfg = RunConfig.from_dict({
                "initial": "9 8 7 6 5 4 3 2 1",
                "seed": 2,
                "oracle": {"kind": "synthetic", "target": "3 1 4 9 5 2 6 8 7", "sigma": 1.0},
                "phase1": {"games": 300, "induction_scope": scope},
                "phase2": {"steps": 2},
            })
            summary = run_experiment(cfg, tmp_path / scope)
            rebuilt = graph_from_trace(read_trace(tmp_path / scope / "trace.jsonl"))
            assert len(rebuilt.edges()) > 3
            assert edge_records(rebuilt) == edge_records(summary.phase1.graph)


# One edit per replay-fixture copy: (fixture file, old text, new text), the
# exit code of `dca replay --fixtures <copy>` and the sha256 of its stdout.
REPLAY_PINS = {
    "packaged": (None, 0, "ae8e9dea3b133f036750d5813a5e0031e47cc154b365ffe170f3b057a4fb14ec"),
    "gate-flip": (
        (FIXTURE_TABLE1_2, "3 2 10 11 9 6 4 5 7 8 | -3.96985", "3 2 10 11 9 6 4 5 7 8 | -3.91985"),
        1, "a9735446f0fb509fc0e180cee6babe9b5aa5985d03ef841c733eb20d38eb4369",
    ),
    "phase1-mean": (
        (FIXTURE_TABLE1_2, "| -3.12261 |", "| -3.12262 |"),
        1, "ffc6f1698026ad34dc42a50cfcec287ee52f42d84a6e482d48bb808b8669c1a6",
    ),
    "phase2-mean": (
        (FIXTURE_TABLE3, "| -2.95471 |", "| -2.95472 |"),
        1, "8c3103e8041653df6d9b98ec5cd5d543dadac94987e43dc603b6c854ca51454b",
    ),
    "reeval-se": (
        (FIXTURE_TABLE3, "2 5 3 4 8 10 11 9 6 7 | -3.12690 | 0.013852", "2 5 3 4 8 10 11 9 6 7 | -3.12690 | 0.013853"),
        1, "2e6446aa8c4e9a52638a6d78b5f25562d0bd4cb8de95942a844da86eca9910ae",
    ),
    "test39-probability": (
        (FIXTURE_TABLE3, "2 5 3 4 7 8 6 10 11 9 | -3.05799", "2 5 3 4 7 8 6 10 11 9 | -3.25799"),
        1, "7c3b0db058028d878eb8bc09eef4cc07b988cfc512341e819e260fad08d00453",
    ),
    "test45-improves": (
        (FIXTURE_TABLE3, "5 4 2 3 6 7 8 10 11 9 | -2.96470", "5 4 2 3 6 7 8 10 11 9 | -2.90470"),
        1, "fd527d6cb7d1fec7424858592e706fe211ca1165c7ff1847cd9a274aae5278df",
    ),
    "path-diverges": (
        (FIXTURE_TABLE3, "5 2 3 4 7 6 8 10 11 9 | -3.11263", "5 2 3 4 7 6 8 10 11 9 | -3.04463"),
        2, hashlib.sha256(b"").hexdigest(),
    ),
}


class TestReplayVerify:
    @pytest.mark.parametrize("edit, code, digest", REPLAY_PINS.values(), ids=REPLAY_PINS)
    def test_replay_stdout_is_pinned(self, edit, code, digest, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(packaged_fixtures_dir(), fixtures)
        if edit is not None:
            name, old, new = edit
            text = (fixtures / name).read_text()
            assert text.count(old) == 1
            (fixtures / name).write_text(text.replace(old, new))
        assert main(["replay", "--fixtures", str(fixtures)]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_shipped_fixtures_match(self):
        report = replay_verify()
        assert report.constraints_match
        assert report.values_match
        assert report.ok
        assert len(report.discrepancies) == 1
        assert "test 41" in report.discrepancies[0]
        json.dumps(report.to_dict())  # machine-readable

    def test_gate_flip_perturbation_is_named(self, tmp_path):
        # Nudging the swap test of the second sweep upward by 0.05 keeps the
        # sweep boundary (still a dip) but shrinks the gap below the gate, so
        # the first ranking preference is no longer induced.
        fixtures = tmp_path / "fixtures"
        shutil.copytree(packaged_fixtures_dir(), fixtures)
        path = fixtures / FIXTURE_TABLE1_2
        perturbed = path.read_text().replace(
            "3 2 10 11 9 6 4 5 7 8 | -3.96985", "3 2 10 11 9 6 4 5 7 8 | -3.91985"
        )
        path.write_text(perturbed)
        report = replay_verify(fixtures)
        assert not report.constraints_match
        assert any("2<3" in d and "not induced" in d for d in report.discrepancies)
        assert not report.ok

    def test_large_perturbation_breaks_the_replay_loudly(self, tmp_path):
        # +0.2 turns the dip into a rise: the sweep keeps going and asks for
        # an assignment the fixture never saw, which must fail hard.
        fixtures = tmp_path / "fixtures"
        shutil.copytree(packaged_fixtures_dir(), fixtures)
        path = fixtures / FIXTURE_TABLE1_2
        perturbed = path.read_text().replace(
            "3 2 10 11 9 6 4 5 7 8 | -3.96985", "3 2 10 11 9 6 4 5 7 8 | -3.76985"
        )
        path.write_text(perturbed)
        with pytest.raises(ReplayMissError):
            replay_verify(fixtures)

    def test_missing_fixture_directory_is_a_hard_error(self, tmp_path):
        with pytest.raises(ConfigError, match="missing replay fixture"):
            replay_verify(tmp_path / "nowhere")

    def test_empty_fixture_is_a_hard_error(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(packaged_fixtures_dir(), fixtures)
        (fixtures / FIXTURE_TABLE1_2).write_text("# dca-replay v1\n")
        with pytest.raises(ConfigError):
            replay_verify(fixtures)

    def test_the_paper_replay_runs_from_one_json_document(self, tmp_path):
        fixtures = packaged_fixtures_dir()
        doc = {
            "initial": TABLE_X0,
            "seed": REPLAY_MASTER_SEED,
            "oracle": {"kind": "replay", "path": [str(fixtures / name) for name in (FIXTURE_TABLE1_2, FIXTURE_TABLE3)]},
            "phase2": {"script_moves": str(fixtures / FIXTURE_MOVES)},
        }
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(doc))
        cfg = RunConfig.from_json_file(path)
        assert cfg.phase2.script_moves == fixtures / FIXTURE_MOVES
        summary = run_experiment(cfg)
        assert " ".join(map(str, summary.best)) == TABLE_PHASE2_BEST
        assert format_mean(summary.best_mean) == TABLE_PHASE2_MEAN == "-2.95471"
        doc["phase2"]["script_moves"] = ""
        with pytest.raises(ConfigError, match="^phase2 script_moves must be a path, got ''$"):
            RunConfig.from_dict(doc)

    def test_pinned_master_seed_reproduces_the_printed_decisions(self):
        cfg = paper_replay_config()
        assert cfg.seed == REPLAY_MASTER_SEED
        summary = run_experiment(cfg)
        tags = {r.test_id: r.decision for r in summary.trace if r.phase == 2 and not r.reeval}
        assert tags[39] == "accepted-worse"
        assert tags[41] == "rejected-worse"
        assert tags[45] == "rejected-worse"
