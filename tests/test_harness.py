from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import fields
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dca.harness

from dca.constraints import ConstraintGraph, RankConstraint, count_linear_extensions
from dca.errors import ConfigError, ReplayMissError
from dca.evaluation import HiddenTargetLandscape, ReplayFixture
from dca.harness import (
    FIXTURE_TABLE1_2,
    REPLAY_MASTER_SEED,
    RunConfig,
    brute_force_optimum,
    derive_seed,
    graph_from_trace,
    packaged_fixtures_dir,
    paper_replay_config,
    replay_verify,
    run_experiment,
)
from dca.trace import dump_trace, read_trace


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
        assert cfg.schedule.steps == 10
        assert cfg.phase2.n_games_hi == 8000
        cfg.validate()

    def test_absent_keys_keep_the_dataclass_defaults(self):
        cfg = RunConfig.from_dict(
            {"initial": "1 2", "seed": 1, "oracle": {"kind": "exact", "target": "1 2"}}
        )
        for part in (cfg.phase1, cfg.schedule, cfg.phase2):
            for f in fields(part):
                assert getattr(part, f.name) == f.default, f"{type(part).__name__}.{f.name}"
        assert cfg.oracle_phase2 is None and cfg.script_moves is None

    def test_unknown_top_level_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_dict(
                {"initial": "1 2", "seed": 1, "oracle": {"kind": "exact", "target": "1 2"},
                 "phases": {}}
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
        from dca.annealer import TemperatureSchedule

        cfg.schedule = TemperatureSchedule(t0=0.1, dt=0.02, steps=10)
        # The oracle spec is also broken; validation must trip first.
        cfg.oracle = {"kind": "replay", "path": "/nonexistent.replay"}
        with pytest.raises(ConfigError, match="temperature"):
            run_experiment(cfg)

    def test_unknown_oracle_kind(self):
        cfg = synthetic_config()
        cfg.oracle = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="oracle kind"):
            run_experiment(cfg)


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
        candidates = [p for p in permutations(elements) if g.satisfies(p)]
        assert len(candidates) == 1680
        assert count_linear_extensions(g, elements) == 1680
        best, _ = brute_force_optimum(unit_landscape((8, 7, 6, 5, 1, 2, 3, 4)), g)
        assert g.satisfies(best)

    def test_empty_graph_equals_unconstrained(self):
        landscape = unit_landscape((2, 1, 4, 3))
        assert brute_force_optimum(landscape) == brute_force_optimum(landscape, ConstraintGraph())

    def test_constrained_optimum_is_best_linear_extension(self):
        landscape = unit_landscape((4, 3, 2, 1))
        g = ConstraintGraph()
        g.try_add(RankConstraint(1, 2))
        best, mean = brute_force_optimum(landscape, g)
        assert g.satisfies(best)
        for p in permutations((1, 2, 3, 4)):
            if g.satisfies(p):
                assert landscape.true_fitness(p) <= mean


def reference_fitness(landscape, x):
    rank = dict(zip(x, range(1, len(x) + 1)))
    return -sum([landscape.weights[e] * abs(rank[e] - i) for i, e in enumerate(landscape.target, start=1)])


def reference_optimum(landscape, graph=None):
    """The loop brute_force_optimum replaces: one score per permutation, kept on a strict gain."""
    best, best_mean = None, -math.inf
    for perm in permutations(sorted(landscape.target)):
        if graph is not None and not graph.satisfies(perm):
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
            if (graph is None or graph.satisfies(p)) and reference_fitness(landscape, p) == mean
        ]
        assert best == min(ties)

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
        assert [r.to_dict() for r in parsed] == [r.to_dict() for r in summary.trace]

    def test_csv_export_parses_back(self, tmp_path):
        summary = run_experiment(synthetic_config(), out_dir=tmp_path / "out")
        with open(tmp_path / "out" / "trace.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(summary.trace)
        assert rows[0]["test_id"] == "0"
        assert {row["phase"] for row in rows} == {"1", "2"}

    def test_interrupted_run_leaves_a_parseable_trace_prefix(self, tmp_path):
        # An oracle failure mid-run must still leave complete, annotated
        # rows on disk in both trace files.
        fixture = ReplayFixture.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2)
        truncated = dict(list(fixture.records.items())[:8])
        fixture_path = tmp_path / "short.replay"
        ReplayFixture(records=truncated).save(fixture_path)
        cfg = paper_replay_config()
        cfg.oracle = {"kind": "replay", "path": str(fixture_path)}
        out = tmp_path / "out"
        with pytest.raises(ReplayMissError):
            run_experiment(cfg, out_dir=out)
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


class TestExportDag:
    def test_graph_rebuilt_from_trace(self, tmp_path):
        summary = run_experiment(paper_replay_config())
        rebuilt = graph_from_trace(summary.trace)
        assert rebuilt.edge_pairs() == summary.phase1.graph.edge_pairs()


class TestReplayVerify:
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

    def test_pinned_master_seed_reproduces_the_printed_decisions(self):
        cfg = paper_replay_config()
        assert cfg.seed == REPLAY_MASTER_SEED
        summary = run_experiment(cfg)
        tags = {r.test_id: r.decision for r in summary.trace if r.phase == 2 and not r.reeval}
        assert tags[39] == "accepted-worse"
        assert tags[41] == "rejected-worse"
        assert tags[45] == "rejected-worse"
