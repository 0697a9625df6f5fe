"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own report.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dca.annealer import Phase2Config, acceptance_probability
from dca.climber import Phase1Config, run_phase1
from dca.constraints import NOT_INDUCED, ConstraintGraph, RankConstraint
from dca.evaluation import (
    CachingEvaluator,
    HiddenTargetLandscape,
    ReplayOracle,
    format_mean,
)
from dca.harness import (
    FIXTURE_TABLE1_2,
    TABLE_BRACKETS,
    TABLE_CONSTRAINTS,
    RunConfig,
    brute_force_optimum,
    packaged_fixtures_dir,
    paper_replay_config,
    replay_verify,
    run_experiment,
)
from dca.perm import Assignment, format_assignment, insertion_move, parse_assignment, rank_of
from dca.trace import RunContext

from references import aggregate, dump_trace, reused_ranks

X0 = parse_assignment("11 2 3 10 9 6 4 5 7 8")
X34 = parse_assignment("2 3 5 4 8 10 11 9 6 7")
X44 = parse_assignment("5 4 2 3 7 6 8 10 11 9")

# Independent 50-digit evaluations of exp(-delta/T) at the printed means.
P39_EXPECTED = 0.908334244765
P41_ROW_CONSISTENT = 0.253396455236
P45_EXPECTED = 0.368247504614


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {label} ({time.perf_counter() - started:.2f}s)")
        raise
    print(f"[criterion {number}] PASS  {label} ({time.perf_counter() - started:.2f}s)")


def unit_landscape(target, sigma=0.0):
    return HiddenTargetLandscape(
        target=tuple(target), weights={e: 1.0 for e in target}, sigma=sigma
    )


def test_criterion_1_constraint_set_replay():
    with criterion(1, "constraint-set replay induces the 12 constraints and 4 brackets"):
        started = time.perf_counter()
        oracle = ReplayOracle.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2)
        result = run_phase1(X0, CachingEvaluator(oracle), Phase1Config())

        induced = [d.pair() for d in result.decisions if d.induced]
        assert set(induced) == set(TABLE_CONSTRAINTS)
        assert len(induced) == 12
        brackets = [d for d in result.decisions if d.outcome == NOT_INDUCED]
        assert len(brackets) == 4
        assert {frozenset(d.pair()) for d in brackets} == set(TABLE_BRACKETS)
        assert format_assignment(result.best) == "2 3 5 4 8 10 11 9 6 7"
        assert format_mean(result.best_estimate.mean) == "-3.12261"
        assert time.perf_counter() - started < 1.0


def test_criterion_2_sweep_boundary_replay():
    with criterion(2, "sweep boundaries and the 36-test evaluation sequence"):
        oracle = ReplayOracle.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2)
        run = RunContext()
        evaluator = CachingEvaluator(oracle)
        result = run_phase1(X0, evaluator, Phase1Config(), run=run)
        by_element = {sweep.element: sweep for sweep in result.sweeps}

        assert by_element[11].stop_rank == 5
        assert by_element[11].fresh_ranks == [2, 3, 4, 5]

        assert by_element[9].fresh_ranks == [1, 2, 3, 6]
        assert reused_ranks(by_element[9]) == [4, 5]
        assert by_element[9].stop_rank == 6

        assert by_element[6].stop_rank == 4
        assert by_element[7].stop_rank == 6

        assert evaluator.fresh_evaluations == 36
        assert [r.test_id for r in run.records] == list(range(36))


def test_criterion_3_acceptance_probability_law():
    with criterion(3, "Boltzmann acceptance values at the printed worse-candidate rows"):
        p39 = acceptance_probability(-3.05126, -3.05799, 0.07)
        assert abs(p39 - 0.90833) <= 5e-6

        p45 = acceptance_probability(-2.95471, -2.96470, 0.01)
        assert abs(p45 - 0.36825) <= 5e-6

        # The row-consistent value for the outlier row, frozen from an
        # independent high-precision evaluation of exp(-0.06864/0.05). The
        # recorded 0.31854 matches the previous row temperature instead,
        # and the replay report must carry that note.
        p41 = acceptance_probability(-3.04399, -3.11263, 0.05)
        assert abs(p41 - P41_ROW_CONSISTENT) <= 5e-6
        assert abs(p41 - 0.31854) > 5e-6

        report = replay_verify()
        assert any("test 41" in note for note in report.discrepancies)


def test_criterion_4_phase2_scripted_replay(g12):
    with criterion(4, "scripted annealing replay: tags, winner, and feasibility"):
        started = time.perf_counter()
        summary = run_experiment(paper_replay_config())

        steps = {r.test_id: r for r in summary.trace if r.phase == 2 and not r.reeval}
        assert steps[39].decision == "accepted-worse"
        assert steps[41].decision == "rejected-worse"
        assert steps[45].decision == "rejected-worse"

        assert summary.best == X44
        assert format_mean(summary.best_mean) == "-2.95471"
        assert g12.violations(X44) == 0
        assert g12.violations(X34) == 2
        assert time.perf_counter() - started < 1.0


def test_criterion_5_brute_force_equivalence_on_exact_landscapes():
    with criterion(5, "two-phase pipeline finds the exhaustive optimum on small exact landscapes"):
        started = time.perf_counter()
        for n in (4, 5, 6):
            hits = 0
            for seed in range(100):
                rng = random.Random(seed * 1000 + n)
                target = tuple(rng.sample(range(1, n + 1), n))
                start = tuple(rng.sample(range(1, n + 1), n))
                landscape = unit_landscape(target)
                cfg = RunConfig(
                    initial=start,
                    seed=seed,
                    oracle={
                        "kind": "exact",
                        "target": format_assignment(target),
                        "weights": 1.0,
                    },
                    phase2=Phase2Config(t0=0.10, dt=0.001, steps=40),
                )
                summary = run_experiment(cfg)
                assert summary.best_mean >= summary.phase1.best_estimate.mean
                optimum, optimum_mean = brute_force_optimum(landscape)
                hits += summary.best == optimum and summary.best_mean == optimum_mean
            assert hits >= 90, f"n={n}: optimum found in only {hits}/100 runs"
        assert time.perf_counter() - started < 60.0


def test_criterion_6_noisy_recovery_at_full_size():
    with criterion(6, "noisy pipeline lands in the top band of a sampled value range"):
        started = time.perf_counter()
        n = 10
        sigma = 0.06 * math.sqrt(1000)  # SE at 1000 games ~ 0.06
        improvements = []
        steps = 300
        t0 = 0.4
        phase2 = Phase2Config(t0=t0, dt=(t0 - 0.004) / (steps - 1), steps=steps)
        for seed in range(1234, 1254):
            rng = np.random.default_rng(seed)
            target = tuple(int(v) for v in rng.permutation(np.arange(1, n + 1)))
            start = tuple(int(v) for v in rng.permutation(np.arange(1, n + 1)))
            landscape = unit_landscape(target, sigma=sigma)
            cfg = RunConfig(
                initial=start,
                seed=seed,
                oracle={
                    "kind": "synthetic",
                    "target": format_assignment(target),
                    "weights": 1.0,
                    "sigma": sigma,
                },
                # Ranking ties are pure noise at this landscape's unit
                # weights, so the gate runs hot to keep them out of the graph.
                phase1=Phase1Config(tau=4.0),
                phase2=phase2,
            )
            summary = run_experiment(cfg)
            true_final = landscape.true_fitness(summary.best)
            true_phase1 = landscape.true_fitness(summary.phase1.best)
            improvements.append(true_final - true_phase1)

            samples = rng.permuted(np.tile(np.arange(1, n + 1), (100_000, 1)), axis=1)
            ranks = np.argsort(samples, axis=1) + 1
            target_ranks = np.empty(n, dtype=int)
            for position, element in enumerate(target, start=1):
                target_ranks[element - 1] = position
            fits = -np.abs(ranks - target_ranks).sum(axis=1).astype(float)
            threshold = fits.max() - 0.001 * (fits.max() - fits.min())
            assert true_final >= threshold, (
                f"seed {seed}: true fitness {true_final} below band {threshold:.3f}"
            )
        assert statistics.median(improvements) >= 0
        assert time.perf_counter() - started < 600.0


def test_criterion_7_statistics_and_invariants():
    with criterion(7, "aggregation, acyclicity, round-trips, and byte-stable traces"):
        # Aggregation against an independent two-pass reference.
        rng = random.Random(2718)
        for _ in range(200):
            batch = [rng.gauss(-3.0, 2.0) for _ in range(rng.randint(2, 400))]
            est = aggregate(batch)
            ref_mean = sum(batch) / len(batch)
            ref_var = sum((s - ref_mean) ** 2 for s in batch) / (len(batch) - 1)
            ref_se = math.sqrt(ref_var / len(batch))
            assert est.mean == pytest.approx(ref_mean, rel=1e-12, abs=1e-12)
            assert est.se == pytest.approx(ref_se, rel=1e-12, abs=1e-12)

        # A 10^4-edge random stream never makes the core set cyclic,
        # checked by an independent three-colour depth-first search.
        g = ConstraintGraph()
        for _ in range(10_000):
            a, b = rng.sample(range(1, 15), 2)
            g.try_add(RankConstraint(a, b))
        adjacency = {node: [] for node in g.nodes}
        for before, after in g.edge_pairs():
            adjacency[before].append(after)
        state: dict[int, int] = {}

        def has_cycle(node: int) -> bool:
            state[node] = 1
            for nxt in adjacency[node]:
                mark = state.get(nxt)
                if mark == 1:
                    return True
                if mark is None and has_cycle(nxt):
                    return True
            state[node] = 2
            return False

        assert not any(has_cycle(node) for node in adjacency if node not in state)

        # Insertion-move round trip at volume.
        for _ in range(10_000):
            size = rng.randint(2, 12)
            x: Assignment = tuple(rng.sample(range(1, size + 1), size))
            element = rng.choice(x)
            target_rank = rng.randint(1, size)
            original_rank = rank_of(x, element)
            moved = insertion_move(x, element, target_rank)
            assert insertion_move(moved, element, original_rank) == x

        # Identical configs give byte-identical traces.
        def run_once() -> str:
            cfg = RunConfig(
                initial=(5, 4, 3, 2, 1),
                seed=77,
                oracle={
                    "kind": "synthetic",
                    "target": "3 5 1 2 4",
                    "weights": 1.0,
                    "sigma": 0.7,
                },
            )
            return dump_trace(run_experiment(cfg).trace)

        assert run_once() == run_once()
