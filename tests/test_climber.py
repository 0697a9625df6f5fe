from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca.climber import (
    SCOPE_ALL_PAIRS,
    SCOPE_FLANKING,
    Phase1Config,
    run_phase1,
    run_sweep,
)
from dca.constraints import NOT_INDUCED, AddOutcome
from dca.errors import ConfigError, ReplayMissError
from dca.evaluation import (
    CachingEvaluator,
    ExactOracle,
    FitnessEstimate,
    HiddenTargetLandscape,
    Oracle,
    ReplayOracle,
    SyntheticOracle,
    format_mean,
)
from dca.harness import FIXTURE_TABLE1_2, TABLE_BRACKETS, TABLE_CONSTRAINTS
from dca.perm import format_assignment, insertion_move, parse_assignment, rank_of
from dca.trace import RunContext

from references import adjacent_transposition_diff, dump_trace, reused_ranks, significant_difference

X0 = parse_assignment("11 2 3 10 9 6 4 5 7 8")
X34 = parse_assignment("2 3 5 4 8 10 11 9 6 7")

# Evidence test-id pairs for every induced constraint, read off the tables.
EXPECTED_EVIDENCE = {
    (10, 11): (2, 3),
    (11, 9): (3, 4),
    (2, 3): (3, 5),
    (3, 10): (3, 6),
    (3, 6): (13, 14),
    (6, 10): (14, 15),
    (4, 10): (18, 19),
    (5, 4): (22, 23),
    (4, 7): (27, 28),
    (7, 10): (28, 29),
    (4, 8): (33, 34),
    (8, 10): (34, 35),
}
# Bracket evidence pairs are rank-ordered: the {2,10} pair reads (7, 6)
# because rank 1 was the fresh test 7 and rank 2 reused test 6.
EXPECTED_BRACKET_EVIDENCE = {
    frozenset({2, 10}): (7, 6),
    frozenset({6, 9}): (3, 11),
    frozenset({3, 4}): (17, 18),
    frozenset({3, 5}): (21, 22),
}


@pytest.fixture(scope="module")
def replay_result(fixtures_dir):
    oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2)
    run, evaluator = RunContext(), CachingEvaluator(oracle)
    result = run_phase1(X0, evaluator, Phase1Config(), run=run)
    return result, run, evaluator


def unit_landscape(target, sigma=0.0):
    return HiddenTargetLandscape(target=tuple(target), weights={e: 1.0 for e in target}, sigma=sigma)


class TestSweepBoundaries:
    def test_element_11_stops_after_rank_5(self, replay_result):
        sweep = replay_result[0].sweeps[0]
        assert sweep.element == 11
        assert sweep.stop_rank == 5
        assert sweep.fresh_ranks == [2, 3, 4, 5]
        assert reused_ranks(sweep) == [1]
        assert sweep.best_rank == 4
        assert format_mean(sweep.probes[sweep.best_rank].mean) == "-3.89289"

    def test_element_2_stops_immediately_after_its_own_position(self, replay_result):
        sweep = replay_result[0].sweeps[1]
        assert sweep.element == 2
        assert sweep.stop_rank == 2
        assert sweep.best_rank == 1

    def test_element_3_reuses_the_earlier_swap_test(self, replay_result):
        sweep = replay_result[0].sweeps[2]
        assert sweep.element == 3
        assert sweep.fresh_ranks == [3]
        assert reused_ranks(sweep) == [1, 2]

    def test_element_10_evaluates_one_new_test_only(self, replay_result):
        sweep = replay_result[0].sweeps[3]
        assert sweep.element == 10
        assert sweep.fresh_ranks == [1]
        assert reused_ranks(sweep) == [2, 3, 4]
        assert sweep.stop_rank == 4
        assert sweep.best_rank == 3  # stays put: the incumbent wins

    def test_element_9_interleaves_new_and_reused_ranks(self, replay_result):
        sweep = replay_result[0].sweeps[4]
        assert sweep.element == 9
        assert sweep.fresh_ranks == [1, 2, 3, 6]
        assert reused_ranks(sweep) == [4, 5]
        assert sweep.stop_rank == 6
        assert sweep.best_rank == 5  # incumbent position

    def test_element_6_stops_after_rank_4_without_improving(self, replay_result):
        result = replay_result[0]
        sweep = result.sweeps[5]
        assert sweep.element == 6
        assert sweep.stop_rank == 4
        assert sweep.fresh_ranks == [1, 2, 3, 4]
        assert sweep.best_rank == 3
        assert format_mean(sweep.probes[3].mean) == "-3.98894"
        # Peak below the incumbent: the global best is unchanged by this sweep.
        assert sweep.probes[3].mean < -3.89289

    def test_element_7_stops_after_rank_6(self, replay_result):
        sweep = replay_result[0].sweeps[8]
        assert sweep.element == 7
        assert sweep.stop_rank == 6
        assert sweep.fresh_ranks == [1, 2, 3, 4, 5, 6]

    def test_first_rank_dip_does_not_stop_a_sweep(self, replay_result):
        # Elements 9 and 8 both dip at rank 2 with no left context and continue.
        for index, element in ((4, 9), (9, 8)):
            sweep = replay_result[0].sweeps[index]
            assert sweep.element == element
            assert sweep.probes[2].mean < sweep.probes[1].mean
            assert sweep.stop_rank > 2

    def test_exactly_36_distinct_evaluations_in_table_order(self, replay_result, fixtures_dir):
        _, run, evaluator = replay_result
        assert evaluator.fresh_evaluations == 36
        assert [r.test_id for r in run.records] == list(range(36))
        fixture_lines = (fixtures_dir / FIXTURE_TABLE1_2).read_text().splitlines()[1:]
        fixture_order = [line.split("|")[0].strip() for line in fixture_lines]
        assert [format_assignment(r.assignment) for r in run.records] == fixture_order

    def test_baseline_runs_at_its_own_budget(self, replay_result):
        _, run, _ = replay_result
        assert run.records[0].n_games == 2000
        assert all(r.n_games == 1000 for r in run.records[1:])

    @given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=2, max_size=12), st.data())
    def test_best_ranks_equal_the_loops_they_replaced(self, rows, data):
        # Integer means from a small range, so most sweeps hold ties. Rank r's
        # mean is rows[r - 1][0]; a rank whose flag is set is estimated before
        # the sweep, so the sweep reuses it.
        baseline = tuple(range(1, len(rows) + 1))
        element = data.draw(st.sampled_from(baseline))
        means = [float(mean) for mean, _ in rows]

        class RankMeans(Oracle):
            def evaluate(self, x, n_games):
                return FitnessEstimate(means[rank_of(x, element) - 1], 0.0, n_games)

        evaluator = CachingEvaluator(RankMeans())
        for rank, (_, cached) in enumerate(rows, start=1):
            if cached:
                evaluator.estimate(insertion_move(baseline, element, rank), 1)
        start = FitnessEstimate(means[element - 1], 0.0, 1)
        sweep = run_sweep(element, baseline, start, evaluator, Phase1Config(n_games=1), RunContext())
        probes = sweep.probes
        best_rank = min(probes)
        for rank in sorted(probes):
            if probes[rank].mean > probes[best_rank].mean:
                best_rank = rank
        # Fresh: neither estimated before the sweep nor the element's own rank.
        fresh_ranks = [r for r in sorted(probes) if not rows[r - 1][1] and r != element]
        best_new_rank = None
        for rank in fresh_ranks:
            if best_new_rank is None or probes[rank].mean > probes[best_new_rank].mean:
                best_new_rank = rank
        assert (sweep.best_rank, sweep.best_new_rank, sweep.fresh_ranks) == (best_rank, best_new_rank, fresh_ranks)


class TestInduction:
    def test_element_11_sweep_adds_both_flanking_constraints(self, replay_result):
        result = replay_result[0]
        first = [d for d in result.decisions if d.tests[1] <= 4]
        assert [(d.pair(), d.outcome) for d in first] == [
            ((10, 11), "added"),
            ((11, 9), "added"),
        ]
        gaps = [d.gap for d in first]
        assert gaps == [pytest.approx(0.14811), pytest.approx(0.17639)]

    def test_element_4_sweep_brackets_then_adds(self, replay_result):
        result = replay_result[0]
        sweep4 = [d for d in result.decisions if 16 <= d.tests[1] <= 19]
        assert len(sweep4) == 2
        bracket, added = sweep4
        assert bracket.outcome == NOT_INDUCED
        assert frozenset(bracket.pair()) == frozenset({3, 4})
        assert bracket.gap == pytest.approx(0.02878)
        assert added.pair() == (4, 10)
        assert added.gap == pytest.approx(0.11003)

    def test_element_8_sweep_adds_both_with_tight_gate(self, replay_result):
        result = replay_result[0]
        sweep8 = [d for d in result.decisions if d.tests[1] >= 30]
        assert [(d.pair(), d.outcome) for d in sweep8] == [
            ((4, 8), "added"),
            ((8, 10), "added"),
        ]
        assert sweep8[0].gap == pytest.approx(0.18663)
        assert sweep8[1].gap == pytest.approx(0.06896)
        assert sweep8[1].threshold == pytest.approx(0.057369)

    def test_keystone_twelve_constraints_four_brackets_nothing_else(self, replay_result):
        result = replay_result[0]
        induced = [d for d in result.decisions if d.induced]
        assert [d.pair() for d in induced] == list(TABLE_CONSTRAINTS)
        assert result.graph.edge_pairs() == set(TABLE_CONSTRAINTS)
        brackets = [d for d in result.decisions if d.outcome == NOT_INDUCED]
        assert {frozenset(d.pair()) for d in brackets} == set(TABLE_BRACKETS)
        assert len(result.decisions) == 16  # nothing beyond the 12 + 4

    def test_evidence_test_pairs_match_the_tables(self, replay_result):
        result = replay_result[0]
        for d in result.decisions:
            if d.induced:
                assert d.tests == EXPECTED_EVIDENCE[d.pair()]
            else:
                key = frozenset(d.pair())
                assert d.tests == EXPECTED_BRACKET_EVIDENCE[key]

    def test_phase1_best_is_the_test_34_assignment(self, replay_result):
        result = replay_result[0]
        assert result.best == X34
        assert format_mean(result.best_estimate.mean) == "-3.12261"

    def test_annotations_land_on_the_later_test_row(self, replay_result):
        _, run, _ = replay_result
        annotated = {r.test_id: [(n.before, n.after, n.induced) for n in r.annotations]
                     for r in run.records if r.annotations}
        assert annotated[3] == [(10, 11, True)]
        assert annotated[4] == [(11, 9, True)]
        assert annotated[5] == [(2, 3, True)]
        assert len(annotated[7]) == 1 and annotated[7][0][2] is False
        assert set(annotated[7][0][:2]) == {2, 10}
        assert {tuple(sorted(n[:2])) for n in annotated[11]} == {(6, 9)}
        assert annotated[34] == [(4, 8, True)]
        assert annotated[35] == [(8, 10, True)]

    def test_every_submitted_constraint_involves_the_sweep_element(self, replay_result):
        result, run, _ = replay_result
        for sweep, expected_element in zip(result.sweeps, (11, 2, 3, 10, 9, 6, 4, 5, 7, 8)):
            assert sweep.element == expected_element
        for d in result.decisions:
            # the sweep that produced it holds both tests at neighbouring ranks
            assert any(
                (run.ids[sweep.probe(lo)], run.ids[sweep.probe(lo + 1)]) == d.tests
                and sweep.element in d.pair()
                for sweep in result.sweeps
                for lo in sweep.probes
                if lo + 1 in sweep.probes
            )


@pytest.fixture(scope="module")
def all_pairs_result(fixtures_dir):
    oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2)
    config = Phase1Config(induction_scope="all-pairs")
    return run_phase1(X0, CachingEvaluator(oracle), config)


class TestAllPairsScope:
    def test_contradicting_pair_is_cycle_rejected(self, all_pairs_result):
        outcomes = {
            d.pair(): d.outcome
            for d in all_pairs_result.decisions
            if d.pair() == (9, 2)
        }
        assert outcomes == {(9, 2): AddOutcome.CYCLE_REJECTED.value}

    def test_implied_pair_is_redundant(self, all_pairs_result):
        outcomes = [
            d.outcome for d in all_pairs_result.decisions if d.pair() == (3, 9)
        ]
        assert outcomes == [AddOutcome.REDUNDANT.value]

    def test_trajectory_is_unchanged_by_scope(self, all_pairs_result, fixtures_dir):
        assert all_pairs_result.best == X34
        evaluator = CachingEvaluator(ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2))
        run_phase1(X0, evaluator, Phase1Config(induction_scope="all-pairs"))
        assert evaluator.fresh_evaluations == 36

    def test_scope_over_induces_relative_to_flanking(self, all_pairs_result):
        added = {d.pair() for d in all_pairs_result.decisions if d.induced}
        assert {(6, 2), (2, 4), (3, 8)} <= added  # not part of the printed set


class TestNoiseGate:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(3, 12).flatmap(
            lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))
        ),
        st.sampled_from([SCOPE_FLANKING, SCOPE_ALL_PAIRS]),
        st.sampled_from([0.5, 1.0, 3.0]),
        st.sampled_from([None, 0.5, 2.0]),
        st.integers(0, 2**16),
    )
    def test_each_decision_is_an_adjacent_swap_gated_by_its_two_rows(
        self, start_target, scope, tau, sigma, seed
    ):
        # sigma None is the exact oracle: unit weights give exact ties, gap = threshold = 0.
        start, target = start_target
        landscape = unit_landscape(target, sigma=sigma or 0.0)
        oracle = ExactOracle(landscape) if sigma is None else SyntheticOracle(landscape, seed=seed)
        config = Phase1Config(n_games=20, n_games_baseline=40, tau=tau, induction_scope=scope)
        run = RunContext()
        result = run_phase1(tuple(start), CachingEvaluator(oracle), config, run=run)
        rows = {r.test_id: r for r in run.records}
        for c in result.decisions:
            a, b = (rows[t] for t in c.tests)
            diff = adjacent_transposition_diff(a.assignment, b.assignment)
            assert diff is not None and set(diff[0]) == {c.before, c.after}
            assert (c.outcome == NOT_INDUCED) == (not significant_difference(a, b, tau))


class TwoLaneOracle(ExactOracle):
    """An exact oracle with two lanes and no sweep table: records each probe tested and sent ahead."""

    lanes = 2

    def __init__(self, landscape):
        super().__init__(landscape)
        self.evaluated, self.sent = [], []

    def evaluate(self, x, n_games=1):
        self.evaluated.append((x, n_games))
        return super().evaluate(x, n_games)

    def prefetch(self, x, n_games):
        self.sent.append((x, n_games))
        return True

    def sweep(self, baseline, element):
        return None


class TestSplicedProbes:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_probe_is_the_insertion_move(self, data):
        n = data.draw(st.integers(2, 80), label="n")
        ids = data.draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n, unique=True), label="ids")
        target = tuple(data.draw(st.permutations(ids), label="target"))
        where = data.draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)), label="position")
        element = ids[where]
        weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n), label="weights")
        scope = data.draw(st.sampled_from([SCOPE_FLANKING, SCOPE_ALL_PAIRS]), label="scope")
        oracle = TwoLaneOracle(HiddenTargetLandscape(target, dict(zip(target, weights))))
        baseline = tuple(ids)
        config = Phase1Config(element_order=[element], induction_scope=scope)
        run = RunContext()
        result = run_phase1(baseline, CachingEvaluator(oracle), config, run=run)
        sweep = result.sweeps[0]
        for rank in sweep.probes:
            assert sweep.probe(rank) == insertion_move(baseline, element, rank)
        probes = [sweep.probe(r) for r in sweep.fresh_ranks]
        assert [x for x, _ in oracle.evaluated] == [baseline, *probes]
        # Each decision cites the ids `run.add` gave its two probes: the
        # element just before and just after the other element of its pair.
        given = {r.assignment: r.test_id for r in run.records}
        others = tuple(e for e in baseline if e != element)
        for d in result.decisions:
            lo = others.index(d.after if d.before == element else d.before) + 1
            pair = (insertion_move(baseline, element, lo), insertion_move(baseline, element, lo + 1))
            assert d.tests == tuple(given[x] for x in pair)
        # A single sweep sends ahead only what it then tests: the baseline, the first probe, and
        # the probes at ranks the stop rule has already made certain.
        assert oracle.sent and set(oracle.sent) <= set(oracle.evaluated)
        for x, _ in oracle.sent:
            assert x == insertion_move(baseline, element, x.index(element) + 1)


class TestClimbingProperties:
    def test_global_best_mean_never_decreases(self, fixtures_dir):
        oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2)
        evaluator = CachingEvaluator(oracle)
        run = RunContext()
        result = run_phase1(X0, evaluator, run=run)
        best_so_far = None
        for sweep in result.sweeps:
            sweep_best = sweep.probes[sweep.best_rank].mean
            current = sweep_best if best_so_far is None else max(best_so_far, sweep_best)
            assert best_so_far is None or current >= best_so_far
            best_so_far = current
        assert result.best_estimate.mean == max(r.mean for r in run.records)

    def test_no_assignment_evaluated_twice_at_one_tier(self):
        landscape = unit_landscape((3, 1, 4, 2, 5), sigma=0.8)
        evaluator = CachingEvaluator(SyntheticOracle(landscape, seed=11))
        run = RunContext()
        run_phase1((1, 2, 3, 4, 5), evaluator, Phase1Config(n_games=200), run=run)
        keys = [(format_assignment(r.assignment), r.n_games) for r in run.records]
        assert len(keys) == len(set(keys))
        assert len(run.records) == evaluator.fresh_evaluations

    def test_identical_configs_yield_byte_identical_traces(self):
        landscape = unit_landscape((2, 4, 1, 3), sigma=1.0)

        def one_run():
            run = RunContext()
            run_phase1(
                (1, 2, 3, 4),
                CachingEvaluator(SyntheticOracle(landscape, seed=21)),
                Phase1Config(n_games=300),
                run=run,
            )
            return dump_trace(run.records)

        assert one_run() == one_run()

    def test_exact_oracle_n3_reaches_unique_optimum_from_anywhere(self):
        for target in permutations((1, 2, 3)):
            for start in permutations((1, 2, 3)):
                result = run_phase1(
                    tuple(start), CachingEvaluator(ExactOracle(unit_landscape(target)))
                )
                assert result.best == tuple(target), (target, start)

    def test_already_optimal_start_stays_put(self):
        landscape = unit_landscape((2, 3, 1, 4))
        result = run_phase1((2, 3, 1, 4), CachingEvaluator(ExactOracle(landscape)))
        assert result.best == (2, 3, 1, 4)
        assert all(
            sweep.probes[sweep.best_rank].mean <= result.best_estimate.mean
            for sweep in result.sweeps
        )

    def test_insertion_beats_or_ties_swap_climbing_up_to_n4(self):
        # Deterministic at this size: exhaustively, the sweep search never
        # loses to running adjacent swaps to a local optimum. (At n >= 5 the
        # peak-stop heuristic can stop early and lose occasionally, so the
        # claim is only statistical there; see the test below.)
        def swap_climb(x, fit):
            cur = tuple(x)
            while True:
                best, best_f = None, fit(cur)
                for i in range(len(cur) - 1):
                    y = list(cur)
                    y[i], y[i + 1] = y[i + 1], y[i]
                    f = fit(tuple(y))
                    if f > best_f:
                        best, best_f = tuple(y), f
                if best is None:
                    return cur
                cur = best

        for target in permutations((1, 2, 3, 4)):
            landscape = unit_landscape(target)
            for start in permutations((1, 2, 3, 4)):
                result = run_phase1(tuple(start), CachingEvaluator(ExactOracle(landscape)))
                reference = swap_climb(start, landscape.true_fitness)
                assert landscape.true_fitness(result.best) >= landscape.true_fitness(reference)

    def test_insertion_rarely_loses_to_swap_climbing_at_n5_n6(self):
        def swap_climb(x, fit):
            cur = tuple(x)
            while True:
                best, best_f = None, fit(cur)
                for i in range(len(cur) - 1):
                    y = list(cur)
                    y[i], y[i + 1] = y[i + 1], y[i]
                    f = fit(tuple(y))
                    if f > best_f:
                        best, best_f = tuple(y), f
                if best is None:
                    return cur
                cur = best

        rng = random.Random(4)
        losses = 0
        trials = 300
        for _ in range(trials):
            n = rng.randint(5, 6)
            target = rng.sample(range(1, n + 1), n)
            start = tuple(rng.sample(range(1, n + 1), n))
            landscape = unit_landscape(target)
            result = run_phase1(start, CachingEvaluator(ExactOracle(landscape)))
            reference = swap_climb(start, landscape.true_fitness)
            if landscape.true_fitness(result.best) < landscape.true_fitness(reference):
                losses += 1
        assert losses <= trials * 0.05

    def test_oracle_errors_carry_the_partial_trace(self, fixtures_dir, tmp_path):
        fixture = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2)
        truncated = ReplayOracle(dict(list(fixture.records.items())[:5]))
        run = RunContext()
        with pytest.raises(ReplayMissError):
            run_phase1(X0, CachingEvaluator(truncated), run=run)
        assert len(run.records) == 5

    def test_bad_element_order_rejected(self):
        # A repeat or an element outside the assignment is refused before the baseline test.
        landscape = unit_landscape((1, 2, 3))
        for order in ([1, 1, 2], [1, 9]):
            evaluator, run = CachingEvaluator(ExactOracle(landscape)), RunContext()
            with pytest.raises(ConfigError, match="element order"):
                run_phase1((1, 2, 3), evaluator, Phase1Config(element_order=order), run=run)
            assert evaluator.fresh_evaluations == 0 and run.records == []

    def test_custom_element_order_is_respected(self):
        landscape = unit_landscape((3, 2, 1))
        result = run_phase1(
            (1, 2, 3),
            CachingEvaluator(ExactOracle(landscape)),
            Phase1Config(element_order=[3, 1]),
        )
        assert [sweep.element for sweep in result.sweeps] == [3, 1]
