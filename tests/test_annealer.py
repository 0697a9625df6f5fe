from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dca.annealer import (
    POOL_ROUNDS,
    InsertionProposer,
    Phase2Config,
    ScriptedProposer,
    acceptance_probability,
    load_scripted_moves,
    run_phase2,
)
from dca.constraints import ConstraintGraph, RankConstraint, count_linear_extensions
from dca.errors import ConfigError, IncompatibleAssignmentsError, InvalidTemperatureError
from dca.evaluation import (
    CachingEvaluator,
    ExactOracle,
    FitnessEstimate,
    HiddenTargetLandscape,
    Oracle,
    ReplayOracle,
    format_mean,
)
from dca.harness import (
    FIXTURE_MOVES,
    FIXTURE_TABLE3,
    REPLAY_MASTER_SEED,
    RunConfig,
    brute_force_optimum,
    derive_seed,
    run_experiment,
)
from dca.perm import InsertionNeighborhood, insertion_move, parse_assignment
from dca.trace import RunContext

from references import dump_trace, materialised_insertion_neighbors

X34 = parse_assignment("2 3 5 4 8 10 11 9 6 7")
X44 = parse_assignment("5 4 2 3 7 6 8 10 11 9")

# Frozen from a 50-digit evaluation of exp(-delta/T) at the printed means.
P39 = 0.908334244765
P41_ROW_CONSISTENT = 0.253396455236
P45 = 0.368247504614


def unit_landscape(target, sigma=0.0):
    return HiddenTargetLandscape(target=tuple(target), weights={e: 1.0 for e in target}, sigma=sigma)


def topological_orders_sample(g, k, seed, elements=None):
    """k linear extensions of `g`, each a Kahn peel with a seeded uniform pick among the ready elements."""
    elems = sorted(g.nodes) if elements is None else list(elements)
    preds = {e: {a for a, b in g.edge_pairs() if b == e and a in elems} for e in elems}
    rng = np.random.default_rng(seed)
    orders = []
    for _ in range(k):
        order: list[int] = []
        remaining = list(elems)
        while remaining:
            ready = [e for e in remaining if preds[e] <= set(order)]
            pick = ready[int(rng.integers(len(ready)))]
            remaining.remove(pick)
            order.append(pick)
        orders.append(tuple(order))
    return orders


class RecountProposer(InsertionProposer):
    """The proposer before delta scoring: each draw is taken from a
    materialised list of neighbours and its violations are recounted."""

    def propose(self, current, graph):
        neighbors = materialised_insertion_neighbors(current)
        limit = graph.violations(current)

        def pick(scored):
            admissible = [(v, move, x) for v, move, x in scored if v <= limit]
            if not admissible:
                return None
            best_v = min(v for v, _, _ in admissible)
            finalists = [(move, x) for v, move, x in admissible if v == best_v]
            return finalists[int(self.rng.integers(len(finalists)))]

        drawn = []
        for _ in range(POOL_ROUNDS):
            draws = [neighbors[int(i)] for i in self.rng.integers(len(neighbors), size=self.pool_size)]
            scored = [(graph.violations(x), move, x) for move, x in draws]
            found = pick(scored)
            if found is not None:
                return found
            drawn += scored
        found = pick([(graph.violations(x), move, x) for move, x in neighbors])
        if found is not None:
            return found
        _, move, x = min(drawn, key=lambda s: s[0])
        return move, x


class TestAcceptanceProbability:
    def test_worse_candidate_at_t007(self):
        assert acceptance_probability(-3.05126, -3.05799, 0.07) == pytest.approx(P39, abs=1e-9)
        assert abs(acceptance_probability(-3.05126, -3.05799, 0.07) - 0.90833) <= 5e-6

    def test_worse_candidate_at_t001(self):
        assert acceptance_probability(-2.95471, -2.96470, 0.01) == pytest.approx(P45, abs=1e-9)
        assert abs(acceptance_probability(-2.95471, -2.96470, 0.01) - 0.36825) <= 5e-6

    def test_row_consistent_value_for_the_printed_outlier(self):
        # The recorded table shows 0.31854 here, which matches the previous
        # row's temperature (0.06); at this row's own 0.05 the formula gives
        # the value below.
        p = acceptance_probability(-3.04399, -3.11263, 0.05)
        assert p == pytest.approx(P41_ROW_CONSISTENT, abs=1e-9)
        assert acceptance_probability(-3.04399, -3.11263, 0.06) == pytest.approx(0.31854, abs=5e-6)

    def test_better_or_equal_is_certain(self):
        assert acceptance_probability(-3.0, -2.5, 0.05) == 1.0
        assert acceptance_probability(-3.0, -3.0, 0.05) == 1.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(InvalidTemperatureError):
            acceptance_probability(-1.0, -2.0, 0.0)
        with pytest.raises(InvalidTemperatureError):
            acceptance_probability(-1.0, -2.0, -0.1)

    # Ranges keep delta/T below ~50 so exp stays clear of float underflow;
    # deficits are kept either exactly zero or large enough that exp(-d/T)
    # is representably below one.
    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=0.5, max_value=10, allow_nan=False),
    )
    def test_always_in_unit_interval(self, current, candidate, temperature):
        assume(current == candidate or abs(current - candidate) > 1e-9)
        p = acceptance_probability(current, candidate, temperature)
        assert 0.0 < p <= 1.0
        assert (p == 1.0) == (current - candidate <= 0)

    @given(
        st.floats(min_value=1e-3, max_value=5, allow_nan=False),
        st.floats(min_value=0.2, max_value=2, allow_nan=False),
        st.floats(min_value=0.2, max_value=2, allow_nan=False),
    )
    @example(3.991457550546564, 0.2, 0.20000000000000004)
    def test_monotone_in_temperature_and_deficit(self, delta, t_low, t_high):
        t_low, t_high = sorted((t_low, t_high))
        p_cold = acceptance_probability(0.0, -delta, t_low)
        p_warm = acceptance_probability(0.0, -delta, t_high)
        assert p_cold <= p_warm
        # Temperatures a few ulps apart (0.2 and 0.2 + 2**-54, say) can round
        # to one probability, so strictness is asserted only past that.
        if t_high - t_low > 1e-9:
            assert p_cold < p_warm
        assert acceptance_probability(0.0, -2 * delta, t_low) < p_cold


class TestTemperatureSchedule:
    def test_default_endpoints(self):
        config = Phase2Config()
        assert config.temperature(0) == pytest.approx(0.10)
        assert config.temperature(9) == pytest.approx(0.01)

    def test_constant_schedule(self):
        config = Phase2Config(t0=0.3, dt=0.0, steps=5)
        assert [config.temperature(k) for k in range(5)] == [0.3] * 5

    def test_index_out_of_range(self):
        config = Phase2Config()
        with pytest.raises(InvalidTemperatureError):
            config.temperature(10)
        with pytest.raises(InvalidTemperatureError):
            config.temperature(-1)

    def test_schedule_reaching_zero_rejected_before_any_evaluation(self):
        with pytest.raises(ConfigError):
            Phase2Config(t0=0.10, dt=0.02, steps=10).validate()

    def test_paper_defaults_are_valid(self):
        Phase2Config().validate()


class TestInsertionProposer:
    def test_feasible_current_yields_feasible_candidates(self, g12):
        rng = np.random.default_rng(3)
        proposer = InsertionProposer(rng, pool_size=8)
        for _ in range(200):
            _, candidate = proposer.propose(X44, g12)
            assert g12.violations(candidate) == 0

    def test_never_worse_than_current_violation_count(self, g12):
        rng = np.random.default_rng(17)
        proposer = InsertionProposer(rng, pool_size=8)
        for _ in range(1000):
            _, candidate = proposer.propose(X34, g12)
            assert g12.violations(candidate) <= 2

    def test_filter_admits_exactly_the_feasible_neighbors(self):
        g = ConstraintGraph()
        g.try_add(RankConstraint(1, 2))
        current = (1, 2, 3)
        feasible = {
            x for _, x in materialised_insertion_neighbors(current) if g.violations(x) == 0
        }
        assert feasible == {(1, 3, 2), (3, 1, 2)}
        proposer = InsertionProposer(np.random.default_rng(5), pool_size=4)
        seen = set()
        for _ in range(300):
            _, candidate = proposer.propose(current, g)
            seen.add(candidate)
        assert seen == feasible

    def test_single_extension_region_falls_back_to_least_violating(self):
        # A total chain leaves no feasible neighbor at all; the bounded
        # fallback must still produce a proposal, necessarily one swap out.
        g = ConstraintGraph()
        g.try_add(RankConstraint(1, 2))
        g.try_add(RankConstraint(2, 3))
        proposer = InsertionProposer(np.random.default_rng(1), pool_size=4)
        _, candidate = proposer.propose((1, 2, 3), g)
        assert g.violations(candidate) == 1

    def test_dry_pools_end_in_a_seeded_full_scan(self, monkeypatch):
        # A chain over 1..6 leaves only the moves of element 7 admissible
        # (6 of 36 neighbours), so single-draw pools often run dry and the
        # proposer scans the whole neighbourhood: more move lookups than
        # the 8 single-draw pools make.
        lookups = []
        move_at = InsertionNeighborhood.move_at

        def counting(self, index):
            lookups.append(index)
            return move_at(self, index)

        monkeypatch.setattr(InsertionNeighborhood, "move_at", counting)
        g = ConstraintGraph()
        for a in range(1, 6):
            g.try_add(RankConstraint(a, a + 1))
        proposer = InsertionProposer(np.random.default_rng(2), pool_size=1)
        current, walk, scans = (7, 1, 2, 3, 4, 5, 6), [], 0
        for _ in range(24):
            lookups.clear()
            _, current = proposer.propose(current, g)
            scans += len(lookups) > POOL_ROUNDS
            walk.append(" ".join(map(str, current)))
        assert scans > 0
        assert walk == [
            "1 2 3 7 4 5 6", "1 2 3 4 5 6 7", "7 1 2 3 4 5 6", "1 7 2 3 4 5 6",
            "1 2 3 4 5 7 6", "1 7 2 3 4 5 6", "1 2 3 4 5 7 6", "1 2 3 4 5 6 7",
            "1 2 7 3 4 5 6", "7 1 2 3 4 5 6", "1 2 7 3 4 5 6", "1 2 3 4 5 6 7",
            "1 7 2 3 4 5 6", "1 2 3 4 7 5 6", "1 2 3 4 5 7 6", "1 2 7 3 4 5 6",
            "1 2 3 4 7 5 6", "1 2 3 7 4 5 6", "7 1 2 3 4 5 6", "1 2 3 4 7 5 6",
            "1 2 3 7 4 5 6", "1 7 2 3 4 5 6", "1 2 3 7 4 5 6", "1 2 3 4 5 6 7",
        ]

    @given(st.data())
    def test_never_increases_violations_unless_no_neighbor_stays_within(self, data):
        n = data.draw(st.integers(2, 40))
        order = data.draw(st.permutations(range(1, n + 1)))
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        )
        graph = ConstraintGraph()
        for i, j in pairs:
            if i < j:
                graph.try_add(RankConstraint(order[i], order[j]))
        current = tuple(data.draw(st.permutations(range(1, n + 1))))
        proposer = InsertionProposer(
            np.random.default_rng(data.draw(st.integers(0, 2**32))),
            pool_size=data.draw(st.integers(1, 8)),
        )
        limit = graph.violations(current)
        move, candidate = proposer.propose(current, graph)
        assert candidate == insertion_move(current, move.element, move.to_rank)
        if graph.violations(candidate) > limit:
            assert all(graph.violations(x) > limit for _, x in materialised_insertion_neighbors(current))

    def test_proposals_are_insertion_neighbors(self, g12):
        proposer = InsertionProposer(np.random.default_rng(11), pool_size=8)
        neighborhood = {x for _, x in materialised_insertion_neighbors(X34)}
        for _ in range(100):
            move, candidate = proposer.propose(X34, g12)
            assert candidate in neighborhood

    def test_lazy_neighborhood_draws_match_a_materialised_list(self):
        # n=40 under ~30 constraints consistent with a hidden order: the same
        # seed must walk through the same 200 proposals whether the proposer
        # scores moves by delta or materialises and recounts every draw.
        rnd = random.Random(40)
        order = list(range(1, 41))
        rnd.shuffle(order)
        graph = ConstraintGraph()
        while len(graph.edges()) < 30:
            i, j = sorted(rnd.sample(range(40), 2))
            graph.try_add(RankConstraint(order[i], order[j]))
        start = tuple(rnd.sample(order, 40))

        def walk(proposer_class, graph, start, steps, pool_size=8, seed=8):
            proposer = proposer_class(np.random.default_rng(seed), pool_size=pool_size)
            current, proposals = start, []
            for _ in range(steps):
                proposals.append(proposer.propose(current, graph))
                current = proposals[-1][1]
            return proposals

        lazy = walk(InsertionProposer, graph, start, 200)
        assert lazy == walk(RecountProposer, graph, start, 200)
        assert len(set(lazy)) > 100

        # Random graphs up to n=12, a third of them total chains, whose
        # extensions are dead ends with no neighbour inside the region.
        dead_ends = 0
        for case in range(60):
            n = rnd.randint(2, 12)
            order = rnd.sample(range(1, n + 1), n)
            graph = ConstraintGraph()
            if case % 3 == 0:
                for a, b in zip(order, order[1:]):
                    graph.try_add(RankConstraint(a, b))
            else:
                for _ in range(rnd.randint(0, 2 * n)):
                    i, j = sorted(rnd.sample(range(n), 2))
                    graph.try_add(RankConstraint(order[i], order[j]))
            start = tuple(order) if case % 2 == 0 else tuple(rnd.sample(order, n))
            args = (graph, start, 30, rnd.randint(1, 8), case)
            delta = walk(InsertionProposer, *args)
            assert delta == walk(RecountProposer, *args)
            current = start
            for _, candidate in delta:
                dead_ends += graph.violations(candidate) > graph.violations(current)
                current = candidate
        assert dead_ends > 0


class TestScriptedProposer:
    def test_replays_moves_in_order(self, fixtures_dir):
        moves = load_scripted_moves(fixtures_dir / FIXTURE_MOVES)
        proposer = ScriptedProposer(moves)
        _, first = proposer.propose(X34, ConstraintGraph())
        assert first == parse_assignment("2 5 3 4 8 10 11 9 6 7")

    def test_rejects_non_neighbor_scripts(self):
        proposer = ScriptedProposer([parse_assignment("7 6 9 11 10 8 4 5 3 2")])
        with pytest.raises(IncompatibleAssignmentsError):
            proposer.propose(X34, ConstraintGraph())

    def test_exhausted_script_is_an_error(self):
        proposer = ScriptedProposer([parse_assignment("2 5 3 4 8 10 11 9 6 7")])
        proposer.propose(X34, ConstraintGraph())
        with pytest.raises(ConfigError):
            proposer.propose(X34, ConstraintGraph())

    @pytest.mark.parametrize(
        "line, problem",
        [
            pytest.param("1 2 x", "unparseable assignment ['1', '2', 'x']", id="bad-id"),
            pytest.param("1 1 3", "duplicate elements in assignment (1, 1, 3)", id="repeated-element"),
            pytest.param("2 3\f1 x", "unparseable assignment ['2', '3', '1', 'x']", id="form-feed-in-one-line"),
        ],
    )
    def test_malformed_script_line_names_the_file_and_line(self, line, problem, tmp_path):
        bad = tmp_path / "bad.moves"
        bad.write_text(f"2 1 3\n\n{line}\n1 2 3\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{bad}:3: {problem}')}$"):
            load_scripted_moves(bad)


@pytest.fixture()
def table3_run(fixtures_dir, g12):
    oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE3)
    proposer = ScriptedProposer(load_scripted_moves(fixtures_dir / FIXTURE_MOVES))
    run = RunContext()
    run.next_id = 36  # continue numbering after the climbing phase
    run.ids[X34] = 34
    result = run_phase2(
        X34,
        CachingEvaluator(oracle),
        g12,
        Phase2Config(),
        proposer=proposer,
        acceptance_rng=np.random.default_rng(derive_seed(REPLAY_MASTER_SEED, "acceptance")),
        run=run,
    )
    return result, run


class TestScriptedTableReplay:
    def test_final_best_and_mean(self, table3_run):
        result, _ = table3_run
        assert result.best == X44
        assert format_mean(result.best_estimate.mean) == "-2.95471"

    def test_decisions_match_the_printed_markers(self, table3_run):
        _, run = table3_run
        steps = [r for r in run.records if not r.reeval]
        markers = {r.test_id: r.marker for r in steps}
        assert markers[39] == "accepted-worse"
        assert markers[41] == "rejected-worse"
        assert markers[45] == "rejected-worse"
        assert all(markers[i] == "star" for i in (36, 37, 38, 40, 42, 43, 44))

    def test_reevaluation_keeps_its_original_test_id(self, table3_run):
        _, run = table3_run
        reeval = run.records[0]
        assert reeval.reeval and reeval.test_id == 34
        assert reeval.n_games == 16000
        assert format_mean(reeval.mean) == "-3.14496"
        assert [r.test_id for r in run.records[1:]] == list(range(36, 46))

    def test_probabilities_match_the_row_consistent_formula(self, table3_run):
        _, run = table3_run
        by_id = {r.test_id: r for r in run.records if not r.reeval}
        assert by_id[39].probability == pytest.approx(P39, abs=1e-9)
        assert by_id[41].probability == pytest.approx(P41_ROW_CONSISTENT, abs=1e-9)
        assert by_id[45].probability == pytest.approx(P45, abs=1e-9)
        assert all(by_id[i].probability == 1.0 for i in (36, 37, 38, 40, 42, 43, 44))

    def test_temperatures_cool_linearly(self, table3_run):
        _, run = table3_run
        temps = [r.temperature for r in run.records if not r.reeval]
        assert temps == pytest.approx([0.10 - 0.01 * k for k in range(10)])

    def test_worse_but_accepted_updates_current_not_best(self, table3_run):
        result, run = table3_run
        # After test 39 the best is still the test-38 assignment; test 40
        # then takes over the star.
        steps = {r.test_id: r for r in run.records if not r.reeval}
        assert steps[39].decision == "accepted-worse"
        assert steps[39].mean < steps[38].mean
        assert steps[40].marker == "star"
        assert result.accepted_worse == 1
        assert result.rejected_worse == 2
        assert result.improved == 7

    def test_violations_of_current_never_increase(self, table3_run, g12):
        _, run = table3_run
        current = X34
        previous = g12.violations(current)
        for record in run.records[1:]:
            if record.decision in ("improved", "accepted-worse"):
                now = g12.violations(record.assignment)
                assert now <= previous
                previous = now
                current = record.assignment
        assert g12.violations(current) == 0

    def test_feasibility_trajectory_matches_the_table(self, table3_run, g12):
        _, run = table3_run
        viols = [g12.violations(r.assignment) for r in run.records]
        assert viols[:6] == [2, 2, 1, 1, 0, 0]
        assert all(v == 0 for v in viols[6:])


class TestAnnealingProperties:
    def test_zero_noise_constrained_optimum_found(self):
        # Random landscapes and random partial orders with at least two
        # linear extensions; the walk starts feasible and must end at the
        # best extension nearly always.
        hits = 0
        for seed in range(100):
            rng = random.Random(seed)
            n = 5
            target = tuple(rng.sample(range(1, n + 1), n))
            landscape = unit_landscape(target)
            while True:
                g = ConstraintGraph()
                for _ in range(4):
                    a, b = rng.sample(range(1, n + 1), 2)
                    g.try_add(RankConstraint(a, b))
                if count_linear_extensions(g, range(1, n + 1)) >= 2:
                    break
            start = topological_orders_sample(g, 1, seed=seed, elements=range(1, n + 1))[0]
            result = run_phase2(
                start,
                CachingEvaluator(ExactOracle(landscape)),
                g,
                Phase2Config(n_games_hi=1, pool_size=8, t0=0.6, dt=0.002, steps=250),
                proposer=InsertionProposer(np.random.default_rng(seed * 2 + 1), 8),
                acceptance_rng=np.random.default_rng(seed * 2),
            )
            _, optimum_mean = brute_force_optimum(landscape, g)
            hits += result.best_estimate.mean == optimum_mean
        assert hits >= 95

    def test_hot_flat_landscape_accepts_nearly_all_worse_candidates(self):
        tiny = HiddenTargetLandscape(
            target=(1, 2, 3, 4, 5, 6), weights={e: 0.001 for e in range(1, 7)}, sigma=0.0
        )
        result = run_phase2(
            (6, 5, 4, 3, 2, 1),
            CachingEvaluator(ExactOracle(tiny)),
            ConstraintGraph(),
            Phase2Config(n_games_hi=1, pool_size=4, t0=100.0, dt=0.0, steps=200),
            proposer=InsertionProposer(np.random.default_rng(8), 4),
            acceptance_rng=np.random.default_rng(9),
        )
        worse = result.accepted_worse + result.rejected_worse
        assert worse > 0
        assert result.accepted_worse / worse > 0.9

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_best_mean_is_monotone_over_steps(self, data):
        # Each row's marker follows from the rows before it: a phase-1 row is
        # starred when it beats every earlier row, the re-evaluation always
        # is, and a step is starred when it beats every earlier phase-2 row;
        # an unstarred step is marked with its decision. Phase 2's best is
        # its last starred row.
        n = data.draw(st.integers(2, 40), label="n")
        elements = st.permutations(range(1, n + 1))
        games = data.draw(st.integers(2, 64), label="games")
        doc = {
            "initial": data.draw(elements, label="initial"),
            "seed": data.draw(st.integers(0, 2**32), label="seed"),
            "oracle": {
                "kind": "synthetic",
                "target": data.draw(elements, label="target"),
                "weights": data.draw(
                    st.sampled_from([1.0, 0.05, [0.5 + k % 3 for k in range(n)]]), label="weights"
                ),
                "sigma": data.draw(st.sampled_from([0.0, 0.3, 1.9]), label="sigma"),
            },
            "phase1": {
                "games": games,
                "baseline_games": data.draw(st.sampled_from([games, 2 * games]), label="baseline"),
                "induction_scope": data.draw(st.sampled_from(["flanking", "all-pairs"]), label="scope"),
            },
            "phase2": {
                "games": data.draw(st.sampled_from([games, 4 * games]), label="games_hi"),
                "t0": data.draw(st.sampled_from([0.05, 0.5, 5.0]), label="t0"),
                "dt": 0.0,
                "steps": data.draw(st.integers(1, 25), label="steps"),
                "pool_size": data.draw(st.integers(1, 8), label="pool_size"),
            },
        }
        summary = run_experiment(RunConfig.from_dict(doc))
        phase1 = [r for r in summary.trace if r.phase == 1]
        reeval, *steps = [r for r in summary.trace if r.phase == 2]
        assert phase1[0].marker == "none"
        for i, row in enumerate(phase1[1:], start=1):
            beats = all(row.mean > r.mean for r in phase1[:i])
            assert row.marker == ("star" if beats else "none")
        assert reeval.reeval and reeval.marker == "star"
        assert len(steps) == doc["phase2"]["steps"]
        for i, row in enumerate(steps):
            if all(row.mean > r.mean for r in [reeval, *steps[:i]]):
                assert row.marker == "star"
            else:
                assert row.marker == ("none" if row.decision == "improved" else row.decision)
        last_star = [r for r in [reeval, *steps] if r.marker == "star"][-1]
        assert summary.phase2.best == last_star.assignment
        assert summary.phase2.best_estimate.mean == last_star.mean

    def test_identical_seeds_give_byte_identical_traces(self):
        landscape = unit_landscape((3, 1, 2, 4), sigma=0.7)
        from dca.evaluation import SyntheticOracle

        def one_run():
            run = RunContext()
            run_phase2(
                (1, 2, 3, 4),
                CachingEvaluator(SyntheticOracle(landscape, seed=6)),
                ConstraintGraph(),
                Phase2Config(n_games_hi=32, pool_size=4, t0=0.2, dt=0.002, steps=30),
                proposer=InsertionProposer(np.random.default_rng(7), 4),
                acceptance_rng=np.random.default_rng(8),
                run=run,
            )
            return dump_trace(run.records)

        assert one_run() == one_run()

    def test_shifting_all_means_preserves_the_decision_pattern(self):
        class Shifted(Oracle):
            def __init__(self, base: Oracle, offset: float):
                self.base, self.offset = base, offset

            def evaluate(self, x, n_games):
                est = self.base.evaluate(x, n_games)
                return FitnessEstimate(est.mean + self.offset, est.se, est.n_games)

        landscape = unit_landscape((2, 4, 1, 5, 3), sigma=0.4)
        from dca.evaluation import SyntheticOracle

        def decisions(offset):
            run = RunContext()
            run_phase2(
                (1, 2, 3, 4, 5),
                CachingEvaluator(Shifted(SyntheticOracle(landscape, seed=10), offset)),
                ConstraintGraph(),
                Phase2Config(n_games_hi=64, pool_size=4, t0=0.3, dt=0.005, steps=30),
                proposer=InsertionProposer(np.random.default_rng(11), 4),
                acceptance_rng=np.random.default_rng(12),
                run=run,
            )
            return [(r.decision, r.assignment) for r in run.records if not r.reeval]

        assert decisions(0.0) == decisions(7.5)


@pytest.mark.parametrize("lanes", [1, 2])
def test_a_graph_element_missing_from_the_start_fails_before_any_request(lanes):
    class Counting(Oracle):
        def __init__(self):
            self.lanes, self.evaluated, self.prefetched = lanes, 0, 0

        def evaluate(self, x, n_games):
            self.evaluated += 1
            return FitnessEstimate(0.0, 0.1, n_games)

        def prefetch(self, x, n_games):
            self.prefetched += 1
            return True

    oracle, run, graph = Counting(), RunContext(), ConstraintGraph()
    graph.try_add(RankConstraint(1, 9))
    with pytest.raises(IncompatibleAssignmentsError, match=r"graph elements \[9\] missing"):
        run_phase2(
            (1, 2, 3, 4),
            CachingEvaluator(oracle),
            graph,
            Phase2Config(),
            proposer=InsertionProposer(np.random.default_rng(1)),
            acceptance_rng=np.random.default_rng(2),
            run=run,
        )
    assert (oracle.evaluated, oracle.prefetched, run.records) == (0, 0, [])
