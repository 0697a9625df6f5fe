from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dca.constraints import (
    AddOutcome,
    ConstraintGraph,
    RankConstraint,
    count_linear_extensions,
    from_edge_list_text,
    to_dot,
    to_edge_list_text,
)
from dca.errors import IncompatibleAssignmentsError, InvalidConstraintError
from dca.harness import TABLE_CONSTRAINTS, paper_replay_config, run_experiment
from dca.perm import parse_assignment

from references import materialised_insertion_neighbors, satisfies

X34 = parse_assignment("2 3 5 4 8 10 11 9 6 7")
X44 = parse_assignment("5 4 2 3 7 6 8 10 11 9")


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


@st.composite
def edge_streams(draw, max_n=40):
    """(n, edges): a random stream of ordered pairs over elements 1..n, cycles and repeats included."""
    n = draw(st.integers(2, max_n))
    element = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(element, element).filter(lambda p: p[0] != p[1]), max_size=3 * n))
    return n, pairs


class TestTryAdd:
    def test_two_fresh_edges(self):
        g = ConstraintGraph()
        assert g.try_add(RankConstraint(10, 11)) is AddOutcome.ADDED
        assert g.try_add(RankConstraint(11, 9)) is AddOutcome.ADDED

    def test_three_cycle_rejected(self):
        g = ConstraintGraph()
        g.try_add(RankConstraint(10, 11))
        g.try_add(RankConstraint(11, 9))
        assert g.try_add(RankConstraint(9, 10)) is AddOutcome.CYCLE_REJECTED
        assert g.edge_pairs() == {(10, 11), (11, 9)}

    def test_cycle_via_long_chain(self):
        g = ConstraintGraph()
        for a, b in ((2, 3), (3, 10), (10, 11), (11, 9)):
            g.try_add(RankConstraint(a, b))
        assert g.try_add(RankConstraint(9, 2)) is AddOutcome.CYCLE_REJECTED

    def test_duplicate_keeps_first_evidence(self):
        g = ConstraintGraph()
        first = RankConstraint(2, 3, (3, 5), 0.07696, 0.064817)
        later = RankConstraint(2, 3, (9, 9), 9.0, 9.0)
        assert g.try_add(first) is AddOutcome.ADDED
        assert g.try_add(later) is AddOutcome.DUPLICATE
        assert g.edges()[0].tests == (3, 5)

    def test_implied_edge_goes_to_side_list(self):
        g = ConstraintGraph()
        g.try_add(RankConstraint(3, 10))
        g.try_add(RankConstraint(10, 11))
        implied = RankConstraint(3, 11)
        assert g.try_add(implied) is AddOutcome.REDUNDANT
        assert implied.pair() not in g.edge_pairs()

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidConstraintError):
            ConstraintGraph().try_add(RankConstraint(4, 4))

    def test_random_edge_streams_never_cycle(self):
        # Acceptance-scale hammering: 10^4 submissions must keep the core
        # acyclic, which shows as every linear-extension sample satisfying it.
        rng = random.Random(7)
        g = ConstraintGraph()
        for _ in range(10_000):
            a, b = rng.sample(range(1, 13), 2)
            g.try_add(RankConstraint(a, b))
        assert count_linear_extensions(g, sorted(g.nodes)) > 0
        for order in topological_orders_sample(g, 5, seed=3):
            assert satisfies(g, order)

    @given(edge_streams())
    def test_no_stream_closes_a_cycle(self, stream):
        _, pairs = stream
        g = ConstraintGraph()
        for a, b in pairs:
            g.try_add(RankConstraint(a, b))
        assert not any(g.reaches(c.after, c.before) for c in g.edges())


class TestViolations:
    def test_phase2_winner_is_feasible(self, g12):
        assert g12.violations(X44) == 0
        assert satisfies(g12, X44)

    def test_phase1_winner_violates_two(self, g12):
        assert g12.violations(X34) == 2
        pos = {e: i for i, e in enumerate(X34)}
        violated = {(a, b) for a, b in g12.edge_pairs() if pos[a] > pos[b]}
        assert violated == {(6, 10), (7, 10)}
        assert not satisfies(g12, X34)

    def test_empty_graph(self):
        g = ConstraintGraph()
        assert g.violations(X34) == 0
        assert satisfies(g, X34)

    def test_missing_element_rejected(self, g12):
        with pytest.raises(IncompatibleAssignmentsError):
            g12.violations((1, 2, 3))

    def test_monotone_under_edge_addition(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(3, 7)
            x = tuple(rng.sample(range(1, n + 1), n))
            g = ConstraintGraph()
            previous = 0
            for _ in range(12):
                a, b = rng.sample(range(1, n + 1), 2)
                g.try_add(RankConstraint(a, b))
                current = g.violations(x)
                assert current >= previous
                previous = current

    def test_satisfies_iff_linear_extension(self):
        g = ConstraintGraph()
        for a, b in ((1, 3), (2, 3), (3, 5)):
            g.try_add(RankConstraint(a, b))
        elements = [1, 2, 3, 4, 5]
        extensions = {p for p in permutations(elements) if satisfies(g, p)}
        assert len(extensions) == count_linear_extensions(g, elements)
        for p in permutations(elements):
            assert satisfies(g, p) == (g.violations(p) == 0) == (p in extensions)


class TestMoveDelta:
    @given(edge_streams(), st.data())
    def test_delta_is_the_change_in_violations_for_every_insertion_move(self, stream, data):
        n, pairs = stream
        # Graph elements 1..n inside an assignment that may hold extra elements.
        extra = data.draw(st.integers(0, 3))
        g = ConstraintGraph()
        for a, b in pairs:
            g.try_add(RankConstraint(a, b))
        x = tuple(data.draw(st.permutations(range(1, n + extra + 1))))
        before = g.violations(x)
        rank = {e: r for r, e in enumerate(x, start=1)}
        for move, after in materialised_insertion_neighbors(x):
            assert g.move_delta(rank, move) == g.violations(after) - before

    @given(edge_streams())
    def test_pred_is_the_transpose_of_succ(self, stream):
        _, pairs = stream
        g = ConstraintGraph()
        for a, b in pairs:
            g.try_add(RankConstraint(a, b))
        for graph in (g, g.transitive_reduction()):
            assert graph._pred.keys() == graph._succ.keys()
            transposed = {(a, b) for b, befores in graph._pred.items() for a in befores}
            assert transposed == {(a, b) for a, afters in graph._succ.items() for b in afters}
            assert transposed == graph.edge_pairs()


class TestTransitiveReduction:
    def test_implied_edge_removed(self):
        g = ConstraintGraph()
        for a, b in ((2, 3), (3, 10), (2, 10)):
            g.try_add(RankConstraint(a, b))
        reduced = g.transitive_reduction()
        assert reduced.edge_pairs() == {(2, 3), (3, 10)}

    def test_paper_graph_reduces_to_ten_edges(self, g12):
        # Two of the twelve induced edges are transitively implied (the chains
        # through 6 and through 7/8 already connect 3 and 4 to 10), so the
        # true reduction drops them while preserving reachability.
        reduced = g12.transitive_reduction()
        assert reduced.edge_pairs() == set(TABLE_CONSTRAINTS) - {(3, 10), (4, 10)}

    def test_empty_graph(self):
        assert ConstraintGraph().transitive_reduction().edge_pairs() == set()

    def test_reaches_around_a_skipped_edge(self):
        # 1 -> 3 is stored before the path 1 -> 2 -> 3 that later implies it.
        g = ConstraintGraph()
        for a, b in ((1, 3), (1, 2), (2, 3), (3, 4)):
            assert g.try_add(RankConstraint(a, b)) is AddOutcome.ADDED
        # The path around 1 -> 3 starts at 1's other successor, 2; no other
        # edge has a way around it.
        assert g.reaches(2, 3) and not g.reaches(3, 2)
        assert not g.reaches(2, 1) and not g.reaches(4, 3)
        assert g.transitive_reduction().edge_pairs() == {(1, 2), (2, 3), (3, 4)}

    def test_reachability_preserved_exactly(self, g12):
        reduced = g12.transitive_reduction()
        nodes = sorted(g12.nodes)
        for a in nodes:
            for b in nodes:
                if a != b:
                    assert g12.reaches(a, b) == reduced.reaches(a, b)

    def test_reduction_of_random_graphs_preserves_reachability(self):
        rng = random.Random(23)
        for _ in range(30):
            g = ConstraintGraph()
            for _ in range(15):
                a, b = rng.sample(range(1, 8), 2)
                g.try_add(RankConstraint(a, b))
            reduced = g.transitive_reduction()
            assert reduced.edge_pairs() <= g.edge_pairs()
            for a in g.nodes:
                for b in g.nodes:
                    if a != b:
                        assert g.reaches(a, b) == reduced.reaches(a, b)


class TestLinearExtensionSampling:
    def test_total_order_admits_single_extension(self):
        g = ConstraintGraph()
        g.try_add(RankConstraint(1, 2))
        g.try_add(RankConstraint(2, 3))
        orders = topological_orders_sample(g, 4, seed=0)
        assert orders == [(1, 2, 3)] * 4

    def test_paper_graph_samples_are_feasible(self, g12):
        for order in topological_orders_sample(g12, 25, seed=42):
            assert satisfies(g12, order)

    def test_empty_graph_reaches_all_permutations(self):
        g = ConstraintGraph()
        orders = topological_orders_sample(g, 300, seed=1, elements=[1, 2, 3])
        assert {tuple(o) for o in orders} == set(permutations([1, 2, 3]))

    def test_paper_graph_extension_count(self, g12):
        # Frozen from two independent computations: subset DP and a full
        # scan of all 10! orders (see test below).
        assert count_linear_extensions(g12, sorted(g12.nodes)) == 70

    @pytest.mark.slow
    def test_extension_count_matches_brute_force_over_all_orders(self, g12):
        elems = sorted(g12.nodes)
        bit = {e: 1 << i for i, e in enumerate(elems)}
        pred = {e: 0 for e in elems}
        for a, b in g12.edge_pairs():
            pred[b] |= bit[a]
        count = 0
        for perm in permutations(elems):
            seen = 0
            for e in perm:
                if pred[e] & ~seen:
                    break
                seen |= bit[e]
            else:
                count += 1
        assert count == count_linear_extensions(g12, elems) == 70


class TestSerializationFormats:
    def test_edge_list_round_trip(self, g12):
        text = to_edge_list_text(g12)
        rebuilt = from_edge_list_text(text)
        assert rebuilt.edge_pairs() == g12.edge_pairs()

    def test_edge_list_carries_evidence(self):
        g = ConstraintGraph()
        g.try_add(RankConstraint(10, 11, (2, 3), 0.14811, 0.061798))
        text = to_edge_list_text(g)
        assert text == "10 < 11 # 2,3 gap=0.148110 thr=0.061798\n"
        rebuilt = from_edge_list_text(text)
        assert rebuilt.edges()[0].tests == (2, 3)

    def test_edge_list_line_closing_a_cycle_is_rejected(self):
        text = "1 < 2\n2 < 3 # 0,1 gap=0.500000 thr=0.100000\n3 < 1\n"
        with pytest.raises(InvalidConstraintError, match="'3 < 1'.*cycle"):
            from_edge_list_text(text)

    def test_edge_list_duplicate_and_implied_lines_are_accepted(self):
        g = from_edge_list_text("1 < 2\n2 < 3\n1 < 2\n1 < 3\n")
        assert g.edge_pairs() == {(1, 2), (2, 3)}

    def test_every_written_edge_list_loads_back(self):
        # Graphs built by try_add are acyclic, so their edge lists never trip
        # the cycle check; their flat fields survive at the printed precision.
        graphs = [run_experiment(paper_replay_config()).phase1.graph]
        rng = random.Random(5)
        for _ in range(40):
            g = ConstraintGraph()
            for k in range(rng.randint(0, 25)):
                a, b = rng.sample(range(1, 10), 2)
                if k % 3:
                    g.try_add(RankConstraint(a, b, (k, k + 1), rng.random(), rng.random()))
                else:
                    g.try_add(RankConstraint(a, b))
            graphs.append(g)
        for g in graphs:
            text = to_edge_list_text(g)
            rebuilt = from_edge_list_text(text)
            assert [c.pair() for c in rebuilt.edges()] == [c.pair() for c in g.edges()]
            assert to_edge_list_text(rebuilt) == text

    def test_dot_default_emits_all_core_edges(self, g12):
        dot = to_dot(g12)
        assert dot.count("->") == 12
        assert "  10 -> 11;" in dot and "  5 -> 4;" in dot
        for node in sorted(g12.nodes):
            assert f"  {node};" in dot

    def test_dot_reduce_emits_reduction(self, g12):
        dot = to_dot(g12, reduce=True)
        assert dot.count("->") == 10

    def test_dot_deterministic(self, g12):
        assert to_dot(g12) == to_dot(g12)

    def test_dot_empty_graph_has_no_edges(self):
        dot = to_dot(ConstraintGraph())
        assert "->" not in dot
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
