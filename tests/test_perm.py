from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dca.errors import ElementNotFoundError, IncompatibleAssignmentsError, InvalidRankError
from dca.perm import (
    Move,
    as_assignment,
    enumerate_insertion_neighbors,
    format_assignment,
    insertion_move,
    move_between,
    parse_assignment,
    rank_of,
)

from references import adjacent_transposition_diff, materialised_insertion_neighbors

X0 = parse_assignment("11 2 3 10 9 6 4 5 7 8")


def permutations_strategy(max_n: int = 8):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


class TestRankOf:
    def test_first_element(self):
        assert rank_of(X0, 11) == 1

    def test_last_element(self):
        assert rank_of(X0, 8) == 10

    def test_two_element_case(self):
        assert rank_of((1, 2), 2) == 2

    def test_unknown_element(self):
        with pytest.raises(ElementNotFoundError):
            rank_of(X0, 99)


class TestInsertionMove:
    def test_moves_lead_element_to_rank_4(self):
        assert insertion_move(X0, 11, 4) == parse_assignment("2 3 10 11 9 6 4 5 7 8")

    def test_identity_move(self):
        assert insertion_move(X0, 11, 1) == X0

    def test_move_from_test36_order_reaches_test37(self):
        x36 = parse_assignment("2 5 3 4 8 10 11 9 6 7")
        assert insertion_move(x36, 7, 6) == parse_assignment("2 5 3 4 8 7 10 11 9 6")

    def test_rank_out_of_bounds(self):
        with pytest.raises(InvalidRankError):
            insertion_move(X0, 11, 11)
        with pytest.raises(InvalidRankError):
            insertion_move(X0, 11, 0)

    def test_unknown_element(self):
        with pytest.raises(ElementNotFoundError):
            insertion_move(X0, 1, 3)

    @given(permutations_strategy(), st.data())
    def test_round_trip(self, x, data):
        e = data.draw(st.sampled_from(list(x)))
        r = data.draw(st.integers(min_value=1, max_value=len(x)))
        r0 = rank_of(x, e)
        assert insertion_move(insertion_move(x, e, r), e, r0) == x

    @given(permutations_strategy(), st.data())
    def test_preserves_other_elements_order(self, x, data):
        e = data.draw(st.sampled_from(list(x)))
        r = data.draw(st.integers(min_value=1, max_value=len(x)))
        moved = insertion_move(x, e, r)
        assert sorted(moved) == sorted(x)
        assert rank_of(moved, e) == r
        assert tuple(v for v in moved if v != e) == tuple(v for v in x if v != e)

    def test_input_unchanged(self):
        x = parse_assignment("1 2 3")
        insertion_move(x, 1, 3)
        assert x == (1, 2, 3)

    @given(permutations_strategy(40))
    def test_equals_the_list_based_move_for_every_element_and_rank(self, x):
        def list_based(x, element, rank):
            rest = [e for e in x if e != element]
            rest.insert(rank - 1, element)
            return tuple(rest)

        for element in x:
            for rank in range(1, len(x) + 1):
                assert insertion_move(x, element, rank) == list_based(x, element, rank)

    @given(permutations_strategy(40), st.data())
    def test_bad_ranks_and_missing_elements_raise_as_before(self, x, data):
        n = len(x)
        element = data.draw(st.sampled_from(x))
        for rank in (0, -1, n + 1):
            with pytest.raises(InvalidRankError, match=f"^rank {rank} out of bounds for n={n}$"):
                insertion_move(x, element, rank)
            # The rank is checked before the element.
            with pytest.raises(InvalidRankError):
                insertion_move(x, n + 1, rank)
        expected = f"^element {n + 1} not in assignment {format_assignment(x)}$"
        with pytest.raises(ElementNotFoundError, match=expected):
            insertion_move(x, n + 1, 1)


class TestAdjacentTranspositionDiff:
    def test_swap_at_rank_3(self):
        a = parse_assignment("2 3 11 10 9 6 4 5 7 8")
        b = parse_assignment("2 3 10 11 9 6 4 5 7 8")
        assert adjacent_transposition_diff(a, b) == ((11, 10), 3)

    def test_equal_assignments(self):
        assert adjacent_transposition_diff(X0, X0) is None

    def test_swap_at_rank_1(self):
        a = parse_assignment("9 2 3 10 11 6 4 5 7 8")
        b = parse_assignment("2 9 3 10 11 6 4 5 7 8")
        assert adjacent_transposition_diff(a, b) == ((9, 2), 1)

    def test_non_adjacent_difference(self):
        assert adjacent_transposition_diff((1, 2, 3), (3, 2, 1)) is None

    def test_mismatched_element_sets(self):
        with pytest.raises(IncompatibleAssignmentsError):
            adjacent_transposition_diff((1, 2, 3), (1, 2, 4))

    @given(permutations_strategy(), st.data())
    def test_symmetric_presence(self, x, data):
        i = data.draw(st.integers(min_value=0, max_value=len(x) - 2))
        y = list(x)
        y[i], y[i + 1] = y[i + 1], y[i]
        y = tuple(y)
        forward = adjacent_transposition_diff(x, y)
        backward = adjacent_transposition_diff(y, x)
        assert forward is not None and backward is not None
        assert forward[1] == backward[1] == i + 1
        assert forward[0] == (backward[0][1], backward[0][0])

    @given(permutations_strategy(), st.data())
    def test_consecutive_sweep_ranks_differ_by_element_swap(self, x, data):
        e = data.draw(st.sampled_from(list(x)))
        r = data.draw(st.integers(min_value=1, max_value=len(x) - 1))
        a = insertion_move(x, e, r)
        b = insertion_move(x, e, r + 1)
        diff = adjacent_transposition_diff(a, b)
        assert diff is not None
        pair, rank = diff
        assert rank == r
        assert e in pair


class TestEnumerateInsertionNeighbors:
    def test_n2_single_neighbor(self):
        neighbors = enumerate_insertion_neighbors((1, 2))
        assert len(neighbors) == 1
        assert neighbors.move_at(0) == Move(1, 1, 2)
        assert materialised_insertion_neighbors((1, 2)) == [(Move(1, 1, 2), (2, 1))]

    def test_n3_distinct_neighbors(self):
        # n(n-1) ordered moves collapse to (n-1)^2 distinct assignments; a
        # full reversal needs two moves, so it is not a neighbor.
        neighbors = {a for _, a in materialised_insertion_neighbors((1, 2, 3))}
        assert neighbors == {(2, 1, 3), (2, 3, 1), (1, 3, 2), (3, 1, 2)}
        assert (3, 2, 1) not in neighbors

    def test_n10_count_is_81(self):
        assert len(enumerate_insertion_neighbors(X0)) == 81

    @given(permutations_strategy(6))
    def test_counts_and_exclusions(self, x):
        neighbors = enumerate_insertion_neighbors(x)
        moves = [neighbors.move_at(i) for i in range(len(neighbors))]
        assignments = [insertion_move(x, move.element, move.to_rank) for move in moves]
        assert len(set(assignments)) == len(assignments) == (len(x) - 1) ** 2
        assert x not in assignments
        for move in moves:
            assert rank_of(x, move.element) == move.from_rank


class TestLazyNeighborhood:
    @given(permutations_strategy(30))
    def test_move_at_matches_the_materialised_list(self, x):
        lazy = enumerate_insertion_neighbors(x)
        reference = materialised_insertion_neighbors(x)
        size = len(reference)
        assert len(lazy) == size == (len(x) - 1) ** 2
        assert [lazy.move_at(i) for i in range(size)] == [move for move, _ in reference]
        for bad in (-1, size, size + 1):
            with pytest.raises(IndexError, match=f"neighbour index {bad} out of range for {size} entries"):
                lazy.move_at(bad)


class TestSerialization:
    def test_format_matches_table_style(self):
        assert format_assignment(X0) == "11 2 3 10 9 6 4 5 7 8"

    def test_parse_round_trip(self):
        assert parse_assignment(format_assignment(X0)) == X0

    def test_rejects_duplicates(self):
        with pytest.raises(IncompatibleAssignmentsError):
            as_assignment([1, 2, 2])

    def test_rejects_garbage(self):
        with pytest.raises(IncompatibleAssignmentsError):
            parse_assignment("1 2 x")

    @pytest.mark.parametrize("text", ["1_0 2 3", "+1 2 3", "1 2 \u0663", "01 2 3", "-0 2 3"])
    def test_an_id_is_read_only_as_format_assignment_writes_it(self, text):
        with pytest.raises(IncompatibleAssignmentsError, match="unparseable assignment"):
            parse_assignment(text)

    def test_ids_written_as_format_assignment_writes_them_keep_their_errors(self):
        assert as_assignment(["10", "2", "3"]) == parse_assignment("10 2 3") == (10, 2, 3)
        with pytest.raises(ElementNotFoundError, match="must be positive"):
            parse_assignment("-1 2 3")
        with pytest.raises(ElementNotFoundError, match="must be positive"):
            parse_assignment("0 2 3")
        with pytest.raises(IncompatibleAssignmentsError, match="duplicate"):
            parse_assignment("2 2 3")

    @given(st.lists(st.integers(min_value=1, max_value=10**9), max_size=50), st.booleans())
    def test_format_equals_joining_str(self, ids, as_tuple):
        x = tuple(ids) if as_tuple else ids
        assert format_assignment(x) == " ".join(str(e) for e in x)

    def test_an_equal_float_leaves_no_spelling_for_ints(self):
        big = 10**12 + 7  # beyond the ids the other tests format
        assert format_assignment([float(big)]) == "1000000000007.0"
        assert format_assignment((big,)) == "1000000000007"


class TestMoveBetween:
    def test_recovers_scripted_step(self):
        a = parse_assignment("2 3 5 4 8 10 11 9 6 7")
        b = parse_assignment("2 5 3 4 8 10 11 9 6 7")
        move = move_between(a, b)
        assert insertion_move(a, move.element, move.to_rank) == b

    def test_rejects_two_moves_away(self):
        with pytest.raises(IncompatibleAssignmentsError):
            move_between((1, 2, 3), (3, 2, 1))

    def test_rejects_equal(self):
        with pytest.raises(IncompatibleAssignmentsError):
            move_between((1, 2, 3), (1, 2, 3))


def test_round_trip_bulk_random_cases():
    # High-volume determinism check at the acceptance scale.
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randint(2, 12)
        x = list(range(1, n + 1))
        rng.shuffle(x)
        x = tuple(x)
        e = rng.choice(x)
        r = rng.randint(1, n)
        r0 = rank_of(x, e)
        assert insertion_move(insertion_move(x, e, r), e, r0) == x
