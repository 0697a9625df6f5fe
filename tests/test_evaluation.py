from __future__ import annotations

import hashlib
import math
import re
import statistics
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dca.errors import (
    ConfigError,
    ElementNotFoundError,
    EmptyBatchError,
    OracleIOError,
    ReplayMissError,
)
from dca.evaluation import (
    CachingEvaluator,
    ExactOracle,
    FitnessEstimate,
    HiddenTargetLandscape,
    PoolOracle,
    ReplayFixture,
    ReplayOracle,
    SubprocessOracle,
    SyntheticOracle,
    _stream_seed,
    aggregate,
    decode_response,
    encode_request,
    format_mean,
    format_se,
    significant_difference,
)
from dca.harness import FIXTURE_TABLE1_2, FIXTURE_TABLE3
from dca.perm import format_assignment, parse_assignment, rank_of

# Pinned digests of the shipped table transcriptions; any drift fails loudly.
FIXTURE_SHA256 = {
    "table1_2.replay": "0222951086073dd93b870ed2903e98892b23dcba915162a43aac37462758abf8",
    "table3.replay": "2c7bf2d5b18ae39e9d3f18617f87a4ca4251a667d2bdee1eb2db8901204412ee",
    "table3.moves": "d5a284fd924d9d90706fed90d673f965a404cbb793fda9e71cd54e30d3b43e16",
}


def unit_landscape(target, sigma=0.0):
    return HiddenTargetLandscape(target=target, weights={e: 1.0 for e in target}, sigma=sigma)


class TestAggregate:
    def test_three_samples(self):
        est = aggregate([1.0, 2.0, 3.0])
        assert est.mean == pytest.approx(2.0)
        assert est.se == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert est.n_games == 3

    def test_zero_variance(self):
        est = aggregate([5.0, 5.0, 5.0, 5.0])
        assert est.mean == 5.0
        assert est.se == 0.0

    def test_single_sample_convention(self):
        est = aggregate([2.5])
        assert est == FitnessEstimate(mean=2.5, se=0.0, n_games=1)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            aggregate([])

    def test_calibration_to_the_baseline_error_magnitude(self):
        # 2000 draws at sigma 2.03 should land near 2.03/sqrt(2000) ~ 0.0454.
        rng = np.random.default_rng(99)
        samples = list(-4.17 + rng.normal(0, 2.03, size=2000))
        est = aggregate(samples)
        assert est.se == pytest.approx(2.03 / math.sqrt(2000), rel=0.10)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=60
        )
    )
    def test_matches_two_pass_reference(self, samples):
        est = aggregate(samples)
        ref_mean = statistics.fmean(samples)
        ref_se = statistics.stdev(samples) / math.sqrt(len(samples))
        assert est.mean == pytest.approx(ref_mean, rel=1e-12, abs=1e-12)
        assert est.se == pytest.approx(ref_se, rel=1e-12, abs=1e-12)


class TestSignificantDifference:
    def test_gates_the_first_induced_pair(self):
        a = FitnessEstimate(-3.89289, 0.061798, 1000)
        b = FitnessEstimate(-3.96985, 0.064817, 1000)
        assert significant_difference(a, b) is True

    def test_blocks_below_gate_pair(self):
        a = FitnessEstimate(-3.69539, 0.058036, 1000)
        b = FitnessEstimate(-3.72417, 0.059761, 1000)
        assert significant_difference(a, b) is False

    def test_equal_estimates(self):
        a = FitnessEstimate(-1.0, 0.05, 100)
        assert significant_difference(a, a) is False

    def test_symmetry_and_tau_monotonicity(self):
        a = FitnessEstimate(-3.0, 0.04, 100)
        b = FitnessEstimate(-3.1, 0.06, 100)
        for tau in (0.5, 1.0, 1.5, 2.0):
            assert significant_difference(a, b, tau) == significant_difference(b, a, tau)
        gates = [significant_difference(a, b, tau) for tau in (0.5, 1.0, 1.6, 1.7, 5.0)]
        assert gates == sorted(gates, reverse=True)

    def test_rejects_nonpositive_tau(self):
        a = FitnessEstimate(-1.0, 0.1, 10)
        with pytest.raises(ConfigError):
            significant_difference(a, a, tau=0.0)


class TestSyntheticOracle:
    def test_noise_free_target_scores_zero(self):
        landscape = unit_landscape((3, 1, 2), sigma=0.0)
        oracle = SyntheticOracle(landscape, seed=1)
        assert oracle.evaluate((3, 1, 2), 100).mean == 0.0

    def test_adjacent_swap_costs_two(self):
        landscape = unit_landscape((1, 2, 3, 4), sigma=0.0)
        oracle = SyntheticOracle(landscape, seed=1)
        assert oracle.evaluate((2, 1, 3, 4), 100).mean == -2.0

    def test_deterministic_per_seed_assignment_budget(self):
        landscape = unit_landscape((1, 2, 3, 4), sigma=1.5)
        oracle = SyntheticOracle(landscape, seed=7)
        first = oracle.evaluate((2, 1, 3, 4), 500)
        second = oracle.evaluate((2, 1, 3, 4), 500)
        assert first == second
        other_budget = oracle.evaluate((2, 1, 3, 4), 501)
        assert other_budget != first

    def test_se_concentrates_at_sigma_over_sqrt_n(self):
        sigma, n = 2.0, 400
        landscape = unit_landscape((1, 2, 3, 4), sigma=sigma)
        means = [
            SyntheticOracle(landscape, seed=s).evaluate((1, 2, 3, 4), n).mean
            for s in range(100)
        ]
        spread = statistics.stdev(means)
        assert spread == pytest.approx(sigma / math.sqrt(n), rel=0.20)

    def test_reported_se_tracks_formula(self):
        landscape = unit_landscape((1, 2, 3, 4), sigma=2.0)
        est = SyntheticOracle(landscape, seed=3).evaluate((1, 2, 3, 4), 1600)
        assert est.se == pytest.approx(2.0 / math.sqrt(1600), rel=0.15)


    @given(
        st.one_of(st.sampled_from([1, 2, 1000, 16000]), st.integers(1, 16000)),
        st.one_of(st.sampled_from([1e-3, 0.5, 1.9, 10.0]), st.floats(1e-3, 10.0)),
        st.lists(st.floats(0.05, 5.0), min_size=2, max_size=12),
        st.integers(0, 2**32),
        st.randoms(use_true_random=False),
    )
    def test_estimates_equal_the_two_pass_formula_exactly(self, n_games, sigma, weights, seed, rnd):
        target = tuple(range(1, len(weights) + 1))
        landscape = HiddenTargetLandscape(target, dict(zip(target, weights)), sigma=sigma)
        x = tuple(rnd.sample(target, len(target)))
        est = SyntheticOracle(landscape, seed=seed).evaluate(x, n_games)
        # The formula the one-buffer sampler replaced, as it stood.
        rng = np.random.default_rng(_stream_seed(seed, x, n_games))
        samples = landscape.true_fitness(x) + rng.normal(0.0, sigma, size=n_games)
        if n_games == 1:
            expected = FitnessEstimate(mean=float(samples[0]), se=0.0, n_games=1)
        else:
            expected = FitnessEstimate(
                mean=float(samples.mean()),
                se=float(samples.std(ddof=1) / math.sqrt(n_games)),
                n_games=n_games,
            )
        assert est == expected
        assert type(est.mean) is float and type(est.se) is float


class TestExactOracle:
    def test_target_scores_zero(self):
        oracle = ExactOracle(unit_landscape((2, 4, 1, 3)))
        assert oracle.evaluate((2, 4, 1, 3)) == FitnessEstimate(0.0, 0.0, 1)

    def test_unique_maximum_over_all_permutations(self):
        from itertools import permutations

        oracle = ExactOracle(unit_landscape((3, 1, 4, 2)))
        scores = [oracle.evaluate(p).mean for p in permutations((1, 2, 3, 4))]
        assert scores.count(max(scores)) == 1
        assert max(scores) == 0.0

    def test_repeatable(self):
        oracle = ExactOracle(unit_landscape((1, 3, 2)))
        x = (3, 2, 1)
        assert oracle.evaluate(x) == oracle.evaluate(x)


class TestPoolOracle:
    class _Fixed(ExactOracle):
        def __init__(self, mean, se=0.0, n=1000):
            self._est = FitnessEstimate(mean, se, n)

        def evaluate(self, x, n_games=0):
            return self._est

    def test_weighted_mean(self):
        pool = PoolOracle([(self._Fixed(-1.0), 1.0), (self._Fixed(-3.0), 3.0)])
        assert pool.evaluate((1, 2), 10).mean == pytest.approx(-2.5)

    def test_single_member_identity(self):
        member = self._Fixed(-1.7, 0.05)
        pool = PoolOracle([(member, 2.0)])
        est = pool.evaluate((1, 2), 10)
        assert (est.mean, est.se) == (-1.7, 0.05)

    def test_equal_weight_benchmark_means(self):
        means = (-0.030105, -0.016525, -1.01404, -2.39538)
        pool = PoolOracle([(self._Fixed(m), 1.0) for m in means])
        assert pool.evaluate((1, 2), 10).mean == pytest.approx(-0.864, abs=5e-4)

    def test_se_combines_in_quadrature_with_weights(self):
        se = 0.06
        pool = PoolOracle([(self._Fixed(-1.0, se), 1.0) for _ in range(4)])
        assert pool.evaluate((1, 2), 10).se == pytest.approx(se / 2)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            PoolOracle([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            PoolOracle([(self._Fixed(-1.0), 0.0)])


class TestReplayOracle:
    def test_returns_table_values(self, fixtures_dir):
        oracle = ReplayOracle(ReplayFixture.load(fixtures_dir / FIXTURE_TABLE1_2))
        est = oracle.evaluate(parse_assignment("2 3 10 11 9 6 4 5 7 8"), 1000)
        assert (est.mean, est.se) == (-3.89289, 0.061798)

    def test_returns_final_phase2_values(self, fixtures_dir):
        oracle = ReplayOracle(ReplayFixture.load(fixtures_dir / FIXTURE_TABLE3))
        est = oracle.evaluate(parse_assignment("5 4 2 3 7 6 8 10 11 9"), 16000)
        assert (est.mean, est.se) == (-2.95471, 0.013678)

    def test_miss_is_a_hard_error_naming_the_assignment(self, fixtures_dir):
        oracle = ReplayOracle(ReplayFixture.load(fixtures_dir / FIXTURE_TABLE1_2))
        with pytest.raises(ReplayMissError, match="1 2 3 4 5 6 7 8 9 10"):
            oracle.evaluate(parse_assignment("1 2 3 4 5 6 7 8 9 10"), 1000)

    def test_every_fixture_row_round_trips_bit_exactly(self, fixtures_dir):
        for name in (FIXTURE_TABLE1_2, FIXTURE_TABLE3):
            path = fixtures_dir / name
            fixture = ReplayFixture.load(path)
            oracle = ReplayOracle(fixture)
            for raw in path.read_text().splitlines()[1:]:
                key, mean_s, se_s, _ = (part.strip() for part in raw.split("|"))
                est = oracle.evaluate(parse_assignment(key), 0)
                assert format_mean(est.mean) == mean_s
                assert format_se(est.se) == se_s

    def test_fixture_checksums_pinned(self, fixtures_dir):
        for name, expected in FIXTURE_SHA256.items():
            digest = hashlib.sha256((fixtures_dir / name).read_bytes()).hexdigest()
            assert digest == expected, f"fixture {name} drifted from its transcription"

    def test_empty_fixture_rejected(self, tmp_path):
        bad = tmp_path / "empty.replay"
        bad.write_text("# dca-replay v1\n")
        with pytest.raises(ConfigError):
            ReplayFixture.load(bad)

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.replay"
        bad.write_text("1 2 | -1.0 | 0.1 | 10\n")
        with pytest.raises(ConfigError):
            ReplayFixture.load(bad)

    @pytest.mark.parametrize(
        "row, problem",
        [
            pytest.param("1 2 3 | nan | 0.1 | 10", "a non-finite mean or se", id="nan-mean"),
            pytest.param("1 2 3 | -1.0 | inf | 10", "a non-finite mean or se", id="infinite-se"),
            pytest.param("1 2 3 | -1.0 | -1.0 | 10", "a negative se -1.0", id="negative-se"),
            pytest.param("1 2 3 | -1.0 | 0.1 | 0", "n=0 < 1 games", id="no-games"),
        ],
    )
    def test_untrustworthy_rows_rejected_naming_the_line(self, row, problem, tmp_path):
        bad = tmp_path / "bad.replay"
        bad.write_text(f"# dca-replay v1\n# a comment\n2 1 3 | -2.0 | 0.1 | 10\n{row}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{bad}:4: replay row has {problem}')}$"):
            ReplayFixture.load(bad)

    def test_repeated_assignment_rejected(self, tmp_path):
        bad = tmp_path / "repeat.replay"
        bad.write_text("# dca-replay v1\n1 2 3 | -1.0 | 0.1 | 10\n2 1 3 | -2.0 | 0.1 | 10\n1  2 3 | -3.0 | 0.1 | 10\n")
        with pytest.raises(ConfigError, match="'1 2 3' appears more than once"):
            ReplayFixture.load(bad)


ECHO_EVALUATOR = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    json.loads(line)\n"
    "    print(json.dumps({'mean': -1.0, 'se': 0.05, 'n': 1000, 'extra': 'ignored'}))\n"
    "    sys.stdout.flush()\n"
)

MALFORMED_EVALUATOR = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('not json at all')\n"
    "    sys.stdout.flush()\n"
)

MISSING_FIELD_EVALUATOR = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    print(json.dumps({'mean': -1.0}))\n"
    "    sys.stdout.flush()\n"
)


class TestSubprocessOracle:
    def test_loopback(self):
        oracle = SubprocessOracle([sys.executable, "-c", ECHO_EVALUATOR], timeout=10)
        try:
            est = oracle.evaluate((2, 1), 10)
            assert est == FitnessEstimate(-1.0, 0.05, 1000)
            again = oracle.evaluate((1, 2), 10)
            assert again.mean == -1.0
        finally:
            oracle.close()

    def test_malformed_response(self):
        oracle = SubprocessOracle([sys.executable, "-c", MALFORMED_EVALUATOR], timeout=10)
        try:
            with pytest.raises(OracleIOError) as exc:
                oracle.evaluate((2, 1), 10)
            assert "not json at all" in (exc.value.payload or "")
        finally:
            oracle.close()

    def test_missing_fields_are_errors(self):
        oracle = SubprocessOracle([sys.executable, "-c", MISSING_FIELD_EVALUATOR], timeout=10)
        try:
            with pytest.raises(OracleIOError, match="missing fields"):
                oracle.evaluate((2, 1), 10)
        finally:
            oracle.close()

    def test_child_exit_is_an_error(self):
        oracle = SubprocessOracle([sys.executable, "-c", "pass"], timeout=10)
        try:
            with pytest.raises(OracleIOError):
                oracle.evaluate((2, 1), 10)
        finally:
            oracle.close()

    def test_timeout_is_enforced(self):
        sleeper = "import time\ntime.sleep(60)\n"
        oracle = SubprocessOracle([sys.executable, "-c", sleeper], timeout=0.3)
        try:
            started = time.perf_counter()
            with pytest.raises(OracleIOError, match="timed out"):
                oracle.evaluate((2, 1), 10)
            assert time.perf_counter() - started < 5.0
        finally:
            oracle.close()

    def test_one_reader_thread_per_child(self):
        oracle = SubprocessOracle([sys.executable, "-c", ECHO_EVALUATOR], timeout=10)
        before = threading.active_count()
        try:
            for i in range(200):
                assert oracle.evaluate((2, 1), 10 + i).mean == -1.0
                assert threading.active_count() <= before + 1
        finally:
            oracle.close()

    def test_a_response_written_in_two_flushes_is_one_line(self):
        halves = (
            "import sys, time\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('{\"mean\": -1.5, \"se\"'); sys.stdout.flush()\n"
            "    time.sleep(0.1)\n"
            "    sys.stdout.write(': 0.25, \"n\": 64}\\n'); sys.stdout.flush()\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", halves], timeout=10)
        try:
            assert oracle.evaluate((2, 1), 10) == FitnessEstimate(-1.5, 0.25, 64)
            assert oracle.evaluate((1, 2), 10) == FitnessEstimate(-1.5, 0.25, 64)
        finally:
            oracle.close()

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_undecodable_output_fails_without_waiting_for_the_timeout(self):
        garbage = "import sys\nsys.stdin.readline()\nsys.stdout.buffer.write(b'\\xff\\n')\nsys.stdout.flush()\n"
        oracle = SubprocessOracle([sys.executable, "-c", garbage], timeout=30)
        try:
            started = time.perf_counter()
            with pytest.raises(OracleIOError, match="closed its output"):
                oracle.evaluate((2, 1), 10)
            assert time.perf_counter() - started < 10.0
        finally:
            oracle.close()

    def test_a_dead_child_is_reaped_before_its_replacement(self):
        one_shot = (
            "import sys, json\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'mean': -1.0, 'se': 0.1, 'n': 5}), flush=True)\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", one_shot], timeout=10)
        try:
            oracle.evaluate((1, 2), 5)
            first = oracle._child
            first.wait(timeout=10)
            assert oracle.evaluate((2, 1), 5).mean == -1.0
            assert oracle._child is not first
            assert first.stdin.closed and first.stdout.closed
        finally:
            oracle.close()

    def test_close_kills_a_child_that_ignores_eof(self):
        oracle = SubprocessOracle([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
        child = oracle._ensure_child()
        started = time.perf_counter()
        oracle.close()
        assert time.perf_counter() - started < 5.0
        assert child.returncode is not None

    def test_request_golden_serialization(self):
        line = encode_request((2, 1), 10, 7)
        assert line == '{"assignment":[2,1],"games":10,"seed":7}'

    def test_response_ignores_unknown_fields(self):
        est = decode_response('{"mean": -2.0, "se": 0.1, "n": 64, "novel": true}')
        assert est == FitnessEstimate(-2.0, 0.1, 64)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"mean": NaN, "se": 0.1, "n": 64}', "non-finite"),
            ('{"mean": -Infinity, "se": 0.1, "n": 64}', "non-finite"),
            ('{"mean": -2.0, "se": Infinity, "n": 64}', "non-finite"),
            ('{"mean": -2.0, "se": NaN, "n": 64}', "non-finite"),
            ('{"mean": -2.0, "se": -0.1, "n": 64}', "negative se"),
            ('{"mean": -2.0, "se": 0.1, "n": 0}', "n=0"),
            ('{"mean": -2.0, "se": 0.1, "n": Infinity}', "unusable"),
        ],
    )
    def test_untrustworthy_responses_are_rejected(self, line, message):
        with pytest.raises(OracleIOError, match=message) as exc:
            decode_response(line)
        assert exc.value.payload == line

    def test_the_zero_se_conventions_are_accepted(self):
        assert decode_response('{"mean": -2.0, "se": 0.0, "n": 1}') == FitnessEstimate(-2.0, 0.0, 1)


class TestCachingEvaluator:
    def test_cache_hits_by_assignment_and_tier(self):
        landscape = unit_landscape((1, 2, 3), sigma=1.0)
        evaluator = CachingEvaluator(SyntheticOracle(landscape, seed=5))
        first, fresh1 = evaluator.estimate((2, 1, 3), 100)
        second, fresh2 = evaluator.estimate((2, 1, 3), 100)
        assert fresh1 and not fresh2 and first == second
        _, fresh3 = evaluator.estimate((2, 1, 3), 200)
        assert fresh3  # different budget tier is a different key
        assert evaluator.fresh_evaluations == 2
        assert evaluator.games_used == 300

    def test_thread_safety_single_oracle_call_per_key(self):
        import threading

        calls = []

        class Counting(ExactOracle):
            def __init__(self):
                pass

            def evaluate(self, x, n_games):
                calls.append(x)
                return FitnessEstimate(-1.0, 0.0, n_games)

        evaluator = CachingEvaluator(Counting())
        threads = [
            threading.Thread(target=lambda: evaluator.estimate((1, 2, 3), 50))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert evaluator.estimate((1, 2, 3), 50)[1] is False  # a second estimate is a hit
        assert evaluator.games_used == 50 * evaluator.fresh_evaluations
        assert evaluator.fresh_evaluations == 1


class TestLandscapeConfig:
    def test_scalar_weight_shorthand(self):
        landscape = HiddenTargetLandscape.from_config(
            {"target": "2 1 3", "weights": 1.0, "sigma": 0.0}
        )
        assert landscape.weights == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            HiddenTargetLandscape.from_config({"target": "1 2", "typo": 1})

    def test_missing_weights_rejected(self):
        with pytest.raises(ConfigError):
            HiddenTargetLandscape(target=(1, 2, 3), weights={1: 1.0}, sigma=0.0)

    def test_weights_outside_the_target_rejected(self):
        with pytest.raises(ConfigError, match=r"\[9\]"):
            HiddenTargetLandscape.from_config(
                {"target": "1 2 3", "weights": {"1": 1, "2": 1, "3": 1, "9": 5}}
            )

    def test_weight_list_longer_than_the_target_rejected(self):
        with pytest.raises(ConfigError):
            HiddenTargetLandscape.from_config({"target": "1 2 3", "weights": [1, 2, 3, 4]})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"target": "1 2 3", "weights": "abc"}, "weights must be"),
            ({"target": "1 2 3", "weights": [1, "x", 1]}, "weight 'x' is not a number"),
            ({"target": "1 2", "weights": {"1": 1, "x": 1}}, "weight key 'x'"),
            ({"target": "1 2", "sigma": "abc"}, "sigma 'abc' is not a number"),
            ({"target": "1 2", "sigma": -1}, "sigma must be finite and >= 0"),
            ({"target": "1 2", "sigma": float("nan")}, "sigma must be finite"),
            ({"target": "1 2", "sigma": float("inf")}, "sigma must be finite"),
            ({"target": "1 2", "weights": [1.0, float("nan")]}, r"non-finite weights .*\[2\]"),
            ({"target": "1 2", "weights": float("-inf")}, r"non-finite weights .*\[1, 2\]"),
        ],
    )
    def test_unusable_numbers_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            HiddenTargetLandscape.from_config(doc)


class TestTrueFitness:
    @given(st.permutations(list(range(1, 31))), st.permutations(list(range(1, 31))))
    def test_matches_the_rank_lookup_sum_bit_for_bit(self, target, x):
        weights = {e: 1.0 / (e + 0.3) for e in target}
        landscape = HiddenTargetLandscape(target=tuple(target), weights=weights)
        expected = -sum(
            weights[e] * abs(rank_of(tuple(x), e) - rank_of(tuple(target), e)) for e in target
        )
        assert landscape.true_fitness(tuple(x)) == expected

    def test_missing_element_is_an_error(self):
        with pytest.raises(ElementNotFoundError):
            unit_landscape((1, 2, 3)).true_fitness((1, 2, 4))

    def test_the_first_missing_element_in_target_order_is_named(self):
        with pytest.raises(ElementNotFoundError, match="^element 2 not in assignment 1 5 6 4$"):
            unit_landscape((1, 2, 3, 4)).true_fitness((1, 5, 6, 4))


def reference_fitness(landscape: HiddenTargetLandscape, x) -> float:
    """The scorer `scores` replaces: a list of products over (element, rank, weight) terms."""
    rank = dict(zip(x, range(1, len(x) + 1)))
    terms = [(e, i, landscape.weights[e]) for i, e in enumerate(landscape.target, start=1)]
    try:
        return -sum([w * abs(rank[e] - i) for e, i, w in terms])
    except KeyError:
        missing = next(e for e in landscape.target if e not in rank)
        raise ElementNotFoundError(f"element {missing} not in assignment {format_assignment(x)}") from None


weights_st = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def scored_landscapes(draw, max_n=80):
    """A landscape over ids up to 10**9 and rows of its target's elements, some with extra ones."""
    target = tuple(draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=max_n, unique=True)))
    weights = dict(zip(target, draw(st.lists(weights_st, min_size=len(target), max_size=len(target)))))
    extra = draw(st.lists(st.integers(1, 10**9).filter(lambda e: e not in weights), max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.permutations(target + tuple(extra)))
        rows.append(tuple(row))
    return HiddenTargetLandscape(target=target, weights=weights), rows


class TestScores:
    @given(scored_landscapes())
    def test_equal_the_list_of_products_bit_for_bit(self, case):
        landscape, rows = case
        expected = [repr(reference_fitness(landscape, x)) for x in rows]
        assert [repr(landscape.true_fitness(x)) for x in rows] == expected
        assert [repr(score) for score in landscape.scores(rows)] == expected

    @given(scored_landscapes(max_n=12), st.data())
    def test_a_missing_element_is_named_as_before(self, case, data):
        landscape, rows = case
        j = data.draw(st.integers(0, len(rows) - 1))
        drop = set(data.draw(st.lists(st.sampled_from(landscape.target), min_size=1, unique=True)))
        # Ids past the drawn ones stand in for the dropped elements, so the rows keep one length.
        stand_ins = iter(range(10**9 + 1, 10**9 + 100))
        rows[j] = tuple(next(stand_ins) if e in drop else e for e in rows[j])
        with pytest.raises(ElementNotFoundError) as expected:
            reference_fitness(landscape, rows[j])
        with pytest.raises(ElementNotFoundError) as one:
            landscape.true_fitness(rows[j])
        with pytest.raises(ElementNotFoundError) as batch:
            landscape.scores(rows)
        assert str(one.value) == str(batch.value) == str(expected.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_an_infinite_sum_is_not_a_missing_element(self):
        landscape = HiddenTargetLandscape(target=(1, 2, 3), weights={1: 1e308, 2: 1.0, 3: -1e308})
        assert math.isnan(landscape.true_fitness((3, 2, 1)))
        assert math.isnan(reference_fitness(landscape, (3, 2, 1)))
