from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dca
from dca.errors import (
    ConfigError,
    ElementNotFoundError,
    OracleIOError,
    ReplayMissError,
)
from dca.evaluation import (
    CachingEvaluator,
    ExactOracle,
    FitnessEstimate,
    HiddenTargetLandscape,
    Oracle,
    PoolOracle,
    ReplayOracle,
    SubprocessOracle,
    SyntheticOracle,
    _stream_seed,
    decode_response,
    encode_request,
    format_mean,
    format_se,
)
from dca.harness import FIXTURE_TABLE1_2, FIXTURE_TABLE3, RunConfig, run_experiment
from dca.perm import insertion_move, parse_assignment, rank_of

from references import aggregate, fold, reference_fitness, significant_difference

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
        with pytest.raises(ValueError):
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

    def test_three_members_add_as_left_to_right_folds(self):
        # A compensated sum, which the builtin `sum` of floats is from Python
        # 3.12, gives other bytes for these members than a plain fold does.
        members = [(-1e16, 3.0), (-1.0, 3e-8), (1e16, 3e-8)]
        pool = PoolOracle([(self._Fixed(m, se), 1.0) for m, se in members])
        means = [1.0 * m for m, _ in members]
        variances = [(1.0 / 3.0) ** 2 * se**2 for _, se in members]
        assert fold(means) != math.fsum(means) and fold(variances) != math.fsum(variances)
        est = pool.evaluate((1, 2), 10)
        assert (est.mean, est.se, est.n_games) == (fold(means) / 3.0, math.sqrt(fold(variances)), 3000)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            PoolOracle([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            PoolOracle([(self._Fixed(-1.0), 0.0)])


class TestReplayOracle:
    def test_returns_table_values(self, fixtures_dir):
        oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2)
        est = oracle.evaluate(parse_assignment("2 3 10 11 9 6 4 5 7 8"), 1000)
        assert (est.mean, est.se) == (-3.89289, 0.061798)

    def test_returns_final_phase2_values(self, fixtures_dir):
        oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE3)
        est = oracle.evaluate(parse_assignment("5 4 2 3 7 6 8 10 11 9"), 16000)
        assert (est.mean, est.se) == (-2.95471, 0.013678)

    def test_miss_is_a_hard_error_naming_the_assignment(self, fixtures_dir):
        oracle = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2)
        with pytest.raises(ReplayMissError, match="1 2 3 4 5 6 7 8 9 10"):
            oracle.evaluate(parse_assignment("1 2 3 4 5 6 7 8 9 10"), 1000)

    def test_a_row_answers_only_its_own_game_count(self, fixtures_dir):
        # The phase-1 winner is in both tables: at 1000 games in one and 16000 in the other.
        x = parse_assignment("2 3 5 4 8 10 11 9 6 7")
        both = ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2, fixtures_dir / FIXTURE_TABLE3)
        assert (both.evaluate(x, 1000).mean, both.evaluate(x, 16000).mean) == (-3.12261, -3.14496)
        for oracle, games in ((both, 2000), (ReplayOracle.load(fixtures_dir / FIXTURE_TABLE1_2), 16000)):
            message = f"assignment '2 3 5 4 8 10 11 9 6 7' at {games} games absent from replay fixture"
            with pytest.raises(ReplayMissError, match=f"^{message}"):
                oracle.evaluate(x, games)

    def test_every_fixture_row_round_trips_bit_exactly(self, fixtures_dir):
        for name in (FIXTURE_TABLE1_2, FIXTURE_TABLE3):
            path = fixtures_dir / name
            oracle = ReplayOracle.load(path)
            for raw in path.read_text().splitlines()[1:]:
                key, mean_s, se_s, n_s = (part.strip() for part in raw.split("|"))
                est = oracle.evaluate(parse_assignment(key), int(n_s))
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
            ReplayOracle.load(bad)

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.replay"
        bad.write_text("1 2 | -1.0 | 0.1 | 10\n")
        with pytest.raises(ConfigError):
            ReplayOracle.load(bad)

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
            ReplayOracle.load(bad)

    def test_repeated_assignment_rejected(self, tmp_path):
        bad = tmp_path / "repeat.replay"
        bad.write_text("# dca-replay v1\n1 2 3 | -1.0 | 0.1 | 10\n2 1 3 | -2.0 | 0.1 | 10\n1  2 3 | -3.0 | 0.1 | 10\n")
        with pytest.raises(ConfigError, match="'1 2 3' appears more than once"):
            ReplayOracle.load(bad)

    def test_a_row_repeated_across_files_at_one_game_count_is_rejected_naming_its_file_and_line(self, tmp_path):
        first, second = tmp_path / "first.replay", tmp_path / "second.replay"
        first.write_text("# dca-replay v1\n1 2 3 | -1.0 | 0.1 | 10\n")
        second.write_text("# dca-replay v1\n1 2 3 | -2.0 | 0.1 | 20\n# a comment\n1  2 3 | -3.0 | 0.1 | 10\n")
        message = f"{second}:4: assignment '1 2 3' appears more than once at 10 games"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ReplayOracle.load(first, second)
        # The same assignment at another game count is a row of its own.
        second.write_text("# dca-replay v1\n1 2 3 | -2.0 | 0.1 | 20\n")
        assert set(ReplayOracle.load(first, second).records) == {("1 2 3", 10), ("1 2 3", 20)}

    @pytest.mark.parametrize(
        "assignment, problem",
        [
            pytest.param("1 2 x", "unparseable assignment ['1', '2', 'x']", id="bad-id"),
            pytest.param("1 1 3", "duplicate elements in assignment (1, 1, 3)", id="repeated-element"),
        ],
    )
    def test_malformed_assignment_rejected_naming_the_line(self, assignment, problem, tmp_path):
        bad = tmp_path / "bad.replay"
        row = f"{assignment} | -1.0 | 0.1 | 1000"
        bad.write_text(f"# dca-replay v1\n# a note\fwith a form feed\n2 1 3 | -2.0 | 0.1 | 10\n{row}\n")
        message = f"{bad}:4: unparseable replay line {row!r}: {problem}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ReplayOracle.load(bad)


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
        # Hangs on one budget only; every answer names the child that gave it.
        hangs_on_999 = (
            "import json, os, sys, time\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['games'] == 999:\n"
            "        time.sleep(60)\n"
            "    print(json.dumps({'mean': -float(os.getpid()), 'se': 0.05, 'n': 1000}))\n"
            "    sys.stdout.flush()\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", hangs_on_999], timeout=2.0)
        try:
            first = oracle.evaluate((2, 1), 10).mean
            started = time.perf_counter()
            with pytest.raises(OracleIOError, match="timed out"):
                oracle.evaluate((2, 1), 999)
            assert time.perf_counter() - started < 5.0
            # Reaped, not left a zombie: the next call gets a fresh child's answer.
            with pytest.raises(ProcessLookupError):
                os.kill(int(-first), 0)
            retry = oracle.evaluate((2, 1), 10).mean
            assert retry != first
        finally:
            oracle.close()

    def test_the_pool_starts_no_thread(self):
        oracle = SubprocessOracle([sys.executable, "-c", ECHO_EVALUATOR], timeout=10, workers=2)
        before = threading.active_count()
        try:
            for i in range(200):
                oracle.prefetch((1, 2), 10 + i)
                assert oracle.evaluate((2, 1), 10 + i).mean == -1.0
                assert oracle.evaluate((1, 2), 10 + i).mean == -1.0
                assert threading.active_count() == before
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

    def test_an_unfinished_line_past_the_cap_fails_without_waiting_for_the_timeout(self):
        # The child answers with 2 MiB and no line end, then stays silent.
        flood = "import sys, time\nsys.stdin.readline()\nsys.stdout.write('x' * (2 << 20))\nsys.stdout.flush()\n"
        flood += "time.sleep(60)\n"
        oracle = SubprocessOracle([sys.executable, "-c", flood], timeout=5)
        try:
            started = time.perf_counter()
            with pytest.raises(OracleIOError, match="closed its output without responding"):
                oracle.evaluate((2, 1), 10)
            assert time.perf_counter() - started < 2.5 and oracle.restarts == 1
        finally:
            oracle.close()

    def test_an_answer_without_a_final_line_end_is_taken_when_the_child_exits(self):
        unended = "import sys\nsys.stdin.readline()\nsys.stdout.write('{\"mean\": -1.5, \"se\": 0.25, \"n\": 64}')\n"
        oracle = SubprocessOracle([sys.executable, "-c", unended], timeout=10)
        try:
            assert oracle.evaluate((2, 1), 10) == FitnessEstimate(-1.5, 0.25, 64)
        finally:
            oracle.close()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="lanes are capped at the CPU count")
    def test_an_idle_child_flooding_output_does_not_hold_off_another_timeout(self):
        # One child hangs on the 999-game request; the other answers, then writes unasked lines forever.
        # The pool runs in a child interpreter, so a pool that never times out fails this test.
        evaluator = (
            "import json, sys, time\n"
            "if json.loads(sys.stdin.readline())['games'] == 999:\n"
            "    time.sleep(60)\n"
            "print(json.dumps({'mean': -1.0, 'se': 0.05, 'n': 5}), flush=True)\n"
            "while True:\n"
            "    sys.stdout.write('log\\n' * 100000)\n"
        )
        pool = (
            "import sys, time\n"
            "from dca.errors import OracleIOError\n"
            "from dca.evaluation import SubprocessOracle\n"
            "oracle = SubprocessOracle([sys.executable, '-c', sys.argv[1]], timeout=1.0, workers=2)\n"
            "assert oracle.prefetch((1, 2), 999)\n"
            "assert oracle.evaluate((2, 1), 5).mean == -1.0\n"
            "started = time.perf_counter()\n"
            "try:\n"
            "    oracle.evaluate((1, 2), 999)\n"
            "except OracleIOError as err:\n"
            "    print(err, time.perf_counter() - started)\n"
            "oracle.close()\n"
        )
        src = str(Path(dca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", pool, evaluator], capture_output=True, text=True, timeout=30, env=env
        )
        assert done.returncode == 0, done.stderr
        message, waited = done.stdout.rsplit(maxsplit=1)
        assert "timed out after 1.0s" in message and float(waited) < 2.5

    @pytest.mark.skipif(resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100, reason="needs 1100 open files")
    def test_a_pipe_numbered_past_fd_setsize_is_read(self):
        # `select.select` refuses file numbers from FD_SETSIZE (1024) up; a process may hold that many files.
        held = [os.open(os.devnull, os.O_RDONLY)]
        try:
            while held[-1] < 1024:
                held.append(os.open(os.devnull, os.O_RDONLY))
            oracle = SubprocessOracle([sys.executable, "-c", ECHO_EVALUATOR], timeout=10)
            try:
                assert oracle.evaluate((2, 1), 10).mean == -1.0
                assert all(child.process.stdout.fileno() > 1024 for child in oracle._children)
            finally:
                oracle.close()
        finally:
            for fd in held:
                os.close(fd)

    def test_a_dead_child_is_reaped_before_its_replacement(self):
        one_shot = (
            "import sys, json\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'mean': -1.0, 'se': 0.1, 'n': 5}), flush=True)\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", one_shot], timeout=10)
        try:
            oracle.evaluate((1, 2), 5)
            [first] = [child.process for child in oracle._children]
            first.wait(timeout=10)
            assert oracle.evaluate((2, 1), 5).mean == -1.0
            [second] = [child.process for child in oracle._children]
            assert second is not first
            assert first.stdin.closed and first.stdout.closed
        finally:
            oracle.close()

    def test_close_kills_a_child_that_ignores_eof(self):
        oracle = SubprocessOracle([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
        child = oracle._spawn().process
        started = time.perf_counter()
        oracle.close()
        assert time.perf_counter() - started < 5.0
        assert child.returncode is not None

    def test_workers_default_to_two_and_are_capped_at_the_cpu_count(self):
        cmd = [sys.executable, "-c", "pass"]  # never started: children are spawned on demand
        cpus = os.cpu_count()
        assert SubprocessOracle(cmd).lanes == min(2, cpus)
        assert SubprocessOracle(cmd, workers=1).lanes == 1
        assert SubprocessOracle(cmd, workers=cpus + 3).lanes == cpus
        with pytest.raises(ConfigError, match="workers must be >= 1, got 0"):
            SubprocessOracle(cmd, workers=0)

    def test_an_answer_sent_ahead_is_taken_by_evaluate(self):
        # Each answer names its child and counts the requests that child has read.
        counting = (
            "import json, os, sys, time\n"
            "for i, line in enumerate(sys.stdin, start=1):\n"
            "    time.sleep(0.3)\n"
            "    print(json.dumps({'mean': -float(os.getpid()), 'se': float(i), 'n': 5}), flush=True)\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", counting], timeout=10, workers=2)
        try:
            assert oracle.prefetch((1, 2), 5) and oracle.prefetch((2, 1), 5)
            assert oracle.prefetch((1, 2), 5)  # already in flight: not sent again
            assert not oracle.prefetch((1, 2), 6)  # both children busy
            assert len(oracle._children) == 2
            a, b = oracle.evaluate((2, 1), 5), oracle.evaluate((1, 2), 5)
            assert a.mean != b.mean and a.se == b.se == 1.0
            assert oracle.evaluate((1, 2), 6).se == 2.0
            assert len(oracle._children) == 2 and oracle.restarts == 0
        finally:
            oracle.close()

    def test_a_failed_request_sent_ahead_is_counted_and_raises_only_when_used(self):
        one_answer = (
            "import sys, json\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'mean': -1.0, 'se': 0.1, 'n': 5}), flush=True)\n"
            "sys.stdin.readline()\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", one_answer], timeout=10, workers=2)
        try:
            oracle.evaluate((1, 2, 3), 5)
            [first] = [child.process for child in oracle._children]
            assert oracle.prefetch((2, 1, 3), 5)  # the first child reads it and exits
            first.wait(timeout=10)
            assert oracle.evaluate((3, 2, 1), 5).mean == -1.0  # answered by a second child
            assert oracle.restarts == 1
            assert first.stdin.closed and first.stdout.closed
            with pytest.raises(OracleIOError, match="closed its output"):
                oracle.evaluate((2, 1, 3), 5)
        finally:
            oracle.close()

    def test_close_kills_a_child_busy_with_a_request_nobody_asked_for(self):
        busy = "import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n"
        oracle = SubprocessOracle([sys.executable, "-c", busy], timeout=10, workers=1)
        assert oracle.prefetch((1, 2), 5)
        [child] = [c.process for c in oracle._children]
        started = time.perf_counter()
        oracle.close()
        assert time.perf_counter() - started < 5.0
        assert child.returncode is not None and not oracle._children
        assert oracle.restarts == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_silent_requests_sent_ahead_do_not_fail_another_evaluate(self, workers):
        hangs_on_999 = (
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['games'] == 999:\n"
            "        time.sleep(60)\n"
            "    print(json.dumps({'mean': -1.0, 'se': 0.05, 'n': 5}), flush=True)\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", hangs_on_999], timeout=1.0, workers=workers)
        try:
            silent = [(1, 2, 3), (3, 2, 1)][: oracle.lanes]
            assert all(oracle.prefetch(x, 999) for x in silent)  # every lane busy
            started = time.perf_counter()
            assert oracle.evaluate((2, 1, 3), 5).mean == -1.0  # a lane refilled after `timeout`
            assert 1.0 <= time.perf_counter() - started < 5.0
            assert oracle.restarts == 1 and len(oracle._children) == oracle.lanes
        finally:
            oracle.close()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="lanes are capped at the CPU count")
    def test_close_waits_one_timeout_for_all_children_that_ignore_eof(self):
        # Answers every request, then outlives the EOF on its input.
        lingers = (
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'mean': -1.0, 'se': 0.05, 'n': 5}), flush=True)\n"
            "time.sleep(30)\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", lingers], timeout=1.0, workers=2)
        assert oracle.prefetch((1, 2), 5) and oracle.prefetch((2, 1), 5)
        assert oracle.evaluate((1, 2), 5).mean == oracle.evaluate((2, 1), 5).mean == -1.0
        children = [c.process for c in oracle._children]
        assert len(children) == 2 and oracle.restarts == 0
        started = time.perf_counter()
        oracle.close()
        assert time.perf_counter() - started < 1.6
        assert all(child.returncode is not None for child in children)

    def test_a_child_that_closed_its_input_fails_the_send(self, tmp_path):
        # Answers one request, closes its input, then leaves a file named by its pid and lingers.
        closes = (
            "import json, os, sys, time\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'mean': -1.0, 'se': 0.05, 'n': 5}), flush=True)\n"
            "os.close(0)\n"
            f"open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w').close()\n"
            "time.sleep(30)\n"
        )
        oracle = SubprocessOracle([sys.executable, "-c", closes], timeout=10, workers=1)

        def answered_then_closed(x):
            assert oracle.evaluate(x, 5).mean == -1.0
            [child] = oracle._children
            deadline = time.monotonic() + 10
            while not (tmp_path / str(child.process.pid)).exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            return child.process

        try:
            first = answered_then_closed((1, 2, 3))
            assert not oracle.prefetch((2, 1, 3), 5)
            assert oracle.restarts == 1 and not oracle._children and first.returncode is not None
            answered_then_closed((3, 2, 1))
            with pytest.raises(OracleIOError, match="evaluator pipe failed"):
                oracle.evaluate((2, 1, 3), 5)
            assert oracle.restarts == 2 and not oracle._children
        finally:
            oracle.close()

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
            ('{"mean": -2.0, "se": 0.1, "n": 2.7}', "n 2.7 is not an integer"),
            ('{"mean": -2.0, "se": 0.1, "n": true}', "n True is not an integer"),
            ('{"mean": true, "se": 0.1, "n": 64}', "mean True is not a number"),
            ('{"mean": -2.0, "se": false, "n": 64}', "se False is not a number"),
            ('{"mean": "-2.0", "se": "0.1", "n": "64"}', "mean '-2.0' is not a number"),
            ("[1, 2]", "not an object"),
            ("null", "not an object"),
            ('"ok"', "not an object"),
            ("3", "not an object"),
        ],
    )
    def test_untrustworthy_responses_are_rejected(self, line, message):
        with pytest.raises(OracleIOError, match=message) as exc:
            decode_response(line)
        assert exc.value.payload == line

    def test_the_zero_se_conventions_are_accepted(self):
        assert decode_response('{"mean": -2.0, "se": 0.0, "n": 1}') == FitnessEstimate(-2.0, 0.0, 1)


class TestFitnessEstimate:
    def test_fields_read_by_name_and_refuse_assignment(self):
        est = FitnessEstimate(-1.5, 0.25, 64)
        assert (est.mean, est.se, est.n_games) == (-1.5, 0.25, 64)
        for name in ("mean", "se", "n_games"):
            with pytest.raises(AttributeError):
                setattr(est, name, 0)
        assert est == FitnessEstimate(mean=-1.5, se=0.25, n_games=64)

    def test_estimates_are_equal_and_hashed_by_value(self):
        a, b = FitnessEstimate(-1.5, 0.25, 64), FitnessEstimate(-1.5, 0.25, 64)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, FitnessEstimate(-1.5, 0.25, 65)}) == 2
        assert a != FitnessEstimate(-1.5, 0.5, 64)

    def test_the_readers_return_estimates(self, tmp_path):
        assert type(decode_response('{"mean": -2.0, "se": 0.1, "n": 64}')) is FitnessEstimate
        fixture = tmp_path / "rows.replay"
        fixture.write_text("# dca-replay v1\n1 2 3 | -1.0 | 0.1 | 10\n")
        est = ReplayOracle.load(fixture).evaluate((1, 2, 3), 10)
        assert type(est) is FitnessEstimate and est == FitnessEstimate(-1.0, 0.1, 10)


class TestCachingEvaluator:
    def test_cache_hits_by_assignment_and_tier(self):
        landscape = unit_landscape((1, 2, 3), sigma=1.0)
        evaluator = CachingEvaluator(SyntheticOracle(landscape, seed=5))
        first, fresh1 = evaluator.estimate((2, 1, 3), 100)
        second, fresh2 = evaluator.estimate((2, 1, 3), 100)
        assert fresh1 and not fresh2 and first == second
        third, fresh3 = evaluator.estimate((2, 1, 3), 200)
        assert fresh3  # different budget tier is a different key
        # One assignment at two budgets is two tests, each cached at its own tier.
        assert evaluator.estimate((2, 1, 3), 100) == (first, False)
        assert evaluator.estimate((2, 1, 3), 200) == (third, False) and third.n_games == 200
        assert evaluator.fresh_evaluations == 2
        assert evaluator.games_used == 300

    def test_an_exact_table_value_is_one_fresh_test_then_a_hit(self):
        evaluator = CachingEvaluator(ExactOracle(unit_landscape((1, 2, 3))))
        first, fresh1 = evaluator.estimate((2, 1, 3), 1000, exact=-2.0)
        second, fresh2 = evaluator.estimate((2, 1, 3), 1000, exact=-2.0)
        assert fresh1 and not fresh2 and second is first
        assert first == FitnessEstimate(-2.0, 0.0, 1)
        assert evaluator.fresh_evaluations == 1
        assert evaluator.games_used == 1

    def test_an_exact_value_leaves_a_cached_estimate_unchanged(self):
        evaluator = CachingEvaluator(SyntheticOracle(unit_landscape((1, 2, 3), sigma=1.0), seed=5))
        cached, _ = evaluator.estimate((2, 1, 3), 100)
        est, fresh = evaluator.estimate((2, 1, 3), 100, exact=-99.0)
        assert est is cached and not fresh
        assert evaluator.fresh_evaluations == 1
        assert evaluator.games_used == 100

    @pytest.mark.parametrize(
        "est, problem",
        [((math.nan, 0.0, 1), "a non-finite mean or se"), ((-1.0, math.inf, 9), "a non-finite mean or se"),
         ((-1.0, -0.5, 9), "a negative se -0.5")],
    )
    def test_an_untrustworthy_estimate_is_refused_before_it_is_cached(self, est, problem):
        class Fixed(Oracle):
            def evaluate(self, x, n_games):
                return FitnessEstimate(*est)

        evaluator = CachingEvaluator(Fixed())
        for _ in range(2):
            with pytest.raises(ConfigError, match=re.escape(f"estimate of 2 1 3 at 100 games has {problem}")):
                evaluator.estimate((2, 1, 3), 100)
        assert (evaluator.fresh_evaluations, evaluator.games_used) == (0, 0)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_prefetch_is_false_only_for_a_cached_pair(self, lanes):
        oracle = LaneOracle(lanes)
        evaluator = CachingEvaluator(oracle)
        x, y = (3, 1, 2), (1, 3, 2)
        assert evaluator.prefetch(x, 100)  # sent ahead, or refused by a one-lane oracle
        evaluator.estimate(x, 100)
        assert not evaluator.prefetch(x, 100)
        assert evaluator.prefetch(x, 200) and evaluator.prefetch(y, 100)
        assert oracle.sent == ([(x, 100), (x, 200), (y, 100)] if lanes > 1 else [])
        # The two sent ahead and never estimated are the unused ones.
        usage = evaluator.usage()
        assert usage["unused_requests"] == (2 if lanes > 1 else 0)
        assert usage["unused_games"] == (300 if lanes > 1 else 0)

    @pytest.mark.parametrize(
        "lanes, phase2_games, evaluations, oracle",
        [
            # Equal phase budgets: phase 2 hits phase 1's cache.
            (1, 50, (97, 4900), (97, 4900, 0, 0)),
            (1, 200, (98, 10800), (98, 10800, 0, 0)),
            (2, 50, (97, 4900), (108, 5450, 11, 550)),
            (2, 200, (98, 10800), (108, 12800, 10, 2000)),
        ],
    )
    def test_summary_counts_are_pinned(self, monkeypatch, tmp_path, lanes, phase2_games, evaluations, oracle):
        # Two lanes: a synthetic oracle that reports every request as sent
        # ahead. The counts must not depend on how the cache keys its tiers.
        monkeypatch.setattr(SyntheticOracle, "lanes", lanes)
        monkeypatch.setattr(SyntheticOracle, "prefetch", lambda self, x, n_games: lanes > 1)
        cfg = RunConfig.from_dict({
            "initial": [7, 3, 11, 1, 9, 12, 5, 2, 10, 4, 8, 6],
            "seed": 19,
            "oracle": {"kind": "synthetic", "target": list(range(1, 13)), "sigma": 1.9},
            "phase1": {"games": 50, "baseline_games": 100},
            "phase2": {"games": phase2_games, "steps": 40, "t0": 2.0, "dt": 0.05},
        })
        run_experiment(cfg, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["evaluations"] == dict(zip(("tests", "games"), evaluations))
        keys = ("requests", "games", "unused_requests", "unused_games")
        assert doc["oracle"] == {**dict(zip(keys, oracle)), "restarts": 0}


class LaneOracle(ExactOracle):
    """An exact oracle over unit weights that records each request sent ahead."""

    def __init__(self, lanes: int):
        super().__init__(unit_landscape((1, 2, 3)))
        self.lanes = lanes
        self.sent: list[tuple[tuple[int, ...], int]] = []

    def prefetch(self, x, n_games):
        if self.lanes > 1:
            self.sent.append((x, n_games))
        return self.lanes > 1


class TestLandscapeConfig:
    def test_scalar_weight_shorthand(self):
        landscape = HiddenTargetLandscape.from_config(
            {"target": "2 1 3", "weights": 1.0, "sigma": 0.0}
        )
        assert landscape.weights == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            HiddenTargetLandscape.from_config({"target": "1 2", "typo": 1})

    @pytest.mark.parametrize("key", ["1_0", " 10", "+10", "010"])
    def test_a_weight_key_is_read_only_as_str_writes_an_id(self, key):
        with pytest.raises(ConfigError, match=f"^weight key {re.escape(repr(key))} is not a number$"):
            HiddenTargetLandscape.from_config({"target": "1 2 10", "weights": {"1": 1, "2": 1, key: 1}})
        landscape = HiddenTargetLandscape.from_config({"target": "1 2 10", "weights": {"1": 1, "2": 1, "10": 3}})
        assert landscape.weights == {1: 1.0, 2: 1.0, 10: 3.0}

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
        expected = -fold(
            weights[e] * abs(rank_of(tuple(x), e) - rank_of(tuple(target), e)) for e in target
        )
        assert landscape.true_fitness(tuple(x)) == expected

    def test_missing_element_is_an_error(self):
        with pytest.raises(ElementNotFoundError):
            unit_landscape((1, 2, 3)).true_fitness((1, 2, 4))

    def test_the_first_missing_element_in_target_order_is_named(self):
        with pytest.raises(ElementNotFoundError, match="^element 2 not in assignment 1 5 6 4$"):
            unit_landscape((1, 2, 3, 4)).true_fitness((1, 5, 6, 4))


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


# Zero, fractional and overflowing weights: 1e308 times a displacement of two is inf.
sweep_weights_st = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.3, 1e308, -1e308]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def swept_landscapes(draw):
    """A landscape of 1..80 elements weighted by a scalar, a list or a map, and a baseline.

    The baseline holds the target's elements and up to three ids outside it.
    """
    n = draw(st.integers(1, 80), label="n")
    target = tuple(draw(st.permutations(range(1, n + 1))))
    form = draw(st.sampled_from(["scalar", "list", "map"]), label="weights as")
    raw = draw(sweep_weights_st if form == "scalar" else st.lists(sweep_weights_st, min_size=n, max_size=n))
    if n == 1:  # from_config, through as_assignment, refuses a one-element target
        landscape = HiddenTargetLandscape(target, {1: raw if form == "scalar" else raw[0]})
    else:
        if form == "map":
            raw = {str(e): w for e, w in zip(target, raw)}
        landscape = HiddenTargetLandscape.from_config({"target": list(target), "weights": raw})
    extra = draw(st.lists(st.integers(n + 1, 10**9), max_size=3, unique=True), label="outside the target")
    return landscape, tuple(draw(st.permutations(target + tuple(extra))))


def probe_scores(landscape, baseline, element):
    return [landscape.true_fitness(insertion_move(baseline, element, r)) for r in range(1, len(baseline) + 1)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
class TestSweep:
    @settings(max_examples=40, deadline=None)  # every element of rows up to 83 long: about 3 s
    @given(swept_landscapes())
    def test_every_rank_equals_its_single_row_bit_for_bit(self, case):
        landscape, baseline = case
        for element in baseline:
            table = landscape.sweep(baseline, element)
            expected = [float.hex(v) for v in probe_scores(landscape, baseline, element)]
            if table is None:  # an overflow or inf - inf somewhere: each probe is scored alone
                assert not all(map(math.isfinite, map(float.fromhex, expected)))
            else:
                assert [float.hex(v) for v in table] == expected

    @settings(max_examples=30, deadline=None)
    @given(swept_landscapes(), st.data())
    def test_a_missing_target_element_gives_none(self, case, data):
        landscape, baseline = case
        drop = data.draw(st.sampled_from(landscape.target), label="dropped")
        baseline = tuple(10**9 + 1 if e == drop else e for e in baseline)
        for element in baseline:
            assert landscape.sweep(baseline, element) is None
        with pytest.raises(ElementNotFoundError, match=f"^element {drop} not in"):
            landscape.true_fitness(baseline)

    def test_minus_zero_at_the_target_rank(self):
        landscape = unit_landscape((1, 2, 3))
        table = landscape.sweep((2, 1, 3), 2)
        assert [float.hex(v) for v in table] == [float.hex(v) for v in (-2.0, -0.0, -2.0)]
