"""The noisy objective boundary: sampling, oracles, replay fixtures.

Every oracle maps (assignment, game budget) to a FitnessEstimate. Synthetic
and exact oracles score against a configurable hidden landscape; replay
oracles pin estimates from fixture files; the subprocess oracle delegates to
an external evaluator over a line-delimited JSON protocol.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import operator
import os
import queue
import subprocess
import threading
import time
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import check_keys, integer, read, read_text, real, required
from .errors import (
    ConfigError,
    ElementNotFoundError,
    OracleIOError,
    ReplayMissError,
)
from .perm import Assignment, as_assignment, format_assignment, parse_assignment, rank_of

REPLAY_HEADER = "# dca-replay v1"


@dataclass(frozen=True)
class FitnessEstimate:
    """Sample mean, standard error of the mean, and sample count.

    se == 0 is reserved for exact oracles and the single-sample convention
    (n_games == 1 defines se as 0).
    """

    mean: float
    se: float
    n_games: int


def untrustworthy(est: FitnessEstimate) -> Optional[str]:
    """What makes `est` unusable, or None: the check on every estimate read from outside."""
    # A NaN mean would silently disable the noise gate and the sweep stop rule.
    if not (math.isfinite(est.mean) and math.isfinite(est.se)):
        return "a non-finite mean or se"
    if est.se < 0:
        return f"a negative se {est.se}"
    if est.n_games < 1:
        return f"n={est.n_games} < 1 games"
    return None


def _unsigned_zero(text: str) -> str:
    """`text` without the minus sign of a value that rounds to zero, such as -0.0."""
    return text[1:] if text.startswith("-") and not text.strip("-0.") else text


def format_mean(value: float) -> str:
    """Fixed trace formatting for goal-difference means (5 decimals); zero is unsigned."""
    return _unsigned_zero(f"{value:.5f}")


def format_se(value: float) -> str:
    """Fixed trace formatting for standard errors (6 decimals); zero is unsigned."""
    return _unsigned_zero(f"{value:.6f}")


def _digits(key):
    """A JSON object key, always a string, as the int it spells; any other key as it is."""
    try:
        return int(key) if isinstance(key, str) else key
    except ValueError:
        return key


@dataclass(frozen=True)
class HiddenTargetLandscape:
    """Separable fitness over permutations: weighted displacement from a target.

    true_fitness(x) = -sum_e w_e * |rank_of(x, e) - rank_of(target, e)|, so the
    target permutation scores 0 and everything else scores below it.
    """

    target: Assignment
    weights: dict[int, float]
    sigma: float = 0.0

    def __post_init__(self):
        missing = set(self.target) - set(self.weights)
        if missing:
            raise ConfigError(f"missing weights for elements {sorted(missing)}")
        stray = set(self.weights) - set(self.target)
        if stray:
            raise ConfigError(f"weights for elements {sorted(stray)} outside the target")
        # A NaN weight or sigma would make every fitness NaN and silently
        # disable the noise gate; a negative sigma fails mid-run in numpy.
        bad = sorted(e for e, w in self.weights.items() if not math.isfinite(w))
        if bad:
            raise ConfigError(f"non-finite weights for elements {bad}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        # Column i of a score row is target rank i. Column 0 takes the
        # elements outside the target at weight 0.0, so each row's sum is a
        # left-to-right fold from 0.0 and a -0.0 term cannot change its sign.
        # A target rank that no element fills stays NaN.
        n = len(self.target)
        object.__setattr__(self, "_slot", {e: i for i, e in enumerate(self.target, start=1)})
        object.__setattr__(self, "_w", np.array([0.0, *(self.weights[e] for e in self.target)]))
        object.__setattr__(self, "_i", np.arange(n + 1.0))
        object.__setattr__(self, "_blank", np.array([0.0, *[math.nan] * n]))

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.target))

    def true_fitness(self, x: Assignment) -> float:
        """The weighted displacement sum of one assignment; see `scores`.

        About 4-9 us a call at n=9 to 75 (timeit on a shared 2-vCPU Xeon
        VM). The synthetic oracle calls it once a test; an exact oracle's
        phase-1 probes take their values from `sweep` instead.
        """
        total = float(self._totals(self._ranks(x, 1, len(x))))
        if total != total:  # NaN: a rank left unfilled, or inf - inf
            self._check_elements(x)
        return total

    def scores(self, rows: Sequence[Assignment]) -> list[float]:
        """The true fitness of each of `rows`, assignments of one length.

        Each row's elements are mapped to their target ranks and scattered
        into a rank array in target order; each score is the negated
        left-to-right fold from 0.0 of the terms w * |r - i|, in target
        order, bit for bit. Elements outside the target are ignored. A
        missing element raises ElementNotFoundError naming the first such
        element, in target order, of the first such row. `weights` must not
        be mutated after construction. Weights so large that a term
        overflows give inf or NaN, as before, and numpy's RuntimeWarning.

        A batch costs the same dozen numpy calls as one row: about 1 us a
        row in the 4096-row batches of `brute_force_optimum` at n=9, where
        `true_fitness` takes 6.5 us. `sweep` scores the rows of one phase-1
        sweep with the same fold.
        """
        m, k = len(rows), len(rows[0])
        totals = self._totals(self._ranks(chain.from_iterable(rows), m, k).reshape(m, -1)).tolist()
        if math.isnan(sum(totals)):  # a rank left unfilled, or inf - inf
            for x in rows:
                self._check_elements(x)
        return totals

    def sweep(self, baseline: Assignment, element: int) -> Optional[list[float]]:
        """The true fitness of `baseline` with `element` moved to each rank 1..k, or None.

        Row r - 1 of one k x (n + 1) rank matrix holds `element` at rank r and
        the rest shifted by one at and past r, scored by the fold of `scores`:
        entry r - 1 is `true_fitness(insertion_move(baseline, element, r))`
        bit for bit. A NaN total (a missing target element, or inf - inf)
        gives None, for the caller to score each probe alone. About 80 us at
        k=75, against 12 us a row for `insertion_move` and `true_fitness`
        (timeit on a shared 2-vCPU Xeon VM).
        """
        k = len(baseline)
        own = rank_of(baseline, element) - 1
        at = np.fromiter(map(self._slot.get, baseline, repeat(0)), np.intp, k)
        rows = np.arange(k)
        rest = np.arange(1.0, k)  # the other elements' ranks in the rest
        ranks = np.tile(self._blank, (k, 1))
        ranks[rows[:, None], np.delete(at, own)] = rest + (rest > rows[:, None])
        ranks[rows, at[own]] = rows + 1.0
        totals = self._totals(ranks)
        return None if np.isnan(totals).any() else totals.tolist()

    def _ranks(self, elements, m: int, k: int) -> np.ndarray:
        """The ranks of `m` rows of `k` elements each, one row of n + 1 columns after another."""
        width = self._w.size
        at = np.fromiter(map(self._slot.get, elements, repeat(0)), np.intp, m * k)
        positions = self._i[1:] if k == width - 1 else np.arange(1.0, k + 1)
        ranks = self._blank.copy()
        if m > 1:  # row j's columns start at j * width
            at += np.repeat(np.arange(0, m * width, width), k)
            positions, ranks = np.tile(positions, m), np.tile(ranks, m)
        ranks[at] = positions
        return ranks

    def _totals(self, ranks: np.ndarray) -> np.ndarray:
        """Each row's score: the negated fold from column 0 of w * |rank - i|, in place."""
        ranks -= self._i
        np.abs(ranks, out=ranks)
        ranks *= self._w
        return -np.add.accumulate(ranks, axis=-1)[..., -1]

    def _check_elements(self, x: Assignment) -> None:
        present = set(x)
        missing = next((e for e in self.target if e not in present), None)
        if missing is not None:
            raise ElementNotFoundError(f"element {missing} not in assignment {format_assignment(x)}")

    @classmethod
    def from_config(cls, doc: dict) -> "HiddenTargetLandscape":
        """The landscape of a `hidden-target` spec, or of an `exact` or `synthetic` oracle spec."""
        check_keys(doc, {"kind", "target", "weights", "sigma"}, "landscape")
        kind = doc.get("kind", "hidden-target")
        if kind not in ("hidden-target", "exact", "synthetic"):
            raise ConfigError(f"unknown landscape kind {kind!r}")
        target = as_assignment(required(doc, "target", "landscape"))
        raw_w = doc.get("weights", 1.0)
        if isinstance(raw_w, (int, float)):
            weights = dict.fromkeys(target, real(raw_w, "weights"))
        elif isinstance(raw_w, dict):
            weights = {integer(_digits(k), "weight key"): real(v, "weight") for k, v in raw_w.items()}
        elif isinstance(raw_w, (list, tuple)):
            if len(raw_w) != len(target):
                raise ConfigError(f"{len(raw_w)} weights for a target of {len(target)} elements")
            weights = {e: real(w, "weight") for e, w in zip(target, raw_w)}
        else:
            raise ConfigError(f"weights must be a number, a list or a map, got {raw_w!r}")
        return cls(target=target, weights=weights, **read(doc, {"sigma": ("sigma", real)}, ""))


def _stream_seed(seed: int, x: Assignment, n_games: int) -> int:
    """Per-evaluation RNG seed, stable across call order."""
    digest = hashlib.sha256(f"{seed}|{format_assignment(x)}|{n_games}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Oracle:
    """Evaluation boundary: estimate the fitness of an assignment.

    `lanes` is how many requests the oracle can run at once; with one lane,
    `prefetch` sends nothing. `restarts` counts evaluator processes reaped
    after a failure.
    """

    lanes = 1
    restarts = 0

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        raise NotImplementedError

    def prefetch(self, x: Assignment, n_games: int) -> bool:
        """Start `evaluate(x, n_games)` on an idle lane without waiting; True if it was sent."""
        return False

    def sweep(self, baseline: Assignment, element: int) -> Optional[list[float]]:
        """Exact means (se 0, one game) of `baseline` with `element` at each rank 1..n, or None.

        None, the default, leaves each probe of a phase-1 sweep to `evaluate`.
        """
        return None

    def close(self) -> None:
        pass


class ExactOracle(Oracle):
    """Noise-free oracle over a landscape; se = 0, n_games = 1."""

    def __init__(self, landscape: HiddenTargetLandscape):
        self.landscape = landscape

    def evaluate(self, x: Assignment, n_games: int = 1) -> FitnessEstimate:
        return FitnessEstimate(mean=self.landscape.true_fitness(x), se=0.0, n_games=1)

    def sweep(self, baseline: Assignment, element: int) -> Optional[list[float]]:
        return self.landscape.sweep(baseline, element)


class SyntheticOracle(Oracle):
    """Gaussian per-game noise around the landscape's true fitness.

    Estimates are reproducible per (seed, assignment, n_games) regardless of
    evaluation order, so concurrent callers agree with sequential runs.
    """

    def __init__(self, landscape: HiddenTargetLandscape, seed: int):
        self.landscape = landscape
        self.seed = seed

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        """Mean and standard error (n-1 divisor, over sqrt(n)) of `n_games` noisy games.

        The games are drawn into one buffer and scaled and shifted in place;
        the deviations from the mean are squared in the same buffer. That is
        bit-identical to `true + rng.normal(0, sigma, n)` with `mean()` and
        `std(ddof=1) / sqrt(n)`, without their temporary arrays and second
        mean: about 325 us against 405 us at 16000 games, and 57 us against
        79 us at 1000 (timeit on a shared 2-vCPU Xeon VM). The normal draws
        themselves are most of what is left.
        """
        if n_games < 1:
            raise ConfigError(f"n_games must be >= 1, got {n_games}")
        true = self.landscape.true_fitness(x)
        if self.landscape.sigma == 0.0:
            return FitnessEstimate(mean=true, se=0.0, n_games=n_games)
        rng = np.random.default_rng(_stream_seed(self.seed, x, n_games))
        samples = rng.standard_normal(n_games)
        samples *= self.landscape.sigma
        samples += true
        if n_games == 1:
            return FitnessEstimate(mean=float(samples[0]), se=0.0, n_games=1)
        mean = samples.mean()
        samples -= mean
        samples *= samples
        se = math.sqrt(float(samples.sum()) / (n_games - 1)) / math.sqrt(n_games)
        return FitnessEstimate(mean=float(mean), se=se, n_games=n_games)


def _fold(terms) -> float:  # not `sum`: from Python 3.12 it compensates float rounding
    return reduce(operator.add, terms, 0.0)


class PoolOracle(Oracle):
    """Weighted average across an opponent pool of sub-oracles, summed as left-to-right folds."""

    def __init__(self, members: Sequence[tuple[Oracle, float]]):
        if not members:
            raise ConfigError("opponent pool cannot be empty")
        if not all(math.isfinite(w) and w > 0 for _, w in members):
            raise ConfigError("pool weights must be finite and strictly positive")
        self.members = list(members)

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        total_w = _fold(w for _, w in self.members)
        estimates = [(oracle.evaluate(x, n_games), w) for oracle, w in self.members]
        mean = _fold(w * est.mean for est, w in estimates) / total_w
        se = math.sqrt(_fold((w / total_w) ** 2 * est.se**2 for est, w in estimates))
        games = sum(est.n_games for est, _ in estimates)
        return FitnessEstimate(mean=mean, se=se, n_games=games)

    @property
    def restarts(self) -> int:
        return sum(oracle.restarts for oracle, _ in self.members)

    def close(self) -> None:
        for oracle, _ in self.members:
            oracle.close()


class ReplayOracle(Oracle):
    """Pinned assignment -> (mean, se, n) table, returned verbatim; unknown assignments fail hard."""

    def __init__(self, records: dict[str, FitnessEstimate], path: Optional[Path] = None):
        self.records = records
        self.path = path

    @classmethod
    def load(cls, path: str | Path) -> "ReplayOracle":
        """The oracle of the replay file at `path`."""
        path = Path(path)
        lines = read_text(path, "replay fixture").splitlines()
        if not lines or lines[0].strip() != REPLAY_HEADER:
            raise ConfigError(f"{path}: missing replay header {REPLAY_HEADER!r}")
        records: dict[str, FitnessEstimate] = {}
        for number, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, mean_s, se_s, n_s = (part.strip() for part in line.split("|"))
                est = FitnessEstimate(mean=float(mean_s), se=float(se_s), n_games=int(n_s))
            except ValueError as err:
                raise ConfigError(f"{path}: unparseable replay line {raw!r}") from err
            problem = untrustworthy(est)
            if problem:
                raise ConfigError(f"{path}:{number}: replay row has {problem}")
            key = format_assignment(parse_assignment(key))
            if key in records:
                raise ConfigError(f"{path}: assignment {key!r} appears more than once")
            records[key] = est
        if not records:
            raise ConfigError(f"{path}: replay fixture holds no records")
        return cls(records, path)

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        key = format_assignment(x)
        est = self.records.get(key)
        if est is None:
            raise ReplayMissError(f"assignment {key!r} absent from replay fixture {self.path}")
        return est


class _Child:
    """One evaluator process, its request in flight, and the daemon thread that queues its output lines."""

    def __init__(self, process: subprocess.Popen, lines: "queue.SimpleQueue[tuple[_Child, str]]"):
        self.process = process
        self.request: Optional[tuple[Assignment, int]] = None
        self.reader = threading.Thread(target=_pump_lines, args=(self, lines), daemon=True)
        self.reader.start()


class SubprocessOracle(Oracle):
    """Delegate evaluation to a pool of child processes over line-delimited JSON.

    Request:  {"assignment":[...],"games":N,"seed":S}
    Response: {"mean":M,"se":E,"n":N}
    Unknown response fields are ignored; missing ones are errors. Up to
    `lanes` children run at once (`workers`: by default two, never more than
    the CPU count), with one request in flight each. The first request spawns
    the first child; `prefetch` spawns another only when every child is busy.
    Each child gets one daemon thread that queues its output lines, tagged
    with the child, on one queue shared by the pool. `evaluate` takes an
    answer already back or waits at most `timeout` seconds for it; answers
    that come back meanwhile are kept until asked for. A child that dies or
    goes silent is reaped and counted in `restarts`; its failure is an
    OracleIOError only for an `evaluate` that needs its answer.
    """

    def __init__(
        self, cmd: Sequence[str], timeout: float = 30.0, seed: int = 0, workers: Optional[int] = None
    ):
        if not (isinstance(cmd, (list, tuple)) and cmd and all(isinstance(a, str) for a in cmd)):
            raise ConfigError(f"subprocess oracle needs a non-empty list of strings as cmd, got {cmd!r}")
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # the longest wait a queue or a thread takes
            raise ConfigError(
                f"subprocess timeout must be finite and positive, <= {threading.TIMEOUT_MAX}, got {timeout}"
            )
        cpus = os.cpu_count() or 1
        workers = min(2, cpus) if workers is None else workers
        if workers < 1:
            raise ConfigError(f"subprocess workers must be >= 1, got {workers}")
        self.cmd = list(cmd)
        self.timeout = timeout
        self.seed = seed
        self.lanes = min(workers, cpus)
        self.restarts = 0
        self._children: list[_Child] = []
        self._lines: "queue.SimpleQueue[tuple[_Child, str]]" = queue.SimpleQueue()
        self._answers: dict[tuple[Assignment, int], str] = {}

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        key = (x, n_games)
        if key not in self._answers:
            child = next((c for c in self._children if c.request == key), None)
            if child is None:
                child = self._idle_child(wait=True)
                self._send(child, key)
            self._await(child)
        line = self._answers.pop(key)
        if not line:
            raise OracleIOError("evaluator closed its output without responding", payload=line)
        return decode_response(line)

    def prefetch(self, x: Assignment, n_games: int) -> bool:
        """Send the request to an idle child without waiting; False when none is free or sending failed.

        A request that fails is left for `evaluate` to send again or report.
        """
        key = (x, n_games)
        if key in self._answers or any(c.request == key for c in self._children):
            return True
        try:
            child = self._idle_child(wait=False)
            return child is not None and self._send(child, key)
        except OracleIOError:
            return False

    def _idle_child(self, wait: bool) -> Optional[_Child]:
        """A live child with no request in flight, spawned while the pool has room.

        When every child is busy, `wait` waits for the first child's answer.
        """
        self._collect()
        while True:
            idle = next((c for c in self._children if c.request is None), None)
            if idle is not None and idle.process.poll() is not None:
                self._drop(idle)  # it died between requests
            elif idle is not None:
                return idle
            elif len(self._children) < self.lanes:
                return self._spawn()
            elif not wait:
                return None
            else:
                self._await(self._children[0])

    def _spawn(self) -> _Child:
        try:
            process = subprocess.Popen(
                self.cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as err:  # a missing or non-executable program, say
            raise OracleIOError(f"cannot start evaluator {self.cmd}: {err}") from err
        child = _Child(process, self._lines)
        self._children.append(child)
        return child

    def _send(self, child: _Child, key: tuple[Assignment, int]) -> bool:
        x, n_games = key
        request = encode_request(x, n_games, _stream_seed(self.seed, x, n_games) % (1 << 32))
        try:
            child.process.stdin.write(request + "\n")
            child.process.stdin.flush()
        except OSError as err:  # a broken pipe, say
            self._drop(child)
            raise OracleIOError(f"evaluator pipe failed: {err}") from err
        child.request = key
        return True

    def _await(self, child: _Child) -> None:
        """Wait for `child`'s answer, filing other children's on the way; drop it if silent for `timeout`."""
        deadline = time.monotonic() + self.timeout
        while child.request is not None:
            try:
                self._take(*self._lines.get(timeout=max(0.0, deadline - time.monotonic())))
            except queue.Empty:
                self._drop(child)
                raise OracleIOError(f"evaluator timed out after {self.timeout}s") from None

    def _collect(self) -> None:
        """File every output line already queued, without waiting."""
        with contextlib.suppress(queue.Empty):
            while True:
                self._take(*self._lines.get_nowait())

    def _take(self, child: _Child, line: str) -> None:
        """File `line` as the answer to `child`'s request; "" (end of output) means the child is gone."""
        if child not in self._children:
            return  # a dropped child's leftover
        if child.request is not None:
            self._answers[child.request], child.request = line, None
        if not line:
            self._drop(child)

    def _drop(self, child: _Child) -> None:
        """Kill and reap a child that died, failed or went silent, and count the restart."""
        self._children.remove(child)
        self.restarts += 1
        child.request = None
        child.process.kill()
        _reap([child], self.timeout)

    def close(self) -> None:
        """Reap every child: an idle one gets EOF and `timeout` to exit, a busy one is killed at once.

        A busy child at close holds a request sent ahead that nothing asked
        for, so its answer is not waited for.
        """
        self._collect()  # count the failures already back
        children, self._children = self._children, []
        _reap(children, self.timeout)


def _reap(children: list[_Child], timeout: float) -> None:
    """Close the children's pipes and wait for them to exit, all at once.

    A child with a request in flight is killed at once; any other gets EOF
    and is killed if it still runs after `timeout`.
    """
    for child in children:
        if child.request is not None:
            child.process.kill()
        with contextlib.suppress(OSError):  # a dead child's stdin may hold an unflushable request
            child.process.stdin.close()
    for child in children:
        try:
            child.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.process.kill()
            child.process.wait()
        # The reaped child's end of the pipe is closed, so its reader is at EOF.
        child.reader.join(timeout)
        child.process.stdout.close()


def _pump_lines(child: _Child, lines: "queue.SimpleQueue[tuple[_Child, str]]") -> None:
    """Queue every line of `child`'s output, then "" at EOF; one such thread runs per child.

    The "" is queued even when reading fails (say, on undecodable output), so
    the waiting `evaluate` reports a closed stream at once instead of a timeout.
    """
    try:
        for line in child.process.stdout:
            lines.put((child, line))
    finally:
        lines.put((child, ""))


def encode_request(x: Assignment, n_games: int, seed: int) -> str:
    return json.dumps(
        {"assignment": list(x), "games": n_games, "seed": seed}, separators=(",", ":")
    )


def decode_response(line: str) -> FitnessEstimate:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as err:
        raise OracleIOError(f"malformed evaluator response: {err}", payload=line) from err
    if not isinstance(doc, dict):
        raise OracleIOError("evaluator response is not an object", payload=line)
    missing = {"mean", "se", "n"} - doc.keys()
    if missing:
        raise OracleIOError(f"evaluator response missing fields {sorted(missing)}", payload=line)
    try:
        # The config number rule: a bool is not a number, and n is never truncated.
        est = FitnessEstimate(
            mean=real(doc["mean"], "mean"), se=real(doc["se"], "se"), n_games=integer(doc["n"], "n")
        )
    except ConfigError as err:
        raise OracleIOError(f"evaluator response fields unusable: {err}", payload=line) from err
    problem = untrustworthy(est)
    if problem:
        raise OracleIOError(f"evaluator response has {problem}", payload=line)
    return est


class CachingEvaluator:
    """Per-run estimate cache keyed by (assignment, game tier).

    Assignments already checked are never re-sampled within a run. A run
    estimates from one thread, so the cache takes no lock. A request sent
    ahead by `prefetch` becomes a test only when `estimate` asks for it;
    `usage` counts the ones never asked for.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._cache: dict[tuple[Assignment, int], FitnessEstimate] = {}
        self._ahead: set[tuple[Assignment, int]] = set()  # sent by `prefetch`, not yet estimated
        self.games_used = 0
        self.fresh_evaluations = 0

    def estimate(
        self, x: Assignment, n_games: int, exact: Optional[float] = None
    ) -> tuple[FitnessEstimate, bool]:
        """Return (estimate, fresh); fresh is False on a cache hit.

        `exact`, x's mean from the oracle's `sweep` table, stands in for
        `evaluate` on a miss.
        """
        key = (x, n_games)
        hit = self._cache.get(key)
        if hit is not None:
            return hit, False
        if self._ahead:
            self._ahead.discard(key)
        est = self._cache[key] = (
            self.oracle.evaluate(x, n_games) if exact is None else FitnessEstimate(exact, 0.0, 1)
        )
        self.games_used += est.n_games
        self.fresh_evaluations += 1
        return est, True

    def prefetch(self, x: Assignment, n_games: int) -> bool:
        """Send (x, n_games) to an idle oracle lane unless it is cached; False on a cache hit."""
        key = (x, n_games)
        if key in self._cache:
            return False
        if key not in self._ahead and self.oracle.prefetch(x, n_games):
            self._ahead.add(key)
        return True

    def usage(self) -> dict[str, int]:
        """What the oracle was sent: the fresh tests plus the requests sent ahead and never used."""
        unused_games = sum(n for _, n in self._ahead)
        return {
            "requests": self.fresh_evaluations + len(self._ahead),
            "games": self.games_used + unused_games,
            "unused_requests": len(self._ahead),
            "unused_games": unused_games,
            "restarts": self.oracle.restarts,
        }
