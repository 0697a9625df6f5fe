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
import queue
import subprocess
import threading
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
from .perm import Assignment, as_assignment, format_assignment, parse_assignment

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

        About 15 us a probe in a climb-exact run (n=75), against 19-21 us
        for the list of products over (element, rank, weight) terms it
        replaces, and 8 against 10 us at n=40 by timeit (shared 2-vCPU Xeon
        VM). At n=9 it is the slower, 6.5 against 4 us.
        """
        total = -float(np.add.accumulate(self._terms(x, 1, len(x)))[-1])
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
        `true_fitness` takes 6.5 us.
        """
        m, k = len(rows), len(rows[0])
        terms = self._terms(chain.from_iterable(rows), m, k).reshape(m, -1)
        totals = (-np.add.accumulate(terms, axis=1)[:, -1]).tolist()
        if math.isnan(sum(totals)):  # a rank left unfilled, or inf - inf
            for x in rows:
                self._check_elements(x)
        return totals

    def _terms(self, elements, m: int, k: int) -> np.ndarray:
        """The terms of `m` rows of `k` elements each, one row of n + 1 columns after another."""
        width = self._w.size
        at = np.fromiter(map(self._slot.get, elements, repeat(0)), np.intp, m * k)
        positions = self._i[1:] if k == width - 1 else np.arange(1.0, k + 1)
        ranks, i, w = self._blank.copy(), self._i, self._w
        if m > 1:  # row j's columns start at j * width
            at += np.repeat(np.arange(0, m * width, width), k)
            positions, ranks, i, w = (np.tile(a, m) for a in (positions, ranks, i, w))
        ranks[at] = positions
        ranks -= i
        np.abs(ranks, out=ranks)
        ranks *= w
        return ranks

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
    """Evaluation boundary: estimate the fitness of an assignment."""

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ExactOracle(Oracle):
    """Noise-free oracle over a landscape; se = 0, n_games = 1."""

    def __init__(self, landscape: HiddenTargetLandscape):
        self.landscape = landscape

    def evaluate(self, x: Assignment, n_games: int = 1) -> FitnessEstimate:
        return FitnessEstimate(mean=self.landscape.true_fitness(x), se=0.0, n_games=1)


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


class SubprocessOracle(Oracle):
    """Delegate evaluation to a child process over line-delimited JSON.

    Request:  {"assignment":[...],"games":N,"seed":S}
    Response: {"mean":M,"se":E,"n":N}
    Unknown response fields are ignored; missing ones are errors. One request
    is in flight per child at a time. Each child gets one daemon thread that
    queues its output lines; `evaluate` waits at most `timeout` seconds on
    that queue.
    """

    def __init__(self, cmd: Sequence[str], timeout: float = 30.0, seed: int = 0):
        if not (isinstance(cmd, (list, tuple)) and cmd and all(isinstance(a, str) for a in cmd)):
            raise ConfigError(f"subprocess oracle needs a non-empty list of strings as cmd, got {cmd!r}")
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # the longest wait a queue or a thread takes
            raise ConfigError(
                f"subprocess timeout must be finite and positive, <= {threading.TIMEOUT_MAX}, got {timeout}"
            )
        self.cmd = list(cmd)
        self.timeout = timeout
        self.seed = seed
        self._child: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._lines: Optional["queue.SimpleQueue[str]"] = None
        self._lock = threading.Lock()

    def _ensure_child(self) -> subprocess.Popen:
        """The live child, spawned with one daemon thread feeding its lines to a queue."""
        if self._child is None or self._child.poll() is not None:
            self.close()  # reap a dead child and close its pipes before replacing it
            try:
                self._child = subprocess.Popen(
                    self.cmd,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as err:  # a missing or non-executable program, say
                raise OracleIOError(f"cannot start evaluator {self.cmd}: {err}") from err
            self._lines = queue.SimpleQueue()
            self._reader = threading.Thread(
                target=_pump_lines, args=(self._child.stdout, self._lines), daemon=True
            )
            self._reader.start()
        return self._child

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        request = encode_request(x, n_games, _stream_seed(self.seed, x, n_games) % (1 << 32))
        with self._lock:
            child = self._ensure_child()
            try:
                child.stdin.write(request + "\n")
                child.stdin.flush()
            except (BrokenPipeError, OSError) as err:
                raise OracleIOError(f"evaluator pipe failed: {err}") from err
            try:
                line = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                child.kill()
                self.close()  # reap it now: a killed child still polls as running for a while
                raise OracleIOError(f"evaluator timed out after {self.timeout}s") from None
        if not line:
            raise OracleIOError("evaluator closed its output without responding", payload=line)
        return decode_response(line)

    def close(self) -> None:
        """Close the child's pipes and reap it; a child still running after `timeout` is killed."""
        child, self._child = self._child, None
        if child is None:
            return
        with contextlib.suppress(OSError):  # a dead child's stdin may hold an unflushable request
            child.stdin.close()
        try:
            child.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        # The reaped child's end of the pipe is closed, so its reader is at EOF.
        self._reader.join(self.timeout)
        child.stdout.close()


def _pump_lines(stream, lines: "queue.SimpleQueue[str]") -> None:
    """Queue every line of `stream`, then "" at EOF; one such thread runs per child.

    The "" is queued even when reading fails (say, on undecodable output), so
    the waiting `evaluate` reports a closed stream at once instead of a timeout.
    """
    try:
        for line in stream:
            lines.put(line)
    finally:
        lines.put("")


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
    estimates from one thread, so the cache takes no lock.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._cache: dict[tuple[Assignment, int], FitnessEstimate] = {}
        self.games_used = 0
        self.fresh_evaluations = 0

    def estimate(self, x: Assignment, n_games: int) -> tuple[FitnessEstimate, bool]:
        """Return (estimate, fresh); fresh is False on a cache hit."""
        key = (x, n_games)
        hit = self._cache.get(key)
        if hit is not None:
            return hit, False
        est = self._cache[key] = self.oracle.evaluate(x, n_games)
        self.games_used += est.n_games
        self.fresh_evaluations += 1
        return est, True
