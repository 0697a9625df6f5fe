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
import select
import subprocess
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import check_keys, element_id, integer, read, read_text, real, required
from .errors import ConfigError, DcaError, OracleIOError, ReplayMissError
from .perm import Assignment, as_assignment, format_assignment, parse_assignment, rank_of

REPLAY_HEADER = "# dca-replay v1"
LINE_CAP = 1 << 20  # an evaluator's unfinished line past this many bytes is filed as end of output


class FitnessEstimate(NamedTuple):
    """Sample mean, standard error of the mean, and sample count; immutable, equal and hashed by value.

    se == 0 is reserved for exact oracles and the single-sample convention
    (n_games == 1 defines se as 0). A tuple, since a phase-1 sweep makes
    one for each fresh probe: about 0.3 us to build, against 0.6 us for a
    frozen dataclass (timeit on a shared 2-vCPU Xeon VM).
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
        """The weighted displacement sum of one assignment, scattered into one rank row; see `scores`.

        About 4-9 us a call at n=9 to 75 (timeit on a shared 2-vCPU Xeon
        VM). The synthetic oracle calls it once a test; an exact oracle's
        phase-1 probes take their values from `sweep` instead.
        """
        k = len(x)
        ranks = self._blank.copy()
        ranks[np.fromiter(map(self._slot.get, x, repeat(0)), np.intp, k)] = np.arange(1.0, k + 1)
        total = float(self._totals(ranks))
        if total != total:  # NaN: a rank left unfilled, or inf - inf
            self._check_elements(x)
        return total

    def scores(self, rows: Sequence[Assignment]) -> list[float]:
        """The true fitness of each of `rows`, assignments of one length.

        Row j's elements are mapped to their target ranks and scattered into
        row j of one m x (n + 1) rank matrix; each score is the negated
        left-to-right fold from 0.0 of the terms w * |r - i|, in target
        order, bit for bit. Elements outside the target are ignored. A
        missing element raises ElementNotFoundError naming the first such
        element, in target order, of the first such row. `weights` must not
        be mutated after construction. Weights so large that a term
        overflows give inf or NaN, as before, and numpy's RuntimeWarning.

        A batch costs the same dozen numpy calls as one row: about 1 us a
        row in the 4096-row batches of `brute_force_optimum` at n=9, where
        `true_fitness` takes 6.5 us. This and `true_fitness` fold along each
        row with `accumulate`, not slot-major like `sweep`: a one-row batch
        would then reduce along a contiguous axis, which numpy sums pairwise,
        changing bits from 8 terms on. `true_fitness` is one row, and
        `brute_force_optimum` can pass a one-row chunk.
        """
        m, k = len(rows), len(rows[0])
        at = np.fromiter(map(self._slot.get, chain.from_iterable(rows), repeat(0)), np.intp, m * k)
        ranks = np.tile(self._blank, (m, 1))
        ranks[np.arange(m).repeat(k), at] = np.tile(np.arange(1.0, k + 1), m)
        totals = self._totals(ranks).tolist()
        if math.isnan(sum(totals)):  # a rank left unfilled, or inf - inf
            for x in rows:
                self._check_elements(x)
        return totals

    def sweep(self, baseline: Assignment, element: int) -> Optional[list[float]]:
        """The true fitness of `baseline` with `element` moved to each rank 1..k, or None.

        Entry r - 1 is `true_fitness(insertion_move(baseline, element, r))`
        bit for bit. A NaN total (a missing target element, or inf - inf)
        gives None, for the caller to score each probe alone.

        The terms are laid out slot-major: row i of one (n + 1) x k matrix
        is target rank i, column r - 1 puts `element` at rank r and shifts
        the other elements' ranks in the rest by one at and past r. Each
        term w * |rank - i| is the same float operation on the same operands
        as in `scores`, since ranks and slots are small exact integers. One
        reduction down the slot axis then sums each column: numpy walks a
        non-contiguous reduction axis in order from row 0, the same left
        fold as `accumulate` along a row. Only at k = 1 is the slot axis
        contiguous: then n <= 1 and a sum of at most two terms has one
        order, or a target element is missing and the total is NaN in any.
        About 40 us at k=75 and 23 us at n=40, against 56 and 27 us for the
        rank-major `accumulate` it replaces and 9 us a row for
        `insertion_move` and `true_fitness` (timeit on a shared 2-vCPU Xeon
        VM).
        """
        own = rank_of(baseline, element) - 1
        at = np.fromiter(map(self._slot.get, baseline, repeat(0)), np.intp, len(baseline))
        ranks = np.arange(1.0, len(baseline) + 1)  # column r - 1 puts the element at rank r
        rest = self._blank.copy()
        rest[at] = ranks - (ranks > own + 1)  # the others' ranks with the element out
        terms = (rest - self._i)[:, None] + (rest[:, None] >= ranks)
        np.multiply(np.abs(terms, out=terms), self._w[:, None], out=terms)
        terms[at[own]] = abs(ranks - self._i[at[own]]) * self._w[at[own]]
        totals = -np.add.reduce(terms, axis=0)
        return None if np.isnan(totals).any() else totals.tolist()

    def _totals(self, ranks: np.ndarray) -> np.ndarray:
        """Each row's score: the negated fold from column 0 of w * |rank - i|, in place."""
        ranks -= self._i
        np.abs(ranks, out=ranks)
        ranks *= self._w
        return -np.add.accumulate(ranks, axis=-1)[..., -1]

    def _check_elements(self, x: Assignment) -> None:
        """Name the first target element, in target order, that `x` lacks; O(n**2), on a NaN total only."""
        for e in self.target:
            rank_of(x, e)

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
            weights = {element_id(k, "weight key"): real(v, "weight") for k, v in raw_w.items()}
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
    """Pinned (assignment, games) -> (mean, se, n) table, returned verbatim; unknown keys fail hard.

    A row answers only the game count it was recorded at, its `n`.
    """

    def __init__(self, records: dict[tuple[str, int], FitnessEstimate], source: str = "<records>"):
        self.records = records
        self.source = source

    @classmethod
    def load(cls, *paths: str | Path) -> "ReplayOracle":
        """The oracle of the replay files at `paths`, read in order into one table."""
        records: dict[tuple[str, int], FitnessEstimate] = {}
        for path in map(Path, paths):
            lines = read_text(path, "replay fixture").split("\n")
            if lines[0].strip() != REPLAY_HEADER:
                raise ConfigError(f"{path}: missing replay header {REPLAY_HEADER!r}")
            held = len(records)
            for number, raw in enumerate(lines[1:], start=2):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    text, mean_s, se_s, n_s = (part.strip() for part in line.split("|"))
                    est = FitnessEstimate(mean=float(mean_s), se=float(se_s), n_games=int(n_s))
                    text = format_assignment(parse_assignment(text))
                except (ValueError, DcaError) as err:
                    raise ConfigError(f"{path}:{number}: unparseable replay line {raw!r}: {err}") from err
                problem = untrustworthy(est)
                if problem:
                    raise ConfigError(f"{path}:{number}: replay row has {problem}")
                key = (text, est.n_games)
                if key in records:
                    raise ConfigError(
                        f"{path}:{number}: assignment {text!r} appears more than once at {est.n_games} games"
                    )
                records[key] = est
            if len(records) == held:
                raise ConfigError(f"{path}: replay fixture holds no records")
        return cls(records, ", ".join(map(str, paths)))

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        text = format_assignment(x)
        est = self.records.get((text, n_games))
        if est is None:
            raise ReplayMissError(
                f"assignment {text!r} at {n_games} games absent from replay fixture {self.source}"
            )
        return est


class _Child:
    """One evaluator process, its request in flight, and the start of an output line read so far."""

    def __init__(self, process: subprocess.Popen):
        self.process = process
        self.request: Optional[tuple[Assignment, int]] = None
        self.partial = b""


class SubprocessOracle(Oracle):
    """Delegate evaluation to a pool of child processes over line-delimited JSON.

    Request:  {"assignment":[...],"games":N,"seed":S}
    Response: {"mean":M,"se":E,"n":N}
    Unknown response fields are ignored; missing ones are errors. Up to
    `lanes` children run at once (`workers`: by default two, never more than
    the CPU count), with one request in flight each. The first request spawns
    the first child; `prefetch` spawns another only when every child is busy.
    The calling thread reads the children's pipes with one `poll` (POSIX
    only); output nobody waits for stays in its pipe. `evaluate` takes an
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
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # the longest wait Python's blocking calls accept
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
        self._answers: dict[tuple[Assignment, int], str] = {}

    def evaluate(self, x: Assignment, n_games: int) -> FitnessEstimate:
        key = (x, n_games)
        if key not in self._answers:
            child = next((c for c in self._children if c.request == key), None)
            if child is None:
                child = self._idle_child(wait=True)
                self._send(child, key)
            if not self._wait(lambda: child.request is None):
                self._drop(child)
                raise OracleIOError(f"evaluator timed out after {self.timeout}s")
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

        The lines already back are filed first. When every lane is busy,
        `wait` waits up to `timeout` for any lane to free up; if none does,
        the oldest child, silent on a request nobody waits for, is dropped
        and its lane refilled.
        """
        self._wait(lambda: False, 0)
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
            elif not self._wait(self._lane_free):
                self._drop(self._children[0])

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
        child = _Child(process)
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

    def _wait(self, done, timeout: Optional[float] = None) -> bool:
        """File the children's output lines until `done()` holds or `timeout` (by default the oracle's) passes.

        True if `done()` held. The wait ends at its deadline even while
        output keeps arriving; timeout 0 files only the output already back.
        """
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        while not done():
            pipes, poller = {child.process.stdout.fileno(): child for child in self._children}, select.poll()
            for fd in pipes:
                poller.register(fd, select.POLLIN)
            # `poll`, unlike `select`, takes any file number, but waits at most 2**31 - 1 ms a call.
            for fd, _ in poller.poll(min(max(0.0, deadline - time.monotonic()) * 1e3, 2**31 - 1)):
                self._read(pipes[fd])
            if time.monotonic() >= deadline:
                return done()
        return True

    def _read(self, child: _Child) -> None:
        """File each whole line `child` has written; at end of output, a last line without its end, then ""."""
        chunk = os.read(child.process.stdout.fileno(), 1 << 16)
        *lines, child.partial = (child.partial + chunk).split(b"\n")
        end = [child.partial, b""] if not chunk else [b""] if len(child.partial) > LINE_CAP else []
        for line in [line + b"\n" for line in lines] + end:
            try:
                text = line.decode()
            except UnicodeDecodeError:  # filed as end of output is
                text = ""
            self._take(child, text)
            if not text:
                return

    def _lane_free(self) -> bool:
        """Whether a lane has no request in flight, or no child."""
        return len(self._children) < self.lanes or any(c.request is None for c in self._children)

    def _take(self, child: _Child, line: str) -> None:
        """File `line` as the answer to `child`'s request; "" (end of output) means the child is gone."""
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
        """Reap every child within one `timeout`: an idle one gets EOF, a busy one is killed at once.

        A busy child at close holds a request sent ahead that nothing asked
        for, so its answer is not waited for.
        """
        self._wait(lambda: False, 0)  # count the failures already back
        children, self._children = self._children, []
        _reap(children, self.timeout)


def _reap(children: list[_Child], timeout: float) -> None:
    """Close the children's pipes and wait for them to exit, all within one `timeout`.

    A child with a request in flight is killed at once; any other gets EOF
    and is killed if it still runs when the `timeout` from now has passed.
    """
    for child in children:
        if child.request is not None:
            child.process.kill()
        with contextlib.suppress(OSError):  # a dead child's stdin may hold an unflushable request
            child.process.stdin.close()
    deadline = time.monotonic() + timeout
    for child in children:
        try:
            child.process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.process.kill()
            child.process.wait()
        child.process.stdout.close()


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
    """Per-run estimate cache: one dict a game tier, from assignment to estimate.

    Assignments already checked are never re-sampled within a run. Keying
    each tier's dict by the assignment alone builds no (assignment, tier)
    tuple a lookup. A run estimates from one thread, so the cache takes no
    lock. A request sent ahead by `prefetch` becomes a test only when
    `estimate` asks for it; `usage` counts the ones never asked for.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._tiers: defaultdict[int, dict[Assignment, FitnessEstimate]] = defaultdict(dict)
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
        tier = self._tiers[n_games]
        if exact is None:
            est = tier.get(x)
            if est is not None:
                return est, False
            est = tier[x] = self.oracle.evaluate(x, n_games)
        else:  # one hash of x: the table's value goes in unless x is cached
            new = FitnessEstimate(exact, 0.0, 1)
            est = tier.setdefault(x, new)
            if est is not new:
                return est, False
        if self._ahead:
            self._ahead.discard((x, n_games))
        self.games_used += est.n_games
        self.fresh_evaluations += 1
        return est, True

    def prefetch(self, x: Assignment, n_games: int) -> bool:
        """Send (x, n_games) to an idle oracle lane unless it is cached; False on a cache hit."""
        if x in self._tiers[n_games]:
            return False
        key = (x, n_games)
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
