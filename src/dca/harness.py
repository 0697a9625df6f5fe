"""Experiment runner: configuration, run assembly, seeding, persistence, and verification.

A run is fully determined by its RunConfig (the master seed is mandatory;
there is no wall-clock seeding). Per-component RNG streams are derived from
the master seed by hashing "<seed>:<label>" with SHA-256 and taking the
first 8 bytes big-endian, for labels "oracle", "proposer" and "acceptance".
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice, permutations
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .annealer import (
    InsertionProposer,
    Phase2Config,
    Phase2Result,
    Proposer,
    ScriptedProposer,
    TemperatureSchedule,
    load_scripted_moves,
    run_phase2,
)
from .climber import Phase1Config, Phase1Result, run_phase1
from .config import check_keys, integer, read, read_json_file, real, required
from .constraints import ConstraintGraph, Evidence, RankConstraint, to_dot, to_edge_list_text
from .errors import ConfigError
from .evaluation import (
    CachingEvaluator,
    ExactOracle,
    HiddenTargetLandscape,
    Oracle,
    PoolOracle,
    ReplayFixture,
    ReplayOracle,
    SubprocessOracle,
    SyntheticOracle,
    format_mean,
    format_se,
)
from .perm import Assignment, as_assignment, format_assignment, parse_assignment
from .trace import RunContext, TraceRecord, TraceSink

BRUTE_FORCE_MAX_N = 9
BRUTE_FORCE_CHUNK = 4096

# Master seed pinned for the shipped table replays; chosen so the acceptance
# draws reproduce the printed accept/reject pattern (see tests).
REPLAY_MASTER_SEED = 5

FIXTURE_TABLE1_2 = "table1_2.replay"
FIXTURE_TABLE3 = "table3.replay"
FIXTURE_MOVES = "table3.moves"

# The printed trace this implementation reproduces: starting assignment,
# the twelve induced rank preferences, the four below-gate pairs, and the
# winners of both phases.
TABLE_X0 = "11 2 3 10 9 6 4 5 7 8"
TABLE_CONSTRAINTS: tuple[tuple[int, int], ...] = (
    (10, 11), (11, 9), (2, 3), (3, 10), (3, 6), (6, 10),
    (4, 10), (5, 4), (4, 7), (7, 10), (4, 8), (8, 10),
)
TABLE_BRACKETS: tuple[frozenset[int], ...] = (
    frozenset({2, 10}), frozenset({6, 9}), frozenset({3, 4}), frozenset({3, 5}),
)
TABLE_PHASE1_BEST = "2 3 5 4 8 10 11 9 6 7"
TABLE_PHASE1_MEAN = "-3.12261"
TABLE_PHASE1_TESTS = 36
TABLE_PHASE2_BEST = "5 4 2 3 7 6 8 10 11 9"
TABLE_PHASE2_MEAN = "-2.95471"
TABLE_P39 = 0.90833
TABLE_P45 = 0.36825
TABLE_P41 = 0.31854
PROBABILITY_TOL = 5e-6


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def packaged_fixtures_dir() -> Path:
    return Path(str(importlib.resources.files("dca") / "fixtures"))


def build_oracle(spec: dict, seed: int) -> Oracle:
    if not isinstance(spec, dict):
        raise ConfigError(f"oracle spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "exact":
        return ExactOracle(HiddenTargetLandscape.from_config(spec))
    if kind == "synthetic":
        return SyntheticOracle(HiddenTargetLandscape.from_config(spec), seed=seed)
    if kind == "replay":
        check_keys(spec, {"kind", "path"}, "replay oracle spec")
        return ReplayOracle(ReplayFixture.load(required(spec, "path", "replay oracle spec")))
    if kind == "pool":
        check_keys(spec, {"kind", "members"}, "pool oracle spec")
        members = spec.get("members", [])
        if not isinstance(members, list):
            raise ConfigError(f"pool members must be a list, got {members!r}")
        pool = []
        for i, member in enumerate(members):
            where = f"pool member {i}"
            check_keys(member, {"weight", "oracle"}, where)
            weight = real(required(member, "weight", where), "pool weight")
            oracle = build_oracle(required(member, "oracle", where), derive_seed(seed, f"pool-{i}"))
            pool.append((oracle, weight))
        return PoolOracle(pool)
    if kind == "subprocess":
        check_keys(spec, {"kind", "cmd", "timeout"}, "subprocess oracle spec")
        cmd = required(spec, "cmd", "subprocess oracle spec")
        return SubprocessOracle(cmd, seed=seed, **read(spec, {"timeout": ("timeout", real)}, "subprocess "))
    raise ConfigError(f"unknown oracle kind {kind!r}")


def _as_is(value, what: str):
    return value


def _element_ids(value, what: str) -> Optional[list[int]]:
    """A list of element ids, or None; a bool is not an element id."""
    if value is not None and not (isinstance(value, list) and all(type(e) is int for e in value)):
        raise ConfigError(f"{what} must be a list of elements, got {value!r}")
    return value


def _path(value, what: str) -> Optional[Path]:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{what} must be a path, got {value!r}")
    return Path(value) if value else None


# Each run-config section's keys: config key -> (dataclass field, reader). The
# "phase2" section holds the schedule's keys, Phase2Config's and script_moves.
_PHASE1_KEYS = {
    "games": ("n_games", integer),
    "baseline_games": ("n_games_baseline", integer),
    "tau": ("tau", real),
    "element_order": ("element_order", _element_ids),
    "induction_scope": ("induction_scope", _as_is),
}
_SCHEDULE_KEYS = {"t0": ("t0", real), "dt": ("dt", real), "steps": ("steps", integer)}
_PHASE2_KEYS = {"games": ("n_games_hi", integer), "pool_size": ("pool_size", integer)}
_SCRIPT_KEYS = {"script_moves": ("script_moves", _path)}


@dataclass
class RunConfig:
    initial: Assignment
    seed: int
    oracle: dict
    oracle_phase2: Optional[dict] = None
    phase1: Phase1Config = field(default_factory=Phase1Config)
    schedule: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    phase2: Phase2Config = field(default_factory=Phase2Config)
    script_moves: Optional[Path] = None

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("a master seed is mandatory")
        self.phase1.validate()
        self.phase2.validate()
        self.schedule.validate()

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """The run config of a JSON document; an absent optional key keeps its field's default."""
        check_keys(doc, {"initial", "seed", "oracle", "oracle_phase2", "phase1", "phase2"}, "run config")
        p1, p2 = doc.get("phase1", {}), doc.get("phase2", {})
        check_keys(p1, _PHASE1_KEYS, "phase1 section")
        check_keys(p2, {*_SCHEDULE_KEYS, *_PHASE2_KEYS, *_SCRIPT_KEYS}, "phase2 section")
        return cls(
            initial=as_assignment(required(doc, "initial", "run config")),
            seed=integer(required(doc, "seed", "run config"), "seed"),
            oracle=required(doc, "oracle", "run config"),
            oracle_phase2=doc.get("oracle_phase2"),
            phase1=Phase1Config(**read(p1, _PHASE1_KEYS, "phase1 ")),
            schedule=TemperatureSchedule(**read(p2, _SCHEDULE_KEYS, "phase2 ")),
            phase2=Phase2Config(**read(p2, _PHASE2_KEYS, "phase2 ")),
            **read(p2, _SCRIPT_KEYS, "phase2 "),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json_file(path))


@dataclass
class ExperimentSummary:
    phase1: Phase1Result
    phase2: Phase2Result
    trace: list[TraceRecord]
    phase1_tests: int
    phase1_games: int
    phase2_tests: int
    phase2_games: int
    wall_time_s: float

    @property
    def best(self) -> Assignment:
        return self.phase2.best

    @property
    def best_mean(self) -> float:
        return self.phase2.best_estimate.mean

    def to_dict(self) -> dict:
        return {
            "phase1": {
                "best": format_assignment(self.phase1.best),
                "mean": self.phase1.best_estimate.mean,
                "constraints": [list(p) for p in (d.constraint.pair() for d in self.phase1.decisions if d.induced)],
                "tests": self.phase1_tests,
                "games": self.phase1_games,
            },
            "phase2": {
                "best": format_assignment(self.phase2.best),
                "mean": self.phase2.best_estimate.mean,
                "improved": self.phase2.improved,
                "accepted_worse": self.phase2.accepted_worse,
                "rejected_worse": self.phase2.rejected_worse,
                "tests": self.phase2_tests,
                "games": self.phase2_games,
            },
            "evaluations": {
                "tests": self.phase1_tests + self.phase2_tests,
                "games": self.phase1_games + self.phase2_games,
            },
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class RunParts:
    """The parts one run is wired from; the phases share one evaluator without oracle_phase2."""

    run: RunContext
    evaluator1: CachingEvaluator
    evaluator2: CachingEvaluator
    proposer: Proposer
    acceptance_rng: np.random.Generator


@contextmanager
def assemble(cfg: RunConfig, out_dir: Optional[str | Path] = None) -> Iterator[RunParts]:
    """Validate `cfg` and wire one run's parts; on exit close the oracles and flush the trace.

    With `out_dir` the run's TraceSink streams trace.jsonl and trace.csv there.
    """
    cfg.validate()
    oracle1 = build_oracle(cfg.oracle, derive_seed(cfg.seed, "oracle"))
    oracle2 = oracle1
    run = RunContext()
    try:
        if cfg.oracle_phase2 is not None:
            oracle2 = build_oracle(cfg.oracle_phase2, derive_seed(cfg.seed, "oracle"))
        proposer: Proposer
        if cfg.script_moves:
            proposer = ScriptedProposer(load_scripted_moves(cfg.script_moves))
        else:
            proposer = InsertionProposer(
                np.random.default_rng(derive_seed(cfg.seed, "proposer")), cfg.phase2.pool_size
            )
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            run.sink = TraceSink(out_dir)
        evaluator1 = CachingEvaluator(oracle1)
        yield RunParts(
            run=run,
            evaluator1=evaluator1,
            evaluator2=evaluator1 if oracle2 is oracle1 else CachingEvaluator(oracle2),
            proposer=proposer,
            acceptance_rng=np.random.default_rng(derive_seed(cfg.seed, "acceptance")),
        )
    finally:
        oracle1.close()
        if oracle2 is not oracle1:
            oracle2.close()
        if run.sink is not None:
            run.checkpoint()
            run.sink.close()


def run_experiment(cfg: RunConfig, out_dir: Optional[str | Path] = None) -> ExperimentSummary:
    """Phase 1 then phase 2 on the induced graph, with trace persistence."""
    with assemble(cfg, out_dir) as parts:
        started = time.perf_counter()
        p1 = run_phase1(cfg.initial, parts.evaluator1, cfg.phase1, run=parts.run)
        phase1_games = parts.evaluator1.games_used
        # Phase 2's share of its evaluator is whatever accrues from here on.
        games_before = parts.evaluator2.games_used
        tests_before = parts.evaluator2.fresh_evaluations
        p2 = run_phase2(
            p1.best,
            parts.evaluator2,
            p1.graph,
            cfg.schedule,
            cfg.phase2,
            proposer=parts.proposer,
            acceptance_rng=parts.acceptance_rng,
            run=parts.run,
        )
    summary = ExperimentSummary(
        phase1=p1,
        phase2=p2,
        trace=parts.run.records,
        phase1_tests=p1.evaluations_used,
        phase1_games=phase1_games,
        phase2_tests=parts.evaluator2.fresh_evaluations - tests_before,
        phase2_games=parts.evaluator2.games_used - games_before,
        wall_time_s=time.perf_counter() - started,
    )
    if out_dir is not None:
        persist_summary(summary, out_dir)
    return summary


def persist_summary(summary: ExperimentSummary, out_dir: str | Path) -> None:
    """Write the run's constraint graph (edge list and DOT) and summary.json.

    The trace itself is not written here: the run's TraceSink streams both
    trace.jsonl and trace.csv into the same directory at every checkpoint.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "constraints.txt").write_text(to_edge_list_text(summary.phase1.graph))
    (out / "ranking.dot").write_text(to_dot(summary.phase1.graph))
    (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")


def graph_from_trace(records: list[TraceRecord]) -> ConstraintGraph:
    """Rebuild the induced constraint set from trace annotations."""
    g = ConstraintGraph()
    for record in records:
        for note in record.annotations:
            if note.induced:
                g.try_add(
                    RankConstraint(
                        note.before,
                        note.after,
                        Evidence(tests=note.tests, gap=note.gap, threshold=note.threshold),
                    )
                )
    return g


def brute_force_optimum(
    landscape: HiddenTargetLandscape,
    graph: Optional[ConstraintGraph] = None,
) -> tuple[Assignment, float]:
    """Exhaustively score every permutation (optionally only linear extensions).

    Refuses above 9 elements: beyond that the enumeration stops being a
    desk-scale oracle, which is the entire reason the two-phase search exists.
    Ties go to the lexicographically smallest assignment. The permutations
    are scored `BRUTE_FORCE_CHUNK` at a time by `landscape.scores`: at n=9
    that takes about 0.4 s against 0.9-1.3 s for one `true_fitness` call
    each (shared 2-vCPU Xeon VM).
    """
    elements = landscape.elements
    n = len(elements)
    if n > BRUTE_FORCE_MAX_N:
        raise ConfigError(
            f"brute force refuses n={n} (> {BRUTE_FORCE_MAX_N}); run the two-phase optimiser instead"
        )
    perms = permutations(elements)
    if graph is not None:
        perms = filter(graph.satisfies, perms)
    best: Optional[Assignment] = None
    best_mean = -math.inf
    while chunk := list(islice(perms, BRUTE_FORCE_CHUNK)):
        for perm, mean in zip(chunk, landscape.scores(chunk)):
            if mean > best_mean:
                best, best_mean = perm, mean
    if best is None:
        raise ConfigError("constraint graph admits no linear extension over these elements")
    return best, best_mean


def paper_replay_config(fixtures_dir: Optional[str | Path] = None) -> RunConfig:
    """The pinned two-phase configuration that replays the shipped tables."""
    fixtures = Path(fixtures_dir) if fixtures_dir is not None else packaged_fixtures_dir()
    table12 = fixtures / FIXTURE_TABLE1_2
    table3 = fixtures / FIXTURE_TABLE3
    moves = fixtures / FIXTURE_MOVES
    for path in (table12, table3, moves):
        if not path.exists():
            raise ConfigError(f"missing replay fixture {path}")
    return RunConfig(
        initial=parse_assignment(TABLE_X0),
        seed=REPLAY_MASTER_SEED,
        oracle={"kind": "replay", "path": str(table12)},
        oracle_phase2={"kind": "replay", "path": str(table3)},
        script_moves=moves,
    )


@dataclass
class ReplayReport:
    constraints_match: bool
    values_match: bool
    discrepancies: list[str]
    details: dict

    def to_dict(self) -> dict:
        return {
            "constraints_match": self.constraints_match,
            "values_match": self.values_match,
            "discrepancies": self.discrepancies,
            "details": self.details,
        }

    @property
    def ok(self) -> bool:
        return self.constraints_match and self.values_match


def replay_verify(fixtures_dir: Optional[str | Path] = None) -> ReplayReport:
    """Run the full pipeline against the table fixtures and diff the outcome.

    Compares: the induced constraint set (the twelve), the below-gate set
    (the four), both phase winners, and the acceptance probabilities at the
    two printed worse-candidate rows. The row printed with probability 0.31854
    is reported as a standing discrepancy: its own temperature column gives
    exp(-0.06864/0.05) = 0.25340, while 0.31854 matches the previous row's
    temperature, so the recorded value looks off by one schedule step.
    """
    cfg = paper_replay_config(fixtures_dir)
    summary = run_experiment(cfg)

    discrepancies: list[str] = []
    details: dict = {}

    observed_constraints = [d.constraint.pair() for d in summary.phase1.decisions if d.induced]
    expected_constraints = set(TABLE_CONSTRAINTS)
    missing = expected_constraints - set(observed_constraints)
    extra = set(observed_constraints) - expected_constraints
    constraints_match = not missing and not extra
    for pair in sorted(missing):
        discrepancies.append(f"constraint {pair[0]}<{pair[1]} expected but not induced")
    for pair in sorted(extra):
        discrepancies.append(f"constraint {pair[0]}<{pair[1]} induced but not expected")

    observed_brackets = summary.phase1.bracketed_pairs()
    if observed_brackets != set(TABLE_BRACKETS):
        constraints_match = False
        for pair in observed_brackets ^ set(TABLE_BRACKETS):
            discrepancies.append(f"below-gate pair {sorted(pair)} differs from the printed set")

    values_match = True

    def check(condition: bool, message: str) -> None:
        nonlocal values_match
        if not condition:
            values_match = False
            discrepancies.append(message)

    check(
        format_assignment(summary.phase1.best) == TABLE_PHASE1_BEST,
        f"phase-1 best {format_assignment(summary.phase1.best)} != {TABLE_PHASE1_BEST}",
    )
    check(
        format_mean(summary.phase1.best_estimate.mean) == TABLE_PHASE1_MEAN,
        f"phase-1 mean {format_mean(summary.phase1.best_estimate.mean)} != {TABLE_PHASE1_MEAN}",
    )
    check(
        summary.phase1_tests == TABLE_PHASE1_TESTS,
        f"phase-1 distinct tests {summary.phase1_tests} != {TABLE_PHASE1_TESTS}",
    )
    check(
        format_assignment(summary.phase2.best) == TABLE_PHASE2_BEST,
        f"phase-2 best {format_assignment(summary.phase2.best)} != {TABLE_PHASE2_BEST}",
    )
    check(
        format_mean(summary.phase2.best_estimate.mean) == TABLE_PHASE2_MEAN,
        f"phase-2 mean {format_mean(summary.phase2.best_estimate.mean)} != {TABLE_PHASE2_MEAN}",
    )

    by_id = {r.test_id: r for r in summary.trace if r.phase == 2 and not r.reeval}
    decisions = {i: by_id[i].decision for i in sorted(by_id)}
    details["phase2_decisions"] = decisions
    check(by_id.get(39) is not None and by_id[39].decision == "accepted-worse", "test 39 not tagged accepted-worse")
    for rejected_id in (41, 45):
        check(
            by_id.get(rejected_id) is not None and by_id[rejected_id].decision == "rejected-worse",
            f"test {rejected_id} not tagged rejected-worse",
        )
    if 39 in by_id:
        check(
            abs(by_id[39].probability - TABLE_P39) <= PROBABILITY_TOL,
            f"test 39 probability {by_id[39].probability:.6f} != {TABLE_P39}",
        )
    if 45 in by_id:
        check(
            abs(by_id[45].probability - TABLE_P45) <= PROBABILITY_TOL,
            f"test 45 probability {by_id[45].probability:.6f} != {TABLE_P45}",
        )
    if 41 in by_id:
        row = by_id[41]
        row_consistent = math.exp(-row.delta / row.temperature)
        details["test41"] = {
            "printed": TABLE_P41,
            "row_consistent": row_consistent,
            "previous_row_temperature": row.temperature + 0.01,
        }
        discrepancies.append(
            "test 41: printed probability 0.31854 matches the previous row's temperature; "
            f"the row-consistent value is {row_consistent:.5f}"
        )
        check(
            abs(row.probability - row_consistent) <= PROBABILITY_TOL,
            f"test 41 probability {row.probability:.6f} not row-consistent",
        )

    # Every trace row must carry the packaged transcription bit-exactly.
    packaged_p1 = ReplayFixture.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2).records
    packaged_p2 = ReplayFixture.load(packaged_fixtures_dir() / FIXTURE_TABLE3).records
    for record in summary.trace:
        key = format_assignment(record.assignment)
        expected = (packaged_p1 if record.phase == 1 else packaged_p2).get(key)
        if expected is None:
            check(False, f"test {record.test_id} evaluated unexpected assignment {key}")
            continue
        check(
            format_mean(record.mean) == format_mean(expected.mean)
            and format_se(record.se) == format_se(expected.se),
            f"test {record.test_id} value {format_mean(record.mean)}/{format_se(record.se)} "
            f"drifted from the transcription",
        )

    details["phase1_best"] = format_assignment(summary.phase1.best)
    details["phase2_best"] = format_assignment(summary.phase2.best)
    details["constraints"] = [f"{a}<{b}" for a, b in observed_constraints]
    details["bracketed"] = sorted(sorted(p) for p in observed_brackets)
    details["phase1_games"] = summary.phase1_games
    details["phase2_games"] = summary.phase2_games

    return ReplayReport(
        constraints_match=constraints_match,
        values_match=values_match,
        discrepancies=discrepancies,
        details=details,
    )
