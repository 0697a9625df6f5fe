"""Experiment runner: configuration, run assembly, seeding, persistence, and verification.

A run is fully determined by its RunConfig (the master seed is mandatory;
there is no wall-clock seeding). Per-component RNG streams are derived from
the master seed by hashing "<seed>:<label>" with SHA-256 and taking the
first 8 bytes big-endian, for labels "oracle", "proposer" and "acceptance".
"""

from __future__ import annotations

import gc
import hashlib
import importlib.resources
import json
import math
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from itertools import compress, islice, permutations
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .annealer import (
    InsertionProposer,
    Phase2Config,
    Phase2Result,
    ScriptedProposer,
    load_scripted_moves,
    run_phase2,
)
from .climber import Phase1Config, Phase1Result, run_phase1
from .config import check_keys, element_id, integer, read, read_json_file, real, required
from .constraints import AddOutcome, ConstraintGraph, to_dot, to_edge_list_text
from .errors import ConfigError, InvalidConstraintError
from .evaluation import (
    CachingEvaluator,
    ExactOracle,
    HiddenTargetLandscape,
    Oracle,
    PoolOracle,
    ReplayOracle,
    SubprocessOracle,
    SyntheticOracle,
    format_mean,
    format_se,
)
from .perm import Assignment, as_assignment, format_assignment, parse_assignment
from .trace import DECISION_ACCEPTED_WORSE, DECISION_REJECTED_WORSE, RunContext, TraceRecord, TraceSink

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
# Phase 2's printed tags and probabilities by test id; test 41's probability is replay_verify's outlier.
TABLE_DECISIONS = {39: DECISION_ACCEPTED_WORSE, 41: DECISION_REJECTED_WORSE, 45: DECISION_REJECTED_WORSE}
TABLE_PROBABILITIES = {39: 0.90833, 45: 0.36825}
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
        path = required(spec, "path", "replay oracle spec")
        paths = [path] if isinstance(path, str) else path
        if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
            raise ConfigError(f"replay path must be a path or a non-empty list of paths, got {path!r}")
        return ReplayOracle.load(*paths)
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
        check_keys(spec, {"kind", "cmd", "timeout", "workers"}, "subprocess oracle spec")
        cmd = required(spec, "cmd", "subprocess oracle spec")
        keys = {"timeout": ("timeout", real), "workers": ("workers", integer)}
        return SubprocessOracle(cmd, seed=seed, **read(spec, keys, "subprocess "))
    raise ConfigError(f"unknown oracle kind {kind!r}")


def _as_is(value, what: str):
    return value


def _element_ids(value, what: str) -> Optional[list[int]]:
    """A list of element ids, or None."""
    with suppress(ConfigError):
        if value is None or isinstance(value, list):
            return None if value is None else [element_id(e, what) for e in value]
    raise ConfigError(f"{what} must be a list of elements, got {value!r}")


def _path(value, what: str) -> Optional[Path]:
    if value is not None and not (isinstance(value, str) and value):
        raise ConfigError(f"{what} must be a path, got {value!r}")
    return None if value is None else Path(value)


# Each run-config section's keys: config key -> (dataclass field, reader).
# The command-line flags of `dca.cli` go through the same readers.
SECTION_KEYS = {
    "phase1": {
        "games": ("n_games", integer),
        "baseline_games": ("n_games_baseline", integer),
        "tau": ("tau", real),
        "element_order": ("element_order", _element_ids),
        "induction_scope": ("induction_scope", _as_is),
    },
    "phase2": {
        "games": ("n_games_hi", integer),
        "t0": ("t0", real),
        "dt": ("dt", real),
        "steps": ("steps", integer),
        "pool_size": ("pool_size", integer),
        "script_moves": ("script_moves", _path),
    },
}


@dataclass
class RunConfig:
    initial: Assignment
    seed: int
    oracle: dict
    phase1: Phase1Config = field(default_factory=Phase1Config)
    phase2: Phase2Config = field(default_factory=Phase2Config)

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("a master seed is mandatory")
        self.phase1.validate()
        self.phase2.validate()

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """The run config of a JSON document; an absent optional key keeps its field's default."""
        check_keys(doc, {"initial", "seed", "oracle", "phase1", "phase2"}, "run config")
        p1, p2 = doc.get("phase1", {}), doc.get("phase2", {})
        check_keys(p1, SECTION_KEYS["phase1"], "phase1 section")
        check_keys(p2, SECTION_KEYS["phase2"], "phase2 section")
        return cls(
            initial=as_assignment(required(doc, "initial", "run config")),
            seed=integer(required(doc, "seed", "run config"), "seed"),
            oracle=required(doc, "oracle", "run config"),
            phase1=Phase1Config(**read(p1, SECTION_KEYS["phase1"], "phase1 ")),
            phase2=Phase2Config(**read(p2, SECTION_KEYS["phase2"], "phase2 ")),
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
    oracle: dict[str, int]

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
                "constraints": [list(d.pair()) for d in self.phase1.decisions if d.induced],
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
            "oracle": self.oracle,
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class RunParts:
    """One run's parts, and each phase run on them; both phases share one evaluator."""

    config: RunConfig
    run: RunContext
    evaluator: CachingEvaluator
    proposer: InsertionProposer | ScriptedProposer
    acceptance_rng: np.random.Generator

    def phase1(self) -> Phase1Result:
        """Phase 1 from the config's initial assignment."""
        return run_phase1(self.config.initial, self.evaluator, self.config.phase1, run=self.run)

    def phase2(self, start: Assignment, graph: ConstraintGraph) -> Phase2Result:
        """Phase 2 from `start` under `graph`, on the run's proposer and acceptance draws."""
        return run_phase2(
            start,
            self.evaluator,
            graph,
            self.config.phase2,
            proposer=self.proposer,
            acceptance_rng=self.acceptance_rng,
            run=self.run,
        )


@contextmanager
def assemble(cfg: RunConfig, out_dir: Optional[str | Path] = None) -> Iterator[RunParts]:
    """Validate `cfg` and wire one run's parts; on exit close the oracle and flush the trace.

    With `out_dir` the run's TraceSink streams trace.jsonl there and writes trace.csv on exit.
    Until the trace has closed, Python's cyclic collector is paused, process-wide: a run drops no
    reference cycles, so reference counting frees all it drops. On exit, also on an error, what
    the run keeps joins the oldest generation unscanned (unless the caller has frozen objects),
    and the collector is enabled again only if it was enabled on entry.
    """
    cfg.validate()
    oracle = build_oracle(cfg.oracle, derive_seed(cfg.seed, "oracle"))
    run = RunContext()
    collecting = gc.isenabled()
    gc.disable()
    try:
        proposer: InsertionProposer | ScriptedProposer
        if cfg.phase2.script_moves:
            proposer = ScriptedProposer(load_scripted_moves(cfg.phase2.script_moves))
        else:
            proposer = InsertionProposer(
                np.random.default_rng(derive_seed(cfg.seed, "proposer")), cfg.phase2.pool_size
            )
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            run.sink = TraceSink(out_dir)
        yield RunParts(
            config=cfg,
            run=run,
            evaluator=CachingEvaluator(oracle),
            proposer=proposer,
            acceptance_rng=np.random.default_rng(derive_seed(cfg.seed, "acceptance")),
        )
    finally:
        try:
            oracle.close()
            if run.sink is not None:
                run.checkpoint()
                run.sink.close()
        finally:
            if not gc.get_freeze_count():  # freeze, then unfreeze into the oldest generation
                gc.freeze()
                gc.unfreeze()
            if collecting:
                gc.enable()


def run_experiment(cfg: RunConfig, out_dir: Optional[str | Path] = None) -> ExperimentSummary:
    """Phase 1 then phase 2 on the induced graph, with trace persistence."""
    with assemble(cfg, out_dir) as parts:
        started = time.perf_counter()
        p1 = parts.phase1()
        phase1_tests, phase1_games = parts.evaluator.fresh_evaluations, parts.evaluator.games_used
        p2 = parts.phase2(p1.best, p1.graph)
    summary = ExperimentSummary(
        phase1=p1,
        phase2=p2,
        trace=parts.run.records,
        phase1_tests=phase1_tests,
        phase1_games=phase1_games,
        phase2_tests=parts.evaluator.fresh_evaluations - phase1_tests,
        phase2_games=parts.evaluator.games_used - phase1_games,
        wall_time_s=time.perf_counter() - started,
        oracle=parts.evaluator.usage(),
    )
    if out_dir is not None:
        persist_summary(summary, out_dir)
    return summary


def persist_summary(summary: ExperimentSummary, out_dir: str | Path) -> None:
    """Write the run's constraint graph (edge list and DOT) and summary.json.

    The trace itself is not written here: the run's TraceSink streams
    trace.jsonl into the same directory at every checkpoint, and writes
    trace.csv there when the run closes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "constraints.txt").write_text(to_edge_list_text(summary.phase1.graph))
    (out / "ranking.dot").write_text(to_dot(summary.phase1.graph))
    (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")


def graph_from_trace(records: list[TraceRecord]) -> ConstraintGraph:
    """Rebuild the induced constraint set from trace annotations; a note closing a cycle raises."""
    g = ConstraintGraph()
    for record in records:
        for note in record.annotations:
            if note.induced and (note.before == note.after or g.try_add(note) is AddOutcome.CYCLE_REJECTED):
                raise InvalidConstraintError(
                    f"test {record.test_id}: induced note {note.before}<{note.after} closes a cycle"
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
    each (shared 2-vCPU Xeon VM). A graph filters each chunk as one array
    before it is scored, instead of one violation count per
    permutation.
    """
    elements = landscape.elements  # sorted, so permutations come in lexicographic order
    n = len(elements)
    if n > BRUTE_FORCE_MAX_N:
        raise ConfigError(
            f"brute force refuses n={n} (> {BRUTE_FORCE_MAX_N}); run the two-phase optimiser instead"
        )
    if graph is not None:
        graph.violations(elements)  # raises naming any graph element the landscape lacks
        index = {e: k for k, e in enumerate(elements)}
        edges = np.array([(index[b], index[a]) for b, a in graph.edge_pairs()], np.intp).reshape(-1, 2)
    perms = permutations(elements)
    best: Optional[Assignment] = None
    best_mean = -math.inf
    while chunk := list(islice(perms, BRUTE_FORCE_CHUNK)):
        if graph is not None:
            # Column k of `at` is where elements[k] stands in each permutation.
            at = np.argsort(np.array(chunk), axis=1)
            chunk = list(compress(chunk, (at[:, edges[:, 0]] < at[:, edges[:, 1]]).all(axis=1).tolist()))
            if not chunk:
                continue
        scores = landscape.scores(chunk)
        if not math.isfinite(sum(scores)):  # one pass a chunk; a sum that overflows alone is no fault
            for perm, mean in zip(chunk, scores):
                if not math.isfinite(mean):
                    raise ConfigError(f"landscape scores {format_assignment(perm)} as {mean}; a weight is too large")
        for perm, mean in zip(chunk, scores):
            if mean > best_mean:
                best, best_mean = perm, mean
    if best is None:
        raise ConfigError("constraint graph admits no linear extension over these elements")
    return best, best_mean


def paper_replay_config(fixtures_dir: Optional[str | Path] = None) -> RunConfig:
    """The pinned two-phase configuration that replays the shipped tables."""
    fixtures = Path(fixtures_dir) if fixtures_dir is not None else packaged_fixtures_dir()
    tables = [fixtures / FIXTURE_TABLE1_2, fixtures / FIXTURE_TABLE3]
    moves = fixtures / FIXTURE_MOVES
    for path in (*tables, moves):
        if not path.exists():
            raise ConfigError(f"missing replay fixture {path}")
    return RunConfig(
        initial=parse_assignment(TABLE_X0),
        seed=REPLAY_MASTER_SEED,
        oracle={"kind": "replay", "path": [str(path) for path in tables]},
        phase2=Phase2Config(script_moves=moves),
    )


@dataclass
class ReplayReport:
    constraints_match: bool
    values_match: bool
    discrepancies: list[str]
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def ok(self) -> bool:
        return self.constraints_match and self.values_match


def replay_verify(fixtures_dir: Optional[str | Path] = None) -> ReplayReport:
    """Run the full pipeline against the table fixtures and diff the outcome.

    Compares: the induced constraint set (the twelve), the below-gate set
    (the four), both phase winners, the printed phase-2 decisions and
    acceptance probabilities, and every row against the packaged
    transcription. The row printed with probability 0.31854 is a standing
    discrepancy: its own temperature column gives exp(-0.06864/0.05) =
    0.25340, while 0.31854 matches the previous row's temperature, so the
    recorded value looks off by one schedule step.
    """
    cfg = paper_replay_config(fixtures_dir)
    summary = run_experiment(cfg)
    p1, p2 = summary.phase1, summary.phase2
    constraints = [d.pair() for d in p1.decisions if d.induced]
    expected, induced, brackets = set(TABLE_CONSTRAINTS), set(constraints), p1.bracketed_pairs()
    steps = {r.test_id: r for r in p2.step_records()}
    decisions = {i: steps[i].decision for i in sorted(steps)}
    outliers = [(r, math.exp(-r.delta / r.temperature)) for r in steps.values() if r.test_id == 41]
    winners = (
        ("phase-1 best", format_assignment(p1.best), TABLE_PHASE1_BEST),
        ("phase-1 mean", format_mean(p1.best_estimate.mean), TABLE_PHASE1_MEAN),
        ("phase-1 distinct tests", summary.phase1_tests, TABLE_PHASE1_TESTS),
        ("phase-2 best", format_assignment(p2.best), TABLE_PHASE2_BEST),
        ("phase-2 mean", format_mean(p2.best_estimate.mean), TABLE_PHASE2_MEAN),
    )
    # Every trace row must carry the packaged transcription bit-exactly.
    fixtures = packaged_fixtures_dir()
    printed = {
        key: f"{format_mean(e.mean)}/{format_se(e.se)}"
        for key, e in ReplayOracle.load(fixtures / FIXTURE_TABLE1_2, fixtures / FIXTURE_TABLE3).records.items()
    }
    rows = [
        (r.test_id, (format_assignment(r.assignment), r.n_games), f"{format_mean(r.mean)}/{format_se(r.se)}")
        for r in summary.trace
    ]

    constraint_faults = (
        [f"constraint {a}<{b} expected but not induced" for a, b in sorted(expected - induced)]
        + [f"constraint {a}<{b} induced but not expected" for a, b in sorted(induced - expected)]
        + [f"below-gate pair {sorted(p)} differs from the printed set" for p in brackets ^ set(TABLE_BRACKETS)]
    )
    table_faults = (
        [f"{label} {seen} != {want}" for label, seen, want in winners if seen != want]
        + [f"test {i} not tagged {tag}" for i, tag in TABLE_DECISIONS.items() if decisions.get(i) != tag]
        + [
            f"test {i} probability {steps[i].probability:.6f} != {p}"
            for i, p in TABLE_PROBABILITIES.items()
            if i in steps and abs(steps[i].probability - p) > PROBABILITY_TOL
        ]
    )
    notes = [
        f"test {r.test_id}: printed probability {TABLE_P41} matches the previous row's temperature; "
        f"the row-consistent value is {consistent:.5f}"
        for r, consistent in outliers
    ]
    row_faults = [
        f"test {r.test_id} probability {r.probability:.6f} not row-consistent"
        for r, consistent in outliers if abs(r.probability - consistent) > PROBABILITY_TOL
    ] + [
        f"test {i} value {value} drifted from the transcription" if key in printed
        else f"test {i} evaluated unexpected assignment {key[0]} at {key[1]} games"
        for i, key, value in rows if printed.get(key) != value
    ]
    return ReplayReport(
        constraints_match=not constraint_faults,
        values_match=not (table_faults or row_faults),
        discrepancies=constraint_faults + table_faults + notes + row_faults,
        details={
            "phase1_best": format_assignment(p1.best),
            "phase2_best": format_assignment(p2.best),
            "constraints": [f"{a}<{b}" for a, b in constraints],
            "bracketed": sorted(sorted(p) for p in brackets),
            "phase1_games": summary.phase1_games,
            "phase2_games": summary.phase2_games,
            "phase2_decisions": decisions,
            **{
                f"test{r.test_id}": {"printed": TABLE_P41, "row_consistent": consistent,
                                     "previous_row_temperature": r.temperature + cfg.phase2.dt}
                for r, consistent in outliers
            },
        },
    )
