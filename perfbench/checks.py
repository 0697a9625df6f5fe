"""Correctness checks and quality figures for one finished optimiser run.

Everything here is recomputed from the run's own outputs (the summary, its
trace records and, when the run wrote one, its output directory) with the
benchmark's own formulas, so a broken optimiser cannot vouch for itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# An estimate further than this many standard errors from the true fitness
# is treated as a broken oracle. Gaussian tails at this width have odds far
# below one in the number of estimates the benchmark makes.
SE_TOLERANCE = 10.0


def displacement(x, target_rank: dict[int, int]) -> int:
    """Total rank displacement from the target: minus the landscape's true fitness."""
    return sum(abs(i - target_rank[e]) for i, e in enumerate(x))


def projection(records) -> list:
    """The outcome-defining fields of a trace, one row per record.

    Fields added to trace records later do not change it; any change to
    what was tested, what it scored, what was decided or what was induced
    does.
    """
    return [
        [
            r.test_id,
            list(r.assignment),
            repr(r.mean),
            repr(r.se),
            r.n_games,
            r.decision,
            sorted([n.before, n.after] for n in r.annotations if n.induced),
        ]
        for r in records
    ]


def outcome_hash(records) -> str:
    return outcome_hash_of(projection(records))


def outcome_hash_of(rows: list) -> str:
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class RunCheck:
    outcome: str
    regret: float
    phase1_regret: float
    fresh_tests: int
    games: int
    constraints_induced: int
    winner_violations: int
    steps: int
    accepted_steps: int
    fresh_steps: int
    trace_bytes: int = 0
    raw_sha256: Optional[str] = None
    errors: list[str] = field(default_factory=list)


def check_run(summary, target: list[int], exact: bool, out_dir: Optional[Path]) -> RunCheck:
    """Recompute quality and cross-check the run's bookkeeping; errors list what failed."""
    errors: list[str] = []
    target_rank = {e: i for i, e in enumerate(target)}
    records = summary.trace

    winner = tuple(summary.best)
    if sorted(winner) != sorted(target):
        errors.append(f"winner {winner} is not a permutation of the target's elements")
        winner = tuple(target)

    for r in records:
        true = -float(displacement(r.assignment, target_rank))
        if exact:
            if r.mean != true or r.se != 0.0:
                errors.append(f"test {r.test_id}: exact estimate {r.mean} != true fitness {true}")
                break
        elif abs(r.mean - true) > SE_TOLERANCE * r.se + 1e-9:
            errors.append(f"test {r.test_id}: mean {r.mean} is {SE_TOLERANCE:g}+ se from {true}")
            break

    phase2 = [r for r in records if r.phase == 2]
    best_mean = max((r.mean for r in phase2), default=None)
    if best_mean != summary.best_mean or not any(
        r.mean == best_mean and tuple(r.assignment) == winner for r in phase2
    ):
        errors.append("phase-2 winner is not the best-scoring phase-2 trace row")

    fresh = [r for r in records if not r.cached]
    fresh_tests = summary.phase1_tests + summary.phase2_tests
    games = summary.phase1_games + summary.phase2_games
    if fresh_tests != len(fresh):
        errors.append(f"summary counts {fresh_tests} fresh tests, trace has {len(fresh)}")
    if games != sum(r.n_games for r in fresh):
        errors.append("summary games differ from the fresh trace rows' games")

    induced = [(n.before, n.after) for r in records for n in r.annotations if n.induced]
    if set(induced) != summary.phase1.induced_pairs() or len(induced) != len(set(induced)):
        errors.append("trace annotations disagree with the induced constraint set")
    winner_rank = {e: i for i, e in enumerate(winner)}
    steps = [r for r in phase2 if not r.reeval]

    check = RunCheck(
        outcome=outcome_hash(records),
        regret=float(displacement(winner, target_rank)),
        phase1_regret=float(displacement(summary.phase1.best, target_rank)),
        fresh_tests=fresh_tests,
        games=games,
        constraints_induced=len(induced),
        winner_violations=sum(1 for a, b in induced if winner_rank[a] > winner_rank[b]),
        steps=len(steps),
        accepted_steps=summary.phase2.improved + summary.phase2.accepted_worse,
        fresh_steps=sum(1 for r in steps if not r.cached),
        errors=errors,
    )
    if out_dir is not None:
        check_outputs(check, summary, out_dir)
    return check


PERSISTED = {"trace.jsonl", "trace.csv", "constraints.txt", "ranking.dot", "summary.json"}


def check_outputs(check: RunCheck, summary, out_dir: Path) -> None:
    """The persisted files must say what the in-memory run says."""
    files = {p.name: p for p in out_dir.iterdir() if p.is_file()}
    check.trace_bytes = sum(p.stat().st_size for p in files.values())
    if set(files) != PERSISTED:
        check.errors.append(f"output dir holds {sorted(files)}, expected {sorted(PERSISTED)}")
        return
    raw = files["trace.jsonl"].read_bytes()
    check.raw_sha256 = hashlib.sha256(raw).hexdigest()
    rows = [json.loads(line) for line in raw.decode().splitlines()]
    if outcome_hash_of(row_projection(rows)) != check.outcome:
        check.errors.append("trace.jsonl does not project to the run's outcome")
    if csv_projection(files["trace.csv"].read_text()) != [row[:6] for row in projection(summary.trace)]:
        check.errors.append("trace.csv disagrees with the run's records")

    # Induced pairs already implied by earlier ones are not stored as edges,
    # so the edge list must be a subset whose closure covers every induced pair.
    induced = {(n.before, n.after) for r in summary.trace for n in r.annotations if n.induced}
    edges = edge_pairs(files["constraints.txt"].read_text(), "<")
    below = descendants(edges)
    if not edges <= induced or any(b not in below.get(a, ()) for a, b in induced):
        check.errors.append("constraints.txt does not span the induced constraint set")
    if edge_pairs(files["ranking.dot"].read_text(), "->") != edges:
        check.errors.append("ranking.dot edges differ from constraints.txt")

    written = json.loads(files["summary.json"].read_text())
    one, two = written["phase1"], written["phase2"]
    wrote = [one["best"], one["mean"], sorted(map(tuple, one["constraints"])),
             two["best"], two["mean"], written["evaluations"]]
    ran = [" ".join(map(str, summary.phase1.best)), summary.phase1.best_estimate.mean, sorted(induced),
           " ".join(map(str, summary.best)), summary.best_mean,
           {"tests": check.fresh_tests, "games": check.games}]
    if wrote != ran:
        check.errors.append("summary.json best, mean, constraints or counts differ from the run's")


def row_projection(rows: list[dict]) -> list:
    """`projection` of trace.jsonl rows, read with the benchmark's own parser."""
    return [
        [
            row["test_id"],
            list(map(int, row["assignment"].split())),
            repr(row["mean"]),
            repr(row["se"]),
            row["n_games"],
            row.get("decision"),
            sorted([n["before"], n["after"]] for n in row.get("annotations", []) if n["kind"] == "induced"),
        ]
        for row in rows
    ]


def csv_projection(text: str) -> list:
    """The first six `projection` fields of each trace.csv row."""
    reader = csv.DictReader(io.StringIO(text))
    return [
        [
            int(row["test_id"]),
            list(map(int, row["assignment"].split())),
            row["mean"],
            row["se"],
            int(row["n_games"]),
            row["decision"] or None,
        ]
        for row in reader
    ]


def edge_pairs(text: str, arrow: str) -> set[tuple[int, int]]:
    """`a <arrow> b` pairs, one per line, ignoring '#' notes and DOT punctuation."""
    pairs = set()
    for line in text.splitlines():
        body = line.partition("#")[0].strip().rstrip(";")
        if arrow in body:
            a, b = body.split(arrow)
            pairs.add((int(a), int(b)))
    return pairs


def descendants(edges: set[tuple[int, int]]) -> dict[int, set[int]]:
    """Every node's set of nodes reachable along `edges`."""
    succ: dict[int, set[int]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    below: dict[int, set[int]] = {}
    for start in succ:
        seen, frontier = set(), [start]
        while frontier:
            for nxt in succ.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        below[start] = seen
    return below
