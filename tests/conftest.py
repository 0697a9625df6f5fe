from __future__ import annotations

from pathlib import Path

import pytest

from dca.constraints import ConstraintGraph, RankConstraint
from dca.evaluation import REPLAY_HEADER, format_mean, format_se
from dca.harness import TABLE_CONSTRAINTS, packaged_fixtures_dir
from dca.perm import parse_assignment

X0 = parse_assignment("11 2 3 10 9 6 4 5 7 8")
X34 = parse_assignment("2 3 5 4 8 10 11 9 6 7")
X44 = parse_assignment("5 4 2 3 7 6 8 10 11 9")


@pytest.fixture
def g12() -> ConstraintGraph:
    g = ConstraintGraph()
    for a, b in TABLE_CONSTRAINTS:
        g.try_add(RankConstraint(a, b))
    return g


@pytest.fixture(scope="session")
def fixtures_dir():
    return packaged_fixtures_dir()


@pytest.fixture(scope="session")
def write_replay():
    """A writer of replay files: records to a path, one row a record at its estimate's game count.

    A key is (serialized assignment, games), as `ReplayOracle.records` keys it.
    """

    def write(records, path):
        lines = [
            f"{text} | {format_mean(e.mean)} | {format_se(e.se)} | {e.n_games}" for (text, _), e in records.items()
        ]
        Path(path).write_text("\n".join([REPLAY_HEADER, *lines]) + "\n")

    return write
