"""Directed acyclic partial order over element ranks, with provenance.

The graph stores "i must be ranked before j" edges induced during the search.
It stays acyclic at all times: an edge whose reverse is already implied is
rejected, and an edge already implied by reachability is acknowledged but
kept out of the core set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import IncompatibleAssignmentsError, InvalidConstraintError
from .perm import Assignment, format_assignment


@dataclass(frozen=True)
class Evidence:
    """Which comparison produced a constraint: test-id pair, gap, gate used."""

    tests: tuple[int, int]
    gap: float
    threshold: float


@dataclass(frozen=True)
class RankConstraint:
    """Preference 'before' ahead of 'after', with the evidence that induced it."""

    before: int
    after: int
    evidence: Optional[Evidence] = None

    def pair(self) -> tuple[int, int]:
        return (self.before, self.after)


class AddOutcome(str, enum.Enum):
    ADDED = "added"
    DUPLICATE = "duplicate"
    REDUNDANT = "redundant"
    CYCLE_REJECTED = "cycle-rejected"


class ConstraintGraph:
    def __init__(self, edges: Iterable[RankConstraint] = ()):
        self._edges: dict[tuple[int, int], RankConstraint] = {}
        self._succ: dict[int, set[int]] = {}
        for c in edges:
            self.try_add(c)

    @property
    def nodes(self) -> set[int]:
        return set(self._succ)

    def edges(self) -> list[RankConstraint]:
        """Core edges in insertion order."""
        return list(self._edges.values())

    def edge_pairs(self) -> set[tuple[int, int]]:
        return set(self._edges)

    def reaches(self, a: int, b: int) -> bool:
        """True when a path a -> ... -> b exists in the core set."""
        if a == b:
            return True
        stack = [a]
        seen = {a}
        while stack:
            for nxt in self._succ.get(stack.pop(), ()):
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def try_add(self, c: RankConstraint) -> AddOutcome:
        """Insert an edge unless it duplicates, is implied, or would close a cycle.

        Earlier evidence always wins: duplicates and implied edges never
        replace what is already stored, and an edge contradicting the current
        reachability is dropped entirely.
        """
        if c.before == c.after:
            raise InvalidConstraintError(f"self-loop constraint on element {c.before}")
        if c.pair() in self._edges:
            return AddOutcome.DUPLICATE
        if c.before in self._succ and self.reaches(c.before, c.after):
            return AddOutcome.REDUNDANT
        if c.after in self._succ and self.reaches(c.after, c.before):
            return AddOutcome.CYCLE_REJECTED
        self._edges[c.pair()] = c
        self._succ.setdefault(c.before, set()).add(c.after)
        self._succ.setdefault(c.after, set())
        return AddOutcome.ADDED

    def violations(self, x: Assignment) -> int:
        """Count core edges ordered backwards in `x`."""
        pos = {e: i for i, e in enumerate(x)}
        missing = self.nodes - pos.keys()
        if missing:
            raise IncompatibleAssignmentsError(
                f"graph elements {sorted(missing)} missing from assignment {format_assignment(x)}"
            )
        return sum(1 for before, after in self._edges if pos[before] > pos[after])

    def satisfies(self, x: Assignment) -> bool:
        return self.violations(x) == 0

    def _reaches_avoiding(self, a: int, b: int, skip: tuple[int, int]) -> bool:
        stack = [a]
        seen = {a}
        while stack:
            node = stack.pop()
            for nxt in self._succ.get(node, ()):
                if (node, nxt) == skip:
                    continue
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def transitive_reduction(self) -> "ConstraintGraph":
        """Minimal edge set with the same reachability relation."""
        reduced = ConstraintGraph()
        for (before, after), c in self._edges.items():
            if not self._reaches_avoiding(before, after, skip=(before, after)):
                reduced.try_add(c)
        for node in self.nodes:
            reduced._succ.setdefault(node, set())
        return reduced


def count_linear_extensions(g: ConstraintGraph, elements: Sequence[int]) -> int:
    """Number of total orders over `elements` consistent with the partial order.

    Subset dynamic programming; intended for desk-scale element counts.
    """
    n = len(elements)
    if n > 20:
        raise IncompatibleAssignmentsError(f"extension counting capped at 20 elements, got {n}")
    index = {e: i for i, e in enumerate(elements)}
    masks = [0] * n  # bit j of masks[i]: element j must precede element i
    for before, after in g.edge_pairs():
        if before in index and after in index:
            masks[index[after]] |= 1 << index[before]
    counts = [0] * (1 << n)
    counts[0] = 1
    for subset in range(1 << n):
        if counts[subset] == 0:
            continue
        for i in range(n):
            bit = 1 << i
            if subset & bit:
                continue
            if masks[i] & ~subset:
                continue
            counts[subset | bit] += counts[subset]
    return counts[(1 << n) - 1]


def to_edge_list_text(g: ConstraintGraph) -> str:
    """One 'i < j # test_a,test_b gap=G thr=T' line per core edge."""
    lines = []
    for c in g.edges():
        if c.evidence is None:
            lines.append(f"{c.before} < {c.after}")
        else:
            a, b = c.evidence.tests
            lines.append(
                f"{c.before} < {c.after} # {a},{b} "
                f"gap={c.evidence.gap:.6f} thr={c.evidence.threshold:.6f}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def from_edge_list_text(text: str) -> ConstraintGraph:
    g = ConstraintGraph()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, note = line.partition("#")
        try:
            before_s, after_s = body.split("<")
            before, after = int(before_s), int(after_s)
        except ValueError as err:
            raise InvalidConstraintError(f"unparseable edge line {raw!r}") from err
        evidence = None
        note = note.strip()
        if note:
            try:
                tests_part, gap_part, thr_part = note.split()
                ta, tb = (int(t) for t in tests_part.split(","))
                evidence = Evidence(
                    tests=(ta, tb),
                    gap=float(gap_part.removeprefix("gap=")),
                    threshold=float(thr_part.removeprefix("thr=")),
                )
            except ValueError as err:
                raise InvalidConstraintError(f"unparseable evidence in {raw!r}") from err
        g.try_add(RankConstraint(before, after, evidence))
    return g


def to_dot(g: ConstraintGraph, reduce: bool = False) -> str:
    """DOT export with numerically sorted nodes and edges for stable bytes.

    By default every core edge is emitted; pass reduce=True for the
    transitive reduction instead.
    """
    graph = g.transitive_reduction() if reduce else g
    lines = ["digraph ranking {"]
    for node in sorted(graph.nodes):
        lines.append(f"  {node};")
    for before, after in sorted(graph.edge_pairs()):
        lines.append(f"  {before} -> {after};")
    lines.append("}")
    return "\n".join(lines) + "\n"
