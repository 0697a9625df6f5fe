"""Directed acyclic partial order over element ranks, with provenance.

The graph stores "i must be ranked before j" edges induced during the search.
It stays acyclic at all times: an edge whose reverse is already implied is
rejected, and an edge already implied by reachability is acknowledged but
kept out of the core set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .config import element_id
from .errors import ConfigError, IncompatibleAssignmentsError, InvalidConstraintError
from .perm import Assignment, Move, format_assignment


class AddOutcome(str, enum.Enum):
    ADDED = "added"
    DUPLICATE = "duplicate"
    REDUNDANT = "redundant"
    CYCLE_REJECTED = "cycle-rejected"


# The outcome of a comparison below the noise gate: never submitted to a graph.
NOT_INDUCED = "not-induced"


@dataclass
class RankConstraint:
    """One phase-1 comparison: 'before' ranked ahead of 'after', and what came of it.

    `tests` are the two compared test ids (rank order), `gap` their mean
    difference and `threshold` the noise gate it was held against; an edge
    read from a bare 'i < j' line has none of them. `outcome` is an
    AddOutcome value or NOT_INDUCED.
    """

    before: int
    after: int
    tests: Optional[tuple[int, int]] = None
    gap: Optional[float] = None
    threshold: Optional[float] = None
    outcome: str = AddOutcome.ADDED.value

    def pair(self) -> tuple[int, int]:
        return (self.before, self.after)

    @property
    def induced(self) -> bool:
        return self.outcome == AddOutcome.ADDED.value


class ConstraintGraph:
    def __init__(self):
        self._edges: dict[tuple[int, int], RankConstraint] = {}
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}  # the transpose of _succ

    @property
    def nodes(self) -> set[int]:
        return set(self._succ)

    def edges(self) -> list[RankConstraint]:
        """Core edges in insertion order."""
        return list(self._edges.values())

    def edge_pairs(self) -> set[tuple[int, int]]:
        return set(self._edges)

    def reaches(self, a: int, b: int) -> bool:
        """True when a path a -> ... -> b exists in the core set; a reaches itself."""
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
        self._pred.setdefault(c.after, set()).add(c.before)
        self._pred.setdefault(c.before, set())
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

    def move_delta(self, rank: dict[int, int], move: Move) -> int:
        """How much `move` changes the violation count of the assignment `rank` maps.

        `rank` maps each element to its 1-based rank and must cover every
        graph element. Only edges between the moved element and the elements
        it jumps over change direction: moving right over ranks
        from+1..to turns an edge e->u violated and an edge u->e satisfied,
        and moving left swaps the signs. O(deg(element)).
        """
        e, f, t = move.element, move.from_rank, move.to_rank
        succ = self._succ.get(e)
        if succ is None:
            return 0
        lo, hi, sign = (f + 1, t, 1) if t > f else (t, f - 1, -1)
        delta = 0
        for u in succ:
            if lo <= rank[u] <= hi:
                delta += 1
        for u in self._pred[e]:
            if lo <= rank[u] <= hi:
                delta -= 1
        return sign * delta

    def transitive_reduction(self) -> "ConstraintGraph":
        """Minimal edge set with the same reachability relation.

        An edge is implied when another successor of its `before` reaches its `after`.
        """
        reduced = ConstraintGraph()
        for (before, after), c in self._edges.items():
            if not any(self.reaches(mid, after) for mid in self._succ[before] if mid != after):
                reduced.try_add(c)
        for node in self.nodes:
            reduced._succ.setdefault(node, set())
            reduced._pred.setdefault(node, set())
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
    """One 'i < j # test_a,test_b gap=G thr=T' line per core edge; 'i < j' for one without tests."""
    lines = []
    for c in g.edges():
        if c.tests is None:
            lines.append(f"{c.before} < {c.after}")
        else:
            lines.append(
                f"{c.before} < {c.after} # {c.tests[0]},{c.tests[1]} gap={c.gap:.6f} thr={c.threshold:.6f}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def from_edge_list_text(text: str, path: str | Path = "<edge list>") -> ConstraintGraph:
    """The graph of an edge list; a duplicate or implied line is kept out.

    A line that is no edge, a self-loop or one closing a cycle is an error naming `path` and its number.
    """
    g = ConstraintGraph()
    try:
        for number, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            body, _, note = line.partition("#")
            try:
                before, after = (element_id(part.strip(), "element") for part in body.split("<"))
            except (ValueError, ConfigError) as err:
                raise InvalidConstraintError(f"unparseable edge line {raw!r}") from err
            c = RankConstraint(before, after)
            note = note.strip()
            if note:
                try:
                    tests_part, gap_part, thr_part = note.split()
                    ta, tb = (int(t) for t in tests_part.split(","))
                    c.tests = (ta, tb)
                    c.gap = float(gap_part.removeprefix("gap="))
                    c.threshold = float(thr_part.removeprefix("thr="))
                except ValueError as err:
                    raise InvalidConstraintError(f"unparseable evidence in {raw!r}") from err
            if g.try_add(c) is AddOutcome.CYCLE_REJECTED:
                raise InvalidConstraintError(f"edge line {raw!r} closes a cycle")
    except InvalidConstraintError as err:
        raise InvalidConstraintError(f"{path}:{number}: {err}") from err
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
