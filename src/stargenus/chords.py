"""Chord diagrams over the circle of circuit visits.

The Euler circuit turns the graph into a circle whose points are the visits.
Each degree-4 vertex contributes a chord between its two visits; a rotating
degree-6 vertex contributes a triad (three points, flat or crossed); a
splitting degree-6 vertex contributes a double chord anchored at its
principal visit. Expansion resolves triads and double chords into plain
chords by splitting one marked point into an adjacent pair, after which the
GF(2) intersection matrix and circle surgery are defined.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .circuit import EulerCircuit, VertexClass
from .core_graph import StarGraph, permutation_cycles
from .errors import InvariantViolation
from .gf2 import BitMatrix


@dataclass(frozen=True)
class Chord:
    vertex: int
    points: tuple[int, int]  # ascending circle positions


@dataclass(frozen=True)
class Triad:
    vertex: int
    points: tuple[int, int, int]  # ascending circle positions
    crossed: bool


@dataclass(frozen=True)
class DoubleChord:
    vertex: int
    principal: int            # circle position of the straight-through visit
    others: tuple[int, int]   # the two remaining points, cyclically after principal


Attachment = Union[Chord, Triad, DoubleChord]


@dataclass(frozen=True)
class StarChordDiagram:
    """Circle of `n_points` visit points plus one attachment per vertex."""

    n_points: int
    attachments: tuple[Attachment, ...]  # ascending source vertex id


@dataclass(frozen=True)
class ChordGroup:
    """Provenance of an expanded chord: source vertex and attachment kind.

    kind is "chord", "triad" or "dchord"; `plus` marks which double-chord
    half carries the split point's + side (None for other kinds).
    """

    vertex: int
    kind: str
    plus: Optional[bool] = None


@dataclass(frozen=True)
class ChordDiagram:
    """Plain chord diagram: every circle point is an endpoint of one chord.

    Chords are sorted by smaller endpoint; `groups` is parallel to `chords`.
    """

    n_points: int
    chords: tuple[tuple[int, int], ...]
    groups: tuple[ChordGroup, ...]


def attachment_points(att: Attachment) -> tuple[int, ...]:
    if isinstance(att, Chord):
        return att.points
    if isinstance(att, Triad):
        return att.points
    return (att.principal, *att.others)


def build_star_chord_diagram(g: StarGraph, circuit: EulerCircuit,
                             classes: dict[int, VertexClass]) -> StarChordDiagram:
    """Read the attachments off the circuit, one per vertex."""
    attachments: list[Attachment] = []
    for v in g.vertices:
        pos = circuit.positions[v]
        cls = classes[v]
        if cls.kind == "rotating4":
            attachments.append(Chord(v, (pos[0], pos[1])))
        elif cls.kind == "rotating6":
            attachments.append(Triad(v, (pos[0], pos[1], pos[2]), crossed=bool(cls.crossed)))
        else:
            k = cls.principal or 0
            attachments.append(DoubleChord(
                v, pos[k], (pos[(k + 1) % 3], pos[(k + 2) % 3])))
    diag = StarChordDiagram(len(circuit.visits), tuple(attachments))
    covered = sorted(p for att in attachments for p in attachment_points(att))
    if covered != list(range(diag.n_points)):
        raise InvariantViolation("attachments do not cover the circle exactly once")
    return diag


def expand(diagram: StarChordDiagram) -> ChordDiagram:
    """Resolve triads and double chords into plain chords.

    The split point p (first triad point in circle order, or the principal of
    a double chord) becomes two adjacent points p- then p+. A flat triad
    (p, q, r) yields chords (p+, q) and (p-, r); a crossed triad yields
    (p-, q) and (p+, r), which makes the pair linked. A double chord with
    remaining points (q, r) yields (p+, q) and (p-, r).
    """
    split = set()
    for att in diagram.attachments:
        if isinstance(att, Triad):
            split.add(min(att.points))
        elif isinstance(att, DoubleChord):
            split.add(att.principal)

    # at[p]: where point p lands, or p- when p is split, with p+ at at[p] + 1
    at: list[int] = []
    pos = 0
    for p in range(diagram.n_points):
        at.append(pos)
        pos += 2 if p in split else 1

    chords: list[tuple[int, int]] = []
    groups: list[ChordGroup] = []

    def emit(x: int, y: int, group: ChordGroup) -> None:
        chords.append((x, y) if x < y else (y, x))
        groups.append(group)

    for att in diagram.attachments:
        if isinstance(att, Chord):
            p, q = att.points
            emit(at[p], at[q], ChordGroup(att.vertex, "chord"))
        elif isinstance(att, Triad):
            p, q, r = att.points
            if att.crossed:
                emit(at[p], at[q], ChordGroup(att.vertex, "triad"))
                emit(at[p] + 1, at[r], ChordGroup(att.vertex, "triad"))
            else:
                emit(at[p] + 1, at[q], ChordGroup(att.vertex, "triad"))
                emit(at[p], at[r], ChordGroup(att.vertex, "triad"))
        else:
            p = att.principal
            q, r = att.others
            emit(at[p] + 1, at[q], ChordGroup(att.vertex, "dchord", plus=True))
            emit(at[p], at[r], ChordGroup(att.vertex, "dchord", plus=False))

    order = sorted(range(len(chords)), key=lambda i: chords[i][0])
    return ChordDiagram(
        n_points=pos,
        chords=tuple(chords[i] for i in order),
        groups=tuple(groups[i] for i in order),
    )


def linked(diagram: ChordDiagram, i: int, j: int) -> bool:
    """True iff chords i and j interleave around the circle."""
    a1, b1 = diagram.chords[i]
    a2, b2 = diagram.chords[j]
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


def linked_pairs(diagram: ChordDiagram) -> list[tuple[int, int]]:
    """All linked index pairs (i, j) with i < j, ascending.

    One sweep over the chord endpoints in circle order. Chords are sorted by
    smaller endpoint, so they open in index order and the open chords form
    one ascending list. When chord i closes, the chords after it in that
    list opened inside it and close outside it: exactly its linked partners
    with a larger index. Points that end no chord are never visited. Cost:
    O(n log n + pairs) plus the list deletions.
    """
    chords = diagram.chords
    n = len(chords)
    ends = [b for _, b in chords]
    open_chords: list[int] = []
    later: list[list[int]] = [[] for _ in range(n)]
    opened = 0
    for i in sorted(range(n), key=ends.__getitem__):
        while opened < n and chords[opened][0] < ends[i]:
            open_chords.append(opened)
            opened += 1
        k = bisect_left(open_chords, i)
        later[i] = open_chords[k + 1:]
        del open_chords[k]
    return [(i, j) for i in range(n) for j in later[i]]


def intersection_matrix(diagram: ChordDiagram,
                        pairs: Optional[Sequence[tuple[int, int]]] = None) -> BitMatrix:
    """Symmetric GF(2) matrix with M[i][j] = 1 iff chords i and j are linked."""
    if pairs is None:
        pairs = linked_pairs(diagram)
    return BitMatrix.from_pairs(len(diagram.chords), pairs)


def surgery(diagram: ChordDiagram) -> int:
    """Number of circles after surgery on every chord.

    Walk the circle forward arc by arc; entering a chord endpoint resurfaces
    just past its partner, which is exactly the reconnection of a-eps to
    b+eps and a+eps to b-eps across each chord. Cycles of that arc successor
    are the surgered circles.
    """
    n = diagram.n_points
    mate = [-1] * n
    for x, y in diagram.chords:
        for p, q in ((x, y), (y, x)):
            if not 0 <= p < n or mate[p] != -1:
                raise ValueError("diagram does not cover every point exactly once")
            mate[p] = q
    if -1 in mate:
        raise ValueError("diagram does not cover every point exactly once")
    return len(permutation_cycles({a: mate[(a + 1) % n] for a in range(n)}))
