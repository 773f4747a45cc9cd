"""Genus minimization over permissible partitions, and the planarity fast path.

A permissible partition assigns each vertex a side, W or B; the two expanded
chords of a triad stay on the vertex's side, the two halves of a double
chord take opposite sides (the vertex's side bit is the side of its p+
chord). The genus of a partition is half the sum of the GF(2) ranks of the
two principal submatrices of the intersection matrix, and the minimal genus
is the minimum over all 2^n partitions. The search for it is an exact
branch-and-bound: a depth-first walk over the vertices, W before B, with
the first vertex fixed to W by side-swap symmetry. Each side's rank is kept
incrementally in a `SymplecticBasis`, and since a partial rank bounds the
final one from below, a branch is cut as soon as its half rank sum reaches
the best genus found. A one-step lookahead adds up to 1 per side: the
basis knows which chords would raise its rank, and if every way of placing
the remaining vertices sends such a chord to a side, every leaf below is
at least 1 higher. The walk runs twice. Pass 1 takes the vertices in
coupling-first order (most linked pairs to those already placed first) and
finds the genus g; pass 2 takes them in ascending order, where leaves come
in ascending code order, and stops at the first leaf of genus g, the
lexicographically least witness. `partition_genera` walks the same tree
with no pruning, for the genus of every partition.

Planarity (genus 0) does not need the search: it reduces to 2-colouring the
chords so that linked chords and double-chord halves disagree while triad
halves agree, solved with a parity union-find over the linked pairs; one
endpoint sweep lists those pairs in O(n log n + pairs) time, so planarity
costs about one union-find step per linked pair.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .chords import (ChordDiagram, StarChordDiagram, build_star_chord_diagram,
                     expand, intersection_matrix, linked_pairs)
from .circuit import (EulerCircuit, TransitionSystem, VertexClass,
                      classify_vertices, find_rs_circuit)
from .core_graph import Orientation, StarGraph, require_source_sink
from .errors import InvariantViolation
from .gf2 import BitMatrix, SymplecticBasis, masked_rank
from .union_find import ParityUnionFind

SIDE_WHITE = "W"
SIDE_BLACK = "B"


@dataclass(frozen=True)
class Pipeline:
    """Everything derived from one graph: orientation through matrix."""

    graph: StarGraph
    orientation: Orientation
    transitions: TransitionSystem
    circuit: EulerCircuit
    classes: dict[int, VertexClass]
    star_diagram: StarChordDiagram
    diagram: ChordDiagram
    linked: tuple[tuple[int, int], ...]
    matrix: BitMatrix


def build_pipeline(g: StarGraph) -> Pipeline:
    """Validate, orient, trace, attach, expand. Raises on invalid input
    (InvalidGraphError) and on graphs with no source-sink orientation
    (NotSourceSinkError)."""
    orientation = require_source_sink(g)
    ts, circuit = find_rs_circuit(g, orientation)
    classes = classify_vertices(g, circuit)
    star = build_star_chord_diagram(g, circuit, classes)
    diagram = expand(star)
    pairs = tuple(linked_pairs(diagram))
    matrix = intersection_matrix(diagram, pairs)
    return Pipeline(g, orientation, ts, circuit, classes, star, diagram, pairs, matrix)


@dataclass(frozen=True)
class PermissiblePartition:
    """Vertex sides plus the induced chord index sets (white, black)."""

    side: dict[int, str]
    white: tuple[int, ...]
    black: tuple[int, ...]


@dataclass(frozen=True)
class GenusResult:
    min_genus: int
    witness: PermissiblePartition
    ranks: tuple[int, int]  # white rank, black rank at the witness


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    witness: Optional[dict[int, str]] = None   # vertex -> side when planar
    conflict: Optional[tuple[int, ...]] = None  # odd chord cycle otherwise


def _side_chords(diagram: ChordDiagram,
                 vertices: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """The chord side rule, per vertex: the chords that are white when the
    vertex is W, and those white when it is B (each in ascending order). A
    double chord's p- half takes the side opposite its vertex; every other
    chord takes its vertex's side."""
    index = {v: k for k, v in enumerate(vertices)}
    chords_w: list[list[int]] = [[] for _ in vertices]
    chords_b: list[list[int]] = [[] for _ in vertices]
    for i, grp in enumerate(diagram.groups):
        k = index[grp.vertex]
        if grp.kind == "dchord" and grp.plus is False:
            chords_b[k].append(i)
        else:
            chords_w[k].append(i)
    return chords_w, chords_b


def _partition(vertices: list[int], chords_w: list[list[int]], chords_b: list[list[int]],
               code: int) -> PermissiblePartition:
    n = len(vertices)
    side: dict[int, str] = {}
    white: list[int] = []
    black: list[int] = []
    for k, v in enumerate(vertices):
        if (code >> (n - 1 - k)) & 1:
            side[v] = SIDE_BLACK
            white += chords_b[k]
            black += chords_w[k]
        else:
            side[v] = SIDE_WHITE
            white += chords_w[k]
            black += chords_b[k]
    white.sort()
    black.sort()
    return PermissiblePartition(side, tuple(white), tuple(black))


def partition_from_code(diagram: ChordDiagram, vertices: list[int],
                        code: int) -> PermissiblePartition:
    """Bit k of `code` (big-endian over ascending vertices) = 1 means B."""
    return _partition(vertices, *_side_chords(diagram, vertices), code)


def enumerate_permissible_partitions(diagram: ChordDiagram) -> Iterator[PermissiblePartition]:
    """All 2^n partitions, in ascending order of the side bit-vector.

    The CLI's sweep takes its genera from `partition_genera` instead. This
    and `genus_of_partition` stay public as the flat reference, one
    `PermissiblePartition` at a time, that the tests and the benchmark's
    traced replay check the search and the walk against.
    """
    vertices = sorted({grp.vertex for grp in diagram.groups})
    chords_w, chords_b = _side_chords(diagram, vertices)
    for code in range(1 << len(vertices)):
        yield _partition(vertices, chords_w, chords_b, code)


def rank_pair(matrix: BitMatrix, partition: PermissiblePartition) -> tuple[int, int]:
    return masked_rank(matrix, partition.white), masked_rank(matrix, partition.black)


def genus_of_partition(matrix: BitMatrix, partition: PermissiblePartition) -> int:
    """Half the sum of the two side ranks; the sum is always even."""
    rw, rb = rank_pair(matrix, partition)
    if (rw + rb) & 1:
        raise InvariantViolation("odd rank sum for a permissible partition")
    return (rw + rb) // 2


def partition_genera(pipe: Pipeline) -> np.ndarray:
    """The rank genus of every partition, indexed by its code (as in
    `partition_from_code`).

    One depth-first walk over the vertices in ascending order, W before B,
    with no pruning; the two `SymplecticBasis` go down the stack, so a node
    costs one vertex's insertions. The first vertex stays on W, so the
    leaves are codes 0 to 2^(n-1) - 1 in ascending order. Code 2^n - 1 - c
    is c with every side swapped, which exchanges the white and black chord
    sets and keeps the genus, so it is read off c. The ranks are twice a
    pair count, so their sum is even.
    """
    chords_w, chords_b = _side_chords(pipe.diagram, sorted(pipe.graph.vertices))
    n = len(chords_w)
    empty = SymplecticBasis(pipe.matrix.rows)
    genera: list[int] = []
    # (depth, whether that vertex is on B, white basis, black basis)
    stack = [(0, False, empty, empty)]
    while stack:
        k, on_b, white, black = stack.pop()
        to_white, to_black = (chords_b[k], chords_w[k]) if on_b else (chords_w[k], chords_b[k])
        for i in to_white:
            white = white.add(i)
        for i in to_black:
            black = black.add(i)
        if k + 1 == n:
            genera.append((white.rank + black.rank) // 2)
        else:
            stack.append((k + 1, True, white, black))
            stack.append((k + 1, False, white, black))
    return np.array(genera + genera[::-1], dtype=np.int8)


def _coupling_order(chords_w: list[list[int]], chords_b: list[list[int]],
                    linked) -> list[int]:
    """Vertex positions in coupling-first order: position 0, then again and
    again the unplaced vertex with the most linked pairs to the placed ones,
    the lower position on ties. Adjacency lists and a heap keep this
    O((n + pairs) log n): a vertex's coupling only grows, so its newest
    entry comes out first and its older ones after it is placed."""
    n = len(chords_w)
    owner = [0] * sum(len(w) + len(b) for w, b in zip(chords_w, chords_b))
    for k in range(n):
        for i in chords_w[k] + chords_b[k]:
            owner[i] = k
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j in linked:
        a, b = owner[i], owner[j]
        if a != b:
            neighbours[a].append(b)
            neighbours[b].append(a)
    coupling = [0] * n
    placed = [False] * n
    heap = [(0, k) for k in range(n)]  # (-coupling, position); sorted, so a heap
    order = []
    while heap:
        _, k = heapq.heappop(heap)
        if placed[k]:
            continue
        placed[k] = True
        order.append(k)
        for b in neighbours[k]:
            if not placed[b]:
                coupling[b] += 1
                heapq.heappush(heap, (-coupling[b], b))
    return order


def _mask(chords: list[int]) -> int:
    mask = 0
    for i in chords:
        mask |= 1 << i
    return mask


def _lookahead(up_w: int, up_b: int, mask_w: list[int], mask_b: list[int],
               start: int, cap: int) -> int:
    """How much more than a node's bound every leaf below it has, capped at
    `cap` (scanning stops once the cap is reached).

    Vertex `start` onwards are unplaced; W sends mask_w's chords to white
    and mask_b's to black, B the other way round. An option raises a side
    when it sends one of that side's raisers (`SymplecticBasis.raisers`)
    there, and since ranks only grow, a raised side adds 1 to the genus of
    every leaf below. So the extra is 0 when every vertex has an option
    that raises neither side; else 1 when every vertex has an option that
    raises at most white, or every vertex one that raises at most black;
    else 2.
    """
    if not up_w | up_b:
        return 0
    stuck = forced_w = forced_b = False
    for mw, mb in zip(mask_w[start:], mask_b[start:]):
        if (mw & up_w or mb & up_b) and (mb & up_w or mw & up_b):
            if cap == 1:
                return 1
            stuck = True  # raises a side either way
            forced_w = forced_w or bool(mw & up_w and mb & up_w)
            forced_b = forced_b or bool(mw & up_b and mb & up_b)
            if forced_w and forced_b:
                return 2
    return int(stuck)


def _search(rows: tuple[int, ...], chords_w: list[list[int]], chords_b: list[list[int]],
            order: list[int], best: int,
            floor: int) -> Optional[tuple[int, int, int, int]]:
    """Depth-first search over the vertices in `order`, W before B, for
    leaves of genus below `best`. Each leaf found lowers `best`; the search
    stops once `best` is at most `floor`. Returns (genus, code, rank_w,
    rank_b) of the last leaf found, or None; bit k of `code`
    (big-endian) is the side of vertex order[k].

    The first vertex is fixed to W: flipping every vertex swaps the two
    chord sets and keeps the genus. A node is cut when its half rank sum
    (a lower bound, since a principal submatrix never has larger rank),
    plus the lookahead's extra when that can matter, reaches `best`.
    """
    n = len(order)
    to_w = [chords_w[k] for k in order]
    to_b = [chords_b[k] for k in order]
    mask_w = [_mask(chords) for chords in to_w]
    mask_b = [_mask(chords) for chords in to_b]
    found = None
    empty = SymplecticBasis(rows)
    # (depth, code with that vertex's bit last, white basis, black basis,
    # parent's bound); an explicit stack, so depth is not bounded by the
    # recursion limit
    stack = [(0, 0, empty, empty, 0)]
    while stack:
        k, code, white, black, bound = stack.pop()
        if bound >= best:  # best improved since the push
            continue
        to_white, to_black = (to_b[k], to_w[k]) if code & 1 else (to_w[k], to_b[k])
        for i in to_white:
            white = white.add(i)
        for i in to_black:
            black = black.add(i)
        bound = (white.rank + black.rank) // 2
        if bound >= best:
            continue
        if k + 1 == n:
            best = bound
            found = (bound, code, white.rank, black.rank)
            if best <= floor:
                break
        elif bound + 2 < best or bound + _lookahead(
                white.raisers, black.raisers, mask_w, mask_b, k + 1, best - bound) < best:
            stack.append((k + 1, code << 1 | 1, white, black, bound))
            stack.append((k + 1, code << 1, white, black, bound))
    return found


def _branch_and_bound(rows: tuple[int, ...], chords_w: list[list[int]],
                      chords_b: list[list[int]], linked) -> tuple[int, int, int, int]:
    """Least (genus, code, rank_w, rank_b), in two passes of `_search`.

    Pass 1 finds the genus g. It takes the vertices in coupling-first order
    (`_coupling_order`), so the ranks, and with them the bounds, grow early
    and good leaves come soon; it stops at a genus-0 leaf. Pass 2 searches
    again in ascending order, where leaves come in ascending code order,
    with `best` at g + 1: every cut branch holds only leaves above g, so
    the first leaf it reaches is the least code of genus g. When the
    coupling order is the ascending one, pass 1 already was that search:
    its last leaf is the first of genus g in code order.
    """
    order = _coupling_order(chords_w, chords_b, linked)
    ascending = list(range(len(chords_w)))
    found = _search(rows, chords_w, chords_b, order, len(rows), 0)
    assert found is not None
    if order != ascending:  # else pass 1 was pass 2 already
        genus = found[0]
        found = _search(rows, chords_w, chords_b, ascending, genus + 1, genus)
        assert found is not None
    return found


def min_genus(g: StarGraph, threads: Optional[int] = None) -> GenusResult:
    """Least genus over the permissible partitions; ties break to the
    lexicographically least side assignment (W before B, ascending vertex
    ids). `threads` is accepted for compatibility and ignored: the search is
    serial.
    """
    pipe = build_pipeline(g)
    return min_genus_of_pipeline(pipe, threads=threads)


def min_genus_of_pipeline(pipe: Pipeline, threads: Optional[int] = None) -> GenusResult:
    """`min_genus` on a built pipeline. Raises InvariantViolation when
    `masked_rank` does not reproduce the search's ranks at the witness;
    those are twice a pair count, so an odd rank sum fails this check too."""
    vertices = sorted(pipe.graph.vertices)
    chords_w, chords_b = _side_chords(pipe.diagram, vertices)
    genus, code, rw, rb = _branch_and_bound(pipe.matrix.rows, chords_w, chords_b,
                                            pipe.linked)
    witness = _partition(vertices, chords_w, chords_b, code)
    checked = rank_pair(pipe.matrix, witness)
    if checked != (rw, rb):
        raise InvariantViolation(f"witness ranks {checked} differ from the "
                                 f"search's {(rw, rb)}")
    return GenusResult(genus, witness, (rw, rb))


def is_planar(g: StarGraph) -> PlanarityResult:
    """Genus-0 test without the partition scan.

    Constraints: linked chords take opposite sides, the two halves of a
    double chord take opposite sides, the two halves of a triad take the
    same side. If the parity union-find absorbs every constraint, sides are
    read off with each component anchored white at its lowest chord;
    otherwise the first rejected constraint closes an odd cycle, returned as
    the conflict certificate.
    """
    pipe = build_pipeline(g)
    return planarity_of_pipeline(pipe)


def planarity_of_pipeline(pipe: Pipeline) -> PlanarityResult:
    diagram = pipe.diagram
    n = len(diagram.chords)
    vertices = sorted(pipe.graph.vertices)
    chords_w, chords_b = _side_chords(diagram, vertices)

    # the two chords of a 6-valent vertex: triad halves (both in chords_w)
    # agree, double-chord halves (one in each list) disagree
    constraints: list[tuple[int, int, int]] = []
    for same, opposite in zip(chords_w, chords_b):
        both = sorted(same + opposite)
        if len(both) == 2:
            constraints.append((both[0], both[1], 1 if opposite else 0))
    constraints.extend((i, j, 1) for i, j in pipe.linked)

    uf = ParityUnionFind(n)
    conflict_at = None
    for idx, (i, j, p) in enumerate(constraints):
        if not uf.union(i, j, p):
            conflict_at = idx
            break

    if conflict_at is None:
        chord_side = uf.sides()
        # a vertex is on the side its chords_w take: for a double chord
        # that is its p+ half, for any other vertex its lowest chord
        witness = {v: SIDE_BLACK if chord_side[chords_w[k][0]] else SIDE_WHITE
                   for k, v in enumerate(vertices)}
        return PlanarityResult(True, witness=witness)

    i, j, p = constraints[conflict_at]
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for x, y, q in constraints[:conflict_at]:
        adj[x].append((y, q))
        adj[y].append((x, q))
    parent: dict[int, Optional[int]] = {i: None}
    queue = deque([i])
    while queue and j not in parent:
        x = queue.popleft()
        for y, _ in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if j not in parent:
        raise InvariantViolation("conflicting chords are not connected")
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return PlanarityResult(False, conflict=tuple(path))
