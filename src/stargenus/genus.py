"""Genus minimization over permissible partitions, and the planarity fast path.

A permissible partition assigns each vertex a side, W or B; the two expanded
chords of a triad stay on the vertex's side, the two halves of a double
chord take opposite sides (the vertex's side bit is the side of its p+
chord). The genus of a partition is half the sum of the GF(2) ranks of the
two principal submatrices of the intersection matrix, and the minimal genus
is the minimum over all 2^n partitions. No linked pair joins two
components of the vertices (those that linked chords join), so the matrix
is block-diagonal over them and the genus is the sum of theirs. The search
for it, `_search`, is one exact branch-and-bound per component, which
walks depth first over its vertices in coupling-first order (most linked
pairs to those already placed first). Each component's side swap and three
local rules on the intersection matrix give the flip symmetries that
`_symmetries` finds, and `_fixed` places the pivots of their reduced
echelon basis on W alone: every coset of the symmetries keeps its least
code, so this keeps every genus and the least witness. Each side's rank is
kept incrementally in a `SymplecticBasis`, and since a partial rank bounds
the final one from below, a branch is cut as soon as its half rank sum
shows that no leaf below can beat the best one found; the basis also knows
which chords would raise its rank, and two sharper bounds read that.
`search_genus` lets only a lower genus beat the best leaf, for callers
that need no least witness; `min_genus_of_pipeline` also lets an equal
genus with a smaller side code win, so the same pass ends on the
lexicographically least witness. Both go through `_solve`, which runs the
search under one node budget and checks the ranks at the final leaf with
`rank_pair`. `partition_genera` gives the genus of every partition from a
layered dynamic programme over the same vertices, which merges the partial
partitions whose bases leave the same residual form on the chords still to
come.

Planarity (genus 0) does not need the search: it reduces to 2-colouring the
chords so that linked chords and double-chord halves disagree while triad
halves agree, solved with a parity union-find. One endpoint sweep lists
the linked pairs in O(n log n + pairs) time. Planarity reads the constraints
up to the first conflict, keeping none, and on a conflict that prefix again
for the breadth-first search behind the certificate.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

from .chords import (ChordDiagram, StarChordDiagram, build_star_chord_diagram,
                     expand, intersection_matrix, linked_pairs)
from .circuit import (EulerCircuit, TransitionSystem, VertexClass,
                      classify_vertices, find_rs_circuit)
from .core_graph import Orientation, StarGraph, require_source_sink
from .errors import InvariantViolation, SearchBudgetExceeded
from .gf2 import BitMatrix, SymplecticBasis, _echelon, index_mask, masked_rank
from .union_find import ParityUnionFind

if TYPE_CHECKING:  # numpy is imported where it is used, by partition_genera alone
    import numpy as np

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
    """Vertex sides plus the induced chord index sets (white, black), and
    the side bit-vector `code`, as in `partition_from_code`. Build it with
    `partition_from_code` (or the search), which fills all four from one
    code; `code` and `side` are not checked against each other."""

    side: dict[int, str]
    white: tuple[int, ...]
    black: tuple[int, ...]
    code: int


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
    return PermissiblePartition(side, tuple(white), tuple(black), code)


def partition_from_code(diagram: ChordDiagram, vertices: list[int],
                        code: int) -> PermissiblePartition:
    """Bit k of `code` (big-endian over ascending vertices) = 1 means B."""
    return _partition(vertices, *_side_chords(diagram, vertices), code)


def enumerate_permissible_partitions(diagram: ChordDiagram) -> Iterator[PermissiblePartition]:
    """All 2^n partitions, in ascending order of the side bit-vector.

    The CLI's sweep takes its genera from `partition_genera` instead. This
    and `genus_of_partition` stay public as the flat reference, one
    `PermissiblePartition` at a time, that the tests and the benchmark's
    traced replay check the search against.
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

    A layered dynamic programme over the vertices in coupling-first order
    (`_coupling_order`) that carries only the white `SymplecticBasis`, for
    all 2^n codes: code 2^n - 1 - c swaps every side of c, so the black
    rank of c is the white rank of 2^n - 1 - c. A level places one vertex,
    inserting its white chords into each state's basis for W and the
    others for B. Children whose `SymplecticBasis.residual` over the chords
    still to come is equal gain the same rank from every completion, so
    they merge into one state, and a level has as many states as there are
    distinct residual keys rather than 2^k. Each code carries its state id
    and its white rank so far through numpy arrays, which append the new
    vertex's bit as the lowest, and one transpose at the end puts the codes
    in ascending vertex order. The ranks are twice a pair count, so the
    sums are even.
    """
    import numpy as np

    chords_w, chords_b = _side_chords(pipe.diagram, list(pipe.graph.vertices))
    live = (1 << len(pipe.matrix.rows)) - 1  # the chords of the vertices not yet placed
    states = [SymplecticBasis(pipe.matrix.rows)]
    # per code: its state's id and its white rank so far
    lane = np.zeros(1, dtype=np.int32)
    rank = np.zeros(1, dtype=np.int16)
    order = [k for part in _coupling_order(chords_w, chords_b, pipe.linked) for k in part]
    for k in order:
        live &= ~index_mask(chords_w[k] + chords_b[k])
        index: dict[tuple, int] = {}
        children: list[SymplecticBasis] = []
        child: list[int] = []  # per state and bit, W then B
        gain: list[int] = []
        for basis in states:
            for chords in (chords_w[k], chords_b[k]):
                grown = basis
                for i in chords:
                    grown = grown.add(i)
                c = index.setdefault(grown.residual(live), len(children))
                if c == len(children):
                    children.append(grown)
                child.append(c)
                gain.append(grown.rank - basis.rank)
        # k's bit is the lowest: a code so far is big-endian in placing order
        gain_of = np.array(gain, dtype=np.int16).reshape(-1, 2)
        rank = (rank[:, None] + gain_of[lane]).ravel()
        lane = np.array(child, dtype=np.int32).reshape(-1, 2)[lane].ravel()
        states = children
    # axis i holds the bit of order[i]; put the axes in ascending vertex order
    rank = rank.reshape((2,) * len(order)).transpose(np.argsort(order)).ravel()
    return ((rank + rank[::-1]) // 2).astype(np.int8)


def _coupling_order(chords_w: list[list[int]], chords_b: list[list[int]],
                    linked) -> list[list[int]]:
    """Vertex positions in coupling-first order, cut into components: position
    0, then again and again the unplaced vertex with the most linked pairs to
    the placed ones, the lower position on ties. One placed with none starts a
    component (of the vertices that linked chords join), as its lowest
    position, since all the unplaced tie at 0. Adjacency lists and a heap keep
    this O((n + pairs) log n): a vertex's coupling only grows, so its newest
    entry comes out first and its older ones after it is placed."""
    n = len(chords_w)
    owner = {i: k for k in range(n) for i in chords_w[k] + chords_b[k]}
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j in linked:
        a, b = owner[i], owner[j]
        if a != b:
            neighbours[a].append(b)
            neighbours[b].append(a)
    coupling = [0] * n
    placed = [False] * n
    heap = [(0, k) for k in range(n)]  # (-coupling, position); sorted, so a heap
    components: list[list[int]] = []
    while heap:
        c, k = heapq.heappop(heap)
        if placed[k]:
            continue
        placed[k] = True
        if not c:
            components.append([])
        components[-1].append(k)
        for b in neighbours[k]:
            if not placed[b]:
                coupling[b] += 1
                heapq.heappush(heap, (-coupling[b], b))
    return components


def _symmetries(chords_w: list[list[int]], chords_b: list[list[int]],
                rows: tuple[int, ...], components: list[list[int]]) -> list[int]:
    """Flip symmetries of the positions, as codes over them (position k is
    bit n - 1 - k, as in `partition_from_code`): flipping the sides of a
    generator's positions keeps the genus of every partition. They are the
    swaps of the `components`, then those of three local rules on the
    intersection matrix `rows`, an alternating form:

    - Component swaps: no linked pair joins two components, so the matrix
      is block-diagonal over them, and a swap trades the two sides' ranks
      on its own block alone. A 4-vertex whose chord links nothing is one.
    - R2: a triad whose chords a and b are linked, where of the other
      chords linked to a only, those to b only and those to both, at most
      one set is non-empty. Then span(a, b) is a hyperbolic plane, and
      projecting the other chords off it changes no link between them, so
      the triad adds exactly 2 to its side.
    - R3: a double chord whose halves link the same other chords. Flipping
      it swaps the halves, and that swap is an automorphism of the form.
    - R4: two 4-valent vertices whose chords are linked and link the same
      other chords, flipped together: on one side their chords add 2 as in
      R2, and apart the joint flip is a swap. Two such chords i share
      `rows[i] | 1 << i`, and any two with equal keys are such a pair, so
      the chords are bucketed by it and each bucket's first pairs with the
      others.
    """
    n = len(chords_w)
    generators = [sum(1 << (n - 1 - k) for k in part) for part in components]
    buckets: dict[int, list[int]] = defaultdict(list)  # R4's chords by key
    for k, (w, b) in enumerate(zip(chords_w, chords_b)):
        bit = 1 << (n - 1 - k)
        if len(w) + len(b) == 1:
            buckets[rows[w[0]] | 1 << w[0]].append(bit)
            continue
        i, j = w + b
        # what i and j link outside the pair
        link_i, link_j = rows[i] & ~(1 << j), rows[j] & ~(1 << i)
        if b:  # R3
            free = link_i == link_j
        else:  # R2
            free = rows[i] >> j & 1 and (not link_i or not link_j or link_i == link_j)
        if free:
            generators.append(bit)
    for bits in buckets.values():
        generators += [bits[0] | other for other in bits[1:]]
    return generators


def _fixed(chords_w: list[list[int]], chords_b: list[list[int]],
           rows: tuple[int, ...], components: list[list[int]]) -> list[bool]:
    """Per position, whether the search places it on W alone: the pivots
    of the reduced echelon basis of the span of `_symmetries`, each basis
    vector's leading bit, which is its lowest position.

    Every coset of that span has its least code with every pivot on W:
    flipping a basis vector whose pivot is set clears it, touches no other
    pivot and changes only higher positions. Each coset has one such code,
    and all its codes have the same genus, so the partitions with every
    pivot on W keep every genus and the least code of each. Each
    component's lowest position is one, its swap's, and so position 0 is.
    """
    n = len(chords_w)
    leads = _echelon(_symmetries(chords_w, chords_b, rows, components))
    return [n - 1 - k in leads for k in range(n)]


def _stuck(up_w: int, up_b: int, rest: Optional[tuple]) -> bool:
    """Whether some unplaced vertex raises a side whichever side it takes.

    `rest` holds the unplaced vertices as a linked list of
    (mask_w, mask_b, fixed, rest) cells ending in None: W sends mask_w's
    chords to white and mask_b's to black, B the other way round, and a
    fixed vertex (`_fixed`) has W for its one option. An option raises a
    side when it sends one of that side's raisers
    (`SymplecticBasis.raisers`) there, and since ranks only grow, a raised
    side adds 1 to the genus of every leaf below. So when some vertex is
    stuck, every leaf below the node has a genus above its bound.
    """
    if not up_w | up_b:
        return False
    while rest:
        mw, mb, fixed, rest = rest
        if (mw & up_w or mb & up_b) and (fixed or mb & up_w or mw & up_b):
            return True
    return False


def _search(chords_w: list[list[int]], chords_b: list[list[int]], rows: tuple[int, ...],
            components: list[list[int]], fixed: list[bool], least: bool,
            max_nodes: Optional[int]) -> tuple[int, int, int, int]:
    """The branch-and-bound over the vertex positions of `components`, with
    their chords as `_side_chords` lists them and `rows` the intersection
    matrix's rows: one depth-first walk per part, from a root at its first
    position. No linked pair may join two parts, as none joins two of
    `_coupling_order`'s components: the matrix is then block-diagonal over
    them, and a code's genus and ranks are the sums of its parts'. (One
    part, `[order]`, walks the product of any positions.) Returns (genus,
    code, rank_w, rank_b) summed over the parts' best leaves; `code` is over
    all the pipeline's vertices, as in `partition_from_code`, with the
    positions outside the parts on W.

    Each part's first position is kept on W: flipping the whole part swaps
    the two chord sets and keeps the genus. So are the positions that
    `fixed` (per position) marks, which get no B child and which `_stuck`
    reads by their W option alone; `_fixed` marks pivots of flip
    symmetries, whose every coset keeps its least code, and with those each
    part must start at its lowest position, as each component does, at its
    swap's pivot. A leaf beats its part's best one so far when its genus is
    lower, or, when `least`, equal with a smaller code. So with `least` a
    walk ends on its part's least code of the minimal genus, in any child
    order, as the part's first position is its lowest and each coset of the
    fixed positions' symmetries has its least code with them all on W; and
    the parts' least codes make the least code of the minimal genus, as the
    first bit where another code of that genus differs lies in one part.
    Without `least` a walk ends on the first leaf of its part's minimal
    genus it meets.

    A node's half rank sum bounds the genus of every leaf below it (a
    principal submatrix never has larger rank), and so does the bound plus
    1 when `_stuck` finds an unplaced position that raises a side either
    way; its code, with the unplaced positions on W, is the least code
    below it. A node is cut when these show that no leaf below can beat
    the best; `_stuck` is asked only at a node one short of its cut, the
    only one its 1 can cut. A child's bound adds 1 for each side its
    position sends one of that side's raisers to: the raiser raises the
    side's rank by 2, a non-raiser added first leaves it a raiser, and
    ranks never fall. A child is not made when its bound shows, with its
    own code, that it cannot beat the best, nor a B child at a fixed
    position; of two made children the walk descends into the lower-bound
    one (W on ties) and pushes the other. Each node made, each part's root
    and each child when it is made, takes one from the budget `max_nodes`
    (None for no budget), which the parts share; SearchBudgetExceeded is
    raised when too few are left.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be at least 0, got {max_nodes}")
    exceeded = SearchBudgetExceeded(f"genus search exceeds the node budget {max_nodes}")
    left = math.inf if max_nodes is None else max_nodes  # nodes still to make
    empty = SymplecticBasis(rows)
    total = (0, 0, 0, 0)  # (genus, code, rank_w, rank_b) over the parts walked
    for order in components:
        n = len(order)
        # per depth: its position's chords, their masks, whether it is
        # fixed, and its code bit, over all the graph's vertices
        to_w = [chords_w[k] for k in order]
        to_b = [chords_b[k] for k in order]
        mask_w = [index_mask(chords) for chords in to_w]
        mask_b = [index_mask(chords) for chords in to_b]
        on_w = [fixed[k] for k in order]
        bit = [1 << (len(chords_w) - 1 - k) for k in order]
        # suffix[k]: the positions placed below depth k, as (mask_w, mask_b,
        # fixed, rest) cells for `_stuck` that the depths share: O(n) to build
        suffix: list[Optional[tuple]] = [None] * n
        for k in range(n - 2, -1, -1):
            suffix[k] = (mask_w[k + 1], mask_b[k + 1], on_w[k + 1], suffix[k + 1])
        if not left:
            raise exceeded
        left -= 1
        # no leaf yet: every genus is below the chord count, so the first leaf beats this
        best, best_code, found = len(rows), 0, None
        # (depth, code with the bits of the positions down to that depth,
        # white basis, black basis, the bound its parent gave it); an
        # explicit stack, so depth is not bounded by the recursion limit
        stack = [(0, 0, empty, empty, 0)]
        while stack:
            k, code, white, black, bound = stack.pop()
            # the leaves below must stay under this genus to beat the best
            cut = best + (least and code < best_code)
            if bound >= cut:  # the best improved since the push
                continue
            while True:  # place depth k's position, then descend into a child
                to_white, to_black = (to_b[k], to_w[k]) if code & bit[k] else (to_w[k], to_b[k])
                for i in to_white:
                    white = white.add(i)
                for i in to_black:
                    black = black.add(i)
                bound = (white.rank + black.rank) // 2
                if bound >= cut:
                    break
                if k == n - 1:
                    best, best_code = bound, code
                    found = (bound, code, white.rank, black.rank)
                    break
                up_w, up_b = white.raisers, black.raisers
                if bound + 1 == cut and _stuck(up_w, up_b, suffix[k]):
                    break
                k += 1
                # a raiser sent to a side raises it by 2 in every leaf below
                mw, mb, code_b = mask_w[k], mask_b[k], code | bit[k]
                bound_w = bound + bool(mw & up_w) + bool(mb & up_b)
                bound_b = bound + bool(mb & up_w) + bool(mw & up_b)
                cut_b = best + (least and code_b < best_code)
                keep_w, keep_b = bound_w < cut, bound_b < cut_b and not on_w[k]
                if left < keep_w + keep_b:
                    raise exceeded
                left -= keep_w + keep_b
                # descend into the child with the lower bound, W on ties,
                # and push the other; the W child has its parent's code and cut
                if keep_w and (bound_w <= bound_b or not keep_b):
                    if keep_b:
                        stack.append((k, code_b, white, black, bound_b))
                elif keep_b:
                    if keep_w:
                        stack.append((k, code, white, black, bound_w))
                    code, cut = code_b, cut_b
                else:
                    break
        assert found is not None
        genus, code, rank_w, rank_b = found
        total = (total[0] + genus, total[1] | code, total[2] + rank_w, total[3] + rank_b)
    return total


def _solve(pipe: Pipeline, least: bool, max_nodes: Optional[int]) -> GenusResult:
    """The search driver behind `search_genus` (`least` False) and
    `min_genus_of_pipeline` (`least` True): one `_search`, a walk per
    component of `_coupling_order`, whose coupling-first order grows the
    ranks, and with them the bounds, early, with the pivots of the flip
    symmetries (`_fixed`) on W alone. The leaf is returned once `rank_pair`
    reproduces the search's ranks there; those are twice a pair count, so
    an odd rank sum fails this check too.
    """
    vertices = list(pipe.graph.vertices)
    chords_w, chords_b = _side_chords(pipe.diagram, vertices)
    rows = pipe.matrix.rows
    components = _coupling_order(chords_w, chords_b, pipe.linked)
    genus, code, rw, rb = _search(chords_w, chords_b, rows, components,
                                  _fixed(chords_w, chords_b, rows, components), least, max_nodes)
    leaf = _partition(vertices, chords_w, chords_b, code)
    checked = rank_pair(pipe.matrix, leaf)
    if checked != (rw, rb):
        raise InvariantViolation(f"leaf ranks {checked} differ from the search's {(rw, rb)}")
    return GenusResult(genus, leaf, (rw, rb))


def min_genus(g: StarGraph) -> GenusResult:
    """Least genus over the permissible partitions; ties break to the
    lexicographically least side assignment (W before B, ascending vertex
    ids)."""
    return min_genus_of_pipeline(build_pipeline(g))


def search_genus(pipe: Pipeline, max_nodes: Optional[int] = None) -> GenusResult:
    """The minimal genus from one search in which only a lower genus beats
    the best leaf. The witness is the first leaf of that genus the search
    met: a partition of the minimal genus, but not necessarily the least
    one that `min_genus_of_pipeline` reports. Raises ValueError when
    `max_nodes` is negative, SearchBudgetExceeded when the search needs
    more than `max_nodes` nodes, and InvariantViolation when `masked_rank`
    does not reproduce the search's ranks at that leaf."""
    return _solve(pipe, False, max_nodes)


def min_genus_of_pipeline(pipe: Pipeline, threads: Optional[int] = None,
                          max_nodes: Optional[int] = None) -> GenusResult:
    """`min_genus` on a built pipeline: one search in which a leaf of equal
    genus and smaller code also beats the best, so it ends on the least
    witness. Raises ValueError when `max_nodes` is negative,
    SearchBudgetExceeded when the search needs more than `max_nodes` nodes,
    and InvariantViolation when `masked_rank` does not reproduce the
    search's ranks at the witness."""
    return _solve(pipe, True, max_nodes)


def is_planar(g: StarGraph) -> PlanarityResult:
    """Genus-0 test without the partition scan: `planarity_of_pipeline`
    on the graph's pipeline."""
    return planarity_of_pipeline(build_pipeline(g))


def planarity_of_pipeline(pipe: Pipeline) -> PlanarityResult:
    """Genus-0 test on a built pipeline, without the partition scan.

    Triad halves take the same side; double-chord halves and linked chords
    take opposite sides. These constraints stream, in that order, into a
    parity union-find, and none is kept. If it absorbs them all, sides are
    read off with each component anchored white at its lowest chord.
    Otherwise the first rejected one closes an odd cycle: a breadth-first
    search over the constraints before it, streamed again, returns it as
    the conflict certificate.
    """
    vertices = list(pipe.graph.vertices)
    chords_w, chords_b = _side_chords(pipe.diagram, vertices)

    def constraints() -> Iterator[tuple[int, int, int]]:
        # the two chords of a 6-valent vertex: triad halves (both in
        # chords_w) agree, double-chord halves (one in each list) disagree
        for same, opposite in zip(chords_w, chords_b):
            both = sorted(same + opposite)
            if len(both) == 2:
                yield both[0], both[1], 1 if opposite else 0
        for i, j in pipe.linked:
            yield i, j, 1

    uf = ParityUnionFind(len(pipe.diagram.chords))
    for conflict_at, (i, j, p) in enumerate(constraints()):
        if not uf.union(i, j, p):
            break
    else:
        chord_side = uf.sides()
        # a vertex is on the side its chords_w take: for a double chord
        # that is its p+ half, for any other vertex its lowest chord
        witness = {v: SIDE_BLACK if chord_side[chords_w[k][0]] else SIDE_WHITE
                   for k, v in enumerate(vertices)}
        return PlanarityResult(True, witness=witness)

    adj: dict[int, list[int]] = defaultdict(list)
    for x, y, _ in islice(constraints(), conflict_at):
        adj[x].append(y)
        adj[y].append(x)
    parent: dict[int, Optional[int]] = {i: None}
    queue = deque([i])
    while queue and j not in parent:
        x = queue.popleft()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if j not in parent:
        raise InvariantViolation("conflicting chords are not connected")
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    return PlanarityResult(False, conflict=tuple(reversed(path)))
