"""Brute-force genus oracle via checkerboard face tracing.

Fixing a source-sink orientation, every per-vertex choice of which angle
class is white determines a checkerboard surface: white faces are traced
forward through white angles, black faces backward through black angles,
and the genus falls out of the Euler characteristic. Minimizing over all
2^n colourings is an independent check on the rank-based computation: it
shares no code with the chord diagrams, the GF(2) matrices or the rank
search, and it is capped. The oracle traces the orientation it is given,
which is always the canonical one, `core_graph.require_source_sink(g)`:
`min_genus_bruteforce` computes it, and `check` hands over the pipeline's
copy, which `build_pipeline` takes from the same call.

The face-successor rule is written once, in `_successor_tables`, which
numbers the face slots (a white one at each edge's head, a black one at its
tail) and gives for every slot its next slot on its face for either colour
bit of the slot's vertex. `trace_faces` walks those tables for one
colouring, through `_count_faces`, which callers that trace many colourings
give tables built once. `traced_genera` links the same tables, built once
per graph, and counts the faces of half the colourings at once, those in
which the last vertex (by ascending id) has bit 0, in one recursion over
the vertices from the last one down: fixing a vertex's colour bit adds the
links out of its face slots, and a table of open path segments per
colouring tells which link closes a face. Swapping every colour keeps the
genus, so the other half are read off the traced half.
Both turn face counts into genera by one rule, `_genera_of_faces`.
Colourings that agree on the vertices done so far share their links, and
both bits of a vertex link the same slots in one pass, so each traced
colouring costs about two vertices' links instead of a walk over all its
edges, and the table keeps only the slots of the vertices not yet done.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core_graph import (HalfEdgeRef, Orientation, StarGraph, permutation_cycles,
                         require_source_sink)
from .errors import DEFAULT_CAP, InvariantViolation, OracleCapExceeded

if TYPE_CHECKING:  # annotations only: the oracle runs on core_graph alone
    from .genus import Pipeline, PermissiblePartition

# Colourings per block, a power of two. From vertex n - 1 down, each vertex
# doubles the table's rows until it has BLOCK / 2, one per even code of a
# block (vertex n - 1, the lowest code bit, keeps bit 0); each vertex after
# that branches on its bit, and each leaf of the branching is one block. A
# block's two segment tables take at most BLOCK / 2 x 2m bytes and shrink as
# vertices are done. On 18-20 vertex graphs (2 shared vCPUs) 4,096 beat
# 2,048 in all six runs, by 16-49%, and was within noise of 8,192; on 12-14
# vertices the sizes tie. The tracemalloc peak on an 18-vertex cover is
# 0.79 MB, the 256 KB genera array included.
BLOCK = 4096


@dataclass(frozen=True)
class AtomColoring:
    """bits[v] = c means the angles (i, i+1) with i = c mod 2 are white at v."""

    bits: dict[int, int]


@dataclass(frozen=True)
class FaceCount:
    white: int
    black: int
    euler: int
    genus: int


@dataclass(frozen=True)
class _SuccessorTables:
    """Face successors by slot: slot e < m is the white slot at the head of
    the e-th edge (by ascending id), slot m + e the black slot at its tail.
    owner[s] indexes `vertices`, the ascending vertex ids, at the vertex of
    s; succ[c][s] is the next slot on the face of s when that vertex has
    colour bit c. White slots lead to white slots, black ones to black.
    """

    vertices: tuple[int, ...]
    owner: tuple[int, ...]
    succ: tuple[tuple[int, ...], tuple[int, ...]]


def _successor_tables(g: StarGraph, orientation: Orientation) -> _SuccessorTables:
    """The face-successor rule. A white face arriving at head slot s
    continues out of the other slot of the white angle flanking s; a black
    face is followed backward from tail slots through black angles. The
    angle (i, i+1) at a vertex is white when i = bit mod 2."""
    ends = [orientation.direction[e.id] for e in g.edges]
    m = len(ends)
    at = [h for _, h in ends] + [t for t, _ in ends]  # the half-edge of each slot
    # a face leaves a tail forward to a white slot, a head backward to a black one
    reach = {(r.vertex, r.slot): s for s, r in enumerate(at[m:] + at[:m])}

    def turns(ref: HalfEdgeRef) -> tuple[int, int]:
        # [p]: the slot a face reaches from ref through the angle at ref
        # whose lower slot is p mod 2
        v, s = ref.vertex, ref.slot
        d = g.vertices[v]
        down, up = reach[v, (s - 1) % d], reach[v, (s + 1) % d]
        return (down, up) if s % 2 else (up, down)

    turn = [turns(r) for r in at]  # white faces turn at parity c, black ones at 1 - c
    index = {v: k for k, v in enumerate(g.vertices)}
    return _SuccessorTables(
        tuple(g.vertices), tuple(index[r.vertex] for r in at),
        tuple(tuple(p[c] for p in turn[:m]) + tuple(p[1 - c] for p in turn[m:])
              for c in (0, 1)))


def trace_faces(g: StarGraph, orientation: Orientation, coloring: AtomColoring) -> FaceCount:
    """Face counts and genus of the checkerboard surface for one colouring."""
    return _count_faces(_successor_tables(g, orientation), coloring)


def _count_faces(t: _SuccessorTables, coloring: AtomColoring) -> FaceCount:
    """`trace_faces` on the graph's successor tables, which callers that
    trace many colourings of one graph build once. The faces are the cycles
    of one slot permutation, the white ones those whose first slot is < m.
    """
    bit = [coloring.bits[v] for v in t.vertices]
    m = len(t.owner) // 2
    faces = permutation_cycles({s: t.succ[bit[v]][s] for s, v in enumerate(t.owner)})
    white = sum(cycle[0] < m for cycle in faces)
    genus = _genera_of_faces(len(faces), len(t.vertices), m)
    return FaceCount(white, len(faces) - white, 2 - 2 * genus, genus)


def _add_links(start: np.ndarray, end: np.ndarray, faces: np.ndarray,
               ends: list[int], targets: np.ndarray) -> None:
    """Add the links ends[i] -> targets[i] to every row, in turn, and count
    the faces they close. targets[i] holds one target per row, or a single
    target for every row.

    Row r of the C-contiguous tables holds one colouring's open path
    segments: start[r, e] is the first slot of the segment that ends at e,
    end[r, s] the last slot of the one that starts at s. The link s -> t
    joins the segment ending at s to the one starting at t, and closes a
    face when they are the same segment, i.e. when s's segment starts at t.
    Only in such rows do the writes below hit the columns they read from,
    and there they write back the values those already hold.
    """
    rows, width = start.shape
    row_base = np.arange(rows) * width
    start_flat, end_flat = start.reshape(-1), end.reshape(-1)
    firsts = np.empty((len(ends), rows), dtype=start.dtype)
    for s, first, t in zip(ends, firsts, targets):
        first[:] = start[:, s]
        last = end_flat[row_base + t]
        start_flat[row_base + last] = first
        end_flat[row_base + first] = last
    faces += (firsts == targets).sum(axis=0, dtype=faces.dtype)


def _genera_of_faces(faces: int | np.ndarray, n: int, m: int) -> int | np.ndarray:
    """The genus from the Euler characteristic n - m + faces of a surface on
    n vertices and m edges, for one face count (an int) or an array of them.
    Raises InvariantViolation when one is odd or gives a negative genus."""
    euler = n - m + faces
    if np.any(euler % 2):
        raise InvariantViolation("odd Euler characteristic")
    genus = (2 - euler) // 2
    if np.any(genus < 0):
        raise InvariantViolation("negative genus from face trace")
    return genus


def traced_genera(g: StarGraph, orientation: Orientation,
                  cap: Optional[int] = DEFAULT_CAP) -> np.ndarray:
    """The traced genus of every colouring of `g` under `orientation`, a
    source-sink orientation of the valid graph `g`, indexed by its code.

    Bit k of a code (big-endian over ascending vertex ids) is the colour bit
    of the k-th vertex. Refuses graphs above `cap` vertices (None disables
    the cap). Raises InvariantViolation when a colouring's Euler
    characteristic is odd or its genus negative. Also refuses, whatever the
    cap, a graph whose codes do not fit in int64 (n > 62) or whose 2^n
    genera cannot be allocated. Every refusal comes before any tracing.

    Only the even codes are traced. Code 2^n - 1 - c is c with every colour
    swapped, which makes every white angle black and every black one white.
    A white face runs forward through white angles and a black face backward
    through black ones, so the white successor map of the swapped colouring
    is the inverse of the black map of c, and its black map the inverse of
    c's white one. A permutation and its inverse have the same number of
    cycles, so both colourings have the same face count and genus, and the
    odd codes, read in reverse, are the even ones.
    """
    n = g.n_vertices
    if cap is not None and n > cap:
        raise OracleCapExceeded(f"{n} vertices exceeds the enumeration cap {cap}")
    if n > 62:
        raise OracleCapExceeded(f"{n} vertices exceeds 62, the most whose codes fit in int64")
    try:
        genera = np.empty(1 << n, dtype=np.int8)  # genus <= (m - n) / 2 <= n
    except MemoryError:
        raise OracleCapExceeded(f"{n} vertices: no memory for the genera of "
                                f"2^{n} colourings") from None
    t = _successor_tables(g, orientation)
    m = len(t.owner) // 2
    # A slot is an open end until its own vertex is done, and an open start
    # until the vertex of its predecessor is. A face enters a vertex at a head
    # and leaves it at a tail, so a white slot's predecessor is at the slot's
    # tail and a black slot's at its head. The vertices are done from n - 1
    # down, so ranking both kinds by ascending vertex keeps the open ends and
    # the open starts a prefix, of equal width, and the tables shrink to it.
    def latest_first(vertex_of: tuple[int, ...]) -> list[int]:
        rank = [0] * (2 * m)
        for i, s in enumerate(sorted(range(2 * m), key=vertex_of.__getitem__)):
            rank[s] = i
        return rank

    as_end, as_start = latest_first(t.owner), latest_first(t.owner[m:] + t.owner[:m])
    slots_at: list[list[int]] = [[] for _ in range(n)]
    for s, v in enumerate(t.owner):
        slots_at[v].append(s)

    width = 2 * m
    slot = np.min_scalar_type(width)  # the dtype of slot ranks in the tables
    # the k-th vertex's slots link ends[k][i] -> targets[k][i, c] when its bit is c
    ends = [[as_end[s] for s in own] for own in slots_at]
    targets = [np.array([[as_start[t.succ[c][s]] for c in (0, 1)] for s in own], dtype=slot)
               for own in slots_at]

    start = np.empty((1, width), dtype=slot)
    end = np.empty_like(start)
    start[0, as_end] = as_start  # every slot is a segment of its own
    end[0, as_start] = as_end
    faces = np.zeros(1, dtype=np.int16)  # faces <= 2m < 2^15
    # Vertex n - 1 keeps bit 0 (see the docstring).
    _add_links(start, end, faces, ends[n - 1], targets[n - 1][:, :1])
    even = genera[0::2]

    def walk(k: int, code: int, start: np.ndarray, end: np.ndarray,
             faces: np.ndarray, width: int) -> None:
        # vertices k to 0 are left; row r of the tables holds the bits of
        # code + 2r above k, and only their first `width` columns are open.
        # A table below BLOCK / 2 rows doubles in place of its parent: the
        # bit-0 half, then the bit-1 half, so the bit tops the row index.
        while k >= 0 and len(faces) < BLOCK // 2:
            rows = len(faces)
            start, end = (np.concatenate([a[:, :width]] * 2) for a in (start, end))
            faces = np.concatenate([faces, faces])
            _add_links(start, end, faces, ends[k], np.repeat(targets[k], rows, axis=1))
            k, width = k - 1, width - len(slots_at[k])
        if k < 0:
            even[code >> 1:(code >> 1) + len(faces)] = _genera_of_faces(faces, n, m)
            return
        # a full table branches: bit 0 works on trimmed copies, bit 1 takes
        # over its parent's tables
        for bit in (0, 1):
            tables = (start[:, :width].copy(), end[:, :width].copy(), faces.copy()) \
                if bit == 0 else (start, end, faces)
            _add_links(*tables, ends[k], targets[k][:, bit:bit + 1])
            walk(k - 1, code | bit << (n - 1 - k), *tables, width - len(slots_at[k]))

    walk(n - 2, 0, start, end, faces, width - len(slots_at[n - 1]))
    genera[1::2] = even[::-1]  # code 2^n - 1 - c swaps every colour of c
    return genera


def _coloring_of_code(vertices: list[int], code: int) -> AtomColoring:
    n = len(vertices)
    return AtomColoring({v: (code >> (n - 1 - k)) & 1 for k, v in enumerate(vertices)})


def min_genus_bruteforce(g: StarGraph, cap: Optional[int] = DEFAULT_CAP,
                         threads: Optional[int] = None) -> tuple[int, AtomColoring]:
    """Minimum genus over all 2^n colourings, with the least witness.

    Validates `g` and takes its canonical source-sink orientation first, so
    an invalid or unorientable graph raises as such whatever the cap. Then
    refuses graphs above `cap` vertices (None disables the cap). Ties break
    to the lexicographically least bit vector over ascending vertex ids.
    `threads` is accepted for compatibility and ignored: the scan is serial.
    """
    genera = traced_genera(g, require_source_sink(g), cap)
    code = int(np.argmin(genera))  # the first, hence least, code at the minimum
    return int(genera[code]), _coloring_of_code(list(g.vertices), code)


def oracle_min_genus(g: StarGraph, cap: Optional[int] = DEFAULT_CAP) -> int:
    """The brute-force minimum genus (see min_genus_bruteforce)."""
    return min_genus_bruteforce(g, cap=cap)[0]


def chord_region_parity(pipe: Pipeline) -> dict[int, int]:
    """Angle-class parity that is white at each vertex when its side is W:
    the class that one passage of the circuit there does not turn through.
    Every passage at a rotating vertex turns through one class, so the
    first visit is read. At a splitting vertex the straight passage uses
    slots a and a + 3, so the other two turn through (a + 1, a + 2) and
    (a + 4, a + 5), both of one class; the visit after the principal one,
    where the double chord's p+ half ends, is read.
    """
    parity: dict[int, int] = {}
    for v, d in pipe.graph.vertices.items():
        principal = pipe.classes[v].principal
        pos = pipe.circuit.positions[v]
        vis = pipe.circuit.visits[pos[0 if principal is None else (principal + 1) % 3]]
        i, o = vis.in_slot, vis.out_slot
        if (i + 1) % d != o and (o + 1) % d != i:
            raise InvariantViolation(f"non-adjacent passage at vertex {v}")
        parity[v] = 1 - (i if (i + 1) % d == o else o) % 2
    return parity


def coloring_flip(pipe: Pipeline) -> int:
    """The colouring code (as in `traced_genera`) of the all-W partition:
    the region parities (see chord_region_parity), packed big-endian over
    ascending vertex ids. A vertex on side B flips its colour bit, so a
    partition's colouring code is its own code (as in
    `genus.partition_from_code`) XOR this value.
    """
    code = 0
    for bit in chord_region_parity(pipe).values():
        code = code << 1 | bit
    return code


def coloring_of_partition(pipe: Pipeline, partition: PermissiblePartition) -> AtomColoring:
    """The atom colouring whose checkerboard surface realizes the partition."""
    return _coloring_of_code(list(pipe.graph.vertices), partition.code ^ coloring_flip(pipe))
