"""Brute-force genus oracle via checkerboard face tracing.

Fixing a source-sink orientation, every per-vertex choice of which angle
class is white determines a checkerboard surface: white faces are traced
forward through white angles, black faces backward through black angles,
and the genus falls out of the Euler characteristic. Minimizing over all
2^n colourings is an independent check on the rank-based computation: it
shares no code with the chord diagrams, the GF(2) matrices or the rank
search, and it is capped.

The face-successor rule is written once, in `_successor_tables`, which
gives for every edge its next edge on the white and on the black face for
either colour bit of the vertex the face passes through. `trace_faces`
walks those tables for one colouring. `traced_genera` builds them once per
graph and counts the faces of `BATCH` colourings per numpy pass: each
colouring's successor permutation is selected with `np.where`, and its
cycles are counted by pointer jumping, labelling every edge with the least
edge of its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core_graph import HalfEdgeRef, Orientation, StarGraph, require_source_sink
from .errors import InvariantViolation, OracleCapExceeded
from .genus import Pipeline, PermissiblePartition, SIDE_BLACK

DEFAULT_CAP = 20
# Colourings per numpy pass. A pass holds a few int32 arrays of BATCH x 2 x edges;
# on 12-14 vertex graphs 1,024 was no faster than 256 and raised peak memory.
BATCH = 256


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
    """Face successors by edge index (the position in ascending edge id order).

    white[c][e] is the edge after e on its white face when the head vertex
    of e has colour bit c; black[c][e] likewise through the tail vertex.
    head[e] and tail[e] index `vertices`, the ascending vertex ids.
    """

    vertices: tuple[int, ...]
    head: tuple[int, ...]
    tail: tuple[int, ...]
    white: tuple[tuple[int, ...], tuple[int, ...]]
    black: tuple[tuple[int, ...], tuple[int, ...]]


def _successor_tables(g: StarGraph, orientation: Orientation) -> _SuccessorTables:
    """The face-successor rule. A white face arriving at head slot s
    continues out of the other slot of the white angle flanking s; a black
    face is followed backward from tail slots through black angles. The
    angle (i, i+1) at a vertex is white when i = bit mod 2."""
    ends = [orientation.direction[eid] for eid in sorted(orientation.direction)]
    tails = {(t.vertex, t.slot): e for e, (t, _) in enumerate(ends)}
    heads = {(h.vertex, h.slot): e for e, (_, h) in enumerate(ends)}

    def mates(ref: HalfEdgeRef) -> tuple[tuple[int, int], tuple[int, int]]:
        # [p]: the other slot of the angle at ref whose lower slot is p mod 2
        v, s = ref.vertex, ref.slot
        d = g.vertices[v]
        down, up = (v, (s - 1) % d), (v, (s + 1) % d)
        return (down, up) if s % 2 else (up, down)

    at_head = [mates(h) for _, h in ends]
    at_tail = [mates(t) for t, _ in ends]
    vertices = tuple(sorted(g.vertices))
    index = {v: k for k, v in enumerate(vertices)}
    return _SuccessorTables(
        vertices,
        head=tuple(index[h.vertex] for _, h in ends),
        tail=tuple(index[t.vertex] for t, _ in ends),
        white=tuple(tuple(tails[m[c]] for m in at_head) for c in (0, 1)),
        black=tuple(tuple(heads[m[1 - c]] for m in at_tail) for c in (0, 1)))


def _cycle_count(successor: list[int]) -> int:
    seen = [False] * len(successor)
    cycles = 0
    for start in range(len(successor)):
        if seen[start]:
            continue
        cycles += 1
        e = start
        while not seen[e]:
            seen[e] = True
            e = successor[e]
    return cycles


def trace_faces(g: StarGraph, orientation: Orientation, coloring: AtomColoring) -> FaceCount:
    """Face counts and genus of the checkerboard surface for one colouring.

    Both successor maps are permutations of the edge set, so their cycle
    counts are the white and the black faces.
    """
    t = _successor_tables(g, orientation)
    bit = [coloring.bits[v] for v in t.vertices]
    white = _cycle_count([t.white[bit[h]][e] for e, h in enumerate(t.head)])
    black = _cycle_count([t.black[bit[v]][e] for e, v in enumerate(t.tail)])
    euler = g.n_vertices - g.n_edges + white + black
    if euler % 2:
        raise InvariantViolation("odd Euler characteristic")
    genus = (2 - euler) // 2
    if genus < 0:
        raise InvariantViolation("negative genus from face trace")
    return FaceCount(white, black, euler, genus)


def traced_genera(g: StarGraph, cap: Optional[int] = DEFAULT_CAP) -> np.ndarray:
    """The traced genus of every colouring, indexed by its code.

    Bit k of a code (big-endian over ascending vertex ids) is the colour bit
    of the k-th vertex. Refuses graphs above `cap` vertices (None disables
    the cap). Raises InvariantViolation when a colouring's Euler
    characteristic is odd or its genus negative.
    """
    orientation = require_source_sink(g)
    if cap is not None and g.n_vertices > cap:
        raise OracleCapExceeded(f"{g.n_vertices} vertices exceeds the enumeration cap {cap}")
    t = _successor_tables(g, orientation)
    n, m = len(t.vertices), len(t.head)
    width = 2 * m  # one permutation of 2m slots: white faces on [0, m), black on [m, 2m)
    table = np.array([t.white[0] + tuple(m + e for e in t.black[0]),
                      t.white[1] + tuple(m + e for e in t.black[1])], dtype=np.int32)
    vertex_of_slot = np.array(t.head + t.tail)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    total = 1 << n
    batch = min(BATCH, total)  # both are powers of two, so every batch is full
    rounds = (m - 1).bit_length()  # 2^rounds >= m, the longest possible orbit
    rows = np.arange(batch, dtype=np.int64)[:, None]
    row_start = (rows * width).astype(np.int32)
    slots = np.arange(batch * width, dtype=np.int32)
    # genus <= (m - n) / 2 <= n, and n < 63 for codes to fit in int64
    genera = np.empty(total, dtype=np.int8)
    for lo in range(0, total, batch):
        bits = ((lo + rows) >> shifts) & 1  # (colouring, vertex)
        succ = np.where(bits[:, vertex_of_slot], table[1], table[0])
        succ += row_start
        succ = succ.ravel()
        label = slots.copy()
        jumped = np.empty_like(succ)
        for _ in range(rounds):
            np.take(label, succ, out=jumped, mode="wrap")  # "raise" would buffer `out`
            np.minimum(label, jumped, out=label)
            np.take(succ, succ, out=jumped, mode="wrap")
            succ, jumped = jumped, succ
        faces = (label == slots).reshape(batch, width).sum(axis=1)
        euler = n - m + faces
        if (euler % 2).any():
            raise InvariantViolation("odd Euler characteristic")
        genus = (2 - euler) // 2
        if (genus < 0).any():
            raise InvariantViolation("negative genus from face trace")
        genera[lo:lo + batch] = genus
    return genera


def _coloring_of_code(vertices: list[int], code: int) -> AtomColoring:
    n = len(vertices)
    return AtomColoring({v: (code >> (n - 1 - k)) & 1 for k, v in enumerate(vertices)})


def min_genus_bruteforce(g: StarGraph, cap: Optional[int] = DEFAULT_CAP,
                         threads: Optional[int] = None) -> tuple[int, AtomColoring]:
    """Minimum genus over all 2^n colourings, with the least witness.

    Refuses graphs above `cap` vertices (None disables the cap). Ties break
    to the lexicographically least bit vector over ascending vertex ids.
    `threads` is accepted for compatibility and ignored: the scan is serial.
    """
    genera = traced_genera(g, cap)
    code = int(np.argmin(genera))  # the first, hence least, code at the minimum
    return int(genera[code]), _coloring_of_code(sorted(g.vertices), code)


def oracle_min_genus(g: StarGraph, cap: Optional[int] = DEFAULT_CAP) -> int:
    """The brute-force minimum genus (see min_genus_bruteforce)."""
    return min_genus_bruteforce(g, cap=cap)[0]


def chord_region_parity(pipe: Pipeline) -> dict[int, int]:
    """Angle-class parity that is white at each vertex when its side is W.

    The circuit fixes, at every vertex, which angle class the chord regions
    fall into. At a rotating vertex every passage turns through angles of one
    class and the regions lie in the other. At a splitting vertex the
    straight passage cuts the star in two; the regions follow the side on
    which the circuit first returns, read off from the in-slot of the next
    visit after the principal one.
    """
    parity: dict[int, int] = {}
    for v in sorted(pipe.graph.vertices):
        d = pipe.graph.vertices[v]
        cls = pipe.classes[v]
        pos = pipe.circuit.positions[v]
        if cls.kind in ("rotating4", "rotating6"):
            vis = pipe.circuit.visits[pos[0]]
            i, o = vis.in_slot, vis.out_slot
            if (i + 1) % d == o:
                angle_index = i
            elif (o + 1) % d == i:
                angle_index = o
            else:
                raise InvariantViolation(f"non-adjacent passage at rotating vertex {v}")
            parity[v] = 1 - (angle_index % 2)
        else:
            k = cls.principal or 0
            principal = pipe.circuit.visits[pos[k]]
            a_in = principal.in_slot
            nxt = pipe.circuit.visits[pos[(k + 1) % 3]]
            near = ((a_in + 1) % 6, (a_in + 2) % 6)
            parity[v] = a_in % 2 if nxt.in_slot in near else (a_in + 1) % 2
    return parity


def coloring_flip(pipe: Pipeline) -> int:
    """The colouring code (as in `traced_genera`) of the all-W partition:
    the region parities (see chord_region_parity), packed big-endian over
    ascending vertex ids. A vertex on side B flips its colour bit, so a
    partition's colouring code is its own code (as in
    `genus.partition_from_code`) XOR this value.
    """
    code = 0
    for _, bit in sorted(chord_region_parity(pipe).items()):
        code = code << 1 | bit
    return code


def coloring_of_partition(pipe: Pipeline, partition: PermissiblePartition) -> AtomColoring:
    """The atom colouring whose checkerboard surface realizes the partition."""
    vertices = sorted(partition.side)
    code = 0
    for v in vertices:
        code = code << 1 | (partition.side[v] == SIDE_BLACK)
    return _coloring_of_code(vertices, code ^ coloring_flip(pipe))
