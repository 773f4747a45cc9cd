"""Euler circuits compatible with the source-sink structure.

A transition system picks, at every vertex, a bijection from in-slots to
out-slots; tracing successor edges decomposes the edge set into directed
closed walks. Local bijections are graded by where each passage exits
relative to where it entered: every passage to a cyclically adjacent slot
is "rotating", a single straight-through (opposite) passage makes the
bijection "splitting", anything else is invalid. The merge procedure below
turns the canonical transition system into one whose decomposition is a
single Euler circuit using only rotating and splitting bijections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core_graph import HalfEdgeRef, Orientation, StarGraph, permutation_cycles
from .errors import InvariantViolation
from .union_find import ParityUnionFind

ROTATING = "rotating"
SPLITTING = "splitting"
INVALID = "invalid"


@dataclass(frozen=True)
class TransitionSystem:
    """Per-vertex bijection from in-slots to out-slots."""

    transitions: dict[int, dict[int, int]]


@dataclass(frozen=True)
class Visit:
    """One passage of the circuit through a vertex: arrive in_slot, leave out_slot."""

    vertex: int
    in_slot: int
    out_slot: int


@dataclass(frozen=True)
class EulerCircuit:
    """A single closed walk using every edge once, in circuit order.

    Visit k sits between edges[k-1] and edges[k] (cyclically), so the visit
    list doubles as the point set of the chord diagram circle. positions maps
    each vertex to the ascending list of its visit indices.
    """

    edges: tuple[int, ...]
    visits: tuple[Visit, ...]
    positions: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class VertexClass:
    """How the final circuit passes a vertex.

    kind is "rotating4", "rotating6" or "splitting6". Rotating 6-vertices
    carry crossed (all three return arcs land opposite) vs flat; splitting
    vertices carry the index, within the vertex's visit list, of the visit
    whose passage is straight-through.
    """

    kind: str
    crossed: Optional[bool] = None
    principal: Optional[int] = None

    def label(self) -> str:
        if self.kind == "rotating6":
            return "rotating6-crossed" if self.crossed else "rotating6-flat"
        if self.kind == "splitting6":
            return f"splitting6@{self.principal}"
        return self.kind


def _cyclic_distance(a: int, b: int, d: int) -> int:
    diff = (a - b) % d
    return min(diff, d - diff)


def classify_local(degree: int, transition: dict[int, int]) -> str:
    """Grade one vertex bijection: ROTATING, SPLITTING or INVALID."""
    adjacent = opposite = 0
    for i, o in transition.items():
        dist = _cyclic_distance(i, o, degree)
        if dist == 1:
            adjacent += 1
        elif dist == degree // 2:
            opposite += 1
    n = len(transition)
    if adjacent == n:
        return ROTATING
    if opposite == 1 and adjacent == n - 1:
        return SPLITTING
    return INVALID


def _walk_maps(g: StarGraph, orientation: Orientation):
    """head ref per edge (in ascending edge id order), arriving edge per
    (v, in_slot), departing edge per (v, out_slot)."""
    head_ref: dict[int, HalfEdgeRef] = {}
    arrive: dict[tuple[int, int], int] = {}
    depart: dict[tuple[int, int], int] = {}
    for e in g.edges:
        tail, head = orientation.direction[e.id]
        head_ref[e.id] = head
        arrive[(head.vertex, head.slot)] = e.id
        depart[(tail.vertex, tail.slot)] = e.id
    return head_ref, arrive, depart


def _plus_one(g: StarGraph, arrive: dict[tuple[int, int], int]) -> dict[int, dict[int, int]]:
    return {v: {s: (s + 1) % d for s in range(d) if (v, s) in arrive}
            for v, d in g.vertices.items()}


def initial_transition_system(g: StarGraph, orientation: Orientation) -> TransitionSystem:
    """The canonical starting point: in-slot i exits at slot (i + 1) mod d."""
    return TransitionSystem(_plus_one(g, _walk_maps(g, orientation)[1]))


def _trace(head_ref: dict[int, HalfEdgeRef], depart: dict[tuple[int, int], int],
           transitions: dict[int, dict[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The transition walk: the directed closed walks the transitions induce.
    Each starts at its lowest edge id, and they are listed by that id."""
    successor = {e: depart[(head.vertex, transitions[head.vertex][head.slot])]
                 for e, head in head_ref.items()}
    return tuple(map(tuple, permutation_cycles(successor)))


def cycles_of(g: StarGraph, orientation: Orientation,
              ts: TransitionSystem) -> tuple[tuple[int, ...], ...]:
    """Directed closed walks induced by ts, as edge-id tuples.

    Deterministic: each cycle starts at its lowest edge id and cycles are
    listed by that id in ascending order.
    """
    head_ref, _, depart = _walk_maps(g, orientation)
    return _trace(head_ref, depart, ts.transitions)


def find_rs_circuit(g: StarGraph, orientation: Orientation,
                    stats: Optional[dict] = None) -> tuple[TransitionSystem, EulerCircuit]:
    """Merge the canonical cycle decomposition into one Euler circuit.

    Vertices are processed in ascending id order. A vertex is eligible while
    its visits lie on at least two distinct current cycles; the candidate
    bijections at an eligible vertex are tried in canonical lexicographic
    order (image of the lowest in-slot first) and the first one that strictly
    reduces the number of cycles through the vertex is applied. Accepted
    candidates only merge cycles, so a union-find over the initially traced
    cycles tracks the current decomposition without retracing; the whole pass
    is near-linear in the edge count.

    The returned circuit starts at the lowest edge id. `stats`, when given,
    receives initial_cycles and merge_steps.
    """
    head_ref, arrive, depart = _walk_maps(g, orientation)
    ts = _plus_one(g, arrive)

    initial = _trace(head_ref, depart, ts)
    cycle_of = {e: c for c, walk in enumerate(initial) for e in walk}
    n_cycles = len(initial)

    dsu = ParityUnionFind(n_cycles)
    live = n_cycles
    merge_steps = 0

    for v, d in g.vertices.items():
        ins = sorted(ts[v])
        outs = sorted(ts[v].values())
        while True:
            root_of = {s: dsu.find(cycle_of[arrive[(v, s)]])[0] for s in ins}
            current = len(set(root_of.values()))
            if current < 2:
                break
            # Where does the walk re-enter v after leaving each out-slot?
            # A lone visit returns to itself, paired visits return to each
            # other. v has at most three visits and they lie on at least two
            # cycles, so no cycle holds three of them.
            ext = {ts[v][s]: next((t for t in ins if t != s and root_of[t] == root_of[s]), s)
                   for s in ins}
            for image in itertools.permutations(outs):
                cand = dict(zip(ins, image))
                if classify_local(d, cand) == INVALID:
                    continue
                # cycles of the local return permutation s -> ext(cand(s))
                local_cycles = permutation_cycles({s: ext[cand[s]] for s in ins})
                if len(local_cycles) < current:
                    ts[v] = cand
                    for cyc in local_cycles:
                        for s in cyc[1:]:
                            dsu.union(root_of[cyc[0]], root_of[s], 0)
                    live -= current - len(local_cycles)
                    merge_steps += 1
                    break
            else:
                raise InvariantViolation(f"no merging bijection at vertex {v}")

    if live != 1:
        raise InvariantViolation("merge finished with more than one cycle")
    if stats is not None:
        stats["initial_cycles"] = n_cycles
        stats["merge_steps"] = merge_steps

    final = _trace(head_ref, depart, ts)
    if len(final) != 1:
        raise InvariantViolation("final walk is not an Euler circuit")
    seq = final[0]  # starts at the lowest edge id

    visits = []
    for k, eid in enumerate(seq):
        prev_head = head_ref[seq[k - 1]]
        tail = orientation.tail(eid)
        if tail.vertex != prev_head.vertex:
            raise InvariantViolation("circuit visit is not contiguous")
        visits.append(Visit(prev_head.vertex, prev_head.slot, tail.slot))

    positions: dict[int, list[int]] = {v: [] for v in g.vertices}
    for k, vis in enumerate(visits):
        positions[vis.vertex].append(k)

    circuit = EulerCircuit(
        edges=tuple(seq),
        visits=tuple(visits),
        positions={v: tuple(ks) for v, ks in positions.items()},
    )
    return TransitionSystem(ts), circuit


def classify_vertices(g: StarGraph, circuit: EulerCircuit) -> dict[int, VertexClass]:
    """Classify every vertex of the finished circuit.

    Degree-4 vertices are always rotating. A degree-6 vertex with no
    straight-through passage is rotating, and its three return arcs must be
    uniformly near (flat) or uniformly opposite (crossed); exactly one
    straight-through passage makes it splitting, with the principal visit
    recorded by its index in the vertex's visit list.
    """
    classes: dict[int, VertexClass] = {}
    for v, d in g.vertices.items():
        vlist = [circuit.visits[k] for k in circuit.positions[v]]
        dists = [_cyclic_distance(vis.in_slot, vis.out_slot, d) for vis in vlist]
        if d == 4:
            if dists != [1, 1]:
                raise InvariantViolation(f"non-rotating passage at degree-4 vertex {v}")
            classes[v] = VertexClass("rotating4")
            continue
        opposite = [i for i, dist in enumerate(dists) if dist == 3]
        if any(dist not in (1, 3) for dist in dists):
            raise InvariantViolation(f"invalid passage at vertex {v}")
        if not opposite:
            arcs = {_cyclic_distance(vlist[i].out_slot, vlist[(i + 1) % 3].in_slot, 6)
                    for i in range(3)}
            if arcs == {1}:
                classes[v] = VertexClass("rotating6", crossed=False)
            elif arcs == {3}:
                classes[v] = VertexClass("rotating6", crossed=True)
            else:
                raise InvariantViolation(f"mixed return arcs at rotating vertex {v}")
        elif len(opposite) == 1:
            classes[v] = VertexClass("splitting6", principal=opposite[0])
        else:
            raise InvariantViolation(f"multiple straight passages at vertex {v}")
    return classes
