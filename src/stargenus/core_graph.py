"""Star graphs: 4- and 6-valent multigraphs with a cyclic slot order at each vertex.

A vertex of degree d exposes slots 0..d-1 in cyclic order, and every slot is
the endpoint of exactly one edge. Loops and parallel edges are allowed. The
central structural question handled here is whether the graph admits a
source-sink orientation, meaning an orientation whose in- and out-edges
alternate around every vertex; that property is equivalent to the graph
having an orientable checkerboard embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import InvalidGraphError, InvariantViolation, NotSourceSinkError, StgParseError
from .union_find import ParityUnionFind

SUPPORTED_DEGREES = (4, 6)


@dataclass(frozen=True, order=True)
class HalfEdgeRef:
    """One end of an edge: a vertex id plus a slot in its cyclic order."""

    vertex: int
    slot: int

    def __str__(self) -> str:
        return f"{self.vertex}.{self.slot}"


@dataclass(frozen=True)
class Edge:
    """An undirected edge with a stable id. Endpoints are kept sorted."""

    id: int
    a: HalfEdgeRef
    b: HalfEdgeRef

    def __post_init__(self):
        if self.b < self.a:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def ends(self) -> tuple[HalfEdgeRef, HalfEdgeRef]:
        return (self.a, self.b)


class StarGraph:
    """Immutable-by-convention star graph.

    `vertices` maps vertex id to degree, `edges` is a tuple of Edge, and
    both are kept in ascending id order, whatever order they came in: every
    other module reads the canonical order from here and sorts no ids.
    Construction does not validate; run validate() to get the violation
    list, so that broken graphs can still be inspected and reported on.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Mapping[int, int], edges: Iterable[Edge]):
        self.vertices: dict[int, int] = dict(sorted(vertices.items()))
        self.edges: tuple[Edge, ...] = tuple(sorted(edges, key=lambda e: e.id))

    @classmethod
    def build(cls, degrees: Mapping[int, int],
              slot_pairs: Iterable[tuple[tuple[int, int], tuple[int, int]]]) -> StarGraph:
        """Convenience constructor: edge ids are assigned 0, 1, ... in order."""
        edges = [Edge(i, HalfEdgeRef(*p), HalfEdgeRef(*q))
                 for i, (p, q) in enumerate(slot_pairs)]
        return cls(degrees, edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StarGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return f"StarGraph({self.n_vertices} vertices, {self.n_edges} edges)"


@dataclass(frozen=True)
class Orientation:
    """A direction for every edge: id -> (tail, head)."""

    direction: dict[int, tuple[HalfEdgeRef, HalfEdgeRef]]

    def tail(self, edge_id: int) -> HalfEdgeRef:
        return self.direction[edge_id][0]

    def head(self, edge_id: int) -> HalfEdgeRef:
        return self.direction[edge_id][1]


def validate(g: StarGraph) -> list[str]:
    """Structural check. Returns an empty list iff the graph is a valid,
    connected star graph; otherwise a deterministic list of violations."""
    violations: list[str] = []
    if not g.vertices:
        return ["no vertices"]

    for v, d in g.vertices.items():
        if d not in SUPPORTED_DEGREES:
            violations.append(f"vertex {v} bad degree {d}")

    seen_ids: set[int] = set()
    refs_ok = True
    counts: dict[tuple[int, int], int] = {}
    for e in g.edges:
        if e.id in seen_ids:
            violations.append(f"duplicate edge id {e.id}")
        seen_ids.add(e.id)
        for ref in e.ends:
            if ref.vertex not in g.vertices:
                violations.append(f"edge {e.id} references unknown vertex {ref.vertex}")
                refs_ok = False
            elif not 0 <= ref.slot < g.vertices[ref.vertex]:
                violations.append(f"edge {e.id} slot {ref} out of range")
                refs_ok = False
            else:
                counts[(ref.vertex, ref.slot)] = counts.get((ref.vertex, ref.slot), 0) + 1
    for v, d in g.vertices.items():
        if d not in SUPPORTED_DEGREES:
            continue
        for s in range(d):
            c = counts.get((v, s), 0)
            if c > 1:
                violations.append(f"slot {v}.{s} covered twice")
            elif c == 0:
                violations.append(f"slot {v}.{s} never covered")

    if refs_ok and g.vertices:
        uf = ParityUnionFind(len(g.vertices))
        index = {v: i for i, v in enumerate(g.vertices)}
        for e in g.edges:
            uf.union(index[e.a.vertex], index[e.b.vertex], 0)
        if any(uf.find(i)[0] for i in index.values()):  # a root other than key 0
            violations.append("disconnected")

    return violations


def require_valid(g: StarGraph) -> None:
    violations = validate(g)
    if violations:
        raise InvalidGraphError(violations)


def find_source_sink_orientation(g: StarGraph) -> Optional[Orientation]:
    """The canonical source-sink orientation, or None if none exists.

    In a source-sink orientation the out-slots at each vertex are either all
    even or all odd, so each vertex carries one phase bit and every edge
    (u.i, v.j) forces phase(u) XOR phase(v) = (1 + i + j) mod 2. The system
    is solved with a parity union-find; when consistent, ties are broken by
    making slot 0 of the lowest-id vertex in each component outgoing. The
    edges are listed in the graph's order. Raises InvalidGraphError, in
    `validate`'s words, on an edge that names an unknown vertex.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    uf = ParityUnionFind(len(index))
    try:
        for e in g.edges:
            diff = (1 + e.a.slot + e.b.slot) & 1
            if not uf.union(index[e.a.vertex], index[e.b.vertex], diff):
                return None
    except KeyError as unknown:
        raise InvalidGraphError([f"edge {e.id} references unknown vertex {unknown}"]) from None

    phase = dict(zip(g.vertices, uf.sides()))
    direction: dict[int, tuple[HalfEdgeRef, HalfEdgeRef]] = {}
    for e in g.edges:
        # the parity system makes exactly one end outgoing
        a_out = (e.a.slot + phase[e.a.vertex]) % 2 == 0
        direction[e.id] = (e.a, e.b) if a_out else (e.b, e.a)
    return Orientation(direction)


def require_source_sink(g: StarGraph) -> Orientation:
    """The canonical source-sink orientation of a valid graph. Raises
    InvalidGraphError on an invalid graph and NotSourceSinkError when there
    is no such orientation."""
    require_valid(g)
    orientation = find_source_sink_orientation(g)
    if orientation is None:
        raise NotSourceSinkError("graph has no source-sink orientation")
    return orientation


def is_source_sink(g: StarGraph) -> bool:
    return find_source_sink_orientation(g) is not None


def double_cover(g: StarGraph) -> StarGraph:
    """The parity double cover, which always admits a source-sink orientation.

    Vertex v lifts to layers 2v and 2v+1; edge e with ends (u.i, v.j) lifts to
    edges 2e+a joining layer a at u to layer a XOR r at v, where
    r = (1 + i + j) mod 2 is the parity defect of the edge. Edges with defect
    0 stay within a layer, defect-1 edges cross, which cancels every odd
    constraint cycle of the original graph.
    """
    require_valid(g)
    vertices = {}
    for v, d in g.vertices.items():
        vertices[2 * v] = d
        vertices[2 * v + 1] = d
    edges = []
    for e in g.edges:
        r = (1 + e.a.slot + e.b.slot) & 1
        for layer in (0, 1):
            edges.append(Edge(
                2 * e.id + layer,
                HalfEdgeRef(2 * e.a.vertex + layer, e.a.slot),
                HalfEdgeRef(2 * e.b.vertex + (layer ^ r), e.b.slot),
            ))
    return StarGraph(vertices, edges)


def permutation_cycles(successor: Mapping[int, int]) -> list[list[int]]:
    """The cycles of the permutation `successor` of its keys. Each cycle is
    listed from its first key in the mapping's order, and the cycles by
    that key. Raises InvariantViolation when a walk does not return to its
    start, that is when the mapping is not a permutation of its keys."""
    rest = dict(successor)  # the keys on no cycle listed yet
    cycles: list[list[int]] = []
    for start in successor:
        if start not in rest:
            continue
        cycle = []
        x = start
        while x in rest:
            cycle.append(x)
            x = rest.pop(x)
        if x != start:
            raise InvariantViolation(f"the walk from {start} does not return to it")
        cycles.append(cycle)
    return cycles


# --- .stg text format ------------------------------------------------------
#
#   stargraph <n_vertices> <n_edges>
#   vertex <id> <degree>          (one line per vertex)
#   edge <id> <v>.<slot> <v>.<slot>  (one line per edge)
#
# Lines end at '\n', and one '\r' that ends a line is dropped. Blanks are spaces and tabs,
# and they separate the tokens. Lines whose first non-blank character is '#' are
# comments; every other line holds printable ASCII, spaces and tabs alone. Vertex
# lines come before edge lines, each kind in any order. serialize -> parse
# round-trips exactly.


def _int(token: str) -> int:
    """int(token) for an optional sign and ASCII digits alone, the form of a
    number in .stg files, flags and `STARGENUS_ORACLE_CAP`: `int` also takes
    `1_0`, other scripts' digits such as U+0660 and whitespace. Raises ValueError."""
    if token.isascii() and (token.isdigit() or token[:1] in "+-" and token[1:].isdigit()):
        return int(token)
    raise ValueError(token)


def _parse_ref(token: str, line: int) -> HalfEdgeRef:
    head, sep, tail = token.partition(".")
    if not sep:
        raise StgParseError(line, f"expected <vertex>.<slot>, got {token!r}")
    try:
        return HalfEdgeRef(_int(head), _int(tail))
    except ValueError:
        raise StgParseError(line, f"expected <vertex>.<slot>, got {token!r}") from None


def parse_stg(text: str) -> StarGraph:
    """Parse the .stg format. Raises StgParseError with a line number."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.removesuffix("\r").strip(" \t")
        if not stripped or stripped[0] == "#":
            continue
        # so that `str.split` splits at spaces and tabs alone; only a line
        # with a tab needs its copy
        if not (stripped.isascii() and (stripped.isprintable()
                                        or stripped.replace("\t", " ").isprintable())):
            bad = next(c for c in stripped if c != "\t" and not " " <= c <= "~")
            raise StgParseError(lineno, f"unexpected character {bad!r}: tokens are printable "
                                        "ASCII, separated by spaces or tabs")
        rows.append((lineno, stripped.split()))

    if not rows:
        raise StgParseError(1, "empty input")
    lineno, header = rows[0]
    if len(header) != 3 or header[0] != "stargraph":
        raise StgParseError(lineno, "expected header 'stargraph <n_vertices> <n_edges>'")
    try:
        n_vertices, n_edges = _int(header[1]), _int(header[2])
    except ValueError:
        raise StgParseError(lineno, "header counts must be integers") from None
    if n_vertices < 0 or n_edges < 0:
        raise StgParseError(lineno, "header counts must be non-negative")
    if len(rows) - 1 != n_vertices + n_edges:
        raise StgParseError(lineno, f"expected {n_vertices} vertex and {n_edges} edge lines, "
                                    f"got {len(rows) - 1} lines after the header")

    vertices: dict[int, int] = {}
    for lineno, tokens in rows[1:1 + n_vertices]:
        if len(tokens) != 3 or tokens[0] != "vertex":
            raise StgParseError(lineno, "expected 'vertex <id> <degree>'")
        try:
            vid, deg = _int(tokens[1]), _int(tokens[2])
        except ValueError:
            raise StgParseError(lineno, "vertex id and degree must be integers") from None
        if vid in vertices:
            raise StgParseError(lineno, f"duplicate vertex id {vid}")
        vertices[vid] = deg

    edges: list[Edge] = []
    ids: set[int] = set()
    for lineno, tokens in rows[1 + n_vertices:]:
        if len(tokens) != 4 or tokens[0] != "edge":
            raise StgParseError(lineno, "expected 'edge <id> <v>.<slot> <v>.<slot>'")
        try:
            eid = _int(tokens[1])
        except ValueError:
            raise StgParseError(lineno, "edge id must be an integer") from None
        if eid in ids:
            raise StgParseError(lineno, f"duplicate edge id {eid}")
        ids.add(eid)
        edges.append(Edge(eid, _parse_ref(tokens[2], lineno), _parse_ref(tokens[3], lineno)))

    return StarGraph(vertices, edges)


def serialize_stg(g: StarGraph) -> str:
    """Canonical .stg text: ascending vertex ids, then ascending edge ids."""
    lines = [f"stargraph {g.n_vertices} {g.n_edges}"]
    for v, d in g.vertices.items():
        lines.append(f"vertex {v} {d}")
    for e in g.edges:
        lines.append(f"edge {e.id} {e.a} {e.b}")
    return "\n".join(lines) + "\n"
