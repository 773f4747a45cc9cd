"""Structure, validation, orientation and the .stg format.

The source-sink decision is checked against a brute-force oracle that tries
all 2^E edge directions and keeps those whose in/out pattern alternates at
every vertex.
"""

from __future__ import annotations

from itertools import product

import pytest

from stargenus.core_graph import (Edge, HalfEdgeRef, StarGraph, double_cover,
                                  find_source_sink_orientation, is_source_sink,
                                  parse_stg, permutation_cycles, serialize_stg, validate)
from stargenus.errors import InvalidGraphError, InvariantViolation, StgParseError
from stargenus.fixtures import chain, g8, ghopf, gt3c, gt3f, gx, random_star_graph


def alternating_orientations_bruteforce(g: StarGraph) -> list[frozenset]:
    """Every orientation with alternating in/out slots, as a tail-ref set."""
    found = []
    for choice in product((0, 1), repeat=g.n_edges):
        out: dict[tuple[int, int], bool] = {}
        for e, c in zip(g.edges, choice):
            tail, head = (e.a, e.b) if c == 0 else (e.b, e.a)
            out[(tail.vertex, tail.slot)] = True
            out[(head.vertex, head.slot)] = False
        ok = all(out[(v, s)] != out[(v, (s + 1) % d)]
                 for v, d in g.vertices.items() for s in range(d))
        if ok:
            found.append(frozenset(ref for ref, is_out in
                                   ((HalfEdgeRef(v, s), o) for (v, s), o in out.items())
                                   if is_out))
    return found


# --- validation ------------------------------------------------------------

@pytest.mark.parametrize("fixture", [g8, gx, ghopf, gt3f, gt3c])
def test_named_fixtures_validate(fixture):
    assert validate(fixture()) == []


def test_validate_reports_double_coverage():
    g = StarGraph({0: 4}, [Edge(0, HalfEdgeRef(0, 0), HalfEdgeRef(0, 1)),
                           Edge(1, HalfEdgeRef(0, 0), HalfEdgeRef(0, 1)),
                           Edge(2, HalfEdgeRef(0, 2), HalfEdgeRef(0, 3))])
    violations = validate(g)
    assert "slot 0.0 covered twice" in violations
    assert "slot 0.1 covered twice" in violations


def test_validate_reports_uncovered_slot():
    g = StarGraph({0: 4}, [Edge(0, HalfEdgeRef(0, 0), HalfEdgeRef(0, 1))])
    violations = validate(g)
    assert "slot 0.2 never covered" in violations
    assert "slot 0.3 never covered" in violations


def test_validate_rejects_bad_degree():
    g = StarGraph({0: 5}, [])
    assert any("bad degree" in v for v in validate(g))


def test_validate_rejects_unknown_vertex_and_range():
    g = StarGraph({0: 4}, [Edge(0, HalfEdgeRef(0, 0), HalfEdgeRef(7, 1)),
                           Edge(1, HalfEdgeRef(0, 1), HalfEdgeRef(0, 9))])
    violations = validate(g)
    assert any("unknown vertex 7" in v for v in violations)
    assert any("out of range" in v for v in violations)


def test_validate_rejects_duplicate_edge_id():
    g = StarGraph({0: 4}, [Edge(0, HalfEdgeRef(0, 0), HalfEdgeRef(0, 1)),
                           Edge(0, HalfEdgeRef(0, 2), HalfEdgeRef(0, 3))])
    assert any("duplicate edge id 0" in v for v in validate(g))


def test_validate_rejects_disconnected():
    # two disjoint copies of the one-vertex two-loop graph
    g = StarGraph({0: 4, 1: 4}, [Edge(0, HalfEdgeRef(0, 0), HalfEdgeRef(0, 1)),
                                 Edge(1, HalfEdgeRef(0, 2), HalfEdgeRef(0, 3)),
                                 Edge(2, HalfEdgeRef(1, 0), HalfEdgeRef(1, 1)),
                                 Edge(3, HalfEdgeRef(1, 2), HalfEdgeRef(1, 3))])
    assert validate(g) == ["disconnected"]


def test_validate_rejects_empty():
    assert validate(StarGraph({}, [])) == ["no vertices"]


def test_exhaustive_corpus_is_frozen(small_graphs, small_source_sink):
    # regression guard on the enumeration itself
    assert len(small_graphs) == 12084
    assert len(small_source_sink) == 1848


# --- source-sink orientation ----------------------------------------------

def test_source_sink_decision_matches_bruteforce(small_graphs):
    for g in small_graphs:
        expected = bool(alternating_orientations_bruteforce(g))
        assert is_source_sink(g) == expected


def test_returned_orientation_is_alternating(small_source_sink):
    for g in small_source_sink:
        o = find_source_sink_orientation(g)
        assert o is not None
        tails = {(t.vertex, t.slot) for t, _ in o.direction.values()}
        for v, d in g.vertices.items():
            pattern = [(v, s) in tails for s in range(d)]
            assert all(pattern[s] != pattern[(s + 1) % d] for s in range(d))


def test_canonical_orientation_among_bruteforce(small_source_sink):
    for g in small_source_sink[:200]:
        o = find_source_sink_orientation(g)
        tails = frozenset(t for t, _ in o.direction.values())
        assert tails in alternating_orientations_bruteforce(g)
        # tie-break: slot 0 of the lowest vertex id is outgoing
        assert HalfEdgeRef(min(g.vertices), 0) in tails


def test_gx_has_no_orientation():
    assert find_source_sink_orientation(gx()) is None


def test_orienting_an_edge_to_an_unknown_vertex_raises_validates_violation():
    # the phase system indexes vertices by id: an unknown one is an invalid
    # graph, reported in validate's words, and not a bare KeyError
    g = StarGraph.build({0: 4}, [((0, 0), (1, 1)), ((0, 2), (0, 3))])
    for decide in (find_source_sink_orientation, is_source_sink):
        with pytest.raises(InvalidGraphError) as info:
            decide(g)
        assert info.value.violations == ["edge 0 references unknown vertex 1"]
        assert info.value.violations[0] in validate(g)


def test_ghopf_orientation_frozen():
    o = find_source_sink_orientation(ghopf())
    text = {eid: (str(t), str(h)) for eid, (t, h) in o.direction.items()}
    assert text == {0: ("0.0", "1.2"), 1: ("1.3", "0.1"),
                    2: ("0.2", "1.0"), 3: ("1.1", "0.3")}


def test_orientation_is_deterministic(random_corpus):
    for g in random_corpus[:30]:
        a = find_source_sink_orientation(g)
        b = find_source_sink_orientation(g)
        assert a.direction == b.direction


# --- double cover ----------------------------------------------------------

def test_cover_of_g8_is_two_copies():
    cov = double_cover(g8())
    assert serialize_stg(cov) == ("stargraph 2 4\n"
                                  "vertex 0 4\n"
                                  "vertex 1 4\n"
                                  "edge 0 0.0 0.1\n"
                                  "edge 1 1.0 1.1\n"
                                  "edge 2 0.2 0.3\n"
                                  "edge 3 1.2 1.3\n")
    assert validate(cov) == ["disconnected"]


def test_cover_of_gx_is_the_hopf_pairing():
    cov = double_cover(gx())
    assert validate(cov) == []
    assert is_source_sink(cov)
    pairs = {tuple(sorted(((r.vertex, r.slot) for r in e.ends))) for e in cov.edges}
    hopf = {tuple(sorted(((r.vertex, r.slot) for r in e.ends))) for e in ghopf().edges}
    assert pairs == hopf


def test_cover_rejects_invalid_input():
    with pytest.raises(InvalidGraphError):
        double_cover(StarGraph({0: 4}, []))


def test_cover_properties(random_corpus, small_graphs):
    sample = random_corpus[:20] + [g for g in small_graphs if not is_source_sink(g)][:40]
    for g in sample:
        cov = double_cover(g)
        assert cov.n_vertices == 2 * g.n_vertices
        assert cov.n_edges == 2 * g.n_edges
        assert set(validate(cov)) <= {"disconnected"}
        assert is_source_sink_componentwise(cov)
        # projection: halving vertex ids and slots recovers the base graph
        for e in cov.edges:
            base = g.edges[e.id // 2]
            assert {(r.vertex // 2, r.slot) for r in e.ends} == \
                   {(r.vertex, r.slot) for r in base.ends}


def is_source_sink_componentwise(g: StarGraph) -> bool:
    # the parity system ignores connectivity, so this is exactly per-component
    return find_source_sink_orientation(g) is not None


def test_cover_of_source_sink_graph_splits(small_source_sink):
    for g in small_source_sink[:50]:
        cov = double_cover(g)
        assert validate(cov) == ["disconnected"]


# --- .stg format -----------------------------------------------------------

def test_serialize_g8_frozen():
    assert serialize_stg(g8()) == ("stargraph 1 2\n"
                                   "vertex 0 4\n"
                                   "edge 0 0.0 0.1\n"
                                   "edge 1 0.2 0.3\n")


def test_round_trip(small_source_sink, random_corpus):
    for g in small_source_sink[:100] + random_corpus[:50] + [chain(9)]:
        assert parse_stg(serialize_stg(g)) == g


def test_vertices_and_edges_are_kept_in_ascending_id_order():
    g = StarGraph({2: 4, 0: 6, 1: 4}, [Edge(1, HalfEdgeRef(1, 0), HalfEdgeRef(2, 0)),
                                      Edge(0, HalfEdgeRef(0, 0), HalfEdgeRef(1, 1))])
    assert list(g.vertices) == [0, 1, 2]
    assert [e.id for e in g.edges] == [0, 1]


def test_parse_accepts_comments_and_blank_lines():
    text = ("# a comment\n\nstargraph 1 2\n"
            "  # indented comment\n"
            "vertex 0 4\n\nedge 0 0.0 0.1\nedge 1 0.2 0.3\n")
    assert parse_stg(text) == g8()
    # CRLF line ends, tabs between tokens, and any text in a comment
    text = "# g8 \u2014 one vertex\r\nstargraph\t1 2\r\nvertex 0\t4\r\nedge 0 0.0 0.1\nedge 1 0.2 0.3"
    assert parse_stg(text) == g8()


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "empty"),
    ("nonsense 1 2\n", 1, "header"),
    ("stargraph x 2\n", 1, "integers"),
    ("stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.1\n", 1, "expected 1 vertex and 2 edge"),
    ("stargraph 1 1\nvertex 0 zero\nedge 0 0.0 0.1\n", 2, "integers"),
    ("stargraph 1 1\nvertex 0 4\nedge 0 0.0 0x1\n", 3, "0x1"),
    ("stargraph 1 1\nvertex 0 4\nedge 0 0.0\n", 3, "edge"),
    ("stargraph 2 1\nvertex 0 4\nvertex 0 4\nedge 0 0.0 0.1\n", 3, "duplicate vertex"),
    ("stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.1\nedge 0 0.2 0.3\n", 4, "duplicate edge"),
    ("stargraph 1 1\nvertex 0 4\nedge 0 0.0 0.x\n", 3, "0.x"),
    ("stargraph -1 2\n", 1, "non-negative"),
    ("stargraph 1 1\nvertex 0 4\nedge e0 0.0 0.1\n", 3, "edge id must be an integer"),
    # int() takes these, but .stg integers are ASCII decimal digits only,
    # and a line that is no comment holds no other character than printable
    # ASCII, spaces and tabs
    ("stargraph 1_0 1\n", 1, "header counts must be integers"),
    ("stargraph 1 1\nvertex \u0660 4\nedge 0 0.0 0.1\n", 2, "'\u0660'"),
    ("stargraph 1 1\nvertex 0 \uff14\nedge 0 0.0 0.1\n", 2, "'\uff14'"),
    ("stargraph 1 1\nvertex 0 4\nedge 1_0 0.2 0.3\n", 3, "edge id must be an integer"),
    ("stargraph 1 1\nvertex 0 4\nedge 0 0.0 \u0660.1\n", 3, "'\u0660'"),
    ("stargraph 1 1\nvertex 0 4\nedge 0 0.0 0.0_1\n", 3, "0.0_1"),
    # str.split splits at these, and str.splitlines ends lines at the last
    # three, but tokens are separated by spaces and tabs alone, and lines
    # end at '\n' alone
    ("stargraph 1 2\nvertex 0 4\nedge 0 0.0\u30000.1\nedge 1 0.2 0.3\n", 3, "'\\u3000'"),
    ("stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.1\u2028edge 1 0.2 0.3\n", 3, "'\\u2028'"),
    ("stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.1\x85edge 1 0.2 0.3\n", 3, "'\\x85'"),
    ("stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.1\x1cedge 1 0.2 0.3\n", 3, "'\\x1c'"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(StgParseError) as err:
        parse_stg(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_parse_error_on_misordered_sections():
    text = "stargraph 1 2\nedge 0 0.0 0.1\nvertex 0 4\nedge 1 0.2 0.3\n"
    with pytest.raises(StgParseError) as err:
        parse_stg(text)
    assert err.value.line == 2


def test_random_star_graph_is_deterministic():
    a = random_star_graph(7, 4, 2)
    b = random_star_graph(7, 4, 2)
    assert a == b
    assert a.n_vertices == 6 and a.n_edges == 14
    assert validate(a) == []


# --- permutation cycles ----------------------------------------------------

def test_permutation_cycles_start_at_their_first_key():
    assert permutation_cycles({3: 0, 0: 3, 1: 2, 2: 5, 5: 1, 4: 4}) == [[3, 0], [1, 2, 5], [4]]
    assert permutation_cycles({}) == []


def test_permutation_cycles_refuse_a_mapping_that_is_not_a_permutation():
    # 0 -> 1 -> 1 -> ... never returns to 0
    with pytest.raises(InvariantViolation):
        permutation_cycles({0: 1, 1: 1})
