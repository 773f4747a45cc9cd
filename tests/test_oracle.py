"""Face tracing, the brute-force scan, and the partition <-> colouring bridge.

The pointwise agreement test is the load-bearing one: for every permissible
partition of every corpus graph, the genus computed from ranks must equal
the genus of the surface traced from the corresponding colouring.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from stargenus import cli, oracle
from stargenus.core_graph import (Edge, HalfEdgeRef, StarGraph, double_cover,
                                  find_source_sink_orientation, is_source_sink,
                                  require_source_sink, serialize_stg, validate)
from stargenus.errors import NotSourceSinkError, OracleCapExceeded
from stargenus.fixtures import chain, g8, ghopf, gt3c, gt3f, gx, random_star_graph
from stargenus.genus import (build_pipeline, enumerate_permissible_partitions,
                             genus_of_partition, is_planar, min_genus, min_genus_of_pipeline,
                             partition_genera)
from stargenus.oracle import (BLOCK, AtomColoring, _count_faces, _successor_tables,
                              chord_region_parity, coloring_flip, coloring_of_partition,
                              min_genus_bruteforce, oracle_min_genus, trace_faces,
                              traced_genera)


def test_trace_faces_g8_pinned():
    g = g8()
    o = find_source_sink_orientation(g)
    fc = trace_faces(g, o, AtomColoring({0: 0}))
    assert (fc.white, fc.black, fc.euler, fc.genus) == (2, 1, 2, 0)
    fc = trace_faces(g, o, AtomColoring({0: 1}))
    assert (fc.white, fc.black, fc.euler, fc.genus) == (1, 2, 2, 0)
    # plain ints, though the genus rule it shares with traced_genera takes arrays
    assert {type(x) for x in (fc.white, fc.black, fc.euler, fc.genus)} == {int}


def test_trace_faces_ghopf_pinned():
    g = ghopf()
    o = find_source_sink_orientation(g)
    assert trace_faces(g, o, AtomColoring({0: 0, 1: 0})).genus == 0
    assert trace_faces(g, o, AtomColoring({0: 0, 1: 1})).genus == 1
    assert trace_faces(g, o, AtomColoring({0: 1, 1: 0})).genus == 1
    assert trace_faces(g, o, AtomColoring({0: 1, 1: 1})).genus == 0


def test_trace_faces_gt3c_pinned():
    g = gt3c()
    o = find_source_sink_orientation(g)
    for bit in (0, 1):
        fc = trace_faces(g, o, AtomColoring({0: bit}))
        assert fc.genus == 1
        assert fc.white + fc.black == 2


def test_face_counts_give_closed_surface(random_corpus):
    # for every colouring of a sample: even Euler characteristic, at most 2,
    # and at least one face of each colour
    for g in random_corpus[:25]:
        o = find_source_sink_orientation(g)
        n = g.n_vertices
        verts = sorted(g.vertices)
        for code in range(min(1 << n, 64)):
            bits = {v: (code >> (n - 1 - k)) & 1 for k, v in enumerate(verts)}
            fc = trace_faces(g, o, AtomColoring(bits))
            assert fc.euler % 2 == 0
            assert fc.euler <= 2
            assert fc.white >= 1 and fc.black >= 1
            assert fc.genus == (2 - fc.euler) // 2


@pytest.mark.parametrize("fixture,expected", [
    (g8, 0), (ghopf, 0), (gt3f, 0), (gt3c, 1)])
def test_bruteforce_fixtures(fixture, expected):
    assert oracle_min_genus(fixture()) == expected


def test_bruteforce_witness_is_least():
    genus, coloring = min_genus_bruteforce(ghopf())
    assert genus == 0
    assert coloring.bits == {0: 0, 1: 0}


def test_bruteforce_cap(connected_sums):
    g = chain(21)
    with pytest.raises(OracleCapExceeded):
        min_genus_bruteforce(g)  # default cap is 20
    genus, _ = min_genus_bruteforce(g, cap=21)
    assert genus == 0
    with pytest.raises(OracleCapExceeded):
        min_genus_bruteforce(chain(3), cap=2)
    # without a cap, 2^60 genera cannot be allocated and 2^70 codes do not
    # fit in int64: both are refused before any tracing
    for blocks, reason in ((6, "no memory"), (7, "int64")):
        g = connected_sums(3, 2, blocks)
        with pytest.raises(OracleCapExceeded, match=reason):
            traced_genera(g, require_source_sink(g), cap=None)


def test_bruteforce_rejects_unorientable():
    with pytest.raises(NotSourceSinkError):
        min_genus_bruteforce(gx())


def test_region_parity_fixtures():
    # canonical circuits: g8 turns through odd angles, so its chord regions
    # are the even class; the hopf pairing flips phase at vertex 1
    assert chord_region_parity(build_pipeline(g8())) == {0: 0}
    assert chord_region_parity(build_pipeline(ghopf())) == {0: 0, 1: 1}
    assert chord_region_parity(build_pipeline(gt3f())) == {0: 0}
    assert chord_region_parity(build_pipeline(gt3c())) == {0: 0}
    # one splitting vertex each: the visit after the straight passage turns
    # through the angle just past its in-slot (near: 5 -> 2, then (0, 1)),
    # or just past its out-slot (far: 3 -> 0, then (1, 2))
    for pairs, parity in (([((0, 0), (0, 3)), ((0, 1), (0, 2)), ((0, 4), (0, 5))], {0: 1}),
                          ([((0, 0), (0, 1)), ((0, 2), (0, 5)), ((0, 3), (0, 4))], {0: 0})):
        pipe = build_pipeline(StarGraph.build({0: 6}, pairs))
        assert pipe.classes[0].kind == "splitting6"
        assert chord_region_parity(pipe) == parity


def test_coloring_of_partition_pinned():
    pipe = build_pipeline(g8())
    parts = list(enumerate_permissible_partitions(pipe.diagram))
    assert coloring_of_partition(pipe, parts[0]).bits == {0: 0}  # {0: W}
    assert coloring_of_partition(pipe, parts[1]).bits == {0: 1}  # {0: B}

    pipe = build_pipeline(ghopf())
    parts = {tuple(sorted(p.side.items())): p
             for p in enumerate_permissible_partitions(pipe.diagram)}
    split = parts[((0, "W"), (1, "B"))]
    assert coloring_of_partition(pipe, split).bits == {0: 0, 1: 0}
    together = parts[((0, "W"), (1, "W"))]
    assert coloring_of_partition(pipe, together).bits == {0: 0, 1: 1}


def test_partition_coloring_is_a_bijection(random_corpus):
    for g in random_corpus[:40]:
        pipe = build_pipeline(g)
        seen = set()
        for part in enumerate_permissible_partitions(pipe.diagram):
            bits = tuple(sorted(coloring_of_partition(pipe, part).bits.items()))
            assert bits not in seen
            seen.add(bits)
        assert len(seen) == 2 ** g.n_vertices


def test_pointwise_partition_vs_traced_genus(small_source_sink, random_corpus):
    sample = small_source_sink[::7] + random_corpus[:60]
    for g in sample:
        pipe = build_pipeline(g)
        for part in enumerate_permissible_partitions(pipe.diagram):
            rank_genus = genus_of_partition(pipe.matrix, part)
            traced = trace_faces(g, pipe.orientation,
                                 coloring_of_partition(pipe, part))
            assert rank_genus == traced.genus


def test_partition_genera_match_the_flat_scan_and_the_oracle(small_source_sink, random_corpus,
                                                           seeded_covers, connected_sums):
    # in the 12-vertex connected sums nearly every state of the programme
    # merges with another; the 14-vertex cover is checked against the oracle
    # alone, since the flat scan of its 2^14 partitions is slow
    sums = [connected_sums(*blocks) for blocks in ((1, 1, 3), (2, 1, 2), (1, 2, 2))]
    assert {g.n_vertices for g in sums} == {12}
    for g in small_source_sink + random_corpus[:60] + seeded_covers((3, 4, 5, 6)) + sums:
        pipe = build_pipeline(g)
        genera = partition_genera(pipe)
        flat = [genus_of_partition(pipe.matrix, part)
                for part in enumerate_permissible_partitions(pipe.diagram)]
        assert genera.tolist() == flat
        codes = np.arange(1 << g.n_vertices)
        assert genera.tolist() == \
            traced_genera(g, pipe.orientation)[codes ^ coloring_flip(pipe)].tolist()
    g = seeded_covers((7,), seed=100)[0]
    assert g.n_vertices == 14
    pipe = build_pipeline(g)
    codes = np.arange(1 << g.n_vertices)
    assert partition_genera(pipe).tolist() == \
        traced_genera(g, pipe.orientation)[codes ^ coloring_flip(pipe)].tolist()


def test_partition_genera_working_set_is_bounded(seeded_covers):
    # 2^18 codes, each with an int32 state id and an int16 rank sum: about
    # 1.5 MB, a few times over while a level is rebuilt
    g = seeded_covers((9,))[0]
    assert g.n_vertices == 18
    pipe = build_pipeline(g)
    tracemalloc.start()
    try:
        partition_genera(pipe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6


def test_the_pipeline_orientation_is_the_canonical_one(small_source_sink, random_corpus,
                                                      seeded_covers):
    # what makes it safe for `check` to hand the oracle the pipeline's copy
    for g in small_source_sink + random_corpus + seeded_covers((3, 4, 5, 6, 7)):
        assert build_pipeline(g).orientation == require_source_sink(g)


def test_min_genus_agrees_with_bruteforce(random_corpus):
    for g in random_corpus[:80]:
        assert min_genus_of_pipeline(build_pipeline(g)).min_genus == \
            min_genus_bruteforce(g)[0]


def test_traced_genera_match_trace_faces(small_source_sink, random_corpus, seeded_covers,
                                         edge_swap_sum):
    # the 14-vertex cover has four blocks of codes, so the recursion branches
    # on two vertices and every block boundary is covered; the 16-vertex
    # cover of random(1,4,4) has sixteen, so it branches on four, and a
    # seeded sample of each block is checked; chain(13) has two blocks, so
    # it branches on exactly one. On chain(k) the odd codes come out right
    # even when filled without the reversal, or when vertex 0's bit is fixed
    # instead of vertex n - 1's; on the 13-vertex sum of chain(1) and a
    # 12-vertex cover, in that order, both faults show (with the cover first,
    # vertex n - 1 is chain(1)'s, whose colour never changes the genus, and
    # the first one passes)
    covers = seeded_covers((3, 4, 5, 6))
    many_blocks = seeded_covers((7,))[0]
    four_branch_levels = double_cover(random_star_graph(1, 4, 4))
    one_high_bit = edge_swap_sum([chain(1), covers[-1]])
    assert 1 << many_blocks.n_vertices >= 4 * BLOCK
    assert 1 << four_branch_levels.n_vertices == 16 * BLOCK
    assert 1 << 13 == 2 * BLOCK == 1 << one_high_bit.n_vertices
    rng = random.Random(20121223)
    for g in (small_source_sink + random_corpus[:40] + covers
              + [chain(12), chain(13), one_high_bit, many_blocks, four_branch_levels]):
        orientation = find_source_sink_orientation(g)
        tables = _successor_tables(g, orientation)
        n = g.n_vertices
        verts = sorted(g.vertices)
        genera = traced_genera(g, orientation, cap=None)
        assert len(genera) == 1 << n
        codes = range(1 << n) if g is not four_branch_levels else \
            [c for block in range(0, 1 << n, BLOCK)
             for c in sorted(rng.sample(range(block, block + BLOCK), 128))]
        for code in codes:
            bits = {v: (code >> (n - 1 - k)) & 1 for k, v in enumerate(verts)}
            assert genera[code] == _count_faces(tables, AtomColoring(bits)).genus


def test_swapping_every_colour_keeps_the_traced_genus(small_source_sink, random_corpus,
                                                      seeded_covers):
    # code 2^n - 1 - c is c with every bit swapped, which swaps every angle
    # colour: the white faces of one colouring are the black faces of the
    # other, traced the other way round. traced_genera relies on this, so
    # it is checked one colouring at a time: every code up to 12 vertices,
    # a seeded sample on the 14-vertex cover
    graphs = small_source_sink + random_corpus + seeded_covers((3, 4, 5, 6, 7))
    assert max(g.n_vertices for g in graphs) == 14
    rng = random.Random(20121223)
    for g in graphs:
        tables = _successor_tables(g, require_source_sink(g))
        n = g.n_vertices
        verts = sorted(g.vertices)
        codes = range(1 << (n - 1))
        for code in codes if n <= 12 else rng.sample(codes, 512):
            fc, swapped = (
                _count_faces(tables, AtomColoring({v: (c >> (n - 1 - k)) & 1
                                                   for k, v in enumerate(verts)}))
                for c in (code, (1 << n) - 1 - code))
            assert (fc.white, fc.black, fc.genus) == (swapped.black, swapped.white, swapped.genus)


def test_traced_genera_working_set_is_bounded(seeded_covers):
    # 2^18 colourings of a graph with 2m = 88 face slots: a segment-table
    # row of all 88 slots per code would take 46 MB, and one block of all
    # codes with rows trimmed to the open slots about 5 MB; the recursion
    # keeps one table pair per level, of at most BLOCK / 2 rows
    g = seeded_covers((9,))[0]
    assert g.n_vertices == 18
    tracemalloc.start()
    try:
        traced_genera(g, require_source_sink(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_traced_genera_links_only_open_columns(small_source_sink, seeded_covers, monkeypatch):
    # the segment tables keep the columns of the slots still open, and every
    # link must stay inside them: ranked as ends by their own vertex and as
    # starts by their predecessor's, the slots of the vertices not yet done
    # come first either way. A table is trimmed to them when it is made:
    # the vertex it is first linked at owns the last open end
    real = oracle._add_links
    seen = {}  # every table linked so far by id, kept so that no id is reused

    def in_open_columns(start, end, faces, ends, targets):
        assert max(ends) < start.shape[1] and targets.max() < end.shape[1]
        if id(start) not in seen:
            assert start.shape[1] == end.shape[1] == max(ends) + 1
            seen[id(start)] = start
        real(start, end, faces, ends, targets)

    monkeypatch.setattr(oracle, "_add_links", in_open_columns)
    for g in small_source_sink + seeded_covers((3, 4, 5, 6, 7)):
        traced_genera(g, require_source_sink(g))


def test_all_partitions_sweep_reports_a_wrong_genus(capsys, tmp_path, monkeypatch):
    path = tmp_path / "t.stg"
    path.write_text(serialize_stg(gt3c()))
    real = cli.partition_genera

    def off_by_one_at_b(pipe):
        genera = real(pipe)
        genera[1] += 1  # code 1 is {0: B}
        return genera

    monkeypatch.setattr(cli, "partition_genera", off_by_one_at_b)
    assert cli.main(["check", str(path), "--all-partitions"]) == 1
    assert "partitions: 2 checked, 1 mismatches" in capsys.readouterr().out


def _relabel(g: StarGraph, new_id: dict[int, int]) -> StarGraph:
    edges = [Edge(e.id, HalfEdgeRef(new_id[e.a.vertex], e.a.slot),
                  HalfEdgeRef(new_id[e.b.vertex], e.b.slot)) for e in g.edges]
    return StarGraph({new_id[v]: d for v, d in g.vertices.items()}, edges)


def test_relabelling_vertices_keeps_min_genus(random_corpus, seeded_covers):
    # a relabelling moves the coupling order and which vertices are the
    # pivots that the search places on W alone, so this runs the search
    # under many orders and pivot choices
    rng = random.Random(20121220)
    for g in random_corpus + seeded_covers(range(1, 8)):
        ids = sorted(g.vertices)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        h = _relabel(g, dict(zip(ids, shuffled)))
        assert min_genus(h).min_genus == min_genus(g).min_genus
        assert oracle_min_genus(h) == oracle_min_genus(g)


def test_permuting_edge_ids_keeps_min_genus(random_corpus, seeded_covers):
    # the circuit starts at the lowest edge id, so this moves its start and
    # reorders the initial cycles
    rng = random.Random(20121222)
    for g in random_corpus + seeded_covers((4, 5, 6, 7)):
        ids = [e.id for e in g.edges]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        new_id = dict(zip(ids, shuffled))
        h = StarGraph(g.vertices, [Edge(new_id[e.id], e.a, e.b) for e in g.edges])
        assert min_genus(h).min_genus == min_genus(g).min_genus == oracle_min_genus(h)


def _reslot(g: StarGraph, slot_of) -> StarGraph:
    """`g` with every half-edge moved to slot `slot_of(ref)` of its vertex."""
    edges = [Edge(e.id, HalfEdgeRef(e.a.vertex, slot_of(e.a)),
                  HalfEdgeRef(e.b.vertex, slot_of(e.b))) for e in g.edges]
    return StarGraph(g.vertices, edges)


def test_rotating_one_vertex_keeps_min_genus(random_corpus, seeded_covers):
    # the same cyclic order read from another first slot; an odd shift
    # flips the vertex's phase, so the graph stays source-sink
    rng = random.Random(20121221)
    for g in random_corpus + seeded_covers((4, 5, 6, 7)):
        v = rng.choice(sorted(g.vertices))
        d = g.vertices[v]
        shift = rng.randrange(1, d)
        h = _reslot(g, lambda ref: (ref.slot + shift) % d if ref.vertex == v else ref.slot)
        assert h != g
        assert min_genus(h).min_genus == min_genus(g).min_genus == oracle_min_genus(h)


def test_mirroring_every_vertex_keeps_min_genus(random_corpus, seeded_covers):
    # reversing every cyclic order gives the mirror image surface
    for g in random_corpus + seeded_covers((4, 5, 6, 7)):
        h = _reslot(g, lambda ref: -ref.slot % g.vertices[ref.vertex])
        assert min_genus(h).min_genus == min_genus(g).min_genus == oracle_min_genus(h)


def _relabelled(g, rng):
    """`g` with its vertex ids mapped to distinct ints in [-50, 1000), its
    edge ids shuffled, and each vertex's slots rotated by a random amount
    and reflected at random, which keeps which slots are neighbours."""
    ids = dict(zip(g.vertices, rng.sample(range(-50, 1000), g.n_vertices)))
    slot = {}
    for v, d in g.vertices.items():
        turn, sign = rng.randrange(d), rng.choice((1, -1))
        slot.update(((v, s), (turn + sign * s) % d) for s in range(d))

    def ref(r):
        return HalfEdgeRef(ids[r.vertex], slot[r.vertex, r.slot])
    edge_ids = rng.sample([e.id for e in g.edges], g.n_edges)
    return StarGraph({ids[v]: d for v, d in g.vertices.items()},
                     [Edge(i, ref(e.a), ref(e.b)) for i, e in zip(edge_ids, g.edges)])


def test_answers_do_not_depend_on_labels(random_corpus, seeded_covers, connected_sums):
    # the relabellings above at once, with sparse and negative vertex ids
    # and each vertex mirrored or not on its own: this moves the merge
    # order, and with it the coupling order, the components and the pivots
    # of the flip symmetries, but no answer
    def answers(h):
        return is_source_sink(h), min_genus(h).min_genus, oracle_min_genus(h), is_planar(h).planar

    rng = random.Random(2026)
    copies = 0
    for g in random_corpus + seeded_covers(range(1, 8)) + [connected_sums(3, 2, 2)]:
        expected = answers(g)
        for _ in range(2):
            h = _relabelled(g, rng)
            assert validate(h) == [] and h != g
            assert answers(h) == expected, serialize_stg(h)
            copies += 1
    assert copies == 416
