"""Face tracing, the brute-force scan, and the partition <-> colouring bridge.

The pointwise agreement test is the load-bearing one: for every permissible
partition of every corpus graph, the genus computed from ranks must equal
the genus of the surface traced from the corresponding colouring.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from stargenus import cli
from stargenus.core_graph import (Edge, HalfEdgeRef, StarGraph, find_source_sink_orientation,
                                  serialize_stg)
from stargenus.errors import NotSourceSinkError, OracleCapExceeded
from stargenus.fixtures import chain, g8, ghopf, gt3c, gt3f, gx
from stargenus.genus import (build_pipeline, enumerate_permissible_partitions,
                             genus_of_partition, min_genus, min_genus_of_pipeline,
                             partition_genera)
from stargenus.oracle import (BATCH, AtomColoring, chord_region_parity, coloring_flip,
                              coloring_of_partition, min_genus_bruteforce,
                              oracle_min_genus, trace_faces, traced_genera)


def test_trace_faces_g8_pinned():
    g = g8()
    o = find_source_sink_orientation(g)
    fc = trace_faces(g, o, AtomColoring({0: 0}))
    assert (fc.white, fc.black, fc.euler, fc.genus) == (2, 1, 2, 0)
    fc = trace_faces(g, o, AtomColoring({0: 1}))
    assert (fc.white, fc.black, fc.euler, fc.genus) == (1, 2, 2, 0)


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


def test_bruteforce_cap():
    g = chain(21)
    with pytest.raises(OracleCapExceeded):
        min_genus_bruteforce(g)  # default cap is 20
    genus, _ = min_genus_bruteforce(g, cap=21)
    assert genus == 0
    with pytest.raises(OracleCapExceeded):
        min_genus_bruteforce(chain(3), cap=2)


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
                                                           seeded_covers):
    for g in small_source_sink + random_corpus[:60] + seeded_covers((3, 4, 5, 6)):
        pipe = build_pipeline(g)
        genera = partition_genera(pipe)
        flat = [genus_of_partition(pipe.matrix, part)
                for part in enumerate_permissible_partitions(pipe.diagram)]
        assert genera.tolist() == flat
        codes = np.arange(1 << g.n_vertices)
        assert genera.tolist() == traced_genera(g)[codes ^ coloring_flip(pipe)].tolist()


def test_min_genus_agrees_with_bruteforce(random_corpus):
    for g in random_corpus[:80]:
        assert min_genus_of_pipeline(build_pipeline(g)).min_genus == \
            min_genus_bruteforce(g)[0]


def test_traced_genera_match_trace_faces(small_source_sink, random_corpus):
    # chain(12) has more codes than one batch, so batch boundaries are covered
    assert 1 << 12 > BATCH
    for g in small_source_sink + random_corpus[:40] + [chain(12)]:
        o = find_source_sink_orientation(g)
        n = g.n_vertices
        verts = sorted(g.vertices)
        genera = traced_genera(g, cap=None)
        assert len(genera) == 1 << n
        for code in range(1 << n):
            bits = {v: (code >> (n - 1 - k)) & 1 for k, v in enumerate(verts)}
            assert genera[code] == trace_faces(g, o, AtomColoring(bits)).genus


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
    rng = random.Random(20121220)
    for g in rng.sample(random_corpus, 30) + seeded_covers((4, 5, 6, 7)):
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
