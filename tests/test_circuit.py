"""Transition systems, cycle tracing and the rotating-splitting merge."""

from __future__ import annotations

import random

from stargenus.circuit import (INVALID, ROTATING, SPLITTING, classify_local,
                               classify_vertices, cycles_of, find_rs_circuit,
                               initial_transition_system)
from stargenus.core_graph import find_source_sink_orientation
from stargenus.fixtures import chain, g8, ghopf, gt3c, gt3f, random_star_graph


def pipeline_parts(g):
    o = find_source_sink_orientation(g)
    assert o is not None
    ts, circuit = find_rs_circuit(g, o)
    return o, ts, circuit


def test_classify_local_pinned():
    assert classify_local(4, {1: 2, 3: 0}) == ROTATING
    assert classify_local(6, {1: 4, 3: 2, 5: 0}) == SPLITTING
    assert classify_local(6, {1: 4, 3: 0, 5: 2}) == INVALID


def test_classify_local_all_degree6_bijections():
    # with in-slots {1,3,5} and out-slots {0,2,4}: 2 rotating, 3 splitting,
    # 1 invalid (the all-opposite one)
    from itertools import permutations
    counts = {ROTATING: 0, SPLITTING: 0, INVALID: 0}
    for image in permutations((0, 2, 4)):
        counts[classify_local(6, dict(zip((1, 3, 5), image)))] += 1
    assert counts == {ROTATING: 2, SPLITTING: 3, INVALID: 1}


def test_initial_transition_system_is_plus_one():
    g = gt3f()
    o = find_source_sink_orientation(g)
    ts = initial_transition_system(g, o)
    assert ts.transitions[0] == {1: 2, 3: 4, 5: 0}


def test_cycles_of_canonical_fixtures():
    for g, expected in [
        (g8(), ((0, 1),)),
        (gt3c(), ((0, 1, 2),)),
        # the canonical orientation directs loop (2i, 2i+1) out of the even
        # slot, and in-slot 2i+1 exits at 2i+2, so the three loops chain into
        # a single closed walk
        (gt3f(), ((0, 1, 2),)),
        (ghopf(), ((0, 1, 2, 3),)),
    ]:
        o = find_source_sink_orientation(g)
        assert cycles_of(g, o, initial_transition_system(g, o)) == expected


def test_cycles_partition_edges(random_corpus):
    for g in random_corpus[:40]:
        o = find_source_sink_orientation(g)
        cycles = cycles_of(g, o, initial_transition_system(g, o))
        seen = sorted(e for cyc in cycles for e in cyc)
        assert seen == sorted(e.id for e in g.edges)


def test_circuit_fixtures():
    _, _, circuit = pipeline_parts(g8())
    assert circuit.edges == (0, 1)
    _, _, c2 = pipeline_parts(gt3f())
    assert c2.edges == (0, 1, 2)
    _, _, c3 = pipeline_parts(ghopf())
    assert c3.edges == (0, 1, 2, 3)
    assert [v.vertex for v in c3.visits] == [0, 1, 0, 1]


def test_circuit_starts_at_lowest_edge(small_source_sink):
    for g in small_source_sink[:150]:
        _, _, circuit = pipeline_parts(g)
        assert circuit.edges[0] == min(e.id for e in g.edges)


def test_circuit_covers_every_edge_once(random_corpus):
    for g in random_corpus[:60]:
        _, ts, circuit = pipeline_parts(g)
        assert sorted(circuit.edges) == sorted(e.id for e in g.edges)
        # d/2 visits per vertex, consistent with the transition system
        for v, d in g.vertices.items():
            assert len(circuit.positions[v]) == d // 2
        for vis in circuit.visits:
            assert ts.transitions[vis.vertex][vis.in_slot] == vis.out_slot


def test_final_transitions_are_rotating_or_splitting(random_corpus):
    for g in random_corpus[:60]:
        _, ts, _ = pipeline_parts(g)
        for v, local in ts.transitions.items():
            assert classify_local(g.vertices[v], local) in (ROTATING, SPLITTING)


def test_merge_step_budget(random_corpus):
    for g in random_corpus[:60]:
        o = find_source_sink_orientation(g)
        stats = {}
        find_rs_circuit(g, o, stats=stats)
        assert stats["merge_steps"] <= max(stats["initial_cycles"] - 1, 0)


def test_find_rs_circuit_deterministic():
    # seed chosen so the sampled graph admits a source-sink orientation
    g = random_star_graph(8, 4, 2)
    o = find_source_sink_orientation(g)
    a_ts, a_c = find_rs_circuit(g, o)
    b_ts, b_c = find_rs_circuit(g, o)
    assert a_ts.transitions == b_ts.transitions
    assert a_c.edges == b_c.edges
    assert a_c.visits == b_c.visits


def test_classify_vertices_fixtures():
    g = g8()
    _, _, circuit = pipeline_parts(g)
    assert classify_vertices(g, circuit)[0].label() == "rotating4"

    g = gt3f()
    _, _, circuit = pipeline_parts(g)
    assert classify_vertices(g, circuit)[0].label() == "rotating6-flat"

    g = gt3c()
    _, _, circuit = pipeline_parts(g)
    assert classify_vertices(g, circuit)[0].label() == "rotating6-crossed"

    g = ghopf()
    _, _, circuit = pipeline_parts(g)
    labels = {v: c.label() for v, c in classify_vertices(g, circuit).items()}
    assert labels == {0: "rotating4", 1: "rotating4"}


def test_classification_is_total(small_source_sink):
    # every source-sink graph classifies without an invariant violation,
    # and splitting principals index a real visit
    for g in small_source_sink:
        _, _, circuit = pipeline_parts(g)
        for v, cls in classify_vertices(g, circuit).items():
            if cls.kind == "splitting6":
                assert cls.principal in (0, 1, 2)
            else:
                assert cls.principal is None


def test_chain_needs_no_merging():
    for k in (1, 2, 5, 20):
        g = chain(k)
        o = find_source_sink_orientation(g)
        stats = {}
        find_rs_circuit(g, o, stats=stats)
        assert stats["initial_cycles"] == 1
        assert stats["merge_steps"] == 0


def test_merging_happens_somewhere(random_corpus):
    merged = 0
    for g in random_corpus:
        o = find_source_sink_orientation(g)
        stats = {}
        find_rs_circuit(g, o, stats=stats)
        merged += stats["merge_steps"] > 0
    assert merged > 20  # the corpus genuinely exercises the merge path


def test_visit_slots_are_consistent(random_corpus):
    rng = random.Random(5)
    for g in rng.sample(random_corpus, 25):
        o, _, circuit = pipeline_parts(g)
        for k, eid in enumerate(circuit.edges):
            vis = circuit.visits[k]
            assert o.tail(eid).vertex == vis.vertex
            assert o.tail(eid).slot == vis.out_slot
            prev = circuit.edges[k - 1]
            assert o.head(prev).vertex == vis.vertex
            assert o.head(prev).slot == vis.in_slot
