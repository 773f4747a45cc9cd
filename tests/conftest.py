"""Shared corpora.

`small_graphs` is the exhaustive set of valid star graphs on one or two
vertices (every perfect matching of the slot stubs for degree profiles 4, 6,
4+4, 4+6, 6+4 and 6+6 that validates, connectivity included), and
`small_source_sink` its source-sink subset. `random_corpus` adds 200 seeded
source-sink graphs with up to 10 mixed-degree vertices. `seeded_covers`
builds larger source-sink graphs: parity double covers, and
`connected_sums` chains of small ones (the covers `sum_blocks` draws) into
one graph, by the edge swap that `edge_swap_sum` applies to any list of
graphs.
"""

from __future__ import annotations

import random

import pytest

from stargenus.core_graph import (Edge, HalfEdgeRef, StarGraph, double_cover, is_source_sink,
                                  validate)
from stargenus.fixtures import random_star_graph

SMALL_DEGREE_PROFILES = [{0: 4}, {0: 6}, {0: 4, 1: 4}, {0: 4, 1: 6},
                         {0: 6, 1: 4}, {0: 6, 1: 6}]


def iter_matchings(stubs):
    if not stubs:
        yield []
        return
    first = stubs[0]
    for i in range(1, len(stubs)):
        rest = stubs[1:i] + stubs[i + 1:]
        for tail in iter_matchings(rest):
            yield [(first, stubs[i])] + tail


def build_small_graphs() -> list[StarGraph]:
    out = []
    for degrees in SMALL_DEGREE_PROFILES:
        stubs = [(v, s) for v in degrees for s in range(degrees[v])]
        for pairs in iter_matchings(stubs):
            g = StarGraph.build(degrees, pairs)
            if not validate(g):
                out.append(g)
    return out


def build_random_corpus(count: int = 200) -> list[StarGraph]:
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        rng = random.Random(seed)
        n4 = rng.randint(0, 6)
        n6 = rng.randint(0, 4)
        if not 1 <= n4 + n6 <= 10:
            continue
        try:
            g = random_star_graph(seed, n4, n6)
        except ValueError:
            continue
        if is_source_sink(g):
            out.append(g)
    return out


def build_seeded_covers(sizes, seed: int = 0) -> list[StarGraph]:
    """One connected double cover per base size in `sizes`: the base has
    ceil(size / 2) 4-vertices and floor(size / 2) 6-vertices, drawn with
    the next seed whose cover is connected."""
    out = []
    for size in sizes:
        while True:
            seed += 1
            g = double_cover(random_star_graph(seed, size - size // 2, size // 2))
            if not validate(g):
                out.append(g)
                break
    return out


def build_sum_blocks(n4: int, n6: int, blocks: int, seed: int = 1000) -> list[StarGraph]:
    """`blocks` double covers of bases with n4 4-vertices and n6
    6-vertices, drawn with the next seeds whose cover is connected."""
    covers = []
    while len(covers) < blocks:
        seed += 1
        g = double_cover(random_star_graph(seed, n4, n6))
        if not validate(g):
            covers.append(g)
    return covers


def build_connected_sum(n4: int, n6: int, blocks: int, seed: int = 1000) -> StarGraph:
    """The connected sum (see `join_by_edge_swap`) of the covers that
    `build_sum_blocks` draws with the same arguments."""
    return join_by_edge_swap(build_sum_blocks(n4, n6, blocks, seed))


def join_by_edge_swap(blocks: list[StarGraph]) -> StarGraph:
    """The connected sum of `blocks`, in order, each with vertex and edge
    ids from 0. Block i's vertex and edge ids are shifted past block i - 1's;
    then, for each i, the last edge (a1, b1) of block i and the first edge
    (a2, b2) of block i + 1 become (a1, b2) and (a2, b1). The swap keeps
    every slot covered and each vertex's phase constraints consistent, so
    source-sink blocks give a source-sink sum."""
    vertices: dict[int, int] = {}
    chained: list[list[Edge]] = []
    for g in blocks:
        shift, eshift = len(vertices), sum(len(edges) for edges in chained)
        vertices.update((v + shift, d) for v, d in g.vertices.items())
        chained.append([Edge(e.id + eshift, HalfEdgeRef(e.a.vertex + shift, e.a.slot),
                             HalfEdgeRef(e.b.vertex + shift, e.b.slot)) for e in g.edges])
    for left, right in zip(chained, chained[1:]):
        (i, a1, b1), (j, a2, b2) = ((e.id, e.a, e.b) for e in (left[-1], right[0]))
        left[-1], right[0] = Edge(i, a1, b2), Edge(j, a2, b1)
    return StarGraph(vertices, [e for edges in chained for e in edges])


@pytest.fixture(scope="session")
def connected_sums():
    return build_connected_sum


@pytest.fixture(scope="session")
def sum_blocks():
    return build_sum_blocks


@pytest.fixture(scope="session")
def edge_swap_sum():
    return join_by_edge_swap


@pytest.fixture(scope="session")
def seeded_covers():
    return build_seeded_covers


@pytest.fixture(scope="session")
def small_graphs():
    return build_small_graphs()


@pytest.fixture(scope="session")
def small_source_sink(small_graphs):
    return [g for g in small_graphs if is_source_sink(g)]


@pytest.fixture(scope="session")
def random_corpus():
    return build_random_corpus()
