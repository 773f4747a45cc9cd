"""Permissible partitions, the rank minimization and the planarity fast path."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from stargenus.errors import InvalidGraphError, InvariantViolation, NotSourceSinkError
from stargenus.fixtures import chain, g8, ghopf, gt3c, gt3f, gx
from stargenus.genus import (_coupling_order, _lookahead, _search, _side_chords, build_pipeline,
                             enumerate_permissible_partitions, genus_of_partition,
                             is_planar, min_genus, min_genus_of_pipeline,
                             partition_from_code, planarity_of_pipeline, rank_pair)
from stargenus.gf2 import BitMatrix, masked_rank
from stargenus.oracle import traced_genera
from stargenus.union_find import UnionFind


def test_pipeline_rejects_invalid_and_unorientable():
    from stargenus.core_graph import StarGraph
    with pytest.raises(InvalidGraphError):
        build_pipeline(StarGraph({0: 4}, []))
    with pytest.raises(NotSourceSinkError):
        build_pipeline(gx())


def test_enumeration_counts():
    pipe = build_pipeline(g8())
    assert len(list(enumerate_permissible_partitions(pipe.diagram))) == 2
    pipe = build_pipeline(ghopf())
    parts = list(enumerate_permissible_partitions(pipe.diagram))
    assert len(parts) == 4
    # ascending side bit-vector order, W before B
    assert [p.side for p in parts] == [
        {0: "W", 1: "W"}, {0: "W", 1: "B"}, {0: "B", 1: "W"}, {0: "B", 1: "B"}]


def test_partitions_are_distinct_and_cover(random_corpus):
    for g in random_corpus[:40]:
        pipe = build_pipeline(g)
        seen = set()
        n_chords = len(pipe.diagram.chords)
        for part in enumerate_permissible_partitions(pipe.diagram):
            key = tuple(sorted(part.side.items()))
            assert key not in seen
            seen.add(key)
            assert sorted(part.white + part.black) == list(range(n_chords))
            assert not set(part.white) & set(part.black)
        assert len(seen) == 2 ** g.n_vertices


def test_partition_respects_attachment_rules(random_corpus):
    # triad halves same side, double-chord halves opposite sides
    for g in random_corpus[:40]:
        pipe = build_pipeline(g)
        groups = pipe.diagram.groups
        by_vertex = {}
        for i, grp in enumerate(groups):
            by_vertex.setdefault(grp.vertex, []).append(i)
        for part in enumerate_permissible_partitions(pipe.diagram):
            white = set(part.white)
            for v, idxs in by_vertex.items():
                if len(idxs) != 2:
                    continue
                same = (idxs[0] in white) == (idxs[1] in white)
                assert same == (groups[idxs[0]].kind == "triad")


def test_genus_of_partition_pinned():
    pipe = build_pipeline(ghopf())
    verts = sorted(pipe.graph.vertices)
    split = partition_from_code(pipe.diagram, verts, 0b01)  # {0: W, 1: B}
    together = partition_from_code(pipe.diagram, verts, 0b00)
    assert genus_of_partition(pipe.matrix, split) == 0
    assert genus_of_partition(pipe.matrix, together) == 1
    assert rank_pair(pipe.matrix, together) == (2, 0)

    pipe = build_pipeline(gt3c())
    for part in enumerate_permissible_partitions(pipe.diagram):
        assert genus_of_partition(pipe.matrix, part) == 1


@pytest.mark.parametrize("fixture,expected", [
    (g8, 0), (ghopf, 0), (gt3f, 0), (gt3c, 1)])
def test_min_genus_fixtures(fixture, expected):
    assert min_genus(fixture()).min_genus == expected


def test_min_genus_witness_is_lexicographically_least():
    result = min_genus(ghopf())
    # {W,B} and {B,W} both reach genus 0; W-first wins
    assert result.witness.side == {0: "W", 1: "B"}
    assert result.ranks == (0, 0)

    # ties at a single vertex resolve to W
    assert min_genus(gt3c()).witness.side == {0: "W"}


def test_min_genus_bounds(random_corpus):
    for g in random_corpus[:60]:
        pipe = build_pipeline(g)
        result = min_genus_of_pipeline(pipe)
        n_chords = len(pipe.diagram.chords)
        assert 0 <= result.min_genus <= n_chords // 2
        assert result.ranks[0] % 2 == 0 and result.ranks[1] % 2 == 0
        # the witness reproduces the reported value
        assert genus_of_partition(pipe.matrix, result.witness) == result.min_genus


def test_min_genus_matches_full_scan(small_source_sink, random_corpus):
    # the search must return the least code of least genus, as the flat scan does
    for g in small_source_sink + random_corpus:
        pipe = build_pipeline(g)
        least = min(enumerate_permissible_partitions(pipe.diagram),
                    key=lambda p: genus_of_partition(pipe.matrix, p))
        result = min_genus_of_pipeline(pipe)
        assert result.min_genus == genus_of_partition(pipe.matrix, least)
        assert result.witness.side == least.side
        assert result.ranks == rank_pair(pipe.matrix, least)


def _search_inputs(pipe):
    chords_w, chords_b = _side_chords(pipe.diagram, sorted(pipe.graph.vertices))
    return pipe.matrix.rows, chords_w, chords_b


@pytest.fixture(scope="module")
def cover_pipes(seeded_covers):
    # 12 to 16 vertices: more coupled than the corpora, still small enough to scan
    return [build_pipeline(g) for g in seeded_covers((6, 6, 7, 7, 8, 8))]


def test_coupling_order_matches_a_quadratic_reference(random_corpus, cover_pipes):
    for pipe in [build_pipeline(g) for g in random_corpus] + cover_pipes:
        _, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        owner = {i: k for k in range(n) for i in chords_w[k] + chords_b[k]}
        weight = [[0] * n for _ in range(n)]
        for i, j in pipe.linked:
            if owner[i] != owner[j]:
                weight[owner[i]][owner[j]] += 1
                weight[owner[j]][owner[i]] += 1
        order = [0]
        while len(order) < n:
            rest = [k for k in range(n) if k not in order]
            order.append(max(rest, key=lambda k: (sum(weight[k][p] for p in order), -k)))
        assert _coupling_order(chords_w, chords_b, pipe.linked) == order


def test_lookahead_is_the_least_extra_over_all_placements():
    rng = random.Random(2012)
    for _ in range(2000):
        # vertices as the search sees them: a 4-vertex's chord or a triad's
        # two go white on W; a double chord's halves go opposite ways
        mask_w, mask_b, chord = [], [], 0
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("chord", "triad", "dchord"))
            mask_w.append((3 if kind == "triad" else 1) << chord)
            mask_b.append(2 << chord if kind == "dchord" else 0)
            chord += 1 if kind == "chord" else 2
        up_w, up_b = (sum(1 << i for i in range(chord) if rng.random() < density)
                      for density in (rng.random() / 2, rng.random() / 2))
        start = rng.randrange(len(mask_w))  # vertices before it are placed
        rest = list(zip(mask_w[start:], mask_b[start:]))
        # each placement sends (to white, to black): (mw, mb) on W, (mb, mw) on B
        extra = min(any(w & up_w for w, _ in placement) + any(b & up_b for _, b in placement)
                    for placement in itertools.product(*[[(mw, mb), (mb, mw)]
                                                         for mw, mb in rest]))
        for cap in (1, 2, 3):
            assert _lookahead(up_w, up_b, mask_w, mask_b, start, cap) == min(extra, cap)


def test_genus_is_the_same_in_any_search_order(random_corpus, seeded_covers):
    # the first pass may take the vertices in any order; only its genus is used
    rng = random.Random(1912)
    for g in random_corpus + seeded_covers((4, 5, 6, 7)):
        pipe = build_pipeline(g)
        rows, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        orders = [_coupling_order(chords_w, chords_b, pipe.linked), list(range(n))]
        orders += [rng.sample(range(n), n) for _ in range(5)]
        genera = {_search(rows, chords_w, chords_b, order, len(rows), 0)[0]
                  for order in orders}
        assert genera == {min_genus_of_pipeline(pipe).min_genus}


def test_min_genus_matches_oracle_on_covers(cover_pipes):
    for pipe in cover_pipes:
        assert min_genus_of_pipeline(pipe).min_genus == traced_genera(pipe.graph).min()


def test_witness_is_least_code_on_covers(cover_pipes):
    reordered = 0
    for pipe in cover_pipes:
        least = min(enumerate_permissible_partitions(pipe.diagram),
                    key=lambda p: genus_of_partition(pipe.matrix, p))
        result = min_genus_of_pipeline(pipe)
        assert result.witness.side == least.side
        assert result.ranks == rank_pair(pipe.matrix, least)
        _, chords_w, chords_b = _search_inputs(pipe)
        if _coupling_order(chords_w, chords_b, pipe.linked) != list(range(len(chords_w))):
            reordered += 1
    assert reordered == len(cover_pipes)  # so the second pass ran on every cover


def test_search_cross_checks_witness_ranks():
    # gt3c's two triad halves are linked; dropping one direction of the link
    # gives masked_rank 1 at the only witness, where the search assumes 2
    pipe = build_pipeline(gt3c())
    assert pipe.matrix.rows == (0b10, 0b01)
    lopsided = dataclasses.replace(pipe, matrix=BitMatrix(2, (0b10, 0b00)))
    with pytest.raises(InvariantViolation):
        min_genus_of_pipeline(lopsided)


def test_min_genus_thread_invariant():
    g = chain(13)
    baseline = min_genus(g, threads=1)
    for threads in (2, 3, 8):
        r = min_genus(g, threads=threads)
        assert r.min_genus == baseline.min_genus
        assert r.witness.side == baseline.witness.side
        assert r.ranks == baseline.ranks


def test_masked_rank_is_what_genus_uses(random_corpus):
    from stargenus.gf2 import principal_submatrix, rank
    for g in random_corpus[:15]:
        pipe = build_pipeline(g)
        for part in enumerate_permissible_partitions(pipe.diagram):
            assert masked_rank(pipe.matrix, part.white) == \
                rank(principal_submatrix(pipe.matrix, list(part.white)))


# --- planarity -------------------------------------------------------------

def test_planar_fixtures():
    assert is_planar(g8()).planar
    assert is_planar(ghopf()).planar
    assert is_planar(gt3f()).planar
    result = is_planar(gt3c())
    assert not result.planar
    assert result.conflict == (0, 1)
    assert result.witness is None


def test_planar_witness_realizes_genus_zero(random_corpus):
    fixtures = [g8(), ghopf(), gt3f(), chain(4)]
    pipes = [build_pipeline(g) for g in fixtures + random_corpus]
    results = [planarity_of_pipeline(pipe) for pipe in pipes]
    assert all(result.planar for result in results[:len(fixtures)])
    planar = [(pipe, result) for pipe, result in zip(pipes, results) if result.planar]
    assert len(planar) > 20
    for pipe, result in planar:
        verts = sorted(pipe.graph.vertices)
        code = sum((1 << (len(verts) - 1 - k)) if result.witness[v] == "B" else 0
                   for k, v in enumerate(verts))
        part = partition_from_code(pipe.diagram, verts, code)
        assert genus_of_partition(pipe.matrix, part) == 0


def _lowest_vertex_on_white(pipe, side: dict[int, str]) -> dict[int, str]:
    """`side` with every component of the vertices that linked chords join
    flipped, where needed, so that its lowest vertex is on W."""
    vertices = sorted(side)
    index = {v: k for k, v in enumerate(vertices)}
    owner = [index[grp.vertex] for grp in pipe.diagram.groups]
    uf = UnionFind(len(vertices))
    for i, j in pipe.linked:
        uf.union(owner[i], owner[j])
    lowest_side: dict[int, str] = {}
    out = {}
    for k, v in enumerate(vertices):
        flip = lowest_side.setdefault(uf.find(k), side[v]) == "B"
        out[v] = {"W": "B", "B": "W"}[side[v]] if flip else side[v]
    return out


def test_planarity_agrees_with_min_genus(random_corpus, seeded_covers):
    # the genus-0 partitions are one planar witness with any of those
    # components flipped, so the least of them has every component's lowest
    # vertex on W
    planar = 0
    for g in random_corpus + [chain(k) for k in (3, 7, 12)] + seeded_covers((4, 5, 6, 7)):
        pipe = build_pipeline(g)
        result = planarity_of_pipeline(pipe)
        least = min_genus_of_pipeline(pipe)
        assert result.planar == (least.min_genus == 0)
        if result.planar:
            planar += 1
            assert _lowest_vertex_on_white(pipe, result.witness) == least.witness.side
    assert planar > 100


def test_conflict_certificate_is_unsatisfiable(random_corpus, seeded_covers):
    # every consecutive certificate pair must carry a real constraint, and
    # taken together the cycle's constraints must admit no 2-colouring
    from stargenus.chords import linked
    from stargenus.union_find import ParityUnionFind
    checked = 0
    for g in random_corpus + seeded_covers((4, 5, 6, 7)):
        pipe = build_pipeline(g)
        result = planarity_of_pipeline(pipe)
        if result.planar:
            continue
        cycle = result.conflict
        assert cycle is not None and len(cycle) >= 2
        groups = pipe.diagram.groups
        index = {c: k for k, c in enumerate(cycle)}
        uf = ParityUnionFind(len(cycle))
        consistent = True
        for k in range(len(cycle)):
            i, j = cycle[k], cycle[(k + 1) % len(cycle)]
            if i == j:
                continue
            constraints = []
            if linked(pipe.diagram, i, j):
                constraints.append(1)
            if groups[i].vertex == groups[j].vertex:
                constraints.append(1 if groups[i].kind == "dchord" else 0)
            assert constraints, "certificate pair carries no constraint"
            for parity in constraints:
                consistent &= uf.union(index[i], index[j], parity)
        assert not consistent
        checked += 1
    assert checked > 10


def test_chain_family_is_planar():
    for k in (1, 2, 7, 40):
        result = is_planar(chain(k))
        assert result.planar
        assert all(side in "WB" for side in result.witness.values())
