"""Permissible partitions, the rank minimization and the planarity fast path."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import random
import tracemalloc

import numpy as np
import pytest

from stargenus.errors import (InvalidGraphError, InvariantViolation, NotSourceSinkError,
                              SearchBudgetExceeded)
from stargenus.core_graph import double_cover, serialize_stg
from stargenus.fixtures import chain, g8, ghopf, gt3c, gt3f, gx, random_star_graph
from stargenus.genus import (_coupling_order, _fixed, _search, _side_chords, _stuck,
                             _symmetries, build_pipeline, enumerate_permissible_partitions,
                             genus_of_partition, is_planar, min_genus, min_genus_of_pipeline,
                             partition_from_code, partition_genera, planarity_of_pipeline,
                             rank_pair, search_genus)
from stargenus.gf2 import BitMatrix, SymplecticBasis, index_mask, masked_rank
from stargenus.oracle import coloring_flip, traced_genera
from stargenus.union_find import ParityUnionFind


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


def _components(pipe):
    _, chords_w, chords_b = _search_inputs(pipe)
    return _coupling_order(chords_w, chords_b, pipe.linked)


def _flat(components):
    return [k for part in components for k in part]


@pytest.fixture(scope="module")
def cover_pipes(seeded_covers):
    # 12 to 16 vertices: more coupled than the corpora, still small enough to scan
    return [build_pipeline(g) for g in seeded_covers((6, 6, 7, 7, 8, 8))]


def test_coupling_order_matches_a_quadratic_reference(random_corpus, cover_pipes,
                                                     connected_sums):
    sums = [build_pipeline(connected_sums(3, 2, blocks)) for blocks in (2, 3)]
    for pipe in [build_pipeline(g) for g in random_corpus] + cover_pipes + sums:
        _, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        owner = {i: k for k in range(n) for i in chords_w[k] + chords_b[k]}
        weight = [[0] * n for _ in range(n)]
        for i, j in pipe.linked:
            if owner[i] != owner[j]:
                weight[owner[i]][owner[j]] += 1
                weight[owner[j]][owner[i]] += 1
        # a vertex that nothing placed links to starts a component
        order, components = [0], [[0]]
        while len(order) < n:
            rest = [k for k in range(n) if k not in order]
            k = max(rest, key=lambda k: (sum(weight[k][p] for p in order), -k))
            if not any(weight[k][p] for p in order):
                components.append([])
            components[-1].append(k)
            order.append(k)
        found = _coupling_order(chords_w, chords_b, pipe.linked)
        assert _flat(found) == order
        assert found == components
        # the components of a union-find over the linked pairs, each in the
        # same order and from its lowest position, which `_search` keeps on W
        uf = ParityUnionFind(n)
        for i, j in pipe.linked:
            uf.union(owner[i], owner[j], 0)
        reference: dict[int, list[int]] = {}
        for k in order:
            reference.setdefault(uf.find(k)[0], []).append(k)
        assert found == list(reference.values())
        assert all(part[0] == min(part) for part in found)
    # each sum splits, so its search makes more than one walk
    assert all(len(_components(pipe)) > 1 for pipe in sums)


def test_stuck_is_whether_every_placement_raises_a_side():
    rng = random.Random(2012)
    stuck_by_fixed = 0
    for _ in range(2000):
        # vertices as the search sees them: a 4-vertex's chord or a triad's
        # two go white on W; a double chord's halves go opposite ways; a
        # fixed vertex is placed on W alone
        mask_w, mask_b, fixed, chord = [], [], [], 0
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("chord", "triad", "dchord"))
            mask_w.append((3 if kind == "triad" else 1) << chord)
            mask_b.append(2 << chord if kind == "dchord" else 0)
            fixed.append(rng.random() < 0.3)
            chord += 1 if kind == "chord" else 2
        up_w, up_b = (sum(1 << i for i in range(chord) if rng.random() < density)
                      for density in (rng.random() / 2, rng.random() / 2))
        start = rng.randrange(len(mask_w))  # vertices before it are placed
        rest = list(zip(mask_w[start:], mask_b[start:], fixed[start:]))
        linked = None
        for mw, mb, on_w in reversed(rest):
            linked = (mw, mb, on_w, linked)
        # each placement sends (to white, to black): (mw, mb) on W, (mb, mw) on B

        def extra(options):
            return min(any(w & up_w for w, _ in placement) + any(b & up_b for _, b in placement)
                       for placement in itertools.product(*options))
        free = extra([(mw, mb), (mb, mw)] for mw, mb, _ in rest)
        placed = extra([(mw, mb)] if on_w else [(mw, mb), (mb, mw)] for mw, mb, on_w in rest)
        assert _stuck(up_w, up_b, linked) == (placed > 0)
        stuck_by_fixed += placed > free
    # some vertices are stuck only because they have no B option
    assert stuck_by_fixed > 50


def test_child_bound_is_at_most_the_genus_its_vertex_adds():
    # the search bounds a child by 1 for each side that its vertex sends one
    # of that side's raisers to; over bases reached by random insertions,
    # that never exceeds the genus the vertex adds, and equals it when each
    # side gets at most one chord (a 4-vertex, or a double chord's halves)
    rng = random.Random(2024)
    below = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        density = rng.random()
        m = BitMatrix.from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < density])
        chords = rng.sample(range(n), n)
        kind = rng.choice(("chord", "triad", "dchord"))
        vertex, placed = chords[:1 + (kind != "chord")], chords[1 + (kind != "chord"):]
        white = black = SymplecticBasis(m.rows)
        for i in placed[:rng.randint(0, len(placed))]:
            if rng.random() < 0.5:
                white = white.add(i)
            else:
                black = black.add(i)
        # W sends (white, black) chords, B the other way round
        sends = (vertex, []) if kind != "dchord" else (vertex[:1], vertex[1:])
        for to_white, to_black in (sends, sends[::-1]):
            bound = (bool(index_mask(to_white) & white.raisers)
                     + bool(index_mask(to_black) & black.raisers))
            grown_w, grown_b = white, black
            for i in to_white:
                grown_w = grown_w.add(i)
            for i in to_black:
                grown_b = grown_b.add(i)
            gain = (grown_w.rank + grown_b.rank - white.rank - black.rank) // 2
            assert bound <= gain
            if len(to_white) <= 1 and len(to_black) <= 1:
                assert bound == gain
            below += bound < gain
    # a triad's second chord can raise only after its first is in
    assert below > 0


def _pass(pipe, order, least, fixed=False):
    """`_search` over the positions in `order`, with no node budget, and
    with the pivots of the flip symmetries on W when `fixed`."""
    rows, chords_w, chords_b = _search_inputs(pipe)
    on_w = _fixed(chords_w, chords_b, rows, _components(pipe)) if fixed \
        else [False] * len(chords_w)
    return _search(chords_w, chords_b, rows, [list(order)], on_w, least, None)


def test_genus_is_the_same_in_any_search_order(small_source_sink, random_corpus, seeded_covers,
                                               connected_sums):
    # the search may take the vertices in any order and finds the same
    # genus; with `least`, in any order that starts at position 0, it also
    # ends on the same least code and ranks, with the pivots of the flip
    # symmetries placed on W alone or not
    rng = random.Random(1912)
    sums = [connected_sums(*blocks) for blocks in ((1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3))]
    for g in small_source_sink + random_corpus + seeded_covers((4, 5, 6, 7)) + sums:
        pipe = build_pipeline(g)
        _, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        least = min_genus_of_pipeline(pipe)
        orders = [_flat(_components(pipe)), list(range(n))]
        orders += [[0] + rng.sample(range(1, n), n - 1) for _ in range(5)]
        anywhere = [rng.sample(range(n), n) for _ in range(5)]
        assert {_pass(pipe, order, False)[0] for order in orders + anywhere} | \
            {_pass(pipe, order, False, fixed=True)[0] for order in orders} == {least.min_genus}
        for order in orders:
            for fixed in (False, True):
                assert _pass(pipe, order, True, fixed) == \
                    (least.min_genus, least.witness.code, *least.ranks), (order, fixed)


def test_flip_symmetries_keep_every_genus(small_source_sink, random_corpus, seeded_covers):
    # flipping the vertices of any generator keeps the genus of every
    # partition; the component swaps come first and add up to the side
    # swap, and each of the three local rules gives some generators, as
    # does the swap of a component short of the whole graph
    rules = dict.fromkeys(("component", "R2", "R3", "R4"), 0)
    for g in small_source_sink + random_corpus + seeded_covers(range(1, 8)):
        pipe = build_pipeline(g)
        rows, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        genera = partition_genera(pipe)
        codes = np.arange(len(genera))
        components = _components(pipe)
        symmetries = _symmetries(chords_w, chords_b, rows, components)
        swaps = symmetries[:len(components)]
        assert swaps == [sum(1 << (n - 1 - k) for k in part) for part in components]
        assert sum(swaps) == functools.reduce(operator.xor, swaps) == (1 << n) - 1
        for flip in symmetries:
            assert (genera[codes ^ flip] == genera).all(), (serialize_stg(g), flip)
        rules["component"] += sum(flip != (1 << n) - 1 for flip in swaps)
        for flip in symmetries[len(components):]:
            k = n - flip.bit_length()  # the generator's lowest position
            if flip & (flip - 1):
                rules["R4"] += 1
            else:
                rules["R3" if chords_b[k] else "R2"] += 1
    assert min(rules.values()) >= 10, rules


def test_pivots_on_w_are_the_least_code_of_each_coset(small_source_sink, random_corpus,
                                                       seeded_covers):
    # the codes with every fixed position on W are the least codes of the
    # cosets of the span of the flip symmetries, one in each coset
    for g in small_source_sink + random_corpus + seeded_covers(range(1, 8)):
        pipe = build_pipeline(g)
        rows, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        components = _components(pipe)
        fixed = _fixed(chords_w, chords_b, rows, components)
        assert fixed[0]
        span = np.zeros(1, dtype=np.int64)
        for flip in _symmetries(chords_w, chords_b, rows, components):
            if not (span == flip).any():
                span = np.concatenate([span, span ^ flip])
        assert len(span) == 1 << sum(fixed)
        pivots = sum(1 << (n - 1 - k) for k in range(n) if fixed[k])
        codes = np.arange(1 << n, dtype=np.int64)
        least = codes[codes & pivots == 0]
        assert ((least[:, None] ^ span[None, :]).min(axis=1) == least).all()


def test_least_pass_matches_the_ascending_pass_and_the_flat_scan(small_source_sink,
                                                                 seeded_covers, connected_sums):
    # the least pass ends on the least code of the flat table of every
    # partition's genus, in ascending order (where leaves come in code
    # order) and in coupling order (where they do not) alike
    sums = [connected_sums(*blocks) for blocks in ((1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3))]
    reordered = 0
    for g in small_source_sink + seeded_covers(range(1, 10)) + sums:
        pipe = build_pipeline(g)
        _, chords_w, chords_b = _search_inputs(pipe)
        n = len(chords_w)
        genera = partition_genera(pipe).tolist()
        genus = min(genera)
        coupling = _flat(_components(pipe))
        for order in (list(range(n)), coupling):
            found = _pass(pipe, order, True)
            assert found[:2] == (genus, genera.index(genus))
            assert found[2:] == rank_pair(pipe.matrix, partition_from_code(
                pipe.diagram, list(g.vertices), found[1]))
        assert min_genus_of_pipeline(pipe).witness.code == genera.index(genus)
        reordered += coupling != list(range(n))
    assert reordered >= 10


def test_node_budget_counts_every_node_of_a_call(seeded_covers, connected_sums):
    # a call makes at most max_nodes nodes, and gives the unbounded answer
    # whenever it is not refused; letting ties with a smaller code win
    # costs nodes past the first leaf of the least genus. The pinned
    # budgets also pin the order of a node's children: making the child
    # with the higher bound first, or the B child first on equal bounds,
    # keeps every answer but changes them
    def least_budget(search, pipe):
        low, high = 1, 10 ** 6
        while low < high:
            mid = (low + high) // 2
            try:
                search(pipe, max_nodes=mid)
                high = mid
            except SearchBudgetExceeded:
                low = mid + 1
        return low

    # the cover of random(28,3,3) has three components, which share one
    # budget: its least pass takes 35 nodes and its first pass 23
    c28 = double_cover(random_star_graph(28, 3, 3))
    assert len(_components(build_pipeline(c28))) == 3
    cover5, cover6, cover7 = seeded_covers((5, 6, 7))
    for g, budgets in ((cover5, (54, 42)), (cover6, (32, 21)), (cover7, (132, 69)),
                       (c28, (35, 23)), (connected_sums(3, 2, 3), (185, 138))):
        pipe = build_pipeline(g)
        first = least_budget(search_genus, pipe)
        least = least_budget(min_genus_of_pipeline, pipe)
        assert (least, first) == budgets
        for search, nodes in ((search_genus, first), (min_genus_of_pipeline, least)):
            assert search(pipe, max_nodes=nodes) == search(pipe)
            with pytest.raises(SearchBudgetExceeded,
                               match=f"^genus search exceeds the node budget {nodes - 1}$"):
                search(pipe, max_nodes=nodes - 1)


def test_negative_node_budget_is_refused(seeded_covers):
    # a negative budget is a caller's error, not a budget that happens to
    # let the start of a search through: it is refused before any search
    for g in (g8(), seeded_covers((5,))[0]):
        pipe = build_pipeline(g)
        for search in (search_genus, min_genus_of_pipeline):
            with pytest.raises(ValueError, match="^max_nodes must be at least 0, got -1$"):
                search(pipe, max_nodes=-1)
            with pytest.raises(SearchBudgetExceeded):
                search(pipe, max_nodes=0)


def test_min_genus_matches_oracle_on_covers(cover_pipes):
    for pipe in cover_pipes:
        assert min_genus_of_pipeline(pipe).min_genus == \
            traced_genera(pipe.graph, pipe.orientation).min()


def test_witness_is_least_code_on_covers(cover_pipes):
    reordered = 0
    for pipe in cover_pipes:
        least = min(enumerate_permissible_partitions(pipe.diagram),
                    key=lambda p: genus_of_partition(pipe.matrix, p))
        result = min_genus_of_pipeline(pipe)
        assert result.witness.side == least.side
        assert result.ranks == rank_pair(pipe.matrix, least)
        if _flat(_components(pipe)) != list(range(pipe.graph.n_vertices)):
            reordered += 1
    # so on every cover the leaves do not come in code order, and the rule
    # that a tie with a smaller code wins decides the witness
    assert reordered == len(cover_pipes)


def test_search_cross_checks_witness_ranks():
    # gt3c's two triad halves are linked; dropping one direction of the link
    # gives masked_rank 1 at the only witness, where the search assumes 2
    pipe = build_pipeline(gt3c())
    assert pipe.matrix.rows == (0b10, 0b01)
    lopsided = dataclasses.replace(pipe, matrix=BitMatrix(2, (0b10, 0b00)))
    for search in (min_genus_of_pipeline, search_genus):
        with pytest.raises(InvariantViolation):
            search(lopsided)


def test_search_genus_finds_the_genus_and_a_leaf_of_it(random_corpus, seeded_covers,
                                                      connected_sums):
    # pass 1 alone: the same genus as both passes and the oracle, at a leaf
    # whose ranks and traced surface both give that genus
    sums = [connected_sums(*blocks) for blocks in ((1, 1, 3), (2, 1, 2), (2, 1, 3))]
    for g in random_corpus + seeded_covers((4, 5, 6, 7)) + sums:
        pipe = build_pipeline(g)
        first = search_genus(pipe)
        traced = traced_genera(g, pipe.orientation)
        assert first.min_genus == min_genus_of_pipeline(pipe).min_genus == traced.min()
        assert rank_pair(pipe.matrix, first.witness) == first.ranks
        assert sum(first.ranks) == 2 * first.min_genus
        assert traced[first.witness.code ^ coloring_flip(pipe)] == first.min_genus


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
    uf = ParityUnionFind(len(vertices))
    for i, j in pipe.linked:
        uf.union(owner[i], owner[j], 0)
    lowest_side: dict[int, str] = {}
    out = {}
    for k, v in enumerate(vertices):
        flip = lowest_side.setdefault(uf.find(k)[0], side[v]) == "B"
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


def test_planarity_working_set_is_bounded():
    # the 600-vertex cover of random(0,200,100) has 102,781 linked pairs,
    # and the first conflict is constraint 885: the constraints are streamed
    # and none is kept, where a list of them all took 7.8 MB
    pipe = build_pipeline(double_cover(random_star_graph(0, 200, 100)))
    assert len(pipe.linked) == 102_781
    tracemalloc.start()
    try:
        result = planarity_of_pipeline(pipe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.conflict == (2, 1, 4)
    assert peak < 10 ** 6


def test_chain_family_is_planar():
    for k in (1, 2, 7, 40):
        result = is_planar(chain(k))
        assert result.planar
        assert all(side in "WB" for side in result.witness.values())
