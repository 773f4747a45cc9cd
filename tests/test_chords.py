"""Star chord diagrams, expansion, linkedness, the matrix and surgery."""

from __future__ import annotations

import random

import pytest

from stargenus.chords import (Chord, ChordDiagram, ChordGroup, DoubleChord,
                              StarChordDiagram, Triad, build_star_chord_diagram,
                              expand, intersection_matrix, linked, linked_pairs,
                              surgery)
from stargenus.circuit import classify_vertices, find_rs_circuit
from stargenus.core_graph import find_source_sink_orientation
from stargenus.fixtures import (chain, g8, ghopf, gt3c, gt3f,
                                random_chord_diagram)
from stargenus.gf2 import corank, rank


def star_diagram_of(g):
    o = find_source_sink_orientation(g)
    _, circuit = find_rs_circuit(g, o)
    return build_star_chord_diagram(g, circuit, classify_vertices(g, circuit))


def plain(n_points, chords):
    chords = tuple(sorted(tuple(sorted(c)) for c in chords))
    return ChordDiagram(n_points, chords,
                        tuple(ChordGroup(i, "chord") for i in range(len(chords))))


# --- building from the circuit ---------------------------------------------

def test_star_diagram_fixtures():
    assert star_diagram_of(g8()) == StarChordDiagram(2, (Chord(0, (0, 1)),))
    assert star_diagram_of(gt3f()) == StarChordDiagram(
        3, (Triad(0, (0, 1, 2), crossed=False),))
    assert star_diagram_of(gt3c()) == StarChordDiagram(
        3, (Triad(0, (0, 1, 2), crossed=True),))
    assert star_diagram_of(ghopf()) == StarChordDiagram(
        4, (Chord(0, (0, 2)), Chord(1, (1, 3))))


def test_star_diagram_covers_circle(random_corpus):
    for g in random_corpus[:50]:
        diag = star_diagram_of(g)
        points = []
        for att in diag.attachments:
            if isinstance(att, Chord):
                points.extend(att.points)
            elif isinstance(att, Triad):
                points.extend(att.points)
            else:
                points.append(att.principal)
                points.extend(att.others)
        assert sorted(points) == list(range(diag.n_points))
        assert diag.n_points == g.n_edges


# --- expansion -------------------------------------------------------------

def test_expand_plain_chords_renumber_only():
    d = star_diagram_of(ghopf())
    out = expand(d)
    assert out.n_points == 4
    assert out.chords == ((0, 2), (1, 3))
    assert [g.kind for g in out.groups] == ["chord", "chord"]


def test_expand_flat_triad_is_unlinked():
    # triad at (1,3,5) on a 7-point circle, other points tied off in pairs
    d = StarChordDiagram(7, (Chord(1, (0, 2)), Triad(0, (1, 3, 5), crossed=False),
                             Chord(2, (4, 6))))
    out = expand(d)
    assert out.n_points == 8
    # point 1 became 1- at 1 and 1+ at 2; q=3 maps to 4, r=5 maps to 6
    assert (2, 4) in out.chords and (1, 6) in out.chords
    i, j = out.chords.index((2, 4)), out.chords.index((1, 6))
    assert not linked(out, i, j)
    assert out.groups[i] == ChordGroup(0, "triad")
    assert out.groups[j] == ChordGroup(0, "triad")


def test_expand_crossed_triad_is_linked():
    d = StarChordDiagram(7, (Chord(1, (0, 2)), Triad(0, (1, 3, 5), crossed=True),
                             Chord(2, (4, 6))))
    out = expand(d)
    # 1- pairs with q=3 (mapped to 4), 1+ with r=5 (mapped to 6)
    assert (1, 4) in out.chords and (2, 6) in out.chords
    assert linked(out, out.chords.index((1, 4)), out.chords.index((2, 6)))


def test_expand_double_chord_sides():
    d = StarChordDiagram(7, (Chord(1, (0, 2)), DoubleChord(0, 5, (1, 3)),
                             Chord(2, (4, 6))))
    out = expand(d)
    # principal 5 splits to 5-/5+ at 5/6; q=1 pairs with 5+, r=3 with 5-
    assert (1, 6) in out.chords and (3, 5) in out.chords
    i, j = out.chords.index((1, 6)), out.chords.index((3, 5))
    assert not linked(out, i, j)
    assert out.groups[i] == ChordGroup(0, "dchord", plus=True)
    assert out.groups[j] == ChordGroup(0, "dchord", plus=False)


def test_expand_splits_first_triad_point_in_circle_order():
    d = StarChordDiagram(7, (Chord(1, (0, 4)), Triad(0, (2, 3, 6), crossed=False),
                             Chord(2, (1, 5))))
    out = expand(d)
    # min point 2 splits: 2- at 2, 2+ at 3; q=3 -> 4, r=6 -> 7
    assert (3, 4) in out.chords and (2, 7) in out.chords


def test_expand_output_is_well_formed(random_corpus):
    for g in random_corpus[:50]:
        star = star_diagram_of(g)
        out = expand(star)
        endpoints = sorted(p for c in out.chords for p in c)
        assert endpoints == list(range(out.n_points))
        splits = sum(1 for att in star.attachments if not isinstance(att, Chord))
        assert out.n_points == star.n_points + splits
        # chords sorted by smaller endpoint; groups aligned per vertex
        assert list(out.chords) == sorted(out.chords)
        by_vertex = {}
        for grp in out.groups:
            by_vertex[grp.vertex] = by_vertex.get(grp.vertex, 0) + 1
        for v, d in g.vertices.items():
            assert by_vertex[v] == (2 if d == 6 else 1)


# --- linkedness and the matrix ---------------------------------------------

def test_linked_pinned():
    d = plain(4, [(0, 2), (1, 3)])
    assert linked(d, 0, 1)
    d = plain(4, [(0, 1), (2, 3)])
    assert not linked(d, 0, 1)
    d = plain(4, [(0, 3), (1, 2)])  # nested
    assert not linked(d, 0, 1)


def quadratic_linked_pairs(d):
    n = len(d.chords)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if linked(d, i, j)]


def test_linked_pairs_matches_quadratic_loop(random_corpus):
    diagrams = [random_chord_diagram(seed, random.Random(seed).randint(1, 40))
                for seed in range(40)]
    diagrams += [expand(star_diagram_of(g)) for g in random_corpus[:40]]
    diagrams.append(expand(star_diagram_of(chain(300))))
    diagrams.append(plain(60, [(i, 59 - i) for i in range(30)]))  # nested: no pairs
    diagrams.append(plain(60, [(i, i + 30) for i in range(30)]))  # every pair
    diagrams.append(plain(10, [(0, 5), (2, 8), (3, 4)]))  # points 1, 6, 7, 9 end no chord
    for d in diagrams:
        assert linked_pairs(d) == quadratic_linked_pairs(d)


def test_linked_pairs_on_200_chords():
    d = random_chord_diagram(3, 200)
    assert linked_pairs(d) == quadratic_linked_pairs(d)


def test_intersection_matrix_fixtures():
    hopf = expand(star_diagram_of(ghopf()))
    assert intersection_matrix(hopf).to_lists() == [[0, 1], [1, 0]]
    flat = expand(star_diagram_of(gt3f()))
    assert intersection_matrix(flat).to_lists() == [[0, 0], [0, 0]]
    crossed = expand(star_diagram_of(gt3c()))
    assert intersection_matrix(crossed).to_lists() == [[0, 1], [1, 0]]


def test_intersection_matrix_shape(random_corpus):
    for g in random_corpus[:40]:
        d = expand(star_diagram_of(g))
        m = intersection_matrix(d)
        assert m.n == len(d.chords)
        assert m.is_symmetric_zero_diagonal()
        assert rank(m) % 2 == 0


def test_pairwise_linked_triple_has_rank_two():
    d = plain(6, [(0, 3), (1, 4), (2, 5)])
    m = intersection_matrix(d)
    assert m.to_lists() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert rank(m) == 2


# --- surgery and circuit-nullity -------------------------------------------

def test_surgery_pinned():
    assert surgery(plain(2, [(0, 1)])) == 2
    assert surgery(plain(4, [(0, 2), (1, 3)])) == 1
    assert surgery(plain(4, [(0, 1), (2, 3)])) == 3


def test_surgery_rejects_bad_cover():
    with pytest.raises(ValueError):
        surgery(ChordDiagram(4, ((0, 1), (1, 2)), (ChordGroup(0, "chord"),
                                                   ChordGroup(1, "chord"))))
    with pytest.raises(ValueError):
        surgery(ChordDiagram(4, ((0, 1),), (ChordGroup(0, "chord"),)))


def test_circuit_nullity_on_random_diagrams():
    for seed in range(300):
        rng = random.Random(seed)
        d = random_chord_diagram(seed, rng.randint(1, 15))
        assert surgery(d) == 1 + corank(intersection_matrix(d))


def test_circuit_nullity_on_expanded_diagrams(random_corpus):
    for g in random_corpus[:60]:
        d = expand(star_diagram_of(g))
        assert surgery(d) == 1 + corank(intersection_matrix(d))


def test_chain_diagram_is_large_and_planar_shaped():
    d = expand(star_diagram_of(chain(300)))
    assert len(d.chords) == 300
    assert surgery(d) == 1 + corank(intersection_matrix(d))
