import pytest

from stargenus.core_graph import is_source_sink, validate
from stargenus.fixtures import (by_name, chain, fixture_names, g8, ghopf,
                                random_chord_diagram, random_star_graph)


def test_all_named_fixtures_are_valid():
    for name in fixture_names():
        assert validate(by_name(name)) == [], name


def test_by_name_expressions():
    assert by_name("g8") == g8()
    assert by_name("ghopf") == ghopf()
    assert by_name("chain(3)") == chain(3)
    assert by_name(" chain( 5 ) ") == by_name("chain(\t5)") == chain(5)
    assert by_name("\tg8") == g8()
    assert by_name("random(7,4,2)") == random_star_graph(7, 4, 2)
    assert by_name("random(7, 4, 2)") == random_star_graph(7, 4, 2)


@pytest.mark.parametrize("bad", ["g9", "chain()", "chain(-1)", "random(1,2)", ""])
def test_by_name_rejects_unknown(bad):
    with pytest.raises(ValueError):
        by_name(bad)


def test_chain_shape():
    g = chain(3)
    assert g.n_vertices == 3 and g.n_edges == 6
    assert validate(g) == []
    assert is_source_sink(g)
    assert chain(1) == g8()
    with pytest.raises(ValueError):
        chain(0)


def test_random_star_graph_determinism_and_validity():
    for seed in range(20):
        a = random_star_graph(seed, 3, 2)
        b = random_star_graph(seed, 3, 2)
        assert a == b
        assert validate(a) == []
    assert random_star_graph(0, 2, 1) != random_star_graph(1, 2, 1)


def test_random_star_graph_rejects_empty():
    with pytest.raises(ValueError):
        random_star_graph(1, 0, 0)


def test_random_chord_diagram_shape():
    for seed in range(10):
        d = random_chord_diagram(seed, 6)
        assert d.n_points == 12
        assert sorted(p for c in d.chords for p in c) == list(range(12))
        assert d.chords == tuple(sorted(d.chords))
    assert random_chord_diagram(3, 6) == random_chord_diagram(3, 6)
