"""Named example graphs and seeded generators.

The small named graphs pin down one representative of each interesting
behaviour: g8 (one 4-vertex, planar), gx (one 4-vertex, no source-sink
orientation), ghopf (two 4-vertices whose chords interleave), gt3f and gt3c
(one 6-vertex, flat vs crossed triad). chain(k) strings k 4-vertices into a
row of bigons, the planar stress family. random(seed, n4, n6) shuffles slot
stubs into a perfect matching and retries until the graph validates.
"""

from __future__ import annotations

import random
import re

from .chords import ChordDiagram, ChordGroup
from .core_graph import StarGraph, validate

MAX_TRIES = 1000  # the draws random_star_graph makes before it gives up


def g8() -> StarGraph:
    return StarGraph.build({0: 4}, [((0, 0), (0, 1)), ((0, 2), (0, 3))])


def gx() -> StarGraph:
    return StarGraph.build({0: 4}, [((0, 0), (0, 2)), ((0, 1), (0, 3))])


def ghopf() -> StarGraph:
    return StarGraph.build({0: 4, 1: 4}, [
        ((0, 0), (1, 2)),
        ((1, 3), (0, 1)),
        ((0, 2), (1, 0)),
        ((1, 1), (0, 3)),
    ])


def gt3f() -> StarGraph:
    return StarGraph.build({0: 6}, [((0, 0), (0, 1)), ((0, 2), (0, 3)), ((0, 4), (0, 5))])


def gt3c() -> StarGraph:
    return StarGraph.build({0: 6}, [((0, 0), (0, 3)), ((0, 1), (0, 4)), ((0, 2), (0, 5))])


def chain(k: int) -> StarGraph:
    """k 4-vertices in a row: a loop at each end, doubled edges between."""
    if k < 1:
        raise ValueError("chain needs at least one vertex")
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = [((0, 0), (0, 1))]
    for i in range(k - 1):
        pairs.append(((i, 2), (i + 1, 1)))
        pairs.append(((i, 3), (i + 1, 0)))
    pairs.append(((k - 1, 2), (k - 1, 3)))
    return StarGraph.build({v: 4 for v in range(k)}, pairs)


def random_star_graph(seed: int, n4: int, n6: int) -> StarGraph:
    """Seeded random valid star graph with n4 4-vertices then n6 6-vertices.

    Slot stubs are shuffled and paired off; disconnected draws are retried
    on the same stream, so the result is a pure function of the arguments.
    """
    if n4 < 0 or n6 < 0 or n4 + n6 == 0:
        raise ValueError("need at least one vertex")
    degrees = {v: 4 for v in range(n4)}
    degrees.update({n4 + v: 6 for v in range(n6)})
    stubs = [(v, s) for v, d in degrees.items() for s in range(d)]
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        shuffled = stubs[:]
        rng.shuffle(shuffled)
        pairs = [(shuffled[i], shuffled[i + 1]) for i in range(0, len(shuffled), 2)]
        g = StarGraph.build(degrees, pairs)
        if not validate(g):
            return g
    raise ValueError(f"no valid graph found for seed={seed} n4={n4} n6={n6}")


def random_chord_diagram(seed: int, n_chords: int) -> ChordDiagram:
    """Seeded random perfect matching of 2*n_chords circle points."""
    if n_chords < 1:
        raise ValueError("need at least one chord")
    points = list(range(2 * n_chords))
    rng = random.Random(seed)
    rng.shuffle(points)
    chords = sorted(tuple(sorted((points[i], points[i + 1])))
                    for i in range(0, len(points), 2))
    groups = tuple(ChordGroup(i, "chord") for i in range(n_chords))
    return ChordDiagram(2 * n_chords, tuple(chords), groups)


_NAMED = {"g8": g8, "gx": gx, "ghopf": ghopf, "gt3f": gt3f, "gt3c": gt3c}
_BLANKS = "[ \t]*"  # spaces and tabs alone, as in .stg files
_CHAIN_RE = re.compile(rf"chain\({_BLANKS}(\d+){_BLANKS}\)", re.ASCII)
_RANDOM_RE = re.compile(rf"random\({_BLANKS}(\d+){_BLANKS},{_BLANKS}(\d+){_BLANKS},"
                        rf"{_BLANKS}(\d+){_BLANKS}\)", re.ASCII)


def by_name(name: str) -> StarGraph:
    """Resolve a fixture expression: a bare name, chain(k) or random(seed,n4,n6)."""
    text = name.strip(" \t")
    if text in _NAMED:
        return _NAMED[text]()
    m = _CHAIN_RE.fullmatch(text)
    if m:
        return chain(int(m.group(1)))
    m = _RANDOM_RE.fullmatch(text)
    if m:
        return random_star_graph(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    raise ValueError(f"unknown fixture {name!r}")


def fixture_names() -> list[str]:
    return sorted(_NAMED)
