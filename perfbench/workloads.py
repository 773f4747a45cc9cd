"""Workload definitions and the benchmark's own input generator.

Inputs are written as .stg text by code in this directory, not by the
program, so a change to the program's generators or serializer cannot
change what the benchmark feeds it. Every instance comes from a pinned pool
(`pins/<workload>.json`): the pool records each instance's generator
arguments, the SHA-256 of its .stg text, its manifest row and, per query
variant, the exit code and stdout SHA-256 the CLI gave at the commit that
pinned it. `--seed` chooses the order in which pool instances are drawn and
nothing else: queries run in slot order, so the heap history every query
sees is the same on every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

PINS_DIR = Path(__file__).resolve().parent / "pins"


@dataclass(frozen=True)
class Pool:
    """A family of instances of one size class.

    kind "cover": parity double covers of random star graphs with n4
    4-vertices and n6 6-vertices (so 2*(n4+n6) vertices). kind "chain":
    chain(k) for each k in `ks`.
    """

    name: str
    kind: str
    n4: int = 0
    n6: int = 0
    ks: tuple[int, ...] = ()


@dataclass(frozen=True)
class Slot:
    """One instance drawn from `pool` per round, queried once per variant."""

    pool: str
    variants: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pools: tuple[Pool, ...]
    slots: tuple[Slot, ...]
    pool_size: int          # instances pinned per cover pool
    query_limit_s: float    # a query that runs longer fails the run
    # The tail percentile, fixed so that runs with more or fewer rounds
    # report the same statistic: inside the slowest group of a round that
    # still leaves at least ten samples beyond it in a 45 s run at the
    # commit that defined the benchmark, and never on a group boundary.
    tail_pct: float


GENUS = (("genus",),)
CHECK = (("check",),)
SWEEP = (("check", "--all-partitions"),)
PLANAR = (("planar",),)
PLANAR_CIRCUIT = (("planar",), ("circuit",))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "genus-small",
            "genus on 12-16 vertex covers and chains: the 2^n partition scan and gf2 "
            "ranks do >99% of each query",
            pools=(Pool("cover12", "cover", 3, 3), Pool("cover14", "cover", 4, 3),
                   Pool("cover16", "cover", 4, 4),
                   Pool("chain-lo", "chain", ks=(12, 13, 14)),
                   Pool("chain-hi", "chain", ks=(15, 16))),
            # Three in four queries are covers, one in four a chain. Sorted by
            # time a round reads c12 x3, chain(12-14) x2, c14 x3, chain(15-16),
            # c16 x3, so the median falls inside the 14-vertex covers and p85
            # inside the 16-vertex ones.
            slots=(Slot("cover12", GENUS), Slot("cover14", GENUS), Slot("cover16", GENUS),
                   Slot("chain-lo", GENUS), Slot("cover12", GENUS), Slot("cover14", GENUS),
                   Slot("cover16", GENUS), Slot("chain-hi", GENUS), Slot("cover12", GENUS),
                   Slot("cover14", GENUS), Slot("cover16", GENUS), Slot("chain-lo", GENUS)),
            pool_size=8, query_limit_s=30.0, tail_pct=85.0),
        Workload(
            "planar-large",
            "planar (and circuit on 1 in 3 graphs) on 1000-3000 vertex covers and "
            "chain(2000-8000): pipeline stages and planarity, no genus search",
            pools=(Pool("cover1000", "cover", 334, 166), Pool("cover2000", "cover", 667, 333),
                   Pool("cover3000", "cover", 1000, 500),
                   Pool("chain-2k", "chain", ks=(2000, 2500, 3000)),
                   Pool("chain-4k", "chain", ks=(4000, 4500, 5000)),
                   Pool("chain-8k", "chain", ks=(8000,))),
            # Smaller graphs are drawn more often so that a round of 12 queries
            # stays near 12 s; the 3000-vertex cover sets peak memory. Sorted
            # by time, the median falls inside the 1000-vertex planar queries
            # and p71 on chain(8000).
            slots=(Slot("cover1000", PLANAR_CIRCUIT), Slot("cover1000", PLANAR),
                   Slot("cover1000", PLANAR), Slot("cover2000", PLANAR_CIRCUIT),
                   Slot("cover3000", PLANAR), Slot("chain-2k", PLANAR_CIRCUIT),
                   Slot("chain-2k", PLANAR), Slot("chain-4k", PLANAR),
                   Slot("chain-8k", PLANAR)),
            pool_size=4, query_limit_s=60.0, tail_pct=71.0),
        Workload(
            "check-small",
            "check on 10-14 vertex covers, 1 in 4 with --all-partitions: the "
            "brute-force oracle and the per-partition rank_pair sweep",
            pools=(Pool("cover10", "cover", 3, 2), Pool("cover12", "cover", 3, 3),
                   Pool("cover14", "cover", 4, 3)),
            # One in four queries sweeps. Sorted by time a round reads c10,
            # c12 x4, c12 sweep x2, c14: the median falls inside the plain
            # 12-vertex checks and p80 inside the sweeps.
            slots=(Slot("cover12", CHECK), Slot("cover12", SWEEP), Slot("cover10", CHECK),
                   Slot("cover12", CHECK), Slot("cover14", CHECK), Slot("cover12", CHECK),
                   Slot("cover12", SWEEP), Slot("cover12", CHECK)),
            pool_size=8, query_limit_s=30.0, tail_pct=80.0),
    )
}


# --- .stg generation ---------------------------------------------------------


def _stg(degrees: list[int], edges: list[tuple[tuple[int, int], tuple[int, int]]]) -> str:
    lines = [f"stargraph {len(degrees)} {len(edges)}"]
    lines += [f"vertex {v} {d}" for v, d in enumerate(degrees)]
    for eid, (p, q) in enumerate(edges):
        a, b = sorted((p, q))
        lines.append(f"edge {eid} {a[0]}.{a[1]} {b[0]}.{b[1]}")
    return "\n".join(lines) + "\n"


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, _), (v, _) in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def cover_text(n4: int, n6: int, seed: int) -> str:
    """Parity double cover of a seeded random star graph.

    Slot stubs are shuffled into a perfect matching; vertex v lifts to 2v
    and 2v+1, edge e with ends (u.i, v.j) lifts to 2e+a joining layer a at
    u to layer a^r at v, r = (1+i+j) mod 2. Draws whose cover is
    disconnected (a disconnected base, or a base that is already
    source-sink, whose cover is two copies) are redrawn from the same stream.
    """
    base = [4] * n4 + [6] * n6
    stubs = [(v, s) for v, d in enumerate(base) for s in range(d)]
    rng = random.Random(f"cover-{n4}-{n6}-{seed}")
    degrees = [d for d in base for _ in (0, 1)]
    while True:
        rng.shuffle(stubs)
        edges = []
        for k in range(0, len(stubs), 2):
            (u, i), (v, j) = stubs[k], stubs[k + 1]
            r = (1 + i + j) & 1
            for layer in (0, 1):
                edges.append(((2 * u + layer, i), (2 * v + (layer ^ r), j)))
        if _connected(len(degrees), edges):
            return _stg(degrees, edges)


def chain_text(k: int) -> str:
    """k 4-vertices in a row: a loop at each end, doubled edges between."""
    edges = [((0, 0), (0, 1))]
    for i in range(k - 1):
        edges.append(((i, 2), (i + 1, 1)))
        edges.append(((i, 3), (i + 1, 0)))
    edges.append(((k - 1, 2), (k - 1, 3)))
    return _stg([4] * k, edges)


def instance_text(spec: dict) -> str:
    if spec["kind"] == "cover":
        return cover_text(spec["n4"], spec["n6"], spec["seed"])
    return chain_text(spec["k"])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- pins and the query schedule -------------------------------------------------


def pins_path(workload: str) -> Path:
    return PINS_DIR / f"{workload}.json"


def load_pins(workload: str) -> dict:
    return json.loads(pins_path(workload).read_text())


def write_inputs(pins: dict, directory: Path) -> dict[str, Path]:
    """Generate every pinned instance into `directory`; check each digest."""
    paths = {}
    for inst in pins["instances"]:
        text = instance_text(inst["spec"])
        if sha256(text) != inst["input_sha256"]:
            raise RuntimeError(f"generator drift: {inst['id']} does not match its pin")
        path = directory / f"{inst['id']}.stg"
        path.write_text(text)
        paths[inst["id"]] = path
    return paths


class Schedule:
    """Rounds of queries: every slot once per round, in slot order.

    Each pool is walked cyclically in a seeded permutation, so consecutive
    rounds draw different instances and every round has the same mix of
    size classes.
    """

    def __init__(self, workload: Workload, pins: dict, seed: int):
        self.workload = workload
        rng = random.Random(f"{workload.name}-{seed}")
        by_pool: dict[str, list[str]] = {}
        for inst in pins["instances"]:
            by_pool.setdefault(inst["pool"], []).append(inst["id"])
        self.cycles = {}
        for pool in workload.pools:
            ids = sorted(by_pool[pool.name])
            rng.shuffle(ids)
            self.cycles[pool.name] = ids
        self.cursor = {name: 0 for name in self.cycles}

    def _draw(self, pool: str) -> str:
        ids = self.cycles[pool]
        inst = ids[self.cursor[pool] % len(ids)]
        self.cursor[pool] += 1
        return inst

    def next_round(self) -> list[tuple[str, tuple[str, ...]]]:
        """(instance id, CLI variant) pairs for one round."""
        queries = []
        for slot in self.workload.slots:
            inst = self._draw(slot.pool)
            queries.extend((inst, variant) for variant in slot.variants)
        return queries


def variant_key(variant: tuple[str, ...]) -> str:
    return " ".join(variant)
