"""Pin the benchmark's answers: `python3 perfbench/pin.py [workload ...]`.

For every pool instance of a workload this generates the .stg text, runs
each CLI variant its slots use, cross-checks the output against an
independent computation, and records the exit code and stdout SHA-256 in
`pins/<workload>.json` together with the instance manifest (vertices,
chords, linked pairs, constraint-graph components, planarity, genus).

Cross-checks:
- genus and check: the genus must equal min_genus_bruteforce(cap=None),
  and the printed genus witness must give the printed ranks by rank_pair;
- planar: a witness must give rank_pair (0, 0); a conflict must be an odd
  cycle of linked()/same-vertex constraints;
- circuit: the printed circuit must use every edge once, with one class
  line per vertex.

Run it only at a commit whose answers are known good; the digests it writes
are what every later run is checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stargenus import cli, linked, parse_stg, validate  # noqa: E402
from stargenus.genus import build_pipeline, partition_from_code, rank_pair  # noqa: E402
from stargenus.oracle import min_genus_bruteforce  # noqa: E402

from workloads import WORKLOADS, instance_text, pins_path, sha256, variant_key  # noqa: E402

GENUS_SMALL_RANGE = (1, 5)
UNBOUNDED = [{
    "query": "genus chain(40)",
    "reason": "flat 2^40 partition scan with no cap; did not finish in 20 s. Left out "
              "of genus-small until the search has a cap or decomposes chains",
}]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def components(pipe) -> int:
    """Components of the chord graph joined by linked and same-vertex pairs."""
    n = len(pipe.diagram.chords)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_of: dict[int, int] = {}
    for i, grp in enumerate(pipe.diagram.groups):
        j = first_of.setdefault(grp.vertex, i)
        parent[find(i)] = find(j)
    for i, j in pipe.linked:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def witness_partition(pipe, sides: dict[int, str]):
    vertices = sorted(pipe.graph.vertices)
    code = int("".join("1" if sides[v] == "B" else "0" for v in vertices), 2)
    return partition_from_code(pipe.diagram, vertices, code)


def parse_sides(line: str, prefix: str) -> dict[int, str]:
    if not line.startswith(prefix):
        raise SystemExit(f"expected a line starting {prefix!r}, got {line!r}")
    return {int(v): s for v, s in (tok.split("=") for tok in line[len(prefix):].split())}


def conflict_is_odd_cycle(pipe, cycle: list[int]) -> bool:
    """True iff the constraints between cyclically consecutive chords of
    `cycle` cannot all hold: linked chords differ, double-chord halves
    differ, triad halves agree."""
    groups = pipe.diagram.groups
    edges = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if linked(pipe.diagram, a, b):
            edges.append((a, b, 1))
        if a != b and groups[a].vertex == groups[b].vertex:
            edges.append((a, b, 1 if groups[a].kind == "dchord" else 0))
    colour = {cycle[0]: 0}
    changed = True
    while changed:
        changed = False
        for a, b, p in edges:
            for x, y in ((a, b), (b, a)):
                if x in colour and y not in colour:
                    colour[y] = colour[x] ^ p
                    changed = True
    return any(colour.get(a, 0) ^ colour.get(b, 0) != p for a, b, p in edges)


def cross_check(variant: tuple[str, ...], code: int, out: str, pipe, g, row: dict) -> None:
    lines = out.splitlines()
    cmd = variant[0]
    if cmd in ("genus", "check"):
        if row["genus"] is None:
            row["genus"] = min_genus_bruteforce(g, cap=None, threads=1)[0]
    if cmd == "genus":
        genus = int(re.fullmatch(r"min genus: (\d+)", lines[0]).group(1))
        ranks = tuple(int(x) for x in lines[1].split()[1:])
        sides = parse_sides(lines[2], "witness: ")
        ok = (code == 0 and genus == row["genus"] and sum(ranks) == 2 * genus
              and rank_pair(pipe.matrix, witness_partition(pipe, sides)) == ranks)
    elif cmd == "check":
        want = [f"genus: {row['genus']}", f"oracle: {row['genus']}", "agree: yes"]
        if "--all-partitions" in variant:
            want.append(f"partitions: {1 << row['vertices']} checked, 0 mismatches")
        ok = code == 0 and lines == want
    elif cmd == "planar":
        if lines[0] == "planar: yes":
            sides = parse_sides(lines[1], "witness: ")
            ok = code == 0 and rank_pair(pipe.matrix, witness_partition(pipe, sides)) == (0, 0)
            row["planar"], row["genus"] = True, 0
        else:
            cycle = [int(c) for c in lines[1].split(":")[1].split()]
            ok = (code == 1 and lines[0] == "planar: no"
                  and conflict_is_odd_cycle(pipe, cycle))
            row["planar"] = False
    elif cmd == "circuit":
        edges = [int(tok[1:]) for tok in lines[0].split()[1:]]
        ok = (code == 0 and sorted(edges) == [e.id for e in g.edges]
              and len(lines) == 1 + g.n_vertices)
    else:
        raise ValueError(cmd)
    if not ok:
        raise SystemExit(f"cross-check failed: {row['id']} {variant_key(variant)}\n{out[:500]}")


def pin_instance(workload, pool, spec: dict, tmp: Path) -> dict | None:
    text = instance_text(spec)
    ident = (f"{pool.name}-s{spec['seed']}" if pool.kind == "cover"
             else f"chain{spec['k']}")
    path = tmp / f"{ident}.stg"
    path.write_text(text)
    variants = sorted({v for slot in workload.slots if slot.pool == pool.name
                       for v in slot.variants})
    # The CLI runs before the pipeline is built here, so that the two
    # never hold a large instance's linked pairs at the same time.
    outputs = {variant: run_cli([*variant, str(path)]) for variant in variants}
    if workload.name == "genus-small" and pool.kind == "cover":
        genus = int(outputs[("genus",)][1].split()[2])
        if not GENUS_SMALL_RANGE[0] <= genus <= GENUS_SMALL_RANGE[1]:
            return None
    g = parse_stg(text)
    if validate(g):
        raise SystemExit(f"generator made an invalid graph: {spec}")
    pipe = build_pipeline(g)
    row = {"id": ident, "pool": pool.name, "spec": spec, "input_sha256": sha256(text),
           "vertices": g.n_vertices, "chords": len(pipe.diagram.chords),
           "linked_pairs": len(pipe.linked), "components": components(pipe),
           "planar": None, "genus": None}
    if workload.name == "genus-small" and pool.kind == "cover" and row["components"] != 1:
        return None
    answers = {}
    for variant, (code, out) in outputs.items():
        cross_check(variant, code, out, pipe, g, row)
        answers[variant_key(variant)] = {"exit": code, "stdout_sha256": sha256(out)}
    if row["planar"] is None and row["genus"] is not None:
        row["planar"] = row["genus"] == 0
    row["answers"] = answers
    return row


def pin_workload(name: str, tmp: Path) -> None:
    workload = WORKLOADS[name]
    instances = []
    for pool in workload.pools:
        if pool.kind == "chain":
            specs = ({"kind": "chain", "k": k} for k in pool.ks)
            want = len(pool.ks)
        else:
            specs = ({"kind": "cover", "n4": pool.n4, "n6": pool.n6, "seed": s}
                     for s in range(1000))
            want = workload.pool_size
        got = 0
        for spec in specs:
            t0 = time.perf_counter()
            row = pin_instance(workload, pool, spec, tmp)
            if row is None:
                continue
            instances.append(row)
            got += 1
            print(f"{name} {row['id']}: genus {row['genus']} planar {row['planar']} "
                  f"components {row['components']} ({time.perf_counter() - t0:.1f} s)",
                  flush=True)
            if got == want:
                break
    pins = {"workload": name, "why": workload.why, "instances": instances}
    if name == "genus-small":
        pins["excluded_queries"] = UNBOUNDED
    pins_path(name).write_text(json.dumps(pins, indent=1) + "\n")


def main(argv: list[str]) -> None:
    tmp = ROOT / ".perfbench" / "pin"
    tmp.mkdir(parents=True, exist_ok=True)
    for name in argv or list(WORKLOADS):
        pin_workload(name, tmp)


if __name__ == "__main__":
    main(sys.argv[1:])
