"""The traced run: replay each query as the chain of public calls its
command makes, with one span per call, and derive per-layer metrics.

Spans are recorded from outside the program, around each public call.
They are kept in memory as [name, start, end, parent, query] and written
out when the run ends. Per query the tree is:

    query ─┬─ cli                        the real CLI call, untraced inside
           ├─ replay ─┬─ core_graph.*    mirrors what the CLI command does
           │          ├─ circuit.* ...
           │          └─ genus.sweep ── gf2.rank_pair, oracle.*   (--all-partitions)
           └─ extra ──┬─ genus.search_serial   the same search at threads=1
                      └─ gf2.rank_pair         re-checks the witness's ranks

cli.self_ms is the cli span minus the replay's direct children: the file
read, the CLI's own validation and output formatting. Because the two come
from separate executions of the same work it carries their noise, and can
read slightly negative where the layers dominate.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from stargenus import (Pipeline, build_star_chord_diagram, classify_vertices, expand,
                       find_rs_circuit, find_source_sink_orientation, intersection_matrix,
                       linked_pairs, parse_stg, trace_faces, validate)
from stargenus.genus import (enumerate_permissible_partitions, min_genus_of_pipeline,
                             partition_from_code, planarity_of_pipeline, rank_pair)
from stargenus.oracle import DEFAULT_CAP, coloring_of_partition, min_genus_bruteforce

# Spans that mirror the CLI's own work (children of "replay").
STAGES = ("core_graph.parse", "core_graph.validate", "core_graph.orient",
          "circuit.rs_circuit", "circuit.classify", "chords.star_diagram", "chords.expand",
          "chords.linked_pairs", "chords.matrix", "genus.search", "genus.planarity",
          "oracle.bruteforce", "genus.sweep")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}

    def open(self, name: str, query: str, parent: int | None) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, query])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()

    def call(self, name: str, query: str, parent: int, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append([name, start, perf_counter(), parent, query])
        return result

    def span_cost_s(self, calls: int = 2000, repeats: int = 5) -> float:
        """Median extra time one traced call costs over a plain call."""
        scratch = Tracer()

        def noop():
            return None

        costs = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            plain = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(calls):
                scratch.call("x", "q", 0, noop)
            costs.append((perf_counter() - t0 - plain) / calls)
            scratch.spans.clear()
        return statistics.median(costs)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write("name\tstart_s\tend_s\tparent\tquery\n")
            for name, start, end, parent, query in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")


def replay(tracer: Tracer, query: str, root: int, text: str, variant: tuple[str, ...],
           threads: int, planarity: bool = False) -> dict:
    """Replay one CLI query; returns the answers it found for checking."""
    cmd = variant[0]
    rep = tracer.open("replay", query, root)

    def call(name, fn, *args, **kwargs):
        return tracer.call(name, query, rep, fn, *args, **kwargs)

    g = call("core_graph.parse", parse_stg, text)
    if call("core_graph.validate", validate, g):
        raise ValueError("input does not validate")
    orientation = call("core_graph.orient", find_source_sink_orientation, g)
    stats: dict[str, int] = {}
    ts, circuit = call("circuit.rs_circuit", find_rs_circuit, g, orientation, stats=stats)
    classes = call("circuit.classify", classify_vertices, g, circuit)
    star = call("chords.star_diagram", build_star_chord_diagram, g, circuit, classes)
    diagram = call("chords.expand", expand, star)
    pairs = call("chords.linked_pairs", lambda d: tuple(linked_pairs(d)), diagram)
    matrix = call("chords.matrix", intersection_matrix, diagram, list(pairs))
    pipe = Pipeline(g, orientation, ts, circuit, classes, star, diagram, pairs, matrix)
    n = g.n_vertices
    counts = {"vertices": n, "initial_cycles": stats["initial_cycles"],
              "merge_steps": stats["merge_steps"], "n_chords": len(diagram.chords),
              "linked_pairs": len(pairs)}
    answers: dict = {}

    if cmd in ("genus", "check"):
        result = call("genus.search", min_genus_of_pipeline, pipe, threads=threads)
        answers["genus"] = result.min_genus
        counts["partitions"] = 1 << n
    if cmd == "planar" or planarity:
        planar = call("genus.planarity", planarity_of_pipeline, pipe)
        answers["planar"] = planar.planar
    if cmd == "check":
        answers["oracle"], _ = call("oracle.bruteforce", min_genus_bruteforce, g,
                                    cap=DEFAULT_CAP, threads=threads)
        counts["colourings"] = 1 << n
        if "--all-partitions" in variant:
            answers["sweep_mismatches"] = _sweep(tracer, query, rep, pipe)
    tracer.close(rep)

    extra = tracer.open("extra", query, root)
    if "genus" in answers:
        serial = tracer.call("genus.search_serial", query, extra, min_genus_of_pipeline,
                             pipe, threads=1)
        ranks = tracer.call("gf2.rank_pair", query, extra, rank_pair, matrix, serial.witness)
        answers["witness_ok"] = ranks == result.ranks and serial == result
    elif answers.get("planar"):
        vertices = sorted(g.vertices)
        code = int("".join("1" if planar.witness[v] == "B" else "0" for v in vertices), 2)
        partition = partition_from_code(diagram, vertices, code)
        answers["witness_ok"] = tracer.call("gf2.rank_pair", query, extra, rank_pair,
                                            matrix, partition) == (0, 0)
    tracer.close(extra)
    tracer.counts[query] = counts
    return answers


def _sweep(tracer: Tracer, query: str, parent: int, pipe) -> int:
    """The pointwise --all-partitions sweep; returns the mismatch count."""
    sweep = tracer.open("genus.sweep", query, parent)
    mismatches = 0
    for partition in enumerate_permissible_partitions(pipe.diagram):
        rw, rb = tracer.call("gf2.rank_pair", query, sweep, rank_pair, pipe.matrix, partition)
        colouring = tracer.call("oracle.coloring", query, sweep, coloring_of_partition,
                                pipe, partition)
        faces = tracer.call("oracle.trace_faces", query, sweep, trace_faces, pipe.graph,
                            pipe.orientation, colouring)
        if (rw + rb) // 2 != faces.genus:
            mismatches += 1
    tracer.close(sweep)
    return mismatches


# --- metrics ---------------------------------------------------------------------


def _layer_metrics(spans: list[list], counts: dict[str, dict[str, int]]) -> dict[str, float]:
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    out: dict[str, float] = {}

    def mean_ms(metric: str, *names: str) -> None:
        if names[0] in calls:
            out[metric] = 1e3 * sum(total.get(n, 0.0) for n in names) / calls[names[0]]

    def mean_count(metric: str, key: str) -> list[int]:
        values = [c[key] for c in counts.values() if key in c]
        if values:
            out[metric] = sum(values) / len(values)
        return values

    mean_ms("core_graph.parse_ms", "core_graph.parse")
    mean_ms("core_graph.validate_ms", "core_graph.validate")
    mean_ms("core_graph.orient_ms", "core_graph.orient")
    mean_ms("circuit.rs_circuit_ms", "circuit.rs_circuit")
    mean_ms("circuit.classify_ms", "circuit.classify")
    mean_count("circuit.initial_cycles", "initial_cycles")
    mean_count("circuit.merge_steps", "merge_steps")
    mean_ms("chords.diagram_ms", "chords.star_diagram", "chords.expand")
    mean_ms("chords.linked_pairs_ms", "chords.linked_pairs")
    mean_ms("chords.matrix_ms", "chords.matrix")
    mean_count("chords.n_chords", "n_chords")
    mean_count("chords.linked_pairs", "linked_pairs")
    mean_ms("genus.search_ms", "genus.search")
    mean_ms("genus.search_serial_ms", "genus.search_serial")
    partitions = mean_count("genus.partitions", "partitions")
    if "genus.search" in total:
        out["genus.pool_speedup"] = total["genus.search_serial"] / total["genus.search"]
        out["genus.us_per_partition"] = 1e6 * total["genus.search"] / sum(partitions)
    mean_ms("genus.planarity_ms", "genus.planarity")
    if "gf2.rank_pair" in calls:
        out["gf2.rank_pair_us"] = 1e6 * total["gf2.rank_pair"] / calls["gf2.rank_pair"]
    mean_ms("oracle.bruteforce_ms", "oracle.bruteforce")
    colourings = mean_count("oracle.colourings", "colourings")
    if "oracle.bruteforce" in total:
        out["oracle.us_per_colouring"] = 1e6 * total["oracle.bruteforce"] / sum(colourings)
    if "oracle.trace_faces" in calls:
        out["oracle.trace_faces_us"] = (1e6 * total["oracle.trace_faces"]
                                        / calls["oracle.trace_faces"])
    return out


# Counts computed from input sizes (2^n) rather than counted by the program.
COMPUTED = {"genus.partitions", "oracle.colourings"}


def per_layer(tracer: Tracer, span_cost_s: float) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics, and the names whose value came from the probe."""
    query_spans = [s for s in tracer.spans if s[4] != "probe"]
    query_counts = {q: c for q, c in tracer.counts.items() if q != "probe"}
    probe_spans = [s for s in tracer.spans if s[4] == "probe"]
    probe_counts = {q: c for q, c in tracer.counts.items() if q == "probe"}
    out = _layer_metrics(query_spans, query_counts)
    from_probe = set()
    for name, value in _layer_metrics(probe_spans, probe_counts).items():
        if name not in out:
            out[name] = value
            from_probe.add(name)

    children: dict[int, float] = {}   # replay span -> time of its layer spans
    cli_time: dict[int, float] = {}   # query span -> CLI call time
    replay_of: dict[int, int] = {}    # query span -> its replay span
    for index, (name, start, end, parent, _) in enumerate(tracer.spans):
        if name in STAGES:
            children[parent] = children.get(parent, 0.0) + (end - start)
        elif name == "cli":
            cli_time[parent] = end - start
        elif name == "replay":
            replay_of[parent] = index
    selfs = [cli_time[root] - children.get(replay_of[root], 0.0)
             for root in cli_time if root in replay_of]
    out["cli.self_ms"] = 1e3 * statistics.median(selfs)
    out["trace.overhead_pct"] = (100.0 * len(query_spans) * span_cost_s
                                 / sum(cli_time.values()))
    return out, from_probe


def self_times_ms(tracer: Tracer) -> dict[str, float]:
    """Per-layer self time per query over the replay subtrees: span time
    minus the time of its child spans."""
    child_time: dict[int, float] = {}
    in_replay: list[bool] = []
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        in_replay.append(name == "replay" or (parent is not None and in_replay[parent]))
    layers: dict[str, float] = {}
    for index, (name, start, end, _, query) in enumerate(tracer.spans):
        if query == "probe" or name == "replay" or not in_replay[index]:
            continue
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + (end - start) - child_time.get(index, 0.0)
    n_queries = sum(1 for q in tracer.counts if q != "probe")
    order = ("core_graph", "circuit", "chords", "gf2", "genus", "oracle")
    return {layer: 1e3 * layers[layer] / n_queries for layer in order if layer in layers}


def baseline_rows(tracer: Tracer, pins: dict) -> list[str]:
    """The ROADMAP baseline table rows this workload's traced run measures."""
    rows_by = {inst["id"]: inst for inst in pins["instances"]}
    by_query: dict[str, dict[str, float]] = {}
    for name, start, end, _, query in tracer.spans:
        if query == "probe":
            continue
        by_query.setdefault(query, {})
        by_query[query][name] = by_query[query].get(name, 0.0) + (end - start)
    rows = []
    searches: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for query, times in by_query.items():
        inst = rows_by[query.split(":")[1]]
        if "genus.search" in times:
            kind = "cover" if inst["spec"]["kind"] == "cover" else "chain"
            searches.setdefault((kind, inst["vertices"]), []).append(
                (times["genus.search"], times["genus.search_serial"]))
    for (kind, n), pairs in sorted(searches.items()):
        default = sum(p[0] for p in pairs)
        serial = sum(p[1] for p in pairs)
        per = 1e6 / (len(pairs) << n)
        rows.append(f"| genus scan, {kind} n={n} ({len(pairs)} queries) | "
                    f"serial {serial / len(pairs):.3f} s, {serial * per:.1f} µs/partition; "
                    f"default threads {default / len(pairs):.3f} s, "
                    f"{default * per:.1f} µs/partition; pool speedup {serial / default:.2f} |")
    largest: dict[str, tuple[int, str]] = {}
    for query, times in by_query.items():
        inst = rows_by[query.split(":")[1]]
        if "genus.planarity" in times:
            kind = inst["spec"]["kind"]
            if inst["vertices"] > largest.get(kind, (0, ""))[0]:
                largest[kind] = (inst["vertices"], query)
    for kind, (n, query) in sorted(largest.items()):
        inst = rows_by[query.split(":")[1]]
        t = by_query[query]
        stages = " · ".join(f"{name.split('.')[1]} {t[name]:.3f} s" for name in STAGES
                            if name in t)
        rows.append(f"| planar, {inst['id']} ({n} vertices, {inst['linked_pairs']} linked "
                    f"pairs) | {stages} · CLI total {t['cli']:.3f} s |")
    return rows
