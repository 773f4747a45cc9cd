"""stargenus CLI benchmark.

    python3 perfbench/run.py --workload genus-small --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all       # every workload, untraced then traced

One process per workload, one client, one query at a time (a closed loop).
Each query calls stargenus.cli.main(argv) in-process with default flags, so
--threads is the CLI default (all cores). Queries run in rounds; each round
queries every slot of the workload once (see workloads.py), and the run
measures whole rounds until --seconds have passed (at least two rounds).
Every query's exit code and stdout SHA-256 are checked against the pins in
pins/<workload>.json.

--trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
also replays every query as spans around the public calls of each layer
(see tracing.py) and prints the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (WORKLOADS, Schedule, cover_text, load_pins, sha256, variant_key,
                       write_inputs)

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent

MIN_ROUNDS = 2
SETUP_REPEATS = 3
NO_NEW_ROUND_AFTER_S = 110.0  # since process start; a round takes at most ~25 s
HARD_LIMIT_S = 170.0          # since process start; a query still running then fails

END_TO_END = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "queries_per_s": "1/s",
    "success_rate": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "core_graph.parse_ms": "ms", "core_graph.validate_ms": "ms", "core_graph.orient_ms": "ms",
    "circuit.rs_circuit_ms": "ms", "circuit.classify_ms": "ms",
    "circuit.initial_cycles": "count", "circuit.merge_steps": "count",
    "chords.diagram_ms": "ms", "chords.linked_pairs_ms": "ms", "chords.matrix_ms": "ms",
    "chords.n_chords": "count", "chords.linked_pairs": "count",
    "genus.search_ms": "ms", "genus.search_serial_ms": "ms", "genus.pool_speedup": "ratio",
    "genus.partitions": "count", "genus.us_per_partition": "us", "genus.planarity_ms": "ms",
    "gf2.rank_pair_us": "us",
    "oracle.bruteforce_ms": "ms", "oracle.colourings": "count",
    "oracle.us_per_colouring": "us", "oracle.trace_faces_us": "us",
    "cli.self_ms": "ms", "trace.overhead_pct": "%",
}


class Run:
    """Counters of one run, shared with the watchdog that can end it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def abort(self, what: str, limit: float) -> None:
        """A query outlived its limit: report the run as failed and exit.

        The query runs in this process and cannot be interrupted, so the
        whole run ends here instead of hanging."""
        result = {"correct": False, "attempted": self.attempted + 1,
                  "failed": self.failed + 1, "metrics": {}}
        os.write(2, f"FAIL {what}: exceeded its {limit:.0f} s limit\n".encode())
        os.write(1, (json.dumps(result) + "\n").encode())
        shutil.rmtree(self.workdir, ignore_errors=True)
        os._exit(1)

    @contextlib.contextmanager
    def watchdog(self, what: str, limit: float):
        limit = min(limit, HARD_LIMIT_S - (time.perf_counter() - PROCESS_START))
        timer = threading.Timer(max(limit, 0.0), self.abort, (what, limit))
        timer.daemon = True
        timer.start()
        try:
            yield
        finally:
            timer.cancel()


def call_cli(cli, argv: list[str]) -> tuple[object, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing query is a failed query, not a crashed run
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import stargenus.cli; print(time.perf_counter() - t)")


def import_seconds(first: float) -> float:
    """Median of this process's import of stargenus and fresh imports in
    SETUP_REPEATS - 1 child processes, each waited for."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def setup(workload, workdir: Path) -> tuple[dict, dict, float]:
    """Load the pins and write every pool instance; median of a few repeats."""
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pins = load_pins(workload.name)
        directory = workdir / f"inputs{rep}"
        directory.mkdir(parents=True)
        paths = write_inputs(pins, directory)
        times.append(time.perf_counter() - t0)
    return pins, paths, statistics.median(times)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(args, workload, cli, pins, paths, run: Run, tracer=None):
    """Run whole rounds for args.seconds; returns per-query records."""
    from tracing import replay  # imports stargenus, so only after the import check

    answers = {inst["id"]: inst for inst in pins["instances"]}
    schedule = Schedule(workload, pins, args.seed)
    threads = os.cpu_count() or 1
    records = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - PROCESS_START > NO_NEW_ROUND_AFTER_S:
            break
        for inst_id, variant in schedule.next_round():
            query = f"q{len(records)}:{inst_id}:{variant_key(variant)}"
            argv = [*variant, str(paths[inst_id])]
            pin = answers[inst_id]["answers"][variant_key(variant)]
            run.attempted += 1
            root = tracer.open("query", query, None) if tracer else None
            with run.watchdog(query, workload.query_limit_s):
                t0 = time.perf_counter()
                code, out = call_cli(cli, argv)
                seconds = time.perf_counter() - t0
            if tracer:
                tracer.spans.append(["cli", t0, t0 + seconds, root, query])
            ok = code == pin["exit"] and sha256(out) == pin["stdout_sha256"]
            if tracer:
                with run.watchdog(query + " (replay)", 3 * workload.query_limit_s):
                    try:
                        found = replay(tracer, query, root, paths[inst_id].read_text(),
                                       variant, threads)
                    except Exception as exc:  # counted as a failed query
                        found = {"error": repr(exc)}
                tracer.close(root)
                ok = ok and replay_agrees(found, answers[inst_id])
            if not ok:
                run.failed += 1
                run.failures.append(f"{query}: exit {code!r} (pinned {pin['exit']}), "
                                    f"stdout digest {sha256(out)[:12]} "
                                    f"(pinned {pin['stdout_sha256'][:12]})")
            records.append((inst_id, variant, seconds, ok))
        rounds += 1
    return records, rounds, time.perf_counter() - start


def replay_agrees(found: dict, inst: dict) -> bool:
    checks = ["error" not in found, found.get("witness_ok", True),
              found.get("sweep_mismatches", 0) == 0]
    if "genus" in found:
        checks.append(found["genus"] == inst["genus"])
    if "oracle" in found:
        checks.append(found["oracle"] == inst["genus"])
    if "planar" in found:
        checks.append(found["planar"] == inst["planar"])
    return all(checks)


def probe(tracer, run: Run) -> None:
    """Replay check --all-partitions and planarity on one fixed 10-vertex
    cover, so that layers the workload's queries never call are measured
    too. Their metrics are marked (probe)."""
    from tracing import replay

    run.attempted += 1
    root = tracer.open("query", "probe", None)
    with run.watchdog("probe", 60.0):
        try:
            found = replay(tracer, "probe", root, cover_text(3, 2, 0),
                           ("check", "--all-partitions"), os.cpu_count() or 1, planarity=True)
        except Exception as exc:  # counted as a failure
            found = {"error": repr(exc)}
    tracer.close(root)
    consistent = ("error" not in found and found["genus"] == found["oracle"]
                  and found["sweep_mismatches"] == 0 and found["witness_ok"]
                  and found["planar"] == (found["genus"] == 0))
    if not consistent:
        run.failed += 1
        run.failures.append(f"probe: {found}")


def report(name: str, value: float, note: str = "") -> dict:
    unit = END_TO_END.get(name) or PER_LAYER[name]
    print(f"  {name:28s} {value:14.4f} {unit:6s} {note}".rstrip())
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        from stargenus import cli
    except ImportError as exc:
        print(f"cannot import stargenus from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"stargenus was imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = import_seconds(time.perf_counter() - t0)

    workdir = ROOT / ".perfbench" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    run = Run(workdir)
    try:
        pins, paths, setup_s = setup(workload, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        records, rounds, elapsed = measure(args, workload, cli, pins, paths, run, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = [1e3 * r[2] for r in records]
    correct = sum(1 for r in records if r[3])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}: "
          f"{len(records)} queries in {rounds} rounds, {elapsed:.1f} s, "
          f"cli threads {os.cpu_count() or 1}")
    print(f"  why: {workload.why}")
    manifest = {inst["id"]: inst for inst in pins["instances"]}
    coupled = sum(1 for r in records if manifest[r[0]]["components"] > 1)
    planar = sum(1 for r in records if manifest[r[0]]["planar"])
    print(f"  manifest: {coupled} of {len(records)} queries on inputs with more than one "
          f"constraint component, {planar} of {len(records)} on planar inputs")
    metrics = {}
    if not args.trace:
        value, beyond = percentile(latencies, workload.tail_pct)
        metrics["latency_p50_ms"] = report("latency_p50_ms", statistics.median(latencies),
                                           f"({len(latencies)} samples)")
        metrics["latency_tail_ms"] = report(
            "latency_tail_ms", value,
            f"(p{workload.tail_pct:g}: {len(latencies)} samples, {beyond} beyond)")
        metrics["queries_per_s"] = report("queries_per_s", correct / elapsed)
        metrics["success_rate"] = report("success_rate", correct / len(records),
                                         f"(error_rate {1 - correct / len(records):.4f}: "
                                         f"{len(records) - correct} of {len(records)} failed)")
        metrics["peak_rss_mb"] = report("peak_rss_mb", peak_rss_mb)
        metrics["setup_s"] = report("setup_s", import_s + setup_s,
                                    f"(medians of {SETUP_REPEATS}: import {import_s:.3f} s + "
                                    f"input set-up {setup_s:.3f} s)")
    else:
        from tracing import COMPUTED, baseline_rows, per_layer, self_times_ms
        probe(tracer, run)
        values, from_probe = per_layer(tracer, tracer.span_cost_s())
        for name in PER_LAYER:
            note = []
            if name in from_probe:
                note.append("(probe: no query of this workload calls it)")
            if name in COMPUTED:
                note.append("(computed from sizes)")
            metrics[name] = report(name, values[name], " ".join(note))
        selfs = self_times_ms(tracer)
        print("  self time per query in the replay (share of the replayed layers):")
        for layer, ms in selfs.items():
            print(f"    {layer:12s} {ms:12.3f} ms {100 * ms / sum(selfs.values()):6.1f} %")
        print(f"    {'cli':12s} {values['cli.self_ms']:12.3f} ms (median of cli minus layers)")
        for row in baseline_rows(tracer, pins):
            print("  table " + row)
        out = ROOT / ".perfbench" / f"trace-{workload.name}-s{args.seed}.tsv"
        tracer.dump(out)
        print(f"  {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    for line in run.failures[:20]:
        print(f"  FAIL {line}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = []
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            summary.append((name, trace, proc.returncode, result))
    print("summary:")
    ok = True
    for name, trace, code, result in summary:
        ok = ok and code == 0 and result["correct"]
        print(f"  {name:13s} trace {trace}: exit {code}, correct {result['correct']}, "
              f"{result.get('failed')} of {result.get('attempted')} failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
