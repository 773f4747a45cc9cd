"""Command line interface.

Exit codes: 0 on success, 1 for clean negative answers (validation
violations, no source-sink orientation, not planar, check disagreement),
2 for input problems (unreadable or malformed files, invalid graphs fed to
pipeline commands, unknown fixture names, oracle cap exceeded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fixtures
from .chords import Chord, Triad
from .core_graph import (StarGraph, double_cover, parse_stg, require_source_sink,
                         serialize_stg, validate)
from .errors import (InvalidGraphError, NotSourceSinkError, OracleCapExceeded,
                     StgParseError)
from .genus import (build_pipeline, min_genus_of_pipeline, partition_genera,
                    planarity_of_pipeline)
from .oracle import DEFAULT_CAP, coloring_flip, min_genus_bruteforce, traced_genera


def _load_graph(path: str) -> StarGraph:
    return parse_stg(Path(path).read_text())


def _resolve_cap(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("STARGENUS_ORACLE_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"STARGENUS_ORACLE_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"STARGENUS_ORACLE_CAP must be at least 0, got {env!r}")
    return cap


def _int_at_least(low: int):
    """An argparse type accepting integers of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {low}, got {text!r}")
        return value
    return parse


def _witness_json(side: dict[int, str]) -> dict[str, str]:
    return {str(v): side[v] for v in sorted(side)}


def _print_not_source_sink(as_json: bool) -> int:
    if as_json:
        print(json.dumps({"source_sink": False}))
    else:
        print("not source-sink")
    return 1


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    violations = validate(g)
    if args.json:
        print(json.dumps({"ok": not violations, "violations": violations}))
    else:
        if violations:
            for line in violations:
                print(line)
        else:
            print("ok")
    return 1 if violations else 0


def cmd_orient(args) -> int:
    orientation = require_source_sink(_load_graph(args.graph))
    if args.json:
        payload = {
            "source_sink": True,
            "orientation": {str(eid): [str(t), str(h)]
                            for eid, (t, h) in sorted(orientation.direction.items())},
        }
        print(json.dumps(payload))
    else:
        for eid in sorted(orientation.direction):
            tail, head = orientation.direction[eid]
            print(f"e{eid}: {tail} -> {head}")
    return 0


def cmd_cover(args) -> int:
    g = _load_graph(args.graph)
    text = serialize_stg(double_cover(g))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_circuit(args) -> int:
    pipe = build_pipeline(_load_graph(args.graph))
    print("circuit: " + " ".join(f"e{eid}" for eid in pipe.circuit.edges))
    for v in sorted(pipe.classes):
        print(f"class {v}: {pipe.classes[v].label()}")
    return 0


def cmd_diagram(args) -> int:
    pipe = build_pipeline(_load_graph(args.graph))
    star = pipe.star_diagram
    print(f"circle: {star.n_points}")
    for att in star.attachments:
        if isinstance(att, Chord):
            print(f"chord {att.points[0]} {att.points[1]}")
        elif isinstance(att, Triad):
            shape = "crossed" if att.crossed else "flat"
            print(f"triad {att.points[0]} {att.points[1]} {att.points[2]} {shape}")
        else:
            print(f"dchord {att.principal}* {att.others[0]} {att.others[1]}")
    return 0


def cmd_genus(args) -> int:
    pipe = build_pipeline(_load_graph(args.graph))
    result = min_genus_of_pipeline(pipe)
    if args.json:
        payload = {
            "source_sink": True,
            "n_vertices": pipe.graph.n_vertices,
            "n_chords": len(pipe.diagram.chords),
            "min_genus": result.min_genus,
            "ranks": list(result.ranks),
            "witness": _witness_json(result.witness.side),
        }
        print(json.dumps(payload))
    else:
        print(f"min genus: {result.min_genus}")
        print(f"ranks: {result.ranks[0]} {result.ranks[1]}")
        print("witness: " + " ".join(f"{v}={result.witness.side[v]}"
                                     for v in sorted(result.witness.side)))
    return 0


def cmd_planar(args) -> int:
    pipe = build_pipeline(_load_graph(args.graph))
    result = planarity_of_pipeline(pipe)
    if args.json:
        if result.planar:
            print(json.dumps({"planar": True, "witness": _witness_json(result.witness or {})}))
        else:
            print(json.dumps({"planar": False, "conflict": list(result.conflict or ())}))
    else:
        if result.planar:
            print("planar: yes")
            side = result.witness or {}
            print("witness: " + " ".join(f"{v}={side[v]}" for v in sorted(side)))
        else:
            print("planar: no")
            print("conflict chords: " + " ".join(str(c) for c in result.conflict or ()))
    return 0 if result.planar else 1


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    genus, coloring = min_genus_bruteforce(g, cap=_resolve_cap(args))
    if args.json:
        payload = {
            "source_sink": True,
            "n_vertices": g.n_vertices,
            "min_genus": genus,
            "witness": {str(v): coloring.bits[v] for v in sorted(coloring.bits)},
            "method": "bruteforce",
        }
        print(json.dumps(payload))
    else:
        print(f"min genus: {genus}")
        print("witness bits: " + " ".join(f"{v}={coloring.bits[v]}"
                                          for v in sorted(coloring.bits)))
    return 0


def cmd_check(args) -> int:
    pipe = build_pipeline(_load_graph(args.graph))
    result = min_genus_of_pipeline(pipe)
    traced = traced_genera(pipe.graph, cap=_resolve_cap(args))
    oracle_genus = int(traced.min())
    agree = result.min_genus == oracle_genus

    checked = mismatches = 0
    if args.all_partitions:
        genera = partition_genera(pipe)
        checked = len(genera)
        codes = np.arange(checked)
        mismatches = int(np.count_nonzero(genera != traced[codes ^ coloring_flip(pipe)]))

    ok = agree and mismatches == 0
    if args.json:
        payload = {"min_genus": result.min_genus, "oracle_min_genus": oracle_genus,
                   "agree": agree}
        if args.all_partitions:
            payload["partitions_checked"] = checked
            payload["partition_mismatches"] = mismatches
        print(json.dumps(payload))
    else:
        print(f"genus: {result.min_genus}")
        print(f"oracle: {oracle_genus}")
        print(f"agree: {'yes' if agree else 'NO'}")
        if args.all_partitions:
            print(f"partitions: {checked} checked, {mismatches} mismatches")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    g = fixtures.by_name(args.name)
    text = serialize_stg(g)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stargenus",
        description="Minimal genus of orientable checkerboard embeddings of "
                    "4/6-valent star graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, graph=True, json_flag=False, threads=False,
            cap=False, output=False):
        p = sub.add_parser(name, help=help_text)
        if graph:
            p.add_argument("graph", help="path to a .stg file")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")
        if threads:
            p.add_argument("--threads", type=_int_at_least(1), default=None,
                           help="accepted for compatibility; changes nothing, "
                                "since the genus search and the oracle are serial")
        if cap:
            p.add_argument("--cap", type=_int_at_least(0), default=None,
                           help="vertex cap for brute-force enumeration "
                                "(default: env STARGENUS_ORACLE_CAP or 20)")
        if output:
            p.add_argument("-o", "--output", default=None, help="write to file")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check structural validity", json_flag=True)
    add("orient", cmd_orient, "print the canonical source-sink orientation",
        json_flag=True)
    add("cover", cmd_cover, "write the parity double cover as .stg", output=True)
    add("circuit", cmd_circuit, "print the rotating-splitting Euler circuit")
    add("diagram", cmd_diagram, "print the star chord diagram")
    add("genus", cmd_genus, "minimal genus over permissible partitions",
        json_flag=True, threads=True)
    add("planar", cmd_planar, "planarity test with witness or conflict",
        json_flag=True)
    add("oracle", cmd_oracle, "brute-force minimal genus via face tracing",
        json_flag=True, threads=True, cap=True)
    p_check = add("check", cmd_check, "compare genus against the oracle",
                  json_flag=True, threads=True, cap=True)
    p_check.add_argument("--all-partitions", action="store_true",
                         help="also trace every partition's surface")
    p_gen = sub.add_parser("gen", help="emit a named fixture as .stg")
    p_gen.add_argument("name", help="g8, gx, ghopf, gt3f, gt3c, chain(k) "
                                    "or random(seed,n4,n6)")
    p_gen.add_argument("-o", "--output", default=None, help="write to file")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotSourceSinkError:
        return _print_not_source_sink(getattr(args, "json", False))
    except StgParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidGraphError as exc:
        print("invalid graph:", file=sys.stderr)
        for line in exc.violations:
            print(f"  {line}", file=sys.stderr)
        return 2
    except OracleCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
