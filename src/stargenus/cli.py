"""Command line interface.

Each command returns its answer, and `main` alone renders it: the text
lines, or under `--json` the one-line JSON payload, to stdout or to the
`-o` file.

Exit codes: 0 on success, 1 for clean negative answers (validation
violations, no source-sink orientation, not planar, check disagreement),
2 for input problems (unreadable or malformed files, unwritable output
paths, invalid graphs fed to pipeline commands, unknown fixture names or
fixtures `gen` cannot build such as `chain(0)`, an invalid `--cap`,
`STARGENUS_ORACLE_CAP` or `--max-nodes` value, oracle cap or search node
budget exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .chords import Chord, Triad
from .core_graph import (StarGraph, _int, double_cover, parse_stg, require_source_sink,
                         serialize_stg, validate)
from .errors import (DEFAULT_CAP, DEFAULT_MAX_NODES, InvalidGraphError,
                     NotSourceSinkError, OracleCapExceeded, SearchBudgetExceeded,
                     StgParseError)
from .genus import (build_pipeline, min_genus_of_pipeline, partition_genera,
                    planarity_of_pipeline, search_genus)

# numpy and the oracle, which needs it, are imported only by the commands
# that trace faces (`oracle`, `check`), so the pipeline commands start
# without them.


class _FileError(Exception):
    """A file that could not be read or written; `main` prints it, exit 2."""


def _load_graph(path: str) -> StarGraph:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError):  # the latter is a ValueError
        raise _FileError(f"cannot read {path}") from None
    return parse_stg(text)


def _write_output(path: str | None, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout when it is empty or None."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError:
        raise _FileError(f"cannot write {path}") from None


def _resolve_cap(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("STARGENUS_ORACLE_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = _int(env)
    except ValueError:
        raise ValueError(f"STARGENUS_ORACLE_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"STARGENUS_ORACLE_CAP must be at least 0, got {env!r}")
    return cap


def _int_at_least(low: int):
    """An argparse type accepting integers of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = _int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {low}, got {text!r}")
        return value
    return parse


def _witness_json(side: dict[int, object]) -> dict[str, object]:
    return {str(v): s for v, s in side.items()}


def _pairs(witness: dict[str, object]) -> str:
    return " ".join(f"{v}={s}" for v, s in witness.items())


# what each command returns: its exit code, its JSON payload (None for the
# commands without --json) and its text lines
_Answer = tuple[int, dict | None, list[str]]


def cmd_validate(args) -> _Answer:
    violations = validate(_load_graph(args.graph))
    return (1 if violations else 0, {"ok": not violations, "violations": violations},
            violations or ["ok"])


def cmd_orient(args) -> _Answer:
    direction = require_source_sink(_load_graph(args.graph)).direction.items()
    payload = {
        "source_sink": True,
        "orientation": {str(eid): [str(t), str(h)] for eid, (t, h) in direction},
    }
    return 0, payload, [f"e{eid}: {tail} -> {head}" for eid, (tail, head) in direction]


def cmd_cover(args) -> _Answer:
    return 0, None, serialize_stg(double_cover(_load_graph(args.graph))).splitlines()


def cmd_circuit(args) -> _Answer:
    pipe = build_pipeline(_load_graph(args.graph))
    lines = ["circuit: " + " ".join(f"e{eid}" for eid in pipe.circuit.edges)]
    lines += [f"class {v}: {pipe.classes[v].label()}" for v in pipe.classes]
    return 0, None, lines


def cmd_diagram(args) -> _Answer:
    star = build_pipeline(_load_graph(args.graph)).star_diagram
    lines = [f"circle: {star.n_points}"]
    for att in star.attachments:
        if isinstance(att, Chord):
            lines.append(f"chord {att.points[0]} {att.points[1]}")
        elif isinstance(att, Triad):
            shape = "crossed" if att.crossed else "flat"
            lines.append(f"triad {att.points[0]} {att.points[1]} {att.points[2]} {shape}")
        else:
            lines.append(f"dchord {att.principal}* {att.others[0]} {att.others[1]}")
    return 0, None, lines


def cmd_genus(args) -> _Answer:
    pipe = build_pipeline(_load_graph(args.graph))
    result = min_genus_of_pipeline(pipe, max_nodes=args.max_nodes)
    witness = _witness_json(result.witness.side)
    payload = {
        "source_sink": True,
        "n_vertices": pipe.graph.n_vertices,
        "n_chords": len(pipe.diagram.chords),
        "min_genus": result.min_genus,
        "ranks": list(result.ranks),
        "witness": witness,
    }
    return 0, payload, [f"min genus: {result.min_genus}",
                        f"ranks: {result.ranks[0]} {result.ranks[1]}",
                        "witness: " + _pairs(witness)]


def cmd_planar(args) -> _Answer:
    result = planarity_of_pipeline(build_pipeline(_load_graph(args.graph)))
    if result.planar:
        witness = _witness_json(result.witness or {})
        return (0, {"planar": True, "witness": witness},
                ["planar: yes", "witness: " + _pairs(witness)])
    conflict = list(result.conflict or ())
    return (1, {"planar": False, "conflict": conflict},
            ["planar: no", "conflict chords: " + " ".join(map(str, conflict))])


def cmd_oracle(args) -> _Answer:
    from .oracle import min_genus_bruteforce

    g = _load_graph(args.graph)
    genus, coloring = min_genus_bruteforce(g, cap=_resolve_cap(args))
    witness = _witness_json(coloring.bits)
    payload = {
        "source_sink": True,
        "n_vertices": g.n_vertices,
        "min_genus": genus,
        "witness": witness,
        "method": "bruteforce",
    }
    return 0, payload, [f"min genus: {genus}", "witness bits: " + _pairs(witness)]


def cmd_check(args) -> _Answer:
    import numpy as np

    from .oracle import coloring_flip, traced_genera

    pipe = build_pipeline(_load_graph(args.graph))
    # the oracle first: it refuses a graph over the cap at once, where the
    # search would refuse it only once its node budget ran out. It traces
    # the pipeline's orientation, the canonical one it would take itself.
    traced = traced_genera(pipe.graph, pipe.orientation, cap=_resolve_cap(args))
    # pass 1 of the search alone: check prints no witness, so it needs no
    # least one; the leaf pass 1 stopped at must trace to the same genus
    result = search_genus(pipe, max_nodes=DEFAULT_MAX_NODES)
    flip = coloring_flip(pipe)
    oracle_genus = int(traced.min())
    agree = result.min_genus == oracle_genus == int(traced[result.witness.code ^ flip])
    payload = {"min_genus": result.min_genus, "oracle_min_genus": oracle_genus,
               "agree": agree}
    lines = [f"genus: {result.min_genus}", f"oracle: {oracle_genus}",
             f"agree: {'yes' if agree else 'NO'}"]

    mismatches = 0
    if args.all_partitions:
        genera = partition_genera(pipe)
        codes = np.arange(len(genera))
        mismatches = int(np.count_nonzero(genera != traced[codes ^ flip]))
        payload["partitions_checked"] = len(genera)
        payload["partition_mismatches"] = mismatches
        lines.append(f"partitions: {len(genera)} checked, {mismatches} mismatches")
    return (0 if agree and mismatches == 0 else 1), payload, lines


def cmd_gen(args) -> _Answer:
    from . import fixtures

    return 0, None, serialize_stg(fixtures.by_name(args.name)).splitlines()


@functools.cache  # parsing leaves the parser as it was, so one serves every call
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
                                f"(default: env STARGENUS_ORACLE_CAP or {DEFAULT_CAP})")
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
    p_genus = add("genus", cmd_genus, "minimal genus over permissible partitions",
                  json_flag=True, threads=True)
    p_genus.add_argument("--max-nodes", type=_int_at_least(0), default=DEFAULT_MAX_NODES,
                         help=f"node budget for the search (default: {DEFAULT_MAX_NODES})")
    add("planar", cmd_planar, "planarity test with witness or conflict",
        json_flag=True)
    add("oracle", cmd_oracle, "brute-force minimal genus via face tracing",
        json_flag=True, threads=True, cap=True)
    p_check = add("check", cmd_check, "compare genus against the oracle",
                  json_flag=True, threads=True, cap=True)
    p_check.add_argument("--all-partitions", action="store_true",
                         help="also trace every partition's surface")
    p_gen = add("gen", cmd_gen, "emit a named fixture as .stg", graph=False, output=True)
    p_gen.add_argument("name", help="g8, gx, ghopf, gt3f, gt3c, chain(k) "
                                    "or random(seed,n4,n6)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code, payload, lines = args.func(args)
        except NotSourceSinkError:
            code, payload, lines = 1, {"source_sink": False}, ["not source-sink"]
        if getattr(args, "json", False):
            lines = [json.dumps(payload)]
        _write_output(getattr(args, "output", None), "".join(f"{line}\n" for line in lines))
        return code
    except StgParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidGraphError as exc:
        print("invalid graph:", file=sys.stderr)
        for line in exc.violations:
            print(f"  {line}", file=sys.stderr)
        return 2
    except (OracleCapExceeded, SearchBudgetExceeded) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except _FileError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
