"""End-to-end command line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
import time

import pytest

from stargenus import cli, core_graph
from stargenus.cli import build_parser, main
from stargenus.core_graph import double_cover, parse_stg, serialize_stg, validate
from stargenus.errors import DEFAULT_MAX_NODES
from stargenus.fixtures import chain, ghopf, gt3c, random_star_graph
from stargenus import genus
from stargenus.genus import build_pipeline, min_genus, partition_from_code, search_genus
from stargenus.oracle import oracle_min_genus


@pytest.fixture()
def stg(tmp_path):
    def write(name: str, graph_or_text) -> str:
        text = graph_or_text if isinstance(graph_or_text, str) \
            else serialize_stg(graph_or_text)
        path = tmp_path / f"{name}.stg"
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within(seconds, capsys, *argv):
    """`run`, failing with TimeoutError instead of hanging past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- gen and validate ------------------------------------------------------

def test_gen_writes_canonical_text(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "ghopf")
    assert code == 0
    assert out == serialize_stg(ghopf())

    target = tmp_path / "x.stg"
    code, out, _ = run(capsys, "gen", "chain(4)", "-o", str(target))
    assert code == 0 and out == ""
    assert parse_stg(target.read_text()) == chain(4)


def test_gen_unknown_fixture(capsys):
    # numbers in a fixture expression are ASCII decimal, and its blanks are
    # spaces and tabs alone, as in .stg files
    for name in ("nope", "chain(\u0661\u0662)", "\u3000g8", "chain(\u30003)", "chain(\x0b3)",
                 "chain(\n3)", "\x0cg8", "random(1,\r2,3)"):
        code, _, err = run(capsys, "gen", name)
        assert code == 2
        assert "unknown fixture" in err


def test_validate_ok(capsys, stg):
    code, out, _ = run(capsys, "validate", stg("h", ghopf()))
    assert (code, out) == (0, "ok\n")


def test_validate_reports_violations(capsys, stg):
    path = stg("bad", "stargraph 1 1\nvertex 0 4\nedge 0 0.0 0.1\n")
    assert run(capsys, "validate", path) == \
        (1, "slot 0.2 never covered\nslot 0.3 never covered\n", "")
    assert run(capsys, "validate", path, "--json") == (1, (
        '{"ok": false, "violations": ["slot 0.2 never covered", "slot 0.3 never covered"]}\n'),
        "")

    path = stg("deg5", "stargraph 1 0\nvertex 0 5\n")
    assert run(capsys, "validate", path, "--json") == \
        (1, '{"ok": false, "violations": ["vertex 0 bad degree 5"]}\n', "")


def test_parse_error_exit_2(capsys, stg):
    code, _, err = run(capsys, "validate", stg("junk", "what\n"))
    assert code == 2
    assert "line 1" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "genus", "/no/such/file.stg")
    assert code == 2
    assert "cannot read" in err


def test_unreadable_input_exit_2(capsys, tmp_path):
    # a directory is no file, and a file that is not UTF-8 is no text: any
    # read failure is an input problem, not a crash
    binary = tmp_path / "bin.stg"
    binary.write_bytes(b"\xffstargraph 1 1\n")
    for path in (tmp_path, binary):
        for cmd in ("validate", "genus", "check"):
            assert run(capsys, cmd, str(path)) == (2, "", f"cannot read {path}\n"), (cmd, path)


def test_unwritable_output_exit_2(capsys, stg, tmp_path):
    source = stg("h", ghopf())
    for target in (tmp_path, tmp_path / "no" / "such.stg"):
        for argv in (["gen", "g8"], ["cover", source]):
            assert run(capsys, *argv, "-o", str(target)) == \
                (2, "", f"cannot write {target}\n"), (argv, target)
    assert not (tmp_path / "no").exists()


def test_invalid_graph_into_pipeline_exit_2(capsys, stg):
    path = stg("bad", "stargraph 1 1\nvertex 0 4\nedge 0 0.0 0.1\n")
    for cmd in ("orient", "circuit", "diagram", "genus", "planar", "oracle", "check"):
        code, _, err = run(capsys, cmd, path)
        assert code == 2, cmd
        assert "invalid graph" in err
    # validation comes before the cap, which at 0 refuses every graph
    for cmd in ("oracle", "check"):
        code, out, err = run(capsys, cmd, path, "--cap", "0")
        assert (code, out) == (2, ""), cmd
        assert err.startswith("invalid graph:\n"), cmd


# --- orient and cover ------------------------------------------------------

def test_orient_frozen(capsys, stg):
    path = stg("h", ghopf())
    code, out, _ = run(capsys, "orient", path)
    assert code == 0
    assert out == ("e0: 0.0 -> 1.2\n"
                   "e1: 1.3 -> 0.1\n"
                   "e2: 0.2 -> 1.0\n"
                   "e3: 1.1 -> 0.3\n")

    assert run(capsys, "orient", path, "--json") == (0, (
        '{"source_sink": true, "orientation": {"0": ["0.0", "1.2"], "1": ["1.3", "0.1"], '
        '"2": ["0.2", "1.0"], "3": ["1.1", "0.3"]}}\n'), "")


@pytest.mark.parametrize("command", ["orient", "circuit", "diagram", "genus",
                                     "planar", "oracle", "check"])
def test_not_source_sink(capsys, stg, command):
    path = stg("gx", "stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.2\nedge 1 0.1 0.3\n")
    code, out, _ = run(capsys, command, path)
    assert (code, out) == (1, "not source-sink\n")
    if command not in ("circuit", "diagram"):  # the commands without --json
        code, out, _ = run(capsys, command, path, "--json")
        assert (code, out) == (1, '{"source_sink": false}\n')
    if command in ("oracle", "check"):  # orienting comes before the cap, which refuses all at 0
        assert run(capsys, command, path, "--cap", "0") == (1, "not source-sink\n", "")
        assert run(capsys, command, path, "--cap", "0", "--json") == \
            (1, '{"source_sink": false}\n', "")


def test_cover_round_trips(capsys, stg, tmp_path):
    path = stg("gx", "stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.2\nedge 1 0.1 0.3\n")
    code, out, _ = run(capsys, "cover", path)
    assert code == 0
    cov = parse_stg(out)
    assert validate(cov) == []

    target = tmp_path / "cov.stg"
    code, _, _ = run(capsys, "cover", path, "-o", str(target))
    assert code == 0
    assert parse_stg(target.read_text()) == cov
    # an empty -o names no file: the text goes to stdout
    assert run(capsys, "cover", path, "-o", "") == (0, target.read_text(), "")

    # the cover is orientable, so the genus command accepts it
    code, out, _ = run(capsys, "genus", str(target))
    assert code == 0
    assert "min genus: 0" in out


# --- circuit and diagram ---------------------------------------------------

def test_circuit_output(capsys, stg):
    code, out, _ = run(capsys, "circuit", stg("h", ghopf()))
    assert code == 0
    assert out == ("circuit: e0 e1 e2 e3\n"
                   "class 0: rotating4\n"
                   "class 1: rotating4\n")


def test_diagram_output(capsys, stg):
    code, out, _ = run(capsys, "diagram", stg("t", gt3c()))
    assert code == 0
    assert out == "circle: 3\ntriad 0 1 2 crossed\n"

    code, out, _ = run(capsys, "diagram", stg("h", ghopf()))
    assert out == "circle: 4\nchord 0 2\nchord 1 3\n"


# --- genus, planar, oracle, check ------------------------------------------

def test_genus_text_and_json(capsys, stg):
    path = stg("h", ghopf())
    code, out, _ = run(capsys, "genus", path)
    assert code == 0
    assert out == "min genus: 0\nranks: 0 0\nwitness: 0=W 1=B\n"

    assert run(capsys, "genus", path, "--json") == (0, (
        '{"source_sink": true, "n_vertices": 2, "n_chords": 2, "min_genus": 0, '
        '"ranks": [0, 0], "witness": {"0": "W", "1": "B"}}\n'), "")

    # the 16-vertex cover of random(1,4,4): the first leaf of genus 6 that
    # the search meets has code 28672, and the least witness code 5256
    path = stg("c", double_cover(random_star_graph(1, 4, 4)))
    assert run(capsys, "genus", path) == (0, (
        "min genus: 6\nranks: 10 2\nwitness: 0=W 1=W 2=W 3=B 4=W 5=B 6=W 7=W 8=B 9=W "
        "10=W 11=W 12=B 13=W 14=W 15=W\n"), "")
    assert run(capsys, "genus", path, "--json") == (0, (
        '{"source_sink": true, "n_vertices": 16, "n_chords": 24, "min_genus": 6, '
        '"ranks": [10, 2], "witness": {"0": "W", "1": "W", "2": "W", "3": "B", "4": "W", '
        '"5": "B", "6": "W", "7": "W", "8": "B", "9": "W", "10": "W", "11": "W", "12": "B", '
        '"13": "W", "14": "W", "15": "W"}}\n'), "")

    # the cover of random(28,3,3): three components, two of them single
    # vertices, and flip symmetries with pivots inside the first (positions
    # 2, 8 and 9), which the search places on W alone, as the least witness
    # has them
    path = stg("c28", double_cover(random_star_graph(28, 3, 3)))
    assert run(capsys, "genus", path) == (0, (
        "min genus: 3\nranks: 4 2\nwitness: 0=W 1=W 2=W 3=B 4=W 5=W 6=W 7=W 8=W 9=W "
        "10=W 11=B\n"), "")


@pytest.mark.parametrize("k", [40, 1500])
def test_genus_on_long_chains_is_bounded(capsys, stg, k):
    # chain(40) was a 2^40 scan; chain(1500) is deeper than the default
    # recursion limit
    path = stg("c", chain(k))
    start = time.perf_counter()
    code, out, _ = run_within(10, capsys, "genus", path)
    assert time.perf_counter() - start < 10
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "min genus: 0"
    assert lines[2] == "witness: " + " ".join(f"{v}=W" for v in range(k))


@pytest.mark.parametrize("index,genus", [(0, 8), (1, 7), (2, 7)])
def test_genus_on_20_vertex_covers_is_bounded(capsys, stg, seeded_covers, index, genus):
    # genus 7-8 on 20 vertices: the search's pruning must keep these far
    # inside the guard (each takes well under 0.1 s)
    g = seeded_covers((10, 10, 10))[index]
    assert g.n_vertices == 20
    code, out, _ = run_within(10, capsys, "genus", stg("c", g))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"min genus: {genus}"
    assert len(lines[2].split()) == 1 + 20


def test_planar_exits(capsys, stg):
    path = stg("h", ghopf())
    assert run(capsys, "planar", path) == (0, "planar: yes\nwitness: 0=W 1=B\n", "")
    assert run(capsys, "planar", path, "--json") == \
        (0, '{"planar": true, "witness": {"0": "W", "1": "B"}}\n', "")

    path = stg("t", gt3c())
    assert run(capsys, "planar", path) == (1, "planar: no\nconflict chords: 0 1\n", "")
    assert run(capsys, "planar", path, "--json") == \
        (1, '{"planar": false, "conflict": [0, 1]}\n', "")

    # the 16-vertex cover of random(2,8,0): a five-chord certificate, in
    # the order of the breadth-first search that finds it
    path = stg("c", double_cover(random_star_graph(2, 8, 0)))
    assert run(capsys, "planar", path) == \
        (1, "planar: no\nconflict chords: 4 1 2 0 10\n", "")
    assert run(capsys, "planar", path, "--json") == \
        (1, '{"planar": false, "conflict": [4, 1, 2, 0, 10]}\n', "")


def test_oracle_json(capsys, stg):
    path = stg("t", gt3c())
    assert run(capsys, "oracle", path) == (0, "min genus: 1\nwitness bits: 0=0\n", "")
    assert run(capsys, "oracle", path, "--json") == (0, (
        '{"source_sink": true, "n_vertices": 1, "min_genus": 1, "witness": {"0": 0}, '
        '"method": "bruteforce"}\n'), "")
    assert run(capsys, "oracle", stg("h", ghopf()), "--json") == (0, (
        '{"source_sink": true, "n_vertices": 2, "min_genus": 0, "witness": {"0": 0, "1": 0}, '
        '"method": "bruteforce"}\n'), "")


def test_oracle_at_the_default_cap_is_bounded(capsys, stg, seeded_covers):
    # 2^20 colourings, the most the default cap allows
    g = seeded_covers((10,))[0]
    assert g.n_vertices == 20
    code, out, _ = run_within(10, capsys, "oracle", stg("c", g))
    assert code == 0
    assert out.splitlines()[0] == "min genus: 8"
    assert min_genus(g).min_genus == 8


def test_oracle_cap_flag_and_env(capsys, stg, monkeypatch):
    path = stg("h", ghopf())
    code, _, err = run(capsys, "oracle", path, "--cap", "1")
    assert code == 2
    assert "cap" in err

    monkeypatch.setenv("STARGENUS_ORACLE_CAP", "1")
    code, _, err = run(capsys, "oracle", path)
    assert code == 2

    # explicit flag beats the environment
    code, out, _ = run(capsys, "oracle", path, "--cap", "5")
    assert code == 0
    assert "min genus: 0" in out


def test_oracle_cap_env_must_be_an_integer(capsys, stg, monkeypatch):
    monkeypatch.setenv("STARGENUS_ORACLE_CAP", "abc")
    path = stg("h", ghopf())
    for cmd in ("oracle", "check"):
        code, out, err = run(capsys, cmd, path)
        assert (code, out) == (2, ""), cmd
        assert err == "STARGENUS_ORACLE_CAP must be an integer, got 'abc'\n"


@pytest.mark.parametrize("cmd", ["oracle", "check"])
def test_cap_below_zero_rejected(capsys, stg, monkeypatch, cmd):
    path = stg("h", ghopf())
    # flags take ASCII decimal, as .stg files do
    for value in ("-1", "x", "1_0", "\u0661\u0660", " 7"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path, "--cap", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --cap: must be an integer of at least 0, got '{value}'" in err

    for value, message in (("-1", "must be at least 0"), ("2_0", "must be an integer")):
        monkeypatch.setenv("STARGENUS_ORACLE_CAP", value)
        code, out, err = run(capsys, cmd, path)
        assert (code, out) == (2, "")
        assert err == f"STARGENUS_ORACLE_CAP {message}, got '{value}'\n"

    # zero is a valid cap that refuses every graph
    code, _, err = run(capsys, cmd, path, "--cap", "0")
    assert code == 2
    assert err == "refused: 2 vertices exceeds the enumeration cap 0\n"


def test_check_validates_and_orients_once(capsys, stg, seeded_covers, monkeypatch):
    # the oracle traces the orientation the pipeline took
    path = stg("c", seeded_covers((4,))[0])
    calls = []
    for name in ("validate", "find_source_sink_orientation"):
        def counted(g, name=name, original=getattr(core_graph, name)):
            calls.append(name)
            return original(g)
        monkeypatch.setattr(core_graph, name, counted)
    for argv in ([], ["--json"], ["--all-partitions"]):
        calls.clear()
        assert run(capsys, "check", path, *argv)[0] == 0, argv
        assert sorted(calls) == ["find_source_sink_orientation", "validate"], argv


def test_check_refuses_an_over_cap_graph_before_it_searches(capsys, stg, connected_sums,
                                                             monkeypatch):
    # 60 vertices: the search alone runs far past the guard on this sum
    path = stg("s", connected_sums(3, 2, 6))
    refused = "refused: 60 vertices exceeds the enumeration cap 20\n"
    assert run_within(10, capsys, "check", path) == (2, "", refused)

    def refuse(pipe, max_nodes):
        raise AssertionError("check searched a graph over the cap")

    monkeypatch.setattr(cli, "search_genus", refuse)
    for argv in ([], ["--json"], ["--all-partitions"]):
        assert run_within(10, capsys, "check", path, *argv) == (2, "", refused), argv


def test_a_cap_past_the_oracles_memory_refuses(capsys, stg, connected_sums, monkeypatch):
    # the genera of 2^60 colourings take an exbibyte, so a cap of 100 from
    # the flag or the environment still refuses the 60-vertex sum
    path = stg("s", connected_sums(3, 2, 6))
    refused = "refused: 60 vertices: no memory for the genera of 2^60 colourings\n"
    for cmd in ("oracle", "check"):
        assert run_within(10, capsys, cmd, path, "--cap", "100") == (2, "", refused), cmd
    monkeypatch.setenv("STARGENUS_ORACLE_CAP", "100")
    for cmd in ("oracle", "check"):
        assert run_within(10, capsys, cmd, path) == (2, "", refused), cmd


def test_genus_refuses_past_its_node_budget(capsys, stg, connected_sums, seeded_covers):
    # 28 vertices in one component (the cover of seed 2003): the least pass
    # needs 186,091 nodes, so a budget of 1000 refuses it, in text and JSON
    # alike
    path = stg("b14", seeded_covers((14,), seed=2002)[0])
    refused = "refused: genus search exceeds the node budget 1000\n"
    for argv in (["--max-nodes", "1000"], ["--json", "--max-nodes", "1000"]):
        assert run_within(10, capsys, "genus", path, *argv) == (2, "", refused), argv

    # this 14-vertex cover needs more than 10 nodes and fewer than 100000
    cover = stg("c", seeded_covers((7,))[0])
    assert run(capsys, "genus", cover, "--max-nodes", "10") == (
        2, "", "refused: genus search exceeds the node budget 10\n")
    code, out, _ = run(capsys, "genus", cover, "--max-nodes", "100000")
    assert code == 0 and out.startswith("min genus: 5\n")

    # the default budget's headroom: the sum of the genus-3 covers of seeds
    # 1001-1003 (30 vertices) has genus 3 + 3 + 3, and its least pass takes
    # 185 of the 1,000,000 nodes
    path = stg("s3", connected_sums(3, 2, 3))
    assert run_within(10, capsys, "genus", path) == (0, (
        "min genus: 9\n"
        "ranks: 16 2\n"
        "witness: 0=W 1=W 2=W 3=W 4=W 5=W 6=B 7=W 8=W 9=B 10=W 11=W 12=B 13=B 14=B"
        " 15=B 16=W 17=W 18=W 19=W 20=W 21=W 22=W 23=B 24=W 25=W 26=B 27=B 28=W 29=W\n"),
        "")


@pytest.mark.parametrize("blocks,genus", [(4, 10), (5, 15), (10, 25), (30, 64)])
def test_genus_on_a_sum_answers_under_the_default_budget(capsys, stg, connected_sums,
                                                         sum_blocks, blocks, genus):
    # 10 vertices a block, in a component or more each: the search walks
    # each component alone, so the least pass on the sum of four takes 212
    # of the 1,000,000 nodes, where a walk over the product of the
    # components took 566,676, and the sum of 30 (300 vertices) takes 1,499
    path = stg("s", connected_sums(3, 2, blocks))
    code, out, err = run_within(10, capsys, "genus", path)
    assert (code, err) == (0, "")
    # an observation, not a theorem (it held on sums of 2-30): the genus of
    # the sum is the sum of the oracle's genera of its blocks
    genera = [oracle_min_genus(block) for block in sum_blocks(3, 2, blocks)]
    assert out.splitlines()[0] == f"min genus: {sum(genera)}" == f"min genus: {genus}"
    if blocks == 4:
        assert genera == [3, 3, 3, 1]
        assert out == (
            "min genus: 10\n"
            "ranks: 16 4\n"
            "witness: 0=W 1=W 2=W 3=W 4=W 5=W 6=B 7=W 8=W 9=B 10=W 11=W 12=B 13=B 14=B"
            " 15=B 16=W 17=W 18=W 19=W 20=W 21=W 22=W 23=B 24=W 25=W 26=B 27=B 28=W 29=W"
            " 30=W 31=W 32=W 33=W 34=B 35=B 36=B 37=B 38=B 39=B\n")


def test_genus_on_a_1998_vertex_planar_sum_is_fast(capsys, stg, edge_swap_sum):
    # the search takes 3,329 nodes on this planar sum, fewer than 2n, so the
    # default budget admits it, which a search of about n^2 / 3 nodes overruns
    seeds = (2, 5, 11, 14, 16, 17)
    covers = [double_cover(random_star_graph(seeds[i % 6], 1, 2)) for i in range(333)]
    g = edge_swap_sum(covers)
    assert g.n_vertices == 1998 and validate(g) == []
    code, out, _ = run_within(10, capsys, "genus", stg("p", g))
    assert code == 0 and out.splitlines()[0] == "min genus: 0"


def test_genus_and_check_search_under_the_default_budget(capsys, stg, monkeypatch):
    # genus without --max-nodes, and check, which has no flag for it, pass
    # DEFAULT_MAX_NODES to the search
    path = stg("h", ghopf())
    budgets = []

    def recorded(name, original):
        def call(pipe, max_nodes):
            budgets.append((name, max_nodes))
            return original(pipe, max_nodes=max_nodes)
        monkeypatch.setattr(cli, name, call)

    recorded("min_genus_of_pipeline", cli.min_genus_of_pipeline)
    recorded("search_genus", cli.search_genus)
    for cmd in ("genus", "check"):
        assert run(capsys, cmd, path)[0] == 0, cmd
    assert budgets == [("min_genus_of_pipeline", DEFAULT_MAX_NODES),
                       ("search_genus", DEFAULT_MAX_NODES)]


def test_max_nodes_below_zero_rejected(capsys, stg):
    path = stg("h", ghopf())
    for value in ("-1", "x", "1_0", "\u0661\u0660", " 7"):
        with pytest.raises(SystemExit) as exc:
            main(["genus", path, "--max-nodes", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-nodes: must be an integer of at least 0, got '{value}'" in err
    # zero is a valid budget that refuses every graph
    assert run(capsys, "genus", path, "--max-nodes", "0") == (
        2, "", "refused: genus search exceeds the node budget 0\n")


@pytest.mark.parametrize("value", ["0", "-3", "two", "1_0", "\u0661\u0660", " 7"])
def test_threads_below_one_rejected(capsys, stg, value):
    path = stg("h", ghopf())
    for cmd in ("genus", "oracle", "check"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path, "--threads", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be an integer of at least 1, got '{value}'" in err


def test_check_agreement(capsys, stg):
    path = stg("t", gt3c())
    code, out, _ = run(capsys, "check", path, "--all-partitions")
    assert code == 0
    assert out == "genus: 1\noracle: 1\nagree: yes\npartitions: 2 checked, 0 mismatches\n"
    assert run(capsys, "check", path, "--json") == \
        (0, '{"min_genus": 1, "oracle_min_genus": 1, "agree": true}\n', "")

    code, out, _ = run(capsys, "check", stg("h", ghopf()), "--json", "--all-partitions")
    assert code == 0
    assert json.loads(out) == {
        "min_genus": 0, "oracle_min_genus": 0, "agree": True,
        "partitions_checked": 4, "partition_mismatches": 0}


def test_check_all_partitions_on_a_14_vertex_cover(capsys, stg, seeded_covers):
    # 2^14 partitions, each with its rank genus and its traced genus
    g = seeded_covers((7,))[0]
    assert g.n_vertices == 14
    code, out, _ = run_within(10, capsys, "check", stg("c", g), "--all-partitions")
    assert code == 0
    assert out == "genus: 5\noracle: 5\nagree: yes\npartitions: 16384 checked, 0 mismatches\n"


def test_check_runs_one_search_and_never_the_witness_pass(capsys, stg, seeded_covers,
                                                         monkeypatch):
    # check prints no witness, so its one search lets no tie win; genus
    # runs one search too, in which a tie with a smaller code wins
    path = stg("c", seeded_covers((7,))[0])
    calls = []

    def recorded(*args, original=genus._search):
        calls.append(args[5])  # least
        return original(*args)
    monkeypatch.setattr(genus, "_search", recorded)

    for argv, expected in (
            ([], "genus: 5\noracle: 5\nagree: yes\n"),
            (["--json"], '{"min_genus": 5, "oracle_min_genus": 5, "agree": true}\n'),
            (["--all-partitions"], "genus: 5\noracle: 5\nagree: yes\n"
                                   "partitions: 16384 checked, 0 mismatches\n")):
        calls.clear()
        assert run_within(10, capsys, "check", path, *argv) == (0, expected, ""), argv
        assert calls == [False], argv

    calls.clear()
    code, out, _ = run(capsys, "genus", path)
    assert code == 0 and out.startswith("min genus: 5\n")
    assert calls == [True]


def test_check_reports_a_wrong_search_genus_or_leaf(capsys, stg, seeded_covers, monkeypatch):
    g = seeded_covers((4,))[0]
    path = stg("c", g)
    pipe = build_pipeline(g)
    right = search_genus(pipe)
    assert right.min_genus == 3
    # the all-W partition has genus 6, so it is no leaf of genus 3
    all_white = partition_from_code(pipe.diagram, sorted(g.vertices), 0)
    for wrong, shown in ((dataclasses.replace(right, min_genus=4), 4),
                         (dataclasses.replace(right, witness=all_white), 3)):
        monkeypatch.setattr(cli, "search_genus", lambda pipe, max_nodes, wrong=wrong: wrong)
        assert run(capsys, "check", path) == (1, f"genus: {shown}\noracle: 3\nagree: NO\n", "")
        assert run(capsys, "check", path, "--json") == (
            1, f'{{"min_genus": {shown}, "oracle_min_genus": 3, "agree": false}}\n', "")


# --- determinism -----------------------------------------------------------

def test_calls_in_one_process_match_calls_made_alone(capsys, stg, monkeypatch):
    # the parser is built once per process; no flag or default of one call
    # may reach the next
    assert build_parser() is build_parser()
    path = stg("r", chain(7))
    calls = [(["check", path, "--all-partitions"], None), (["check", path, "--json"], None),
             (["check", path, "--cap", "5"], None), (["check", path], "5"),
             (["check", path], None)]
    results = []
    for argv, cap in calls:
        if cap is None:
            monkeypatch.delenv("STARGENUS_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("STARGENUS_ORACLE_CAP", cap)
        code, out, _ = run(capsys, *argv)
        alone = subprocess.run([sys.executable, "-m", "stargenus", *argv],
                               capture_output=True, text=True)
        assert (code, out) == (alone.returncode, alone.stdout), argv
        results.append((code, out))
    # each call differs from the one before it, so a leak would show
    assert [code for code, _ in results] == [0, 0, 2, 2, 0]
    assert len({out for _, out in results}) == 4


def _reordered(g) -> str:
    """`g`'s .stg text with its vertex lines descending and its edge lines
    in another order: the odd positions first, then the even ones."""
    header, *body = serialize_stg(g).splitlines()
    vertices, edges = body[:g.n_vertices], body[g.n_vertices:]
    return "\n".join([header, *vertices[::-1], *edges[1::2], *edges[::2]]) + "\n"


@pytest.mark.parametrize("name", ["ghopf", "gt3c", "cover14"])
def test_input_order_never_reaches_an_answer(capsys, stg, seeded_covers, name):
    g = {"ghopf": ghopf, "gt3c": gt3c}[name]() if name != "cover14" else seeded_covers((7,))[0]
    text = _reordered(g)
    assert parse_stg(text) == g and text != serialize_stg(g)
    canonical, reordered = stg("a", g), stg("b", text)
    for argv in (["validate", "--json"], ["orient", "--json"], ["circuit"], ["diagram"],
                 ["genus", "--json"], ["planar"], ["oracle"], ["check", "--all-partitions"]):
        expected = run(capsys, argv[0], canonical, *argv[1:])
        assert run_within(10, capsys, argv[0], reordered, *argv[1:]) == expected, argv


def test_repeated_runs_are_byte_identical(capsys, stg):
    path = stg("r", random_star_graph(12, 6, 2))
    for argv in (["genus", path], ["genus", path, "--json"], ["circuit", path],
                 ["diagram", path], ["orient", path], ["oracle", path]):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv


def test_thread_count_does_not_change_output(capsys, stg):
    path = stg("c", chain(13))
    outputs = {run(capsys, "genus", path, "--json", "--threads", str(t))
               for t in (1, 2, 4, 7)}
    assert len(outputs) == 1
    outputs = {run(capsys, "oracle", path, "--json", "--threads", str(t))
               for t in (1, 2, 4)}
    assert len(outputs) == 1
    outputs = {run(capsys, "check", path, "--threads", str(t)) for t in (1, 3)}
    assert len(outputs) == 1


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "stargenus", "gen", "g8"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == serialize_stg(parse_stg(proc.stdout))
