"""End-to-end command line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time

import pytest

from stargenus.cli import main
from stargenus.core_graph import parse_stg, serialize_stg, validate
from stargenus.fixtures import chain, ghopf, gt3c


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
    code, _, err = run(capsys, "gen", "nope")
    assert code == 2
    assert "unknown fixture" in err


def test_validate_ok(capsys, stg):
    code, out, _ = run(capsys, "validate", stg("h", ghopf()))
    assert (code, out) == (0, "ok\n")


def test_validate_reports_violations(capsys, stg):
    path = stg("bad", "stargraph 1 1\nvertex 0 4\nedge 0 0.0 0.1\n")
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "slot 0.2 never covered" in out

    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "slot 0.3 never covered" in payload["violations"]


def test_parse_error_exit_2(capsys, stg):
    code, _, err = run(capsys, "validate", stg("junk", "what\n"))
    assert code == 2
    assert "line 1" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "genus", "/no/such/file.stg")
    assert code == 2
    assert "cannot read" in err


def test_invalid_graph_into_pipeline_exit_2(capsys, stg):
    path = stg("bad", "stargraph 1 1\nvertex 0 4\nedge 0 0.0 0.1\n")
    for cmd in ("orient", "circuit", "diagram", "genus", "planar", "oracle", "check"):
        code, _, err = run(capsys, cmd, path)
        assert code == 2, cmd
        assert "invalid graph" in err


# --- orient and cover ------------------------------------------------------

def test_orient_frozen(capsys, stg):
    code, out, _ = run(capsys, "orient", stg("h", ghopf()))
    assert code == 0
    assert out == ("e0: 0.0 -> 1.2\n"
                   "e1: 1.3 -> 0.1\n"
                   "e2: 0.2 -> 1.0\n"
                   "e3: 1.1 -> 0.3\n")


@pytest.mark.parametrize("command", ["orient", "circuit", "diagram", "genus",
                                     "planar", "oracle", "check"])
def test_not_source_sink(capsys, stg, command):
    path = stg("gx", "stargraph 1 2\nvertex 0 4\nedge 0 0.0 0.2\nedge 1 0.1 0.3\n")
    code, out, _ = run(capsys, command, path)
    assert (code, out) == (1, "not source-sink\n")
    if command not in ("circuit", "diagram"):  # the commands without --json
        code, out, _ = run(capsys, command, path, "--json")
        assert (code, out) == (1, '{"source_sink": false}\n')


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

    code, out, _ = run(capsys, "genus", path, "--json")
    assert code == 0
    assert json.loads(out) == {
        "source_sink": True, "n_vertices": 2, "n_chords": 2,
        "min_genus": 0, "ranks": [0, 0], "witness": {"0": "W", "1": "B"}}


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
    code, out, _ = run(capsys, "planar", stg("h", ghopf()))
    assert code == 0
    assert out.startswith("planar: yes")

    code, out, _ = run(capsys, "planar", stg("t", gt3c()), "--json")
    assert code == 1
    assert json.loads(out) == {"planar": False, "conflict": [0, 1]}


def test_oracle_json(capsys, stg):
    code, out, _ = run(capsys, "oracle", stg("t", gt3c()), "--json")
    assert code == 0
    assert json.loads(out) == {
        "source_sink": True, "n_vertices": 1, "min_genus": 1,
        "witness": {"0": 0}, "method": "bruteforce"}


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
    for value in ("-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path, "--cap", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --cap: must be an integer of at least 0, got '{value}'" in err

    monkeypatch.setenv("STARGENUS_ORACLE_CAP", "-1")
    code, out, err = run(capsys, cmd, path)
    assert (code, out) == (2, "")
    assert err == "STARGENUS_ORACLE_CAP must be at least 0, got '-1'\n"

    # zero is a valid cap that refuses every graph
    code, _, err = run(capsys, cmd, path, "--cap", "0")
    assert code == 2
    assert err == "refused: 2 vertices exceeds the enumeration cap 0\n"


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_threads_below_one_rejected(capsys, stg, value):
    path = stg("h", ghopf())
    for cmd in ("genus", "oracle", "check"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path, "--threads", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be an integer of at least 1, got '{value}'" in err


def test_check_agreement(capsys, stg):
    code, out, _ = run(capsys, "check", stg("t", gt3c()), "--all-partitions")
    assert code == 0
    assert out == "genus: 1\noracle: 1\nagree: yes\npartitions: 2 checked, 0 mismatches\n"

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


# --- determinism -----------------------------------------------------------

def test_repeated_runs_are_byte_identical(capsys, stg):
    from stargenus.fixtures import random_star_graph
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
