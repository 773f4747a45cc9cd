"""A catalogue of faults the tier-1 tests must catch, and a runner for it.

Each mutant names a file under `src/stargenus/`, an exact snippet of it,
the snippet's replacement, and the tier-1 test ids that must fail once the
replacement is made. For each mutant the runner copies `src/` and `tests/`
into a temporary directory, makes the replacement there and runs those
tests with pytest; the working tree is never touched. A listed test counts
as failed only when it fails on a check: an `AssertionError`, pytest's own
`Failed` (`pytest.fail`, or `pytest.raises` that saw nothing raised) or an
`InvariantViolation`. Any other exception means the replacement no longer
makes sense (a `TypeError` after a field was added, say), and the mutant is
reported as broken, not killed. The run fails when a snippet does not occur
exactly once in the current source (so a change that moves the code must
update its mutants rather than drop them), when a listed test does not pass
on the unchanged source, when pytest cannot run the listed tests or takes
longer than `TIMEOUT_S`, when a mutant is broken, or when a listed test
passes on its mutant (the mutant survives).

Run from anywhere, with pytest installed:

    python tests/mutants.py

It uses the standard library only. Pytest does not collect this file,
since its name does not start with `test_`; each pytest run the runner
starts loads it as a plugin (`-p mutants`) for the hook that records what
every failing test raised.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str            # relative to src/stargenus/
    old: str             # must occur exactly once in the file
    new: str
    kills: tuple[str, ...]  # test ids, as pytest prints them, that must fail


# the tests that check the least witness against the flat scan, and those
# plus the pinned witness of a cover whose first leaf of the least genus is
# not it
_SCANNED_LEAST_TESTS = (
    "tests/test_genus.py::test_witness_is_least_code_on_covers",
    "tests/test_genus.py::test_least_pass_matches_the_ascending_pass_and_the_flat_scan")
_LEAST_TESTS = _SCANNED_LEAST_TESTS + ("tests/test_cli.py::test_genus_text_and_json",)

MUTANTS = (
    Mutant(
        # the graph keeps its vertices in the order they were given
        "vertices-in-given-order",
        "core_graph.py",
        "dict(sorted(vertices.items()))",
        "dict(vertices)",
        ("tests/test_core_graph.py::test_vertices_and_edges_are_kept_in_ascending_id_order",
         "tests/test_cli.py::test_input_order_never_reaches_an_answer[ghopf]",
         "tests/test_cli.py::test_input_order_never_reaches_an_answer[cover14]"),
    ),
    Mutant(
        # each cycle is listed from its last key, and the cycles in reverse
        "cycles-from-last-key",
        "core_graph.py",
        "for start in successor:",
        "for start in reversed(successor):",
        ("tests/test_core_graph.py::test_permutation_cycles_start_at_their_first_key",
         "tests/test_circuit.py::test_circuit_starts_at_lowest_edge",
         "tests/test_circuit.py::test_circuit_fixtures",
         "tests/test_circuit.py::test_cycles_of_canonical_fixtures"),
    ),
    Mutant(
        # every root is the highest key of its set, so sides() anchors each
        # set there and the orientation of some components flips
        "union-links-higher-root",
        "union_find.py",
        "if ry < rx:",
        "if ry > rx:",
        ("tests/test_union_find.py::test_parity_against_explicit_colouring",
         "tests/test_core_graph.py::test_ghopf_orientation_frozen",
         "tests/test_cli.py::test_orient_frozen",
         "tests/test_circuit.py::test_circuit_fixtures"),
    ),
    Mutant(
        # a visit's partner is read from another cycle: the return map is no
        # permutation, or the merge counts cycles it does not make
        "merge-partner-on-another-cycle",
        "circuit.py",
        "root_of[t] == root_of[s]",
        "root_of[t] != root_of[s]",
        ("tests/test_circuit.py::test_circuit_starts_at_lowest_edge",
         "tests/test_circuit.py::test_circuit_covers_every_edge_once",
         "tests/test_circuit.py::test_find_rs_circuit_deterministic"),
    ),
    Mutant(
        "anchor-visit",
        "oracle.py",
        "pos[0 if principal is None else (principal + 1) % 3]",
        "pos[0 if principal is None else (principal + 2) % 3]",
        ("tests/test_oracle.py::test_region_parity_fixtures",
         "tests/test_oracle.py::test_pointwise_partition_vs_traced_genus"),
    ),
    Mutant(
        "code-bit",
        "genus.py",
        "bit = [1 << (len(chords_w) - 1 - k) for k in order]",
        "bit = [1 << (len(chords_w) - 1 - k) for k in range(len(order))]",
        ("tests/test_genus.py::test_search_genus_finds_the_genus_and_a_leaf_of_it",
         "tests/test_cli.py::test_check_all_partitions_on_a_14_vertex_cover"),
    ),
    Mutant(
        # the halves are always on opposite sides, so their link is in
        # neither submatrix: only the expanded diagram itself shows this
        "split-offsets-swapped",
        "chords.py",
        '            emit(at[p] + 1, at[q], ChordGroup(att.vertex, "dchord", plus=True))\n'
        '            emit(at[p], at[r], ChordGroup(att.vertex, "dchord", plus=False))\n',
        '            emit(at[p], at[q], ChordGroup(att.vertex, "dchord", plus=True))\n'
        '            emit(at[p] + 1, at[r], ChordGroup(att.vertex, "dchord", plus=False))\n',
        ("tests/test_chords.py::test_expand_double_chord_sides",),
    ),
    Mutant(
        "odd-codes-not-reversed",
        "oracle.py",
        "genera[1::2] = even[::-1]",
        "genera[1::2] = even",
        ("tests/test_oracle.py::test_traced_genera_match_trace_faces",),
    ),
    Mutant(
        # each branch's leaves are written to its sibling's blocks
        "branch-bit-swapped",
        "oracle.py",
        "code | bit << (n - 1 - k)",
        "code | (1 - bit) << (n - 1 - k)",
        ("tests/test_oracle.py::test_traced_genera_match_trace_faces",
         "tests/test_oracle.py::test_partition_genera_match_the_flat_scan_and_the_oracle"),
    ),
    Mutant(
        # every vertex index read in reverse: vertex 0's bit is the fixed
        # one, and the odd codes are still filled from the even ones
        "vertex-0-fixed",
        "oracle.py",
        "    t = _successor_tables(g, orientation)\n",
        "    t = _successor_tables(g, orientation)\n"
        "    import dataclasses\n"
        "    t = dataclasses.replace(t, owner=tuple(n - 1 - v for v in t.owner))\n",
        ("tests/test_oracle.py::test_traced_genera_match_trace_faces",),
    ),
    Mutant(
        # every slot's predecessor is taken to be at the slot's own vertex, so
        # the columns trimmed off as vertices are done include open starts
        "slot-predecessor-not-rotated",
        "oracle.py",
        "latest_first(t.owner[m:] + t.owner[:m])",
        "latest_first(t.owner)",
        ("tests/test_oracle.py::test_traced_genera_links_only_open_columns",),
    ),
    Mutant(
        # slots ranked latest vertex first, so the columns trimmed off as
        # vertices are done are the ones still open
        "latest-first-reversed",
        "oracle.py",
        "key=vertex_of.__getitem__",
        "key=lambda s: -vertex_of[s]",
        ("tests/test_oracle.py::test_traced_genera_links_only_open_columns",),
    ),
    Mutant(
        # the inverse of the right axis permutation, which differs from it
        # whenever the coupling order is not its own inverse
        "transpose-by-order",
        "genus.py",
        ".transpose(np.argsort(order))",
        ".transpose(order)",
        ("tests/test_oracle.py::test_partition_genera_match_the_flat_scan_and_the_oracle",
         "tests/test_genus.py::test_least_pass_matches_the_ascending_pass_and_the_flat_scan"),
    ),
    Mutant(
        # every insertion's successor has no raisers, so nothing pairs up
        "raisers-always-0",
        "gf2.py",
        "        basis.raisers = raisers\n",
        "        basis.raisers = 0\n",
        ("tests/test_gf2.py::test_symplectic_basis_tracks_masked_rank",
         "tests/test_gf2.py::test_symplectic_fields_track_the_pairs_and_radical"),
    ),
    Mutant(
        # a vertex counts as stuck when one of its options raises a side
        "stuck-on-either-option",
        "genus.py",
        ") and (",
        ") or (",
        ("tests/test_genus.py::test_stuck_is_whether_every_placement_raises_a_side",),
    ),
    Mutant(
        # every vertex counts as stuck when its W option alone raises a side,
        # as a fixed one does
        "stuck-reads-every-vertex-as-fixed",
        "genus.py",
        "(fixed or mb & up_w or mw & up_b)",
        "(True or mb & up_w or mw & up_b)",
        ("tests/test_genus.py::test_stuck_is_whether_every_placement_raises_a_side",),
    ),
    Mutant(
        # a linked triad is taken as free whatever its chords link, so some
        # flips that change a genus are taken as symmetries
        "r2-without-one-pattern",
        "genus.py",
        "free = rows[i] >> j & 1 and (not link_i or not link_j or link_i == link_j)",
        "free = rows[i] >> j & 1",
        ("tests/test_genus.py::test_flip_symmetries_keep_every_genus",
         "tests/test_genus.py::test_genus_is_the_same_in_any_search_order"),
    ),
    Mutant(
        # a double chord is taken as free when its halves link as many other
        # chords, not the same ones
        "r3-compares-link-counts",
        "genus.py",
        "free = link_i == link_j",
        'free = bin(link_i).count("1") == bin(link_j).count("1")',
        ("tests/test_genus.py::test_flip_symmetries_keep_every_genus",
         "tests/test_genus.py::test_genus_is_the_same_in_any_search_order"),
    ),
    Mutant(
        # each basis vector fixes its highest position, not its pivot: some
        # cosets then have no code left, or only codes that are not least
        "pivot-least-significant-bit",
        "genus.py",
        "leads = _echelon(_symmetries(chords_w, chords_b, rows, components))",
        "leads = {(row & -row).bit_length() - 1\n"
        "             for row in _echelon(_symmetries(chords_w, chords_b, rows, components)).values()}",
        ("tests/test_genus.py::test_pivots_on_w_are_the_least_code_of_each_coset",
         "tests/test_genus.py::test_genus_is_the_same_in_any_search_order"),
    ),
    Mutant(
        # every vertex starts a component of its own, so each single flip is
        # taken as a symmetry and every position is fixed on W
        "component-at-every-vertex",
        "genus.py",
        "        if not c:\n",
        "        if True:\n",
        ("tests/test_genus.py::test_flip_symmetries_keep_every_genus",
         "tests/test_genus.py::test_coupling_order_matches_a_quadratic_reference"),
    ),
    Mutant(
        # no component starts after the first: the one swap is the side swap,
        # and a connected sum gets one pivot in all and one walk
        "one-component",
        "genus.py",
        "        if not c:\n",
        "        if not components:\n",
        ("tests/test_cli.py::test_genus_on_a_sum_answers_under_the_default_budget[4-10]",
         "tests/test_genus.py::test_coupling_order_matches_a_quadratic_reference"),
    ),
    Mutant(
        # the search walks the first component alone and leaves the others on W
        "first-component-only",
        "genus.py",
        "    for order in components:\n",
        "    for order in components[:1]:\n",
        ("tests/test_cli.py::test_genus_on_a_sum_answers_under_the_default_budget[4-10]",
         "tests/test_genus.py::test_min_genus_matches_full_scan",
         "tests/test_genus.py::test_least_pass_matches_the_ascending_pass_and_the_flat_scan"),
    ),
    Mutant(
        # the code is the last component's leaf alone: the earlier ones'
        # bits are dropped, while their genera and ranks are summed
        "component-code-dropped",
        "genus.py",
        "total[1] | code",
        "code",
        ("tests/test_cli.py::test_genus_on_a_sum_answers_under_the_default_budget[4-10]",
         "tests/test_genus.py::test_min_genus_matches_full_scan",
         "tests/test_genus.py::test_least_pass_matches_the_ascending_pass_and_the_flat_scan"),
    ),
    Mutant(
        # each component gets the whole budget, so a call makes more nodes
        # than max_nodes
        "budget-per-component",
        "genus.py",
        "        if not left:\n",
        "        left = math.inf if max_nodes is None else max_nodes\n"
        "        if not left:\n",
        ("tests/test_genus.py::test_node_budget_counts_every_node_of_a_call",),
    ),
    Mutant(
        # a fixed position gets no W child instead of no B child
        "pivot-fixed-to-b",
        "genus.py",
        "keep_w, keep_b = bound_w < cut, bound_b < cut_b and not on_w[k]",
        "keep_w, keep_b = bound_w < cut and not on_w[k], bound_b < cut_b",
        _LEAST_TESTS + ("tests/test_genus.py::test_genus_is_the_same_in_any_search_order",),
    ),
    Mutant(
        "residual-no-projection",
        "gf2.py",
        "return tuple(sorted(echelon.values())), tuple(projected)",
        "return tuple(sorted(echelon.values())), ()",
        ("tests/test_gf2.py::test_symplectic_residual_fixes_every_gain",
         "tests/test_cli.py::test_check_all_partitions_on_a_14_vertex_cover"),
    ),
    Mutant(
        # e_j is projected off the u of each pair but not off its v. The key
        # stays exact (with A the matrix on the live indices, the true
        # projections are A + P + P^T for the mutant's P), so every answer is
        # kept and only fewer states merge: the projections' symmetry shows it
        "residual-projects-one-half",
        "gf2.py",
        "                if u >> j & 1:\n"
        "                    x ^= v\n",
        "",
        ("tests/test_gf2.py::test_symplectic_residual_projections_are_a_gram_matrix",),
    ),
    Mutant(
        "coupling-tie-high",
        "genus.py",
        "heapq.heappush(heap, (-coupling[b], b))",
        "heapq.heappush(heap, (-coupling[b], -b))",
        ("tests/test_genus.py::test_coupling_order_matches_a_quadratic_reference",),
    ),
    Mutant(
        "dchord-halves-agree",
        "genus.py",
        "yield both[0], both[1], 1 if opposite else 0",
        "yield both[0], both[1], 0",
        ("tests/test_genus.py::test_planarity_agrees_with_min_genus",),
    ),
    Mutant(
        # the search may then take the rejected constraint itself, the
        # shortest way between its chords, which closes no odd cycle
        "certificate-walks-the-conflict",
        "genus.py",
        "islice(constraints(), conflict_at)",
        "islice(constraints(), conflict_at + 1)",
        ("tests/test_genus.py::test_conflict_certificate_is_unsatisfiable",
         "tests/test_genus.py::test_planarity_working_set_is_bounded",
         "tests/test_cli.py::test_planar_exits"),
    ),
    Mutant(
        # a double chord's vertex read off its p- half, the side opposite it
        "witness-from-p-minus-half",
        "genus.py",
        "chord_side[chords_w[k][0]]",
        "chord_side[(chords_b[k] or chords_w[k])[0]]",
        ("tests/test_genus.py::test_planar_witness_realizes_genus_zero",
         "tests/test_genus.py::test_planarity_agrees_with_min_genus"),
    ),
    Mutant(
        # the best code stays 0, so no tie ever wins: the search ends on the
        # first leaf of the least genus it meets
        "least-tie-never-wins",
        "genus.py",
        "            best, best_code = bound, code\n",
        "            best = bound\n",
        _LEAST_TESTS,
    ),
    Mutant(
        # a stuck vertex cuts a node whose leaves could tie with a smaller code
        "stuck-ignores-ties",
        "genus.py",
        "if bound + 1 == cut and _stuck(",
        "if bound + 1 == best and _stuck(",
        _LEAST_TESTS,
    ),
    Mutant(
        # a pushed node whose leaves could tie with a smaller code is dropped
        "pop-check-ignores-ties",
        "genus.py",
        "if bound >= cut:  # the best improved since the push",
        "if bound >= best:  # the best improved since the push",
        _SCANNED_LEAST_TESTS,
    ),
    Mutant(
        # a B child whose leaves cannot win a tie is made when its parent's
        # could, and its leaves of the best genus then win with larger codes
        "b-child-cut-uses-parent-code",
        "genus.py",
        "cut_b = best + (least and code_b < best_code)",
        "cut_b = best + (least and code < best_code)",
        _SCANNED_LEAST_TESTS,
    ),
    Mutant(
        # the W child is bounded by the chords the B child sends, so a W
        # child with a leaf of the least genus can be left unmade
        "child-bound-sides-swapped",
        "genus.py",
        "bound_w = bound + bool(mw & up_w) + bool(mb & up_b)",
        "bound_w = bound + bool(mb & up_w) + bool(mw & up_b)",
        ("tests/test_genus.py::test_min_genus_matches_full_scan",
         "tests/test_genus.py::test_min_genus_matches_oracle_on_covers",
         "tests/test_genus.py::test_search_genus_finds_the_genus_and_a_leaf_of_it"),
    ),
    Mutant(
        "check-without-budget",
        "cli.py",
        "search_genus(pipe, max_nodes=DEFAULT_MAX_NODES)",
        "search_genus(pipe, max_nodes=None)",
        ("tests/test_cli.py::test_genus_and_check_search_under_the_default_budget",),
    ),
    Mutant(
        "json-ignored",
        "cli.py",
        '        if getattr(args, "json", False):\n',
        "        if False:\n",
        ("tests/test_cli.py::test_validate_reports_violations",
         "tests/test_cli.py::test_orient_frozen",
         "tests/test_cli.py::test_genus_text_and_json",
         "tests/test_cli.py::test_planar_exits",
         "tests/test_cli.py::test_oracle_json",
         "tests/test_cli.py::test_check_agreement",
         "tests/test_cli.py::test_not_source_sink[orient]"),
    ),
    Mutant(
        "not-source-sink-exits-0",
        "cli.py",
        'code, payload, lines = 1, {"source_sink": False}, ["not source-sink"]',
        'code, payload, lines = 0, {"source_sink": False}, ["not source-sink"]',
        ("tests/test_cli.py::test_not_source_sink[orient]",
         "tests/test_cli.py::test_not_source_sink[circuit]",
         "tests/test_cli.py::test_not_source_sink[check]"),
    ),
)


# the exceptions by which a test fails on a check, by class name (any class
# in the raised exception's MRO)
CHECKS = frozenset({"AssertionError", "Failed", "InvariantViolation"})
TIMEOUT_S = 300  # per pytest run; the whole catalogue takes about a minute


def pytest_exception_interact(node, call, report):
    """Pytest hook, run in each pytest the runner starts: append the id of
    the failing test and the class names of what it raised to the file
    named by MUTANTS_REPORT."""
    names = " ".join(c.__name__ for c in call.excinfo.type.__mro__)
    with open(os.environ["MUTANTS_REPORT"], "a") as out:
        out.write(f"{node.nodeid}\t{names}\n")


def _copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _run(tree: Path, ids: list[str]) -> tuple[int | None, set[str], set[str]]:
    """pytest's exit code on `ids` in `tree` (None when it timed out), the
    ids that failed on a check, and those that failed on anything else."""
    report = tree / "failures.txt"
    report.touch()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", MUTANTS_REPORT=str(report))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), str(tree / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        code: int | None = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "mutants", *ids],
            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    checked, broken = set(), set()
    for line in report.read_text().splitlines():
        nodeid, names = line.split("\t")
        (checked if CHECKS & set(names.split()) else broken).add(nodeid)
    ids_set = set(ids)
    return code, checked & ids_set, (broken - checked) & ids_set


def _mutate(tree: Path, mutant: Mutant) -> str | None:
    """Apply `mutant` in `tree`; a reason when its snippet is not unique."""
    path = tree / "src" / "stargenus" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"its snippet occurs {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="stargenus-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        code, _, _ = _run(base, sorted({i for m in MUTANTS for i in m.kills}))
        if code != 0:
            outcome = f"timed out after {TIMEOUT_S} s" if code is None else f"pytest exit {code}"
            problems.append(f"the listed tests do not all pass on the unchanged "
                            f"source ({outcome})")
        for m in MUTANTS:
            tree = Path(tmp) / m.name
            _copy_tree(tree)
            reason = _mutate(tree, m) if m.kills else "it lists no test"
            if reason is None:
                code, failed, broken = _run(tree, list(m.kills))
                survivors = sorted(set(m.kills) - failed - broken)
                if code is None:
                    reason = f"its tests timed out after {TIMEOUT_S} s"
                elif code not in (0, 1):
                    reason = f"pytest could not run its tests (exit {code})"
                elif broken:
                    reason = f"mutant broken: {' '.join(sorted(broken))} raised no check failure"
                elif survivors:
                    reason = f"survives {' '.join(survivors)}"
            print(f"{m.name}: {reason or 'killed'}")
            if reason:
                problems.append(f"{m.name}: {reason}")
            shutil.rmtree(tree)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
