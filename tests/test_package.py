"""What `import stargenus` exports, and what a pipeline command loads."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import stargenus
from stargenus import oracle
from stargenus.core_graph import serialize_stg

PUBLIC_NAMES = (
    "Chord", "ChordDiagram", "ChordGroup", "DoubleChord", "StarChordDiagram", "Triad",
    "build_star_chord_diagram", "expand", "intersection_matrix", "linked", "linked_pairs",
    "surgery",
    "EulerCircuit", "TransitionSystem", "VertexClass", "Visit", "classify_local",
    "classify_vertices", "cycles_of", "find_rs_circuit", "initial_transition_system",
    "Edge", "HalfEdgeRef", "Orientation", "StarGraph", "double_cover",
    "find_source_sink_orientation", "is_source_sink", "parse_stg", "serialize_stg", "validate",
    "InvalidGraphError", "InvariantViolation", "NotSourceSinkError", "OracleCapExceeded",
    "SearchBudgetExceeded", "StarGenusError", "StgParseError",
    "GenusResult", "PermissiblePartition", "Pipeline", "PlanarityResult", "build_pipeline",
    "enumerate_permissible_partitions", "genus_of_partition", "is_planar", "min_genus",
    "rank_pair",
    "BitMatrix", "corank", "principal_submatrix", "rank",
    "__version__")
ORACLE_NAMES = ("AtomColoring", "FaceCount", "coloring_of_partition", "min_genus_bruteforce",
                "oracle_min_genus", "trace_faces")


@pytest.mark.parametrize("name", PUBLIC_NAMES + ORACLE_NAMES)
def test_every_public_name_still_imports(name):
    namespace: dict = {}
    exec(f"from stargenus import {name}", namespace)
    assert namespace[name] is getattr(stargenus, name)
    assert name in dir(stargenus)


def test_the_oracle_names_are_the_oracles_own():
    for name in ORACLE_NAMES:
        assert getattr(stargenus, name) is getattr(oracle, name)
    assert oracle.DEFAULT_CAP == 20


def test_the_oracle_runs_on_core_graph_and_errors_alone():
    # its independence from the chord pipeline: the oracle's run-time
    # imports from the package are core_graph and errors, and the pipeline
    # types it names in annotations come in under TYPE_CHECKING only
    def run_time(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue
            yield child
            yield from run_time(child)

    imported = set()
    for node in run_time(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            assert not any(m.split(".")[0] == "stargenus" for m in modules), modules
    assert imported == {"core_graph", "errors"}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stargenus.no_such_name
    with pytest.raises(ImportError):
        exec("from stargenus import no_such_name", {})


# Run in a fresh interpreter, since this one has long since loaded numpy.
PIPELINE_THEN_CHECK = """
import sys
from stargenus.cli import main
for command in ("genus", "planar", "circuit"):
    main([command, sys.argv[1]])
print("loaded:", *(m for m in ("numpy", "stargenus.oracle") if m in sys.modules))
sys.exit(main(["check", sys.argv[1]]))
"""


def test_pipeline_commands_load_neither_numpy_nor_the_oracle(tmp_path, seeded_covers):
    g = seeded_covers((7,))[0]
    assert g.n_vertices == 14
    path = tmp_path / "c.stg"
    path.write_text(serialize_stg(g))
    proc = subprocess.run([sys.executable, "-c", PIPELINE_THEN_CHECK, str(path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "min genus: 5"
    assert lines[-4:] == ["loaded:", "genus: 5", "oracle: 5", "agree: yes"]
