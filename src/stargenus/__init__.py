"""Minimal genus of orientable checkerboard embeddings of 4/6-valent star graphs."""

from .chords import (Chord, ChordDiagram, ChordGroup, DoubleChord, StarChordDiagram,
                     Triad, build_star_chord_diagram, expand, intersection_matrix,
                     linked, linked_pairs, surgery)
from .circuit import (EulerCircuit, TransitionSystem, VertexClass, Visit,
                      classify_local, classify_vertices, cycles_of,
                      find_rs_circuit, initial_transition_system)
from .core_graph import (Edge, HalfEdgeRef, Orientation, StarGraph, double_cover,
                         find_source_sink_orientation, is_source_sink, parse_stg,
                         serialize_stg, validate)
from .errors import (InvalidGraphError, InvariantViolation, NotSourceSinkError,
                     OracleCapExceeded, SearchBudgetExceeded, StarGenusError,
                     StgParseError)
from .genus import (GenusResult, PermissiblePartition, Pipeline, PlanarityResult,
                    build_pipeline, enumerate_permissible_partitions,
                    genus_of_partition, is_planar, min_genus, rank_pair)
from .gf2 import BitMatrix, corank, principal_submatrix, rank

__version__ = "0.1.0"

# The oracle needs numpy, which the pipeline does not, so its exports are
# imported on first use (PEP 562) and a plain `import stargenus` stays light.
_ORACLE_EXPORTS = frozenset({"AtomColoring", "FaceCount", "coloring_of_partition",
                             "min_genus_bruteforce", "oracle_min_genus", "trace_faces"})


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_EXPORTS)
