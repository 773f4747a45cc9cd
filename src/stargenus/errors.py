"""Exception types shared across the package."""

from __future__ import annotations

# The vertex cap of the brute-force oracle, which traces 2^n colourings.
DEFAULT_CAP = 20
# The node budget of the genus search, a few seconds of it.
DEFAULT_MAX_NODES = 1_000_000


class StarGenusError(Exception):
    """Base class for all errors raised by this package."""


class StgParseError(StarGenusError):
    """Malformed .stg text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidGraphError(StarGenusError):
    """A graph failed structural validation. Carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations) if violations else "invalid graph")
        self.violations = list(violations)


class NotSourceSinkError(StarGenusError):
    """The graph admits no source-sink orientation, so the pipeline stops."""


class OracleCapExceeded(StarGenusError):
    """Brute-force enumeration refused: vertex count above the configured cap."""


class SearchBudgetExceeded(StarGenusError):
    """The genus search refused: it needs more nodes than its budget."""


class InvariantViolation(StarGenusError):
    """An internal invariant that should be unreachable was broken."""
