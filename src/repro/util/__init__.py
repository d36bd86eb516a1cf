"""Shared utilities: error types."""

from repro.util.errors import ReproError, ParseError, LoweringError, SemanticError

__all__ = [
    "ReproError",
    "ParseError",
    "SemanticError",
    "LoweringError",
]
