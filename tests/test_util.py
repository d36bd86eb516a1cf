"""Utility-layer tests: error types."""

import pytest

from repro.util import LoweringError, ParseError, ReproError, SemanticError


class TestErrors:
    def test_parse_error_formats_location(self):
        e = ParseError("bad token", "f.cpp", 3, 7)
        assert "f.cpp:3:7" in str(e)
        assert isinstance(e, ReproError)

    def test_semantic_error(self):
        e = SemanticError("unknown symbol", "g.cpp", 9)
        assert "g.cpp:9" in str(e)

    def test_hierarchy(self):
        for cls in (ParseError, SemanticError, LoweringError):
            assert issubclass(cls, ReproError)

    def test_catchable_at_base(self):
        with pytest.raises(ReproError):
            raise LoweringError("nope")
