"""PairPinner over a real corpus: which pairs pin, and that pinning never
changes a matrix. The non-zero pin is covered in
``tests/workflow/test_comparer.py``.
"""

import pytest

from repro.corpus.registry import index_app
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.metricindex import PairPinner
from repro.workflow.comparer import MetricSpec, divergence_matrix, parse_metric

APP = "babelstream-fortran"
SPEC = parse_metric("Tsem")


@pytest.fixture(scope="module")
def corpus():
    clear_ted_cache()
    return index_app(APP)


class TestPinning:
    def test_identical_pair_pins_to_zero(self, corpus):
        pinner = PairPinner(SPEC)
        cb = next(iter(corpus.values()))
        assert pinner.pin_pair(cb, cb) == 0.0

    def test_differing_pair_does_not_pin(self, corpus):
        pinner = PairPinner(SPEC)
        cbs = list(corpus.values())
        assert pinner.pin_pair(cbs[0], cbs[1]) is None

    def test_non_tree_metric_never_pins(self, corpus):
        pinner = PairPinner(MetricSpec("SLOC"))
        cb = next(iter(corpus.values()))
        assert pinner.pin_pair(cb, cb) is None

    def test_matrix_with_pinner_is_bit_identical(self, corpus):
        import numpy as np

        cbs = list(corpus.values())
        clear_ted_cache()
        plain = divergence_matrix(cbs, SPEC, engine=DistanceEngine())
        clear_ted_cache()
        pinned = divergence_matrix(
            cbs, SPEC, engine=DistanceEngine(), index=PairPinner(SPEC)
        )
        assert np.array_equal(plain, pinned)
