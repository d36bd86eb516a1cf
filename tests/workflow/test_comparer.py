"""The compare step's symmetry contract and what rests on it.

Every divergence is symmetric (Eq. 7's ``dmax`` is the larger size), so a
matrix, a row, a heatmap and a nearest scan evaluate each unordered model
pair once; none of them needs a task key.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.analysis.heatmap import HEATMAP_SPECS, divergence_heatmap
from repro.metricindex import PairPinner
from repro.workflow import comparer
from repro.workflow.comparer import (
    MetricSpec,
    _tree_kind,
    divergence,
    divergence_matrix,
    nearest,
)

TREE_SPECS = [s for s in HEATMAP_SPECS if _tree_kind(s) is not None]


@pytest.fixture(scope="module")
def one_sided(stream_omp, stream_cuda):
    """OpenMP port plus a second role (the CUDA port's unit) that the
    serial port does not have."""
    units = {"main": stream_omp.units["main"], "kernels": stream_cuda.units["main"]}
    spec = replace(stream_omp.spec, model="omp+kernels")
    return replace(stream_omp, spec=spec, units=units)


class TestSymmetry:
    @pytest.mark.parametrize("spec", HEATMAP_SPECS, ids=lambda s: s.label)
    def test_both_orders_bit_identical(self, spec, stream_serial, stream_omp):
        ab = divergence(stream_serial, stream_omp, spec)
        ba = divergence(stream_omp, stream_serial, spec)
        assert ab.hex() == ba.hex()

    @pytest.mark.parametrize("spec", HEATMAP_SPECS, ids=lambda s: s.label)
    def test_role_on_one_side_only(self, spec, stream_serial, one_sided):
        ab = divergence(stream_serial, one_sided, spec)
        ba = divergence(one_sided, stream_serial, spec)
        assert ab.hex() == ba.hex()


class TestPinning:
    @pytest.mark.parametrize("spec", TREE_SPECS, ids=lambda s: s.label)
    def test_unmatched_unit_pins_to_its_divergence(self, spec, stream_omp, one_sided):
        """The shared unit is hash-identical, so the pair pins to the
        unmatched unit's size over ``dmax``: the one non-zero pin."""
        want = divergence(stream_omp, one_sided, spec).hex()
        for a, b in ((stream_omp, one_sided), (one_sided, stream_omp)):
            pinned = PairPinner(spec).pin_pair(a, b)
            assert pinned is not None
            assert pinned.hex() == want


class TestMatrixWork:
    def test_one_evaluation_per_unordered_pair(
        self, stream_serial, stream_omp, stream_cuda
    ):
        with obs.collect() as col:
            m = divergence_matrix([stream_serial, stream_omp, stream_cuda], MetricSpec("SLOC"))
        assert sum(1 for r in col.spans if r.name == "compare.divergence") == 3
        assert col.counters["compare.pairs"] == 3
        assert np.array_equal(m, m.T)


class TestBatchSurfacesBuildNoKeys:
    def test_no_batch_surface_fingerprints(
        self, monkeypatch, fortran_sequential, fortran_omp, fortran_openacc
    ):
        """Only serve names demands by key; a batch matrix, row or heatmap
        never fingerprints a codebase."""

        def refuse(cb, spec):
            raise AssertionError(f"fingerprinted {cb.model} for {spec.label}")

        monkeypatch.setattr(comparer, "codebase_fingerprint", refuse)
        cbs = [fortran_sequential, fortran_omp, fortran_openacc]
        spec = MetricSpec("Tsem")
        m = divergence_matrix(cbs, spec)
        assert m.shape == (3, 3)
        assert len(nearest(cbs[0], cbs[1:], spec)) == 2
        grid = divergence_heatmap(cbs[0], cbs[1:])
        assert grid.values.shape == (len(HEATMAP_SPECS), 2)
