"""The compare step's symmetry contract and what rests on it.

Every divergence is symmetric (Eq. 7's ``dmax`` is the larger size), so a
matrix, a row, a heatmap and a nearest scan evaluate each unordered model
pair once under one ``pair:`` key, and checkpoints store one float per key.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.analysis.heatmap import HEATMAP_SPECS
from repro.ckpt import CheckpointStore, run_key_for
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.workflow.comparer import (
    MetricSpec,
    divergence,
    divergence_matrix,
    matrix_demands,
)


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


class TestMatrixWork:
    def test_one_evaluation_per_unordered_pair(
        self, stream_serial, stream_omp, stream_cuda
    ):
        with obs.collect() as col:
            m = divergence_matrix([stream_serial, stream_omp, stream_cuda], MetricSpec("SLOC"))
        assert sum(1 for r in col.spans if r.name == "compare.divergence") == 3
        assert col.counters["compare.pairs"] == 3
        assert np.array_equal(m, m.T)


class TestCheckpointKeyspec:
    def test_v1_checkpoint_is_never_adopted(
        self, tmp_path, stream_serial, stream_omp, stream_cuda
    ):
        """v1 stored a pair key's two directions as ``[d, d]``; under v2 a
        pair key holds one float, so a v1 file must not be resumed from."""
        cbs = [stream_serial, stream_omp, stream_cuda]
        spec = MetricSpec("Tsrc")
        clear_ted_cache()
        want = divergence_matrix(cbs, spec)
        _pairs, _tasks, keys = matrix_demands(cbs, spec)
        v1 = "div:structhash:v1"
        entries = {k: [float(d), float(d)] for k, d in zip(keys, want[np.triu_indices(3, 1)])}
        CheckpointStore(tmp_path, keyspec=v1).save(run_key_for(keys, v1), entries)

        clear_ted_cache()
        engine = DistanceEngine(checkpoint=CheckpointStore(tmp_path), resume=True)
        with obs.collect() as col:
            got = divergence_matrix(cbs, spec, engine=engine)
        assert col.counters.get("ckpt.loaded", 0) == 0
        assert got.tobytes() == want.tobytes()
