"""MetricIndex behaviour over a real corpus: parity, persistence, refresh.

The hard guarantees (also gated in CI by ``benchmarks/nearest_smoke.py``):
query results are bit-identical to the brute-force scan, pruning actually
happens, the ``vpindex`` artifact roundtrips, a corrupt artifact degrades
to a rebuild with a diagnostic, and a one-file touch re-inserts exactly
one unit.
"""

import pytest

from repro import diag, obs
from repro.corpus.registry import app_models, build_fs, get_spec, index_app
from repro.distance.bounds import BruteForceOracle
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.metricindex import (
    MetricIndex,
    PairPinner,
    VpIndexStore,
    index_key,
    load_index,
    save_index,
)
from repro.metricindex import vptree
from repro.workflow.comparer import (
    MetricSpec,
    divergence_matrix,
    nearest_brute_force,
    parse_metric,
)
from repro.workflow.indexer import index_codebase

APP = "babelstream-fortran"
SPEC = parse_metric("Tsem")


@pytest.fixture(scope="module")
def corpus():
    clear_ted_cache()
    return index_app(APP)


@pytest.fixture(scope="module")
def index(corpus):
    return MetricIndex.build(APP, corpus, SPEC)


class TestQuery:
    def test_bit_identical_to_brute_force_for_every_target(self, corpus, index):
        for name in corpus:
            others = [cb for m, cb in corpus.items() if m != name]
            want = nearest_brute_force(corpus[name], others, SPEC)[:3]
            got = index.query(corpus[name], corpus, 3)
            assert got.neighbors == want  # bit-identical floats and order

    def test_fewer_exact_calls_than_candidates_somewhere(self, corpus, index):
        saved = 0
        for name in corpus:
            r = index.query(corpus[name], corpus, 3)
            assert r.stats["exact_calls"] <= r.stats["candidates"] + 1
            saved += r.stats["candidates"] - min(
                r.stats["exact_calls"], r.stats["candidates"]
            )
        assert saved > 0, "the index never pruned a single candidate"

    def test_prune_counters_fire(self, corpus, index):
        with obs.collect() as col:
            for name in corpus:
                index.query(corpus[name], corpus, 2)
        pruned = sum(
            v for k, v in col.counters.items() if k.startswith("index.pruned.")
        )
        assert pruned > 0
        assert col.counters.get("index.exact_calls", 0) > 0

    def test_brute_force_oracle_disables_candidate_stages(self, corpus, index):
        for name in corpus:
            others = [cb for m, cb in corpus.items() if m != name]
            want = nearest_brute_force(corpus[name], others, SPEC)[:3]
            r = index.query(corpus[name], corpus, 3, oracle=BruteForceOracle())
            assert r.neighbors == want
            for stage in ("stats", "histogram", "sequence"):
                assert r.stats["pruned"][stage] == 0

    def test_k_exceeding_candidates_returns_everything(self, corpus, index):
        name = next(iter(corpus))
        r = index.query(corpus[name], corpus, 100)
        assert len(r.neighbors) == len(corpus) - 1


class TestPersistence:
    def test_payload_roundtrip(self, index):
        again = MetricIndex.from_payload(index.to_payload())
        assert again.to_payload() == index.to_payload()
        assert again.spec.label == SPEC.label

    def test_from_payload_rejects_malformed(self, index):
        with pytest.raises(ValueError):
            MetricIndex.from_payload({**index.to_payload(), "models": "nope"})
        broken = index.to_payload()
        broken = {**broken, "models": {**broken["models"], "ghost": {"units": {}, "total": 0, "fingerprint": "x"}}}
        with pytest.raises(ValueError):
            MetricIndex.from_payload(broken)  # tree/models disagree

    def test_store_roundtrip(self, tmp_path, index, corpus):
        store = VpIndexStore(tmp_path)
        save_index(store, index)
        assert store.path_for(index_key(APP, SPEC)).exists()
        again = load_index(store, APP, SPEC)
        assert again.to_payload() == index.to_payload()
        name = next(iter(corpus))
        assert (
            again.query(corpus[name], corpus, 3).neighbors
            == index.query(corpus[name], corpus, 3).neighbors
        )

    def test_missing_artifact_is_silent_none(self, tmp_path):
        with diag.capture() as sink:
            assert load_index(VpIndexStore(tmp_path), APP, SPEC) is None
        assert sink.count() == 0

    def test_corrupt_artifact_warns_and_rebuilds(self, tmp_path, index):
        store = VpIndexStore(tmp_path)
        save_index(store, index)
        store.path_for(index_key(APP, SPEC)).write_bytes(b"\x00garbage")
        with diag.capture() as sink:
            assert load_index(store, APP, SPEC) is None
        assert any("index/artifact-invalid" in d.format() for d in sink.diagnostics)


class TestRefresh:
    def test_noop_refresh_reinserts_nothing(self, corpus):
        idx = MetricIndex.build(APP, corpus, SPEC)
        counts = idx.refresh(corpus)
        assert counts == {
            "added": 0,
            "removed": 0,
            "models_reinserted": 0,
            "units_reinserted": 0,
        }

    def test_touch_one_file_reinserts_exactly_one_unit(self, corpus):
        # the acceptance gate: a real one-file edit re-inserts one unit
        idx = MetricIndex.build(APP, corpus, SPEC)
        app, model = "babelstream", "serial"
        cpp = index_app(app)
        cidx = MetricIndex.build(app, cpp, parse_metric("Tsem"))
        spec_m = get_spec(app, model)
        fs = build_fs(app, model)
        main = spec_m.units["main"]
        fs.files[main] = fs.files[main] + "\nint nearest_touch_marker = 7;\n"
        touched = dict(cpp)
        touched[model] = index_codebase(spec_m, fs)
        counts = cidx.refresh(touched)
        assert counts["models_reinserted"] == 1
        assert counts["units_reinserted"] == 1
        assert counts["added"] == counts["removed"] == 0
        assert vptree.check_invariant(cidx.root, cidx._dist_fn(touched), cidx._weight) == []
        # post-refresh queries still agree with brute force over the new corpus
        others = [cb for m, cb in touched.items() if m != model]
        want = nearest_brute_force(touched[model], others, parse_metric("Tsem"))[:3]
        assert cidx.query(touched[model], touched, 3).neighbors == want
        assert idx.refresh(corpus)["units_reinserted"] == 0  # untouched app

    def test_removed_model_triggers_rebuild(self, corpus):
        idx = MetricIndex.build(APP, corpus, SPEC)
        victim = app_models(APP)[0]
        rest = {m: cb for m, cb in corpus.items() if m != victim}
        counts = idx.refresh(rest)
        assert counts["removed"] == 1
        assert victim not in set(vptree.members(idx.root))
        name = next(iter(rest))
        others = [cb for m, cb in rest.items() if m != name]
        want = nearest_brute_force(rest[name], others, SPEC)[:3]
        assert idx.query(rest[name], rest, 3).neighbors == want


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
