"""Incremental indexing: per-unit artifacts, hit/miss accounting, bit-identity.

These tests drive :func:`index_codebase` with a ``UnitArtifactStore`` against
a tiny hand-built codebase so every frontend invocation is observable via the
``index.unit.{hit,miss}`` counters.
"""

import struct
import zlib

import pytest

from repro import diag, obs
from repro.corpus import build_fs, get_spec
from repro.lang.source import VirtualFS
from repro.serde import pack, read_blob, write_blob
from repro.serde.container import MAGIC, VERSION
from repro.workflow import unitstore
from repro.workflow.codebase import ModelSpec
from repro.workflow.codebasedb import _unit_to_obj, save_codebase_db
from repro.workflow.indexer import index_codebase
from repro.workflow.unitstore import UnitArtifactStore, load_unit, unit_key
from tests.workflow.test_codebasedb import BAD_REFS, MISSHAPEN


def make_fs(files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p, t)
    return fs


FILES = {
    "a.cpp": '#include "common.h"\nint fa() { return C + 1; }\n',
    "b.cpp": "int fb() { return 2; }\n",
    "common.h": "int C = 40;\n",
}


def make_spec():
    return ModelSpec(
        app="t", model="m", lang="cpp", units={"a": "a.cpp", "b": "b.cpp"}, entry=None
    )


def index_counting(spec, fs, store, **kw):
    with obs.collect() as col:
        cb = index_codebase(spec, fs, artifacts=store, **kw)
    return cb, col.counters


class TestHitMiss:
    def test_cold_then_warm(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        spec, fs = make_spec(), make_fs(FILES)

        _, cold = index_counting(spec, fs, store)
        assert cold["index.unit.miss"] == 2
        assert cold["index.units"] == 2
        assert "index.unit.hit" not in cold

        with diag.capture() as sink:
            cb, warm = index_counting(spec, make_fs(FILES), store)
        assert warm["index.unit.hit"] == 2
        assert "index.unit.miss" not in warm
        assert "index.units" not in warm  # zero frontend invocations
        assert not sink.diagnostics
        assert set(cb.units) == {"a", "b"}
        assert cb.units["a"].t_sem is not None

    def test_touch_one_file_reindexes_only_it(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        index_counting(make_spec(), make_fs(FILES), store)

        touched = dict(FILES)
        touched["b.cpp"] = "int fb() { return 3; }\n"
        cb, c = index_counting(make_spec(), make_fs(touched), store)
        assert c["index.unit.hit"] == 1
        assert c["index.unit.miss"] == 1
        assert c["index.units"] == 1
        assert "return 3 ;" in " / ".join(cb.units["b"].source_lines_pre)

    def test_header_change_misses_through_depfile(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        index_counting(make_spec(), make_fs(FILES), store)

        touched = dict(FILES)
        touched["common.h"] = "int C = 41;\n"
        # Only unit "a" includes common.h, but a header edit changes the fs
        # layout-independent content, so the unit key (main hash + layout)
        # still matches — the depfile check must catch it.
        _, c = index_counting(make_spec(), make_fs(touched), store)
        assert c["index.unit.miss"] >= 1
        assert c.get("index.unit.hit", 0) + c["index.unit.miss"] == 2
        # unit "a" specifically must have been re-fronted
        assert c["index.units"] == c["index.unit.miss"]

    def test_deep_tree_replays(self, tmp_path):
        # a 300-term sum nests T_sem about 300 deep; the warm load must not
        # recurse per tree level
        store = UnitArtifactStore(tmp_path)
        files = {"a.cpp": "int fa() { return " + "+".join(["1"] * 300) + "; }\n"}
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"a": "a.cpp"}, entry=None)
        cold, _ = index_counting(spec, make_fs(files), store)
        assert cold.units["a"].t_sem.depth() > 300

        warm, c = index_counting(spec, make_fs(files), store)
        assert c["index.unit.hit"] == 1 and "index.units" not in c
        assert warm.units["a"].t_sem == cold.units["a"].t_sem

    def test_new_file_in_layout_invalidates(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        index_counting(make_spec(), make_fs(FILES), store)

        grown = dict(FILES)
        grown["common2.h"] = "int D = 1;\n"
        _, c = index_counting(make_spec(), make_fs(grown), store)
        # layout digest changed -> every key changed -> all misses
        assert c["index.unit.miss"] == 2


class TestArtifactHygiene:
    def test_corrupt_artifact_warns_and_reindexes(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        spec, fs = make_spec(), make_fs(FILES)
        index_counting(spec, fs, store)

        key = unit_key(spec, fs, "a", "a.cpp", recover=True, coverage=False)
        store.path_for(key).write_bytes(b"garbage")
        with diag.capture() as sink:
            _, c = index_counting(spec, make_fs(FILES), store)
        assert c["index.unit.miss"] == 1 and c["index.unit.hit"] == 1
        assert sink.by_code().get("index/artifact-invalid") == 1

    @pytest.mark.parametrize("case", sorted(MISSHAPEN))
    def test_misshapen_tree_section_is_an_invalid_miss(self, tmp_path, case):
        # valid container, schema, keyspec and key: only the tree is bad
        store = UnitArtifactStore(tmp_path)
        spec, fs = make_spec(), make_fs(FILES)
        index_counting(spec, fs, store)
        key = unit_key(spec, fs, "a", "a.cpp", recover=True, coverage=False)
        path = store.path_for(key)
        payload = read_blob(path)
        unit = payload["value"]["unit"]
        unit["t_sem"] = MISSHAPEN[case](unit["t_sem"])
        write_blob(path, payload, atomic=True)

        with diag.capture() as sink, obs.collect() as col:
            assert load_unit(store, key, fs) is None
        assert sink.by_code() == {"index/artifact-invalid": 1}
        assert col.counters["index.unit.invalid"] == 1

    @pytest.mark.parametrize("case", sorted(BAD_REFS))
    def test_bad_tree_reference_is_an_invalid_miss(self, tmp_path, case):
        store = UnitArtifactStore(tmp_path)
        spec, fs = make_spec(), make_fs(FILES)
        index_counting(spec, fs, store)
        key = unit_key(spec, fs, "a", "a.cpp", recover=True, coverage=False)
        path = store.path_for(key)
        payload = read_blob(path)
        payload["value"]["unit"].update(BAD_REFS[case])
        write_blob(path, payload, atomic=True)

        with diag.capture() as sink, obs.collect() as col:
            assert load_unit(store, key, fs) is None
        assert sink.by_code() == {"index/artifact-invalid": 1}
        assert col.counters["index.unit.invalid"] == 1

    def test_malformed_payload_is_an_invalid_miss(self, tmp_path):
        # a sound container whose MessagePack payload has an array map key
        store = UnitArtifactStore(tmp_path)
        spec, fs = make_spec(), make_fs(FILES)
        index_counting(spec, fs, store)
        key = unit_key(spec, fs, "a", "a.cpp", recover=True, coverage=False)
        payload = zlib.compress(b"\x81\x90\x01")
        store.path_for(key).write_bytes(
            MAGIC + bytes([VERSION]) + struct.pack(">I", len(payload)) + payload
        )

        with diag.capture() as sink, obs.collect() as col:
            assert load_unit(store, key, fs) is None
        assert sink.by_code() == {"index/artifact-invalid": 1}
        assert col.counters["index.unit.invalid"] == 1

    def test_previous_keyspec_root_is_all_misses(self, tmp_path, monkeypatch):
        # artifacts written under unit:frontend:v2 sit under other keys:
        # never read, so they are plain misses, not invalid ones
        with monkeypatch.context() as m:
            m.setattr(unitstore, "KEY_SPEC", "unit:frontend:v2")
            old = UnitArtifactStore(tmp_path, keyspec="unit:frontend:v2")
            index_counting(make_spec(), make_fs(FILES), old)
        assert len(old.keys()) == 2

        with diag.capture() as sink:
            _, c = index_counting(make_spec(), make_fs(FILES), UnitArtifactStore(tmp_path))
        assert c["index.unit.miss"] == 2 and c["index.units"] == 2
        assert "index.unit.hit" not in c and "index.unit.invalid" not in c
        assert not sink.diagnostics

    def test_strict_bypasses_store(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        spec, fs = make_spec(), make_fs(FILES)
        index_counting(spec, fs, store)

        _, c = index_counting(spec, make_fs(FILES), store, strict=True)
        assert "index.unit.hit" not in c
        assert c["index.units"] == 2

    def test_degraded_units_not_persisted(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        bad = {"a.cpp": "int fa( { syntax error\n", "b.cpp": FILES["b.cpp"]}
        spec = ModelSpec(
            app="t", model="m", lang="cpp", units={"a": "a.cpp", "b": "b.cpp"}, entry=None
        )
        with diag.capture():
            cb, c1 = index_counting(spec, make_fs(bad), store)
        # depending on frontend recovery "a" may degrade or carry diagnostics;
        # either way it must not be cached, so the re-run re-fronts it.
        with diag.capture():
            _, c2 = index_counting(spec, make_fs(bad), store)
        assert c2.get("index.unit.hit", 0) <= 1
        assert c2["index.unit.miss"] >= 1


class TestBitIdentity:
    def test_warm_db_identical_to_cold(self, tmp_path):
        store = UnitArtifactStore(tmp_path / "store")
        cold = index_codebase(make_spec(), make_fs(FILES), artifacts=store)
        p1 = tmp_path / "cold.svdb"
        save_codebase_db(cold, p1)

        warm = index_codebase(make_spec(), make_fs(FILES), artifacts=store)
        p2 = tmp_path / "warm.svdb"
        save_codebase_db(warm, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSharedTrees:
    def test_warm_fortran_unit_keeps_shared_trees(self, tmp_path):
        # T_src pre/post and T_sem / T_sem+i are one object each in a
        # Fortran unit, cold or replayed, and the replay encodes the same
        store = UnitArtifactStore(tmp_path)
        spec = get_spec("babelstream-fortran", "sequential")
        cold = index_codebase(spec, build_fs("babelstream-fortran", "sequential"), artifacts=store)
        warm, c = index_counting(spec, build_fs("babelstream-fortran", "sequential"), store)
        assert c["index.unit.hit"] == 1 and "index.units" not in c
        for unit in (cold.units["main"], warm.units["main"]):
            assert unit.t_src_post is unit.t_src_pre
            assert unit.t_sem_inlined is unit.t_sem
        assert pack(_unit_to_obj(warm.units["main"])) == pack(_unit_to_obj(cold.units["main"]))


class TestCoverageReplay:
    def test_coverage_identical_cold_vs_warm(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        fs_files = {"main.cpp": "int main() {\nreturn 0;\n}\n"}
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})

        cold = index_codebase(spec, make_fs(fs_files), run_coverage=True, artifacts=store)
        with obs.collect() as col:
            warm = index_codebase(
                spec, make_fs(fs_files), run_coverage=True, artifacts=store
            )
        assert col.counters["index.unit.hit"] == 1
        assert cold.run_value == warm.run_value == 0
        assert cold.coverage is not None and warm.coverage is not None
        assert cold.coverage.hits == warm.coverage.hits

    def test_coverage_and_plain_artifacts_are_distinct(self, tmp_path):
        store = UnitArtifactStore(tmp_path)
        fs_files = {"main.cpp": "int main() {\nreturn 0;\n}\n"}
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})
        index_codebase(spec, make_fs(fs_files), run_coverage=False, artifacts=store)
        with obs.collect() as col:
            cb = index_codebase(spec, make_fs(fs_files), run_coverage=True, artifacts=store)
        assert col.counters["index.unit.miss"] == 1
        assert cb.coverage is not None
