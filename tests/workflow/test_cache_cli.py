"""``silvervale cache`` over the unified artifact root.

The ``stats`` top-level keys remain the TED shard summary (CI's warm-cache
gate reads ``entries``); the ``namespaces`` section enumerates every artifact
namespace sharing the root.
"""

import json

import pytest

from repro.corpus.registry import clear_index_cache
from repro.distance.ted import clear_ted_cache
from repro.workflow.cli import main


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "root"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(d))
    return d


def populate(cache_dir):
    """One incremental index (unit artifacts) + one cached compare (ted).

    In-process memos (registry index cache, TED memo) would otherwise
    satisfy repeat runs without touching disk — clear them so every test's
    ``populate`` actually writes artifacts under its own root.
    """
    clear_index_cache()
    clear_ted_cache()
    assert main(["index", "babelstream", "serial", "-o", str(cache_dir / "out.svdb")]) == 0
    assert main(["compare", "babelstream", "omp", "-m", "Tsem", "--cache-dir", str(cache_dir)]) == 0


class TestStats:
    def test_json_lists_namespaces(self, cache_dir, capsys):
        populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["entries"] > 0  # the historical TED contract CI pins
        assert "unit" in d["namespaces"] and "ted" in d["namespaces"]
        assert d["namespaces"]["unit"]["entries"] > 0
        assert d["namespaces"]["unit"]["files"] > 0
        assert d["namespaces"]["ted"]["entries"] == d["entries"]

    def test_text_output_mentions_namespaces(self, cache_dir, capsys):
        populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "namespaces :" in out
        assert "unit" in out and "ted" in out

    def test_no_root_configured(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestClear:
    def test_clear_all_namespaces(self, cache_dir, capsys):
        populate(cache_dir)
        # namespaces no store owns any more (retired ones) are cleared too
        (cache_dir / "vpindex-x.svc").write_bytes(b"stale")
        (cache_dir / "ckpt-x.svc").write_bytes(b"stale")
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["entries"] == 0
        assert d["namespaces"] == {}

    def test_clear_single_namespace(self, cache_dir, capsys):
        populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--namespace", "unit"]) == 0
        out = capsys.readouterr().out
        assert "unit artifact file(s)" in out
        assert main(["cache", "stats", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert "unit" not in d["namespaces"]
        assert d["entries"] > 0  # ted shards survive

    def test_unknown_namespace_rejected(self, cache_dir, capsys):
        assert main(["cache", "clear", "--namespace", "bogus"]) == 2
        assert "unknown namespace" in capsys.readouterr().err
