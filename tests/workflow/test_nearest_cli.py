"""``silvervale nearest``: the target's divergence row, sorted."""

import json

import pytest

from repro.corpus.registry import clear_index_cache, index_app
from repro.distance.ted import clear_ted_cache
from repro.workflow.cli import main
from repro.workflow.comparer import nearest, parse_metric

APP = "babelstream-fortran"
MODEL = "sequential"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "root"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(d))
    clear_index_cache()
    clear_ted_cache()
    return d


def run_json(capsys, *argv):
    capsys.readouterr()
    assert main(["nearest", APP, MODEL, "--json", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def library_top(metric: str, k: int) -> list[dict]:
    spec = parse_metric(metric)
    cbs = index_app(APP, coverage=spec.coverage)
    others = [cb for m, cb in cbs.items() if m != MODEL]
    return [{"model": m, "divergence": d} for d, m in nearest(cbs[MODEL], others, spec)[:k]]


class TestRanking:
    def test_json_is_the_library_ranking(self, cache_dir, capsys):
        payload = run_json(capsys, "-k", "4")
        assert set(payload) == {"app", "model", "metric", "k", "neighbors"}
        assert payload["neighbors"] == library_top("Tsem", 4)  # bit-identical floats

    def test_text_output_lists_ranks(self, cache_dir, capsys):
        assert main(["nearest", APP, MODEL, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert f"2 nearest to {MODEL} under Tsem:" in out
        assert "  1. " in out and "  2. " in out


class TestFallbackAndErrors:
    def test_non_tree_metric_scans_without_diag(self, cache_dir, capsys):
        capsys.readouterr()
        assert main(["nearest", APP, MODEL, "-m", "SLOC", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["neighbors"] == library_top("SLOC", 3)
        assert captured.err == ""

    def test_unknown_model_is_an_error(self, cache_dir, capsys):
        assert main(["nearest", APP, "not-a-model"]) == 1
        assert "unknown model" in capsys.readouterr().err

    def test_k_must_be_positive(self, cache_dir, capsys):
        assert main(["nearest", APP, MODEL, "-k", "0"]) == 1
        assert "k must be >= 1" in capsys.readouterr().err
