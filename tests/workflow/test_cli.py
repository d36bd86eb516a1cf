"""CLI smoke tests (fast subcommands only)."""

import pytest

from repro.workflow.cli import main, _metric_spec


class TestMetricSpecParsing:
    def test_plain(self):
        s = _metric_spec("Tsem")
        assert s.name == "Tsem" and not s.pp and not s.coverage

    def test_suffixes(self):
        s = _metric_spec("Source+pp+cov")
        assert s.name == "Source" and s.pp and s.coverage

    def test_inlining(self):
        s = _metric_spec("Tsem+i")
        assert s.inlining


class TestCommands:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "babelstream" in out and "tealeaf" in out

    def test_compare(self, capsys):
        assert main(["compare", "babelstream", "omp", "-m", "Tsem"]) == 0
        out = capsys.readouterr().out
        assert "divergence" in out

    def test_phi(self, capsys):
        assert main(["phi", "tealeaf"]) == 0
        out = capsys.readouterr().out
        assert "kokkos" in out

    def test_phi_cascade_csv(self, capsys):
        assert main(["phi", "cloverleaf", "--cascade"]) == 0
        out = capsys.readouterr().out
        assert "model,position,platform" in out

    def test_index_writes_db(self, tmp_path, capsys):
        out_file = tmp_path / "db.svdb"
        assert main(["index", "babelstream", "serial", "-o", str(out_file)]) == 0
        assert out_file.exists()

    @pytest.mark.parametrize("cmd", [["compare", "bogus", "omp"], ["index", "bogus", "omp"]])
    def test_unknown_app_is_an_error_not_a_traceback(self, cmd, capsys):
        assert main(cmd) == 1
        assert "error: unknown app 'bogus'; have [" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize(
        "opt", [["--retries", "3"], ["--wave-timeout-s", "5"], ["--no-cache"], ["--jobs", "2"]]
    )
    def test_index_rejects_engine_only_options(self, opt, capsys):
        # index builds no distance engine, so it takes none of its options
        with pytest.raises(SystemExit) as e:
            main(["index", "babelstream-fortran", "sequential", *opt])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("opt", [["--resume"], ["--checkpoint-dir", "ckpt"]])
    def test_checkpoint_options_are_gone(self, opt):
        # an interrupted run resumes by re-running with the same --cache-dir
        with pytest.raises(SystemExit) as e:
            main(["cluster", "babelstream-fortran", *opt])
        assert e.value.code == 2

    def test_chunk_timeout_is_gone(self, capsys):
        # the pool sees a dead worker on its pipe at once: no chunk deadline
        with pytest.raises(SystemExit) as e:
            main(["cluster", "tealeaf", "--chunk-timeout", "5"])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("opt", [["--request-timeout-s", "1"], ["--hot-max-entries", "5"]])
    def test_retired_serve_options_are_gone(self, opt, capsys):
        # a request deadline freed no engine time, and the divergence
        # memo's cap is a constant
        with pytest.raises(SystemExit) as e:
            main(["serve", "--port", "0", *opt])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutputPaths:
    """Output files land in directories that do not exist yet; a path that
    still cannot be written is an ``error:`` line and exit status 1."""

    INDEX = ["index", "babelstream-fortran", "omp"]

    def test_index_output_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "x.svdb"
        assert main([*self.INDEX, "-o", str(out)]) == 0
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("opt", ["--trace-out", "--metrics-out"])
    def test_profile_output_into_missing_directory(self, opt, tmp_path, capsys):
        import json

        out = tmp_path / "new" / "dir" / "x.json"
        assert main([*self.INDEX, "-o", str(tmp_path / "x.svdb"), opt, str(out)]) == 0
        assert json.loads(out.read_text())

    @pytest.mark.parametrize("opt", ["-o", "--trace-out", "--metrics-out"])
    def test_unwritable_output_is_an_error(self, opt, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        blocked = str(tmp_path / "file" / "x.out")
        args = [*self.INDEX, "-o", str(tmp_path / "x.svdb"), opt, blocked]
        assert main(args) == 1
        assert f"error: cannot write {blocked}: " in capsys.readouterr().err


def _serial_with(monkeypatch, fault: str) -> None:
    """Patch babelstream serial so ``main`` starts with ``fault``."""
    from repro.corpus import babelstream
    from repro.corpus.registry import clear_index_cache

    dialect, openmp, fname, src = babelstream.MODELS["serial"]
    src = src.replace("int main() {\n", "int main() {\n" + fault, 1)
    monkeypatch.setitem(babelstream.MODELS, "serial", (dialect, openmp, fname, src))
    clear_index_cache()


class TestCoverageRunFault:
    """A runtime fault in the measured program (babelstream serial with
    ``zz % (zz - 1)`` added to ``main``, or a write to a misspelt name)
    fails its coverage run only."""

    @pytest.fixture
    def faulty_serial(self, monkeypatch):
        from repro.corpus.registry import clear_index_cache

        _serial_with(monkeypatch, "  int zz = 1;\n  zz = zz % (zz - 1);\n")
        yield
        clear_index_cache()

    @pytest.fixture
    def misspelt_serial(self, monkeypatch):
        from repro.corpus.registry import clear_index_cache

        _serial_with(monkeypatch, "  int total = 0;\n  totl += 1;\n")
        yield
        clear_index_cache()

    def test_run_fails_and_the_unit_indexes(self, faulty_serial, tmp_path, capsys):
        out = tmp_path / "x.svdb"
        args = ["index", "babelstream", "serial", "--coverage", "--no-incremental", "-o", str(out)]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert (
            "verification run returned coverage run failed: "
            "ZeroDivisionError: integer modulo by zero" in captured.out
        )
        assert captured.err == ""

    def test_strict_reports_the_fault(self, faulty_serial, tmp_path, capsys):
        out = str(tmp_path / "x.svdb")
        args = ["index", "babelstream", "serial", "--coverage", "--strict", "-o", out]
        assert main(args) == 1
        assert "error: ZeroDivisionError: integer modulo by zero" in capsys.readouterr().err

    def test_misspelt_write_fails_the_run_and_keeps_the_trees(
        self, misspelt_serial, tmp_path, capsys
    ):
        from repro.workflow.codebasedb import load_codebase_db

        out = tmp_path / "x.svdb"
        args = ["index", "babelstream", "serial", "--coverage", "--no-incremental", "-o", str(out)]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert (
            "verification run returned coverage run failed: "
            "undefined identifier 'totl'" in captured.out
        )
        assert captured.err == ""
        (unit,) = load_codebase_db(str(out)).units.values()
        assert not unit.degraded
        assert None not in (unit.t_src_pre, unit.t_src_post, unit.t_sem, unit.t_ir)

    def test_strict_reports_the_misspelt_write(self, misspelt_serial, tmp_path, capsys):
        out = str(tmp_path / "x.svdb")
        args = ["index", "babelstream", "serial", "--coverage", "--strict", "-o", out]
        assert main(args) == 1
        assert "error: undefined identifier 'totl'" in capsys.readouterr().err


class TestProfiling:
    """--profile / --trace-out / --metrics-out / stats (small Fortran corpus)."""

    def test_compare_profile_prints_span_report(self, capsys):
        # assert cold-pipeline spans: other modules may have warmed the
        # in-process registry/TED memos for this corpus
        from repro.corpus.registry import clear_index_cache
        from repro.distance.ted import clear_ted_cache

        clear_index_cache()
        clear_ted_cache()
        rc = main(["compare", "babelstream-fortran", "omp", "-b", "sequential", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile" in out
        # nested stage spans from the index+compare pipeline
        for stage in ("index.", "parse", "lower", "ted"):
            assert stage in out
        assert "lex.fortran.tokens" in out

    def test_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "compare",
                "babelstream-fortran",
                "omp",
                "-b",
                "sequential",
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        tdata = json.loads(trace.read_text())
        assert any(e["ph"] == "X" and e["name"] == "ted" for e in tdata["traceEvents"])
        mdata = json.loads(metrics.read_text())
        assert mdata["spans"]["ted"]["count"] > 0

    def test_stats_shows_cache_counters(self, capsys):
        rc = main(["stats", "babelstream-fortran"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ted.cache.hit" in out
        assert "ted.cache.miss" in out
        assert "ted.shortcut" in out  # distinct from memo hits
        assert "spans:" in out and "counters:" in out

    def test_stats_json(self, capsys):
        import json

        rc = main(["stats", "babelstream-fortran", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"].startswith("repro.obs/")
        assert "ted.cache.hit" in data["counters"]

    def test_profile_leaves_no_collector_installed(self):
        from repro import obs

        main(["compare", "babelstream-fortran", "omp", "-b", "sequential", "--profile"])
        assert not obs.enabled()


class TestSlowCommands:
    """cluster/heatmap exercised on the small Fortran corpus (fast)."""

    def test_cluster(self, capsys):
        from repro.workflow.cli import main as cli_main

        assert cli_main(["cluster", "babelstream-fortran", "-m", "Tsem"]) == 0
        out = capsys.readouterr().out
        assert "openacc" in out and "h=" in out

    def test_heatmap(self, capsys):
        from repro.workflow.cli import main as cli_main

        assert cli_main(["heatmap", "babelstream-fortran", "-b", "sequential"]) == 0
        out = capsys.readouterr().out
        assert "Tsem" in out and "openacc" in out
