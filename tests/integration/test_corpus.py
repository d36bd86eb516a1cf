"""Corpus integration: every port parses, runs, verifies and indexes.

Mirrors the paper's artefact-evaluation statement: "Each mini-app contains
built-in verification for correctness" and "SilverVale compares the base
model against itself; non-zero results will indicate an error".
"""

import pytest

from repro.corpus import APPS, app_models, build_fs, get_spec, index_model
from repro.metrics import sloc
from repro.util.errors import WorkflowError
from repro.workflow.comparer import MetricSpec, divergence

# the fast representative subset used for per-model checks
CPP_APPS = ["babelstream", "minibude"]


def all_pairs():
    out = []
    for app in APPS:
        for model in app_models(app):
            out.append((app, model))
    return out


@pytest.mark.parametrize("app,model", all_pairs())
def test_port_indexes_and_verifies(app, model):
    cb = index_model(app, model, coverage=True)
    unit = cb.units["main"]
    assert unit.t_sem is not None and unit.t_sem.size() > 50
    assert unit.t_src_pre is not None
    assert unit.t_ir is not None
    assert sloc(cb) > 10
    if cb.spec.lang == "cpp":
        # verification run must have passed (exit code 0)
        assert cb.run_value == 0, f"{app}/{model} failed verification"
        assert cb.coverage is not None and cb.coverage.total_hits() > 0


@pytest.mark.parametrize("app", CPP_APPS)
def test_self_divergence_is_zero(app):
    """The built-in self-check: base model vs itself must be exactly zero."""
    cb = index_model(app, "serial", coverage=True)
    for spec in (MetricSpec("Source"), MetricSpec("Tsrc"), MetricSpec("Tsem"), MetricSpec("Tir")):
        assert divergence(cb, cb, spec) == 0.0, spec.label


@pytest.mark.parametrize("app", CPP_APPS)
def test_every_model_diverges_from_serial(app):
    serial = index_model(app, "serial", coverage=True)
    for model in app_models(app):
        if model == "serial":
            continue
        cb = index_model(app, model, coverage=True)
        d = divergence(serial, cb, MetricSpec("Tsem"))
        assert d > 0.0, model


def test_shared_header_contributes_zero():
    """'any boilerplate code shared between all models will not have any
    impact on the metric' — shared headers hash identically."""
    from repro.trees.hashing import structural_hash
    from repro.lang.cpp.cst import build_cst
    from repro.lang.cpp.lexer import lex

    fs_a = build_fs("babelstream", "serial")
    fs_b = build_fs("babelstream", "omp")
    header_a = fs_a.get("stream_common.h").text
    header_b = fs_b.get("stream_common.h").text
    assert header_a == header_b
    ha = structural_hash(build_cst(lex(header_a, "h"), "h"))
    hb = structural_hash(build_cst(lex(header_b, "h"), "h"))
    assert ha == hb


def test_specs_are_consistent():
    for app in APPS:
        for model in app_models(app):
            spec = get_spec(app, model)
            fs = build_fs(app, model)
            for _role, path in spec.units.items():
                assert fs.exists(path), (app, model, path)


@pytest.mark.parametrize("lookup", [app_models, get_spec, build_fs])
def test_unknown_app_is_a_workflow_error(lookup):
    args = ("bogus",) if lookup is app_models else ("bogus", "omp")
    with pytest.raises(WorkflowError, match="unknown app 'bogus'; have "):
        lookup(*args)


@pytest.mark.parametrize("lookup", [get_spec, build_fs])
def test_unknown_model_is_a_workflow_error(lookup):
    with pytest.raises(WorkflowError, match="unknown model 'bogus' for babelstream; have "):
        lookup("babelstream", "bogus")


def test_fortran_models_have_static_coverage():
    cb = index_model("babelstream-fortran", "omp", coverage=True)
    assert cb.coverage is not None
    assert cb.coverage.total_hits() > 0
