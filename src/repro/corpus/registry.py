"""Corpus registry: apps × models → specs, filesystems, cached indexes."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.corpus import babelstream, babelstream_fortran, cloverleaf, minibude, tealeaf
from repro.corpus.headers import system_headers
from repro.lang.source import VirtualFS
from repro.util.errors import WorkflowError
from repro.workflow.codebase import IndexedCodebase, ModelSpec
from repro.workflow.indexer import index_codebase

#: app name -> corpus module
APPS = {
    "babelstream": babelstream,
    "babelstream-fortran": babelstream_fortran,
    "minibude": minibude,
    "tealeaf": tealeaf,
    "cloverleaf": cloverleaf,
}

_INDEX_CACHE: dict[tuple[str, str, bool, bool], IndexedCodebase] = {}


def _app_module(app: str):
    """The corpus module of ``app``; an unknown name is a :class:`WorkflowError`."""
    if app not in APPS:
        raise WorkflowError(f"unknown app {app!r}; have {sorted(APPS)}")
    return APPS[app]


def app_models(app: str) -> list[str]:
    """Model names available for ``app`` (Table II rows)."""
    return list(_app_module(app).MODELS)


def get_spec(app: str, model: str) -> ModelSpec:
    mod = _app_module(app)
    if model not in mod.MODELS:
        raise WorkflowError(f"unknown model {model!r} for {app}; have {sorted(mod.MODELS)}")
    entry = mod.MODELS[model]
    if getattr(mod, "LANG", "cpp") == "fortran":
        fname, _src = entry
        return ModelSpec(
            app=app, model=model, lang="fortran", units={"main": fname}, entry=None
        )
    dialect, openmp, fname, _src = entry
    return ModelSpec(
        app=app,
        model=model,
        lang="cpp",
        dialect=dialect,
        openmp=openmp,
        units={"main": fname},
        entry="main",
    )


def build_fs(app: str, model: str) -> VirtualFS:
    """Virtual filesystem for one model port: sources + shared + system."""
    mod = _app_module(app)
    fs = VirtualFS()
    for path, text in system_headers().items():
        fs.add(path, text)
    for path, text in getattr(mod, "SHARED_FILES", {}).items():
        fs.add(path, text)
    entry = mod.MODELS[model]
    if getattr(mod, "LANG", "cpp") == "fortran":
        fname, src = entry
    else:
        _dialect, _openmp, fname, src = entry
    fs.add(fname, src)
    return fs


def index_model(
    app: str,
    model: str,
    coverage: bool = False,
    strict: bool = False,
    artifacts=None,
) -> IndexedCodebase:
    """Index one model port (cached per process).

    ``artifacts`` threads through to :func:`index_codebase` for incremental
    indexing; it does not partition the in-process cache (the indexed
    result is identical either way).
    """
    key = (app, model, coverage, strict)
    if key not in _INDEX_CACHE:
        spec = get_spec(app, model)
        fs = build_fs(app, model)
        _INDEX_CACHE[key] = index_codebase(
            spec, fs, run_coverage=coverage, strict=strict, artifacts=artifacts
        )
    return _INDEX_CACHE[key]


def index_app(
    app: str,
    models: Optional[Sequence[str]] = None,
    coverage: bool = False,
    strict: bool = False,
    artifacts=None,
) -> dict[str, IndexedCodebase]:
    """Index several (default: all) model ports of an app."""
    names = list(models) if models is not None else app_models(app)
    return {m: index_model(app, m, coverage, strict=strict, artifacts=artifacts) for m in names}


def cached_codebases() -> int:
    """How many indexed codebases the in-process cache holds."""
    return len(_INDEX_CACHE)


def clear_index_cache() -> None:
    _INDEX_CACHE.clear()
