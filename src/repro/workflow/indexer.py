"""The index step: codebase → per-unit semantic-bearing representations.

For every translation unit this extracts (Fig. 3 of the paper):

* pre/post-preprocessor significant-line sets (SLOC ±pp),
* logical line counts (LLOC ±pp),
* normalised text lines with (file, line) tags (Source metric ± coverage),
* ``T_src`` pre/post, ``T_sem``, ``T_sem+i`` and ``T_ir`` trees,

and optionally executes the unit's verification run in the interpreter to
obtain the coverage profile.

Fault tolerance: by default each unit is indexed with recovering frontends
(tolerant lexing + panic-mode parsing), and a unit whose frontend still
fails is *quarantined* — it degrades to raw-text SLOC metrics with no
trees, the failure is reported via :mod:`repro.diag`
(``index/quarantined`` / ``index/internal-error``), and the rest of the
codebase indexes normally. ``strict=True`` restores fail-fast behaviour.

Incremental builds: indexing is a pure function of (source content,
frontend configuration), so each unit's output can be persisted as a
content-addressed artifact (:mod:`repro.workflow.unitstore`) and replayed
on the next run. Pass ``artifacts=UnitArtifactStore(...)`` to enable;
unchanged units load from disk with **zero** lex/parse/sema work
(``index.unit.hit``), changed units re-index (``index.unit.miss``) and,
with ``jobs > 1``, fan out across a :class:`repro.parallel.ChunkedPool`.
Strict mode bypasses the store entirely (fail-fast implies fresh
frontends) and indexes serially.
"""

from __future__ import annotations

from typing import Optional

from repro import diag, obs
from repro.compiler import CompileOptions, bundle_to_tree, lower_unit
from repro.coverage.profile import CoverageProfile, profile_from_run
from repro.exec.interpreter import run_program
from repro.lang.cpp.asttree import ast_to_tree
from repro.lang.cpp.cst import build_cst, normalized_src_tree
from repro.lang.cpp.lexer import Token, TokenType, lex
from repro.lang.cpp.parser import parse_tokens
from repro.lang.cpp.preprocessor import preprocess
from repro.lang.cpp.sema import analyze
from repro.lang.fortran.cst import fortran_cst, fortran_src_tree
from repro.lang.fortran.lexer import FtTokenType, lex_fortran
from repro.lang.fortran.parser import parse_fortran
from repro.lang.fortran.asttree import fortran_to_tree
from repro.lang.fortran.lower import lower_fortran
from repro.lang.source import VirtualFS
from repro.parallel import ChunkedPool
from repro.trees.inline import collect_definitions, inline_calls
from repro.trees.normalize import normalize_names, strip_non_semantic
from repro.util.errors import ReproError
from repro.workflow.codebase import IndexedCodebase, IndexedUnit, ModelSpec
from repro.workflow.linesummary import LineSummary
from repro.workflow.unitstore import UnitArtifactStore, load_unit, save_unit, unit_key

_CTRL_KEYWORDS = frozenset({"for", "if", "while", "do", "switch", "case"})


# ---------------------------------------------------------------------------
# C++ line summaries
# ---------------------------------------------------------------------------


def _cpp_line_summary(tokens: list[Token]) -> LineSummary:
    """Sig-line sets and normalised lines from one C++ token stream. The
    tokeniser has no newline tokens, so groups auto-break on (file, line)."""
    ls = LineSummary(auto_break=True)
    for t in tokens:
        if t.is_trivia or t.type is TokenType.EOF:
            continue
        ls.feed(t.file, t.line, t.text)
    return ls.finish()


def _cpp_lloc(tokens: list[Token]) -> int:
    """Nguyen-style logical lines: statements + control constructs."""
    semis = 0
    fors = 0
    ctrl = 0
    for t in tokens:
        if t.type is TokenType.PUNCT and t.text == ";":
            semis += 1
        elif t.type is TokenType.KEYWORD and t.text in _CTRL_KEYWORDS:
            ctrl += 1
            if t.text == "for":
                fors += 1
        elif t.type is TokenType.DIRECTIVE:
            ctrl += 1  # a retained pragma is one logical line
    return max(semis - 2 * fors + ctrl, 0)


@obs.traced("index.cpp")
def index_cpp_unit(
    fs: VirtualFS,
    role: str,
    path: str,
    options: CompileOptions,
    defines: Optional[dict[str, str]] = None,
    recover: bool = False,
) -> IndexedUnit:
    """Index one MiniC++ translation unit.

    ``recover=True`` lexes tolerantly and parses with panic-mode recovery,
    so damaged sources yield partial trees plus diagnostics.
    """
    unit = IndexedUnit(role=role, path=path)
    with obs.span("preprocess", path=path):
        pp = preprocess(fs, path, defines)
    unit.deps = list(pp.dependencies)

    # pre-preprocessor: lex every file of the unit separately
    with obs.span("lex", path=path):
        pre_tokens: list[Token] = []
        for f in [path, *unit.deps]:
            toks = lex(fs.get(f).text, f, tolerant=recover)
            pre_tokens.extend(toks)
            unit.lloc_pre[f] = _cpp_lloc(toks)
    pre = _cpp_line_summary(pre_tokens)
    unit.sig_lines_pre = pre.sig
    unit.source_lines_pre, unit.source_tags_pre = pre.lines, pre.tags

    # post-preprocessor
    post = _cpp_line_summary(pp.tokens)
    unit.sig_lines_post = post.sig
    unit.lloc_post[path] = _cpp_lloc(pp.tokens)
    unit.source_lines_post, unit.source_tags_post = post.lines, post.tags

    # trees
    with obs.span("trees.src", path=path):
        unit.t_src_pre = normalize_names(
            normalized_src_tree(build_cst(lex(fs.get(path).text, path, tolerant=recover), path))
        )
        unit.t_src_post = normalize_names(normalized_src_tree(build_cst(pp.tokens, path)))
    with obs.span("parse", path=path):
        tu = parse_tokens(pp.tokens, path, recover=recover)
    with obs.span("sema", path=path):
        sema = analyze(tu)
    with obs.span("trees.sem", path=path):
        sem_raw = strip_non_semantic(ast_to_tree(tu, sema))
        sem_named = normalize_names(sem_raw)
        unit.t_sem = sem_named
        defs = collect_definitions(sem_named)
        unit.t_sem_inlined = inline_calls(sem_named, defs)
    with obs.span("lower", path=path):
        bundle = lower_unit(tu, sema, options)
        unit.t_ir = bundle_to_tree(bundle)
    obs.add("index.units")
    # keep handles for the coverage step
    unit_attrs = {"tu": tu, "sema": sema}
    unit.__dict__["_frontend"] = unit_attrs
    return unit


# ---------------------------------------------------------------------------
# Fortran line summaries
# ---------------------------------------------------------------------------


@obs.traced("index.fortran")
def index_fortran_unit(fs: VirtualFS, role: str, path: str, recover: bool = False) -> IndexedUnit:
    """Index one MiniFortran file (Fortran has no preprocessing phase here:
    the pre/post representations coincide)."""
    unit = IndexedUnit(role=role, path=path)
    text = fs.get(path).text
    with obs.span("lex", path=path):
        toks = lex_fortran(text, path, tolerant=recover)
    # explicit NEWLINE/EOF tokens delimit logical lines, so the summary
    # groups on break_line() rather than (file, line) changes
    ls = LineSummary(auto_break=False)
    for t in toks:
        if t.type is FtTokenType.COMMENT:
            continue
        if t.type in (FtTokenType.NEWLINE, FtTokenType.EOF):
            ls.break_line()
            continue
        ls.feed(t.file, t.line, t.text)
    ls.finish()
    unit.sig_lines_pre = ls.sig
    unit.sig_lines_post = {f: set(lines) for f, lines in ls.sig.items()}
    unit.lloc_pre[path] = len(ls.lines)
    unit.lloc_post[path] = len(ls.lines)
    unit.source_lines_pre = ls.lines
    unit.source_tags_pre = ls.tags
    unit.source_lines_post = list(ls.lines)
    unit.source_tags_post = list(ls.tags)

    with obs.span("trees.src", path=path):
        cst = fortran_cst(text, path, tolerant=recover)
        unit.t_src_pre = normalize_names(fortran_src_tree(cst))
        unit.t_src_post = unit.t_src_pre
    with obs.span("parse", path=path):
        ftfile = parse_fortran(text, path, recover=recover)
    with obs.span("trees.sem", path=path):
        sem = normalize_names(fortran_to_tree(ftfile))
        unit.t_sem = sem
        unit.t_sem_inlined = sem  # the paper omits T_sem+i for the GCC pipeline
    with obs.span("lower", path=path):
        unit.t_ir = bundle_to_tree(lower_fortran(ftfile))
    obs.add("index.units")
    unit.__dict__["_frontend"] = {"ftfile": ftfile}
    return unit


def _fortran_static_profile(spec: ModelSpec, units: dict[str, IndexedUnit]) -> CoverageProfile:
    """Fallback profile for Fortran units the interpreter cannot run: every
    statement span recorded in ``T_sem`` is marked executed."""
    profile = CoverageProfile()
    for unit in units.values():
        if unit.t_sem is None:
            continue
        for node in unit.t_sem.preorder():
            if node.span is not None:
                profile.record(node.span.file, node.span.line_start)
    return profile


# ---------------------------------------------------------------------------
# per-unit coverage records
# ---------------------------------------------------------------------------
#
# The verification run is part of the per-unit pass (it only needs that
# unit's frontend handles), recorded as a plain-data "covrec" so it can ride
# inside the unit's persisted artifact. The codebase-level coverage profile
# and run value are then *merged* from the covrecs — identically whether a
# unit was freshly indexed or replayed from disk.


def _record_hits(hits) -> list[list]:
    return [[f, ln, c] for (f, ln), c in hits.items()]


def _cpp_coverage_record(unit: IndexedUnit, spec: ModelSpec) -> Optional[dict]:
    fe = unit.__dict__.get("_frontend")
    if not fe or spec.entry is None:
        return None
    sema = fe["sema"]
    entry_fn = sema.functions.get(spec.entry)
    if entry_fn is None or entry_fn.body is None:
        return None
    rec: dict = {"attempted": True, "failed": None, "value": None, "hits": []}
    try:
        result = run_program(fe["tu"], sema, spec.entry)
    except ReproError as e:
        # the program may call across translation units the per-TU
        # interpreter cannot link; index without coverage rather than
        # failing the whole step
        rec["failed"] = f"coverage run failed: {e}"
        return rec
    if isinstance(result.value, (int, float, str)):
        rec["value"] = result.value
    rec["hits"] = _record_hits(profile_from_run(result).hits)
    return rec


def _fortran_coverage_record(unit: IndexedUnit) -> Optional[dict]:
    from repro.exec.ft_interpreter import run_fortran

    fe = unit.__dict__.get("_frontend")
    if not fe or "ftfile" not in fe:
        return None
    rec: dict = {"attempted": True, "failed": None, "value": None, "hits": []}
    try:
        result = run_fortran(fe["ftfile"])
    except ReproError as e:
        rec["failed"] = f"coverage run failed: {e}"
        return rec
    if isinstance(result.value, (int, float, str)):
        rec["value"] = result.value
    rec["hits"] = _record_hits(result.coverage)
    return rec


def _unit_coverage(unit: IndexedUnit, spec: ModelSpec, run_coverage: bool) -> Optional[dict]:
    if not run_coverage:
        return None
    if spec.lang == "fortran":
        return _fortran_coverage_record(unit)
    return _cpp_coverage_record(unit, spec)


def _merge_coverage(cb: IndexedCodebase, spec: ModelSpec, covrecs: dict) -> None:
    """Replay the per-unit coverage records into the codebase profile.

    Preserves the historical semantics exactly: C++ uses the first unit
    whose entry point was runnable (a failed run leaves ``coverage`` unset);
    Fortran accumulates every runnable unit and falls back to the static
    all-statements profile when none ran.
    """
    if spec.lang == "fortran":
        profile = CoverageProfile()
        ran = False
        for role in sorted(cb.units):
            rec = covrecs.get(role)
            if not rec or not rec.get("attempted"):
                continue
            if rec.get("failed"):
                cb.run_value = rec["failed"]
                continue
            cb.run_value = rec.get("value")
            for f, ln, c in rec.get("hits", []):
                profile.hits[(f, ln)] += c
            ran = True
        cb.coverage = profile if ran else _fortran_static_profile(cb.spec, cb.units)
        return
    if spec.entry is None:
        return
    for role in sorted(cb.units):
        rec = covrecs.get(role)
        if not rec or not rec.get("attempted"):
            continue
        if rec.get("failed"):
            cb.run_value = rec["failed"]
        else:
            cb.run_value = rec.get("value")
            profile = CoverageProfile()
            for f, ln, c in rec.get("hits", []):
                profile.hits[(f, ln)] += c
            cb.coverage = profile
        break


# ---------------------------------------------------------------------------
# whole-codebase indexing
# ---------------------------------------------------------------------------


def _degraded_unit(fs: VirtualFS, role: str, path: str) -> IndexedUnit:
    """SLOC-only fallback for a quarantined unit.

    Populates the raw-text line representations (approximate: non-blank,
    non-comment physical lines) and leaves every tree ``None`` —
    ``tree_distance`` treats a missing tree as pure insert/delete cost, so
    the unit stays comparable.
    """
    unit = IndexedUnit(role=role, path=path, degraded=True)
    try:
        text = fs.get(path).text
    except (KeyError, OSError, ReproError):
        text = ""
    sig: set[int] = set()
    lines: list[str] = []
    tags: list[tuple[str, int]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = " ".join(raw.split())
        low = stripped.lower()
        if not stripped:
            continue
        if stripped.startswith(("//", "/*", "*")):
            continue
        if stripped.startswith("!") and not low.startswith(("!$omp", "!$acc")):
            continue
        sig.add(no)
        lines.append(stripped)
        tags.append((path, no))
    unit.sig_lines_pre = {path: sig}
    unit.sig_lines_post = {path: set(sig)}
    unit.lloc_pre[path] = len(lines)
    unit.lloc_post[path] = len(lines)
    unit.source_lines_pre = lines
    unit.source_tags_pre = tags
    unit.source_lines_post = list(lines)
    unit.source_tags_post = list(tags)
    obs.add("index.quarantined")
    return unit


def _front_unit(
    spec: ModelSpec,
    fs: VirtualFS,
    options: CompileOptions,
    role: str,
    path: str,
    recover: bool,
) -> IndexedUnit:
    if spec.lang == "cpp":
        return index_cpp_unit(fs, role, path, options, spec.defines, recover=recover)
    return index_fortran_unit(fs, role, path, recover=recover)


def _make_unit_worker(spec: ModelSpec, fs: VirtualFS, options: CompileOptions, run_coverage: bool):
    """Self-contained per-unit pass: front, run coverage, quarantine on
    failure. Diagnostics are captured and returned alongside the unit so
    the parent can replay them into its own sink (essential when the pass
    runs in a pool worker, and harmless in-process)."""

    def work(task: tuple[str, str]):
        role, path = task
        with diag.capture() as sink:
            try:
                unit = _front_unit(spec, fs, options, role, path, recover=True)
                covrec = _unit_coverage(unit, spec, run_coverage)
            except ReproError as e:
                diag.emit_exception("index/quarantined", e)
                diag.note(
                    "index/quarantined",
                    f"unit {role!r} degraded to SLOC-only metrics",
                    path,
                )
                unit, covrec = _degraded_unit(fs, role, path), None
            except Exception as e:  # noqa: BLE001 — quarantine wall: an
                # unexpected frontend bug must degrade the unit, not kill
                # the whole run; the type name keeps it debuggable.
                diag.error(
                    "index/internal-error",
                    f"{type(e).__name__} while indexing unit {role!r}: {e}",
                    path,
                )
                unit, covrec = _degraded_unit(fs, role, path), None
            # the tu/sema/ftfile handles served the coverage run above and
            # must not cross the process boundary (or reach an artifact)
            unit.__dict__.pop("_frontend", None)
        return unit, covrec, list(sink.diagnostics)

    return work


def _absorb_result(fs: VirtualFS, role: str, path: str, res):
    """Integrate one worker result; returns (unit, covrec, pristine)."""
    if res is None:  # pool chunk exhausted its retries (worker death etc.)
        diag.error(
            "index/internal-error",
            f"worker failed while indexing unit {role!r}",
            path,
        )
        return _degraded_unit(fs, role, path), None, False
    unit, covrec, diags = res
    sink = diag.current_sink()
    if sink is not None:
        for d in diags:
            # direct sink append: the diag.<severity> counters were already
            # bumped where the diagnostic was emitted (and merged from pool
            # workers), so routing through diag.emit would double-count
            sink.emit(d)
    return unit, covrec, not diags and not unit.degraded


def index_codebase(
    spec: ModelSpec,
    fs: VirtualFS,
    run_coverage: bool = False,
    strict: bool = False,
    artifacts: Optional[UnitArtifactStore] = None,
    jobs: int = 1,
) -> IndexedCodebase:
    """Index every unit of one model port; optionally run for coverage.

    Non-strict (default): frontends run in recovery mode and a unit whose
    frontend still raises is quarantined into a SLOC-only degraded unit,
    with the failure reported through :mod:`repro.diag`. ``strict=True``
    disables recovery and re-raises the first failure.

    With ``artifacts`` set (and not strict), unchanged units replay from
    the store (``index.unit.hit``) and only changed units re-run their
    frontends; freshly indexed units that produced no diagnostics are
    persisted back. ``jobs > 1`` fans the misses across worker processes.
    """
    cb = IndexedCodebase(spec=spec, fs=fs)
    options = CompileOptions(dialect=spec.dialect, openmp=spec.openmp, name=spec.model)
    recover = not strict
    store = artifacts if (artifacts is not None and not strict) else None
    covrecs: dict[str, Optional[dict]] = {}
    with obs.span("index.codebase", app=spec.app, model=spec.model):
        roles = sorted(spec.units.items())
        for role, path in roles:
            if spec.lang not in ("cpp", "fortran"):
                raise ReproError(
                    f"unknown language {spec.lang!r} for unit {role!r} ({path}) "
                    f"in spec {spec.app}/{spec.model}"
                )
        units: dict[str, IndexedUnit] = {}
        keys: dict[str, Optional[str]] = {}
        misses: list[tuple[str, str]] = []
        for role, path in roles:
            key = (
                unit_key(spec, fs, role, path, recover=recover, coverage=run_coverage)
                if store is not None
                else None
            )
            keys[role] = key
            hit = load_unit(store, key, fs) if key is not None else None
            if hit is not None:
                units[role], covrecs[role] = hit
                obs.add("index.unit.hit")
            else:
                if store is not None:
                    obs.add("index.unit.miss")
                misses.append((role, path))
        if misses and strict:
            for role, path in misses:
                unit = _front_unit(spec, fs, options, role, path, recover=False)
                covrecs[role] = _unit_coverage(unit, spec, run_coverage)
                unit.__dict__.pop("_frontend", None)
                units[role] = unit
        elif misses:
            worker = _make_unit_worker(spec, fs, options, run_coverage)
            # fork even for a single miss: a one-unit model still gets its
            # own worker lane in the trace, and compare --jobs N visibly
            # fans its per-model cold indexes across distinct pids
            if jobs > 1 and misses:
                pool = ChunkedPool(
                    jobs=jobs,
                    chunk_size=1,
                    counter_prefix="index.pool",
                    label="index chunk",
                    fail_code="index/chunk-failed",
                )
                results = pool.run(worker, misses, fail_value=None).values
            else:
                results = [worker(t) for t in misses]
            for (role, path), res in zip(misses, results):
                unit, covrec, pristine = _absorb_result(fs, role, path, res)
                units[role] = unit
                covrecs[role] = covrec
                key = keys.get(role)
                if store is not None and key is not None and pristine:
                    try:
                        save_unit(store, key, unit, covrec, fs)
                    except (OSError, ReproError) as e:
                        diag.warning(
                            "index/artifact-write-failed",
                            f"could not persist unit artifact: {e}",
                            path,
                        )
        cb.units = {role: units[role] for role, _ in roles}
    if run_coverage:
        with obs.span("coverage", app=spec.app, model=spec.model):
            _merge_coverage(cb, spec, covrecs)
    return cb
