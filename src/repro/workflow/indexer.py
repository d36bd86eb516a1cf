"""The index step: codebase → per-unit semantic-bearing representations.

For every translation unit this extracts (Fig. 3 of the paper):

* pre/post-preprocessor significant-line sets (SLOC ±pp),
* logical line counts (LLOC ±pp),
* normalised text lines with (file, line) tags (Source metric ± coverage),
* ``T_src`` pre/post, ``T_sem``, ``T_sem+i`` and ``T_ir`` trees,

and optionally executes the unit's verification run in the interpreter to
obtain the coverage profile.

No tree is copied unless the copy changes it: ``T_src`` is built straight
from the token streams (identifiers keep their text), ``T_sem`` is the
frontend's tree with programmer names normalised, and ``T_sem+i`` shares
every ``T_sem`` subtree that inlines nothing (DESIGN.md §"T_src and T_sem
passes").

Each file of a unit is lexed once, in the unit's mode: the C++
preprocessor's per-file token lists feed the line summaries and ``T_src``
pre, and a Fortran file's tokens feed its line summary, ``T_src`` and
the parser.

Fault tolerance: by default each unit is indexed with recovering frontends
(tolerant lexing + panic-mode parsing), so lexical damage is one ``lex/*``
warning and a repaired token. A unit whose frontend still fails (an
unterminated ``#if``, a missing include) is *quarantined* — it degrades
to raw-text SLOC metrics with no trees, the failure is reported via
:mod:`repro.diag` (``index/quarantined`` / ``index/internal-error``), and
the rest of the codebase indexes normally. ``strict=True`` restores
fail-fast behaviour.

Incremental builds: indexing is a pure function of (source content,
frontend configuration), so each unit's output can be persisted as a
content-addressed artifact (:mod:`repro.workflow.unitstore`) and replayed
on the next run. Pass ``artifacts=UnitArtifactStore(...)`` to enable;
unchanged units load from disk with **zero** lex/parse/sema work
(``index.unit.hit``) and changed units re-index in-process
(``index.unit.miss``). Strict mode bypasses the store entirely (fail-fast
implies fresh frontends).
"""

from __future__ import annotations

from typing import Any, Optional

from repro import diag, obs
from repro.compiler import CompileOptions, bundle_to_tree, lower_unit
from repro.coverage.profile import CoverageProfile, profile_from_run
from repro.exec.interpreter import run_program
from repro.lang.cpp.asttree import ast_to_tree
from repro.lang.cpp.cst import src_tree
from repro.lang.cpp.lexer import Token, TokenType
from repro.lang.cpp.parser import parse_tokens
from repro.lang.cpp.preprocessor import preprocess
from repro.lang.cpp.sema import analyze
from repro.lang.fortran.cst import fortran_src_tree
from repro.lang.fortran.lexer import FtTokenType, lex_fortran
from repro.lang.fortran.parser import FortranParser
from repro.lang.fortran.asttree import fortran_to_tree
from repro.lang.fortran.lower import lower_fortran
from repro.lang.source import VirtualFS
from repro.trees.inline import collect_definitions, inline_calls
from repro.trees.normalize import normalize_names
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

    The preprocessor lexes each file of the unit once, and its per-file
    token lists feed the pre-preprocessor line summaries, the per-file
    LLOC and ``T_src`` pre. ``recover=True`` lexes tolerantly and parses
    with panic-mode recovery, so damaged sources yield partial trees plus
    diagnostics.
    """
    unit = IndexedUnit(role=role, path=path)
    with obs.span("preprocess", path=path):
        pp = preprocess(fs, path, defines, recover=recover)
    unit.deps = pp.dependencies

    # pre-preprocessor: every file of the unit as the preprocessor lexed it
    pre_tokens: list[Token] = []
    for f, toks in pp.file_tokens.items():
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
        unit.t_src_pre = src_tree(pp.file_tokens[path], path)
        unit.t_src_post = src_tree(pp.tokens, path)
    with obs.span("parse", path=path):
        tu = parse_tokens(pp.tokens, path, recover=recover)
    with obs.span("sema", path=path):
        sema = analyze(tu)
    with obs.span("trees.sem", path=path):
        sem = normalize_names(ast_to_tree(tu, sema))
        unit.t_sem = sem
        unit.t_sem_inlined = inline_calls(sem, collect_definitions(sem))
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
    the pre/post representations coincide). The file is lexed once; the
    line summary, ``T_src`` and the parser read the same tokens."""
    unit = IndexedUnit(role=role, path=path)
    with obs.span("lex", path=path):
        toks = lex_fortran(fs.get(path).text, path, tolerant=recover)
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
        unit.t_src_pre = fortran_src_tree(toks, path)
        unit.t_src_post = unit.t_src_pre
    with obs.span("parse", path=path):
        ftfile = FortranParser(toks, path, recover=recover).parse_file()
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
#
# A run that fails (an unlinkable call, a runtime fault such as ``1 % 0``,
# running out of fuel) raises an InterpreterError: the unit keeps its trees
# and its covrec records the failure, unless ``strict`` asks to fail fast.


def _record_hits(hits) -> list[list]:
    return [[f, ln, c] for (f, ln), c in hits.items()]


def _coverage_run(unit: IndexedUnit, run, strict: bool) -> tuple[dict, Any]:
    """``(covrec, result)`` of ``run()``, timed as an ``exec`` span; the
    result is ``None`` when the run failed."""
    rec: dict = {"attempted": True, "failed": None, "value": None, "hits": []}
    try:
        with obs.span("exec", path=unit.path):
            result = run()
    except ReproError as e:
        if strict:
            raise
        # e.g. the program calls across translation units the per-TU
        # interpreter cannot link: index without coverage rather than
        # failing the whole step
        rec["failed"] = f"coverage run failed: {e}"
        return rec, None
    obs.add("exec.steps", result.steps)
    if isinstance(result.value, (int, float, str)):
        rec["value"] = result.value
    return rec, result


def _cpp_coverage_record(unit: IndexedUnit, spec: ModelSpec, strict: bool) -> Optional[dict]:
    fe = unit.__dict__.get("_frontend")
    if not fe or spec.entry is None:
        return None
    sema = fe["sema"]
    entry_fn = sema.functions.get(spec.entry)
    if entry_fn is None or entry_fn.body is None:
        return None
    rec, result = _coverage_run(unit, lambda: run_program(fe["tu"], sema, spec.entry), strict)
    if result is not None:
        rec["hits"] = _record_hits(profile_from_run(result).hits)
    return rec


def _fortran_coverage_record(unit: IndexedUnit, strict: bool) -> Optional[dict]:
    from repro.exec.ft_interpreter import run_fortran

    fe = unit.__dict__.get("_frontend")
    if not fe or "ftfile" not in fe:
        return None
    rec, result = _coverage_run(unit, lambda: run_fortran(fe["ftfile"]), strict)
    if result is not None:
        rec["hits"] = _record_hits(result.coverage)
    return rec


def _unit_coverage(
    unit: IndexedUnit, spec: ModelSpec, run_coverage: bool, strict: bool
) -> Optional[dict]:
    if not run_coverage:
        return None
    if spec.lang == "fortran":
        return _fortran_coverage_record(unit, strict)
    return _cpp_coverage_record(unit, spec, strict)


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


def _index_miss(
    spec: ModelSpec,
    fs: VirtualFS,
    options: CompileOptions,
    run_coverage: bool,
    role: str,
    path: str,
) -> tuple[IndexedUnit, Optional[dict], bool]:
    """Front one unit, run its coverage and quarantine it on failure;
    returns ``(unit, covrec, pristine)``.

    The unit's diagnostics are captured: a unit that raised any is not
    pristine, so it is never persisted. They are then appended to the
    caller's sink as they are — their ``diag.<severity>`` counters were
    bumped where each was emitted, so emitting them again would
    double-count.
    """
    with diag.capture() as sink:
        try:
            unit = _front_unit(spec, fs, options, role, path, recover=True)
            covrec = _unit_coverage(unit, spec, run_coverage, strict=False)
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
        # must not reach an artifact
        unit.__dict__.pop("_frontend", None)
    outer = diag.current_sink()
    if outer is not None:
        for d in sink.diagnostics:
            outer.emit(d)
    return unit, covrec, not sink.diagnostics and not unit.degraded


def index_codebase(
    spec: ModelSpec,
    fs: VirtualFS,
    run_coverage: bool = False,
    strict: bool = False,
    artifacts: Optional[UnitArtifactStore] = None,
) -> IndexedCodebase:
    """Index every unit of one model port; optionally run for coverage.

    Non-strict (default): frontends run in recovery mode and a unit whose
    frontend still raises is quarantined into a SLOC-only degraded unit,
    with the failure reported through :mod:`repro.diag`. ``strict=True``
    disables recovery and re-raises the first failure.

    With ``artifacts`` set (and not strict), unchanged units replay from
    the store (``index.unit.hit``) and only changed units re-run their
    frontends; freshly indexed units that produced no diagnostics are
    persisted back.
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
        for role, path in roles:
            key = (
                unit_key(spec, fs, role, path, recover=recover, coverage=run_coverage)
                if store is not None
                else None
            )
            hit = load_unit(store, key, fs) if key is not None else None
            if hit is not None:
                cb.units[role], covrecs[role] = hit
                obs.add("index.unit.hit")
                continue
            if store is not None:
                obs.add("index.unit.miss")
            if strict:
                unit = _front_unit(spec, fs, options, role, path, recover=False)
                covrecs[role] = _unit_coverage(unit, spec, run_coverage, strict=True)
                unit.__dict__.pop("_frontend", None)
                cb.units[role] = unit
                continue
            unit, covrecs[role], pristine = _index_miss(
                spec, fs, options, run_coverage, role, path
            )
            cb.units[role] = unit
            if key is not None and pristine:
                try:
                    save_unit(store, key, unit, covrecs[role], fs)
                except (OSError, ReproError) as e:
                    diag.warning(
                        "index/artifact-write-failed",
                        f"could not persist unit artifact: {e}",
                        path,
                    )
    if run_coverage:
        with obs.span("coverage", app=spec.app, model=spec.model):
            _merge_coverage(cb, spec, covrecs)
    return cb
