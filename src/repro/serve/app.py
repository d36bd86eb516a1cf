"""Endpoint handlers: the divergence workflow as an HTTP surface.

Every analysis endpoint is the *same computation* as its batch-CLI
counterpart — same index path, same :class:`MetricSpec` parsing, same
demand lists (:func:`matrix_demands` / :func:`heatmap_demands`), the one
engine task function (:func:`divergence_task`), same assembly helpers — so
a served value is bit-identical to what ``silvervale compare/cluster/heatmap``
prints over the same corpus. The only serve-specific machinery is *where*
the work runs (the engine thread) and *how* it is scheduled (the wave
batcher and the hot-tier memo in front of it), both keyed by
:func:`pair_task_key`, so a pair evaluated for one endpoint is a memo hit
for every other endpoint that asks for it.

Surface (one JSON object per response; all analysis routes are ``GET``):

==========================  ==================================================
``/healthz``                liveness + uptime
``/v1/apps``                corpus apps and their models
``/v1/index``               index one model into the hot tier (also ``POST``)
``/v1/compare``             divergence of ``model`` from ``baseline``
``/v1/cluster``             dendrogram of all models under a metric
``/v1/heatmap``             divergence-from-baseline heatmap grid
``/v1/nearest``             k nearest models by divergence
``/v1/stats``               hot-tier, batcher and full metrics snapshot
``/v1/invalidate``          ``POST``: drop the hot tier
``/v1/shutdown``            ``POST``: graceful drain + exit
==========================  ==================================================
"""

from __future__ import annotations

import time
from typing import Any, Awaitable, Callable, Optional

from repro import obs
from repro.analysis.cluster import cluster_models
from repro.analysis.heatmap import HEATMAP_SPECS, heatmap_demands, heatmap_from_values
from repro.corpus.registry import APPS, app_models
from repro.metricindex import PairPinner
from repro.serve.batcher import WAVE_FAILED
from repro.serve.http import HttpError, Request
from repro.serve.state import ServeState
from repro.workflow.comparer import (
    MetricSpec,
    codebase_fingerprint,
    matrix_demands,
    matrix_from_pair_values,
    pair_task_key,
    parse_metric,
)


class ServeApp:
    """Routes parsed requests to handlers over the shared hot tier.

    ``run_engine(fn)`` awaits ``fn()`` on the daemon's engine thread (hot
    tier misses index there); ``batcher`` coalesces divergence demands into
    engine waves; ``shutdown_cb`` initiates the daemon's graceful drain;
    ``admission`` (optional) is the daemon's readiness-vs-overload
    snapshot, surfaced on ``/healthz`` and ``/v1/stats``.
    """

    def __init__(
        self,
        state: ServeState,
        batcher,
        run_engine: Callable[[Callable[[], Any]], Awaitable[Any]],
        shutdown_cb: Optional[Callable[[], None]] = None,
        admission: Optional[Callable[[], dict]] = None,
    ):
        self.state = state
        self.batcher = batcher
        self.run_engine = run_engine
        self.shutdown_cb = shutdown_cb
        self.admission = admission
        self.started_monotonic = time.monotonic()
        self._routes: dict[tuple[str, str], Callable[[Request], Awaitable[dict]]] = {
            ("GET", "/healthz"): self.healthz,
            ("GET", "/v1/apps"): self.apps,
            ("GET", "/v1/index"): self.index,
            ("POST", "/v1/index"): self.index,
            ("GET", "/v1/compare"): self.compare,
            ("GET", "/v1/cluster"): self.cluster,
            ("GET", "/v1/heatmap"): self.heatmap,
            ("GET", "/v1/nearest"): self.nearest,
            ("GET", "/v1/stats"): self.stats,
            ("POST", "/v1/invalidate"): self.invalidate,
            ("POST", "/v1/shutdown"): self.shutdown,
        }

    # -- dispatch ------------------------------------------------------------

    async def handle(self, req: Request) -> Any:
        """Dispatch one request; raises :class:`HttpError` for 4xx paths.

        Handlers usually return the payload dict (a 200); a handler may
        instead return ``(status, payload)`` — ``/healthz`` uses this to
        report overload as a 503.
        """
        handler = self._routes.get((req.method, req.path))
        if handler is None:
            known = {path for _method, path in self._routes}
            if req.path in known:
                allow = ", ".join(
                    sorted({m for m, p in self._routes if p == req.path})
                )
                raise HttpError(
                    405,
                    f"{req.method} not allowed on {req.path}",
                    headers={"Allow": allow},
                )
            raise HttpError(404, f"no such endpoint {req.path!r}")
        with obs.span(f"serve.{handler.__name__}", path=req.path):
            return await handler(req)

    # -- demand resolution (memo in front of the batcher) --------------------

    async def _resolve(self, tasks: list) -> list[Any]:
        """Values for a demand list: hot-tier memo first, batcher for the
        misses, results remembered for the next query."""
        values: list[Any] = [None] * len(tasks)
        miss_keys: list[str] = []
        miss_tasks: list = []
        miss_at: list[int] = []
        for i, key in enumerate(pair_task_key(*task) for task in tasks):
            hit = self.state.lookup(key)
            if hit is not None:
                values[i] = hit
            else:
                miss_keys.append(key)
                miss_tasks.append(tasks[i])
                miss_at.append(i)
        if miss_keys:
            fresh = await self.batcher.demand_many(miss_keys, miss_tasks)
            for i, key, value in zip(miss_at, miss_keys, fresh):
                values[i] = value
                self.state.remember(key, value)
        return values

    # -- param helpers -------------------------------------------------------

    @staticmethod
    def _app_param(req: Request) -> str:
        app = req.param("app")
        if app not in APPS:
            raise HttpError(400, f"unknown app {app!r}; have {sorted(APPS)}")
        return app

    @staticmethod
    def _model_param(req: Request, app: str, name: str, default: Optional[str] = None) -> str:
        model = req.param(name, default)
        if model not in app_models(app):
            raise HttpError(
                400, f"unknown model {model!r} for {app}; have {sorted(app_models(app))}"
            )
        return model

    @staticmethod
    def _metric_param(req: Request, default: str = "Tsem") -> MetricSpec:
        spec = parse_metric(req.param("metric", default))
        if spec.name not in ("SLOC", "LLOC", "Source", "Tsrc", "Tsem", "Tir"):
            raise HttpError(400, f"unknown metric {spec.name!r}")
        return spec

    # -- endpoints -----------------------------------------------------------

    async def healthz(self, req: Request) -> Any:
        """Liveness plus readiness: distinguishes a live-but-overloaded
        daemon (503, state ``overloaded``) from a ready one (200)."""
        payload: dict[str, Any] = {
            "status": "ok",
            "uptime_s": time.monotonic() - self.started_monotonic,
        }
        if self.admission is not None:
            info = self.admission()
            payload["admission"] = info
            payload["state"] = info.get("state", "ready")
            if payload["state"] == "overloaded":
                payload["status"] = "overloaded"
                return 503, payload
        return payload

    async def apps(self, req: Request) -> dict:
        return {"apps": {app: app_models(app) for app in sorted(APPS)}}

    async def index(self, req: Request) -> dict:
        """Index one model into the hot tier; reports the unit inventory."""
        body = req.json() if req.method == "POST" else {}
        app = body.get("app") or self._app_param(req)
        if app not in APPS:
            raise HttpError(400, f"unknown app {app!r}; have {sorted(APPS)}")
        model = body.get("model") or self._model_param(req, app, "model")
        coverage = bool(body.get("coverage", False)) or req.flag("coverage")
        cb = await self.run_engine(lambda: self.state.codebase(app, model, coverage))
        degraded = [role for role in cb.roles() if cb.units[role].degraded]
        return {
            "app": app,
            "model": model,
            "coverage": coverage,
            "units": len(cb.units),
            "roles": list(cb.roles()),
            "degraded": degraded,
            "fingerprint": codebase_fingerprint(cb, MetricSpec("Tsem", coverage=coverage)),
        }

    async def compare(self, req: Request) -> dict:
        """Same evaluation as ``silvervale compare``: one pair task."""
        app = self._app_param(req)
        spec = self._metric_param(req)
        baseline = self._model_param(req, app, "baseline", "serial")
        model = self._model_param(req, app, "model")
        base, other = await self.run_engine(
            lambda: self.state.codebases(app, [baseline, model], spec.coverage)
        )
        value = (await self._resolve([(base, other, spec)]))[0]
        return {
            "app": app,
            "baseline": baseline,
            "model": model,
            "metric": spec.label,
            "divergence": value,
            "text": f"{app}: divergence({baseline} -> {model}, {spec.label}) = {value:.4f}",
        }

    async def cluster(self, req: Request) -> dict:
        """Same matrix + linkage as ``silvervale cluster``, with the same
        :class:`PairPinner`: pairs that pin *exactly* from stored unit
        geometry skip the batcher, and the rest ride one wave.
        """
        app = self._app_param(req)
        spec = self._metric_param(req)
        names = app_models(app)

        def fetch():
            cbs = self.state.codebases(app, names, spec.coverage)
            pairs, tasks = matrix_demands(cbs, spec)
            pinner = PairPinner(spec)
            values = [pinner.pin_pair(cbs[i], cbs[j]) for i, j in pairs]
            return pairs, tasks, values

        pairs, tasks, values = await self.run_engine(fetch)
        live = [at for at, v in enumerate(values) if v is None]
        fresh = await self._resolve([tasks[at] for at in live])
        for at, value in zip(live, fresh):
            values[at] = value
        matrix = matrix_from_pair_values(len(names), pairs, values)
        dend = cluster_models(matrix, names)
        return {
            "app": app,
            "metric": spec.label,
            "labels": names,
            "linkage": [[float(v) for v in row] for row in dend.linkage],
            "leaf_order": dend.leaf_order(),
            "newick": dend.newick(),
        }

    async def heatmap(self, req: Request) -> dict:
        """Same grid as ``silvervale heatmap`` (metric variants × models)."""
        app = self._app_param(req)
        baseline = self._model_param(req, app, "baseline", "serial")
        names = [m for m in app_models(app) if m != baseline]
        cbs = await self.run_engine(
            lambda: self.state.codebases(app, [baseline] + names, coverage=True)
        )
        base, models = cbs[0], cbs[1:]
        values = await self._resolve(heatmap_demands(base, models, HEATMAP_SPECS))
        data = heatmap_from_values([s.label for s in HEATMAP_SPECS], names, values)
        return {
            "app": app,
            "baseline": baseline,
            "rows": data.row_labels,
            "cols": data.col_labels,
            "values": [[float(v) for v in row] for row in data.values],
            "csv": data.to_csv(),
        }

    async def nearest(self, req: Request) -> dict:
        """Same ranking as ``silvervale nearest``: the target's divergence
        row, resolved through the memo and batcher like ``/v1/compare``,
        sorted by ``(score, model)``."""
        app = self._app_param(req)
        spec = self._metric_param(req)
        model = self._model_param(req, app, "model")
        try:
            k = int(req.param("k", "3"))
        except ValueError:
            raise HttpError(400, f"malformed k {req.query.get('k')!r}") from None
        if k < 1:
            raise HttpError(400, f"k must be >= 1, got {k}")
        others = [m for m in app_models(app) if m != model]
        cbs = await self.run_engine(
            lambda: self.state.codebases(app, [model] + others, spec.coverage)
        )
        target, rest = cbs[0], cbs[1:]
        values = await self._resolve([(target, cb, spec) for cb in rest])
        # the comparer.nearest ordering: (score, model) ascending
        scored = sorted(zip(values, others))
        return {
            "app": app,
            "model": model,
            "metric": spec.label,
            "k": k,
            "neighbors": [{"model": m, "divergence": d} for d, m in scored[:k]],
        }

    async def stats(self, req: Request) -> dict:
        collector = obs.current_collector()
        return {
            "serve": self.state.stats(),
            "admission": self.admission() if self.admission is not None else {},
            "uptime_s": time.monotonic() - self.started_monotonic,
            "metrics": obs.metrics_json(collector) if collector is not None else {},
        }

    async def invalidate(self, req: Request) -> dict:
        dropped = await self.run_engine(self.state.invalidate)
        return {"invalidated": dropped}

    async def shutdown(self, req: Request) -> dict:
        if self.shutdown_cb is None:
            raise HttpError(503, "shutdown is not wired up in this embedding")
        self.shutdown_cb()
        return {"shutting_down": True}

    # -- wave runner (engine thread; wired into the batcher) -----------------

    def wave_runner(self, tasks: list, keys: list) -> list:
        """Evaluate one wave of unique demands in one engine call (``keys``
        are the batcher's dedupe handles; the engine needs none).

        ``divergence_prepare`` rides along so a coalesced wave's TED pairs
        are cross-pair batched exactly like a batch-CLI
        chunk — the serve warm path and the CLI share one kernel schedule.

        ``fail_value=WAVE_FAILED``: a task whose chunk exhausted retries
        comes back as the sentinel, which the batcher routes to a per-key
        :class:`~repro.serve.batcher.WaveKeyError` — one poisoned demand
        fails its own joiners, never the rest of the wave.
        """
        from repro.workflow.comparer import divergence_prepare, divergence_task

        return self.state.engine.map_tasks(
            divergence_task, tasks, fail_value=WAVE_FAILED, prepare=divergence_prepare
        )
