"""The serving application: request handling, cache tiers, ASGI surface.

:class:`ServingApp` wraps one loaded :class:`MigrationDataset` and
answers read-only queries over it.  The synchronous core is
:meth:`ServingApp.handle` — resolve, normalize, consult the caches,
compute, render.  The socket server (:mod:`repro.serving.server`) calls
it directly, as the in-process load generator does, so both measure
exactly the same code path; the ASGI ``__call__`` is a thin adapter over
it for external ASGI servers.

Request flow on the warm path::

    resolve(path) -> normalize_params -> cache_key
        payload LRU hit?   -> bytes out (no compute, no render)
        result cache hit?  -> render only
        miss               -> views.compute -> render -> fill both tiers

Byte-transparency (DESIGN.md §5): the caches key on the *normalized*
request, and the views are deterministic functions of it, so enabling or
disabling either tier can change only latency, never payload bytes.
``/healthz`` reports only immutable dataset shape (so it is also
byte-stable across cache configurations); ``/metrics`` is the one
explicitly volatile endpoint — it reports the caches themselves and is
never cached.
"""

from __future__ import annotations

import json
import time

from repro import obs
from repro.serving.cache import PayloadLru, ResultCache
from repro.serving.routes import (
    RequestError,
    cache_key,
    normalize_params,
    parse_query_string,
    resolve,
)
from repro.serving.views import ColumnarViews

#: Default capacity of the rendered-payload LRU.
DEFAULT_PAYLOAD_CAPACITY = 2048


def render(obj) -> bytes:
    """Canonical JSON rendering (compact separators, UTF-8)."""
    return json.dumps(obj, indent=None, separators=(",", ":")).encode("utf-8")


def _stale_key_predicate(delta):
    """Key predicate for cache eviction under a dataset delta.

    A cache key is ``(endpoint, sorted(normalized.items()))``; an entry is
    stale exactly when a dataset domain its endpoint reads changed — and
    for timelines, only when *that user's* timeline changed.  Unknown
    endpoints are treated as stale (safe default for future routes).
    """
    changed = delta.domains_changed()
    twitter_uids = delta.twitter_changed
    mastodon_uids = delta.mastodon_changed

    def stale(key) -> bool:
        endpoint, items = key
        params = dict(items)
        if endpoint == "search":
            if params.get("platform") == "twitter":
                return delta.corpus_changed
            return "mastodon_timelines" in changed
        if endpoint == "timeline":
            if params.get("platform") == "twitter":
                return params.get("uid") in twitter_uids
            return params.get("uid") in mastodon_uids
        if endpoint == "instances":
            return bool({"matched", "accounts"} & changed)
        if endpoint == "instance":
            return bool({"matched", "accounts", "weekly"} & changed)
        if endpoint == "trends":
            return "trends" in changed
        return True

    return stale


class ServingApp:
    """Read-only query API over one dataset (sync core + ASGI adapter)."""

    def __init__(
        self,
        dataset,
        *,
        caches: bool = True,
        payload_capacity: int = DEFAULT_PAYLOAD_CAPACITY,
    ) -> None:
        self.dataset = dataset
        self.views = ColumnarViews(dataset)
        self.caches_enabled = caches
        self.result_cache = ResultCache()
        self.payload_cache = PayloadLru(payload_capacity)
        self.request_count = 0
        self.error_count = 0
        self.warm_seconds: dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------------

    def warm(self) -> dict[str, float]:
        """Build every columnar read model now."""
        with obs.current().span("serving.warm"):
            self.warm_seconds = self.views.warm()
        return self.warm_seconds

    def swap_dataset(self, dataset, delta=None) -> dict:
        """Point the live app at an advanced dataset snapshot.

        With a ``delta`` (the receipt from :func:`repro.incremental.advance`,
        whose old snapshot must be the app's current dataset) the swap is
        surgical: frames are rebased instead of rebuilt, read models whose
        input domains are untouched are carried over, and only the cache
        entries the delta can reach are evicted — a payload-LRU entry for an
        unchanged timeline survives and keeps serving the same bytes.
        Without a delta every derived structure is dropped (full reload
        semantics).  Returns eviction/carry accounting.
        """
        with obs.current().span("serving.swap") as span:
            old_dataset = self.dataset
            self.dataset = dataset
            if delta is None:
                result_evicted = len(self.result_cache)
                payload_evicted = len(self.payload_cache)
                self.result_cache.clear()
                self.payload_cache.clear()
                self.views = ColumnarViews(dataset)
                out = {
                    "mode": "full",
                    "result_evicted": result_evicted,
                    "payload_evicted": payload_evicted,
                    "models": {},
                }
                span.annotate(**{k: v for k, v in out.items() if k != "models"})
                return out
            from repro.frames.core import frames_of

            frames = frames_of(old_dataset).rebase(dataset, delta)
            models = self.views.swap(dataset, delta, frames)
            stale = _stale_key_predicate(delta)
            out = {
                "mode": "delta",
                "result_evicted": self.result_cache.evict_if(stale),
                "payload_evicted": self.payload_cache.evict_if(stale),
                "models": models,
            }
            span.annotate(
                mode="delta",
                result_evicted=out["result_evicted"],
                payload_evicted=out["payload_evicted"],
                result_kept=len(self.result_cache),
                payload_kept=len(self.payload_cache),
            )
            return out

    # -- the sync request core -------------------------------------------------

    def handle(
        self, path: str, query_string: str = "", method: str = "GET"
    ) -> tuple[int, bytes]:
        """Answer one request; returns ``(status, payload_bytes)``."""
        started = time.perf_counter()
        endpoint = "unroutable"
        try:
            if method != "GET":
                raise RequestError(405, f"method {method} not allowed (GET only)")
            match = resolve(path)
            endpoint = match.endpoint
            normalized = normalize_params(match, parse_query_string(query_string))
            if endpoint == "healthz":
                status, body = 200, render(self._healthz())
            elif endpoint == "metrics":
                status, body = 200, render(self._metrics())
            else:
                status, body = 200, self._answer(endpoint, normalized)
        except RequestError as exc:
            self.error_count += 1
            status = exc.status
            body = render({"error": exc.message, "status": exc.status})
        self.request_count += 1
        registry = obs.current()
        registry.counter("serving.requests", endpoint=endpoint, status=status).inc()
        registry.histogram("serving.latency_seconds", endpoint=endpoint).observe(
            time.perf_counter() - started
        )
        return status, body

    def get(self, target: str) -> tuple[int, bytes]:
        """Convenience: ``handle`` on a ``/path?query`` request target."""
        path, _, query_string = target.partition("?")
        return self.handle(path, query_string)

    def _answer(self, endpoint: str, normalized: dict) -> bytes:
        if not self.caches_enabled:
            return render(self.views.compute(endpoint, normalized))
        key = cache_key(endpoint, normalized)
        cached = self.payload_cache.get(key)
        if cached is not None:
            return cached
        result = self.result_cache.get_or_build(
            key, lambda: self.views.compute(endpoint, normalized)
        )
        body = render(result)
        self.payload_cache.put(key, body)
        return body

    # -- the observability plane -----------------------------------------------

    def _healthz(self) -> dict:
        """Immutable dataset shape only — byte-stable across cache configs.

        Reads only cheap header-sized fields, never the big corpora: a
        lazily-loaded dataset (``load(..., lazy=True)``) answers its first
        health check before any timeline column has been materialised.
        """
        dataset = self.dataset
        return {
            "status": "ok",
            "migrants": len(dataset.matched),
            "accounts": len(dataset.accounts),
            "instances": len(dataset.instance_domains),
            "trend_terms": len(dataset.trends),
        }

    def _metrics(self) -> dict:
        out: dict = {
            "endpoint": "metrics",
            "requests": self.request_count,
            "errors": self.error_count,
            "caches": self.cache_stats(),
        }
        registry = obs.current()
        if registry.enabled:
            latency = {
                h.labels.get("endpoint", ""): h.summary()
                for h in registry.histograms()
                if h.name == "serving.latency_seconds"
            }
            if latency:
                out["latency_seconds"] = dict(sorted(latency.items()))
        return out

    def cache_stats(self) -> dict:
        """Every cache tier under the app, serving and upstream alike."""
        out: dict = {
            "enabled": self.caches_enabled,
            "result": {
                "entries": len(self.result_cache),
                **self.result_cache.stats.to_dict(),
            },
            "payload": {
                "entries": len(self.payload_cache),
                "capacity": self.payload_cache.capacity,
                "evictions": self.payload_cache.evictions,
                **self.payload_cache.stats.to_dict(),
            },
        }
        out["frames_results"] = self.views.frames.cache_stats()
        corpus = self.views._models.get("tweet_search")
        if corpus is not None:
            out["index"] = corpus.index.stats
        return out

    # -- ASGI ------------------------------------------------------------------

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":
            raise ValueError(f"unsupported ASGI scope type {scope['type']!r}")
        status, body = self.handle(
            scope.get("path", "/"),
            scope.get("query_string", b"").decode("latin-1"),
            scope.get("method", "GET"),
        )
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", b"application/json"),
                    (b"content-length", str(len(body)).encode("ascii")),
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})
