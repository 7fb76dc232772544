"""The serving layer: a read-only query API over a loaded dataset.

The repo's first long-lived workload (ROADMAP item 1): where everything
before this package builds a :class:`~repro.collection.dataset.MigrationDataset`
once and exits, :mod:`repro.serving` keeps one in memory — with warm
:class:`~repro.frames.core.DatasetFrames` and a
:class:`~repro.twitter.index.TweetIndex` — and answers search, timeline,
instance-stats and figure-data queries over HTTP (or in-process, which is
how the load generator and benchmarks drive it).

Modules:

- :mod:`repro.serving.app` — :class:`ServingApp`, the sync request core
  plus its ASGI adapter and the two cache tiers;
- :mod:`repro.serving.routes` — route table and the canonical query-
  parameter normalization the caches key on;
- :mod:`repro.serving.views` — the columnar read models behind every
  endpoint (byte-identical to the per-object reference in
  ``tests/oracles/``, enforced by tests);
- :mod:`repro.serving.cache` — result cache + rendered-payload LRU;
- :mod:`repro.serving.loadgen` — the seed-deterministic Zipf/burst load
  generator and closed/open-loop replay harnesses;
- :mod:`repro.serving.server` — a stdlib asyncio HTTP/1.1 server;
- :mod:`repro.serving.bench` — the cold/warm benchmark driver behind
  the ``serving`` section of ``BENCH_pipeline.json``.

CLI: ``python -m repro.serving serve|loadgen|bench`` (see ``--help``).
"""

from repro.serving.app import ServingApp, render
from repro.serving.cache import CacheStats, PayloadLru, ResultCache
from repro.serving.loadgen import (
    LoadgenConfig,
    LoadReport,
    Request,
    build_trace,
    endpoint_counts,
    replay_closed,
    replay_open,
    trace_bytes,
)
from repro.serving.routes import ENDPOINTS, RequestError
from repro.serving.views import ColumnarViews

__all__ = [
    "ServingApp",
    "render",
    "CacheStats",
    "PayloadLru",
    "ResultCache",
    "LoadgenConfig",
    "LoadReport",
    "Request",
    "build_trace",
    "endpoint_counts",
    "replay_closed",
    "replay_open",
    "trace_bytes",
    "ENDPOINTS",
    "RequestError",
    "ColumnarViews",
]
