"""Seed-deterministic load generator for the serving API.

Workload model (the read-side counterpart of SONG's parameterized
social-network workloads): a fixed request *mix* over the API endpoints,
Zipf-distributed key popularity (accounts ranked by timeline size,
hashtags by corpus frequency, instances by population — the head of each
ranking absorbs most of the traffic, which is what makes the payload LRU
earn its keep), and an open-loop arrival schedule on the **virtual**
event timeline: the base Poisson rate is multiplied by Gaussian bumps
centred on the takeover / layoffs / ultimatum dates, reproducing the
paper's burst structure as traffic bursts.

Determinism contract (pinned by ``tests/serving/test_loadgen.py``):
``build_trace(dataset, config)`` is a pure function of the dataset and
config — one ``numpy`` generator seeded from ``config.seed``, no wall
clock — so the same inputs give a byte-identical JSONL trace, and
per-endpoint request counts are independent of how many workers later
*replay* the trace (workers only affect concurrency, never content).

Replay offers both standard harness shapes:

- **closed loop**: each worker issues its next request as soon as the
  previous answer returns — measures service latency and max throughput;
- **open loop**: requests fire on the trace's arrival schedule and queue
  for the configured worker pool — measured latency includes queueing
  delay, so bursts show up in p99 exactly as they would at a real
  server under load.
"""

from __future__ import annotations

import datetime as _dt
import heapq
import json
import time
from dataclasses import dataclass, field
from urllib.parse import urlencode

import numpy as np

from repro import obs
from repro.frames import frames_of, tag_counts
from repro.obs.metrics import Histogram
from repro.serving.routes import ENDPOINTS
from repro.twitter.search import MIGRATION_KEYWORDS
from repro.util.clock import (
    LAYOFFS_DATE,
    SIM_END,
    SIM_START,
    TAKEOVER_DATE,
    ULTIMATUM_DATE,
)
from repro.util.distributions import zipf_weights


@dataclass(frozen=True)
class LoadgenConfig:
    """One workload: mix, popularity skew, arrival process — all seeded."""

    seed: int = 7
    requests: int = 2000
    #: endpoint mix (weights need not sum to 1; they are normalized)
    mix: tuple[tuple[str, float], ...] = (
        ("search", 0.45),
        ("timeline", 0.35),
        ("instances", 0.10),
        ("instance", 0.05),
        ("trends", 0.05),
    )
    #: search term kind mix (``domain`` is twitter-only and remapped there)
    search_kinds: tuple[tuple[str, float], ...] = (
        ("hashtag", 0.60),
        ("q", 0.25),
        ("domain", 0.15),
    )
    #: share of search/timeline requests aimed at the Mastodon side
    mastodon_share: float = 0.3
    #: Zipf exponents for key popularity
    zipf_accounts: float = 1.2
    zipf_terms: float = 1.1
    zipf_instances: float = 1.3
    #: probability a search/timeline request restricts to a date window
    window_share: float = 0.3
    #: page sizes drawn uniformly from this set
    limit_choices: tuple[int, ...] = (20, 50, 100)
    #: open-loop arrival process: base rate and event-day burst shape
    rate_rps: float = 500.0
    burst_factor: float = 6.0
    burst_width_days: float = 2.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be positive, got {self.requests}")
        names = [name for name, _ in self.mix]
        unknown = sorted(set(names) - set(ENDPOINTS))
        if unknown:
            raise ValueError(f"unknown endpoints in mix: {unknown}")
        if not 0.0 <= self.mastodon_share <= 1.0:
            raise ValueError("mastodon_share must be in [0, 1]")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "mix": {name: weight for name, weight in self.mix},
            "mastodon_share": self.mastodon_share,
            "zipf_accounts": self.zipf_accounts,
            "zipf_terms": self.zipf_terms,
            "rate_rps": self.rate_rps,
            "burst_factor": self.burst_factor,
        }


@dataclass(frozen=True)
class Request:
    """One generated request: arrival offset plus the raw target."""

    seq: int
    arrival_s: float
    endpoint: str
    target: str  # "/path?query"

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "arrival_s": self.arrival_s,
            "endpoint": self.endpoint,
            "target": self.target,
        }


class WorkloadInventory:
    """Key rankings a trace draws from, derived deterministically.

    Every ranking is most-popular-first with a total order (count
    descending, then key ascending), so the Zipf head lands on the same
    keys for every run over the same dataset.
    """

    def __init__(
        self,
        twitter_uids: list[int],
        mastodon_uids: list[int],
        hashtags: list[str],
        status_hashtags: list[str],
        domains: list[str],
        phrases: list[str],
        trend_terms: list[str],
    ) -> None:
        self.twitter_uids = twitter_uids
        self.mastodon_uids = mastodon_uids
        self.hashtags = hashtags
        self.status_hashtags = status_hashtags
        self.domains = domains
        self.phrases = phrases
        self.trend_terms = trend_terms

    @classmethod
    def from_dataset(cls, dataset) -> "WorkloadInventory":
        """Rankings read off the dataset's frames tables and key indexes.

        Timeline sizes come from the tables' row bounds and status hashtags
        from their postings, so an ``.npz`` reload builds no post here.
        """
        frames = frames_of(dataset)

        def ranked_uids(table) -> list[int]:
            sizes = np.diff(table.bounds).tolist()
            return [
                uid
                for uid, _ in sorted(
                    zip(table.uids, sizes), key=lambda kv: (-kv[1], kv[0])
                )
            ]

        def ranked_counts(counts: dict[str, int]) -> list[str]:
            return [
                key
                for key, _ in sorted(
                    counts.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]

        collected_tag_counts: dict[str, int] = {}
        for tweet in dataset.collected_tweets:
            for tag in tweet.tags_normalized:
                collected_tag_counts[tag] = collected_tag_counts.get(tag, 0) + 1
        return cls(
            twitter_uids=ranked_uids(frames.tweet_table),
            mastodon_uids=ranked_uids(frames.status_table),
            hashtags=ranked_counts(collected_tag_counts),
            status_hashtags=ranked_counts(tag_counts(frames.status_table)),
            domains=ranked_counts(dataset.instance_populations()),
            phrases=list(MIGRATION_KEYWORDS),
            trend_terms=sorted(dataset.trends),
        )


class _ZipfPicker:
    """Draws ranked-list indices with Zipf(``exponent``) probabilities."""

    def __init__(self, n: int, exponent: float) -> None:
        self.n = n
        self.weights = zipf_weights(n, exponent) if n else None

    def pick(self, rng: np.random.Generator, items: list):
        if not items:
            return None
        return items[int(rng.choice(self.n, p=self.weights))]


def _burst_multiplier(day_offset: float, config: LoadgenConfig) -> float:
    """Arrival-rate multiplier at ``day_offset`` days into the window."""
    bumps = 0.0
    width = config.burst_width_days
    for event in (TAKEOVER_DATE, LAYOFFS_DATE, ULTIMATUM_DATE):
        centre = (event - SIM_START).days
        bumps += float(np.exp(-0.5 * ((day_offset - centre) / width) ** 2))
    return 1.0 + (config.burst_factor - 1.0) * min(bumps, 1.0)


def build_trace(dataset, config: LoadgenConfig) -> list[Request]:
    """The full request trace for one workload — pure in (dataset, config)."""
    inventory = WorkloadInventory.from_dataset(dataset)
    rng = np.random.default_rng(config.seed)

    mix_names = [name for name, _ in config.mix]
    mix_weights = np.asarray([w for _, w in config.mix], dtype=float)
    mix_weights = mix_weights / mix_weights.sum()
    kind_names = [name for name, _ in config.search_kinds]
    kind_weights = np.asarray([w for _, w in config.search_kinds], dtype=float)
    kind_weights = kind_weights / kind_weights.sum()

    pickers = {
        "twitter_uids": _ZipfPicker(len(inventory.twitter_uids), config.zipf_accounts),
        "mastodon_uids": _ZipfPicker(len(inventory.mastodon_uids), config.zipf_accounts),
        "hashtags": _ZipfPicker(len(inventory.hashtags), config.zipf_terms),
        "status_hashtags": _ZipfPicker(
            len(inventory.status_hashtags), config.zipf_terms
        ),
        "domains": _ZipfPicker(len(inventory.domains), config.zipf_instances),
    }
    window_days = (SIM_END - SIM_START).days

    def draw_window() -> tuple[str | None, str | None]:
        if rng.random() >= config.window_share:
            return None, None
        start = int(rng.integers(0, window_days))
        length = int(rng.integers(1, 15))
        since = SIM_START + _dt.timedelta(days=start)
        until = min(SIM_END, since + _dt.timedelta(days=length))
        return since.isoformat(), until.isoformat()

    def draw_limit() -> int:
        return int(config.limit_choices[int(rng.integers(0, len(config.limit_choices)))])

    def search_params() -> tuple[str, dict]:
        platform = "mastodon" if rng.random() < config.mastodon_share else "twitter"
        kind = kind_names[int(rng.choice(len(kind_names), p=kind_weights))]
        if platform == "mastodon" and kind == "domain":
            kind = "hashtag"  # domain search is twitter-only
        if kind == "hashtag":
            pool = "hashtags" if platform == "twitter" else "status_hashtags"
            term = pickers[pool].pick(rng, getattr(inventory, pool))
            if term is None:
                kind, term = "q", inventory.phrases[0]
            params = {kind: term}
        elif kind == "domain":
            term = pickers["domains"].pick(rng, inventory.domains)
            if term is None:
                kind, term = "q", inventory.phrases[0]
            params = {kind: term}
        else:
            term = inventory.phrases[int(rng.integers(0, len(inventory.phrases)))]
            params = {"q": term}
        if platform != "twitter":
            params["platform"] = platform
        since, until = draw_window()
        if since:
            params["since"], params["until"] = since, until
        params["limit"] = draw_limit()
        return "/v1/search", params

    def timeline_params() -> tuple[str, dict]:
        platform = "mastodon" if rng.random() < config.mastodon_share else "twitter"
        pool = "twitter_uids" if platform == "twitter" else "mastodon_uids"
        uid = pickers[pool].pick(rng, getattr(inventory, pool))
        if uid is None:
            platform, uid = "twitter", 0
        params: dict = {}
        if platform != "twitter":
            params["platform"] = platform
        since, until = draw_window()
        if since:
            params["since"], params["until"] = since, until
        params["limit"] = draw_limit()
        return f"/v1/timeline/{uid}", params

    def instances_params() -> tuple[str, dict]:
        params = {"limit": draw_limit()}
        if rng.random() < 0.25:
            params["offset"] = int(rng.integers(1, 50))
        return "/v1/instances", params

    def instance_params() -> tuple[str, dict]:
        domain = pickers["domains"].pick(rng, inventory.domains)
        if domain is None:
            domain = "mastodon.social"
        return f"/v1/instances/{domain}", {}

    def trends_params() -> tuple[str, dict]:
        params: dict = {}
        if inventory.trend_terms and rng.random() < 0.5:
            params["term"] = inventory.trend_terms[
                int(rng.integers(0, len(inventory.trend_terms)))
            ]
        return "/v1/trends", params

    builders = {
        "search": search_params,
        "timeline": timeline_params,
        "instances": instances_params,
        "instance": instance_params,
        "trends": trends_params,
    }

    trace: list[Request] = []
    arrival = 0.0
    for seq in range(config.requests):
        endpoint = mix_names[int(rng.choice(len(mix_names), p=mix_weights))]
        path, params = builders[endpoint]()
        query = urlencode(sorted(params.items()))
        target = f"{path}?{query}" if query else path
        # virtual position in the event window drives the burst multiplier
        day_offset = (seq / config.requests) * window_days
        rate = config.rate_rps * _burst_multiplier(day_offset, config)
        arrival += float(rng.exponential(1.0 / rate))
        trace.append(
            Request(
                seq=seq,
                arrival_s=round(arrival, 9),
                endpoint=endpoint,
                target=target,
            )
        )
    return trace


def trace_bytes(trace: list[Request]) -> bytes:
    """The canonical JSONL encoding of a trace (byte-compared by tests)."""
    lines = [
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
        for r in trace
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def endpoint_counts(trace: list[Request]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for request in trace:
        counts[request.endpoint] = counts.get(request.endpoint, 0) + 1
    return dict(sorted(counts.items()))


@dataclass
class EndpointReport:
    """Latency/throughput summary for one endpoint of one replay."""

    count: int
    errors: int
    p50_ms: float
    p99_ms: float
    mean_ms: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "errors": self.errors,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
        }


@dataclass
class LoadReport:
    """One replay's results: per-endpoint latency plus overall throughput."""

    mode: str
    workers: int
    requests: int
    errors: int
    wall_seconds: float
    throughput_rps: float
    endpoints: dict[str, EndpointReport] = field(default_factory=dict)
    endpoint_requests: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "requests": self.requests,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "endpoints": {
                name: report.to_dict()
                for name, report in sorted(self.endpoints.items())
            },
        }


def _summarize(
    mode: str,
    workers: int,
    latencies: dict[str, list[float]],
    errors: dict[str, int],
    counts: dict[str, int],
    wall_seconds: float,
) -> LoadReport:
    endpoints: dict[str, EndpointReport] = {}
    registry = obs.current()
    for name, samples in latencies.items():
        histogram = Histogram(f"serving.loadgen.{name}", {})
        for value in samples:
            histogram.observe(value)
            registry.histogram(
                "serving.loadgen.latency_seconds", endpoint=name, mode=mode
            ).observe(value)
        summary = histogram.summary()
        endpoints[name] = EndpointReport(
            count=counts.get(name, 0),
            errors=errors.get(name, 0),
            p50_ms=round(summary["p50"] * 1e3, 6),
            p99_ms=round(summary["p99"] * 1e3, 6),
            mean_ms=round(summary["mean"] * 1e3, 6),
        )
    total = sum(counts.values())
    return LoadReport(
        mode=mode,
        workers=workers,
        requests=total,
        errors=sum(errors.values()),
        wall_seconds=wall_seconds,
        throughput_rps=total / wall_seconds if wall_seconds > 0 else 0.0,
        endpoints=endpoints,
        endpoint_requests=dict(sorted(counts.items())),
    )


def replay_closed(app, trace: list[Request], workers: int = 1) -> LoadReport:
    """Back-to-back replay: each worker issues its next request on return.

    With a synchronous in-process app the worker count cannot change
    which requests run or what they return — it only partitions the trace
    (round-robin), which the determinism tests exploit.
    """
    latencies: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    counts: dict[str, int] = {}
    started = time.perf_counter()
    for shard in range(workers):
        for request in trace[shard::workers]:
            t0 = time.perf_counter()
            status, _ = app.get(request.target)
            elapsed = time.perf_counter() - t0
            latencies.setdefault(request.endpoint, []).append(elapsed)
            counts[request.endpoint] = counts.get(request.endpoint, 0) + 1
            if status >= 400:
                errors[request.endpoint] = errors.get(request.endpoint, 0) + 1
    wall = time.perf_counter() - started
    return _summarize("closed", workers, latencies, errors, counts, wall)


def replay_open(app, trace: list[Request], workers: int = 1) -> LoadReport:
    """Arrival-schedule replay against a ``workers``-server queue.

    Service times are measured live; queueing is simulated on the trace's
    virtual arrival clock (no sleeping), so reported latency is
    ``queue wait + service`` — bursts surface as p99 inflation exactly as
    they would at a live server, but the replay itself runs flat out.
    """
    latencies: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    counts: dict[str, int] = {}
    free_at = [0.0] * max(1, workers)
    heapq.heapify(free_at)
    started = time.perf_counter()
    virtual_end = 0.0
    for request in trace:
        t0 = time.perf_counter()
        status, _ = app.get(request.target)
        service = time.perf_counter() - t0
        server_free = heapq.heappop(free_at)
        begin = max(request.arrival_s, server_free)
        done = begin + service
        heapq.heappush(free_at, done)
        virtual_end = max(virtual_end, done)
        latency = done - request.arrival_s
        latencies.setdefault(request.endpoint, []).append(latency)
        counts[request.endpoint] = counts.get(request.endpoint, 0) + 1
        if status >= 400:
            errors[request.endpoint] = errors.get(request.endpoint, 0) + 1
    wall = time.perf_counter() - started
    report = _summarize("open", workers, latencies, errors, counts, wall)
    # open-loop throughput is on the virtual arrival/queue clock
    if virtual_end > 0:
        report.throughput_rps = round(len(trace) / virtual_end, 3)
    return report
