"""Metric names, units and directions: the single list BENCHMARK.json mirrors.

The result line of every run carries every end-to-end metric (untraced
runs) or every per-layer metric (traced runs), whatever the workload, so
the end-to-end metrics are roles each workload fills (see README.md):

- ``main_ms``: the workload's main path, over identical rounds: the sum of
  each step's median time (``reproduce``, ``track``) or the median round
  of requests (``serve``);
- ``rebuild_ms``: the same for the same answers rebuilt without reusing
  earlier work.

Each step or round is first rescaled to a reference CPU speed by the
benchmark's probe around it (``harness.at_reference_speed``); each run
prints both figures as measured too.

A per-layer metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The serving endpoints the traces use (``healthz``/``metrics`` excluded).
ENDPOINTS = ("search", "timeline", "instances", "instance", "trends")

PHASES = ("hot", "open", "miss")

EXPERIMENT_IDS = tuple(f"F{i}" for i in range(1, 17)) + ("X1", "X2", "X3")

#: Frames products timed one by one on a reloaded dataset, in dependency
#: order so no product's time includes another named product.
FRAMES_PRODUCTS = (
    "tweet_table",
    "status_table",
    "tweet_tokens",
    "status_tokens",
    "tweet_embeddings",
    "status_embeddings",
    "tweet_toxicity",
    "status_toxicity",
)

END_TO_END: list[tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("main_ms", "ms", "lower"),
    ("rebuild_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER: list[tuple[str, str, str]] = [
    # repro.simulation
    ("simulation.build_world_s", "s", "lower"),
    ("simulation.world_init_s", "s", "lower"),
    ("simulation.simulate_s", "s", "lower"),
    ("simulation.tweets", "count", "higher"),
    ("simulation.rss_mb", "MB", "lower"),
    # repro.collection (twitter, fediverse, transport underneath)
    ("collection.collect_s", "s", "lower"),
    ("collection.api_requests", "count", "lower"),
    ("collection.matched_users", "count", "higher"),
    ("collection.save_s", "s", "lower"),
    ("collection.dataset_mb", "MB", "lower"),
    ("collection.load_s", "s", "lower"),
    ("collection.load_lazy_s", "s", "lower"),
    # repro.frames (with repro.nlp)
    *[(f"frames.{p}_s", "s", "lower") for p in FRAMES_PRODUCTS],
    ("frames.other_s", "s", "lower"),
    ("frames.result_hit_ratio", "ratio", "higher"),
    ("frames.result_lookups", "count", "lower"),
    # repro.experiments, repro.analysis
    *[(f"experiments.{e}_s", "s", "lower") for e in EXPERIMENT_IDS],
    ("analysis.headline_report_s", "s", "lower"),
    # repro.serving on serve
    ("serving.ready_s", "s", "lower"),
    ("serving.hot_rps", "1/s", "higher"),
    ("serving.miss_rps", "1/s", "higher"),
    ("serving.open_p50_ms", "ms", "lower"),
    ("serving.open_p99_ms", "ms", "lower"),
    ("serving.open_samples", "count", "higher"),
    *[
        (f"serving.{p}.{name}", unit, better)
        for p in PHASES
        for name, unit, better in (
            ("server_cpu_us", "us", "lower"),
            ("server_busy", "ratio", "lower"),
            ("payload_hit_ratio", "ratio", "higher"),
            ("result_hit_ratio", "ratio", "higher"),
            ("repeat_share", "ratio", "higher"),
        )
    ],
    *[(f"serving.{e}_p50_ms", "ms", "lower") for e in ENDPOINTS],
    *[(f"serving.handle_us.{e}", "us", "lower") for e in ENDPOINTS],
    *[(f"serving.compute_us.{e}", "us", "lower") for e in ENDPOINTS],
    ("serving.http_us", "us", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    # repro.incremental + serving + frames on track (medians per day)
    ("incremental.advance_s", "s", "lower"),
    ("incremental.delta_posts", "count", "lower"),
    ("serving.swap_s", "s", "lower"),
    ("serving.swap_evicted", "count", "lower"),
    ("serving.swap_kept", "count", "higher"),
    ("experiments.refresh_s", "s", "lower"),
    ("serving.post_swap_reads_s", "s", "lower"),
    ("serving.post_swap_hit_ratio", "ratio", "higher"),
    # the host's speed during the run (``harness.pin_fastest``'s probe)
    ("host.probe_us", "us", "lower"),
    # the traced run's own end-to-end figures and the tracing cost
    ("traced.setup_s", "s", "lower"),
    ("traced.main_ms", "ms", "lower"),
    ("traced.rebuild_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    #: human-readable lines: name -> (value, unit), printed before the result
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
