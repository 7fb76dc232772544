"""The three workloads: orchestration in the parent, work in fresh children.

Why these three (each stresses layers the others barely touch):

- ``reproduce``: the researcher's cold path.  World build and the frames'
  token/embedding products dominate; serving and the delta path never run.
- ``serve``: a long-lived server driven over a real socket.  The HTTP
  adapter, caches and read models dominate; simulation and frames are
  set-up only.
- ``track``: the paper's daily re-visit.  Collection, frames and serving
  are reached through their write paths (advance, rebase, swap).
"""

from __future__ import annotations

import checks
import harness
from harness import Tracer, ratio, run_role
from metrics import FRAMES_PRODUCTS, PHASES, Outcome

#: World seed of every workload: the ROADMAP's canonical world, so the
#: figures move with the program (and the request seed of ``serve`` and
#: ``track``), not with how heavy one world's hashtags or days happen to be.
CANONICAL_SEED = 7
#: First observer day of ``track``: every figure is observable by then at
#: scale 0.01 (before cross-posting starts, F13 has nothing to show).
TRACK_START = "2022-11-01"
#: Days in the run of days of ``track``, one per second of the run up to
#: this: they give only ungated figures (the gated ones repeat the day
#: after them), so more days would lengthen every run for no gated figure.
TRACK_MAX_DAYS = 5
#: Rounds of identical work in each ``reproduce`` process (figures on cold
#: frames in A, reload + figures in B): each step's median over them is
#: reported (``harness.median_steps``).
ROUNDS = 3


def _trace_cost(tracer: Tracer, layers: dict, setup: float, main: float,
                rebuild: float) -> None:
    layers["traced.setup_s"] = setup
    layers["traced.main_ms"] = main
    layers["traced.rebuild_ms"] = rebuild
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.overhead_ms"] = tracer.live * tracer.per_span_cost() * 1000


def _collection_layers(tracer: Tracer, layers: dict, result: dict) -> None:
    """Simulation and collection figures of a child that built a dataset."""
    layers["simulation.build_world_s"] = tracer.total("simulation.build_world")
    layers["simulation.world_init_s"] = tracer.total("repro:world.init")
    layers["simulation.simulate_s"] = tracer.total("repro:world.simulate")
    layers["simulation.tweets"] = result["tweets"]
    layers["simulation.rss_mb"] = result["world_rss_mb"]
    layers["collection.collect_s"] = tracer.total("collection.collect")
    layers["collection.api_requests"] = tracer.attr(
        "repro:collect_dataset", "api_requests"
    )
    layers["collection.matched_users"] = result["matched_users"]
    layers["collection.save_s"] = tracer.total("collection.save")
    layers["collection.dataset_mb"] = result["dataset_bytes"] / 1e6


def reproduce(opts, tracer: Tracer, workdir, t0: float) -> Outcome:
    """Process A builds, saves and reports; a fresh process B reloads and reports."""
    npz = str(workdir / "dataset.npz")
    with tracer.span("reproduce.process_a"):
        a = run_role("reproduce_a", {"seed": CANONICAL_SEED, "npz": npz,
                                     "trace": opts.trace, "rounds": ROUNDS}, workdir)
    tracer.adopt(a, "reproduce.process_a")
    with tracer.span("reproduce.process_b"):
        b = run_role("reproduce_b", {"npz": npz, "trace": opts.trace,
                                     "rounds": ROUNDS}, workdir)
    tracer.adopt(b, "reproduce.process_b")

    tally = checks.Tally()
    tally.merge(a)
    tally.merge(b)
    tally.fail(*checks.check_texts(a["texts"], b["texts"], "process B vs process A"))
    if b["digest"] != a["digest"]:
        tally.fail("reloaded dataset's digest differs from the saved one's")

    setup_s = a["measured"] - t0
    measured_ms = (harness.median_steps(a["rounds"], rescaled=False) * 1000,
                   harness.median_steps(b["rounds"], rescaled=False) * 1000)
    main_ms = harness.median_steps(a["rounds"]) * 1000
    rebuild_ms = harness.median_steps(b["rounds"]) * 1000
    # the issue's figures: the whole cold path, and a fresh reload from spawn
    reproduce_s = a["done"] - a["imported"]
    refigure_s = b["done"] - b["spawned"]
    dataset_mb = a["dataset_bytes"] / 1e6
    end_to_end = {
        "setup_s": setup_s,
        "main_ms": main_ms,
        "rebuild_ms": rebuild_ms,
        "peak_rss_mb": a["peak_rss_mb"],
    }
    layers: dict[str, float] = {}
    if opts.trace:
        _collection_layers(tracer, layers, a)
        layers["host.probe_us"] = harness.median(a["probes"] + b["probes"]) * 1e6
        layers["collection.load_s"] = tracer.total("collection.load")
        layers["collection.load_lazy_s"] = tracer.total("collection.load_lazy")
        for name in FRAMES_PRODUCTS:
            layers[f"frames.{name}_s"] = tracer.total(f"frames.{name}")
        layers["frames.result_hit_ratio"] = ratio(b["result_hits"], b["result_lookups"])
        layers["frames.result_lookups"] = b["result_lookups"]
        for name, value in b["layer_seconds"].items():
            layers[f"{name}_s"] = value
        _trace_cost(tracer, layers, setup_s, main_ms, rebuild_ms)
        if b["missing_products"]:
            print(f"frames products not in this program: {b['missing_products']}")
    return Outcome(
        end_to_end=end_to_end,
        layers=layers,
        **tally.to_dict(),
        report={
            "setup_s": (setup_s, "s"),
            "main_ms as measured": (measured_ms[0], "ms"),
            "rebuild_ms as measured": (measured_ms[1], "ms"),
            "host probe, median (A, B)": (
                harness.median(a["probes"] + b["probes"]) * 1000, "ms"),
            "reproduce_s": (reproduce_s, "s"),
            "refigure_s": (refigure_s, "s"),
            "dataset_mb": (dataset_mb, "MB"),
            "peak_rss_mb": (a["peak_rss_mb"], "MB"),
        },
    )


def serve(opts, tracer: Tracer, workdir, t0: float) -> Outcome:
    """A saved dataset behind ``python -m repro.serving serve``, driven over TCP."""
    npz = str(workdir / "dataset.npz")
    with tracer.span("serve.build_dataset"):
        built = run_role("build_dataset", {"seed": CANONICAL_SEED, "npz": npz,
                                           "trace": opts.trace}, workdir)
    tracer.adopt(built, "serve.build_dataset")
    with tracer.span("serve.client"):
        client = run_role("serve_client", {
            "npz": npz, "seed": opts.seed, "seconds": opts.seconds,
            "trace": opts.trace, "server_log": str(workdir / "server.log"),
        }, workdir)
    tracer.adopt(client, "serve.client")

    phases = client["phases"]
    hot, opened, miss = phases["hot"], phases["open"], phases["miss"]
    setup_s = client["measured"] - t0
    measured_ms = (harness.median(hot["round_ms"]), harness.median(miss["round_ms"]))
    main_ms = harness.median_at_reference_speed(hot["round_ms"], hot["round_probes"])
    rebuild_ms = harness.median_at_reference_speed(miss["round_ms"], miss["round_probes"])
    dataset_mb = built["dataset_bytes"] / 1e6
    end_to_end = {
        "setup_s": setup_s,
        "main_ms": main_ms,
        "rebuild_ms": rebuild_ms,
        "peak_rss_mb": client["server_peak_mb"],
    }
    layers: dict[str, float] = {}
    if opts.trace:
        _collection_layers(tracer, layers, built)
        layers["host.probe_us"] = harness.median(client["probes"]) * 1e6
        layers["collection.load_s"] = tracer.total("collection.load")
        layers["serving.ready_s"] = client["ready"] - client["spawned_server"]
        layers["serving.hot_rps"] = hot["rps"]
        layers["serving.miss_rps"] = miss["rps"]
        layers["serving.open_p50_ms"] = opened["p50_ms"]
        layers["serving.open_p99_ms"] = opened["p99_ms"]
        layers["serving.open_samples"] = opened["requests"]
        for phase in PHASES:
            for name in ("server_cpu_us", "server_busy", "payload_hit_ratio",
                         "result_hit_ratio", "repeat_share"):
                layers[f"serving.{phase}.{name}"] = phases[phase][name]
        for endpoint, value in opened["endpoint_p50_ms"].items():
            layers[f"serving.{endpoint}_p50_ms"] = value
        inproc = client["inproc"]
        for kind in ("handle_us", "compute_us"):
            for endpoint, value in inproc[kind].items():
                layers[f"serving.{kind}.{endpoint}"] = value
        # server CPU per hot request minus the in-process handle cost of the
        # same endpoint mix: what the socket and HTTP adapter add
        mix = hot["mix"]
        handled = sum(inproc["handle_us"].get(e, 0.0) * n for e, n in mix.items())
        layers["serving.http_us"] = hot["server_cpu_us"] - ratio(handled, sum(mix.values()))
        layers["loadgen.late_p99_ms"] = opened["late_p99_ms"]
        _trace_cost(tracer, layers, setup_s, main_ms, rebuild_ms)
    return Outcome(
        end_to_end=end_to_end,
        layers=layers,
        attempted=client["attempted"],
        failed=client["failed"],
        failures=client["failures"],
        report={
            "setup_s": (setup_s, "s"),
            "main_ms as measured": (measured_ms[0], "ms"),
            "rebuild_ms as measured": (measured_ms[1], "ms"),
            "host probe, median": (harness.median(client["probes"]) * 1000, "ms"),
            "serve_rps": (hot["rps"], "req/s"),
            "serve_miss_rps": (miss["rps"], "req/s"),
            f"serve_p50_ms (n={opened['requests']})": (opened["p50_ms"], "ms"),
            f"serve_p99_ms (n={opened['requests']})": (opened["p99_ms"], "ms"),
            "dataset_mb": (dataset_mb, "MB"),
            "peak_rss_mb": (client["server_peak_mb"], "MB"),
        },
    )


def track(opts, tracer: Tracer, workdir, t0: float) -> Outcome:
    """Daily advance + swap + refresh + reads, one day per second of the run
    up to ``TRACK_MAX_DAYS``, then rounds of the day after from one state,
    alternating with rebuilds from scratch."""
    days = max(1, min(opts.seconds, TRACK_MAX_DAYS))
    with tracer.span("track.tracker"):
        result = run_role("track", {
            "seed": CANONICAL_SEED, "read_seed": opts.seed,
            "start": TRACK_START, "days": days,
            "npz": str(workdir / "final.npz"), "trace": opts.trace,
        }, workdir)
    tracer.adopt(result, "track.tracker")
    setup_s = result["measured"] - t0
    per_day = result["days"]
    measured_ms = (harness.median_steps(result["rounds"], rescaled=False) * 1000,
                   harness.median_steps(result["rebuilds"], rescaled=False) * 1000)
    main_ms = harness.median_steps(result["rounds"]) * 1000
    rebuild_ms = harness.median_steps(result["rebuilds"]) * 1000
    end_to_end = {
        "setup_s": setup_s,
        "main_ms": main_ms,
        "rebuild_ms": rebuild_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layers: dict[str, float] = {}
    if opts.trace:
        _collection_layers(tracer, layers, result)
        layers["host.probe_us"] = harness.median(result["probes"]) * 1e6
        for name, span in (("incremental.advance_s", "incremental.advance"),
                           ("serving.swap_s", "serving.swap"),
                           ("serving.post_swap_reads_s", "serving.post_swap_reads")):
            layers[name] = harness.median(tracer.durations(span))
        for name, key in (("experiments.refresh_s", "refresh"),
                          ("incremental.delta_posts", "delta_posts"),
                          ("serving.swap_evicted", "evicted"),
                          ("serving.swap_kept", "kept"),
                          ("serving.post_swap_hit_ratio", "hit_ratio")):
            layers[name] = harness.median([day[key] for day in per_day])
        _trace_cost(tracer, layers, setup_s, main_ms, rebuild_ms)
    return Outcome(
        end_to_end=end_to_end,
        layers=layers,
        attempted=result["attempted"],
        failed=result["failed"],
        failures=result["failures"],
        report={
            "setup_s": (setup_s, "s"),
            f"track_day_s (median of {days} days)": (
                harness.median([day["seconds"] for day in per_day]), "s"),
            "main_ms as measured": (measured_ms[0], "ms"),
            "rebuild_ms as measured": (measured_ms[1], "ms"),
            "host probe, median": (harness.median(result["probes"]) * 1000, "ms"),
            "dataset_mb": (result["dataset_bytes"] / 1e6, "MB"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        },
    )


WORKLOADS = {"reproduce": reproduce, "serve": serve, "track": track}
