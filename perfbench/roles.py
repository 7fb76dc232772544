"""Worker roles: each runs in a fresh process started by ``worker.py``.

A role receives its arguments as a dict plus ``started``, the
``perf_counter`` reading taken before the worker imported anything, and
returns a JSON-serialisable result: timestamps on the shared monotonic
clock, counts, check failures and (in traced runs) its spans.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import checks
import harness
import serveclient
import tracker
from harness import Round, Tracer, pin_fastest, vm_hwm_mb, vm_rss_mb


def reproduce_a(args: dict, started: float) -> dict:
    """Process A: config -> world -> dataset -> saved .npz -> figures + report.

    A round builds the named frames products, then makes the figures; the
    first round is the one right after the collection, later ones start
    from cold frames again (``invalidate`` drops every product): identical
    work each round.
    """
    tracer = Tracer(args["trace"])
    tally = checks.Tally()
    with tracer.span("setup.import_repro") as attrs:
        import program as P
        attrs["rss_mb"] = vm_rss_mb()
    imported = time.perf_counter()
    registry = P.registry_for(args["trace"])
    with P.active(registry):
        pin_fastest()
        with tracer.span("simulation.build_world") as attrs:
            world = P.build_world(P.sim_config(args["seed"]))
            attrs["rss_mb"] = vm_rss_mb()
        with tracer.span("collection.collect") as attrs:
            dataset = P.collect_dataset(world)
            attrs["rss_mb"] = vm_rss_mb()
        with tracer.span("collection.save"):
            dataset.save(args["npz"])
        measured = time.perf_counter()
        rounds: list[dict] = []
        for number in range(args["rounds"]):
            if number:
                P.invalidate(dataset)
            steps = Round()
            # the per-product spans come from process B, on the reloaded file
            with tracer.span("experiments", f"round{number}") as attrs:
                P.build_products(dataset, Tracer(False), steps)
                texts = P.figure_suite(dataset, tracer if not number else Tracer(False), steps)
                attrs["rss_mb"] = vm_rss_mb()
            rounds.append(steps.to_dict())
            tally.figures(texts, f"process A, figure round {number}")
            if not number:
                first_texts, first_done = texts, time.perf_counter()
    peak = vm_hwm_mb()
    if registry is not None:
        P.export_obs_spans(registry, tracer)
    tally.fail(*checks.check_matched(
        P.matched_accounts(dataset), P.migrant_first_accounts(world)
    ))
    tally.fail(*checks.check_texts(first_texts, texts, "figures on cold frames again"))
    return {
        **tally.to_dict(),
        "started": started,
        "imported": imported,
        "measured": measured,
        "done": first_done,
        "rounds": rounds,
        "probes": harness.PROBES,
        "peak_rss_mb": peak,
        "world_rss_mb": tracer.attr("simulation.build_world", "rss_mb"),
        "dataset_bytes": Path(args["npz"]).stat().st_size,
        "tweets": world.twitter_store.tweet_count,
        "matched_users": dataset.migrant_count,
        "texts": first_texts,
        "digest": P.content_digest(dataset),
        "spans": tracer.spans,
        "live_spans": tracer.live,
    }


def reproduce_b(args: dict, started: float) -> dict:
    """Process B: saved .npz -> the same figures + report, nothing warm.

    A round loads the file, builds the named frames products and makes the
    figures; later rounds drop the dataset and load the file again in the
    same process: identical work each round.  In a traced run the first
    round carries the spans and the program's ``repro.obs`` registry.
    """
    tracer = Tracer(args["trace"])
    tally = checks.Tally()
    with tracer.span("setup.import_repro"):
        import program as P
    registry = P.registry_for(args["trace"])
    rounds: list[dict] = []
    dataset = None
    for number in range(args["rounds"]):
        traced = tracer if not number else Tracer(False)
        dataset = None
        gc.collect()
        steps = Round()
        with P.active(registry if not number else None):
            with steps.step("load"), traced.span("collection.load"):
                dataset = P.MigrationDataset.load(args["npz"])
            with traced.span("frames"):
                missing = P.build_products(dataset, traced, steps)
            with traced.span("experiments"):
                texts = P.figure_suite(dataset, traced, steps)
        rounds.append(steps.to_dict())
        tally.figures(texts, f"process B, round {number}")
        if not number:
            first_texts, first_done = texts, time.perf_counter()
            hits, lookups = P.frames_result_stats(dataset)
    if registry is not None:
        P.export_obs_spans(registry, tracer)
        with tracer.span("collection.load_lazy"):
            P.MigrationDataset.load(args["npz"], lazy=True)
    layer_seconds = P.experiment_seconds(tracer)
    layer_seconds["frames.other"] = P.frames_other_seconds(tracer)
    f2 = P.get_experiment("F2")(dataset).rows
    f4 = P.get_experiment("F4")(dataset).rows
    tally.fail(*checks.check_f2(f2, P.collected_days(dataset)))
    tally.fail(*checks.check_f4(f4, P.matched_domains(dataset), P.join_days(dataset)))
    tally.fail(*checks.check_texts(first_texts, texts, "figures after reloading again"))
    return {
        **tally.to_dict(),
        "started": started,
        "done": first_done,
        "rounds": rounds,
        "probes": harness.PROBES,
        "texts": first_texts,
        "digest": P.content_digest(dataset),
        "result_hits": hits,
        "result_lookups": lookups,
        "missing_products": missing,
        "layer_seconds": layer_seconds,
        "spans": tracer.spans,
        "live_spans": tracer.live,
    }


def build_dataset(args: dict, started: float) -> dict:
    """Serving set-up: config -> world -> dataset -> saved .npz, then exit."""
    tracer = Tracer(args["trace"])
    import program as P

    registry = P.registry_for(args["trace"])
    with P.active(registry):
        pin_fastest()
        with tracer.span("simulation.build_world") as attrs:
            world = P.build_world(P.sim_config(args["seed"]))
            attrs["rss_mb"] = vm_rss_mb()
        with tracer.span("collection.collect"):
            dataset = P.collect_dataset(world)
        with tracer.span("collection.save"):
            dataset.save(args["npz"])
    if registry is not None:
        P.export_obs_spans(registry, tracer)
    return {
        "started": started,
        "dataset_bytes": Path(args["npz"]).stat().st_size,
        "tweets": world.twitter_store.tweet_count,
        "matched_users": dataset.migrant_count,
        "world_rss_mb": tracer.attr("simulation.build_world", "rss_mb"),
        "spans": tracer.spans,
        "live_spans": tracer.live,
    }


ROLES = {
    "reproduce_a": reproduce_a,
    "reproduce_b": reproduce_b,
    "build_dataset": build_dataset,
    "serve_client": serveclient.run,
    "track": tracker.run,
}
