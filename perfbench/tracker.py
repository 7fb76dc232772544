"""The ``track`` workload's tracker process: the paper's daily re-visit.

Set-up builds the world, makes a clocked collection on the start day, and
warms a ``ServingApp`` and the figure suite on it.  Then:

1. days: each of a run of consecutive days does, in order: ``advance`` one
   day, ``swap_dataset(new, delta)`` on the warm app, refresh all 19
   figures + report, and send a fixed read batch through
   ``ServingApp.get``.  The days differ in size; they give the median day
   and the per-layer figures.
2. rounds: the day after the last one, done ``ROUNDS`` times from the same
   state (the last day's snapshot and cursor, its warm frames, and a fresh
   warm app that has answered the read batch once): identical work each
   round, so each step's median over the rounds is the steady figure.
3. rebuilds, alternating with the rounds: the same answers from scratch (a
   clocked collection at the rounds' clock, fresh figures, a fresh app
   answering the read batch), ``REBUILD_ROUNDS`` times, both as the check
   of the rounds and as the workload's rebuild path.

Every timed step runs on the CPU that is fastest when it starts and is
rescaled by that CPU's probe around it (``harness.Round``).
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import gc
import random
import time
from pathlib import Path

import checks
import harness
from harness import Round, Tracer, pin_fastest, ratio, vm_hwm_mb, vm_rss_mb
from serveclient import Inventory, draw, target

#: Reads sent through ``ServingApp.get`` after every swap.
READ_BATCH = 200
#: Rounds of the same day from the same state.
ROUNDS = 8
#: From-scratch rebuilds of the rounds' answers.
REBUILD_ROUNDS = 6
_ONE_DAY = _dt.timedelta(days=1)


def _payload_counts(app) -> tuple[int, int]:
    stats = app.cache_stats().get("payload", {})
    return int(stats.get("hits", 0)), int(stats.get("misses", 0))


def _delta_posts(new, delta) -> int:
    """Rows the advance added: corpus appends plus timeline suffixes."""
    posts = delta.corpus_appended
    for timelines, changed in ((new.twitter_timelines, delta.twitter_changed),
                               (new.mastodon_timelines, delta.mastodon_changed)):
        posts += sum(len(timelines[uid]) - kept for uid, kept in changed.items())
    return posts


def run(args: dict, started: float) -> dict:
    tracer = Tracer(args["trace"])
    tally = checks.Tally()
    with tracer.span("setup.import_repro"):
        import program as P
        from repro.collection.pipeline import CollectionConfig
        from repro.incremental import advance, collect_with_cursor
        from repro.serving.app import ServingApp
    config = CollectionConfig(clock=_dt.date.fromisoformat(args["start"]))
    registry = P.registry_for(args["trace"])

    def read(app, label: str) -> list:
        bodies = [app.get(request) for request in reads]
        tally.responses([status for status, _ in bodies], label)
        return bodies

    def next_day(traced: Tracer, op: str, app, dataset, cursor, clock) -> dict:
        """advance + swap + refresh + reads: one day of the tracker."""
        steps = Round()
        with steps.step("advance"), traced.span("incremental.advance", op):
            new, cursor, delta = advance(world, dataset, cursor, clock, config)
        with steps.step("swap"), traced.span("serving.swap", op):
            swap = app.swap_dataset(new, delta)
        with traced.span("experiments.refresh", op):
            texts = P.figure_suite(new, traced, steps, op)
        hits0, misses0 = _payload_counts(app)
        with steps.step("reads"), traced.span("serving.post_swap_reads", op):
            bodies = [app.get(request) for request in reads]
        hits1, misses1 = _payload_counts(app)
        tally.figures(texts, op)
        tally.responses([status for status, _ in bodies], op)
        return {
            "dataset": new, "cursor": cursor, "texts": texts, "bodies": bodies,
            "steps": steps,
            "delta_posts": _delta_posts(new, delta),
            "evicted": swap["result_evicted"] + swap["payload_evicted"],
            "kept": len(app.result_cache) + len(app.payload_cache),
            "hit_ratio": ratio(hits1 - hits0, hits1 - hits0 + misses1 - misses0),
        }

    def one_round(number: int, dataset, cursor, clock) -> dict:
        """The day after, from the last day's state, on a fresh warm app."""
        gc.collect()
        fresh = ServingApp(dataset)
        fresh.warm()
        read(fresh, f"round {number}, before the swap")
        with tracer.span("track.round", f"round{number}"):
            return next_day(Tracer(False), f"round {number}", fresh, dataset, cursor, clock)

    def rebuild(number: int, clock) -> dict:
        """The rounds' answers from scratch: collection, figures, fresh app."""
        gc.collect()
        steps = Round()
        with steps.step("collect"), tracer.span("rebuild.collect"):
            scratch, _ = collect_with_cursor(world, dataclasses.replace(config, clock=clock))
        with tracer.span("rebuild.figures"):
            P.build_products(scratch, Tracer(False), steps)
            texts = P.figure_suite(scratch, Tracer(False), steps)
        with steps.step("serving"), tracer.span("rebuild.serving"):
            fresh = ServingApp(scratch)
            fresh.warm()
            bodies = read(fresh, f"rebuild {number}")
        tally.figures(texts, f"rebuild {number}")
        return {"dataset": scratch, "texts": texts, "bodies": bodies, "steps": steps}

    with P.active(registry):
        pin_fastest()
        with tracer.span("simulation.build_world") as attrs:
            world = P.build_world(P.sim_config(args["seed"]))
            attrs["rss_mb"] = vm_rss_mb()
        with tracer.span("collection.collect"):
            dataset, cursor = collect_with_cursor(world, config)
        with tracer.span("serving.warm"):
            app = ServingApp(dataset)
            app.warm()
        with tracer.span("experiments.day0"):
            tally.figures(P.figure_suite(dataset, Tracer(False), Round()), "start day")
        rng = random.Random(args["read_seed"])
        inventory = Inventory(P.oracle_fields(dataset))
        reads = [target(*draw(rng, inventory)).decode("ascii") for _ in range(READ_BATCH)]

        measured = time.perf_counter()
        days: list[dict] = []
        clock = config.clock
        for index in range(args["days"]):
            clock += _ONE_DAY
            with tracer.span("track.day", f"day{index + 1}"):
                day = next_day(tracer, f"day{index + 1}", app, dataset, cursor, clock)
            dataset, cursor = day.pop("dataset"), day.pop("cursor")
            # from the steps, which leave out the CPU probes between them
            steps = day.pop("steps")
            day["seconds"] = sum(steps.values())
            day["refresh"] = day["seconds"] - steps["advance"] - steps["swap"] - steps["reads"]
            days.append({k: v for k, v in day.items() if k not in ("texts", "bodies")})

        # the day after, in identical rounds from the last day's state, and
        # from scratch; the two alternate so that each one's samples spread
        # over the whole stretch.  Superseded snapshots are garbage held by
        # reference cycles, so every round starts after a full collection.
        app = None
        clock += _ONE_DAY
        rounds: list[dict] = []
        rebuilds: list[dict] = []
        for number in range(max(ROUNDS, REBUILD_ROUNDS)):
            if number < ROUNDS:
                outcome = one_round(number, dataset, cursor, clock)
                rounds.append(outcome["steps"].to_dict())
                if not number:
                    first = {"texts": outcome["texts"], "bodies": outcome["bodies"]}
                    digest = P.content_digest(outcome["dataset"])
                    matched_users = outcome["dataset"].migrant_count
                    with tracer.span("collection.save"):
                        outcome["dataset"].save(args["npz"])
                else:
                    tally.fail(*checks.check_texts(first["texts"], outcome["texts"],
                                                   f"round {number} vs round 0"))
                    if outcome["bodies"] != first["bodies"]:
                        tally.fail(f"round {number} reads differ from round 0's")
                outcome = None
            if number < REBUILD_ROUNDS:
                rebuilt = rebuild(number, clock)
                rebuilds.append(rebuilt["steps"].to_dict())
                if number == REBUILD_ROUNDS - 1:
                    scratch_digest = P.content_digest(rebuilt["dataset"])
                rebuilt = {k: v for k, v in rebuilt.items() if k != "dataset"}
    peak = vm_hwm_mb()
    if registry is not None:
        P.export_obs_spans(registry, tracer)

    if scratch_digest != digest:
        tally.fail(f"snapshot advanced to {clock} differs from a from-scratch "
                   "clocked collection")
    tally.fail(*checks.check_texts(rebuilt["texts"], first["texts"],
                                   "refreshed figures vs fresh"))
    if rebuilt["bodies"] != first["bodies"]:
        tally.fail("post-swap reads differ from a fresh ServingApp's")

    return {
        **tally.to_dict(),
        "started": started,
        "measured": measured,
        "rounds": rounds,
        "rebuilds": rebuilds,
        "probes": harness.PROBES,
        "peak_rss_mb": peak,
        "dataset_bytes": Path(args["npz"]).stat().st_size,
        "tweets": world.twitter_store.tweet_count,
        "matched_users": matched_users,
        "world_rss_mb": tracer.attr("simulation.build_world", "rss_mb"),
        "days": days,
        "spans": tracer.spans,
        "live_spans": tracer.live,
    }
