"""CLI runner: build a world, collect a dataset, regenerate every figure.

Usage::

    repro-experiments [--seed 7] [--scale 0.01] [--only F5,F8] \
                      [--dataset path.json] [--save path.json] [--report] \
                      [--faults SCENARIO] [--quiet] [--metrics out.json] \
                      [--trace[=trace.json]] [--events events.jsonl] \
                      [--memory] [--profile SPAN] \
                      [--workers N] [--backend auto|serial|multiprocessing] \
                      [--world-<field> VALUE ...]

``--dataset`` loads a previously saved dataset (skipping the simulation);
``--save`` stores the collected dataset for later reuse; ``--report`` also
prints the paper-vs-measured headline table.  ``--quiet`` silences the
progress lines.  ``--faults SCENARIO`` injects transient failures from a
named :mod:`repro.faults` scenario (e.g. ``paper-section-3.2``) into the
collection clients, seeded from ``--seed`` so the chaos is reproducible.
``--metrics PATH`` records the run in a live metrics registry and writes
the machine-readable telemetry (counters, gauges, histogram summaries,
span tree, event stream) to PATH; ``--trace`` prints the span tree and the
human-readable crawl report to stderr, and ``--trace=PATH`` additionally
writes the run as a Chrome/Perfetto trace-event file (open it at
https://ui.perfetto.dev — parallel crawl shards render as one swimlane per
(stage, shard)).  ``--events PATH`` writes the raw timestamped event
stream (span opens/closes, watched-counter crossings, per-tick
``world.simulate`` heartbeats) as JSON-lines.  ``--memory`` adds per-span
RSS and tracemalloc accounting to every span (allocation tracing costs
real wall time).  ``--profile SPAN`` attaches a cProfile top-N hotspot
table to the named span (e.g. ``--profile world.simulate``).  Any of these
flags turns instrumentation on; without them the no-op registry is active
and the run is telemetry-free.  None of them perturb the dataset: bytes
are identical with the whole profiling plane on or off.
``--workers N`` schedules the sharded crawl stages over a ``fork`` worker
pool (``--backend`` picks the execution backend); the collected dataset is
byte-identical at any worker count — see :mod:`repro.parallel`.
``--save``/``--dataset`` paths ending in ``.npz`` use the compact binary
dataset format (:mod:`repro.collection.binfmt`) instead of JSON; the
figures are identical either way.  Every figure runs on the shared
columnar analysis frames (:mod:`repro.frames`); ``python -m tests.oracles
DATASET`` prints the same suite from the per-object reference loops.

Every behavioural knob of :class:`repro.simulation.SimConfig` is exposed
as a ``--world-<field>`` flag (underscores become dashes, e.g.
``--world-tweet-rate-mean 2.5``); the flags, their types and their help
text are generated from the dataclass fields and their ``#:`` doc
comments, so the config source stays the single place knobs are
documented.  Overrides are validated together via
:meth:`SimConfig.validate` before the world is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import logging
import sys
import time

from repro import obs
from repro.analysis.report import format_report, headline_report
from repro.collection.dataset import MigrationDataset
from repro.collection.pipeline import CollectionConfig, collect_dataset
from repro.errors import ConfigError
from repro.experiments.registry import all_experiment_ids, get_experiment
from repro.faults import FaultPlan, scenario_names
from repro.parallel.engine import fork_available
from repro.simulation.config import SimConfig, field_docs
from repro.simulation.world import build_world

_log = obs.get_logger("runner")

#: SimConfig fields that already have dedicated top-level flags (seed,
#: scale) or are not expressible as a single CLI value (extras).
_WORLD_FLAG_SKIP = frozenset({"seed", "scale", "extras"})


def add_world_flags(parser: argparse.ArgumentParser) -> None:
    """Generate one ``--world-<field>`` flag per :class:`SimConfig` field.

    Flag names, value types and help text all derive from the dataclass:
    the type comes from each field's default value, the help line from the
    ``#:`` doc comment above the field (:func:`repro.simulation.field_docs`).
    Adding a knob to SimConfig therefore grows the CLI automatically.
    """
    group = parser.add_argument_group(
        "world overrides",
        "per-field SimConfig overrides; the defaults reproduce the paper's "
        "aggregate statistics at any scale (see repro/simulation/config.py)",
    )
    docs = field_docs()
    for spec in dataclasses.fields(SimConfig):
        if spec.name in _WORLD_FLAG_SKIP:
            continue
        default = spec.default
        if isinstance(default, bool):
            value_type: object = lambda s: s.lower() in ("1", "true", "yes")
            metavar = "BOOL"
        elif isinstance(default, int):
            value_type = int
            metavar = "N"
        elif isinstance(default, float):
            value_type = float
            metavar = "X"
        elif isinstance(default, _dt.date):
            value_type = _dt.date.fromisoformat
            metavar = "YYYY-MM-DD"
        else:  # pragma: no cover - no such fields today
            continue
        doc = docs.get(spec.name, "")
        help_text = (doc + " " if doc else "") + f"[default: {default}]"
        group.add_argument(
            "--world-" + spec.name.replace("_", "-"),
            dest="world_" + spec.name,
            type=value_type,
            default=None,
            metavar=metavar,
            # argparse formats help with %-interpolation; the doc comments
            # quote paper percentages, so escape them
            help=help_text.replace("%", "%%"),
        )


def world_overrides(args: argparse.Namespace) -> dict[str, object]:
    """The ``--world-*`` values the user actually set, keyed by field name."""
    overrides: dict[str, object] = {}
    for spec in dataclasses.fields(SimConfig):
        value = getattr(args, "world_" + spec.name, None)
        if value is not None:
            overrides[spec.name] = value
    return overrides


def build_dataset(
    seed: int = 7,
    scale: float = 0.01,
    verbose: bool = True,
    config: CollectionConfig | None = None,
    *,
    sim_config: SimConfig | None = None,
    checkpoint: str = "",
    advance_days: int = 0,
) -> MigrationDataset:
    """Build a world and run the collection pipeline.

    ``sim_config`` carries the full world configuration; ``seed``/``scale``
    remain as a convenience for callers that need nothing else (they are
    ignored when ``sim_config`` is given).  ``checkpoint`` makes the
    collection resumable (cursor + snapshot persisted there; an interrupted
    run picks up at the last completed stage).  ``advance_days`` moves the
    observer clock forward that many days incrementally after the clocked
    collection (requires ``config.clock``).
    """
    level = logging.INFO if verbose else logging.DEBUG
    started = time.time()
    if sim_config is None:
        sim_config = SimConfig(seed=seed, scale=scale)
    world = build_world(sim_config)
    _log.log(
        level,
        "world: %d migrants, %d tweets (%.1fs)",
        len(world.migrants),
        world.twitter_store.tweet_count,
        time.time() - started,
    )
    started = time.time()
    if checkpoint or advance_days:
        from repro.collection.pipeline import run_pipeline

        dataset, cursor = run_pipeline(
            world,
            config,
            capture_state=True,
            checkpoint_path=checkpoint or None,
        )
    else:
        dataset = collect_dataset(world, config)
    _log.log(
        level,
        "collect: %d matched users (%.1fs)",
        dataset.migrant_count,
        time.time() - started,
    )
    for _ in range(advance_days):
        from repro.incremental import advance

        assert cursor is not None and cursor.clock is not None
        started = time.time()
        new_clock = cursor.clock + _dt.timedelta(days=1)
        dataset, cursor, delta = advance(world, dataset, cursor, new_clock, config)
        _log.log(
            level,
            "advance -> %s: %s (%.1fs)",
            new_clock.isoformat(),
            delta.summary(),
            time.time() - started,
        )
    return dataset


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated experiment ids, e.g. F5,F8")
    parser.add_argument("--dataset", type=str, default="",
                        help="load a saved dataset instead of simulating")
    parser.add_argument("--save", type=str, default="",
                        help="save the collected dataset to this path")
    parser.add_argument("--report", action="store_true",
                        help="also print the paper-vs-measured headline table")
    parser.add_argument("--extensions", action="store_true",
                        help="include the X* extension experiments")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress the stderr progress lines")
    parser.add_argument("--faults", type=str, default="", metavar="SCENARIO",
                        help="inject faults from a named scenario during "
                             f"collection (one of: {', '.join(scenario_names())})")
    parser.add_argument("--metrics", type=str, default="", metavar="PATH",
                        help="write machine-readable run telemetry (JSON) to PATH")
    parser.add_argument("--trace", type=str, nargs="?", const="", default=None,
                        metavar="PATH",
                        help="print the span tree and crawl report to stderr; "
                             "with a PATH, also write a Chrome/Perfetto "
                             "trace-event file there")
    parser.add_argument("--events", type=str, default="", metavar="PATH",
                        help="write the raw timestamped event stream "
                             "(JSON-lines) to PATH")
    parser.add_argument("--memory", action="store_true",
                        help="account per-span memory (RSS snapshots + "
                             "tracemalloc peaks; allocation tracing costs "
                             "wall time)")
    parser.add_argument("--profile", type=str, default="", metavar="SPAN",
                        help="attach a cProfile top-N hotspot table to the "
                             "named span (e.g. world.simulate)")
    parser.add_argument("--serve", type=str, default="", metavar="HOST:PORT",
                        help="after building/loading the dataset, serve it "
                             "over HTTP instead of running experiments "
                             "(python -m repro.serving has the full serving "
                             "CLI, including the load generator)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker count for the sharded crawl stages; the "
                             "dataset is byte-identical at any value")
    parser.add_argument("--clock", type=_dt.date.fromisoformat, default=None,
                        metavar="DATE",
                        help="observer-clock collection: gather only what a "
                             "crawler would have seen by this ISO date")
    parser.add_argument("--resume-from", type=str, default="", metavar="PATH",
                        help="persist the crawl cursor + snapshot at PATH and "
                             "resume an interrupted collection from it")
    parser.add_argument("--advance-days", type=int, default=0, metavar="N",
                        help="after the clocked collection, advance the clock "
                             "N days incrementally (delta crawls; requires "
                             "--clock)")
    parser.add_argument("--backend", type=str, default="auto",
                        choices=("auto", "serial", "multiprocessing"),
                        help="shard execution backend (auto: multiprocessing "
                             "when --workers > 1 and fork is available)")
    add_world_flags(parser)
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")

    overrides = world_overrides(args)
    if overrides and args.dataset:
        parser.error("--world-* flags have no effect with --dataset "
                     "(no simulation runs)")
    try:
        sim_config = SimConfig(seed=args.seed, scale=args.scale, **overrides)
        sim_config.validate()
    except ConfigError as err:
        parser.error(str(err))
    backend = args.backend
    if backend == "auto":
        backend = (
            "multiprocessing"
            if args.workers > 1 and fork_available()
            else "serial"
        )

    if args.advance_days:
        if args.advance_days < 0:
            parser.error(f"--advance-days must be >= 0, got {args.advance_days}")
        if args.clock is None:
            parser.error("--advance-days requires --clock (the starting snapshot)")
        if args.faults:
            parser.error("--advance-days refuses fault injection (delta crawls "
                         "are fault-free by contract)")
    if (args.clock or args.resume_from) and args.dataset:
        parser.error("--clock/--resume-from have no effect with --dataset "
                     "(no collection runs)")

    config: CollectionConfig | None = None
    if args.faults:
        if args.dataset:
            parser.error("--faults has no effect with --dataset (no collection runs)")
        try:
            plan = FaultPlan.scenario(args.faults, seed=args.seed)
        except ConfigError as err:
            parser.error(str(err))
        config = CollectionConfig(
            fault_plan=plan, workers=args.workers, backend=backend
        )
    elif args.workers > 1 or backend != "serial":
        config = CollectionConfig(workers=args.workers, backend=backend)
    if args.clock is not None:
        try:
            config = dataclasses.replace(
                config or CollectionConfig(), clock=args.clock
            )
        except ConfigError as err:
            parser.error(str(err))

    obs.configure_logging(quiet=args.quiet)
    instrumented = (
        bool(args.metrics)
        or args.trace is not None
        or bool(args.events)
        or args.memory
        or bool(args.profile)
    )
    registry = obs.MetricsRegistry() if instrumented else obs.NOOP
    accountant = registry.enable_memory(trace_allocs=True) if args.memory else None

    from contextlib import ExitStack

    try:
        with ExitStack() as stack:
            stack.enter_context(obs.use(registry))
            if args.profile:
                stack.enter_context(
                    obs.profile_span(args.profile, registry=registry)
                )
            if args.dataset:
                dataset = MigrationDataset.load(args.dataset)
            else:
                dataset = build_dataset(
                    verbose=not args.quiet, config=config, sim_config=sim_config,
                    checkpoint=args.resume_from, advance_days=args.advance_days,
                )
            if args.save:
                dataset.save(args.save)

            if args.serve:
                from repro.serving.app import ServingApp
                from repro.serving.server import run as run_server

                host, _, port_text = args.serve.rpartition(":")
                try:
                    port = int(port_text)
                except ValueError:
                    parser.error(
                        f"--serve expects HOST:PORT, got {args.serve!r}"
                    )
                app = ServingApp(dataset)
                _log.info("warming serving read models ...")
                app.warm()
                run_server(app, host or "127.0.0.1", port)
                return 0

            ids = [x.strip().upper() for x in args.only.split(",") if x.strip()]
            ids = ids or all_experiment_ids(include_extensions=args.extensions)
            with registry.span("experiments"):
                for exp_id in ids:
                    with registry.span(f"experiment.{exp_id}"):
                        result = get_experiment(exp_id)(dataset)
                    print(result.format())
                    print()
            if args.report:
                print(format_report(headline_report(dataset)))
    finally:
        if accountant is not None:
            accountant.close()

    if args.trace is not None:
        print(obs.format_span_tree(registry), file=sys.stderr)
        print(file=sys.stderr)
        print(obs.format_crawl_report(registry), file=sys.stderr)
        if args.trace:
            doc = obs.write_chrome_trace(registry, args.trace)
            _log.info(
                "perfetto trace written to %s (%d events)",
                args.trace,
                len(doc["traceEvents"]),
            )
    if args.events:
        written = registry.events.write_jsonl(args.events)
        _log.info("event stream written to %s (%d events)", args.events, written)
    if args.metrics:
        obs.write_metrics_json(registry, args.metrics)
        _log.info("telemetry written to %s", args.metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
