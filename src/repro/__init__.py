"""Reproduction of "Flocking to Mastodon: Tracking the Great Twitter Migration".

The package is organised as a layered system:

- :mod:`repro.util` -- shared primitives (simulated clock, seeded RNG tree,
  snowflake ids, empirical statistics, heavy-tailed samplers).
- :mod:`repro.twitter` -- an in-memory Twitter service: users, tweets, a
  follower graph, a search query language and rate-limited APIs.
- :mod:`repro.fediverse` -- a multi-instance Mastodon network with
  ActivityPub-style federation, timelines, account migration and client APIs.
- :mod:`repro.nlp` -- synthetic text generation, a hashing sentence encoder,
  and a Perspective-like toxicity scorer.
- :mod:`repro.simulation` -- the agent-based world that replays the
  October/November 2022 migration event on the two substrates.
- :mod:`repro.collection` -- the paper's data-collection pipeline (Section 3):
  instance list compilation, migration-tweet search, hierarchical handle
  matching, timeline and followee crawls, weekly-activity crawl.
- :mod:`repro.obs` -- opt-in observability: metrics registry, hierarchical
  spans, crawl report / JSON export (no-op by default; deterministic-safe).
- :mod:`repro.analysis` -- the paper's analyses (Sections 4-6).
- :mod:`repro.experiments` -- one module per paper figure plus a runner that
  regenerates each figure's rows/series.

Quickstart::

    from repro import SimConfig, build_world, collect_dataset
    from repro.analysis import report

    world = build_world(SimConfig(seed=7, scale=0.02))
    dataset = collect_dataset(world)
    print(report.headline_report(dataset))
"""

from repro._version import __version__
from repro.simulation import SimConfig, build_world
from repro.collection import MigrationDataset, collect_dataset

__all__ = [
    "__version__",
    "SimConfig",
    "build_world",
    "MigrationDataset",
    "collect_dataset",
]
