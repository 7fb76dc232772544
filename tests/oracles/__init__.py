"""Reference implementations that production is tested against.

Production has one path per behaviour: the analyses read the memoized
columnar frames (:mod:`repro.frames`) and the serving layer answers from
:class:`~repro.serving.views.ColumnarViews`.  The per-object loops they
replaced live here, unchanged, as oracles:

- :mod:`tests.oracles.analysis` — the naive twin of every frames-backed
  analysis (and of Figure 3's ``run``);
- :mod:`tests.oracles.serving` — :class:`NaiveViews`, the per-object
  serving reference.

:func:`oracles_installed` rebinds every production twin to its oracle in
all loaded ``repro`` modules, so the figure suite and the headline report
run end to end on the oracles; ``python -m tests.oracles DATASET`` prints
that suite the way the runner prints the production one.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager

from tests.oracles import analysis


def twins() -> dict:
    """Production function -> its oracle."""
    from repro.analysis import (
        activity,
        content,
        hashtags,
        instance_stats,
        moderation,
        network_structure,
        retention,
        sources,
        switching,
        toxicity,
    )
    from repro.experiments import fig03_weekly_activity

    return {
        activity.daily_volume: analysis.daily_volume,
        activity.collected_tweet_volume: analysis.collected_tweet_volume,
        fig03_weekly_activity.run: analysis.fig03_run,
        instance_stats.instance_stats: analysis.instance_stats,
        switching.switch_matrix: analysis.switch_matrix,
        switching.switcher_influence: analysis.switcher_influence,
        sources.top_sources: analysis.top_sources,
        sources.crossposter_daily_users: analysis.crossposter_daily_users,
        content.content_similarity: analysis.content_similarity,
        hashtags.top_hashtags: analysis.top_hashtags,
        toxicity.toxicity_analysis: analysis.toxicity_analysis,
        retention.retention: analysis.retention,
        moderation.moderation_load: analysis.moderation_load,
        network_structure.network_structure: analysis.network_structure,
    }


@contextmanager
def oracles_installed() -> Iterator[None]:
    """Scope in which every ``repro`` module calls the oracles.

    Each module global bound to a production twin is rebound to its oracle
    (the experiment modules are imported first, so the registry's runners
    pick the oracles up too) and restored on exit.
    """
    from repro.experiments.registry import all_experiment_ids

    all_experiment_ids(include_extensions=True)  # imports every experiment
    swaps = {id(twin): (twin, oracle) for twin, oracle in twins().items()}
    rebound = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            found = swaps.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attr, found[1])
                rebound.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
