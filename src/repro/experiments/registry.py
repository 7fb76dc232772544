"""Experiment registry: figure id -> runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.collection.dataset import MigrationDataset


@dataclass
class ExperimentResult:
    """One regenerated figure: printable rows plus headline scalars."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[tuple]
    notes: dict[str, float] = field(default_factory=dict)

    def format(self, max_rows: int = 40) -> str:
        """Render as an aligned text table."""
        widths = [len(h) for h in self.headers]
        printable = [tuple(_cell(v) for v in row) for row in self.rows[:max_rows]]
        for row in printable:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.exp_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        for row in printable:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        if self.notes:
            lines.append("notes:")
            for key, value in self.notes.items():
                lines.append(f"  {key} = {value:.2f}")
        return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _load_registry(
    include_extensions: bool = False,
) -> dict[str, Callable[[MigrationDataset], ExperimentResult]]:
    from repro.experiments import (
        fig01_trends,
        fig02_tweet_volume,
        fig03_weekly_activity,
        fig04_top_instances,
        fig05_user_share,
        fig06_instance_quantiles,
        fig07_network_sizes,
        fig08_followee_migration,
        fig09_switch_chord,
        fig10_switcher_influence,
        fig11_daily_activity,
        fig12_sources,
        fig13_crossposters,
        fig14_similarity,
        fig15_hashtags,
        fig16_toxicity,
    )

    modules = [
        fig01_trends,
        fig02_tweet_volume,
        fig03_weekly_activity,
        fig04_top_instances,
        fig05_user_share,
        fig06_instance_quantiles,
        fig07_network_sizes,
        fig08_followee_migration,
        fig09_switch_chord,
        fig10_switcher_influence,
        fig11_daily_activity,
        fig12_sources,
        fig13_crossposters,
        fig14_similarity,
        fig15_hashtags,
        fig16_toxicity,
    ]
    registry = {module.EXP_ID: module.run for module in modules}
    if include_extensions:
        from repro.experiments import ext01_retention, ext02_moderation, ext03_network

        for module in (ext01_retention, ext02_moderation, ext03_network):
            registry[module.EXP_ID] = module.run
    return registry


def all_experiment_ids(include_extensions: bool = False) -> list[str]:
    """Paper figures F1-F16, plus the X* extensions when requested."""
    ids = sorted(_load_registry(include_extensions), key=lambda x: (x[0], int(x[1:])))
    return ids


def extension_ids() -> list[str]:
    """The extension experiments (beyond the paper's figures)."""
    return [eid for eid in all_experiment_ids(include_extensions=True)
            if eid.startswith("X")]


def get_experiment(exp_id: str) -> Callable[[MigrationDataset], ExperimentResult]:
    registry = _load_registry(include_extensions=True)
    try:
        return registry[exp_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(registry)}"
        ) from None


def run_all(
    dataset: MigrationDataset, include_extensions: bool = False
) -> list[ExperimentResult]:
    """Regenerate every figure (optionally with extensions) from one dataset.

    All experiments share the dataset's memoized analysis frames
    (:mod:`repro.frames`): the first figure that needs a column table or a
    derived product (embeddings, toxicity scores, ...) builds it, every
    later one reuses it.  The warm-up here just pins the shared instance so
    the sharing survives callers that copy the result list around.
    """
    from repro.frames import frames_of

    frames_of(dataset)
    registry = _load_registry(include_extensions)
    return [registry[eid](dataset) for eid in all_experiment_ids(include_extensions)]
