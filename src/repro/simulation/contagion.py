"""The social-contagion migration model (RQ2's generative counterpart).

Section 5 distinguishes two migration drivers: ideology (disagreement with
the takeover) and social pressure (one's followees already left).  The model
combines both into a daily hazard for each candidate:

    hazard(u, t) = base * intensity(t)
                   * (ideology_weight * ideology(u) + 0.25)
                   * (1 + contagion_weight * migrated_followee_fraction(u, t))

With ``contagion_weight = 0`` migration becomes a pure ideology/event process
— the ablation benchmark uses exactly that to show the Figure 8/10 orderings
collapse without contagion.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.simulation.config import SimConfig
from repro.simulation.events import EventTimeline
from repro.simulation.population import SimUser
from repro.twitter.graph import FollowGraph
from repro.util.clock import TAKEOVER_DATE


class ContagionModel:
    """Decides, day by day, which candidates migrate."""

    def __init__(
        self,
        config: SimConfig,
        timeline: EventTimeline,
        graph: FollowGraph,
        rng: np.random.Generator,
    ) -> None:
        self._config = config
        self._timeline = timeline
        self._graph = graph
        self._rng = rng

    def migrated_followee_fraction(
        self, user_id: int, migrated: set[int]
    ) -> float:
        """Fraction of ``user_id``'s followees that already migrated."""
        followees = self._graph.followees_of(user_id)
        if not followees:
            return 0.0
        moved = sum(1 for f in followees if f in migrated)
        return moved / len(followees)

    def hazard_given_fraction(
        self, agent: SimUser, day: _dt.date, fraction: float
    ) -> float:
        """Migration probability when the migrated-followee fraction is known.

        The world tracks the fraction incrementally, so this is the hot path.
        """
        config = self._config
        intensity = self._timeline.intensity(day)
        if intensity <= 0.0:
            return 0.0
        ideology_term = config.ideology_weight * agent.ideology + 0.25
        contagion_term = 1.0 + config.contagion_weight * fraction
        hazard = config.base_daily_hazard * intensity * ideology_term * contagion_term
        # Pre-takeover adoption is rare and ideology-only: Mastodon's pull
        # before the event was curiosity, not contagion.
        if day < TAKEOVER_DATE:
            hazard *= 0.35
        return min(0.95, hazard)

    def hazard_batch(
        self, ideology: np.ndarray, fraction: np.ndarray, day: _dt.date
    ) -> np.ndarray:
        """Vectorised :meth:`hazard_given_fraction` over agent columns.

        Same formula, one array expression per tick instead of one Python
        call per candidate — the columnar tick loop's contagion kernel.
        """
        config = self._config
        intensity = self._timeline.intensity(day)
        if intensity <= 0.0:
            return np.zeros(len(ideology))
        hazard = (
            config.base_daily_hazard
            * intensity
            * (config.ideology_weight * ideology + 0.25)
            * (1.0 + config.contagion_weight * fraction)
        )
        if day < TAKEOVER_DATE:
            hazard *= 0.35
        return np.minimum(0.95, hazard)

    def hazard(self, agent: SimUser, day: _dt.date, migrated: set[int]) -> float:
        """Migration probability for ``agent`` on ``day``."""
        social = self.migrated_followee_fraction(agent.user_id, migrated)
        return self.hazard_given_fraction(agent, day, social)

    def decide(self, agent: SimUser, day: _dt.date, migrated: set[int]) -> bool:
        """Bernoulli draw against the hazard."""
        return bool(self._rng.random() < self.hazard(agent, day, migrated))
