"""Instance switching (Section 5.3's generative counterpart).

A migrated user switches instance when a large share of their migrated
followees concentrates somewhere else — typically away from a flagship
general-purpose instance toward a topical one.  Daily:

    p_switch(u, t) = switch_daily_scale
                     * (1 + switch_social_pull * best_other_fraction(u, t))
                     * flagship_factor(current instance)

where ``best_other_fraction`` is the largest share of the user's migrated
followees on a single instance other than the user's current one.  With
``switch_social_pull = 0`` (the ablation), switching loses its social
signature: the Figure 10 contrast between first and second instance
disappears.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.simulation.config import SimConfig
from repro.simulation.population import SimUser


class SwitchModel:
    """Decides daily whether a migrated user moves to another instance."""

    def __init__(
        self,
        config: SimConfig,
        flagship_domains: frozenset[str],
        rng: np.random.Generator,
    ) -> None:
        self._config = config
        self._flagships = flagship_domains
        self._rng = rng

    def best_other_instance(
        self, agent: SimUser, followee_instances: Counter
    ) -> tuple[str | None, float]:
        """The most popular *other* instance among migrated followees.

        ``followee_instances`` counts the user's migrated followees per
        instance.  Returns ``(domain, fraction)`` with the fraction computed
        over all migrated followees; ``(None, 0.0)`` if there are none
        elsewhere.
        """
        total = sum(followee_instances.values())
        if total == 0:
            return None, 0.0
        best: tuple[str, int] | None = None
        for domain, count in followee_instances.items():
            if domain == agent.current_instance or count <= 0:
                continue
            if best is None or count > best[1]:
                best = (domain, count)
        if best is None:
            return None, 0.0
        return best[0], best[1] / total

    def propose_switch(
        self, agent: SimUser, followee_instances: Counter
    ) -> str | None:
        """The target instance if the user switches today, else None."""
        if agent.switch_day is not None:
            return None  # one switch per user, like the paper's first/second
        target, fraction = self.best_other_instance(agent, followee_instances)
        if target is None:
            return None
        # No pull unless the social centre of gravity really lies elsewhere:
        # more migrated followees on the target than on the current instance.
        if followee_instances.get(agent.current_instance, 0) >= followee_instances.get(
            target, 0
        ):
            return None
        config = self._config
        # Switching is driven by *concentration*: below ~15% of one's migrated
        # followees on a single other instance the pull is negligible, above
        # it the pull grows steeply — this produces the Figure 10 contrast
        # (switchers' followees cluster on the second instance).
        excess = max(0.0, fraction - 0.15)
        p = config.switch_daily_scale * (1.0 + config.switch_social_pull * 4.0 * excess)
        if agent.current_instance in self._flagships:
            p *= 2.0  # flagship -> topical is the dominant pattern (Fig. 9)
        else:
            p *= 0.35
        if target in self._flagships:
            # moving *onto* a flagship is rare: people leave the big generic
            # servers for communities, not the other way around
            p *= 0.2
        if self._rng.random() < min(0.5, p):
            return target
        return None
