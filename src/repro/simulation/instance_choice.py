"""The instance-choice model (RQ1/RQ2's generative counterpart).

When a candidate migrates they pick an instance by one of four moves:

- **social copy** (weight ``choice_social_weight``): join the instance of a
  randomly chosen already-migrated followee — the network effect behind the
  paper's "14.72% of a user's migrated followees share their instance";
- **flagship attachment** (``choice_flagship_weight``): preferential
  attachment over directory weight plus current population — the force
  behind the 96%-on-top-25% concentration of Figure 5;
- **topic match** (``choice_topic_weight``): a topical instance matching the
  user's dominant interest (gamedev folk on mastodon.gamedev.place, ...);
- **uniform** (remaining weight): anywhere in the directory.

Independently, highly active users may **self-host** a fresh single-user
instance, producing Figure 6's 13.16% single-user instances whose users are
*more* active than flagship users.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.simulation.config import SimConfig
from repro.simulation.population import InstanceSpec, SimUser


class InstanceChooser:
    """Chooses a Mastodon instance for each migrating user."""

    def __init__(
        self,
        config: SimConfig,
        specs: list[InstanceSpec],
        rng: np.random.Generator,
    ) -> None:
        self._config = config
        self._specs = list(specs)
        self._rng = rng
        self._domains = [spec.domain for spec in self._specs]
        self._base_weights = np.array([spec.weight for spec in self._specs])
        self._population = Counter({spec.domain: 0 for spec in self._specs})
        self._by_topic: dict[str, list[int]] = {}
        for i, spec in enumerate(self._specs):
            self._by_topic.setdefault(spec.topic, []).append(i)
        self._self_host_count = 0

    @property
    def populations(self) -> Counter:
        """Migrants placed on each instance so far."""
        return self._population

    def record_population(self, domain: str, delta: int = 1) -> None:
        self._population[domain] += delta

    def wants_self_host(self, agent: SimUser) -> bool:
        """Self-hosting is an engaged-user move (Fig. 6's activity paradox)."""
        p = self._config.self_host_probability * (4.0 * agent.engagement**2)
        return bool(self._rng.random() < p)

    def new_self_host_domain(self, agent: SimUser) -> str:
        self._self_host_count += 1
        return f"{agent.username.replace('_', '-')}.{['page', 'me', 'name'][self._self_host_count % 3]}"

    def choose(self, agent: SimUser, followee_instances: "Counter[str]") -> str:
        """Pick an existing directory instance for ``agent``.

        ``followee_instances`` counts the user's already-migrated followees
        per instance; the social-copy move samples proportionally, so popular
        choices in the ego network are copied more often.
        """
        config = self._config
        rng = self._rng
        total = sum(followee_instances.values())
        # When the user has no migrated followees the social-copy move is
        # unavailable and its mass redistributes *proportionally* over the
        # remaining moves (not to any single branch).
        social = config.choice_social_weight if total > 0 else 0.0
        # The paper's explanation of the Figure 6 paradox: small instances
        # attract *dedicated* users, flagships accumulate *experimental*
        # ones.  Engagement therefore tilts the flagship/topical/uniform
        # split: low-engagement users default to the big names.
        e = agent.engagement
        weights = np.array(
            [
                social,
                config.choice_flagship_weight * (1.6 - 1.0 * e),
                config.choice_topic_weight * (0.4 + 1.6 * e),
                max(0.0, config.choice_random_weight) * (0.3 + 2.0 * e * e),
            ]
        )
        move = int(rng.choice(4, p=weights / weights.sum()))
        if move == 0:
            pick = int(rng.integers(0, total))
            for domain, count in followee_instances.items():
                pick -= count
                if pick < 0:
                    return domain
            raise RuntimeError("unreachable: counter sampling fell through")
        if move == 1:
            return self._preferential()
        if move == 2:
            return self._topical(agent)
        return self._domains[int(rng.integers(0, len(self._domains)))]

    def _preferential(self) -> str:
        counts = np.array([self._population[d] for d in self._domains], dtype=float)
        weights = self._base_weights + counts / max(1.0, counts.sum())
        weights = weights / weights.sum()
        idx = int(self._rng.choice(len(self._domains), p=weights))
        return self._domains[idx]

    def _topical(self, agent: SimUser) -> str:
        indices = self._by_topic.get(agent.main_topic)
        if not indices:
            indices = self._by_topic["general"]
        weights = self._base_weights[indices]
        weights = weights / weights.sum()
        pick = int(self._rng.choice(len(indices), p=weights))
        return self._domains[indices[pick]]
