"""Tests for repro.simulation.instance_choice."""

from collections import Counter

import numpy as np
import pytest

from repro.simulation.config import SimConfig
from repro.simulation.instance_choice import InstanceChooser
from repro.simulation.population import generate_instances
from tests.simulation.test_contagion import agent

CONFIG = SimConfig(seed=2, scale=0.001)


@pytest.fixture
def chooser():
    specs = generate_instances(CONFIG, np.random.default_rng(2))
    return InstanceChooser(CONFIG, specs, np.random.default_rng(2))


class TestChoose:
    def test_always_returns_known_domain(self, chooser):
        domains = {spec.domain for spec in chooser._specs}
        for _ in range(200):
            assert chooser.choose(agent(), Counter()) in domains

    def test_social_copy_follows_counter(self):
        config = SimConfig(
            choice_social_weight=1.0,
            choice_flagship_weight=0.0,
            choice_topic_weight=0.0,
        )
        specs = generate_instances(config, np.random.default_rng(2))
        chooser = InstanceChooser(config, specs, np.random.default_rng(2))
        counts = Counter({"fosstodon.org": 3, "mastodon.art": 1})
        picks = Counter(chooser.choose(agent(), counts) for _ in range(400))
        assert set(picks) == {"fosstodon.org", "mastodon.art"}
        assert picks["fosstodon.org"] > picks["mastodon.art"]

    def test_social_ablation_removes_copying(self):
        """choice_social_weight=0 must ignore followee instances entirely."""
        config = SimConfig(
            choice_social_weight=0.0,
            choice_flagship_weight=0.7,
            choice_topic_weight=0.2,
        )
        specs = generate_instances(config, np.random.default_rng(2))
        chooser = InstanceChooser(config, specs, np.random.default_rng(2))
        rare = specs[-1].domain
        counts = Counter({rare: 50})
        picks = Counter(chooser.choose(agent(), counts) for _ in range(300))
        assert picks[rare] < 30  # only reachable by chance, not by copying

    def test_no_followees_redistributes_proportionally(self, chooser):
        """With an empty counter the social mass must NOT collapse onto the
        uniform branch (the bug this guards against spread users evenly)."""
        picks = Counter(chooser.choose(agent(), Counter()) for _ in range(600))
        assert picks["mastodon.social"] > 600 * 0.15

    def test_topic_match(self):
        config = SimConfig(
            choice_social_weight=0.0,
            choice_flagship_weight=0.0,
            choice_topic_weight=1.0,
        )
        specs = generate_instances(config, np.random.default_rng(2))
        chooser = InstanceChooser(config, specs, np.random.default_rng(2))
        gamer = agent()
        gamer.main_topic = "gaming"
        by_domain = {s.domain: s for s in specs}
        picks = Counter(chooser.choose(gamer, Counter()) for _ in range(200))
        assert all(by_domain[d].topic == "gaming" for d in picks)

    def test_engagement_tilts_away_from_flagships(self, chooser):
        casual = agent()
        casual.engagement = 0.05
        dedicated = agent()
        dedicated.engagement = 0.95
        flagships = {s.domain for s in chooser._specs if s.flagship}
        casual_hits = sum(
            chooser.choose(casual, Counter()) in flagships for _ in range(400)
        )
        dedicated_hits = sum(
            chooser.choose(dedicated, Counter()) in flagships for _ in range(400)
        )
        assert casual_hits > dedicated_hits


class TestSelfHost:
    def test_engaged_users_self_host_more(self, chooser):
        casual = agent()
        casual.engagement = 0.05
        dedicated = agent()
        dedicated.engagement = 0.98
        casual_rate = np.mean([chooser.wants_self_host(casual) for _ in range(3000)])
        dedicated_rate = np.mean(
            [chooser.wants_self_host(dedicated) for _ in range(3000)]
        )
        assert dedicated_rate > casual_rate

    def test_self_host_domains_unique(self, chooser):
        a, b = agent(uid=10), agent(uid=11)
        a.username, b.username = "zoe_1", "zoe_2"
        assert chooser.new_self_host_domain(a) != chooser.new_self_host_domain(b)


class TestPopulationTracking:
    def test_record_population_feeds_preferential(self):
        config = SimConfig(
            choice_social_weight=0.0,
            choice_flagship_weight=1.0,
            choice_topic_weight=0.0,
            instance_zipf_exponent=0.0,  # flat base weights
        )
        specs = generate_instances(config, np.random.default_rng(2))
        chooser = InstanceChooser(config, specs, np.random.default_rng(2))
        hot = specs[5].domain
        for _ in range(500):
            chooser.record_population(hot)
        picks = Counter(chooser.choose(agent(), Counter()) for _ in range(500))
        assert picks[hot] == max(picks.values())
