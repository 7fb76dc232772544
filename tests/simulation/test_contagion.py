"""Tests for repro.simulation.contagion."""

import datetime as dt

import numpy as np
import pytest

from repro.simulation.config import SimConfig
from repro.simulation.contagion import ContagionModel
from repro.simulation.events import EventTimeline
from repro.simulation.population import SimUser
from repro.twitter.graph import FollowGraph
from repro.util.clock import TAKEOVER_DATE


def agent(uid: int = 1, ideology: float = 0.5) -> SimUser:
    return SimUser(
        user_id=uid, username=f"u{uid}", role="candidate",
        topic_mixture=np.ones(10) / 10, main_topic="tech", ideology=ideology,
        engagement=0.5, tweet_rate=1.0, status_rate=1.0,
        toxicity_twitter=0.0, toxicity_mastodon=0.0, is_lurker=False,
        mirror_rate=0.0, crossposter=None, announce_via="bio",
        announce_style="acct", same_username=True,
        preferred_source="Twitter Web App",
    )


@pytest.fixture
def model():
    config = SimConfig(seed=1, scale=0.001)
    graph = FollowGraph()
    for followee in (2, 3, 4, 5):
        graph.follow(1, followee)
    return ContagionModel(config, EventTimeline(), graph, np.random.default_rng(1))


class TestFraction:
    def test_no_followees(self, model):
        assert model.migrated_followee_fraction(99, {1, 2}) == 0.0

    def test_counts_migrated(self, model):
        assert model.migrated_followee_fraction(1, {2, 3}) == 0.5
        assert model.migrated_followee_fraction(1, set()) == 0.0
        assert model.migrated_followee_fraction(1, {2, 3, 4, 5}) == 1.0


class TestHazard:
    def test_zero_when_no_intensity(self):
        config = SimConfig()
        timeline = EventTimeline(shocks=(), baseline=0.0)
        model = ContagionModel(config, timeline, FollowGraph(), np.random.default_rng())
        assert model.hazard_given_fraction(agent(), TAKEOVER_DATE, 0.5) == 0.0

    def test_contagion_raises_hazard(self, model):
        base = model.hazard_given_fraction(agent(), TAKEOVER_DATE, 0.0)
        social = model.hazard_given_fraction(agent(), TAKEOVER_DATE, 0.5)
        assert social > base

    def test_contagion_weight_zero_ablation(self):
        """The ablation: with weight 0, the social term has no effect."""
        config = SimConfig(contagion_weight=0.0)
        model = ContagionModel(
            config, EventTimeline(), FollowGraph(), np.random.default_rng()
        )
        a = model.hazard_given_fraction(agent(), TAKEOVER_DATE, 0.0)
        b = model.hazard_given_fraction(agent(), TAKEOVER_DATE, 0.9)
        assert a == b

    def test_ideology_raises_hazard(self, model):
        low = model.hazard_given_fraction(agent(ideology=0.1), TAKEOVER_DATE, 0.0)
        high = model.hazard_given_fraction(agent(ideology=0.9), TAKEOVER_DATE, 0.0)
        assert high > low

    def test_pre_takeover_damped(self, model):
        before = model.hazard_given_fraction(
            agent(), TAKEOVER_DATE - dt.timedelta(days=10), 0.0
        )
        after = model.hazard_given_fraction(agent(), TAKEOVER_DATE, 0.0)
        assert before < after

    def test_hazard_capped(self):
        config = SimConfig(base_daily_hazard=10.0)
        model = ContagionModel(
            config, EventTimeline(), FollowGraph(), np.random.default_rng()
        )
        assert model.hazard_given_fraction(agent(), TAKEOVER_DATE, 1.0) <= 0.95

    def test_hazard_uses_graph_fraction(self, model):
        direct = model.hazard(agent(uid=1), TAKEOVER_DATE, migrated={2, 3})
        expected = model.hazard_given_fraction(agent(uid=1), TAKEOVER_DATE, 0.5)
        assert direct == expected


class TestDecide:
    def test_decide_is_bernoulli(self, model):
        decisions = [
            model.decide(agent(), TAKEOVER_DATE, set()) for _ in range(500)
        ]
        rate = np.mean(decisions)
        assert 0.0 < rate < 0.6  # peak-day hazard, but far from certain
