"""Tests for repro.simulation.population."""

import numpy as np
import pytest

from repro.simulation.config import SimConfig
from repro.simulation.population import (
    NAMED_INSTANCES,
    PopulationBuilder,
    SimUser,
    generate_instances,
    register_instances,
)
from repro.fediverse.network import FediverseNetwork
from repro.twitter.graph import FollowGraph
from repro.twitter.store import TwitterStore

CONFIG = SimConfig(seed=3, scale=0.001)


@pytest.fixture(scope="module")
def built():
    store = TwitterStore()
    graph = FollowGraph()
    builder = PopulationBuilder(CONFIG, np.random.default_rng(3))
    agents, candidates, hubs, chatter = builder.build(store, graph)
    return store, graph, agents, candidates, hubs, chatter


class TestInstances:
    def test_count_matches_config(self):
        specs = generate_instances(CONFIG, np.random.default_rng(0))
        assert len(specs) == CONFIG.n_directory_instances

    def test_named_flagships_lead(self):
        specs = generate_instances(CONFIG, np.random.default_rng(0))
        assert specs[0].domain == "mastodon.social"
        assert specs[0].flagship
        assert specs[0].weight > specs[10].weight > specs[-1].weight

    def test_unique_domains(self):
        specs = generate_instances(CONFIG, np.random.default_rng(0))
        domains = [s.domain for s in specs]
        assert len(domains) == len(set(domains))

    def test_all_created_before_takeover(self):
        import datetime as dt

        specs = generate_instances(CONFIG, np.random.default_rng(0))
        assert all(s.created_at < dt.date(2022, 10, 27) for s in specs)

    def test_register_instances(self):
        specs = generate_instances(CONFIG, np.random.default_rng(0))
        net = FediverseNetwork()
        register_instances(net, specs)
        assert net.instance_count == len(specs)
        assert net.get_instance("mastodon.social").topic == "general"

    def test_named_instance_table_sane(self):
        domains = [d for d, __, __ in NAMED_INSTANCES]
        assert len(domains) == len(set(domains))
        assert "mastodon.gamedev.place" in domains


class TestPopulation:
    def test_counts(self, built):
        store, __, agents, candidates, hubs, chatter = built
        assert len(candidates) == CONFIG.n_at_risk
        assert len(hubs) == CONFIG.n_hubs
        assert len(chatter) == CONFIG.n_chatter
        assert store.user_count == max(
            CONFIG.n_population,
            len(candidates) + len(hubs) + len(chatter),
        )

    def test_agents_cover_tracked_tiers(self, built):
        __, __, agents, candidates, hubs, chatter = built
        assert set(agents) == set(candidates) | set(hubs) | set(chatter)

    def test_usernames_unique(self, built):
        store, *_ = built
        names = [u.username for u in store.users()]
        assert len(names) == len(set(names))

    def test_only_candidates_have_followee_lists(self, built):
        __, graph, __, candidates, hubs, chatter = built
        assert all(graph.followee_count(uid) >= 0 for uid in candidates)
        assert all(graph.followee_count(uid) == 0 for uid in hubs)
        assert all(graph.followee_count(uid) == 0 for uid in chatter)

    def test_candidate_degrees_heavy_tailed(self, built):
        __, graph, __, candidates, *_ = built
        degrees = [graph.followee_count(uid) for uid in candidates]
        assert max(degrees) > 3 * np.median([d for d in degrees if d > 0])

    def test_some_candidates_have_no_candidate_followees(self, built):
        """The §5.2 statistic needs users none of whose followees migrate."""
        __, graph, agents, candidates, *_ = built
        candidate_set = set(candidates)
        isolates = sum(
            1
            for uid in candidates
            if not (graph.followees_of(uid) & candidate_set)
        )
        assert isolates > 0

    def test_profile_counts_consistent_with_graph(self, built):
        store, graph, agents, candidates, *_ = built
        for uid in candidates[:50]:
            assert store.get_user(uid).following_count == graph.followee_count(uid)

    def test_hubs_have_huge_follower_counts(self, built):
        store, __, __, candidates, hubs, __ = built
        hub_followers = np.median([store.get_user(h).followers_count for h in hubs])
        cand_followers = np.median(
            [store.get_user(c).followers_count for c in candidates]
        )
        assert hub_followers > 10 * cand_followers

    def test_verified_rate_near_config(self, built):
        store, __, __, candidates, *_ = built
        rate = np.mean([store.get_user(c).verified for c in candidates])
        assert 0.0 <= rate <= 0.12

    def test_account_age_median_near_paper(self, built):
        import datetime as dt

        store, __, __, candidates, *_ = built
        ages = [
            (dt.date(2022, 10, 1) - store.get_user(c).created_at.date()).days / 365.25
            for c in candidates
        ]
        assert 8.0 <= float(np.median(ages)) <= 15.0

    def test_agent_fields_within_ranges(self, built):
        __, __, agents, *_ = built
        for agent in list(agents.values())[:200]:
            assert 0 <= agent.ideology <= 1
            assert 0 <= agent.engagement <= 1
            assert agent.tweet_rate > 0
            assert 0 <= agent.toxicity_twitter <= 1
            assert 0 <= agent.toxicity_mastodon <= 1
            assert agent.announce_via in ("bio", "tweet")
            assert agent.announce_style in ("acct", "url")

    def test_lurkers_have_zero_status_rate(self, built):
        __, __, agents, *_ = built
        lurkers = [a for a in agents.values() if a.is_lurker]
        assert lurkers
        assert all(a.status_rate == 0.0 for a in lurkers)

    def test_some_crossposters_assigned(self, built):
        __, __, agents, __, __, __ = built
        tools = {a.crossposter for a in agents.values() if a.crossposter}
        assert tools <= {"Moa Bridge", "Mastodon Twitter Crossposter"}
        assert tools  # at least one assigned at this scale

    def test_deterministic(self):
        def build():
            builder = PopulationBuilder(CONFIG, np.random.default_rng(3))
            return builder.build(TwitterStore(), FollowGraph())

        agents1 = build()[0]
        agents2 = build()[0]
        assert list(agents1) == list(agents2)
        a1 = next(iter(agents1.values()))
        a2 = next(iter(agents2.values()))
        assert a1.username == a2.username
        assert a1.tweet_rate == a2.tweet_rate


class TestSimUser:
    def test_acct_properties(self):
        agent = SimUser(
            user_id=1, username="x", role="candidate",
            topic_mixture=np.ones(10) / 10, main_topic="tech", ideology=0.5,
            engagement=0.5, tweet_rate=1.0, status_rate=1.0,
            toxicity_twitter=0.0, toxicity_mastodon=0.0, is_lurker=False,
            mirror_rate=0.0, crossposter=None, announce_via="bio",
            announce_style="acct", same_username=True,
            preferred_source="Twitter Web App",
        )
        assert agent.mastodon_acct is None
        assert agent.first_acct is None
        agent.mastodon_username = "x"
        agent.first_username = "x"
        agent.current_instance = "a.social"
        agent.first_instance = "a.social"
        assert agent.mastodon_acct == "x@a.social"
        agent.mastodon_username = "x1"
        agent.current_instance = "b.town"
        assert agent.mastodon_acct == "x1@b.town"
        assert agent.first_acct == "x@a.social"
