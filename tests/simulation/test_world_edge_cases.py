"""Edge cases of the world simulator."""

import datetime as dt

import numpy as np
import pytest

from repro.simulation.config import SimConfig
from repro.simulation.world import World, build_world


class TestScaleFloor:
    def test_minimum_viable_world(self):
        """Even an absurdly small scale produces a working world (the
        config clamps the population floor)."""
        world = build_world(SimConfig(seed=5, scale=1e-6))
        assert len(world.migrants) > 5
        assert world.network.instance_count >= 60

    def test_short_window(self):
        config = SimConfig(
            seed=5,
            scale=0.001,
            start=dt.date(2022, 10, 20),
            end=dt.date(2022, 11, 5),
        )
        world = World(config)
        world.simulate()
        assert world.migrants
        for agent in world.migrants:
            assert config.start <= agent.migration_day <= config.end


class TestUsernameCollisions:
    def test_mastodon_username_fallbacks(self):
        world = build_world(SimConfig(seed=9, scale=0.0005))
        agent = world.migrants[0]
        instance = world.network.get_instance(agent.first_instance)
        # exhaust the preferred name on a fresh candidate pointing at the
        # same instance: the generator must fall back, not crash
        other = world.migrants[1]
        name = world._mastodon_username(agent, agent.first_instance)
        assert name is None or not instance.has_account(name)

    def test_switch_target_username_suffixed_on_collision(self):
        """When the mover's username is taken on the target instance the
        switch registers a suffixed account instead of failing."""
        import datetime as dt_

        world = build_world(SimConfig(seed=9, scale=0.0005))
        agent = next(a for a in world.migrants if a.switch_day is None)
        target_domain = next(
            d
            for d in (s.domain for s in world.instance_specs)
            if d != agent.current_instance
        )
        target = world.network.get_instance(target_domain)
        if not target.has_account(agent.mastodon_username):
            target.register(
                agent.mastodon_username, when=dt_.datetime(2022, 11, 1)
            )
        world._switch(agent, target_domain, dt_.date(2022, 11, 20))
        assert agent.current_instance == target_domain
        assert agent.mastodon_username != (agent.first_username)
        assert target.has_account(agent.mastodon_username)


class TestConfigVariants:
    def test_no_lurkers(self):
        world = build_world(SimConfig(seed=5, scale=0.0005, lurker_fraction=0.0))
        assert not any(a.is_lurker for a in world.migrants)

    def test_no_crossposters(self):
        world = build_world(SimConfig(seed=5, scale=0.0005, crossposter_fraction=0.0))
        assert not any(a.crossposter for a in world.agents.values())

    def test_all_instances_moderated(self):
        world = build_world(SimConfig(seed=5, scale=0.0005, moderated_instance_fraction=1.0))
        # self-hosted instances spin up after setup and stay open (their
        # single user is the admin); every directory instance is moderated
        directory = {s.domain for s in world.instance_specs}
        assert all(
            not world.network.get_instance(d).policy.is_open for d in directory
        )

    def test_no_self_hosting(self):
        world = build_world(SimConfig(seed=5, scale=0.0005, self_host_probability=0.0))
        assert not any(a.self_hosted for a in world.migrants)
        directory = {s.domain for s in world.instance_specs}
        for agent in world.migrants:
            assert agent.first_instance in directory

    def test_zero_pre_takeover_accounts(self):
        world = build_world(SimConfig(seed=5, scale=0.0005, pre_takeover_account_fraction=0.0))
        assert not any(a.pre_takeover_account for a in world.migrants)


class TestDeterminismAcrossComponents:
    def test_tweet_ids_deterministic(self):
        w1 = build_world(SimConfig(seed=77, scale=0.0004))
        w2 = build_world(SimConfig(seed=77, scale=0.0004))
        assert w1.twitter_store.tweet_ids_sorted == w2.twitter_store.tweet_ids_sorted

    def test_weekly_activity_deterministic(self):
        def totals(world):
            return sorted(
                (i.domain, sum(r.statuses for r in i.weekly_activity()))
                for i in world.network.instances()
            )

        assert totals(build_world(SimConfig(seed=77, scale=0.0004))) == totals(
            build_world(SimConfig(seed=77, scale=0.0004))
        )
