"""Tests for repro.simulation.switching."""

from collections import Counter

import numpy as np
import pytest

from repro.simulation.config import SimConfig
from repro.simulation.switching import SwitchModel
from tests.simulation.test_contagion import agent

FLAGSHIPS = frozenset({"mastodon.social", "mastodon.online"})


def model(config: SimConfig | None = None, seed: int = 4) -> SwitchModel:
    return SwitchModel(
        config or SimConfig(), FLAGSHIPS, np.random.default_rng(seed)
    )


def migrated_agent(instance: str = "mastodon.social"):
    a = agent()
    a.migrated = True
    a.current_instance = instance
    a.first_instance = instance
    return a


class TestBestOtherInstance:
    def test_empty_counter(self):
        target, frac = model().best_other_instance(migrated_agent(), Counter())
        assert target is None and frac == 0.0

    def test_excludes_current_instance(self):
        counts = Counter({"mastodon.social": 10})
        target, frac = model().best_other_instance(migrated_agent(), counts)
        assert target is None and frac == 0.0

    def test_picks_mode_of_others(self):
        counts = Counter({"mastodon.social": 4, "art.school": 5, "tiny.host": 1})
        target, frac = model().best_other_instance(migrated_agent(), counts)
        assert target == "art.school"
        assert frac == pytest.approx(0.5)


class TestProposeSwitch:
    def test_one_switch_per_user(self):
        import datetime as dt

        a = migrated_agent()
        a.switch_day = dt.date(2022, 11, 10)
        counts = Counter({"art.school": 100})
        assert model().propose_switch(a, counts) is None

    def test_requires_target_stronger_than_current(self):
        a = migrated_agent()
        counts = Counter({"mastodon.social": 10, "art.school": 3})
        for _ in range(200):
            assert model().propose_switch(a, counts) is None

    def test_high_concentration_eventually_switches(self):
        config = SimConfig(switch_daily_scale=0.05)
        switch_model = model(config)
        a = migrated_agent()
        counts = Counter({"art.school": 20, "mastodon.social": 1})
        proposals = [switch_model.propose_switch(a, counts) for _ in range(300)]
        accepted = [p for p in proposals if p is not None]
        assert accepted
        assert set(accepted) == {"art.school"}

    def test_social_pull_ablation_flattens_rate(self):
        """With switch_social_pull=0 concentration stops mattering."""
        # both cases pass the stronger-than-current gate; only the
        # concentration fraction differs
        low_conc = Counter({"art.school": 12, "other.place": 9, "x.site": 9,
                            "mastodon.social": 10})
        high_conc = Counter({"art.school": 90, "mastodon.social": 10})
        config = SimConfig(switch_daily_scale=0.02, switch_social_pull=0.0)

        def rate(counts):
            switch_model = model(config, seed=9)
            a = migrated_agent()
            return np.mean(
                [switch_model.propose_switch(a, counts) is not None for _ in range(2000)]
            )

        assert abs(rate(high_conc) - rate(low_conc)) < 0.02

    def test_flagship_users_switch_more(self):
        config = SimConfig(switch_daily_scale=0.05)
        counts = Counter({"art.school": 30, "mastodon.social": 1})

        def rate(instance):
            switch_model = model(config, seed=11)
            a = migrated_agent(instance)
            return np.mean(
                [switch_model.propose_switch(a, counts) is not None for _ in range(1500)]
            )

        assert rate("mastodon.social") > rate("quiet.corner")

    def test_switching_onto_flagships_damped(self):
        config = SimConfig(switch_daily_scale=0.05)
        toward_flagship = Counter({"mastodon.online": 30, "quiet.corner": 1})
        toward_topical = Counter({"art.school": 30, "quiet.corner": 1})

        def rate(counts):
            switch_model = model(config, seed=13)
            a = migrated_agent("quiet.corner")
            return np.mean(
                [switch_model.propose_switch(a, counts) is not None for _ in range(2000)]
            )

        assert rate(toward_topical) > rate(toward_flagship)
