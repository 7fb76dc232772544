"""Tests for repro.simulation.config."""

import datetime as dt

import pytest

from repro.errors import ConfigError
from repro.simulation.config import PAPER_MIGRANTS, SimConfig


class TestDefaults:
    def test_defaults_validate(self):
        SimConfig().validate()

    def test_target_migrants_scales(self):
        assert SimConfig(scale=1.0).target_migrants == PAPER_MIGRANTS
        assert SimConfig(scale=0.01).target_migrants == round(PAPER_MIGRANTS * 0.01)

    def test_target_migrants_floor(self):
        assert SimConfig(scale=1e-9).target_migrants == 40

    def test_population_hierarchy(self):
        config = SimConfig(scale=0.01)
        assert config.n_population > config.n_at_risk > 0
        assert config.n_hubs >= 10
        assert config.n_chatter > 0

    def test_directory_scaling_sublinear(self):
        small = SimConfig(scale=0.01).n_directory_instances
        large = SimConfig(scale=0.04).n_directory_instances
        assert small < large < 4 * small

    def test_directory_minimum(self):
        assert SimConfig(scale=0.0001).n_directory_instances >= 60

    def test_choice_weights_form_distribution(self):
        config = SimConfig()
        total = (
            config.choice_social_weight
            + config.choice_flagship_weight
            + config.choice_topic_weight
            + config.choice_random_weight
        )
        assert total == pytest.approx(1.0)
        assert config.choice_random_weight >= 0


class TestValidation:
    def test_scale_positive(self):
        with pytest.raises(ConfigError):
            SimConfig(scale=0).validate()

    def test_window_order(self):
        with pytest.raises(ConfigError):
            SimConfig(
                start=dt.date(2022, 11, 30), end=dt.date(2022, 10, 1)
            ).validate()

    def test_choice_weights_capped(self):
        with pytest.raises(ConfigError):
            SimConfig(choice_social_weight=0.9, choice_flagship_weight=0.9).validate()

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SimConfig(lurker_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            SimConfig(verified_fraction=-0.1).validate()

    def test_degree_bounds(self):
        with pytest.raises(ConfigError):
            SimConfig(twitter_median_followees=0).validate()

    def test_rates_non_negative(self):
        with pytest.raises(ConfigError):
            SimConfig(tweet_rate_mean=-1).validate()

    def test_frozen(self):
        config = SimConfig()
        with pytest.raises(AttributeError):
            config.scale = 0.5  # type: ignore[misc]
