"""Tests for repro.simulation.validation."""

import pytest

from repro.errors import SimulationError
from repro.simulation.validation import validate
from repro.simulation.world import World


class TestValidation:
    @pytest.fixture(scope="class")
    def report(self, small_world, small_dataset):
        return validate(small_world, small_dataset)

    def test_perfect_precision(self, report):
        """The identical-username rule makes tweet matches safe and bio
        matches are self-descriptions: no false positives."""
        assert report.precision == 100.0
        assert report.true_matches == report.matched

    def test_substantial_recall(self, report):
        assert 50.0 < report.recall < 100.0

    def test_account_accuracy(self, report):
        """Every match points at the migrant's actual first account."""
        assert report.account_accuracy == 100.0

    def test_bio_channel_beats_tweet_channel(self, report):
        """Bio announcements are matched unconditionally; tweet
        announcements require an identical username, so the bio channel
        recovers more of its users."""
        assert report.recall_bio_announcers > report.recall_tweet_announcers

    def test_missed_accounting_consistent(self, report):
        assert (
            report.missed_total
            == report.ground_truth_migrants - report.true_matches
        )
        assert (
            report.missed_different_username
            + report.missed_no_collectable_signal
            == report.missed_total
        )

    def test_name_mismatch_is_a_major_loss_channel(self, report):
        assert report.missed_different_username > 0

    def test_summary_renders(self, report):
        text = report.summary()
        assert "precision" in text and "recall" in text

    def test_empty_world_rejected(self, small_dataset):
        from repro.simulation.config import SimConfig

        empty = World(SimConfig(seed=1, scale=0.001))  # not simulated
        with pytest.raises(SimulationError):
            validate(empty, small_dataset)
