"""Tests for repro.analysis.retention."""

import datetime as dt

import pytest

from repro.analysis.retention import retention
from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_disabled
from repro.util.clock import SIM_END
from tests.conftest import make_status, make_tweet

FINAL = SIM_END - dt.timedelta(days=2)  # inside the final week
EARLY = dt.date(2022, 11, 2)  # outside it


@pytest.fixture
def dataset(tiny_dataset):
    tiny_dataset.mastodon_timelines = {
        1: [make_status(1, "alice@mastodon.social", FINAL, "still here")],
        2: [make_status(2, "bob@mastodon.social", EARLY, "tried it once")],
        3: [make_status(3, "carol@mastodon.social", EARLY, "gone quiet")],
    }
    tiny_dataset.twitter_timelines = {
        1: [make_tweet(10, 1, FINAL, "also tweeting")],
        2: [make_tweet(11, 2, FINAL, "back on the bird site")],
        4: [make_tweet(12, 4, EARLY, "old tweet")],
    }
    # user 4: never posted a status; user 5: silent everywhere
    return tiny_dataset


class TestRetention:
    def test_classification(self, dataset):
        result = retention(dataset)
        assert result.user_count == 5
        assert result.pct_retained == pytest.approx(20.0)  # alice
        assert result.pct_dual == pytest.approx(20.0)  # alice tweets too
        assert result.pct_returned == pytest.approx(20.0)  # bob
        assert result.pct_lurking == pytest.approx(20.0)  # carol
        assert result.pct_never_engaged == pytest.approx(40.0)  # dave, erin

    def test_shares_sum_to_hundred(self, dataset):
        result = retention(dataset)
        total = (
            result.pct_retained
            + result.pct_returned
            + result.pct_lurking
            + result.pct_never_engaged
        )
        assert total == pytest.approx(100.0)

    def test_dual_is_subset_of_retained(self, dataset):
        result = retention(dataset)
        assert result.pct_dual <= result.pct_retained

    def test_days_active_cdf(self, dataset):
        result = retention(dataset)
        assert result.days_active_cdf.evaluate(0) == pytest.approx(0.4)

    def test_final_window_validation(self, dataset):
        with pytest.raises(AnalysisError):
            retention(dataset, final_days=0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            retention(MigrationDataset())


class TestRetentionNaive(TestRetention):
    """The same hand-built edge cases on the naive path, which reads post
    objects where the default frames path reads timeline tables."""

    @pytest.fixture(autouse=True)
    def _naive(self):
        with frames_disabled():
            yield


class TestOnSimulatedData:
    def test_majority_retained(self, small_dataset):
        """Most migrants keep posting through the window end: the simulated
        wave does not churn out within a month (matching Fig. 11's
        continuously growing activity)."""
        result = retention(small_dataset)
        assert result.pct_retained > 40.0
        assert result.pct_never_engaged < 25.0

    def test_dual_use_dominates_retention(self, small_dataset):
        """The paper's point: users run both accounts, not either-or."""
        result = retention(small_dataset)
        assert result.pct_dual > 0.7 * result.pct_retained
