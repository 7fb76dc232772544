"""RQ3: cross-platform activity over time (Section 6.1, Figure 11).

Migrants keep using both accounts: Mastodon activity grows continuously
after the takeover while Twitter activity does not decrease in parallel.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from functools import cached_property

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of, ordinal_counts


@dataclass(frozen=True)
class DailyVolumeResult:
    """Figure 11: per-day post counts on each platform."""

    tweets_per_day: list[tuple[_dt.date, int]]
    statuses_per_day: list[tuple[_dt.date, int]]
    total_tweets: int
    total_statuses: int

    @cached_property
    def _tweet_index(self) -> dict[_dt.date, int]:
        return dict(self.tweets_per_day)

    @cached_property
    def _status_index(self) -> dict[_dt.date, int]:
        return dict(self.statuses_per_day)

    def tweets_on(self, day: _dt.date) -> int:
        return self._tweet_index.get(day, 0)

    def statuses_on(self, day: _dt.date) -> int:
        return self._status_index.get(day, 0)


def daily_volume(dataset: MigrationDataset) -> DailyVolumeResult:
    """Daily tweet/status volumes over the crawled timelines."""
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    fr = frames_of(dataset)
    return fr.result(("daily_volume",), lambda: _daily_volume_frames(fr))


def _daily_volume_frames(fr) -> DailyVolumeResult:
    tweet_table = fr.tweet_table
    status_table = fr.status_table
    return DailyVolumeResult(
        tweets_per_day=ordinal_counts(tweet_table.day_ordinals),
        statuses_per_day=ordinal_counts(status_table.day_ordinals),
        total_tweets=tweet_table.row_count,
        total_statuses=status_table.row_count,
    )


@dataclass(frozen=True)
class CollectedTweetVolumeResult:
    """Figure 2: daily volume of the migration-tweet corpus itself."""

    per_day: list[tuple[_dt.date, int]]
    total: int
    peak_day: _dt.date


def collected_tweet_volume(dataset: MigrationDataset) -> CollectedTweetVolumeResult:
    """The temporal distribution of the §3.1 corpus (Figure 2)."""
    if not dataset.collected_tweets:
        raise AnalysisError("no collected tweets in dataset")
    fr = frames_of(dataset)
    per_day = fr.result(
        ("collected_per_day",), lambda: ordinal_counts(fr.collected_day_ordinals)
    )
    peak = max(per_day, key=lambda kv: kv[1])[0]
    return CollectedTweetVolumeResult(
        per_day=per_day, total=len(dataset.collected_tweets), peak_day=peak
    )
