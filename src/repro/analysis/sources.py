"""RQ3: tweet sources and cross-posting (Section 6.1, Figures 12-13).

Figure 12 compares tweet counts per posting client before and after the
takeover: the two Mastodon bridges grow by 1128.95% (Crossposter) and
1732.26% (Moa).  Figure 13 tracks the number of distinct users of the
bridges per day, which rises after the takeover and falls in late November
when their elevated API access was revoked.  Overall 5.73% of migrants used
a bridge at least once.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.frames.tables import day_from_ordinal
from repro.twitter.clients import CROSSPOSTER_NAMES
from repro.util.clock import TAKEOVER_DATE
from repro.util.stats import percent


@dataclass(frozen=True)
class SourceRow:
    """One bar pair of Figure 12."""

    source: str
    before: int
    after: int

    @property
    def total(self) -> int:
        return self.before + self.after

    @property
    def growth_pct(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return 100.0 * (self.after - self.before) / self.before


@dataclass(frozen=True)
class SourcesResult:
    """Figure 12 plus the cross-poster adoption scalars."""

    rows: list[SourceRow]  # top-k by total volume
    crossposter_rows: list[SourceRow]
    pct_users_crossposting: float  # paper: 5.73%


def top_sources(
    dataset: MigrationDataset, k: int = 30, takeover: _dt.date = TAKEOVER_DATE
) -> SourcesResult:
    """Tweets per source before/after the takeover (Figure 12)."""
    if not dataset.twitter_timelines:
        raise AnalysisError("no Twitter timelines in dataset")
    fr = frames_of(dataset)
    return fr.result(
        ("top_sources", k, takeover), lambda: _top_sources_frames(fr, k, takeover)
    )


def _top_sources_frames(fr, k: int, takeover: _dt.date) -> SourcesResult:
    tweet_table = fr.tweet_table
    status_table = fr.status_table
    takeover_ord = takeover.toordinal()
    n_labels = len(tweet_table.labels)
    pre_mask = tweet_table.day_ordinals < takeover_ord
    pre_counts = np.bincount(
        tweet_table.label_ids[pre_mask], minlength=n_labels
    )
    post_counts = np.bincount(
        tweet_table.label_ids[~pre_mask], minlength=n_labels
    )
    before = {
        label: int(pre_counts[i])
        for i, label in enumerate(tweet_table.labels)
        if pre_counts[i]
    }
    after = {
        label: int(post_counts[i])
        for i, label in enumerate(tweet_table.labels)
        if post_counts[i]
    }
    crossposting_users: set[int] = set()
    cross_tweet_ids = {
        i for i, label in enumerate(tweet_table.labels)
        if label in CROSSPOSTER_NAMES
    }
    if cross_tweet_ids:
        mask = np.isin(tweet_table.label_ids, list(cross_tweet_ids))
        crossposting_users.update(int(u) for u in tweet_table.row_uids[mask])
    cross_status_ids = {
        i for i, label in enumerate(status_table.labels)
        if label in CROSSPOSTER_NAMES
    }
    if cross_status_ids:
        mask = np.isin(status_table.label_ids, list(cross_status_ids))
        crossposting_users.update(int(u) for u in status_table.row_uids[mask])
    return _build_sources(
        before, after, len(crossposting_users), len(fr.dataset.matched), k
    )


def _build_sources(
    before: dict[str, int],
    after: dict[str, int],
    crossposting_count: int,
    matched_count: int,
    k: int,
) -> SourcesResult:
    totals = {
        s: before.get(s, 0) + after.get(s, 0) for s in set(before) | set(after)
    }
    ranked = sorted(totals, key=lambda s: (-totals[s], s))[:k]
    rows = [
        SourceRow(source=s, before=before.get(s, 0), after=after.get(s, 0))
        for s in ranked
    ]
    cross_rows = [
        SourceRow(source=s, before=before.get(s, 0), after=after.get(s, 0))
        for s in sorted(CROSSPOSTER_NAMES)
    ]
    return SourcesResult(
        rows=rows,
        crossposter_rows=cross_rows,
        pct_users_crossposting=percent(
            crossposting_count, max(1, matched_count)
        ),
    )


@dataclass(frozen=True)
class CrossposterDailyResult:
    """Figure 13: distinct bridge users per day."""

    users_per_day: list[tuple[_dt.date, int]]
    peak_day: _dt.date
    peak_users: int


def crossposter_daily_users(dataset: MigrationDataset) -> CrossposterDailyResult:
    """Daily distinct users posting via a bridge, on either platform."""
    fr = frames_of(dataset)
    return fr.result(
        ("crossposter_daily_users",), lambda: _crossposter_daily_frames(fr)
    )


def _crossposter_daily_frames(fr) -> CrossposterDailyResult:
    chunks = []
    for table in (fr.tweet_table, fr.status_table):
        cross_ids = [
            i for i, label in enumerate(table.labels)
            if label in CROSSPOSTER_NAMES
        ]
        if not cross_ids or not table.label_ids.size:
            continue
        mask = np.isin(table.label_ids, cross_ids)
        if mask.any():
            chunks.append(
                np.stack(
                    [table.day_ordinals[mask], table.row_uids[mask]], axis=1
                )
            )
    if not chunks:
        raise AnalysisError("no cross-poster usage in dataset")
    # distinct (day, uid) pairs across both platforms, then users per day
    pairs = np.unique(np.concatenate(chunks, axis=0), axis=0)
    days, counts = np.unique(pairs[:, 0], return_counts=True)
    series = [
        (day_from_ordinal(int(d)), int(c)) for d, c in zip(days, counts)
    ]
    peak_day, peak_users = max(series, key=lambda kv: kv[1])
    return CrossposterDailyResult(
        users_per_day=series, peak_day=peak_day, peak_users=peak_users
    )
