"""Retention analysis (the paper's stated future work, Section 8).

*"We would like to further investigate whether migrating users retain their
Mastodon accounts or return to Twitter."*  This extension classifies each
migrant by their end-of-window behaviour:

- **retained** — still posting on Mastodon in the final week;
- **dual** — posting on both platforms in the final week;
- **returned** — stopped posting on Mastodon (no status in the final week)
  while still tweeting;
- **lurking** — no posts anywhere in the final week, Mastodon account alive;
- **never engaged** — matched, but never posted a single status.

The classification uses only crawled timelines, so it runs on a collected
(or anonymised) dataset like every other analysis; on frames it reads the
timeline tables' day columns, never a post object.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.util.clock import SIM_END
from repro.util.stats import Ecdf, percent


@dataclass(frozen=True)
class RetentionResult:
    """End-of-window behaviour of migrants."""

    pct_retained: float  # active on Mastodon in the final week
    pct_dual: float  # active on both platforms in the final week
    pct_returned: float  # tweeting but silent on Mastodon
    pct_lurking: float  # silent on both
    pct_never_engaged: float  # no status ever
    days_active_cdf: Ecdf  # distinct Mastodon posting days per migrant
    user_count: int


def retention(
    dataset: MigrationDataset,
    window_end: _dt.date = SIM_END,
    final_days: int = 7,
) -> RetentionResult:
    """Classify migrants by their final-week behaviour."""
    if final_days < 1:
        raise AnalysisError("final window must be at least one day")
    if not dataset.matched:
        raise AnalysisError("empty dataset")
    cutoff = window_end - _dt.timedelta(days=final_days - 1)
    fr = frames_of(dataset)
    return fr.result(
        ("retention", window_end, final_days),
        lambda: _classify(_activity_frames(fr, cutoff)),
    )


_Activity = Iterator[tuple[int, bool, bool]]


def _activity_frames(fr, cutoff: _dt.date) -> _Activity:
    """Per classifiable migrant, in ``matched`` order: distinct Mastodon
    posting days, and whether they posted on Mastodon / Twitter on or after
    ``cutoff`` (an unreachable account with no timeline is skipped).  Read
    off the timeline tables' day columns."""
    dataset = fr.dataset
    last_day = cutoff.toordinal()
    status_table, tweet_table = fr.status_table, fr.tweet_table
    status_days, status_last = _days_per_owner(status_table)
    _, tweet_last = _days_per_owner(tweet_table)
    status_row = {uid: i for i, uid in enumerate(status_table.uids)}
    tweet_row = {uid: i for i, uid in enumerate(tweet_table.uids)}
    for uid in dataset.matched:
        s = status_row.get(uid)
        if s is None and uid not in dataset.accounts:
            continue
        t = tweet_row.get(uid)
        yield (
            0 if s is None else status_days[s],
            s is not None and status_last[s] >= last_day,
            t is not None and tweet_last[t] >= last_day,
        )


def _days_per_owner(table) -> tuple[list[int], list[int]]:
    """Per timeline owner: distinct posting days and the latest day
    ordinal (-1 for an empty timeline)."""
    owners = len(table.uids)
    days = table.day_ordinals
    if not days.size:
        return [0] * owners, [-1] * owners
    lo = int(days.min())
    span = int(days.max()) - lo + 1
    owner_of_row = np.repeat(np.arange(owners, dtype=np.int64), np.diff(table.bounds))
    # sorted by owner, then day: one key per (owner, distinct day)
    keys = np.unique(owner_of_row * span + (days - lo))
    distinct = np.bincount(keys // span, minlength=owners)
    last = np.full(owners, -1, dtype=np.int64)
    has = distinct > 0
    last[has] = keys[np.cumsum(distinct)[has] - 1] % span + lo
    return distinct.tolist(), last.tolist()


def _classify(activity: _Activity) -> RetentionResult:
    retained = dual = returned = lurking = never = 0
    days_active: list[int] = []
    for active_days, masto_final, twitter_final in activity:
        days_active.append(active_days)
        if not active_days:
            never += 1
        elif masto_final and twitter_final:
            dual += 1
            retained += 1
        elif masto_final:
            retained += 1
        elif twitter_final:
            returned += 1
        else:
            lurking += 1
    n = len(days_active)
    if n == 0:
        raise AnalysisError("no classifiable users")
    return RetentionResult(
        pct_retained=percent(retained, n),
        pct_dual=percent(dual, n),
        pct_returned=percent(returned, n),
        pct_lurking=percent(lurking, n),
        pct_never_engaged=percent(never, n),
        days_active_cdf=Ecdf.from_sample(days_active),
        user_count=n,
    )
