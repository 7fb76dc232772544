"""RQ3: hashtag usage across platforms (Section 6.2, Figure 15).

The paper's Figure 15 shows the top 30 hashtags with their frequencies on
each platform: Twitter spans Entertainment/Celebrity/Politics tags, while
Mastodon is dominated by #fediverse and #TwitterMigration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of, tag_counts


@dataclass(frozen=True)
class HashtagRow:
    """One hashtag with per-platform frequencies."""

    hashtag: str  # canonical (lowercase) form
    twitter: int
    mastodon: int

    @property
    def total(self) -> int:
        return self.twitter + self.mastodon

    @property
    def dominant_platform(self) -> str:
        return "twitter" if self.twitter >= self.mastodon else "mastodon"


@dataclass(frozen=True)
class HashtagsResult:
    """Figure 15: the joint top-k hashtags."""

    rows: list[HashtagRow]
    distinct_twitter: int
    distinct_mastodon: int


def top_hashtags(dataset: MigrationDataset, k: int = 30) -> HashtagsResult:
    """Joint top-k hashtags by total frequency over both crawled corpora."""
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    fr = frames_of(dataset)
    twitter = fr.result(
        ("tag_counts", "twitter"), lambda: tag_counts(fr.tweet_table)
    )
    mastodon = fr.result(
        ("tag_counts", "mastodon"), lambda: tag_counts(fr.status_table)
    )
    totals = {
        tag: twitter.get(tag, 0) + mastodon.get(tag, 0)
        for tag in set(twitter) | set(mastodon)
    }
    ranked = sorted(totals, key=lambda t: (-totals[t], t))[:k]
    rows = [
        HashtagRow(hashtag=t, twitter=twitter.get(t, 0), mastodon=mastodon.get(t, 0))
        for t in ranked
    ]
    return HashtagsResult(
        rows=rows,
        distinct_twitter=len(twitter),
        distinct_mastodon=len(mastodon),
    )
