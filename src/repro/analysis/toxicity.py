"""RQ3: toxicity across platforms (Section 6.3, Figure 16).

Every crawled post is scored with the Perspective-like TOXICITY scorer and
thresholded at 0.5 (the literature's common choice).  The paper finds 5.49%
of tweets vs 2.80% of statuses toxic, per-user means of 4.02% vs 2.07%, and
14.26% of migrants posting at least one toxic item on *both* platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.nlp.toxicity import PerspectiveScorer
from repro.util.stats import Ecdf, percent

TOXICITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class ToxicityResult:
    """Figure 16 plus the Section 6.3 scalars."""

    twitter_toxic_fraction: Ecdf  # per-user fraction of toxic tweets
    mastodon_toxic_fraction: Ecdf
    pct_tweets_toxic: float  # paper: 5.49%
    pct_statuses_toxic: float  # paper: 2.80%
    mean_user_pct_tweets_toxic: float  # paper: 4.02%
    mean_user_pct_statuses_toxic: float  # paper: 2.07%
    pct_users_toxic_on_both: float  # paper: 14.26%
    threshold: float


def toxicity_analysis(
    dataset: MigrationDataset,
    threshold: float = TOXICITY_THRESHOLD,
    scorer: PerspectiveScorer | None = None,
) -> ToxicityResult:
    """The Figure 16 analysis over all crawled posts.

    A custom ``scorer`` scores the shared token tables on every call: its
    vectors are neither the cached default ones nor cached.
    """
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    fr = frames_of(dataset)
    if scorer is not None:
        tweets, statuses = fr.tweet_tokens, fr.status_tokens
        return _toxicity_frames(
            fr,
            threshold,
            scorer.score_tokenized(tweets.flat, tweets.offsets, tweets.vocab),
            scorer.score_tokenized(
                statuses.flat, statuses.offsets, statuses.vocab
            ),
        )
    return fr.result(
        ("toxicity_analysis", threshold),
        lambda: _toxicity_frames(
            fr, threshold, fr.tweet_toxicity, fr.status_toxicity
        ),
    )


def _toxicity_frames(
    fr, threshold: float, tweet_scores: np.ndarray, status_scores: np.ndarray
) -> ToxicityResult:
    dataset = fr.dataset
    tweet_fracs: list[float] = []
    status_fracs: list[float] = []
    toxic_tweets = total_tweets = 0
    toxic_statuses = total_statuses = 0
    toxic_on_twitter: set[int] = set()
    toxic_on_mastodon: set[int] = set()
    users_with_both: set[int] = set()
    for uid, start, stop in fr.tweet_table.iter_slices():
        if start == stop:
            continue
        toxic = int(np.count_nonzero(tweet_scores[start:stop] > threshold))
        tweet_fracs.append(toxic / (stop - start))
        toxic_tweets += toxic
        total_tweets += stop - start
        if toxic:
            toxic_on_twitter.add(uid)
    for uid, start, stop in fr.status_table.iter_slices():
        if start == stop:
            continue
        toxic = int(np.count_nonzero(status_scores[start:stop] > threshold))
        status_fracs.append(toxic / (stop - start))
        toxic_statuses += toxic
        total_statuses += stop - start
        if toxic:
            toxic_on_mastodon.add(uid)
        if uid in dataset.twitter_timelines:
            users_with_both.add(uid)
    if not tweet_fracs and not status_fracs:
        raise AnalysisError("no timelines to score")
    return _build_result(
        tweet_fracs, status_fracs, toxic_tweets, total_tweets,
        toxic_statuses, total_statuses,
        toxic_on_twitter, toxic_on_mastodon, users_with_both, threshold,
    )


def _build_result(
    tweet_fracs, status_fracs, toxic_tweets, total_tweets,
    toxic_statuses, total_statuses,
    toxic_on_twitter, toxic_on_mastodon, users_with_both, threshold,
) -> ToxicityResult:
    both_toxic = toxic_on_twitter & toxic_on_mastodon
    return ToxicityResult(
        twitter_toxic_fraction=Ecdf.from_sample(tweet_fracs or [0.0]),
        mastodon_toxic_fraction=Ecdf.from_sample(status_fracs or [0.0]),
        pct_tweets_toxic=percent(toxic_tweets, total_tweets),
        pct_statuses_toxic=percent(toxic_statuses, total_statuses),
        mean_user_pct_tweets_toxic=(
            100.0 * float(np.mean(tweet_fracs)) if tweet_fracs else 0.0
        ),
        mean_user_pct_statuses_toxic=(
            100.0 * float(np.mean(status_fracs)) if status_fracs else 0.0
        ),
        pct_users_toxic_on_both=percent(len(both_toxic), max(1, len(users_with_both))),
        threshold=threshold,
    )
