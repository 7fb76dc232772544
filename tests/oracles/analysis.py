"""Per-object reference implementations of the frames-backed analyses.

Each function is the loop over the dataset's ``Tweet``, ``Status`` and
record objects that its production counterpart in :mod:`repro.analysis`
(and Figure 3's ``run``) replaced with reads of the memoized columnar
frames (:mod:`repro.frames`).  Signatures match production, and the
result builders that never depended on the representation are imported
from production, so an equivalence test compares how the counts are
gathered.  Nothing here touches the frames.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Iterator

import networkx as nx
import numpy as np

from repro.analysis.activity import CollectedTweetVolumeResult, DailyVolumeResult
from repro.analysis.content import SIMILARITY_THRESHOLD
from repro.analysis.content import _build_result as _build_similarity
from repro.analysis.hashtags import HashtagRow, HashtagsResult
from repro.analysis.instance_stats import (
    DEFAULT_ANALYSIS_DATE,
    InstanceStatsResult,
    QuantileBucket,
    _bucket_edges,
    _bucket_index,
    _label,
)
from repro.analysis.moderation import ModerationResult
from repro.analysis.moderation import _build_result as _build_moderation
from repro.analysis.network_structure import (
    NetworkStructureResult,
    build_sample_graph,
    instance_cooccurrence_graph,
)
from repro.analysis.retention import RetentionResult, _classify
from repro.analysis.sources import (
    CrossposterDailyResult,
    SourcesResult,
    _build_sources,
)
from repro.analysis.switching import (
    SwitcherInfluenceResult,
    SwitchMatrixResult,
    _build_influence,
)
from repro.analysis.toxicity import TOXICITY_THRESHOLD, ToxicityResult
from repro.analysis.toxicity import _build_result as _build_toxicity
from repro.collection.dataset import MigrationDataset
from repro.collection.weekly_activity import aggregate_weeks
from repro.errors import AnalysisError
from repro.experiments.fig03_weekly_activity import EXP_ID, TAKEOVER_WEEK, TITLE
from repro.experiments.registry import ExperimentResult
from repro.nlp.embeddings import HashingSentenceEncoder, max_similarities
from repro.nlp.toxicity import PerspectiveScorer
from repro.twitter.clients import CROSSPOSTER_NAMES
from repro.util.clock import SIM_END, TAKEOVER_DATE
from repro.util.stats import Ecdf, percent
from repro.util.text import normalize_hashtag

# -- Figures 2 and 11 (repro.analysis.activity) ----------------------------------


def daily_volume(dataset: MigrationDataset) -> DailyVolumeResult:
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    tweet_days: dict[_dt.date, int] = {}
    status_days: dict[_dt.date, int] = {}
    total_tweets = 0
    total_statuses = 0
    for tweets in dataset.twitter_timelines.values():
        for tweet in tweets:
            tweet_days[tweet.created_date] = tweet_days.get(tweet.created_date, 0) + 1
            total_tweets += 1
    for statuses in dataset.mastodon_timelines.values():
        for status in statuses:
            status_days[status.created_date] = (
                status_days.get(status.created_date, 0) + 1
            )
            total_statuses += 1
    return DailyVolumeResult(
        tweets_per_day=sorted(tweet_days.items()),
        statuses_per_day=sorted(status_days.items()),
        total_tweets=total_tweets,
        total_statuses=total_statuses,
    )


def collected_tweet_volume(dataset: MigrationDataset) -> CollectedTweetVolumeResult:
    if not dataset.collected_tweets:
        raise AnalysisError("no collected tweets in dataset")
    days: dict[_dt.date, int] = {}
    for tweet in dataset.collected_tweets:
        days[tweet.created_date] = days.get(tweet.created_date, 0) + 1
    per_day = sorted(days.items())
    peak = max(per_day, key=lambda kv: kv[1])[0]
    return CollectedTweetVolumeResult(
        per_day=per_day, total=len(dataset.collected_tweets), peak_day=peak
    )


# -- Figure 3 (repro.experiments.fig03_weekly_activity) ---------------------------


def fig03_run(dataset: MigrationDataset) -> ExperimentResult:
    if not dataset.weekly_activity:
        raise AnalysisError("dataset has no weekly activity")
    weeks = aggregate_weeks(dataset.weekly_activity)
    window = [w for w in weeks if "2022-W39" <= w["week"] <= "2022-W48"]
    rows = [
        (w["week"], w["registrations"], w["logins"], w["statuses"]) for w in window
    ]
    pre = [w for w in window if w["week"] < TAKEOVER_WEEK]
    post = [w for w in window if w["week"] >= TAKEOVER_WEEK]

    def mean(rows_, key):
        if not rows_:
            return 0.0
        return sum(r[key] for r in rows_) / len(rows_)

    notes = {}
    for key in ("registrations", "logins", "statuses"):
        before = mean(pre, key)
        after = mean(post, key)
        notes[f"{key}_growth_x"] = after / before if before else float("inf")
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["week", "registrations", "logins", "statuses"],
        rows=rows,
        notes=notes,
    )


# -- Figure 6 (repro.analysis.instance_stats) -------------------------------------


def _cohort(
    dataset: MigrationDataset, takeover: _dt.date, crawl_date: _dt.date, min_age: int
) -> list[int]:
    cohort = []
    for uid in dataset.matched:
        join = dataset.mastodon_join_date(uid)
        if join is None:
            continue
        if join >= takeover and (crawl_date - join).days >= min_age:
            cohort.append(uid)
    return cohort


def instance_stats(
    dataset: MigrationDataset,
    buckets: int = 4,
    takeover: _dt.date = TAKEOVER_DATE,
    crawl_date: _dt.date = DEFAULT_ANALYSIS_DATE,
    min_account_age_days: int = 30,
) -> InstanceStatsResult:
    populations = dataset.instance_populations()
    if not populations:
        raise AnalysisError("no instances in dataset")
    sizes = np.array(sorted(populations.values()))
    histogram: dict[int, int] = {}
    for size in populations.values():
        histogram[size] = histogram.get(size, 0) + 1
    single_share = percent(histogram.get(1, 0), len(populations))

    cohort = _cohort(dataset, takeover, crawl_date, min_account_age_days)
    cohort_share = percent(len(cohort), max(1, len(dataset.matched)))

    edges = _bucket_edges(sizes, buckets)
    bucket_users: list[list[int]] = [[] for _ in edges]
    for uid in cohort:
        domain = dataset.matched[uid].mastodon_domain
        size = populations.get(domain, 0)
        bucket_users[_bucket_index(size, edges)].append(uid)

    built: list[QuantileBucket] = []
    for (lo, hi), uids in zip(edges, bucket_users):
        followers, followees, statuses = [], [], []
        for uid in uids:
            record = dataset.accounts.get(uid)
            if record is None:
                continue
            followers.append(record.followers)
            followees.append(record.following)
            statuses.append(record.statuses)
        n_instances = sum(
            1 for s in populations.values() if lo <= s and (hi is None or s <= hi)
        )
        built.append(
            QuantileBucket(
                label=_label(lo, hi),
                min_size=lo,
                max_size=hi,
                instance_count=n_instances,
                user_count=len(uids),
                followers_cdf=Ecdf.from_sample(followers) if followers else None,
                followees_cdf=Ecdf.from_sample(followees) if followees else None,
                statuses_cdf=Ecdf.from_sample(statuses) if statuses else None,
                mean_followers=float(np.mean(followers)) if followers else 0.0,
                mean_followees=float(np.mean(followees)) if followees else 0.0,
                mean_statuses=float(np.mean(statuses)) if statuses else 0.0,
            )
        )

    single = built[0] if built and built[0].max_size == 1 else None
    rest = [b for b in built[1:]] if single is not None else []

    def _uplift(attr: str) -> float:
        if single is None or not rest:
            return 0.0
        rest_users = sum(b.user_count for b in rest)
        if rest_users == 0 or getattr(single, attr) == 0:
            return 0.0
        rest_mean = (
            sum(getattr(b, attr) * b.user_count for b in rest) / rest_users
        )
        if rest_mean == 0:
            return 0.0
        return 100.0 * (getattr(single, attr) - rest_mean) / rest_mean

    return InstanceStatsResult(
        size_histogram=sorted(histogram.items()),
        single_user_instance_share=single_share,
        buckets=built,
        cohort_share=cohort_share,
        single_vs_rest_followers_pct=_uplift("mean_followers"),
        single_vs_rest_followees_pct=_uplift("mean_followees"),
        single_vs_rest_statuses_pct=_uplift("mean_statuses"),
    )


# -- Figures 9 and 10 (repro.analysis.switching) ----------------------------------


def switch_matrix(
    dataset: MigrationDataset, takeover: _dt.date = TAKEOVER_DATE
) -> SwitchMatrixResult:
    if not dataset.accounts:
        raise AnalysisError("no account records in dataset")
    matrix: dict[tuple[str, str], int] = {}
    post = 0
    switchers = dataset.switchers()
    for uid in switchers:
        record = dataset.accounts[uid]
        second = record.second_domain
        assert second is not None
        key = (record.first_domain, second)
        matrix[key] = matrix.get(key, 0) + 1
        if record.second_created_at is not None and record.second_created_at.date() >= takeover:
            post += 1
    sources: dict[str, int] = {}
    targets: dict[str, int] = {}
    for (src, dst), count in matrix.items():
        sources[src] = sources.get(src, 0) + count
        targets[dst] = targets.get(dst, 0) + count
    return SwitchMatrixResult(
        matrix=matrix,
        switcher_count=len(switchers),
        pct_switched=percent(len(switchers), len(dataset.accounts)),
        pct_post_takeover=percent(post, max(1, len(switchers))),
        top_sources=sorted(sources.items(), key=lambda kv: -kv[1])[:10],
        top_targets=sorted(targets.items(), key=lambda kv: -kv[1])[:10],
    )


def _followee_instance_and_date(
    dataset: MigrationDataset, followee_id: int, domain: str
) -> _dt.date | None:
    """When (if ever) ``followee_id`` joined ``domain``.

    The followee may be on that instance as their first choice or through a
    switch of their own; returns None when they were never there.
    """
    record = dataset.accounts.get(followee_id)
    if record is None:
        return None
    if record.first_domain == domain:
        return record.first_created_at.date()
    if record.second_domain == domain and record.second_created_at is not None:
        return record.second_created_at.date()
    return None


def switcher_influence(dataset: MigrationDataset) -> SwitcherInfluenceResult:
    frac_first, frac_second, frac_before = [], [], []
    for uid in dataset.switchers():
        record = dataset.accounts[uid]
        sample = dataset.followee_sample.get(uid)
        if sample is None or not sample.twitter_followees:
            continue
        second = record.second_domain
        assert second is not None
        switch_date = (
            record.second_created_at.date() if record.second_created_at else None
        )
        migrated = [f for f in sample.twitter_followees if f in dataset.matched]
        if not migrated:
            continue
        on_first, on_second, before = 0, 0, 0
        for followee in migrated:
            if _followee_instance_and_date(dataset, followee, record.first_domain):
                on_first += 1
            joined_second = _followee_instance_and_date(dataset, followee, second)
            if joined_second is not None:
                on_second += 1
                if switch_date is not None and joined_second < switch_date:
                    before += 1
        frac_first.append(on_first / len(migrated))
        frac_second.append(on_second / len(migrated))
        if on_second:
            frac_before.append(before / on_second)
    if not frac_first:
        raise AnalysisError("no switchers with followee data")
    return _build_influence(frac_first, frac_second, frac_before)


# -- Figures 12 and 13 (repro.analysis.sources) -----------------------------------


def top_sources(
    dataset: MigrationDataset, k: int = 30, takeover: _dt.date = TAKEOVER_DATE
) -> SourcesResult:
    if not dataset.twitter_timelines:
        raise AnalysisError("no Twitter timelines in dataset")
    before: dict[str, int] = {}
    after: dict[str, int] = {}
    crossposting_users: set[int] = set()
    for uid, tweets in dataset.twitter_timelines.items():
        for tweet in tweets:
            bucket = before if tweet.created_date < takeover else after
            bucket[tweet.source] = bucket.get(tweet.source, 0) + 1
            if tweet.source in CROSSPOSTER_NAMES:
                crossposting_users.add(uid)
    # Mastodon-side bridge use also counts as cross-posting adoption.
    for uid, statuses in dataset.mastodon_timelines.items():
        if any(s.application in CROSSPOSTER_NAMES for s in statuses):
            crossposting_users.add(uid)
    return _build_sources(
        before, after, len(crossposting_users), len(dataset.matched), k
    )


def crossposter_daily_users(dataset: MigrationDataset) -> CrossposterDailyResult:
    days: dict[_dt.date, set[int]] = {}
    for uid, tweets in dataset.twitter_timelines.items():
        for tweet in tweets:
            if tweet.source in CROSSPOSTER_NAMES:
                days.setdefault(tweet.created_date, set()).add(uid)
    for uid, statuses in dataset.mastodon_timelines.items():
        for status in statuses:
            if status.application in CROSSPOSTER_NAMES:
                days.setdefault(status.created_date, set()).add(uid)
    if not days:
        raise AnalysisError("no cross-poster usage in dataset")
    series = sorted((day, len(users)) for day, users in days.items())
    peak_day, peak_users = max(series, key=lambda kv: kv[1])
    return CrossposterDailyResult(
        users_per_day=series, peak_day=peak_day, peak_users=peak_users
    )


# -- Figure 14 (repro.analysis.content) -------------------------------------------


def content_similarity(
    dataset: MigrationDataset,
    threshold: float = SIMILARITY_THRESHOLD,
    encoder: HashingSentenceEncoder | None = None,
):
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    encoder = encoder if encoder is not None else HashingSentenceEncoder()
    identical_fracs: list[float] = []
    similar_fracs: list[float] = []
    all_different = 0
    for uid, statuses in dataset.mastodon_timelines.items():
        tweets = dataset.twitter_timelines.get(uid)
        if not tweets or not statuses:
            continue
        status_texts = [s.text for s in statuses if not s.is_boost]
        if not status_texts:
            continue
        tweet_texts = [t.text for t in tweets]
        tweet_set = set(tweet_texts)
        identical = sum(1 for text in status_texts if text in tweet_set)
        status_vecs = encoder.encode_batch(status_texts)
        tweet_vecs = encoder.encode_batch(tweet_texts)
        sims = max_similarities(status_vecs, tweet_vecs)
        similar = int(np.count_nonzero(sims > threshold))
        n = len(status_texts)
        identical_fracs.append(identical / n)
        similar_fracs.append(similar / n)
        if similar == 0 and identical == 0:
            all_different += 1
    if not identical_fracs:
        raise AnalysisError("no users with both timelines crawled")
    return _build_similarity(identical_fracs, similar_fracs, all_different)


# -- Figure 15 (repro.analysis.hashtags) ------------------------------------------


def top_hashtags(dataset: MigrationDataset, k: int = 30) -> HashtagsResult:
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    twitter: dict[str, int] = {}
    mastodon: dict[str, int] = {}
    for tweets in dataset.twitter_timelines.values():
        for tweet in tweets:
            for tag in tweet.hashtags:
                key = normalize_hashtag(tag)
                twitter[key] = twitter.get(key, 0) + 1
    for statuses in dataset.mastodon_timelines.values():
        for status in statuses:
            for tag in status.hashtags:
                key = normalize_hashtag(tag)
                mastodon[key] = mastodon.get(key, 0) + 1
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


# -- Figure 16 (repro.analysis.toxicity) ------------------------------------------


def toxicity_analysis(
    dataset: MigrationDataset,
    threshold: float = TOXICITY_THRESHOLD,
    scorer: PerspectiveScorer | None = None,
) -> ToxicityResult:
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    scorer = scorer if scorer is not None else PerspectiveScorer()
    tweet_fracs: list[float] = []
    status_fracs: list[float] = []
    toxic_tweets = total_tweets = 0
    toxic_statuses = total_statuses = 0
    toxic_on_twitter: set[int] = set()
    toxic_on_mastodon: set[int] = set()
    users_with_both: set[int] = set()
    for uid, tweets in dataset.twitter_timelines.items():
        if not tweets:
            continue
        toxic = sum(1 for t in tweets if scorer.score(t.text) > threshold)
        tweet_fracs.append(toxic / len(tweets))
        toxic_tweets += toxic
        total_tweets += len(tweets)
        if toxic:
            toxic_on_twitter.add(uid)
    for uid, statuses in dataset.mastodon_timelines.items():
        if not statuses:
            continue
        toxic = sum(1 for s in statuses if scorer.score(s.text) > threshold)
        status_fracs.append(toxic / len(statuses))
        toxic_statuses += toxic
        total_statuses += len(statuses)
        if toxic:
            toxic_on_mastodon.add(uid)
        if uid in dataset.twitter_timelines:
            users_with_both.add(uid)
    if not tweet_fracs and not status_fracs:
        raise AnalysisError("no timelines to score")
    return _build_toxicity(
        tweet_fracs, status_fracs, toxic_tweets, total_tweets,
        toxic_statuses, total_statuses,
        toxic_on_twitter, toxic_on_mastodon, users_with_both, threshold,
    )


# -- X1 (repro.analysis.retention) ------------------------------------------------


def retention(
    dataset: MigrationDataset,
    window_end: _dt.date = SIM_END,
    final_days: int = 7,
) -> RetentionResult:
    if final_days < 1:
        raise AnalysisError("final window must be at least one day")
    if not dataset.matched:
        raise AnalysisError("empty dataset")
    cutoff = window_end - _dt.timedelta(days=final_days - 1)
    return _classify(_activity(dataset, cutoff))


def _activity(
    dataset: MigrationDataset, cutoff: _dt.date
) -> Iterator[tuple[int, bool, bool]]:
    """Per classifiable migrant, in ``matched`` order: distinct Mastodon
    posting days, and whether they posted on Mastodon / Twitter on or after
    ``cutoff``."""
    for uid in dataset.matched:
        statuses = dataset.mastodon_timelines.get(uid)
        tweets = dataset.twitter_timelines.get(uid)
        if statuses is None and uid not in dataset.accounts:
            continue  # unreachable account: cannot classify
        status_days = {s.created_date for s in statuses or ()}
        tweet_days = {t.created_date for t in tweets or ()}
        yield (
            len(status_days),
            any(d >= cutoff for d in status_days),
            any(d >= cutoff for d in tweet_days),
        )


# -- X2 (repro.analysis.moderation) -----------------------------------------------


def moderation_load(
    dataset: MigrationDataset,
    threshold: float = 0.5,
    small_cutoff: int = 5,
    scorer: PerspectiveScorer | None = None,
) -> ModerationResult:
    if not dataset.mastodon_timelines:
        raise AnalysisError("no Mastodon timelines in dataset")
    scorer = scorer if scorer is not None else PerspectiveScorer()
    per_instance: dict[str, dict[str, int]] = {}
    for uid, statuses in dataset.mastodon_timelines.items():
        user = dataset.matched.get(uid)
        if user is None:
            continue
        for status in statuses:
            domain = status.account_acct.split("@", 1)[1]
            bucket = per_instance.setdefault(
                domain, {"users": 0, "statuses": 0, "toxic": 0}
            )
            bucket["statuses"] += 1
            if scorer.score(status.text) > threshold:
                bucket["toxic"] += 1
    return _build_moderation(dataset, per_instance, small_cutoff)


# -- X3 (repro.analysis.network_structure) ----------------------------------------


def network_structure(dataset: MigrationDataset) -> NetworkStructureResult:
    graph = build_sample_graph(dataset)
    migrated = {n for n, d in graph.nodes(data=True) if d["migrated"]}
    edges_into_migrants = sum(1 for __, v in graph.edges if v in migrated)
    total_edges = graph.number_of_edges()
    if total_edges == 0:
        raise AnalysisError("the sampled graph has no edges")
    baseline = percent(len(migrated), graph.number_of_nodes())

    sampled = set(dataset.followee_sample)
    inner_edges = [(u, v) for u, v in graph.edges if u in sampled and v in sampled]
    reciprocated = sum(1 for u, v in inner_edges if graph.has_edge(v, u))

    instance_graph = instance_cooccurrence_graph(dataset)

    sampled_subgraph = graph.subgraph(
        sampled | {v for u, v in graph.edges if u in sampled and v in migrated}
    )
    if sampled_subgraph.number_of_nodes():
        largest = max(
            (len(c) for c in nx.weakly_connected_components(sampled_subgraph)),
            default=0,
        )
        largest_pct = percent(largest, sampled_subgraph.number_of_nodes())
    else:
        largest_pct = 0.0

    return NetworkStructureResult(
        nodes=graph.number_of_nodes(),
        edges=total_edges,
        migrated_nodes=len(migrated),
        pct_edges_into_migrants=percent(edges_into_migrants, total_edges),
        pct_expected_at_random=baseline,
        reciprocity_pct=percent(reciprocated, len(inner_edges) or 1),
        instance_graph_nodes=instance_graph.number_of_nodes(),
        instance_graph_edges=instance_graph.number_of_edges(),
        largest_component_pct=largest_pct,
    )
