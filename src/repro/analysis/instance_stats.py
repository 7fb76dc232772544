"""RQ1: instance size vs. user activity (Section 4, Figure 6).

The paradox's second half: larger instances hold more users, but users on
*smaller* instances are more active — on single-user instances the paper
finds +64.88% followers, +99.04% followees and +121.14% statuses versus
users of bigger instances.

Cohort, following the paper: migrants who joined after the takeover with an
account at least 30 days old at the crawl date (a fair-activity window; this
covered 50.59% of migrants).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.util.clock import SIM_END, TAKEOVER_DATE
from repro.util.stats import Ecdf, percent

#: When account ages were checked.  The paper crawled timelines up to
#: Nov 30 but ran its account-age filter at analysis time, somewhat later;
#: early December reproduces its 50.59% cohort share.
DEFAULT_ANALYSIS_DATE = SIM_END + _dt.timedelta(days=8)


@dataclass(frozen=True)
class QuantileBucket:
    """One instance-size bucket of Figure 6b-d."""

    label: str
    min_size: int
    max_size: int | None  # None = unbounded
    instance_count: int
    user_count: int
    followers_cdf: Ecdf | None
    followees_cdf: Ecdf | None
    statuses_cdf: Ecdf | None
    mean_followers: float
    mean_followees: float
    mean_statuses: float


@dataclass(frozen=True)
class InstanceStatsResult:
    """Figure 6 plus the single-user-instance comparison."""

    size_histogram: list[tuple[int, int]]  # (instance size, #instances)
    single_user_instance_share: float  # % of instances with exactly 1 user
    buckets: list[QuantileBucket]
    cohort_share: float  # % of migrants inside the fair-comparison cohort
    single_vs_rest_followers_pct: float  # e.g. +64.88%
    single_vs_rest_followees_pct: float
    single_vs_rest_statuses_pct: float


def _cohort_frames(
    fr, takeover: _dt.date, crawl_date: _dt.date, min_age: int
) -> list[int]:
    """Matched migrants who joined on or after ``takeover`` with an account
    at least ``min_age`` days old at ``crawl_date`` (profile columns)."""
    table = fr.profile_table
    takeover_ord = takeover.toordinal()
    crawl_ord = crawl_date.toordinal()
    joins = table.join_ordinals
    return [
        uid
        for row, uid in enumerate(table.matched_uids)
        if joins[row] != -1
        and joins[row] >= takeover_ord
        and crawl_ord - joins[row] >= min_age
    ]


def instance_stats(
    dataset: MigrationDataset,
    buckets: int = 4,
    takeover: _dt.date = TAKEOVER_DATE,
    crawl_date: _dt.date = DEFAULT_ANALYSIS_DATE,
    min_account_age_days: int = 30,
) -> InstanceStatsResult:
    """The full Figure 6 analysis."""
    fr = frames_of(dataset)
    return fr.result(
        ("instance_stats", buckets, takeover, crawl_date, min_account_age_days),
        lambda: _instance_stats_frames(
            fr, buckets, takeover, crawl_date, min_account_age_days
        ),
    )


def _instance_stats_frames(
    fr,
    buckets: int,
    takeover: _dt.date,
    crawl_date: _dt.date,
    min_account_age_days: int,
) -> InstanceStatsResult:
    dataset = fr.dataset
    populations = fr.instance_populations
    if not populations:
        raise AnalysisError("no instances in dataset")
    sizes = np.array(sorted(populations.values()))
    histogram: dict[int, int] = {}
    for size in populations.values():
        histogram[size] = histogram.get(size, 0) + 1
    single_share = percent(histogram.get(1, 0), len(populations))

    cohort = _cohort_frames(fr, takeover, crawl_date, min_account_age_days)
    cohort_share = percent(len(cohort), max(1, len(dataset.matched)))

    table = fr.profile_table
    edges = _bucket_edges(sizes, buckets)
    bucket_users: list[list[int]] = [[] for _ in edges]
    for uid in cohort:
        domain = table.domains[table.matched_domain_ids[table.matched_row[uid]]]
        size = populations.get(domain, 0)
        bucket_users[_bucket_index(size, edges)].append(uid)

    built: list[QuantileBucket] = []
    for (lo, hi), uids in zip(edges, bucket_users):
        followers, followees, statuses = [], [], []
        for uid in uids:
            row = table.matched_row[uid]
            if not table.has_account[row]:
                continue
            followers.append(int(table.followers[row]))
            followees.append(int(table.following[row]))
            statuses.append(int(table.statuses[row]))
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


def _bucket_edges(sizes: np.ndarray, buckets: int) -> list[tuple[int, int | None]]:
    """Size ranges: single-user instances first, then quantiles of the rest."""
    multi = sizes[sizes > 1]
    edges: list[tuple[int, int | None]] = [(1, 1)]
    if multi.size == 0:
        return edges
    qs = np.quantile(multi, np.linspace(0, 1, buckets)[1:-1]) if buckets > 2 else []
    cuts = sorted({int(np.ceil(q)) for q in qs})
    lo = 2
    for cut in cuts:
        if cut >= lo:
            edges.append((lo, cut))
            lo = cut + 1
    edges.append((lo, None))
    return edges


def _bucket_index(size: int, edges: list[tuple[int, int | None]]) -> int:
    for i, (lo, hi) in enumerate(edges):
        if size >= lo and (hi is None or size <= hi):
            return i
    return len(edges) - 1


def _label(lo: int, hi: int | None) -> str:
    if hi == lo:
        return f"{lo} user" if lo == 1 else f"{lo} users"
    if hi is None:
        return f">={lo} users"
    return f"{lo}-{hi} users"
