"""Per-instance moderation load (extension).

Section 6.3 closes on the moderation question: toxicity "might present
challenges for Mastodon, where volunteer administrators are responsible for
content moderation".  This extension quantifies that burden per instance:
for every instance hosting matched migrants, the volume and share of toxic
statuses its admins inherit, split by instance size — showing that even
small, volunteer-run instances receive a non-trivial moderation stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import Interner, frames_of
from repro.nlp.toxicity import PerspectiveScorer
from repro.util.stats import percent


@dataclass(frozen=True)
class InstanceModerationRow:
    """One instance's moderation load."""

    domain: str
    users: int  # matched migrants on the instance
    statuses: int
    toxic_statuses: int

    @property
    def toxic_share_pct(self) -> float:
        return percent(self.toxic_statuses, self.statuses)


@dataclass(frozen=True)
class ModerationResult:
    """Moderation load across instances."""

    rows: list[InstanceModerationRow]  # sorted by toxic volume, descending
    pct_instances_with_toxic_content: float
    small_instance_toxic_share_pct: float  # instances with <= small_cutoff users
    large_instance_toxic_share_pct: float
    small_cutoff: int


def moderation_load(
    dataset: MigrationDataset,
    threshold: float = 0.5,
    small_cutoff: int = 5,
    scorer: PerspectiveScorer | None = None,
) -> ModerationResult:
    """Toxic-status volume per instance (admin's-eye view).

    A custom ``scorer`` scores the shared status token table on every
    call: its vector is neither the cached default one nor cached.
    """
    if not dataset.mastodon_timelines:
        raise AnalysisError("no Mastodon timelines in dataset")
    fr = frames_of(dataset)
    if scorer is not None:
        tokens = fr.status_tokens
        return _moderation_frames(
            fr,
            threshold,
            small_cutoff,
            scorer.score_tokenized(tokens.flat, tokens.offsets, tokens.vocab),
        )
    return fr.result(
        ("moderation_load", threshold, small_cutoff),
        lambda: _moderation_frames(
            fr, threshold, small_cutoff, fr.status_toxicity
        ),
    )


def _moderation_frames(
    fr, threshold: float, small_cutoff: int, scores: np.ndarray
) -> ModerationResult:
    """Toxic-status counts per instance from the status table alone.

    Each row's instance is the domain of its interned posting account, and
    its toxicity an indexed read of ``scores`` (bit-identical to
    ``scorer.score`` per row); only the rows of matched users count.
    """
    dataset = fr.dataset
    table = fr.status_table
    owned = np.fromiter(
        (uid in dataset.matched for uid in table.uids), bool, len(table.uids)
    )
    rows = np.repeat(owned, np.diff(table.bounds))
    acct_ids = table.acct_ids[rows]
    toxic = scores[rows] > threshold
    domains = Interner()
    acct_domain = np.full(len(table.accts), -1, dtype=np.int64)
    for acct_id in np.unique(acct_ids).tolist():
        acct_domain[acct_id] = domains.intern(
            table.accts[acct_id].split("@", 1)[1]
        )
    row_domains = acct_domain[acct_ids]
    statuses = np.bincount(row_domains, minlength=len(domains))
    toxic_counts = np.bincount(row_domains[toxic], minlength=len(domains))
    per_instance = {
        domain: {
            "users": 0,
            "statuses": int(statuses[i]),
            "toxic": int(toxic_counts[i]),
        }
        for i, domain in enumerate(domains.vocab)
    }
    return _build_result(dataset, per_instance, small_cutoff)


def _build_result(
    dataset: MigrationDataset,
    per_instance: dict[str, dict[str, int]],
    small_cutoff: int,
) -> ModerationResult:
    populations = dataset.instance_populations()
    for domain, bucket in per_instance.items():
        bucket["users"] = populations.get(domain, 0)
    rows = sorted(
        (
            InstanceModerationRow(
                domain=domain,
                users=bucket["users"],
                statuses=bucket["statuses"],
                toxic_statuses=bucket["toxic"],
            )
            for domain, bucket in per_instance.items()
        ),
        key=lambda r: (-r.toxic_statuses, r.domain),
    )
    if not rows:
        raise AnalysisError("no statuses attributable to instances")
    with_toxic = sum(1 for r in rows if r.toxic_statuses > 0)
    small = [r for r in rows if r.users <= small_cutoff]
    large = [r for r in rows if r.users > small_cutoff]

    def share(group: list[InstanceModerationRow]) -> float:
        total = sum(r.statuses for r in group)
        toxic = sum(r.toxic_statuses for r in group)
        return percent(toxic, total)

    return ModerationResult(
        rows=rows,
        pct_instances_with_toxic_content=percent(with_toxic, len(rows)),
        small_instance_toxic_share_pct=share(small),
        large_instance_toxic_share_pct=share(large),
        small_cutoff=small_cutoff,
    )
