"""Threshold sensitivity analyses (robustness extension).

Two of the paper's analyses hinge on a threshold choice:

- content similarity uses cosine > 0.7 over sentence embeddings (§6.1);
- toxicity uses Perspective score > 0.5, noting 0.8 is also used (§6.3).

These sweeps re-run each analysis across the plausible threshold range so a
reader can see whether the findings are artefacts of the cut-off.  Both
return plain rows an experiment or notebook can print or plot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.content import content_similarity
from repro.analysis.toxicity import toxicity_analysis
from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.nlp.embeddings import HashingSentenceEncoder
from repro.nlp.toxicity import PerspectiveScorer

DEFAULT_SIMILARITY_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_TOXICITY_THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class SimilaritySweepRow:
    threshold: float
    mean_pct_similar: float
    pct_users_all_different: float


@dataclass(frozen=True)
class ToxicitySweepRow:
    threshold: float
    pct_tweets_toxic: float
    pct_statuses_toxic: float

    @property
    def twitter_excess(self) -> float:
        """Twitter-minus-Mastodon toxic share at this threshold."""
        return self.pct_tweets_toxic - self.pct_statuses_toxic


def similarity_sweep(
    dataset: MigrationDataset,
    thresholds: Sequence[float] = DEFAULT_SIMILARITY_THRESHOLDS,
    encoder: HashingSentenceEncoder | None = None,
) -> list[SimilaritySweepRow]:
    """Figure 14's statistics across similarity thresholds.

    Monotone by construction: a stricter threshold can only shrink the
    similar share and grow the all-different share.  ``encoder`` (default:
    the frames' cached embeddings) is passed to every threshold's run.
    """
    if not thresholds:
        raise AnalysisError("need at least one threshold")
    rows = []
    for threshold in sorted(thresholds):
        result = content_similarity(dataset, threshold=threshold, encoder=encoder)
        rows.append(
            SimilaritySweepRow(
                threshold=threshold,
                mean_pct_similar=result.mean_pct_similar,
                pct_users_all_different=result.pct_users_all_different,
            )
        )
    return rows


def toxicity_sweep(
    dataset: MigrationDataset,
    thresholds: Sequence[float] = DEFAULT_TOXICITY_THRESHOLDS,
    scorer: PerspectiveScorer | None = None,
) -> list[ToxicitySweepRow]:
    """Figure 16's platform comparison across toxicity thresholds.

    ``scorer`` (default: the frames' cached scores) is passed to every
    threshold's run.
    """
    if not thresholds:
        raise AnalysisError("need at least one threshold")
    rows = []
    for threshold in sorted(thresholds):
        result = toxicity_analysis(dataset, threshold=threshold, scorer=scorer)
        rows.append(
            ToxicitySweepRow(
                threshold=threshold,
                pct_tweets_toxic=result.pct_tweets_toxic,
                pct_statuses_toxic=result.pct_statuses_toxic,
            )
        )
    return rows


def ordering_robust(rows: Sequence[ToxicitySweepRow]) -> bool:
    """Whether Twitter > Mastodon toxicity holds at every swept threshold
    where either platform shows any toxic content at all."""
    informative = [
        r for r in rows if r.pct_tweets_toxic > 0 or r.pct_statuses_toxic > 0
    ]
    if not informative:
        return False
    return all(r.twitter_excess >= 0 for r in informative)
