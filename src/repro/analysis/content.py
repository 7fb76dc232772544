"""RQ3: cross-platform content similarity (Section 6.1, Figure 14).

For each migrant with timelines on both platforms, every Mastodon status is
compared against every tweet:

- **identical**: the texts match exactly (cross-poster mirrors);
- **similar**: sentence-embedding cosine similarity above 0.7 (the paper's
  threshold, using Sentence-BERT; here the hashing encoder).

The paper finds on average 1.53% of a user's statuses identical and 16.57%
similar, with 84.45% of users posting completely different content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.nlp.embeddings import (
    EmbeddingRows,
    HashingSentenceEncoder,
    max_similarities,
)
from repro.util.stats import Ecdf, percent

SIMILARITY_THRESHOLD = 0.7


@dataclass(frozen=True)
class ContentSimilarityResult:
    """Figure 14: per-user identical/similar status fractions."""

    identical_fraction: Ecdf
    similar_fraction: Ecdf
    mean_pct_identical: float  # paper: 1.53%
    mean_pct_similar: float  # paper: 16.57%
    pct_users_all_different: float  # paper: 84.45%
    user_count: int


def content_similarity(
    dataset: MigrationDataset,
    threshold: float = SIMILARITY_THRESHOLD,
    encoder: HashingSentenceEncoder | None = None,
) -> ContentSimilarityResult:
    """The Figure 14 analysis over users crawled on both platforms.

    A custom ``encoder`` embeds the shared token tables on every call:
    its rows are neither the cached default ones nor cached.
    """
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    fr = frames_of(dataset)
    if encoder is not None:
        tweets, statuses = fr.tweet_tokens, fr.status_tokens
        return _content_similarity_frames(
            fr,
            threshold,
            encoder.encode_tokenized(tweets.flat, tweets.offsets, tweets.vocab),
            encoder.encode_tokenized(
                statuses.flat, statuses.offsets, statuses.vocab
            ),
        )
    return fr.result(
        ("content_similarity", threshold),
        lambda: _content_similarity_frames(
            fr, threshold, fr.tweet_embeddings, fr.status_embeddings
        ),
    )


def _content_similarity_frames(
    fr, threshold: float, tweet_emb: EmbeddingRows, status_emb: EmbeddingRows
) -> ContentSimilarityResult:
    """Compare each user's rows, made dense from the compact embeddings.

    Exactness notes: a user's tweet range and kept (non-boost) status rows
    become fresh C-contiguous matrices, laid out as the oracle's per-user
    ``encode_batch`` matrices are, so they matmul bit-identically to them;
    the rows themselves equal ``encode(text)`` by ``encode_tokenized``'s
    contract.
    """
    tweet_table = fr.tweet_table
    status_table = fr.status_table
    status_texts = status_table.texts
    not_boost = ~status_table.flags
    identical_fracs: list[float] = []
    similar_fracs: list[float] = []
    all_different = 0
    for uid, s_start, s_stop in status_table.iter_slices():
        t_range = tweet_table.slice_of(uid)
        if t_range is None or t_range[0] == t_range[1] or s_start == s_stop:
            continue
        keep = np.flatnonzero(not_boost[s_start:s_stop]) + s_start
        n = keep.size
        if not n:
            continue
        t_start, t_stop = t_range
        tweet_set = set(tweet_table.texts[t_start:t_stop])
        identical = sum(
            1 for row in keep.tolist() if status_texts[row] in tweet_set
        )
        status_vecs = status_emb.dense(keep)
        tweet_vecs = tweet_emb.dense_range(t_start, t_stop)
        sims = max_similarities(status_vecs, tweet_vecs)
        similar = int(np.count_nonzero(sims > threshold))
        identical_fracs.append(identical / n)
        similar_fracs.append(similar / n)
        if similar == 0 and identical == 0:
            all_different += 1
    if not identical_fracs:
        raise AnalysisError("no users with both timelines crawled")
    return _build_result(identical_fracs, similar_fracs, all_different)


def _build_result(
    identical_fracs: list[float], similar_fracs: list[float], all_different: int
) -> ContentSimilarityResult:
    return ContentSimilarityResult(
        identical_fraction=Ecdf.from_sample(identical_fracs),
        similar_fraction=Ecdf.from_sample(similar_fracs),
        mean_pct_identical=100.0 * float(np.mean(identical_fracs)),
        mean_pct_similar=100.0 * float(np.mean(similar_fracs)),
        pct_users_all_different=percent(all_different, len(identical_fracs)),
        user_count=len(identical_fracs),
    )
