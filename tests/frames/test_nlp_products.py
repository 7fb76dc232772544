"""Every row of the frames' NLP products equals the scalar oracle on its text.

The token tables, embedding rows and toxicity vectors are built in one
corpus pass each; ``tokenize`` / ``encode`` / ``score`` on the row's own
text are the oracles.  The analyses' naive twins share the corpus
tokenizer, so the naive-versus-frames equivalence tests cannot catch a
tokenizer fault on their own: this test can.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.frames.core import DatasetFrames
from repro.nlp.embeddings import EmbeddingRows, HashingSentenceEncoder
from repro.nlp.toxicity import PerspectiveScorer
from repro.util.text import tokenize
from tests.conftest import assert_rows_identical

SIDES = ("tweet", "status")

#: Every cached product a frames instance exposes.
PRODUCTS = (
    "tweet_table",
    "status_table",
    "collected_day_ordinals",
    "timeline_offsets",
    "tweet_day_iso",
    "status_day_iso",
    "profile_table",
    "edge_table",
    "instance_populations",
    "weekly_aggregate",
    "tweet_tokens",
    "status_tokens",
    "tweet_toxicity",
    "status_toxicity",
    "tweet_embeddings",
    "status_embeddings",
)


@pytest.fixture(scope="module")
def frames(small_dataset) -> DatasetFrames:
    return DatasetFrames(small_dataset)


@pytest.mark.parametrize("side", SIDES)
def test_token_rows_equal_tokenize(frames, side):
    texts = getattr(frames, f"{side}_table").texts
    tokens = getattr(frames, f"{side}_tokens")
    assert tokens.text_count == len(texts) > 0
    vocab, flat, offsets = tokens.vocab, tokens.flat, tokens.offsets
    for i, text in enumerate(texts):
        row = [vocab[t] for t in flat[offsets[i] : offsets[i + 1]].tolist()]
        assert row == tokenize(text), text


def compact(matrix: np.ndarray) -> EmbeddingRows:
    """The compact rows of a dense embedding matrix (its nonzero cells)."""
    rows, cols = np.nonzero(matrix)
    indptr = np.zeros(len(matrix) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(matrix)), out=indptr[1:])
    return EmbeddingRows(
        data=matrix[rows, cols],
        cols=cols.astype(np.min_scalar_type(matrix.shape[1] - 1)),
        indptr=indptr,
        dim=matrix.shape[1],
    )


@pytest.mark.parametrize("side", SIDES)
def test_embedding_rows_equal_encode(frames, side):
    texts = getattr(frames, f"{side}_table").texts
    rows = getattr(frames, f"{side}_embeddings")
    encoder = HashingSentenceEncoder()
    oracle = np.stack([encoder.encode(text) for text in texts])
    assert_rows_identical(rows, compact(oracle))
    dense = rows.dense_range(0, rows.row_count)
    assert dense.tobytes() == oracle.tobytes()


def _arrays(value):
    """The numpy arrays held by a product, through tables and containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, list):
        for item in value:
            yield from _arrays(item)


def test_embedding_footprint(frames):
    """The two embedding products stay compact: <= 1/8 of dense float64."""
    for name in PRODUCTS:
        getattr(frames, name)
    stats = frames.build_stats()
    rows = sum(getattr(frames, f"{side}_embeddings").row_count for side in SIDES)
    dense_bytes = rows * HashingSentenceEncoder().dim * 8
    compact_bytes = stats["tweet_embeddings"] + stats["status_embeddings"]
    assert 0 < compact_bytes <= dense_bytes / 8
    # no product caches a dense float64 (rows, dim) matrix
    for name in PRODUCTS:
        for array in _arrays(getattr(frames, name)):
            assert not (array.ndim == 2 and array.dtype == np.float64), name


@pytest.mark.parametrize("side", SIDES)
def test_toxicity_rows_equal_score(frames, side):
    texts = getattr(frames, f"{side}_table").texts
    scores = getattr(frames, f"{side}_toxicity").tolist()
    scorer = PerspectiveScorer()
    assert scores == [scorer.score(text) for text in texts]
