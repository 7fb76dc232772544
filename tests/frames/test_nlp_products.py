"""Every row of the frames' NLP products equals the scalar oracle on its text.

The token tables, embedding matrices and toxicity vectors are built in one
corpus pass each; ``tokenize`` / ``encode`` / ``score`` on the row's own
text are the oracles.  The analyses' naive twins share the corpus
tokenizer, so the naive-versus-frames equivalence tests cannot catch a
tokenizer fault on their own: this test can.
"""

from __future__ import annotations

import pytest

from repro.frames.core import DatasetFrames
from repro.nlp.embeddings import HashingSentenceEncoder
from repro.nlp.toxicity import PerspectiveScorer
from repro.util.text import tokenize

SIDES = ("tweet", "status")


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


@pytest.mark.parametrize("side", SIDES)
def test_embedding_rows_equal_encode(frames, side):
    texts = getattr(frames, f"{side}_table").texts
    matrix = getattr(frames, f"{side}_embeddings")
    encoder = HashingSentenceEncoder()
    assert matrix.shape == (len(texts), encoder.dim)
    for row, text in zip(matrix, texts):
        assert row.tobytes() == encoder.encode(text).tobytes(), text


@pytest.mark.parametrize("side", SIDES)
def test_toxicity_rows_equal_score(frames, side):
    texts = getattr(frames, f"{side}_table").texts
    scores = getattr(frames, f"{side}_toxicity").tolist()
    scorer = PerspectiveScorer()
    assert scores == [scorer.score(text) for text in texts]
