"""The batched NLP fast paths must be *bit-exact* twins of the scalar ones.

``tokenize_corpus`` / ``encode_tokenized`` / ``score_batch`` back the
memoized frames products, and the frames contract (DESIGN.md §5) promises
byte-identical analysis output — so these tests assert exact equality (ids,
offsets, floats — through int64 views where a signed zero could hide), not
approx.  The scalar ``tokenize`` / ``encode`` / ``score`` are the oracles.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import embeddings
from repro.nlp.embeddings import HashingSentenceEncoder, _row_norms
from repro.nlp.toxicity import PerspectiveScorer
from repro.util import text as text_module
from repro.util.text import tokenize, tokenize_corpus

# texts that exercise the tricky corners: bigram ordering against the
# unigram ranks, repeated bigrams, hash-bucket collisions, empty strings
TRICKY = [
    "",
    "   ",
    "go away you fool shut up",
    "shut up shut up go away",
    "you are a moron and a loser honestly just leave",
    "shut up fool shut up fool shut up",
    "lovely painting of a quiet meadow",
    "ratio ratio ratio ratio ratio",
    "RT @someone migrating to mastodon.social today #twittermigration",
    "idiot",
]

_words = st.sampled_from(
    "shut up go away fool idiot moron loser ratio the a and toot "
    "mastodon twitter bird site migration instance server".split()
)
_texts = st.lists(_words, max_size=12).map(" ".join)


class TestScoreBatch:
    def test_tricky_corpus_exact(self):
        scorer = PerspectiveScorer()
        assert scorer.score_batch(TRICKY) == [scorer.score(t) for t in TRICKY]

    def test_empty_corpus(self):
        assert PerspectiveScorer().score_batch([]) == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_texts, max_size=8))
    def test_random_corpora_exact(self, texts):
        scorer = PerspectiveScorer()
        assert scorer.score_batch(texts) == [scorer.score(t) for t in texts]


class TestEncodeBatch:
    def test_tricky_corpus_exact(self):
        encoder = HashingSentenceEncoder()
        mat = encoder.encode_batch(TRICKY)
        assert mat.shape == (len(TRICKY), encoder.dim)
        for row, text in zip(mat, TRICKY):
            assert row.tolist() == encoder.encode(text).tolist()

    def test_empty_corpus(self):
        encoder = HashingSentenceEncoder()
        assert encoder.encode_batch([]).shape == (0, encoder.dim)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_texts, max_size=8))
    def test_random_corpora_exact(self, texts):
        encoder = HashingSentenceEncoder()
        mat = encoder.encode_batch(texts)
        for row, text in zip(mat, texts):
            assert row.tolist() == encoder.encode(text).tolist()


# Fragments that attack the corpus tokenizer's one pass over joined texts:
# URLs at either end of a text (a URL must not run on into the next text),
# the join sentinel inside a text, uppercase, non-ASCII characters that
# lowercase to ASCII (Kelvin sign -> "k", dotted capital I -> "i" + U+0307),
# Greek capital sigma (whose lowercase depends on its neighbours), a lone
# surrogate, apostrophes, hashtags, whitespace and punctuation.
_HOSTILE = st.sampled_from(
    [
        "https://a.b", "http://x.y/z?q=1", "http://", "https:", "see",
        "x", "Shut", "UP", "go", "away", "moron", "idiot", "fool",
        "\x1c", " \x1c ", "\x1c\x1c", "\u212a", "\u0130stanbul", "\u0130",
        "\u03a3", "\u0391\u03a3", "\u00e9", "\U0001f9a3", "\ud800", "'",
        "don't", "#Tags", "#", "!!", "...", " ", "  ", "\t", "\n", "\x1d",
        "",
    ]
)
_hostile_texts = st.lists(_HOSTILE, max_size=8).map("".join)
_hostile_corpora = st.lists(_hostile_texts, max_size=12)
_blocks = st.integers(min_value=1, max_value=4)


def interned_tokenize(texts: list[str]):
    """The oracle: per-text ``tokenize``, interned in first-seen order."""
    ids: dict[str, int] = {}
    flat: list[int] = []
    offsets = [0]
    for text in texts:
        flat.extend(ids.setdefault(tok, len(ids)) for tok in tokenize(text))
        offsets.append(len(flat))
    return flat, offsets, list(ids)


@contextmanager
def block_sizes(block: int, chunk: int):
    """Shrink the tokenizer's and the encoder's blocks below a corpus."""
    with mock.patch.object(text_module, "_CORPUS_BLOCK", block):
        with mock.patch.object(embeddings, "_BATCH_CHUNK", chunk):
            yield


class TestTokenizeCorpus:
    @staticmethod
    def check(texts: list[str]) -> None:
        flat, offsets, vocab = tokenize_corpus(texts)
        want_flat, want_offsets, want_vocab = interned_tokenize(texts)
        assert flat.dtype == np.int32 and offsets.dtype == np.int64
        assert flat.tolist() == want_flat
        assert offsets.tolist() == want_offsets
        assert vocab == want_vocab

    def test_url_ending_a_text_stops_at_the_next_text(self):
        self.check(["see https://a.b", "x", "http://y.z", "tail http://"])

    def test_sentinel_inside_texts(self):
        self.check(["a\x1cb", "\x1c", " \x1c ", "https://u.v\x1cw", "c"])

    def test_lowercasing_to_ascii_and_sigma(self):
        self.check(["\u212aELVIN", "\u0130stanbul", "\u0391\u03a3 x", "\u03a3"])

    def test_empty_and_punctuation_only(self):
        self.check([])
        self.check([""])
        self.check(["", "...", "!!", "", "#"])

    @settings(max_examples=200, deadline=None)
    @given(_hostile_corpora, _blocks)
    def test_equals_interned_tokenize(self, texts, block):
        with mock.patch.object(text_module, "_CORPUS_BLOCK", block):
            self.check(texts)


class TestHostileBatches:
    @settings(max_examples=100, deadline=None)
    @given(_hostile_corpora, _blocks, _blocks)
    def test_encode_batch_rows_equal_encode(self, texts, block, chunk):
        encoder = HashingSentenceEncoder()
        with block_sizes(block, chunk):
            mat = encoder.encode_batch(texts)
        assert mat.shape == (len(texts), encoder.dim)
        for row, text in zip(mat, texts):
            assert row.tobytes() == encoder.encode(text).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_hostile_corpora, _blocks)
    def test_score_batch_equals_score(self, texts, block):
        scorer = PerspectiveScorer()
        with mock.patch.object(text_module, "_CORPUS_BLOCK", block):
            scores = scorer.score_batch(texts)
        assert scores == [scorer.score(t) for t in texts]

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_bucket_collisions_replay_first_occurrence_order(self, chunk):
        # dim 8 puts many tokens of one text in one bucket, where float
        # addition order shows.  The first text interns the words in
        # reverse, so token-id order differs from first-occurrence order;
        # the others repeat each word 1..6 times in passes over the list,
        # so a term placed at a later occurrence lands out of order.
        words = [f"w{i}" for i in range(40)]
        passes = [
            [w for i, w in enumerate(words) if p < 1 + i % 6] for p in range(6)
        ]
        texts = [
            " ".join(reversed(words)),
            " ".join(w for one in passes for w in one),
            " ".join(w for one in reversed(passes) for w in one),
            "",
        ] * 3
        encoder = HashingSentenceEncoder(dim=8)
        with block_sizes(1, chunk):
            mat = encoder.encode_batch(texts)
        for row, text in zip(mat, texts):
            assert row.tobytes() == encoder.encode(text).tobytes()


def cancelling_pair(dim: int) -> tuple[str, str]:
    """Two words hashed to one bucket with opposite signs at ``dim``."""
    encoder = HashingSentenceEncoder(dim)
    seen: dict[tuple[int, float], str] = {}
    for i in range(10_000):
        word = f"c{i}"
        index, sign = encoder._bucket(word)
        if (index, -sign) in seen:
            return seen[index, -sign], word
        seen.setdefault((index, sign), word)
    raise AssertionError(f"no cancelling pair at dim {dim}")


DIMS = (8, 256, 300)
CANCELLING = {dim: cancelling_pair(dim) for dim in DIMS}


def _compact_corpora(dim: int):
    # 30 words over 8 buckets put 3+ tokens of a text in one bucket; the
    # cancelling pair, repeated equally often, sums a cell to exactly 0.0
    a, b = CANCELLING[dim]
    fragments = st.sampled_from(
        [f"w{i}" for i in range(30)]
        + [a, b, f"{a} {b}", f"{a} {a} {b} {b}", "", "...", "!!", " "]
    )
    texts = st.lists(fragments, max_size=20).map(" ".join)
    return st.lists(texts, max_size=12)


class TestEmbeddingRows:
    @staticmethod
    def check(texts: list[str], dim: int, chunk: int) -> None:
        encoder = HashingSentenceEncoder(dim)
        with mock.patch.object(embeddings, "_BATCH_CHUNK", chunk):
            rows = encoder.encode_tokenized(*tokenize_corpus(texts))
        want = np.zeros((len(texts), dim))
        for i, text in enumerate(texts):
            want[i] = encoder.encode(text)
        dense = rows.dense_range(0, rows.row_count)
        assert dense.flags.c_contiguous and dense.shape == want.shape
        assert np.array_equal(dense.view(np.int64), want.view(np.int64))
        # compact: only nonzero cells, at ascending columns in each row
        assert rows.cols.dtype == np.min_scalar_type(dim - 1)
        assert rows.indptr.dtype == np.int64 and rows.indptr[0] == 0
        assert np.all(rows.data != 0.0)
        for i in range(rows.row_count):
            cols = rows.cols[rows.indptr[i] : rows.indptr[i + 1]]
            assert np.all(np.diff(cols.astype(np.int64)) > 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(DIMS).flatmap(
            lambda dim: st.tuples(st.just(dim), _compact_corpora(dim))
        ),
        _blocks,
    )
    def test_dense_rows_equal_encode(self, dim_texts, chunk):
        dim, texts = dim_texts
        self.check(texts, dim, chunk)

    @pytest.mark.parametrize("dim", DIMS)
    def test_cancelled_cells_and_rows(self, dim):
        a, b = CANCELLING[dim]
        texts = [f"{a} {b}", f"{a} {a} {b} {b} w1", f"{a} {b} {a}", "", "!!"]
        encoder = HashingSentenceEncoder(dim)
        assert not encoder.encode(texts[0]).any()  # the whole row cancels
        for chunk in (1, 2, 64):
            self.check(texts, dim, chunk)

    def test_dense_picks_rows(self):
        encoder = HashingSentenceEncoder()
        rows = encoder.encode_tokenized(*tokenize_corpus(TRICKY))
        picked = [8, 0, 2, 2, 5]
        dense = rows.dense(np.asarray(picked))
        assert dense.flags.c_contiguous
        full = rows.dense_range(0, rows.row_count)
        assert dense.tobytes() == full[picked].tobytes()
        assert rows.dense([]).shape == (0, encoder.dim)
        assert rows.dense_range(3, 7).tobytes() == full[3:7].tobytes()


class TestRowNorms:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1, 3, 8, 17, 33, 256, 300]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_norms_equal_per_row_dot(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((n, dim)) * rng.choice(
            [1e-3, 1.0, 1e5], size=(n, dim)
        )
        block[rng.random((n, dim)) < 0.8] = 0.0
        want = np.array([np.sqrt(row.dot(row)) for row in block])
        got = _row_norms(block)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(
            got.view(np.int64),
            np.array([np.linalg.norm(row) for row in block]).view(np.int64),
        )
