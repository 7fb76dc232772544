"""A deterministic sentence encoder.

Stand-in for the Sentence-BERT embeddings the paper uses for its
content-similarity analysis (Section 6.1).  Texts are embedded by signed
feature hashing of their tokens with sublinear term weighting, then
L2-normalised, so cosine similarity behaves like a bag-of-words similarity:

- identical texts  -> cosine 1.0;
- texts sharing most tokens -> cosine close to 1;
- topically unrelated texts -> cosine near 0.

The paper thresholds cosine similarity at 0.7 for "similar" posts; the same
threshold separates shared-token rewrites from unrelated posts here.

``encode_tokenized`` is the batch fast path used by ``repro.frames`` (and
``encode_batch``, which tokenizes through
:func:`repro.util.text.tokenize_corpus` first): it hashes each distinct
token once and embeds a bounded block of texts per pass with no per-text
Python loop — a stable sort of ``(row, token)`` keys counts each token of
each text, and one ``np.add.at`` scatter accumulates the terms straight
into the output.  Its contract is exactness — every row equals
``encode(text)`` bit for bit, which requires replaying the scalar path's
accumulation order (terms are ordered by first occurrence, which is
``Counter``'s order within a text; ``add.at`` adds in input order, like the
scalar ``+=`` loop) and computing each row norm from its own 1-D dot
product (``np.linalg.norm(matrix, axis=1)`` is *not* bit-identical to the
per-row scalar norm).
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np

from repro.util.text import tokenize, tokenize_corpus

DEFAULT_DIM = 256

#: Texts per block of the batch path.  Bounds the transient per-token
#: arrays without affecting results: texts never share output rows.
_BATCH_CHUNK = 8192


class HashingSentenceEncoder:
    """Feature-hashing bag-of-words sentence embeddings."""

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < 8:
            raise ValueError(f"embedding dimension too small: {dim}")
        self.dim = dim

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = zlib.crc32(token.encode("utf-8"))
        index = digest % self.dim
        sign = 1.0 if (digest >> 16) & 1 else -1.0
        return index, sign

    def encode(self, text: str) -> np.ndarray:
        """The L2-normalised embedding of ``text`` (zero vector if empty)."""
        vec = np.zeros(self.dim, dtype=np.float64)
        counts = Counter(tokenize(text))
        for token, count in counts.items():
            index, sign = self._bucket(token)
            vec[index] += sign * (1.0 + np.log(count))
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def encode_tokenized(
        self, flat: np.ndarray, offsets: np.ndarray, vocab: list[str]
    ) -> np.ndarray:
        """Embeddings for an interned corpus, shape ``(len(offsets) - 1, dim)``.

        ``flat[offsets[i]:offsets[i + 1]]`` are text ``i``'s token ids into
        ``vocab`` (see ``repro.frames.tables.TokenTable``).  Row ``i`` is
        bit-identical to ``encode`` of the original text.
        """
        n = len(offsets) - 1
        dim = self.dim
        mat = np.zeros((n, dim), dtype=np.float64)
        if n == 0:
            return mat
        digests = np.fromiter(
            (zlib.crc32(token.encode("utf-8")) for token in vocab),
            np.int64,
            len(vocab),
        )
        bucket_index = digests % dim
        bucket_sign = np.where((digests >> 16) & 1, 1.0, -1.0)

        cells = mat.reshape(-1)
        width = len(vocab)
        lengths = np.diff(offsets)
        for lo in range(0, n, _BATCH_CHUNK):
            hi = min(lo + _BATCH_CHUNK, n)
            rows = np.repeat(
                np.arange(lo, hi, dtype=np.int64), lengths[lo:hi]
            )
            tokens = flat[offsets[lo] : offsets[hi]]
            # group equal (row, token) keys; the stable sort puts each
            # group's first occurrence first
            keys = (rows - lo) * width + tokens
            perm = np.argsort(keys, kind="stable")
            starts = np.flatnonzero(np.diff(keys[perm], prepend=-1))
            # each distinct token's count, at its first occurrence in its
            # row: taken in position order, these replay Counter's order
            # row by row — the order the scalar path adds terms, which
            # matters when three or more tokens of a text share a bucket
            count_at = np.zeros(keys.size, dtype=np.int64)
            count_at[perm[starts]] = np.diff(starts, append=keys.size)
            first = np.flatnonzero(count_at)
            tids = tokens[first]
            vals = bucket_sign[tids] * (1.0 + np.log(count_at[first]))
            # add.at adds each cell's terms in input order, like the
            # scalar += loop
            np.add.at(cells, rows[first] * dim + bucket_index[tids], vals)

        # Per-row 1-D dots: norm(matrix, axis=1) is not bit-identical.
        dots = np.fromiter((row.dot(row) for row in mat), np.float64, count=n)
        norms = np.sqrt(dots)
        mat /= np.where(norms > 0.0, norms, 1.0)[:, None]
        return mat

    def encode_batch(self, texts: list[str]) -> np.ndarray:
        """Row-stacked embeddings, shape ``(len(texts), dim)``.

        Tokenizes and interns once, then takes the batched path; each row is
        bit-identical to ``encode`` of the same text.
        """
        return self.encode_tokenized(*tokenize_corpus(texts))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is zero)."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def max_similarities(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """For each (already normalised) query row, its max cosine over the corpus.

    Used per-user: queries are the user's Mastodon statuses, the corpus their
    tweets; the result feeds the identical/similar thresholds of Figure 14.
    """
    if queries.size == 0:
        return np.zeros(0, dtype=np.float64)
    if corpus.size == 0:
        return np.zeros(queries.shape[0], dtype=np.float64)
    sims = queries @ corpus.T
    return np.asarray(sims.max(axis=1), dtype=np.float64)
