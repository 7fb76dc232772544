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
:func:`repro.util.text.tokenize_corpus` first).  A text has a dozen or so
distinct tokens against 256 dimensions, so it returns compact
:class:`EmbeddingRows` (the nonzero cells of each row), not a dense matrix.
It hashes each distinct token once and embeds a bounded block of texts per
pass with no per-text Python loop, in one reused dense block buffer:

- a stable sort of ``(row, token)`` keys counts each token of each text,
  and one ``np.add.at`` scatter accumulates the terms into the block;
- one batched ``matmul`` of ``(1, dim) @ (dim, 1)`` row pairs gives the
  squared row norms;
- the nonzero cells are divided by their row norm and kept, and only they
  are reset to zero for the next block.

Its contract is exactness — every row, made dense, equals ``encode(text)``
bit for bit.  That requires replaying the scalar path's accumulation order
(terms are ordered by first occurrence, which is ``Counter``'s order within
a text; ``add.at`` adds in input order, like the scalar ``+=`` loop) and
computing each row norm with the scalar path's kernel: NumPy runs a
vector-by-vector ``matmul`` through the same 1-D ``dot`` that
``np.linalg.norm`` uses on a vector (``np.linalg.norm(matrix, axis=1)``
is *not* bit-identical).  Cells left out are exactly ``+0.0`` in the
scalar result: term values are never zero, a sum that cancels is ``+0.0``,
and ``0.0 / norm`` is ``+0.0``.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.util.text import row_positions, tokenize, tokenize_corpus

DEFAULT_DIM = 256

#: Texts per block of the batch path.  Bounds the dense block buffer and
#: the transient per-token arrays without affecting results: texts never
#: share output rows.
_BATCH_CHUNK = 8192


@dataclass(slots=True)
class EmbeddingRows:
    """L2-normalised embedding rows in compressed sparse row form.

    Row ``i``'s nonzero cells are ``data[indptr[i]:indptr[i + 1]]`` at
    columns ``cols[indptr[i]:indptr[i + 1]]`` (ascending); every other cell
    of the ``dim``-wide row is ``+0.0``.  ``cols`` is the smallest unsigned
    type that holds ``dim - 1``.
    """

    data: np.ndarray  # float64
    cols: np.ndarray  # uint8 up to dim 256
    indptr: np.ndarray  # int64, row_count + 1
    dim: int

    @property
    def row_count(self) -> int:
        return len(self.indptr) - 1

    def dense(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` (indices) as a dense C-contiguous matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        positions = row_positions(self.indptr, rows)
        return self._dense(
            self.indptr[rows + 1] - self.indptr[rows],
            self.data[positions],
            self.cols[positions],
        )

    def dense_range(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` as a dense C-contiguous matrix."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return self._dense(
            np.diff(self.indptr[start : stop + 1]),
            self.data[lo:hi],
            self.cols[lo:hi],
        )

    def _dense(
        self, lengths: np.ndarray, data: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        out = np.zeros((len(lengths), self.dim), dtype=np.float64)
        row_starts = np.arange(0, out.size, self.dim, dtype=np.int64)
        np.put(out, np.repeat(row_starts, lengths) + cols, data)
        return out


def _row_norms(block: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``block``, bit for bit.

    NumPy runs each ``(1, dim) @ (dim, 1)`` matmul through the 1-D ``dot``
    kernel that ``norm`` of a vector (``sqrt(row.dot(row))``) calls;
    ``np.linalg.norm(block, axis=1)`` sums in another order.
    """
    return np.sqrt(np.matmul(block[:, None, :], block[:, :, None]).reshape(-1))


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
    ) -> EmbeddingRows:
        """Embeddings for an interned corpus, one row per text.

        ``flat[offsets[i]:offsets[i + 1]]`` are text ``i``'s token ids into
        ``vocab`` (see ``repro.frames.tables.TokenTable``).  Row ``i``, made
        dense, is bit-identical to ``encode`` of the original text.
        """
        n = len(offsets) - 1
        dim = self.dim
        col_type = np.min_scalar_type(dim - 1)
        digests = np.fromiter(
            (zlib.crc32(token.encode("utf-8")) for token in vocab),
            np.int64,
            len(vocab),
        )
        bucket_index = digests % dim
        bucket_sign = np.where((digests >> 16) & 1, 1.0, -1.0)

        block = np.zeros((min(n, _BATCH_CHUNK), dim), dtype=np.float64)
        cells = block.reshape(-1)
        width = len(vocab)
        lengths = np.diff(offsets)
        row_nnz = np.zeros(n, dtype=np.int64)
        data_parts: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        col_parts: list[np.ndarray] = [np.empty(0, dtype=col_type)]
        for lo in range(0, n, _BATCH_CHUNK):
            hi = min(lo + _BATCH_CHUNK, n)
            rows = np.repeat(
                np.arange(hi - lo, dtype=np.int64), lengths[lo:hi]
            )
            tokens = flat[offsets[lo] : offsets[hi]]
            # group equal (row, token) keys; the stable sort puts each
            # group's first occurrence first
            keys = rows * width + tokens
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

            norms = _row_norms(block[: hi - lo])
            # every other cell is 0.0 / norm == +0.0 in the scalar result;
            # the kept cells are the only ones to reset for the next block
            nonzero = np.flatnonzero(cells[: (hi - lo) * dim] != 0.0)
            nz_rows = nonzero // dim
            data_parts.append(cells[nonzero] / norms[nz_rows])
            col_parts.append((nonzero - nz_rows * dim).astype(col_type))
            row_nnz[lo:hi] = np.bincount(nz_rows, minlength=hi - lo)
            cells[nonzero] = 0.0

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        return EmbeddingRows(
            data=np.concatenate(data_parts),
            cols=np.concatenate(col_parts),
            indptr=indptr,
            dim=dim,
        )

    def encode_batch(self, texts: list[str]) -> np.ndarray:
        """Row-stacked embeddings, shape ``(len(texts), dim)``.

        Tokenizes and interns once, then takes the batched path; each row is
        bit-identical to ``encode`` of the same text.
        """
        rows = self.encode_tokenized(*tokenize_corpus(texts))
        return rows.dense_range(0, rows.row_count)


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
