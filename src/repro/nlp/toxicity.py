"""A Perspective-API-like toxicity scorer.

Stand-in for Google Jigsaw's Perspective API (Section 6.3).  The scorer is a
pure function of the text: lexicon hits are accumulated with diminishing
returns and squashed into [0, 1].  Calibration: a typical post carrying two
strong lexicon tokens scores above the paper's 0.5 threshold, a post with a
single mild token stays below it, and clean text scores near 0.

``score_tokenized`` is the corpus fast path used by ``repro.frames``: the
lexicon is gathered once over the interned vocabulary and only texts with at
least one hit are revisited.  Its contract is exactness — every entry equals
``score(text)`` bit for bit, which pins two ordering details: unigram terms
accumulate left to right (a running Python sum, never ``np.sum``'s pairwise
reduction), and bigram terms replay in ``_TOXIC_BIGRAMS`` insertion order
*after* all unigrams, exactly as the scalar loop visits them.  The final
squash uses ``math.exp`` (``np.exp``'s SIMD kernels are not guaranteed
bit-identical to libm).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.nlp.vocabulary import TOXIC_LEXICON
from repro.util.text import tokenize, tokenize_corpus

#: Bigrams whose combination is more toxic than the parts.
_TOXIC_BIGRAMS: dict[tuple[str, str], float] = {
    ("shut", "up"): 0.45,
    ("go", "away"): 0.2,
}


class PerspectiveScorer:
    """Returns a TOXICITY attribute score in [0, 1] for any text."""

    def __init__(self, lexicon: dict[str, float] | None = None) -> None:
        self._lexicon = dict(TOXIC_LEXICON if lexicon is None else lexicon)

    def score(self, text: str) -> float:
        """The toxicity of ``text``.

        Accumulates lexicon weights with a square-root damping on repeated
        hits, then squashes with ``1 - exp(-x)`` scaled so that two strong
        tokens (weight ~0.55 each) cross 0.5.
        """
        tokens = tokenize(text)
        if not tokens:
            return 0.0
        raw = 0.0
        hits = 0
        for token in tokens:
            weight = self._lexicon.get(token, 0.0)
            if weight > 0.0:
                hits += 1
                raw += weight / math.sqrt(hits)
        # One pass over adjacent pairs; damping applies per occurrence in
        # lexicon order (the bigram table's insertion order), so occurrences
        # are replayed grouped by bigram rather than by position.
        pair_counts = Counter(zip(tokens, tokens[1:]))
        for pair, weight in _TOXIC_BIGRAMS.items():
            for _ in range(pair_counts.get(pair, 0)):
                hits += 1
                raw += weight / math.sqrt(hits)
        if hits == 0:
            return 0.0
        # length prior: a slur in a short post is more salient
        length_factor = 1.0 + 1.0 / math.sqrt(len(tokens))
        squashed = 1.0 - math.exp(-0.85 * raw * length_factor)
        return min(1.0, squashed)

    def is_toxic(self, text: str, threshold: float = 0.5) -> bool:
        """Thresholded judgement (the paper uses 0.5 following [5, 22, 17])."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        return self.score(text) > threshold

    def score_tokenized(
        self, flat: np.ndarray, offsets: np.ndarray, vocab: list[str]
    ) -> np.ndarray:
        """Scores for an interned corpus, bit-identical to per-text ``score``.

        ``flat[offsets[i]:offsets[i + 1]]`` are text ``i``'s token ids into
        ``vocab`` (see ``repro.frames.tables.TokenTable``).
        """
        n = len(offsets) - 1
        scores = np.zeros(n, dtype=np.float64)
        if n == 0 or flat.size == 0:
            return scores

        weight_table = np.asarray(
            [self._lexicon.get(token, 0.0) for token in vocab],
            dtype=np.float64,
        )
        token_weights = weight_table[flat]
        hit_positions = np.nonzero(token_weights > 0.0)[0]
        hit_text = np.searchsorted(offsets, hit_positions, side="right") - 1
        hit_counts = np.bincount(hit_text, minlength=n).astype(np.int64)
        hit_bounds = np.concatenate(([0], np.cumsum(hit_counts)))
        # damped unigram terms, globally: weight / sqrt(rank within text)
        ranks = (
            np.arange(1, len(hit_positions) + 1, dtype=np.int64)
            - hit_bounds[hit_text]
        )
        terms = (token_weights[hit_positions] / np.sqrt(ranks)).tolist()

        ids = {token: tid for tid, token in enumerate(vocab)}
        bigram_hits: list[tuple[float, np.ndarray]] = []
        if flat.size > 1:
            left, right = flat[:-1], flat[1:]
            # adjacency across a text boundary is not a pair
            interior = np.ones(flat.size - 1, dtype=bool)
            edges = offsets[1:-1] - 1
            interior[edges[(edges >= 0) & (edges < flat.size - 1)]] = False
            for (a, b), weight in _TOXIC_BIGRAMS.items():
                ia, ib = ids.get(a), ids.get(b)
                if ia is None or ib is None:
                    continue
                pos = np.nonzero((left == ia) & (right == ib) & interior)[0]
                if pos.size:
                    texts = np.searchsorted(offsets, pos, side="right") - 1
                    bigram_hits.append(
                        (weight, np.bincount(texts, minlength=n))
                    )

        affected = hit_counts > 0
        for _, counts in bigram_hits:
            affected |= counts > 0
        token_lens = np.diff(offsets)
        hit_starts = hit_bounds.tolist()
        for i in np.nonzero(affected)[0].tolist():
            raw = 0.0
            hits = 0
            for term in terms[hit_starts[i] : hit_starts[i + 1]]:
                raw += term
                hits += 1
            for weight, counts in bigram_hits:
                for _ in range(int(counts[i])):
                    hits += 1
                    raw += weight / math.sqrt(hits)
            length_factor = 1.0 + 1.0 / math.sqrt(int(token_lens[i]))
            squashed = 1.0 - math.exp(-0.85 * raw * length_factor)
            scores[i] = min(1.0, squashed)
        return scores

    def score_batch(self, texts: list[str]) -> list[float]:
        """Per-text scores; each equals ``score(text)`` bit for bit."""
        return self.score_tokenized(*tokenize_corpus(texts)).tolist()
