"""Light text utilities shared by the NLP substrate and the collectors."""

from __future__ import annotations

import itertools
import re
from collections import defaultdict

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9']+")
_HASHTAG_RE = re.compile(r"#(\w+)")
_URL_RE = re.compile(r"https?://[^\s]+")

#: Texts per joined string in :func:`tokenize_corpus`.  Bounds the transient
#: block strings and word lists without affecting results.
_CORPUS_BLOCK = 2048

#: Joins a block's texts.  ``\x1c`` is whitespace to ``_URL_RE`` and a space
#: on each side of it is neither cased nor case-ignorable, so no URL and no
#: lowercasing context reaches across it; it is not a token byte, so it
#: survives the byte filter below as a word of its own marking a boundary.
_SENTINEL = "\x1c"
_JOIN = f" {_SENTINEL} "
_BOUNDARY = _SENTINEL.encode("ascii")

#: Keeps ``[a-z0-9']`` and the sentinel, turns every other byte into a space
#: (bytes of non-ASCII characters included, which ``_TOKEN_RE`` never
#: matches either).
_KEPT = "abcdefghijklmnopqrstuvwxyz0123456789'" + _SENTINEL
_TOKEN_BYTES = bytes(c if chr(c) in _KEPT else 0x20 for c in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, URLs stripped, hashtags kept as bare words."""
    cleaned = _URL_RE.sub(" ", text.lower())
    return _TOKEN_RE.findall(cleaned)


def tokenize_corpus(
    texts: list[str],
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Every text's tokens, interned: ``(flat, offsets, vocab)``.

    ``flat[offsets[i]:offsets[i + 1]]`` (int32, offsets int64) are the ids
    of ``tokenize(texts[i])`` in order and ``vocab[id]`` restores a token;
    ids are assigned in first-seen order over the corpus.  Equal by
    construction to interning per-text :func:`tokenize`: per block the texts
    are joined around the sentinel, then lowercased, URL-stripped, filtered
    to token bytes and split in one pass each.
    """
    # a missing word takes the next id as it is first looked up
    ids: defaultdict[bytes, int] = defaultdict(itertools.count().__next__)
    ids[_BOUNDARY] = -1
    flat_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    for lo in range(0, len(texts), _CORPUS_BLOCK):
        block = texts[lo : lo + _CORPUS_BLOCK]
        joined = _JOIN.join(block)
        if joined.count(_SENTINEL) >= len(block):
            # A text holds the sentinel itself.  It is whitespace to
            # tokenize() as a space is, so replacing it changes no token.
            joined = _JOIN.join(t.replace(_SENTINEL, " ") for t in block)
        cleaned = _URL_RE.sub(" ", joined.lower())
        raw = cleaned.encode("utf-8", "surrogatepass")
        words = raw.translate(_TOKEN_BYTES).split()
        block_ids = np.fromiter(
            map(ids.__getitem__, words), np.int32, len(words)
        )
        boundaries = np.flatnonzero(block_ids < 0)
        count_parts.append(
            np.diff(boundaries, prepend=-1, append=len(block_ids)) - 1
        )
        flat_parts.append(block_ids[block_ids >= 0])
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    if texts:
        np.cumsum(np.concatenate(count_parts), out=offsets[1:])
    flat = np.concatenate(flat_parts or [np.empty(0, dtype=np.int32)])
    del ids[_BOUNDARY]
    return flat, offsets, [word.decode("ascii") for word in ids]


def extract_hashtags(text: str) -> list[str]:
    """Hashtags appearing in ``text`` (without the ``#``), original case kept."""
    return _HASHTAG_RE.findall(text)


def extract_urls(text: str) -> list[str]:
    """All ``http(s)://`` URLs appearing in ``text``."""
    return _URL_RE.findall(text)


def normalize_hashtag(tag: str) -> str:
    """Canonical (lowercase) form used when counting hashtag frequencies."""
    return tag.lower()
