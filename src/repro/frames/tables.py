"""Columnar tables over a :class:`MigrationDataset`.

Each table flattens one nested-object corner of the dataset into numpy
columns plus small Python-side vocabularies (string interning).  Builders
preserve **iteration order** exactly: per-user post rows appear in the
order the per-object loops visit them (dict insertion order, list order
within a timeline), so any frames-backed analysis that walks a table
reproduces its per-object oracle's accumulation order bit for bit.

A dataset reloaded from ``.npz`` keeps its timelines as archive columns
(:class:`~repro.collection.binfmt.ColumnTimelines`); its timeline tables
are read off those columns, equal field for field to the object walk's,
without building a post.  In-memory datasets take the object walk.

Token tables come from one corpus tokenizer,
:func:`repro.util.text.tokenize_corpus`, equal by construction to per-text
``tokenize`` interned in first-seen order; an incremental rebase runs it
over the fresh rows only.

Tables carry data only — no analysis logic.  The derived products
(per-day volume vectors, embedding rows, toxicity score vectors) live
on :class:`repro.frames.core.DatasetFrames`, which builds each table at
most once per dataset.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from repro.collection.binfmt import ColumnTimelines, PostColumns
from repro.util.text import normalize_hashtag, row_positions, tokenize_corpus


class Interner:
    """Dense string ids, first-seen order.  ``vocab[id]`` restores the string."""

    __slots__ = ("vocab", "_ids")

    def __init__(self) -> None:
        self.vocab: list[str] = []
        self._ids: dict[str, int] = {}

    @classmethod
    def from_vocab(cls, vocab: list[str]) -> "Interner":
        """An interner pre-seeded with an existing vocabulary (ids stable)."""
        interner = cls()
        interner.vocab = list(vocab)
        interner._ids = {value: i for i, value in enumerate(interner.vocab)}
        return interner

    def intern(self, value: str) -> int:
        ids = self._ids
        found = ids.get(value)
        if found is not None:
            return found
        new = len(self.vocab)
        ids[value] = new
        self.vocab.append(value)
        return new

    def get(self, value: str) -> int | None:
        """The id of ``value`` if already interned, else None."""
        return self._ids.get(value)

    def __len__(self) -> int:
        return len(self.vocab)


@dataclass(slots=True)
class TimelineTable:
    """One platform's crawled timelines, flattened to post-level columns.

    ``uids`` lists timeline owners in dataset dict order; the posts of
    ``uids[i]`` occupy rows ``bounds[i]:bounds[i + 1]`` and appear in
    timeline order.  ``label_ids`` interns the posting client (tweet
    ``source`` / status ``application``); ``flags`` holds ``is_retweet``
    / ``is_boost``.  Hashtag occurrences are a postings list — one
    ``(tag_rows[j], tag_ids[j])`` pair per occurrence, duplicates kept,
    exactly as per-post loops count them.  Status tables also
    intern each row's posting account (``account_acct``) in ``acct_ids``;
    tweet tables leave both acct fields None.
    """

    uids: list[int]
    bounds: np.ndarray  # int64, len(uids) + 1
    day_ordinals: np.ndarray  # int64 per post
    row_uids: np.ndarray  # int64 per post: owner uid
    label_ids: np.ndarray  # int32 per post
    labels: list[str]
    flags: np.ndarray  # bool per post
    texts: list[str]
    tag_rows: np.ndarray  # int64 per hashtag occurrence
    tag_ids: np.ndarray  # int32 per hashtag occurrence
    tags: list[str]
    acct_ids: np.ndarray | None = None  # int32 per post (statuses)
    accts: list[str] | None = None
    _slices: dict[int, tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self._slices = {
            uid: (int(self.bounds[i]), int(self.bounds[i + 1]))
            for i, uid in enumerate(self.uids)
        }

    @property
    def row_count(self) -> int:
        return int(self.bounds[-1]) if len(self.bounds) else 0

    def slice_of(self, uid: int) -> tuple[int, int] | None:
        """Row range of ``uid``'s timeline, or None if it was not crawled."""
        return self._slices.get(uid)

    @property
    def slices(self) -> dict[int, tuple[int, int]]:
        """``uid -> (start, stop)`` row ranges (per-account CSR offsets)."""
        return self._slices

    def iter_slices(self):
        """``(uid, start, stop)`` in dataset dict order (empty ones included)."""
        bounds = self.bounds
        for i, uid in enumerate(self.uids):
            yield uid, int(bounds[i]), int(bounds[i + 1])


def build_timeline_table(
    timelines: dict[int, list],
    label_attr: str,
    flag_attr: str,
    acct_attr: str | None = None,
) -> TimelineTable:
    """Flatten ``{uid: [posts]}`` into a :class:`TimelineTable`.

    Works for both platforms: posts only need ``created_date``,
    ``hashtags``, ``text`` and the named label/flag attributes, plus
    ``acct_attr`` when given (statuses pass ``"account_acct"``).
    Timelines still backed by a saved archive's columns
    (:class:`~repro.collection.binfmt.ColumnTimelines`) are flattened
    from those columns, building no post; the result is the same table.
    The named attributes must then be the ones the archive stores
    (:attr:`~repro.collection.binfmt.PostColumns.attrs`), else ValueError.
    """
    if isinstance(timelines, ColumnTimelines):
        columns = timelines.columns
        if columns is not None:
            return _table_from_columns(
                timelines, columns, (label_attr, flag_attr, acct_attr)
            )
    uids: list[int] = []
    bounds = [0]
    days: list[int] = []
    row_uids: list[int] = []
    label_ids: list[int] = []
    flags: list[bool] = []
    texts: list[str] = []
    tag_rows: list[int] = []
    tag_ids: list[int] = []
    acct_ids: list[int] = []
    labels = Interner()
    tags = Interner()
    accts = Interner()
    row = 0
    for uid, posts in timelines.items():
        uids.append(uid)
        for post in posts:
            days.append(post.created_date.toordinal())
            row_uids.append(uid)
            label_ids.append(labels.intern(getattr(post, label_attr)))
            flags.append(getattr(post, flag_attr))
            texts.append(post.text)
            if acct_attr is not None:
                acct_ids.append(accts.intern(getattr(post, acct_attr)))
            for tag in post.hashtags:
                tag_rows.append(row)
                tag_ids.append(tags.intern(normalize_hashtag(tag)))
            row += 1
        bounds.append(row)
    return TimelineTable(
        uids=uids,
        bounds=np.asarray(bounds, dtype=np.int64),
        day_ordinals=np.asarray(days, dtype=np.int64),
        row_uids=np.asarray(row_uids, dtype=np.int64),
        label_ids=np.asarray(label_ids, dtype=np.int32),
        labels=labels.vocab,
        flags=np.asarray(flags, dtype=bool),
        texts=texts,
        tag_rows=np.asarray(tag_rows, dtype=np.int64),
        tag_ids=np.asarray(tag_ids, dtype=np.int32),
        tags=tags.vocab,
        acct_ids=(
            np.asarray(acct_ids, dtype=np.int32) if acct_attr is not None else None
        ),
        accts=accts.vocab if acct_attr is not None else None,
    )


def _table_from_columns(
    timelines: ColumnTimelines,
    columns: PostColumns,
    attrs: tuple[str, str, str | None],
) -> TimelineTable:
    """The object walk's table, read straight off a saved archive's columns.

    The archive's label (and acct) ids are reused as they are: the writer
    interned them in the same first-seen order over the same posts, which
    the loader checks.
    """
    if attrs != columns.attrs:
        raise ValueError(f"the archive's columns hold {columns.attrs}, not {attrs}")
    rows, found = columns.hashtag_postings()
    tags = Interner()
    tag_ids = np.fromiter(
        map(tags.intern, map(normalize_hashtag, found)), np.int32, len(found)
    )
    bounds = timelines.bounds
    return TimelineTable(
        uids=list(timelines.uids),
        bounds=bounds,
        day_ordinals=columns.day_ordinals(),
        row_uids=np.repeat(
            np.asarray(timelines.uids, dtype=np.int64), np.diff(bounds)
        ),
        label_ids=columns.label_ids,
        labels=list(columns.labels),
        flags=columns.flags,
        texts=columns.texts,
        tag_rows=np.asarray(rows, dtype=np.int64),
        tag_ids=tag_ids,
        tags=tags.vocab,
        acct_ids=columns.acct_ids,
        accts=None if columns.accts is None else list(columns.accts),
    )


@dataclass(slots=True)
class RowMap:
    """How new table rows relate to old ones after an incremental rebase.

    ``runs`` lists maximal copied stretches as ``(new_start, old_start,
    count)`` triples — for every run, new rows ``new_start:new_start+count``
    are byte-for-byte the old rows ``old_start:old_start+count``.  ``fresh``
    are the new-row indices that did not exist before (sorted ascending).
    Consumers splice any *row-pure* per-row product (token rows, toxicity
    scores, embedding rows) by copying the runs and computing only the
    fresh rows.
    """

    runs: list[tuple[int, int, int]]
    fresh: np.ndarray  # int64
    row_count: int

    @property
    def copied_count(self) -> int:
        return sum(count for _, _, count in self.runs)


def rebase_timeline_table(
    old: TimelineTable,
    timelines: dict[int, list],
    label_attr: str,
    flag_attr: str,
    kept: dict[int, int],
    acct_attr: str | None = None,
) -> tuple[TimelineTable, RowMap]:
    """Rebuild a timeline table by splicing old rows with fresh posts.

    ``kept`` maps each *changed* uid to how many of its old rows survive as
    a prefix of its new timeline (0 for newly-appeared uids); uids absent
    from ``kept`` are unchanged and their whole old slice is copied.  The
    result is bit-identical to ``build_timeline_table(timelines, ...)``:
    label, tag and acct vocabularies are re-interned in new first-occurrence
    order (old ids are remapped per copied segment), because interner order
    is observable downstream (e.g. ``Counter.most_common`` tie-breaks).
    """
    labels = Interner()
    tags = Interner()
    accts = Interner()
    old_label_map = np.full(len(old.labels), -1, dtype=np.int32)
    old_tag_map = np.full(len(old.tags), -1, dtype=np.int32)
    old_acct_map = np.full(len(old.accts or ()), -1, dtype=np.int32)
    old_tag_rows = old.tag_rows

    uids: list[int] = []
    bounds = [0]
    day_parts: list[np.ndarray] = []
    label_parts: list[np.ndarray] = []
    flag_parts: list[np.ndarray] = []
    texts: list[str] = []
    tag_row_parts: list[np.ndarray] = []
    tag_id_parts: list[np.ndarray] = []
    acct_parts: list[np.ndarray] = []
    runs: list[tuple[int, int, int]] = []
    fresh: list[int] = []
    # per-segment fresh-row scratch, flushed into the part lists
    f_days: list[int] = []
    f_labels: list[int] = []
    f_flags: list[bool] = []
    f_tag_rows: list[int] = []
    f_tag_ids: list[int] = []
    f_accts: list[int] = []

    def flush_fresh() -> None:
        if f_days:
            day_parts.append(np.asarray(f_days, dtype=np.int64))
            label_parts.append(np.asarray(f_labels, dtype=np.int32))
            flag_parts.append(np.asarray(f_flags, dtype=bool))
            if acct_attr is not None:
                acct_parts.append(np.asarray(f_accts, dtype=np.int32))
            f_days.clear()
            f_labels.clear()
            f_flags.clear()
            f_accts.clear()
        if f_tag_rows:
            tag_row_parts.append(np.asarray(f_tag_rows, dtype=np.int64))
            tag_id_parts.append(np.asarray(f_tag_ids, dtype=np.int32))
            f_tag_rows.clear()
            f_tag_ids.clear()

    def remap(segment: np.ndarray, id_map: np.ndarray, old_vocab, interner):
        """Remap one copied id segment, interning in first-occurrence order."""
        mapped = id_map[segment]
        if mapped.min(initial=0) >= 0:
            return mapped  # every id already assigned: pure gather
        unique, first_pos = np.unique(segment, return_index=True)
        for oid in unique[np.argsort(first_pos, kind="stable")]:
            if id_map[oid] < 0:
                id_map[oid] = interner.intern(old_vocab[oid])
        return id_map[segment]

    def copy_rows(start: int, stop: int, new_start: int) -> None:
        """Old rows ``start:stop`` become new rows from ``new_start``."""
        day_parts.append(old.day_ordinals[start:stop])
        flag_parts.append(old.flags[start:stop])
        label_parts.append(
            remap(old.label_ids[start:stop], old_label_map, old.labels, labels)
        )
        if acct_attr is not None:
            acct_parts.append(
                remap(old.acct_ids[start:stop], old_acct_map, old.accts, accts)
            )
        texts.extend(old.texts[start:stop])
        lo = int(np.searchsorted(old_tag_rows, start, side="left"))
        hi = int(np.searchsorted(old_tag_rows, stop, side="left"))
        if hi > lo:
            tag_id_parts.append(
                remap(old.tag_ids[lo:hi], old_tag_map, old.tags, tags)
            )
            tag_row_parts.append(old_tag_rows[lo:hi] - start + new_start)
        runs.append((new_start, start, stop - start))

    row = 0
    # consecutive unchanged uids occupy contiguous old rows; coalescing
    # their slices into one block turns thousands of per-uid numpy calls
    # into a handful of block copies (interning order is unaffected:
    # first-occurrence order over a merged segment equals sequential
    # first-occurrence order over its sub-segments)
    pend_old = pend_stop = pend_new = -1

    def flush_pending() -> None:
        nonlocal pend_old, pend_stop, pend_new
        if pend_old < 0:
            return
        start, stop, new_start = pend_old, pend_stop, pend_new
        pend_old = pend_stop = pend_new = -1
        copy_rows(start, stop, new_start)

    for uid, posts in timelines.items():
        uids.append(uid)
        span = old.slice_of(uid)
        if (
            uid not in kept
            and span is not None
            and span[1] - span[0] == len(posts)
        ):
            # unchanged uid: whole old slice copies verbatim
            if pend_stop == span[0]:
                pend_stop = span[1]
            else:
                flush_pending()
                flush_fresh()
                pend_old, pend_stop, pend_new = span[0], span[1], row
            row += span[1] - span[0]
            bounds.append(row)
            continue
        flush_pending()
        default_kept = (span[1] - span[0]) if span is not None else 0
        k = kept.get(uid, default_kept)
        if k:
            flush_fresh()
            copy_rows(span[0], span[0] + k, row)
            row += k
        for post in posts[k:]:
            f_days.append(post.created_date.toordinal())
            f_labels.append(labels.intern(getattr(post, label_attr)))
            f_flags.append(getattr(post, flag_attr))
            if acct_attr is not None:
                f_accts.append(accts.intern(getattr(post, acct_attr)))
            texts.append(post.text)
            for tag in post.hashtags:
                f_tag_rows.append(row)
                f_tag_ids.append(tags.intern(normalize_hashtag(tag)))
            fresh.append(row)
            row += 1
        bounds.append(row)
    flush_pending()
    flush_fresh()

    bounds_arr = np.asarray(bounds, dtype=np.int64)
    counts = np.diff(bounds_arr)
    empty64 = np.empty(0, dtype=np.int64)
    empty32 = np.empty(0, dtype=np.int32)
    table = TimelineTable(
        uids=uids,
        bounds=bounds_arr,
        day_ordinals=(
            np.concatenate(day_parts) if day_parts else empty64
        ),
        row_uids=np.repeat(np.asarray(uids, dtype=np.int64), counts),
        label_ids=(
            np.concatenate(label_parts) if label_parts else empty32
        ),
        labels=labels.vocab,
        flags=(
            np.concatenate(flag_parts)
            if flag_parts
            else np.empty(0, dtype=bool)
        ),
        texts=texts,
        tag_rows=(
            np.concatenate(tag_row_parts) if tag_row_parts else empty64
        ),
        tag_ids=(
            np.concatenate(tag_id_parts) if tag_id_parts else empty32
        ),
        tags=tags.vocab,
        acct_ids=(
            (np.concatenate(acct_parts) if acct_parts else empty32)
            if acct_attr is not None
            else None
        ),
        accts=accts.vocab if acct_attr is not None else None,
    )
    rowmap = RowMap(
        runs=runs,
        fresh=np.asarray(fresh, dtype=np.int64),
        row_count=row,
    )
    return table, rowmap


@dataclass(slots=True)
class TokenTable:
    """Interned word tokens of a text corpus, flattened.

    ``flat[offsets[i]:offsets[i + 1]]`` are text ``i``'s token ids in
    token order; ``vocab[id]`` restores the token.  Built once per corpus
    and shared by the batched NLP passes (embeddings and toxicity).
    """

    flat: np.ndarray  # int32
    offsets: np.ndarray  # int64, len(texts) + 1
    vocab: list[str]

    @property
    def text_count(self) -> int:
        return len(self.offsets) - 1


def build_token_table(texts: list[str]) -> TokenTable:
    """Tokenize every text once and intern the tokens (first-seen ids)."""
    flat, offsets, vocab = tokenize_corpus(texts)
    return TokenTable(flat=flat, offsets=offsets, vocab=vocab)


def rebase_token_table(
    old: TokenTable, rowmap: RowMap, texts: list[str]
) -> TokenTable:
    """Splice a token table along a :class:`RowMap`.

    Copied rows keep their old token ids; only fresh rows are tokenized,
    extending the old vocabulary append-only.  The resulting vocab *order*
    can differ from a cold ``build_token_table`` — that is fine because
    token-id order is not observable downstream: the only consumers
    (``score_tokenized`` / ``encode_tokenized``) are row-pure functions of
    the token *strings* via the vocab lookup.
    """
    fresh_flat, fresh_offsets, fresh_vocab = tokenize_corpus(
        [texts[r] for r in rowmap.fresh.tolist()]
    )
    # fresh_vocab is in first-seen order over the fresh rows, so interning
    # it in order appends new tokens exactly as per-token interning would
    interner = Interner.from_vocab(old.vocab)
    to_old_ids = np.fromiter(
        map(interner.intern, fresh_vocab), np.int32, len(fresh_vocab)
    )
    offsets, (flat,) = splice_ragged(
        old.offsets,
        (old.flat,),
        rowmap,
        fresh_offsets,
        (to_old_ids[fresh_flat],),
    )
    return TokenTable(flat=flat, offsets=offsets, vocab=interner.vocab)


def splice_ragged(
    old_offsets: np.ndarray,
    old_columns: tuple[np.ndarray, ...],
    rowmap: RowMap,
    fresh_offsets: np.ndarray,
    fresh_columns: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Splice ragged columns sharing ``offsets`` along a :class:`RowMap`.

    Row ``i`` of a ragged column is ``column[offsets[i]:offsets[i + 1]]``.
    The runs' rows are copied segment by segment from ``old_columns``; the
    fresh rows (in ``rowmap.fresh`` order) come from ``fresh_columns``.
    Returns the new offsets and columns.
    """
    lengths = np.zeros(rowmap.row_count, dtype=np.int64)
    old_lengths = np.diff(old_offsets)
    for new_start, old_start, count in rowmap.runs:
        lengths[new_start : new_start + count] = old_lengths[
            old_start : old_start + count
        ]
    lengths[rowmap.fresh] = np.diff(fresh_offsets)
    offsets = np.empty(rowmap.row_count + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    fresh_positions = row_positions(offsets, rowmap.fresh)
    columns = []
    for old, fresh in zip(old_columns, fresh_columns):
        column = np.empty(int(offsets[-1]), dtype=old.dtype)
        for new_start, old_start, count in rowmap.runs:
            column[offsets[new_start] : offsets[new_start + count]] = old[
                old_offsets[old_start] : old_offsets[old_start + count]
            ]
        column[fresh_positions] = fresh
        columns.append(column)
    return offsets, columns


@dataclass(slots=True)
class ProfileTable:
    """Matched users and their Mastodon account records, column-wise.

    Row ``i`` of the matched columns is the ``i``-th entry of
    ``dataset.matched`` (dict order); account columns are aligned to the
    same rows (``has_account`` masks the gaps).  A second block indexes
    ``dataset.accounts`` by uid for the switching analyses.  Domains are
    interned through one shared vocabulary so first/second-instance
    comparisons reduce to integer equality.
    """

    matched_uids: list[int]
    matched_row: dict[int, int]
    matched_domain_ids: np.ndarray  # int32: advertised (first) instance
    domains: list[str]
    join_ordinals: np.ndarray  # int64; -1 when no account record
    has_account: np.ndarray  # bool
    followers: np.ndarray  # int64; 0 when no record
    following: np.ndarray
    statuses: np.ndarray
    # dataset.accounts view (uid -> row in the acct_* columns)
    acct_row: dict[int, int]
    acct_first_domain_ids: np.ndarray  # int32
    acct_second_domain_ids: np.ndarray  # int32; -1 when never switched
    acct_first_ordinals: np.ndarray  # int64
    acct_second_ordinals: np.ndarray  # int64; -1 when unknown

    def domain_id(self, domain: str) -> int:
        """The interned id of ``domain``, or -1 if no profile mentions it."""
        for i, d in enumerate(self.domains):
            if d == domain:
                return i
        return -1


def build_profile_table(dataset) -> ProfileTable:
    domains = Interner()
    matched_uids: list[int] = []
    matched_row: dict[int, int] = {}
    matched_domain_ids: list[int] = []
    join_ordinals: list[int] = []
    has_account: list[bool] = []
    followers: list[int] = []
    following: list[int] = []
    statuses: list[int] = []
    for uid, user in dataset.matched.items():
        matched_row[uid] = len(matched_uids)
        matched_uids.append(uid)
        matched_domain_ids.append(domains.intern(user.mastodon_domain))
        record = dataset.accounts.get(uid)
        if record is None:
            join_ordinals.append(-1)
            has_account.append(False)
            followers.append(0)
            following.append(0)
            statuses.append(0)
        else:
            join_ordinals.append(record.first_created_at.date().toordinal())
            has_account.append(True)
            followers.append(record.followers)
            following.append(record.following)
            statuses.append(record.statuses)
    acct_row: dict[int, int] = {}
    first_dom: list[int] = []
    second_dom: list[int] = []
    first_ord: list[int] = []
    second_ord: list[int] = []
    for uid, record in dataset.accounts.items():
        acct_row[uid] = len(first_dom)
        first_dom.append(domains.intern(record.first_domain))
        second = record.second_domain
        second_dom.append(-1 if second is None else domains.intern(second))
        first_ord.append(record.first_created_at.date().toordinal())
        second_ord.append(
            record.second_created_at.date().toordinal()
            if record.second_created_at is not None
            else -1
        )
    return ProfileTable(
        matched_uids=matched_uids,
        matched_row=matched_row,
        matched_domain_ids=np.asarray(matched_domain_ids, dtype=np.int32),
        domains=domains.vocab,
        join_ordinals=np.asarray(join_ordinals, dtype=np.int64),
        has_account=np.asarray(has_account, dtype=bool),
        followers=np.asarray(followers, dtype=np.int64),
        following=np.asarray(following, dtype=np.int64),
        statuses=np.asarray(statuses, dtype=np.int64),
        acct_row=acct_row,
        acct_first_domain_ids=np.asarray(first_dom, dtype=np.int32),
        acct_second_domain_ids=np.asarray(second_dom, dtype=np.int32),
        acct_first_ordinals=np.asarray(first_ord, dtype=np.int64),
        acct_second_ordinals=np.asarray(second_ord, dtype=np.int64),
    )


@dataclass(slots=True)
class EdgeTable:
    """The §3.3 followee sample as flat edge arrays (duplicates kept)."""

    sources: np.ndarray  # int64: sampled user per edge
    targets: np.ndarray  # int64: followee per edge
    sampled_uids: list[int]  # followee_sample keys, dict order


def build_edge_table(dataset) -> EdgeTable:
    sources: list[int] = []
    targets: list[int] = []
    sampled: list[int] = []
    for uid, record in dataset.followee_sample.items():
        sampled.append(uid)
        for followee in record.twitter_followees:
            sources.append(uid)
            targets.append(followee)
    return EdgeTable(
        sources=np.asarray(sources, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
        sampled_uids=sampled,
    )


def day_from_ordinal(ordinal: int) -> _dt.date:
    """Inverse of ``date.toordinal`` (exact; proleptic Gregorian)."""
    return _dt.date.fromordinal(ordinal)


def iso_day_strings(day_ordinals: np.ndarray) -> list[str]:
    """ISO ``YYYY-MM-DD`` string per day ordinal, memoized per distinct day.

    The corpora span a few hundred distinct days across millions of rows,
    so formatting each distinct ordinal once makes this a dict lookup per
    row — cheap enough to build eagerly as a frames product for serving.
    """
    memo: dict[int, str] = {}
    out: list[str] = []
    for ordinal in day_ordinals.tolist():
        found = memo.get(ordinal)
        if found is None:
            found = memo[ordinal] = _dt.date.fromordinal(ordinal).isoformat()
        out.append(found)
    return out


def ordinal_counts(day_ordinals: np.ndarray) -> list[tuple[_dt.date, int]]:
    """Sorted ``(date, count)`` pairs over a day-ordinal column.

    Matches ``sorted(Counter(dates).items())`` over the posts: counts
    are exact integers and days with zero posts are omitted.
    """
    if day_ordinals.size == 0:
        return []
    lo = int(day_ordinals.min())
    counts = np.bincount(day_ordinals - lo)
    return [
        (_dt.date.fromordinal(lo + i), int(c))
        for i, c in enumerate(counts)
        if c
    ]


def tag_counts(table: TimelineTable) -> dict[str, int]:
    """Occurrence counts per normalized tag from a timeline table's postings."""
    if table.tag_ids.size == 0:
        return {}
    counts = np.bincount(table.tag_ids, minlength=len(table.tags))
    return {tag: int(counts[i]) for i, tag in enumerate(table.tags) if counts[i]}
