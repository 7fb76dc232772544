"""Compact binary dataset format: ``.npz`` columns + a JSON header.

The JSON format serialises one dict per post — at scale 0.01 that is ~150k
dicts whose keys alone dominate the file.  Here the three big corpora
(collected tweets and both timeline sets) become flat numpy columns:

- integer ids and flags as ``int64``/``bool`` arrays;
- datetimes as exact microseconds-since-epoch ``int64`` (naive datetimes
  only — the simulation never produces tz-aware ones);
- texts as one concatenated UTF-8 blob plus character offsets (decoded
  once on load, sliced per post);
- low-cardinality strings (tweet sources, status applications, account
  handles) interned through per-column vocabularies.

Everything small (matched users, account records, coverage, followee
sample, weekly activity, trends) rides in a JSON header embedded as a
``uint8`` array, reusing the JSON format's field encoders so the two
formats cannot drift.  ``MigrationDataset.save``/``load`` dispatch here
for ``.npz`` paths; round-tripping either format reproduces an equal
dataset (``tests/collection/test_binfmt.py``).

Loading decodes each corpus once into :class:`PostColumns` after O(n)
checks that turn any damage they can see (columns of unequal length,
counts that do not partition the posts, offsets that do not cut the
blob, a blob that is not UTF-8, ids outside their vocabulary, times
outside ``datetime``'s range, a missing column) into
:class:`~repro.errors.DatasetFormatError`.  The collected tweets become
``Tweet`` objects at once.  Each timeline corpus becomes a
:class:`ColumnTimelines`, a ``{uid: [posts]}`` mapping that builds a
uid's posts only when that value is read, and whose columns
:mod:`repro.frames` turns into its timeline tables directly: re-running
the figures from a saved dataset builds no post object.
"""

from __future__ import annotations

import datetime as _dt
import json
import zipfile
from collections.abc import Iterator, MutableMapping
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from repro.errors import DatasetFormatError
from repro.fediverse.models import Status
from repro.twitter.models import Tweet
from repro.util.text import extract_hashtags

_EPOCH = _dt.datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_DAY_US = 86_400_000_000

#: Bump when the column layout changes.
FORMAT_VERSION = 1


def _to_micros(moment: _dt.datetime) -> int:
    if moment.tzinfo is not None:
        raise ValueError(
            "binary dataset format requires naive datetimes, got "
            f"{moment.isoformat()}"
        )
    delta = moment - _EPOCH
    return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds


def _from_micros(micros: int) -> _dt.datetime:
    return _EPOCH + _dt.timedelta(microseconds=micros)


#: The microsecond values a ``datetime`` can hold; the loader rejects others.
_MIN_MICROS = _to_micros(_dt.datetime.min)
_MAX_MICROS = _to_micros(_dt.datetime.max)


class _ColumnWriter:
    """Accumulates one corpus' columns under a common array-name prefix."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.ids: list[int] = []
        self.authors: list[int] = []
        self.micros: list[int] = []
        self.texts: list[str] = []
        self.label_ids: list[int] = []
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self.flags: list[bool] = []

    def intern(self, label: str) -> int:
        found = self._label_index.get(label)
        if found is None:
            found = len(self.labels)
            self._label_index[label] = found
            self.labels.append(label)
        return found

    def add_tweet(self, tweet: Tweet) -> None:
        self.ids.append(tweet.tweet_id)
        self.authors.append(tweet.author_id)
        self.micros.append(_to_micros(tweet.created_at))
        self.texts.append(tweet.text)
        self.label_ids.append(self.intern(tweet.source))
        self.flags.append(tweet.is_retweet)

    def arrays(self) -> dict[str, np.ndarray]:
        blob = "".join(self.texts)
        offsets = np.zeros(len(self.texts) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in self.texts], out=offsets[1:])
        return {
            f"{self.prefix}_ids": np.asarray(self.ids, dtype=np.int64),
            f"{self.prefix}_authors": np.asarray(self.authors, dtype=np.int64),
            f"{self.prefix}_micros": np.asarray(self.micros, dtype=np.int64),
            f"{self.prefix}_text_blob": np.frombuffer(
                blob.encode("utf-8"), dtype=np.uint8
            ),
            f"{self.prefix}_text_offsets": offsets,
            f"{self.prefix}_label_ids": np.asarray(
                self.label_ids, dtype=np.int32
            ),
            f"{self.prefix}_flags": np.asarray(self.flags, dtype=bool),
        }


class _TweetWriter(_ColumnWriter):
    pass


class _StatusWriter(_ColumnWriter):
    def __init__(self, prefix: str) -> None:
        super().__init__(prefix)
        self.accts: list[str] = []
        self._acct_index: dict[str, int] = {}
        self.reblogs: list[int] = []

    def intern_acct(self, acct: str) -> int:
        found = self._acct_index.get(acct)
        if found is None:
            found = len(self.accts)
            self._acct_index[acct] = found
            self.accts.append(acct)
        return found

    def add_status(self, status: Status) -> None:
        self.ids.append(status.status_id)
        # the authors column holds the interned acct for statuses
        self.authors.append(self.intern_acct(status.account_acct))
        self.micros.append(_to_micros(status.created_at))
        self.texts.append(status.text)
        self.label_ids.append(self.intern(status.application))
        reblog = status.reblog_of_id
        self.flags.append(reblog is not None)
        self.reblogs.append(reblog if reblog is not None else 0)

    def arrays(self) -> dict[str, np.ndarray]:
        out = super().arrays()
        out[f"{self.prefix}_reblogs"] = np.asarray(self.reblogs, dtype=np.int64)
        return out


def save_npz(dataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` in the binary column format."""
    # imported here: dataset.py imports this module for save/load dispatch
    from repro.collection.dataset import (
        _account_doc,
        _coverage_doc,
        _matched_doc,
    )

    collected = _TweetWriter("ct")
    for tweet in dataset.collected_tweets:
        collected.add_tweet(tweet)

    tweets = _TweetWriter("tw")
    tw_uids = list(dataset.twitter_timelines)
    tw_counts = [len(v) for v in dataset.twitter_timelines.values()]
    for timeline in dataset.twitter_timelines.values():
        for tweet in timeline:
            tweets.add_tweet(tweet)

    statuses = _StatusWriter("ma")
    ma_uids = list(dataset.mastodon_timelines)
    ma_counts = [len(v) for v in dataset.mastodon_timelines.values()]
    for timeline in dataset.mastodon_timelines.values():
        for status in timeline:
            statuses.add_status(status)

    header = {
        "format_version": FORMAT_VERSION,
        "version": 1,
        "instance_domains": dataset.instance_domains,
    }
    manifest = dataset.manifest()
    if manifest is not None:
        # clocked snapshots carry the incremental-plane stamp; unclocked
        # ones keep the pre-manifest header bytes
        header["manifest"] = manifest
    header |= {
        "collected_user_count": dataset.collected_user_count,
        "matched": {
            str(uid): _matched_doc(m) for uid, m in dataset.matched.items()
        },
        "accounts": {
            str(uid): _account_doc(a) for uid, a in dataset.accounts.items()
        },
        "twitter_coverage": _coverage_doc(dataset.twitter_coverage),
        "mastodon_coverage": _coverage_doc(dataset.mastodon_coverage),
        "followee_sample": {
            str(uid): {
                "twitter_followees": list(r.twitter_followees),
                "mastodon_following": list(r.mastodon_following),
            }
            for uid, r in dataset.followee_sample.items()
        },
        "weekly_activity": dataset.weekly_activity,
        "trends": dataset.trends,
        "ct_labels": collected.labels,
        "tw_labels": tweets.labels,
        "ma_labels": statuses.labels,
        "ma_accts": statuses.accts,
    }
    arrays = {
        "header": np.frombuffer(
            json.dumps(header, separators=(",", ":")).encode("utf-8"),
            dtype=np.uint8,
        ),
        "tw_uids": np.asarray(tw_uids, dtype=np.int64),
        "tw_counts": np.asarray(tw_counts, dtype=np.int64),
        "ma_uids": np.asarray(ma_uids, dtype=np.int64),
        "ma_counts": np.asarray(ma_counts, dtype=np.int64),
    }
    arrays.update(collected.arrays())
    arrays.update(tweets.arrays())
    arrays.update(statuses.arrays())
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _datetimes(micros: np.ndarray) -> list[_dt.datetime]:
    """``[_from_micros(us) for us in micros]`` in one ``datetime64`` conversion.

    Exact for every value inside ``datetime``'s range, which the loader
    checks before any post is built.
    """
    return micros.astype("datetime64[us]").astype(object).tolist()


@dataclass(slots=True, eq=False)
class PostColumns:
    """One corpus of the archive, decoded once and checked.

    Texts are sliced from the UTF-8 blob; everything else stays a numpy
    column.  Tweet corpora carry ``authors``; status corpora carry
    ``reblogs``, ``acct_ids`` and ``accts`` instead (the archive stores a
    status's interned ``account_acct`` in its authors column).  Label and
    acct ids are dense in first-seen order, exactly as
    :class:`repro.frames.tables.Interner` numbers them over the same posts.
    """

    ids: np.ndarray  # int64
    micros: np.ndarray  # int64 microseconds since the epoch
    texts: list[str]
    label_ids: np.ndarray  # int32, into ``labels``
    labels: list[str]
    flags: np.ndarray  # bool: is_retweet / is a boost
    authors: np.ndarray | None = None  # int64, tweets only
    reblogs: np.ndarray | None = None  # int64, statuses only
    acct_ids: np.ndarray | None = None  # int32 into ``accts``, statuses only
    accts: list[str] | None = None  # statuses only

    @property
    def attrs(self) -> tuple[str, str, str | None]:
        """The post attributes behind the label, flag and acct columns."""
        if self.accts is None:
            return ("source", "is_retweet", None)
        return ("application", "is_boost", "account_acct")

    def day_ordinals(self) -> np.ndarray:
        """``created_at.date().toordinal()`` per post (floor division
        keeps pre-epoch days exact)."""
        return self.micros // _DAY_US + _EPOCH_ORDINAL

    def hashtag_postings(self) -> tuple[list[int], list[str]]:
        """Every post's ``hashtags``, flattened in row order:
        ``tags[j]`` belongs to row ``rows[j]``.

        Extracted from the texts as the models extract them; a boost
        carries none (see ``Status``).
        """
        boosts = (
            self.flags.tolist() if self.accts is not None else repeat(False)
        )
        rows: list[int] = []
        tags: list[str] = []
        for row, (text, boost) in enumerate(zip(self.texts, boosts)):
            if "#" in text and not boost:
                found = extract_hashtags(text)
                rows += [row] * len(found)
                tags += found
        return rows, tags

    def posts(self, lo: int = 0, hi: int | None = None) -> list:
        """The ``Tweet``/``Status`` objects of rows ``lo:hi``.

        Built through the models' own constructors, so every derived slot
        (hashtags, URLs, lowered text, search keys) equals what the saved
        posts had.
        """
        hi = len(self.texts) if hi is None else hi
        ids = self.ids[lo:hi].tolist()
        created = _datetimes(self.micros[lo:hi])
        texts = self.texts[lo:hi]
        labels = self.labels
        clients = [labels[i] for i in self.label_ids[lo:hi].tolist()]
        flags = self.flags[lo:hi].tolist()
        if self.accts is None:
            return [
                Tweet(
                    tweet_id=tid,
                    author_id=author,
                    created_at=at,
                    text=text,
                    source=source,
                    is_retweet=flag,
                )
                for tid, author, at, text, source, flag in zip(
                    ids, self.authors[lo:hi].tolist(), created, texts,
                    clients, flags,
                )
            ]
        accts = self.accts
        return [
            Status(
                status_id=sid,
                account_acct=accts[aid],
                created_at=at,
                text=text,
                application=application,
                reblog_of_id=reblog if boost else None,
            )
            for sid, aid, at, text, application, boost, reblog in zip(
                ids, self.acct_ids[lo:hi].tolist(), created, texts, clients,
                flags, self.reblogs[lo:hi].tolist(),
            )
        ]


class ColumnTimelines(MutableMapping):
    """``{uid: [posts]}`` over one archive corpus, building posts on demand.

    ``len``, ``in`` and iterating the keys read the uid column only.
    Reading a value builds that uid's posts once; later reads return the
    same list.  The mapping compares equal to a plain dict of the same
    timelines, either way round.  A write (``d[uid] = ...``, ``del``,
    ``pop``, ...) first builds every post into a plain dict, which the
    mapping wraps from then on.

    :attr:`columns` hands the archive columns to :mod:`repro.frames`,
    which builds its timeline tables from them without a post object.
    It is None once any post has been handed out or the mapping written:
    from then on a caller may have changed the posts, so the tables come
    from the posts.
    """

    def __init__(
        self, uids: list[int], bounds: np.ndarray, columns: PostColumns
    ) -> None:
        #: timeline owners in archive order; posts of ``uids[i]`` are rows
        #: ``bounds[i]:bounds[i + 1]`` of the columns
        self.uids = uids
        self.bounds = bounds
        self._columns = columns
        self._rows = {uid: i for i, uid in enumerate(uids)}
        self._built: dict[int, list] = {}
        self._written: dict[int, list] | None = None

    @property
    def columns(self) -> PostColumns | None:
        """The archive columns while they are the whole truth, else None."""
        if self._built or self._written is not None:
            return None
        return self._columns

    @property
    def built_count(self) -> int:
        """How many timelines have had their posts built so far."""
        if self._written is not None:
            return len(self._written)
        return len(self._built)

    def __len__(self) -> int:
        if self._written is not None:
            return len(self._written)
        return len(self._rows)

    def __iter__(self) -> Iterator[int]:
        if self._written is not None:
            return iter(self._written)
        return iter(self._rows)

    def __contains__(self, uid: object) -> bool:
        if self._written is not None:
            return uid in self._written
        return uid in self._rows

    def __getitem__(self, uid: int) -> list:
        if self._written is not None:
            return self._written[uid]
        found = self._built.get(uid)
        if found is None:
            row = self._rows[uid]
            found = self._built[uid] = self._columns.posts(
                int(self.bounds[row]), int(self.bounds[row + 1])
            )
        return found

    def __setitem__(self, uid: int, posts: list) -> None:
        self._materialize()[uid] = posts

    def __delitem__(self, uid: int) -> None:
        del self._materialize()[uid]

    def _materialize(self) -> dict[int, list]:
        if self._written is None:
            self._written = {uid: self[uid] for uid in self._rows}
            self._built = {}
            self._columns = None
        return self._written

    def __repr__(self) -> str:
        return f"ColumnTimelines({len(self)} timelines)"


def _fail(message: str) -> NoReturn:
    raise DatasetFormatError(f"damaged binary dataset format: {message}")


def _column(data: dict, name: str, kind: str = "i") -> np.ndarray:
    """A 1-D column of numpy dtype ``kind`` (signed ints widen to int64),
    or a format error."""
    array = data.get(name)
    if array is None:
        _fail(f"missing column {name}")
    if array.ndim != 1 or array.dtype.kind != kind or (
        kind == "u" and array.dtype != np.uint8
    ):
        _fail(f"column {name} has dtype {array.dtype}, shape {array.shape}")
    return array.astype(np.int64, copy=False) if kind == "i" else array


def _vocab(header: dict, key: str) -> list[str]:
    vocab = header.get(key)
    if not isinstance(vocab, list) or not all(isinstance(v, str) for v in vocab):
        _fail(f"header entry {key} is not a list of strings")
    return vocab


def _check_ids(ids: np.ndarray, vocab: list[str], name: str) -> None:
    """Ids must number ``vocab`` densely in first-seen order, as the writer
    interned them: each id is at most one past every id before it."""
    if not ids.size:
        if vocab:
            _fail(f"{name} leave the vocabulary unused")
        return
    if ids.min() < 0 or ids.max() >= len(vocab):
        _fail(f"{name} fall outside their {len(vocab)}-entry vocabulary")
    seen = np.maximum.accumulate(ids)
    if ids[0] != 0 or np.any(seen[1:] - seen[:-1] > 1) or seen[-1] != len(vocab) - 1:
        _fail(f"{name} do not number their vocabulary in first-seen order")


def _decode_columns(data: dict, header: dict, prefix: str) -> PostColumns:
    """Decode one corpus, rejecting any damage an O(n) check can see."""
    statuses = prefix == "ma"
    names = ("ids", "authors", "micros", "label_ids") + (
        ("reblogs",) if statuses else ()
    )
    columns = {name: _column(data, f"{prefix}_{name}") for name in names}
    columns["flags"] = _column(data, f"{prefix}_flags", "b")
    count = len(columns["ids"])
    for name, array in columns.items():
        if len(array) != count:
            _fail(f"{prefix}_{name} has {len(array)} rows, {prefix}_ids {count}")
    micros = columns["micros"]
    if count and (micros.min() < _MIN_MICROS or micros.max() > _MAX_MICROS):
        _fail(f"{prefix}_micros fall outside datetime's range")
    try:
        blob = _column(data, f"{prefix}_text_blob", "u").tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(f"{prefix}_text_blob is not UTF-8: {exc}")
    offsets = _column(data, f"{prefix}_text_offsets")
    if (
        len(offsets) != count + 1
        or offsets[0] != 0
        or offsets[-1] != len(blob)
        or np.any(offsets[1:] < offsets[:-1])
    ):
        _fail(f"{prefix}_text_offsets do not cut the text blob into {count} texts")
    labels = _vocab(header, f"{prefix}_labels")
    _check_ids(columns["label_ids"], labels, f"{prefix}_label_ids")
    cuts = offsets.tolist()
    decoded = PostColumns(
        ids=columns["ids"],
        micros=micros,
        texts=[blob[a:b] for a, b in zip(cuts, cuts[1:])],
        label_ids=columns["label_ids"].astype(np.int32),
        labels=labels,
        flags=columns["flags"],
    )
    if statuses:
        # the authors column holds the interned acct for statuses
        decoded.accts = _vocab(header, "ma_accts")
        _check_ids(columns["authors"], decoded.accts, "ma_authors")
        decoded.acct_ids = columns["authors"].astype(np.int32)
        decoded.reblogs = columns["reblogs"]
    else:
        decoded.authors = columns["authors"]
    return decoded


def _decode_timelines(data: dict, header: dict, prefix: str) -> ColumnTimelines:
    columns = _decode_columns(data, header, prefix)
    uids = _column(data, f"{prefix}_uids")
    counts = _column(data, f"{prefix}_counts")
    if len(uids) != len(counts):
        _fail(f"{prefix}_uids and {prefix}_counts differ in length")
    posts = len(columns.texts)
    if (
        counts.min(initial=0) < 0
        or counts.max(initial=0) > posts
        or int(counts.sum()) != posts
    ):
        _fail(f"{prefix}_counts do not partition the {posts} posts")
    uid_list = uids.tolist()
    if len(set(uid_list)) != len(uid_list):
        _fail(f"{prefix}_uids repeat a timeline owner")
    bounds = np.zeros(len(uid_list) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return ColumnTimelines(uid_list, bounds, columns)


#: Dataset fields whose columns dominate the archive; lazy loads defer them.
LAZY_FIELDS = ("collected_tweets", "twitter_timelines", "mastodon_timelines")
#: The archive's array-name prefix of each of :data:`LAZY_FIELDS`.
_FIELD_PREFIXES = {
    "collected_tweets": "ct",
    "twitter_timelines": "tw",
    "mastodon_timelines": "ma",
}


def _decode_field(data: dict, header: dict, name: str):
    """One of :data:`LAZY_FIELDS`, decoded from its archive columns: the
    collected tweets as a list of posts, a timeline corpus as a
    :class:`ColumnTimelines`."""
    prefix = _FIELD_PREFIXES[name]
    if name == "collected_tweets":
        return _decode_columns(data, header, prefix).posts()
    return _decode_timelines(data, header, prefix)


def _lazy_field(name: str):
    """A data-descriptor field that materialises from the archive on first read.

    The value lives under a private slot in the instance dict; explicit
    assignment (including the dataclass-generated ``__init__`` defaults)
    removes the field from the pending set, so a field is only ever
    materialised while it still holds nothing but its placeholder default.
    """
    store = "_lazy_value_" + name

    def getter(self):
        pending = getattr(self, "_lazy_pending", None)
        if pending and name in pending:
            self._materialize(name)
        return getattr(self, store)

    def setter(self, value) -> None:
        pending = getattr(self, "_lazy_pending", None)
        if pending is not None:
            pending.discard(name)
        setattr(self, store, value)

    return property(getter, setter)


def _load_prefixed(path: Path, prefixes: tuple[str, ...]) -> dict:
    """Read only the arrays under the given name prefixes from the archive.

    A damaged archive (truncated, or a member cut short) raises
    :class:`~repro.errors.DatasetFormatError`.
    """
    try:
        # our own handle: np.load leaves the file it opened unclosed when
        # the archive turns out to be damaged
        with open(path, "rb") as handle, np.load(handle) as archive:
            return {
                name: archive[name]
                for name in archive.files
                if name.startswith(prefixes)
            }
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise DatasetFormatError(
            f"damaged binary dataset format in {path}: {exc}"
        ) from exc


def _parse_header(data: dict) -> dict:
    try:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(
            f"unreadable binary dataset format header: {exc}"
        ) from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported binary dataset format {version!r}")
    return header


def _make_lazy_class():
    from repro.collection.dataset import MigrationDataset

    class LazyNpzDataset(MigrationDataset):
        """A dataset whose three big corpora load from disk on first access.

        Everything header-sized (matched users, accounts, coverage,
        weekly activity, trends) is eager; ``collected_tweets`` and both
        timeline mappings are read from the ``.npz`` archive the first
        time anything reads them.  This is the serving cold-start path: a
        server answers ``/healthz``, ``/v1/instances`` and ``/v1/trends``
        before a single timeline column has been read.

        A field is decoded by the eager load's own path, so it is the
        same value: the collected tweets as a list, each timeline corpus
        as a :class:`ColumnTimelines` that builds posts only per read
        value.  Damage surfaces as
        :class:`~repro.errors.DatasetFormatError` when the damaged field
        is first read.  The dataclass ``__eq__`` checks exact class
        identity, so compare lazy and eager datasets via ``to_json()``.
        """

        collected_tweets = _lazy_field("collected_tweets")
        twitter_timelines = _lazy_field("twitter_timelines")
        mastodon_timelines = _lazy_field("mastodon_timelines")

        def _attach(self, path: Path, header: dict) -> None:
            self._lazy_path = path
            self._lazy_header = header
            self._lazy_pending = set(LAZY_FIELDS)

        @property
        def lazy_pending(self) -> tuple[str, ...]:
            """Still-unmaterialised fields (introspection for tests/metrics)."""
            return tuple(sorted(getattr(self, "_lazy_pending", ())))

        def _materialize(self, name: str) -> None:
            prefix = _FIELD_PREFIXES[name]
            data = _load_prefixed(self._lazy_path, (prefix + "_",))
            # the setter clears the pending mark
            setattr(self, name, _decode_field(data, self._lazy_header, name))

    return LazyNpzDataset


_LazyNpzDataset = None


def lazy_dataset_class():
    """The (memoized) lazy dataset class; built on first use to avoid an
    import cycle with :mod:`repro.collection.dataset`."""
    global _LazyNpzDataset
    if _LazyNpzDataset is None:
        _LazyNpzDataset = _make_lazy_class()
    return _LazyNpzDataset


def _fill_header_fields(dataset, header: dict) -> None:
    try:
        _read_header_fields(dataset, header)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(
            f"damaged binary dataset format header: {exc!r}"
        ) from exc


def _read_header_fields(dataset, header: dict) -> None:
    from repro.collection.dataset import (
        CrawlCoverage,
        FolloweeRecord,
        _account_from,
        _matched_from,
    )

    dataset.instance_domains = list(header["instance_domains"])
    manifest = header.get("manifest")
    if manifest is not None:
        dataset.dataset_version = int(manifest["dataset_version"])
        if manifest.get("clock"):
            dataset.clock = _dt.date.fromisoformat(manifest["clock"])
    dataset.collected_user_count = int(header["collected_user_count"])
    dataset.matched = {
        int(uid): _matched_from(d) for uid, d in header["matched"].items()
    }
    dataset.accounts = {
        int(uid): _account_from(d) for uid, d in header["accounts"].items()
    }
    dataset.twitter_coverage = CrawlCoverage(**header["twitter_coverage"])
    dataset.mastodon_coverage = CrawlCoverage(**header["mastodon_coverage"])
    dataset.followee_sample = {
        int(uid): FolloweeRecord(
            twitter_user_id=int(uid),
            twitter_followees=tuple(d["twitter_followees"]),
            mastodon_following=tuple(d["mastodon_following"]),
        )
        for uid, d in header["followee_sample"].items()
    }
    dataset.weekly_activity = {
        domain: list(rows) for domain, rows in header["weekly_activity"].items()
    }
    dataset.trends = {
        term: [(day, int(v)) for day, v in series]
        for term, series in header["trends"].items()
    }


def load_npz(path: str | Path, lazy: bool = False):
    """Read a dataset written by :func:`save_npz`.

    With ``lazy=True`` only the JSON header is read now; the three big
    corpora (``collected_tweets`` and both timeline mappings) are decoded
    on first access.  The loaded contents are identical either way —
    laziness only moves *when* the columns are decoded.  Both timeline
    fields are :class:`ColumnTimelines`; a damaged archive raises
    :class:`~repro.errors.DatasetFormatError`.
    """
    from repro.collection.dataset import MigrationDataset

    path = Path(path)
    if lazy:
        header = _parse_header(_load_prefixed(path, ("header",)))
        dataset = lazy_dataset_class()()
        dataset._attach(path, header)
        _fill_header_fields(dataset, header)
        return dataset

    data = _load_prefixed(path, ("",))
    header = _parse_header(data)
    dataset = MigrationDataset()
    _fill_header_fields(dataset, header)
    for name in LAZY_FIELDS:
        setattr(dataset, name, _decode_field(data, header, name))
    return dataset
