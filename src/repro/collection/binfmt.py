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
"""

from __future__ import annotations

import datetime as _dt
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import DatasetFormatError
from repro.fediverse.models import Status
from repro.twitter.models import Tweet

_EPOCH = _dt.datetime(1970, 1, 1)

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


def _text_column(data: dict, prefix: str) -> list[str]:
    """Decode the UTF-8 blob once and slice texts by character offsets.

    Character offsets (not byte offsets) make the slice step pure string
    indexing — the multi-byte decoding cost is paid exactly once.
    """
    blob = bytes(data[f"{prefix}_text_blob"]).decode("utf-8")
    offsets = data[f"{prefix}_text_offsets"].tolist()
    return [blob[a:b] for a, b in zip(offsets, offsets[1:])]


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


def _read_tweets(data: dict, prefix: str, labels: list[str]) -> list[Tweet]:
    ids = data[f"{prefix}_ids"].tolist()
    authors = data[f"{prefix}_authors"].tolist()
    micros = data[f"{prefix}_micros"].tolist()
    texts = _text_column(data, prefix)
    label_ids = data[f"{prefix}_label_ids"].tolist()
    flags = data[f"{prefix}_flags"].tolist()
    return [
        Tweet(
            tweet_id=tid,
            author_id=author,
            created_at=_from_micros(us),
            text=text,
            source=labels[lid],
            is_retweet=flag,
        )
        for tid, author, us, text, lid, flag in zip(
            ids, authors, micros, texts, label_ids, flags
        )
    ]


def _read_statuses(
    data: dict, prefix: str, labels: list[str], accts: list[str]
) -> list[Status]:
    ids = data[f"{prefix}_ids"].tolist()
    acct_ids = data[f"{prefix}_authors"].tolist()
    micros = data[f"{prefix}_micros"].tolist()
    texts = _text_column(data, prefix)
    label_ids = data[f"{prefix}_label_ids"].tolist()
    boosts = data[f"{prefix}_flags"].tolist()
    reblogs = data[f"{prefix}_reblogs"].tolist()
    return [
        Status(
            status_id=sid,
            account_acct=accts[aid],
            created_at=_from_micros(us),
            text=text,
            application=labels[lid],
            reblog_of_id=reblog if boost else None,
        )
        for sid, aid, us, text, lid, boost, reblog in zip(
            ids, acct_ids, micros, texts, label_ids, boosts, reblogs
        )
    ]


def _regroup(uids: list[int], counts: list[int], items: list) -> dict[int, list]:
    timelines: dict[int, list] = {}
    cursor = 0
    for uid, count in zip(uids, counts):
        timelines[uid] = items[cursor : cursor + count]
        cursor += count
    return timelines


#: Dataset fields whose columns dominate the archive; lazy loads defer them.
LAZY_FIELDS = ("collected_tweets", "twitter_timelines", "mastodon_timelines")


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
    if header.get("format_version") != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported binary dataset format {header.get('format_version')!r}"
        )
    return header


def _make_lazy_class():
    from repro.collection.dataset import MigrationDataset

    class LazyNpzDataset(MigrationDataset):
        """A dataset whose three big corpora load from disk on first access.

        Everything header-sized (matched users, accounts, coverage,
        weekly activity, trends) is eager; ``collected_tweets`` and both
        timeline dicts materialise from the ``.npz`` archive the first
        time anything reads them.  This is the serving cold-start path: a
        server answers ``/healthz``, ``/v1/instances`` and ``/v1/trends``
        before a single timeline column has been read.

        Materialised (or assigned) fields are indistinguishable from an
        eager load; note the dataclass ``__eq__`` checks exact class
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
            header = self._lazy_header
            if name == "collected_tweets":
                data = _load_prefixed(self._lazy_path, ("ct_",))
                value = _read_tweets(data, "ct", header["ct_labels"])
            elif name == "twitter_timelines":
                data = _load_prefixed(self._lazy_path, ("tw_",))
                value = _regroup(
                    data["tw_uids"].tolist(),
                    data["tw_counts"].tolist(),
                    _read_tweets(data, "tw", header["tw_labels"]),
                )
            else:
                data = _load_prefixed(self._lazy_path, ("ma_",))
                value = _regroup(
                    data["ma_uids"].tolist(),
                    data["ma_counts"].tolist(),
                    _read_statuses(data, "ma", header["ma_labels"], header["ma_accts"]),
                )
            setattr(self, name, value)  # the setter clears the pending mark

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
    corpora (``collected_tweets`` and both timeline dicts) materialise
    from the archive on first access.  The loaded contents are identical
    either way — laziness only moves *when* the columns are decoded.
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
    dataset.collected_tweets = _read_tweets(data, "ct", header["ct_labels"])
    dataset.twitter_timelines = _regroup(
        data["tw_uids"].tolist(),
        data["tw_counts"].tolist(),
        _read_tweets(data, "tw", header["tw_labels"]),
    )
    dataset.mastodon_timelines = _regroup(
        data["ma_uids"].tolist(),
        data["ma_counts"].tolist(),
        _read_statuses(data, "ma", header["ma_labels"], header["ma_accts"]),
    )
    return dataset
