"""Tests for the binary dataset format (repro.collection.binfmt)."""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collection.binfmt import (
    _MAX_MICROS,
    _MIN_MICROS,
    ColumnTimelines,
    _datetimes,
    _from_micros,
    _to_micros,
)
from repro.collection.dataset import MigrationDataset
from repro.errors import DatasetFormatError
from repro.fediverse.models import Status
from repro.twitter.models import Tweet
from tests.conftest import make_status, make_tweet


def fill(ds: MigrationDataset) -> MigrationDataset:
    day = dt.date(2022, 10, 28)
    later = dt.date(2022, 11, 5)
    ds.collected_tweets = [
        make_tweet(1, 1, day, "bye bye twitter #TwitterMigration"),
        make_tweet(2, 3, later, "leaving for good", source="Moa"),
    ]
    ds.twitter_timelines = {
        1: [make_tweet(3, 1, day, "hello #world"),
            make_tweet(4, 1, later, "again", source="Moa")],
        2: [],
        3: [make_tweet(5, 3, later, "unicode: café 🦣 #Fediverse")],
    }
    ds.mastodon_timelines = {
        1: [make_status(6, "alice@mastodon.social", day, "first toot"),
            make_status(7, "alice@mastodon.social", later, "boosting",
                        application="Moa")],
        3: [make_status(8, "carol@mastodon.social", later, "🦣 decentralised")],
    }
    ds.weekly_activity = {
        "mastodon.social": [
            {"week": "2022-W43", "statuses": 5, "logins": 2, "registrations": 1}
        ]
    }
    ds.trends = {"Mastodon": [("2022-10-28", 100)]}
    return ds


class TestMicros:
    def test_round_trip_exact(self):
        moment = dt.datetime(2022, 10, 27, 23, 59, 59, 123456)
        assert _from_micros(_to_micros(moment)) == moment

    def test_pre_epoch(self):
        moment = dt.datetime(1969, 12, 31, 23, 0, 0, 1)
        assert _from_micros(_to_micros(moment)) == moment

    def test_tz_aware_rejected(self):
        aware = dt.datetime(2022, 10, 27, tzinfo=dt.timezone.utc)
        with pytest.raises(ValueError, match="naive"):
            _to_micros(aware)

    @given(st.lists(st.integers(min_value=_MIN_MICROS, max_value=_MAX_MICROS)))
    def test_vectorised_conversion_equals_scalar(self, micros):
        converted = _datetimes(np.asarray(micros, dtype=np.int64))
        assert converted == [_from_micros(us) for us in micros]
        assert all(type(moment) is dt.datetime for moment in converted)

    def test_range_ends(self):
        assert _from_micros(_MIN_MICROS) == dt.datetime.min
        assert _from_micros(_MAX_MICROS) == dt.datetime.max


class TestRoundTrip:
    def test_npz_round_trip_equal(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        restored = MigrationDataset.load(path)
        assert restored == ds

    def test_cross_format_equal(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        ds.save(tmp_path / "a.json")
        ds.save(tmp_path / "a.npz")
        from_json = MigrationDataset.load(tmp_path / "a.json")
        from_npz = MigrationDataset.load(tmp_path / "a.npz")
        assert from_json == from_npz

    def test_empty_timeline_preserved(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        restored = MigrationDataset.load(path)
        assert restored.twitter_timelines[2] == []
        assert list(restored.twitter_timelines) == [1, 2, 3]

    def test_derived_fields_rebuilt(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        restored = MigrationDataset.load(path)
        assert restored.twitter_timelines[1][0].hashtags == ["world"]
        assert restored.collected_tweets[0].hashtags == ["TwitterMigration"]

    def test_boost_round_trip(self, tiny_dataset, tmp_path):
        from repro.fediverse.models import Status

        ds = fill(tiny_dataset)
        ds.mastodon_timelines[1].append(
            Status(
                status_id=9,
                account_acct="alice@mastodon.social",
                created_at=dt.datetime(2022, 11, 6, 8, 30),
                text="RT of someone",
                reblog_of_id=1234,
            )
        )
        path = tmp_path / "dataset.npz"
        ds.save(path)
        restored = MigrationDataset.load(path)
        boost = restored.mastodon_timelines[1][-1]
        assert boost.reblog_of_id == 1234
        assert boost.is_boost

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = MigrationDataset()
        path = tmp_path / "empty.npz"
        ds.save(path)
        assert MigrationDataset.load(path) == ds

    def test_format_version_check(self, tiny_dataset, tmp_path):
        import json

        import numpy as np

        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"]).decode("utf-8"))
        header["format_version"] = 99
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="format"):
            MigrationDataset.load(bad)
        with pytest.raises(DatasetFormatError, match="format"):
            MigrationDataset.load(bad, lazy=True)

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_truncated_archive_is_a_format_error(
        self, tiny_dataset, tmp_path, lazy
    ):
        path = tmp_path / "dataset.npz"
        fill(tiny_dataset).save(path)
        half = tmp_path / "half.npz"
        half.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DatasetFormatError):
            MigrationDataset.load(half, lazy=lazy)

    def test_lazy_column_fetch_from_damaged_archive(
        self, tiny_dataset, tmp_path
    ):
        path = tmp_path / "dataset.npz"
        fill(tiny_dataset).save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DatasetFormatError):
            lazy.twitter_timelines

    def test_suffix_dispatch(self, tiny_dataset, tmp_path):
        import zipfile

        ds = fill(tiny_dataset)
        npz = tmp_path / "x.npz"
        js = tmp_path / "x.json"
        ds.save(npz)
        ds.save(js)
        assert zipfile.is_zipfile(npz)  # npz files are zip archives
        assert js.read_text().startswith("{")


def resave(path, tmp_path, mutate):
    """A copy of the archive at ``path`` with ``mutate(arrays)`` applied."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    mutate(arrays)
    bad = tmp_path / "bad.npz"
    with open(bad, "wb") as handle:
        np.savez(handle, **arrays)
    return bad


def _set(name, change):
    def mutate(arrays):
        arrays[name] = change(arrays[name])

    return mutate


#: Damage the loader must reject: (field it lands in, mutation, message).
CORRUPTIONS = {
    "ids_short": (
        "twitter_timelines",
        _set("tw_ids", lambda a: a[:-1]),
        "tw_authors has 3 rows, tw_ids 2",
    ),
    "counts_plus_one": (
        "twitter_timelines",
        _set("tw_counts", lambda a: a + 1),
        "tw_counts do not partition",
    ),
    "offsets_doubled": (
        "twitter_timelines",
        _set("tw_text_offsets", lambda a: a * 2),
        "tw_text_offsets do not cut the text blob",
    ),
    "blob_leading_ff": (
        "twitter_timelines",
        _set(
            "tw_text_blob",
            lambda a: np.concatenate([np.array([0xFF], dtype=np.uint8), a]),
        ),
        "tw_text_blob is not UTF-8",
    ),
    "label_ids_out_of_range": (
        "twitter_timelines",
        _set("tw_label_ids", lambda a: a + 1000),
        "tw_label_ids fall outside",
    ),
    "no_reblogs": (
        "mastodon_timelines",
        lambda arrays: arrays.pop("ma_reblogs"),
        "missing column ma_reblogs",
    ),
    "acct_ids_out_of_range": (
        "mastodon_timelines",
        _set("ma_authors", lambda a: a + 5),
        "ma_authors fall outside",
    ),
    "labels_not_first_seen": (
        "mastodon_timelines",
        _set("ma_label_ids", lambda a: 1 - a),
        "ma_label_ids do not number their vocabulary in first-seen order",
    ),
    "micros_past_datetime_max": (
        "mastodon_timelines",
        _set("ma_micros", lambda a: a + (_MAX_MICROS - int(a.min()) + 1)),
        "ma_micros fall outside datetime's range",
    ),
    "counts_negative": (
        "mastodon_timelines",
        _set("ma_counts", lambda a: a * np.array([-1, 3])),
        "ma_counts do not partition",
    ),
    "uid_repeated": (
        "mastodon_timelines",
        _set("ma_uids", lambda a: a * 0),
        "ma_uids repeat a timeline owner",
    ),
    "float_micros": (
        "collected_tweets",
        _set("ct_micros", lambda a: a.astype(float)),
        "column ct_micros has dtype float64",
    ),
}


class TestDamagedColumns:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_eager_load_rejects(self, case, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        fill(tiny_dataset).save(path)
        _, mutate, message = CORRUPTIONS[case]
        bad = resave(path, tmp_path, mutate)
        with pytest.raises(DatasetFormatError, match=message):
            MigrationDataset.load(bad)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_lazy_field_rejects(self, case, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        fill(tiny_dataset).save(path)
        field, mutate, message = CORRUPTIONS[case]
        lazy = MigrationDataset.load(resave(path, tmp_path, mutate), lazy=True)
        with pytest.raises(DatasetFormatError, match=message):
            getattr(lazy, field)

    def test_the_undamaged_copy_loads(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        ds = fill(tiny_dataset)
        ds.save(path)
        assert MigrationDataset.load(resave(path, tmp_path, dict)) == ds

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda h: {k: v for k, v in h.items() if k != "matched"}, "header"),
            (lambda header: [header], "unsupported binary dataset format"),
        ],
        ids=["field_missing", "not_an_object"],
    )
    def test_damaged_header(self, damage, message, tiny_dataset, tmp_path):
        import json

        path = tmp_path / "dataset.npz"
        fill(tiny_dataset).save(path)

        def rewrite(arrays):
            header = damage(json.loads(bytes(arrays["header"]).decode("utf-8")))
            arrays["header"] = np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8
            )

        bad = resave(path, tmp_path, rewrite)
        for lazy in (False, True):
            with pytest.raises(DatasetFormatError, match=message):
                MigrationDataset.load(bad, lazy=lazy)


def slots_of(post) -> dict:
    """Every dataclass slot, the ``compare=False`` ones included."""
    return {f.name: getattr(post, f.name) for f in dataclasses.fields(post)}


class TestColumnTimelines:
    @pytest.fixture
    def saved(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        ds.twitter_timelines[3].append(
            make_tweet(
                30, 3, dt.date(2022, 11, 7),
                "see https://Social.Example.com:443/x and http://a.b #Tag #tag",
            )
        )
        ds.mastodon_timelines[3].append(
            Status(
                status_id=31,
                account_acct="carol@mastodon.social",
                created_at=dt.datetime(2022, 11, 8, 9, 15, 30, 250),
                text="boosting #hidden",
                reblog_of_id=77,
            )
        )
        path = tmp_path / "dataset.npz"
        ds.save(path)
        return ds, path

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_keys_build_no_post(self, saved, lazy):
        ds, path = saved
        loaded = MigrationDataset.load(path, lazy=lazy)
        for name in ("twitter_timelines", "mastodon_timelines"):
            timelines = getattr(loaded, name)
            assert isinstance(timelines, ColumnTimelines)
            assert len(timelines) == len(getattr(ds, name))
            assert list(timelines) == list(getattr(ds, name))
            assert 3 in timelines and 99 not in timelines
            assert timelines.keys() == getattr(ds, name).keys()
            assert timelines.built_count == 0
            assert timelines.columns is not None

    def test_reading_a_value_builds_that_uid_only(self, saved):
        ds, path = saved
        timelines = MigrationDataset.load(path).twitter_timelines
        posts = timelines[1]
        assert timelines.built_count == 1
        assert timelines[1] is posts
        assert timelines.get(99) is None
        assert timelines.built_count == 1
        # a handed-out list may be changed, so the columns stop speaking
        assert timelines.columns is None
        with pytest.raises(KeyError):
            timelines[99]

    def test_every_slot_equals_the_constructed_post(self, saved):
        ds, path = saved
        loaded = MigrationDataset.load(path)
        for uid, tweets in ds.twitter_timelines.items():
            expected = [
                Tweet(
                    tweet_id=t.tweet_id,
                    author_id=t.author_id,
                    created_at=t.created_at,
                    text=t.text,
                    source=t.source,
                    is_retweet=t.is_retweet,
                )
                for t in tweets
            ]
            got = loaded.twitter_timelines[uid]
            assert [slots_of(t) for t in got] == [slots_of(t) for t in expected]
        for uid, statuses in ds.mastodon_timelines.items():
            expected = [
                Status(
                    status_id=s.status_id,
                    account_acct=s.account_acct,
                    created_at=s.created_at,
                    text=s.text,
                    application=s.application,
                    reblog_of_id=s.reblog_of_id,
                )
                for s in statuses
            ]
            got = loaded.mastodon_timelines[uid]
            assert [slots_of(s) for s in got] == [slots_of(s) for s in expected]
        assert [slots_of(t) for t in loaded.collected_tweets] == [
            slots_of(t) for t in ds.collected_tweets
        ]

    def test_equal_to_plain_dicts_both_ways(self, saved):
        ds, path = saved
        loaded = MigrationDataset.load(path)
        assert loaded.twitter_timelines == ds.twitter_timelines
        assert ds.twitter_timelines == loaded.twitter_timelines
        assert ds.mastodon_timelines == loaded.mastodon_timelines
        other = dict(ds.mastodon_timelines)
        other.pop(3)
        assert loaded.mastodon_timelines != other
        assert other != loaded.mastodon_timelines
        assert loaded.mastodon_timelines != {}

    @pytest.mark.parametrize(
        "write",
        [
            lambda tl: tl.__setitem__(9, []),
            lambda tl: tl.__delitem__(1),
            lambda tl: tl.pop(3),
            lambda tl: tl.setdefault(8, []),
            lambda tl: tl.update({1: []}),
        ],
        ids=["set", "del", "pop", "setdefault", "update"],
    )
    def test_write_materialises_first(self, saved, write):
        ds, path = saved
        timelines = MigrationDataset.load(path).twitter_timelines
        expected = dict(ds.twitter_timelines)
        write(timelines)
        write(expected)
        assert timelines.columns is None
        assert timelines.built_count == len(expected)
        assert dict(timelines) == expected
        assert list(timelines) == list(expected)


class TestLazyLoading:
    def test_lazy_defers_the_three_corpora(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        assert lazy.lazy_pending == (
            "collected_tweets",
            "mastodon_timelines",
            "twitter_timelines",
        )

    def test_header_fields_available_before_materialising(
        self, tiny_dataset, tmp_path
    ):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        assert lazy.matched.keys() == ds.matched.keys()
        assert lazy.instance_domains == ds.instance_domains
        assert lazy.trends == ds.trends
        assert len(lazy.lazy_pending) == 3  # nothing forced yet

    def test_fields_materialise_independently_on_access(
        self, tiny_dataset, tmp_path
    ):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        assert len(lazy.collected_tweets) == len(ds.collected_tweets)
        assert lazy.lazy_pending == ("mastodon_timelines", "twitter_timelines")
        assert list(lazy.twitter_timelines) == list(ds.twitter_timelines)
        assert lazy.lazy_pending == ("mastodon_timelines",)

    def test_lazy_equals_eager_content(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        eager = MigrationDataset.load(path)
        # dataclass __eq__ requires identical classes; content compares
        # through the canonical JSON form
        assert lazy.to_json() == eager.to_json()
        assert lazy.lazy_pending == ()

    def test_assignment_cancels_laziness(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        lazy.collected_tweets = []
        assert "collected_tweets" not in lazy.lazy_pending
        assert lazy.collected_tweets == []

    def test_lazy_is_a_migration_dataset(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.npz"
        ds.save(path)
        lazy = MigrationDataset.load(path, lazy=True)
        assert isinstance(lazy, MigrationDataset)
        # derived products still work (and force materialisation)
        assert lazy.instance_populations() == ds.instance_populations()

    def test_json_load_ignores_lazy_flag(self, tiny_dataset, tmp_path):
        ds = fill(tiny_dataset)
        path = tmp_path / "dataset.json"
        ds.save(path)
        loaded = MigrationDataset.load(path, lazy=True)
        assert loaded == ds
