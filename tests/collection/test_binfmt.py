"""Tests for the binary dataset format (repro.collection.binfmt)."""

import datetime as dt

import pytest

from repro.collection.binfmt import _from_micros, _to_micros
from repro.collection.dataset import MigrationDataset
from repro.errors import DatasetFormatError
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
