"""Shared fixtures.

Two tiers of test data:

- ``small_world`` / ``small_dataset`` (session-scoped): a real simulated
  world at tiny scale, shared by integration tests.  Expensive to build
  (a few seconds), so build it once.
- ``tiny_dataset`` (function-scoped): a hand-crafted
  :class:`MigrationDataset` with exactly known contents, for analyses that
  assert exact numbers.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt

import numpy as np
import pytest

from repro.collection.dataset import (
    CrawlCoverage,
    FolloweeRecord,
    MastodonAccountRecord,
    MatchedUser,
    MigrationDataset,
)
from repro.collection.pipeline import collect_dataset
from repro.fediverse.models import Status
from repro.simulation.config import SimConfig
from repro.simulation.world import World, build_world
from repro.twitter.models import Tweet

SMALL_SEED = 11
SMALL_SCALE = 0.002


@pytest.fixture(scope="session")
def small_world() -> World:
    """A fully simulated world at the smallest useful scale."""
    return build_world(SimConfig(seed=SMALL_SEED, scale=SMALL_SCALE))


@pytest.fixture(scope="session")
def small_dataset(small_world: World) -> MigrationDataset:
    """The §3 collection pipeline run against ``small_world``."""
    return collect_dataset(small_world)


@pytest.fixture(scope="session")
def small_npz(small_dataset, tmp_path_factory):
    """``small_dataset`` saved in the binary format (reload it per test)."""
    path = tmp_path_factory.mktemp("reload") / "small.npz"
    small_dataset.save(path)
    return path


def make_tweet(
    tweet_id: int,
    author_id: int,
    day: _dt.date,
    text: str,
    source: str = "Twitter Web App",
) -> Tweet:
    return Tweet(
        tweet_id=tweet_id,
        author_id=author_id,
        created_at=_dt.datetime.combine(day, _dt.time(12, 0)),
        text=text,
        source=source,
    )


def make_status(
    status_id: int,
    acct: str,
    day: _dt.date,
    text: str,
    application: str = "Web",
) -> Status:
    return Status(
        status_id=status_id,
        account_acct=acct,
        created_at=_dt.datetime.combine(day, _dt.time(12, 0)),
        text=text,
        application=application,
    )


def make_matched(
    uid: int,
    username: str,
    acct: str,
    followers: int = 100,
    following: int = 120,
    verified: bool = False,
    via: str = "metadata",
) -> MatchedUser:
    return MatchedUser(
        twitter_user_id=uid,
        twitter_username=username,
        mastodon_acct=acct,
        matched_via=via,
        verified=verified,
        twitter_created_at=_dt.datetime(2015, 6, 1, 12, 0),
        twitter_followers=followers,
        twitter_following=following,
    )


def make_account(
    acct: str,
    created: _dt.date,
    moved_to: str | None = None,
    moved_on: _dt.date | None = None,
    followers: int = 10,
    following: int = 12,
    statuses: int = 30,
) -> MastodonAccountRecord:
    return MastodonAccountRecord(
        first_acct=acct,
        first_created_at=_dt.datetime.combine(created, _dt.time(10, 0)),
        moved_to=moved_to,
        second_created_at=(
            _dt.datetime.combine(moved_on, _dt.time(10, 0)) if moved_on else None
        ),
        followers=followers,
        following=following,
        statuses=statuses,
    )


@pytest.fixture
def tiny_dataset() -> MigrationDataset:
    """A dataset with five matched users and exactly known contents.

    Layout:
    - users 1-3 on mastodon.social (user 3 joined before the takeover),
      user 4 on tiny.host (single-user instance), user 5 on art.school;
    - user 2 switched from mastodon.social to art.school on Nov 10;
    - user 1's followee sample contains users 2, 3 and two non-migrants.
    """
    ds = MigrationDataset()
    ds.instance_domains = ["art.school", "mastodon.social", "tiny.host"]
    oct28 = _dt.date(2022, 10, 28)
    oct20 = _dt.date(2022, 10, 20)
    nov1 = _dt.date(2022, 11, 1)
    nov10 = _dt.date(2022, 11, 10)

    ds.matched = {
        1: make_matched(1, "alice", "alice@mastodon.social", followers=500, following=400),
        2: make_matched(2, "bob", "bob@mastodon.social", followers=50, following=60),
        3: make_matched(3, "carol", "carol@mastodon.social", followers=80, following=90),
        4: make_matched(4, "dave", "dave@tiny.host", followers=900, following=800,
                        verified=True, via="tweet"),
        5: make_matched(5, "erin", "erin@art.school", followers=20, following=0),
    }
    ds.collected_user_count = 9
    ds.accounts = {
        1: make_account("alice@mastodon.social", oct28, followers=30, following=40,
                        statuses=50),
        2: make_account("bob@mastodon.social", oct28, moved_to="bob@art.school",
                        moved_on=nov10, followers=5, following=8, statuses=20),
        3: make_account("carol@mastodon.social", oct20, followers=12, following=0,
                        statuses=10),
        4: make_account("dave@tiny.host", nov1, followers=60, following=70,
                        statuses=200),
        5: make_account("erin@art.school", nov1, followers=0, following=4,
                        statuses=15),
    }
    ds.followee_sample = {
        1: FolloweeRecord(1, twitter_followees=(2, 3, 100, 101),
                          mastodon_following=("bob@art.school",)),
        2: FolloweeRecord(2, twitter_followees=(1, 3, 5, 102),
                          mastodon_following=("alice@mastodon.social",
                                              "erin@art.school")),
        4: FolloweeRecord(4, twitter_followees=(100, 101, 102),
                          mastodon_following=()),
    }
    ds.twitter_coverage = CrawlCoverage(ok=5)
    ds.mastodon_coverage = CrawlCoverage(ok=5)
    return ds


def assert_rows_identical(got, want) -> None:
    """Two ``EmbeddingRows`` field by field, dtypes and bytes (so a signed
    zero would show, which ``np.array_equal`` hides)."""
    assert type(got) is type(want) and got.dim == want.dim
    for name in ("data", "cols", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def deep_eq(a, b) -> bool:
    """Structural equality: arrays by dtype, shape and values, dataclasses
    and containers field by field (list/tuple types must match)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            deep_eq(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(deep_eq(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(deep_eq(x, y) for x, y in zip(a, b))
        )
    return a == b
