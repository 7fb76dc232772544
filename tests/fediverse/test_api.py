"""Tests for repro.fediverse.api (the crawler-facing client)."""

import datetime as dt

import pytest

from repro.errors import (
    AccountNotFoundError,
    InstanceDownError,
    InstanceNotFoundError,
)
from repro.fediverse.api import MastodonClient
from repro.fediverse.network import FediverseNetwork

WHEN = dt.datetime(2022, 10, 28, 12, 0)


@pytest.fixture
def setup():
    net = FediverseNetwork()
    inst = net.create_instance("crawl.me")
    other = net.create_instance("elsewhere.org")
    inst.register("alice", when=WHEN)
    other.register("bob", when=WHEN)
    net.follow("alice@crawl.me", "bob@elsewhere.org", WHEN)
    for i in range(100):
        net.post_status(
            "alice@crawl.me", f"status {i}", WHEN + dt.timedelta(minutes=i)
        )
    return net, MastodonClient(net)


class TestLookup:
    def test_lookup_account(self, setup):
        __, client = setup
        account = client.lookup_account("alice@crawl.me")
        assert account.acct == "alice@crawl.me"

    def test_unknown_account(self, setup):
        __, client = setup
        with pytest.raises(AccountNotFoundError):
            client.lookup_account("ghost@crawl.me")

    def test_unknown_instance(self, setup):
        __, client = setup
        with pytest.raises(InstanceNotFoundError):
            client.lookup_account("x@unknown.host")

    def test_down_instance_raises(self, setup):
        net, client = setup
        net.get_instance("crawl.me").down = True
        with pytest.raises(InstanceDownError):
            client.lookup_account("alice@crawl.me")

    def test_account_summary(self, setup):
        __, client = setup
        summary = client.account_summary("alice@crawl.me")
        assert summary["statuses_count"] == 100
        assert summary["following_count"] == 1
        assert summary["followers_count"] == 0
        assert summary["moved_to"] is None
        assert summary["created_at"] == WHEN


class TestStatuses:
    def test_page_is_newest_first(self, setup):
        __, client = setup
        page = client.account_statuses("alice@crawl.me")
        assert page.statuses[0].text == "status 99"
        assert len(page.statuses) == 40
        assert page.max_id is not None

    def test_pagination_walks_backwards(self, setup):
        __, client = setup
        first = client.account_statuses("alice@crawl.me")
        second = client.account_statuses("alice@crawl.me", max_id=first.max_id)
        assert second.statuses[0].status_id < first.statuses[-1].status_id

    def test_drain_all_chronological(self, setup):
        __, client = setup
        statuses = client.account_statuses_all("alice@crawl.me")
        assert len(statuses) == 100
        ids = [s.status_id for s in statuses]
        assert ids == sorted(ids)

    def test_window_filter(self, setup):
        __, client = setup
        statuses = client.account_statuses_all(
            "alice@crawl.me",
            since=dt.date(2022, 10, 28),
            until=dt.date(2022, 10, 28),
        )
        assert len(statuses) == 100  # all posted the same day

        none = client.account_statuses_all(
            "alice@crawl.me", since=dt.date(2022, 11, 5), until=dt.date(2022, 11, 6)
        )
        assert none == []

    def test_down_instance(self, setup):
        net, client = setup
        net.get_instance("crawl.me").down = True
        with pytest.raises(InstanceDownError):
            client.account_statuses("alice@crawl.me")


class TestFollowingAndActivity:
    def test_account_following(self, setup):
        __, client = setup
        assert client.account_following("alice@crawl.me") == ["bob@elsewhere.org"]

    def test_instance_activity_rows(self, setup):
        __, client = setup
        rows = client.instance_activity("crawl.me")
        assert sum(r["statuses"] for r in rows) == 100
        assert all(set(r) == {"week", "statuses", "logins", "registrations"} for r in rows)

    def test_request_counter_increases(self, setup):
        __, client = setup
        before = client.request_count
        client.instance_activity("crawl.me")
        assert client.request_count == before + 1


class TestStreamingIterators:
    def test_iter_statuses_newest_first(self, setup):
        __, client = setup
        streamed = list(client.iter_account_statuses("alice@crawl.me"))
        assert len(streamed) == 100
        ids = [s.status_id for s in streamed]
        assert ids == sorted(ids, reverse=True)

    def test_iter_matches_drained_list(self, setup):
        __, client = setup
        streamed = list(client.iter_account_statuses("alice@crawl.me"))
        drained = client.account_statuses_all("alice@crawl.me")
        assert [s.status_id for s in reversed(streamed)] == [
            s.status_id for s in drained
        ]

    def test_iter_is_lazy(self, setup):
        net, client = setup
        before = client.request_count
        iterator = client.iter_account_statuses("alice@crawl.me")
        assert client.request_count == before
        next(iterator)
        assert client.request_count == before + 1
