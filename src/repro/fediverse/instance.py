"""A single Mastodon instance.

Each instance is an independent micro-blogging service (Section 2): it owns
its local accounts and their statuses, maintains the three timelines, counts
weekly activity, and participates in federation through activities delivered
by the :class:`repro.fediverse.network.FediverseNetwork`.
"""

from __future__ import annotations

import datetime as _dt
import zlib
from collections.abc import Iterator

from repro.errors import AccountNotFoundError, DuplicateAccountError
from repro.fediverse.activitypub import make_acct, parse_acct
from repro.fediverse.models import Account, InstanceInfo, Status, WeeklyActivity
from repro.fediverse.policy import ContentPolicy
from repro.util.clock import iso_week
from repro.util.ids import SnowflakeGenerator
from repro.util.text import extract_hashtags


class MastodonInstance:
    """One federated micro-blogging server.

    Follow state is stored on the *followee's* home instance (who follows my
    locals) and on the *follower's* home instance (whom do my locals follow),
    mirroring how real Mastodon materialises both edges.
    """

    #: NodeInfo software name (Pleroma subclass overrides).
    software = "mastodon"
    #: the statuses endpoint's default page size
    statuses_page_size = 40

    def __init__(
        self,
        domain: str,
        title: str = "",
        topic: str = "general",
        created_at: _dt.date = _dt.date(2016, 10, 6),
        open_registrations: bool = True,
    ) -> None:
        self.domain = domain.lower()
        self.title = title or self.domain
        self.topic = topic
        self.created_at = created_at
        self.open_registrations = open_registrations
        self.down = False
        #: MRF-style federation filter (open by default)
        self.policy = ContentPolicy()

        shard = zlib.crc32(self.domain.encode()) & 0x3FF
        self._ids = SnowflakeGenerator(shard=shard)
        self._accounts: dict[str, Account] = {}  # local username (lower) -> Account
        self._statuses: dict[int, Status] = {}  # local statuses by id
        self._statuses_by_account: dict[str, list[int]] = {}  # acct -> local status ids
        self._original_ids_by_account: dict[str, list[int]] = {}  # ...non-boosts only
        self._remote_statuses: dict[int, Status] = {}  # statuses pushed by federation
        # follow edges seen from this instance:
        self._following: dict[str, set[str]] = {}  # local acct -> accts they follow
        self._followers: dict[str, set[str]] = {}  # local acct -> accts following them
        # any acct -> {local follower acct -> that follower's home list};
        # federation appends into the referenced lists directly, one status
        # delivery being a straight walk over the dict values
        self._followed_by_locals: dict[str, dict[str, list[int]]] = {}
        # local acct -> remote follower domain -> follower count (kept
        # incrementally: federation consults this on every status post)
        self._remote_domains: dict[str, dict[str, int]] = {}
        # local acct -> {local follower acct -> that follower's home list};
        # post_status appends to each referenced list directly instead of
        # re-testing every follower for local-ness per status
        self._follower_homes: dict[str, dict[str, list[int]]] = {}
        # timelines:
        self._home: dict[str, list[int]] = {}  # local acct -> status ids
        self._local_timeline: list[int] = []
        self._federated_timeline: list[int] = []
        self._activity: dict[str, WeeklyActivity] = {}

    # -- directory ---------------------------------------------------------

    def info(self) -> InstanceInfo:
        return InstanceInfo(
            domain=self.domain,
            title=self.title,
            topic=self.topic,
            open_registrations=self.open_registrations,
            created_at=self.created_at,
        )

    # -- accounts ------------------------------------------------------------

    def register(
        self,
        username: str,
        display_name: str = "",
        note: str = "",
        when: _dt.datetime | None = None,
    ) -> Account:
        """Create a local account and count the registration."""
        key = username.lower()
        if key in self._accounts:
            raise DuplicateAccountError(f"{username}@{self.domain} already exists")
        when = when if when is not None else _dt.datetime(2022, 10, 1)
        account = Account(
            account_id=self._ids.next_id(when),
            username=username,
            domain=self.domain,
            display_name=display_name or username,
            created_at=when,
            note=note,
        )
        self._accounts[key] = account
        acct = account.acct
        self._statuses_by_account[acct] = []
        self._original_ids_by_account[acct] = []
        self._following[acct] = set()
        self._followers[acct] = set()
        self._remote_domains[acct] = {}
        self._follower_homes[acct] = {}
        self._home[acct] = []
        self._week(when.date()).registrations += 1
        return account

    def get_account(self, username: str) -> Account:
        try:
            return self._accounts[username.lower()]
        except KeyError:
            raise AccountNotFoundError(f"{username}@{self.domain} not found") from None

    def has_account(self, username: str) -> bool:
        return username.lower() in self._accounts

    def accounts(self) -> Iterator[Account]:
        return iter(self._accounts.values())

    @property
    def user_count(self) -> int:
        return len(self._accounts)

    def active_user_count(self) -> int:
        """Accounts that have not moved away."""
        return sum(1 for account in self._accounts.values() if not account.has_moved)

    # -- follows -------------------------------------------------------------

    def record_following(self, local_acct: str, target_acct: str) -> bool:
        """Record that a local account follows ``target_acct``."""
        self._require_local(local_acct)
        if local_acct == target_acct:
            raise ValueError(f"{local_acct} cannot follow itself")
        followees = self._following[local_acct]
        if target_acct in followees:
            return False
        followees.add(target_acct)
        self._followed_by_locals.setdefault(target_acct, {})[local_acct] = self._home[
            local_acct
        ]
        return True

    def record_follower(self, local_acct: str, follower_acct: str) -> bool:
        """Record that ``follower_acct`` (possibly remote) follows a local account."""
        self._require_local(local_acct)
        followers = self._followers[local_acct]
        if follower_acct in followers:
            return False
        followers.add(follower_acct)
        __, domain = parse_acct(follower_acct)
        if domain != self.domain:
            counts = self._remote_domains[local_acct]
            counts[domain] = counts.get(domain, 0) + 1
        home = self._home.get(follower_acct)
        if home is not None:
            self._follower_homes[local_acct][follower_acct] = home
        return True

    def drop_following(self, local_acct: str, target_acct: str) -> None:
        self._require_local(local_acct)
        self._following[local_acct].discard(target_acct)
        local_followers = self._followed_by_locals.get(target_acct)
        if local_followers is not None:
            local_followers.pop(local_acct, None)

    def drop_follower(self, local_acct: str, follower_acct: str) -> None:
        self._require_local(local_acct)
        followers = self._followers[local_acct]
        if follower_acct not in followers:
            return
        followers.discard(follower_acct)
        __, domain = parse_acct(follower_acct)
        if domain != self.domain:
            counts = self._remote_domains[local_acct]
            remaining = counts.get(domain, 0) - 1
            if remaining > 0:
                counts[domain] = remaining
            else:
                counts.pop(domain, None)
        self._follower_homes[local_acct].pop(follower_acct, None)

    def following_of(self, local_acct: str) -> frozenset[str]:
        self._require_local(local_acct)
        return frozenset(self._following[local_acct])

    def followers_of(self, local_acct: str) -> frozenset[str]:
        self._require_local(local_acct)
        return frozenset(self._followers[local_acct])

    def remote_follower_domains(self, local_acct: str) -> set[str]:
        """Domains subscribed to a local account's statuses.

        Maintained incrementally on follow/unfollow instead of being
        re-derived from the follower set — federation consults this once
        per posted status.
        """
        self._require_local(local_acct)
        return set(self._remote_domains[local_acct])

    # -- statuses ------------------------------------------------------------

    def post_status(
        self,
        username: str,
        text: str,
        when: _dt.datetime,
        application: str = "Web",
        reblog_of_id: int | None = None,
    ) -> Status:
        """Publish a status (or boost) by a local account.

        The status lands on the local timeline and the home timelines of
        local followers; federation to remote followers is the network's job
        (it calls :meth:`receive_remote_status` on subscriber instances).
        """
        account = self.get_account(username)
        status = Status(
            status_id=self._ids.next_id(when),
            account_acct=account.acct,
            created_at=when,
            text=text,
            application=application,
            reblog_of_id=reblog_of_id,
        )
        self._statuses[status.status_id] = status
        self._statuses_by_account[account.acct].append(status.status_id)
        if reblog_of_id is None:
            self._original_ids_by_account[account.acct].append(status.status_id)
        account.last_status_at = when
        self._local_timeline.append(status.status_id)
        sid = status.status_id
        self._home[account.acct].append(sid)
        for home in self._follower_homes[account.acct].values():
            home.append(sid)
        self._week(when.date()).statuses += 1
        return status

    def post_statuses(
        self,
        username: str,
        rows: list[tuple],
    ) -> list[Status]:
        """Publish one local account's statuses in bulk.

        ``rows`` are ``(when, text, application, reblog_of_id, hashtags,
        tokens)`` in chronological order; ``hashtags`` may carry the
        precomputed tag list (``None`` lets :class:`Status` derive it from
        the text) and ``tokens``, when not ``None``, pre-seeds the lazy
        ``Status.token_set`` cache (caller contract: it equals the regex
        derivation over the text — the federation policy screen relies on
        it).  The per-status state transitions are exactly
        :meth:`post_status`'s — the account resolution and timeline/home
        list lookups are hoisted out of the loop, which is what the
        simulation's materialiser needs: it posts each migrant's whole
        timeline per instance in one call.
        """
        account = self.get_account(username)
        acct = account.acct
        statuses_by_id = self._statuses
        by_acct = self._statuses_by_account[acct]
        originals = self._original_ids_by_account[acct]
        local_timeline = self._local_timeline
        home = self._home[acct]
        follower_homes = list(self._follower_homes[acct].values())
        next_id = self._ids.next_id
        week = self._week
        new_status = Status.__new__
        status_cls = Status
        out: list[Status] = []
        for when, text, application, reblog_of_id, hashtags, tokens in rows:
            # direct slot assignment replicating Status.__init__ +
            # __post_init__ (dataclass construction is measurable at this
            # volume): hashtags are extracted only for tagless originals
            # whose text carries a '#', exactly as __post_init__ does
            status = new_status(status_cls)
            status.status_id = sid = next_id(when)
            status.account_acct = acct
            status.created_at = when
            status.text = text
            status.application = application
            status.reblog_of_id = reblog_of_id
            if hashtags:
                status.hashtags = list(hashtags)
            elif reblog_of_id is None and "#" in text:
                status.hashtags = extract_hashtags(text)
            else:
                status.hashtags = []
            status._token_set = tokens
            statuses_by_id[sid] = status
            by_acct.append(sid)
            if reblog_of_id is None:
                originals.append(sid)
            account.last_status_at = when
            local_timeline.append(sid)
            home.append(sid)
            for follower_home in follower_homes:
                follower_home.append(sid)
            week(when.date()).statuses += 1
            out.append(status)
        return out

    def receive_remote_status(self, status: Status) -> bool:
        """Accept a federated status pushed by a remote instance.

        The instance's content policy screens it first (defederation /
        keyword rejection); admitted statuses join the federated timeline
        and the home timelines of the author's local followers — the
        Section 2 semantics: the federated timeline is the union of remote
        statuses retrieved for all locals.  Returns whether it was admitted.

        This runs once per (status, subscriber instance) pair, so the open
        policy — the overwhelmingly common case — is screened without the
        ``admits`` call.
        """
        policy = self.policy
        if (policy.blocked_domains or policy.blocked_keywords) and not policy.admits(status):
            return False
        sid = status.status_id
        remote = self._remote_statuses
        if sid not in remote:
            remote[sid] = status
            self._federated_timeline.append(sid)
        followers = self._followed_by_locals.get(status.account_acct)
        if followers:
            for home in followers.values():
                home.append(sid)
        return True

    def receive_remote_statuses(self, author_acct: str, statuses: list[Status]) -> None:
        """Accept a batch of one author's federated statuses, in order.

        Equivalent to :meth:`receive_remote_status` per status with the
        policy screen, follower lookup and timeline attribute hops hoisted
        out of the loop (all statuses share ``author_acct``, so the local
        follower set is the same for the whole batch).
        """
        policy = self.policy
        if policy.blocked_domains or policy.blocked_keywords:
            admitted = [s for s in statuses if policy.admits(s)]
        else:
            admitted = statuses
        if not admitted:
            return
        remote = self._remote_statuses
        sids = [s.status_id for s in admitted]
        fresh = [sid for sid in sids if sid not in remote]
        if fresh:
            if len(fresh) == len(sids):
                remote.update(zip(sids, admitted))
            else:  # rare duplicate delivery: keep the first-seen object
                for status in admitted:
                    remote.setdefault(status.status_id, status)
            self._federated_timeline.extend(fresh)
        followers = self._followed_by_locals.get(author_acct)
        if followers:
            for home in followers.values():
                home.extend(sids)

    def get_status(self, status_id: int) -> Status:
        status = self._statuses.get(status_id) or self._remote_statuses.get(status_id)
        if status is None:
            raise AccountNotFoundError(f"status {status_id} not on {self.domain}")
        return status

    def statuses_of(self, username: str) -> list[Status]:
        """A local account's statuses in chronological order."""
        account = self.get_account(username)
        ids = self._statuses_by_account[account.acct]
        return [self._statuses[i] for i in ids]

    def original_statuses_of(self, username: str) -> list[Status]:
        """A local account's non-boost statuses in chronological order
        (indexed at post time; the boost picker walks this per boost)."""
        account = self.get_account(username)
        ids = self._original_ids_by_account[account.acct]
        return [self._statuses[i] for i in ids]

    def status_count(self, username: str) -> int:
        account = self.get_account(username)
        return len(self._statuses_by_account[account.acct])

    # -- timelines -----------------------------------------------------------

    def home_timeline(self, username: str) -> list[Status]:
        account = self.get_account(username)
        return [self._lookup(i) for i in self._home[account.acct]]

    def local_timeline(self) -> list[Status]:
        return [self._statuses[i] for i in self._local_timeline]

    def federated_timeline(self) -> list[Status]:
        return [self._remote_statuses[i] for i in self._federated_timeline]

    # -- activity ------------------------------------------------------------

    def record_login(self, day: _dt.date) -> None:
        self._week(day).logins += 1

    def record_aggregate_activity(
        self, day: _dt.date, statuses: int = 0, logins: int = 0, registrations: int = 0
    ) -> None:
        """Inject background load into the weekly counters.

        The world simulates its tracked migrants individually but represents
        the (much larger) untracked user base — Mastodon reported 1M+
        sign-ups against the paper's 136k matched migrants — as aggregate
        counter bumps.  Only the weekly-activity endpoint sees these.
        """
        if min(statuses, logins, registrations) < 0:
            raise ValueError("aggregate activity must be non-negative")
        week = self._week(day)
        week.statuses += statuses
        week.logins += logins
        week.registrations += registrations

    def weekly_activity(self) -> list[WeeklyActivity]:
        """Rows of the weekly-activity endpoint, oldest week first."""
        return [self._activity[w] for w in sorted(self._activity)]

    # -- internals -----------------------------------------------------------

    def _week(self, day: _dt.date) -> WeeklyActivity:
        label = iso_week(day)
        if label not in self._activity:
            self._activity[label] = WeeklyActivity(week=label)
        return self._activity[label]

    def _require_local(self, acct: str) -> None:
        username, domain = parse_acct(acct)
        if domain != self.domain or username.lower() not in self._accounts:
            raise AccountNotFoundError(f"{acct} is not a local account of {self.domain}")

    def _lookup(self, status_id: int) -> Status:
        status = self._statuses.get(status_id)
        if status is None:
            status = self._remote_statuses[status_id]
        return status

    def local_acct(self, username: str) -> str:
        return make_acct(self.get_account(username).username, self.domain)

    def __repr__(self) -> str:
        return f"MastodonInstance({self.domain!r}, users={self.user_count})"
