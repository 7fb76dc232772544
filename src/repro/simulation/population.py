"""Population synthesis: Twitter users, agents, and fediverse instances.

Creates three tiers of Twitter users:

- **candidates** (the at-risk pool): fully detailed agents with followee
  lists; the contagion model decides which of them migrate;
- **hubs**: high-profile accounts that dominate followee lists but rarely
  migrate;
- **chatter**: users who tweet migration keywords without ever migrating
  (the paper collected 2.09M keyword tweets from 1.02M users but matched
  only 136k migrants).

And the fediverse side: a directory of instances mixing real flagship
domains with a synthetic long tail, each carrying a topic and a Zipf
attractiveness weight.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from repro.fediverse.network import FediverseNetwork
from repro.nlp.vocabulary import TOPICS
from repro.simulation.config import SimConfig
from repro.twitter.clients import OFFICIAL_SOURCES, THIRD_PARTY_SOURCES
from repro.twitter.graph import FollowGraph
from repro.twitter.models import TwitterUser
from repro.twitter.store import TwitterStore
from repro.util.distributions import lognormal_int, zipf_weights
from repro.util.ids import SnowflakeGenerator


@dataclass(slots=True)
class SimUser:
    """The simulator's view of one Twitter user (superset of the API view)."""

    user_id: int
    username: str
    role: str  # 'candidate' | 'hub' | 'chatter'
    topic_mixture: np.ndarray
    main_topic: str
    ideology: float  # anti-takeover sentiment in [0, 1]
    engagement: float  # activity percentile in [0, 1]
    tweet_rate: float  # tweets/day
    status_rate: float  # statuses/day once migrated
    toxicity_twitter: float  # per-tweet toxic probability
    toxicity_mastodon: float
    is_lurker: bool
    mirror_rate: float  # probability a status paraphrases a recent tweet
    crossposter: str | None
    announce_via: str  # 'bio' | 'tweet'
    announce_style: str  # 'acct' | 'url'
    same_username: bool
    preferred_source: str
    # dynamic state, filled during simulation:
    migrated: bool = False
    migration_day: _dt.date | None = None
    mastodon_username: str | None = None
    first_username: str | None = None
    current_instance: str | None = None
    first_instance: str | None = None
    second_instance: str | None = None
    switch_day: _dt.date | None = None
    pre_takeover_account: bool = False
    #: whether the user imports their follow list on migration
    rewires_follows: bool = True
    #: whether other migrants can find (and follow) the new account
    discoverable: bool = True
    #: whether the user runs their own single-user instance
    self_hosted: bool = False
    mastodon_created: _dt.datetime | None = None
    recent_tweets: list[str] = field(default_factory=list)

    @property
    def mastodon_acct(self) -> str | None:
        if self.mastodon_username is None or self.current_instance is None:
            return None
        return f"{self.mastodon_username}@{self.current_instance}"

    @property
    def first_acct(self) -> str | None:
        username = self.first_username or self.mastodon_username
        if username is None or self.first_instance is None:
            return None
        return f"{username}@{self.first_instance}"


@dataclass(frozen=True)
class InstanceSpec:
    """Static description of one directory instance."""

    domain: str
    topic: str
    weight: float  # Zipf attractiveness
    flagship: bool
    created_at: _dt.date
    software: str = "mastodon"  # or "pleroma"


#: Real flagship/topical domains (rank order approximates real popularity).
NAMED_INSTANCES: tuple[tuple[str, str, bool], ...] = (
    ("mastodon.social", "general", True),
    ("mastodon.online", "general", True),
    ("mstdn.social", "general", True),
    ("mas.to", "general", True),
    ("mastodon.world", "general", True),
    ("mastodon.cloud", "general", True),
    ("fosstodon.org", "tech", False),
    ("hachyderm.io", "tech", False),
    ("infosec.exchange", "tech", False),
    ("techhub.social", "tech", False),
    ("sigmoid.social", "science", False),
    ("historians.social", "science", False),
    ("mastodon.gamedev.place", "gaming", False),
    ("mastodonapp.uk", "news", False),
    ("universeodon.com", "general", False),
    ("mastodon.art", "art", False),
    ("photog.social", "art", False),
    ("journa.host", "news", False),
    ("newsie.social", "news", False),
    ("musician.social", "entertainment", False),
    ("metalhead.club", "entertainment", False),
    ("kolektiva.social", "politics", False),
    ("union.place", "politics", False),
    ("sportsdon.social", "sports", False),
    ("mastodon.scot", "general", False),
    ("toot.community", "general", False),
    ("mstdn.party", "general", False),
    ("masto.ai", "tech", False),
    ("wandering.shop", "entertainment", False),
    ("scholar.social", "science", False),
)

_SYNTH_WORDS = (
    "toot", "fedi", "social", "town", "cafe", "garden", "space", "hub", "nest",
    "grove", "harbor", "plaza", "commons", "village", "lounge", "corner", "den",
    "meadow", "port", "dock", "forge", "studio", "archive", "salon", "observatory",
)
_SYNTH_TLDS = ("social", "online", "club", "city", "community", "network", "zone")

#: Topics an instance can specialise in (mirrors the content topics).
_INSTANCE_TOPICS = tuple(t.name for t in TOPICS if t.name != "fediverse") + ("general",)


def generate_instances(config: SimConfig, rng: np.random.Generator) -> list[InstanceSpec]:
    """The instance directory: named flagships plus a synthetic long tail."""
    n = config.n_directory_instances
    weights = zipf_weights(n, config.instance_zipf_exponent)
    specs: list[InstanceSpec] = []
    used: set[str] = set()
    for rank in range(n):
        software = "mastodon"
        if rank < len(NAMED_INSTANCES):
            domain, topic, flagship = NAMED_INSTANCES[rank]
        else:
            word = _SYNTH_WORDS[rank % len(_SYNTH_WORDS)]
            tld = _SYNTH_TLDS[(rank // len(_SYNTH_WORDS)) % len(_SYNTH_TLDS)]
            domain = f"{word}-{rank}.{tld}"
            topic = str(rng.choice(_INSTANCE_TOPICS))
            flagship = False
            # part of the long tail runs Pleroma (ActivityPub interop, §2)
            if rng.random() < config.pleroma_fraction:
                software = "pleroma"
        if domain in used:
            raise ValueError(f"duplicate instance domain {domain}")
        used.add(domain)
        age_days = int(rng.integers(60, 2200))
        created = _dt.date(2022, 10, 26) - _dt.timedelta(days=age_days)
        specs.append(
            InstanceSpec(
                domain=domain,
                topic=topic,
                weight=float(weights[rank]),
                flagship=flagship,
                created_at=created,
                software=software,
            )
        )
    return specs


def register_instances(network: FediverseNetwork, specs: list[InstanceSpec]) -> None:
    for spec in specs:
        network.create_instance(
            spec.domain,
            title=spec.domain.split(".")[0].title(),
            topic=spec.topic,
            created_at=spec.created_at,
            software=spec.software,
        )


_USERNAME_STEMS = (
    "aurora", "badger", "cedar", "delta", "ember", "falcon", "gale", "harbor",
    "iris", "juniper", "kestrel", "lumen", "maple", "nova", "orchid", "pepper",
    "quartz", "raven", "sable", "tundra", "umber", "vesper", "willow", "xenon",
    "yarrow", "zephyr", "birch", "comet", "dune", "fable",
)


def _username(rng: np.random.Generator, index: int) -> str:
    stem = _USERNAME_STEMS[int(rng.integers(0, len(_USERNAME_STEMS)))]
    return f"{stem}_{index}"


def _account_created(rng: np.random.Generator, config: SimConfig) -> _dt.datetime:
    """Twitter account creation date; median age matches the paper's 11.5y."""
    age_years = float(
        np.clip(rng.lognormal(np.log(config.median_account_age_years), 0.45), 0.2, 16.0)
    )
    created = _dt.datetime.combine(config.start, _dt.time(12, 0)) - _dt.timedelta(
        days=age_years * 365.25
    )
    return created


def _topic_mixture(rng: np.random.Generator) -> np.ndarray:
    """Per-user topic mixture, biased by each topic's Twitter prevalence."""
    alphas = np.array([0.25 * t.twitter_weight for t in TOPICS])
    return rng.dirichlet(alphas)


_SOURCE_POOL = tuple(s.name for s in OFFICIAL_SOURCES) + tuple(
    s.name for s in THIRD_PARTY_SOURCES[:8]
)
_SOURCE_WEIGHTS = zipf_weights(len(_SOURCE_POOL), 1.15)


class PopulationBuilder:
    """Builds the Twitter population and agents for one world."""

    def __init__(self, config: SimConfig, rng: np.random.Generator) -> None:
        self._config = config
        self._rng = rng
        self._ids = SnowflakeGenerator(shard=1)
        self._index = 0

    def build(
        self, store: TwitterStore, graph: FollowGraph
    ) -> tuple[dict[int, SimUser], list[int], list[int], list[int]]:
        """Populate ``store``/``graph``.

        Returns ``(agents, candidate_ids, hub_ids, chatter_ids)`` where
        ``agents`` maps every tracked user id to its :class:`SimUser`.
        """
        config = self._config
        rng = self._rng
        agents: dict[int, SimUser] = {}

        hub_ids = [self._new_user(store, role="hub", agents=agents) for _ in range(config.n_hubs)]
        candidate_ids = [
            self._new_user(store, role="candidate", agents=agents)
            for _ in range(config.n_at_risk)
        ]
        chatter_ids = [
            self._new_user(store, role="chatter", agents=agents)
            for _ in range(config.n_chatter)
        ]
        # General population: plain TwitterUsers, no agents (edge targets only).
        general_ids = []
        n_general = max(
            0, config.n_population - len(hub_ids) - len(candidate_ids) - len(chatter_ids)
        )
        for _ in range(n_general):
            general_ids.append(self._new_plain_user(store))

        self._wire_followees(graph, candidate_ids, hub_ids, general_ids, agents)
        self._fill_profile_counts(store, graph, agents, hub_ids)
        return agents, candidate_ids, hub_ids, chatter_ids

    # -- user creation ------------------------------------------------------------

    def _new_plain_user(self, store: TwitterStore) -> int:
        rng = self._rng
        config = self._config
        created = _account_created(rng, config)
        # accounts predating the snowflake epoch (2010) had small sequential
        # ids in reality; clamping the id timestamp keeps ids sortable enough
        id_stamp = max(
            created, _dt.datetime(2010, 11, 5) + _dt.timedelta(seconds=self._index)
        )
        user = TwitterUser(
            user_id=self._ids.next_id(id_stamp),
            username=_username(rng, self._index),
            display_name=f"User {self._index}",
            created_at=created,
        )
        self._index += 1
        store.add_user(user)
        return user.user_id

    def _new_user(self, store: TwitterStore, role: str, agents: dict[int, SimUser]) -> int:
        rng = self._rng
        config = self._config
        user_id = self._new_plain_user(store)
        user = store.get_user(user_id)
        if role == "hub":
            user.verified = rng.random() < 0.35
        else:
            user.verified = rng.random() < config.verified_fraction

        mixture = _topic_mixture(rng)
        main_topic = TOPICS[int(np.argmax(mixture))].name
        engagement = float(rng.random())
        tweet_rate = float(
            np.clip(rng.lognormal(np.log(config.tweet_rate_mean * 0.6), 0.9), 0.05, 40.0)
        )
        status_rate = float(
            np.clip(
                rng.lognormal(np.log(config.status_rate_mean * 0.55), 0.9), 0.03, 30.0
            )
            * (0.3 + 1.4 * engagement)
        )
        is_lurker = rng.random() < config.lurker_fraction
        # heavier posters skew slightly more toxic, so the corpus-level toxic
        # share (paper: 5.49%) exceeds the per-user mean (4.02%)
        rate_factor = 0.7 + 0.6 * min(2.5, tweet_rate / config.tweet_rate_mean)
        tox_tw = float(
            rng.beta(
                config.toxicity_concentration,
                config.toxicity_concentration
                * (1.0 - config.twitter_toxicity_mean)
                / config.twitter_toxicity_mean,
            )
        ) * rate_factor
        tox_tw = min(1.0, tox_tw)
        ma_factor = 0.75 + 0.45 * min(2.0, status_rate / config.status_rate_mean)
        tox_ma = min(
            1.0,
            float(
                rng.beta(
                    config.toxicity_concentration,
                    config.toxicity_concentration
                    * (1.0 - config.mastodon_toxicity_mean)
                    / config.mastodon_toxicity_mean,
                )
            )
            * ma_factor,
        )
        crossposter: str | None = None
        if role == "candidate" and rng.random() < config.crossposter_fraction:
            crossposter = (
                "Moa Bridge" if rng.random() < 0.55 else "Mastodon Twitter Crossposter"
            )
        mirror_rate = 0.0
        if rng.random() < config.paraphraser_fraction:
            mirror_rate = float(rng.beta(6, 2)) * config.paraphrase_rate
        announce_via = "bio" if rng.random() < config.announce_bio_fraction else "tweet"
        announce_style = (
            "acct" if rng.random() < config.announce_acct_style_fraction else "url"
        )
        source = str(rng.choice(_SOURCE_POOL, p=_SOURCE_WEIGHTS))
        agents[user_id] = SimUser(
            user_id=user_id,
            username=user.username,
            role=role,
            topic_mixture=mixture,
            main_topic=main_topic,
            ideology=float(rng.beta(2.2, 2.2)),
            engagement=engagement,
            tweet_rate=tweet_rate,
            status_rate=0.0 if is_lurker else status_rate,
            toxicity_twitter=tox_tw,
            toxicity_mastodon=tox_ma,
            is_lurker=is_lurker,
            mirror_rate=mirror_rate,
            crossposter=crossposter,
            announce_via=announce_via,
            announce_style=announce_style,
            same_username=rng.random() < config.same_username_fraction,
            preferred_source=source,
        )
        return user_id

    # -- graph wiring ----------------------------------------------------------------

    def _wire_followees(
        self,
        graph: FollowGraph,
        candidate_ids: list[int],
        hub_ids: list[int],
        general_ids: list[int],
        agents: dict[int, SimUser],
    ) -> None:
        """Followee lists for candidates (the only lists ever crawled)."""
        config = self._config
        rng = self._rng
        hub_arr = np.array(hub_ids)
        cand_arr = np.array(candidate_ids)
        general_arr = np.array(general_ids) if general_ids else cand_arr
        hub_weights = zipf_weights(len(hub_arr), 1.1)
        # Dedicated (high-engagement) users attract more followers; this is
        # what gives single-user-instance owners their larger ego networks.
        cand_weights = np.array(
            [0.15 + agents[uid].engagement ** 3 for uid in candidate_ids]
        )
        cand_weights = cand_weights / cand_weights.sum()
        for user_id in candidate_ids:
            agent = agents[user_id]
            degree = int(
                lognormal_int(
                    rng,
                    median=config.twitter_median_followees
                    * (0.35 + 1.3 * agent.engagement),
                    sigma=config.twitter_followees_sigma,
                    minimum=1,
                )
            )
            degree = max(1, min(degree, len(cand_arr) + len(general_arr) - 1))
            n_hub = int(round(degree * config.hub_followee_share))
            # candidate share varies per user: some ego networks contain no
            # would-be migrants at all (paper: 3.94% of users saw none of
            # their followees migrate)
            if rng.random() < 0.03:
                cand_share = 0.0
            else:
                cand_share = config.at_risk_followee_share * 2.0 * float(rng.beta(3, 3))
            n_cand = int(round(degree * cand_share))
            n_general = max(0, degree - n_hub - n_cand)
            targets: set[int] = set()
            if n_hub and len(hub_arr):
                picks = rng.choice(hub_arr, size=min(n_hub, len(hub_arr)),
                                   replace=False, p=hub_weights)
                targets.update(int(t) for t in picks)
            if n_cand:
                picks = rng.choice(
                    cand_arr, size=min(n_cand, len(cand_arr)), replace=False,
                    p=cand_weights,
                )
                targets.update(int(t) for t in picks)
            if n_general and len(general_arr):
                picks = rng.choice(general_arr, size=min(n_general, len(general_arr)),
                                   replace=False)
                targets.update(int(t) for t in picks)
            targets.discard(user_id)
            for target in targets:
                graph.follow(user_id, target)

    def _fill_profile_counts(
        self,
        store: TwitterStore,
        graph: FollowGraph,
        agents: dict[int, SimUser],
        hub_ids: list[int],
    ) -> None:
        """Profile ``followers_count``/``following_count`` for tracked users.

        Following counts equal the real graph out-degree (consistency with
        the followee crawl); follower counts are profile metadata drawn from
        a lognormal correlated with the following count, matching how the
        paper read both numbers from the user object.
        """
        config = self._config
        rng = self._rng
        hub_set = set(hub_ids)
        for user_id, agent in agents.items():
            user = store.get_user(user_id)
            following = graph.followee_count(user_id)
            if following == 0 and agent.role != "candidate":
                following = int(
                    lognormal_int(rng, config.twitter_median_followees, 0.9, minimum=0)
                )
            base = max(1.0, following * config.follower_to_followee_ratio)
            followers = int(lognormal_int(rng, base, 0.75, minimum=0))
            if user_id in hub_set:
                followers = int(followers * rng.integers(50, 500))
            user.followers_count = followers
            user.following_count = following
