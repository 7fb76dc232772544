"""The world: builds both platforms and replays the migration event.

``World.simulate()`` runs in two phases:

1. **Dynamics** (day by day over the study window): the contagion model
   decides who migrates; migrators pick an instance (possibly self-hosting),
   activate or create their Mastodon account, and wire up follows with
   already-migrated neighbours; migrated users may later switch instance
   under social pull.  The per-candidate hazard test is columnar: agent
   state lives in :class:`repro.simulation.state.AgentColumns` and each
   tick draws one uniform batch per shard (per-(stage, shard) seeds from
   :func:`repro.parallel.derive_seed`) against a vectorised hazard, with
   only the *hits* walking the object-graph migration path.

2. **Content materialisation** (after the dynamics): planned on
   :class:`repro.parallel.WorldShardRunner` shards as post accumulator
   columns (:mod:`repro.simulation.materialise`), then applied serially at
   the dataset boundary — the only place ``Tweet``/``Status`` objects are
   created.  Nothing in the dynamics depends on post *content*, and a
   shard's plan is a pure function of the frozen dynamics state, which is
   what makes the generated dataset byte-identical at any worker count.

Finally, crawl-time failure states are planted: suspended / deactivated /
protected Twitter accounts and downed instances, with the paper's rates.
"""

from __future__ import annotations

import datetime as _dt
import gc
import time
from collections import Counter

import numpy as np

from repro.fediverse.directory import InstanceDirectory
from repro.fediverse.network import FediverseNetwork
from repro.nlp.generator import PostGenerator
from repro.simulation.config import SimConfig
from repro.simulation.contagion import ContagionModel
from repro.simulation.events import EventTimeline
from repro.simulation.instance_choice import InstanceChooser
from repro.simulation.population import PopulationBuilder, SimUser, generate_instances, register_instances
from repro.simulation.trends import TrendsService
from repro.twitter.api import TwitterAPI
from repro.twitter.graph import FollowGraph
from repro.twitter.models import AccountState
from repro.twitter.store import TwitterStore
from repro.parallel.sharding import SHARD_COUNT, derive_seed, partition_bounds
from repro.util.clock import TAKEOVER_DATE, date_range
from repro.util.ids import SnowflakeGenerator
from repro.util.rng import RngTree
from repro.util.rngcompat import fast_shape_prod, poisson_batch

from repro.simulation.switching import SwitchModel


class World:
    """A fully-built synthetic world ready for collection.

    ``workers``/``backend`` configure the materialisation planning stages
    (:class:`repro.parallel.WorldShardRunner`); the generated world is
    byte-identical for any setting — parallelism is purely a scheduling
    concern, exactly as in the collection engine.
    """

    def __init__(
        self,
        config: SimConfig,
        *,
        workers: int = 1,
        backend: str = "serial",
        shard_count: int | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self.rng = RngTree(config.seed)
        self._workers = workers
        self._backend = backend
        self._shard_count = shard_count if shard_count is not None else SHARD_COUNT

        self.twitter_store = TwitterStore()
        self.twitter_graph = FollowGraph()
        self.network = FediverseNetwork()
        self.timeline = EventTimeline()
        self.trends = TrendsService(self.timeline, self.rng.stream("trends"))

        self.instance_specs = generate_instances(config, self.rng.stream("instances"))
        register_instances(self.network, self.instance_specs)
        self._install_moderation_policies()
        self._flagships = frozenset(
            spec.domain for spec in self.instance_specs if spec.flagship
        )

        builder = PopulationBuilder(config, self.rng.stream("population"))
        self.agents, self.candidate_ids, self.hub_ids, self.chatter_ids = builder.build(
            self.twitter_store, self.twitter_graph
        )

        self._contagion = ContagionModel(
            config, self.timeline, self.twitter_graph, self.rng.stream("contagion")
        )
        self._chooser = InstanceChooser(
            config, self.instance_specs, self.rng.stream("choice")
        )
        self._switcher = SwitchModel(
            config, self._flagships, self.rng.stream("switching")
        )
        self._generator = PostGenerator(self.rng.stream("text"))
        self._tweet_ids = SnowflakeGenerator(shard=2)

        self.migrated_ids: set[int] = set()
        #: per-candidate count of migrated followees (incremental contagion state)
        self._migrated_followee_count: dict[int, int] = {}
        #: per-candidate Counter of migrated followees' current instances
        self._followee_instances: dict[int, Counter] = {}
        #: per-agent migrated-followee lists for the boost picker; valid only
        #: during materialisation, when the migrated set is frozen
        self._boost_followees: dict[int, list[SimUser]] = {}
        #: columnar dynamics state (built lazily on the first tick)
        self._columns = None
        self._dyn_bounds: list[tuple[int, int]] | None = None
        self._dyn_rngs: list[np.random.Generator] | None = None
        #: migrant handles for the chatter stage (frozen before sharding)
        self._migrant_handles: list[str] = []
        self._simulated = False

    # -- public API ---------------------------------------------------------------

    def simulate(self) -> None:
        """Run the full event simulation (idempotence-guarded).

        Materialisation draws hundreds of thousands of bounded-integer
        batches; :func:`fast_shape_prod` short-circuits the shape
        arithmetic numpy re-dispatches on each of them (values and
        bitstream unchanged — see its docstring).

        When the active registry is live, the hot loop emits per-tick
        heartbeat events (tick index, adoptions, posts, ticks/s, ETA)
        through the event stream — the heartbeats only *read* simulation
        state and wall clocks, never an RNG: the generated world is
        byte-identical with the event stream on or off.
        """
        if self._simulated:
            raise RuntimeError("world already simulated")
        from repro import obs

        events = obs.current().events
        with fast_shape_prod():
            self._seed_pre_takeover_accounts()
            days = list(date_range(self.config.start, self.config.end))
            started = time.perf_counter()
            for tick, day in enumerate(days):
                migrated_before = len(self.migrated_ids)
                self._run_migrations(day)
                self._run_switches(day)
                if events.enabled:
                    self._dynamics_heartbeat(
                        events, tick, len(days), day, migrated_before, started
                    )
            self._materialise_content()
            self._inject_background_load()
            self._plant_crawl_failures()
        self._simulated = True

    def _dynamics_heartbeat(
        self,
        events,
        tick: int,
        ticks: int,
        day: _dt.date,
        migrated_before: int,
        started: float,
    ) -> None:
        """One progress event per simulated day of the dynamics loop."""
        elapsed = time.perf_counter() - started
        rate = (tick + 1) / elapsed if elapsed > 0 else 0.0
        events.heartbeat(
            "world.simulate",
            phase="dynamics",
            tick=tick,
            ticks=ticks,
            day=day.isoformat(),
            adoptions=len(self.migrated_ids) - migrated_before,
            migrated_total=len(self.migrated_ids),
            posts_total=self.twitter_store.tweet_count,
            ticks_per_s=round(rate, 3),
            eta_seconds=round((ticks - tick - 1) / rate, 3) if rate > 0 else None,
        )

    def twitter_api(self, faults=None, retry=None) -> TwitterAPI:
        """A fresh API client (own rate-limit state) over the world's Twitter.

        ``faults`` (a :class:`repro.faults.FaultPlan`) and ``retry`` (a
        :class:`repro.transport.RetryPolicy`) configure the client's
        transport; by default nothing is injected and calls are single-shot.
        """
        return TwitterAPI(
            self.twitter_store, self.twitter_graph, faults=faults, retry=retry
        )

    def directory(self) -> InstanceDirectory:
        """The instances.social view at collection time (self-hosts included)."""
        return InstanceDirectory.from_network(self.network)

    @property
    def migrants(self) -> list[SimUser]:
        """Ground truth: every agent that migrated (matched or not)."""
        return [a for a in self.agents.values() if a.migrated]

    @property
    def switchers(self) -> list[SimUser]:
        return [a for a in self.agents.values() if a.switch_day is not None]

    def _install_moderation_policies(self) -> None:
        """Some admins run MRF keyword filters against the toxic lexicon.

        Filtering applies to *federated* deliveries only, so authors'
        timelines (what the crawler collects) are unaffected — this models
        the real division of labour: remote filth is filtered at the border,
        local filth is the admin's manual moderation queue (§6.3).
        """
        from repro.nlp.vocabulary import TOXIC_LEXICON

        rng = self.rng.stream("moderation")
        strong_words = [w for w, weight in TOXIC_LEXICON.items() if weight >= 0.45]
        for instance in self.network.instances():
            if rng.random() < self.config.moderated_instance_fraction:
                for word in strong_words:
                    instance.policy.block_keyword(word)

    # -- phase 0: pre-takeover adopters ------------------------------------------------

    def _seed_pre_takeover_accounts(self) -> None:
        """Some candidates already own a (dormant) Mastodon account.

        The paper finds 21% of matched accounts predate the takeover; we give
        the same fraction of candidates a backdated account which activates
        if/when they migrate.
        """
        rng = self.rng.stream("pre_takeover")
        config = self.config
        empty: Counter = Counter()
        for user_id in self.candidate_ids:
            agent = self.agents[user_id]
            if rng.random() >= config.pre_takeover_account_fraction:
                continue
            age_days = int(rng.integers(35, 2000))
            created = _dt.datetime.combine(
                TAKEOVER_DATE - _dt.timedelta(days=age_days), _dt.time(15, 0)
            )
            domain = self._chooser.choose(agent, empty)
            username = self._mastodon_username(agent, domain)
            if username is None:
                continue
            instance = self.network.get_instance(domain)
            instance.register(username, display_name=agent.username, when=created)
            agent.pre_takeover_account = True
            agent.mastodon_username = username
            agent.first_username = username
            agent.current_instance = domain
            agent.first_instance = domain
            agent.mastodon_created = created
            self._chooser.record_population(domain)

    # -- phase 1: daily dynamics ----------------------------------------------------------

    def _dynamics_state(self):
        """The columnar agent state (built on first use).

        Row order is candidate order; the shard bounds and the per-shard
        generators (seeded ``derive_seed(seed, seed, "world.contagion",
        shard)``) persist across ticks, so each shard consumes one named
        stream for the whole window — the same schedule a sharded dynamics
        worker would see, which keeps the contagion draws worker-count
        invariant by construction.
        """
        if self._columns is None:
            from repro.simulation.state import AgentColumns

            self._columns = AgentColumns.from_world(self)
            self._dyn_bounds = partition_bounds(self._columns.n, self._shard_count)
            seed = self.config.seed
            self._dyn_rngs = [
                np.random.default_rng(
                    derive_seed(seed, seed, "world.contagion", index)
                )
                for index in range(len(self._dyn_bounds))
            ]
        return self._columns

    def _run_migrations(self, day: _dt.date) -> None:
        """One tick of the contagion: batched hazard test, object migration.

        The hazard is computed once per tick from start-of-tick
        migrated-followee fractions (synchronous update — DESIGN.md §5);
        each shard then draws one uniform batch over its still-unmigrated
        rows from its own persistent stream, and only the hits run the
        object-path migration (instance choice, registration, rewiring) in
        ascending row order.
        """
        cols = self._dynamics_state()
        hazard = self._contagion.hazard_batch(
            cols.ideology, cols.fraction_migrated_followees, day
        )
        agents = self.agents
        uids = cols.uids
        migrated = cols.migrated
        for shard_rng, (lo, hi) in zip(self._dyn_rngs, self._dyn_bounds):
            alive = np.flatnonzero(~migrated[lo:hi]) + lo
            if not len(alive):
                continue
            u = shard_rng.random(len(alive))
            for row in alive[u < hazard[alive]]:
                agent = agents[int(uids[row])]
                self._migrate(agent, day)
                if agent.migrated:  # username collision can abort the move
                    migrated[row] = True

    @property
    def _contagion_rng(self) -> np.random.Generator:
        return self.rng.stream("contagion-decisions")

    def _contagion_fraction(self, user_id: int) -> float:
        degree = self.twitter_graph.followee_count(user_id)
        if degree == 0:
            return 0.0
        return self._migrated_followee_count.get(user_id, 0) / degree

    def _migrate(self, agent: SimUser, day: _dt.date) -> None:
        when = _dt.datetime.combine(day, _dt.time(18, 0)) + _dt.timedelta(
            seconds=int(self._contagion_rng.integers(0, 14_000))
        )
        if not agent.pre_takeover_account:
            domain = self._choose_instance(agent)
            username = self._mastodon_username(agent, domain)
            if username is None:  # pathological collision; skip this user
                return
            self.network.get_instance(domain).register(
                username, display_name=agent.username, when=when
            )
            agent.mastodon_username = username
            agent.first_username = username
            agent.current_instance = domain
            agent.first_instance = domain
            agent.mastodon_created = when
            self._chooser.record_population(domain)
        agent.migrated = True
        agent.migration_day = day
        self.migrated_ids.add(agent.user_id)
        self._wire_mastodon_follows(agent, when)
        if agent.self_hosted:
            self._discover_follows(agent, when)
        self._notify_followers(agent)

    def _choose_instance(self, agent: SimUser) -> str:
        if self._chooser.wants_self_host(agent):
            domain = self._chooser.new_self_host_domain(agent)
            if not self.network.has_instance(domain):
                self.network.create_instance(
                    domain,
                    topic=agent.main_topic,
                    created_at=self._today_hint(agent),
                )
                # running one's own server correlates with heavy use: the
                # Figure 6 paradox (single-user instances, more statuses)
                agent.status_rate *= self.config.self_host_activity_boost
                agent.self_hosted = True
                return domain
        counts = self._followee_instances.get(agent.user_id, Counter())
        return self._chooser.choose(agent, counts)

    def _today_hint(self, agent: SimUser) -> _dt.date:
        # self-hosted instances spin up the day their owner migrates
        return agent.migration_day or TAKEOVER_DATE

    def _mastodon_username(self, agent: SimUser, domain: str) -> str | None:
        instance = self.network.get_instance(domain)
        candidates = [agent.username] if agent.same_username else []
        candidates += [f"{agent.username}_m", f"{agent.username}2", f"real{agent.username}"]
        if not agent.same_username:
            candidates.insert(0, f"{agent.username.split('_')[0]}tooter_{agent.user_id % 10_000}")
        for name in candidates:
            if not instance.has_account(name):
                return name
        return None

    def _wire_mastodon_follows(self, agent: SimUser, when: _dt.datetime) -> None:
        """Recreate the ego network on Mastodon among migrated neighbours.

        A small share of migrants never re-follow anyone (the paper's 3.6%
        following nobody / 6.01% with no followers): they still *receive*
        follows from later migrants, but import nothing themselves.
        """
        acct = agent.mastodon_acct
        assert acct is not None
        rewire_rng = self.rng.stream("rewire")
        # Self-hosters are the most dedicated users: they always import their
        # follow list and stay discoverable (part of the Fig. 6 paradox).
        agent.rewires_follows = agent.self_hosted or (
            rewire_rng.random() >= self.config.no_rewire_fraction
        )
        agent.discoverable = agent.self_hosted or (
            rewire_rng.random() >= self.config.undiscoverable_fraction
        )
        if agent.rewires_follows:
            for followee_id in self.twitter_graph.followees_of(agent.user_id):
                other = self.agents.get(followee_id)
                if other is None or not other.migrated or other.mastodon_acct is None:
                    continue
                if other.discoverable:
                    self.network.follow(acct, other.mastodon_acct, when)
        if agent.discoverable:
            for follower_id in self.twitter_graph.followers_of(agent.user_id):
                other = self.agents.get(follower_id)
                if other is None or not other.migrated or other.mastodon_acct is None:
                    continue
                if other.rewires_follows and other.mastodon_acct != acct:
                    self.network.follow(other.mastodon_acct, acct, when)

    def _discover_follows(self, agent: SimUser, when: _dt.datetime) -> None:
        """Dedicated self-hosters build their network actively.

        Beyond re-following their Twitter ego network, they discover accounts
        through hashtags and directories — extra follows to random earlier
        migrants, some of whom follow back.  This is half of the Figure 6
        paradox: single-user instances, larger social networks.
        """
        rng = self.rng.stream("discovery")
        pool = [
            uid for uid in self.migrated_ids
            if uid != agent.user_id and self.agents[uid].discoverable
        ]
        if not pool:
            return
        k = min(len(pool), int(8 + agent.engagement * 14))
        picks = rng.choice(len(pool), size=k, replace=False)
        acct = agent.mastodon_acct
        assert acct is not None
        for idx in picks:
            other = self.agents[pool[int(idx)]]
            if other.mastodon_acct is None or other.mastodon_acct == acct:
                continue
            self.network.follow(acct, other.mastodon_acct, when)
            if rng.random() < 0.35:  # follow-backs
                self.network.follow(other.mastodon_acct, acct, when)

    def _notify_followers(self, agent: SimUser) -> None:
        """Update incremental contagion state after ``agent`` migrated."""
        domain = agent.current_instance
        cols = self._columns
        agents = self.agents
        followee_count = self._migrated_followee_count
        followee_instances = self._followee_instances
        for follower_id in self.twitter_graph.followers_of(agent.user_id):
            follower = agents.get(follower_id)
            if follower is not None and follower.role == "candidate":
                followee_count[follower_id] = followee_count.get(follower_id, 0) + 1
                counts = followee_instances.get(follower_id)
                if counts is None:
                    counts = Counter()
                    followee_instances[follower_id] = counts
                counts[domain] += 1
                if cols is not None:
                    cols.migrated_followees[cols.row_of(follower_id)] += 1

    # -- switching ------------------------------------------------------------------------

    def _run_switches(self, day: _dt.date) -> None:
        # agents with no migrated followees (or who already switched) cannot
        # draw from the switch RNG — ``propose_switch`` returns before its
        # random draw for both — so skipping them here is bitstream-neutral
        followee_instances = self._followee_instances
        propose = self._switcher.propose_switch
        for user_id in sorted(self.migrated_ids):
            agent = self.agents[user_id]
            if agent.switch_day is not None or agent.migration_day == day:
                continue
            counts = followee_instances.get(user_id)
            if not counts:
                continue
            target = propose(agent, counts)
            if target is not None:
                self._switch(agent, target, day)

    def _switch(self, agent: SimUser, target: str, day: _dt.date) -> None:
        when = _dt.datetime.combine(day, _dt.time(20, 0))
        instance = self.network.get_instance(target)
        username = agent.mastodon_username
        assert username is not None and agent.current_instance is not None
        name = username
        suffix = 0
        while instance.has_account(name):
            suffix += 1
            name = f"{username}{suffix}"
        instance.register(name, display_name=agent.username, when=when)
        old_acct = agent.mastodon_acct
        assert old_acct is not None
        new_acct = f"{name}@{target}"
        self.network.move_account(old_acct, new_acct, when)
        old_domain = agent.current_instance
        agent.mastodon_username = name
        agent.second_instance = target
        agent.current_instance = target
        agent.switch_day = day
        self._chooser.record_population(target)
        # followers' instance counters track the move
        for follower_id in self.twitter_graph.followers_of(agent.user_id):
            counts = self._followee_instances.get(follower_id)
            if counts is not None and counts.get(old_domain, 0) > 0:
                counts[old_domain] -= 1
                counts[target] += 1

    # -- phase 2: content materialisation ---------------------------------------------------

    def _materialise_content(self) -> None:
        """Plan timelines on shards, then apply them at the dataset boundary.

        Stage A (``world.materialise`` / ``world.chatter``) runs on the
        :class:`~repro.parallel.WorldShardRunner`: migrants in migration
        order and chatterers in id order, partitioned into contiguous
        shards, each planning its agents' full timelines as post
        accumulator columns with a per-(stage, shard) derived seed.  Stage
        B (:func:`repro.simulation.materialise.apply_plans`) walks the
        payloads serially in shard order — the canonical agent order — so
        id assignment, timeline insertion and boost resolution happen
        exactly once, in one order, regardless of worker count.
        """
        from repro import obs
        from repro.parallel import WorldShardRunner
        from repro.simulation.materialise import apply_plans

        events = obs.current().events
        # frozen before the runner forks: shard payloads may read it
        self._migrant_handles = [
            a.first_acct for a in self.migrants if a.first_acct is not None
        ]
        # migration order, so boosters find their earlier-migrated followees'
        # statuses already materialised when plans are applied
        ordered = sorted(
            self.migrated_ids,
            key=lambda uid: (self.agents[uid].migration_day, uid),
        )
        with WorldShardRunner(
            self,
            seed=self.config.seed,
            workers=self._workers,
            backend=self._backend,
            shard_count=self._shard_count,
        ) as runner:
            payloads = runner.map_stage(
                "world.materialise", "repro.simulation.materialise:plan_shard", ordered
            )
            chatter_payloads = runner.map_stage(
                "world.chatter",
                "repro.simulation.materialise:chatter_shard",
                list(self.chatter_ids),
            )
        apply_plans(self, payloads, chatter_payloads, events)

    def _boost_candidate(self, agent: SimUser, rng: np.random.Generator):
        """A recent status by a migrated followee, if any exists yet.

        Content is materialised in migration order, so earlier migrants'
        statuses already exist when later migrants boost.  The migrated set
        is frozen by then, so the followee list is computed once per agent;
        the five candidates are an ordered uniform draw without replacement
        — the same distribution as shuffling the whole list and taking its
        first five, without permuting hub-sized followee lists per boost.
        """
        cached = self._boost_followees.get(agent.user_id)
        if cached is None:
            cached = [
                self.agents[f]
                for f in self.twitter_graph.followees_of(agent.user_id)
                if f in self.agents and self.agents[f].migrated
            ]
            self._boost_followees[agent.user_id] = cached
        n = len(cached)
        if n == 0:
            return None
        if n == 1:
            picks = (0,)
        else:
            # Partial Fisher-Yates over a virtual index array: the first k
            # swap targets are an ordered uniform k-sample without
            # replacement, identical in distribution to rng.choice(...,
            # replace=False) but needing only one batched uniform draw.
            k = 5 if n > 5 else n
            draws = rng.random(k)
            mapping: dict[int, int] = {}
            picks = []
            for i in range(k):
                j = i + int(draws[i] * (n - i))
                if j >= n:  # guard against float rounding at draws[i] ~ 1.0
                    j = n - 1
                picks.append(mapping.get(j, j))
                mapping[j] = mapping.get(i, i)
        for idx in picks:
            other = cached[int(idx)]
            if other.first_instance is None:
                continue
            instance = self.network.get_instance(other.first_instance)
            username = other.first_username or other.mastodon_username
            if username is None or not instance.has_account(username):
                continue
            originals = instance.original_statuses_of(username)
            if originals:
                return originals[int(rng.integers(0, len(originals)))]
        return None

    # -- phase 3: background load and failure injection ------------------------------------

    def _inject_background_load(self) -> None:
        """Aggregate registrations/logins/statuses for untracked users (Fig. 3)."""
        config = self.config
        rng = self.rng.stream("background")
        total_migrants = max(1, len(self.migrants))
        intensity_sum = sum(
            self.timeline.intensity(day) for day in date_range(config.start, config.end)
        )
        daily_new = (
            config.background_registration_multiplier * total_migrants / max(1.0, intensity_sum)
        )
        weights = np.array(
            [max(spec.weight, 1e-6) for spec in self.instance_specs]
        )
        weights = weights / weights.sum()
        base_logins = np.array(
            [20.0 * spec.weight * total_migrants for spec in self.instance_specs]
        )
        for day in date_range(config.start, config.end):
            intensity = self.timeline.intensity(day)
            registrations = rng.poisson(daily_new * intensity * weights)
            # one batched draw per day instead of one scalar poisson per
            # instance; poisson_batch's element-order contract keeps the
            # bitstream identical to the per-spec loop it replaces
            login_draws = poisson_batch(rng, base_logins * (0.15 + 0.85 * intensity))
            for spec, regs, logins in zip(self.instance_specs, registrations, login_draws):
                instance = self.network.get_instance(spec.domain)
                logins = int(logins)
                statuses = int(logins * config.background_statuses_per_login)
                instance.record_aggregate_activity(
                    day,
                    statuses=statuses,
                    logins=logins,
                    registrations=int(regs),
                )

    def _plant_crawl_failures(self) -> None:
        """Account states and instance downtime, at the paper's §3.2 rates."""
        config = self.config
        rng = self.rng.stream("failures")
        for agent in self.migrants:
            roll = rng.random()
            user = self.twitter_store.get_user(agent.user_id)
            if roll < config.suspended_fraction:
                user.state = AccountState.SUSPENDED
            elif roll < config.suspended_fraction + config.deactivated_fraction:
                user.state = AccountState.DEACTIVATED
            elif roll < (
                config.suspended_fraction
                + config.deactivated_fraction
                + config.protected_fraction
            ):
                user.state = AccountState.PROTECTED
        # Downtime cost the paper 11.58% of Mastodon timelines (a share of
        # *users*, not instances).  Small and mid-size instances, strained by
        # the migration wave, go down until that user share is reached; the
        # professionally-run flagships stay up.
        populations = Counter()
        for agent in self.migrants:
            if agent.first_instance is not None:
                populations[agent.first_instance] += 1
        target_users = config.instance_down_fraction * sum(populations.values())
        candidates = [
            domain for domain in populations if domain not in self._flagships
        ]
        rng.shuffle(candidates)
        downed_users = 0.0
        for domain in candidates:
            if downed_users >= target_users:
                break
            instance = self.network.get_instance(domain)
            instance.down = True
            downed_users += populations[domain]


def build_world(
    config: SimConfig,
    *,
    workers: int = 1,
    backend: str = "serial",
    shard_count: int | None = None,
) -> World:
    """Build and simulate a world in one call::

        build_world(SimConfig(seed=1, scale=0.005, contagion_weight=0.0))

    ``workers``/``backend`` configure the sharded materialisation planner;
    the dataset is byte-identical for any setting.
    """
    from repro import obs

    if not isinstance(config, SimConfig):
        raise TypeError(
            f"build_world expects a SimConfig, got {type(config).__name__}"
        )

    registry = obs.current()
    # The build allocates millions of small, acyclic objects (tweets,
    # statuses, postings); the cyclic collector's threshold-triggered full
    # sweeps walk that whole heap to find nothing.  Defer cycle collection
    # to the end of the build and run one sweep on exit.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        with registry.span("build_world") as span:
            with registry.span("world.init"):
                world = World(
                    config,
                    workers=workers,
                    backend=backend,
                    shard_count=shard_count,
                )
            with registry.span("world.simulate"):
                world.simulate()
            span.annotate(
                seed=config.seed,
                scale=config.scale,
                agents=len(world.agents),
                migrants=len(world.migrants),
                tweets=world.twitter_store.tweet_count,
            )
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    return world
