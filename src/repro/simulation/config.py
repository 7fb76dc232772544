"""Simulation configuration.

Every behavioural constant of the simulator lives here, annotated with the
paper statistic it is calibrated against.  ``scale`` shrinks the population
(1.0 would be the paper's 136,009 matched migrants); all *fractions* are
scale-invariant, so the analyses reproduce the paper's shapes at any scale.

:class:`SimConfig` is the one object ``build_world`` and the experiment
runner accept; the ``#:`` doc comments above each field double as the
runner's ``--world-<field>`` flag help (:func:`field_docs` parses them).
"""

from __future__ import annotations

import datetime as _dt
import inspect
import re
from dataclasses import dataclass, field, fields

from repro.errors import ConfigError
from repro.util.clock import SIM_END, SIM_START

#: The paper's matched-migrant count; ``scale`` multiplies this.
PAPER_MIGRANTS = 136_009


@dataclass(frozen=True)
class SimConfig:
    """All knobs of the world generator.

    The defaults reproduce the paper's aggregate statistics at any ``scale``;
    individual studies (and the ablation benchmarks) override single fields.
    """

    seed: int = 7
    #: Fraction of the paper's population to simulate (0.01 -> ~1,360 migrants).
    scale: float = 0.01

    # -- window ---------------------------------------------------------------
    start: _dt.date = SIM_START
    end: _dt.date = SIM_END

    # -- population sizes -------------------------------------------------------
    #: Candidate migrants per eventual migrant (the contagion model decides who
    #: actually moves; roughly 40% of candidates end up migrating).
    at_risk_multiplier: float = 1.7
    #: General Twitter population per eventual migrant (edge targets; their
    #: migrated-followee fraction anchor the ~5.99% statistic of Fig. 8).
    population_multiplier: float = 16.0
    #: High in-degree "hub" accounts per 1000 population.
    hubs_per_thousand: float = 4.0
    #: Users who tweet migration keywords without migrating, per migrant
    #: (the paper saw 1.02M distinct keyword-tweeters vs 136k matched).
    chatter_multiplier: float = 3.0

    # -- Twitter graph ------------------------------------------------------------
    #: Median followee-list length for tracked users.  The paper's median is
    #: 787 at full scale; the default scales it down so small worlds stay
    #: connected without quadratic edge counts.
    twitter_median_followees: int = 180
    twitter_followees_sigma: float = 0.85
    #: Share of a followee list pointing at hub accounts.
    hub_followee_share: float = 0.18
    #: Share pointing at other candidate migrants (assortativity; drives the
    #: migrated-followee fraction toward ~6%).
    at_risk_followee_share: float = 0.10
    #: Median profile followers count (paper: 744) relative to followees.
    follower_to_followee_ratio: float = 0.95
    #: Legacy-verified share of migrants (paper: 4%).
    verified_fraction: float = 0.04
    #: Median Twitter account age in years (paper: 11.5).
    median_account_age_years: float = 11.5

    # -- fediverse -----------------------------------------------------------------
    #: Directory size (paper: 15,886 domains), scaled.
    directory_instances: int = 200
    #: Minimum directory size regardless of scale.
    min_directory_instances: int = 60
    #: Zipf exponent for instance attractiveness (drives the ~96%-on-top-25%
    #: concentration of Fig. 5).
    instance_zipf_exponent: float = 2.1
    #: Share of (synthetic long-tail) instances running Pleroma instead of
    #: Mastodon; they federate identically via ActivityPub (paper, §2).
    pleroma_fraction: float = 0.12
    #: Migrants with a Mastodon account predating the takeover (paper: 21%).
    pre_takeover_account_fraction: float = 0.23
    #: Migrants reusing their Twitter username on Mastodon.  Measured over
    #: *matched* users this lands at the paper's 72%: tweet-text matches are
    #: same-username by construction, so the population rate sits lower.
    same_username_fraction: float = 0.64

    # -- migration decision -----------------------------------------------------------
    #: Daily base hazard for candidates while the event intensity is at its
    #: post-takeover peak.
    base_daily_hazard: float = 0.16
    #: Multiplier applied to the hazard per unit migrated-followee fraction
    #: (the social-contagion term; ablated by setting it to 0).
    contagion_weight: float = 6.0
    #: Weight of the per-user ideology draw in the hazard.
    ideology_weight: float = 1.0

    # -- instance choice ----------------------------------------------------------------
    #: Probability of copying a migrated followee's instance (drives the
    #: ~14.72% same-instance statistic; ablated by setting it to 0).
    choice_social_weight: float = 0.38
    #: Probability of preferential attachment to large/flagship instances.
    choice_flagship_weight: float = 0.51
    #: Probability of picking an instance matching the user's main topic.
    choice_topic_weight: float = 0.108
    #: Remaining mass: uniform choice over the directory.
    #: (computed as 1 - social - flagship - topic)
    #: Probability that a highly active user self-hosts a brand-new
    #: single-user instance (Fig. 6's 13.16% single-user instances).
    self_host_probability: float = 0.012

    # -- switching ------------------------------------------------------------------------
    #: Daily probability scale for instance switches (paper: 4.09% of users
    #: switch overall, 97.22% of switches post-takeover).
    switch_daily_scale: float = 0.00055
    #: How strongly the migrated-followee concentration on another instance
    #: pulls a switch (Fig. 10's 46.98% vs 11.4% contrast).
    switch_social_pull: float = 8.0

    # -- posting behaviour ---------------------------------------------------------------
    #: Mean tweets/day across migrants (paper: ~2.0 over the window).
    tweet_rate_mean: float = 1.9
    #: Mean statuses/day for migrated users once on Mastodon (~1.5).
    status_rate_mean: float = 1.5
    #: Boosts (reblogs) as a fraction of a user's Mastodon posting volume.
    boost_rate: float = 0.12
    #: Migrants who never post a status (paper: 9.20% had none).
    lurker_fraction: float = 0.092
    #: Migrants who never import their follow list (no Mastodon followees;
    #: the paper finds 3.6% following nobody).
    no_rewire_fraction: float = 0.02
    #: Migrants whose new account is effectively undiscoverable, so nobody
    #: follows them back (the paper's 6.01% with no Mastodon followers).
    undiscoverable_fraction: float = 0.06
    #: Activity boost on single-user instances (Fig. 6: +121% statuses).
    self_host_activity_boost: float = 3.2
    #: Users adopting a cross-poster at least once (paper: 5.73%).
    crossposter_fraction: float = 0.065
    #: Fraction of a cross-poster user's statuses that are mirrored.
    crosspost_mirror_rate: float = 0.30
    #: Users who paraphrase tweets on Mastodon (the ~15.5% of users whose
    #: content is "similar" across platforms, Fig. 14).
    paraphraser_fraction: float = 0.18
    paraphrase_rate: float = 1.0

    # -- toxicity ----------------------------------------------------------------------------
    #: Mean per-user toxic-tweet probability (paper: 4.02% per user,
    #: 5.49% of all tweets).
    twitter_toxicity_mean: float = 0.036
    #: Mean per-user toxic-status probability (paper: 2.07% per user,
    #: 2.80% of statuses).
    mastodon_toxicity_mean: float = 0.018
    #: Dispersion of per-user toxicity (Beta distribution pseudo-count).
    toxicity_concentration: float = 0.30

    # -- federation moderation -----------------------------------------------------------------
    #: Share of instances whose admins run an MRF-style keyword filter
    #: against the toxic lexicon (federated statuses only; the paper's
    #: moderation discussion, §6.3).
    moderated_instance_fraction: float = 0.3

    # -- crawl-time failure injection ----------------------------------------------------------
    suspended_fraction: float = 0.0008  # paper: 0.08%
    deactivated_fraction: float = 0.020  # paper: 2.26%
    protected_fraction: float = 0.0278  # paper: 2.78%
    instance_down_fraction: float = 0.115  # paper: 11.58% of timelines lost

    # -- announcement behaviour ------------------------------------------------------------------
    #: How migrants advertise the Mastodon account: profile bio vs. tweet.
    announce_bio_fraction: float = 0.62
    #: Of tweet announcements, share using the @user@domain form (vs URL).
    announce_acct_style_fraction: float = 0.55

    # -- background fediverse load (aggregate counters for Fig. 3) -------------------------------
    #: Unmatched registrations per matched migrant after the takeover
    #: (Mastodon reported 1M+ sign-ups vs the paper's 136k matches).
    background_registration_multiplier: float = 6.0
    background_statuses_per_login: float = 2.4

    extras: dict = field(default_factory=dict)

    # -- derived ------------------------------------------------------------------

    @property
    def target_migrants(self) -> int:
        return max(40, int(round(PAPER_MIGRANTS * self.scale)))

    @property
    def n_at_risk(self) -> int:
        return int(round(self.target_migrants * self.at_risk_multiplier))

    @property
    def n_population(self) -> int:
        return int(round(self.target_migrants * self.population_multiplier))

    @property
    def n_hubs(self) -> int:
        return max(10, int(round(self.n_population * self.hubs_per_thousand / 1000)))

    @property
    def n_chatter(self) -> int:
        return int(round(self.target_migrants * self.chatter_multiplier))

    @property
    def n_directory_instances(self) -> int:
        # sublinear growth: the real directory (15,886 domains) is much
        # larger than the set of instances migrants actually touch (2,879)
        scaled = int(round(self.directory_instances * max((self.scale / 0.01) ** 0.5, 1.0)))
        return max(self.min_directory_instances, scaled)

    @property
    def choice_random_weight(self) -> float:
        used = (
            self.choice_social_weight
            + self.choice_flagship_weight
            + self.choice_topic_weight
        )
        return 1.0 - used

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.end < self.start:
            raise ConfigError("end precedes start")
        if self.choice_random_weight < -1e-9:
            raise ConfigError("instance-choice weights exceed 1")
        fractions = {
            "verified_fraction": self.verified_fraction,
            "pre_takeover_account_fraction": self.pre_takeover_account_fraction,
            "same_username_fraction": self.same_username_fraction,
            "lurker_fraction": self.lurker_fraction,
            "crossposter_fraction": self.crossposter_fraction,
            "paraphraser_fraction": self.paraphraser_fraction,
            "suspended_fraction": self.suspended_fraction,
            "deactivated_fraction": self.deactivated_fraction,
            "protected_fraction": self.protected_fraction,
            "instance_down_fraction": self.instance_down_fraction,
            "announce_bio_fraction": self.announce_bio_fraction,
            "announce_acct_style_fraction": self.announce_acct_style_fraction,
        }
        for name, value in fractions.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.twitter_median_followees < 1:
            raise ConfigError("twitter_median_followees must be >= 1")
        if self.tweet_rate_mean < 0 or self.status_rate_mean < 0:
            raise ConfigError("posting rates must be non-negative")


_FIELD_DOC_CACHE: dict[str, str] | None = None


def field_docs() -> dict[str, str]:
    """Field name -> one-line description, parsed from the ``#:`` comments.

    Fields without a doc comment map to an empty string.  The runner uses
    this to generate ``--world-<field>`` flag help, so the config source is
    the single place behavioural knobs are documented.
    """
    global _FIELD_DOC_CACHE
    if _FIELD_DOC_CACHE is None:
        docs: dict[str, str] = {}
        pending: list[str] = []
        assign = re.compile(r"^(\w+)\s*(?::[^=]+)?=")
        for raw in inspect.getsource(SimConfig).splitlines():
            line = raw.strip()
            if line.startswith("#:"):
                pending.append(line[2:].strip())
            elif line.startswith("#") or not line:
                continue
            else:
                match = assign.match(line)
                if match and pending:
                    text = " ".join(pending)
                    docs[match.group(1)] = re.sub(r"\s+", " ", text)
                pending = []
        _FIELD_DOC_CACHE = {
            f.name: docs.get(f.name, "") for f in fields(SimConfig)
        }
    return _FIELD_DOC_CACHE
