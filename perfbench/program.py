"""The program's public entry points, and plain-data extraction for the checkers.

Imported only inside worker processes, after the set-up clock has started:
importing ``repro`` is part of the measured set-up.  The entry points every
role uses are bound here; ``tracker`` and ``serveclient`` import the
incremental and serving ones where they use them.  The benchmark reaches
the program only through public names, so a change inside ``src/`` is
measured by the same benchmark code.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

from repro import MigrationDataset, SimConfig, build_world, collect_dataset
from repro import obs
from repro.analysis.report import format_report, headline_report
from repro.experiments.registry import all_experiment_ids, get_experiment
from repro.frames import frames_of, invalidate

from checks import RAISED
from harness import SCALE, Round, Tracer
from metrics import FRAMES_PRODUCTS

#: Prefix of the program's own ``repro.obs`` spans once exported.
OBS_PREFIX = "repro:"


def sim_config(seed: int) -> SimConfig:
    return SimConfig(seed=seed, scale=SCALE)


def experiment_ids() -> list[str]:
    return all_experiment_ids(include_extensions=True)


def registry_for(traced: bool):
    """A live ``repro.obs`` registry in traced runs, else None."""
    return obs.MetricsRegistry() if traced else None


def active(registry):
    return obs.use(registry) if registry is not None else nullcontext()


def figure_suite(dataset, tracer: Tracer, steps: Round, op: str | None = None
                 ) -> dict[str, str]:
    """All 19 figures plus the headline report: their texts.

    Each figure and the report is a step of ``steps``.  A figure that
    raises is not fatal: its text is ``checks.RAISED`` and the
    exception, which ``checks.Tally.figures`` counts as a failed operation.
    """
    texts: dict[str, str] = {}
    for exp_id in experiment_ids() + ["report"]:
        with steps.step(exp_id), tracer.span(
            "analysis.headline_report" if exp_id == "report" else f"experiments.{exp_id}", op
        ):
            try:
                if exp_id == "report":
                    texts[exp_id] = format_report(headline_report(dataset))
                else:
                    result = get_experiment(exp_id)(dataset)
                    texts[exp_id] = result.format(max_rows=len(result.rows) + 1)
            except Exception as exc:
                texts[exp_id] = f"{RAISED}{type(exc).__name__}: {exc}"
    return texts


def content_digest(dataset) -> str:
    """sha256 of the dataset's canonical JSON document."""
    return hashlib.sha256(dataset.to_json().encode("utf-8")).hexdigest()


def build_products(dataset, tracer: Tracer, steps: Round) -> list[str]:
    """Cold-build each named frames product under its own span.

    Each build is a step of ``steps``; the figures build the same products
    anyway, so building them first moves work, it adds none.  Returns the
    products this program no longer has: each is skipped, so a reshaped
    frames layer cannot fail the run (its work then lands in the figure
    that needs it).
    """
    frames = frames_of(dataset)
    missing: list[str] = []
    for name in FRAMES_PRODUCTS:
        try:
            with steps.step(f"frames.{name}"), tracer.span(f"frames.{name}"):
                getattr(frames, name)
        except AttributeError:
            missing.append(name)
    return missing


def frames_result_stats(dataset) -> tuple[int, int]:
    """``(hits, lookups)`` of the dataset's frames result cache."""
    stats = getattr(frames_of(dataset), "cache_stats", dict)()
    hits = int(stats.get("hits", 0))
    return hits, hits + int(stats.get("misses", 0))


def export_obs_spans(registry, tracer: Tracer) -> None:
    """Copy the program's own ``repro.obs`` spans into the benchmark trace.

    Each exported span is prefixed with ``repro:``; it keeps its parent when
    that is a program span too, and otherwise hangs under the innermost
    benchmark span whose interval contains it.  Anything missing from the
    program's span objects is skipped, never fatal.
    """
    walk = getattr(getattr(registry, "tracer", None), "walk", None)
    if walk is None:
        return
    own = [
        (index, span[1], span[2]) for index, span in enumerate(tracer.spans)
        if span[2] is not None
    ]
    exported: dict[int, int] = {}
    for span in walk():  # depth first: a parent comes before its children
        start = getattr(span, "start_mono", None)
        end = getattr(span, "end_mono", None)
        if start is None or end is None:
            continue
        parent = exported.get(id(getattr(span, "parent", None)), -1)
        if parent < 0:
            for index, lo, hi in own:
                if lo <= start and end <= hi:
                    parent = index  # later spans nest deeper
        exported[id(span)] = len(tracer.spans)
        tracer.spans.append([
            OBS_PREFIX + span.name, start, end, parent, None,
            {"api_requests": getattr(span, "api_requests", 0)},
        ])


def _outer_frames_spans(tracer: Tracer):
    """The program's outermost frames spans (a product built inside another
    product's build is covered by the outer one)."""
    spans = tracer.spans
    prefix = OBS_PREFIX + "frames."
    for span in spans:
        parent = span[3]
        if span[0].startswith(prefix) and not (
            parent >= 0 and spans[parent][0].startswith(prefix)
        ):
            yield span


def frames_other_seconds(tracer: Tracer) -> float:
    """Seconds in the program's frames builds other than the named products."""
    named = {OBS_PREFIX + "frames." + name for name in FRAMES_PRODUCTS}
    return sum(
        end - start
        for name, start, end, *_rest in _outer_frames_spans(tracer)
        if name not in named
    )


def experiment_seconds(tracer: Tracer) -> dict[str, float]:
    """Per experiment: its span minus the frames builds that ran inside it."""
    out: dict[str, float] = {}
    frames = list(_outer_frames_spans(tracer))
    for name, start, end, *_rest in tracer.spans:
        if name.startswith("experiments.") or name == "analysis.headline_report":
            inside = sum(
                min(e, end) - max(s, start)
                for _n, s, e, *_r in frames
                if s < end and e > start
            )
            out[name] = out.get(name, 0.0) + (end - start) - inside
    return out


# -- plain-data extraction for the checkers ------------------------------------


def matched_accounts(dataset) -> dict[int, str]:
    return {uid: user.mastodon_acct for uid, user in dataset.matched.items()}


def migrant_first_accounts(world) -> dict[int, str | None]:
    return {uid: agent.first_acct for uid, agent in world.agents.items() if agent.migrated}


def collected_days(dataset) -> list:
    return [tweet.created_at.date() for tweet in dataset.collected_tweets]


def matched_domains(dataset) -> dict[int, str]:
    return {uid: user.mastodon_acct.split("@", 1)[1] for uid, user in dataset.matched.items()}


def join_days(dataset) -> dict:
    return {uid: rec.first_created_at.date() for uid, rec in dataset.accounts.items()}


def oracle_fields(dataset) -> dict:
    """Plain tuples the serving oracle needs, read from the dataset's fields."""
    tweets = [
        (
            t.tweet_id, t.author_id, t.created_at.date().isoformat(), t.text.lower(),
            frozenset(tag.lower() for tag in t.hashtags), hosts_of(t.urls),
        )
        for t in dataset.collected_tweets
    ]
    statuses = [
        (uid, s.created_at.date().isoformat(), s.text,
         frozenset(tag.lower() for tag in s.hashtags))
        for uid, posts in dataset.mastodon_timelines.items() for s in posts
    ]
    populations: dict[str, int] = {}
    for domain in matched_domains(dataset).values():
        populations[domain] = populations.get(domain, 0) + 1
    return {
        "tweets": tweets,
        "statuses": statuses,
        "twitter_timelines": {
            uid: [(p.created_at.date().isoformat(), p.text) for p in posts]
            for uid, posts in dataset.twitter_timelines.items()
        },
        "mastodon_timelines": {
            uid: [(p.created_at.date().isoformat(), p.text) for p in posts]
            for uid, posts in dataset.mastodon_timelines.items()
        },
        "populations": populations,
        "weekly": dataset.weekly_activity,
        "trends": {t: [[d, v] for d, v in series] for t, series in dataset.trends.items()},
    }


def hosts_of(urls: list[str]) -> tuple[str, ...]:
    from urllib.parse import urlparse

    hosts = []
    for url in urls:
        try:
            host = urlparse(url).netloc.lower().split(":")[0]
        except ValueError:
            continue
        if host:
            hosts.append(host)
    return tuple(hosts)
