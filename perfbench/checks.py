"""Output checkers: independent recomputations from plain dataset fields.

Every checker takes plain Python data (ids, strings, dates, parsed JSON),
imports nothing from ``repro``, and returns a list of failure strings (empty
when the answer is right).  Callers extract the plain fields from the
program's objects; the arithmetic that decides correctness lives here, so
the benchmark's tests can feed each checker a corrupted answer.
"""

from __future__ import annotations

import datetime as _dt
from collections import Counter

#: Musk's acquisition completes (the paper's split for Figure 4).
TAKEOVER = _dt.date(2022, 10, 27)
#: Rows of Figure 4: the most populated first instances.
F4_TOP = 30
#: Text the benchmark gives a figure that raised (see ``program.figure_suite``).
RAISED = "FAILED "
#: Failure lines kept per run; every failed operation is still counted.
MAX_FAILURES = 20


class Tally:
    """Operations attempted, how many failed, and the checks that failed.

    Every operation a workload counts goes through ``op``, so ``attempted``
    and ``failed`` cover the same operations.  A failed operation also adds
    a failure line: no operation of a workload is expected to fail, so one
    that does makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail(what)

    def fail(self, *lines: str) -> None:
        self.failures += lines[: MAX_FAILURES - len(self.failures)]

    def figures(self, texts: dict[str, str], label: str) -> None:
        """One operation per figure or report; a raised one failed."""
        for key, text in texts.items():
            self.op(not text.startswith(RAISED), f"{label}: {key} raised ({text})")

    def responses(self, statuses, label: str) -> None:
        """One operation per request; one that did not answer 200 failed."""
        for status in statuses:
            self.op(status == 200, f"{label}: a request answered {status}")

    def merge(self, other: dict) -> None:
        """Fold in a child's ``{"attempted", "failed", "failures"}``."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.fail(*other["failures"])

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def check_matched(
    matched: dict[int, str], migrant_first_acct: dict[int, str | None]
) -> list[str]:
    """Handle matching against the world's ground truth.

    ``matched`` maps each matched Twitter uid to the Mastodon account the
    pipeline found; ``migrant_first_acct`` maps every true migrant to the
    first Mastodon account it created.  Every match must be a migrant and
    point at that migrant's first account, and recall must lie in (0.5, 1).
    """
    failures = []
    for uid, acct in sorted(matched.items()):
        if uid not in migrant_first_acct:
            failures.append(f"matched uid {uid} is not a migrant")
        elif acct != migrant_first_acct[uid]:
            failures.append(
                f"uid {uid} matched to {acct}, first account is "
                f"{migrant_first_acct[uid]}"
            )
    recall = len(matched) / len(migrant_first_acct) if migrant_first_acct else 0.0
    if not 0.5 < recall < 1.0:
        failures.append(f"recall {recall:.3f} outside (0.5, 1.0)")
    return failures[:20]


def check_f2(rows: list[tuple], tweet_days: list[_dt.date]) -> list[str]:
    """Figure 2 rows against per-day counts of the collected tweets."""
    expected = sorted(Counter(tweet_days).items())
    got = [(_dt.date.fromisoformat(day), count) for day, count in rows]
    failures = []
    if got != [(day, count) for day, count in expected]:
        failures.append("F2 rows differ from per-day counts of collected tweets")
    if sum(count for _, count in got) != len(tweet_days):
        failures.append(
            f"F2 daily counts sum to {sum(c for _, c in got)}, "
            f"corpus has {len(tweet_days)} tweets"
        )
    return failures


def check_f4(
    rows: list[tuple], matched_domain: dict[int, str], join_day: dict[int, _dt.date]
) -> list[str]:
    """Figure 4 rows: top first instances, accounts split at the takeover.

    A matched user without an account record counts as joining after the
    takeover (its creation date is unknown to the crawler).
    """
    before: Counter = Counter()
    after: Counter = Counter()
    for uid, domain in matched_domain.items():
        day = join_day.get(uid)
        if day is not None and day < TAKEOVER:
            before[domain] += 1
        else:
            after[domain] += 1
    totals = {d: before[d] + after[d] for d in set(before) | set(after)}
    ranked = sorted(totals, key=lambda d: (-totals[d], d))[:F4_TOP]
    expected = [(d, before[d], after[d], totals[d]) for d in ranked]
    if [tuple(row) for row in rows] != expected:
        return ["F4 rows differ from the brute-force instance split"]
    return []


def check_texts(reference: dict[str, str], other: dict[str, str], label: str) -> list[str]:
    """Figure/report texts of two computations must be identical."""
    failures = []
    for key in sorted(set(reference) | set(other)):
        if reference.get(key) != other.get(key):
            failures.append(f"{label}: {key} differs")
    return failures


# -- serving answers -----------------------------------------------------------


def paginate(items: list, limit: int, offset: int) -> tuple[int, list]:
    return len(items), items[offset : offset + limit]


def in_window(day: str, since: str | None, until: str | None) -> bool:
    """ISO day strings compare like dates."""
    return (since is None or day >= since) and (until is None or day <= until)


class ServingOracle:
    """Brute-force answers to the serving API from plain dataset fields.

    Built from lists of plain tuples, without the serving layer, the frames
    or the search index.  Each base query (a hashtag, a phrase, a domain,
    one user's timeline) is answered by one scan and memoized; windows and
    pages are then cut from the memoized list.

    - ``tweets``: the §3.1 corpus as ``(id, author, day, text_lower,
      hashtags_lower, url_hosts)``;
    - ``statuses``: ``(uid, day, text, hashtags_lower)`` in dataset order;
    - ``twitter_timelines`` / ``mastodon_timelines``: ``uid -> [(day, text)]``;
    - ``populations``: first-instance domain -> matched users;
    - ``weekly``: domain -> weekly rows; ``trends``: term -> series.
    """

    def __init__(self, tweets, statuses, twitter_timelines, mastodon_timelines,
                 populations, weekly, trends) -> None:
        self.tweets = tweets
        self.statuses = statuses
        self.timelines = {"twitter": twitter_timelines, "mastodon": mastodon_timelines}
        self.populations = populations
        self.weekly = weekly
        self.trends = trends
        self._memo: dict[tuple, list] = {}

    def _tweet_matches(self, kind: str, term: str) -> list[tuple[int, str]]:
        key = ("twitter", kind, term)
        found = self._memo.get(key)
        if found is None:
            found = []
            for tid, _author, day, text_lower, tags, hosts in self.tweets:
                if kind == "q":
                    hit = term in text_lower
                elif kind == "hashtag":
                    hit = term in tags
                else:
                    hit = any(h == term or h.endswith("." + term) for h in hosts)
                if hit:
                    found.append((tid, day))
            found.sort()
            self._memo[key] = found
        return found

    def _status_matches(self, kind: str, term: str) -> list[tuple[int, str, str]]:
        key = ("mastodon", kind, term)
        found = self._memo.get(key)
        if found is None:
            found = [
                (uid, day, text)
                for uid, day, text, tags in self.statuses
                if (term in tags if kind == "hashtag" else term in text.lower())
            ]
            self._memo[key] = found
        return found

    def expect(self, endpoint: str, params: dict) -> dict:
        """``{"total": n, "ids": [...]}`` for one request (ids identify rows)."""
        if endpoint == "search":
            since, until = params.get("since"), params.get("until")
            if params["platform"] == "twitter":
                rows = [
                    tid for tid, day in self._tweet_matches(params["kind"], params["term"])
                    if in_window(day, since, until)
                ]
            else:
                rows = [
                    [uid, day, text]
                    for uid, day, text in self._status_matches(params["kind"], params["term"])
                    if in_window(day, since, until)
                ]
            total, page = paginate(rows, params["limit"], params["offset"])
            return {"total": total, "ids": page}
        if endpoint == "timeline":
            posts = self.timelines[params["platform"]][params["uid"]]
            rows = [
                [day, text] for day, text in posts
                if in_window(day, params.get("since"), params.get("until"))
            ]
            total, page = paginate(rows, params["limit"], params["offset"])
            return {"total": total, "ids": page}
        if endpoint == "instances":
            ranked = sorted(self.populations.items(), key=lambda kv: (-kv[1], kv[0]))
            total, page = paginate(
                [[d, n] for d, n in ranked], params["limit"], params["offset"]
            )
            return {"total": total, "ids": page}
        if endpoint == "instance":
            domain = params["domain"]
            return {
                "total": self.populations.get(domain, 0),
                "ids": self.weekly.get(domain, []),
            }
        if endpoint == "trends":
            term = params.get("term")
            terms = sorted(self.trends) if term is None else [
                t for t in self.trends if t.lower() == term
            ]
            return {"total": len(terms), "ids": [[t, self.trends[t]] for t in terms]}
        raise ValueError(f"no oracle for endpoint {endpoint!r}")


def observed(endpoint: str, payload: dict) -> dict:
    """The ``{"total", "ids"}`` view of a served JSON payload."""
    if endpoint == "search":
        rows = payload["rows"]
        if payload["params"]["platform"] == "twitter":
            ids = [row["id"] for row in rows]
        else:
            ids = [[row["uid"], row["day"], row["text"]] for row in rows]
        return {"total": payload["total"], "ids": ids}
    if endpoint == "timeline":
        return {
            "total": payload["total"],
            "ids": [[row["day"], row["text"]] for row in payload["rows"]],
        }
    if endpoint == "instances":
        return {
            "total": payload["total"],
            "ids": [[row["domain"], row["users"]] for row in payload["rows"]],
        }
    if endpoint == "instance":
        return {"total": payload["users"], "ids": payload["weekly"]}
    if endpoint == "trends":
        terms = payload["terms"]
        return {
            "total": len(terms),
            "ids": [[t, [list(p) for p in payload["series"][t]]] for t in terms],
        }
    raise ValueError(f"no view for endpoint {endpoint!r}")


def check_answer(oracle: ServingOracle, endpoint: str, params: dict,
                 payload: dict, label: str) -> list[str]:
    """One served answer's total and page ids against the oracle."""
    try:
        got = observed(endpoint, payload)
    except (KeyError, TypeError, IndexError):
        return [f"{label}: answer lacks the fields of a {endpoint} payload"]
    expected = oracle.expect(endpoint, params)
    if endpoint == "trends":
        expected = {
            "total": expected["total"],
            "ids": [[t, [list(p) for p in series]] for t, series in expected["ids"]],
        }
    if got["total"] != expected["total"]:
        return [f"{label}: total {got['total']} != expected {expected['total']}"]
    if got["ids"] != expected["ids"]:
        return [f"{label}: page rows differ from the brute-force page"]
    return []
