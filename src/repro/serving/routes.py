"""Route table and query-parameter normalization for the serving API.

Routing is a flat list of literal-prefix patterns — six endpoints do not
need a trie.  The load-bearing piece is :func:`normalize_params`: the
cache layers key on its output, so it must be *canonical* — every raw
query string that means the same request must normalize to the same
tuple, and the normalized form is what handlers echo back in the payload.
That bijection (one normalized key, one payload) is what makes caching
byte-transparent (DESIGN.md §5).

Normalization rules:

- unknown parameters are rejected (400), so typos cannot silently select
  a default-parameter cache entry;
- ``limit`` is clamped to ``[1, MAX_LIMIT]`` and ``offset`` floored at 0;
- hashtags are normalized exactly like the index
  (:func:`repro.util.text.normalize_hashtag`), domains and phrases are
  lowered exactly like :class:`~repro.twitter.search.SearchQuery`;
- dates must be ISO ``YYYY-MM-DD``.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from urllib.parse import parse_qsl

from repro.util.text import normalize_hashtag

#: Default and ceiling for paginated endpoints.
DEFAULT_LIMIT = 50
MAX_LIMIT = 500

#: Endpoint names, the unit the caches, metrics and loadgen all key on.
ENDPOINTS = (
    "healthz",
    "metrics",
    "search",
    "timeline",
    "instances",
    "instance",
    "trends",
)


class RequestError(Exception):
    """A malformed request; carries the HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class RouteMatch:
    """One resolved request: endpoint name plus its path parameter."""

    endpoint: str
    path_param: str | None = None


def resolve(path: str) -> RouteMatch:
    """Map a request path to its endpoint, or raise a 404."""
    if path == "/healthz":
        return RouteMatch("healthz")
    if path == "/metrics":
        return RouteMatch("metrics")
    if path == "/v1/search":
        return RouteMatch("search")
    if path == "/v1/instances":
        return RouteMatch("instances")
    if path.startswith("/v1/instances/"):
        domain = path[len("/v1/instances/") :]
        if not domain or "/" in domain:
            raise RequestError(404, f"no such path: {path}")
        return RouteMatch("instance", domain)
    if path.startswith("/v1/timeline/"):
        uid = path[len("/v1/timeline/") :]
        # ASCII only: str.isdigit() also accepts digits int() rejects ("²")
        if not (uid.isascii() and uid.isdigit()):
            raise RequestError(404, f"no such path: {path}")
        return RouteMatch("timeline", uid)
    if path == "/v1/trends":
        return RouteMatch("trends")
    raise RequestError(404, f"no such path: {path}")


#: Query parameters each endpoint accepts (anything else is a 400).
_ALLOWED: dict[str, frozenset[str]] = {
    "healthz": frozenset(),
    "metrics": frozenset(),
    "search": frozenset(
        {"q", "hashtag", "domain", "platform", "since", "until", "limit", "offset"}
    ),
    "timeline": frozenset({"platform", "since", "until", "limit", "offset"}),
    "instances": frozenset({"limit", "offset"}),
    "instance": frozenset(),
    "trends": frozenset({"term"}),
}

_PLATFORMS = ("twitter", "mastodon")


def parse_query_string(query_string: str) -> dict[str, str]:
    """Decode a raw query string; repeated keys are a 400 (ambiguous key)."""
    params: dict[str, str] = {}
    for key, value in parse_qsl(query_string, keep_blank_values=True):
        if key in params:
            raise RequestError(400, f"duplicate query parameter: {key}")
        params[key] = value
    return params


def _int_param(params: dict[str, str], name: str, default: int) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise RequestError(400, f"{name} must be an integer, got {raw!r}") from None


def _date_param(params: dict[str, str], name: str) -> _dt.date | None:
    raw = params.get(name)
    if raw is None:
        return None
    try:
        return _dt.date.fromisoformat(raw)
    except ValueError:
        raise RequestError(
            400, f"{name} must be an ISO date (YYYY-MM-DD), got {raw!r}"
        ) from None


def normalize_params(match: RouteMatch, params: dict[str, str]) -> dict:
    """The canonical parameter dict for one request (the cache key source).

    Raises :class:`RequestError` on unknown/invalid parameters.  The
    returned dict has a fixed key order per endpoint, so rendering it
    (into payload echoes and cache keys) is deterministic.
    """
    unknown = sorted(set(params) - _ALLOWED[match.endpoint])
    if unknown:
        raise RequestError(
            400,
            f"unknown parameter(s) for {match.endpoint}: {', '.join(unknown)}",
        )
    endpoint = match.endpoint
    if endpoint in ("healthz", "metrics"):
        return {}

    if endpoint == "search":
        platform = params.get("platform", "twitter")
        if platform not in _PLATFORMS:
            raise RequestError(
                400, f"platform must be one of {_PLATFORMS}, got {platform!r}"
            )
        terms = {
            "q": params.get("q", "").lower().strip(),
            "hashtag": normalize_hashtag(params.get("hashtag", "").lstrip("#")),
            "domain": params.get("domain", "").lower().strip(),
        }
        given = [k for k, v in terms.items() if v]
        if len(given) != 1:
            raise RequestError(
                400, "search needs exactly one of q=, hashtag= or domain="
            )
        if platform == "mastodon" and terms["domain"]:
            raise RequestError(400, "domain search is twitter-only")
        since = _date_param(params, "since")
        until = _date_param(params, "until")
        if since is not None and until is not None and until < since:
            raise RequestError(400, f"until {until} precedes since {since}")
        return {
            "platform": platform,
            "kind": given[0],
            "term": terms[given[0]],
            "since": since.isoformat() if since else None,
            "until": until.isoformat() if until else None,
            "limit": max(1, min(_int_param(params, "limit", DEFAULT_LIMIT), MAX_LIMIT)),
            "offset": max(0, _int_param(params, "offset", 0)),
        }

    if endpoint == "timeline":
        platform = params.get("platform", "twitter")
        if platform not in _PLATFORMS:
            raise RequestError(
                400, f"platform must be one of {_PLATFORMS}, got {platform!r}"
            )
        since = _date_param(params, "since")
        until = _date_param(params, "until")
        if since is not None and until is not None and until < since:
            raise RequestError(400, f"until {until} precedes since {since}")
        return {
            "uid": int(match.path_param),
            "platform": platform,
            "since": since.isoformat() if since else None,
            "until": until.isoformat() if until else None,
            "limit": max(1, min(_int_param(params, "limit", DEFAULT_LIMIT), MAX_LIMIT)),
            "offset": max(0, _int_param(params, "offset", 0)),
        }

    if endpoint == "instances":
        return {
            "limit": max(1, min(_int_param(params, "limit", DEFAULT_LIMIT), MAX_LIMIT)),
            "offset": max(0, _int_param(params, "offset", 0)),
        }

    if endpoint == "instance":
        return {"domain": match.path_param.lower()}

    if endpoint == "trends":
        return {"term": params.get("term", "").lower().strip() or None}

    raise RequestError(404, f"unroutable endpoint {endpoint!r}")  # pragma: no cover


def cache_key(endpoint: str, normalized: dict) -> tuple:
    """The hashable cache key of one normalized request."""
    return (endpoint, tuple(sorted(normalized.items())))
