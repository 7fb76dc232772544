"""The ``serve`` workload's client: its own seeded trace over a real socket.

The trace is generated here, from keys read out of the saved dataset, and
not by ``repro.serving.loadgen``, so a change to that module cannot change
what the server is measured with.  Its request mix, key skew, windows and
page sizes are the defaults of that module's ``LoadgenConfig``, the
program's documented serving workload, copied below as constants.  Key
popularity is Zipf-skewed over rankings (accounts by timeline length,
hashtags by the posts carrying them, instances by matched users).  After
an unmeasured pass that sends the hot round's distinct requests once,
three phases follow, each from one process with two keep-alive connections
and each a fixed number of requests:

- ``hot``: closed loop repeating one round of the skewed mix, so every
  request repeats an earlier one and the caches answer;
- ``open``: the skewed mix at a fixed arrival rate well under capacity,
  each request timed from its due time, so a stall is charged to every
  request behind it;
- ``miss``: closed loop over rounds of one base list of search and
  timeline requests, each request with its own ``until`` date past the end
  of the data: every round returns the same rows but no request repeats
  any earlier one of the run, so both cache tiers miss and every round is
  the same work.

Hot and miss rounds alternate, one miss round to a few hot ones.  Before
each round the client times the benchmark's CPU probe on every CPU while
the server is idle, runs the server on the fastest one and itself on
another, and times the probe on the server's CPU again after the round.
On a shared machine whose CPUs drift in speed by tens of percent over a
second or two, each round is then rescaled by the probe around it, and
hot and miss report the median rescaled round
(``harness.median_at_reference_speed``).
"""

from __future__ import annotations

import datetime as _dt
import gc
import itertools
import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator
from urllib.parse import quote

import checks
from harness import (
    CPUS,
    PROBES,
    BenchError,
    Tracer,
    cpu_seconds,
    latency_ms,
    lateness_ms,
    median,
    percentile,
    pin,
    pin_fastest,
    probe_on,
    ratio,
    spawn,
    stop,
    vm_hwm_mb,
)
from metrics import ENDPOINTS, PHASES

HOST = "127.0.0.1"
CONNECTIONS = 2
#: Longest the server's start or a phase may take before the run is abandoned.
PHASE_TIMEOUT = 120.0

# The request mix and key skew: ``LoadgenConfig``'s defaults.
MIX = (("search", 0.45), ("timeline", 0.35), ("instances", 0.10),
       ("instance", 0.05), ("trends", 0.05))
#: Search term kinds; domain search is Twitter-only, so on Mastodon its
#: share goes to hashtags.
SEARCH_KINDS = (("hashtag", 0.60), ("q", 0.25), ("domain", 0.15))
#: Share of search and timeline requests aimed at the Mastodon side.
MASTODON_SHARE = 0.3
#: Zipf exponent per ranking: accounts, hashtags, instances.
ZIPF = {"twitter_uid": 1.2, "mastodon_uid": 1.2, "twitter_tag": 1.1,
        "mastodon_tag": 1.1, "domain": 1.3}
#: Share of search and timeline requests restricted to a date window of
#: 1-14 days starting on a day of the simulated period.
WINDOW_SHARE = 0.3
LIMITS = (20, 50, 100)
#: Open-loop arrival rate, requests/s (hot reaches several thousand).
OPEN_RATE = 500.0
#: Share of ``instances`` requests with an offset (1-49), and of ``trends``
#: requests naming one term, as ``repro.serving.loadgen`` draws them.
INSTANCES_OFFSET_SHARE = 0.25
TREND_TERM_SHARE = 0.5
#: The §3.1 migration phrases (``repro.twitter.search.MIGRATION_KEYWORDS``).
PHRASES = ("mastodon", "bye bye twitter", "good bye twitter")
#: The simulated period (``repro.util.clock``).
SIM_START = _dt.date(2022, 10, 1)
SIM_END = _dt.date(2022, 11, 30)

#: Requests per second of ``--seconds``: sized so that, on the 2-core
#: machine the benchmark was written on, ``hot`` and ``miss`` take about
#: 0.2 of the run each, and ``open`` exactly 0.3 of it.
HOT_PER_SECOND = 2600
MISS_PER_SECOND = 300
OPEN_SHARE = 0.3
#: Requests per hot round and per miss round; hot and miss alternate in
#: blocks of one miss round and the hot rounds that fall to it.
HOT_ROUND = 520
MISS_ROUND = 240
#: Requests per round of each phase timed round by round.
ROUND_SIZES = {"hot": HOT_ROUND, "miss": MISS_ROUND}
#: Distinct requests per endpoint timed in-process in traced runs.
INPROC_PER_ENDPOINT = 40
#: ``until`` of the n-th miss request is this day + n: past every post, so
#: the answer is the unwindowed one while the cache key is new.
MISS_UNTIL = _dt.date(2023, 1, 1).toordinal()


# -- the trace -----------------------------------------------------------------


class Inventory:
    """Ranked keys, most popular first, from ``program.oracle_fields``."""

    def __init__(self, fields: dict) -> None:
        def ranked(counts) -> list:
            return [k for k, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]

        self.keys = {
            "twitter_uid": ranked({u: len(p) for u, p in fields["twitter_timelines"].items()}),
            "mastodon_uid": ranked({u: len(p) for u, p in fields["mastodon_timelines"].items()}),
            "twitter_tag": ranked(Counter(tag for row in fields["tweets"] for tag in row[4])),
            "mastodon_tag": ranked(Counter(tag for row in fields["statuses"] for tag in row[3])),
            "domain": ranked(fields["populations"]),
            "trend": sorted(fields["trends"]),
        }
        self.weights = {
            name: list(itertools.accumulate(
                1.0 / (rank + 1) ** exponent for rank in range(len(self.keys[name]))
            ))
            for name, exponent in ZIPF.items()
        }

    def pick(self, rng: random.Random, name: str):
        return rng.choices(self.keys[name], cum_weights=self.weights[name])[0]


def _choose(rng: random.Random, mix) -> str:
    return rng.choices([name for name, _ in mix], weights=[w for _, w in mix])[0]


def _window(rng: random.Random) -> tuple[str | None, str | None]:
    if rng.random() >= WINDOW_SHARE:
        return None, None
    since = SIM_START + _dt.timedelta(days=rng.randrange((SIM_END - SIM_START).days))
    until = min(SIM_END, since + _dt.timedelta(days=rng.randrange(1, 15)))
    return since.isoformat(), until.isoformat()


def draw(rng: random.Random, inv: Inventory) -> tuple[str, dict]:
    """One request of the skewed mix as ``(endpoint, normalized params)``.

    Params are generated already in the server's canonical form (lowered
    terms, limits within range), so equal dicts mean equal cache keys.
    """
    endpoint = _choose(rng, MIX)
    if endpoint in ("search", "timeline"):
        platform = "mastodon" if rng.random() < MASTODON_SHARE else "twitter"
        if endpoint == "timeline":
            params = {"uid": inv.pick(rng, platform + "_uid"), "platform": platform}
        else:
            kind = _choose(rng, SEARCH_KINDS)
            if kind == "domain" and platform == "mastodon":
                kind = "hashtag"
            term = (rng.choice(PHRASES) if kind == "q"
                    else inv.pick(rng, "domain" if kind == "domain" else platform + "_tag"))
            params = {"platform": platform, "kind": kind, "term": term}
        since, until = _window(rng)
        params.update(since=since, until=until, limit=rng.choice(LIMITS), offset=0)
        return endpoint, params
    if endpoint == "instances":
        offset = rng.randrange(1, 50) if rng.random() < INSTANCES_OFFSET_SHARE else 0
        return endpoint, {"limit": rng.choice(LIMITS), "offset": offset}
    if endpoint == "instance":
        return endpoint, {"domain": inv.pick(rng, "domain")}
    term = rng.choice(inv.keys["trend"]).lower() if rng.random() < TREND_TERM_SHARE else None
    return endpoint, {"term": term}


def target(endpoint: str, params: dict) -> bytes:
    """The HTTP request target of one normalized request."""
    def query(pairs) -> str:
        text = "&".join(f"{k}={quote(str(v), safe='')}" for k, v in pairs if v is not None)
        return "?" + text if text else ""

    window = [("since", params.get("since")), ("until", params.get("until"))]
    page = [("limit", params.get("limit")), ("offset", params.get("offset"))]
    if endpoint == "search":
        path = "/v1/search" + query(
            [(params["kind"], params["term"]), ("platform", params["platform"])]
            + window + page)
    elif endpoint == "timeline":
        path = f"/v1/timeline/{params['uid']}" + query(
            [("platform", params["platform"])] + window + page)
    elif endpoint == "instances":
        path = "/v1/instances" + query(page)
    elif endpoint == "instance":
        path = "/v1/instances/" + quote(params["domain"], safe="")
    else:
        path = "/v1/trends" + query([("term", params["term"])])
    return path.encode("ascii")


def key_of(endpoint: str, params: dict) -> tuple:
    return (endpoint, tuple(sorted(params.items())))


def apportion(total: int, weights: list[float]) -> list[int]:
    """Whole counts summing to ``total`` in proportion to ``weights``.

    Largest remainder: each weight gets the floor of its exact share, and
    the units left go to the largest remainders.
    """
    exact = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def miss_plan() -> list[tuple[str, str, str | None, str | None, int]]:
    """The miss round: ``(endpoint, platform, kind, ranking, requests)``.

    The search and timeline shares of ``MIX``, split by platform and search
    kind as ``draw`` splits them, apportioned to ``MISS_ROUND`` requests.
    """
    mix = dict(MIX)
    leaves = []
    for platform, share in (("twitter", 1 - MASTODON_SHARE), ("mastodon", MASTODON_SHARE)):
        leaves.append(("timeline", platform, None, platform + "_uid",
                       mix["timeline"] * share))
        kinds = dict(SEARCH_KINDS)
        if platform == "mastodon":
            kinds["hashtag"] += kinds.pop("domain")
        for kind, kind_share in kinds.items():
            ranking = {"q": None, "domain": "domain"}.get(kind, platform + "_tag")
            leaves.append(("search", platform, kind, ranking,
                           mix["search"] * share * kind_share))
    counts = apportion(MISS_ROUND, [leaf[-1] for leaf in leaves])
    return [leaf[:-1] + (count,) for leaf, count in zip(leaves, counts)]


def miss_trace(inv: Inventory, rng: random.Random, rounds: int) -> list[tuple[str, dict]]:
    """``rounds`` copies of one miss round, every request with its own ``until``.

    A round takes the top-ranked keys of each kind (the migration phrases
    for ``q``), not random draws, so its compute cost does not swing with
    how many heavy head keys a seed happens to draw; the seed picks the
    page sizes.
    """
    base = []
    for endpoint, platform, kind, ranking, count in miss_plan():
        keys = inv.keys[ranking] if ranking else PHRASES
        for rank in range(count):
            term = keys[rank % len(keys)]
            if endpoint == "timeline":
                params = {"uid": term, "platform": platform}
            else:
                params = {"platform": platform, "kind": kind, "term": term}
            params.update(since=None, limit=rng.choice(LIMITS), offset=0)
            base.append((endpoint, params))
    return [
        (endpoint, dict(params, until=_dt.date.fromordinal(MISS_UNTIL + n).isoformat()))
        for n, (endpoint, params) in enumerate(base * rounds)
    ]


def build_traces(inv: Inventory, seed: int, seconds: int) -> dict[str, list]:
    """The warm-up, hot, open and miss request sequences of one seed."""
    rng = random.Random(seed)
    hot_round = [draw(rng, inv) for _ in range(HOT_ROUND)]
    warm = list({key_of(*request): request for request in hot_round}.values())
    opened = [draw(rng, inv) for _ in range(int(OPEN_SHARE * seconds * OPEN_RATE))]
    return {
        "warm": warm,
        "hot": hot_round * max(1, HOT_PER_SECOND * seconds // HOT_ROUND),
        "open": opened,
        "miss": miss_trace(inv, rng, max(1, MISS_PER_SECOND * seconds // MISS_ROUND)),
    }


def block_range(requests: int, size: int, block: int, blocks: int) -> tuple[int, int]:
    """Requests ``lo:hi`` of block ``block`` of ``blocks``: whole rounds of ``size``."""
    rounds = requests // size
    return (size * (rounds * block // blocks), size * (rounds * (block + 1) // blocks))


# -- the HTTP client -------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal response parser."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def get(self, target: bytes) -> tuple[int, bytes]:
        self.sock.sendall(b"GET " + target + b" HTTP/1.1\r\nHost: bench\r\n\r\n")
        buffer = self.buffer
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            buffer += self._recv()
        head, rest = buffer[:end], buffer[end + 4 :]
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += self._recv()
        self.buffer = rest[length:]
        return status, rest[:length]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


class Recorder:
    """Per-request outcomes of one phase, and the bodies the checks need."""

    def __init__(self, bodies: dict) -> None:
        self.lock = threading.Lock()
        #: key -> (status, body) of its first answer, shared across phases
        self.bodies = bodies
        self.records: list[tuple] = []  # (endpoint, due, sent, done, status, index)
        self.repeats = 0
        self.mismatched: list[str] = []
        # wall and server CPU seconds, and cache-tier hit/miss deltas,
        # summed over the blocks this phase ran in
        self.elapsed = 0.0
        self.cpu = 0.0
        self.tiers = {"payload": [0, 0], "result": [0, 0]}

    @contextmanager
    def meter(self, port: int, pid: int) -> Iterator[None]:
        """Add one block's wall time, server CPU and cache counts."""
        before = server_metrics(port)
        cpu = cpu_seconds(pid)
        began = time.perf_counter()
        yield
        self.elapsed += time.perf_counter() - began
        self.cpu += cpu_seconds(pid) - cpu
        after = server_metrics(port)
        for tier, counts in self.tiers.items():
            for i, (a, b) in enumerate(zip(_tier(after, tier), _tier(before, tier))):
                counts[i] += a - b

    def record(self, index, endpoint, key, due, sent_at, done, status, body) -> None:
        with self.lock:
            self.records.append((endpoint, due, sent_at, done, status, index))
            first = self.bodies.get(key)
            if first is None:
                self.bodies[key] = (status, body)
                return
            self.repeats += 1
            if first != (status, body):
                self.mismatched.append(f"repeated {key[0]} request answered other bytes")


def closed_loop(port: int, trace, rec: Recorder, op: str, tracer: Tracer,
                lo: int = 0, hi: int | None = None) -> None:
    """Send requests ``lo:hi`` of the trace once, in order, over two connections."""
    counter = itertools.count(lo)
    hi = len(trace) if hi is None else hi
    errors: list[BaseException] = []

    def client() -> None:
        conn = Connection(port)
        try:
            while (index := next(counter)) < hi:
                endpoint, params = trace[index]
                started = time.perf_counter()
                status, body = conn.get(target(endpoint, params))
                rec.record(index, endpoint, key_of(endpoint, params), started,
                           started, time.perf_counter(), status, body)
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)
        finally:
            conn.close()

    with tracer.span(f"serving.phase.{op}", op):
        _run_clients(client, errors, op)


def _run_clients(client, errors: list, op: str) -> None:
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(PHASE_TIMEOUT)
    if errors or any(thread.is_alive() for thread in threads):
        raise BenchError(f"{op} phase client failed: {errors[:1] or 'timeout'}")


def open_loop(port: int, trace, rate: float, rec: Recorder, tracer: Tracer) -> None:
    """Send request i at ``start + i / rate`` on whichever connection is free."""
    counter = itertools.count()
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.05

    def client() -> None:
        conn = Connection(port)
        try:
            while (index := next(counter)) < len(trace):
                due = start + index / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                endpoint, params = trace[index]
                sent_at = time.perf_counter()
                status, body = conn.get(target(endpoint, params))
                rec.record(index, endpoint, key_of(endpoint, params), due, sent_at,
                           time.perf_counter(), status, body)
        except BaseException as exc:
            errors.append(exc)
        finally:
            conn.close()

    with tracer.span("serving.phase.open", "open"):
        _run_clients(client, errors, "open")


# -- the server ------------------------------------------------------------------


def start_server(npz: str, log_path) -> subprocess.Popen:
    log = open(log_path, "wb")
    try:
        return spawn(
            [sys.executable, "-m", "repro.serving", "serve", npz,
             "--host", HOST, "--port", "0"],
            stdout=subprocess.PIPE, stderr=log,
        )
    finally:
        log.close()


def await_port(proc: subprocess.Popen) -> int:
    """Read the ``serving on (host, port)`` line the server prints when bound."""
    deadline = time.perf_counter() + PHASE_TIMEOUT
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or proc.poll() is not None:
            raise BenchError("server did not start")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            chunk = proc.stdout.read1(256)
            if not chunk:
                raise BenchError("server exited before binding")
            line += chunk
    try:
        return int(line.rsplit(b",", 1)[1].strip(b" )\r\n"))
    except (IndexError, ValueError):
        raise BenchError(f"unexpected server banner {line!r}") from None


def server_metrics(port: int) -> dict:
    conn = Connection(port)
    try:
        status, body = conn.get(b"/metrics")
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    return json.loads(body)


def _tier(doc: dict, tier: str) -> tuple[int, int]:
    stats = doc.get("caches", {}).get(tier, {})
    return int(stats.get("hits", 0)), int(stats.get("misses", 0))


# -- the run ---------------------------------------------------------------------


def run(args: dict, started: float) -> dict:
    tracer = Tracer(args["trace"])
    spawned = time.perf_counter()
    server = start_server(args["npz"], args["server_log"])
    try:
        return _drive(args, started, tracer, server, spawned)
    finally:
        stop(server)


def _drive(args, started, tracer, server, spawned) -> dict:
    with tracer.span("setup.import_repro"):
        import program as P
    with tracer.span("collection.load"):
        dataset = P.MigrationDataset.load(args["npz"])
    with tracer.span("serving.trace_build"):
        fields = P.oracle_fields(dataset)
        traces = build_traces(Inventory(fields), args["seed"], args["seconds"])
    with tracer.span("serving.ready"):
        port = await_port(server)
        conn = Connection(port)
        status, _ = conn.get(b"/healthz")
        conn.close()
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
    ready = time.perf_counter()

    # the client's own heap (the dataset, the traces) is set-up: keep the
    # collector from walking it during the phases, where a pause would make
    # the generator, not the server, late
    gc.freeze()
    bodies: dict = {}
    warm = Recorder(bodies)
    closed_loop(port, traces["warm"], warm, "warm", tracer)
    recorders = {phase: Recorder(bodies) for phase in PHASES}
    measured = time.perf_counter()
    # hot and miss alternate in blocks, one miss round each, so each one's
    # rounds are spread over the whole measured window
    blocks = len(traces["miss"]) // MISS_ROUND
    round_probes: dict[str, list] = {phase: [] for phase in ROUND_SIZES}
    for block in range(blocks):
        for phase, size in ROUND_SIZES.items():
            lo, hi = block_range(len(traces[phase]), size, block, blocks)
            for first in range(lo, hi, size):
                round_probes[phase].append(_round_on_fastest_cpu(
                    port, server.pid, traces[phase], recorders[phase], phase,
                    tracer, first, first + size))
    _place(server.pid)
    with recorders["open"].meter(port, server.pid):
        open_loop(port, traces["open"], OPEN_RATE, recorders["open"], tracer)
    phases = {
        phase: _phase_figures(rec, ROUND_SIZES.get(phase))
        for phase, rec in recorders.items()
    }
    for phase, probes in round_probes.items():
        phases[phase]["round_probes"] = probes
    if tracer.enabled:
        for phase, rec in recorders.items():
            # one phase span per round (open: one in all), in round order
            rounds = [i for i, span in enumerate(tracer.spans)
                      if span[0] == f"serving.phase.{phase}"]
            size = ROUND_SIZES.get(phase, len(rec.records) or 1)
            for endpoint, _due, sent_at, done, status, index in rec.records:
                tracer.add(f"serving.request.{endpoint}", sent_at, done,
                           f"{phase}.{index}", rounds[index // size], status=status)
    server_peak = vm_hwm_mb(server.pid)
    stop(server)

    tally = checks.Tally()
    for phase, rec in (("warm-up", warm), *recorders.items()):
        tally.responses([record[4] for record in rec.records], f"{phase} phase")
        tally.fail(*rec.mismatched)
    with tracer.span("serving.check"):
        oracle = checks.ServingOracle(**fields)
        for (endpoint, items), (status, body) in bodies.items():
            if status != 200:
                continue  # a failed request already
            label = f"{endpoint} {dict(items)}"
            try:
                payload = json.loads(body)
            except ValueError:
                tally.fail(f"{label}: answered a body that is not JSON")
                continue
            tally.fail(*checks.check_answer(oracle, endpoint, dict(items), payload, label))
            if len(tally.failures) >= checks.MAX_FAILURES:
                break

    inproc = _in_process(dataset, traces, tracer) if args["trace"] else {}
    return {
        "started": started,
        "spawned_server": spawned,
        "ready": ready,
        "measured": measured,
        "server_peak_mb": server_peak,
        "phases": phases,
        "probes": PROBES,
        "distinct": len(bodies),
        **tally.to_dict(),
        "inproc": inproc,
        "spans": tracer.spans,
        "live_spans": tracer.live,
    }


def _place(pid: int) -> int:
    """Run the server on the CPU that runs the probe fastest now (probed
    while the server is idle) and the calling thread on the next CPU;
    returns the server's CPU."""
    cpu = pin_fastest()
    os.sched_setaffinity(pid, {cpu})
    pin(CPUS.index(cpu) + 1)
    return cpu


def _round_on_fastest_cpu(port, pid, trace, rec, phase, tracer, lo, hi):
    """One round, the server on the CPU that runs the probe fastest now.

    Returns that CPU's probe times just before and just after the round,
    both taken while the server is idle.
    """
    cpu = _place(pid)
    before = PROBES[-1]
    with rec.meter(port, pid):
        closed_loop(port, trace, rec, phase, tracer, lo, hi)
    return before, probe_on(cpu)


def round_ms(records: list[tuple], size: int) -> list[float]:
    """Wall ms per request of each round of ``size`` consecutive requests.

    A round lasts from its first request's send to its last one's reply.
    """
    spans: dict[int, list[float]] = {}
    for record in records:
        lo_hi = spans.setdefault(record[5] // size, [record[2], record[3]])
        lo_hi[0] = min(lo_hi[0], record[2])
        lo_hi[1] = max(lo_hi[1], record[3])
    return [(hi - lo) / size * 1000 for _n, (lo, hi) in sorted(spans.items())]


def _phase_figures(rec: Recorder, size: int | None) -> dict:
    records = rec.records
    n = len(records)
    p_hits, p_miss = rec.tiers["payload"]
    r_hits, r_miss = rec.tiers["result"]
    latencies = [latency_ms(r[1], r[3]) for r in records]
    by_endpoint = {
        e: median([latency_ms(r[1], r[3]) for r in records if r[0] == e])
        for e in ENDPOINTS if any(r[0] == e for r in records)
    }
    mix = {e: sum(1 for r in records if r[0] == e) for e in ENDPOINTS}
    return {
        "requests": n,
        "elapsed": rec.elapsed,
        "rps": ratio(n, rec.elapsed),
        "round_ms": round_ms(records, size) if size else [],
        "server_cpu_us": ratio(rec.cpu, n) * 1e6,
        "server_busy": ratio(rec.cpu, rec.elapsed),
        "payload_hit_ratio": ratio(p_hits, p_hits + p_miss),
        "result_hit_ratio": ratio(r_hits, r_hits + r_miss),
        "repeat_share": ratio(rec.repeats, n),
        "p50_ms": median(latencies) if latencies else 0.0,
        "p99_ms": percentile(latencies, 99.0) if latencies else 0.0,
        "late_p99_ms": percentile(
            [lateness_ms(r[1], r[2]) for r in records], 99.0
        ) if records else 0.0,
        "endpoint_p50_ms": by_endpoint,
        "mix": mix,
    }


def _in_process(dataset, traces, tracer: Tracer) -> dict:
    """``ServingApp.get`` timed in-process: first sight and repeat, per endpoint."""
    from repro.serving.app import ServingApp

    with tracer.span("serving.inproc_warm"):
        app = ServingApp(dataset)
        app.warm()
    compute: dict[str, list[float]] = {e: [] for e in ENDPOINTS}
    handle: dict[str, list[float]] = {e: [] for e in ENDPOINTS}
    seen: set = set()
    for endpoint, params in traces["hot"]:
        key = key_of(endpoint, params)
        if key in seen or len(compute[endpoint]) >= INPROC_PER_ENDPOINT:
            continue
        seen.add(key)
        request = target(endpoint, params).decode("ascii")
        with tracer.span(f"serving.compute.{endpoint}", "inproc"):
            began = time.perf_counter()
            app.get(request)
            compute[endpoint].append(time.perf_counter() - began)
        for _ in range(5):
            with tracer.span(f"serving.handle.{endpoint}", "inproc"):
                began = time.perf_counter()
                app.get(request)
                handle[endpoint].append(time.perf_counter() - began)
    return {
        "compute_us": {e: median(v) * 1e6 for e, v in compute.items() if v},
        "handle_us": {e: median(v) * 1e6 for e, v in handle.items() if v},
    }
