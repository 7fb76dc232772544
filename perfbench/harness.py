"""Shared plumbing for the benchmark: spans, percentiles, /proc readers, children.

Nothing here imports ``repro``: the parent process of every workload stays a
light driver, and the program is reached only through child processes (and,
for the serving client, through the saved dataset it loads itself).

Timing uses ``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC``:
one timebase shared by every process on the machine, so a child's span
timestamps line up with the parent's without any clock exchange.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run outputs (datasets, traces, results); listed in the root .gitignore.
OUT_DIR = BENCH_DIR / "out"

#: The ROADMAP's canonical size, shared by all three workloads.  The
#: benchmark's own smoke tests shrink it through ``PERFBENCH_SCALE``.
SCALE = float(os.environ.get("PERFBENCH_SCALE", "0.01"))

_PR_SET_PDEATHSIG = 1
#: Longest a worker role may run before the run is abandoned, and a
#: terminated child may take to exit before it is killed.
ROLE_TIMEOUT = 170.0
STOP_TIMEOUT = 10.0
#: Throwaway spans timed to price one span of the trace.
PROBE_SPANS = 2000

#: The CPUs this benchmark may use.  On a shared host each CPU's speed
#: drifts on its own, in spells of seconds, so each timed step runs on the
#: CPU that is fastest when it starts (``pin_fastest``).
CPUS = sorted(os.sched_getaffinity(0))
#: ``pin_fastest``'s probe: the best of a few runs of a fixed loop, ~1 ms.
PROBE_LOOP = 20_000
PROBE_RUNS = 2
#: The probe time that ``at_reference_speed`` scales a step to: about what
#: the probe takes on the machine the benchmark was written on.
REFERENCE_PROBE_S = 0.001


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, dead child, timeout)."""


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded by the benchmark's own code around each call.

    A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
    index of the enclosing span in the same tracer (or -1) and ``op`` the
    operation id shared by one request or one day.  Disabled tracers record
    nothing, so untraced runs pay one attribute test per call site.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        #: spans timed live (``span``), as opposed to recorded after the fact
        self.live = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs) -> Iterator[dict]:
        if not self.enabled:
            yield attrs
            return
        index = len(self.spans)
        self.live += 1
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, op, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: str | None = None,
            parent: int | None = None, **attrs) -> None:
        """Record a span whose interval was measured elsewhere.

        ``parent`` defaults to the innermost open span.
        """
        if self.enabled:
            if parent is None:
                parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start, end, parent, op, attrs])

    def adopt(self, result: dict, under: str) -> None:
        """Append a child's spans (from its result) below the last ``under`` span."""
        self.live += result.get("live_spans", 0)
        root = self.last(under)
        base = len(self.spans)
        for name, start, end, parent, op, attrs in result["spans"]:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else root, op, attrs]
            )

    def last(self, name: str) -> int:
        """Index of the last span called ``name`` (-1 when absent)."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][0] == name:
                return index
        return -1

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (0.0 when absent)."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def attr(self, name: str, key: str, default: float = 0.0) -> float:
        """Attribute ``key`` of the last span called ``name``."""
        for span in reversed(self.spans):
            if span[0] == name and key in span[5]:
                return span[5][key]
        return default

    def per_span_cost(self) -> float:
        """Seconds one span costs this tracer, measured on throwaway spans."""
        probe = Tracer(True)
        started = time.perf_counter()
        for _ in range(PROBE_SPANS):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / PROBE_SPANS

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out: dict[str, float] = {}
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            covered = union_length(children.get(index, []), start, end)
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o, "attrs": a}
                for n, s, e, p, o, a in self.spans
            ],
            "self_seconds": self.self_times(),
        }
        path.write_text(json.dumps(doc) + "\n")


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


# -- arithmetic ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to a CPU whose probe takes ``REFERENCE_PROBE_S``.

    ``before`` and ``after`` are the probe times, just before and just
    after the measurement, of the CPU that ran it (the program idle while
    the probe runs).  A CPU's speed changes over a second or two, so the
    probe around a short measurement tracks the speed it ran at: a CPU that
    runs the probe 20% slower also runs the program about 20% slower, and
    dividing by the probe removes that while leaving any change in the
    program's own cost in place.
    """
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


def median_steps(rounds: list[dict], rescaled: bool = True) -> float:
    """Seconds of a round whose every step took its median time.

    ``rounds`` are identical rounds of work, each timed step by step
    (``Round.to_dict``).  Each step's time is rescaled by the probe around
    it (``at_reference_speed``; as measured when ``rescaled`` is false),
    and the figure is the sum over steps of each step's median over the
    rounds.  A step is short next to the spells in which a CPU runs slow,
    so its probe tracks the speed it ran at; the median then leaves out a
    step whose probe was off, in either direction.
    """
    def cost(steps: dict, name: str) -> float:
        seconds = steps["seconds"][name]
        return at_reference_speed(seconds, *steps["probes"][name]) if rescaled else seconds

    return sum(median([cost(steps, name) for steps in rounds]) for name in rounds[0]["seconds"])


def median_at_reference_speed(times: list[float],
                              probes: list[tuple[float, float]]) -> float:
    """Median of ``times``, each rescaled by the probe around it.

    ``probes[i]`` are the probe times just before and just after
    ``times[i]`` (``at_reference_speed``).
    """
    return median([at_reference_speed(t, *around) for t, around in zip(times, probes)])


def lateness_ms(due: float, sent: float) -> float:
    """How late a request left its generator, in ms (never negative)."""
    return max(0.0, sent - due) * 1000.0


def latency_ms(due: float, done: float) -> float:
    """Latency from a request's due time, which charges generator stalls."""
    return (done - due) * 1000.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- /proc readers ---------------------------------------------------------------


def _status_mb(pid: int | str, field: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no {field} for pid {pid}")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    return _status_mb(pid, "VmHWM:")


def vm_rss_mb(pid: int | str = "self") -> float:
    """Current resident set (``VmRSS``) of a process, in MB."""
    return _status_mb(pid, "VmRSS:")


def cpu_seconds(pid: int) -> float:
    """CPU time of every thread of ``pid`` so far (``schedstat``, ns)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:  # thread ended between listdir and open
            continue
    return total / 1e9


# -- child processes -------------------------------------------------------------


def pin(turn: int, pid: int = 0) -> None:
    """Run ``pid`` (0: the calling thread) on CPU number ``turn`` (mod count)."""
    os.sched_setaffinity(pid, {CPUS[turn % len(CPUS)]})


def _probe_seconds() -> float:
    best = math.inf
    for _ in range(PROBE_RUNS):
        began = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i % 7
        best = min(best, time.perf_counter() - began)
    return best


def probe_on(cpu: int) -> float:
    """The probe's time on ``cpu`` now; the calling thread stays on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    return _probe_seconds()


#: The fastest probe time of every ``pin_fastest`` call in this process:
#: how fast the host was while the run measured.
PROBES: list[float] = []


def pin_fastest() -> int:
    """Run the calling thread on the CPU that runs a fixed probe fastest now.

    Returns that CPU; its probe time is appended to ``PROBES``.
    """
    best, cpu = min((probe_on(cpu), cpu) for cpu in CPUS)
    PROBES.append(best)
    os.sched_setaffinity(0, {cpu})
    return cpu


class Round(dict):
    """Seconds per step of one round of identical work.

    ``step`` times one step on the CPU that runs the probe fastest when it
    starts, and keeps that CPU's probe times just before and just after the
    step in ``probes``, for ``median_steps``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.probes: dict[str, tuple[float, float]] = {}

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        cpu = pin_fastest()
        before = PROBES[-1]
        began = time.perf_counter()
        yield
        self[name] = time.perf_counter() - began
        self.probes[name] = (before, probe_on(cpu))

    def to_dict(self) -> dict:
        return {"seconds": dict(self), "probes": self.probes}


def program_env() -> dict[str, str]:
    """Environment for children: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _die_with_parent() -> None:
    """preexec hook: the child gets SIGTERM if the benchmark process dies."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    """Start a child that cannot outlive the benchmark."""
    return subprocess.Popen(
        argv, env=program_env(), cwd=str(ROOT), preexec_fn=_die_with_parent,
        **kwargs,
    )


def stop(proc: subprocess.Popen | None) -> None:
    """Terminate ``proc`` (if running) and wait until it has ended."""
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_role(role: str, args: dict, workdir: Path) -> dict:
    """Run one worker role in a fresh process; returns its result document."""
    result_path = workdir / f"{role}.result.json"
    args_path = workdir / f"{role}.args.json"
    args_path.write_text(json.dumps(args))
    spawned = time.perf_counter()
    proc = spawn(
        [sys.executable, str(BENCH_DIR / "worker.py"), role, str(args_path),
         str(result_path)],
        stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=ROLE_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {role} exceeded {ROLE_TIMEOUT:.0f}s") from None
    finally:
        stop(proc)
    if code != 0 or not result_path.exists():
        raise BenchError(f"worker {role} failed with exit code {code}")
    result = json.loads(result_path.read_text())
    result["spawned"] = spawned
    return result


def check_program() -> None:
    """Refuse to run without the program's sources in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
