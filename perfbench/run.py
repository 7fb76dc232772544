"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce|serve|track \\
        --seed N --seconds S --trace 0|1

Each workload drives the program in fresh processes through its public
entry points, checks the outputs against independent computations, prints
one ``name value unit`` line per metric and, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` records spans around every
call, writes them to ``perfbench/out/`` and reports the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from harness import OUT_DIR, BenchError, Tracer  # noqa: E402


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds every finally: children stop


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        harness.check_program()
        tracer = Tracer(bool(opts.trace))
        workdir = OUT_DIR / f"run-{opts.workload}-{opts.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            outcome = workloads.WORKLOADS[opts.workload](opts, tracer, workdir, T0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    if opts.trace:
        trace_path = OUT_DIR / f"trace-{opts.workload}-{opts.seed}.json"
        tracer.write(trace_path)
        print(f"trace written to {trace_path.relative_to(harness.ROOT)}")
    for line in outcome.failures:
        print(f"CHECK FAILED: {line}")
    for name, (value, unit) in outcome.report.items():
        print(f"{name:<34} {value:>14.6f} {unit}")
    chosen = metrics.PER_LAYER if opts.trace else metrics.END_TO_END
    values = outcome.layers if opts.trace else outcome.end_to_end
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit, _better in chosen
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
