"""Benchmark of the memoized columnar frames against the naive loops.

Runs the *entire* figure suite (16 paper figures, 3 extensions, headline
report) three ways on the shared benchmark dataset:

- naive: the per-object oracles of ``tests/oracles/`` installed in place
  of the frames-backed analyses;
- frames cold: first run on a fresh :class:`DatasetFrames` (pays the
  column/table/embedding build);
- frames warm: second run on the same frames (result-cache hits).

The outputs must be byte-identical across all three — that equality is
asserted here, on every benchmark run, not just in the unit tests — and
the cold-frames run must beat naive by ``MIN_SPEEDUP``.  Dataset
save/load wall times for both serialization formats land in the same
``analysis`` section of ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import time

from conftest import record_analysis

from repro.analysis.report import format_report, headline_report
from repro.collection.dataset import MigrationDataset
from repro.experiments.registry import run_all
from repro.frames import invalidate
from tests.oracles import oracles_installed

#: Full-suite speedup the frames must deliver (acceptance gate is 2x at
#: CI scale; at the default 0.01 scale the measured ratio is ~3x+).
MIN_SPEEDUP = 2.0


def _run_suite(dataset: MigrationDataset) -> tuple[str, float]:
    """One full figure suite + report; returns (rendered output, seconds)."""
    started = time.perf_counter()
    results = run_all(dataset, include_extensions=True)
    text = "\n\n".join(r.format() for r in results)
    text += "\n\n" + format_report(headline_report(dataset))
    return text, time.perf_counter() - started


def test_bench_analysis_suite(bench_dataset):
    with oracles_installed():
        naive_text, naive_seconds = _run_suite(bench_dataset)

    invalidate(bench_dataset)
    cold_text, cold_seconds = _run_suite(bench_dataset)
    warm_text, warm_seconds = _run_suite(bench_dataset)

    assert cold_text == naive_text
    assert warm_text == naive_text

    speedup = naive_seconds / max(cold_seconds, 1e-9)
    record_analysis(
        {
            "suite": {
                "figures": 19,
                "naive_seconds": round(naive_seconds, 4),
                "frames_cold_seconds": round(cold_seconds, 4),
                "frames_warm_seconds": round(warm_seconds, 4),
                "speedup_cold": round(speedup, 2),
                "output_identical": True,
            }
        }
    )
    assert speedup >= MIN_SPEEDUP, (
        f"frames suite speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate "
        f"(naive {naive_seconds:.2f}s vs cold frames {cold_seconds:.2f}s)"
    )


def test_bench_dataset_formats(bench_dataset, tmp_path):
    import json

    from conftest import BENCH_ARTIFACT

    json_path = tmp_path / "bench.json"
    npz_path = tmp_path / "bench.npz"

    timings: dict[str, float] = {}
    started = time.perf_counter()
    bench_dataset.save(json_path)
    timings["json_save_seconds"] = time.perf_counter() - started
    started = time.perf_counter()
    from_json = MigrationDataset.load(json_path)
    timings["json_load_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    bench_dataset.save(npz_path)
    timings["npz_save_seconds"] = time.perf_counter() - started
    started = time.perf_counter()
    from_npz = MigrationDataset.load(npz_path)
    timings["npz_load_seconds"] = time.perf_counter() - started

    assert from_json == bench_dataset
    assert from_npz == bench_dataset

    payload = json.loads(BENCH_ARTIFACT.read_text())
    section = payload.setdefault("analysis", {})
    section["formats"] = {
        "json_bytes": json_path.stat().st_size,
        "npz_bytes": npz_path.stat().st_size,
        **{k: round(v, 4) for k, v in timings.items()},
    }
    BENCH_ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    # the binary format's point is a smaller artifact and a cheaper save
    assert npz_path.stat().st_size < json_path.stat().st_size
    assert timings["npz_save_seconds"] < timings["json_save_seconds"]
