"""Serving-layer fixtures: warm apps over the shared small dataset.

Apps are session-scoped — warming the columnar read models costs real
time and every test here treats the app as read-only (the caches it
accumulates are part of what the tests exercise, and the byte-
transparency contract says they cannot change any answer).
"""

from __future__ import annotations

import pytest

from repro.serving.app import ServingApp
from repro.serving.loadgen import LoadgenConfig, build_trace
from tests.oracles import serving as oracle


@pytest.fixture(scope="session")
def serving_app(small_dataset) -> ServingApp:
    """Columnar app, caches on — the production configuration."""
    app = ServingApp(small_dataset)
    app.warm()
    return app


@pytest.fixture(scope="session")
def naive_app(small_dataset) -> ServingApp:
    """Oracle views, caches off — the reference the fast path must match."""
    return oracle.naive_app(small_dataset)


@pytest.fixture(scope="session")
def small_trace(small_dataset):
    """A deterministic 400-request workload over the small dataset."""
    return build_trace(small_dataset, LoadgenConfig(seed=7, requests=400))
