"""Columnar analysis frames: the shared substrate of the figure suite.

Every frames-backed analysis in :mod:`repro.analysis` runs on a
lazily-built, memoized columnar view of the dataset (:class:`DatasetFrames`,
reached through :func:`frames_of`) instead of re-iterating nested Python
objects — built once and shared across all experiments and the headline
report.  The per-object loops it replaced are kept as test oracles in
``tests/oracles/``, and every result equals theirs bit for bit.
"""

from repro.frames.core import DatasetFrames, frames_of, invalidate
from repro.frames.tables import (
    EdgeTable,
    Interner,
    ProfileTable,
    TimelineTable,
    TokenTable,
    build_edge_table,
    build_profile_table,
    build_timeline_table,
    build_token_table,
    ordinal_counts,
    tag_counts,
)

__all__ = [
    "DatasetFrames",
    "EdgeTable",
    "Interner",
    "ProfileTable",
    "TimelineTable",
    "TokenTable",
    "build_edge_table",
    "build_profile_table",
    "build_timeline_table",
    "build_token_table",
    "frames_of",
    "invalidate",
    "ordinal_counts",
    "tag_counts",
]
