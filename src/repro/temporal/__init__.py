"""Temporal pipeline: the longitudinal study over snapshot series.

Diffs consecutive inferred-topology snapshots into typed
:class:`GraphDelta` objects, grades every snapshot's Figure-1 layers
with one cold array-backend recompute per epoch, and emits the
longitudinal violation time-series — held byte-identical to the dict
backend's per-snapshot grading by the ``temporal`` differential check.
"""

from repro.temporal.delta import GraphDelta, apply_delta, diff_graphs
from repro.temporal.study import (
    EpochReport,
    TemporalInputs,
    TemporalJournal,
    TemporalResults,
    epoch_snapshot,
    run_incremental,
    run_scratch,
    serialize_epoch,
    series_fingerprint,
)

__all__ = [
    "GraphDelta",
    "apply_delta",
    "diff_graphs",
    "EpochReport",
    "TemporalInputs",
    "TemporalJournal",
    "TemporalResults",
    "epoch_snapshot",
    "run_incremental",
    "run_scratch",
    "serialize_epoch",
    "series_fingerprint",
]
