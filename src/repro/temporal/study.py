"""Longitudinal study over an inferred-snapshot series.

The study pipeline grades every Figure-1 layer against one aggregated
topology; this module runs the same grading against *each* monthly
snapshot and emits the violation time-series.  Every epoch is one cold
recompute on the ``array`` backend: fresh engines over the snapshot,
each engine's routing trees built in one kernel sweep, and the seven
layers graded through the vectorized arena.  Consecutive snapshots are
still diffed into a :class:`~repro.temporal.delta.GraphDelta`, whose
summary each epoch reports; an empty delta repeats the previous
epoch's counts without building an engine.

:func:`run_scratch` is the oracle: the same per-snapshot grading on
fresh ``dict``-backend engines.  The ``temporal`` differential check
(:mod:`repro.check.differential`) asserts the two legs' per-epoch
snapshots are byte-identical JSON.

Epochs are journal-backed: with a journal path each completed epoch is
appended as one durable record, and ``resume=True`` replays the
journaled prefix verbatim and recomputes from the first missing epoch.
An epoch is a pure function of its snapshot, so there is no working
state to rebuild and the continuation is identical to an uninterrupted
run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
    classify_decisions,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import FIGURE1_LAYERS, StudyResults, figure1_layer_configs
from repro.faults.journal import CheckpointJournal
from repro.faults.storage import StoragePolicy
from repro.net.ip import Prefix
from repro.obs.context import get_obs
from repro.obs.trace import span
from repro.temporal.delta import diff_graphs
from repro.topology.complex_rel import ComplexRelationships
from repro.topology.graph import ASGraph
from repro.whois.siblings import SiblingGroups

#: Schema tag of the per-epoch comparison snapshot and journal records.
EPOCH_SCHEMA = 1


@dataclass
class TemporalInputs:
    """Everything epoch grading needs besides the snapshots themselves.

    Decisions, PSP first-hop maps, hybrid relationships and sibling
    groups are *measurement-side* artifacts: the paper derives them from
    the campaign, not from any one monthly topology, so the longitudinal
    axis holds them fixed and varies only the inferred graph.
    """

    decisions: List[Decision]
    first_hops_1: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    first_hops_2: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    known_complex: Optional[ComplexRelationships] = None
    siblings: Optional[SiblingGroups] = None
    partial_transit: FrozenSet[Tuple[int, int]] = frozenset()

    @classmethod
    def from_study(cls, results: StudyResults) -> "TemporalInputs":
        """Lift a completed study's artifacts into temporal inputs."""
        partial: FrozenSet[Tuple[int, int]] = frozenset()
        if results.known_complex is not None:
            partial = frozenset(
                (entry.provider, entry.customer)
                for entry in results.known_complex.partial_transit_entries()
            )
        return cls(
            decisions=results.decisions,
            first_hops_1=results.first_hops_1,
            first_hops_2=results.first_hops_2,
            known_complex=results.known_complex,
            siblings=results.siblings,
            partial_transit=partial,
        )


@dataclass
class EpochReport:
    """What one epoch did: the delta, the trees built, and the tallies."""

    index: int
    #: :meth:`GraphDelta.summary` of the diff from the previous epoch
    #: (empty for epoch 0 and for replayed epochs).
    delta: Dict[str, int] = field(default_factory=dict)
    #: Routing trees built this epoch (cache misses of both engines);
    #: 0 for an epoch whose delta is empty.
    cache_misses: int = 0
    #: Raw Figure-1 counts per layer, :func:`epoch_snapshot` shape.
    figure1: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Whether this epoch was replayed from the journal on resume.
    resumed: bool = False

    def violations(self) -> Dict[str, int]:
        """Per-layer violation totals (everything but Best/Short)."""
        best = DecisionLabel.BEST_SHORT.value
        return {
            layer: sum(count for label, count in counts.items() if label != best)
            for layer, counts in self.figure1.items()
        }


@dataclass
class TemporalResults:
    """The longitudinal violation time-series and its accounting."""

    epochs: List[EpochReport] = field(default_factory=list)
    #: Epochs replayed from the journal rather than computed.
    resumed_epochs: int = 0

    def figure1_series(self) -> List[Dict[str, Dict[str, int]]]:
        return [epoch.figure1 for epoch in self.epochs]

    def violation_series(self) -> List[Dict[str, int]]:
        return [epoch.violations() for epoch in self.epochs]

    def as_dict(self) -> Dict[str, object]:
        return {
            "resumed_epochs": self.resumed_epochs,
            "epochs": [
                {
                    "index": epoch.index,
                    "delta": dict(epoch.delta),
                    "cache_misses": epoch.cache_misses,
                    "resumed": epoch.resumed,
                    "figure1": epoch.figure1,
                }
                for epoch in self.epochs
            ],
        }


# ---------------------------------------------------------------------------
# Per-epoch comparison snapshot
# ---------------------------------------------------------------------------


def epoch_snapshot(index: int, figure1: Dict[str, Dict[str, int]]) -> Dict[str, object]:
    """The canonical JSON-able record of one epoch's Figure-1 counts.

    Both the array and the dict legs emit this exact shape; the
    differential check compares their serializations byte-for-byte per
    epoch.
    """
    return {"schema": EPOCH_SCHEMA, "epoch": index, "figure1": figure1}


def serialize_epoch(snapshot: Dict[str, object]) -> str:
    """Byte-deterministic serialization (same format as the goldens)."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _counts_dict(figure1: Dict[str, LabelCounts]) -> Dict[str, Dict[str, int]]:
    """Raw per-layer counts in presentation/enum order (JSON-able)."""
    return {
        layer: {
            label.value: figure1[layer].counts[label] for label in DecisionLabel
        }
        for layer in FIGURE1_LAYERS
        if layer in figure1
    }


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TemporalJournal(CheckpointJournal):
    """Append-only epoch journal (one record per completed epoch).

    Rides the campaign journal's CRC-framed, torn-tail-safe storage
    layer; only the record schema differs.
    """

    record_kind = "epoch"
    required_fields = ("epoch", "figure1")


def series_fingerprint(snapshots: List[ASGraph], inputs: TemporalInputs) -> str:
    """Identity of one temporal run: the snapshots plus the decisions.

    Stamped into the journal header; resume refuses a journal whose
    fingerprint differs (epochs from a different series would be
    silently interleaved otherwise).
    """
    # Imported lazily: repro.perf.parallel imports from repro.core.
    from repro.perf.parallel import _graph_fingerprint

    digest = hashlib.blake2b(digest_size=8)
    for snapshot in snapshots:
        digest.update(_graph_fingerprint(snapshot).encode("utf-8"))
    digest.update(f"|{len(inputs.decisions)}".encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Per-snapshot grading
# ---------------------------------------------------------------------------


def _grade_snapshot(
    snapshot: ASGraph, inputs: TemporalInputs, backend: str
) -> Tuple[Dict[str, Dict[str, int]], int]:
    """One snapshot's Figure-1 counts from fresh engines, cold.

    Layers are configured by :func:`figure1_layer_configs` and graded
    by :func:`classify_decisions` — exactly what a per-snapshot study
    computes.  On the ``array`` backend every tree an engine's layers
    need is built in one kernel sweep up front, and the layers grade
    through the vectorized arena, whose per-PSP-map groupings are
    cached on the decision list and so built once per series.  Returns
    the counts and the number of routing trees built.
    """
    engine_simple = GaoRexfordEngine(snapshot, backend=backend)
    engine_complex = GaoRexfordEngine(
        snapshot, partial_transit=inputs.partial_transit, backend=backend
    )
    layer_configs = figure1_layer_configs(
        engine_simple,
        engine_complex,
        known_complex=inputs.known_complex,
        siblings=inputs.siblings,
        first_hops_1=inputs.first_hops_1,
        first_hops_2=inputs.first_hops_2,
    )
    if backend == "array":
        from repro.core.hotpath.grade import arena_for

        arena = arena_for(inputs.decisions)
        for engine in (engine_simple, engine_complex):
            engine.warm_batch(
                key
                for config in layer_configs.values()
                if config.engine is engine
                for key in arena.grouping(config.first_hops_for).tree_keys
            )
    figure1 = {
        layer: classify_decisions(
            inputs.decisions,
            config.engine,
            first_hops_for=config.first_hops_for,
            complex_rel=config.complex_rel,
            siblings=config.siblings,
        )
        for layer, config in layer_configs.items()
    }
    trees = engine_simple.cache_stats().misses + engine_complex.cache_stats().misses
    return _counts_dict(figure1), trees


def _epoch_record(report: EpochReport) -> Dict[str, object]:
    """The journal record for one computed epoch."""
    return {
        "epoch": report.index,
        "schema": EPOCH_SCHEMA,
        "delta": dict(report.delta),
        "cache_misses": report.cache_misses,
        "figure1": report.figure1,
    }


def _replayed_report(record: Dict[str, object]) -> EpochReport:
    return EpochReport(
        index=int(record["epoch"]),
        delta={k: int(v) for k, v in dict(record.get("delta", {})).items()},
        cache_misses=int(record.get("cache_misses", 0)),
        figure1={
            layer: {label: int(count) for label, count in counts.items()}
            for layer, counts in dict(record["figure1"]).items()
        },
        resumed=True,
    )


def run_incremental(
    snapshots: List[ASGraph],
    inputs: TemporalInputs,
    journal_path: Optional[str] = None,
    resume: bool = False,
    storage: Optional[StoragePolicy] = None,
) -> TemporalResults:
    """Run the longitudinal study over ``snapshots``, epoch by epoch.

    Each epoch is graded cold on the array backend; only an empty
    delta from the previous snapshot short-circuits to its counts.
    With ``journal_path`` every completed epoch is appended durably;
    ``resume=True`` replays journaled epochs verbatim and recomputes
    from the first missing one.  Without ``resume`` an existing journal
    is overwritten.
    """
    if not snapshots:
        raise ValueError("temporal study needs at least one snapshot")

    fingerprint = None
    journal: Optional[TemporalJournal] = None
    replayed: List[EpochReport] = []
    if journal_path is not None:
        fingerprint = series_fingerprint(snapshots, inputs)
        journal = TemporalJournal(journal_path, storage=storage)
        if resume and journal.exists():
            header, records = journal.load()
            if header is not None:
                stamped = header.get("fingerprint")
                if stamped is not None and stamped != fingerprint:
                    raise ValueError(
                        f"{journal_path} was written for a different snapshot "
                        f"series (fingerprint {stamped!r} != {fingerprint!r})"
                    )
            by_epoch = {int(record["epoch"]): record for record in records}
            # Only an unbroken prefix is replayed, so the series stays
            # in epoch order with no holes.
            index = 0
            while index in by_epoch and index < len(snapshots):
                replayed.append(_replayed_report(by_epoch[index]))
                index += 1
        elif not resume and journal.exists():
            os.remove(journal_path)

    metrics = get_obs().metrics
    results = TemporalResults(epochs=list(replayed), resumed_epochs=len(replayed))
    start = len(replayed)
    if start >= len(snapshots):
        return results

    try:
        if journal is not None:
            journal.open_append()
            if not replayed:
                journal.write_header(
                    {
                        "fingerprint": fingerprint,
                        "snapshots": len(snapshots),
                        "decisions": len(inputs.decisions),
                    }
                )
        for index in range(start, len(snapshots)):
            with span("temporal-epoch", index=index):
                report = EpochReport(index=index)
                delta = None
                if index > 0:
                    delta = diff_graphs(snapshots[index - 1], snapshots[index])
                    report.delta = delta.summary()
                if delta is not None and delta.empty:
                    report.figure1 = results.epochs[-1].figure1
                else:
                    report.figure1, report.cache_misses = _grade_snapshot(
                        snapshots[index], inputs, "array"
                    )
            results.epochs.append(report)
            if journal is not None:
                journal.append(_epoch_record(report))
            if metrics.enabled:
                metrics.counter(
                    "repro_temporal_epochs_total",
                    "Temporal epochs computed.",
                ).inc()
    finally:
        if journal is not None:
            journal.close()
    return results


def run_scratch(
    snapshots: List[ASGraph], inputs: TemporalInputs
) -> List[Dict[str, Dict[str, int]]]:
    """Grade every snapshot cold on the dict backend: the oracle.

    Fresh dict-backend engines per snapshot, layers configured by
    :func:`figure1_layer_configs`, grading by
    :func:`classify_decisions` — the readable reference path a
    per-snapshot study on the dict backend computes.
    :func:`run_incremental` is compared against it byte-for-byte.
    """
    return [_grade_snapshot(snapshot, inputs, "dict")[0] for snapshot in snapshots]
