"""Supervised shard executor: crash, hang, and corruption drills.

The generic-executor tests drive :class:`SupervisedShardExecutor` with
a tiny echo worker whose faults are scripted per ``(shard, attempt)``,
so every rung of the degradation ladder (retry -> respawn ->
quarantine -> serial, plus breaker-driven full degradation) is
exercised deterministically.  The classifier tests then run the real
routing-tree pool under seeded :class:`FaultPlan` injection and assert
the supervised results are identical to the fault-free serial path —
the contract the whole subsystem exists to keep.
"""

import json
import os
import signal
import time

import pytest

from repro.check.oracles import label_decisions_serial
from repro.core.classification import Decision, LayerConfig
from repro.core.gao_rexford import GaoRexfordEngine
from repro.faults import (
    CampaignInterrupted,
    CircuitBreaker,
    FaultPlan,
    FaultSite,
    JournalCorrupted,
    RetryPolicy,
    Shard,
    ShardExecutionError,
    ShardJournal,
    SupervisedShardExecutor,
)
from repro.faults.storage import decode_line
from repro.net.ip import Prefix
from repro.perf.parallel import ParallelClassifier

pytestmark = pytest.mark.faults

PFX = Prefix.parse("198.51.100.0/24")


# ---------------------------------------------------------------------------
# Scripted echo worker (module level for picklability)
# ---------------------------------------------------------------------------


def _echo_worker(task, shard_id="", attempt=1):
    """Doubles ``value``; faults are scripted as ``{attempt: action}``."""
    value, faults = task
    action = faults.get(attempt)
    if action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        time.sleep(30.0)
    elif action == "raise":
        raise RuntimeError("worker exploded")
    elif action == "corrupt":
        return ("corrupt", value)
    return ("ok", value * 2)


def _shards(count, faults=None):
    """``count`` echo shards; ``faults`` maps ordinal -> attempt script."""
    faults = faults or {}
    return [
        Shard(shard_id=f"s{i}", task=(i, faults.get(i, {})), keys=(i,))
        for i in range(count)
    ]


def _run(shards, *, retry=None, breaker=None, timeout=60.0, journal=None,
         fingerprint="", abort_after=None, serial_fn=None):
    results = {}
    executor = SupervisedShardExecutor(
        _echo_worker,
        workers=2,
        retry=retry if retry is not None else RetryPolicy(seed=7),
        breaker=breaker,
        shard_timeout_s=timeout,
        journal=journal,
        context_fingerprint=fingerprint,
        abort_after=abort_after,
    )
    report = executor.run(
        shards,
        serial_fn=serial_fn or (lambda shard: ("ok", shard.task[0] * 2)),
        install_fn=lambda shard, result: results.__setitem__(
            shard.shard_id, result
        ),
        validate_fn=lambda shard, result: (
            None if result[0] == "ok" else "corruption marker"
        ),
    )
    return results, report


def _expected(count):
    return {f"s{i}": ("ok", i * 2) for i in range(count)}


class TestExecutorGuards:
    def test_fewer_than_two_workers_rejected(self):
        with pytest.raises(ValueError, match="needs >= 2 workers"):
            SupervisedShardExecutor(_echo_worker, workers=1)

    def test_duplicate_shard_ids_rejected(self):
        shards = [
            Shard(shard_id="dup", task=(0, {}), keys=(0,)),
            Shard(shard_id="dup", task=(1, {}), keys=(1,)),
        ]
        with pytest.raises(ValueError, match="unique"):
            _run(shards)


class TestDegradationLadder:
    def test_zero_fault_round(self):
        results, report = _run(_shards(5))
        assert results == _expected(5)
        assert report.accounted()
        assert report.completed_parallel == 5
        assert report.retries == 0
        assert report.completed_serial == 0
        assert not report.degraded_serial_mode

    def test_crash_retried_on_respawned_pool(self):
        results, report = _run(_shards(5, faults={0: {1: "crash"}}))
        assert results == _expected(5)
        assert report.accounted()
        assert report.worker_crashes >= 1
        assert report.respawns >= 1
        assert report.retries >= 1
        # The crash cleared on retry: nothing fell through to serial.
        assert report.completed_parallel == 5
        assert report.quarantined == []

    def test_hang_detected_under_deadline(self):
        results, report = _run(
            _shards(4, faults={1: {1: "hang"}}), timeout=1.0
        )
        assert results == _expected(4)
        assert report.accounted()
        assert report.worker_hangs == 1
        assert report.respawns >= 1

    def test_corrupt_result_rejected_and_retried(self):
        results, report = _run(_shards(4, faults={2: {1: "corrupt"}}))
        assert results == _expected(4)
        assert report.accounted()
        assert report.corrupt_results == 1
        assert report.retries >= 1
        # Corruption is parent-detected: the pool never broke.
        assert report.respawns == 0
        assert report.completed_parallel == 4

    def test_worker_exception_counted_separately(self):
        results, report = _run(_shards(3, faults={0: {1: "raise"}}))
        assert results == _expected(3)
        assert report.accounted()
        assert report.worker_errors == 1
        assert report.worker_crashes == 0
        assert report.retry.retries_by_site

    def test_persistent_crash_quarantined_to_serial(self):
        script = {attempt: "crash" for attempt in range(1, 10)}
        results, report = _run(_shards(3, faults={1: script}))
        assert results == _expected(3)
        assert report.accounted()
        assert "s1" in report.quarantined
        assert report.completed_serial == 1
        assert report.completed_parallel == 2
        assert report.retry.exhausted == 1

    def test_breaker_trip_degrades_remaining_to_serial(self):
        script = {attempt: "crash" for attempt in range(1, 20)}
        breaker = CircuitBreaker(failure_threshold=2, cooldown=100)
        results, report = _run(
            _shards(4, faults={i: script for i in range(4)}),
            retry=RetryPolicy(max_attempts=8, deadline_s=None, seed=3),
            breaker=breaker,
        )
        assert results == _expected(4)
        assert report.accounted()
        assert report.degraded_serial_mode
        assert report.completed_serial == 4
        assert report.completed_parallel == 0
        assert report.breaker is not None

    def test_serial_failure_is_a_structured_error(self):
        script = {attempt: "crash" for attempt in range(1, 10)}

        def broken_serial(shard):
            raise RuntimeError("serial path broken too")

        with pytest.raises(ShardExecutionError) as info:
            _run(_shards(2, faults={0: script}), serial_fn=broken_serial)
        assert info.value.shard_id == "s0"
        assert info.value.keys == (0,)


class TestShardJournal:
    """Torn-line recovery on the shard journal (crash-drill semantics)."""

    def _journaled_run(self, path, count=4):
        results, report = _run(
            _shards(count), journal=ShardJournal(path), fingerprint="fp-1"
        )
        assert results == _expected(count)
        assert report.completed_parallel == count
        return path

    def test_torn_tail_dropped_and_replayed(self, tmp_path):
        path = self._journaled_run(str(tmp_path / "run.shards"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "shard": "s9", "pay')  # torn
        results, report = _run(
            _shards(4), journal=ShardJournal(path), fingerprint="fp-1"
        )
        assert results == _expected(4)
        assert report.resumed == 4
        assert report.journal_torn_lines == 1
        assert report.attempts == 0  # nothing re-dispatched

    def test_interior_corruption_refuses_to_load(self, tmp_path):
        path = self._journaled_run(str(tmp_path / "run.shards"))
        lines = open(path, encoding="utf-8").read().splitlines()
        lines.insert(2, "corrupted interior line")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupted):
            _run(_shards(4), journal=ShardJournal(path), fingerprint="fp-1")

    def test_invalid_payload_recomputed_not_trusted(self, tmp_path):
        path = self._journaled_run(str(tmp_path / "run.shards"))
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(decode_line(lines[1])[0])
        record["payload"] = "!!! not base64 pickle !!!"
        # Written unframed (legacy format) — loaders accept both.
        lines[1] = json.dumps(record, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        results, report = _run(
            _shards(4), journal=ShardJournal(path), fingerprint="fp-1"
        )
        assert results == _expected(4)
        assert report.journal_invalid_records == 1
        assert report.resumed == 3
        assert report.completed_parallel == 1

    def test_foreign_journal_refused(self, tmp_path):
        path = self._journaled_run(str(tmp_path / "run.shards"))
        with pytest.raises(ValueError, match="refusing to resume"):
            _run(_shards(4), journal=ShardJournal(path), fingerprint="fp-2")


# ---------------------------------------------------------------------------
# The real routing-tree pool under seeded fault injection
# ---------------------------------------------------------------------------


def _ladder_graph(rungs=6):
    """Two provider chains joined by peer rungs; destination at 1."""
    from repro.topology import ASGraph, Relationship

    graph = ASGraph()
    for i in range(1, rungs):
        graph.add_link(2 * i + 1, 2 * i - 1, Relationship.CUSTOMER)
        graph.add_link(2 * i + 2, 2 * i, Relationship.CUSTOMER)
        graph.add_link(2 * i - 1, 2 * i, Relationship.PEER)
    graph.add_link(2, 1, Relationship.CUSTOMER)
    return graph


def _decisions(graph, destinations):
    asns = sorted(graph.asns())
    decisions = []
    for destination in destinations:
        for asn in asns:
            for next_hop in asns:
                if asn in (next_hop, destination) or next_hop == destination:
                    continue
                decisions.append(
                    Decision(
                        asn=asn,
                        next_hop=next_hop,
                        destination=destination,
                        prefix=PFX,
                        measured_len=2,
                        source_asn=asn,
                    )
                )
    return decisions


def _reference_labels(graph, decisions, backend):
    return label_decisions_serial(
        decisions, GaoRexfordEngine(graph, backend=backend)
    )


class TestSupervisedClassifier:
    def test_chaos_plan_matches_fault_free_serial(self):
        """The ISSUE acceptance drill: >=3 crashes plus a hang, and the
        supervised pool still produces the serial fault-free labels."""
        graph = _ladder_graph()
        destinations = sorted(graph.asns())[:8]
        decisions = _decisions(graph, destinations)
        expected = _reference_labels(graph, decisions, "dict")

        plan = FaultPlan(
            seed=8,
            rates={
                FaultSite.POOL_WORKER_CRASH: 0.4,
                FaultSite.POOL_WORKER_HANG: 0.2,
            },
        )
        classifier = ParallelClassifier(
            workers=2,
            min_parallel_trees=1,
            chunk_size=1,
            fault_plan=plan,
            shard_timeout_s=1.0,
            hang_sleep_s=8.0,
        )
        engine = GaoRexfordEngine(graph)
        labels = classifier.label_layer(decisions, LayerConfig(engine=engine))

        assert labels == expected
        report = classifier.last_shard_report
        assert report is not None
        assert report.accounted()
        assert report.worker_crashes >= 3
        assert report.worker_hangs >= 1
        assert report.respawns >= 1

    def test_zero_fault_supervised_matches_raw(self):
        graph = _ladder_graph()
        decisions = _decisions(graph, sorted(graph.asns())[:6])
        expected = _reference_labels(graph, decisions, "dict")
        for supervised in (True, False):
            classifier = ParallelClassifier(
                workers=2, min_parallel_trees=1, supervised=supervised
            )
            engine = GaoRexfordEngine(graph)
            labels = classifier.label_layer(
                decisions, LayerConfig(engine=engine)
            )
            assert labels == expected
        # Only the supervised run carries a shard report.
        assert classifier.last_shard_report is None

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_kill_mid_precompute_then_resume(self, backend, tmp_path):
        """Crash drill: abort after two journaled shards, tear the tail,
        resume — labels are identical and journaled work is not redone."""
        graph = _ladder_graph()
        decisions = _decisions(graph, sorted(graph.asns())[:6])
        expected = _reference_labels(graph, decisions, backend)
        checkpoint = str(tmp_path / f"{backend}.shards")

        first = ParallelClassifier(
            workers=2,
            min_parallel_trees=1,
            chunk_size=2,
            shard_checkpoint=checkpoint,
            abort_after_shards=2,
        )
        engine = GaoRexfordEngine(graph, backend=backend)
        with pytest.raises(CampaignInterrupted):
            first.label_layer(decisions, LayerConfig(engine=engine))
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "shard": "0:9')  # torn write

        second = ParallelClassifier(
            workers=2,
            min_parallel_trees=1,
            chunk_size=2,
            shard_checkpoint=checkpoint,
            resume=True,
        )
        engine = GaoRexfordEngine(graph, backend=backend)
        labels = second.label_layer(decisions, LayerConfig(engine=engine))

        assert labels == expected
        report = second.last_shard_report
        assert report is not None
        assert report.accounted()
        assert report.resumed == 2
        assert report.journal_torn_lines == 1

    def test_resume_refused_for_a_different_graph(self, tmp_path):
        checkpoint = str(tmp_path / "study.shards")
        graph = _ladder_graph()
        decisions = _decisions(graph, sorted(graph.asns())[:6])
        writer = ParallelClassifier(
            workers=2, min_parallel_trees=1, shard_checkpoint=checkpoint
        )
        writer.label_layer(
            decisions, LayerConfig(engine=GaoRexfordEngine(graph))
        )

        other_graph = _ladder_graph(rungs=7)
        other_decisions = _decisions(other_graph, sorted(other_graph.asns())[:6])
        reader = ParallelClassifier(
            workers=2,
            min_parallel_trees=1,
            shard_checkpoint=checkpoint,
            resume=True,
        )
        with pytest.raises(ValueError, match="refusing to resume"):
            reader.label_layer(
                other_decisions,
                LayerConfig(engine=GaoRexfordEngine(other_graph)),
            )
