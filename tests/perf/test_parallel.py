"""ParallelClassifier: worker resolution, precompute dedup, pool path.

The pool path is forced with ``workers=2, min_parallel_trees=1`` on a
small graph so the test exercises real pickling and cross-process tree
construction without needing a many-core machine; results must be
identical to the serial fallback.
"""

import os

import pytest

from repro.check.oracles import classify_decisions_serial, label_decisions_serial
from repro.core.classification import Decision, LayerConfig
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.perf.parallel import (
    DEFAULT_MIN_PARALLEL_TREES,
    WORKERS_ENV,
    ParallelClassifier,
    worker_count,
)
from repro.topology import ASGraph, Relationship

pytestmark = pytest.mark.tier1

PFX = Prefix.parse("198.51.100.0/24")


def _ladder_graph(rungs=6):
    """Two provider chains joined by peer rungs; destination at 1."""
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


class TestWorkerCount:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert worker_count() == 3
        assert worker_count(default=7) == 3

    def test_negative_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-2")
        with pytest.raises(ValueError, match=rf"{WORKERS_ENV} must be >= 0"):
            worker_count()

    def test_zero_and_one_still_mean_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert worker_count() == 0
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert worker_count() == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            worker_count()

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count(default=5) == 5
        assert worker_count() >= 1

    def test_classifier_is_serial_by_default(self, monkeypatch):
        """Without REPRO_WORKERS the precompute never spawns a pool,
        however many trees are missing."""
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count() == 1
        classifier = ParallelClassifier(min_parallel_trees=1)
        assert classifier.workers == 1
        graph = _ladder_graph()
        decisions = _decisions(graph, destinations=sorted(graph.asns()))
        report = classifier.precompute(
            decisions, [LayerConfig(engine=GaoRexfordEngine(graph))]
        )
        assert not report.parallel
        assert report.trees_computed == len(graph)

    def test_classifier_reads_env_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert ParallelClassifier().workers == min(2, os.cpu_count() or 1)
        # An explicit argument is the caller's decision — never clamped.
        assert ParallelClassifier(workers=6).workers == 6

    def test_default_workers_clamped_to_cpus(self, monkeypatch):
        """An oversubscribed env default cannot outnumber the cores."""
        monkeypatch.setenv(WORKERS_ENV, "64")
        assert ParallelClassifier().workers == min(64, os.cpu_count() or 1)

    def test_pool_skipped_when_one_effective_worker(self):
        """workers=1 grades serially — no pool spawn for a lone worker."""
        graph = _ladder_graph()
        engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=engine)
        classifier = ParallelClassifier(workers=1, min_parallel_trees=1)
        decisions = _decisions(graph, destinations=[1, 3, 5])
        report = classifier.precompute(decisions, [layer])
        assert not report.parallel
        assert report.trees_computed == 3


class TestPrecompute:
    def test_serial_fallback_below_threshold(self):
        graph = _ladder_graph()
        engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=engine)
        classifier = ParallelClassifier(workers=8)
        decisions = _decisions(graph, destinations=[1])
        report = classifier.precompute(decisions, [layer])
        assert not report.parallel  # 1 tree < DEFAULT_MIN_PARALLEL_TREES
        assert report.trees_computed == 1
        assert DEFAULT_MIN_PARALLEL_TREES > 1

    def test_warm_cache_counts_as_reuse(self):
        graph = _ladder_graph()
        engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=engine)
        classifier = ParallelClassifier(workers=1)
        decisions = _decisions(graph, destinations=[1, 2])
        first = classifier.precompute(decisions, [layer])
        assert first.trees_computed == 2
        second = classifier.precompute(decisions, [layer])
        assert second.trees_computed == 0
        assert second.trees_reused == 2

    def test_shared_engine_collected_once(self):
        graph = _ladder_graph()
        engine = GaoRexfordEngine(graph)
        layers = [LayerConfig(engine=engine), LayerConfig(engine=engine)]
        classifier = ParallelClassifier(workers=1)
        decisions = _decisions(graph, destinations=[1])
        report = classifier.precompute(decisions, layers)
        # The second layer's identical tree needs are deduplicated.
        assert report.trees_computed == 1
        assert report.trees_reused == 1


class TestPoolPath:
    def test_forced_pool_matches_serial(self):
        graph = _ladder_graph()
        destinations = sorted(graph.asns())[:4]
        decisions = _decisions(graph, destinations)

        serial_engine = GaoRexfordEngine(graph)
        expected_counts = classify_decisions_serial(decisions, serial_engine)
        expected_labels = label_decisions_serial(decisions, serial_engine)

        pool_engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=pool_engine)
        classifier = ParallelClassifier(workers=2, min_parallel_trees=1)
        counts = classifier.classify_layers(decisions, {"Simple": layer})

        assert classifier.last_report is not None
        assert classifier.last_report.parallel
        assert classifier.last_report.trees_computed == len(destinations)
        assert counts["Simple"].counts == expected_counts.counts
        # Pool-built trees were installed into the local engine cache.
        assert pool_engine.cache_stats().size == len(destinations)
        assert classifier.label_layer(decisions, layer) == expected_labels

    def test_pool_respects_first_hop_restrictions(self):
        graph = _ladder_graph()
        decisions = _decisions(graph, destinations=[1, 2])
        first_hops = {PFX: frozenset({2, 3})}

        serial_engine = GaoRexfordEngine(graph)
        expected = label_decisions_serial(
            decisions, serial_engine, first_hops_for=first_hops
        )

        pool_engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=pool_engine, first_hops_for=first_hops)
        classifier = ParallelClassifier(workers=2, min_parallel_trees=1)
        assert classifier.label_layer(decisions, layer) == expected
        assert classifier.last_report is not None
        assert classifier.last_report.parallel


class TestGraphFingerprint:
    def test_recycled_object_id_gets_a_fresh_fingerprint(self):
        """Two different graphs built with the same number of mutations
        must not share a fingerprint, even when the second is allocated
        at the first one's freed address (the journal guards rely on it)."""
        from repro.perf.parallel import _graph_fingerprint

        def make(customer):
            graph = ASGraph()
            graph.add_link(1, customer, Relationship.CUSTOMER)
            return graph

        first = make(2)
        fingerprint = _graph_fingerprint(first)
        del first
        second = make(3)
        assert _graph_fingerprint(second) != fingerprint
        assert _graph_fingerprint(second) == _graph_fingerprint(make(3))

