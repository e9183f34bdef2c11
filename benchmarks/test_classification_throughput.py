"""Classification throughput: batched + precomputed vs per-decision.

Reports decisions/second for a single layer (Simple, All-2) and for
the full seven-layer Figure-1 pass, asserts the batched path is no
slower anywhere and at least 2x faster on the seven-layer pass, and
records the seven-layer measurement in ``BENCH_pipeline.json`` via the
same helpers the ``python -m repro.perf.bench`` CLI uses.
"""

import time

import pytest

from repro.check.oracles import classify_decisions_serial
from repro.core.classification import classify_decisions
from repro.core.pipeline import FIGURE1_LAYERS
from repro.perf.bench import (
    _fresh_engines,
    _layer_configs,
    run_benchmark,
    write_bench_file,
)

pytestmark = pytest.mark.bench

#: Best-of repetitions for the hand-rolled single-layer timings.
REPEATS = 3


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _single_layer_times(study, layer_name):
    """(serial_seconds, batched_seconds) for one layer, cold engines."""

    def serial():
        engine_simple, engine_complex = _fresh_engines(study, canonical_keys=False)
        layer = _layer_configs(study, engine_simple, engine_complex)[layer_name]
        return classify_decisions_serial(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )

    def batched():
        engine_simple, engine_complex = _fresh_engines(study, canonical_keys=True)
        layer = _layer_configs(study, engine_simple, engine_complex)[layer_name]
        return classify_decisions(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )

    serial_s, serial_counts = _best_of(serial)
    batched_s, batched_counts = _best_of(batched)
    assert serial_counts.counts == batched_counts.counts
    return serial_s, batched_s


@pytest.mark.parametrize("layer_name", ["Simple", "All-2"])
def test_single_layer_batched_not_slower(study, layer_name):
    serial_s, batched_s = _single_layer_times(study, layer_name)
    decisions = len(study.decisions)
    print()
    print(
        f"{layer_name}: serial {decisions / serial_s:,.0f} decisions/s, "
        f"batched {decisions / batched_s:,.0f} decisions/s "
        f"({serial_s / batched_s:.2f}x)"
    )
    # Allow a little timer noise, but batching must never cost us.
    assert batched_s <= serial_s * 1.05


def test_seven_layer_speedup_and_trajectory(study):
    payload = run_benchmark(study, repeats=REPEATS)
    cls = payload["classification"]
    print()
    print(
        f"seven layers: serial {cls['serial_seconds']:.3f}s, "
        f"batched {cls['batched_seconds']:.3f}s -> {cls['speedup']:.2f}x "
        f"({cls['batched_decisions_per_second']:,.0f} decisions/s, "
        f"trees computed={cls['trees_computed']}, reused={cls['trees_reused']})"
    )
    assert cls["results_identical"], "batched classification diverged from serial"
    assert set(cls["layers"]) == set(FIGURE1_LAYERS)
    assert cls["speedup"] >= 2.0, (
        f"batched seven-layer classification only {cls['speedup']:.2f}x faster"
    )
    path = write_bench_file(payload)
    print(f"wrote {path}")


def test_throughput_benchmark_harness(benchmark, study):
    """pytest-benchmark timing for the batched seven-layer pass."""

    def batched_pass():
        engine_simple, engine_complex = _fresh_engines(study, canonical_keys=True)
        layers = _layer_configs(study, engine_simple, engine_complex)
        from repro.perf.parallel import ParallelClassifier

        return ParallelClassifier().classify_layers(study.decisions, layers)

    figure1 = benchmark(batched_pass)
    for layer_name in FIGURE1_LAYERS:
        assert figure1[layer_name].counts == study.figure1[layer_name].counts
