"""Performance subsystem: batching, parallelism and benchmarking.

The classification pipeline's hot path is Gao-Rexford routing-tree
construction (one tree per destination per refinement layer) followed
by per-decision grading.  This package provides the machinery that
keeps both off the critical path at scale:

* :mod:`repro.perf.parallel` — :class:`ParallelClassifier`, which
  precomputes routing trees across destinations and refinement layers
  (serially by default, or with an opt-in process pool) and grades
  decisions through the batched classifiers.
* :mod:`repro.perf.bench` — the ``python -m repro.perf.bench`` entry
  point producing ``BENCH_pipeline.json``.
"""

from repro.perf.parallel import LayerConfig, ParallelClassifier, PrecomputeReport, worker_count

__all__ = [
    "LayerConfig",
    "ParallelClassifier",
    "PrecomputeReport",
    "worker_count",
]
