"""Every metric the benchmark prints, with its unit and direction.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the
two agree.  Each per-layer entry also names the end-to-end metric it
should move and the workload on which it moves it, so a change to one
layer states beforehand which numbers it expects to change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one run measures, given to ``run.py`` as ``--seconds``.
RUN_SECONDS = 30

#: Workload -> why the benchmark runs it.
WORKLOADS: Dict[str, str] = {
    "study": "Study.run on the small scenario, one cold process per build; BGP busy time is "
    "90-92% of a traced build; the only workload with poison, withdraw and magnet convergences",
    "classify": "cold seven-layer Figure-1 grading plus the temporal series on the "
    "default passive study; BGP runs only in set-up (origination), never in the timed rounds",
    "serve": "repro serve daemon with warm caches, closed loop of 2 clients at 1 study : 2 "
    "classify; shared engines under concurrency plus HTTP and admission",
}

#: name -> (unit, better, bound, meaning).  Operation times are in
#: ``ref``: the wall time of the operation over the wall time of the
#: fixed reference computation (``reference.py``) timed in the same phase
#: of the run, just before and just after it.
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "op_p50_ref": (
        "ref", "lower", 0.25,
        "median time of one operation, in reference times: a Study.run "
        "build (study), a cold seven-layer grading plus temporal pass "
        "(classify), a request seen by the client (serve)",
    ),
    "op_p90_ref": (
        "ref", "lower", 0.25,
        "90th percentile of the run's operation times in reference times "
        "(inclusive method: between the two slowest of a few builds or "
        "rounds; over >= 1000 requests on serve, whose p99 varied 0.28 "
        "(IQR over median, seconds) over ten runs on a 2-CPU VM)",
    ),
    "ops_per_ref": (
        "1/ref", "higher", 0.25,
        "operations completed per reference time: 1 / mean scaled "
        "operation time for the sequential workloads, completed requests "
        "per reference time of load for serve",
    ),
    "setup_s": (
        "s", "lower", 0.25,
        "set-up: importing the study entry point in a fresh process "
        "(study, median over the builds), the passive default study "
        "(classify), daemon start plus cache warm-up (serve)",
    ),
    "peak_rss_mb": (
        "MB", "lower", 0.1,
        "peak RSS of the process running the workload (the largest build "
        "process, the classify process, the daemon)",
    ),
}

STAGES = (
    "topology", "testbed", "campaign", "feeds", "ipmap", "extract_decisions",
    "psp", "figure1", "label_decisions", "skew_geography", "psp_validation",
    "active_experiments",
)

_STUDY = "op_p50_ref on study"
_SETUP = "setup_s on classify"


def _per_layer() -> List[Tuple[str, str, str, str]]:
    """(name, unit, better, moves) rows in print order."""
    rows: List[Tuple[str, str, str, str]] = []
    for stage in STAGES:
        moves = _STUDY if stage in ("testbed", "active_experiments") else f"{_STUDY}; {_SETUP}"
        rows.append((f"stage.{stage}_s", "s", "lower", moves))
    for kind in ("origin", "poison", "magnet", "withdraw", "announce"):
        moves = f"{_STUDY}; {_SETUP}" if kind == "origin" else _STUDY
        rows.append((f"bgp.{kind}.convergences", "count", "lower", moves))
        rows.append((f"bgp.{kind}.messages", "count", "lower", moves))
        rows.append((f"bgp.{kind}.busy_s", "s", "lower", moves))
    rows += [
        ("bgp.us_per_message", "us", "lower", f"{_STUDY}; {_SETUP}"),
        ("bgp.best_change_ratio", "frac", "higher", f"{_STUDY}; {_SETUP}"),
        ("atlas.campaign_s", "s", "lower", f"{_STUDY}; {_SETUP}"),
        ("atlas.measurements", "count", "higher", f"{_STUDY}; {_SETUP}"),
        ("atlas.non_bgp_s", "s", "lower", f"{_STUDY}; {_SETUP}"),
        ("peering.discovery_s", "s", "lower", _STUDY),
        ("peering.magnet_s", "s", "lower", _STUDY),
        ("peering.targets", "count", "higher", _STUDY),
        ("peering.magnet_rounds", "count", "higher", _STUDY),
        ("peering.non_bgp_s", "s", "lower", _STUDY),
        ("topogen.generate_s", "s", "lower", f"{_STUDY}; {_SETUP}"),
        ("topogen.infer_s", "s", "lower", f"{_STUDY}; {_SETUP}"),
    ]
    core = "op_p50_ref on classify; op_p50_ref on serve"
    rows += [
        ("core.classify_layers_s", "s", "lower", core),
        ("core.decisions_per_s", "1/s", "higher", core),
        ("core.trees_built", "count", "lower", core),
        ("core.tree_cache_hit_rate", "frac", "higher", core),
        ("core.pool_workers", "count", "higher", core),
        ("core.pool_parallel", "count", "higher", core),
    ]
    temporal = "op_p50_ref on classify"
    rows += [
        ("temporal.series_s", "s", "lower", temporal),
        ("temporal.epochs", "count", "higher", temporal),
        ("temporal.invalidated_trees", "count", "lower", temporal),
        ("temporal.regraded_groups", "count", "lower", temporal),
        ("temporal.reused_groups", "count", "higher", temporal),
        ("temporal.cache_misses", "count", "lower", temporal),
    ]
    serve = "op_p90_ref and ops_per_ref on serve"
    rows += [
        ("serve.server_mean_s", "s", "lower", serve),
        ("serve.queue_wait_mean_s", "s", "lower", serve),
        ("serve.engine_hit_rate", "frac", "higher", serve),
        ("serve.study_hit_rate", "frac", "higher", serve),
        ("serve.rejected", "count", "lower", serve),
    ]
    rows += [
        ("trace.overhead_frac", "frac", "lower", "none (cost of the traced run itself)"),
        ("trace.coverage_frac", "frac", "higher", "none (share of an operation the layer spans cover)"),
        ("trace.accounted_frac", "frac", "higher", "none (bgp busy + atlas and peering self time over the campaign and active stages)"),
        ("ref.reference_s", "s", "lower", "none (seconds of the reference computation in this run: the unit of the end-to-end times)"),
    ]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document these definitions imply."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _meaning) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
