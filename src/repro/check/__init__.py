"""Correctness tooling: reference oracles, scenario fuzzing, goldens.

The check subsystem is the safety net under the optimized pipeline:

* :mod:`repro.check.oracles` — deliberately-naive reimplementations of
  the BGP decision process, Gao-Rexford path availability,
  longest-prefix match, and the Best/Short classifier;
* :mod:`repro.check.scenarios` — deterministic seeded generation of
  perturbed topologies and decision batches;
* :mod:`repro.check.differential` — optimized-vs-oracle comparisons
  plus metamorphic invariants;
* :mod:`repro.check.refsim` — the frozen seed BGP simulator, and
  :mod:`repro.check.controlplane` — the production simulator checked
  against it (``bgp-converge``) and against the route-tree engine
  (``bgp-vs-model``);
* :mod:`repro.check.golden` — blessed snapshots of the canonical
  seeded study with a diff/bless workflow;
* :mod:`repro.check.runner` — the ``repro check run`` campaign driver.
"""

from repro.check.differential import (
    Disagreement,
    check_bgp_decision,
    check_gr_trees,
    check_labels,
    check_lpm,
    check_metamorphic,
    check_pool_supervision,
    check_temporal,
    oracle_labels,
)
from repro.check.controlplane import check_bgp_converge, check_bgp_vs_model
from repro.check.golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_SEED,
    bless,
    check_against_golden,
    compute_snapshot,
    diff_snapshots,
    golden_path,
    serialize,
    snapshot_study,
)
from repro.check.oracles import (
    OracleLPM,
    OracleRoutingInfo,
    oracle_best_route,
    oracle_label,
    oracle_routing_info,
)
from repro.check.runner import (
    ALL_CHECKS,
    KNOWN_CHECKS,
    CheckReport,
    check_seed,
    run_checks,
)
from repro.check.scenarios import Scenario, generate_scenario

__all__ = [
    "ALL_CHECKS",
    "CheckReport",
    "DEFAULT_GOLDEN_DIR",
    "Disagreement",
    "GOLDEN_SEED",
    "KNOWN_CHECKS",
    "OracleLPM",
    "OracleRoutingInfo",
    "Scenario",
    "bless",
    "check_against_golden",
    "check_bgp_converge",
    "check_bgp_decision",
    "check_bgp_vs_model",
    "check_gr_trees",
    "check_labels",
    "check_lpm",
    "check_metamorphic",
    "check_pool_supervision",
    "check_seed",
    "check_temporal",
    "compute_snapshot",
    "diff_snapshots",
    "generate_scenario",
    "golden_path",
    "oracle_best_route",
    "oracle_label",
    "oracle_labels",
    "oracle_routing_info",
    "run_checks",
    "serialize",
    "snapshot_study",
]
