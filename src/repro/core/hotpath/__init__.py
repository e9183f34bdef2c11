"""Compiled-style hot path for route-tree computation and grading.

The dict-based Gao-Rexford engine (:mod:`repro.core.gao_rexford`) and
per-decision grader (:mod:`repro.core.classification`) are the readable
implementations.  This package is their array twin: the AS
graph is compiled once into CSR adjacency arrays with dense node ids
(:mod:`~repro.core.hotpath.csr`), routing trees for many destinations
are computed in one numpy frontier sweep
(:mod:`~repro.core.hotpath.kernel`), results are wrapped so the rest of
the pipeline sees the familiar :class:`~repro.core.gao_rexford.RoutingInfo`
surface (:mod:`~repro.core.hotpath.info`), and whole decision batches
are graded with gathers and a bincount
(:mod:`~repro.core.hotpath.grade`).

Selection happens at the engine seam: a graph of at least
:data:`~repro.core.gao_rexford.ARRAY_MIN_ASES` ASes runs here, a smaller
one on the dict engine, and every consumer above the engine is
backend-agnostic.  Equivalence with the dict backend (and the fixpoint
oracle) is enforced by :mod:`repro.check`'s three-way differentials and
the golden gates; see DESIGN.md §10.
"""

from repro.core.hotpath.csr import CSRTopology, compile_topology
from repro.core.hotpath.grade import (
    DecisionArena,
    arena_for,
    classify_arena,
    classify_decisions_array,
    label_arena,
    label_decisions_array,
)
from repro.core.hotpath.info import ArrayRoutingInfo
from repro.core.hotpath.kernel import compute_tree_batch

__all__ = [
    "ArrayRoutingInfo",
    "CSRTopology",
    "DecisionArena",
    "arena_for",
    "classify_arena",
    "classify_decisions_array",
    "compile_topology",
    "compute_tree_batch",
    "label_arena",
    "label_decisions_array",
]
