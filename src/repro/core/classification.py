"""Decision classification into the Best/Short taxonomy (Section 3.3).

Every routing decision observed on a measured path — an AS ``x``
forwarding toward destination ``d`` via next hop ``n`` — is graded on
two properties against the Gao-Rexford model computed over the inferred
topology:

* **Best** — the relationship of ``n`` to ``x`` is at least as good as
  the best class through which the model says ``x`` can reach ``d``.
* **Short** — the measured path from ``x`` to ``d`` is no longer than
  the route the model predicts for ``x``.

Refinement layers adjust the grading exactly as the paper does: hybrid
relationships substitute the per-city relationship at the geolocated
interconnect (Section 4.1), sibling next hops count as Best (Section
4.2), and prefix-specific-policy criteria restrict which first hops the
destination's announcement reaches (Section 4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.gao_rexford import GaoRexfordEngine, RoutingInfo
from repro.net.ip import Prefix
from repro.topology.graph import ASGraph
from repro.topology.complex_rel import ComplexRelationships
from repro.topology.relationships import Relationship
from repro.whois.siblings import SiblingGroups


class DecisionLabel(enum.Enum):
    """Figure 1's four categories."""

    BEST_SHORT = "Best/Short"
    NONBEST_SHORT = "NonBest/Short"
    BEST_LONG = "Best/Long"
    NONBEST_LONG = "NonBest/Long"

    @classmethod
    def from_properties(cls, best: bool, short: bool) -> "DecisionLabel":
        if best:
            return cls.BEST_SHORT if short else cls.BEST_LONG
        return cls.NONBEST_SHORT if short else cls.NONBEST_LONG

    @property
    def is_violation(self) -> bool:
        """Whether the decision deviates from the model on either axis."""
        return self is not DecisionLabel.BEST_SHORT


@dataclass(frozen=True)
class Decision:
    """One observed routing decision."""

    asn: int
    next_hop: int
    destination: int
    prefix: Prefix
    #: Edges from ``asn`` to the destination along the measured path.
    measured_len: int
    source_asn: int
    path: Tuple[int, ...] = ()
    #: Geolocated city of the interconnect between asn and next_hop.
    border_city: Optional[str] = None
    dns_name: str = ""


@dataclass
class LabelCounts:
    """Tally of decisions per label, with percentage helpers."""

    counts: Dict[DecisionLabel, int] = field(
        default_factory=lambda: {label: 0 for label in DecisionLabel}
    )

    def add(self, label: DecisionLabel, count: int = 1) -> None:
        self.counts[label] += count

    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, label: DecisionLabel) -> float:
        total = self.total()
        return 0.0 if total == 0 else self.counts[label] / total

    def percent(self, label: DecisionLabel) -> float:
        return 100.0 * self.fraction(label)

    def violations(self) -> int:
        return self.total() - self.counts[DecisionLabel.BEST_SHORT]

    def as_percent_dict(self) -> Dict[str, float]:
        return {label.value: round(self.percent(label), 1) for label in DecisionLabel}

    def __add__(self, other: "LabelCounts") -> "LabelCounts":
        merged = LabelCounts()
        for label in DecisionLabel:
            merged.counts[label] = self.counts[label] + other.counts[label]
        return merged


def _grade_with_state(
    decision: Decision,
    best_class: Optional[Relationship],
    model_len: Optional[int],
    graph: ASGraph,
    complex_rel: Optional[ComplexRelationships],
    siblings: Optional[SiblingGroups],
) -> DecisionLabel:
    """Grade one decision given the model facts at its AS.

    ``best_class`` and ``model_len`` are the routing tree's answers for
    ``decision.asn`` (the only part of the tree that grading reads) —
    every grading path, per-decision and batched, funnels through here
    so the semantics cannot drift apart.
    """
    if siblings is not None and siblings.are_siblings(decision.asn, decision.next_hop):
        # Traffic handed to a sibling stays inside the organization; the
        # paper marks these decisions as satisfying Best (Section 4.2).
        best = True
    else:
        relationship = graph.relationship(decision.asn, decision.next_hop)
        if complex_rel is not None:
            hybrid = complex_rel.hybrid_relationship(
                decision.asn, decision.next_hop, decision.border_city
            )
            if hybrid is not None:
                relationship = hybrid
        if relationship is None:
            # The measured adjacency is absent from the inferred
            # topology; the model cannot call it Best.
            best = False
        elif best_class is None:
            # The model offers no route at all, so any real choice
            # beats it.
            best = True
        else:
            best = relationship.rank() <= best_class.rank()
    # Measured paths may be *shorter* than the model's prediction when
    # they use links the inferred topology misses; those still count as
    # Short (the AS is not taking a longer path than the model expects).
    short = model_len is None or decision.measured_len <= model_len
    return DecisionLabel.from_properties(best, short)


def grade_decision(
    decision: Decision,
    info: RoutingInfo,
    graph: ASGraph,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> DecisionLabel:
    """Grade one decision against a precomputed routing tree.

    Pure function of its arguments — no engine, no cache — which makes
    it the seam the reference oracles (:mod:`repro.check`) grade
    through with independently computed trees.
    """
    return _grade_with_state(
        decision,
        info.best_class(decision.asn),
        info.gr_route_length(decision.asn),
        graph,
        complex_rel,
        siblings,
    )


def classify_decision(
    decision: Decision,
    engine: GaoRexfordEngine,
    allowed_first_hops: Optional[FrozenSet[int]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> DecisionLabel:
    """Classify one decision under a given refinement configuration."""
    info = engine.routing_info(decision.destination, allowed_first_hops)
    return grade_decision(
        decision, info, engine.graph, complex_rel=complex_rel, siblings=siblings
    )


# ---------------------------------------------------------------------------
# Batched grading
# ---------------------------------------------------------------------------

#: Everything about a decision that grading reads besides the routing
#: tree it is graded against: the decision maker, its next hop, the
#: measured length and the interconnect city (hybrid relationships).
GradeKey = Tuple[int, int, int, Optional[str]]

#: Which routing tree grades a decision: (destination, allowed first hops).
TreeKey = Tuple[int, Optional[FrozenSet[int]]]


@dataclass
class LayerConfig:
    """Grading configuration of one refinement layer (Figure 1)."""

    engine: GaoRexfordEngine
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None
    complex_rel: Optional[ComplexRelationships] = None
    siblings: Optional[SiblingGroups] = None


def _grade_key(decision: Decision) -> GradeKey:
    return (
        decision.asn,
        decision.next_hop,
        decision.measured_len,
        decision.border_city,
    )


class GroupedDecisions:
    """Decisions grouped by routing tree, duplicates collapsed.

    Measured paths repeat the same adjacency toward the same destination
    many times (every traceroute crossing a popular transit link yields
    an identical decision), so grading each *unique* decision once and
    fanning the label back out cuts the grading work by the duplication
    factor.  One grouping is reusable across refinement layers that
    share the same ``first_hops_for`` map — the grade memo is per layer,
    the grouping is not.
    """

    def __init__(
        self,
        decisions: Iterable[Decision],
        first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    ) -> None:
        self.decisions: List[Decision] = (
            decisions if isinstance(decisions, list) else list(decisions)
        )
        #: tree key -> grade key -> indices into ``decisions``.
        self.groups: Dict[TreeKey, Dict[GradeKey, List[int]]] = {}
        groups = self.groups
        if first_hops_for is None:
            for index, decision in enumerate(self.decisions):
                tree_key = (decision.destination, None)
                by_grade = groups.get(tree_key)
                if by_grade is None:
                    by_grade = groups[tree_key] = {}
                by_grade.setdefault(_grade_key(decision), []).append(index)
        else:
            for index, decision in enumerate(self.decisions):
                tree_key = (
                    decision.destination,
                    first_hops_for.get(decision.prefix),
                )
                by_grade = groups.get(tree_key)
                if by_grade is None:
                    by_grade = groups[tree_key] = {}
                by_grade.setdefault(_grade_key(decision), []).append(index)

    def tree_keys(self) -> List[TreeKey]:
        return list(self.groups)

    def unique_count(self) -> int:
        return sum(len(by_grade) for by_grade in self.groups.values())

    def __len__(self) -> int:
        return len(self.decisions)


def _grade_unique(
    decision: Decision,
    info: RoutingInfo,
    graph: ASGraph,
    complex_rel: Optional[ComplexRelationships],
    siblings: Optional[SiblingGroups],
    node_state: Dict[int, Tuple[Optional[Relationship], Optional[int]]],
) -> DecisionLabel:
    """Grade one unique decision against a precomputed routing tree.

    Semantically identical to :func:`classify_decision`; ``node_state``
    memoizes the per-AS model facts (best class, model route length)
    shared by every decision the same AS makes within one tree.
    """
    asn = decision.asn
    state = node_state.get(asn)
    if state is None:
        state = (info.best_class(asn), info.gr_route_length(asn))
        node_state[asn] = state
    best_class, model_len = state
    return _grade_with_state(
        decision, best_class, model_len, graph, complex_rel, siblings
    )


def classify_grouped(
    grouped: GroupedDecisions,
    engine: GaoRexfordEngine,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> LabelCounts:
    """Tally labels for pre-grouped decisions (one tree per group)."""
    counts = LabelCounts()
    add = counts.add
    decisions = grouped.decisions
    graph = engine.graph
    for (destination, allowed), by_grade in grouped.groups.items():
        info = engine.routing_info(destination, allowed)
        node_state: Dict[int, Tuple[Optional[Relationship], Optional[int]]] = {}
        for indices in by_grade.values():
            label = _grade_unique(
                decisions[indices[0]], info, graph, complex_rel, siblings, node_state
            )
            add(label, len(indices))
    return counts


def label_grouped(
    grouped: GroupedDecisions,
    engine: GaoRexfordEngine,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> List[Tuple[Decision, DecisionLabel]]:
    """Per-decision labels for pre-grouped decisions, in input order."""
    decisions = grouped.decisions
    graph = engine.graph
    labels: List[Optional[DecisionLabel]] = [None] * len(decisions)
    for (destination, allowed), by_grade in grouped.groups.items():
        info = engine.routing_info(destination, allowed)
        node_state: Dict[int, Tuple[Optional[Relationship], Optional[int]]] = {}
        for indices in by_grade.values():
            label = _grade_unique(
                decisions[indices[0]], info, graph, complex_rel, siblings, node_state
            )
            for index in indices:
                labels[index] = label
    return list(zip(decisions, labels))


def classify_decisions(
    decisions: Iterable[Decision],
    engine: GaoRexfordEngine,
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> LabelCounts:
    """Classify a batch of decisions into a :class:`LabelCounts`.

    ``first_hops_for`` maps a prefix to the allowed first-hop set the
    PSP criteria computed for it; prefixes absent from the map are
    unrestricted.

    Decisions are grouped by the routing tree that grades them, each
    tree is fetched once, and duplicate decisions are graded once —
    results are identical to :func:`classify_decisions_serial`.

    On an ``array``-backend engine the whole batch is graded by the
    vectorized arena path (:mod:`repro.core.hotpath.grade`) — same
    labels, one numpy sweep.
    """
    if getattr(engine, "backend", "dict") == "array":
        from repro.core.hotpath.grade import classify_decisions_array

        return classify_decisions_array(
            decisions,
            engine,
            first_hops_for=first_hops_for,
            complex_rel=complex_rel,
            siblings=siblings,
        )
    return classify_grouped(
        GroupedDecisions(decisions, first_hops_for),
        engine,
        complex_rel=complex_rel,
        siblings=siblings,
    )


def label_decisions(
    decisions: Iterable[Decision],
    engine: GaoRexfordEngine,
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> List[Tuple[Decision, DecisionLabel]]:
    """Like :func:`classify_decisions` but keeps per-decision labels."""
    if getattr(engine, "backend", "dict") == "array":
        from repro.core.hotpath.grade import label_decisions_array

        return label_decisions_array(
            decisions,
            engine,
            first_hops_for=first_hops_for,
            complex_rel=complex_rel,
            siblings=siblings,
        )
    return label_grouped(
        GroupedDecisions(decisions, first_hops_for),
        engine,
        complex_rel=complex_rel,
        siblings=siblings,
    )
