"""Optimized-vs-oracle differential checks and metamorphic invariants.

Every function takes a seed or a :class:`~repro.check.scenarios.Scenario`
and returns a list of :class:`Disagreement` records — empty when the
optimized implementations agree with the reference oracles and every
invariant holds.  The checks deliberately exercise the optimized code
the way the pipeline does: warm and cold caches, batched and serial
grading, canonical cache keys, grouped duplicate decisions — and both
engine backends, so every scenario is a three-way differential between
the dict reference, the CSR array kernel (``backend="array"``), and
the fixpoint oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.decision import best_route, rank_routes
from repro.bgp.routes import Route
from repro.check.oracles import (
    OracleLPM,
    OracleRoutingInfo,
    oracle_best_route,
    oracle_label,
    oracle_routing_info,
)
from repro.check.scenarios import Scenario, generate_scenario
from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
    classify_decision,
    classify_decisions,
    classify_decisions_serial,
    label_decisions,
    label_decisions_serial,
)
from repro.core.gao_rexford import (
    GaoRexfordEngine,
    RoutingInfo,
    compute_routing_info,
)
from repro.net.ip import IPAddress, Prefix
from repro.net.trie import PrefixTrie
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship


@dataclass(frozen=True)
class Disagreement:
    """One optimized-vs-oracle (or invariant) mismatch."""

    check: str
    seed: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] seed={self.seed}: {self.detail}"


# ---------------------------------------------------------------------------
# Gao-Rexford trees: cache-on vs cache-off vs oracle
# ---------------------------------------------------------------------------


def _tree_variants(
    scenario: Scenario,
) -> List[Tuple[int, Optional[FrozenSet[int]]]]:
    """The (destination, allowed-first-hops) pairs a scenario grades with."""
    variants: List[Tuple[int, Optional[FrozenSet[int]]]] = []
    for destination in scenario.destinations:
        variants.append((destination, None))
        allowed = scenario.first_hops_for.get(scenario.prefix_of[destination])
        if allowed is not None:
            variants.append((destination, allowed))
    return variants


def _diff_dists(
    kind: str,
    optimized: Dict[int, int],
    reference: Dict[int, int],
) -> Optional[str]:
    if optimized == reference:
        return None
    only_opt = sorted(set(optimized) - set(reference))[:5]
    only_ref = sorted(set(reference) - set(optimized))[:5]
    differing = sorted(
        asn
        for asn in set(optimized) & set(reference)
        if optimized[asn] != reference[asn]
    )[:5]
    return (
        f"{kind} dists differ: only-optimized={only_opt} "
        f"only-oracle={only_ref} "
        f"mismatched={[(a, optimized[a], reference[a]) for a in differing]}"
    )


def _compare_tree(
    scenario: Scenario,
    label: str,
    optimized: RoutingInfo,
    reference: OracleRoutingInfo,
) -> List[Disagreement]:
    problems = []
    for kind, opt, ref in (
        ("customer", optimized.customer_dist, reference.customer_dist),
        ("peer", optimized.peer_dist, reference.peer_dist),
        ("provider", optimized.provider_dist, reference.provider_dist),
    ):
        detail = _diff_dists(kind, opt, ref)
        if detail is not None:
            problems.append(
                Disagreement("gr-tree", scenario.seed, f"{label}: {detail}")
            )
    return problems


def _check_path_consistency(
    scenario: Scenario, label: str, info: RoutingInfo, graph: ASGraph
) -> List[Disagreement]:
    """The engine's own path reconstruction must match its distances."""
    problems = []
    for asn in sorted(graph.asns()):
        length = info.gr_route_length(asn)
        if length is None:
            continue
        path = info.gr_route_path(asn)
        if path is None:
            problems.append(
                Disagreement(
                    "gr-path",
                    scenario.seed,
                    f"{label}: AS{asn} has a route of length {length} "
                    "but no reconstructible path",
                )
            )
            continue
        if len(path) - 1 != length:
            problems.append(
                Disagreement(
                    "gr-path",
                    scenario.seed,
                    f"{label}: AS{asn} path {path} has length "
                    f"{len(path) - 1}, model predicts {length}",
                )
            )
        for hop, nxt in zip(path, path[1:]):
            if not graph.has_link(hop, nxt):
                problems.append(
                    Disagreement(
                        "gr-path",
                        scenario.seed,
                        f"{label}: AS{asn} path {path} crosses missing "
                        f"link {hop}-{nxt}",
                    )
                )
                break
    return problems


def check_gr_trees(scenario: Scenario) -> List[Disagreement]:
    """Engine (cached) vs pure function (uncached) vs array kernel vs oracle."""
    problems: List[Disagreement] = []
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    engine_array = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit, backend="array"
    )
    for destination, allowed in _tree_variants(scenario):
        label = f"dest={destination} allowed={None if allowed is None else sorted(allowed)}"
        cached = engine.routing_info(destination, allowed)
        rewarmed = engine.routing_info(destination, allowed)  # cache hit
        uncached = compute_routing_info(
            scenario.graph,
            destination,
            partial_transit=scenario.partial_transit,
            allowed_first_hops=allowed,
        )
        array_info = engine_array.routing_info(destination, allowed)
        array_rewarmed = engine_array.routing_info(destination, allowed)
        reference = oracle_routing_info(
            scenario.graph,
            destination,
            partial_transit=scenario.partial_transit,
            allowed_first_hops=allowed,
        )
        if rewarmed is not cached:
            problems.append(
                Disagreement(
                    "gr-tree", scenario.seed, f"{label}: cache did not hit"
                )
            )
        if array_rewarmed is not array_info:
            problems.append(
                Disagreement(
                    "gr-tree",
                    scenario.seed,
                    f"{label}: array backend cache did not hit",
                )
            )
        for mode, info in (
            ("cache-on", cached),
            ("cache-off", uncached),
            ("array", array_info),
        ):
            problems.extend(
                _compare_tree(scenario, f"{label} {mode}", info, reference)
            )
        problems.extend(
            _check_path_consistency(scenario, label, cached, scenario.graph)
        )
        problems.extend(
            _check_path_consistency(
                scenario, f"{label} array", array_info, scenario.graph
            )
        )
    return problems


# ---------------------------------------------------------------------------
# Labels: serial vs batched vs oracle
# ---------------------------------------------------------------------------


def _oracle_infos(
    scenario: Scenario,
) -> Dict[Tuple[int, Optional[FrozenSet[int]]], OracleRoutingInfo]:
    infos: Dict[Tuple[int, Optional[FrozenSet[int]]], OracleRoutingInfo] = {}
    for destination, allowed in _tree_variants(scenario):
        infos[(destination, allowed)] = oracle_routing_info(
            scenario.graph,
            destination,
            partial_transit=scenario.partial_transit,
            allowed_first_hops=allowed,
        )
    return infos


def oracle_labels(scenario: Scenario) -> List[DecisionLabel]:
    """The oracle's label for every scenario decision, in input order."""
    infos = _oracle_infos(scenario)
    labels = []
    for decision in scenario.decisions:
        allowed = scenario.first_hops_for.get(decision.prefix)
        labels.append(
            oracle_label(
                decision,
                infos[(decision.destination, allowed)],
                scenario.graph,
                complex_rel=scenario.complex_rel,
                siblings=scenario.siblings,
            )
        )
    return labels


def check_labels(
    scenario: Scenario, classifier: Optional[object] = None
) -> List[Disagreement]:
    """Oracle vs every optimized grading path on one scenario.

    ``classifier`` optionally supplies a
    :class:`repro.perf.parallel.ParallelClassifier` whose precompute +
    batched path is included in the comparison (pool or serial —
    results must be identical either way).
    """
    problems: List[Disagreement] = []
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    reference = oracle_labels(scenario)

    paths: Dict[str, List[DecisionLabel]] = {}
    paths["per-decision"] = [
        classify_decision(
            decision,
            engine,
            allowed_first_hops=scenario.first_hops_for.get(decision.prefix),
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        for decision in scenario.decisions
    ]
    paths["serial"] = [
        label
        for _d, label in label_decisions_serial(
            scenario.decisions,
            engine,
            first_hops_for=scenario.first_hops_for,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
    ]
    paths["batched"] = [
        label
        for _d, label in label_decisions(
            scenario.decisions,
            engine,
            first_hops_for=scenario.first_hops_for,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
    ]
    engine_array = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit, backend="array"
    )
    paths["array-per-decision"] = [
        classify_decision(
            decision,
            engine_array,
            allowed_first_hops=scenario.first_hops_for.get(decision.prefix),
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        for decision in scenario.decisions
    ]
    paths["array-batched"] = [
        label
        for _d, label in label_decisions(
            scenario.decisions,
            engine_array,
            first_hops_for=scenario.first_hops_for,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
    ]
    if classifier is not None:
        from repro.core.classification import LayerConfig

        cold_engine = GaoRexfordEngine(
            scenario.graph, partial_transit=scenario.partial_transit
        )
        layer = LayerConfig(
            engine=cold_engine,
            first_hops_for=scenario.first_hops_for or None,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        paths["parallel-classifier"] = [
            label
            for _d, label in classifier.label_layer(scenario.decisions, layer)
        ]

    for name, labels in paths.items():
        for index, (got, want) in enumerate(zip(labels, reference)):
            if got is not want:
                decision = scenario.decisions[index]
                problems.append(
                    Disagreement(
                        "labels",
                        scenario.seed,
                        f"{name} graded AS{decision.asn}->AS{decision.next_hop}"
                        f" toward AS{decision.destination} as {got.value}, "
                        f"oracle says {want.value}",
                    )
                )
                break  # one witness per path keeps reports readable

    counts = classify_decisions(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )
    counts_serial = classify_decisions_serial(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )
    counts_array = classify_decisions(
        scenario.decisions,
        engine_array,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )
    tally = LabelCounts()
    for label in reference:
        tally.add(label)
    for name, got in (
        ("batched", counts),
        ("serial", counts_serial),
        ("array", counts_array),
    ):
        if got.counts != tally.counts:
            problems.append(
                Disagreement(
                    "labels",
                    scenario.seed,
                    f"{name} counts {got.counts} != oracle tally {tally.counts}",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# Metamorphic invariants
# ---------------------------------------------------------------------------


def _renumber_scenario(scenario: Scenario, rng: random.Random) -> Scenario:
    """The same world under a random ASN permutation."""
    asns = sorted(scenario.graph.asns())
    shuffled = list(asns)
    rng.shuffle(shuffled)
    mapping = dict(zip(asns, shuffled))

    graph = ASGraph()
    for asn in asns:
        graph.ensure_asn(mapping[asn])
    for a, b, rel in scenario.graph.links():
        graph.add_link(mapping[a], mapping[b], rel)

    from repro.topology.complex_rel import ComplexRelationships, HybridEntry
    from repro.whois.siblings import SiblingGroups

    complex_rel = None
    if scenario.complex_rel is not None:
        entries = [
            HybridEntry(
                mapping[entry.asn],
                mapping[entry.neighbor],
                entry.city,
                entry.relationship,
            )
            for entry in scenario.complex_rel.hybrid_entries()
        ]
        complex_rel = ComplexRelationships(hybrid=entries)
    siblings = None
    if scenario.siblings is not None:
        siblings = SiblingGroups(
            frozenset(mapping[asn] for asn in group)
            for group in scenario.siblings.groups()
        )
    decisions = [
        Decision(
            asn=mapping[d.asn],
            next_hop=mapping[d.next_hop],
            destination=mapping[d.destination],
            prefix=d.prefix,
            measured_len=d.measured_len,
            source_asn=mapping[d.source_asn],
            border_city=d.border_city,
        )
        for d in scenario.decisions
    ]
    first_hops_for = {
        prefix: frozenset(mapping[asn] for asn in allowed)
        for prefix, allowed in scenario.first_hops_for.items()
    }
    return Scenario(
        seed=scenario.seed,
        graph=graph,
        partial_transit=frozenset(
            (mapping[p], mapping[c]) for p, c in scenario.partial_transit
        ),
        destinations=[mapping[d] for d in scenario.destinations],
        decisions=decisions,
        first_hops_for=first_hops_for,
        complex_rel=complex_rel,
        siblings=siblings,
        prefix_of={mapping[d]: p for d, p in scenario.prefix_of.items()},
    )


def _scenario_counts(
    scenario: Scenario, backend: str = "dict"
) -> Dict[DecisionLabel, int]:
    engine = GaoRexfordEngine(
        scenario.graph,
        partial_transit=scenario.partial_transit,
        backend=backend,
    )
    return classify_decisions(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    ).counts


def check_metamorphic(scenario: Scenario) -> List[Disagreement]:
    """Invariants that must hold regardless of what the oracle says."""
    problems: List[Disagreement] = []
    rng = random.Random(scenario.seed ^ 0x5EED)
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    base_counts = _scenario_counts(scenario)

    # 1. Label distribution is invariant under AS renumbering.
    renumbered = _renumber_scenario(scenario, rng)
    if _scenario_counts(renumbered) != base_counts:
        problems.append(
            Disagreement(
                "metamorphic",
                scenario.seed,
                "label counts changed under AS renumbering",
            )
        )

    # 1b. Label distribution is invariant under an engine backend swap
    #     (the dict reference and the CSR array kernel are twins) —
    #     including on the renumbered world, so the kernel's dense-id
    #     renumbering is exercised against a shuffled ASN space.
    for name, world in (("base", scenario), ("renumbered", renumbered)):
        if _scenario_counts(world, backend="array") != base_counts:
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"label counts changed under backend swap ({name})",
                )
            )

    # 2. Counts are linear: duplicating every decision doubles them.
    doubled = classify_decisions(
        scenario.decisions + scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    ).counts
    if doubled != {label: 2 * n for label, n in base_counts.items()}:
        problems.append(
            Disagreement(
                "metamorphic",
                scenario.seed,
                "duplicating decisions did not double label counts",
            )
        )

    labeled = label_decisions(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )

    for destination in scenario.destinations:
        # 3. Allowing every neighbor is the same tree as no restriction.
        full = frozenset(scenario.graph.neighbor_set(destination))
        unrestricted = engine.routing_info(destination, None)
        nominally_restricted = engine.routing_info(destination, full)
        if (
            nominally_restricted.customer_dist != unrestricted.customer_dist
            or nominally_restricted.peer_dist != unrestricted.peer_dist
            or nominally_restricted.provider_dist != unrestricted.provider_dist
        ):
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"dest={destination}: allowing all neighbors differs "
                    "from no restriction",
                )
            )

        # 4. Restricting first hops can only lose customer/peer routes
        #    and lengthen the surviving ones (poisoning monotonicity).
        if len(full) > 1:
            subset = frozenset(rng.sample(sorted(full), k=len(full) - 1))
            restricted = engine.routing_info(destination, subset)
            for kind, base, narrowed in (
                ("customer", unrestricted.customer_dist, restricted.customer_dist),
                ("peer", unrestricted.peer_dist, restricted.peer_dist),
            ):
                for asn, dist in narrowed.items():
                    if asn not in base or dist < base[asn]:
                        problems.append(
                            Disagreement(
                                "metamorphic",
                                scenario.seed,
                                f"dest={destination}: {kind} route at "
                                f"AS{asn} improved under restriction "
                                f"({base.get(asn)} -> {dist})",
                            )
                        )
                        break

    for decision, label in labeled:
        # 5. Handing traffic to a sibling or customer is always Best.
        relationship = scenario.graph.relationship(
            decision.asn, decision.next_hop
        )
        hybrid = None
        if scenario.complex_rel is not None:
            hybrid = scenario.complex_rel.hybrid_relationship(
                decision.asn, decision.next_hop, decision.border_city
            )
        effective = hybrid if hybrid is not None else relationship
        declared_sibling = (
            scenario.siblings is not None
            and scenario.siblings.are_siblings(decision.asn, decision.next_hop)
        )
        if declared_sibling or effective in (
            Relationship.CUSTOMER,
            Relationship.SIBLING,
        ):
            if label in (DecisionLabel.NONBEST_SHORT, DecisionLabel.NONBEST_LONG):
                problems.append(
                    Disagreement(
                        "metamorphic",
                        scenario.seed,
                        f"AS{decision.asn}->AS{decision.next_hop} is a "
                        f"{'sibling' if declared_sibling else effective.value} "
                        f"hand-off yet graded {label.value}",
                    )
                )
                break

    # 6. Shortening a measured path can only move its label toward
    #    Short (the Best axis must not move at all).
    for decision, label in labeled[:10]:
        if decision.measured_len <= 1:
            continue
        shorter = Decision(
            asn=decision.asn,
            next_hop=decision.next_hop,
            destination=decision.destination,
            prefix=decision.prefix,
            measured_len=decision.measured_len - 1,
            source_asn=decision.source_asn,
            border_city=decision.border_city,
        )
        relabeled = classify_decision(
            shorter,
            engine,
            allowed_first_hops=scenario.first_hops_for.get(decision.prefix),
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        was_best = label in (DecisionLabel.BEST_SHORT, DecisionLabel.BEST_LONG)
        now_best = relabeled in (
            DecisionLabel.BEST_SHORT,
            DecisionLabel.BEST_LONG,
        )
        was_short = label in (
            DecisionLabel.BEST_SHORT,
            DecisionLabel.NONBEST_SHORT,
        )
        now_short = relabeled in (
            DecisionLabel.BEST_SHORT,
            DecisionLabel.NONBEST_SHORT,
        )
        if was_best is not now_best or (was_short and not now_short):
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"shortening AS{decision.asn}'s measured path moved its "
                    f"label from {label.value} to {relabeled.value}",
                )
            )
            break

    # 7. Adding a stub leaf (a new AS buying transit from one existing
    #    AS) changes no existing routing state: it can only *receive*
    #    routes, never carry them.
    host = rng.choice(sorted(scenario.graph.asns()))
    grown = scenario.graph.copy()
    stub = max(grown.asns()) + 1
    grown.add_link(host, stub, Relationship.CUSTOMER)
    grown_engine = GaoRexfordEngine(
        grown, partial_transit=scenario.partial_transit
    )
    for destination in scenario.destinations:
        before = engine.routing_info(destination, None)
        after = grown_engine.routing_info(destination, None)
        trimmed_provider = {
            asn: dist for asn, dist in after.provider_dist.items() if asn != stub
        }
        if (
            after.customer_dist != before.customer_dist
            or after.peer_dist != before.peer_dist
            or trimmed_provider != before.provider_dist
        ):
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"adding stub AS{stub} under AS{host} changed routing "
                    f"state toward AS{destination}",
                )
            )
            break
    return problems


# ---------------------------------------------------------------------------
# BGP decision process fuzz
# ---------------------------------------------------------------------------

_PFX = Prefix.parse("203.0.113.0/24")


def _random_routes(rng: random.Random) -> List[Route]:
    count = rng.randint(1, 8)
    # Small value pools force ties at every decision step; router ids
    # are unique so a full tie cannot make the winner order-dependent.
    router_ids = rng.sample(range(1, 100), k=count)
    routes = []
    for index in range(count):
        path_len = rng.randint(1, 4)
        routes.append(
            Route(
                prefix=_PFX,
                as_path=ASPathAttribute.from_sequence(
                    rng.sample(range(64500, 64600), k=path_len)
                ),
                learned_from=rng.randint(64500, 64599),
                relationship=rng.choice(list(Relationship)),
                local_pref=rng.choice((80, 100, 120)),
                igp_cost=rng.choice((0, 5, 10)),
                age=rng.choice((0, 1, 2)),
                router_id=router_ids[index],
            )
        )
    return routes


def check_bgp_decision(seed: int, trials: int = 20) -> List[Disagreement]:
    """The decision process vs the tournament oracle, plus invariances."""
    problems: List[Disagreement] = []
    rng = random.Random(seed ^ 0xB6D)
    for trial in range(trials):
        routes = _random_routes(rng)
        winner, step = best_route(routes)
        oracle_winner, oracle_step = oracle_best_route(routes)
        if winner != oracle_winner:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: winner {winner} != oracle {oracle_winner}",
                )
            )
            continue
        if step is not None and step.value != oracle_step:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: step {step.value!r} != oracle "
                    f"{oracle_step!r}",
                )
            )
        if rank_routes(routes)[0] != winner:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: rank_routes head differs from best_route",
                )
            )
        shuffled = list(routes)
        rng.shuffle(shuffled)
        reshuffled_winner, _ = best_route(shuffled)
        if reshuffled_winner != winner:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: winner changed under input permutation",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# Longest-prefix match fuzz
# ---------------------------------------------------------------------------


def _random_prefix(rng: random.Random) -> Prefix:
    length = rng.choice((0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32))
    return Prefix.from_address(IPAddress(rng.getrandbits(32)), length)


def _probe_addresses(prefixes: List[Prefix], rng: random.Random) -> List[IPAddress]:
    """Random addresses plus the boundary addresses of every prefix."""
    addresses = [IPAddress(rng.getrandbits(32)) for _ in range(16)]
    addresses.extend((IPAddress(0), IPAddress((1 << 32) - 1)))
    for prefix in prefixes:
        addresses.append(prefix.first_address())
        addresses.append(IPAddress(prefix.network | ~prefix.mask() & 0xFFFFFFFF))
    return addresses


def check_lpm(seed: int, rounds: int = 4) -> List[Disagreement]:
    """PrefixTrie vs the linear-scan oracle under inserts and removes."""
    problems: List[Disagreement] = []
    rng = random.Random(seed ^ 0x199)
    for round_number in range(rounds):
        trie: PrefixTrie = PrefixTrie()
        reference = OracleLPM()
        prefixes = [_random_prefix(rng) for _ in range(rng.randint(1, 24))]
        if rng.random() < 0.3:
            prefixes.append(Prefix(0, 0))  # explicit default route
        for prefix in prefixes:
            value = f"{prefix}#{rng.randint(0, 3)}"
            trie.insert(prefix, value)
            reference.insert(prefix, value)
        for prefix in rng.sample(prefixes, k=len(prefixes) // 4):
            removed_trie = trie.remove(prefix)
            removed_ref = reference.remove(prefix)
            if removed_trie != removed_ref:
                problems.append(
                    Disagreement(
                        "lpm",
                        seed,
                        f"round {round_number}: remove({prefix}) returned "
                        f"{removed_trie}, oracle {removed_ref}",
                    )
                )
        if len(trie) != len(reference):
            problems.append(
                Disagreement(
                    "lpm",
                    seed,
                    f"round {round_number}: size {len(trie)} != oracle "
                    f"{len(reference)}",
                )
            )
        for address in _probe_addresses(prefixes, rng):
            got = trie.lookup_with_prefix(address)
            want = reference.lookup_with_prefix(address)
            if got != want:
                problems.append(
                    Disagreement(
                        "lpm",
                        seed,
                        f"round {round_number}: lookup({address}) = {got}, "
                        f"oracle {want}",
                    )
                )
                break
            if trie.lookup_all(address) != reference.lookup_all(address):
                problems.append(
                    Disagreement(
                        "lpm",
                        seed,
                        f"round {round_number}: lookup_all({address}) "
                        "differs from oracle",
                    )
                )
                break
    return problems


# ---------------------------------------------------------------------------
# Temporal: incremental vs from-scratch over a churn series
# ---------------------------------------------------------------------------


def check_temporal(scenario: Scenario) -> List[Disagreement]:
    """Incremental epoch grading must equal from-scratch, byte for byte.

    Builds a four-snapshot churn series from the scenario graph — the
    base, an identical copy (the zero-diff edge case), then two rounds
    of ~12% seeded churn (drops and label flips via
    :func:`~repro.topogen.inference.perturb_snapshot`) — and runs the
    temporal delta pipeline and the cold per-snapshot oracle over it on
    both engine backends.  Every epoch's Figure-1 snapshot JSON must be
    byte-identical between the two legs, and the zero-diff epoch must
    not touch the engines at all (no cache misses, no re-grading).
    """
    from repro.temporal.study import (
        TemporalInputs,
        epoch_snapshot,
        run_incremental,
        run_scratch,
        serialize_epoch,
    )
    from repro.topogen.inference import perturb_snapshot

    rng = random.Random(scenario.seed ^ 0x7E4)
    base = scenario.graph
    series = [base, base.copy(), perturb_snapshot(base, 0.12, rng)]
    series.append(perturb_snapshot(series[-1], 0.12, rng))

    problems: List[Disagreement] = []
    for backend in ("dict", "array"):
        inputs = TemporalInputs(
            decisions=scenario.decisions,
            first_hops_1=scenario.first_hops_for,
            first_hops_2={},
            known_complex=scenario.complex_rel,
            siblings=scenario.siblings,
            partial_transit=scenario.partial_transit,
            backend=backend,
        )
        incremental = run_incremental(series, inputs)
        scratch = run_scratch(series, inputs)
        for index, (got, want) in enumerate(
            zip(incremental.figure1_series(), scratch)
        ):
            got_bytes = serialize_epoch(epoch_snapshot(index, got))
            want_bytes = serialize_epoch(epoch_snapshot(index, want))
            if got_bytes != want_bytes:
                differing = sorted(
                    layer
                    for layer in want
                    if got.get(layer) != want[layer]
                )
                problems.append(
                    Disagreement(
                        "temporal",
                        scenario.seed,
                        f"{backend} backend epoch {index}: incremental "
                        f"figure1 diverges from from-scratch in layer(s) "
                        f"{differing}",
                    )
                )
        zero_diff = incremental.epochs[1]
        if zero_diff.cache_misses != 0 or zero_diff.regraded_groups != 0:
            problems.append(
                Disagreement(
                    "temporal",
                    scenario.seed,
                    f"{backend} backend: zero-diff epoch was not a pure "
                    f"cache hit (misses={zero_diff.cache_misses}, "
                    f"regraded={zero_diff.regraded_groups})",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# Supervised pool vs serial (heavy, opt-in)
# ---------------------------------------------------------------------------


def check_pool_supervision(scenario: Scenario) -> List[Disagreement]:
    """Supervised pool under injected crashes vs the serial fault-free
    path — labels must be identical through every recovery branch.

    Runs both engine backends through a
    :class:`~repro.perf.parallel.ParallelClassifier` forced onto the
    pool (2 workers, threshold 1) with a seeded crash+corruption plan,
    so shards complete parallel, after retries, and serially after
    quarantine within one check.  Heavy — every seed spawns real
    worker processes — so the runner only includes it when named via
    ``--only pool-supervised``.
    """
    from repro.core.classification import LayerConfig
    from repro.faults.plan import FaultPlan, FaultSite
    from repro.perf.parallel import ParallelClassifier

    plan = FaultPlan(
        seed=scenario.seed,
        rates={
            FaultSite.POOL_WORKER_CRASH: 0.3,
            FaultSite.POOL_RESULT_CORRUPT: 0.2,
        },
    )
    problems: List[Disagreement] = []
    for backend in ("dict", "array"):
        reference_engine = GaoRexfordEngine(
            scenario.graph,
            partial_transit=scenario.partial_transit,
            backend=backend,
        )
        expected = label_decisions_serial(
            scenario.decisions,
            reference_engine,
            first_hops_for=scenario.first_hops_for or None,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        pool_engine = GaoRexfordEngine(
            scenario.graph,
            partial_transit=scenario.partial_transit,
            backend=backend,
        )
        classifier = ParallelClassifier(
            workers=2,
            min_parallel_trees=1,
            chunk_size=2,
            fault_plan=plan,
        )
        layer = LayerConfig(
            engine=pool_engine,
            first_hops_for=scenario.first_hops_for or None,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        got = classifier.label_layer(scenario.decisions, layer)
        if got != expected:
            mismatches = [
                (d.asn, d.next_hop, a.value, b.value)
                for (d, a), (_d, b) in zip(got, expected)
                if a is not b
            ][:3]
            problems.append(
                Disagreement(
                    "pool-supervised",
                    scenario.seed,
                    f"{backend} backend: supervised-pool labels diverge "
                    f"from serial: {mismatches}",
                )
            )
        report = classifier.last_shard_report
        if report is not None and not report.accounted():
            problems.append(
                Disagreement(
                    "pool-supervised",
                    scenario.seed,
                    f"{backend} backend: shard accounting does not add up: "
                    f"{report.as_dict()}",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# Ledger resume vs fresh (heavy, opt-in)
# ---------------------------------------------------------------------------


def check_ledger_resume(scenario: Scenario) -> List[Disagreement]:
    """A study crash-looped through filesystem faults and resumed via
    its run ledger must match an uninterrupted run byte-for-byte.

    For each engine backend, runs one fresh study (no run directory,
    same fault plan — only storage sites are armed, which never alter
    measurement outputs), then a chaos study into a ledger-managed run
    directory: torn appends, ENOSPC, pre-rename crashes and stale
    locks fire at seeded points, each crash is "rebooted" by re-opening
    the study with ``resume=True``, and the final results are compared
    through the byte-deterministic golden serializer.  Heavy — every
    seed runs several end-to-end studies — so the runner only includes
    it when named via ``--only ledger-resume``.
    """
    import shutil
    import tempfile

    from repro.check.golden import serialize, snapshot_study
    from repro.core.pipeline import Study, StudyConfig
    from repro.faults import CampaignInterrupted, RunLedger
    from repro.faults.plan import FaultPlan, FaultSite
    from repro.topogen.config import small_config

    seed = scenario.seed
    plan = FaultPlan(
        seed=seed,
        rates={
            FaultSite.STORAGE_TORN_APPEND: 0.004,
            FaultSite.STORAGE_ENOSPC: 0.002,
            FaultSite.STORAGE_RENAME_CRASH: 0.05,
            FaultSite.STORAGE_STALE_LOCK: 0.3,
        },
    )
    max_attempts = 25

    def base_config(backend: str) -> StudyConfig:
        return StudyConfig(
            topology=small_config(),
            seed=seed,
            backend=backend,
            num_probes=100,
            probes_per_continent=8,
            active_vp_budget=24,
            max_discovery_targets=8,
            fault_plan=plan,
            pool_workers=2,
            pool_min_parallel_trees=1,
            durability="flush",
        )

    problems: List[Disagreement] = []
    for backend in ("dict", "array"):
        fresh = serialize(snapshot_study(Study(base_config(backend)).run()))
        run_dir = tempfile.mkdtemp(prefix="repro-ledger-check-")
        try:
            chaos: Optional[str] = None
            crashes = 0
            for attempt in range(max_attempts):
                config = base_config(backend)
                config.run_dir = run_dir
                config.resume = attempt > 0
                try:
                    results = Study(config).run()
                except (CampaignInterrupted, OSError):
                    crashes += 1
                    continue
                chaos = serialize(snapshot_study(results))
                break
            if chaos is None:
                problems.append(
                    Disagreement(
                        "ledger-resume",
                        seed,
                        f"{backend} backend: study never completed within "
                        f"{max_attempts} resume attempts ({crashes} crashes)",
                    )
                )
                continue
            if chaos != fresh:
                problems.append(
                    Disagreement(
                        "ledger-resume",
                        seed,
                        f"{backend} backend: resumed study diverges from the "
                        f"uninterrupted run after {crashes} crash(es)",
                    )
                )
            ledger = RunLedger.read(run_dir)
            if ledger is None or ledger.get("status") != "completed":
                problems.append(
                    Disagreement(
                        "ledger-resume",
                        seed,
                        f"{backend} backend: ledger status is "
                        f"{ledger and ledger.get('status')!r}, expected "
                        "'completed'",
                    )
                )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return problems
