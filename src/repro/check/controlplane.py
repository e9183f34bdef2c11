"""Control-plane checks: the BGP simulator against two independent oracles.

* ``bgp-converge`` drives the production simulator
  (:mod:`repro.bgp.simulator`) and the frozen seed simulator
  (:mod:`repro.check.refsim`) through the same originate, poison,
  withdraw and magnet calls on a seeded world with PSP (selective
  per-prefix export), domestic preference, siblings, prepending, poison
  filtering and loop-prevention-disabled ASes.  After every call it
  compares, per AS, the best path, the decision step, the Adj-RIB-In,
  the relative order of route ages, and which ASes damping froze.
* ``bgp-vs-model`` converges the simulator under vanilla Gao-Rexford
  policy on a clean tiered topology and requires every converged path
  to lie in the route-tree engine's Best/Short set, with the engine's
  route length and reachability.  The two share no code beyond the
  topology.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.bgp.policy import Policy
from repro.bgp.simulator import BGPSimulator, ConvergenceError
from repro.check.differential import Disagreement
from repro.check.refsim import ReferenceSimulator
from repro.check.scenarios import _build_tiered_graph, generate_scenario
from repro.core.classification import Decision, DecisionLabel, classify_decision
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.topology.graph import ASGraph

_COUNTRIES = ("BR", "DE", "JP")

#: Disagreements reported per call before the rest are summarized.
_MAX_DETAILS = 3


# ---------------------------------------------------------------------------
# bgp-converge: production simulator vs the frozen reference
# ---------------------------------------------------------------------------


def _converge_policies(
    graph: ASGraph, scenario, rng: random.Random
) -> Tuple[Dict[int, Policy], Dict[int, str]]:
    """Seeded policies with every deviation the speaker implements."""
    countries = {asn: rng.choice(_COUNTRIES) for asn in graph.asns()}
    prefixes = sorted(scenario.prefix_of.values(), key=lambda p: p.network)
    policies: Dict[int, Policy] = {}
    for asn in sorted(graph.asns()):
        neighbors = sorted(graph.neighbor_set(asn))
        policy = Policy(asn=asn)
        for neighbor in neighbors:
            # Small cost pool: ties fall through to route age.
            policy.igp_cost[neighbor] = rng.choice((0, 0, 5))
        if neighbors and rng.random() < 0.15:
            policy.neighbor_local_pref[rng.choice(neighbors)] = rng.choice(
                (50, 250, 350)
            )
        if neighbors and prefixes and rng.random() < 0.15:
            policy.prefix_local_pref[(rng.choice(neighbors), rng.choice(prefixes))] = (
                rng.choice((80, 320))
            )
        if rng.random() < 0.4:
            policy.prefers_domestic = True
            policy.home_country = countries[asn]
        policy.filters_poisoned = rng.random() < 0.05
        policy.loop_prevention_disabled = rng.random() < 0.08
        policies[asn] = policy
    for provider, customer in scenario.partial_transit:
        policies[provider].partial_transit_to.add(customer)
    for destination, prefix in scenario.prefix_of.items():
        allowed = scenario.first_hops_for.get(prefix)
        if allowed is not None:
            policies[destination].selective_export[prefix] = allowed
        neighbors = sorted(graph.neighbor_set(destination))
        if neighbors and rng.random() < 0.5:
            policies[destination].export_prepend[(prefix, rng.choice(neighbors))] = (
                rng.randint(1, 3)
            )
    return policies, countries


def _route_state(simulator, asn: int, prefix: Prefix) -> Tuple:
    """One AS's comparable view of one prefix (ages only by rank)."""
    candidates = simulator.candidate_routes(asn, prefix)
    best = simulator.best_route(asn, prefix)
    step = simulator.decision_step(asn, prefix)
    rib = sorted(
        (
            route.learned_from,
            str(route.as_path),
            tuple(sorted(route.communities)),
            route.local_pref,
            route.igp_cost,
            route.relationship.value,
            route.effective_class.value,
        )
        for route in candidates
        if route.learned_from != asn
    )
    by_age = sorted(candidates, key=lambda route: route.age)
    ages = tuple(route.learned_from for route in by_age)
    best_view = None
    if best is not None:
        best_view = (best.learned_from, str(best.as_path), best.local_pref)
    return (
        best_view,
        None if step is None else step.value,
        tuple(rib),
        ages,
    )


_FIELDS = ("best", "decision step", "adj-rib-in", "age order")


def _compare(
    seed: int,
    label: str,
    production: BGPSimulator,
    reference: ReferenceSimulator,
    prefixes: List[Prefix],
) -> List[Disagreement]:
    problems: List[str] = []
    for prefix in prefixes:
        for asn in sorted(production.speakers):
            ours = _route_state(production, asn, prefix)
            theirs = _route_state(reference, asn, prefix)
            for name, mine, ref in zip(_FIELDS, ours, theirs):
                if mine != ref:
                    problems.append(
                        f"{label}: AS{asn} {prefix} {name}: {mine} != reference {ref}"
                    )
    damped = {a: sorted(map(str, p)) for a, p in production.damped_ases().items()}
    ref_damped = {a: sorted(map(str, p)) for a, p in reference.damped_ases().items()}
    if damped != ref_damped:
        problems.append(f"{label}: damped {damped} != reference {ref_damped}")
    out = [Disagreement("bgp-converge", seed, p) for p in problems[:_MAX_DETAILS]]
    if len(problems) > _MAX_DETAILS:
        out.append(
            Disagreement(
                "bgp-converge",
                seed,
                f"{label}: ... and {len(problems) - _MAX_DETAILS} more differences",
            )
        )
    return out


def check_bgp_converge(
    seed: int, simulator_class: Callable[..., BGPSimulator] = BGPSimulator
) -> List[Disagreement]:
    """Production vs reference simulator after every convergence.

    ``simulator_class`` lets mutation tests put a deliberately broken
    production simulator under the same comparison.
    """
    scenario = generate_scenario(seed)
    graph = scenario.graph
    rng = random.Random(seed ^ 0xC0B6)
    policies, countries = _converge_policies(graph, scenario, rng)
    # Small budgets keep dispute wheels (perturbed relationships) cheap;
    # every fourth world's budget is tight enough for the hard event
    # limit to fire, so recovery after ConvergenceError is compared too.
    options = dict(
        policies=policies,
        country_of=countries.get,
        max_events_per_link=2 if seed % 4 == 3 else 60,
        flap_limit=8,
    )
    production = simulator_class(graph, **options)
    reference = ReferenceSimulator(graph, **options)
    problems: List[Disagreement] = []
    asns = sorted(graph.asns())
    prefixes = [scenario.prefix_of[d] for d in scenario.destinations]

    def step(label: str, prefix: Prefix, call: Callable) -> None:
        outcomes = []
        for simulator in (production, reference):
            try:
                call(simulator)
                outcomes.append("converged")
            except ConvergenceError:
                simulator.discard_pending()
                outcomes.append("ConvergenceError")
        if outcomes[0] != outcomes[1]:
            problems.append(
                Disagreement(
                    "bgp-converge",
                    seed,
                    f"{label}: production {outcomes[0]}, reference {outcomes[1]}",
                )
            )
        problems.extend(_compare(seed, label, production, reference, [prefix]))

    # 1. Campaign: every destination originates; one prefix is anycast.
    for destination, prefix in zip(scenario.destinations, prefixes):
        step(
            f"originate AS{destination}",
            prefix,
            lambda sim, d=destination, p=prefix: sim.originate(d, p),
        )
    anycast_prefix = prefixes[-1]
    second_origin = rng.choice([a for a in asns if a != scenario.destinations[-1]])
    step(
        f"anycast AS{second_origin}",
        anycast_prefix,
        lambda sim: sim.originate(second_origin, anycast_prefix),
    )

    # 2. Discovery: poison a target's next hop round by round, then
    # reset the prefix with a withdraw and a re-announcement.
    origin, prefix = scenario.destinations[0], prefixes[0]
    target = rng.choice([a for a in asns if a != origin])
    poisoned: set = set()
    for round_no in range(3):
        route = reference.best_route(target, prefix)
        if route is None or route.learned_from in (target, origin):
            break
        poisoned.add(route.learned_from)
        step(
            f"poison round {round_no} {sorted(poisoned)}",
            prefix,
            lambda sim, s=frozenset(poisoned): sim.originate(
                origin, prefix, poisoned=s
            ),
        )
    step(f"withdraw AS{origin}", prefix, lambda sim: sim.withdraw(origin, prefix))
    step(f"re-announce AS{origin}", prefix, lambda sim: sim.originate(origin, prefix))

    # 3. Magnet: announce through one neighbor, then through all.
    magnet_origin, magnet_prefix = scenario.destinations[1], prefixes[1]
    neighbors = sorted(graph.neighbor_set(magnet_origin))
    policy = policies[magnet_origin]
    saved = policy.selective_export.get(magnet_prefix)
    if neighbors:
        policy.selective_export[magnet_prefix] = frozenset({rng.choice(neighbors)})
        step(
            f"magnet AS{magnet_origin}",
            magnet_prefix,
            lambda sim: sim.originate(magnet_origin, magnet_prefix),
        )
        policy.selective_export[magnet_prefix] = frozenset(neighbors)
        step(
            f"magnet anycast AS{magnet_origin}",
            magnet_prefix,
            lambda sim: sim.originate(magnet_origin, magnet_prefix),
        )
    if saved is None:
        policy.selective_export.pop(magnet_prefix, None)
    else:
        policy.selective_export[magnet_prefix] = saved

    # 4. Withdrawals: by a non-origin, with a second origin left, and
    # finally of every origination.
    step(
        f"withdraw by non-origin AS{target}",
        prefix,
        lambda sim: sim.withdraw(target, prefix),
    )
    step(
        f"anycast withdraw AS{second_origin}",
        anycast_prefix,
        lambda sim: sim.withdraw(second_origin, anycast_prefix),
    )
    for destination, origin_prefix in zip(scenario.destinations, prefixes):
        step(
            f"withdraw AS{destination}",
            origin_prefix,
            lambda sim, d=destination, p=origin_prefix: sim.withdraw(d, p),
        )
    problems.extend(_compare(seed, "final", production, reference, prefixes))
    return problems


# ---------------------------------------------------------------------------
# bgp-vs-model: simulator vs the Gao-Rexford route-tree engine
# ---------------------------------------------------------------------------


#: Destinations originated per ``bgp-vs-model`` world.
_VS_MODEL_DESTINATIONS = 3


def model_disagreements(
    graph: ASGraph,
    engine: GaoRexfordEngine,
    simulator: BGPSimulator,
    destination: int,
    prefix: Prefix,
) -> List[str]:
    """How ``prefix``'s converged routes differ from the engine's model.

    ``destination`` originates ``prefix`` in ``simulator``, which must
    have converged under vanilla Gao-Rexford policy on ``graph``.  The
    simulator must reach exactly the ASes the engine does, and every
    simulated path must have the engine's route length and grade
    Best/Short.
    """
    problems: List[str] = []
    info = engine.routing_info(destination)
    dump = simulator.rib_dump(prefix)
    expected = {asn for asn in graph.asns() if info.has_route(asn)} | {destination}
    if set(dump) != expected:
        problems.append(
            f"AS{destination}: reachable only in simulator "
            f"{sorted(set(dump) - expected)[:5]}, only in engine "
            f"{sorted(expected - set(dump))[:5]}"
        )
    for asn, route in sorted(dump.items()):
        if asn == destination:
            continue
        model_length = info.gr_route_length(asn)
        path = simulator.forwarding_path(asn, prefix)
        label: Optional[DecisionLabel] = None
        if path is not None:
            label = classify_decision(
                Decision(
                    asn=asn,
                    next_hop=route.learned_from,
                    destination=destination,
                    prefix=prefix,
                    measured_len=len(path) - 1,
                    source_asn=asn,
                ),
                engine,
            )
        if model_length != route.path_length() or label is not DecisionLabel.BEST_SHORT:
            problems.append(
                f"AS{asn} toward AS{destination}: simulated path {path} "
                f"(length {route.path_length()}) graded "
                f"{None if label is None else label.value}, engine "
                f"length {model_length}"
            )
    return problems


def check_bgp_vs_model(seed: int) -> List[Disagreement]:
    """Vanilla-policy convergence must match the engine's Best/Short set."""
    rng = random.Random(seed ^ 0x6E0)
    graph = _build_tiered_graph(rng)
    engine = GaoRexfordEngine(graph)
    simulator = BGPSimulator(graph)
    problems: List[Disagreement] = []
    asns = sorted(graph.asns())
    for index, destination in enumerate(rng.sample(asns, k=_VS_MODEL_DESTINATIONS)):
        prefix = Prefix((index + 1) << 12, 20)
        simulator.originate(destination, prefix)
        problems.extend(
            Disagreement("bgp-vs-model", seed, problem)
            for problem in model_disagreements(
                graph, engine, simulator, destination, prefix
            )
        )
    return problems
