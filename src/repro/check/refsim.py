"""The reference BGP control plane: a frozen copy of the seed simulator.

:class:`ReferenceSimulator` and :class:`ReferenceSpeaker` are the
event-driven simulator exactly as it stood before the control plane was
rewritten for speed (``repro.bgp.simulator`` / ``repro.bgp.speaker``):
dataclass prefixes, :class:`~repro.bgp.attributes.ASPathAttribute`
paths, :class:`~repro.bgp.routes.Route` objects in every RIB, full
decision runs through :func:`~repro.bgp.decision.best_route`, and the
``Policy.should_export`` export chain.  The ``bgp-converge`` check
(:mod:`repro.check.controlplane`) drives it in lockstep with the
production simulator and compares the converged state.

It differs from the seed code in one documented way.  A *sole-origin
withdrawal* runs without route-flap damping and without the event
budget (so without the soft-limit warning either): the queue is empty,
no other AS originates the prefix, no speaker has missed an update for
it (a message dropped by damping or discarded after a convergence
failure), and the ASes with loop prevention off form no cycle (around
which a path could count to infinity).  Damping and the budget guard
against dispute wheels, and a withdrawal with no origin left cannot
have one; with damping on, path exploration can freeze ASes
mid-withdrawal and leave ghost routes behind, and a tight budget can
abort it half way.  Undamped and unbounded, the run ends with every RIB
empty for the prefix, which is the state the production fast path
jumps to directly.

Nothing on the production path imports this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import (
    entry_class_community,
    read_entry_class,
    strip_entry_class,
)
from repro.bgp.decision import DecisionStep, best_route
from repro.bgp.policy import CountryLookup, Policy
from repro.bgp.routes import LocalRoute, Route
from repro.bgp.simulator import ConvergenceError
from repro.net.ip import Prefix
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship


@dataclass(frozen=True)
class Announcement:
    """A route announcement for one prefix (path includes the sender)."""

    prefix: Prefix
    as_path: ASPathAttribute
    sender: int
    communities: FrozenSet[Tuple[int, int]] = frozenset()


@dataclass(frozen=True)
class Withdrawal:
    """Withdrawal of the sender's route for one prefix."""

    prefix: Prefix
    sender: int


class ReferenceSpeaker:
    """BGP state for one AS, on dataclass routes and full decision runs."""

    def __init__(
        self,
        asn: int,
        policy: Policy,
        neighbors: Dict[int, Relationship],
        relationship_resolver=None,
        flap_limit: int = 0,
    ) -> None:
        self.asn = asn
        self.policy = policy
        self.neighbors = dict(neighbors)
        self._resolve_relationship = relationship_resolver
        self._flap_limit = flap_limit
        self._flap_count: Dict[Prefix, int] = {}
        self._frozen: set = set()
        #: Prefixes for which an update was dropped or lost before it
        #: was processed here (see the module docstring).
        self.missed: set = set()
        self._adj_rib_in: Dict[Prefix, Dict[int, Route]] = {}
        self._loc_rib: Dict[Prefix, Route] = {}
        self._decision_steps: Dict[Prefix, DecisionStep] = {}
        self._local_routes: Dict[Prefix, LocalRoute] = {}
        self._advertised: Dict[Tuple[Prefix, int], Tuple[ASPathAttribute, frozenset]]
        self._advertised = {}

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(self, local_route: LocalRoute) -> bool:
        if local_route.origin_asn != self.asn:
            raise ValueError(
                f"AS{self.asn} cannot originate a route owned by "
                f"AS{local_route.origin_asn}"
            )
        existing = self._local_routes.get(local_route.prefix)
        if existing == local_route:
            return False
        self._local_routes[local_route.prefix] = local_route
        self._run_decision(local_route.prefix)
        return True

    def withdraw_origin(self, prefix: Prefix) -> bool:
        if prefix not in self._local_routes:
            return False
        del self._local_routes[prefix]
        self._run_decision(prefix)
        return True

    def originates(self, prefix: Prefix) -> bool:
        return prefix in self._local_routes

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def receive(
        self,
        message,
        clock: int,
        country_of: Optional[CountryLookup] = None,
    ) -> bool:
        if message.prefix in self._frozen:
            self.missed.add(message.prefix)
            return False
        if isinstance(message, Announcement):
            return self._receive_announcement(message, clock, country_of)
        if isinstance(message, Withdrawal):
            return self._receive_withdrawal(message)
        raise TypeError(f"unknown BGP message type: {type(message).__name__}")

    def _effective_class(
        self, neighbor: int, as_path, communities=frozenset()
    ) -> Relationship:
        relationship = self.neighbors[neighbor]
        if relationship is not Relationship.SIBLING:
            return relationship
        tagged = read_entry_class(communities)
        if tagged is not None:
            return tagged
        if self._resolve_relationship is None:
            return relationship
        hops = as_path.sequence()
        current = neighbor
        for next_hop in hops[1:]:
            if next_hop == current:
                continue
            hop_relationship = self._resolve_relationship(current, next_hop)
            if hop_relationship is None:
                return Relationship.SIBLING
            if hop_relationship is not Relationship.SIBLING:
                return hop_relationship
            current = next_hop
        return Relationship.CUSTOMER

    def _receive_announcement(
        self,
        announcement: Announcement,
        clock: int,
        country_of: Optional[CountryLookup],
    ) -> bool:
        neighbor = announcement.sender
        relationship = self.neighbors.get(neighbor)
        if relationship is None:
            raise ValueError(f"AS{self.asn} has no session with AS{neighbor}")
        per_prefix = self._adj_rib_in.setdefault(announcement.prefix, {})
        if not self.policy.accepts(announcement.as_path):
            removed = per_prefix.pop(neighbor, None) is not None
            if removed:
                return self._run_decision(announcement.prefix)
            return False
        previous = per_prefix.get(neighbor)
        if (
            previous is not None
            and previous.as_path == announcement.as_path
            and previous.communities == announcement.communities
        ):
            return False
        effective = self._effective_class(
            neighbor, announcement.as_path, announcement.communities
        )
        route = Route(
            prefix=announcement.prefix,
            as_path=announcement.as_path,
            learned_from=neighbor,
            relationship=relationship,
            local_pref=self.policy.local_pref_for(
                neighbor,
                effective,
                announcement.prefix,
                announcement.as_path,
                country_of,
            ),
            igp_cost=self.policy.igp_cost_for(neighbor),
            age=clock,
            router_id=neighbor,
            export_class=effective,
            communities=announcement.communities,
        )
        per_prefix[neighbor] = route
        return self._run_decision(announcement.prefix)

    def _receive_withdrawal(self, withdrawal: Withdrawal) -> bool:
        per_prefix = self._adj_rib_in.get(withdrawal.prefix, {})
        if per_prefix.pop(withdrawal.sender, None) is None:
            return False
        return self._run_decision(withdrawal.prefix)

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------
    def candidates(self, prefix: Prefix) -> List[Route]:
        routes = list(self._adj_rib_in.get(prefix, {}).values())
        local = self._local_routes.get(prefix)
        if local is not None:
            routes.append(local.to_route())
        return routes

    def _run_decision(self, prefix: Prefix) -> bool:
        previous = self._loc_rib.get(prefix)
        winner, step = best_route(self.candidates(prefix))
        if winner is None:
            self._loc_rib.pop(prefix, None)
            self._decision_steps.pop(prefix, None)
        else:
            self._loc_rib[prefix] = winner
            self._decision_steps[prefix] = step
        changed = previous != winner
        if changed and self._flap_limit:
            flaps = self._flap_count.get(prefix, 0) + 1
            self._flap_count[prefix] = flaps
            if flaps > self._flap_limit:
                self._frozen.add(prefix)
        return changed

    def reset_damping(self) -> None:
        self._flap_count.clear()
        self._frozen.clear()

    @property
    def damped_prefixes(self) -> frozenset:
        return frozenset(self._frozen)

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._loc_rib.get(prefix)

    def decision_step(self, prefix: Prefix) -> Optional[DecisionStep]:
        return self._decision_steps.get(prefix)

    def advertised_to(self, prefix: Prefix) -> Dict[int, Tuple]:
        """Neighbor -> (path, communities) last announced for ``prefix``."""
        return {
            neighbor: export
            for (advertised_prefix, neighbor), export in self._advertised.items()
            if advertised_prefix == prefix
        }

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------
    def _export_route(self, prefix: Prefix, to_neighbor: int):
        relationship = self.neighbors[to_neighbor]
        local = self._local_routes.get(prefix)
        best = self._loc_rib.get(prefix)
        if local is not None and best is not None and best.learned_from == self.asn:
            if not self.policy.exports_origin_prefix(prefix, to_neighbor):
                return None
            path = local.exported_path()
            prepends = self.policy.export_prepend.get((prefix, to_neighbor), 0)
            for _ in range(prepends):
                path = path.prepend(self.asn)
            communities = frozenset()
            if relationship is Relationship.SIBLING:
                communities = frozenset(
                    {entry_class_community(self.asn, Relationship.CUSTOMER)}
                )
            return path, communities
        if best is None:
            return None
        if not self.policy.should_export(best, to_neighbor, relationship):
            return None
        if relationship is Relationship.SIBLING:
            communities = best.communities
            if read_entry_class(communities) is None:
                communities = communities | {
                    entry_class_community(self.asn, best.effective_class)
                }
        else:
            communities = strip_entry_class(best.communities)
        return best.as_path.prepend(self.asn), communities

    def pending_export(self, prefix: Prefix, to_neighbor: int):
        export = self._export_route(prefix, to_neighbor)
        key = (prefix, to_neighbor)
        advertised = self._advertised.get(key)
        if export is None:
            if advertised is None:
                return None
            del self._advertised[key]
            return Withdrawal(prefix=prefix, sender=self.asn)
        if advertised == export:
            return None
        self._advertised[key] = export
        path, communities = export
        return Announcement(
            prefix=prefix, as_path=path, sender=self.asn, communities=communities
        )


def _loop_off_cycle(graph: ASGraph, loop_off: set) -> bool:
    """Whether the links among ``loop_off`` ASes contain a cycle (DFS)."""
    seen: set = set()
    for start in sorted(loop_off):
        if start in seen:
            continue
        stack = [(start, None)]
        while stack:
            asn, came_from = stack.pop()
            if asn in seen:
                return True
            seen.add(asn)
            for neighbor in graph.neighbor_set(asn):
                if neighbor in loop_off and neighbor != came_from:
                    stack.append((neighbor, asn))
    return False


class ReferenceSimulator:
    """Propagates BGP routes to a fixed point, one dataclass at a time.

    Same constructor, origination and inspection API as
    :class:`repro.bgp.simulator.BGPSimulator` (the parts the
    ``bgp-converge`` check drives).
    """

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Dict[int, Policy]] = None,
        country_of: Optional[CountryLookup] = None,
        max_events_per_link: int = 400,
        flap_limit: int = 60,
        soft_limit_fraction: float = 0.8,
    ) -> None:
        self.graph = graph
        self._country_of = country_of
        policies = policies or {}
        self.speakers: Dict[int, ReferenceSpeaker] = {}
        for asn in graph.asns():
            policy = policies.get(asn) or Policy(asn=asn)
            self.speakers[asn] = ReferenceSpeaker(
                asn,
                policy,
                graph.neighbors(asn),
                relationship_resolver=graph.relationship,
                flap_limit=flap_limit,
            )
        self.loops_can_grow = _loop_off_cycle(
            graph,
            {a for a, s in self.speakers.items() if s.policy.loop_prevention_disabled},
        )
        self.clock = 0
        num_links = max(1, graph.num_links())
        self._max_events = max_events_per_link * num_links
        self._soft_events = int(self._max_events * soft_limit_fraction)
        self.on_soft_limit = None
        self.epoch = 0
        self._origination_prefix: Optional[Prefix] = None
        self._queue: Deque[Tuple[int, object]] = deque()

    def originate(
        self,
        asn: int,
        prefix: Prefix,
        poisoned: Iterable[int] = (),
    ) -> None:
        speaker = self._speaker(asn)
        speaker.originate(
            LocalRoute(prefix=prefix, origin_asn=asn, poisoned=frozenset(poisoned))
        )
        self._origination_prefix = prefix
        self._new_epoch()
        self._enqueue_exports(asn, prefix)
        self.run()

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        """Withdraw and converge; sole-origin withdrawals run undamped."""
        speaker = self._speaker(asn)
        self._origination_prefix = prefix
        if not speaker.withdraw_origin(prefix):
            self.run()
            return
        self._new_epoch()
        sole_origin = not self._queue and not self.loops_can_grow and not any(
            other.originates(prefix) or prefix in other.missed
            for other in self.speakers.values()
        )
        self._enqueue_exports(asn, prefix)
        if not sole_origin:
            self.run()
            return
        # Damping and the event budget both guard against dispute
        # wheels; an originless prefix has none and drains in finitely
        # many messages, however many that is.
        limits = {a: s._flap_limit for a, s in self.speakers.items()}
        budget = (self._max_events, self._soft_events)
        for other in self.speakers.values():
            other._flap_limit = 0
        self._max_events = self._soft_events = float("inf")
        try:
            self.run()
        finally:
            self._max_events, self._soft_events = budget
            for a, s in self.speakers.items():
                s._flap_limit = limits[a]

    def _new_epoch(self) -> None:
        self.epoch += 1
        for speaker in self.speakers.values():
            speaker.reset_damping()

    def run(self) -> int:
        delivered = 0
        warned = False
        while self._queue:
            if delivered >= self._max_events:
                raise ConvergenceError(
                    f"no convergence after {delivered} events for "
                    f"{self._origination_prefix} (epoch {self.epoch}); "
                    "likely a policy dispute wheel",
                    prefix=self._origination_prefix,
                    epoch=self.epoch,
                    delivered=delivered,
                )
            if not warned and delivered >= self._soft_events:
                warned = True
                if self.on_soft_limit is not None:
                    self.on_soft_limit(
                        self._origination_prefix, self.epoch, delivered
                    )
            target, message = self._queue.popleft()
            self.clock += 1
            delivered += 1
            speaker = self.speakers[target]
            best_changed = speaker.receive(message, self.clock, self._country_of)
            if best_changed:
                self._enqueue_exports(target, message.prefix)
        return delivered

    def discard_pending(self) -> int:
        """Drop undelivered messages; their targets have missed an update."""
        dropped = len(self._queue)
        for target, message in self._queue:
            self.speakers[target].missed.add(message.prefix)
        self._queue.clear()
        return dropped

    def _enqueue_exports(self, asn: int, prefix: Prefix) -> None:
        speaker = self.speakers[asn]
        for neighbor in sorted(speaker.neighbors):
            message = speaker.pending_export(prefix, neighbor)
            if message is not None:
                self._queue.append((neighbor, message))

    def _speaker(self, asn: int) -> ReferenceSpeaker:
        speaker = self.speakers.get(asn)
        if speaker is None:
            raise KeyError(f"AS{asn} is not in the topology")
        return speaker

    # ------------------------------------------------------------------
    # Inspection API
    # ------------------------------------------------------------------
    def best_route(self, asn: int, prefix: Prefix) -> Optional[Route]:
        return self._speaker(asn).best(prefix)

    def decision_step(self, asn: int, prefix: Prefix):
        return self._speaker(asn).decision_step(prefix)

    def candidate_routes(self, asn: int, prefix: Prefix) -> List[Route]:
        return self._speaker(asn).candidates(prefix)

    def damped_ases(self) -> Dict[int, frozenset]:
        return {
            asn: speaker.damped_prefixes
            for asn, speaker in self.speakers.items()
            if speaker.damped_prefixes
        }
