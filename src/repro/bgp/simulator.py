"""Event-driven BGP propagation over an AS graph.

The simulator wires one :class:`~repro.bgp.speaker.BGPSpeaker` per AS in
a ground-truth :class:`~repro.topology.graph.ASGraph`, delivers update
messages in deterministic FIFO order, and runs the network to a fixed
point after each origination change.  A logical clock advances once per
delivered message; it is the time base for the route-age tie-breaker.

A withdrawal that leaves a prefix with no origin does not deliver any
messages: at a fixed point every AS's path is its next hop's path with
the next hop prepended, so every route chain ends at an origin, and
with none left the fixed point is the empty RIB.  :meth:`withdraw`
clears the prefix directly when that argument applies (see DESIGN.md).
The frozen seed simulator in :mod:`repro.check.refsim` is the oracle
for this and for the lean speaker.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.bgp.policy import CountryLookup, Policy
from repro.bgp.routes import LocalRoute, Route
from repro.bgp.speaker import BGPSpeaker, PrefixIds
from repro.net.ip import Prefix
from repro.obs.context import events_enabled, publish
from repro.obs.events import CATEGORY_BGP
from repro.topology.graph import ASGraph


class ConvergenceError(RuntimeError):
    """The network failed to reach a fixed point within the event budget.

    Carries the context a supervisor needs to attribute the blowout:
    which origination triggered it (``prefix``), the convergence epoch
    counter at the time (``epoch``), and how many events had been
    delivered when the hard limit fired (``delivered``).
    """

    def __init__(
        self,
        message: str,
        *,
        prefix: Optional[Prefix] = None,
        epoch: int = 0,
        delivered: int = 0,
    ) -> None:
        super().__init__(message)
        self.prefix = prefix
        self.epoch = epoch
        self.delivered = delivered


def _induces_cycle(graph: ASGraph, asns: List[int]) -> bool:
    """Whether the links among ``asns`` contain a cycle.

    Only an AS with loop prevention off accepts a path that already
    holds its ASN, and no AS announces a route back to the neighbor it
    learned it from, so a path can revisit ASes without bound only
    around a cycle of such ASes.
    """
    if len(asns) < 3:
        return False
    parent = {asn: asn for asn in asns}

    def root(asn: int) -> int:
        while parent[asn] != asn:
            asn = parent[asn]
        return asn

    for a, b, _rel in graph.links():
        if a in parent and b in parent:
            root_a, root_b = root(a), root(b)
            if root_a == root_b:
                return True
            parent[root_a] = root_b
    return False


class BGPSimulator:
    """Propagates BGP routes across an AS topology until convergence."""

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
        # Registrations are read once: the domestic-preference check
        # looks up every hop of every announcement.
        self._country_of = (
            None
            if country_of is None
            else {asn: country_of(asn) for asn in graph.asns()}.get
        )
        policies = policies or {}
        self._prefix_ids = PrefixIds()
        self.speakers: Dict[int, BGPSpeaker] = {}
        for asn in graph.asns():
            policy = policies.get(asn) or Policy(asn=asn)
            self.speakers[asn] = BGPSpeaker(
                asn,
                policy,
                graph.neighbors(asn),
                self._prefix_ids,
                relationship_resolver=graph.relationship,
                flap_limit=flap_limit,
            )
        #: A cycle of ASes with loop prevention off lets a path grow
        #: around it forever, so an originless prefix need not drain;
        #: :meth:`withdraw` then never takes the fast path.
        self._loops_can_grow = _induces_cycle(
            graph,
            [
                asn
                for asn, speaker in self.speakers.items()
                if speaker.policy.loop_prevention_disabled
            ],
        )
        self.clock = 0
        num_links = max(1, graph.num_links())
        self._max_events = max_events_per_link * num_links
        #: Event count at which the soft-limit warning fires (once per
        #: ``run``), before the hard ConvergenceError at ``_max_events``.
        self._soft_events = int(self._max_events * soft_limit_fraction)
        #: Supervisor hook: called as ``on_soft_limit(prefix, epoch,
        #: delivered)`` when a run crosses the soft event limit — the
        #: early-warning signal a circuit breaker can act on before the
        #: hard limit aborts the epoch.
        self.on_soft_limit = None
        #: Convergence epoch counter (one per origination change).
        self.epoch = 0
        self._origination_prefix: Optional[Prefix] = None
        #: FIFO of (destination ASN, message) awaiting delivery.
        self._queue: Deque[Tuple[int, object]] = deque()

    # ------------------------------------------------------------------
    # Origination API
    # ------------------------------------------------------------------
    def originate(
        self,
        asn: int,
        prefix: Prefix,
        poisoned: Iterable[int] = (),
    ) -> None:
        """Announce ``prefix`` from ``asn`` and converge the network.

        ``poisoned`` ASNs are carried in an AS-set wrapped by the
        origin's ASN (the paper's poisoning mechanism); those ASes will
        reject the announcement through loop prevention.
        """
        speaker = self._speaker(asn)
        speaker.originate(
            LocalRoute(prefix=prefix, origin_asn=asn, poisoned=frozenset(poisoned))
        )
        # Exports are re-evaluated even when the local route is
        # unchanged: the origin's export policy may have been edited
        # (e.g. PEERING steering announcements to a different mux set).
        self._origination_prefix = prefix
        self._new_epoch()
        speaker.export(self._prefix_ids.intern(prefix), self._queue.append)
        self.run()

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        """Withdraw ``asn``'s origination of ``prefix`` and converge.

        When the queue is empty, no other AS originates the prefix, no
        speaker has missed an update for it and no path can count to
        infinity, the converged state is known in advance (every RIB
        empty, see the module docstring): the prefix is cleared
        everywhere without delivering messages.  Otherwise the
        withdrawal propagates through :meth:`run`.
        """
        speaker = self._speaker(asn)
        self._origination_prefix = prefix
        if not speaker.withdraw_origin(prefix):
            self.run()
            return
        self._new_epoch()
        pid = self._prefix_ids.intern(prefix)
        if self._queue or self._loops_can_grow or any(
            other.originates(prefix) or pid in other.missed
            for other in self.speakers.values()
        ):
            speaker.export(pid, self._queue.append)
            self.run()
            return
        for other in self.speakers.values():
            other.forget(pid)
        self.clock += 1
        if events_enabled():
            publish(
                CATEGORY_BGP,
                "converged",
                epoch=self.epoch,
                delivered=0,
                cleared=str(prefix),
            )

    def _new_epoch(self) -> None:
        self.epoch += 1
        for speaker in self.speakers.values():
            speaker.reset_damping()

    # ------------------------------------------------------------------
    # Propagation engine
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Deliver queued messages to a fixed point; returns event count."""
        queue = self._queue
        speakers = self.speakers
        country_of = self._country_of
        send = queue.append
        delivered = 0
        # The soft limit warns once; past it only the hard limit is left.
        next_check = min(self._soft_events, self._max_events)
        warned = False
        clock = self.clock
        try:
            while queue:
                if delivered >= next_check:
                    if delivered >= self._max_events:
                        self._raise_convergence_error(delivered)
                    if not warned:
                        warned = True
                        next_check = self._max_events
                        self.clock = clock
                        self._soft_limit(delivered)
                target, message = queue.popleft()
                clock += 1
                delivered += 1
                speaker = speakers[target]
                if speaker.receive(message, clock, country_of):
                    speaker.export(message[0], send)
        finally:
            self.clock = clock
        if delivered and events_enabled():
            publish(
                CATEGORY_BGP,
                "converged",
                epoch=self.epoch,
                delivered=delivered,
            )
        return delivered

    def _raise_convergence_error(self, delivered: int) -> None:
        publish(
            CATEGORY_BGP,
            "convergence_error",
            prefix=str(self._origination_prefix),
            epoch=self.epoch,
            delivered=delivered,
        )
        raise ConvergenceError(
            f"no convergence after {delivered} events for "
            f"{self._origination_prefix} (epoch {self.epoch}); "
            "likely a policy dispute wheel",
            prefix=self._origination_prefix,
            epoch=self.epoch,
            delivered=delivered,
        )

    def _soft_limit(self, delivered: int) -> None:
        publish(
            CATEGORY_BGP,
            "soft_limit",
            prefix=str(self._origination_prefix),
            epoch=self.epoch,
            delivered=delivered,
        )
        if self.on_soft_limit is not None:
            self.on_soft_limit(self._origination_prefix, self.epoch, delivered)

    def discard_pending(self) -> int:
        """Drop all undelivered messages; returns how many were dropped.

        Recovery hook for supervisors: after a :class:`ConvergenceError`
        the queue still holds the un-converged tail of the epoch, which
        would otherwise leak into the next origination.  The speakers'
        RIBs keep whatever state the delivered prefix messages built —
        exactly like a real network frozen mid-convergence — so the
        caller should follow up with a withdraw/re-announce to restore
        a known-good state.  Each target records the prefix as missed,
        which keeps later withdrawals of it on the message-level path.
        """
        dropped = len(self._queue)
        for target, message in self._queue:
            self.speakers[target].missed.add(message[0])
        self._queue.clear()
        return dropped

    def _speaker(self, asn: int) -> BGPSpeaker:
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

    def forwarding_path(self, asn: int, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        """The AS-level data-plane path from ``asn`` toward ``prefix``.

        Follows each AS's best route's next hop; returns ``None`` when
        some AS on the way has no route or a forwarding loop appears
        (possible transiently or under broken policies).
        """
        pid = self._prefix_ids.get(prefix)
        path: List[int] = []
        visited = set()
        current = asn
        while True:
            if current in visited:
                return None
            visited.add(current)
            path.append(current)
            next_hop = self._speaker(current).next_hop(pid)
            if next_hop is None:
                return None
            if next_hop == current:
                return tuple(path)
            current = next_hop

    def damped_ases(self) -> Dict[int, frozenset]:
        """ASes whose state was frozen by flap damping this epoch."""
        return {
            asn: speaker.damped_prefixes
            for asn, speaker in self.speakers.items()
            if speaker.damped_prefixes
        }

    def rib_dump(self, prefix: Prefix) -> Dict[int, Route]:
        """Best route per AS for ``prefix`` (ASes with a route only)."""
        dump = {}
        for asn, speaker in self.speakers.items():
            route = speaker.best(prefix)
            if route is not None:
                dump[asn] = route
        return dump

    def reachable_ases(self, prefix: Prefix) -> frozenset:
        pid = self._prefix_ids.get(prefix)
        return frozenset(
            asn
            for asn, speaker in self.speakers.items()
            if speaker.next_hop(pid) is not None
        )
