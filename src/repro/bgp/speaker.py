"""A single AS's BGP speaker: RIBs, decision, and export generation.

The speaker's hot path (one :meth:`BGPSpeaker.receive` per delivered
message, one :meth:`BGPSpeaker.export` per best-route change) runs on
plain tuples and small integers:

* prefixes are interned to integer ids by a :class:`PrefixIds` table
  the simulator shares with all of its speakers;
* an AS path is a tuple of segments, ASNs and frozensets for AS-sets,
  the shape of :attr:`ASPathAttribute.segments`;
* a message is ``(prefix id, sender, path, communities)``, with
  ``path`` ``None`` for a withdrawal;
* a route is a tuple laid out as below; its first five fields are the
  decision key (smaller is better on each), so the best route is
  ``min()`` of the candidates;
* the import and export policy is compiled into per-neighbor tables
  when the speaker is built.  Only the origin-side export settings
  (``selective_export``, ``export_prepend``) are read at export time,
  because PEERING experiments edit them between announcements.

:class:`~repro.bgp.routes.Route` and :class:`~repro.net.ip.Prefix`
objects are built only by the inspection methods.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import (
    entry_class_community,
    read_entry_class,
    strip_entry_class,
)
from repro.bgp.decision import DecisionStep, best_route
from repro.bgp.policy import DEFAULT_LOCAL_PREF, DOMESTIC_BONUS, CountryLookup, Policy
from repro.bgp.routes import LocalRoute, Route
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship, can_export

# Route tuple layout:
#   0 -local_pref   1 path length   2 igp cost   3 age   4 router id
#   5 path          6 learned from  7 relationship  8 export class
#   9 communities
# Router ids (the neighbor ASN, or our own for the local route) are
# unique among one prefix's candidates, so comparing two routes never
# reaches the path field.
_PATH, _FROM, _CLASS, _COMMUNITIES = 5, 6, 8, 9

_NO_COMMUNITIES: frozenset = frozenset()
#: Local routes beat anything learned.
_LOCAL_PREF = 1 << 30


class PrefixIds:
    """Interns prefixes as small integers, shared by a simulator's speakers."""

    def __init__(self) -> None:
        self._ids: Dict[Prefix, int] = {}
        self.prefixes: List[Prefix] = []

    def intern(self, prefix: Prefix) -> int:
        pid = self._ids.get(prefix)
        if pid is None:
            pid = self._ids[prefix] = len(self.prefixes)
            self.prefixes.append(prefix)
        return pid

    def get(self, prefix: Prefix) -> Optional[int]:
        return self._ids.get(prefix)


class BGPSpeaker:
    """BGP state for one AS.

    The speaker keeps an Adj-RIB-In per neighbor per prefix, runs the
    decision process into a Loc-RIB, and produces export messages for
    its neighbors.  Message transport and scheduling live in
    :class:`repro.bgp.simulator.BGPSimulator`.
    """

    def __init__(
        self,
        asn: int,
        policy: Policy,
        neighbors: Dict[int, Relationship],
        prefix_ids: PrefixIds,
        relationship_resolver=None,
        flap_limit: int = 0,
    ) -> None:
        self.asn = asn
        self.policy = policy
        self.neighbors = dict(neighbors)
        #: Global relationship oracle used to classify routes arriving
        #: over sibling links (stand-in for org-wide communities).
        self._resolve_relationship = relationship_resolver
        self._ids = prefix_ids
        #: Route-flap damping: after this many best-route changes for a
        #: prefix the speaker freezes its state (0 disables).
        self._flap_limit = flap_limit
        self._flap_count: Dict[int, int] = {}
        self._frozen: set = set()
        #: Prefix ids for which an update was dropped (damping) or lost
        #: in transit (a discarded queue) before reaching this speaker:
        #: its Adj-RIB-In may hold routes its neighbors no longer send.
        self.missed: set = set()
        #: prefix id -> neighbor ASN -> route tuple
        self._adj_rib_in: Dict[int, Dict[int, tuple]] = {}
        self._loc_rib: Dict[int, tuple] = {}
        self._local_routes: Dict[int, LocalRoute] = {}
        #: prefix id -> neighbor -> the announcement last sent to it.
        self._advertised: Dict[int, Dict[int, tuple]] = {}
        self._self_route = (
            -_LOCAL_PREF, 1, 0, 0, asn, (asn,), asn,
            Relationship.CUSTOMER, None, _NO_COMMUNITIES,
        )
        self._compile_policy()

    def _compile_policy(self) -> None:
        """Per-neighbor import and export tables from the policy."""
        policy = self.policy
        self._order = tuple(sorted(self.neighbors))
        self._igp_cost = dict(policy.igp_cost)
        self._neighbor_lp = dict(policy.neighbor_local_pref)
        #: Local preference of non-sibling neighbors before prefix
        #: overrides and the domestic bonus.
        self._base_lp = {
            neighbor: self._neighbor_lp.get(neighbor, DEFAULT_LOCAL_PREF[rel])
            for neighbor, rel in self.neighbors.items()
        }
        self._prefix_lp: Dict[Prefix, Dict[int, int]] = {}
        for (neighbor, prefix), pref in policy.prefix_local_pref.items():
            self._prefix_lp.setdefault(prefix, {})[neighbor] = pref
        self._prefix_lp_by_id: Dict[int, Optional[Dict[int, int]]] = {}
        self._home = policy.home_country if policy.prefers_domestic else ""
        self._filters_poisoned = policy.filters_poisoned
        self._loop_prevention = not policy.loop_prevention_disabled
        self._siblings = frozenset(
            n for n, rel in self.neighbors.items() if rel is Relationship.SIBLING
        )
        #: Export class of the best route -> neighbors that may get it,
        #: and the same table by the neighbor a non-sibling route came
        #: from (whose export class is that neighbor's relationship).
        self._export_to = {
            cls: frozenset(
                neighbor
                for neighbor, rel in self.neighbors.items()
                if can_export(cls, rel)
                and not (
                    cls is Relationship.PROVIDER
                    and neighbor in policy.partial_transit_to
                )
            )
            for cls in Relationship
        }
        self._export_via = {
            neighbor: self._export_to[rel]
            for neighbor, rel in self.neighbors.items()
            if rel is not Relationship.SIBLING
        }

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(self, local_route: LocalRoute) -> bool:
        """Install a locally originated prefix; returns whether state changed."""
        if local_route.origin_asn != self.asn:
            raise ValueError(
                f"AS{self.asn} cannot originate a route owned by "
                f"AS{local_route.origin_asn}"
            )
        pid = self._ids.intern(local_route.prefix)
        if self._local_routes.get(pid) == local_route:
            return False
        self._local_routes[pid] = local_route
        self._run_decision(pid)
        return True

    def withdraw_origin(self, prefix: Prefix) -> bool:
        """Stop originating ``prefix``; returns whether state changed."""
        pid = self._ids.get(prefix)
        if pid is None or pid not in self._local_routes:
            return False
        del self._local_routes[pid]
        self._run_decision(pid)
        return True

    def originates(self, prefix: Prefix) -> bool:
        return self._ids.get(prefix) in self._local_routes

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def receive(
        self,
        message: tuple,
        clock: int,
        country_of: Optional[CountryLookup] = None,
    ) -> bool:
        """Process an update; returns whether the best route changed."""
        pid, neighbor, path, communities = message
        if pid in self._frozen:
            self.missed.add(pid)
            return False
        rib = self._adj_rib_in.get(pid)
        if rib is None:
            rib = self._adj_rib_in[pid] = {}
        if path is None:
            old = rib.pop(neighbor, None)
            return old is not None and self._lost(pid, rib, old)
        relationship = self.neighbors.get(neighbor)
        if relationship is None:
            raise ValueError(f"AS{self.asn} has no session with AS{neighbor}")

        # Import filter: poison filtering, then loop prevention (which
        # looks inside the AS-set).  Paths start as
        # ``LocalRoute.exported_path()``, which puts the AS-set second
        # from the right, and only grow on the left.
        poison = path[-2] if len(path) > 2 else None
        if poison.__class__ is not frozenset:
            poison = None
        if poison is not None and self._filters_poisoned:
            accepted = False
        elif self._loop_prevention:
            asn = self.asn
            accepted = asn not in path and (poison is None or asn not in poison)
        else:
            accepted = True
        if not accepted:
            # A rejected announcement implicitly withdraws any prior
            # route from this neighbor (the neighbor replaced it).
            old = rib.pop(neighbor, None)
            return old is not None and self._lost(pid, rib, old)

        old = rib.get(neighbor)
        if old is not None and old[_PATH] == path and old[_COMMUNITIES] == communities:
            # Duplicate announcement: no state change, age preserved.
            return False
        if relationship is Relationship.SIBLING:
            effective = self._effective_class(neighbor, path, communities)
            pref = self._neighbor_lp.get(neighbor, DEFAULT_LOCAL_PREF[effective])
        else:
            effective = relationship
            pref = self._base_lp[neighbor]
        if self._prefix_lp:
            overrides = self._prefix_overrides(pid)
            if overrides is not None and neighbor in overrides:
                pref = overrides[neighbor]
        if self._home and country_of is not None and self._domestic(path, country_of):
            pref += DOMESTIC_BONUS
        route = (
            -pref, len(path), self._igp_cost.get(neighbor, 0), clock, neighbor,
            path, neighbor, relationship, effective, communities,
        )
        rib[neighbor] = route

        # Incremental decision: the best route is the minimum of the
        # candidates, so only a replaced best needs a full rescan.
        best = self._loc_rib.get(pid)
        if best is None or route < best:
            return self._install(pid, route)
        if old is not None and old is best:
            return self._install(pid, min(rib.values()))
        return False

    def _lost(self, pid: int, rib: Dict[int, tuple], old: tuple) -> bool:
        """``old`` left the Adj-RIB-In; re-decide if it was the best."""
        if self._loc_rib.get(pid) is not old:
            return False
        # A learned best means there is no local route for this prefix.
        return self._install(pid, min(rib.values()) if rib else None)

    def _install(self, pid: int, route: Optional[tuple]) -> bool:
        """Make ``route`` the best (a change); damping counts it."""
        if route is None:
            del self._loc_rib[pid]
        else:
            self._loc_rib[pid] = route
        if self._flap_limit:
            flaps = self._flap_count.get(pid, 0) + 1
            self._flap_count[pid] = flaps
            if flaps > self._flap_limit:
                # Route-flap damping: freeze this prefix's state so a
                # policy dispute wheel cannot livelock the network.
                self._frozen.add(pid)
        return True

    def _run_decision(self, pid: int) -> bool:
        """Full decision run after the local route changed."""
        candidates = list(self._adj_rib_in.get(pid, {}).values())
        if pid in self._local_routes:
            candidates.append(self._self_route)
        winner = min(candidates) if candidates else None
        if self._loc_rib.get(pid) == winner:
            return False
        return self._install(pid, winner)

    def _effective_class(self, neighbor: int, path: tuple, communities) -> Relationship:
        """Class of a route entering over a sibling link.

        Sibling announcements carry the entry class in an org-internal
        community (how real multi-ASN organizations do it); when the
        tag is present it is authoritative.  Without a tag, fall back
        to walking the sibling chain with the relationship oracle.  A
        route originated inside the organization counts as a customer
        route.
        """
        tagged = read_entry_class(communities)
        if tagged is not None:
            return tagged
        if self._resolve_relationship is None:
            return Relationship.SIBLING
        current = neighbor
        for next_hop in path[1:]:
            if next_hop.__class__ is frozenset or next_hop == current:
                continue  # AS-set, or prepending repeats
            hop_relationship = self._resolve_relationship(current, next_hop)
            if hop_relationship is None:
                return Relationship.SIBLING
            if hop_relationship is not Relationship.SIBLING:
                return hop_relationship
            current = next_hop
        return Relationship.CUSTOMER

    def _prefix_overrides(self, pid: int) -> Optional[Dict[int, int]]:
        """Per-neighbor local-pref overrides for one prefix id."""
        try:
            return self._prefix_lp_by_id[pid]
        except KeyError:
            overrides = self._prefix_lp.get(self._ids.prefixes[pid])
            self._prefix_lp_by_id[pid] = overrides
            return overrides

    def _domestic(self, path: tuple, country_of: CountryLookup) -> bool:
        """Whether every sequence hop is registered in the home country."""
        home = self._home
        for hop in path:
            if hop.__class__ is not frozenset and country_of(hop) != home:
                return False
        return True

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------
    def export(self, pid: int, send) -> None:
        """Send each neighbor what changed in its view of prefix ``pid``.

        Compares the currently exportable route against what each
        neighbor was last told and calls ``send((neighbor, message))``
        for every announcement or withdrawal, in neighbor order.
        """
        advertised = self._advertised.get(pid)
        if advertised is None:
            advertised = self._advertised[pid] = {}
        best = self._loc_rib.get(pid)
        asn = self.asn
        if best is None:
            if advertised:
                withdrawal = (pid, asn, None, None)
                for neighbor in sorted(advertised):
                    send((neighbor, withdrawal))
                advertised.clear()
            return
        if best[_FROM] == asn:
            self._export_origin(pid, advertised, send)
            return
        learned_from = best[_FROM]
        allowed = self._export_via.get(learned_from)
        if allowed is None:
            allowed = self._export_to[best[_CLASS]]
        path = (asn,) + best[_PATH]
        communities = best[_COMMUNITIES]
        # Org-internal tags never leave the organization.
        outside = strip_entry_class(communities) if communities else _NO_COMMUNITIES
        siblings = self._siblings
        to_outside = to_inside = None
        for neighbor in self._order:
            if neighbor in allowed and neighbor != learned_from:
                if neighbor in siblings:
                    if to_inside is None:
                        # Inside the organization the first member to
                        # see the route tags its entry class.
                        inside = communities
                        if read_entry_class(communities) is None:
                            tag = entry_class_community(asn, best[_CLASS])
                            inside = communities | {tag}
                        to_inside = (pid, asn, path, inside)
                    message = to_inside
                else:
                    if to_outside is None:
                        to_outside = (pid, asn, path, outside)
                    message = to_outside
                previous = advertised.get(neighbor)
                if (
                    previous is not None
                    and previous[2] == path
                    and previous[3] == message[3]
                ):
                    continue
                advertised[neighbor] = message
                send((neighbor, message))
            elif neighbor in advertised:
                del advertised[neighbor]
                send((neighbor, (pid, asn, None, None)))

    def _export_origin(self, pid: int, advertised: Dict[int, tuple], send) -> None:
        """Exports of a locally originated prefix (selective, prepended)."""
        asn = self.asn
        prefix = self._ids.prefixes[pid]
        policy = self.policy
        allowed = policy.selective_export.get(prefix)
        base = self._local_routes[pid].exported_path().segments
        for neighbor in self._order:
            if allowed is None or neighbor in allowed:
                prepends = policy.export_prepend.get((prefix, neighbor), 0)
                path = (asn,) * prepends + base
                communities = _NO_COMMUNITIES
                if neighbor in self._siblings:
                    # An org-internal origination counts as a customer route.
                    tag = entry_class_community(asn, Relationship.CUSTOMER)
                    communities = frozenset({tag})
                previous = advertised.get(neighbor)
                if (
                    previous is not None
                    and previous[2] == path
                    and previous[3] == communities
                ):
                    continue
                message = (pid, asn, path, communities)
                advertised[neighbor] = message
                send((neighbor, message))
            elif neighbor in advertised:
                del advertised[neighbor]
                send((neighbor, (pid, asn, None, None)))

    def forget(self, pid: int) -> None:
        """Drop every trace of prefix ``pid`` (RIBs and advertised state)."""
        self._adj_rib_in.pop(pid, None)
        self._loc_rib.pop(pid, None)
        self._advertised.pop(pid, None)

    def reset_damping(self) -> None:
        """Start a new convergence epoch: clear flap counters and thaw.

        Called by the simulator whenever an origination changes, so
        damping only fires on oscillation *within* one convergence run,
        not across sequential experiments.
        """
        self._flap_count.clear()
        self._frozen.clear()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _route(self, pid: int, route: tuple) -> Route:
        neg_pref, _, igp, age, router_id, path, learned_from, rel, cls, tags = route
        return Route(
            prefix=self._ids.prefixes[pid],
            as_path=ASPathAttribute(path),
            learned_from=learned_from,
            relationship=rel,
            local_pref=-neg_pref,
            igp_cost=igp,
            age=age,
            router_id=router_id,
            export_class=cls,
            communities=tags,
        )

    @property
    def damped_prefixes(self) -> frozenset:
        return frozenset(self._ids.prefixes[pid] for pid in self._frozen)

    def next_hop(self, pid: int) -> Optional[int]:
        """The best route's next hop for prefix ``pid`` (ourselves if local)."""
        route = self._loc_rib.get(pid)
        return None if route is None else route[_FROM]

    def best(self, prefix: Prefix) -> Optional[Route]:
        pid = self._ids.get(prefix)
        route = self._loc_rib.get(pid)
        return None if route is None else self._route(pid, route)

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All usable routes toward ``prefix`` (learned plus local)."""
        pid = self._ids.get(prefix)
        routes = [
            self._route(pid, route)
            for route in self._adj_rib_in.get(pid, {}).values()
        ]
        local = self._local_routes.get(pid)
        if local is not None:
            routes.append(local.to_route())
        return routes

    def decision_step(self, prefix: Prefix) -> Optional[DecisionStep]:
        """The step that picked the current best route, if any."""
        return best_route(self.candidates(prefix))[1]

    def prefixes(self) -> List[Prefix]:
        pids = set(self._loc_rib) | set(self._local_routes)
        return sorted(
            (self._ids.prefixes[pid] for pid in pids),
            key=lambda p: (p.network, p.length),
        )
