"""Routes as the simulator's inspection API reports them.

Speakers keep routes as plain tuples (see :mod:`repro.bgp.speaker`);
:class:`Route` is what ``best_route``, ``candidate_routes`` and
``rib_dump`` hand out, and what the reference simulator stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.bgp.attributes import ASPathAttribute
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship


@dataclass(frozen=True)
class Route:
    """A candidate route at one AS toward one prefix.

    ``local_pref`` is assigned by the receiving AS's import policy;
    ``igp_cost`` is the intradomain distance to the egress toward
    ``learned_from`` (the hot-potato tie-breaker); ``age`` is the
    logical time the route was installed (lower = older, preferred);
    ``router_id`` stands in for the BGP identifier of the announcing
    router (we use the neighbor ASN, lowest wins).
    """

    prefix: Prefix
    as_path: ASPathAttribute
    learned_from: int
    relationship: Relationship
    local_pref: int
    igp_cost: int = 0
    age: int = 0
    router_id: int = 0
    #: Economic class used for export decisions.  For routes learned
    #: from a sibling this is the class of the link where the route
    #: entered the organization (communities carry it org-wide); for
    #: everything else it equals ``relationship``.
    export_class: Optional[Relationship] = None
    #: Communities attached to the announcement this route came from.
    communities: frozenset = frozenset()

    @property
    def effective_class(self) -> Relationship:
        return self.export_class if self.export_class is not None else self.relationship

    @property
    def next_hop_asn(self) -> int:
        return self.learned_from

    @property
    def origin_asn(self) -> int:
        return self.as_path.origin_asn

    def path_length(self) -> int:
        return self.as_path.length()

    def aged(self, age: int) -> "Route":
        return replace(self, age=age)

    def __str__(self) -> str:
        return (
            f"{self.prefix} via AS{self.learned_from} "
            f"({self.relationship.value}, lp={self.local_pref}, "
            f"len={self.path_length()}) path=[{self.as_path}]"
        )


@dataclass(frozen=True)
class LocalRoute:
    """A locally originated route (the AS owns the prefix)."""

    prefix: Prefix
    origin_asn: int
    #: Extra ASNs to poison (announced inside an AS-set).
    poisoned: frozenset = frozenset()

    def to_route(self) -> Route:
        """The self-route installed in the origin's Loc-RIB.

        Locally originated routes beat anything learned, which we
        encode with an effectively infinite local preference.
        """
        path = ASPathAttribute.origin(self.origin_asn)
        return Route(
            prefix=self.prefix,
            as_path=path,
            learned_from=self.origin_asn,
            relationship=Relationship.CUSTOMER,
            local_pref=1 << 30,
            igp_cost=0,
            age=0,
            router_id=self.origin_asn,
        )

    def exported_path(self) -> ASPathAttribute:
        """The AS path as announced to neighbors, with poison set."""
        path = ASPathAttribute.origin(self.origin_asn)
        return path.with_poison_set(self.poisoned, self.origin_asn)
