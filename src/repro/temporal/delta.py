"""Typed diffs between consecutive :class:`ASGraph` snapshots.

A :class:`GraphDelta` captures everything that changed between two
monthly inferred topologies — links that appeared, vanished or flipped
relationship label, plus ASes that entered or left the graph — in the
normalized link form :meth:`ASGraph.links` yields (customer-provider
edges provider-first, symmetric edges lower-ASN-first).  Deltas are
pure data: they round-trip through JSON (:meth:`to_dict` /
:meth:`from_dict`) so the temporal journal can persist them, and
:func:`apply_delta` patches a graph forward so that
``apply_delta(old, diff_graphs(old, new))`` matches ``new``
link-for-link — the codec property the fuzz battery asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship

#: One normalized undirected link: ``(a, b, rel)`` where ``rel`` is b's
#: role to a, in :meth:`ASGraph.links` normal form.
Link = Tuple[int, int, Relationship]

#: A relabeled link: the pair's old and new normalized triples.
Relabel = Tuple[Link, Link]


def _link_index(graph: ASGraph) -> Dict[Tuple[int, int], Link]:
    """Normalized triple per unordered AS pair, cached until mutation.

    A series diffs every inner snapshot twice (as the new side, then
    the old), so the index lives on the graph instance keyed by its
    mutation counter, like ``routing_adjacency``.
    """
    cached = graph.__dict__.get("_delta_link_index")
    if cached is not None and cached[0] == graph._version:
        return cached[1]
    index = {
        (min(a, b), max(a, b)): (a, b, rel) for a, b, rel in graph.links()
    }
    graph.__dict__["_delta_link_index"] = (graph._version, index)
    return index


@dataclass(frozen=True)
class GraphDelta:
    """Everything that changed from one snapshot to the next."""

    added_asns: Tuple[int, ...] = ()
    removed_asns: Tuple[int, ...] = ()
    added: Tuple[Link, ...] = ()
    removed: Tuple[Link, ...] = ()
    relabeled: Tuple[Relabel, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.added_asns
            or self.removed_asns
            or self.added
            or self.removed
            or self.relabeled
        )

    def summary(self) -> Dict[str, int]:
        return {
            "asns_added": len(self.added_asns),
            "asns_removed": len(self.removed_asns),
            "links_added": len(self.added),
            "links_removed": len(self.removed),
            "links_relabeled": len(self.relabeled),
        }

    # ------------------------------------------------------------------
    # JSON codec
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "added_asns": list(self.added_asns),
            "removed_asns": list(self.removed_asns),
            "added": [[a, b, rel.value] for a, b, rel in self.added],
            "removed": [[a, b, rel.value] for a, b, rel in self.removed],
            "relabeled": [
                [[a, b, old.value], [c, d, new.value]]
                for (a, b, old), (c, d, new) in self.relabeled
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphDelta":
        def link(raw) -> Link:
            a, b, value = raw
            return (int(a), int(b), Relationship(value))

        return cls(
            added_asns=tuple(int(asn) for asn in payload.get("added_asns", ())),
            removed_asns=tuple(
                int(asn) for asn in payload.get("removed_asns", ())
            ),
            added=tuple(link(raw) for raw in payload.get("added", ())),
            removed=tuple(link(raw) for raw in payload.get("removed", ())),
            relabeled=tuple(
                (link(old), link(new))
                for old, new in payload.get("relabeled", ())
            ),
        )


def diff_graphs(old: ASGraph, new: ASGraph) -> GraphDelta:
    """The typed delta turning ``old`` into ``new``.

    Links are compared per unordered AS pair: a pair present in only
    one graph is an addition/removal, a pair present in both with a
    different normalized triple is a relabel (this covers both a
    relationship-class flip and a customer-provider orientation swap).
    """
    old_asns = set(old.asns())
    new_asns = set(new.asns())
    old_links = _link_index(old)
    new_links = _link_index(new)

    added = []
    removed = []
    relabeled = []
    for pair, triple in old_links.items():
        replacement = new_links.get(pair)
        if replacement is None:
            removed.append(triple)
        elif replacement != triple:
            relabeled.append((triple, replacement))
    for pair, triple in new_links.items():
        if pair not in old_links:
            added.append(triple)

    return GraphDelta(
        added_asns=tuple(sorted(new_asns - old_asns)),
        removed_asns=tuple(sorted(old_asns - new_asns)),
        added=tuple(sorted(added)),
        removed=tuple(sorted(removed)),
        relabeled=tuple(sorted(relabeled)),
    )


def apply_delta(
    graph: ASGraph, delta: GraphDelta, in_place: bool = False
) -> ASGraph:
    """Patch ``graph`` forward by ``delta``; returns the patched graph.

    With ``in_place=False`` (default) the input graph is left intact
    and a patched copy is returned; ``in_place=True`` mutates it.
    """
    target = graph if in_place else graph.copy()
    for asn in delta.removed_asns:
        target.remove_as(asn)
    for asn in delta.added_asns:
        target.ensure_asn(asn)
    for a, b, _rel in delta.removed:
        target.remove_link(a, b)
    for (a, b, _old), (c, d, new) in delta.relabeled:
        # add_link overwrites both directions, which also handles an
        # orientation swap of a customer-provider pair.
        target.remove_link(a, b)
        target.add_link(c, d, new)
    for a, b, rel in delta.added:
        target.add_link(a, b, rel)
    return target
