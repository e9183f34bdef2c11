"""Gao-Rexford route computation over an inferred topology.

For one destination, the engine computes for every AS which
relationship classes can carry a route to it and the length of the
route the GR model predicts, using the standard three-stage
construction:

1. **Customer routes** — BFS from the destination along
   customer-to-provider edges: these are the routes that propagate
   upward, available to an AS through one of its customers.
2. **Peer routes** — one peer hop on top of a neighbor's customer
   route (peers only export customer routes to each other).
3. **Provider routes** — BFS downward: providers export their chosen
   route (of any class) to customers.

An AS's GR route is through the best available class (customer over
peer over provider), shortest within the class — exactly the model the
paper grades measured decisions against (Section 3.3).

Sibling links are treated as carrying the organization's routes in both
directions at customer preference, matching how the analysis treats
sibling decisions as "Best".
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship

_INF = float("inf")

#: The two route-tree computation backends: ``dict`` is the readable
#: implementation below; ``array`` is the CSR/numpy kernel in
#: :mod:`repro.core.hotpath`, byte-identical on every study output.
BACKENDS = ("dict", "array")

#: Graphs with at least this many ASes run on ``array``, smaller ones
#: on ``dict``.  Below it numpy's import (~0.15 s, ~14 MB RSS) costs
#: more than the kernel saves: fresh passive studies measured even at
#: ~430 ASes and leaning to ``array`` from ~570 (DESIGN.md §10).
ARRAY_MIN_ASES = 500

#: Default bound on the per-engine routing-tree cache.  Far above what
#: one study needs (a few hundred trees) but keeps long-lived engines
#: serving many destinations from growing without limit.
DEFAULT_CACHE_SIZE = 4096

#: Cache key: (destination, allowed first hops or None).
CacheKey = Tuple[int, Optional[FrozenSet[int]]]


@dataclass
class CacheStats:
    """Snapshot of a :class:`RoutingCache`'s counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return 0.0 if total == 0 else self.hits / total

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }

    def delta(self, baseline: "CacheStats") -> "CacheStats":
        """Counters accrued since ``baseline`` (size stays current).

        The engine's counters are cumulative over its lifetime; a
        per-layer report must subtract the previous layer's snapshot or
        every layer after the first inherits its predecessors' hits.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
            size=self.size,
            maxsize=self.maxsize,
        )


class RoutingCache:
    """Bounded LRU cache of :class:`RoutingInfo` with hit/miss counters.

    Least-recently-used entries are evicted once ``maxsize`` is
    exceeded; every lookup refreshes recency.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[CacheKey, RoutingInfo]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional lock for caches shared across threads (serve
        #: daemon).  ``None`` on the single-threaded path so the hot
        #: loop pays nothing beyond one branch.
        self._lock: Optional[threading.RLock] = None

    def make_thread_safe(self) -> None:
        """Guard every mutation with an RLock (idempotent).

        The serve daemon shares one warm cache across concurrent
        request threads; the LRU reorder + evict sequence must then be
        atomic or two threads can interleave mid-eviction.
        """
        if self._lock is None:
            self._lock = threading.RLock()

    def __getstate__(self) -> Dict:
        # Locks don't pickle; the process-pool path ships engines to
        # workers, so drop the lock and remember whether to recreate it.
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_was_thread_safe"] = self._lock is not None
        return state

    def __setstate__(self, state: Dict) -> None:
        was_thread_safe = state.pop("_was_thread_safe", False)
        self.__dict__.update(state)
        if was_thread_safe:
            self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._data

    def get(self, key: CacheKey) -> Optional[RoutingInfo]:
        lock = self._lock
        if lock is None:
            return self._get(key)
        with lock:
            return self._get(key)

    def _get(self, key: CacheKey) -> Optional[RoutingInfo]:
        info = self._data.get(key)
        if info is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return info

    def put(self, key: CacheKey, info: RoutingInfo) -> None:
        lock = self._lock
        if lock is None:
            self._put(key, info)
        else:
            with lock:
                self._put(key, info)

    def _put(self, key: CacheKey, info: RoutingInfo) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = info
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters; cached entries stay."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )


@dataclass
class RoutingInfo:
    """GR routing state toward one destination.

    Distances are AS-path lengths in edges (the destination itself is
    at distance 0).
    """

    destination: int
    customer_dist: Dict[int, int] = field(default_factory=dict)
    peer_dist: Dict[int, int] = field(default_factory=dict)
    provider_dist: Dict[int, int] = field(default_factory=dict)
    #: Next hop of the shortest route per class (path reconstruction).
    customer_parent: Dict[int, int] = field(default_factory=dict)
    peer_parent: Dict[int, int] = field(default_factory=dict)
    provider_parent: Dict[int, int] = field(default_factory=dict)

    def best_class(self, asn: int) -> Optional[Relationship]:
        """The cheapest relationship class with a route at ``asn``."""
        if asn in self.customer_dist:
            return Relationship.CUSTOMER
        if asn in self.peer_dist:
            return Relationship.PEER
        if asn in self.provider_dist:
            return Relationship.PROVIDER
        return None

    def has_route(self, asn: int) -> bool:
        return self.best_class(asn) is not None

    def gr_route_length(self, asn: int) -> Optional[int]:
        """Length of the route the GR model predicts at ``asn``."""
        if asn == self.destination:
            return 0
        best = self.best_class(asn)
        if best is Relationship.CUSTOMER:
            return self.customer_dist[asn]
        if best is Relationship.PEER:
            return self.peer_dist[asn]
        if best is Relationship.PROVIDER:
            return self.provider_dist[asn]
        return None

    def class_distance(self, asn: int, relationship: Relationship) -> Optional[int]:
        """Route length available at ``asn`` through a neighbor class."""
        if relationship in (Relationship.CUSTOMER, Relationship.SIBLING):
            return self.customer_dist.get(asn)
        if relationship is Relationship.PEER:
            return self.peer_dist.get(asn)
        return self.provider_dist.get(asn)

    def gr_route_path(self, asn: int, max_hops: int = 64) -> Optional[Tuple[int, ...]]:
        """One concrete route the GR model predicts at ``asn``.

        Follows the parent pointers of the chosen class at each hop:
        a provider route descends to the provider's own chosen route, a
        peer route crosses the peer link onto a customer route, and a
        customer route walks customer parents down to the destination.
        """
        if asn == self.destination:
            return (asn,)
        if not self.has_route(asn):
            return None
        path = [asn]
        current = asn
        while current != self.destination and len(path) <= max_hops:
            best = self.best_class(current)
            if best is Relationship.CUSTOMER:
                nxt = self.customer_parent.get(current)
            elif best is Relationship.PEER:
                nxt = self.peer_parent.get(current)
            else:
                nxt = self.provider_parent.get(current)
            if nxt is None:
                return None
            path.append(nxt)
            current = nxt
        if current != self.destination:
            return None
        return tuple(path)


class GaoRexfordEngine:
    """Computes GR routing trees over one (inferred) AS graph.

    ``partial_transit`` is a set of (provider, customer) pairs from a
    complex-relationship dataset: those providers forward only their
    customer- and peer-learned routes to that customer, never
    provider-learned ones.

    The backend follows the graph's size (:data:`ARRAY_MIN_ASES`);
    ``backend`` forces one, for reference comparisons only.
    """

    def __init__(
        self,
        graph: ASGraph,
        partial_transit: FrozenSet[Tuple[int, int]] = frozenset(),
        cache_size: int = DEFAULT_CACHE_SIZE,
        canonical_keys: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        if backend is None:
            backend = "array" if len(graph) >= ARRAY_MIN_ASES else "dict"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.graph = graph
        self.partial_transit = frozenset(partial_transit)
        self.canonical_keys = canonical_keys
        self.backend = backend
        self._cache = RoutingCache(maxsize=cache_size)
        #: Graph version the cached trees were computed against.  Every
        #: cache access re-checks it: a mutated graph flushes the whole
        #: cache (counted in ``stale_flushes``) instead of silently
        #: serving trees of a topology that no longer exists.
        self._graph_version = graph._version
        #: How many times a graph mutation forced a full cache flush.
        self.stale_flushes = 0

    def make_thread_safe(self) -> "GaoRexfordEngine":
        """Make the routing cache safe to share across threads.

        Required before handing one engine to concurrent graders (the
        serve daemon's shared warm state); a no-op lock-free cache
        serves everything else.  Returns ``self`` for chaining.
        """
        self._cache.make_thread_safe()
        return self

    def compiled_topology(self):
        """The graph's shared CSR compilation (array kernel input).

        Available on either backend — the vectorized grader uses it for
        its lookup tables even when trees come from the dict engine.
        """
        from repro.core.hotpath.csr import compile_topology

        return compile_topology(self.graph)

    def _check_graph_version(self) -> None:
        """Flush the cache if the graph mutated since it was filled.

        Cached trees are valid only for the exact topology they were
        computed on.  Rather than serving stale state silently (or
        raising and killing long-lived engines, such as the serve
        daemon's shared ones), a graph mutation invalidates everything.
        """
        version = self.graph._version
        if version != self._graph_version:
            self._cache.clear()
            self.stale_flushes += 1
            self._graph_version = version

    def cache_key(self, destination: int, allowed: Optional[FrozenSet[int]]) -> CacheKey:
        """Canonical cache key for a routing tree.

        An allowed-first-hop set covering every neighbor of the
        destination restricts nothing, so it shares the unrestricted
        tree — PSP layers whose feeds saw every edge then reuse the
        plain tree instead of computing an identical one.
        """
        if (
            self.canonical_keys
            and allowed is not None
            and destination in self.graph
            and allowed.issuperset(self.graph.neighbor_set(destination))
        ):
            return (destination, None)
        return (destination, allowed)

    def routing_info(
        self,
        destination: int,
        allowed_first_hops: Optional[FrozenSet[int]] = None,
    ) -> RoutingInfo:
        """GR routes toward ``destination``.

        ``allowed_first_hops`` restricts which of the destination's
        neighbors receive its announcement — the lever the
        prefix-specific-policy criteria pull (Section 4.3).  ``None``
        means every neighbor does.
        """
        self._check_graph_version()
        key = self.cache_key(destination, allowed_first_hops)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        info = self._compute(key[0], key[1])
        self._cache.put(key, info)
        return info

    def warm(
        self,
        destination: int,
        allowed_first_hops: Optional[FrozenSet[int]],
        info: RoutingInfo,
    ) -> None:
        """Install a precomputed routing tree (parallel precompute)."""
        self._check_graph_version()
        self._cache.put(self.cache_key(destination, allowed_first_hops), info)

    def warm_batch(self, keys: Iterable[CacheKey]) -> int:
        """Ensure every (destination, allowed) tree is cached; return
        how many had to be computed.

        On the array backend the missing trees are computed in **one**
        kernel sweep — this is the batched prewarm the parallel
        classifier's serial path and the arena grader call.  Membership
        probes don't touch the hit/miss counters; the computed trees are
        charged as misses (one each), so cache-stats reports match the
        dict backend's one-miss-per-computed-tree accounting.
        """
        self._check_graph_version()
        canonical: List[CacheKey] = []
        seen: Set[CacheKey] = set()
        for destination, allowed in keys:
            key = self.cache_key(destination, allowed)
            if key not in seen:
                seen.add(key)
                canonical.append(key)
        missing = [key for key in canonical if key not in self._cache]
        if not missing:
            return 0
        if self.backend == "array":
            infos = self._compute_batch(missing)
        else:
            infos = [self._compute(key[0], key[1]) for key in missing]
        for key, info in zip(missing, infos):
            self._cache.put(key, info)
        lock = self._cache._lock
        if lock is None:
            self._cache.misses += len(missing)
        else:
            with lock:
                self._cache.misses += len(missing)
        return len(missing)

    def cache_stats(self) -> CacheStats:
        """Counters of the routing-tree cache (cumulative since creation
        or the last :meth:`reset_stats`)."""
        return self._cache.stats()

    def reset_stats(self) -> None:
        """Zero the cache counters without dropping cached trees.

        Call between classification layers to make :meth:`cache_stats`
        report that layer alone; without this, layer-level reports
        silently accumulate across the whole run.
        """
        self._cache.reset_stats()

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def _compute(self, destination: int, allowed: Optional[FrozenSet[int]]):
        if self.backend == "array":
            return self._compute_batch([(destination, allowed)])[0]
        return compute_routing_info(
            self.graph,
            destination,
            partial_transit=self.partial_transit,
            allowed_first_hops=allowed,
        )

    def _compute_batch(self, keys: List[CacheKey]) -> List["RoutingInfo"]:
        """All requested trees in one array-kernel sweep.

        Returns :class:`~repro.core.hotpath.info.ArrayRoutingInfo`
        objects (duck-typed to :class:`RoutingInfo`), in ``keys`` order.
        """
        from repro.core.hotpath.info import ArrayRoutingInfo
        from repro.core.hotpath.kernel import compute_tree_batch

        csr = self.compiled_topology()
        dest_ids: List[int] = []
        for destination, _allowed in keys:
            dest_id = csr.id_of(destination)
            if dest_id < 0:
                raise KeyError(f"AS{destination} not in topology")
            dest_ids.append(dest_id)
        allowed_masks = [csr.allowed_mask(allowed) for _dest, allowed in keys]
        partial_mask = (
            csr.partial_mask(self.partial_transit) if self.partial_transit else None
        )
        batch = compute_tree_batch(csr, dest_ids, allowed_masks, partial_mask)
        return [
            ArrayRoutingInfo(destination, csr.ids, *batch.row(j))
            for j, (destination, _allowed) in enumerate(keys)
        ]


def compute_routing_info(
    graph: ASGraph,
    destination: int,
    partial_transit: FrozenSet[Tuple[int, int]] = frozenset(),
    allowed_first_hops: Optional[FrozenSet[int]] = None,
) -> RoutingInfo:
    """One GR routing tree, as a pure function of its inputs.

    This is the ``dict`` backend's whole computation with no cache in
    front of it: the production path for graphs under
    :data:`ARRAY_MIN_ASES`, and the seam the differential checker
    (:mod:`repro.check`) drives to compare cache-on, cache-off, and
    oracle answers.
    """
    allowed = allowed_first_hops
    if destination not in graph:
        raise KeyError(f"AS{destination} not in topology")

    def first_hop_ok(neighbor: int) -> bool:
        return allowed is None or neighbor in allowed

    info = RoutingInfo(destination=destination)
    # Each stage walks one relationship class of edges; the index
    # pre-partitions them (in neighbor-map order, so traversal and
    # parent tie-breaking match filtering the full map in place).
    adjacency = graph.routing_adjacency()
    empty: Tuple[int, ...] = ()

    # Stage 1: customer routes propagate up provider and sibling
    # links.  An AS x has a customer route when some customer (or
    # sibling) of x has one.
    customer = info.customer_dist
    customer[destination] = 0
    up = adjacency.up
    queue = deque([destination])
    while queue:
        current = queue.popleft()
        dist = customer[current]
        for neighbor in up.get(current, empty):
            # The route travels current -> neighbor where neighbor
            # is current's provider (or sibling).
            if current == destination and not first_hop_ok(neighbor):
                continue
            if neighbor not in customer:
                customer[neighbor] = dist + 1
                info.customer_parent[neighbor] = current
                queue.append(neighbor)

    # Stage 2: peer routes: one peer edge on top of a neighbor's
    # *chosen customer* route (peers only export customer routes).
    peer = info.peer_dist
    peer_adj = adjacency.peers
    for asn, dist in list(customer.items()):
        for neighbor in peer_adj.get(asn, empty):
            if asn == destination and not first_hop_ok(neighbor):
                continue
            candidate = dist + 1
            if candidate < peer.get(neighbor, _INF):
                peer[neighbor] = candidate
                info.peer_parent[neighbor] = asn

    # Stage 3: provider routes propagate down customer links.  A
    # provider exports its *chosen* route, whose length is its
    # customer distance if it has one, else its peer distance, else
    # its (recursively computed) provider distance.  Unit weights make
    # Dijkstra exact here, and with unit weights the priority queue
    # degenerates into distance buckets: every relaxation lands in the
    # next level, so processing levels in order (each sorted by ASN to
    # keep the heap's exact (dist, asn) pop order, which fixes parent
    # tie-breaking) visits nodes in the identical sequence without any
    # per-edge heap traffic.
    provider = info.provider_dist
    provider_parent = info.provider_parent
    down = adjacency.down

    # An AS re-exports its provider route downward only when that is
    # its chosen route, i.e. it has no customer or peer route.
    has_fixed = set(customer)
    has_fixed.update(peer)
    buckets: Dict[int, List[int]] = {}
    for asn in has_fixed:
        fixed = customer[asn] if asn in customer else peer[asn]
        buckets.setdefault(fixed, []).append(asn)
    settled: Set[int] = set()
    while buckets:
        dist = min(buckets)
        nodes = buckets.pop(dist)
        nodes.sort()
        candidate = dist + 1
        for current in nodes:
            if current in settled:
                continue
            settled.add(current)
            for neighbor in down.get(current, empty):
                # Route travels current -> neighbor where neighbor is
                # a customer of current (the neighbor learns from its
                # provider).
                if current == destination and not first_hop_ok(neighbor):
                    continue
                # Partial transit: this provider does not hand its own
                # provider-learned routes to this customer.
                if (
                    (current, neighbor) in partial_transit
                    and current not in has_fixed
                ):
                    continue
                if candidate < provider.get(neighbor, _INF):
                    provider[neighbor] = candidate
                    provider_parent[neighbor] = current
                    if neighbor not in has_fixed:
                        buckets.setdefault(candidate, []).append(neighbor)
    return info
