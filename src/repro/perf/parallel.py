"""Parallel routing-tree precomputation for the Figure-1 layers.

Classification cost is dominated by Gao-Rexford routing-tree builds:
one tree per ``(destination, allowed-first-hops)`` pair per engine.
The trees are independent, so :class:`ParallelClassifier` collects the
distinct trees the layers need, computes the missing ones with a
process pool (each worker rebuilds the engine once from a pickled
graph payload), installs the results into the engines' caches, and then
grades every layer against warm caches with the batched classifiers.

Pool dispatch is *supervised* by default: the missing trees are cut
into deterministic shards and run through
:class:`repro.faults.pool.SupervisedShardExecutor`, which survives
worker crashes (``BrokenProcessPool``), hung shards, and corrupt
results — retrying on a respawned pool, quarantining repeat offenders
to serial in-process recomputation, and journaling finished shards to
``<shard_checkpoint>`` so a killed study resumes without recomputing
them.  Results are identical to the serial path on every branch of
that ladder.

Precomputation is serial in-process by default: measured on the
benchmark's workloads, spawning the pool loses to serial builds at
every size (the whole array precompute is tens of milliseconds).  The
pool runs only when ``REPRO_WORKERS``, an explicit ``workers`` or
``StudyConfig.pool_workers`` asks for more than one worker, and only
for at least ``min_parallel_trees`` missing trees; results are
identical either way.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.classification import (
    Decision,
    DecisionLabel,
    GroupedDecisions,
    LabelCounts,
    LayerConfig,
    TreeKey,
    classify_grouped,
    label_grouped,
)
from repro.core.gao_rexford import GaoRexfordEngine, RoutingInfo
from repro.faults.errors import ShardExecutionError
from repro.faults.plan import FaultPlan, FaultSite
from repro.faults.pool import (
    DEFAULT_SHARD_TIMEOUT_S,
    Shard,
    ShardExecutionReport,
    ShardJournal,
    SupervisedShardExecutor,
)
from repro.faults.retry import RetryPolicy
from repro.faults.storage import StoragePolicy
from repro.faults.supervisor import CircuitBreaker
from repro.obs.context import get_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span

#: Environment knob for the precompute pool size.  Unset, ``0`` or
#: ``1`` mean serial.
WORKERS_ENV = "REPRO_WORKERS"

#: Below this many missing trees the pool costs more than it saves.
DEFAULT_MIN_PARALLEL_TREES = 24

#: How long an injected hang sleeps in the worker.  Kept far above any
#: reasonable ``shard_timeout_s`` so a "hang" is only ever resolved by
#: the supervisor's deadline, never by the sleep finishing first.
DEFAULT_HANG_SLEEP_S = 120.0


def worker_count(default: Optional[int] = None) -> int:
    """Resolve the precompute worker count.

    Precedence: the ``REPRO_WORKERS`` environment variable, then
    ``default``, then 1 (serial).  ``0`` and ``1`` both mean
    "serial"; negative values are a configuration error.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None and raw.strip():
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
        if workers < 0:
            raise ValueError(
                f"{WORKERS_ENV} must be >= 0 (0/1 mean serial), got {workers}"
            )
        return workers
    if default is not None:
        return default
    return 1


@dataclass
class PrecomputeReport:
    """What one precompute pass did."""

    trees_computed: int = 0
    trees_reused: int = 0
    workers: int = 1
    parallel: bool = False

    def merge(self, other: "PrecomputeReport") -> None:
        self.trees_computed += other.trees_computed
        self.trees_reused += other.trees_reused
        self.workers = max(self.workers, other.workers)
        self.parallel = self.parallel or other.parallel


# ---------------------------------------------------------------------------
# Pool worker plumbing (module level for picklability)
# ---------------------------------------------------------------------------

#: Per-worker state: engine specs from the initializer payload, the
#: engines lazily built from them, whether to collect metrics, and the
#: fault-injection knobs (plan + hang sleep) shipped by the parent.
_worker_specs: Optional[List[Tuple[object, FrozenSet[Tuple[int, int]], str]]] = None
_worker_engines: Dict[int, GaoRexfordEngine] = {}
_worker_collect_metrics = False
_worker_fault_plan: Optional[FaultPlan] = None
_worker_hang_sleep_s = DEFAULT_HANG_SLEEP_S


def _pool_init(payload: bytes) -> None:
    global _worker_specs, _worker_engines, _worker_collect_metrics
    global _worker_fault_plan, _worker_hang_sleep_s
    (
        _worker_specs,
        _worker_collect_metrics,
        _worker_fault_plan,
        _worker_hang_sleep_s,
    ) = pickle.loads(payload)
    _worker_engines = {}


def _pool_build(
    task: Tuple[int, Sequence[TreeKey]],
    shard_id: str = "",
    attempt: int = 1,
) -> Tuple[int, List[Tuple[TreeKey, RoutingInfo]], Optional[Dict]]:
    """Build one shard of routing trees in a worker process.

    Returns the engine index, the built trees, and — when the parent
    enabled telemetry — a metric snapshot covering just this shard.
    Snapshots merge associatively in the parent, so the nondeterministic
    completion order of shards cannot change the merged totals.

    Fault injection (worker side): when the parent shipped a
    :class:`FaultPlan`, the pool sites are rolled per
    ``(shard_id, attempt)`` — a crash SIGKILLs this worker (the parent
    sees ``BrokenProcessPool``), a hang sleeps past the supervisor's
    deadline, and a corruption drops the shard's last tree so the
    parent-side validation rejects the result.
    """
    engine_index, keys = task
    assert _worker_specs is not None, "pool used without initializer"
    plan = _worker_fault_plan
    if plan is not None and shard_id:
        if plan.fires(FaultSite.POOL_WORKER_CRASH, shard_id, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        if plan.fires(FaultSite.POOL_WORKER_HANG, shard_id, attempt):
            time.sleep(_worker_hang_sleep_s)
    engine = _worker_engines.get(engine_index)
    if engine is None:
        graph, partial, backend = _worker_specs[engine_index]
        engine = GaoRexfordEngine(graph, partial_transit=partial, backend=backend)
        _worker_engines[engine_index] = engine
    results = [(key, engine.routing_info(key[0], key[1])) for key in keys]
    if (
        plan is not None
        and shard_id
        and results
        and plan.fires(FaultSite.POOL_RESULT_CORRUPT, shard_id, attempt)
    ):
        results = results[:-1]
    snapshot: Optional[Dict] = None
    if _worker_collect_metrics:
        registry = MetricsRegistry()
        registry.counter(
            "repro_precompute_trees_total",
            "Routing trees built by precompute workers.",
        ).labels(engine=str(engine_index)).inc(len(results))
        snapshot = registry.snapshot()
    return engine_index, results, snapshot


class _KeysView:
    """Adapter giving a plain tree-key list the ``tree_keys()`` surface
    :meth:`ParallelClassifier._precompute_grouped` expects — how the
    arena fast path feeds its groupings through the shared precompute
    bookkeeping."""

    __slots__ = ("_keys",)

    def __init__(self, keys: Sequence[TreeKey]) -> None:
        self._keys = keys

    def tree_keys(self) -> List[TreeKey]:
        return list(self._keys)


def _sortable(key: TreeKey) -> Tuple[int, int, Tuple[int, ...]]:
    destination, allowed = key
    if allowed is None:
        return (destination, 0, ())
    return (destination, 1, tuple(sorted(allowed)))


# ---------------------------------------------------------------------------
# Shard identity: content-addressed ids + journal fingerprints
# ---------------------------------------------------------------------------

def _graph_fingerprint(graph) -> str:
    """Hash of the graph's full link set — the shard journal's header
    fingerprint, so a journal can never replay trees onto a different
    topology (same-shape different-seed graphs included).

    Cached on the graph instance per mutation version.  (A module-level
    cache keyed by ``id(graph)`` would hand a recycled id's stale
    fingerprint to a new graph that happens to share the version.)
    """
    version = graph._version
    cached = graph.__dict__.get("_links_fingerprint")
    if cached is not None and cached[0] == version:
        return cached[1]
    digest = hashlib.blake2b(digest_size=8)
    for a, b, rel in sorted(
        graph.links(), key=lambda link: (link[0], link[1], str(link[2].value))
    ):
        digest.update(f"{a}|{b}|{rel.value}\n".encode("utf-8"))
    fingerprint = digest.hexdigest()
    graph.__dict__["_links_fingerprint"] = (version, fingerprint)
    return fingerprint


def _engine_fingerprint(engine: GaoRexfordEngine) -> str:
    """Backend + partial-transit digest folded into every shard id, so
    journal replay matches only shards built by an identically
    configured engine (the graph itself is covered by the header)."""
    digest = hashlib.blake2b(digest_size=4)
    digest.update(str(getattr(engine, "backend", "dict")).encode("utf-8"))
    for provider, customer in sorted(engine.partial_transit):
        digest.update(f"|{provider},{customer}".encode("utf-8"))
    return digest.hexdigest()


def _keys_fingerprint(keys: Sequence[TreeKey]) -> str:
    digest = hashlib.blake2b(digest_size=4)
    for key in keys:
        digest.update(repr(_sortable(key)).encode("utf-8"))
    return digest.hexdigest()


def _encode_shard_result(result: object) -> str:
    """Journal codec: persist (engine_index, trees) but never the
    metric snapshot — replayed work did not re-run, so it must not
    re-count."""
    engine_index, results, _snapshot = result
    raw = pickle.dumps((engine_index, results), protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def _decode_shard_result(payload: str) -> object:
    engine_index, results = pickle.loads(base64.b64decode(payload.encode("ascii")))
    return engine_index, results, None


class ParallelClassifier:
    """Precomputes routing trees across layers, then grades in batch.

    ``workers`` defaults to :func:`worker_count` (the ``REPRO_WORKERS``
    environment variable, else serial), clamped to the machine's CPU
    count — an oversized ``REPRO_WORKERS`` cannot oversubscribe the
    pool.  An explicitly passed ``workers`` is honored as-is.  A pool
    is only spawned when more than ``min_parallel_trees`` trees are
    missing and the effective worker count exceeds one.

    Pool dispatch runs through :class:`SupervisedShardExecutor` unless
    ``supervised=False`` selects the legacy raw ``pool.map`` path (used
    as the bench baseline).  ``fault_plan`` ships deterministic
    crash/hang/corruption injection to the workers; ``shard_checkpoint``
    journals finished shards for resume (``resume=True`` replays an
    existing journal, ``resume=False`` discards one left by an earlier
    run); ``abort_after_shards`` is the crash-drill knob — the run
    raises :class:`CampaignInterrupted` after that many shards have
    been journaled.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        min_parallel_trees: int = DEFAULT_MIN_PARALLEL_TREES,
        chunk_size: int = 8,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        shard_checkpoint: Optional[str] = None,
        resume: bool = False,
        shard_timeout_s: Optional[float] = None,
        hang_sleep_s: float = DEFAULT_HANG_SLEEP_S,
        abort_after_shards: Optional[int] = None,
        supervised: bool = True,
        storage: Optional[StoragePolicy] = None,
    ) -> None:
        if workers is None:
            workers = min(worker_count(), os.cpu_count() or 1)
        self.workers = workers
        self.min_parallel_trees = min_parallel_trees
        self.chunk_size = max(1, chunk_size)
        self.fault_plan = fault_plan
        self.retry = retry
        self.shard_checkpoint = shard_checkpoint
        self.resume = resume
        #: Durability/fault policy the shard journal is written under.
        self.storage = storage
        self.shard_timeout_s = (
            DEFAULT_SHARD_TIMEOUT_S if shard_timeout_s is None else shard_timeout_s
        )
        self.hang_sleep_s = hang_sleep_s
        self.supervised = supervised
        self.last_report: Optional[PrecomputeReport] = None
        #: Merged :class:`ShardExecutionReport` across every supervised
        #: pool pass this classifier ran (a study runs several passes:
        #: classify + per-layer labeling).  ``None`` until a pool pass
        #: actually happens.
        self.last_shard_report: Optional[ShardExecutionReport] = None
        #: One breaker for the classifier's lifetime, so repeat offenses
        #: accumulate across passes rather than resetting per pass.
        self._breaker = CircuitBreaker(failure_threshold=4, cooldown=4)
        #: Crash-drill budget left (decremented as passes journal
        #: shards); ``None`` means no drill.
        self._abort_remaining = abort_after_shards
        #: Whether a stale journal (resume=False) was already discarded;
        #: later passes of the same run must append, not truncate.
        self._journal_cleared = False
        #: Layer name -> {"delta": ..., "cumulative": ...} cache stats
        #: from the most recent :meth:`classify_layers` call.  The
        #: engine's counters are cumulative across layers, so the delta
        #: is what each layer actually did (see ``CacheStats.delta``).
        self.last_layer_cache_stats: Dict[str, Dict[str, Dict[str, float]]] = {}

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def precompute(
        self,
        decisions: Iterable[Decision],
        layers: Iterable[LayerConfig],
    ) -> PrecomputeReport:
        """Ensure every routing tree the layers need is cached."""
        layers = list(layers)
        decisions = decisions if isinstance(decisions, list) else list(decisions)
        groupings = self._groupings(decisions, layers)
        return self._precompute_grouped(
            [(layer, groupings[index]) for index, layer in enumerate(layers)]
        )

    def _precompute_grouped(
        self, pairs: Sequence[Tuple[LayerConfig, GroupedDecisions]]
    ) -> PrecomputeReport:
        # Distinct missing trees per engine (engines shared between
        # layers are collected once).
        engines: List[GaoRexfordEngine] = []
        missing: List[List[TreeKey]] = []
        reused = 0
        seen: Dict[int, int] = {}
        for layer, grouped in pairs:
            engine = layer.engine
            index = seen.get(id(engine))
            if index is None:
                index = seen[id(engine)] = len(engines)
                engines.append(engine)
                missing.append([])
            pending = set(missing[index])
            for key in grouped.tree_keys():
                canonical = engine.cache_key(key[0], key[1])
                if canonical in engine._cache or canonical in pending:
                    reused += 1
                    continue
                pending.add(canonical)
                missing[index].append(canonical)
        total_missing = sum(len(keys) for keys in missing)
        report = PrecomputeReport(
            trees_computed=total_missing,
            trees_reused=reused,
            workers=max(1, self.workers),
        )
        if total_missing == 0:
            self.last_report = report
            return report
        if self.workers <= 1 or total_missing < self.min_parallel_trees:
            # Serial fallback: this work runs in-process, inside whatever
            # stage span is currently open (e.g. the pipeline's
            # ``figure1``).  Emitting it as a *child* span is what keeps
            # stage timings single-counted — a sibling/top-level timer
            # here would book the same seconds twice.
            with span(
                "precompute_serial", trees=total_missing, reused=reused
            ):
                # warm_batch computes the dict backend's trees one by
                # one but the array backend's in a single kernel sweep;
                # stats accounting (one miss per computed tree) and the
                # resulting caches are identical either way.
                for engine, keys in zip(engines, missing):
                    engine.warm_batch(keys)
            self._record_precompute(report)
            self.last_report = report
            return report
        with span(
            "precompute_pool",
            trees=total_missing,
            reused=reused,
            workers=self.workers,
        ):
            self._precompute_pool(engines, missing)
        report.parallel = True
        self._record_precompute(report)
        self.last_report = report
        return report

    def _record_precompute(self, report: PrecomputeReport) -> None:
        metrics = get_obs().metrics
        if not metrics.enabled:
            return
        mode = "parallel" if report.parallel else "serial"
        metrics.counter(
            "repro_precompute_runs_total",
            "Precompute passes, by execution mode.",
        ).labels(mode=mode).inc()
        if not report.parallel:
            # Pool runs are recorded by the workers themselves (their
            # snapshots merge in during `_precompute_pool`).
            metrics.counter(
                "repro_precompute_trees_total",
                "Routing trees built by precompute workers.",
            ).labels(engine="serial").inc(report.trees_computed)
        metrics.counter(
            "repro_precompute_trees_reused_total",
            "Routing trees already cached when precompute ran.",
        ).inc(report.trees_reused)

    def _build_shards(
        self, engines: Sequence[GaoRexfordEngine], missing: Sequence[List[TreeKey]]
    ) -> List[Shard]:
        """Cut the missing trees into deterministic, content-addressed
        shards.

        Keys are stable-sorted before chunking, so the same missing set
        always produces the same shards; the id folds in the keys and
        the engine configuration, so a journal record replays only onto
        the exact shard it was written for — making unconditional
        replay safe even across the study's classify/label passes.
        """
        shards: List[Shard] = []
        for index, keys in enumerate(missing):
            engine_fp = _engine_fingerprint(engines[index])
            ordered = sorted(keys, key=_sortable)
            for ordinal, start in enumerate(
                range(0, len(ordered), self.chunk_size)
            ):
                chunk = tuple(ordered[start : start + self.chunk_size])
                shard_id = (
                    f"{index}:{ordinal}:{_keys_fingerprint(chunk)}:{engine_fp}"
                )
                shards.append(Shard(shard_id=shard_id, task=(index, chunk), keys=chunk))
        return shards

    def _precompute_pool(
        self, engines: Sequence[GaoRexfordEngine], missing: Sequence[List[TreeKey]]
    ) -> None:
        metrics = get_obs().metrics
        try:
            payload = pickle.dumps(
                (
                    [
                        (engine.graph, engine.partial_transit, engine.backend)
                        for engine in engines
                    ],
                    metrics.enabled,
                    self.fault_plan,
                    self.hang_sleep_s,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ShardExecutionError(
                f"precompute payload is not picklable: {exc!r}",
                keys=tuple(key for keys in missing for key in keys),
            ) from exc
        shards = self._build_shards(engines, missing)

        def install(shard: Shard, result: object) -> None:
            engine_index, results, snapshot = result
            engine = engines[engine_index]
            for (destination, allowed), info in results:
                engine.warm(destination, allowed, info)
            if snapshot is not None and metrics.enabled:
                metrics.merge_snapshot(snapshot)

        if not self.supervised:
            self._precompute_pool_raw(shards, payload, install)
            return

        def validate(shard: Shard, result: object) -> Optional[str]:
            engine_index, keys = shard.task
            if (
                not isinstance(result, tuple)
                or len(result) != 3
                or result[0] != engine_index
            ):
                return "malformed worker result"
            returned = [key for key, _info in result[1]]
            if returned != list(keys):
                return (
                    f"worker returned {len(returned)} tree(s) for "
                    f"{len(keys)} requested key(s)"
                )
            return None

        def serial(shard: Shard) -> object:
            engine_index, keys = shard.task
            engine = engines[engine_index]
            return (
                engine_index,
                [(key, engine.routing_info(key[0], key[1])) for key in keys],
                None,
            )

        journal = None
        if self.shard_checkpoint is not None:
            if not self.resume and not self._journal_cleared:
                # A journal left over from an unrelated earlier run must
                # not silently feed this one; later passes of *this* run
                # append to the same file.
                if os.path.exists(self.shard_checkpoint):
                    os.remove(self.shard_checkpoint)
            self._journal_cleared = True
            journal = ShardJournal(
                self.shard_checkpoint,
                storage=self.storage or StoragePolicy(fault_plan=self.fault_plan),
            )

        executor = SupervisedShardExecutor(
            _pool_build,
            workers=self.workers,
            initializer=_pool_init,
            initargs=(payload,),
            retry=self.retry,
            breaker=self._breaker,
            shard_timeout_s=self.shard_timeout_s,
            journal=journal,
            context_fingerprint=_graph_fingerprint(engines[0].graph),
            abort_after=self._abort_remaining,
        )
        report = executor.run(
            shards,
            serial_fn=serial,
            install_fn=install,
            validate_fn=validate,
            encode_result=_encode_shard_result,
            decode_result=_decode_shard_result,
        )
        if self._abort_remaining is not None:
            self._abort_remaining -= report.completed_parallel + report.completed_serial
        if self.last_shard_report is None:
            self.last_shard_report = report
        else:
            self.last_shard_report.merge(report)

    def _precompute_pool_raw(
        self, shards: Sequence[Shard], payload: bytes, install
    ) -> None:
        """Legacy unsupervised dispatch: one ``pool.map``, no recovery.

        Kept as the bench baseline for measuring supervision overhead.
        A dead worker or unpicklable result no longer escapes as a bare
        ``concurrent.futures`` traceback: it is mapped to
        :class:`ShardExecutionError` carrying the tree keys of the first
        shard that cannot have completed.
        """
        completed = 0
        try:
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=(payload,),
            ) as pool:
                for shard, result in zip(
                    shards, pool.map(_pool_build, [shard.task for shard in shards])
                ):
                    install(shard, result)
                    completed += 1
        except (BrokenExecutor, pickle.PicklingError) as exc:
            failed = shards[min(completed, len(shards) - 1)]
            raise ShardExecutionError(
                f"unsupervised pool lost shard {failed.shard_id} "
                f"({type(exc).__name__}: {exc}); supervised dispatch would "
                "have retried it",
                shard_id=failed.shard_id,
                keys=failed.keys,
            ) from exc

    # ------------------------------------------------------------------
    # Batched grading over warm caches
    # ------------------------------------------------------------------
    def classify_layers(
        self,
        decisions: Iterable[Decision],
        layers: Dict[str, LayerConfig],
    ) -> Dict[str, LabelCounts]:
        """Grade every layer; trees are precomputed once up front.

        Layers sharing a ``first_hops_for`` map share one decision
        grouping, so the duplicate-collapsing pass runs once per
        distinct map rather than once per layer.

        When every layer's engine runs the ``array`` backend the whole
        pass goes through the vectorized arena path instead: decisions
        are interned once, grouped with one lexsort per distinct PSP
        map, and each layer is graded with gathers and a bincount.
        Results and cache-stats reports are identical.
        """
        decisions = decisions if isinstance(decisions, list) else list(decisions)
        configs = list(layers.values())
        if decisions and all(
            getattr(layer.engine, "backend", "dict") == "array" for layer in configs
        ):
            from repro.core.hotpath.grade import arena_for, classify_arena

            arena = arena_for(decisions)
            groupings = [arena.grouping(layer.first_hops_for) for layer in configs]
            keyed = [_KeysView(grouping.tree_keys) for grouping in groupings]
            grade = classify_arena
        else:
            groupings = keyed = self._groupings(decisions, configs)
            grade = classify_grouped
        self._precompute_grouped(list(zip(configs, keyed)))
        return self._grade_layers(layers, groupings, grade)

    def _grade_layers(
        self, layers: Dict[str, LayerConfig], groupings: Sequence, grade: Callable
    ) -> Dict[str, LabelCounts]:
        """Grade each layer over its grouping with ``grade`` and record
        the layer's routing-cache accounting (delta and cumulative in
        ``last_layer_cache_stats``, hit/miss counters per layer)."""
        metrics = get_obs().metrics
        results: Dict[str, LabelCounts] = {}
        self.last_layer_cache_stats = {}
        for (name, layer), grouping in zip(layers.items(), groupings):
            baseline = layer.engine.cache_stats()
            with span("classify_layer", layer=name):
                results[name] = grade(
                    grouping,
                    layer.engine,
                    complex_rel=layer.complex_rel,
                    siblings=layer.siblings,
                )
            cumulative = layer.engine.cache_stats()
            delta = cumulative.delta(baseline)
            self.last_layer_cache_stats[name] = {
                "delta": delta.as_dict(),
                "cumulative": cumulative.as_dict(),
            }
            if metrics.enabled:
                metrics.counter(
                    "repro_routing_cache_hits_total",
                    "Routing-cache hits during layer grading.",
                ).labels(layer=name).inc(delta.hits)
                metrics.counter(
                    "repro_routing_cache_misses_total",
                    "Routing-cache misses during layer grading.",
                ).labels(layer=name).inc(delta.misses)
        return results

    def label_layer(
        self,
        decisions: Iterable[Decision],
        layer: LayerConfig,
    ) -> List[Tuple[Decision, DecisionLabel]]:
        """Per-decision labels for one layer, via the same machinery."""
        decisions = decisions if isinstance(decisions, list) else list(decisions)
        if decisions and getattr(layer.engine, "backend", "dict") == "array":
            from repro.core.hotpath.grade import arena_for, label_arena

            grouping = arena_for(decisions).grouping(layer.first_hops_for)
            self._precompute_grouped([(layer, _KeysView(grouping.tree_keys))])
            with span("label_layer", decisions=len(decisions)):
                return label_arena(
                    grouping,
                    layer.engine,
                    complex_rel=layer.complex_rel,
                    siblings=layer.siblings,
                )
        grouped = GroupedDecisions(decisions, layer.first_hops_for)
        self._precompute_grouped([(layer, grouped)])
        with span("label_layer", decisions=len(decisions)):
            return label_grouped(
                grouped,
                layer.engine,
                complex_rel=layer.complex_rel,
                siblings=layer.siblings,
            )

    def _groupings(
        self, decisions: List[Decision], layers: Sequence[LayerConfig]
    ) -> List[GroupedDecisions]:
        by_map: Dict[int, GroupedDecisions] = {}
        groupings: List[GroupedDecisions] = []
        for layer in layers:
            key = 0 if layer.first_hops_for is None else id(layer.first_hops_for)
            grouped = by_map.get(key)
            if grouped is None:
                grouped = GroupedDecisions(decisions, layer.first_hops_for)
                by_map[key] = grouped
            groupings.append(grouped)
        return groupings
