"""Span recording around the program's public layer entry points.

Only the benchmark's traced runs call :meth:`LayerTracer.install`.  The
wrappers live only in the benchmark: each one replaces a public function or method of a layer
(every module-level reference to it, since ``from x import f`` copies
the reference), records a span with its parent in a thread-local stack,
and restores the original on :meth:`LayerTracer.uninstall`.

Spans stay in memory; :meth:`LayerTracer.take` hands them to the caller,
which writes them out once the run ends.  :func:`summarize` turns one
window of spans into the per-layer metrics named in ``metrics.py``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections.abc import Sized
from typing import Callable, Dict, List, Optional, Tuple

#: Span names that count as layer spans (coverage, self times).
LAYER_PREFIXES = ("topogen.", "atlas.", "peering.", "bgp.", "core.", "temporal.")

#: BGP convergence kinds, in the order the metrics list them.
BGP_KINDS = ("origin", "poison", "magnet", "withdraw", "announce")


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "thread", "attrs")

    def __init__(self, sid: int, parent: Optional[int], name: str, thread: int):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class LayerTracer:
    """Installs layer wrappers and records their spans in memory."""

    def __init__(self) -> None:
        # Re-entrant: a traced daemon takes windows from a signal
        # handler, which may interrupt the main thread inside ``close``.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: List[Span] = []
        self.stage_timings: List[Dict[str, float]] = []
        #: [receives delivered, receives that changed the best route]
        self.receives = [0, 0]
        self._patches: List[Tuple[object, str, object]] = []
        #: Wrapper targets that no longer exist in the program.
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # Span stack
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        span = Span(sid, stack[-1].sid if stack else None, name, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def enclosing(self, *names: str) -> Optional[str]:
        """The innermost open span whose name is one of ``names``."""
        for span in reversed(self._stack()):
            if span.name in names:
                return span.name
        return None

    def take(self) -> Tuple[List[Span], List[Dict[str, float]], List[int]]:
        """Hand over everything recorded so far and start a new window."""
        with self._lock:
            spans, self.spans = self.spans, []
            stages, self.stage_timings = self.stage_timings, []
            receives, self.receives = self.receives, [0, 0]
        return spans, stages, receives

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_function(self, module_name: str, attr: str, make: Callable) -> None:
        """Wrap a module-level function everywhere it is referenced."""
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._replace(loaded, name, wrapper)

    def patch_method(
        self, module_name: str, class_name: str, attr: str, make: Callable
    ) -> None:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{class_name}.{attr}")
            return
        self._replace(cls, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The wrappers
    # ------------------------------------------------------------------
    def _timed(self, name: str, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    after(span, args, kwargs, result)
                return result

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        tracer = self

        def campaign_done(span, args, kwargs, result):
            span.attrs["measurements"] = len(getattr(result, "measurements", ()))

        def discovery_done(span, args, kwargs, result):
            targets = kwargs.get("targets", args[2] if len(args) > 2 else ())
            span.attrs["targets"] = len(targets)

        def magnet_done(span, args, kwargs, result):
            span.attrs["rounds"] = len(result) if isinstance(result, Sized) else 0

        self.patch_function("repro.topogen.generator", "generate_internet", self._timed("topogen.generate"))
        self.patch_function("repro.topogen.inference", "inferred_snapshots", self._timed("topogen.infer"))
        for function in ("run_campaign", "run_resilient_campaign"):
            self.patch_function("repro.atlas.campaign", function, self._timed("atlas.campaign", campaign_done))
        self.patch_function(
            "repro.peering.experiments", "discover_alternate_routes",
            self._timed("peering.discovery", discovery_done),
        )
        self.patch_function(
            "repro.peering.experiments", "run_magnet_experiments",
            self._timed("peering.magnet", magnet_done),
        )

        def classify_done(span, args, kwargs, result):
            classifier = args[0]
            decisions = kwargs.get("decisions", args[1] if len(args) > 1 else ())
            layers = kwargs.get("layers", args[2] if len(args) > 2 else {})
            span.attrs["grades"] = len(decisions) * len(layers)
            report = getattr(classifier, "last_report", None)
            span.attrs["trees_built"] = getattr(report, "trees_computed", None)
            span.attrs["pool_workers"] = getattr(report, "workers", None)
            span.attrs["pool_parallel"] = getattr(report, "parallel", None)
            hits = misses = 0
            stats = getattr(classifier, "last_layer_cache_stats", None) or {}
            for per_layer in stats.values():
                delta = per_layer.get("delta", {})
                hits += delta.get("hits", 0)
                misses += delta.get("misses", 0)
            span.attrs["cache_hits"] = hits
            span.attrs["cache_misses"] = misses

        self.patch_method(
            "repro.perf.parallel", "ParallelClassifier", "classify_layers",
            self._timed("core.classify_layers", classify_done),
        )

        def temporal_done(span, args, kwargs, result):
            epochs = getattr(result, "epochs", [])
            span.attrs["epochs"] = len(epochs)
            for field in ("invalidated_trees", "regraded_groups", "reused_groups", "cache_misses"):
                span.attrs[field] = sum(getattr(epoch, field, 0) for epoch in epochs)

        self.patch_function("repro.temporal.study", "run_incremental", self._timed("temporal.series", temporal_done))

        def make_study_run(original):
            @functools.wraps(original)
            def run(study, *args, **kwargs):
                results = original(study, *args, **kwargs)
                with tracer._lock:
                    tracer.stage_timings.append(dict(getattr(results, "stage_timings", {}) or {}))
                return results

            return run

        self.patch_method("repro.core.pipeline", "Study", "run", make_study_run)
        self._install_bgp()

    def _install_bgp(self) -> None:
        tracer = self

        def make_originate(original):
            @functools.wraps(original)
            def originate(simulator, *args, **kwargs):
                args = list(args)
                if "poisoned" in kwargs:
                    poisoned = kwargs["poisoned"] = tuple(kwargs["poisoned"])
                elif len(args) > 2:
                    poisoned = args[2] = tuple(args[2])
                else:
                    poisoned = ()
                if poisoned:
                    kind = "poison"
                elif tracer.enclosing("atlas.campaign", "peering.magnet") == "atlas.campaign":
                    kind = "origin"
                elif tracer.enclosing("peering.magnet"):
                    kind = "magnet"
                else:
                    kind = "announce"
                span = tracer.open("bgp.convergence")
                span.attrs["kind"] = kind
                span.attrs["messages"] = 0
                try:
                    return original(simulator, *args, **kwargs)
                finally:
                    tracer.close(span)

            return originate

        def make_withdraw(original):
            @functools.wraps(original)
            def withdraw(simulator, *args, **kwargs):
                span = tracer.open("bgp.convergence")
                span.attrs["kind"] = "withdraw"
                span.attrs["messages"] = 0
                try:
                    return original(simulator, *args, **kwargs)
                finally:
                    tracer.close(span)

            return withdraw

        def make_run(original):
            @functools.wraps(original)
            def run(simulator, *args, **kwargs):
                stack = tracer._stack()
                if stack and stack[-1].name == "bgp.convergence":
                    delivered = original(simulator, *args, **kwargs)
                    stack[-1].attrs["messages"] += delivered or 0
                    return delivered
                span = tracer.open("bgp.convergence")
                span.attrs["kind"] = "announce"
                span.attrs["messages"] = 0
                try:
                    delivered = original(simulator, *args, **kwargs)
                    span.attrs["messages"] = delivered or 0
                    return delivered
                finally:
                    tracer.close(span)

            return run

        def make_receive(original):
            # Counted per message, so this wrapper opens no span: the
            # messages themselves are attributed through ``run``.
            @functools.wraps(original)
            def receive(speaker, *args, **kwargs):
                changed = original(speaker, *args, **kwargs)
                counts = tracer.receives
                counts[0] += 1
                if changed:
                    counts[1] += 1
                return changed

            return receive

        self.patch_method("repro.bgp.simulator", "BGPSimulator", "originate", make_originate)
        self.patch_method("repro.bgp.simulator", "BGPSimulator", "withdraw", make_withdraw)
        self.patch_method("repro.bgp.simulator", "BGPSimulator", "run", make_run)
        self.patch_method("repro.bgp.speaker", "BGPSpeaker", "receive", make_receive)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - _union(children.get(span.sid, []))
        for span in spans
    }


def _is_layer(name: str) -> bool:
    return name.startswith(LAYER_PREFIXES)


def summarize(
    spans: List[Span],
    stages: List[Dict[str, float]],
    receives: List[int],
    window_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window (see ``metrics.py``)."""
    own = self_times(spans)
    by_id = {span.sid: span for span in spans}
    out: Dict[str, float] = {}

    def total(name: str, attr: Optional[str] = None) -> float:
        if attr is None:
            return sum(s.duration for s in spans if s.name == name)
        return sum(s.attrs.get(attr) or 0 for s in spans if s.name == name)

    stage_totals: Dict[str, float] = {}
    for timings in stages:
        for stage, seconds in timings.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    for stage, seconds in stage_totals.items():
        out[f"stage.{stage}_s"] = seconds

    busy_all = messages_all = 0.0
    for kind in BGP_KINDS:
        chosen = [s for s in spans if s.name == "bgp.convergence" and s.attrs["kind"] == kind]
        busy = sum(s.duration for s in chosen)
        messages = sum(s.attrs["messages"] for s in chosen)
        out[f"bgp.{kind}.convergences"] = len(chosen)
        out[f"bgp.{kind}.messages"] = messages
        out[f"bgp.{kind}.busy_s"] = busy
        busy_all += busy
        messages_all += messages
    out["bgp.us_per_message"] = busy_all / messages_all * 1e6 if messages_all else 0.0
    out["bgp.best_change_ratio"] = receives[1] / receives[0] if receives[0] else 0.0

    out["atlas.campaign_s"] = total("atlas.campaign")
    out["atlas.measurements"] = total("atlas.campaign", "measurements")
    out["atlas.non_bgp_s"] = sum(own[s.sid] for s in spans if s.name == "atlas.campaign")

    out["peering.discovery_s"] = total("peering.discovery")
    out["peering.magnet_s"] = total("peering.magnet")
    out["peering.targets"] = total("peering.discovery", "targets")
    out["peering.magnet_rounds"] = total("peering.magnet", "rounds")
    out["peering.non_bgp_s"] = sum(
        own[s.sid] for s in spans if s.name in ("peering.discovery", "peering.magnet")
    )

    out["topogen.generate_s"] = total("topogen.generate")
    out["topogen.infer_s"] = total("topogen.infer")

    classify = total("core.classify_layers")
    hits = total("core.classify_layers", "cache_hits")
    misses = total("core.classify_layers", "cache_misses")
    calls = [s for s in spans if s.name == "core.classify_layers"]
    out["core.classify_layers_s"] = classify / len(calls) if calls else 0.0
    out["core.decisions_per_s"] = total("core.classify_layers", "grades") / classify if classify else 0.0
    # Lookups served from a cached tree, over all lookups: the grading
    # passes' hits and misses plus the trees the precompute built.
    built = total("core.classify_layers", "trees_built")
    lookups = hits + misses + built
    out["core.trees_built"] = built
    out["core.tree_cache_hit_rate"] = hits / lookups if lookups else 0.0
    out["core.pool_workers"] = max((s.attrs.get("pool_workers") or 0 for s in calls), default=0)
    out["core.pool_parallel"] = max((1 if s.attrs.get("pool_parallel") else 0 for s in calls), default=0)

    series = [s for s in spans if s.name == "temporal.series"]
    out["temporal.series_s"] = total("temporal.series") / len(series) if series else 0.0
    for field in ("epochs", "invalidated_trees", "regraded_groups", "reused_groups", "cache_misses"):
        out[f"temporal.{field}"] = total("temporal.series", field)

    # Layer spans not nested in another layer span: their union is the
    # share of the window the trace accounts for.
    def outermost(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if _is_layer(parent.name):
                return False
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return True

    roots = [(s.start, s.end) for s in spans if _is_layer(s.name) and outermost(s)]
    out["trace.coverage_frac"] = _union(roots) / window_s if window_s > 0 else 0.0

    measured = stage_totals.get("campaign", 0.0) + stage_totals.get("active_experiments", 0.0)
    if measured:
        accounted = busy_all + out["atlas.non_bgp_s"] + out["peering.non_bgp_s"]
        out["trace.accounted_frac"] = accounted / measured
    return out
