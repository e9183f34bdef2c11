"""The asyncio study-as-a-service daemon behind ``repro serve``.

Architecture (one process, two planes):

* **Control plane** — a single asyncio event loop owns the listening
  socket, parses HTTP, and makes every admission decision (draining →
  503, queue full → 429 + ``Retry-After``, tenant budget exhausted →
  429 + ``Retry-After``).  All admission counters live on the loop
  thread, so they need no locks.

* **Data plane** — admitted requests run on a bounded thread pool.
  Each worker installs a per-request :class:`Observability` context
  (thread-local, see :mod:`repro.obs.context`) and an ambient tracer,
  runs the workload against the shared :class:`ArtifactStore`, then
  folds the request's metric snapshot into the daemon-lifetime
  registry that ``/metrics`` serves.

Streaming responses use chunked transfer-encoding NDJSON: the
request's :class:`EventStream` forwards events from the worker thread
into an :class:`asyncio.Queue` via ``loop.call_soon_threadsafe``, and
the final line carries the result document.

Shutdown is a graceful drain: SIGTERM/SIGINT (or
:meth:`ReproDaemon.request_drain`) stops accepting connections,
in-flight requests finish, then the loop exits.  With ``--run-dir``
the daemon holds the directory's advisory :class:`RunLock` and writes
one :class:`RunManifest` per request under ``DIR/manifests/``.

Everything is stdlib: ``asyncio.start_server`` plus a hand-rolled
HTTP/1.1 subset (the repo adds no dependencies for the service layer).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs import (
    Observability,
    PROMETHEUS_CONTENT_TYPE,
    Tracer,
    build_manifest,
    metrics_to_prometheus,
    publish,
    set_obs,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import ArtifactStore
from repro.serve.protocol import (
    CATEGORY_SERVE,
    DEFAULT_TENANT_BUDGET,
    PROTOCOL_VERSION,
    ProtocolError,
    ServeRequest,
    parse_request,
    request_to_dict,
)
from repro.serve.tenants import (
    BudgetExceeded,
    RETRY_AFTER_BUDGET_S,
    TenantRegistry,
)
from repro.serve.workloads import run_workload

#: Seconds a 429-on-full-queue client should back off.
RETRY_AFTER_QUEUE_S = 2

#: Seconds a 503-while-draining client should wait before trying a
#: replacement daemon.
RETRY_AFTER_DRAINING_S = 5

#: Largest request body the daemon reads (a submit is a small JSON
#: object; anything near this is hostile or broken); larger draws 413.
MAX_BODY_BYTES = 1 << 20

#: Seconds a client gets to deliver the body it announced; then 408.
BODY_READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Daemon settings (CLI flags map onto these one-to-one)."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (tests, load generator).
    port: int = 0
    #: Worker threads actually executing workloads.
    workers: int = 4
    #: Admitted-but-waiting requests beyond the workers; one more
    #: request than ``workers + max_queue`` in flight draws a 429.
    max_queue: int = 16
    #: Daily credits per tenant (:data:`SERVE_COSTS` units).
    tenant_budget: int = DEFAULT_TENANT_BUDGET
    #: Durable directory for per-request manifests (advisory-locked).
    run_dir: Optional[str] = None


class ReproDaemon:
    """One serve daemon: shared warm state + asyncio HTTP front end."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.artifacts = ArtifactStore()
        self.tenants = TenantRegistry(daily_budget=self.config.tenant_budget)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-worker"
        )
        #: Daemon-lifetime registry served by /metrics; per-request
        #: registries merge into it after each request.
        self.metrics = MetricsRegistry(enabled=True)
        self._metrics_lock = threading.Lock()
        self._requests_total = self.metrics.counter(
            "serve_requests_total", "Requests finished, by workload/tenant/status."
        )
        self._rejected_total = self.metrics.counter(
            "serve_rejected_total", "Requests rejected at admission, by reason."
        )
        self._request_seconds = self.metrics.histogram(
            "serve_request_seconds", "Wall time of finished requests."
        )
        self._queue_depth = self.metrics.gauge(
            "serve_queue_depth", "Admitted requests waiting for a worker."
        )
        self._inflight_gauge = self.metrics.gauge(
            "serve_inflight_requests", "Admitted requests not yet finished."
        )
        self._engine_cache_hits = self.metrics.gauge(
            "serve_engine_cache_hits",
            "Routing-engine cache hits across all tenants.",
        )
        self._engine_cache_misses = self.metrics.gauge(
            "serve_engine_cache_misses",
            "Routing-engine cache misses (cold builds).",
        )
        self._engine_cache_entries = self.metrics.gauge(
            "serve_engine_cache_entries", "Warm routing engines held."
        )
        self._study_cache_hits = self.metrics.gauge(
            "serve_study_cache_hits", "Memoized-study hits across all tenants."
        )
        self._study_cache_misses = self.metrics.gauge(
            "serve_study_cache_misses", "Study computations run."
        )

        # Loop-thread state (no locks: touched only on the event loop).
        self._inflight = 0
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None

        # Cross-thread startup handshake for start_in_thread().
        self.ready = threading.Event()
        self.bound_port: Optional[int] = None
        self.startup_error: Optional[BaseException] = None

        self._request_seq = 0
        self._seq_lock = threading.Lock()
        self._run_lock = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve until a drain is requested; returns once drained."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        try:
            if self.config.run_dir is not None:
                from repro.faults.storage import RunLock

                os.makedirs(self.config.run_dir, exist_ok=True)
                self._run_lock = RunLock(
                    os.path.join(self.config.run_dir, "serve.lock")
                ).acquire()
            server = await asyncio.start_server(
                self._serve_connection, self.config.host, self.config.port
            )
        except BaseException as error:
            self.startup_error = error
            self.ready.set()
            raise
        self.bound_port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread (tests, load generator) or platforms
                # without signal support: drain stays available via
                # request_drain().
                pass
        self.ready.set()
        try:
            async with server:
                await self._drain_requested.wait()
                server.close()
                await server.wait_closed()
                while self._inflight > 0:
                    await asyncio.sleep(0.02)
        finally:
            self._executor.shutdown(wait=True)
            if self._run_lock is not None:
                self._run_lock.release()

    def request_drain(self) -> None:
        """Begin a graceful drain; safe to call from any thread."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._begin_drain)

    def _begin_drain(self) -> None:
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                header_blob = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=30
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
            ):
                return
            lines = header_blob.decode("latin-1").split("\r\n")
            parts = lines[0].split()
            if len(parts) != 3:
                await self._respond_json(
                    writer, 400, {"ok": False, "error": "malformed request line"}
                )
                return
            method, target = parts[0].upper(), parts[1]
            path = target.split("?", 1)[0]
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                if ":" in line:
                    key, value = line.split(":", 1)
                    headers[key.strip().lower()] = value.strip()
            body = await self._read_body(reader, writer, headers)
            if body is not None:
                await self._route(writer, method, path, body)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_body(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
    ) -> Optional[bytes]:
        """The request body, or ``None`` once an error reply was sent.

        ``Content-Length`` must be a non-negative decimal integer no
        larger than :data:`MAX_BODY_BYTES` (400 / 413 otherwise), and
        the body must arrive within :data:`BODY_READ_TIMEOUT_S` (408).
        """
        text = headers.get("content-length", "0").strip() or "0"
        if not (text.isascii() and text.isdigit()):
            self._count_rejection("protocol")
            error = f"bad Content-Length {text[:32]!r}"
            await self._respond_json(writer, 400, {"ok": False, "error": error})
            return None
        # HTTP allows leading zeros.  Compare digit counts first: int()
        # refuses strings of thousands of digits, and no such length is
        # within the limit anyway.
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            self._count_rejection("body_too_large")
            await self._respond_json(
                writer,
                413,
                {
                    "ok": False,
                    "error": f"request body exceeds the {MAX_BODY_BYTES}-byte limit",
                },
            )
            return None
        length = int(digits)
        if not length:
            return b""
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), timeout=BODY_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            self._count_rejection("body_timeout")
            error = "request body not received in time"
            await self._respond_json(writer, 408, {"ok": False, "error": error})
            return None
        except asyncio.IncompleteReadError:
            return None  # the client hung up mid-body

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond_json(writer, 200, self._health_document())
            return
        if path == "/metrics" and method == "GET":
            await self._respond_metrics(writer)
            return
        if path == "/v1/submit":
            if method != "POST":
                await self._respond_json(
                    writer, 405, {"ok": False, "error": "submit requires POST"}
                )
                return
            await self._handle_submit(writer, body)
            return
        await self._respond_json(
            writer, 404, {"ok": False, "error": f"unknown path {path}"}
        )

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        if self._draining:
            self._count_rejection("draining")
            await self._respond_json(
                writer,
                503,
                {"ok": False, "error": "daemon is draining"},
                retry_after=RETRY_AFTER_DRAINING_S,
            )
            return
        try:
            request = parse_request(body)
        except ProtocolError as error:
            self._count_rejection("protocol")
            await self._respond_json(writer, 400, {"ok": False, "error": str(error)})
            return
        if self._inflight >= self.config.workers + self.config.max_queue:
            self._count_rejection("queue")
            await self._respond_json(
                writer,
                429,
                {
                    "ok": False,
                    "error": "request queue is full",
                    "inflight": self._inflight,
                },
                retry_after=RETRY_AFTER_QUEUE_S,
            )
            return
        try:
            self.tenants.charge(request.tenant, request.workload)
        except BudgetExceeded as error:
            self._count_rejection("budget")
            await self._respond_json(
                writer,
                429,
                {"ok": False, "error": str(error), "tenant": request.tenant},
                retry_after=RETRY_AFTER_BUDGET_S,
            )
            return

        self._inflight += 1
        try:
            if request.stream:
                await self._respond_streaming(writer, request)
            else:
                status, payload = await self._run_on_worker(request, None)
                await self._respond_json(writer, status, payload)
        finally:
            self._inflight -= 1

    async def _run_on_worker(self, request: ServeRequest, sink):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_request, request, sink
        )

    async def _respond_streaming(
        self, writer: asyncio.StreamWriter, request: ServeRequest
    ) -> None:
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Tuple[str, object]]" = asyncio.Queue()

        def sink(event) -> None:
            # Runs on the worker thread: hop to the loop.
            loop.call_soon_threadsafe(
                queue.put_nowait, ("event", event.to_dict())
            )

        future = asyncio.ensure_future(self._run_on_worker(request, sink))
        future.add_done_callback(lambda _f: queue.put_nowait(("done", None)))

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        done = False
        while not done or not queue.empty():
            kind, data = await queue.get()
            if kind == "done":
                done = True
                continue
            await self._write_chunk(
                writer, json.dumps({"kind": "event", "event": data}, sort_keys=True)
            )
        try:
            status, payload = await future
        except Exception as error:  # worker infrastructure failure
            status, payload = 500, {"ok": False, "error": str(error)}
        await self._write_chunk(
            writer,
            json.dumps(
                {"kind": "result", "status": status, **payload}, sort_keys=True
            ),
        )
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    async def _write_chunk(writer: asyncio.StreamWriter, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
        await writer.drain()

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict,
        retry_after: Optional[int] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        extra = f"Retry-After: {retry_after}\r\n" if retry_after is not None else ""
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _respond_metrics(self, writer: asyncio.StreamWriter) -> None:
        body = self._render_metrics().encode("utf-8")
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {PROMETHEUS_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Introspection documents
    # ------------------------------------------------------------------
    def _queue_depth_now(self) -> int:
        return max(0, self._inflight - self.config.workers)

    def _health_document(self) -> Dict:
        stats = self.artifacts.stats()
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "inflight": self._inflight,
            "queue_depth": self._queue_depth_now(),
            "workers": self.config.workers,
            "max_queue": self.config.max_queue,
            "artifacts": stats,
            "tenants": [
                {"tenant": name, "spent": spent, "remaining": remaining}
                for name, spent, remaining in self.tenants.tenants()
            ],
        }

    def _render_metrics(self) -> str:
        stats = self.artifacts.stats()
        with self._metrics_lock:
            self._queue_depth.set(self._queue_depth_now())
            self._inflight_gauge.set(self._inflight)
            self._engine_cache_hits.set(stats["engine_hits"])
            self._engine_cache_misses.set(stats["engine_misses"])
            self._engine_cache_entries.set(stats["engines"])
            self._study_cache_hits.set(stats["study_hits"])
            self._study_cache_misses.set(stats["study_misses"])
            snapshot = self.metrics.snapshot()
        return metrics_to_prometheus(snapshot)

    def _count_rejection(self, reason: str) -> None:
        with self._metrics_lock:
            self._rejected_total.labels(reason=reason).inc()

    # ------------------------------------------------------------------
    # Worker-thread side
    # ------------------------------------------------------------------
    def _run_request(self, request: ServeRequest, sink) -> Tuple[int, Dict]:
        """Execute one admitted request (worker thread).

        Installs the request's thread-local telemetry, runs the
        workload, builds the per-request manifest, and folds the
        request's metric snapshot into the daemon registry.
        """
        obs = Observability(enabled=True)
        if sink is not None:
            obs.events.subscribe(sink)
        tracer = Tracer()
        previous = set_obs(obs)
        start = time.perf_counter()
        result: Optional[Dict] = None
        error: Optional[str] = None
        try:
            with tracer.activate():
                with tracer.span(
                    "serve.request",
                    workload=request.workload,
                    tenant=request.tenant,
                ):
                    publish(
                        CATEGORY_SERVE,
                        "request.start",
                        workload=request.workload,
                        tenant=request.tenant,
                        seed=request.seed,
                    )
                    result = run_workload(request, self.artifacts)
                    publish(
                        CATEGORY_SERVE,
                        "request.finish",
                        workload=request.workload,
                        tenant=request.tenant,
                    )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            set_obs(previous)
        elapsed = time.perf_counter() - start

        manifest = build_manifest(
            obs,
            tracer,
            kind="serve",
            config=request_to_dict(request),
            meta={
                "workload": request.workload,
                "tenant": request.tenant,
                "ok": error is None,
            },
        )
        manifest_path = self._write_manifest(manifest, request)

        status = "ok" if error is None else "error"
        with self._metrics_lock:
            self._requests_total.labels(
                workload=request.workload, tenant=request.tenant, status=status
            ).inc()
            self._request_seconds.labels(workload=request.workload).observe(
                elapsed
            )
            self.metrics.merge_snapshot(obs.metrics.snapshot())

        base = {
            "protocol": PROTOCOL_VERSION,
            "workload": request.workload,
            "tenant": request.tenant,
            "seed": request.seed,
            "scale": request.scale,
            "backend": request.backend,
            "elapsed_s": round(elapsed, 6),
            "manifest": {
                "config_digest": manifest.config_digest,
                "event_counts": manifest.event_counts,
                "path": manifest_path,
            },
        }
        if error is not None:
            return 500, {"ok": False, "error": error, **base}
        return 200, {"ok": True, "result": result, **base}

    def _write_manifest(self, manifest, request: ServeRequest) -> Optional[str]:
        if self.config.run_dir is None:
            return None
        with self._seq_lock:
            self._request_seq += 1
            seq = self._request_seq
        directory = os.path.join(self.config.run_dir, "manifests")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"req-{seq:06d}-{request.workload}.json")
        manifest.save(path)
        return path


@dataclass
class DaemonHandle:
    """A daemon running on a background thread (tests, load generator)."""

    daemon: ReproDaemon
    thread: threading.Thread

    @property
    def port(self) -> int:
        assert self.daemon.bound_port is not None
        return self.daemon.bound_port

    @property
    def host(self) -> str:
        return self.daemon.config.host

    def shutdown(self, timeout: float = 120.0) -> None:
        """Drain and join; raises if the daemon fails to stop in time."""
        self.daemon.request_drain()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon did not drain within the timeout")


def start_in_thread(
    config: Optional[ServeConfig] = None, startup_timeout: float = 60.0
) -> DaemonHandle:
    """Run a daemon on a background thread; returns once it is bound."""
    daemon = ReproDaemon(config)

    def runner() -> None:
        try:
            asyncio.run(daemon.run())
        except BaseException as error:  # surfaced via startup_error
            if daemon.startup_error is None:
                daemon.startup_error = error
            daemon.ready.set()

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not daemon.ready.wait(startup_timeout):
        raise RuntimeError("serve daemon did not start within the timeout")
    if daemon.startup_error is not None:
        raise RuntimeError(
            f"serve daemon failed to start: {daemon.startup_error}"
        )
    return DaemonHandle(daemon=daemon, thread=thread)
