"""Wire protocol of the serve daemon: request shape and study configs.

The daemon speaks newline-free JSON request bodies over HTTP POST and
answers either one JSON document or a chunked NDJSON stream (progress
events, then the result).  Everything the daemon and the CLI must
agree on byte-for-byte lives here — most importantly
:func:`build_study_config`, the **single** constructor of study
configurations used by ``repro study``, ``repro query`` and the daemon
workers, so a daemon-submitted study cannot drift from the CLI path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.pipeline import StudyConfig
from repro.topogen.config import small_config

#: Bumped when the request/response shape changes incompatibly.
PROTOCOL_VERSION = 1

#: The workloads a daemon accepts, in documentation order.
WORKLOADS: Tuple[str, ...] = ("study", "classify", "check", "bench")

#: Study scales a request may name.
SCALES: Tuple[str, ...] = ("small", "full")

#: Routing-engine backends a request may name.
BACKENDS: Tuple[str, ...] = ("dict", "array")

#: Event category for the daemon's own lifecycle events.
CATEGORY_SERVE = "serve"

#: Credits one admission of each workload debits from a tenant's
#: ledger (same :class:`~repro.atlas.budget.CreditLedger` machinery
#: the measurement campaign uses, with serve-shaped costs: a study is
#: the expensive traceroute-class request, a bench ping-class).
SERVE_COSTS: Dict[str, int] = {
    "study": 60,
    "classify": 20,
    "check": 30,
    "bench": 10,
}

#: Default per-tenant daily budget: enough for a realistic mixed
#: session, small enough that a runaway client is throttled.
DEFAULT_TENANT_BUDGET = 1200


class ProtocolError(ValueError):
    """A request that cannot be admitted (HTTP 400)."""


@dataclass(frozen=True)
class ServeRequest:
    """One validated workload request."""

    workload: str
    tenant: str = "anonymous"
    seed: int = 0
    scale: str = "small"
    backend: str = "dict"
    stream: bool = False
    #: Workload-specific knobs (``check``: seeds/only; ``bench``:
    #: rounds).  Validated by :func:`parse_request`.
    params: Dict[str, object] = field(default_factory=dict)


def build_study_config(
    seed: int = 0, scale: str = "small", backend: str = "dict"
) -> StudyConfig:
    """The canonical study configuration for one (seed, scale, backend).

    This is the one place the quick-scale parameter block lives:
    ``repro study --small``, :func:`repro.experiments.scenario.quick_study`
    and every daemon study worker call through here, which is what makes
    the daemon-vs-CLI byte-identity differential meaningful rather than
    a coincidence of copy-pasted numbers.
    """
    if scale not in SCALES:
        raise ProtocolError(f"unknown scale {scale!r} (expected one of {SCALES})")
    if backend not in BACKENDS:
        raise ProtocolError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    if scale == "small":
        return StudyConfig(
            topology=small_config(),
            seed=seed,
            num_probes=400,
            probes_per_continent=25,
            active_vp_budget=40,
            max_discovery_targets=20,
            backend=backend,
        )
    return StudyConfig(seed=seed, backend=backend)


def _require_int(value: object, name: str, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise ProtocolError(
            f"{name} must be in [{minimum}, {maximum}], got {value}"
        )
    return value


def parse_request(body: bytes) -> ServeRequest:
    """Validate one POST body into a :class:`ServeRequest`.

    Strict about shape: unknown workloads, scales, backends and
    non-string tenants are protocol errors (HTTP 400), never silent
    defaults — a multi-tenant daemon must not guess what a client
    meant and bill some tenant for it.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ProtocolError("request body must be a JSON object")

    workload = data.get("workload")
    if workload not in WORKLOADS:
        raise ProtocolError(
            f"unknown workload {workload!r} (expected one of {WORKLOADS})"
        )
    tenant = data.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"tenant must be a non-empty string, got {tenant!r}")
    seed = _require_int(data.get("seed", 0), "seed", 0, 2**31 - 1)
    scale = data.get("scale", "small")
    if scale not in SCALES:
        raise ProtocolError(f"unknown scale {scale!r} (expected one of {SCALES})")
    backend = data.get("backend", "dict")
    if backend not in BACKENDS:
        raise ProtocolError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    stream = data.get("stream", False)
    if not isinstance(stream, bool):
        raise ProtocolError(f"stream must be a boolean, got {stream!r}")

    params: Dict[str, object] = {}
    if workload == "check":
        params["seeds"] = _require_int(data.get("seeds", 8), "seeds", 1, 500)
        only = data.get("only")
        if only is not None:
            if not isinstance(only, list) or not all(
                isinstance(item, str) for item in only
            ):
                raise ProtocolError(f"only must be a list of strings, got {only!r}")
            params["only"] = list(only)
    elif workload == "bench":
        params["rounds"] = _require_int(data.get("rounds", 1), "rounds", 1, 100)

    known = {
        "workload",
        "tenant",
        "seed",
        "scale",
        "backend",
        "stream",
        "seeds",
        "only",
        "rounds",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProtocolError(f"unknown request field(s): {', '.join(unknown)}")

    return ServeRequest(
        workload=workload,
        tenant=tenant,
        seed=seed,
        scale=scale,
        backend=backend,
        stream=stream,
        params=params,
    )


def request_to_dict(request: ServeRequest) -> Dict[str, object]:
    """The JSON body for one request (client side of :func:`parse_request`)."""
    body: Dict[str, object] = {
        "workload": request.workload,
        "tenant": request.tenant,
        "seed": request.seed,
        "scale": request.scale,
        "backend": request.backend,
    }
    if request.stream:
        body["stream"] = True
    body.update(request.params)
    return body


def study_cache_key(request: ServeRequest) -> Tuple[str, int, str, str]:
    """The artifact-store key a study/classify request shares."""
    return ("study", request.seed, request.scale, request.backend)
