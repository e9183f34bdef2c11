"""Seeded malformed-request fuzzing of the serve daemon's HTTP front end.

Every request here is broken in its framing or its body: bad or hostile
``Content-Length`` values, oversized bodies, bodies that never arrive,
truncated bodies, garbage request lines and garbage JSON.  The daemon
must answer each with the right 4xx (or drop the connection when the
client hung up), and afterwards ``/healthz`` must still say ``ok`` and
``/metrics`` must count exactly the rejections the client saw.
"""

import random
import re
import socket

import pytest

import repro.serve.daemon as daemon_module
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, start_in_thread

pytestmark = pytest.mark.serve

MAX_BODY = 4096
BODY_TIMEOUT_S = 0.3

_BAD_LENGTHS = ("abc", "-5", "-0", "1e3", "0x10", "+7", "4 2", "١٢", "1.5")


def _exchange(host, port, data: bytes, hang_up: bool = False) -> int:
    """Send raw bytes; the reply's status code, or 0 if none came."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        if hang_up:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    match = re.match(rb"HTTP/1\.1 (\d{3}) ", reply)
    return int(match.group(1)) if match else 0


def _submit_head(length: str) -> bytes:
    return (
        "POST /v1/submit HTTP/1.1\r\nHost: fuzz\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode("utf-8")


def _cases(rng: random.Random):
    """(request bytes, hang up?, expected status, rejection reason) tuples."""
    cases = []
    for _ in range(40):
        kind = rng.choice(("length", "huge", "slow", "truncated", "line", "json"))
        if kind == "length":
            head = _submit_head(rng.choice(_BAD_LENGTHS))
            cases.append((head, False, 400, "protocol"))
        elif kind == "huge":
            length = rng.choice(
                (str(MAX_BODY + 1), "0" * 10 + str(MAX_BODY + 1), "9" * 10, "9" * 5000)
            )
            cases.append((_submit_head(length), False, 413, "body_too_large"))
        elif kind == "slow":
            length = rng.randint(10, MAX_BODY)
            partial = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 9)))
            head = _submit_head(str(length))
            cases.append((head + partial, False, 408, "body_timeout"))
        elif kind == "truncated":
            length = rng.randint(10, MAX_BODY)
            cases.append((_submit_head(str(length)) + b"{", True, 0, None))
        elif kind == "line":
            size = rng.randint(1, 40)
            junk = bytes(rng.choice(b"GETPOST /\x00\xff?") for _ in range(size))
            cases.append((junk.replace(b"\r\n", b"") + b"\r\n\r\n", False, 400, None))
        else:
            body = rng.choice(
                (
                    b"[" * 4000,
                    b"{\"workload\": ",
                    bytes(rng.getrandbits(8) for _ in range(64)),
                    b"{\"workload\": \"study\", \"seed\": -1}",
                )
            )
            # Leading zeros are valid HTTP: the body is still read and
            # rejected for its content, not its length.
            length = "0" * rng.choice((0, 0, 1, 12)) + str(len(body))
            cases.append((_submit_head(length) + body, False, 400, "protocol"))
    return cases


def _rejections(metrics_text: str):
    counts = {}
    for line in metrics_text.splitlines():
        match = re.match(r'serve_rejected_total\{reason="([^"]+)"\} (\S+)', line)
        if match:
            counts[match.group(1)] = float(match.group(2))
    return counts


@pytest.mark.parametrize("seed", [7, 8])
def test_malformed_requests_leave_daemon_healthy(seed, monkeypatch):
    monkeypatch.setattr(daemon_module, "MAX_BODY_BYTES", MAX_BODY)
    monkeypatch.setattr(daemon_module, "BODY_READ_TIMEOUT_S", BODY_TIMEOUT_S)
    handle = start_in_thread(ServeConfig(port=0, workers=1))
    try:
        expected = {}
        for data, hang_up, status, reason in _cases(random.Random(seed)):
            observed = _exchange(handle.host, handle.port, data, hang_up)
            if status == 400 and reason is None:
                # A garbage request line may still parse as some method
                # and path; it must never be a 5xx or crash the daemon.
                assert 400 <= observed < 500, (data[:60], observed)
            else:
                assert observed == status, (data[:60], observed)
            if reason is not None:
                expected[reason] = expected.get(reason, 0) + 1
        client = ServeClient(handle.host, handle.port)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["inflight"] == 0
        text = client.metrics()["text"]
        assert _rejections(text) == expected
        assert re.search(r"^serve_inflight_requests 0(\.0)?$", text, re.M)
    finally:
        handle.shutdown()
