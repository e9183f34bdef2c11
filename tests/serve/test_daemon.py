"""Daemon integration tests over real HTTP on an ephemeral port.

One module-scoped daemon (2 workers, manifests in a temp run dir)
backs the happy-path tests; admission-control tests spin up small
dedicated daemons, with the workload handler stubbed out where the
test is about queueing rather than studies.
"""

import glob
import json
import os
import threading
import time

import pytest

import repro.serve.daemon as daemon_module
from repro.check.golden import serialize, snapshot_study
from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeConfig, start_in_thread

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("serve-run"))


@pytest.fixture(scope="module")
def handle(run_dir):
    handle = start_in_thread(
        ServeConfig(port=0, workers=2, run_dir=run_dir)
    )
    yield handle
    handle.shutdown()


@pytest.fixture(scope="module")
def client(handle):
    return ServeClient(handle.host, handle.port)


class TestHappyPath:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == 1
        assert health["workers"] == 2

    def test_study_response_is_byte_identical_to_cli_path(self, client, study):
        """The tentpole differential: daemon bytes == CLI bytes."""
        expected = serialize(snapshot_study(study))
        payload = client.submit("study", tenant="alice")
        client.expect_protocol(payload)
        assert payload["ok"] is True
        assert payload["result"]["snapshot_json"] == expected

    def test_second_tenant_reuses_first_tenants_artifacts(self, client):
        """Cross-tenant warm-cache reuse, observable via /metrics."""
        client.submit("study", tenant="alice")
        before = client.healthz()["artifacts"]
        payload = client.submit("classify", tenant="bob")
        assert payload["ok"] is True
        figure1 = payload["result"]["figure1"]
        assert "Simple" in figure1 and "All-1" in figure1
        after = client.healthz()["artifacts"]
        # Bob's classify reran no pipeline: the study memo and both
        # routing engines (simple + partial-transit) came from Alice's
        # study request.
        assert after["study_hits"] == before["study_hits"] + 1
        assert after["engine_hits"] >= before["engine_hits"] + 2
        metrics = client.metrics()
        assert metrics["content_type"] == PROMETHEUS_CONTENT_TYPE
        text = metrics["text"]
        hits = {}
        for line in text.splitlines():
            for name in ("serve_study_cache_hits", "serve_engine_cache_hits"):
                if line.startswith(name + " "):
                    hits[name] = float(line.split()[-1])
        assert hits["serve_study_cache_hits"] == after["study_hits"]
        assert hits["serve_engine_cache_hits"] == after["engine_hits"]
        assert (
            'serve_requests_total{status="ok",tenant="bob",workload="classify"}'
            in text
        )

    def test_requests_write_manifests_into_run_dir(self, client, run_dir):
        manifests = glob.glob(os.path.join(run_dir, "manifests", "req-*.json"))
        assert manifests, "expected per-request manifests under run_dir"
        with open(manifests[0], "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["kind"] == "serve"
        assert document["meta"]["tenant"] in {"alice", "bob"}

    def test_streaming_check_yields_events_then_result(self, client):
        docs = list(
            client.stream("check", tenant="alice", params={"seeds": 2})
        )
        kinds = [doc["kind"] for doc in docs]
        assert kinds[-1] == "result"
        assert kinds.count("result") == 1
        assert "event" in kinds
        events = [doc["event"]["name"] for doc in docs if doc["kind"] == "event"]
        assert "request.start" in events
        assert "request.finish" in events
        result = docs[-1]
        assert result["ok"] is True
        assert result["result"]["ok"] is True

    def test_bad_request_is_400_not_500(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit("study", params={"turbo": True})
        assert excinfo.value.status == 400
        assert "unknown" in str(excinfo.value)
        # The backend follows the graph's size; naming one is rejected.
        with pytest.raises(ServeError) as excinfo:
            client.submit("study", params={"backend": "array"})
        assert excinfo.value.status == 400
        assert "backend" in str(excinfo.value)

    def test_unknown_path_is_404(self, client, handle):
        import http.client

        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            conn.request("GET", "/v2/nope")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
        finally:
            conn.close()


class TestAdmissionControl:
    def test_exhausted_budget_draws_429_with_retry_after(self):
        # Budget 50 < the study cost of 60: rejected before any work.
        handle = start_in_thread(
            ServeConfig(port=0, workers=1, tenant_budget=50)
        )
        try:
            client = ServeClient(handle.host, handle.port)
            with pytest.raises(ServeError) as excinfo:
                client.submit("study", tenant="cheap")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 60
        finally:
            handle.shutdown()

    def test_full_queue_draws_429_with_retry_after(self, monkeypatch):
        """workers=1, max_queue=0: a second in-flight request is shed."""
        release = threading.Event()

        def slow_workload(request, artifacts):
            release.wait(timeout=30)
            return {"slept": True}

        monkeypatch.setattr(daemon_module, "run_workload", slow_workload)
        handle = start_in_thread(ServeConfig(port=0, workers=1, max_queue=0))
        try:
            client = ServeClient(handle.host, handle.port)
            blocker_result = {}

            def blocker():
                blocker_result.update(client.submit("bench", tenant="slow"))

            thread = threading.Thread(target=blocker)
            thread.start()
            deadline = time.time() + 10
            while client.healthz()["inflight"] < 1:
                assert time.time() < deadline, "blocker never became in-flight"
                time.sleep(0.01)
            with pytest.raises(ServeError) as excinfo:
                client.submit("bench", tenant="shed")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 2
            assert excinfo.value.payload["error"] == "request queue is full"
            release.set()
            thread.join(timeout=30)
            assert blocker_result["ok"] is True
        finally:
            release.set()
            handle.shutdown()

    def test_drain_rejects_new_work_and_finishes_inflight(self, monkeypatch):
        """SIGTERM semantics: 503 for new work, in-flight completes."""
        release = threading.Event()

        def slow_workload(request, artifacts):
            release.wait(timeout=30)
            return {"slept": True}

        monkeypatch.setattr(daemon_module, "run_workload", slow_workload)
        handle = start_in_thread(ServeConfig(port=0, workers=2))
        drained = False
        try:
            client = ServeClient(handle.host, handle.port)
            blocker_result = {}

            def blocker():
                blocker_result.update(client.submit("bench", tenant="slow"))

            thread = threading.Thread(target=blocker)
            thread.start()
            deadline = time.time() + 10
            while client.healthz()["inflight"] < 1:
                assert time.time() < deadline, "blocker never became in-flight"
                time.sleep(0.01)
            # Flip the draining flag on the loop thread without firing
            # the full drain (which also stops the listener, racing any
            # in-test connection against the accept loop): submits must
            # now be shed with 503 while in-flight work continues.
            handle.daemon._loop.call_soon_threadsafe(
                setattr, handle.daemon, "_draining", True
            )
            deadline = time.time() + 10
            while client.healthz()["status"] != "draining":
                assert time.time() < deadline, "drain flag never landed"
                time.sleep(0.01)
            with pytest.raises(ServeError) as excinfo:
                client.submit("bench", tenant="late")
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 5
            release.set()
            thread.join(timeout=30)
            assert blocker_result["ok"] is True
            # Now the real drain: the daemon exits once in-flight work
            # is done, after which connections are refused outright.
            handle.shutdown()
            drained = True
            with pytest.raises(OSError):
                client.healthz()
        finally:
            release.set()
            if not drained:
                handle.shutdown()
