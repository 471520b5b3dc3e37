"""Federation/HTTP resilience: retry, circuit breaking, deadlines, health.

The herbarium-network failure modes of chapter 8: a node that answers
after a hiccup (retry), a node that is down for the afternoon (circuit
breaker), a node that hangs mid-query (fan-out deadline), and the
operator's view of all of it (/health, health_report, count_all
degradation markers).
"""

import http.client
import json
import logging
import os
import socket
import struct
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.engine.federation import (
    CircuitBreaker,
    CircuitOpenError,
    Federation,
    FederationError,
    RemoteDatabase,
    RetryPolicy,
)
from repro.replication import LogShipper
from repro.storage import ObjectStore


# ---------------------------------------------------------------------------
# Test doubles
# ---------------------------------------------------------------------------

class FakeClient:
    """Duck-typed RemoteDatabase standing in for one node."""

    def __init__(self, fail_first: int = 0, result=None):
        self.url = "fake://node"
        self.fail_first = fail_first
        self.calls = 0
        self.result = [1] if result is None else result

    def query(self, text, params=None):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise FederationError("fake: connection refused")
        return self.result

    def classifications(self):
        return ["fake flora"]

    def ping(self):
        return self.calls > self.fail_first


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_federation(**overrides) -> Federation:
    defaults = dict(
        retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002),
        deadline=5.0,
        breaker_threshold=3,
        breaker_reset=0.05,
    )
    defaults.update(overrides)
    return Federation(**defaults)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.5, seed=7)
        assert list(policy.delays()) == list(policy.delays())

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, max_delay=0.4, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=1.0,
                             jitter=0.5, seed=3)
        for base, jittered in zip([0.1, 0.2, 0.4, 0.8], policy.delays()):
            assert base <= jittered <= base * 1.5

    def test_call_retries_until_success(self):
        client = FakeClient(fail_first=2)
        policy = RetryPolicy(attempts=3, base_delay=0.001)
        slept = []
        result = policy.call(
            lambda: client.query("q"), sleep=slept.append
        )
        assert result == [1]
        assert client.calls == 3
        assert len(slept) == 2

    def test_call_exhausts_and_reraises_last(self):
        client = FakeClient(fail_first=99)
        policy = RetryPolicy(attempts=3, base_delay=0.001)
        with pytest.raises(FederationError):
            policy.call(lambda: client.query("q"), sleep=lambda _s: None)
        assert client.calls == 3


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=30,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(31)
        assert breaker.state == "half_open"
        assert breaker.allow()        # the single probe slot
        assert not breaker.allow()    # no second concurrent probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(31)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(15)
        assert not breaker.allow()   # cooldown restarted at probe failure
        clock.advance(16)
        assert breaker.allow()


# ---------------------------------------------------------------------------
# Federation over fakes
# ---------------------------------------------------------------------------

class TestFederationResilience:
    def test_retry_hides_a_transient_failure(self):
        fed = make_federation()
        fed.nodes["flaky"] = FakeClient(fail_first=1)
        fed.nodes["steady"] = FakeClient()
        results = fed.query_all("select count(x) from x in Taxon")
        assert all(r.ok for r in results)
        assert fed.nodes["flaky"].calls == 2

    def test_breaker_opens_after_repeated_query_failures(self):
        fed = make_federation(retry=None)
        dead = FakeClient(fail_first=10 ** 9)
        fed.nodes["dead"] = dead
        for _ in range(3):
            (result,) = fed.query_all("q")
            assert not result.ok
        assert fed.breaker("dead").state == "open"
        calls_when_open = dead.calls
        (result,) = fed.query_all("q")
        assert not result.ok
        assert "circuit open" in result.error
        assert dead.calls == calls_when_open  # the network was not touched

    def test_breaker_half_open_probe_recovers_the_node(self):
        fed = make_federation(retry=None, breaker_threshold=2,
                              breaker_reset=0.02)
        node = FakeClient(fail_first=2)
        fed.nodes["lazarus"] = node
        for _ in range(2):
            (result,) = fed.query_all("q")
            assert not result.ok
        assert fed.breaker("lazarus").state == "open"
        time.sleep(0.03)
        (result,) = fed.query_all("q")  # the half-open probe — succeeds
        assert result.ok
        assert fed.breaker("lazarus").state == "closed"

    def test_count_all_marks_partial_results(self):
        fed = make_federation(retry=None)
        fed.nodes["up"] = FakeClient(result=[4])
        fed.nodes["down"] = FakeClient(fail_first=10 ** 9)
        counts = fed.count_all("Specimen")
        assert counts["up"] == 4
        assert counts["down"] == 0
        assert counts["__total__"] == 4
        assert counts["__partial__"] is True
        assert "down" in counts["__errors__"]

    def test_count_all_clean_when_all_answer(self):
        fed = make_federation()
        fed.nodes["a"] = FakeClient(result=[2])
        fed.nodes["b"] = FakeClient(result=[3])
        counts = fed.count_all("Specimen")
        assert counts["__total__"] == 5
        assert counts["__partial__"] is False
        assert counts["__errors__"] == {}

    def test_health_report_shows_breaker_state(self):
        fed = make_federation(retry=None, breaker_threshold=1)
        fed.nodes["dead"] = FakeClient(fail_first=10 ** 9)
        fed.query_all("q")
        report = fed.health_report()
        assert report["dead"]["breaker"] == "open"
        assert report["dead"]["alive"] is False
        assert report["dead"]["consecutive_failures"] >= 1

    def test_empty_federation_fans_out_to_nothing(self):
        assert make_federation().query_all("q") == []


# ---------------------------------------------------------------------------
# Deadline against a genuinely hung node (real sockets)
# ---------------------------------------------------------------------------

class _SlowQueryHandler(BaseHTTPRequestHandler):
    delay = 3.0

    def log_message(self, fmt, *args):  # noqa: A002
        pass

    def do_POST(self):
        time.sleep(self.delay)
        body = json.dumps({"result": [1]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def slow_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _SlowQueryHandler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()


class TestDeadline:
    def test_hung_node_fails_within_deadline_and_trips_breaker(
        self, slow_server
    ):
        fed = make_federation(retry=None, deadline=0.4, breaker_threshold=2)
        fed.add_node("hung", RemoteDatabase(slow_server, timeout=10.0))
        started = time.monotonic()
        (result,) = fed.query_all("select count(x) from x in Taxon")
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # nowhere near the node's 3 s hang
        assert not result.ok
        assert "deadline" in result.error

        (result,) = fed.query_all("q")
        assert not result.ok
        assert fed.breaker("hung").state == "open"
        (result,) = fed.query_all("q")
        assert "circuit open" in result.error

    def test_live_nodes_still_answer_alongside_a_hung_one(self, slow_server):
        db = PrometheusDB()
        with AsyncPrometheusServer(db) as live:
            fed = make_federation(retry=None, deadline=1.0)
            fed.add_node("hung", RemoteDatabase(slow_server, timeout=10.0))
            fed.add_node("live", RemoteDatabase(live.url, timeout=5.0))
            results = {r.node: r for r in fed.query_all(
                "select count(c) from c in Object"
            )}
            assert not results["hung"].ok
            assert results["live"].ok


# ---------------------------------------------------------------------------
# /health endpoint and handler hardening
# ---------------------------------------------------------------------------

def _get_json(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.load(response)


class TestHealthEndpoint:
    def test_in_memory_db_reports_ok(self):
        with AsyncPrometheusServer(PrometheusDB()) as server:
            status, body = _get_json(server.url + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["store"] is None
        assert body["classes"] >= 1

    def test_persistent_db_reports_recovery_details(self, tmp_path):
        path = tmp_path / "node.plog"
        with PrometheusDB(path=path) as db:
            with AsyncPrometheusServer(db) as server:
                status, body = _get_json(server.url + "/health")
        assert body["status"] == "ok"
        assert body["store"]["recovery"]["clean"] is True
        assert body["store"]["path"] == str(path)

    def test_salvaged_store_reports_degraded(self, tmp_path):
        path = tmp_path / "hurt.plog"
        boundaries = []
        with ObjectStore(path) as store:
            for i in range(8):
                boundaries.append(store.file_size)
                store.insert({"i": i, "pad": "x" * 40})
        with open(path, "r+b") as f:
            f.seek(boundaries[3] + 12)
            byte = f.read(1)
            f.seek(boundaries[3] + 12)
            f.write(bytes([byte[0] ^ 0xFF]))
        with PrometheusDB(path=path) as db:
            with AsyncPrometheusServer(db) as server:
                _, body = _get_json(server.url + "/health")
                _, remote = (
                    200,
                    RemoteDatabase(server.url).health(),
                )
        assert body["status"] == "degraded"
        assert body["store"]["recovery"]["salvaged_entries"] > 0
        assert remote["status"] == "degraded"

    def test_client_reset_before_the_answer_is_dropped_quietly(
        self, tmp_path, caplog
    ):
        """A client that resets its connection while its query waits for
        a worker costs only that connection: the late answer's write
        fails without a traceback on the loop, the connection count
        drains to zero, and the next client is served."""
        caplog.set_level(logging.WARNING, logger="asyncio")
        db = PrometheusDB(path=tmp_path / "node.plog")
        shipper = LogShipper(db.store, telemetry=db.telemetry)
        with AsyncPrometheusServer(db, shipper=shipper, workers=1) as server:
            parked = http.client.HTTPConnection(*server.address, timeout=15)
            parked.request(
                "POST",
                "/replicate/pull",
                json.dumps({"from_lsn": db.lsn, "wait_s": 1.0}).encode(),
            )
            time.sleep(0.2)  # let the pull take the only worker
            body = b'{"query": "select count(c) from c in Object"}'
            doomed = socket.create_connection(server.address, timeout=5)
            doomed.sendall(
                b"POST /query HTTP/1.1\r\nHost: node\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            time.sleep(0.2)  # the query is queued behind the pull
            doomed.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            doomed.close()  # RST, not FIN
            assert parked.getresponse().status == 204
            parked.close()
            deadline = time.monotonic() + 5
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server._connections == 0
            status, _ = _get_json(server.url + "/health")
            assert status == 200
        db.close()
        errors = [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]
        assert errors == []
