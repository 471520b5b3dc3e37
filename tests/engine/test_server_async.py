"""Async front-end transport behavior: keep-alive, pipelining,
backpressure, slow-loris defense, and the loop-stall bound.

Route *semantics* are covered by the differential conformance suite
(the async server shares ``HttpHandlers`` with the threaded one); this
module tests what is new in the transport itself:

* one connection carries many requests, responses in request order;
* when the worker queue is full new requests get an immediate 503 with
  ``Retry-After`` — counted and reconciled at ``/metrics``;
* a dribbling (slow-loris) client is cut off by the header timeout
  without starving well-behaved clients;
* nothing blocking ever runs on the event loop: the watchdog's worst
  observed stall stays under 50 ms through a request soak.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.replication import LogShipper
from repro.taxonomy import build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase


def _build_db(tmp_path=None) -> PrometheusDB:
    db = PrometheusDB(path=None if tmp_path is None else tmp_path / "db")
    taxdb = TaxonomyDatabase.over_engine(db)
    build_shapes_scenario(taxdb)
    return db


def _read_http_response(sock_file):
    """Parse one HTTP/1.1 response off a socket file; returns
    (status, headers, body) or None on EOF."""
    status_line = sock_file.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = sock_file.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").strip().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = sock_file.read(length) if length else b""
    return status, headers, body


@pytest.fixture(scope="module")
def served():
    db = _build_db()
    with AsyncPrometheusServer(db) as server:
        yield server


class TestKeepAliveAndPipelining:
    def test_connection_reused_across_requests(self, served):
        conn = http.client.HTTPConnection(*served.address, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/classes/Specimen")
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                assert not response.will_close
                assert json.loads(body)["name"] == "Specimen"
            sock_before = conn.sock
            conn.request("GET", "/schema")
            conn.getresponse().read()
            assert conn.sock is sock_before  # same socket, no reconnect
        finally:
            conn.close()

    def test_pipelined_responses_arrive_in_request_order(self, served):
        """Send N requests before reading any response; the bodies must
        come back in exactly the order the requests were written."""
        oids_body = http.client.HTTPConnection(*served.address, timeout=10)
        oids_body.request("GET", "/classes/Specimen/extent")
        oids = json.loads(oids_body.getresponse().read())
        oids_body.close()
        assert len(oids) >= 8

        with socket.create_connection(served.address, timeout=15) as sock:
            burst = b""
            for oid in oids[:8]:
                burst += (
                    f"GET /objects/{oid} HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n"
                ).encode()
            sock.sendall(burst)
            sock_file = sock.makefile("rb")
            for oid in oids[:8]:
                status, _, body = _read_http_response(sock_file)
                assert status == 200
                assert json.loads(body)["oid"] == oid

    def test_http10_client_gets_connection_close(self, served):
        with socket.create_connection(served.address, timeout=10) as sock:
            sock.sendall(b"GET /schema HTTP/1.0\r\nHost: x\r\n\r\n")
            sock_file = sock.makefile("rb")
            status, headers, _ = _read_http_response(sock_file)
            assert status == 200
            assert headers["connection"] == "close"
            assert sock_file.readline() == b""  # server closed the socket

    def test_malformed_request_line_rejected(self, served):
        with socket.create_connection(served.address, timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, _, body = _read_http_response(sock.makefile("rb"))
            assert status == 400
            assert b"malformed" in body


class TestBackpressure:
    def test_queue_full_rejects_503_and_counts(self, tmp_path):
        """Park the single worker on a long-poll pull, fill the queue,
        and verify the overflow request is answered 503 immediately —
        then reconcile the rejection counter at /metrics."""
        db = _build_db(tmp_path)
        shipper = LogShipper(db.store, telemetry=db.telemetry)
        server = AsyncPrometheusServer(
            db, shipper=shipper, workers=1, queue_cap=2, retry_after_s=7
        )
        with server:
            # Worker 1: a replication long-poll at the log head parks
            # the only worker thread for ~2s.
            parked = http.client.HTTPConnection(*server.address, timeout=15)
            parked.request(
                "POST",
                "/replicate/pull",
                json.dumps({"from_lsn": db.lsn, "wait_s": 2.0}).encode(),
            )
            time.sleep(0.2)  # let the pull reach the worker

            # Request 2 fills the queue slot behind the parked worker.
            queued = http.client.HTTPConnection(*server.address, timeout=15)
            queued.request("GET", "/classes/Specimen")
            time.sleep(0.2)

            # Request 3 overflows: immediate 503 + Retry-After, long
            # before the parked worker frees up.
            overflow = http.client.HTTPConnection(*server.address, timeout=15)
            begin = time.monotonic()
            overflow.request("GET", "/schema")
            response = overflow.getresponse()
            elapsed = time.monotonic() - begin
            body = response.read()
            assert response.status == 503
            assert response.headers["Retry-After"] == "7"
            assert b"overloaded" in body
            assert elapsed < 1.0, f"503 took {elapsed:.2f}s; not immediate"
            overflow.close()

            # The parked pull drains (204: caught up) and the queued
            # request completes — backpressure shed load, it did not
            # collapse the server.
            assert parked.getresponse().status == 204
            parked.close()
            assert queued.getresponse().status == 200
            queued.close()

            # The loop-thread counter is authoritative and reconciled
            # into the Prometheus registry at scrape time.
            assert server.rejected >= 1
            scrape = http.client.HTTPConnection(*server.address, timeout=15)
            scrape.request("GET", "/metrics")
            text = scrape.getresponse().read().decode()
            scrape.close()
            rejected = [
                line for line in text.splitlines()
                if line.startswith("repro_server_rejected_total")
            ]
            assert rejected, "rejection counter missing from /metrics"
            assert int(rejected[0].split()[-1]) == (
                server.rejected + server.connections_rejected
            )

    def test_connection_cap_rejects_with_503(self, tmp_path):
        db = _build_db(tmp_path)
        server = AsyncPrometheusServer(db, max_connections=2)
        with server:
            keepers = []
            try:
                for _ in range(2):
                    sock = socket.create_connection(server.address, timeout=10)
                    # Touch the server so the connection is registered.
                    sock.sendall(b"GET /schema HTTP/1.1\r\nHost: x\r\n\r\n")
                    _read_http_response(sock.makefile("rb"))
                    keepers.append(sock)
                extra = socket.create_connection(server.address, timeout=10)
                status, headers, _ = _read_http_response(extra.makefile("rb"))
                assert status == 503
                assert "retry-after" in headers
                extra.close()
                assert server.connections_rejected >= 1
            finally:
                for sock in keepers:
                    sock.close()


class TestSlowLoris:
    def test_dribbling_header_times_out_408(self, tmp_path):
        db = _build_db(tmp_path)
        server = AsyncPrometheusServer(db, header_timeout_s=0.4)
        with server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(b"GET /sch")  # never finishes the line
                begin = time.monotonic()
                result = _read_http_response(sock.makefile("rb"))
                elapsed = time.monotonic() - begin
                assert result is not None
                assert result[0] == 408
                assert elapsed < 5.0
            assert server.timeouts >= 1

    def test_dribbler_does_not_starve_other_clients(self, tmp_path):
        db = _build_db(tmp_path)
        server = AsyncPrometheusServer(db, header_timeout_s=3.0, workers=2)
        with server:
            dribblers = []
            try:
                for _ in range(4):
                    sock = socket.create_connection(server.address, timeout=10)
                    sock.sendall(b"POST /que")  # stuck mid-request-line
                    dribblers.append(sock)
                time.sleep(0.1)
                # A normal client sails through while four connections
                # dribble: stuck clients hold sockets, not workers.
                begin = time.monotonic()
                conn = http.client.HTTPConnection(*server.address, timeout=10)
                conn.request("GET", "/classes/Specimen")
                assert conn.getresponse().status == 200
                assert time.monotonic() - begin < 2.0
                conn.close()
            finally:
                for sock in dribblers:
                    sock.close()

    def test_body_timeout_cuts_off_torn_post(self, tmp_path):
        db = _build_db(tmp_path)
        server = AsyncPrometheusServer(db, body_timeout_s=0.4)
        with server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 500\r\n\r\n"
                    b'{"query": '  # 489 bytes never arrive
                )
                result = _read_http_response(sock.makefile("rb"))
                assert result is not None and result[0] == 408


class TestLoopThreadDiscipline:
    """Deterministic twin of the stall soak below: it checks where
    handler work runs, not how long the loop waited."""

    def test_misses_run_on_the_pool_and_hits_never_reach_handle(
        self, served, monkeypatch
    ):
        handlers = served.handlers
        seen: dict[str, list[threading.Thread]] = {"probe": [], "handle": []}

        def recorded(name, method):
            def call(request):
                seen[name].append(threading.current_thread())
                return method(request)

            return call

        for name, attr in (("probe", "serve_cached"), ("handle", "handle")):
            monkeypatch.setattr(
                handlers, attr, recorded(name, getattr(handlers, attr))
            )
        # A query text no other test sends, so the first one misses.
        query = json.dumps(
            {"query": "select s from s in Specimen where s.oid > -7"}
        ).encode()
        conn = http.client.HTTPConnection(*served.address, timeout=10)
        try:
            for method, path, body in (
                ("POST", "/query", query),  # miss: a pool worker
                ("POST", "/query", query),  # hit: answered on the loop
                ("GET", "/schema", None),  # uncacheable: a pool worker
            ):
                conn.request(method, path, body)
                response = conn.getresponse()
                response.read()
                assert response.status == 200
        finally:
            conn.close()
        assert len(seen["probe"]) == 3
        loop_thread = seen["probe"][0]
        assert set(seen["probe"]) == {loop_thread}
        # The hit never reached handle: one call per miss, none on the loop.
        assert len(seen["handle"]) == 2
        for thread in seen["handle"]:
            assert thread is not loop_thread
            assert thread.name.startswith("prometheus-worker")


class TestLoopStallBound:
    def test_no_event_loop_stall_over_50ms_under_soak(self, served):
        """Regression for blocking-work-on-the-accept-path: hammer the
        server (queries, cached repeats, resolves, metrics scrapes,
        INFO-level access logging active) from several keep-alive
        connections and assert the event-loop watchdog never observed
        a scheduling stall above the 50 ms bound."""
        import logging

        served.max_stall_ms = 0.0  # scope the measurement to the soak
        logging.getLogger("repro.server.access").setLevel(logging.INFO)
        try:
            errors: list = []

            def soak(worker_id: int) -> None:
                try:
                    conn = http.client.HTTPConnection(
                        *served.address, timeout=15
                    )
                    for i in range(40):
                        if i % 3 == 0:
                            conn.request(
                                "POST",
                                "/query",
                                json.dumps({
                                    "query":
                                        "select s from s in Specimen",
                                }).encode(),
                            )
                        elif i % 3 == 1:
                            conn.request(
                                "POST",
                                "/resolve",
                                json.dumps({
                                    "names": ["Ovals", "Circles"],
                                    "attr": "epithet",
                                }).encode(),
                            )
                        else:
                            conn.request("GET", "/metrics")
                        response = conn.getresponse()
                        response.read()
                        assert response.status == 200
                    conn.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=soak, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, f"soak clients failed: {errors!r}"
        finally:
            logging.getLogger("repro.server.access").setLevel(
                logging.NOTSET
            )
        assert served.max_stall_ms < 50.0, (
            f"event loop stalled {served.max_stall_ms:.1f}ms during soak; "
            "blocking work has crept onto the accept path"
        )
