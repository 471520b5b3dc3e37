"""Response-cache hits answered on the async server's event loop.

A hit costs a cache probe and one socket write on the loop thread; only
misses and uncacheable routes cross to the worker pool.  These tests pin
what that must not change: a hit does not queue behind a busy pool,
each cacheable request is counted exactly once (hit or miss, and the
same numbers at ``/metrics``), and a hit keeps the whole envelope —
the caller's ``traceparent`` is adopted, ``X-Repro-Trace-Id`` carries
its trace id, and the ``http.request`` span is listed at
``/trace/<id>``.
"""

import http.client
import json
import time

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.replication import LogShipper
from repro.taxonomy import build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase
from repro.telemetry import DISABLED, format_traceparent, propagation

QUERY = {"query": 'select t from t in NomenclaturalTaxon '
                  'where t.epithet = "Circles"'}


def _build_db(tmp_path=None, telemetry=None) -> PrometheusDB:
    db = PrometheusDB(
        path=None if tmp_path is None else tmp_path / "db",
        telemetry=telemetry,
    )
    build_shapes_scenario(TaxonomyDatabase.over_engine(db))
    return db


def _request(server, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection(*server.address, timeout=15)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


def _scraped(server) -> dict[str, int]:
    _, _, text = _request(server, "GET", "/metrics")
    return {
        line.split()[0]: int(float(line.split()[-1]))
        for line in text.decode().splitlines()
        if line.startswith("repro_server_response_cache_")
    }


def test_hit_does_not_wait_for_the_pool(tmp_path):
    """With the only worker parked on a 2 s long-poll, a warmed query
    still answers at once, byte for byte what the warm-up got."""
    db = _build_db(tmp_path)
    shipper = LogShipper(db.store, telemetry=db.telemetry)
    with AsyncPrometheusServer(db, shipper=shipper, workers=1) as server:
        warm = _request(server, "POST", "/query", QUERY)
        assert warm[0] == 200

        parked = http.client.HTTPConnection(*server.address, timeout=15)
        parked.request(
            "POST",
            "/replicate/pull",
            json.dumps({"from_lsn": db.lsn, "wait_s": 2.0}).encode(),
        )
        time.sleep(0.2)  # let the pull reach the worker
        try:
            begin = time.monotonic()
            status, _, body = _request(server, "POST", "/query", QUERY)
            elapsed = time.monotonic() - begin
            assert status == 200
            assert body == warm[2]
            assert elapsed < 0.5, f"hit took {elapsed:.2f}s behind the pool"
            assert parked.getresponse().status == 204
        finally:
            parked.close()
    db.close()


def test_each_cacheable_request_is_counted_once():
    db = _build_db()
    with AsyncPrometheusServer(db) as server:
        cache = server.handlers.cache
        before = cache.snapshot()
        bodies = [
            QUERY,
            {"query": "select count(s) from s in Specimen"},
            QUERY,
            {"names": ["Ovals", "Circles"], "attr": "epithet"},
            QUERY,
        ]
        cacheable = 0
        for index, body in enumerate(bodies * 2):
            path = "/resolve" if "names" in body else "/query"
            assert _request(server, "POST", path, body)[0] == 200
            cacheable += 1
            if index % 3 == 0:  # uncacheable routes are never counted
                assert _request(server, "GET", "/schema")[0] == 200
        after = cache.snapshot()
        looked_up = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert looked_up == cacheable
        assert after["misses"] - before["misses"] == 3  # one per body
        scraped = _scraped(server)
        assert scraped["repro_server_response_cache_hits_total"] == cache.hits
        assert scraped["repro_server_response_cache_misses_total"] == (
            cache.misses
        )


@pytest.mark.parametrize("telemetry", ["on", "off"])
def test_hit_adopts_the_callers_trace(telemetry):
    db = _build_db(telemetry=None if telemetry == "on" else DISABLED)
    caller = propagation.new_context()
    with AsyncPrometheusServer(db) as server:
        assert _request(server, "POST", "/query", QUERY)[0] == 200
        hits = server.handlers.cache.hits
        status, headers, _ = _request(
            server, "POST", "/query", QUERY,
            headers={"traceparent": format_traceparent(caller)},
        )
        assert status == 200
        assert server.handlers.cache.hits == hits + 1
        assert headers["X-Repro-Trace-Id"] == caller.trace_id
        if telemetry == "off":
            return
        status, _, body = _request(server, "GET", f"/trace/{caller.trace_id}")
        assert status == 200
        [span] = [
            s for s in json.loads(body)["spans"] if s["name"] == "http.request"
        ]
        assert span["parent_span_id"] == caller.span_id
        assert span["attributes"]["path"] == "/query"
        assert span["attributes"]["status"] == 200
