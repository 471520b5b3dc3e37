"""HTTP access layer (§6.1.7)."""

import json
import logging
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB, jsonable
from repro.engine.federation import Federation
from repro.taxonomy import build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase


@pytest.fixture(scope="module")
def served():
    db = PrometheusDB()
    taxdb = TaxonomyDatabase.over_engine(db)
    scenario = build_shapes_scenario(taxdb)
    with AsyncPrometheusServer(db) as server:
        yield server.url, db, scenario


def get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.load(response)


def post(url, payload):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.load(response)


class TestRoutes:
    def test_schema(self, served):
        url, db, _ = served
        status, body = get(url + "/schema")
        assert status == 200
        assert "Specimen" in body["classes"]

    def test_class_description(self, served):
        url, *_ = served
        status, body = get(url + "/classes/Specimen")
        assert status == 200
        assert "collector" in body["attributes"]

    def test_class_extent(self, served):
        url, db, _ = served
        status, body = get(url + "/classes/Specimen/extent")
        assert status == 200
        assert len(body) == 11

    def test_unknown_class_404(self, served):
        url, *_ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(url + "/classes/Martian")
        assert err.value.code == 404

    def test_object_fetch(self, served):
        url, _, scenario = served
        white = scenario.specimens["white_square"]
        status, body = get(url + f"/objects/{white.oid}")
        assert status == 200
        assert body["values"]["field_name"] == "white_square"
        assert body["class"] == "Specimen"

    def test_object_404(self, served):
        url, *_ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(url + "/objects/999999")
        assert err.value.code == 404

    def test_classifications_listing(self, served):
        url, *_ = served
        status, body = get(url + "/classifications")
        assert body == [
            "T1 shapes", "T2 sections", "T3 brightness", "T4 revision"
        ]

    def test_classification_detail(self, served):
        url, *_ = served
        status, body = get(url + "/classifications/T1%20shapes")
        assert body["author"] == "Taxonomist1"
        assert len(body["edges"]) == 9
        assert len(body["roots"]) == 1

    def test_query_endpoint(self, served):
        url, *_ = served
        status, body = post(
            url + "/query",
            {"query": "select count(s) from s in Specimen"},
        )
        assert body["result"] == [11]

    def test_query_with_params(self, served):
        url, _, scenario = served
        white = scenario.specimens["white_square"]
        status, body = post(
            url + "/query",
            {
                "query": "select s.field_name from s in Specimen "
                "where s.oid = $o",
                "params": {"o": white.oid},
            },
        )
        assert body["result"] == ["white_square"]

    def test_bad_query_400(self, served):
        url, *_ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            post(url + "/query", {"query": "selectt x"})
        assert err.value.code == 400

    def test_missing_query_400(self, served):
        url, *_ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            post(url + "/query", {})
        assert err.value.code == 400

    def test_unknown_route_404(self, served):
        url, *_ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(url + "/nothing/here")
        assert err.value.code == 404


def get_text(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestObservability:
    def test_metrics_prometheus_exposition(self, served):
        url, *_ = served
        status, content_type, text = get_text(url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        # At least one counter from every instrumented layer, even for
        # families that have seen no traffic yet.
        for family in (
            "repro_events_published_total",
            "repro_rules_fired_total",
            "repro_query_total",
            "repro_storage_ops_total",
            "repro_federation_requests_total",
        ):
            assert family in text, f"{family} missing from /metrics"

    def test_metrics_reflect_served_queries(self, served):
        url, db, _ = served
        before = db.telemetry.registry.counter("repro_query_total").value
        # A query body this module has not posted before: the response
        # cache misses and the engine runs it.
        body = {"query": "select count(s) from s in Specimen where true"}
        post(url + "/query", body)
        after = db.telemetry.registry.counter("repro_query_total").value
        assert after == before + 1
        # The identical body again: served pre-serialized from the
        # response cache, without touching the engine.
        post(url + "/query", body)
        assert (
            db.telemetry.registry.counter("repro_query_total").value == after
        )

    def test_http_requests_counted_by_status(self, served):
        url, db, _ = served
        get(url + "/schema")
        snap = db.telemetry.registry.snapshot()
        by_label = snap["repro_http_requests_total"]
        assert any("method=GET" in k and "status=200" in k for k in by_label)
        assert snap["repro_http_request_ms"]["count"] >= 1

    def test_stats_snapshot(self, served):
        url, db, _ = served
        status, body = get(url + "/stats")
        assert status == 200
        assert body["enabled"] is True
        assert body["uptime_s"] >= 0
        assert "repro_query_total" in body["metrics"]
        assert isinstance(body["slow_queries"], list)

    def test_explain_through_query_endpoint(self, served):
        url, *_ = served
        status, body = post(
            url + "/query",
            {"query": "EXPLAIN select s from s in Specimen"},
        )
        assert status == 200
        assert body["result"]["mode"] == "explain"
        assert body["result"]["plan"]["access_paths"] == ["scan:Specimen"]

    def test_access_log_entry(self, served, caplog):
        url, *_ = served
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            get(url + "/schema")
            # The handler thread logs after the response body is sent;
            # give it a moment.
            for _ in range(50):
                if any(
                    getattr(r, "http_path", "") == "/schema"
                    for r in caplog.records
                ):
                    break
                time.sleep(0.01)
        records = [
            r for r in caplog.records
            if getattr(r, "http_path", "") == "/schema"
        ]
        assert records, "no access-log entry for GET /schema"
        record = records[-1]
        assert record.http_method == "GET"
        assert record.http_status == 200
        assert record.duration_ms >= 0
        assert "status=200" in record.getMessage()

    def test_protocol_chatter_not_on_stderr(self, served, capfd):
        url, *_ = served
        get(url + "/schema")
        assert "GET /schema" not in capfd.readouterr().err


class TestHealth:
    def test_health_in_memory_db(self, served):
        url, *_ = served
        status, body = get(url + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["store"] is None
        assert body["uptime_s"] >= 0
        tel = body["telemetry"]
        assert tel["enabled"] is True
        assert "repro_query_total" in tel["counters"]
        assert "federation" not in body  # none attached

    def test_health_store_without_recovery_report(self, tmp_path):
        """A store that never produced a recovery report degrades
        gracefully: /health reports the absence and stays "ok"."""
        db = PrometheusDB(tmp_path / "log.db")
        db.store.last_recovery = None
        with AsyncPrometheusServer(db) as server:
            status, body = get(server.url + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["store"]["recovery"] is None
        assert body["store"]["live_records"] == 0

    def test_health_reports_federation_breakers(self):
        db = PrometheusDB()
        federation = Federation()
        federation.add_node("n1", "http://127.0.0.1:1")
        federation.add_node("n2", "http://127.0.0.1:2")
        federation.attach_telemetry(db.telemetry)
        with AsyncPrometheusServer(db, federation=federation) as server:
            status, body = get(server.url + "/health")
        assert body["federation"] == {
            "n1": {"breaker": "closed", "consecutive_failures": 0},
            "n2": {"breaker": "closed", "consecutive_failures": 0},
        }
        # The breaker-state collector also feeds /metrics gauges.
        text = db.telemetry.registry.render_prometheus()
        assert 'repro_federation_breaker_state{node="n1"} 0' in text


class TestJsonable:
    def test_objects(self, served):
        _, _, scenario = served
        data = jsonable(scenario.specimens["white_square"])
        assert data["class"] == "Specimen"
        assert "values" in data

    def test_relationship_instances_carry_endpoints(self, served):
        _, db, _ = served
        edge = db.schema.relationships.instances_of("Includes")[0]
        data = jsonable(edge)
        assert data["origin"] == edge.origin_oid
        assert data["destination"] == edge.destination_oid

    def test_graph_view(self, served):
        _, db, scenario = served
        from repro.classification import extract_graph

        view = extract_graph(scenario.classifications["T1"])
        data = jsonable(view)
        assert len(data["edges"]) == 9

    def test_fallback_repr(self):
        assert isinstance(jsonable(object()), str)
